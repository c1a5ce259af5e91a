//! The determinism matrix for the parallel runtime.
//!
//! The contract (DESIGN.md "parallel runtime"): worker threads are a pure
//! performance knob — train → persist → detect must be **bit-identical** at
//! every thread count, for every anomaly kind the synthetic archive
//! generates. This is what lets `--threads` be tuned freely on servers and
//! lets persisted models move between machines with different core counts.
//!
//! For each archive anomaly kind, the matrix fits and detects at 1/2/4/8
//! threads and requires, against the serial (1-thread) reference:
//!
//! * identical persisted TRIAD2 model bytes (the strongest train-side
//!   probe: every weight bit, the config header, the training report);
//! * identical `TriadDetection` (votes, prediction, candidates, discords —
//!   `PartialEq` over every field);
//! * identical results again after a persist → load round-trip, since a
//!   loaded model re-runs detection through the same parallel paths.
//!
//! A second matrix repeats one kind with `grad_shards = 2`: sharded
//! gradient accumulation is a *config* switch (it changes the contrastive
//! objective), so its results legitimately differ from `grad_shards = 1` —
//! but across thread counts they must still be bit-identical.
//!
//! A third case shares one fitted model between two threads detecting
//! concurrently: `FittedTriad` is `Send + Sync`, and concurrent readers
//! must each get exactly the serial detection.

mod common;

use common::{dataset_of, quick_cfg, KINDS};
use triad_core::{persist, NumericMode, TriAd, TriadConfig, TriadDetection};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Fit + persist + detect at one thread count.
fn run_at(cfg: &TriadConfig, train: &[f64], test: &[f64]) -> (Vec<u8>, TriadDetection) {
    let fitted = TriAd::new(cfg.clone()).fit(train).expect("fit");
    let mut bytes = Vec::new();
    persist::save(&mut bytes, &fitted).expect("persist");
    assert!(bytes.starts_with(b"TRIAD2\n"), "not a TRIAD2 payload");
    (bytes, fitted.detect(test))
}

fn assert_matrix(label: &str, cfg: TriadConfig, train: &[f64], test: &[f64]) {
    let mut reference: Option<(Vec<u8>, TriadDetection)> = None;
    for t in THREADS {
        let mut cfg = cfg.clone();
        cfg.threads = t;
        let (bytes, det) = run_at(&cfg, train, test);
        match &reference {
            None => reference = Some((bytes, det)),
            Some((ref_bytes, ref_det)) => {
                assert_eq!(
                    &bytes, ref_bytes,
                    "{label}: persisted model bytes differ at {t} threads"
                );
                assert_eq!(&det, ref_det, "{label}: detection differs at {t} threads");
            }
        }
    }
    // A loaded model must reproduce the reference through the same parallel
    // paths (threads is not persisted; retune it on the loaded instance).
    let (ref_bytes, ref_det) = reference.expect("at least one thread count ran");
    let mut loaded = persist::load(&ref_bytes[..]).expect("load");
    loaded.set_threads(*THREADS.last().expect("non-empty matrix"));
    assert_eq!(
        loaded.detect(test),
        ref_det,
        "{label}: loaded-model detection differs from the fitted reference"
    );
}

#[test]
fn train_detect_is_bit_identical_across_thread_counts_for_every_kind() {
    for (i, kind) in KINDS.into_iter().enumerate() {
        let ds = dataset_of(kind);
        assert_matrix(
            &format!("{kind:?}"),
            quick_cfg(i as u64),
            ds.train(),
            ds.test(),
        );
    }
}

#[test]
fn sharded_gradient_training_is_bit_identical_across_thread_counts() {
    let ds = common::easy_dataset();
    let mut cfg = quick_cfg(3);
    cfg.grad_shards = 2;
    assert_matrix("LevelShift/grad_shards=2", cfg, ds.train(), ds.test());
}

#[test]
fn concurrent_detects_on_one_shared_model_match_serial() {
    let ds = common::easy_dataset();
    let mut fitted = TriAd::new(quick_cfg(5)).fit(ds.train()).expect("fit");
    for mode in [NumericMode::Exact, NumericMode::Fast] {
        for t in [1, 4] {
            fitted.set_numeric_mode(mode);
            fitted.set_threads(t);
            let serial = fitted.try_detect(ds.test()).expect("serial detect");
            let shared = &fitted;
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| shared.try_detect(ds.test()));
                let b = s.spawn(|| shared.try_detect(ds.test()));
                (a.join(), b.join())
            });
            for (who, det) in [("first", a), ("second", b)] {
                let det = det.expect("detect thread panicked").expect("detect");
                assert_eq!(
                    det, serial,
                    "{mode:?}/{t} threads: {who} concurrent detect differs from serial"
                );
            }
        }
    }
}
