//! Evict/rehydrate transparency of the fleet tier on archive data.
//!
//! For every anomaly kind in the synthetic UCR archive: replaying the test
//! split through a [`FleetManager`] whose byte budget forces constant
//! eviction and rehydration must produce **bit-identical** statuses,
//! events, and offline-equivalent detections to an unevicted run — at one
//! and at four worker threads. A fleet killed after compacting its
//! checkpoint generations must adopt the survivors on restart and still
//! finish bit-exactly against the offline detector.

mod common;

use common::{dataset_of, quick_cfg, tmp_dir, KINDS};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use triad_core::{TriAd, TriadConfig, TriadDetection};
use triad_fleet::{DriftPolicy, FleetConfig, FleetManager};
use triad_stream::{ModelLoader, StreamStatus};

/// Model recipes keyed by name: the loader returns an owned model, so it
/// fits one from its config and training split whenever a shard asks.
type Recipes = Arc<BTreeMap<String, (TriadConfig, Vec<f64>)>>;

fn loader_of(recipes: &Recipes) -> ModelLoader {
    let recipes = Arc::clone(recipes);
    Arc::new(move |name: &str| {
        let (cfg, train) = recipes
            .get(name)
            .ok_or_else(|| format!("unknown model {name:?}"))?;
        TriAd::new(cfg.clone())
            .fit(train)
            .map_err(|e| e.to_string())
    })
}

fn fleet_cfg(budget: usize, dir: std::path::PathBuf) -> FleetConfig {
    FleetConfig {
        shards: 2,
        budget_bytes: budget,
        store_dir: dir,
        drift: DriftPolicy {
            enabled: false,
            ..DriftPolicy::default()
        },
        ..FleetConfig::default()
    }
}

fn push_all(mgr: &FleetManager, stream: &str, points: &[f64]) {
    for chunk in points.chunks(64) {
        // Bounded retry: a momentarily full queue is backpressure, not loss.
        let mut queued = false;
        for _ in 0..600 {
            if mgr.push(stream, chunk).expect("push").queued {
                queued = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(queued, "queue for {stream} never drained");
    }
}

fn wait_for_seq(mgr: &FleetManager, stream: &str, want: u64) -> StreamStatus {
    for _ in 0..600 {
        let status = mgr.poll(stream).expect("poll");
        if status.seq >= want {
            return status;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stream {stream} never reached seq {want}");
}

/// One full fleet pass over every anomaly kind at a given budget and
/// thread count; returns per-kind (status, detection) plus the run's
/// eviction/rehydration counters.
#[allow(clippy::type_complexity)]
fn run_kinds(
    budget: usize,
    threads: usize,
    tag: &str,
    recipes: &Recipes,
    tests: &[(String, Vec<f64>)],
) -> (Vec<(StreamStatus, Option<TriadDetection>)>, u64, u64) {
    let dir = tmp_dir(tag);
    let mgr =
        FleetManager::new(fleet_cfg(budget, dir.clone()), loader_of(recipes), None).expect("fleet");
    let _ = threads; // thread count is pinned in each recipe's config
    for (i, (stream, _)) in tests.iter().enumerate() {
        mgr.open(stream, &format!("m{i}")).expect("open");
    }
    for (stream, test) in tests {
        push_all(&mgr, stream, test);
    }
    let mut out = Vec::new();
    for (stream, test) in tests {
        let status = wait_for_seq(&mgr, stream, test.len() as u64);
        let report = mgr.close(stream).expect("close");
        assert_eq!(report.finalize_error, None, "{stream}: finalize refused");
        out.push((status, report.detection));
    }
    let stats = mgr.fleet_stats();
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
    (out, stats.evictions, stats.rehydrations)
}

#[test]
fn evicted_fleet_matches_unevicted_and_offline_on_every_kind() {
    let mut book = BTreeMap::new();
    let mut tests: Vec<(String, Vec<f64>)> = Vec::new();
    let mut offline: Vec<TriadDetection> = Vec::new();
    for (i, kind) in KINDS.into_iter().enumerate() {
        let ds = dataset_of(kind);
        let cfg = quick_cfg(i as u64);
        let fitted = TriAd::new(cfg.clone()).fit(ds.train()).expect("fit");
        offline.push(fitted.detect(ds.test()));
        book.insert(format!("m{i}"), (cfg, ds.train().to_vec()));
        tests.push((format!("k{i}"), ds.test().to_vec()));
    }
    let recipes: Recipes = Arc::new(book);

    for threads in [1usize, 4] {
        // Pin the worker count inside every model config so the sweep does
        // not depend on the ambient TRIAD_THREADS of the test runner.
        let pinned: Recipes = Arc::new(
            recipes
                .iter()
                .map(|(name, (cfg, train))| {
                    let cfg = TriadConfig {
                        threads,
                        ..cfg.clone()
                    };
                    (name.clone(), (cfg, train.clone()))
                })
                .collect(),
        );
        let (tight, evictions, rehydrations) = run_kinds(
            48 * 1024,
            threads,
            &format!("fleet_eq_tight_t{threads}"),
            &pinned,
            &tests,
        );
        let (loose, loose_evictions, _) = run_kinds(
            0,
            threads,
            &format!("fleet_eq_loose_t{threads}"),
            &pinned,
            &tests,
        );

        assert!(
            evictions > 0 && rehydrations > 0,
            "48 KiB over {} streams must evict and rehydrate (t={threads})",
            tests.len()
        );
        assert_eq!(loose_evictions, 0, "unlimited budget must not evict");
        assert_eq!(tight, loose, "eviction visible in outputs at t={threads}");
        for ((kind, (_, det)), want) in KINDS.iter().zip(&tight).zip(&offline) {
            assert_eq!(
                det.as_ref(),
                Some(want),
                "{kind:?}: evicted fleet diverges from offline detect (t={threads})"
            );
        }
    }
}

#[test]
fn fleet_killed_after_compaction_resumes_bit_exactly() {
    let ds = dataset_of(ucrgen::anomaly::AnomalyKind::LevelShift);
    let cfg = quick_cfg(9);
    let fitted = TriAd::new(cfg.clone()).fit(ds.train()).expect("fit");
    let offline = fitted.detect(ds.test());
    let test = ds.test();
    let cut_a = test.len() / 3 + 1; // deliberately off-stride cuts
    let cut_b = 2 * test.len() / 3 + 1;

    let recipes: Recipes = Arc::new(BTreeMap::from([(
        "m0".to_string(),
        (cfg, ds.train().to_vec()),
    )]));
    let dir = tmp_dir("fleet_eq_restart");
    let fleet_cfg = fleet_cfg(0, dir.clone());

    {
        let mgr = FleetManager::new(fleet_cfg.clone(), loader_of(&recipes), None).expect("fleet");
        mgr.open("survivor", "m0").expect("open");
        push_all(&mgr, "survivor", &test[..cut_a]);
        wait_for_seq(&mgr, "survivor", cut_a as u64);
        assert_eq!(mgr.checkpoint(Some("survivor")).expect("ckpt"), 1);
        push_all(&mgr, "survivor", &test[cut_a..cut_b]);
        wait_for_seq(&mgr, "survivor", cut_b as u64);
        assert_eq!(mgr.checkpoint(Some("survivor")).expect("ckpt"), 1);
        // Writing generation 2 compacts generation 1 away: the kill below
        // restores from a *compacted* store, not a fresh one.
        let ckpts: Vec<_> = std::fs::read_dir(&dir)
            .expect("store dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        assert_eq!(
            ckpts.len(),
            1,
            "compaction left extra generations {ckpts:?}"
        );
        assert!(
            ckpts[0].contains(".g00000002."),
            "unexpected name {ckpts:?}"
        );
        // Hard kill: drop without closing — everything past the checkpoint
        // is lost by contract; the adopted stream resumes from cut_b.
    }

    let mgr = FleetManager::new(fleet_cfg, loader_of(&recipes), None).expect("fleet restart");
    assert_eq!(mgr.streams(), vec!["survivor".to_string()]);
    let resumed = mgr.poll("survivor").expect("poll");
    assert_eq!(resumed.seq, cut_b as u64, "adopted seq is the saved cut");
    push_all(&mgr, "survivor", &test[cut_b..]);
    wait_for_seq(&mgr, "survivor", test.len() as u64);
    let report = mgr.close("survivor").expect("close");
    assert_eq!(
        report.detection.as_ref(),
        Some(&offline),
        "restored fleet diverges from offline detect"
    );
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}
