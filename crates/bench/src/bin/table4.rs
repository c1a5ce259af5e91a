//! Table IV — comparison with the SOTA discord-discovery algorithm on the
//! shortest datasets: event-wise accuracy (±100-point margin) and inference
//! time. As in the paper, the inference column excludes training: the
//! cohort is fitted first and TriAD's detect is timed alone, next to the
//! MERLIN++ sweep; training time gets its own column.
//!
//! * **MERLIN++** scans the *whole* test split over a length sweep and
//!   nominates the region its per-length discords cover most often.
//! * **TriAD (tri-window)** counts a hit when any of the ≤3 candidate
//!   windows lands within the margin; **TriAD (single window)** uses the
//!   selected window only.
//!
//! Flags: `--datasets N` (cohort size, default 12; paper uses the 62
//! shortest of 250), `--epochs N`, `--archive N` (archive size to draw the
//! shortest from, default 40).

use bench::{f3, par_map, print_table, Args};
use discord::merlin::MerlinConfig;
use discord::merlin_pp::merlin_pp;
use evalkit::eventwise::{event_detected, DEFAULT_MARGIN};
use obs::now_instant;
use triad_core::{TriAd, TriadConfig};
use ucrgen::archive::{generate_archive, shortest, ArchiveConfig};
use ucrgen::UcrDataset;

/// MERLIN++'s event nomination: run the sweep over the whole test split and
/// return the hull of the most-voted point (vote = per-length coverage).
fn merlin_pp_region(test: &[f64], max_len: usize) -> Option<std::ops::Range<usize>> {
    let sweep = MerlinConfig::new(8, max_len.max(9)).with_step(8);
    let discords = merlin_pp(test, sweep);
    if discords.is_empty() {
        return None;
    }
    let mut votes = vec![0u32; test.len()];
    for d in &discords {
        for v in &mut votes[d.range().start.min(test.len())..d.range().end.min(test.len())] {
            *v += 1;
        }
    }
    let best = *votes.iter().max().unwrap();
    if best == 0 {
        return None;
    }
    let first = votes.iter().position(|&v| v == best)?;
    let last = votes.iter().rposition(|&v| v == best)?;
    Some(first..last + 1)
}

fn main() {
    let args = Args::parse();
    let archive_n: usize = args.get("archive", 40);
    let cohort_n: usize = args.get("datasets", 12);
    let epochs: usize = args.get("epochs", 5);

    let archive = generate_archive(
        7,
        &ArchiveConfig {
            count: archive_n,
            ..Default::default()
        },
    );
    let cohort: Vec<UcrDataset> = shortest(&archive, cohort_n).into_iter().cloned().collect();
    eprintln!(
        "table4: {} shortest of {} datasets (paper: 62 of 250), epochs {epochs}",
        cohort.len(),
        archive_n
    );

    // --- MERLIN++ over the full test split ---
    let t0 = now_instant();
    let merlin_hits: Vec<bool> = par_map(&cohort, |ds| {
        let max_len = (ds.test().len() / 4).clamp(16, 300);
        let region = merlin_pp_region(ds.test(), max_len);
        region
            .map(|r| event_detected(&r, &ds.anomaly_in_test(), DEFAULT_MARGIN))
            .unwrap_or(false)
    });
    let merlin_time = t0.elapsed().as_secs_f64();
    let merlin_acc = merlin_hits.iter().filter(|&&h| h).count() as f64 / cohort.len() as f64;

    // --- TriAD windows: fit first, then time inference alone (the paper's
    // metric); training gets its own column. ---
    let t0 = now_instant();
    let fitted = par_map(&cohort, |ds| {
        let cfg = TriadConfig {
            epochs,
            merlin_step: 2,
            ..Default::default()
        };
        TriAd::new(cfg).fit(ds.train()).ok()
    });
    let train_time = t0.elapsed().as_secs_f64();
    let pairs: Vec<_> = fitted.iter().zip(&cohort).collect();
    let t0 = now_instant();
    let detections = par_map(&pairs, |(model, ds)| {
        model.as_ref().map(|m| m.detect(ds.test()))
    });
    let triad_time = t0.elapsed().as_secs_f64();

    let margin_hit = |r: &std::ops::Range<usize>, ds: &UcrDataset| {
        event_detected(r, &ds.anomaly_in_test(), DEFAULT_MARGIN)
    };
    let tri_acc = detections
        .iter()
        .zip(&cohort)
        .filter(|(o, ds)| {
            o.as_ref()
                .map(|det| det.candidates.iter().any(|c| margin_hit(c, ds)))
                .unwrap_or(false)
        })
        .count() as f64
        / cohort.len() as f64;
    let single_acc = detections
        .iter()
        .zip(&cohort)
        .filter(|(o, ds)| {
            o.as_ref()
                .map(|det| margin_hit(&det.selected_window, ds))
                .unwrap_or(false)
        })
        .count() as f64
        / cohort.len() as f64;

    print_table(
        "Table IV — comparison with MERLIN++ on the shortest datasets",
        &[
            "Model",
            "Accuracy",
            "Inference time (s)",
            "Training time (s)",
        ],
        &[
            vec![
                "Merlin++".into(),
                f3(merlin_acc),
                f3(merlin_time),
                "—".into(),
            ],
            vec![
                "TriAD (tri-window)".into(),
                f3(tri_acc),
                f3(triad_time),
                f3(train_time),
            ],
            vec![
                "TriAD (single window)".into(),
                f3(single_acc),
                f3(triad_time),
                f3(train_time),
            ],
        ],
    );
}
