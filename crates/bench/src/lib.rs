//! Experiment harness shared by the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). This library holds the common
//! machinery: metric bundles, TriAD/baseline runners, a tiny CLI-flag
//! parser, an order-preserving parallel map over the `parallel` pool,
//! plain-text table/series printers (figures are emitted as gnuplot-ready
//! columns), and the fixed-seed series and FNV-1a checksum shared by the
//! `triad bench` / `triad fleet` gates and `triad trace`.
//!
//! Scale note: the paper trains 250 datasets × 5 seeds on GPUs; the binaries
//! default to a laptop-scale subset and expose `--datasets`, `--seeds`,
//! `--epochs` to reproduce the full protocol when compute allows. Defaults
//! and paper-scale flags are recorded per experiment in EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod perf;

use baselines::Detector;
use evalkit::pak::PakAuc;
use evalkit::Prf;
use triad_core::{TriadConfig, TriadDetection};
use ucrgen::UcrDataset;

/// One row of a Table II/III-style result: every metric family the paper
/// reports for a model on one dataset.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricRow {
    pub pw: Prf,
    pub pa: Prf,
    pub pak: PakAuc,
    pub affiliation: Prf,
}

impl MetricRow {
    /// Compute all metric families from boolean predictions.
    pub fn from_predictions(pred: &[bool], labels: &[bool]) -> MetricRow {
        MetricRow {
            pw: evalkit::pointwise::prf(pred, labels),
            pa: evalkit::pa::prf_pa(pred, labels),
            pak: evalkit::pak::pak_auc(pred, labels),
            affiliation: evalkit::affiliation::affiliation_prf(pred, labels),
        }
    }

    /// Score-based models: binarise with the best-point-wise-F1 threshold
    /// (the most favourable protocol for the baselines; the paper likewise
    /// tunes each baseline's own thresholding).
    pub fn from_scores(scores: &[f64], labels: &[bool]) -> MetricRow {
        let (thr, _) = evalkit::threshold::best_f1(scores, labels);
        let pred = evalkit::threshold::apply(scores, thr);
        MetricRow::from_predictions(&pred, labels)
    }

    /// Deployment-style protocol (Table II): the threshold is calibrated on
    /// the model's *training-split* scores (mean + 3σ) — no test labels are
    /// consulted. This is what exposes the random-vs-trained pathology that
    /// the oracle best-F1 sweep hides.
    pub fn from_scores_calibrated(
        test_scores: &[f64],
        train_scores: &[f64],
        labels: &[bool],
    ) -> MetricRow {
        let m = train_scores.iter().sum::<f64>() / train_scores.len().max(1) as f64;
        let v = train_scores.iter().map(|s| (s - m) * (s - m)).sum::<f64>()
            / train_scores.len().max(1) as f64;
        let thr = m + 3.0 * v.sqrt();
        let pred = evalkit::threshold::apply(test_scores, thr);
        MetricRow::from_predictions(&pred, labels)
    }

    pub fn add_assign(&mut self, o: &MetricRow) {
        fn acc(a: &mut Prf, b: &Prf) {
            a.precision += b.precision;
            a.recall += b.recall;
            a.f1 += b.f1;
        }
        acc(&mut self.pw, &o.pw);
        acc(&mut self.pa, &o.pa);
        acc(&mut self.affiliation, &o.affiliation);
        self.pak.precision_auc += o.pak.precision_auc;
        self.pak.recall_auc += o.pak.recall_auc;
        self.pak.f1_auc += o.pak.f1_auc;
    }

    pub fn scale(&mut self, k: f64) {
        fn sc(a: &mut Prf, k: f64) {
            a.precision *= k;
            a.recall *= k;
            a.f1 *= k;
        }
        sc(&mut self.pw, k);
        sc(&mut self.pa, k);
        sc(&mut self.affiliation, k);
        self.pak.precision_auc *= k;
        self.pak.recall_auc *= k;
        self.pak.f1_auc *= k;
    }

    /// Mean over many rows.
    pub fn mean(rows: &[MetricRow]) -> MetricRow {
        let mut acc = MetricRow::default();
        for r in rows {
            acc.add_assign(r);
        }
        if !rows.is_empty() {
            acc.scale(1.0 / rows.len() as f64);
        }
        acc
    }
}

/// TriAD detection outcome on one dataset, with the window-accuracy
/// diagnostics Table III's footnote reports.
#[derive(Debug, Clone)]
pub struct TriadOutcome {
    pub metrics: MetricRow,
    /// Any of the (≤3) candidate windows intersects the anomaly ±window.
    pub tri_window_hit: bool,
    /// The selected single window intersects the anomaly ±window.
    pub single_window_hit: bool,
    pub detection: TriadDetection,
}

/// Run TriAD on one UCR dataset with the given config.
/// `Err` (untrainable series) is mapped to an all-zero outcome by callers
/// that need total counts.
pub fn run_triad(ds: &UcrDataset, cfg: &TriadConfig) -> Result<TriadOutcome, String> {
    let fitted = triad_core::TriAd::new(cfg.clone()).fit(ds.train())?;
    let det = fitted.detect(ds.test());
    let labels = ds.test_labels();
    let metrics = MetricRow::from_predictions(&det.prediction, &labels);
    let anomaly = ds.anomaly_in_test();
    let w = fitted.window_len();
    let near = |r: &std::ops::Range<usize>| evalkit::eventwise::event_detected(r, &anomaly, w);
    let tri_window_hit = det.candidates.iter().any(near);
    let single_window_hit = near(&det.selected_window);
    Ok(TriadOutcome {
        metrics,
        tri_window_hit,
        single_window_hit,
        detection: det,
    })
}

/// Run a score-based detector on one dataset with the oracle best-F1
/// threshold (upper-bounds the baseline).
pub fn run_detector(det: &mut dyn Detector, ds: &UcrDataset) -> MetricRow {
    let scores = det.score(ds.train(), ds.test());
    MetricRow::from_scores(&scores, &ds.test_labels())
}

/// Run a score-based detector with the deployment protocol: threshold
/// calibrated at mean + 3σ of the detector's own scores over the (normal)
/// training split. `factory` builds a fresh detector per pass so the two
/// scoring runs are independent and deterministic.
pub fn run_detector_calibrated(
    factory: &dyn Fn() -> Box<dyn Detector>,
    ds: &UcrDataset,
) -> MetricRow {
    let test_scores = factory().score(ds.train(), ds.test());
    let train_scores = factory().score(ds.train(), ds.train());
    MetricRow::from_scores_calibrated(&test_scores, &train_scores, &ds.test_labels())
}

/// Tiny flag parser: `--key value` pairs from `std::env::args`.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    pub fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                let val = argv.get(i + 1).cloned().unwrap_or_default();
                pairs.push((key.to_string(), val));
                i += 2;
            } else {
                i += 1;
            }
        }
        Args { pairs }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Parallel map over items (order-preserving), delegating to the
/// deterministic pool: the thread count comes from `parallel::ambient()`
/// (TRIAD_THREADS / `with_ambient`), not a private `available_parallelism`
/// read, so bench runs honor the same single source of truth as the rest
/// of the workspace.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel::map_indexed(parallel::ambient(), items, |_, item| f(item))
}

/// FNV-1a 64-bit, folded over the canonical byte encoding of each value.
/// Stable across runs and platforms (f64 hashed via `to_bits`), so a
/// checksum printed on one machine can be compared on another.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub fn done(self) -> u64 {
        self.0
    }
}

/// The fixed-seed harness series: a two-harmonic periodic signal with
/// deterministic jitter and a frequency-shift anomaly halfway into the test
/// split. Returns `(train, test)`.
pub fn make_series(n_train: usize, n_test: usize, period: usize) -> (Vec<f64>, Vec<f64>) {
    use std::f64::consts::PI;
    let p = period as f64;
    let mut full: Vec<f64> = (0..n_train + n_test)
        .map(|i| {
            (2.0 * PI * i as f64 / p).sin()
                + 0.3 * (4.0 * PI * i as f64 / p).sin()
                + 0.02 * (((i * 37) % 97) as f64 / 97.0 - 0.5)
        })
        .collect();
    let a0 = n_train + n_test / 2;
    for i in a0..(a0 + 2 * period).min(full.len()) {
        full[i] = (8.0 * PI * i as f64 / p).sin();
    }
    let test = full.split_off(n_train);
    (full, test)
}

/// Milliseconds since `t0`, rounded to the microsecond — the one
/// informational wall-time field of the bench and fleet files.
pub fn elapsed_ms(t0: std::time::Instant) -> f64 {
    (t0.elapsed().as_secs_f64() * 1e6).round() / 1e3
}

/// Fixed-width table printer.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Print an (x, y) series in gnuplot-ready columns — the "figure" output
/// format of the fig* binaries.
pub fn print_series(title: &str, xlabel: &str, ylabel: &str, points: &[(f64, f64)]) {
    println!("\n# {title}");
    println!("# {xlabel}\t{ylabel}");
    for (x, y) in points {
        println!("{x:.6}\t{y:.6}");
    }
}

/// Format helpers.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let m = values.iter().sum::<f64>() / values.len() as f64;
    let v = values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / values.len() as f64;
    (m, v.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_row_from_predictions() {
        let labels = [false, true, true, false];
        let row = MetricRow::from_predictions(&[false, true, true, false], &labels);
        assert_eq!(row.pw.f1, 1.0);
        assert_eq!(row.pa.f1, 1.0);
        assert!((row.pak.f1_auc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metric_row_mean() {
        let a = MetricRow::from_predictions(&[true, false], &[true, false]);
        let b = MetricRow::from_predictions(&[false, false], &[true, false]);
        let m = MetricRow::mean(&[a, b]);
        assert!((m.pw.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::new();
        a.f64(1.0);
        a.f64(2.0);
        let mut b = Fnv::new();
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a.done(), b.done());
        let mut c = Fnv::new();
        c.bytes(b"hello");
        // Reference FNV-1a 64 of "hello".
        assert_eq!(c.done(), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn make_series_splits_and_injects_the_anomaly_in_test() {
        let (train, test) = make_series(64, 128, 16);
        assert_eq!((train.len(), test.len()), (64, 128));
        let (whole, empty) = make_series(192, 0, 16);
        assert!(empty.is_empty());
        // Identical up to the anomaly, which only the test split carries.
        assert_eq!(&whole[..64], &train[..]);
        assert_eq!(&whole[64..128], &test[..64]);
        assert_ne!(&whole[128..160], &test[64..96]);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn args_parse_defaults() {
        let a = Args {
            pairs: vec![("datasets".into(), "12".into())],
        };
        assert_eq!(a.get("datasets", 5usize), 12);
        assert_eq!(a.get("missing", 7usize), 7);
    }
}
