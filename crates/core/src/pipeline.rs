//! End-to-end public API: `TriAd::new(cfg).fit(train)?.detect(test)`.

use crate::config::TriadConfig;
use crate::detect::OnlineRanker;
use crate::detect::{detect, detect_from_rankings, try_detect, DomainRanking, TriadDetection};
use crate::error::DetectError;
use crate::features::FeatureExtractor;
use crate::train::{fit, Model, TrainReport};
use tsops::window::Segmenter;

/// The TriAD detector, parameterised by a [`TriadConfig`].
pub struct TriAd {
    cfg: TriadConfig,
}

impl TriAd {
    pub fn new(cfg: TriadConfig) -> Self {
        TriAd { cfg }
    }

    /// The paper's default configuration.
    pub fn with_defaults() -> Self {
        TriAd {
            cfg: TriadConfig::default(),
        }
    }

    pub fn config(&self) -> &TriadConfig {
        &self.cfg
    }

    /// Train on an anomaly-free series; keeps a copy of the training split
    /// for the single-window-selection stage.
    pub fn fit(self, train: &[f64]) -> Result<FittedTriad, String> {
        obs::enable_from_config(self.cfg.trace);
        let mut span = obs::span("fit");
        span.add_field("n_train", train.len());
        span.add_field("epochs", self.cfg.epochs);
        let trained = fit(&self.cfg, train)?;
        Ok(FittedTriad {
            cfg: self.cfg,
            model: trained.model,
            extractor: trained.extractor,
            segmenter: trained.segmenter,
            report: trained.report,
            train: train.to_vec(),
        })
    }
}

/// A trained TriAD model bound to its training series.
///
/// `Send + Sync`: detection only reads the weights, so one model can be
/// shared by reference across threads (checked at compile time below).
pub struct FittedTriad {
    cfg: TriadConfig,
    model: Model,
    extractor: FeatureExtractor,
    segmenter: Segmenter,
    report: TrainReport,
    train: Vec<f64>,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FittedTriad>();
};

impl FittedTriad {
    /// Reassemble from persisted parts (see [`crate::persist`]).
    pub(crate) fn from_parts(
        cfg: TriadConfig,
        model: Model,
        extractor: FeatureExtractor,
        segmenter: Segmenter,
        report: TrainReport,
        train: Vec<f64>,
    ) -> Self {
        FittedTriad {
            cfg,
            model,
            extractor,
            segmenter,
            report,
            train,
        }
    }

    /// The training series kept for the window-selection stage.
    pub fn train_series(&self) -> &[f64] {
        &self.train
    }

    /// Run the full inference pipeline on a test split.
    ///
    /// Panics on degenerate input (empty / non-finite test split) — fine
    /// for experiment code that built the series itself; long-running
    /// callers handling untrusted input should use [`try_detect`].
    ///
    /// [`try_detect`]: FittedTriad::try_detect
    pub fn detect(&self, test: &[f64]) -> TriadDetection {
        detect(
            &self.cfg,
            &self.model,
            &self.extractor,
            &self.segmenter,
            &self.train,
            test,
        )
    }

    /// Fallible variant of [`detect`](FittedTriad::detect): degenerate input
    /// comes back as a typed [`DetectError`] instead of a panic, so a serve
    /// worker thread survives a hostile request payload.
    pub fn try_detect(&self, test: &[f64]) -> Result<TriadDetection, DetectError> {
        try_detect(
            &self.cfg,
            &self.model,
            &self.extractor,
            &self.segmenter,
            &self.train,
            test,
        )
    }

    /// An empty incremental stage-1 ranker over this model's domains: the
    /// window-scoring entry point that does *not* require the full series.
    /// Push completed windows as they stream in, then close with
    /// [`detect_from_rankings`](FittedTriad::detect_from_rankings).
    pub fn online_ranker(&self) -> OnlineRanker {
        OnlineRanker::new(&self.model)
    }

    /// Embed one window and fold it into `ranker`; returns the window's mean
    /// similarity to everything seen before, per domain.
    pub fn push_window(
        &self,
        ranker: &mut OnlineRanker,
        window: &[f64],
    ) -> Vec<(crate::Domain, f64)> {
        parallel::with_ambient(self.cfg.threads, || {
            ranker.push_window(&self.model, &self.extractor, window)
        })
    }

    /// Set the worker-thread count for this model's train/detect/stream hot
    /// paths (0 = auto). Purely a performance knob: results are bit-identical
    /// at any value, and the setting is not persisted with the model — which
    /// is why a loaded model can be retuned here (e.g. from a server's
    /// `--threads` flag) without invalidating anything.
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads;
    }

    /// Select the numeric kernel family for this model's detect hot path.
    /// Like [`set_threads`](FittedTriad::set_threads) this is not persisted:
    /// `Exact` keeps the bit-identical reference kernels, `Fast` swaps the
    /// discord stage onto the tolerance-equivalent MASS profile kernels
    /// (same discord indices, distances within 1e-6 relative).
    pub fn set_numeric_mode(&mut self, mode: tsops::NumericMode) {
        self.cfg.numeric_mode = mode;
    }

    /// Run stages 2–4 (selection, MERLIN, voting) from externally produced
    /// stage-1 rankings. With rankings from an [`OnlineRanker`] fed the same
    /// windows, the result equals [`detect`](FittedTriad::detect) exactly.
    pub fn detect_from_rankings(
        &self,
        test: &[f64],
        windows: &tsops::window::Windows,
        rankings: Vec<DomainRanking>,
    ) -> TriadDetection {
        detect_from_rankings(&self.cfg, &self.train, test, windows, rankings)
    }

    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    pub fn config(&self) -> &TriadConfig {
        &self.cfg
    }

    /// Estimated (or overridden) period.
    pub fn period(&self) -> usize {
        self.report.period
    }

    /// Window length `L` used for segmentation.
    pub fn window_len(&self) -> usize {
        self.report.window
    }

    /// Access to the trained model (ablation studies, custom pipelines).
    pub fn model(&self) -> &Model {
        &self.model
    }

    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    pub fn segmenter(&self) -> &Segmenter {
        &self.segmenter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn series_with_anomaly() -> (Vec<f64>, Vec<f64>, std::ops::Range<usize>) {
        let p = 32.0;
        let n_train = 640usize;
        let n_test = 480usize;
        let mut full: Vec<f64> = (0..n_train + n_test)
            .map(|i| {
                (2.0 * PI * i as f64 / p).sin()
                    + 0.3 * (4.0 * PI * i as f64 / p).sin()
                    + 0.02 * (((i * 37) % 97) as f64 / 97.0 - 0.5)
            })
            .collect();
        // Frequency-shift anomaly inside the test split.
        let a = n_train + 220..n_train + 280;
        for i in a.clone() {
            full[i] = (8.0 * PI * i as f64 / p).sin();
        }
        let train = full[..n_train].to_vec();
        let test = full[n_train..].to_vec();
        (train, test, 220..280)
    }

    fn quick_cfg() -> TriadConfig {
        TriadConfig {
            epochs: 4,
            depth: 3,
            hidden: 12,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_finds_the_anomalous_window() {
        let (train, test, anomaly) = series_with_anomaly();
        let fitted = TriAd::new(quick_cfg()).fit(&train).expect("fit");
        let det = fitted.detect(&test);

        assert_eq!(det.votes.len(), test.len());
        assert_eq!(det.prediction.len(), test.len());
        assert!(!det.candidates.is_empty() && det.candidates.len() <= 3);
        assert!(det.rankings.len() == 3);

        // The selected window should land within one window length of the
        // anomaly (tri-window accuracy, the Fig. 9 metric).
        let w = fitted.window_len();
        let sel = &det.selected_window;
        let near = sel.start < anomaly.end + w && sel.end + w > anomaly.start;
        assert!(near, "selected {sel:?} vs anomaly {anomaly:?} (w={w})");

        // Votes exist and the prediction flags something.
        assert!(det.votes.iter().any(|&v| v > 0.0));
        assert!(det.prediction.iter().any(|&b| b));
        assert!(det.predicted_region().is_some());
    }

    #[test]
    fn detection_is_deterministic() {
        let (train, test, _) = series_with_anomaly();
        let d1 = TriAd::new(quick_cfg()).fit(&train).unwrap().detect(&test);
        let d2 = TriAd::new(quick_cfg()).fit(&train).unwrap().detect(&test);
        assert_eq!(d1.prediction, d2.prediction);
        assert_eq!(d1.votes, d2.votes);
        assert_eq!(d1.selected_window, d2.selected_window);
    }

    #[test]
    fn accessors_are_consistent() {
        let (train, _, _) = series_with_anomaly();
        let fitted = TriAd::new(quick_cfg()).fit(&train).unwrap();
        assert_eq!(fitted.window_len(), fitted.report().window);
        assert_eq!(fitted.period(), fitted.report().period);
        assert_eq!(fitted.segmenter().window, fitted.window_len());
        assert_eq!(fitted.config().epochs, 4);
        assert_eq!(fitted.model().encoders.len(), 3);
    }

    #[test]
    fn top_z_widens_the_candidate_set() {
        let (train, test, _) = series_with_anomaly();
        let mut cfg = quick_cfg();
        cfg.top_z = 2;
        let fitted = TriAd::new(cfg).fit(&train).unwrap();
        let det = fitted.detect(&test);
        // Up to 3 domains × Z = 2 candidates, deduplicated.
        assert!(det.candidates.len() <= 6);
        for r in &det.rankings {
            assert_eq!(r.tops.len(), 2);
            assert_eq!(r.tops[0], r.top);
            // tops sorted by deviance: first has the lowest similarity.
            assert!(r.scores[r.tops[0]] <= r.scores[r.tops[1]]);
        }
    }

    #[test]
    fn weighted_voting_changes_votes_not_candidates() {
        let (train, test, _) = series_with_anomaly();
        let plain = TriAd::new(quick_cfg()).fit(&train).unwrap().detect(&test);
        let mut cfg = quick_cfg();
        cfg.weighted_voting = true;
        cfg.triad_vote_weight = 2.0;
        let weighted = TriAd::new(cfg).fit(&train).unwrap().detect(&test);
        assert_eq!(plain.selected_window, weighted.selected_window);
        assert_eq!(plain.candidates, weighted.candidates);
        // Vote magnitudes differ (window vote now 2.0, discords normalised).
        assert_ne!(plain.votes, weighted.votes);
        let max_w = weighted.votes.iter().cloned().fold(0.0f64, f64::max);
        // 2.0 window weight + at most 1.0 of normalised discord mass.
        assert!(max_w <= 3.0 + 1e-9, "max vote {max_w}");
    }

    #[test]
    fn try_detect_matches_detect_and_rejects_bad_input() {
        let (train, test, _) = series_with_anomaly();
        let fitted = TriAd::new(quick_cfg()).fit(&train).unwrap();
        let ok = fitted.try_detect(&test).expect("finite input");
        assert_eq!(ok, fitted.detect(&test));
        assert_eq!(fitted.try_detect(&[]), Err(DetectError::EmptyTest));
        let mut bad = test.clone();
        bad[3] = f64::NAN;
        assert_eq!(
            fitted.try_detect(&bad),
            Err(DetectError::NonFiniteTest { index: 3 })
        );
    }

    #[test]
    fn online_ranker_reproduces_offline_detection_exactly() {
        let (train, test, _) = series_with_anomaly();
        let fitted = TriAd::new(quick_cfg()).fit(&train).unwrap();
        let offline = fitted.detect(&test);

        // Feed the same windows one at a time through the incremental path.
        let windows = fitted.segmenter().segment_clamped(test.len());
        let mut ranker = fitted.online_ranker();
        for i in 0..windows.count() {
            fitted.push_window(&mut ranker, windows.slice(&test, i));
        }
        assert_eq!(ranker.window_count(), windows.count());
        let rankings = ranker.rankings(fitted.config().top_z);
        let online = fitted.detect_from_rankings(&test, &windows, rankings);

        // Bit-equal, not merely close: every op in the incremental path
        // replays the offline accumulation order.
        assert_eq!(online, offline);
    }

    #[test]
    fn short_test_split_is_one_window() {
        let (train, test, _) = series_with_anomaly();
        let fitted = TriAd::new(quick_cfg()).fit(&train).unwrap();
        let short = &test[..fitted.window_len() / 2];
        let det = fitted.detect(short);
        assert_eq!(det.votes.len(), short.len());
        assert_eq!(det.selected_window, 0..short.len());
    }
}
