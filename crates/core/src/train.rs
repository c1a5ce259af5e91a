//! Contrastive training loop (Sec. IV-A3).
//!
//! One model is trained per dataset: batches of original windows are paired
//! with their anomaly-simulating augmentations, all active domains run
//! through their encoders plus the shared head inside a single autodiff
//! graph, and the blended loss (Eq. 7) is minimised with Adam. 10% of the
//! windows are held out as a validation split whose loss is tracked per
//! epoch.

use crate::config::TriadConfig;
use crate::encoder::{DomainEncoder, ProjectionHead};
use crate::features::FeatureExtractor;
use crate::loss::ContrastiveLoss;
use crate::Domain;
use neuro::graph::{Graph, Param};
use neuro::optim::Adam;
use neuro::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tsops::window::{Segmenter, Windows};

/// The trained encoders + shared head.
pub struct Model {
    pub encoders: Vec<(Domain, DomainEncoder)>,
    pub head: ProjectionHead,
}

/// Build the untrained model skeleton for `cfg`, consuming weights from the
/// caller's RNG in the fixed construction order (encoders in `domains()`
/// order, then the head). `fit`, model loading, and the per-shard gradient
/// replicas of sharded training all share this so structures always line up.
pub(crate) fn skeleton_with(rng: &mut StdRng, cfg: &TriadConfig) -> Model {
    let encoders: Vec<(Domain, DomainEncoder)> = cfg
        .domains()
        .iter()
        .map(|&d| {
            (
                d,
                DomainEncoder::new(rng, d.channels(), cfg.hidden, cfg.depth, cfg.kernel),
            )
        })
        .collect();
    let head = ProjectionHead::new(rng, cfg.hidden);
    Model { encoders, head }
}

/// [`skeleton_with`] seeded from `cfg.seed` — the exact skeleton `fit`
/// builds before training. Parameter values are placeholders the caller
/// overwrites (via [`Model::load_snapshot`] or deserialisation).
pub(crate) fn skeleton(cfg: &TriadConfig) -> Model {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    skeleton_with(&mut rng, cfg)
}

impl Model {
    pub fn params(&self) -> Vec<Param> {
        let mut p: Vec<Param> = self.encoders.iter().flat_map(|(_, e)| e.params()).collect();
        p.extend(self.head.params());
        p
    }

    /// Plain-tensor copies of every parameter value, in [`params`](Model::params)
    /// order. `Param`s are shared cells, so this is how sharded training
    /// seeds each gradient replica with the current weights while keeping
    /// its gradient accumulators separate from the master model's.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params().iter().map(|p| p.tensor()).collect()
    }

    /// Overwrite this model's parameter values from a [`snapshot`](Model::snapshot)
    /// (same count and shapes, `params()` order). Gradients are untouched.
    pub fn load_snapshot(&self, snap: &[Tensor]) {
        let params = self.params();
        assert_eq!(params.len(), snap.len(), "snapshot: parameter count");
        for (p, t) in params.iter().zip(snap) {
            assert_eq!(p.shape(), t.shape(), "snapshot: parameter shape");
            p.borrow_mut().value = t.clone();
        }
    }

    /// Embed a set of equal-length windows in one domain: returns the
    /// `[n, L]` embedding rows (unit-normalised).
    pub fn embed_windows(
        &self,
        fx: &FeatureExtractor,
        windows: &[&[f64]],
        domain: Domain,
    ) -> Vec<Vec<f32>> {
        let Some((_, enc)) = self.encoders.iter().find(|(d, _)| *d == domain) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(windows.len());
        // Chunked so inference memory stays bounded on long test sets.
        for chunk in windows.chunks(16) {
            let batch = fx.batch_tensor(chunk, domain);
            let r = crate::encoder::embed(enc, &self.head, batch);
            for i in 0..chunk.len() {
                out.push(r.row(i).to_vec());
            }
        }
        out
    }

    /// [`embed_windows`](Model::embed_windows) distributed across the ambient
    /// worker pool: every worker embeds a contiguous span of windows through
    /// the same shared (read-only) model. Every op in the embed path is
    /// batch-row independent, so the rows are bit-identical to the serial
    /// path at any thread count — batch boundaries don't matter. `_cfg` is
    /// unused and kept for the callers' signature.
    pub fn embed_windows_par(
        &self,
        _cfg: &TriadConfig,
        fx: &FeatureExtractor,
        windows: &[&[f64]],
        domain: Domain,
    ) -> Vec<Vec<f32>> {
        let par = parallel::ambient().for_work(windows.len(), 4);
        if par.is_serial() || !self.encoders.iter().any(|(d, _)| *d == domain) {
            return self.embed_windows(fx, windows, domain);
        }
        let spans = parallel::map_ranges(par, windows.len(), |range| {
            self.embed_windows(fx, &windows[range], domain)
        });
        spans.into_iter().flatten().collect()
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    pub epoch_losses: Vec<f64>,
    pub val_losses: Vec<f64>,
    pub period: usize,
    pub window: usize,
    pub stride: usize,
    pub n_windows: usize,
}

/// Everything `fit` produces.
pub struct Trained {
    pub model: Model,
    pub extractor: FeatureExtractor,
    pub segmenter: Segmenter,
    pub report: TrainReport,
}

/// Train TriAD on an anomaly-free series.
///
/// Errors when the config is invalid, no period is detectable, or the series
/// is too short to produce at least one training batch.
pub fn fit(cfg: &TriadConfig, train: &[f64]) -> Result<Trained, String> {
    cfg.validate()?;
    // Scope the deterministic worker pool to this training run; everything
    // inside is thread-count invariant, so `cfg.threads` is purely a
    // performance knob.
    parallel::with_ambient(cfg.threads, || fit_inner(cfg, train))
}

fn fit_inner(cfg: &TriadConfig, train: &[f64]) -> Result<Trained, String> {
    let period = match cfg.period_override {
        Some(p) if p >= 2 => p,
        Some(p) => return Err(format!("period override {p} too small")),
        None => tsops::decompose::estimate_period(train, train.len() / 2)
            .ok_or("no detectable period in the training split")?,
    };

    let window = ((period as f64) * cfg.window_periods).ceil() as usize;
    let window = window.max(8);
    if train.len() < window * 2 {
        return Err(format!(
            "training split ({}) shorter than two windows ({window})",
            train.len()
        ));
    }
    let stride = ((window as f64 * cfg.stride_frac) as usize).max(1);
    let segmenter = Segmenter::new(window, stride);
    let windows: Windows = segmenter.segment(train.len());
    if windows.count() < 2 {
        return Err("fewer than two training windows".into());
    }

    let extractor = FeatureExtractor::fit(train, period);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let domains = cfg.domains();
    let model = skeleton_with(&mut rng, cfg);

    let mut opt = Adam::new(model.params(), cfg.lr as f32);
    let loss_cfg = ContrastiveLoss {
        alpha: cfg.alpha,
        temperature: cfg.temperature,
        use_intra: cfg.use_intra,
        use_inter: cfg.use_inter && domains.len() > 1,
    };

    // Train/validation split over window indices.
    let mut idxs: Vec<usize> = (0..windows.count()).collect();
    idxs.shuffle(&mut rng);
    let n_val = ((idxs.len() as f64 * cfg.validation_frac) as usize)
        .min(idxs.len().saturating_sub(cfg.batch.min(idxs.len())));
    let (val_idx, train_idx) = idxs.split_at(n_val);
    let mut train_idx: Vec<usize> = train_idx.to_vec();
    let val_idx: Vec<usize> = val_idx.to_vec();

    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut val_losses = Vec::with_capacity(cfg.epochs);

    for _epoch in 0..cfg.epochs {
        train_idx.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut n_batches = 0usize;
        for chunk in train_idx.chunks(cfg.batch) {
            if chunk.len() < 2 {
                continue; // contrastive positives need ≥ 2 windows
            }
            let loss = if cfg.grad_shards > 1 {
                run_batch_sharded(
                    &model, &extractor, &loss_cfg, cfg, train, &windows, chunk, &mut rng,
                )
            } else {
                run_batch(
                    &model, &extractor, &loss_cfg, cfg, train, &windows, chunk, &mut rng, true,
                )
            };
            opt_step_guard(&mut opt);
            epoch_loss += loss;
            n_batches += 1;
        }
        if n_batches > 0 {
            epoch_losses.push(epoch_loss / n_batches as f64);
        } else {
            epoch_losses.push(f64::NAN);
        }

        // Validation loss (no gradient, no optimizer step).
        if val_idx.len() >= 2 {
            let vl = run_batch(
                &model, &extractor, &loss_cfg, cfg, train, &windows, &val_idx, &mut rng, false,
            );
            val_losses.push(vl);
        }
    }

    let report = TrainReport {
        epoch_losses,
        val_losses,
        period,
        window,
        stride,
        n_windows: windows.count(),
    };
    Ok(Trained {
        model,
        extractor,
        segmenter,
        report,
    })
}

/// One forward (and optionally backward+step) pass over a batch of window
/// indices; returns the loss value.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    model: &Model,
    fx: &FeatureExtractor,
    loss_cfg: &ContrastiveLoss,
    cfg: &TriadConfig,
    series: &[f64],
    windows: &Windows,
    chunk: &[usize],
    rng: &mut StdRng,
    train_mode: bool,
) -> f64 {
    let originals: Vec<&[f64]> = chunk.iter().map(|&i| windows.slice(series, i)).collect();
    let augmented: Vec<Vec<f64>> = originals
        .iter()
        .map(|w| tsaug::augment_window(rng, w, &cfg.augment).0)
        .collect();
    let aug_refs: Vec<&[f64]> = augmented.iter().map(|v| v.as_slice()).collect();
    forward_backward(model, fx, loss_cfg, &originals, &aug_refs, train_mode)
}

/// Forward pass over one (originals, augmented) pairing; backward when
/// `train_mode` and the loss is finite. Returns the loss value.
fn forward_backward(
    model: &Model,
    fx: &FeatureExtractor,
    loss_cfg: &ContrastiveLoss,
    originals: &[&[f64]],
    aug_refs: &[&[f64]],
    train_mode: bool,
) -> f64 {
    let mut g = Graph::new();
    let mut rs = Vec::with_capacity(model.encoders.len());
    let mut ras = Vec::with_capacity(model.encoders.len());
    for (d, enc) in &model.encoders {
        let xo = g.input(fx.batch_tensor(originals, *d));
        let xa = g.input(fx.batch_tensor(aug_refs, *d));
        let ho = enc.forward(&mut g, xo);
        let ha = enc.forward(&mut g, xa);
        rs.push(model.head.forward(&mut g, ho));
        ras.push(model.head.forward(&mut g, ha));
    }
    let loss = loss_cfg.total(&mut g, &rs, &ras);
    let v = g.value(loss).item() as f64;
    if train_mode && v.is_finite() {
        g.backward(loss);
    }
    v
}

/// Data-parallel batch: split the window indices into `cfg.grad_shards`
/// fixed contiguous shards, run each shard's forward/backward on a worker
/// (against a structural replica of the model), then fold the shard
/// gradients into the live parameters *in shard order*.
///
/// Determinism contract: the shard structure and the fold order depend only
/// on the config — never on the worker count — and augmentations are drawn
/// serially up front, so the RNG stream and the accumulated gradients are
/// bit-identical at any thread count. (Sharding the contrastive loss does
/// change the objective relative to `grad_shards = 1`, which is why it is
/// an explicit config switch and not a transparent optimisation.)
#[allow(clippy::too_many_arguments)]
fn run_batch_sharded(
    model: &Model,
    fx: &FeatureExtractor,
    loss_cfg: &ContrastiveLoss,
    cfg: &TriadConfig,
    series: &[f64],
    windows: &Windows,
    chunk: &[usize],
    rng: &mut StdRng,
) -> f64 {
    // Augmentations are drawn serially, in batch order, before any worker
    // runs — the RNG stream never depends on thread interleaving.
    let originals: Vec<Vec<f64>> = chunk
        .iter()
        .map(|&i| windows.slice(series, i).to_vec())
        .collect();
    let augmented: Vec<Vec<f64>> = originals
        .iter()
        .map(|w| tsaug::augment_window(rng, w, &cfg.augment).0)
        .collect();

    // Every shard needs ≥ 2 windows for contrastive positives.
    let n_shards = cfg.grad_shards.min(chunk.len() / 2).max(1);
    let shards = parallel::split_ranges(chunk.len(), n_shards);
    let snap = model.snapshot();
    let par = parallel::ambient().for_work(n_shards, 1);
    let results = parallel::map_indexed(par, &shards, |_, range| {
        let replica = skeleton(cfg);
        replica.load_snapshot(&snap);
        let o: Vec<&[f64]> = originals[range.clone()]
            .iter()
            .map(|v| v.as_slice())
            .collect();
        let a: Vec<&[f64]> = augmented[range.clone()]
            .iter()
            .map(|v| v.as_slice())
            .collect();
        let loss = forward_backward(&replica, fx, loss_cfg, &o, &a, true);
        let grads: Vec<Tensor> = replica
            .params()
            .iter()
            .map(|p| p.value().grad.clone())
            .collect();
        (loss, grads)
    });

    let params = model.params();
    let mut weighted = 0.0f64;
    for ((loss, grads), range) in results.iter().zip(&shards) {
        for (p, g) in params.iter().zip(grads) {
            p.borrow_mut().grad.add_assign(g);
        }
        weighted += loss * range.len() as f64;
    }
    weighted / chunk.len() as f64
}

/// Step only when gradients are finite — a single degenerate batch must not
/// poison the whole per-dataset model.
fn opt_step_guard(opt: &mut Adam) {
    let finite = opt
        .params()
        .iter()
        .all(|p| p.value().grad.data().iter().all(|v| v.is_finite()));
    if finite {
        opt.step();
    } else {
        opt.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn periodic(n: usize, p: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (2.0 * PI * i as f64 / p).sin()
                    + 0.3 * (4.0 * PI * i as f64 / p).sin()
                    + 0.02 * ((i * 2654435761_usize % 100) as f64 / 100.0 - 0.5)
            })
            .collect()
    }

    fn quick_cfg() -> TriadConfig {
        TriadConfig {
            epochs: 3,
            depth: 2,
            hidden: 8,
            batch: 4,
            ..Default::default()
        }
    }

    #[test]
    fn fit_trains_and_reports() {
        let train = periodic(800, 40.0);
        let t = fit(&quick_cfg(), &train).expect("fit");
        assert_eq!(t.report.period, 40);
        assert_eq!(t.report.window, 100);
        assert_eq!(t.report.stride, 25);
        assert_eq!(t.report.epoch_losses.len(), 3);
        assert!(t.report.epoch_losses.iter().all(|l| l.is_finite()));
        // Loss should not explode; usually it decreases.
        let first = t.report.epoch_losses[0];
        let last = *t.report.epoch_losses.last().unwrap();
        assert!(last <= first * 1.5, "loss exploded: {first} -> {last}");
    }

    #[test]
    fn fit_rejects_aperiodic_or_short_input() {
        let cfg = quick_cfg();
        assert!(fit(&cfg, &vec![0.0; 500]).is_err()); // constant
                                                      // Force window = 100 on a 60-sample series: too short for 2 windows.
        let mut short_cfg = cfg.clone();
        short_cfg.period_override = Some(40);
        assert!(fit(&short_cfg, &periodic(60, 40.0)).is_err());
    }

    #[test]
    fn period_override_is_honoured() {
        let train = periodic(600, 30.0);
        let mut cfg = quick_cfg();
        cfg.period_override = Some(20);
        let t = fit(&cfg, &train).unwrap();
        assert_eq!(t.report.period, 20);
        assert_eq!(t.report.window, 50);
        let mut cfg = quick_cfg();
        cfg.period_override = Some(1);
        assert!(fit(&cfg, &train).is_err());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let train = periodic(700, 35.0);
        let a = fit(&quick_cfg(), &train).unwrap();
        let b = fit(&quick_cfg(), &train).unwrap();
        assert_eq!(a.report.epoch_losses, b.report.epoch_losses);
        let mut cfg = quick_cfg();
        cfg.seed = 1;
        let c = fit(&cfg, &train).unwrap();
        assert_ne!(a.report.epoch_losses, c.report.epoch_losses);
    }

    #[test]
    fn embeddings_have_window_length_and_unit_norm() {
        let train = periodic(800, 40.0);
        let t = fit(&quick_cfg(), &train).unwrap();
        let w = &train[0..t.report.window];
        let r = t.model.embed_windows(&t.extractor, &[w], Domain::Temporal);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].len(), t.report.window);
        let n: f32 = r[0].iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-3);
    }

    #[test]
    fn ablated_domain_embeds_nothing() {
        let train = periodic(800, 40.0);
        let mut cfg = quick_cfg();
        cfg.use_residual = false;
        let t = fit(&cfg, &train).unwrap();
        let w = &train[0..t.report.window];
        assert!(t
            .model
            .embed_windows(&t.extractor, &[w], Domain::Residual)
            .is_empty());
        assert_eq!(t.model.encoders.len(), 2);
    }
}
