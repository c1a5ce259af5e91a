//! `archive-exact`: the paper's own workload, in process.
//!
//! Set-up fits one model per dataset of the archive slice (`threads = 1`,
//! exact mode); the timed phase then detects every test split over and
//! over, in a seeded order per pass. Every repeat must reproduce its first
//! detection's checksum.

use crate::data::{self, Case};
use crate::layers::{self, Counts, Subject};
use crate::phase::{self, FitProbe};
use crate::report::Report;
use crate::stats::{median, samples_for};
use crate::trace::Trace;
use crate::{peak_rss_mb, Ctx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::time::Instant;
use triad_core::{FittedTriad, NumericMode};

/// Untraced/traced pass pairs of a traced run.
const TRACE_ROUNDS: usize = 2;
/// Detects between two interleaved refits in the timed phase.
const FIT_EVERY: usize = 5;

/// Set-ups timed per run (`setup_s` is their median), besides the
/// workload's own; each set-up fits all 30 datasets.
const SETUPS: usize = 5;

struct Fitted {
    cases: Vec<Case>,
    models: Vec<FittedTriad>,
}

/// Fit the whole slice; each fit's `(seconds, training windows)` is
/// appended to `fits`.
fn setup(seed: u64, rep: &mut Report, fits: &mut Vec<(f64, usize)>) -> Result<Fitted, String> {
    let cases = data::slice(seed);
    let mut models = Vec::with_capacity(cases.len());
    for case in &cases {
        let (model, secs) = data::fit(case, 1, NumericMode::Exact)?;
        rep.ok();
        fits.push((secs, model.report().n_windows));
        models.push(model);
    }
    Ok(Fitted { cases, models })
}

/// Samples gathered over detect passes.
#[derive(Default)]
struct Passes {
    detect_ms: Vec<f64>,
    /// Test points detected, and the time spent detecting them.
    points: usize,
    busy_s: f64,
    wall_s: f64,
    first: Vec<Option<u64>>,
    regions: Vec<Option<Range<usize>>>,
}

impl Fitted {
    /// One pass: detect every case once, in a seeded order, with a refit
    /// from `probe` after every [`FIT_EVERY`] detects.
    fn pass(
        &self,
        rng: &mut StdRng,
        out: &mut Passes,
        mut probe: Option<&mut FitProbe>,
        rep: &mut Report,
    ) -> Result<(), String> {
        let n = self.cases.len();
        out.first.resize(n, None);
        out.regions.resize(n, None);
        let t0 = Instant::now();
        for i in data::shuffled(n, rng) {
            let test = &self.cases[i].test;
            let t = Instant::now();
            let result = self.models[i].try_detect(test);
            let secs = t.elapsed().as_secs_f64();
            out.detect_ms.push(secs * 1e3);
            out.busy_s += secs;
            out.points += test.len();
            match result {
                Ok(det) => {
                    let sum = data::checksum(&det);
                    let first = *out.first[i].get_or_insert(sum);
                    out.regions[i].get_or_insert_with(|| det.predicted_region().unwrap_or(0..0));
                    rep.check(sum == first, || {
                        format!(
                            "dataset {}: detection checksum changed between repeats",
                            self.cases[i].id
                        )
                    });
                }
                Err(e) => rep.fail(format!("dataset {}: {e}", self.cases[i].id)),
            }
            if let Some(probe) = probe.as_deref_mut() {
                if out.detect_ms.len().is_multiple_of(FIT_EVERY) {
                    probe.tick(rep)?;
                }
            }
        }
        out.wall_s += t0.elapsed().as_secs_f64();
        Ok(())
    }

    /// The run's checksum: every dataset's first detection, in id order.
    fn checksum(out: &Passes) -> u64 {
        out.first.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
            (h ^ c.unwrap_or(0)).wrapping_mul(0x100_0000_01b3)
        })
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut fits = Vec::new();
    // The workload's own set-up, cold at process start, is not timed.
    let fitted = setup(ctx.seed, &mut rep, &mut fits)?;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut out = Passes::default();

    if ctx.trace {
        let overhead = layers::alternate(TRACE_ROUNDS, |_| {
            let before = out.wall_s;
            fitted.pass(&mut rng, &mut out, None, &mut rep)?;
            Ok(out.wall_s - before)
        })?;
        let subjects: Vec<Subject> = fitted
            .cases
            .iter()
            .zip(&fitted.models)
            .map(|(c, m)| Subject {
                name: format!("d{:03}", c.id),
                fitted: m,
                train: &c.train,
                test: &c.test,
            })
            .collect();
        let parts = layers::replay(&subjects, &ctx.work.join("store"), ctx.seed, &mut rep)?;
        obs::set_enabled(false);
        let trace = Trace::collect();
        layers::emit(
            &trace,
            &parts,
            &layers::fit_us_per_window_epoch(&fits),
            &Counts::default(),
            &[],
            overhead,
            &mut rep,
        );
        return Ok(rep);
    }

    let need = samples_for(0.9);
    let mut probe = FitProbe::new(ctx.seed, NumericMode::Exact, &mut rng);
    let setup_s = phase::segmented(
        ctx,
        SETUPS,
        &mut rep,
        |_, rep| setup(ctx.seed, rep, &mut fits),
        drop,
        |rep| {
            let before = out.wall_s;
            fitted.pass(&mut rng, &mut out, Some(&mut probe), rep)?;
            Ok((out.wall_s - before, out.detect_ms.len() < need))
        },
    )?;

    let predictions: Vec<Option<Range<usize>>> = out.regions.clone();
    let events: Vec<Range<usize>> = fitted.cases.iter().map(|c| c.anomaly.clone()).collect();
    let accuracy =
        evalkit::eventwise::accuracy(&predictions, &events, evalkit::eventwise::DEFAULT_MARGIN);
    rep.put(
        "setup_s",
        "s",
        median(&setup_s).unwrap_or(0.0),
        setup_s.len(),
    );
    let (fit_s, fits_timed) = probe.finish(&mut rep)?;
    rep.put("fit_s", "s", fit_s, fits_timed);
    let d = &out.detect_ms;
    rep.percentile("detect_ms_p50", "ms", d, 0.5)?;
    rep.percentile("detect_ms_p90", "ms", d, 0.9)?;
    rep.put("ucr_accuracy", "ratio", accuracy, events.len());
    // In process, one request is one `try_detect` call and one ingest is a
    // whole test split handed over until its detection returns.
    rep.percentile("request_ms_p50", "ms", d, 0.5)?;
    rep.percentile("request_ms_p90", "ms", d, 0.9)?;
    // Detects are serial: requests per second of detect time.
    rep.put(
        "requests_per_s",
        "1/s",
        d.len() as f64 / out.busy_s,
        d.len(),
    );
    rep.percentile("ingest_ms_p50", "ms", d, 0.5)?;
    rep.percentile("ingest_ms_p90", "ms", d, 0.9)?;
    rep.put(
        "points_per_s",
        "1/s",
        out.points as f64 / out.busy_s,
        d.len(),
    );
    rep.put("peak_rss_mb", "MiB", peak_rss_mb()?, 1);
    rep.note(format!(
        "{} datasets, {} epochs, threads 1, exact mode, accuracy margin {}; detection checksum {:016x}",
        fitted.cases.len(),
        data::EPOCHS,
        evalkit::eventwise::DEFAULT_MARGIN,
        Fitted::checksum(&out)
    ));
    Ok(rep)
}
