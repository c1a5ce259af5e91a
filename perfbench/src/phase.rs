//! The timed phase every workload shares: timed set-ups spread across the
//! run, serial refits ([`FitProbe`]) and in-process reference detections
//! ([`Refs`]) interleaved with the workload's own operations.

use crate::data::{self, Case};
use crate::report::Report;
use crate::stats::median;
use crate::Ctx;
use rand::rngs::StdRng;
use std::time::Instant;
use triad_core::{FittedTriad, NumericMode, TriadDetection};

/// Run the timed phase in `setups` segments of `--seconds / setups` of
/// phase time each, with one timed set-up before every segment (torn down
/// by `teardown`, untimed); returns the set-up times.
///
/// Every timed set-up runs under the same conditions: after the workload's
/// own (untimed, cold) set-up, with its models resident. `step` runs one
/// unit of the workload and returns its phase seconds and whether the
/// samples are still short of a percentile's minimum; the last segment runs
/// on until they are not, up to [`Ctx::cap`].
pub fn segmented<T>(
    ctx: &Ctx,
    setups: usize,
    rep: &mut Report,
    mut setup: impl FnMut(usize, &mut Report) -> Result<T, String>,
    teardown: impl Fn(T),
    mut step: impl FnMut(&mut Report) -> Result<(f64, bool), String>,
) -> Result<Vec<f64>, String> {
    let segment = ctx.seconds.as_secs_f64() / setups as f64;
    let cap = ctx.cap().as_secs_f64();
    let mut setup_s = Vec::with_capacity(setups);
    let (mut phase, mut short) = (0.0, true);
    for seg in 0..setups {
        let t = Instant::now();
        let extra = setup(seg, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        teardown(extra);
        let last = seg + 1 == setups;
        let until = segment * (seg + 1) as f64;
        while phase < until || (last && short && phase < cap) {
            let (secs, still_short) = step(rep)?;
            phase += secs;
            short = still_short;
        }
    }
    let listed: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    rep.note(format!("set-ups: {} s", listed.join(" ")));
    Ok(setup_s)
}

/// Refits interleaved with a timed phase, so `fit_s` samples the whole
/// run rather than the set-up bursts. The probe refits the six
/// [`data::one_per_kind`] cases in a seeded cycle and only ever reports
/// whole cycles.
pub struct FitProbe {
    cases: Vec<Case>,
    order: Vec<usize>,
    next: usize,
    mode: NumericMode,
    secs: Vec<f64>,
}

impl FitProbe {
    pub fn new(seed: u64, mode: NumericMode, rng: &mut StdRng) -> FitProbe {
        let cases = data::one_per_kind(seed);
        FitProbe {
            order: data::shuffled(cases.len(), rng),
            secs: Vec::new(),
            cases,
            next: 0,
            mode,
        }
    }

    /// Refit the next case (the fitted model is discarded).
    pub fn tick(&mut self, rep: &mut Report) -> Result<(), String> {
        let k = self.order[self.next % self.order.len()];
        self.next += 1;
        self.secs.push(data::fit(&self.cases[k], 1, self.mode)?.1);
        rep.ok();
        Ok(())
    }

    /// Complete the current cycle; returns `fit_s`, the median of every
    /// fit time, and the number of fits.
    pub fn finish(mut self, rep: &mut Report) -> Result<(f64, usize), String> {
        while !self.next.is_multiple_of(self.order.len()) {
            self.tick(rep)?;
        }
        let fit_s = median(&self.secs).ok_or("fit_s: no refits")?;
        Ok((fit_s, self.secs.len()))
    }
}

/// One in-process reference detection: a model and the series it detects.
pub struct Job {
    pub label: String,
    pub model: usize,
    pub series: Vec<f64>,
}

/// In-process reference detections, interleaved with the workload: each
/// tick times one `try_detect` of the next job (seeded order), checked
/// against that job's first detection.
pub struct Refs {
    pub models: Vec<FittedTriad>,
    jobs: Vec<Job>,
    order: Vec<usize>,
    ticks: usize,
    dets: Vec<Option<TriadDetection>>,
    /// Every timing, and each job's own.
    pub ms: Vec<f64>,
    pub by_job: Vec<Vec<f64>>,
}

impl Refs {
    pub fn new(models: Vec<FittedTriad>, jobs: Vec<Job>, rng: &mut StdRng) -> Refs {
        let n = jobs.len();
        Refs {
            models,
            order: data::shuffled(n, rng),
            jobs,
            ticks: 0,
            dets: vec![None; n],
            ms: Vec::new(),
            by_job: vec![Vec::new(); n],
        }
    }

    pub fn tick(&mut self, rep: &mut Report) -> Result<(), String> {
        let i = self.order[self.ticks % self.order.len()];
        self.ticks += 1;
        let job = &self.jobs[i];
        let t0 = Instant::now();
        let det = self.models[job.model]
            .try_detect(&job.series)
            .map_err(|e| format!("{}: {e}", job.label))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ms.push(ms);
        self.by_job[i].push(ms);
        let first = self.dets[i].get_or_insert_with(|| det.clone());
        rep.check(*first == det, || {
            format!(
                "{}: in-process detection changed between repeats",
                job.label
            )
        });
        Ok(())
    }

    /// Every job's reference detection, in job order (ticking until each
    /// has one).
    pub fn complete(&mut self, rep: &mut Report) -> Result<Vec<TriadDetection>, String> {
        while self.dets.iter().any(Option::is_none) {
            self.tick(rep)?;
        }
        Ok(self.dets.iter().flatten().cloned().collect())
    }
}
