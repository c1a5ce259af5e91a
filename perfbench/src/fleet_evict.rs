//! `fleet-evict`: an in-process `FleetManager` under a byte budget far
//! below its working set.
//!
//! Set-up fits one model per anomaly kind, saves the models, and starts a
//! manager with `nproc` shards, drift (and with it every background refit)
//! disabled, and models loaded from their files. Each timed cycle opens
//! [`STREAMS`] streams, has a single producer push 64-point chunks
//! round-robin over them — every push followed by polls until its last
//! sequence number is confirmed — and closes every stream. Round-robin
//! touches under the budget evict (checkpoint put + compact) and rehydrate
//! (checkpoint latest + load) on most operations.
//!
//! Every close-time detection must repeat exactly in every cycle and equal
//! an offline `try_detect` of the stream's series.

use crate::data::{self, Case};
use crate::layers::{self, Counts, Subject};
use crate::phase::{self, FitProbe, Job, Refs};
use crate::report::Report;
use crate::stats::{median, samples_for};
use crate::trace::Trace;
use crate::{peak_rss_mb, Ctx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use triad_core::{persist, FittedTriad, NumericMode, TriadDetection};
use triad_fleet::{DriftPolicy, FleetConfig, FleetManager};
use triad_stream::{ModelLoader, StreamError};

/// Streams per cycle (four perturbed copies of each anomaly kind).
const STREAMS: usize = 24;
/// Global resident-engine budget: a few engines' worth against a working
/// set of about 1.3 MB.
const BUDGET: usize = 256 * 1024;
/// Points per push.
const CHUNK: usize = 64;
/// Offline reference detections and refits interleaved after each cycle.
const REFS_PER_CYCLE: usize = 6;
const FITS_PER_CYCLE: usize = 2;
/// Untraced/traced cycle pairs of a traced run.
const TRACE_ROUNDS: usize = 3;

/// Set-ups timed per run (`setup_s` is their median), besides the
/// workload's own; a set-up is six fits, a second manager start and drop.
const SETUPS: usize = 15;

struct Stream {
    name: String,
    case: usize,
    series: Vec<f64>,
}

struct Fleet {
    mgr: FleetManager,
    dir: PathBuf,
    cases: Vec<Case>,
    streams: Vec<Stream>,
}

fn model_path(dir: &Path, case: usize) -> PathBuf {
    dir.join("models").join(format!("m{case}.triad"))
}

/// Load a model the way the fleet's loader does: one thread, fast mode.
fn load(path: &Path) -> Result<FittedTriad, String> {
    let mut fitted = persist::load_file(path).map_err(|e| format!("load {path:?}: {e}"))?;
    fitted.set_threads(1);
    fitted.set_numeric_mode(NumericMode::Fast);
    Ok(fitted)
}

fn setup(
    ctx: &Ctx,
    index: usize,
    rep: &mut Report,
    fits: &mut Vec<(f64, usize)>,
) -> Result<Fleet, String> {
    let dir = ctx.work.join(format!("fleet-{index}"));
    std::fs::create_dir_all(dir.join("models")).map_err(|e| format!("{dir:?}: {e}"))?;
    let cases = data::one_per_kind(ctx.seed);
    for (k, case) in cases.iter().enumerate() {
        let (fitted, secs) = data::fit(case, 1, NumericMode::Fast)?;
        rep.ok();
        fits.push((secs, fitted.report().n_windows));
        persist::save_file(&model_path(&dir, k), &fitted).map_err(|e| e.to_string())?;
    }
    let streams = (0..STREAMS)
        .map(|i| {
            let case = i % cases.len();
            Stream {
                name: format!("f{i:02}"),
                case,
                series: data::stream_copy(&cases[case], ctx.seed, i as u64 + 1),
            }
        })
        .collect();
    let model_dir = dir.clone();
    let loader: ModelLoader = Arc::new(move |name: &str| {
        let case: usize = name
            .strip_prefix('m')
            .and_then(|k| k.parse().ok())
            .ok_or_else(|| format!("unknown model {name:?}"))?;
        load(&model_path(&model_dir, case))
    });
    let mgr = FleetManager::new(
        FleetConfig {
            shards: data::nproc(),
            store_dir: dir.join("store"),
            budget_bytes: BUDGET,
            drift: DriftPolicy {
                enabled: false,
                ..DriftPolicy::default()
            },
            ..FleetConfig::default()
        },
        loader,
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok(Fleet {
        mgr,
        dir,
        cases,
        streams,
    })
}

/// Samples and checks across cycles.
#[derive(Default)]
struct Samples {
    request_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// Per cycle: manager calls per second of cycle wall time.
    requests_per_s: Vec<f64>,
    /// Per cycle: points per second of ingest time.
    points_per_s: Vec<f64>,
    push_retries: u64,
    resident_max: u64,
    /// Close-time detection of each stream in its first cycle.
    closes: Vec<Option<TriadDetection>>,
}

/// Per-cycle tallies behind the throughput samples.
#[derive(Default)]
struct Tally {
    calls: usize,
    points: usize,
    ingest_s: f64,
}

impl Samples {
    fn timed<T>(&mut self, tally: &mut Tally, call: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = call();
        self.request_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.calls += 1;
        out
    }
}

/// Every close-time detection must equal the stream's offline detection.
fn verify(fleet: &Fleet, refs: &mut Refs, s: &Samples, rep: &mut Report) -> Result<(), String> {
    let dets = refs.complete(rep)?;
    for (i, st) in fleet.streams.iter().enumerate() {
        rep.check(s.closes[i].as_ref() == Some(&dets[i]), || {
            format!(
                "stream {}: close detection differs from offline detect",
                st.name
            )
        });
    }
    Ok(())
}

impl Fleet {
    /// Offline references: one job per stream, with the models as the
    /// fleet's loader loads them.
    fn refs(&self, rng: &mut StdRng) -> Result<Refs, String> {
        let models = (0..self.cases.len())
            .map(|k| load(&model_path(&self.dir, k)))
            .collect::<Result<_, _>>()?;
        let jobs = self
            .streams
            .iter()
            .map(|st| Job {
                label: st.name.clone(),
                model: st.case,
                series: st.series.clone(),
            })
            .collect();
        Ok(Refs::new(models, jobs, rng))
    }

    fn stop(self) {
        drop(self.mgr);
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Open every stream, ingest every chunk round-robin, close every
    /// stream. Returns the cycle's wall time.
    fn cycle(&self, order: &[usize], s: &mut Samples, rep: &mut Report) -> Result<f64, String> {
        let err = |e: StreamError| e.to_string();
        let mut tally = Tally::default();
        let t0 = Instant::now();
        for &i in order {
            let st = &self.streams[i];
            s.timed(&mut tally, || {
                self.mgr.open(&st.name, &format!("m{}", st.case))
            })
            .map_err(err)?;
            rep.ok();
        }
        let chunks = self
            .streams
            .iter()
            .map(|st| st.series.len().div_ceil(CHUNK))
            .max()
            .unwrap_or(0);
        for c in 0..chunks {
            for &i in order {
                let st = &self.streams[i];
                let start = c * CHUNK;
                if start >= st.series.len() {
                    continue;
                }
                let end = (start + CHUNK).min(st.series.len());
                let t = Instant::now();
                let mut attempts = 0;
                loop {
                    tally.calls += 1;
                    if self
                        .mgr
                        .push(&st.name, &st.series[start..end])
                        .map_err(err)?
                        .queued
                    {
                        break;
                    }
                    attempts += 1;
                    s.push_retries += 1;
                    rep.retried += 1;
                    if attempts > 10_000 {
                        return Err(format!(
                            "stream {}: shard queue never accepted a push",
                            st.name
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                let mut confirmed = false;
                for _ in 0..10_000 {
                    let status = s
                        .timed(&mut tally, || self.mgr.poll(&st.name))
                        .map_err(err)?;
                    if status.seq >= end as u64 {
                        confirmed = true;
                        break;
                    }
                    rep.retried += 1;
                }
                let secs = t.elapsed().as_secs_f64();
                if rep.check(confirmed, || {
                    format!("stream {}: poll never confirmed seq {end}", st.name)
                }) {
                    s.ingest_ms.push(secs * 1e3);
                    tally.ingest_s += secs;
                    tally.points += end - start;
                }
                s.resident_max = s.resident_max.max(self.mgr.fleet_stats().resident_bytes);
            }
        }
        for &i in order {
            let st = &self.streams[i];
            let report = s
                .timed(&mut tally, || self.mgr.close(&st.name))
                .map_err(err)?;
            match report.detection {
                Some(det) => {
                    let first = s.closes[i].get_or_insert_with(|| det.clone());
                    let same = *first == det;
                    rep.check(same, || {
                        format!("stream {}: close detection changed between cycles", st.name)
                    });
                }
                None => rep.fail(format!(
                    "stream {}: close refused: {}",
                    st.name,
                    report.finalize_error.unwrap_or_default()
                )),
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        s.requests_per_s.push(tally.calls as f64 / wall);
        s.points_per_s.push(tally.points as f64 / tally.ingest_s);
        Ok(wall)
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut fits = Vec::new();
    // The workload's own set-up, cold at process start, is not timed.
    let fleet = setup(ctx, 0, &mut rep, &mut fits)?;
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let order = data::shuffled(STREAMS, &mut rng);
    let mut refs = fleet.refs(&mut rng)?;
    let mut s = Samples {
        closes: vec![None; STREAMS],
        ..Samples::default()
    };
    // Warm-up: every shard loads its models once, untimed.
    fleet.cycle(&order, &mut s, &mut rep)?;
    let closes = std::mem::take(&mut s.closes);
    let mut s = Samples {
        closes,
        ..Samples::default()
    };

    if ctx.trace {
        let mut plain = Samples {
            closes: s.closes.clone(),
            ..Samples::default()
        };
        let (mut evictions, mut rehydrations, mut compacted) = (0, 0, 0);
        let overhead = layers::alternate(TRACE_ROUNDS, |on| {
            let before = fleet.mgr.fleet_stats();
            let wall = fleet.cycle(&order, if on { &mut s } else { &mut plain }, &mut rep)?;
            let after = fleet.mgr.fleet_stats();
            if on {
                evictions += after.evictions - before.evictions;
                rehydrations += after.rehydrations - before.rehydrations;
                compacted += after.compacted_files - before.compacted_files;
            }
            Ok(wall)
        })?;
        verify(&fleet, &mut refs, &s, &mut rep)?;
        let subjects: Vec<Subject> = (0..fleet.cases.len())
            .map(|k| Subject {
                name: fleet.streams[k].name.clone(),
                fitted: &refs.models[fleet.streams[k].case],
                train: &fleet.cases[fleet.streams[k].case].train,
                test: &fleet.streams[k].series,
            })
            .collect();
        let parts = layers::replay(&subjects, &ctx.work.join("store"), ctx.seed, &mut rep)?;
        obs::set_enabled(false);
        let counts = Counts {
            fleet_evictions: evictions as f64,
            fleet_rehydrations: rehydrations as f64,
            fleet_compacted_files: compacted as f64,
            fleet_push_retries: s.push_retries as f64,
            fleet_resident_bytes_max: s.resident_max as f64,
            ..Counts::default()
        };
        drop(subjects);
        fleet.stop();
        let trace = Trace::collect();
        layers::emit(
            &trace,
            &parts,
            &layers::fit_us_per_window_epoch(&fits),
            &counts,
            &[],
            overhead,
            &mut rep,
        );
        return Ok(rep);
    }

    // Each timed set-up starts a second manager and drops it.
    let need = samples_for(0.9);
    let mut probe = FitProbe::new(ctx.seed, NumericMode::Fast, &mut rng);
    let setup_s = phase::segmented(
        ctx,
        SETUPS,
        &mut rep,
        |seg, rep| setup(ctx, seg + 1, rep, &mut fits),
        Fleet::stop,
        |rep| {
            let t = Instant::now();
            fleet.cycle(&order, &mut s, rep)?;
            for _ in 0..REFS_PER_CYCLE {
                refs.tick(rep)?;
            }
            for _ in 0..FITS_PER_CYCLE {
                probe.tick(rep)?;
            }
            let short = s.ingest_ms.len().min(refs.ms.len()) < need;
            Ok((t.elapsed().as_secs_f64(), short))
        },
    )?;
    verify(&fleet, &mut refs, &s, &mut rep)?;
    let predictions: Vec<Option<Range<usize>>> = s
        .closes
        .iter()
        .map(|d| d.as_ref().and_then(|d| d.predicted_region()))
        .collect();
    let events: Vec<Range<usize>> = fleet
        .streams
        .iter()
        .map(|st| fleet.cases[st.case].anomaly.clone())
        .collect();
    let accuracy =
        evalkit::eventwise::accuracy(&predictions, &events, evalkit::eventwise::DEFAULT_MARGIN);
    fleet.stop();

    rep.put(
        "setup_s",
        "s",
        median(&setup_s).unwrap_or(0.0),
        setup_s.len(),
    );
    let (fit_s, fits_timed) = probe.finish(&mut rep)?;
    rep.put("fit_s", "s", fit_s, fits_timed);
    rep.percentile("detect_ms_p50", "ms", &refs.ms, 0.5)?;
    rep.percentile("detect_ms_p90", "ms", &refs.ms, 0.9)?;
    rep.put("ucr_accuracy", "ratio", accuracy, events.len());
    rep.percentile("request_ms_p50", "ms", &s.request_ms, 0.5)?;
    rep.percentile("request_ms_p90", "ms", &s.request_ms, 0.9)?;
    rep.percentile("requests_per_s", "1/s", &s.requests_per_s, 0.5)?;
    rep.percentile("ingest_ms_p50", "ms", &s.ingest_ms, 0.5)?;
    rep.percentile("ingest_ms_p90", "ms", &s.ingest_ms, 0.9)?;
    rep.percentile("points_per_s", "1/s", &s.points_per_s, 0.5)?;
    rep.put("peak_rss_mb", "MiB", peak_rss_mb()?, 1);
    rep.note(format!(
        "{STREAMS} streams, {BUDGET} B budget, {} shards; request_ms is open/poll/close calls",
        data::nproc()
    ));
    Ok(rep)
}
