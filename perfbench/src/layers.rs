//! Per-layer replays and the per-layer metric set of a traced run.
//!
//! Every traced run ends with the same replays on *its own* models and
//! series, each call wrapped in a benchmark span: the detection
//! decomposition, training-window augmentation, model save/load, an
//! in-process stream replay with its finalize, checkpoint save/load,
//! checkpoint-store put/latest, JSON encode/parse of a detect exchange, and
//! the encode speed-up from one thread to `nproc`. Counts that only a
//! workload's own traffic produces (fleet evictions, server cache misses)
//! come from that workload and are zero where it does not use the layer.

use crate::data;
use crate::decompose::{self, Decomposed};
use crate::report::Report;
use crate::stats::{median, nearest_rank};
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use triad_core::{persist, FittedTriad, TriadDetection};
use triad_fleet::CheckpointStore;
use triad_serve::{json, proto, Value};
use triad_stream::{checkpoint, StreamConfig, StreamEngine};

/// One model and the series it serves.
pub struct Subject<'a> {
    pub name: String,
    pub fitted: &'a FittedTriad,
    pub train: &'a [f64],
    pub test: &'a [f64],
}

/// Counts a workload's own traffic contributes to the per-layer set.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub serve_cache_misses: f64,
    pub serve_batch_size: f64,
    pub fleet_evictions: f64,
    pub fleet_rehydrations: f64,
    pub fleet_compacted_files: f64,
    pub fleet_push_retries: f64,
    pub fleet_resident_bytes_max: f64,
}

/// Median of `xs`, or zero where the workload never exercised the layer.
fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Replay every layer on `subjects` (traced spans), checking each result.
/// Returns the decomposition handles for [`emit`].
pub fn replay(
    subjects: &[Subject],
    store_dir: &Path,
    seed: u64,
    rep: &mut Report,
) -> Result<Vec<Decomposed>, String> {
    let mut parts = Vec::new();
    let store = CheckpointStore::open(store_dir)?;
    let mut rng = StdRng::seed_from_u64(seed);
    for (k, s) in subjects.iter().enumerate() {
        let det = match decompose::traced_detect(s.fitted, s.test) {
            Ok((det, p)) => {
                rep.ok();
                parts.push(p);
                det
            }
            Err(e) => {
                rep.fail(format!("{}: {e}", s.name));
                continue;
            }
        };
        augment(s, &mut rng);
        persist_round_trip(s, rep)?;
        stream_round_trip(s, &det, &store, k as u64 + 1, rep)?;
        json_round_trip(s, &det, rep);
        encode_speedup(s);
    }
    Ok(parts)
}

fn augment(s: &Subject, rng: &mut StdRng) {
    let cfg = s.fitted.config();
    let windows = s.fitted.segmenter().segment(s.train.len());
    let _span = obs::span("tsaug.augment");
    for i in 0..windows.count() {
        std::hint::black_box(tsaug::augment_window(
            rng,
            windows.slice(s.train, i),
            &cfg.augment,
        ));
    }
}

fn persist_round_trip(s: &Subject, rep: &mut Report) -> Result<(), String> {
    let mut bytes = Vec::new();
    {
        let _span = obs::span("core.persist_save");
        persist::save(&mut bytes, s.fitted).map_err(|e| e.to_string())?;
    }
    let loaded = {
        let _span = obs::span("core.persist_load");
        persist::load(bytes.as_slice()).map_err(|e| e.to_string())?
    };
    let mut again = Vec::new();
    persist::save(&mut again, &loaded).map_err(|e| e.to_string())?;
    rep.check(again == bytes, || {
        format!("{}: model save/load round trip changed bytes", s.name)
    });
    Ok(())
}

fn stream_round_trip(
    s: &Subject,
    det: &TriadDetection,
    store: &CheckpointStore,
    generation: u64,
    rep: &mut Report,
) -> Result<(), String> {
    let mut engine = StreamEngine::new(s.fitted, StreamConfig::default());
    {
        let mut span = obs::span("stream.push");
        span.add_field("points", s.test.len());
        for &x in s.test {
            engine.push(s.fitted, x).map_err(|e| e.to_string())?;
        }
    }
    let finalized = {
        let _span = obs::span("stream.finalize");
        engine.finalize(s.fitted).map_err(|e| e.to_string())?
    };
    rep.check(&finalized == det, || {
        format!("{}: stream finalize differs from offline detect", s.name)
    });

    let mut payload = Vec::new();
    {
        let _span = obs::span("stream.checkpoint_save");
        checkpoint::save(&mut payload, &s.name, &s.name, &engine).map_err(|e| e.to_string())?;
    }
    let restored = {
        let _span = obs::span("stream.checkpoint_load");
        checkpoint::load(payload.as_slice())
            .and_then(|state| state.into_engine(s.fitted))
            .map_err(|e| e.to_string())?
    };
    rep.check(restored.status() == engine.status(), || {
        format!(
            "{}: checkpoint round trip changed the stream status",
            s.name
        )
    });

    {
        let _span = obs::span("fleet.store_put");
        store.put(&s.name, generation, &payload)?;
    }
    let latest = {
        let _span = obs::span("fleet.store_latest");
        store.latest(&s.name)
    };
    rep.check(latest == Some((generation, payload)), || {
        format!("{}: checkpoint store returned a different payload", s.name)
    });
    store.remove_stream(&s.name);
    Ok(())
}

fn json_round_trip(s: &Subject, det: &TriadDetection, rep: &mut Report) {
    let request = Value::obj(vec![
        ("verb", "detect".into()),
        ("model", s.name.as_str().into()),
        ("series", Value::num_arr(s.test)),
    ]);
    let line = {
        let _span = obs::span("serve.json_encode");
        request.to_string()
    };
    let response = proto::detect_response(None, proto::detection_fields(&s.name, det));
    let text = response.to_string();
    let parsed = {
        let _span = obs::span("serve.json_parse");
        json::parse(&text)
    };
    rep.check(
        parsed.as_ref() == Ok(&response) && json::parse(&line).as_ref() == Ok(&request),
        || format!("{}: JSON round trip changed a detect exchange", s.name),
    );
}

fn encode_speedup(s: &Subject) {
    let cfg = s.fitted.config();
    let model = s.fitted.model();
    let windows = s.fitted.segmenter().segment_clamped(s.test.len());
    let slices: Vec<&[f64]> = (0..windows.count())
        .map(|i| windows.slice(s.test, i))
        .collect();
    let encode = |threads: usize| {
        parallel::with_ambient(threads, || {
            for (domain, _) in &model.encoders {
                std::hint::black_box(model.embed_windows_par(
                    cfg,
                    s.fitted.extractor(),
                    &slices,
                    *domain,
                ));
            }
        })
    };
    for _ in 0..2 {
        {
            let _span = obs::span("parallel.encode_serial");
            encode(1);
        }
        {
            let _span = obs::span("parallel.encode_nproc");
            encode(data::nproc());
        }
    }
}

/// Alternate untraced and traced passes of the same work; returns the
/// traced ÷ untraced wall-time ratio (`obs.trace_overhead`). Tracing is
/// left on afterwards for the replays.
pub fn alternate(
    rounds: usize,
    mut pass: impl FnMut(bool) -> Result<f64, String>,
) -> Result<f64, String> {
    let (mut plain, mut traced) = (0.0, 0.0);
    for _ in 0..rounds {
        obs::set_enabled(false);
        plain += pass(false)?;
        obs::set_enabled(true);
        traced += pass(true)?;
    }
    Ok(traced / plain)
}

/// Fit-side numbers every workload has: µs per training window per epoch
/// of each fit.
pub fn fit_us_per_window_epoch(fits: &[(f64, usize)]) -> Vec<f64> {
    fits.iter()
        .map(|&(secs, windows)| secs * 1e6 / (windows.max(1) * data::EPOCHS) as f64)
        .collect()
}

/// Emit the whole per-layer set from the trace of a run.
pub fn emit(
    trace: &Trace,
    parts: &[Decomposed],
    fit_us: &[f64],
    counts: &Counts,
    serve_overhead_ms: &[f64],
    trace_overhead: f64,
    rep: &mut Report,
) {
    let per_detect = |name: &str| -> Vec<f64> {
        parts
            .iter()
            .map(|p| trace.child_sum_ms(p.decompose, name))
            .collect()
    };
    let encode = per_detect("core.encode");
    let backhalf = per_detect("core.backhalf");
    // Core's own ranking, from the program's `rank` spans of the same
    // `try_detect` call: one per domain, each a duration (never negative).
    let mut rank = Vec::with_capacity(parts.len());
    for p in parts {
        let spans = trace.rank_ms(p.detect);
        if rep.check(spans.len() == p.domains, || {
            format!(
                "core.rank: {} rank spans in a detect of {} domains",
                spans.len(),
                p.domains
            )
        }) {
            rank.push(spans.iter().sum::<f64>());
        }
    }
    let n = parts.len();
    rep.put("core.encode_ms", "ms", med(&encode), n);
    rep.put(
        "core.featurize_ms",
        "ms",
        med(&per_detect("core.featurize")),
        n,
    );
    rep.put("neuro.embed_ms", "ms", med(&per_detect("neuro.embed")), n);
    rep.put("core.backhalf_ms", "ms", med(&backhalf), n);
    rep.put("core.rank_ms", "ms", med(&rank), rank.len());
    rep.put(
        "discord.sweep_ms",
        "ms",
        med(&per_detect("discord.sweep")),
        n,
    );
    let lengths: Vec<f64> = parts.iter().map(|p| p.lengths as f64).collect();
    let regions: Vec<f64> = parts.iter().map(|p| p.region_len as f64).collect();
    let count = |xs: &[f64]| nearest_rank(xs, 0.5).unwrap_or(0.0);
    rep.put("discord.lengths", "count", count(&lengths), n);
    rep.put("discord.region_len", "count", count(&regions), n);
    rep.put(
        "core.fit_us_per_window_epoch",
        "us",
        med(fit_us),
        fit_us.len(),
    );

    let spans = |name: &str| trace.durations_ms(name);
    let each = |rep: &mut Report, metric: &'static str, span: &str| {
        let d = spans(span);
        rep.put(metric, "ms", med(&d), d.len());
    };
    each(rep, "tsaug.augment_ms", "tsaug.augment");
    each(rep, "core.persist_save_ms", "core.persist_save");
    each(rep, "core.persist_load_ms", "core.persist_load");

    rep.put(
        "serve.overhead_ms_p50",
        "ms",
        med(serve_overhead_ms),
        serve_overhead_ms.len(),
    );
    let us = |name: &str| -> Vec<f64> { spans(name).iter().map(|m| m * 1e3).collect() };
    let parse = us("serve.json_parse");
    let encode_json = us("serve.json_encode");
    rep.put("serve.json_parse_us", "us", med(&parse), parse.len());
    rep.put(
        "serve.json_encode_us",
        "us",
        med(&encode_json),
        encode_json.len(),
    );
    let waits = trace.batch_waits_ms();
    rep.put("serve.batch_wait_ms_p50", "ms", med(&waits), waits.len());
    rep.put("serve.cache_misses", "count", counts.serve_cache_misses, 1);
    rep.put("serve.batch_size", "count", counts.serve_batch_size, 1);

    let serial = spans("parallel.encode_serial");
    let wide = spans("parallel.encode_nproc");
    let speedup = if med(&wide) > 0.0 {
        med(&serial) / med(&wide)
    } else {
        0.0
    };
    rep.put(
        "parallel.encode_speedup",
        "ratio",
        speedup,
        serial.len().min(wide.len()),
    );

    let per_point: Vec<f64> = trace
        .named("stream.push")
        .filter_map(|r| {
            let points: f64 = r
                .fields
                .iter()
                .find(|(k, _)| *k == "points")?
                .1
                .parse()
                .ok()?;
            Some(crate::trace::ms(r) * 1e3 / points.max(1.0))
        })
        .collect();
    rep.put(
        "stream.push_us_per_point",
        "us",
        med(&per_point),
        per_point.len(),
    );
    each(rep, "stream.checkpoint_save_ms", "stream.checkpoint_save");
    each(rep, "stream.checkpoint_load_ms", "stream.checkpoint_load");
    each(rep, "fleet.store_put_ms", "fleet.store_put");
    each(rep, "fleet.store_latest_ms", "fleet.store_latest");
    rep.put("fleet.evictions", "count", counts.fleet_evictions, 1);
    rep.put("fleet.rehydrations", "count", counts.fleet_rehydrations, 1);
    rep.put(
        "fleet.compacted_files",
        "count",
        counts.fleet_compacted_files,
        1,
    );
    rep.put("fleet.push_retries", "count", counts.fleet_push_retries, 1);
    rep.put(
        "fleet.resident_bytes_max",
        "bytes",
        counts.fleet_resident_bytes_max,
        1,
    );
    each(rep, "stream.finalize_ms", "stream.finalize");
    rep.put("obs.trace_overhead", "ratio", trace_overhead, 1);
}
