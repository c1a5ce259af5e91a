//! `triad trace` — record a fixed-seed fit/detect/stream workload with
//! structured tracing on, export the spans (JSONL + Chrome trace-event),
//! and print a per-stage latency summary.
//!
//! The verb is both a profiling tool and a self-check: after writing the
//! two trace files it parses them back, validates the span tree (unique
//! ids, resolvable parents, per-thread monotone timestamps), and — under
//! `--smoke` — asserts that all five pipeline stages (featurize, rank,
//! narrow, discord, vote) were individually attributed and that root spans
//! cover at least 95% of the trace extent. CI runs `triad trace --smoke`
//! as a schema gate.

use crate::Cli;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use triad_core::{persist, TriAd, TriadConfig};
use triad_fleet::{DriftPolicy, FleetConfig, FleetManager};

/// The five stage-1..4 span names the pipeline must attribute individually
/// (the ISSUE acceptance bar), checked under `--smoke`.
const PIPELINE_STAGES: &[&str] = &["featurize", "rank", "narrow", "discord", "vote"];

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

pub(crate) fn cmd_trace(cli: &Cli) -> Result<Vec<String>, String> {
    let smoke = cli.get("smoke").is_some();
    let out_dir = PathBuf::from(cli.get("out-dir").unwrap_or("."));
    let seed: u64 = cli.get_num("seed", 0u64)?;
    let threads: usize = cli.get_num("threads", 0usize)?;

    // Force tracing on for this process regardless of TRIAD_TRACE: the
    // whole point of the verb is to record.
    obs::set_enabled(true);

    let (n_train, n_test, period, epochs) = if smoke {
        (640, 480, 32, 3)
    } else {
        (1600, 960, 32, 6)
    };
    let (train, test) = bench::make_series(n_train, n_test, period);
    let cfg = TriadConfig {
        epochs,
        depth: 3,
        hidden: 12,
        batch: 4,
        merlin_step: 4,
        seed,
        threads,
        trace: true,
        ..TriadConfig::default()
    };

    // --- fit + detect: the offline pipeline (spans: fit; detect with its
    // five stages; parallel-region/worker spans underneath).
    let fitted = TriAd::new(cfg).fit(&train)?;
    let det = fitted.detect(&test);

    // --- stream: replay the test split through the fleet manager so the
    // fleet-open/ingest/score/compact spans appear, then checkpoint.
    let scratch = std::env::temp_dir().join(format!("triad_trace_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let stream_lines = {
        let mut replay = obs::span("stream-replay");
        replay.add_field("points", test.len());
        run_stream_phase(&scratch, &fitted, &test)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let stream_lines = stream_lines?;

    // --- collect + export.
    obs::flush_thread();
    let records = obs::take_records();
    if records.is_empty() {
        return Err("trace recorded no spans (is tracing compiled out?)".into());
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let jsonl_path = out_dir.join("TRACE.jsonl");
    let chrome_path = out_dir.join("TRACE_chrome.json");
    std::fs::write(&jsonl_path, obs::to_jsonl(&records)).map_err(|e| e.to_string())?;
    std::fs::write(&chrome_path, obs::to_chrome(&records)).map_err(|e| e.to_string())?;

    // --- self-check: both files must round-trip and validate. Chrome
    // timestamps are µs with 3 decimals (ns resolution), so zero slack.
    let jsonl_text = std::fs::read_to_string(&jsonl_path).map_err(|e| e.to_string())?;
    let spans = obs::parse_jsonl(&jsonl_text).map_err(|e| format!("TRACE.jsonl: {e}"))?;
    obs::validate(&spans, 0).map_err(|e| format!("TRACE.jsonl: {e}"))?;
    let chrome_text = std::fs::read_to_string(&chrome_path).map_err(|e| e.to_string())?;
    let chrome_spans =
        obs::parse_chrome(&chrome_text).map_err(|e| format!("TRACE_chrome.json: {e}"))?;
    obs::validate(&chrome_spans, 0).map_err(|e| format!("TRACE_chrome.json: {e}"))?;
    if chrome_spans.len() != spans.len() {
        return Err(format!(
            "export mismatch: {} JSONL spans vs {} Chrome events",
            spans.len(),
            chrome_spans.len()
        ));
    }

    let summary = obs::summarize(&spans);
    // Root spans on concurrent threads can overlap, so the raw ratio may
    // exceed 1; clamp for display.
    let coverage = summary.coverage.min(1.0);
    if smoke {
        for stage in PIPELINE_STAGES {
            if !summary.stages.iter().any(|s| s.name == *stage) {
                return Err(format!("trace is missing pipeline stage {stage:?}"));
            }
        }
        if coverage < 0.95 {
            return Err(format!(
                "root spans cover only {:.1}% of the trace extent (need ≥ 95%)",
                coverage * 100.0
            ));
        }
    }

    // --- report.
    let mut out = Vec::new();
    out.push(format!(
        "traced fit+detect+stream (seed {seed}, {} train / {} test): {} spans, {} dropped",
        n_train,
        n_test,
        spans.len(),
        obs::spans_dropped()
    ));
    out.push(format!(
        "flagged region  : {:?} (fallback={})",
        det.predicted_region(),
        det.used_fallback
    ));
    out.extend(stream_lines);
    out.push(format!(
        "wall {:.1} ms, root-span coverage {:.1}%",
        summary.wall_ns as f64 / 1e6,
        coverage * 100.0
    ));
    out.push(format!(
        "{:<16} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "stage", "count", "p50 µs", "p95 µs", "p99 µs", "total µs"
    ));
    for s in &summary.stages {
        out.push(format!(
            "{:<16} {:>7} {:>12} {:>12} {:>12} {:>12}",
            s.name,
            s.count,
            fmt_us(s.p50_ns),
            fmt_us(s.p95_ns),
            fmt_us(s.p99_ns),
            fmt_us(s.total_ns)
        ));
    }
    out.push(format!(
        "critical path   : {}",
        summary.critical_path.join(" → ")
    ));
    out.push(format!("wrote {}", jsonl_path.display()));
    out.push(format!("wrote {}", chrome_path.display()));
    Ok(out)
}

/// Save the model, replay `test` through an unbudgeted 2-shard
/// [`FleetManager`] with drift off, checkpoint everything, and close. Runs
/// under the caller's `stream-replay` span; the shard threads record their
/// own open/ingest/score/compact spans.
fn run_stream_phase(
    scratch: &Path,
    fitted: &triad_core::FittedTriad,
    test: &[f64],
) -> Result<Vec<String>, String> {
    let model_path = scratch.join("trace-model.triad");
    persist::save_file(&model_path, fitted).map_err(|e| e.to_string())?;
    let loader_path = model_path.clone();
    let manager = FleetManager::new(
        FleetConfig {
            shards: 2,
            store_dir: scratch.join("ckpt"),
            drift: DriftPolicy {
                enabled: false,
                ..DriftPolicy::default()
            },
            ..FleetConfig::default()
        },
        Arc::new(move |_name: &str| persist::load_file(&loader_path).map_err(|e| e.to_string())),
        None,
    )
    .map_err(|e| format!("stream manager: {e}"))?;

    let streams = ["trace-a", "trace-b"];
    for name in streams {
        manager
            .open(name, "trace-model")
            .map_err(|e| format!("stream open: {e}"))?;
    }
    for (k, piece) in test.chunks(64).enumerate() {
        let name = streams[k % streams.len()];
        let mut tries = 0;
        loop {
            let ticket = manager.push(name, piece).map_err(|e| e.to_string())?;
            if ticket.queued {
                break;
            }
            tries += 1;
            if tries > 600 {
                return Err("stream push: shard queue stayed full".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    // Drain: each stream must have consumed its share of the replay.
    let mut fed = [0usize; 2];
    for (k, piece) in test.chunks(64).enumerate() {
        fed[k % streams.len()] += piece.len();
    }
    for (k, name) in streams.iter().enumerate() {
        for attempt in 0..6000 {
            let st = manager.poll(name).map_err(|e| e.to_string())?;
            if st.seq as usize + st.rejected_nonfinite as usize >= fed[k] {
                break;
            }
            if attempt == 5999 {
                return Err(format!("stream {name:?} never drained"));
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    let written = manager
        .checkpoint(None)
        .map_err(|e| format!("stream checkpoint: {e}"))?;
    let mut windows_scored = 0usize;
    for name in streams {
        let report = manager.close(name).map_err(|e| e.to_string())?;
        windows_scored += report.status.windows_scored;
    }
    drop(manager);
    Ok(vec![format!(
        "streamed {} points across {} shards: {} windows scored, {} checkpoints written",
        test.len(),
        2,
        windows_scored,
        written
    )])
}
