//! Implementation of the `triad` command-line tool.
//!
//! Subcommands (see `triad help` / [`run`]):
//!
//! * `fit`    — train on an anomaly-free series, save the model;
//! * `detect` — train (or load a saved model) and flag the anomalous region
//!   of a test series;
//! * `gen`    — write a synthetic archive dataset in the UCR file format;
//! * `eval`   — score a prediction file against a label file with the full
//!   metric ladder;
//! * `serve`  — run the line-delimited-JSON model server (`triad-serve`);
//! * `client` — one-shot client for a running server;
//! * `stream` — replay a series file as a live feed through the online
//!   engine (`triad-stream`), locally or against a running server.
//!
//! Series files are plain text, one sample per line (whitespace-separated
//! values are also accepted — the UCR archive format).
//!
//! The logic lives in this library crate so it is testable without spawning
//! processes; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]

mod trace_cmd;

use std::path::{Path, PathBuf};
use std::time::Duration;
use triad_core::{persist, FittedTriad, NumericMode, TriAd, TriadConfig};
use triad_serve::{Client, ServeConfig, Value};
use triad_stream::{checkpoint, StreamConfig, StreamEngine};

/// Parsed command line: `triad <command> [--key value]...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    pub command: String,
    pairs: Vec<(String, String)>,
}

impl Cli {
    /// Parse from an argument list (without the program name).
    ///
    /// Flags take a value (`--epochs 3`); a flag followed by another flag or
    /// by nothing is boolean (`--smoke`) and stores an empty value, visible
    /// through [`get`](Cli::get) as `Some("")`.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let command = args.first().cloned().ok_or_else(usage)?;
        let mut pairs = Vec::new();
        let mut i = 1;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}\n{}", args[i], usage()))?;
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_string(), v.clone()));
                    i += 2;
                }
                _ => {
                    pairs.push((key.to_string(), String::new()));
                    i += 1;
                }
            }
        }
        Ok(Cli { command, pairs })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

/// Usage text.
pub fn usage() -> String {
    "\
triad — self-supervised tri-domain time-series anomaly detection

USAGE:
  triad fit    --train FILE --model FILE [--epochs N] [--seed N] [--threads N]
  triad detect --test FILE (--train FILE [--epochs N] | --model FILE)
               [--labels FILE] [--threads N] [--numeric-mode exact|fast]
  triad gen    --out FILE [--seed N] [--id N]
  triad eval   --pred FILE --labels FILE
  triad serve  [--addr HOST:PORT] [--models DIR] [--workers N] [--executors N]
               [--max-batch N] [--max-delay-ms N] [--cache N] [--threads N]
               [--stream-shards N] [--stream-queue N] [--stream-checkpoints DIR]
               [--fleet-budget BYTES] [--numeric-mode exact|fast]
  triad client --verb VERB [--addr HOST:PORT] [--model NAME]
               [--series FILE] [--train FILE] [--epochs N] [--seed N]
  triad stream --test FILE (--model FILE | --train FILE [--epochs N])
               [--chunk N] [--enter X] [--exit X] [--checkpoint-at N] [--threads N]
               [--numeric-mode exact|fast]
  triad stream --addr HOST:PORT --model NAME --test FILE
               [--stream NAME] [--chunk N]
  triad bench  [--smoke] [--out-dir DIR]
  triad fleet  [--smoke] [--out-dir DIR] [--streams N] [--budget BYTES]
               [--points N] [--numeric-mode exact|fast]
  triad evalbed [--smoke] [--out-dir DIR] [--datasets SPEC] [--methods LIST]
               [--metrics LIST] [--epochs N] [--seed N] [--archive-seed N]
               [--threads N] [--resume] [--no-cache] [--models DIR]
               [--stride-sweep] [--check FILE] [--tolerance X]
               [--numeric-mode exact|fast]
  triad trace  [--smoke] [--out-dir DIR] [--seed N] [--threads N]
  triad lint   [--root DIR] [--json | --sarif] [--deny] [--baseline FILE]
               [--include-vendor] [--fixture]

Series files hold one sample per line (UCR archive format accepted).
`detect` prints the flagged region; with --labels it also prints metrics.
`gen` writes a synthetic dataset named with the UCR convention next to --out.
`serve` blocks until a client sends the shutdown verb; `client` verbs are
health, list, stats (add --format text for the plain-text dump), fit,
detect, evict, shutdown, and the stream.* family — responses print as one
JSON line. Open streams are written to --stream-checkpoints (default
<models>/_fleet) at shutdown and resumed on restart. --fleet-budget BYTES
caps resident stream memory: idle streams are LRU-evicted to checkpoints
and rehydrated bit-identically on the next touch, and sustained drift
triggers background refits (0 = no byte cap, drift still on).
`stream` replays --test as a live feed through the incremental engine in
--chunk-sized pushes (default 64) and prints hysteresis events plus the
final offline-equivalent detection. Without --addr it runs in-process
(--checkpoint-at N saves and restores mid-replay to exercise resume); with
--addr it drives the stream.* verbs of a running server.
--threads N sets the worker count for the parallel runtime (0 = auto,
capped; TRIAD_THREADS overrides the auto choice). Results are bit-identical
at any thread count.
--numeric-mode picks the detection kernels: `exact` (default) keeps the
bit-exact reference ladder, `fast` switches the discord search to the
FFT-backed MASS kernels — same discords within a 1e-6 tolerance, still
bit-identical across thread counts within the mode.
`bench` is the determinism gate: it runs the fixed-seed train, detect,
stream and discord workloads at 1 and 4 threads (detect, stream and
discord in both numeric modes) and writes BENCH.json into --out-dir
(default `.`), one row per run with its output checksum and an
informational wall time. It fails if any checksum changes with the thread
count; --smoke shrinks the workloads for CI. Timing lives in perfbench/.
`fleet` soaks the memory-budgeted fleet tier: opens --streams streams (far
more than --budget resident-engine bytes can hold), pushes an archive-style
workload with a sustained regime shift through them at each sweep thread
count, and writes FLEET_soak.json into --out-dir (default `bench_out`).
Gates: outputs bit-identical across thread counts, published residency
never above budget, and at least one drift-triggered refit completed per
run; --smoke shrinks the soak for CI.
`evalbed` runs the archive-scale evaluation testbed: every selected method ×
every selected dataset × the full evalkit metric suite, scheduled over the
deterministic parallel runtime (bit-identical summaries at any thread
count). Results land as CRC'd JSONL rows in --out-dir (default
`evalbed_out`); --resume skips tasks whose rows are already intact, fitted
TriAD models are cached under --models (default `<out-dir>/models`),
--datasets takes ids and ranges (`1-10,40`), --stride-sweep adds the TriAD
windowing variants, and --check FILE diffs the fresh summary against a
committed baseline — ranking flips or metric drops beyond --tolerance fail
the command. --smoke shrinks everything for CI.
`trace` records a fixed-seed fit/detect/stream workload with structured
tracing on, writes TRACE.jsonl and TRACE_chrome.json (loadable in
chrome://tracing / Perfetto) into --out-dir, validates both, and prints a
per-stage p50/p95/p99 summary with the critical path; --smoke shrinks the
workload and additionally asserts the five pipeline stages are present and
root spans cover ≥ 95% of the trace extent.
`lint` runs the workspace static analyzer (triad-lint): numeric-safety,
panic-hygiene, concurrency, and syntax-aware determinism rules
(nondet-iter, float-reduce-order, ambient-entropy, shadowed-threads) plus
stale-suppression auditing. --deny exits nonzero on any finding, --baseline
FILE drops fingerprinted pre-existing findings so CI fails only on new
ones, --json / --sarif select machine-readable output, and --fixture runs
the seeded-violation self-test instead of a workspace scan.
"
    .to_string()
}

/// Read a series file (one float per line / whitespace separated).
pub fn read_series(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
    ucrgen::loader::parse_values(&text)
}

/// Read a 0/1 label file.
pub fn read_labels(path: &Path) -> Result<Vec<bool>, String> {
    Ok(read_series(path)?.into_iter().map(|v| v != 0.0).collect())
}

fn numeric_mode_from(cli: &Cli) -> Result<NumericMode, String> {
    match cli.get("numeric-mode") {
        Some(v) => v.parse(),
        None => Ok(NumericMode::Exact),
    }
}

fn config_from(cli: &Cli) -> Result<TriadConfig, String> {
    Ok(TriadConfig {
        epochs: cli.get_num("epochs", 10usize)?,
        seed: cli.get_num("seed", 0u64)?,
        merlin_step: cli.get_num("merlin-step", 2usize)?,
        threads: cli.get_num("threads", 0usize)?,
        numeric_mode: numeric_mode_from(cli)?,
        ..TriadConfig::default()
    })
}

/// Run one command; returns the lines to print.
pub fn run(cli: &Cli) -> Result<Vec<String>, String> {
    match cli.command.as_str() {
        "fit" => cmd_fit(cli),
        "detect" => cmd_detect(cli),
        "gen" => cmd_gen(cli),
        "eval" => cmd_eval(cli),
        "serve" => cmd_serve(cli),
        "client" => cmd_client(cli),
        "stream" => cmd_stream(cli),
        "bench" => cmd_bench(cli),
        "fleet" => cmd_fleet(cli),
        "evalbed" => cmd_evalbed(cli),
        "lint" => cmd_lint(cli),
        "trace" => trace_cmd::cmd_trace(cli),
        "help" | "--help" | "-h" => Ok(vec![usage()]),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn cmd_fit(cli: &Cli) -> Result<Vec<String>, String> {
    let train = read_series(Path::new(cli.require("train")?))?;
    let model_path = cli.require("model")?.to_string();
    let fitted = TriAd::new(config_from(cli)?).fit(&train)?;
    persist::save_file(Path::new(&model_path), &fitted).map_err(|e| e.to_string())?;
    Ok(vec![format!(
        "trained: period {}, window {}, {} windows → saved to {}",
        fitted.period(),
        fitted.window_len(),
        fitted.report().n_windows,
        model_path
    )])
}

fn cmd_detect(cli: &Cli) -> Result<Vec<String>, String> {
    let test = read_series(Path::new(cli.require("test")?))?;
    let mut fitted = match (cli.get("model"), cli.get("train")) {
        (Some(m), _) => persist::load_file(Path::new(m)).map_err(|e| e.to_string())?,
        (None, Some(t)) => {
            let train = read_series(Path::new(t))?;
            TriAd::new(config_from(cli)?).fit(&train)?
        }
        (None, None) => return Err("detect needs --model or --train".into()),
    };
    fitted.set_threads(cli.get_num("threads", 0usize)?);
    fitted.set_numeric_mode(numeric_mode_from(cli)?);
    let det = fitted.detect(&test);
    let mut out = vec![
        format!("selected window : {:?}", det.selected_window),
        format!(
            "flagged region  : {:?} ({} points, fallback={})",
            det.predicted_region(),
            det.prediction.iter().filter(|&&b| b).count(),
            det.used_fallback
        ),
    ];
    if let Some(lp) = cli.get("labels") {
        let labels = read_labels(Path::new(lp))?;
        if labels.len() != test.len() {
            return Err("labels/test length mismatch".into());
        }
        let pw = evalkit::pointwise::prf(&det.prediction, &labels);
        let pak = evalkit::pak::pak_auc(&det.prediction, &labels);
        let aff = evalkit::affiliation::affiliation_prf(&det.prediction, &labels);
        out.push(format!(
            "metrics         : F1(PW) {:.3}  PA%K-F1 {:.3}  Aff-F1 {:.3}",
            pw.f1, pak.f1_auc, aff.f1
        ));
    }
    Ok(out)
}

fn cmd_gen(cli: &Cli) -> Result<Vec<String>, String> {
    let out_dir = cli.require("out")?.to_string();
    let seed: u64 = cli.get_num("seed", 7u64)?;
    let id: usize = cli.get_num("id", 1usize)?;
    let ds = ucrgen::archive::generate_dataset(seed, id);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    // UCR naming convention: 1-based inclusive anomaly bounds.
    let name = format!(
        "{:03}_UCR_Anomaly_{}_{}_{}_{}.txt",
        ds.id,
        ds.name.replace('_', ""),
        ds.train_end,
        ds.anomaly.start + 1,
        ds.anomaly.end
    );
    let path = Path::new(&out_dir).join(&name);
    let body: Vec<String> = ds.series.iter().map(|v| format!("{v:.6}")).collect();
    std::fs::write(&path, body.join("\n")).map_err(|e| e.to_string())?;
    Ok(vec![format!(
        "wrote {} ({} samples, anomaly {:?}, kind {:?})",
        path.display(),
        ds.series.len(),
        ds.anomaly,
        ds.kind
    )])
}

fn cmd_eval(cli: &Cli) -> Result<Vec<String>, String> {
    let pred = read_labels(Path::new(cli.require("pred")?))?;
    let labels = read_labels(Path::new(cli.require("labels")?))?;
    if pred.len() != labels.len() {
        return Err("pred/labels length mismatch".into());
    }
    let pw = evalkit::pointwise::prf(&pred, &labels);
    let pa = evalkit::pa::prf_pa(&pred, &labels);
    let pak = evalkit::pak::pak_auc(&pred, &labels);
    let aff = evalkit::affiliation::affiliation_prf(&pred, &labels);
    let rng = evalkit::range_pr::range_prf(&pred, &labels);
    Ok(vec![
        format!(
            "F1(PW)      : {:.4} (P {:.4} R {:.4})",
            pw.f1, pw.precision, pw.recall
        ),
        format!("F1(PA)      : {:.4}", pa.f1),
        format!(
            "PA%K AUC    : F1 {:.4} (P {:.4} R {:.4})",
            pak.f1_auc, pak.precision_auc, pak.recall_auc
        ),
        format!(
            "Affiliation : F1 {:.4} (P {:.4} R {:.4})",
            aff.f1, aff.precision, aff.recall
        ),
        format!(
            "Range-based : F1 {:.4} (P {:.4} R {:.4})",
            rng.f1, rng.precision, rng.recall
        ),
    ])
}

/// Default port for `serve`/`client` when `--addr` is omitted.
const DEFAULT_ADDR: &str = "127.0.0.1:7700";

fn cmd_serve(cli: &Cli) -> Result<Vec<String>, String> {
    let cfg = ServeConfig {
        addr: cli.get("addr").unwrap_or(DEFAULT_ADDR).to_string(),
        models_dir: PathBuf::from(cli.get("models").unwrap_or("models")),
        workers: cli.get_num("workers", 4usize)?,
        executors: cli.get_num("executors", 2usize)?,
        max_batch: cli.get_num("max-batch", 16usize)?,
        max_delay_ms: cli.get_num("max-delay-ms", 20u64)?,
        request_timeout_ms: cli.get_num("request-timeout-ms", 30_000u64)?,
        idle_timeout_ms: cli.get_num("idle-timeout-ms", 10_000u64)?,
        cache_capacity: cli.get_num("cache", 8usize)?,
        stream_shards: cli.get_num("stream-shards", 2usize)?,
        stream_queue: cli.get_num("stream-queue", 1024usize)?,
        stream_checkpoint_dir: cli.get("stream-checkpoints").map(PathBuf::from),
        fleet_budget_bytes: match cli.get("fleet-budget") {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|e| format!("--fleet-budget {v:?}: {e}"))?,
            ),
            None => None,
        },
        threads: cli.get_num("threads", 0usize)?,
        numeric_mode: numeric_mode_from(cli)?,
    };
    let models_dir = cfg.models_dir.clone();
    let handle = triad_serve::start(cfg).map_err(|e| format!("serve: {e}"))?;
    // Announce the bound address before blocking (port 0 resolves here) so
    // scripts can parse it and connect.
    println!(
        "triad-serve listening on {} (models in {})",
        handle.addr(),
        models_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(vec!["server drained and stopped".into()])
}

fn cmd_client(cli: &Cli) -> Result<Vec<String>, String> {
    let addr = cli.get("addr").unwrap_or(DEFAULT_ADDR);
    let verb = cli.require("verb")?;
    let timeout = Duration::from_millis(cli.get_num("timeout-ms", 180_000u64)?);
    let mut client = Client::connect(addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let resp = match verb {
        "health" => client.health(),
        "list" => client.list(),
        "stats" if cli.get("format") == Some("text") => {
            return client
                .stats_text()
                .map(|t| t.lines().map(str::to_string).collect())
                .map_err(|e| format!("stats: {e}"));
        }
        "stats" => client.stats(),
        "evict" => client.evict(cli.require("model")?),
        "shutdown" => client.shutdown(),
        "fit" => {
            let train = read_series(Path::new(cli.require("train")?))?;
            let mut extra: Vec<(&str, Value)> = Vec::new();
            for key in ["epochs", "seed", "merlin_step"] {
                if let Some(v) = cli.get(key) {
                    let n: u64 = v.parse().map_err(|_| format!("--{key}: bad value {v:?}"))?;
                    extra.push((key, Value::Num(n as f64)));
                }
            }
            client.fit(cli.require("model")?, &train, extra)
        }
        "detect" => {
            let series = read_series(Path::new(cli.require("series")?))?;
            client.detect(cli.require("model")?, &series)
        }
        "stream.open" => client.stream_open(cli.require("stream")?, cli.require("model")?),
        "stream.push" => {
            let points = read_series(Path::new(cli.require("series")?))?;
            client.stream_push(cli.require("stream")?, &points)
        }
        "stream.poll" => client.stream_poll(cli.require("stream")?),
        "stream.close" => client.stream_close(cli.require("stream")?),
        "stream.checkpoint" => client.stream_checkpoint(cli.get("stream")),
        "stream.list" => client.stream_list(),
        other => {
            return Err(format!(
                "unknown client verb {other:?} (health, list, stats, fit, detect, evict, \
                 shutdown, stream.open, stream.push, stream.poll, stream.close, \
                 stream.checkpoint, stream.list)"
            ))
        }
    };
    let resp = resp.map_err(|e| format!("{verb}: {e}"))?;
    Ok(vec![resp.to_string()])
}

/// Replay a series file as a live feed. Without `--addr` the feed runs
/// through an in-process [`StreamEngine`]; with `--addr` it drives the
/// `stream.*` verbs of a running server.
fn cmd_stream(cli: &Cli) -> Result<Vec<String>, String> {
    if cli.get("addr").is_some() {
        return cmd_stream_remote(cli);
    }
    let test = read_series(Path::new(cli.require("test")?))?;
    let mut fitted: FittedTriad = match (cli.get("model"), cli.get("train")) {
        (Some(m), _) => persist::load_file(Path::new(m)).map_err(|e| e.to_string())?,
        (None, Some(t)) => {
            let train = read_series(Path::new(t))?;
            TriAd::new(config_from(cli)?).fit(&train)?
        }
        (None, None) => {
            return Err("stream needs --model or --train (or --addr for server mode)".into())
        }
    };
    fitted.set_threads(cli.get_num("threads", 0usize)?);
    fitted.set_numeric_mode(numeric_mode_from(cli)?);
    let chunk = cli.get_num("chunk", 64usize)?.max(1);
    let defaults = StreamConfig::default();
    let cfg = StreamConfig {
        enter: cli.get_num("enter", defaults.enter)?,
        exit: cli.get_num("exit", defaults.exit)?,
        ..defaults
    };
    let checkpoint_at: Option<usize> = match cli.get("checkpoint-at") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--checkpoint-at: bad value {v:?}"))?,
        ),
    };

    let mut engine = StreamEngine::new(&fitted, cfg);
    let mut out = Vec::new();
    let mut fed = 0usize;
    let mut ckpt_done = false;
    for piece in test.chunks(chunk) {
        for &x in piece {
            // Non-finite samples are rejected by the engine and tallied in
            // its status; the replay just keeps going.
            let _ = engine.push(&fitted, x);
        }
        fed += piece.len();
        if let Some(at) = checkpoint_at {
            if !ckpt_done && fed >= at {
                ckpt_done = true;
                // Save, throw the live engine away, resume from the file —
                // the rest of the replay runs on the restored state.
                let path = std::env::temp_dir()
                    .join(format!("triad_cli_stream_{}.ckpt", std::process::id()));
                checkpoint::save_file(&path, "cli", "cli-model", &engine)
                    .map_err(|e| e.to_string())?;
                engine = checkpoint::load_file(&path)
                    .map_err(|e| e.to_string())?
                    .into_engine(&fitted)
                    .map_err(|e| e.to_string())?;
                let _ = std::fs::remove_file(&path);
                out.push(format!("checkpoint saved + restored at sample {fed}"));
            }
        }
    }

    let status = engine.status();
    out.push(format!(
        "replayed {} samples in chunks of {chunk}: {} windows scored, {} rejected non-finite",
        status.seq, status.windows_scored, status.rejected_nonfinite
    ));
    for ev in &status.events {
        out.push(match ev.end {
            Some(end) => format!(
                "event: [{}, {end}) peak deviance {:.3}",
                ev.start, ev.peak_deviance
            ),
            None => format!(
                "event: [{}, …) still open, peak deviance {:.3}",
                ev.start, ev.peak_deviance
            ),
        });
    }
    if status.events.is_empty() {
        out.push("no hysteresis events".into());
    }
    match engine.finalize(&fitted) {
        Ok(det) => {
            out.push(format!("selected window : {:?}", det.selected_window));
            out.push(format!(
                "flagged region  : {:?} ({} points, fallback={})",
                det.predicted_region(),
                det.prediction.iter().filter(|&&b| b).count(),
                det.used_fallback
            ));
        }
        Err(e) => out.push(format!("finalize unavailable: {e}")),
    }
    Ok(out)
}

/// Server-mode replay: drive `stream.open`/`push`/`poll`/`close` against a
/// running `triad serve`.
fn cmd_stream_remote(cli: &Cli) -> Result<Vec<String>, String> {
    let addr = cli.require("addr")?;
    let model = cli.require("model")?;
    let test = read_series(Path::new(cli.require("test")?))?;
    let name = cli.get("stream").unwrap_or("cli-stream");
    let chunk = cli.get_num("chunk", 64usize)?.max(1);
    let timeout = Duration::from_millis(cli.get_num("timeout-ms", 180_000u64)?);
    let mut client = Client::connect(addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;

    client
        .stream_open(name, model)
        .map_err(|e| format!("stream.open: {e}"))?;
    let mut resent = 0u64;
    for piece in test.chunks(chunk) {
        // A full shard queue sheds the chunk (explicit backpressure); a
        // replay wants every point, so back off and resend.
        let mut tries = 0;
        loop {
            let ticket = client
                .stream_push(name, piece)
                .map_err(|e| format!("stream.push: {e}"))?;
            if ticket.get("queued").and_then(Value::as_bool) == Some(true) {
                break;
            }
            resent += 1;
            tries += 1;
            if tries > 600 {
                return Err("stream.push: shard queue stayed full".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Wait for the shard to drain the replay before closing.
    let want = test.len() as u64;
    let mut drained = false;
    for _ in 0..6000 {
        let polled = client
            .stream_poll(name)
            .map_err(|e| format!("stream.poll: {e}"))?;
        if polled.get("seq").and_then(Value::as_u64).unwrap_or(0)
            + polled
                .get("rejected_nonfinite")
                .and_then(Value::as_u64)
                .unwrap_or(0)
            >= want
        {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if !drained {
        return Err(format!("stream {name:?} never drained {want} samples"));
    }
    let closed = client
        .stream_close(name)
        .map_err(|e| format!("stream.close: {e}"))?;
    let mut out = vec![format!(
        "replayed {} samples to {addr} as stream {name:?} ({} chunks resent under backpressure)",
        test.len(),
        resent
    )];
    out.push(closed.to_string());
    Ok(out)
}

/// Run the determinism gate (`crates/bench::perf`) and report where
/// `BENCH.json` landed.
fn cmd_bench(cli: &Cli) -> Result<Vec<String>, String> {
    // The gate always runs every stage in both numeric modes; a leftover
    // `--stages` or `--numeric-mode` must not pass as if it had narrowed it.
    if let Some((key, _)) = cli
        .pairs
        .iter()
        .find(|(k, _)| k != "smoke" && k != "out-dir")
    {
        return Err(format!(
            "bench takes only --smoke and --out-dir, got --{key}"
        ));
    }
    bench::perf::run_bench(&bench::perf::BenchOptions {
        smoke: cli.get("smoke").is_some(),
        out_dir: PathBuf::from(cli.get("out-dir").unwrap_or(".")),
    })
}

/// Soak the fleet tier under a byte budget (`crates/bench::fleet`) and
/// report where `FLEET_soak.json` landed.
fn cmd_fleet(cli: &Cli) -> Result<Vec<String>, String> {
    let opts = bench::fleet::FleetOptions {
        smoke: cli.get("smoke").is_some(),
        out_dir: PathBuf::from(cli.get("out-dir").unwrap_or("bench_out")),
        streams: cli.get_num("streams", 0usize)?,
        budget_bytes: cli.get_num("budget", 0usize)?,
        points: cli.get_num("points", 0usize)?,
        numeric_mode: numeric_mode_from(cli)?,
    };
    bench::fleet::run_fleet(&opts)
}

/// Run the archive-scale evaluation testbed (`crates/evalbed`).
fn cmd_evalbed(cli: &Cli) -> Result<Vec<String>, String> {
    let out_dir = PathBuf::from(cli.get("out-dir").unwrap_or("evalbed_out"));
    let mut opts = if cli.get("smoke").is_some() {
        evalbed::EvalbedOptions::smoke(out_dir)
    } else {
        evalbed::EvalbedOptions::full(out_dir)
    };
    if let Some(spec) = cli.get("datasets") {
        opts.datasets = evalbed::parse_dataset_spec(spec, 250)?;
    }
    if let Some(spec) = cli.get("methods") {
        opts.methods = evalbed::parse_name_list(spec);
    }
    if let Some(spec) = cli.get("metrics") {
        opts.metrics = evalbed::parse_name_list(spec);
    }
    opts.epochs = cli.get_num("epochs", opts.epochs)?;
    opts.seed = cli.get_num("seed", opts.seed)?;
    opts.archive_seed = cli.get_num("archive-seed", opts.archive_seed)?;
    opts.threads = cli.get_num("threads", 0usize)?;
    opts.tolerance = cli.get_num("tolerance", opts.tolerance)?;
    opts.resume = cli.get("resume").is_some();
    opts.no_cache = cli.get("no-cache").is_some();
    opts.stride_sweep = cli.get("stride-sweep").is_some();
    opts.models_dir = cli.get("models").map(PathBuf::from);
    opts.check = cli.get("check").map(PathBuf::from);
    opts.numeric_mode = numeric_mode_from(cli)?;

    let outcome = evalbed::run(&opts)?;
    let mut out = vec![
        format!(
            "evalbed : {} methods × {} datasets — {} executed, {} resumed, {} cached fits reused",
            outcome.summary.methods.len(),
            outcome.summary.dataset_ids.len(),
            outcome.executed,
            outcome.resumed,
            outcome.models_reused
        ),
        format!("rows    : {}", outcome.rows_path.display()),
        format!("summary : {}", outcome.summary_path.display()),
        format!("report  : {}", outcome.markdown_path.display()),
        format!("ranking : {}", outcome.summary.ranking.join(" > ")),
    ];
    if outcome.skipped_lines > 0 {
        out.push(format!(
            "warning : skipped {} damaged/duplicate result lines",
            outcome.skipped_lines
        ));
    }
    if let Some(baseline) = &opts.check {
        if outcome.regressions.is_empty() {
            out.push(format!("gate    : PASS vs {}", baseline.display()));
        } else {
            return Err(format!(
                "regression gate FAILED vs {}:\n  {}",
                baseline.display(),
                outcome.regressions.join("\n  ")
            ));
        }
    }
    Ok(out)
}

/// Workspace root for `lint`: `--root` wins; otherwise the current
/// directory when it looks like the workspace (`cargo run` puts us there),
/// otherwise the compile-time manifest's grandparent (installed binary).
fn lint_root(cli: &Cli) -> PathBuf {
    if let Some(r) = cli.get("root") {
        return PathBuf::from(r);
    }
    let cwd = PathBuf::from(".");
    if cwd.join("Cargo.toml").exists() && cwd.join("crates").exists() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(|p| p.to_path_buf())
        .unwrap_or(cwd)
}

fn cmd_lint(cli: &Cli) -> Result<Vec<String>, String> {
    if cli.get("json").is_some() && cli.get("sarif").is_some() {
        return Err("--json and --sarif are mutually exclusive".to_string());
    }

    if cli.get("fixture").is_some() {
        let dir = lint_root(cli).join("crates/lint/fixtures");
        let outcome = triad_lint::fixture_self_test(&dir)
            .map_err(|e| format!("fixture self-test failed to run: {e}"))?;
        if !outcome.passed {
            return Err(outcome.report);
        }
        return Ok(vec![outcome.report.trim_end().to_string()]);
    }

    let root = lint_root(cli);
    let opts = triad_lint::Options {
        include_vendor: cli.get("include-vendor").is_some(),
    };
    let mut reports = triad_lint::run(&root, &opts)
        .map_err(|e| format!("failed to lint {}: {e}", root.display()))?;

    if let Some(path) = cli.get("baseline") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        let set = triad_lint::baseline::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        triad_lint::baseline::apply(&mut reports, &set);
    }

    let n: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    let rendered = if cli.get("json").is_some() {
        triad_lint::engine::render_json(&reports)
    } else if cli.get("sarif").is_some() {
        triad_lint::sarif::render(&reports)
    } else {
        triad_lint::engine::render_human(&reports)
    };
    if cli.get("deny").is_some() && n > 0 {
        return Err(format!(
            "{}lint: {} finding{} (--deny)",
            rendered,
            n,
            if n == 1 { "" } else { "s" }
        ));
    }
    Ok(vec![rendered.trim_end().to_string()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("triad_cli_{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn bench_refuses_options_it_does_not_take() {
        for flag in ["--stages", "--numeric-mode"] {
            let cli = Cli::parse(&argv(&["bench", "--smoke", flag, "fast"])).unwrap();
            let err = run(&cli).expect_err("bench must refuse the flag");
            assert!(err.contains(flag), "{err}");
        }
    }

    #[test]
    fn parse_and_flags() {
        let cli = Cli::parse(&argv(&["detect", "--test", "t.txt", "--epochs", "3"])).unwrap();
        assert_eq!(cli.command, "detect");
        assert_eq!(cli.get("test"), Some("t.txt"));
        assert_eq!(cli.get_num("epochs", 0usize).unwrap(), 3);
        assert_eq!(cli.get_num("seed", 9u64).unwrap(), 9);
        assert!(cli.require("missing").is_err());
        assert!(Cli::parse(&argv(&[])).is_err());
        assert!(Cli::parse(&argv(&["x", "notflag"])).is_err());
        // Boolean flags: trailing or followed by another flag.
        let cli = Cli::parse(&argv(&["x", "--flag"])).unwrap();
        assert_eq!(cli.get("flag"), Some(""));
        let cli = Cli::parse(&argv(&["x", "--smoke", "--out-dir", "d"])).unwrap();
        assert_eq!(cli.get("smoke"), Some(""));
        assert_eq!(cli.get("out-dir"), Some("d"));
    }

    #[test]
    fn lint_verb_fixture_pass_and_workspace_clean() {
        let cli = Cli::parse(&argv(&["lint", "--fixture"])).unwrap();
        let out = run(&cli).unwrap();
        assert!(out[0].contains("PASS"), "{}", out[0]);
        let cli = Cli::parse(&argv(&["lint", "--deny"])).unwrap();
        let out = run(&cli).expect("workspace lints clean under --deny");
        assert!(out[0].contains("0 diagnostics"), "{}", out[0]);
        let cli = Cli::parse(&argv(&["lint", "--json", "--sarif"])).unwrap();
        assert!(run(&cli).is_err());
    }

    #[test]
    fn unknown_command_and_help() {
        let cli = Cli::parse(&argv(&["bogus"])).unwrap();
        assert!(run(&cli).is_err());
        let cli = Cli::parse(&argv(&["help"])).unwrap();
        assert!(run(&cli).unwrap()[0].contains("USAGE"));
    }

    #[test]
    fn gen_then_fit_then_detect_end_to_end() {
        let dir = tmpdir("e2e");
        // gen
        let cli = Cli::parse(&argv(&[
            "gen",
            "--out",
            dir.to_str().unwrap(),
            "--seed",
            "7",
            "--id",
            "3",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out[0].contains("wrote"));
        // Find the generated file and split it into train/test by its own
        // metadata (exercising the loader path).
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().starts_with("003_"))
            .unwrap()
            .path();
        let ds = ucrgen::loader::load_file(&file).unwrap();
        let train_p = dir.join("train.txt");
        let test_p = dir.join("test.txt");
        let fmt = |s: &[f64]| {
            s.iter()
                .map(|v| format!("{v:.6}"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        std::fs::write(&train_p, fmt(ds.train())).unwrap();
        std::fs::write(&test_p, fmt(ds.test())).unwrap();
        let labels_p = dir.join("labels.txt");
        let labels: Vec<String> = ds
            .test_labels()
            .iter()
            .map(|&b| if b { "1" } else { "0" }.to_string())
            .collect();
        std::fs::write(&labels_p, labels.join("\n")).unwrap();

        // fit
        let model_p = dir.join("model.triad");
        let cli = Cli::parse(&argv(&[
            "fit",
            "--train",
            train_p.to_str().unwrap(),
            "--model",
            model_p.to_str().unwrap(),
            "--epochs",
            "3",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out[0].contains("saved"), "{out:?}");

        // detect from the saved model, with metrics
        let cli = Cli::parse(&argv(&[
            "detect",
            "--test",
            test_p.to_str().unwrap(),
            "--model",
            model_p.to_str().unwrap(),
            "--labels",
            labels_p.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out.iter().any(|l| l.contains("flagged region")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("F1(PW)")), "{out:?}");
        let offline_region = out
            .iter()
            .find(|l| l.contains("flagged region"))
            .unwrap()
            .clone();

        // stream replay of the same test file from the same saved model,
        // with a mid-run checkpoint/restore: the final detection must match
        // the offline `detect` line exactly.
        let cli = Cli::parse(&argv(&[
            "stream",
            "--test",
            test_p.to_str().unwrap(),
            "--model",
            model_p.to_str().unwrap(),
            "--chunk",
            "50",
            "--checkpoint-at",
            "150",
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(
            out.iter()
                .any(|l| l.contains("checkpoint saved + restored at sample 150")),
            "{out:?}"
        );
        assert!(
            out.iter().any(|l| l == &offline_region),
            "streamed region differs from offline detect: {out:?} vs {offline_region}"
        );

        // eval: perfect prediction scores 1.0 everywhere.
        let cli = Cli::parse(&argv(&[
            "eval",
            "--pred",
            labels_p.to_str().unwrap(),
            "--labels",
            labels_p.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(&cli).unwrap();
        assert!(out[0].contains("1.0000"), "{out:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_requires_source() {
        let dir = tmpdir("nosrc");
        let test_p = dir.join("t.txt");
        std::fs::write(&test_p, "1.0\n2.0\n").unwrap();
        let cli = Cli::parse(&argv(&["detect", "--test", test_p.to_str().unwrap()])).unwrap();
        assert!(run(&cli).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
