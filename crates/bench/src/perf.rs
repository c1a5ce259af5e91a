//! `triad bench` — the determinism gate over the hot-path workloads.
//!
//! Runs each fixed-seed workload (train, detect, stream, discord) at every
//! thread count in [`THREAD_COUNTS`], and each mode-dependent one in both
//! numeric modes, then writes one `BENCH.json`: one row per (stage, mode,
//! threads) run with an FNV-1a checksum of the stage's outputs and one
//! informational `wall_ms`, plus the core count. The parallel runtime's
//! contract is that the thread count never changes a bit, so the verb fails
//! if any (stage, mode) pair's checksums differ — after writing the file,
//! so the divergence can be inspected. `tests/parallel_determinism.rs`
//! proves the same property over every archive anomaly kind.
//!
//! Timing is not this harness's job: `perfbench/` (declared in
//! `BENCHMARK.json`) measures wall time with repetitions and noise records.
//! `--smoke` shrinks every workload to CI scale with the same file shape.

use obs::json::Value;
use obs::now_instant;
use std::path::PathBuf;

use crate::{elapsed_ms, make_series, Fnv};
use discord::fast::merlin_fast;
use discord::merlin::{merlin, MerlinConfig};
use triad_core::{persist, NumericMode, TriAd, TriadConfig, TriadDetection};
use triad_stream::{StreamConfig, StreamEngine};

/// Worker-thread counts every stage runs at: serial, and the parallel
/// count the fleet soak, evalbed and CI lanes use.
pub const THREAD_COUNTS: [usize; 2] = [1, 4];

/// Options parsed from `triad bench` flags.
pub struct BenchOptions {
    /// CI scale: tiny workloads, same file shape.
    pub smoke: bool,
    /// Where `BENCH.json` lands.
    pub out_dir: PathBuf,
}

/// One (stage, mode, threads) run. `mode` is `None` for train, which never
/// runs the discord kernels the mode selects.
struct Row {
    stage: &'static str,
    mode: Option<NumericMode>,
    threads: usize,
    checksum: u64,
    wall_ms: f64,
}

impl Row {
    fn label(&self) -> String {
        match self.mode {
            Some(mode) => format!("{}/{mode}", self.stage),
            None => self.stage.to_string(),
        }
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("stage", self.stage.into()),
            ("mode", self.mode.map_or(Value::Null, |m| m.as_str().into())),
            ("threads", self.threads.into()),
            ("checksum", format!("{:016x}", self.checksum).into()),
            ("wall_ms", self.wall_ms.into()),
        ])
    }
}

/// A prepared stage: maps a thread count to the checksum of its outputs.
type Run = Box<dyn FnMut(usize) -> Result<u64, String>>;

fn hash_detection(h: &mut Fnv, det: &TriadDetection) {
    for &v in &det.votes {
        h.f64(v);
    }
    for &b in &det.prediction {
        h.u64(b as u64);
    }
    h.f64(det.threshold);
    h.usize(det.selected_window.start);
    h.usize(det.selected_window.end);
    h.usize(det.search_region.start);
    h.usize(det.search_region.end);
    for c in &det.candidates {
        h.usize(c.start);
        h.usize(c.end);
    }
    for r in &det.rankings {
        for &s in &r.scores {
            h.f64(s);
        }
    }
    for d in &det.discords {
        h.usize(d.index);
        h.usize(d.length);
        h.f64(d.distance);
    }
    h.u64(det.used_fallback as u64);
}

/// Train: full `fit` of n=1536 (smoke 512) at period 32 with sharded
/// gradient accumulation (`grad_shards = 4`), checksummed over the
/// persisted TRIAD2 bytes plus the per-epoch loss curve.
fn stage_train(smoke: bool) -> Run {
    let (n_train, period) = if smoke { (512, 32) } else { (1536, 32) };
    let (train, _) = make_series(n_train, 0, period);
    let cfg = TriadConfig {
        epochs: if smoke { 1 } else { 2 },
        depth: if smoke { 2 } else { 3 },
        hidden: if smoke { 8 } else { 16 },
        batch: 8,
        grad_shards: 4,
        seed: 7,
        ..TriadConfig::default()
    };
    Box::new(move |t| {
        let mut c = cfg.clone();
        c.threads = t;
        let fitted = TriAd::new(c).fit(&train)?;
        let mut bytes = Vec::new();
        persist::save(&mut bytes, &fitted).map_err(|e| e.to_string())?;
        let mut h = Fnv::new();
        h.bytes(&bytes);
        for &l in &fitted.report().epoch_losses {
            h.f64(l);
        }
        Ok(h.done())
    })
}

/// The detect and stream stages share one workload: fit n=1024 (smoke 512)
/// once, serially, then score a test split of n=4096 (smoke 512).
fn fit_for_scoring(
    smoke: bool,
    epochs: usize,
    mode: NumericMode,
) -> Result<(triad_core::FittedTriad, Vec<f64>), String> {
    let (n_train, n_test, period) = if smoke {
        (512, 512, 32)
    } else {
        (1024, 4096, 32)
    };
    let (train, test) = make_series(n_train, n_test, period);
    let cfg = TriadConfig {
        epochs,
        depth: if smoke { 2 } else { 3 },
        hidden: if smoke { 8 } else { 24 },
        batch: 8,
        merlin_step: if smoke { 8 } else { 2 },
        seed: 7,
        numeric_mode: mode,
        ..TriadConfig::default()
    };
    Ok((TriAd::new(cfg).fit(&train)?, test))
}

/// Detect: the full inference pipeline (embedding, ranking, selection,
/// MERLIN, voting) over the test split.
fn stage_detect(smoke: bool, mode: NumericMode) -> Result<Run, String> {
    let (mut fitted, test) = fit_for_scoring(smoke, if smoke { 1 } else { 2 }, mode)?;
    Ok(Box::new(move |t| {
        fitted.set_threads(t);
        let mut h = Fnv::new();
        hash_detection(&mut h, &fitted.detect(&test));
        Ok(h.done())
    }))
}

/// Stream: sample-at-a-time replay of the test split through the
/// incremental engine, then the offline-equivalent `finalize`.
fn stage_stream(smoke: bool, mode: NumericMode) -> Result<Run, String> {
    let (mut fitted, test) = fit_for_scoring(smoke, 1, mode)?;
    let scfg = StreamConfig {
        capacity: test.len() + 1,
        ..StreamConfig::default()
    };
    Ok(Box::new(move |t| {
        fitted.set_threads(t);
        let mut engine = StreamEngine::new(&fitted, scfg.clone());
        for &x in &test {
            let _ = engine.push(&fitted, x);
        }
        let status = engine.status();
        let mut h = Fnv::new();
        h.u64(status.seq);
        h.usize(status.windows_scored);
        for ev in &status.events {
            h.u64(ev.start);
            h.u64(ev.end.unwrap_or(u64::MAX));
            h.f64(ev.peak_deviance);
        }
        let det = engine.finalize(&fitted).map_err(|e| e.to_string())?;
        hash_detection(&mut h, &det);
        Ok(h.done())
    }))
}

/// Discord: the MERLIN length sweep alone over n=1200 (smoke 300),
/// lengths 8..=96 step 1 (smoke 8..=32 step 4) — the DRAG ladder in exact
/// mode, the MASS self-join kernels in fast mode.
fn stage_discord(smoke: bool, mode: NumericMode) -> Run {
    let (n, min_len, max_len, step) = if smoke {
        (300, 8, 32, 4)
    } else {
        (1200, 8, 96, 1)
    };
    let (series, _) = make_series(n, 0, 25);
    let mcfg = MerlinConfig::new(min_len, max_len).with_step(step);
    Box::new(move |t| {
        let found = parallel::with_ambient(t, || match mode {
            NumericMode::Exact => merlin(&series, mcfg),
            NumericMode::Fast => merlin_fast(&series, mcfg),
        });
        let mut h = Fnv::new();
        for d in &found {
            h.usize(d.index);
            h.usize(d.length);
            h.f64(d.distance);
        }
        Ok(h.done())
    })
}

/// Every (stage, mode) pair must hash identically at every thread count.
/// The error names each pair that does not.
fn gate(rows: &[Row]) -> Result<(), String> {
    let broken: Vec<String> = rows
        .iter()
        .filter_map(|row| {
            let first = rows
                .iter()
                .find(|r| r.stage == row.stage && r.mode == row.mode)?;
            (row.checksum != first.checksum).then(|| {
                format!(
                    "{}: {:016x} at {} threads vs {:016x} at {} threads",
                    row.label(),
                    first.checksum,
                    first.threads,
                    row.checksum,
                    row.threads
                )
            })
        })
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "outputs differ across thread counts: {}",
            broken.join("; ")
        ))
    }
}

/// Run every stage, write `BENCH.json`, and return one summary line per
/// (stage, mode). Errors if any pair's checksums differ across thread
/// counts; the file is written first.
pub fn run_bench(opts: &BenchOptions) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let modes = [NumericMode::Exact, NumericMode::Fast];
    let mut stages: Vec<(&'static str, Option<NumericMode>, Run)> =
        vec![("train", None, stage_train(opts.smoke))];
    for mode in modes {
        stages.push(("detect", Some(mode), stage_detect(opts.smoke, mode)?));
    }
    for mode in modes {
        stages.push(("stream", Some(mode), stage_stream(opts.smoke, mode)?));
    }
    for mode in modes {
        stages.push(("discord", Some(mode), stage_discord(opts.smoke, mode)));
    }

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (stage, mode, mut run) in stages {
        let mut line = String::new();
        for threads in THREAD_COUNTS {
            let t0 = now_instant();
            let checksum = run(threads)?;
            let wall_ms = elapsed_ms(t0);
            line += &format!(" {threads}t {wall_ms:9.1} ms {checksum:016x}");
            rows.push(Row {
                stage,
                mode,
                threads,
                checksum,
                wall_ms,
            });
        }
        let label = rows.last().map(Row::label).unwrap_or_default();
        out.push(format!("{label:13}:{line}"));
    }

    let verdict = gate(&rows);
    let doc = Value::obj(vec![
        ("smoke", opts.smoke.into()),
        ("cores", parallel::cores().into()),
        ("bit_identical", verdict.is_ok().into()),
        ("rows", Value::Arr(rows.iter().map(Row::to_json).collect())),
    ]);
    let path = opts.out_dir.join("BENCH.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{path:?}: {e}"))?;
    verdict.map_err(|e| format!("{e} — see {path:?}"))?;
    out.push(format!(
        "bit-identical at threads {THREAD_COUNTS:?} → {}",
        path.display()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(stage: &'static str, mode: Option<NumericMode>, threads: usize, checksum: u64) -> Row {
        Row {
            stage,
            mode,
            threads,
            checksum,
            wall_ms: 1.0,
        }
    }

    #[test]
    fn gate_names_the_stage_and_mode_whose_checksums_differ() {
        let fast = Some(NumericMode::Fast);
        let exact = Some(NumericMode::Exact);
        let mut rows = vec![
            row("train", None, 1, 7),
            row("train", None, 4, 7),
            row("detect", exact, 1, 1),
            row("detect", exact, 4, 1),
            // The modes legitimately hash differently; only threads may not.
            row("detect", fast, 1, 2),
            row("detect", fast, 4, 2),
        ];
        assert_eq!(gate(&rows), Ok(()));
        rows[5].checksum = 3;
        let err = gate(&rows).expect_err("diverging checksums must fail");
        assert!(err.contains("detect/fast"), "{err}");
        assert!(
            !err.contains("detect/exact") && !err.contains("train"),
            "{err}"
        );
        rows[1].checksum = 8;
        let err = gate(&rows).expect_err("diverging checksums must fail");
        assert!(
            err.contains("train:") && err.contains("detect/fast"),
            "{err}"
        );
    }

    #[test]
    fn smoke_bench_writes_one_schema_complete_file() {
        let dir = std::env::temp_dir().join(format!("triad_bench_{}", std::process::id()));
        let opts = BenchOptions {
            smoke: true,
            out_dir: dir.clone(),
        };
        let lines = run_bench(&opts).expect("smoke bench");
        assert_eq!(lines.len(), 8, "{lines:?}");
        let text = std::fs::read_to_string(dir.join("BENCH.json")).expect("BENCH.json");
        let doc = obs::json::parse(&text).expect("BENCH.json is JSON");
        assert_eq!(doc.get("smoke").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("bit_identical").and_then(Value::as_bool),
            Some(true)
        );
        assert!(doc
            .get("cores")
            .and_then(Value::as_u64)
            .is_some_and(|c| c >= 1));
        let rows = doc.get("rows").and_then(Value::as_arr).expect("rows");
        assert_eq!(rows.len(), 7 * THREAD_COUNTS.len());
        let mut pairs = Vec::new();
        for r in rows {
            let stage = r.get("stage").and_then(Value::as_str).expect("stage");
            let mode = r.get("mode").expect("mode");
            assert_eq!(stage == "train", *mode == Value::Null, "{r}");
            assert!(r.get("threads").and_then(Value::as_u64).is_some(), "{r}");
            assert!(r.get("wall_ms").and_then(Value::as_f64).is_some(), "{r}");
            let sum = r.get("checksum").and_then(Value::as_str).expect("checksum");
            assert_eq!(sum.len(), 16, "{r}");
            pairs.push(format!("{stage}/{}", mode.as_str().unwrap_or("-")));
        }
        pairs.dedup();
        assert_eq!(
            pairs,
            [
                "train/-",
                "detect/exact",
                "detect/fast",
                "stream/exact",
                "stream/fast",
                "discord/exact",
                "discord/fast"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
