//! The repository benchmark: an outside-in harness over the workspace
//! crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <archive-exact|serve-mixed|fleet-evict> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit and sample count, the run's
//! operation counts and noise record, then one JSON result line. With
//! `--trace 0` the metrics are the end-to-end set of `BENCHMARK.json`; with
//! `--trace 1` the per-layer set. See README.md for the workloads.

mod archive;
mod data;
mod decompose;
mod fleet_evict;
mod layers;
mod noise;
mod phase;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// Hard cap on a timed phase that is still short of its minimum sample
    /// count when `seconds` have passed.
    pub fn cap(&self) -> Duration {
        self.seconds * 3
    }
}

const WORKLOADS: [&str; 3] = ["archive-exact", "serve-mixed", "fleet-evict"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = triad_serve::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).map(str::to_string);
            Ok((
                field("name").ok_or("metric without a name")?,
                field("unit").ok_or("metric without a unit")?,
            ))
        })
        .collect()
}

/// The report must carry exactly the declared metrics, in finite values.
fn conforms(rep: &Report, trace: bool) -> Result<(), String> {
    let want = declared(if trace { "per_layer" } else { "end_to_end" })?;
    for (name, unit) in &want {
        let m = rep
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!(
                "metric {name}: unit {} but BENCHMARK.json says {unit}",
                m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
    }
    if let Some(extra) = rep
        .metrics
        .iter()
        .find(|m| !want.iter().any(|(n, _)| n == m.name))
    {
        return Err(format!(
            "metric {} is not declared in BENCHMARK.json",
            extra.name
        ));
    }
    Ok(())
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<(Report, noise::NoiseRecord), String> {
    // Tracing is decided here, never by the environment.
    obs::set_enabled(false);
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{work:?}: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.clone(),
    };
    let probe = noise::NoiseProbe::start();
    let result = match args.workload.as_str() {
        "archive-exact" => archive::run(&ctx),
        "serve-mixed" => serve_mixed::run(&ctx),
        _ => fleet_evict::run(&ctx),
    };
    let noise = probe.finish();
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Removes the shared parent only once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let rep = result?;
    conforms(&rep, args.trace)?;
    Ok((rep, noise))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((rep, noise)) => {
            print!(
                "{}",
                rep.table(&args.workload, args.seed, args.trace, &noise)
            );
            println!("{}", rep.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
