//! `triad fleet` — the memory-budget soak harness for the fleet tier.
//!
//! Opens many more streams than the byte budget can hold resident, pushes
//! an archive-style workload through all of them round-robin (losslessly —
//! full queues are retried, never shed), and drives a subset into a
//! sustained regime shift so the drift detector schedules at least one
//! background refit. The whole soak is swept over worker-thread counts and
//! writes one `FLEET_soak.json` with residency, throughput, and fleet
//! counters per run.
//!
//! Three gates, checked after the file is written so failures can be
//! inspected:
//!
//! * **bit-identical** — the FNV checksum over every stream's final status
//!   and close-time output must agree across thread counts. Eviction order
//!   is allowed to differ (it depends on poll/push interleaving), but
//!   rehydration is bit-exact, so the gated outputs cannot.
//! * **residency** — the published resident-byte gauge must never exceed
//!   the budget at any sample point.
//! * **refit** — every run must complete at least one drift-triggered
//!   refit (the workload is built so drift genuinely fires).

use obs::now_instant;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use triad_core::{NumericMode, TriAd, TriadConfig};
use triad_fleet::{DriftPolicy, FleetConfig, FleetManager, RefitRequest, Refitter};
use triad_stream::ModelLoader;

/// Thread counts the soak is swept over (a subset of the bench sweep — the
/// fleet soak is wall-clock heavy, and two points prove the contract).
pub const FLEET_THREADS: [usize; 2] = [1, 4];

/// Options parsed from `triad fleet` flags.
pub struct FleetOptions {
    /// CI scale: fewer streams, shorter series, same JSON schema.
    pub smoke: bool,
    /// Where `FLEET_soak.json` lands.
    pub out_dir: PathBuf,
    /// Streams to open (0 = scale default).
    pub streams: usize,
    /// Global resident-engine byte budget (0 = scale default; the soak
    /// always runs *under* budget pressure).
    pub budget_bytes: usize,
    /// Points pushed per stream (0 = scale default).
    pub points: usize,
    /// Numeric kernel mode for every engine the soak fits or rehydrates.
    pub numeric_mode: NumericMode,
}

/// One soak at a fixed thread count.
struct SoakRun {
    threads: usize,
    wall_ms: f64,
    points_per_sec: f64,
    checksum: u64,
    resident_bytes_max: u64,
    evictions: u64,
    rehydrations: u64,
    compacted_files: u64,
    drift_events: u64,
    refits_completed: u64,
    refits_failed: u64,
}

struct SoakReport {
    smoke: bool,
    streams: usize,
    points_per_stream: usize,
    budget_bytes: usize,
    runs: Vec<SoakRun>,
    bit_identical: bool,
    residency_ok: bool,
    refits_ok: bool,
}

impl SoakReport {
    fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "    {{\"threads\": {}, \"wall_ms\": {:.3}, \"points_per_sec\": {:.1}, \
                     \"checksum\": \"{:016x}\", \"resident_bytes_max\": {}, \
                     \"evictions\": {}, \"rehydrations\": {}, \"compacted_files\": {}, \
                     \"drift_events\": {}, \"refits_completed\": {}, \"refits_failed\": {}}}",
                    r.threads,
                    r.wall_ms,
                    r.points_per_sec,
                    r.checksum,
                    r.resident_bytes_max,
                    r.evictions,
                    r.rehydrations,
                    r.compacted_files,
                    r.drift_events,
                    r.refits_completed,
                    r.refits_failed
                )
            })
            .collect();
        format!(
            "{{\n  \"stage\": \"fleet-soak\",\n  \"smoke\": {},\n  \"streams\": {},\n  \
             \"points_per_stream\": {},\n  \"budget_bytes\": {},\n  \"runs\": [\n{}\n  ],\n  \
             \"bit_identical\": {},\n  \"residency_ok\": {},\n  \"refits_ok\": {}\n}}\n",
            self.smoke,
            self.streams,
            self.points_per_stream,
            self.budget_bytes,
            runs.join(",\n"),
            self.bit_identical,
            self.residency_ok,
            self.refits_ok
        )
    }

    fn summary(&self) -> String {
        let max_res = self
            .runs
            .iter()
            .map(|r| r.resident_bytes_max)
            .max()
            .unwrap_or(0);
        let refits: u64 = self.runs.iter().map(|r| r.refits_completed).sum();
        format!(
            "fleet   : {} streams under {} B budget, max residency {} B, {} refits, \
             bit-identical {} → FLEET_soak.json",
            self.streams, self.budget_bytes, max_res, refits, self.bit_identical
        )
    }
}

/// FNV-1a 64-bit (same folding as the perf harness; f64 via `to_bits`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn done(self) -> u64 {
        self.0
    }
}

/// Per-stream workload: the trained regime everywhere (plus a tiny
/// deterministic per-stream jitter so streams stay distinct), with every
/// sixth stream switching to an unseen frequency halfway through —
/// persistent deviance, which is what CUSUM drift accumulates on. The
/// non-drifting streams must genuinely match the training series, or the
/// baseline slack is breached fleet-wide and drift stops being a signal.
fn stream_series(index: usize, points: usize, period: f64) -> Vec<f64> {
    use std::f64::consts::PI;
    let drifts = index % 6 == 0;
    (0..points)
        .map(|i| {
            if drifts && i >= points / 2 {
                (2.0 * PI * i as f64 / 7.0).sin()
            } else {
                (2.0 * PI * i as f64 / period).sin()
                    + 0.3 * (4.0 * PI * i as f64 / period).sin()
                    + 0.02 * (((i * 37 + index * 11) % 97) as f64 / 97.0 - 0.5)
            }
        })
        .collect()
}

/// Refit recipes posted by the refitter, fitted on demand by the loader —
/// the same registry-free plumbing the fleet unit tests use (a
/// `ModelLoader` returns an owned model, so the recipe is what is stored).
type RecipeBook = Arc<Mutex<BTreeMap<String, (TriadConfig, Vec<f64>)>>>;

fn base_cfg(threads: usize, numeric_mode: NumericMode) -> TriadConfig {
    TriadConfig {
        epochs: 1,
        depth: 2,
        hidden: 8,
        batch: 8,
        merlin_step: 8,
        seed: 7,
        threads,
        numeric_mode,
        ..TriadConfig::default()
    }
}

fn soak(
    threads: usize,
    numeric_mode: NumericMode,
    streams: usize,
    points: usize,
    budget: usize,
    store_dir: &PathBuf,
) -> Result<SoakRun, String> {
    use std::f64::consts::PI;
    let period = 32.0;
    let train: Vec<f64> = (0..560)
        .map(|i| (2.0 * PI * i as f64 / period).sin() + 0.3 * (4.0 * PI * i as f64 / period).sin())
        .collect();

    let recipes: RecipeBook = Arc::new(Mutex::new(BTreeMap::new()));
    let loader_book = Arc::clone(&recipes);
    let loader: ModelLoader = Arc::new(move |name: &str| {
        let recipe = loader_book
            .lock()
            .map_err(|_| "recipe lock poisoned".to_string())?
            .get(name)
            .cloned();
        match recipe {
            Some((cfg, series)) => TriAd::new(cfg).fit(&series).map_err(|e| e.to_string()),
            None => TriAd::new(base_cfg(threads, numeric_mode))
                .fit(&train)
                .map_err(|e| e.to_string()),
        }
    });
    let refit_book = Arc::clone(&recipes);
    let refitter: Refitter = Arc::new(move |req: &RefitRequest| {
        refit_book
            .lock()
            .map_err(|_| "recipe lock poisoned".to_string())?
            .insert(
                req.new_model.clone(),
                (req.config.clone(), req.train.clone()),
            );
        Ok(())
    });

    let _ = std::fs::remove_dir_all(store_dir);
    let mgr = FleetManager::new(
        FleetConfig {
            shards: 2,
            queue_capacity: 512,
            store_dir: store_dir.clone(),
            budget_bytes: budget,
            drift: DriftPolicy {
                slack_sigma: 1.0,
                threshold: 0.3,
                min_windows: 2,
                swap_horizon: 2,
                ..DriftPolicy::default()
            },
            ..FleetConfig::default()
        },
        loader,
        Some(refitter),
    )
    .map_err(|e| e.to_string())?;

    let names: Vec<String> = (0..streams).map(|i| format!("soak-{i:04}")).collect();
    let series: Vec<Vec<f64>> = (0..streams)
        .map(|i| stream_series(i, points, period))
        .collect();

    let t0 = now_instant();
    let mut resident_max = 0u64;
    for name in &names {
        mgr.open(name, "m").map_err(|e| e.to_string())?;
    }
    let chunk = 64;
    let mut offset = 0;
    while offset < points {
        let end = (offset + chunk).min(points);
        for (name, data) in names.iter().zip(&series) {
            // Lossless delivery: a full queue is backpressure, not loss.
            let mut queued = false;
            for _ in 0..6000 {
                if mgr
                    .push(name, &data[offset..end])
                    .map_err(|e| e.to_string())?
                    .queued
                {
                    queued = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if !queued {
                return Err(format!("queue for {name} never drained"));
            }
        }
        resident_max = resident_max.max(mgr.fleet_stats().resident_bytes);
        offset = end;
    }
    for name in &names {
        let mut drained = false;
        for _ in 0..6000 {
            let status = mgr.poll(name).map_err(|e| e.to_string())?;
            resident_max = resident_max.max(mgr.fleet_stats().resident_bytes);
            if status.seq >= points as u64 {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !drained {
            return Err(format!("stream {name} never drained"));
        }
    }

    // Checksum the gated outputs in deterministic (name) order: final
    // status, events, and close-time detection or its refusal.
    let mut h = Fnv::new();
    for name in &names {
        let status = mgr.poll(name).map_err(|e| e.to_string())?;
        h.bytes(name.as_bytes());
        h.u64(status.seq);
        h.u64(status.windows_scored as u64);
        h.u64(status.rejected_nonfinite);
        if let Some(d) = status.last_deviance {
            h.f64(d);
        }
        for ev in &status.events {
            h.u64(ev.start);
            h.u64(ev.end.unwrap_or(u64::MAX));
            h.f64(ev.peak_deviance);
        }
        let report = mgr.close(name).map_err(|e| e.to_string())?;
        match (&report.detection, &report.finalize_error) {
            (Some(det), _) => {
                for r in &det.rankings {
                    for &s in &r.scores {
                        h.f64(s);
                    }
                }
                for &b in &det.prediction {
                    h.u64(b as u64);
                }
                h.f64(det.threshold);
            }
            (None, Some(e)) => h.bytes(e.as_bytes()),
            (None, None) => h.bytes(b"no-output"),
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = mgr.fleet_stats();
    resident_max = resident_max.max(stats.resident_bytes);
    drop(mgr);
    let _ = std::fs::remove_dir_all(store_dir);

    let total_points = (streams * points) as f64;
    Ok(SoakRun {
        threads,
        wall_ms,
        points_per_sec: if wall_ms > 0.0 {
            total_points / (wall_ms / 1e3)
        } else {
            0.0
        },
        checksum: h.done(),
        resident_bytes_max: resident_max,
        evictions: stats.evictions,
        rehydrations: stats.rehydrations,
        compacted_files: stats.compacted_files,
        drift_events: stats.drift_events,
        refits_completed: stats.refits_completed,
        refits_failed: stats.refits_failed,
    })
}

/// Run the soak sweep; returns human-readable summary lines. Errors if any
/// gate fails — the JSON is written first so the numbers can be inspected.
pub fn run_fleet(opts: &FleetOptions) -> Result<Vec<String>, String> {
    let streams = if opts.streams > 0 {
        opts.streams
    } else if opts.smoke {
        12
    } else {
        48
    };
    let points = if opts.points > 0 {
        opts.points
    } else if opts.smoke {
        420
    } else {
        1200
    };
    // Default budget: roughly two resident engines' worth per shard, far
    // below `streams` engines — guaranteed eviction pressure.
    let budget = if opts.budget_bytes > 0 {
        opts.budget_bytes
    } else {
        128 * 1024
    };

    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for &t in &FLEET_THREADS {
        let store_dir = opts.out_dir.join(format!("fleet_store_t{t}"));
        runs.push(soak(
            t,
            opts.numeric_mode,
            streams,
            points,
            budget,
            &store_dir,
        )?);
    }

    let bit_identical = runs.windows(2).all(|w| w[0].checksum == w[1].checksum);
    let residency_ok = runs.iter().all(|r| r.resident_bytes_max <= budget as u64);
    let refits_ok = runs
        .iter()
        .all(|r| r.refits_completed >= 1 && r.refits_failed == 0);
    let report = SoakReport {
        smoke: opts.smoke,
        streams,
        points_per_stream: points,
        budget_bytes: budget,
        runs,
        bit_identical,
        residency_ok,
        refits_ok,
    };
    let path = opts.out_dir.join("FLEET_soak.json");
    std::fs::write(&path, report.to_json()).map_err(|e| format!("{path:?}: {e}"))?;

    if !report.bit_identical {
        return Err(format!(
            "fleet soak outputs were NOT bit-identical across thread counts — see {path:?}"
        ));
    }
    if !report.residency_ok {
        return Err(format!(
            "fleet soak exceeded the {budget}-byte residency budget — see {path:?}"
        ));
    }
    if !report.refits_ok {
        return Err(format!(
            "fleet soak completed no drift-triggered refit — see {path:?}"
        ));
    }
    Ok(vec![report.summary()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_writes_schema_complete_file_and_passes_gates() {
        let dir = std::env::temp_dir().join(format!("triad_fleet_bench_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FleetOptions {
            smoke: true,
            out_dir: dir.clone(),
            streams: 6,
            budget_bytes: 96 * 1024,
            points: 380,
            numeric_mode: NumericMode::Exact,
        };
        let lines = run_fleet(&opts).expect("fleet soak");
        assert_eq!(lines.len(), 1);
        let text = std::fs::read_to_string(dir.join("FLEET_soak.json")).unwrap();
        for key in [
            "\"stage\": \"fleet-soak\"",
            "\"streams\"",
            "\"points_per_stream\"",
            "\"budget_bytes\"",
            "\"runs\"",
            "\"threads\"",
            "\"points_per_sec\"",
            "\"checksum\"",
            "\"resident_bytes_max\"",
            "\"evictions\"",
            "\"rehydrations\"",
            "\"drift_events\"",
            "\"refits_completed\"",
            "\"bit_identical\": true",
            "\"residency_ok\": true",
            "\"refits_ok\": true",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
