//! The per-run noise record: machine size, CPU steal over the run, and a
//! fixed loop that never touches the program, timed before and after the
//! workload. Reported beside the metrics and never used to scale them, so
//! a contended host can be told apart from a regression.

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct NoiseRecord {
    pub nproc: usize,
    /// `/proc/stat` steal jiffies accrued during the run (`None` where the
    /// file is unreadable).
    pub steal_jiffies: Option<u64>,
    pub loop_before_ms: f64,
    pub loop_after_ms: f64,
}

pub struct NoiseProbe {
    steal_before: Option<u64>,
    loop_before_ms: f64,
}

/// Aggregate steal time of all CPUs, in jiffies.
fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Median wall time of five runs of a fixed xorshift loop (~10 ms each).
fn fixed_loop_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..black_box(20_000_000u64) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

impl NoiseProbe {
    pub fn start() -> NoiseProbe {
        NoiseProbe {
            steal_before: steal_jiffies(),
            loop_before_ms: fixed_loop_ms(),
        }
    }

    pub fn finish(self) -> NoiseRecord {
        let loop_after_ms = fixed_loop_ms();
        let steal_jiffies = match (self.steal_before, steal_jiffies()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        NoiseRecord {
            nproc: crate::data::nproc(),
            steal_jiffies,
            loop_before_ms: self.loop_before_ms,
            loop_after_ms,
        }
    }
}

impl fmt::Display for NoiseRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let steal = self
            .steal_jiffies
            .map_or("n/a".to_string(), |s| s.to_string());
        write!(
            f,
            "noise: nproc {}  steal {} jiffies  fixed loop {:.3} ms before, {:.3} ms after",
            self.nproc, steal, self.loop_before_ms, self.loop_after_ms
        )
    }
}
