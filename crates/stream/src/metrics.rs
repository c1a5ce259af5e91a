//! Lock-free per-shard observability.
//!
//! Same discipline as `triad-serve`'s metrics: every hot-path update is one
//! relaxed atomic op, snapshots tolerate torn reads. The histogram used for
//! score latency lives in `obs` ([`obs::Histogram`]) — one shared
//! implementation for the whole workspace — and is re-exported here (and by
//! `triad-serve`) so existing callers and the `stats` verb keep their exact
//! shape.

use std::sync::atomic::{AtomicU64, Ordering};

pub use obs::{Histogram, HistogramSnapshot};

/// Per-shard counters for the fleet manager's shard workers.
pub struct ShardMetrics {
    /// Points accepted onto the ingest queue.
    pub ingested: AtomicU64,
    /// Points rejected because the bounded ingest queue was full
    /// (backpressure — the explicit drop account).
    pub dropped_backpressure: AtomicU64,
    /// Points rejected by the engine as NaN/Inf.
    pub dropped_nonfinite: AtomicU64,
    /// Windows embedded + scored.
    pub windows_scored: AtomicU64,
    /// Hysteresis events opened.
    pub events_opened: AtomicU64,
    /// Checkpoints written.
    pub checkpoints_written: AtomicU64,
    /// Streams skipped by a checkpoint sweep because their state stamp was
    /// unchanged since the last save (the on-disk file is already current).
    pub checkpoints_skipped_clean: AtomicU64,
    /// Checkpoint restores that failed CRC/format validation.
    pub checkpoint_failures: AtomicU64,
    /// Streams currently open on this shard.
    pub open_streams: AtomicU64,
    /// Per-window scoring latency, µs.
    pub score_latency_us: Histogram,
}

impl ShardMetrics {
    pub fn new() -> Self {
        ShardMetrics {
            ingested: AtomicU64::new(0),
            dropped_backpressure: AtomicU64::new(0),
            dropped_nonfinite: AtomicU64::new(0),
            windows_scored: AtomicU64::new(0),
            events_opened: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoints_skipped_clean: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            open_streams: AtomicU64::new(0),
            score_latency_us: Histogram::new(&[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]),
        }
    }

    /// Add `n` to a counter (relaxed; monotone tally).
    pub fn add(counter: &AtomicU64, n: u64) {
        // relaxed-ok: counters are independent monotone tallies; nothing is
        // published through them, so no ordering is needed.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter (relaxed; monitoring only).
    pub fn get(counter: &AtomicU64) -> u64 {
        // relaxed-ok: monitoring read; a stale value is acceptable.
        counter.load(Ordering::Relaxed)
    }

    /// Set a gauge-style counter to an absolute value.
    pub fn set(counter: &AtomicU64, v: u64) {
        // relaxed-ok: gauge store read only by monitoring snapshots.
        counter.store(v, Ordering::Relaxed);
    }
}

impl Default for ShardMetrics {
    fn default() -> Self {
        ShardMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_counters() {
        let m = ShardMetrics::new();
        ShardMetrics::add(&m.ingested, 10);
        ShardMetrics::add(&m.ingested, 5);
        ShardMetrics::set(&m.open_streams, 3);
        assert_eq!(ShardMetrics::get(&m.ingested), 15);
        assert_eq!(ShardMetrics::get(&m.open_streams), 3);
        m.score_latency_us.observe(42);
        assert_eq!(m.score_latency_us.count(), 1);
    }

    #[test]
    fn histogram_reexport_is_the_obs_type() {
        // The dedupe contract: serve/stream histograms ARE obs histograms.
        let h: obs::Histogram = Histogram::new(&[10]);
        h.observe(4);
        assert_eq!(h.count(), 1);
    }
}
