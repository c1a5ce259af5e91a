//! Lock-free observability: atomic counters and histograms.
//!
//! Every hot-path update is a single relaxed `AtomicU64` op — no locks, no
//! allocation — so instrumentation never serializes the worker pool. The
//! `stats` verb snapshots everything into JSON; [`Metrics::render_text`]
//! produces the plain-text dump.
//!
//! The histogram type is [`obs::Histogram`] (one shared implementation for
//! the whole workspace; the streaming layer's per-shard metrics use the
//! same type), which derives p50/p95/p99 estimates from its bucket counts;
//! both the JSON snapshot and the text exposition include those quantiles
//! alongside the raw buckets. The snapshot also surfaces the tracing
//! subsystem's span/drop tallies so a production `stats` call shows whether
//! (and how completely) tracing is recording.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub use obs::{Histogram, HistogramSnapshot};

/// JSON snapshot of one histogram: raw buckets (`le_*` / `inf`), count,
/// sum, mean, and bucket-derived p50/p95/p99.
pub fn histogram_json(h: &Histogram) -> Value {
    let s = h.snapshot();
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(s.counts.len() + 6);
    for (i, &c) in s.counts.iter().enumerate() {
        let label = if i < s.bounds.len() {
            format!("le_{}", s.bounds[i])
        } else {
            "inf".to_string()
        };
        fields.push((label, Value::Num(c as f64)));
    }
    fields.push(("count".into(), Value::Num(s.total as f64)));
    fields.push(("sum".into(), Value::Num(s.sum as f64)));
    fields.push(("mean".into(), Value::Num(s.mean())));
    fields.push(("p50".into(), Value::Num(s.quantile(0.50))));
    fields.push(("p95".into(), Value::Num(s.quantile(0.95))));
    fields.push(("p99".into(), Value::Num(s.quantile(0.99))));
    Value::Obj(fields)
}

/// Text exposition of one histogram: `_count`/`_sum`, cumulative-style
/// buckets, and `_p50`/`_p95`/`_p99` gauges.
pub fn render_histogram(h: &Histogram, name: &str, unit: &str, out: &mut String) {
    use std::fmt::Write;
    let s = h.snapshot();
    let _ = writeln!(
        out,
        "{name}_count {count}\n{name}_sum{unit} {sum}",
        count = s.total,
        sum = s.sum,
    );
    for (i, &c) in s.counts.iter().enumerate() {
        let bound = if i < s.bounds.len() {
            format!("{}", s.bounds[i])
        } else {
            "+inf".to_string()
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {c}");
    }
    for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let _ = writeln!(out, "{name}_{label}{unit} {}", s.quantile(q));
    }
}

macro_rules! metrics_struct {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// All serving counters; one instance shared by every layer.
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Detect end-to-end latency (permit wait + pipeline), µs.
            pub detect_latency_us: Histogram,
            /// Time a detect request waited for an executor permit, µs.
            pub queue_wait_us: Histogram,
            /// Fit latency, ms.
            pub fit_latency_ms: Histogram,
            started: Instant,
        }

        impl Metrics {
            pub fn new() -> Self {
                Metrics {
                    $($name: AtomicU64::new(0),)*
                    detect_latency_us: Histogram::new(&[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]),
                    queue_wait_us: Histogram::new(&[100, 1_000, 10_000, 100_000, 1_000_000]),
                    fit_latency_ms: Histogram::new(&[10, 100, 1_000, 10_000, 60_000]),
                    started: obs::now_instant(),
                }
            }

            /// Counter snapshot as JSON (the `stats` verb payload).
            pub fn to_json(&self) -> Value {
                let mut fields: Vec<(String, Value)> = vec![
                    $( (stringify!($name).to_string(),
                        // relaxed-ok: stats snapshot of independent counters.
                        Value::Num(self.$name.load(Ordering::Relaxed) as f64)), )*
                ];
                fields.push(("uptime_ms".into(),
                    Value::Num(self.started.elapsed().as_millis() as f64)));
                fields.push(("trace_enabled".into(), Value::Bool(obs::enabled())));
                fields.push(("trace_spans_recorded".into(),
                    Value::Num(obs::spans_recorded() as f64)));
                fields.push(("trace_spans_dropped".into(),
                    Value::Num(obs::spans_dropped() as f64)));
                for (name, h) in [
                    ("detect_latency_us", &self.detect_latency_us),
                    ("queue_wait_us", &self.queue_wait_us),
                    ("fit_latency_ms", &self.fit_latency_ms),
                ] {
                    fields.push((name.to_string(), histogram_json(h)));
                }
                Value::Obj(fields)
            }

            /// Plain-text dump (Prometheus-flavoured exposition format).
            pub fn render_text(&self) -> String {
                use std::fmt::Write;
                let mut out = String::new();
                $(
                    let _ = writeln!(
                        out,
                        "triad_{} {}",
                        stringify!($name),
                        // relaxed-ok: exposition snapshot of one counter.
                        self.$name.load(Ordering::Relaxed)
                    );
                )*
                let _ = writeln!(out, "triad_uptime_ms {}", self.started.elapsed().as_millis());
                let _ = writeln!(out, "triad_trace_enabled {}", obs::enabled() as u64);
                let _ = writeln!(out, "triad_trace_spans_recorded {}", obs::spans_recorded());
                let _ = writeln!(out, "triad_trace_spans_dropped {}", obs::spans_dropped());
                render_histogram(&self.detect_latency_us, "triad_detect_latency_us", "_us", &mut out);
                render_histogram(&self.queue_wait_us, "triad_queue_wait_us", "_us", &mut out);
                render_histogram(&self.fit_latency_ms, "triad_fit_latency_ms", "_ms", &mut out);
                out
            }
        }
    };
}

metrics_struct! {
    /// Accepted TCP connections.
    connections_total,
    /// Requests parsed off the wire (all verbs).
    requests_total,
    /// Responses written back (success or error).
    responses_total,
    /// Requests answered with `ok:false`.
    errors_total,
    /// `fit` requests served.
    fit_total,
    /// `detect` requests served.
    detect_total,
    /// `list` requests served.
    list_total,
    /// `evict` requests served.
    evict_total,
    /// `stats` requests served.
    stats_total,
    /// `health` requests served.
    health_total,
    /// `shutdown` requests served.
    shutdown_total,
    /// `stream.*` requests served (all stream verbs combined).
    stream_total,
    /// Detect answered from an already-deserialized model slot.
    cache_hits,
    /// Detect that had to deserialize the model from disk first.
    cache_misses,
    /// Deserialized models dropped by LRU pressure or `evict`.
    cache_evictions,
    /// Detect requests that timed out waiting for an executor permit.
    timeouts_total,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Convenience: relaxed increment.
pub fn inc(counter: &AtomicU64) {
    // relaxed-ok: counters are independent monotone tallies; nothing is
    // published through them, so no ordering is needed.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Convenience: relaxed read.
pub fn get(counter: &AtomicU64) -> u64 {
    // relaxed-ok: monitoring read; a stale value is acceptable.
    counter.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 99, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - (5 + 10 + 11 + 99 + 5000) as f64 / 5.0).abs() < 1e-9);
        let j = histogram_json(&h);
        assert_eq!(j.get("le_10").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("le_100").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("le_1000").unwrap().as_u64(), Some(0));
        assert_eq!(j.get("inf").unwrap().as_u64(), Some(1));
        // Quantiles ride along: p50 falls in the (10, 100] bucket.
        let p50 = j.get("p50").unwrap().as_f64().unwrap();
        assert!(p50 > 10.0 && p50 <= 100.0, "p50 {p50}");
        // Overflow bucket reports the last finite bound.
        assert_eq!(j.get("p99").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn metrics_snapshot_and_text() {
        let m = Metrics::new();
        inc(&m.requests_total);
        inc(&m.requests_total);
        inc(&m.cache_hits);
        m.queue_wait_us.observe(300);
        let j = m.to_json();
        assert_eq!(j.get("requests_total").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("cache_hits").unwrap().as_u64(), Some(1));
        assert!(j.get("uptime_ms").unwrap().as_f64().unwrap() >= 0.0);
        assert!(j.get("queue_wait_us").unwrap().get("p95").is_some());
        let text = m.render_text();
        assert!(text.contains("triad_requests_total 2"), "{text}");
        assert!(
            text.contains("triad_queue_wait_us_bucket{le=\"1000\"} 1"),
            "{text}"
        );
        assert!(text.contains("triad_queue_wait_us_p99_us"), "{text}");
        assert!(text.contains("triad_detect_latency_us_p50_us"), "{text}");
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        inc(&m.detect_total);
                        m.detect_latency_us.observe(42);
                    }
                });
            }
        });
        assert_eq!(get(&m.detect_total), 8000);
        assert_eq!(m.detect_latency_us.count(), 8000);
    }
}
