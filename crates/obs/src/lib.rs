//! Observability substrate: structured tracing, the shared monotonic clock,
//! and the fixed-bucket histogram every other runtime crate re-exports.
//!
//! Design constraints (see DESIGN.md "Observability layer"):
//!
//! * **Zero dependencies.** `obs` sits below `core`, `serve`, `stream` and
//!   `parallel` in the crate graph, so it uses nothing but std. That is
//!   also why it hosts the workspace's one JSON module ([`json`]): the
//!   trace exporters, the serve protocol and the evalbed files all read
//!   and write through it.
//! * **Near-zero disabled path.** Every instrumentation macro-free entry
//!   point ([`span`], [`span_with_parent`], [`record_span`]) starts with a
//!   single relaxed atomic load; when tracing is off nothing else runs — no
//!   allocation, no clock read, no thread-local touch.
//! * **Lock-free hot path when enabled.** Finished spans land in a bounded
//!   per-thread buffer (plain `thread_local!`, no locks, no atomics beyond
//!   the global id/tally counters). The buffer drains into a global
//!   collector only when the thread's span stack empties — a short `Mutex`
//!   push between units of work, never while a span is open. A full buffer
//!   drops new records and counts them ([`spans_dropped`]) rather than
//!   blocking.
//!
//! Tracing toggles via the `TRIAD_TRACE` environment variable (read once,
//! lazily) or programmatically via [`set_enabled`] /
//! `TriadConfig::trace` → [`enable_from_config`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod hist;
pub mod json;
pub mod trace;

pub use clock::{now_instant, now_ns};
pub use export::{
    parse_chrome, parse_jsonl, summarize, to_chrome, to_jsonl, validate, ParsedSpan, StageStats,
    Summary,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use trace::{
    current_span_id, enable_from_config, enabled, flush_thread, record_span, set_enabled, span,
    span_with_parent, spans_dropped, spans_recorded, take_records, SpanGuard, SpanRecord,
};
