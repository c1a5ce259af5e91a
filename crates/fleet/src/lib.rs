//! # triad-fleet — the stream runtime
//!
//! [`FleetManager`] hosts every online stream in the workspace: engines
//! from `triad_stream` hash to worker shards with bounded ingest queues,
//! and each shard tiers its engines' state under a memory budget. A budget
//! of 0 with drift disabled is the plain "every stream stays resident"
//! configuration the serve tier runs by default.
//!
//! * [`budget`] — a per-shard byte ledger over
//!   `StreamEngine::estimated_bytes` with logical-clock LRU ordering. When
//!   a shard exceeds its slice of the global budget, its least-recently
//!   touched idle engines are **evicted**: serialized to a TRIADS1
//!   checkpoint and dropped from RAM.
//! * [`store`] — a directory-backed [`CheckpointStore`] with
//!   generation-numbered files, atomic tmp+rename writes, compaction of
//!   superseded generations, orphan GC on startup, and torn/stale-file
//!   recovery under the same CRC discipline as the model format.
//! * Rehydration is **transparent and bit-identical**: the next `push` or
//!   `poll` on an evicted stream reloads the latest intact generation and
//!   continues exactly where the resident engine would have — scores,
//!   hysteresis events, and `finalize` cannot tell whether a stream was
//!   ever evicted.
//! * [`drift`] — a CUSUM-style, O(1)-per-window [`DriftDetector`] compares
//!   each stream's online deviance against the *training* deviance
//!   distribution of its model (mean + k·σ slack), with hysteresis
//!   enter/exit so a borderline stream does not flap. A drift entry
//!   schedules a background **refit** through a caller-supplied
//!   [`Refitter`] (the serve tier wires this to its `ModelRegistry`), and
//!   the refreshed model is swapped in at a deterministic window boundary
//!   of the stream — never mid-batch, never reordering in-flight scores.
//! * [`manager`] — the [`FleetManager`] itself: FNV-sharded worker threads
//!   with bounded queues and explicit backpressure accounting, serving
//!   `open`, `push`, `poll`, `close`, `checkpoint` and `streams`, and
//!   re-adopting every durable stream from the store on restart.
//!
//! Determinism: eviction order uses logical touch ticks (never wall
//! clock), byte estimates derive from collection lengths only, the drift
//! statistic is a pure fold over scored deviances, and refit swaps happen
//! at a window index fixed when drift was detected. Gated outputs are
//! byte-identical at any thread count; see DESIGN.md "Fleet tier".

#![forbid(unsafe_code)]

pub mod budget;
pub mod drift;
pub mod manager;
pub mod store;

pub use budget::BudgetLedger;
pub use drift::{DriftBaseline, DriftDetector, DriftPolicy, DriftSignal};
pub use manager::{
    CloseReport, FleetConfig, FleetManager, FleetStats, PushTicket, RefitRequest, Refitter,
};
pub use store::CheckpointStore;
