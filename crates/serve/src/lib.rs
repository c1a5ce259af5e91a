//! triad-serve: the concurrent model-serving subsystem.
//!
//! Three layers, bottom to top:
//!
//! - [`registry`] — named model slots over `triad-core::persist`: atomic
//!   save/reload of fitted models in a directory and an LRU cache of
//!   deserialized instances, each behind a per-slot mutex.
//! - [`server`] — a `TcpListener` accept loop feeding a thread pool over a
//!   bounded channel; workers speak the [`proto`] line-delimited JSON
//!   protocol (`fit`, `detect`, `list`, `evict`, `stats`, `health`,
//!   `shutdown`) and answer each request on the worker that read it. A
//!   `detect` first takes one of `executors` permits, which caps how many
//!   pipelines run at once; graceful shutdown drains every in-flight
//!   request.
//! - [`metrics`] — lock-free counters/histograms behind the `stats` verb;
//!   the histogram type is shared with `triad-stream` and reports
//!   bucket-derived p50/p95/p99 quantiles.
//!
//! The server also hosts the online streaming layer: `stream.open`,
//! `stream.push`, `stream.poll`, `stream.close`, `stream.checkpoint`, and
//! `stream.list` route to a [`triad_fleet::FleetManager`] whose shard
//! workers load models from the same directory as the registry. Without
//! `fleet_budget_bytes` it runs unbudgeted with drift off (every stream
//! stays resident); its checkpoint store defaults to `<models>/_fleet`.
//! Per-shard streaming counters and the `fleet` section ride along in the
//! `stats` verb in both configurations.
//!
//! [`client`] is the matching blocking client used by `triad client` and the
//! integration tests. The protocol's JSON is [`obs::json`], re-exported here
//! as [`json`] and [`Value`]; its deterministic output makes bit-for-bit
//! response comparison valid.

#![forbid(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;

pub use client::Client;
pub use metrics::{Histogram, HistogramSnapshot, Metrics};
pub use obs::json;
pub use obs::json::Value;
pub use registry::{ModelInfo, ModelRegistry};
pub use server::{start, ServeConfig, ServerHandle};
