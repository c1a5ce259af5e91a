//! # triad-stream — incremental online detection for TriAD
//!
//! The batch pipeline (`triad_core::detect`) needs the whole test series up
//! front. This crate scores points *as they arrive*:
//!
//! * [`ring`] — fixed-capacity ring buffer with absolute sequence numbers;
//!   memory is bounded no matter how long the stream runs.
//! * [`engine`] — the per-stream [`StreamEngine`]: maintains the tri-domain
//!   view incrementally (rolling mean/variance for the temporal view, a
//!   sliding DFT keeping selected frequency bins current in O(k) per point,
//!   per-phase running means for the residual view), embeds each completed
//!   stride with the trained encoders through
//!   [`triad_core::OnlineRanker`], and emits anomaly [`StreamEvent`]s with
//!   enter/exit hysteresis instead of per-point flapping. Closing a stream
//!   with [`StreamEngine::finalize`] reproduces the offline
//!   `core::detect` result *bit-exactly* when the full history is retained.
//! * [`checkpoint`] — persist/restore per-stream state in the hardened
//!   TRIAD2 style (magic, bounded lengths, CRC-32 trailer) so a restarted
//!   server resumes mid-stream bit-identically.
//! * [`metrics`] — per-shard atomic counters ([`ShardMetrics`]) plus a
//!   fixed-bucket [`Histogram`] with bucket-derived quantile estimates
//!   (p50/p95/p99).
//!
//! This crate owns one stream at a time. Hosting many — hash-sharded worker
//! threads with bounded ingest queues, a per-shard model cache fed by a
//! [`ModelLoader`], durable checkpoints and restart — is the job of
//! `triad_fleet::FleetManager`, the one multi-stream runtime.
//!
//! The stride policy (paper Sec. IV-A2: stride = L/4, overlapping) is kept
//! for online scoring so the offline and online window sets coincide; see
//! DESIGN.md "Streaming layer" for the overlap-vs-disjoint trade-off.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod engine;
pub mod metrics;
pub mod ring;

pub use engine::{
    LiveView, PushOutcome, StreamConfig, StreamEngine, StreamEvent, StreamStatus, WindowScore,
};
pub use metrics::{Histogram, HistogramSnapshot, ShardMetrics};
pub use ring::RingBuffer;

use std::fmt;
use std::sync::Arc;
use triad_core::{FittedTriad, PersistError};

/// Builds a fitted model by name. Must be cheap to clone and callable from
/// any thread; each call returns an owned `FittedTriad` (which is
/// `Send + Sync`), and the fleet shard that asked for it caches it.
pub type ModelLoader = Arc<dyn Fn(&str) -> Result<FittedTriad, String> + Send + Sync>;

/// Failure surface of the streaming layer.
#[derive(Debug)]
pub enum StreamError {
    /// A pushed sample was NaN/Inf; the point was rejected, the stream
    /// stays usable.
    NonFinite { seq: u64 },
    /// `finalize` was called on an empty stream.
    Empty,
    /// `finalize` needs the full history, but `dropped` oldest points were
    /// evicted from the ring; only hysteresis events are available.
    HistoryDropped { dropped: u64 },
    /// Checkpoint serialization/deserialization failed (I/O, truncation,
    /// CRC mismatch — see the wrapped [`PersistError`]).
    Checkpoint(PersistError),
    /// A checkpoint was structurally valid but does not match the model it
    /// was asked to resume with (window/stride/period/domain mismatch).
    ModelMismatch(String),
    /// The named stream is not open on this manager.
    UnknownStream(String),
    /// A stream with that name is already open.
    DuplicateStream(String),
    /// Stream/model name failed validation (empty, too long, bad chars).
    BadName(String),
    /// The model loader could not produce the requested model.
    ModelLoad(String),
    /// The shard worker is gone (manager shut down or worker died).
    ShardUnavailable,
    /// The engine was rebound to a refreshed model mid-stream (fleet refit),
    /// so an offline-equivalent `finalize` no longer exists: the incremental
    /// rankings cover only the windows scored since the swap. Live scores
    /// and hysteresis events remain valid.
    ModelSwapped,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::NonFinite { seq } => {
                write!(f, "stream: non-finite sample at sequence {seq} rejected")
            }
            StreamError::Empty => write!(f, "stream: finalize on an empty stream"),
            StreamError::HistoryDropped { dropped } => write!(
                f,
                "stream: finalize needs full history but {dropped} oldest points were evicted"
            ),
            StreamError::Checkpoint(e) => write!(f, "stream checkpoint: {e}"),
            StreamError::ModelMismatch(msg) => write!(f, "stream checkpoint: {msg}"),
            StreamError::UnknownStream(name) => write!(f, "stream: no open stream named {name:?}"),
            StreamError::DuplicateStream(name) => {
                write!(f, "stream: stream {name:?} is already open")
            }
            StreamError::BadName(msg) => write!(f, "stream: {msg}"),
            StreamError::ModelLoad(msg) => write!(f, "stream: model load failed: {msg}"),
            StreamError::ShardUnavailable => write!(f, "stream: shard worker unavailable"),
            StreamError::ModelSwapped => write!(
                f,
                "stream: model was swapped mid-stream; offline-equivalent finalize unavailable"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for StreamError {
    fn from(e: PersistError) -> Self {
        StreamError::Checkpoint(e)
    }
}

/// Shared fixtures for the in-crate tests: a quickly trained model and a
/// test series with a known frequency-shift anomaly.
#[cfg(test)]
pub(crate) mod testutil {
    use std::f64::consts::PI;
    use triad_core::{FittedTriad, TriAd, TriadConfig};

    pub(crate) fn quick_cfg() -> TriadConfig {
        TriadConfig {
            epochs: 2,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        }
    }

    /// Periodic series of `n` points with period `p`, plus deterministic
    /// jitter so windows are not exactly alike.
    pub(crate) fn periodic(n: usize, p: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (2.0 * PI * i as f64 / p).sin()
                    + 0.3 * (4.0 * PI * i as f64 / p).sin()
                    + 0.02 * (((i * 37) % 97) as f64 / 97.0 - 0.5)
            })
            .collect()
    }

    /// A test split carrying a frequency-shift anomaly at [200, 260).
    pub(crate) fn anomalous_test(n: usize, p: f64) -> Vec<f64> {
        let mut test = periodic(n, p);
        for (i, v) in test.iter_mut().enumerate().take(260).skip(200) {
            *v = (8.0 * PI * i as f64 / p).sin();
        }
        test
    }

    pub(crate) fn quick_fitted() -> FittedTriad {
        TriAd::new(quick_cfg())
            .fit(&periodic(560, 32.0))
            .expect("fit")
    }
}
