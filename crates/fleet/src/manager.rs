//! The [`FleetManager`]: the workspace's one multi-stream runtime.
//!
//! Stream names FNV-route to worker shards, each one OS thread owning its
//! engines, fed by a **bounded** ingest queue. A full queue sheds load
//! explicitly — `push` reports `queued: false` and the shard's
//! `dropped_backpressure` counter accounts for every dropped point — rather
//! than blocking the caller or buffering without bound. Models are loaded
//! through the caller's [`ModelLoader`], which returns an owned model, and
//! cached per shard as `Arc`s in a bounded LRU. On top of that:
//!
//! * every command updates a [`BudgetLedger`]; when a shard exceeds its
//!   slice of the global budget (`budget / shards`), least-recently
//!   touched engines are **evicted** to the [`CheckpointStore`] and
//!   dropped from RAM (the stream being served is never evicted under
//!   itself mid-command);
//! * a `push`/`poll`/`close` on an evicted stream **rehydrates** it from
//!   the newest intact generation first — bit-identical, so scores and
//!   `finalize` cannot tell eviction ever happened;
//! * each completed window's deviance feeds a per-stream
//!   [`DriftDetector`]; a drift entry schedules a background refit through
//!   the [`Refitter`] callback, and the refreshed model is swapped in at a
//!   window boundary fixed at detection time (`swap_horizon` windows
//!   later), so the swap point is a property of the *stream*, not of
//!   thread timing.
//!
//! Everything per-stream that must survive eviction (drift state, refit
//! bookkeeping, checkpoint generation, byte estimate) lives in the shard's
//! slot table, which is never evicted — only engines are.
//!
//! With `budget_bytes: 0`, drift disabled and no refitter, nothing is ever
//! evicted or swapped: every stream stays resident, and the store only sees
//! explicit checkpoints and the shutdown sweep (the serve tier's default).

use crate::budget::BudgetLedger;
use crate::drift::{DriftBaseline, DriftDetector, DriftPolicy, DriftSignal};
use crate::store::CheckpointStore;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use triad_core::{FittedTriad, PersistError, TriadConfig, TriadDetection};
use triad_stream::checkpoint;
use triad_stream::engine::{StreamConfig, StreamEngine, StreamStatus};
use triad_stream::metrics::ShardMetrics;
use triad_stream::{ModelLoader, StreamError};

/// Everything a background refit needs to produce the replacement model.
///
/// The callback must fit `config` on `train` and persist the result under
/// `new_model` so the fleet's [`ModelLoader`] can load it by that name.
/// The serve tier implements this with `ModelRegistry::save_fitted`.
#[derive(Debug, Clone)]
pub struct RefitRequest {
    /// Stream whose drift triggered the refit.
    pub stream: String,
    /// Model the stream is currently bound to.
    pub base_model: String,
    /// Name the refreshed model must be saved under.
    pub new_model: String,
    /// Deterministic training slice: the stream's retained tail at the
    /// moment drift was detected.
    pub train: Vec<f64>,
    /// Base model's config with `period_override` pinned, so the refit
    /// keeps the window/stride/period geometry the engine requires.
    pub config: TriadConfig,
}

/// Fits and persists a replacement model; runs on the fleet's single
/// background refit thread.
pub type Refitter = Arc<dyn Fn(&RefitRequest) -> Result<(), String> + Send + Sync>;

/// Fleet-tier configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker shard count (≥ 1).
    pub shards: usize,
    /// Bounded ingest-queue depth per shard, in commands.
    pub queue_capacity: usize,
    /// Where generation-numbered checkpoints live. The fleet *requires* a
    /// store: eviction without a durable home would lose state, and the
    /// shutdown sweep persists every dirty stream there for the restart.
    pub store_dir: PathBuf,
    /// Global resident-engine byte budget (0 = unlimited). Each shard
    /// enforces `budget / shards`.
    pub budget_bytes: usize,
    /// Per-stream engine defaults for newly opened streams.
    pub stream_defaults: StreamConfig,
    /// Most fitted models each shard keeps cached (LRU beyond that).
    pub model_cache_cap: usize,
    /// Drift / refit policy.
    pub drift: DriftPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 2,
            queue_capacity: 1024,
            store_dir: PathBuf::from("fleet_ckpt"),
            budget_bytes: 0,
            stream_defaults: StreamConfig::default(),
            model_cache_cap: 8,
            drift: DriftPolicy::default(),
        }
    }
}

/// Fleet-wide counters (shard gauges are indexed by shard id).
#[derive(Debug)]
pub struct FleetMetrics {
    pub evictions: AtomicU64,
    pub rehydrations: AtomicU64,
    pub rehydrate_failures: AtomicU64,
    pub compacted_files: AtomicU64,
    pub drift_events: AtomicU64,
    pub refits_requested: AtomicU64,
    pub refits_completed: AtomicU64,
    pub refits_failed: AtomicU64,
    resident_bytes: Vec<AtomicU64>,
    resident_streams: Vec<AtomicU64>,
    evicted_streams: Vec<AtomicU64>,
}

impl FleetMetrics {
    fn new(shards: usize) -> FleetMetrics {
        FleetMetrics {
            evictions: AtomicU64::new(0),
            rehydrations: AtomicU64::new(0),
            rehydrate_failures: AtomicU64::new(0),
            compacted_files: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
            refits_requested: AtomicU64::new(0),
            refits_completed: AtomicU64::new(0),
            refits_failed: AtomicU64::new(0),
            resident_bytes: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            resident_streams: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            evicted_streams: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Point-in-time snapshot of the fleet counters, for `stats` and the soak
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    pub budget_bytes: u64,
    pub resident_bytes: u64,
    pub resident_streams: u64,
    pub evicted_streams: u64,
    pub evictions: u64,
    pub rehydrations: u64,
    pub rehydrate_failures: u64,
    pub compacted_files: u64,
    pub drift_events: u64,
    pub refits_requested: u64,
    pub refits_completed: u64,
    pub refits_failed: u64,
}

/// Receipt for a `push`: whether the batch made it onto the shard queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushTicket {
    /// `false` means the whole batch was shed by backpressure (and counted
    /// in the shard's `dropped_backpressure`).
    pub queued: bool,
    /// Points dropped by this call (0 when queued).
    pub dropped: usize,
    /// Queue depth observed at send time.
    pub queue_len: usize,
    /// Which shard the stream routes to.
    pub shard: usize,
}

/// Everything `close` can tell the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct CloseReport {
    /// Final status snapshot before teardown.
    pub status: StreamStatus,
    /// Offline-equivalent detection over the retained history, when the
    /// ring still held every sample and the model was never swapped.
    pub detection: Option<TriadDetection>,
    /// Why `detection` is absent (history evicted, empty stream, refit, …).
    pub finalize_error: Option<String>,
}

/// FNV-1a over the stream name: the shard-routing hash.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stream and model names become file names and hash keys; keep them to a
/// safe registry-style charset and reject path tricks like `..`.
fn validate_name(name: &str, what: &str) -> Result<(), StreamError> {
    if name.is_empty() || name.len() > 64 {
        return Err(StreamError::BadName(format!(
            "{what} name must be 1–64 characters, got {}",
            name.len()
        )));
    }
    if name.starts_with('.') || name.starts_with('-') {
        return Err(StreamError::BadName(format!(
            "{what} name {name:?} must not start with '.' or '-'"
        )));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')))
    {
        return Err(StreamError::BadName(format!(
            "{what} name {name:?} contains invalid character {c:?}"
        )));
    }
    Ok(())
}

// --------------------------------------------------------- refit plumbing

struct RefitJob {
    stream: String,
    request: RefitRequest,
}

/// Completion board for background refits: shard workers block on it at
/// the swap boundary, the refit thread posts results into it.
#[derive(Default)]
struct RefitLedger {
    inner: Mutex<BTreeMap<String, Option<Result<(), String>>>>,
    cv: Condvar,
}

impl RefitLedger {
    fn begin(&self, stream: &str) {
        if let Ok(mut map) = self.inner.lock() {
            map.insert(stream.to_string(), None);
        }
    }

    fn complete(&self, stream: &str, result: Result<(), String>) {
        if let Ok(mut map) = self.inner.lock() {
            map.insert(stream.to_string(), Some(result));
        }
        self.cv.notify_all();
    }

    /// Block until the stream's refit posts a result (bounded: ~600 s).
    fn wait(&self, stream: &str) -> Option<Result<(), String>> {
        let mut guard = self.inner.lock().ok()?;
        // 6000 × 100 ms: generous for a refit, but a lost refit thread
        // must surface as a failed swap, not a hung shard.
        for _ in 0..6000 {
            match guard.get(stream) {
                Some(Some(_)) => break,
                Some(None) => {}
                None => return None,
            }
            let (g, _timeout) = self
                .cv
                .wait_timeout(guard, std::time::Duration::from_millis(100))
                .ok()?;
            guard = g;
        }
        guard.get(stream).cloned().flatten()
    }

    fn clear(&self, stream: &str) {
        if let Ok(mut map) = self.inner.lock() {
            map.remove(stream);
        }
    }
}

// -------------------------------------------------------------- commands

enum Command {
    Open {
        stream: String,
        model: String,
        reply: Sender<Result<(), StreamError>>,
    },
    Push {
        stream: String,
        points: Vec<f64>,
    },
    Poll {
        stream: String,
        reply: Sender<Result<StreamStatus, StreamError>>,
    },
    Close {
        stream: String,
        reply: Sender<Result<CloseReport, StreamError>>,
    },
    Checkpoint {
        stream: Option<String>,
        reply: Sender<Result<usize, StreamError>>,
    },
    List {
        reply: Sender<Vec<String>>,
    },
    Shutdown,
}

/// Memory-budgeted sharded stream manager. See the module docs.
pub struct FleetManager {
    senders: Vec<Sender<Command>>,
    receivers: Vec<Receiver<Command>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    metrics: Vec<Arc<ShardMetrics>>,
    fleet: Arc<FleetMetrics>,
    refit_tx: Option<Sender<RefitJob>>,
    refit_handle: Option<std::thread::JoinHandle<()>>,
    budget_bytes: usize,
}

impl FleetManager {
    /// Spawn the shard workers (and, when a [`Refitter`] is supplied, the
    /// background refit worker). Streams with durable generations in the
    /// store are re-adopted as *evicted* slots before commands are
    /// accepted — a restarted fleet answers `poll` for every stream it
    /// knew, paying rehydration cost only when one is actually touched.
    pub fn new(
        cfg: FleetConfig,
        loader: ModelLoader,
        refitter: Option<Refitter>,
    ) -> Result<FleetManager, StreamError> {
        let shards = cfg.shards.max(1);
        let store = CheckpointStore::open(&cfg.store_dir)
            .map_err(|e| StreamError::Checkpoint(PersistError::Format(e)))?;
        let fleet = Arc::new(FleetMetrics::new(shards));
        let metrics: Vec<Arc<ShardMetrics>> =
            (0..shards).map(|_| Arc::new(ShardMetrics::new())).collect();

        let refit_ledger = Arc::new(RefitLedger::default());
        let (refit_tx, refit_handle) = match refitter {
            Some(refitter) => {
                let (tx, rx) = bounded::<RefitJob>(1024);
                let ledger = Arc::clone(&refit_ledger);
                let handle = std::thread::Builder::new()
                    .name("triad-fleet-refit".into())
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            let mut span = obs::span("fleet-refit");
                            span.add_field("stream", &job.stream);
                            span.add_field("model", &job.request.new_model);
                            let result = refitter(&job.request);
                            span.add_field("ok", result.is_ok());
                            ledger.complete(&job.stream, result);
                        }
                    })
                    // lint-allow(no-unwrap): thread-spawn failure at startup
                    // is unrecoverable resource exhaustion
                    .expect("spawn fleet refit worker");
                (Some(tx), Some(handle))
            }
            None => (None, None),
        };

        // Route every durable stream to the shard its name hashes to.
        let mut adoptions: Vec<Vec<(String, u64)>> = vec![Vec::new(); shards];
        for (stream, generation) in store.list() {
            let shard = (fnv1a(&stream) % shards as u64) as usize;
            adoptions[shard].push((stream, generation));
        }

        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let per_shard_budget = if cfg.budget_bytes == 0 {
            0
        } else {
            (cfg.budget_bytes / shards).max(1)
        };
        for (shard_id, adopt) in adoptions.into_iter().enumerate() {
            let (tx, rx) = bounded::<Command>(cfg.queue_capacity.max(1));
            let worker_rx = rx.clone();
            let ctx = ShardCtx {
                shard_id,
                streams: BTreeMap::new(),
                models: BTreeMap::new(),
                model_clock: 0,
                cache_cap: cfg.model_cache_cap.max(1),
                loader: Arc::clone(&loader),
                store: store.clone(),
                metrics: Arc::clone(&metrics[shard_id]),
                fleet: Arc::clone(&fleet),
                defaults: cfg.stream_defaults.clone(),
                policy: cfg.drift.clone(),
                ledger: BudgetLedger::new(per_shard_budget),
                refit_tx: refit_tx.clone(),
                refit_ledger: Arc::clone(&refit_ledger),
            };
            let handle = std::thread::Builder::new()
                .name(format!("triad-fleet-shard-{shard_id}"))
                .spawn(move || shard_main(worker_rx, ctx, adopt))
                // lint-allow(no-unwrap): thread-spawn failure at startup is
                // unrecoverable resource exhaustion
                .expect("spawn fleet shard worker");
            senders.push(tx);
            receivers.push(rx);
            handles.push(handle);
        }

        Ok(FleetManager {
            senders,
            receivers,
            handles,
            metrics,
            fleet,
            refit_tx,
            refit_handle,
            budget_bytes: cfg.budget_bytes,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    pub fn shard_of(&self, stream: &str) -> usize {
        (fnv1a(stream) % self.senders.len() as u64) as usize
    }

    pub fn shard_metrics(&self) -> &[Arc<ShardMetrics>] {
        &self.metrics
    }

    pub fn fleet_metrics(&self) -> &FleetMetrics {
        &self.fleet
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Snapshot of the fleet counters (gauges summed over shards).
    pub fn fleet_stats(&self) -> FleetStats {
        let m = &self.fleet;
        let sum = |v: &[AtomicU64]| v.iter().map(ShardMetrics::get).sum::<u64>();
        FleetStats {
            budget_bytes: self.budget_bytes as u64,
            resident_bytes: sum(&m.resident_bytes),
            resident_streams: sum(&m.resident_streams),
            evicted_streams: sum(&m.evicted_streams),
            evictions: ShardMetrics::get(&m.evictions),
            rehydrations: ShardMetrics::get(&m.rehydrations),
            rehydrate_failures: ShardMetrics::get(&m.rehydrate_failures),
            compacted_files: ShardMetrics::get(&m.compacted_files),
            drift_events: ShardMetrics::get(&m.drift_events),
            refits_requested: ShardMetrics::get(&m.refits_requested),
            refits_completed: ShardMetrics::get(&m.refits_completed),
            refits_failed: ShardMetrics::get(&m.refits_failed),
        }
    }

    fn request<T>(
        &self,
        shard: usize,
        make: impl FnOnce(Sender<Result<T, StreamError>>) -> Command,
    ) -> Result<T, StreamError> {
        let (reply_tx, reply_rx) = bounded(1);
        self.senders[shard]
            .send(make(reply_tx))
            .map_err(|_| StreamError::ShardUnavailable)?;
        // Generous: Open may fit a model, Close may block on a refit swap.
        reply_rx
            .recv_timeout(std::time::Duration::from_secs(600))
            .map_err(|_| StreamError::ShardUnavailable)?
    }

    /// Open a stream bound to a registered model name. A stream with
    /// durable generations in the store resumes from them (the checkpoint
    /// records which model it was built with); if they cannot be restored
    /// they are discarded and the error returned.
    pub fn open(&self, stream: &str, model: &str) -> Result<(), StreamError> {
        validate_name(stream, "stream")?;
        validate_name(model, "model")?;
        let shard = self.shard_of(stream);
        self.request(shard, |reply| Command::Open {
            stream: stream.to_string(),
            model: model.to_string(),
            reply,
        })
    }

    /// Enqueue a batch of points. Never blocks: a full shard queue sheds
    /// the whole batch and accounts it in `dropped_backpressure`.
    pub fn push(&self, stream: &str, points: &[f64]) -> Result<PushTicket, StreamError> {
        validate_name(stream, "stream")?;
        let shard = self.shard_of(stream);
        let cmd = Command::Push {
            stream: stream.to_string(),
            points: points.to_vec(),
        };
        match self.senders[shard].try_send(cmd) {
            Ok(()) => {
                ShardMetrics::add(&self.metrics[shard].ingested, points.len() as u64);
                Ok(PushTicket {
                    queued: true,
                    dropped: 0,
                    queue_len: self.receivers[shard].len(),
                    shard,
                })
            }
            Err(TrySendError::Full(_)) => {
                ShardMetrics::add(
                    &self.metrics[shard].dropped_backpressure,
                    points.len() as u64,
                );
                Ok(PushTicket {
                    queued: false,
                    dropped: points.len(),
                    queue_len: self.receivers[shard].len(),
                    shard,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(StreamError::ShardUnavailable),
        }
    }

    /// Status snapshot; rehydrates an evicted stream first.
    pub fn poll(&self, stream: &str) -> Result<StreamStatus, StreamError> {
        validate_name(stream, "stream")?;
        let shard = self.shard_of(stream);
        self.request(shard, |reply| Command::Poll {
            stream: stream.to_string(),
            reply,
        })
    }

    /// Close a stream: final status + offline-equivalent detection (after
    /// rehydration when needed); all durable generations are removed. A
    /// stream whose state cannot be rehydrated is discarded all the same
    /// and the restore error returned.
    pub fn close(&self, stream: &str) -> Result<CloseReport, StreamError> {
        validate_name(stream, "stream")?;
        let shard = self.shard_of(stream);
        self.request(shard, |reply| Command::Close {
            stream: stream.to_string(),
            reply,
        })
    }

    /// Write a new generation for one stream (or sweep every shard when
    /// `None`, skipping clean and already-durable streams). Returns how
    /// many generations were written.
    pub fn checkpoint(&self, stream: Option<&str>) -> Result<usize, StreamError> {
        match stream {
            Some(name) => {
                validate_name(name, "stream")?;
                let shard = self.shard_of(name);
                self.request(shard, |reply| Command::Checkpoint {
                    stream: Some(name.to_string()),
                    reply,
                })
            }
            None => {
                let mut written = 0;
                for shard in 0..self.senders.len() {
                    written += self.request(shard, |reply| Command::Checkpoint {
                        stream: None,
                        reply,
                    })?;
                }
                Ok(written)
            }
        }
    }

    /// Names of every open stream (resident or evicted), across shards.
    pub fn streams(&self) -> Vec<String> {
        let mut all = Vec::new();
        for shard in 0..self.senders.len() {
            let (reply_tx, reply_rx) = bounded(1);
            if self.senders[shard]
                .send(Command::List { reply: reply_tx })
                .is_ok()
            {
                if let Ok(mut names) = reply_rx.recv_timeout(std::time::Duration::from_secs(600)) {
                    all.append(&mut names);
                }
            }
        }
        all.sort();
        all
    }
}

impl Drop for FleetManager {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Command::Shutdown);
        }
        self.senders.clear();
        self.receivers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // All shard-held clones are gone now; dropping ours ends the refit
        // worker's receive loop.
        self.refit_tx = None;
        if let Some(handle) = self.refit_handle.take() {
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------ shard worker

struct PendingRefit {
    new_model: String,
    /// Swap when `windows_seen` reaches this count — fixed at drift time,
    /// so the swap point is deterministic in stream coordinates.
    swap_at: u64,
}

/// Per-stream slot. Everything here survives eviction; only `engine` is
/// dropped to reclaim memory.
struct Slot {
    engine: Option<StreamEngine>,
    model: String,
    /// Original model name, before any `.{stream}.rN` refit suffixes.
    root_model: String,
    /// Last written checkpoint generation (0 = none yet).
    generation: u64,
    /// Engine stamp at the last written generation.
    saved: Option<(u64, u64)>,
    drift: Option<DriftDetector>,
    /// Monotone count of completed windows (the engine's own count resets
    /// on rebind; this one never does).
    windows_seen: u64,
    refits: u64,
    pending: Option<PendingRefit>,
}

struct CachedModel {
    fitted: Arc<FittedTriad>,
    baseline: DriftBaseline,
    last_used: u64,
}

struct ShardCtx {
    shard_id: usize,
    streams: BTreeMap<String, Slot>,
    models: BTreeMap<String, CachedModel>,
    model_clock: u64,
    cache_cap: usize,
    loader: ModelLoader,
    store: CheckpointStore,
    metrics: Arc<ShardMetrics>,
    fleet: Arc<FleetMetrics>,
    defaults: StreamConfig,
    policy: DriftPolicy,
    ledger: BudgetLedger,
    refit_tx: Option<Sender<RefitJob>>,
    refit_ledger: Arc<RefitLedger>,
}

/// `"base.r3"` → `("base", 3)`; anything else is its own root.
fn refit_root(model: &str) -> (&str, u64) {
    if let Some((root, digits)) = model.rsplit_once(".r") {
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = digits.parse() {
                return (root, n);
            }
        }
    }
    (model, 0)
}

impl ShardCtx {
    /// Load (or fetch cached) a model plus its drift baseline. Bounded to
    /// `cache_cap` entries, least-recently-used evicted first (logical use
    /// counter, never wall clock); a stream bound to an evicted model
    /// reloads it through the loader on next use.
    fn model(&mut self, name: &str) -> Result<(Arc<FittedTriad>, DriftBaseline), StreamError> {
        self.model_clock += 1;
        if let Some(entry) = self.models.get_mut(name) {
            entry.last_used = self.model_clock;
            return Ok((Arc::clone(&entry.fitted), entry.baseline));
        }
        let fitted = (self.loader)(name).map_err(StreamError::ModelLoad)?;
        let baseline = DriftBaseline::from_model(&fitted);
        let fitted = Arc::new(fitted);
        self.models.insert(
            name.to_string(),
            CachedModel {
                fitted: Arc::clone(&fitted),
                baseline,
                last_used: self.model_clock,
            },
        );
        while self.models.len() > self.cache_cap {
            let victim = self
                .models
                .iter()
                .min_by_key(|(_, m)| m.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.models.remove(&k);
                }
                None => break,
            }
        }
        Ok((fitted, baseline))
    }

    /// Write a new generation for a resident stream when dirty (or always,
    /// when `force`), then compact superseded generations. Returns whether
    /// a file was written.
    fn write_generation(&mut self, name: &str, force: bool) -> Result<bool, StreamError> {
        let Some(slot) = self.streams.get(name) else {
            return Err(StreamError::UnknownStream(name.to_string()));
        };
        let Some(engine) = slot.engine.as_ref() else {
            // Evicted streams are durable by construction.
            return Ok(false);
        };
        let stamp = engine.state_stamp();
        if !force && slot.saved == Some(stamp) {
            return Ok(false);
        }
        let generation = slot.generation + 1;
        let mut payload = Vec::new();
        checkpoint::save(&mut payload, name, &slot.model, engine)?;
        self.store
            .put(name, generation, &payload)
            .map_err(|e| StreamError::Checkpoint(PersistError::Format(e)))?;
        let mut span = obs::span("fleet-compact");
        span.add_field("stream", name);
        let compacted = self.store.compact(name, generation);
        span.add_field("removed", compacted);
        drop(span);
        ShardMetrics::add(&self.fleet.compacted_files, compacted as u64);
        ShardMetrics::add(&self.metrics.checkpoints_written, 1);
        if let Some(slot) = self.streams.get_mut(name) {
            slot.generation = generation;
            slot.saved = Some(stamp);
        }
        Ok(true)
    }

    /// Evict one stream: persist its state (if dirty) and drop the engine.
    fn evict(&mut self, name: &str) -> Result<(), StreamError> {
        let mut span = obs::span("fleet-evict");
        span.add_field("stream", name);
        span.add_field("shard", self.shard_id);
        self.write_generation(name, false)?;
        if let Some(slot) = self.streams.get_mut(name) {
            slot.engine = None;
        }
        let freed = self.ledger.remove(name);
        span.add_field("freed_bytes", freed);
        ShardMetrics::add(&self.fleet.evictions, 1);
        Ok(())
    }

    /// Rehydrate an evicted stream from its newest intact generation.
    fn ensure_resident(&mut self, name: &str) -> Result<(), StreamError> {
        match self.streams.get(name) {
            None => return Err(StreamError::UnknownStream(name.to_string())),
            Some(slot) if slot.engine.is_some() => return Ok(()),
            Some(_) => {}
        }
        let mut span = obs::span("fleet-rehydrate");
        span.add_field("stream", name);
        span.add_field("shard", self.shard_id);
        let Some((generation, payload)) = self.store.latest(name) else {
            ShardMetrics::add(&self.fleet.rehydrate_failures, 1);
            return Err(StreamError::Checkpoint(PersistError::Format(format!(
                "no intact generation for evicted stream {name:?}"
            ))));
        };
        span.add_field("generation", generation);
        let state = checkpoint::load(payload.as_slice()).inspect_err(|_| {
            ShardMetrics::add(&self.fleet.rehydrate_failures, 1);
        })?;
        let model_name = state.model.clone();
        let (fitted, baseline) = self.model(&model_name).inspect_err(|_| {
            ShardMetrics::add(&self.fleet.rehydrate_failures, 1);
        })?;
        let engine = state.into_engine(&fitted).inspect_err(|_| {
            ShardMetrics::add(&self.fleet.rehydrate_failures, 1);
        })?;
        let stamp = engine.state_stamp();
        let bytes = engine.estimated_bytes();
        let policy = self.policy.clone();
        if let Some(slot) = self.streams.get_mut(name) {
            slot.model = model_name;
            slot.generation = generation;
            slot.saved = Some(stamp);
            if slot.drift.is_none() && policy.enabled {
                slot.drift = Some(DriftDetector::new(baseline, &policy));
            }
            slot.engine = Some(engine);
        }
        self.ledger.touch(name);
        self.ledger.set_bytes(name, bytes);
        ShardMetrics::add(&self.fleet.rehydrations, 1);
        Ok(())
    }

    /// Evict LRU streams until this shard is back under its byte cap.
    /// `protect` is the stream being served right now: with `Some`, every
    /// *other* resident engine can go but that one stays (a transient
    /// overshoot a later `enforce_budget(None)` at batch end settles).
    fn enforce_budget(&mut self, protect: Option<&str>) {
        while self.ledger.over_budget() {
            let Some(victim) = self.ledger.victim(protect) else {
                break;
            };
            if self.evict(&victim).is_err() {
                // Persist failed: dropping the engine would lose state, so
                // keep it resident and stop trying (the overshoot shows up
                // in the gauges rather than as silent data loss).
                break;
            }
        }
    }

    /// Refresh the published per-shard gauges after a command.
    fn publish_gauges(&self) {
        let resident = self.ledger.resident() as u64;
        ShardMetrics::set(
            &self.fleet.resident_bytes[self.shard_id],
            self.ledger.total() as u64,
        );
        ShardMetrics::set(&self.fleet.resident_streams[self.shard_id], resident);
        ShardMetrics::set(
            &self.fleet.evicted_streams[self.shard_id],
            self.streams.len() as u64 - resident.min(self.streams.len() as u64),
        );
        ShardMetrics::set(&self.metrics.open_streams, self.streams.len() as u64);
    }

    /// Forget a stream entirely: its slot, ledger and refit entries, and
    /// every durable generation in the store.
    fn discard(&mut self, name: &str) -> Option<Slot> {
        let slot = self.streams.remove(name);
        self.ledger.remove(name);
        self.refit_ledger.clear(name);
        self.store.remove_stream(name);
        slot
    }

    /// Adopt a durable stream at startup as an evicted slot (no engine
    /// loaded — rehydration happens on first touch).
    fn adopt(&mut self, name: &str, generation: u64) -> Result<(), StreamError> {
        let Some((_, payload)) = self.store.latest(name) else {
            return Err(StreamError::Checkpoint(PersistError::Format(format!(
                "no intact generation for {name:?}"
            ))));
        };
        let state = checkpoint::load(payload.as_slice())?;
        validate_name(&state.stream, "stream")?;
        validate_name(&state.model, "model")?;
        if state.stream != name {
            return Err(StreamError::Checkpoint(PersistError::Format(format!(
                "checkpoint for {name:?} names stream {:?}",
                state.stream
            ))));
        }
        let (root, refits) = refit_root(&state.model);
        // Refit names are `{root}.{stream}.rN` — recover the true base so
        // the next refit doesn't stack another stream scope on top.
        let root = root.strip_suffix(&format!(".{name}")).unwrap_or(root);
        self.streams.insert(
            name.to_string(),
            Slot {
                engine: None,
                model: state.model.clone(),
                root_model: root.to_string(),
                generation,
                saved: None,
                drift: None,
                windows_seen: 0,
                refits,
                pending: None,
            },
        );
        Ok(())
    }

    /// While a drift episode is open: build the deterministic refit request
    /// and hand it to the background worker. Returns whether a refit was
    /// actually dispatched (one per episode at most — `pending` gates).
    fn schedule_refit(&mut self, stream: &str) -> bool {
        let Some(tx) = self.refit_tx.clone() else {
            return false;
        };
        let Some(slot) = self.streams.get(stream) else {
            return false;
        };
        if slot.pending.is_some() || slot.refits >= self.policy.max_refits {
            return false;
        }
        let Some(engine) = slot.engine.as_ref() else {
            return false;
        };
        // Refit models are fitted on *this stream's* recent points, so the
        // name is scoped by stream: streams sharing a base model must never
        // race to (re)define the same refit name.
        let new_model = format!("{}.{}.r{}", slot.root_model, stream, slot.refits + 1);
        if validate_name(&new_model, "model").is_err() {
            return false; // combined name too long to suffix; refit impossible
        }
        let base_model = slot.model.clone();
        let train = engine.recent(self.policy.refit_train_len.max(engine.window_len() + 1));
        // The offline fit needs at least two full windows of training data;
        // with less retained history the refit would fail outright. Skip
        // for now — the episode is still open, so a later window retries.
        if train.len() < engine.window_len() * 2 {
            return false;
        }
        let swap_at = slot.windows_seen + self.policy.swap_horizon.max(1);
        let Ok((fitted, _)) = self.model(&base_model) else {
            return false;
        };
        let mut config = fitted.config().clone();
        // Pin the geometry: the engine can only rebind to a model with the
        // same window/stride/period.
        config.period_override = Some(fitted.period());
        let request = RefitRequest {
            stream: stream.to_string(),
            base_model,
            new_model: new_model.clone(),
            train,
            config,
        };
        self.refit_ledger.begin(stream);
        if tx
            .send(RefitJob {
                stream: stream.to_string(),
                request,
            })
            .is_err()
        {
            self.refit_ledger.clear(stream);
            return false;
        }
        ShardMetrics::add(&self.fleet.refits_requested, 1);
        if let Some(slot) = self.streams.get_mut(stream) {
            slot.pending = Some(PendingRefit { new_model, swap_at });
        }
        true
    }

    /// At the deterministic swap boundary: wait for the background refit,
    /// rebind the engine to the refreshed model, reset drift state against
    /// the new model's training baseline. Returns whether the engine now
    /// runs a different model.
    fn apply_pending_swap(&mut self, stream: &str) -> bool {
        let due = match self.streams.get(stream) {
            Some(slot) => match (&slot.pending, &slot.engine) {
                (Some(p), Some(_)) => {
                    if slot.windows_seen >= p.swap_at {
                        Some(p.new_model.clone())
                    } else {
                        None
                    }
                }
                _ => None,
            },
            None => None,
        };
        let Some(new_model) = due else {
            return false;
        };
        let mut span = obs::span("fleet-refit-swap");
        span.add_field("stream", stream);
        span.add_field("model", &new_model);
        let outcome = self.refit_ledger.wait(stream);
        self.refit_ledger.clear(stream);
        let swapped = match outcome {
            Some(Ok(())) => match self.model(&new_model) {
                Ok((fitted, baseline)) => {
                    let policy = self.policy.clone();
                    match self.streams.get_mut(stream) {
                        Some(slot) => match slot.engine.as_mut() {
                            Some(engine) => match engine.rebind(&fitted) {
                                Ok(()) => {
                                    slot.model = new_model;
                                    slot.refits += 1;
                                    slot.drift = Some(DriftDetector::new(baseline, &policy));
                                    // The swapped engine must reach disk
                                    // under its new model name eventually;
                                    // mark dirty so the next sweep/evict
                                    // writes it.
                                    slot.saved = None;
                                    true
                                }
                                Err(_) => false,
                            },
                            None => false,
                        },
                        None => false,
                    }
                }
                Err(_) => false,
            },
            _ => false,
        };
        span.add_field("ok", swapped);
        if let Some(slot) = self.streams.get_mut(stream) {
            slot.pending = None;
        }
        if swapped {
            ShardMetrics::add(&self.fleet.refits_completed, 1);
        } else {
            ShardMetrics::add(&self.fleet.refits_failed, 1);
        }
        swapped
    }
}

fn shard_main(rx: Receiver<Command>, mut st: ShardCtx, adopt: Vec<(String, u64)>) {
    for (name, generation) in &adopt {
        if st.adopt(name, *generation).is_err() {
            ShardMetrics::add(&st.metrics.checkpoint_failures, 1);
        }
    }
    st.publish_gauges();

    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Open {
                stream,
                model,
                reply,
            } => {
                let mut span = obs::span("fleet-open");
                span.add_field("stream", &stream);
                let result = if st.streams.contains_key(&stream) {
                    Err(StreamError::DuplicateStream(stream.clone()))
                } else if st.store.latest(&stream).is_some() {
                    // Durable state exists (e.g. opened before a restart
                    // that missed adoption): resume it; the checkpoint
                    // knows its own model.
                    // State that cannot be restored (model gone, or refit
                    // under the same name with another geometry) is
                    // discarded, so a retried open starts afresh.
                    let gen = st.store.generations(&stream).last().copied().unwrap_or(0);
                    st.adopt(&stream, gen)
                        .and_then(|()| st.ensure_resident(&stream))
                        .inspect_err(|_| {
                            st.discard(&stream);
                        })
                } else {
                    st.model(&model).map(|(fitted, baseline)| {
                        let engine = StreamEngine::new(&fitted, st.defaults.clone());
                        let bytes = engine.estimated_bytes();
                        let drift = st
                            .policy
                            .enabled
                            .then(|| DriftDetector::new(baseline, &st.policy));
                        st.streams.insert(
                            stream.clone(),
                            Slot {
                                engine: Some(engine),
                                root_model: model.clone(),
                                model,
                                generation: 0,
                                saved: None,
                                drift,
                                windows_seen: 0,
                                refits: 0,
                                pending: None,
                            },
                        );
                        st.ledger.touch(&stream);
                        st.ledger.set_bytes(&stream, bytes);
                    })
                };
                if result.is_ok() {
                    st.enforce_budget(Some(&stream));
                    st.enforce_budget(None);
                }
                st.publish_gauges();
                let _ = reply.send(result);
            }
            Command::Push { stream, points } => {
                if !st.streams.contains_key(&stream) {
                    continue;
                }
                if st.ensure_resident(&stream).is_err() {
                    continue;
                }
                st.ledger.touch(&stream);
                let mut ingest_span = obs::span("fleet-ingest");
                ingest_span.add_field("stream", &stream);
                ingest_span.add_field("points", points.len());
                let events_before = st
                    .streams
                    .get(&stream)
                    .and_then(|s| s.engine.as_ref())
                    .map_or(0, |e| e.events().len());
                // Resolve the model once per batch; only a swap applied at a
                // window boundary mid-batch re-resolves it, so the rest of
                // the batch scores under the refreshed model.
                let resolve = |st: &mut ShardCtx| {
                    let name = st.streams.get(&stream).map(|s| s.model.clone())?;
                    st.model(&name).ok().map(|(fitted, _)| fitted)
                };
                let mut model = resolve(&mut st);
                for &x in &points {
                    let Some(fitted) = model.as_ref() else {
                        break;
                    };
                    let Some(slot) = st.streams.get_mut(&stream) else {
                        break;
                    };
                    let Some(engine) = slot.engine.as_mut() else {
                        break;
                    };
                    let t0 = obs::now_ns();
                    let mut drift_entered = false;
                    let mut drifting = false;
                    match engine.push(fitted, x) {
                        Ok(outcome) => {
                            if let Some(w) = outcome.completed_window {
                                let end = obs::now_ns();
                                ShardMetrics::add(&st.metrics.windows_scored, 1);
                                st.metrics.score_latency_us.observe((end - t0) / 1_000);
                                obs::record_span("fleet-score", t0, end, Vec::new());
                                slot.windows_seen += 1;
                                if let (Some(det), Some(dev)) = (slot.drift.as_mut(), w.deviance) {
                                    drift_entered = det.observe(dev) == DriftSignal::Entered;
                                    drifting = det.drifting();
                                }
                            }
                        }
                        Err(_) => ShardMetrics::add(&st.metrics.dropped_nonfinite, 1),
                    }
                    if drift_entered {
                        ShardMetrics::add(&st.fleet.drift_events, 1);
                    }
                    // Schedule while the episode is open, not just at the
                    // entry edge: an entry with too little retained history
                    // to refit on gets retried at the next scored window.
                    if drifting {
                        let d0 = obs::now_ns();
                        if st.schedule_refit(&stream) {
                            obs::record_span(
                                "fleet-drift",
                                d0,
                                obs::now_ns(),
                                vec![("stream", stream.clone())],
                            );
                        }
                    }
                    if st.apply_pending_swap(&stream) {
                        model = resolve(&mut st);
                    }
                }
                let events_after = st
                    .streams
                    .get(&stream)
                    .and_then(|s| s.engine.as_ref())
                    .map_or(0, |e| e.events().len());
                ShardMetrics::add(
                    &st.metrics.events_opened,
                    events_after.saturating_sub(events_before) as u64,
                );
                drop(ingest_span);
                if let Some(bytes) = st
                    .streams
                    .get(&stream)
                    .and_then(|s| s.engine.as_ref())
                    .map(|e| e.estimated_bytes())
                {
                    st.ledger.set_bytes(&stream, bytes);
                }
                // First pass spares the stream just served; if it alone
                // exceeds the shard slice, the batch-end pass takes it too,
                // so published residency never exceeds the cap.
                st.enforce_budget(Some(&stream));
                st.enforce_budget(None);
                st.publish_gauges();
            }
            Command::Poll { stream, reply } => {
                let result = match st.ensure_resident(&stream) {
                    Err(e) => Err(e),
                    Ok(()) => {
                        st.ledger.touch(&stream);
                        st.streams
                            .get(&stream)
                            .and_then(|s| s.engine.as_ref())
                            .map(|e| e.status())
                            .ok_or(StreamError::UnknownStream(stream.clone()))
                    }
                };
                // Status is captured; if this stream alone busts the shard
                // slice, the second pass may evict it too — published
                // residency never exceeds the cap.
                st.enforce_budget(Some(&stream));
                st.enforce_budget(None);
                st.publish_gauges();
                let _ = reply.send(result);
            }
            Command::Close { stream, reply } => {
                let result = match st.ensure_resident(&stream) {
                    Err(e) => {
                        // A known stream whose state cannot be restored is
                        // still closed, so its name and files are not stuck.
                        st.discard(&stream);
                        Err(e)
                    }
                    Ok(()) => match st.streams.get(&stream).map(|s| s.model.clone()) {
                        None => Err(StreamError::UnknownStream(stream.clone())),
                        Some(model_name) => {
                            let fitted = st.model(&model_name);
                            match st.discard(&stream) {
                                Some(Slot {
                                    engine: Some(engine),
                                    ..
                                }) => {
                                    let status = engine.status();
                                    let (detection, finalize_error) = match &fitted {
                                        Ok((f, _)) => match engine.finalize(f) {
                                            Ok(det) => (Some(det), None),
                                            Err(e) => (None, Some(e.to_string())),
                                        },
                                        Err(e) => (None, Some(e.to_string())),
                                    };
                                    Ok(CloseReport {
                                        status,
                                        detection,
                                        finalize_error,
                                    })
                                }
                                // ensure_resident guaranteed an engine, so
                                // a slot without one cannot be reached.
                                _ => Err(StreamError::UnknownStream(stream.clone())),
                            }
                        }
                    },
                };
                st.publish_gauges();
                let _ = reply.send(result);
            }
            Command::Checkpoint { stream, reply } => {
                let result = match stream {
                    Some(name) => {
                        if !st.streams.contains_key(&name) {
                            Err(StreamError::UnknownStream(name))
                        } else {
                            // Evicted streams are durable already; a
                            // resident one is written unconditionally.
                            st.write_generation(&name, true).map(usize::from)
                        }
                    }
                    None => {
                        let names: Vec<String> = st.streams.keys().cloned().collect();
                        let mut written = 0usize;
                        let mut first_err = None;
                        for name in names {
                            match st.write_generation(&name, false) {
                                Ok(true) => written += 1,
                                Ok(false) => {
                                    ShardMetrics::add(&st.metrics.checkpoints_skipped_clean, 1)
                                }
                                Err(e) => {
                                    ShardMetrics::add(&st.metrics.checkpoint_failures, 1);
                                    first_err.get_or_insert(e);
                                }
                            }
                        }
                        match first_err {
                            Some(e) if written == 0 && !st.streams.is_empty() => Err(e),
                            _ => Ok(written),
                        }
                    }
                };
                let _ = reply.send(result);
            }
            Command::List { reply } => {
                let _ = reply.send(st.streams.keys().cloned().collect());
            }
            Command::Shutdown => {
                let names: Vec<String> = st.streams.keys().cloned().collect();
                for name in names {
                    match st.write_generation(&name, false) {
                        Ok(true) => {}
                        Ok(false) => ShardMetrics::add(&st.metrics.checkpoints_skipped_clean, 1),
                        Err(_) => ShardMetrics::add(&st.metrics.checkpoint_failures, 1),
                    }
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use std::sync::Mutex;
    use std::time::Duration;
    use triad_core::TriAd;

    fn quick_cfg() -> TriadConfig {
        TriadConfig {
            epochs: 2,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        }
    }

    fn periodic(n: usize, p: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (2.0 * PI * i as f64 / p).sin()
                    + 0.3 * (4.0 * PI * i as f64 / p).sin()
                    + 0.02 * (((i * 37) % 97) as f64 / 97.0 - 0.5)
            })
            .collect()
    }

    /// Refit recipes posted by the [`Refitter`], consumed by the loader:
    /// a [`ModelLoader`] returns an owned model, so the refitter records
    /// (config, train) and the loader fits it on demand like any other model.
    type RecipeBook = Arc<Mutex<BTreeMap<String, (TriadConfig, Vec<f64>)>>>;

    fn loader_with(recipes: RecipeBook) -> ModelLoader {
        Arc::new(move |name: &str| {
            let recipe = recipes
                .lock()
                .map_err(|_| "recipe lock poisoned".to_string())?
                .get(name)
                .cloned();
            match recipe {
                Some((cfg, train)) => TriAd::new(cfg).fit(&train).map_err(|e| e.to_string()),
                None => TriAd::new(quick_cfg())
                    .fit(&periodic(560, 32.0))
                    .map_err(|e| e.to_string()),
            }
        })
    }

    fn base_loader() -> ModelLoader {
        loader_with(Arc::new(Mutex::new(BTreeMap::new())))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("triad_fleet_mgr_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn wait_for_seq(mgr: &FleetManager, stream: &str, want: u64) -> StreamStatus {
        for _ in 0..600 {
            let status = mgr.poll(stream).expect("poll");
            if status.seq >= want {
                return status;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("stream {stream} never reached seq {want}");
    }

    fn no_drift() -> DriftPolicy {
        DriftPolicy {
            enabled: false,
            ..DriftPolicy::default()
        }
    }

    #[test]
    fn aggressive_budget_evicts_but_outputs_match_unlimited_run() {
        let test = periodic(420, 32.0);
        let run = |budget: usize, tag: &str| {
            let dir = tmp_dir(tag);
            let mgr = FleetManager::new(
                FleetConfig {
                    shards: 2,
                    budget_bytes: budget,
                    store_dir: dir.clone(),
                    drift: no_drift(),
                    ..FleetConfig::default()
                },
                base_loader(),
                None,
            )
            .expect("fleet");
            let names = ["a0", "a1", "a2", "a3", "a4", "a5"];
            for name in names {
                mgr.open(name, "m").expect("open");
            }
            for chunk in test.chunks(48) {
                for name in names {
                    // Bounded retry: lossless delivery even if a queue
                    // momentarily fills.
                    for _ in 0..600 {
                        if mgr.push(name, chunk).expect("push").queued {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            let mut out = Vec::new();
            for name in names {
                let status = wait_for_seq(&mgr, name, test.len() as u64);
                out.push((name, status));
            }
            let stats = mgr.fleet_stats();
            let mut reports = Vec::new();
            for name in names {
                reports.push(mgr.close(name).expect("close"));
            }
            drop(mgr);
            let _ = std::fs::remove_dir_all(&dir);
            (out, reports, stats)
        };

        // ~6 engines of a few hundred KB each against a 64 KiB global
        // budget: every command ends with evictions.
        let (tight_status, tight_reports, tight_stats) = run(64 * 1024, "tight");
        let (loose_status, loose_reports, loose_stats) = run(0, "loose");

        assert!(
            tight_stats.evictions > 0,
            "64 KiB budget over 6 streams must evict"
        );
        assert!(tight_stats.rehydrations > 0);
        assert_eq!(loose_stats.evictions, 0, "unlimited budget must not evict");
        assert!(
            tight_stats.resident_bytes <= 64 * 1024,
            "published residency {} exceeds the budget",
            tight_stats.resident_bytes
        );

        // The gated outputs are bit-identical: eviction/rehydration is
        // invisible in statuses, events, and offline-equivalent detections.
        assert_eq!(tight_status, loose_status);
        for (t, l) in tight_reports.iter().zip(&loose_reports) {
            assert_eq!(t.status, l.status);
            assert_eq!(t.detection, l.detection);
            assert_eq!(t.finalize_error, l.finalize_error);
        }
    }

    #[test]
    fn checkpoint_sweep_skips_clean_streams_and_restart_resumes() {
        let dir = tmp_dir("restart");
        let test = periodic(400, 32.0);
        let cut = 217; // deliberately off-stride

        let cfg = FleetConfig {
            shards: 2,
            store_dir: dir.clone(),
            drift: no_drift(),
            ..FleetConfig::default()
        };
        {
            let mgr = FleetManager::new(cfg.clone(), base_loader(), None).expect("fleet");
            mgr.open("resume-me", "m").expect("open");
            for _ in 0..600 {
                if mgr.push("resume-me", &test[..cut]).expect("push").queued {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            wait_for_seq(&mgr, "resume-me", cut as u64);
            assert_eq!(mgr.checkpoint(None).expect("sweep"), 1);
            // Nothing changed since: the sweep must skip, not rewrite.
            assert_eq!(mgr.checkpoint(None).expect("sweep"), 0);
            let skipped: u64 = mgr
                .shard_metrics()
                .iter()
                .map(|m| ShardMetrics::get(&m.checkpoints_skipped_clean))
                .sum();
            assert!(skipped >= 1, "clean sweep must count a skip");
            // Several explicit generations, so the restart below resumes
            // from a *compacted* store (older generations removed).
            for _ in 0..3 {
                mgr.checkpoint(Some("resume-me")).expect("explicit");
            }
        } // Drop: shutdown sweep persists dirty state.

        // A new manager over the same store adopts the stream evicted.
        let mgr = FleetManager::new(cfg, base_loader(), None).expect("fleet");
        assert_eq!(mgr.streams(), vec!["resume-me".to_string()]);
        for _ in 0..600 {
            if mgr.push("resume-me", &test[cut..]).expect("push").queued {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        wait_for_seq(&mgr, "resume-me", test.len() as u64);
        let report = mgr.close("resume-me").expect("close");

        // Reference: the same series through one unbroken engine.
        let fitted = TriAd::new(quick_cfg())
            .fit(&periodic(560, 32.0))
            .expect("fit");
        let mut engine = StreamEngine::new(&fitted, StreamConfig::default());
        for &x in &test {
            engine.push(&fitted, x).expect("push");
        }
        assert_eq!(report.status, engine.status());
        assert_eq!(
            report.detection.expect("detection"),
            engine.finalize(&fitted).expect("finalize")
        );
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sustained_regime_shift_triggers_refit_and_deterministic_swap() {
        let dir = tmp_dir("drift");
        let recipes: RecipeBook = Arc::new(Mutex::new(BTreeMap::new()));
        let refit_book = Arc::clone(&recipes);
        let refitter: Refitter = Arc::new(move |req: &RefitRequest| {
            // "Persist" the refreshed model as a recipe the loader fits.
            refit_book
                .lock()
                .map_err(|_| "recipe lock poisoned".to_string())?
                .insert(
                    req.new_model.clone(),
                    (req.config.clone(), req.train.clone()),
                );
            Ok(())
        });
        let mgr = FleetManager::new(
            FleetConfig {
                shards: 1,
                store_dir: dir.clone(),
                drift: DriftPolicy {
                    slack_sigma: 1.0,
                    threshold: 0.3,
                    min_windows: 2,
                    swap_horizon: 2,
                    ..DriftPolicy::default()
                },
                ..FleetConfig::default()
            },
            loader_with(recipes),
            Some(refitter),
        )
        .expect("fleet");

        mgr.open("shifty", "m").expect("open");
        // In-regime prefix, then a sustained frequency shift the base model
        // was never trained on: deviance stays elevated window after
        // window, which is exactly what CUSUM accumulates.
        let mut series = periodic(300, 32.0);
        series.extend((300..800).map(|i| (2.0 * PI * i as f64 / 7.0).sin()));
        for chunk in series.chunks(50) {
            for _ in 0..600 {
                if mgr.push("shifty", chunk).expect("push").queued {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        wait_for_seq(&mgr, "shifty", series.len() as u64);

        let stats = mgr.fleet_stats();
        assert!(stats.drift_events >= 1, "regime shift must enter drift");
        assert!(stats.refits_requested >= 1);
        assert_eq!(stats.refits_failed, 0, "refit pipeline must succeed");
        assert!(
            stats.refits_completed >= 1,
            "swap must land at the horizon boundary"
        );

        // After a swap the offline-equivalent finalize is gone by design —
        // the close must say so, while live status and events survive.
        let report = mgr.close("shifty").expect("close");
        assert!(report.detection.is_none());
        assert!(report
            .finalize_error
            .as_deref()
            .expect("finalize error")
            .contains("swapped"));
        assert_eq!(report.status.seq, series.len() as u64);
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
