//! The TCP serving layer: accept loop, thread-pool dispatcher, verb
//! handlers, graceful shutdown.
//!
//! Connections are fanned out over a fixed pool of worker threads through a
//! bounded `crossbeam` channel (the accept loop blocks when every worker is
//! busy and the backlog is full — natural backpressure). Workers speak the
//! line-delimited JSON protocol from [`crate::proto`] and answer every verb
//! in place: a `detect` runs on the worker that read it, once it holds one
//! of `executors` permits, so CPU-heavy detects stay bounded separately
//! from the connection pool.
//!
//! Shutdown (the `shutdown` verb or [`ServerHandle::shutdown`]) drains: the
//! accept loop stops taking connections, workers finish the requests already
//! on their sockets, and only then do the threads exit.

use crate::json::{self, Value};
use crate::metrics::{histogram_json, inc, render_histogram, Metrics};
use crate::proto::{
    detect_response, detection_fields, err_response, ok_response, stream_status_fields,
    MAX_LINE_BYTES,
};
use crate::registry::ModelRegistry;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use triad_core::{persist, NumericMode, TriAd, TriadConfig};
use triad_fleet::{DriftPolicy, FleetConfig, FleetManager, FleetStats, RefitRequest, Refitter};
use triad_stream::ShardMetrics;

/// Server tunables. `Default` suits tests and local runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Directory of `*.triad` model files.
    pub models_dir: PathBuf,
    /// Connection worker threads.
    pub workers: usize,
    /// Worker threads *inside* each detection (the deterministic parallel
    /// runtime; 0 = auto). Orthogonal to `workers`/`executors`: those decide
    /// how many requests run at once, this decides how many cores one
    /// request uses. Results are bit-identical at any value.
    pub threads: usize,
    /// Numeric kernel mode for detection (`exact` keeps the bit-exact
    /// reference kernels; `fast` switches to the FFT-backed MASS discord
    /// kernels — tolerance-equivalent, bit-identical within the mode).
    pub numeric_mode: NumericMode,
    /// Detects allowed to run at once (at least 1).
    pub executors: usize,
    /// A detect that waits this long for a free executor is answered with
    /// a timeout error.
    pub request_timeout_ms: u64,
    /// Idle connections are closed after this long without a request.
    pub idle_timeout_ms: u64,
    /// Max models kept deserialized (LRU beyond that).
    pub cache_capacity: usize,
    /// Worker shards for the online streaming layer.
    pub stream_shards: usize,
    /// Bounded ingest-queue depth per stream shard (backpressure valve).
    pub stream_queue: usize,
    /// Where the stream checkpoint store lives; `None` uses
    /// `<models_dir>/_fleet`. Either way, shutdown writes every dirty open
    /// stream there and a server restarted over the same directory resumes
    /// them; `stream.close` removes a stream's files, also when its state
    /// no longer matches its model and cannot be resumed.
    pub stream_checkpoint_dir: Option<PathBuf>,
    /// `Some(bytes)` caps the stream tier's resident engines at this many
    /// bytes globally (0 = no cap): idle streams are evicted to
    /// generation-numbered checkpoints and rehydrated bit-identically on
    /// the next touch, and drift-triggered refits run in the background
    /// through the model registry. `None` keeps every stream resident with
    /// drift detection off.
    pub fleet_budget_bytes: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            models_dir: PathBuf::from("models"),
            workers: 4,
            threads: 0,
            numeric_mode: NumericMode::default(),
            executors: 2,
            request_timeout_ms: 30_000,
            idle_timeout_ms: 10_000,
            cache_capacity: 8,
            stream_shards: 2,
            stream_queue: 1024,
            stream_checkpoint_dir: None,
            fleet_budget_bytes: None,
        }
    }
}

/// A counting semaphore: at most `n` holders of a [`Permit`] at once.
struct Permits {
    free: Mutex<usize>,
    released: Condvar,
}

/// One held permit; dropping it wakes a waiter.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn new(n: usize) -> Self {
        Permits {
            free: Mutex::new(n),
            released: Condvar::new(),
        }
    }

    /// Lock the free count, recovering from poisoning: it is a plain
    /// integer that every holder restores in `Drop`, so it stays consistent
    /// even when a detect panics.
    fn lock_free(&self) -> std::sync::MutexGuard<'_, usize> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait up to `timeout` for a permit.
    fn acquire(&self, timeout: Duration) -> Result<Permit<'_>, String> {
        let (mut free, _) = self
            .released
            .wait_timeout_while(self.lock_free(), timeout, |free| *free == 0)
            .unwrap_or_else(|e| e.into_inner());
        if *free == 0 {
            return Err(format!("request timed out after {timeout:?} in queue"));
        }
        *free -= 1;
        Ok(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.lock_free() += 1;
        self.0.released.notify_one();
    }
}

/// State shared by the accept loop and the workers.
struct Shared {
    registry: Arc<RwLock<ModelRegistry>>,
    metrics: Arc<Metrics>,
    /// Bounds the detects running at once (`ServeConfig::executors`).
    permits: Permits,
    /// Online streaming layer; stream engines live on its shard threads,
    /// loading models from the same `models_dir` as the registry.
    streams: FleetManager,
    shutdown: AtomicBool,
    addr: SocketAddr,
    request_timeout: Duration,
    idle_timeout: Duration,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and poke the accept loop awake with a dummy
    /// connection so it notices.
    fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// A running server; join it with [`ServerHandle::wait`] or stop it with
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// Ask the server to stop accepting and start draining. Non-blocking.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Block until the server has fully drained and every thread exited.
    pub fn wait(mut self) {
        // The accept thread owns the connection sender, so joining it
        // closes the channel; workers then drain the remaining queued
        // connections and exit.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// `request_shutdown` + `wait`.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

/// Bind, spawn the thread pools, and return a handle.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Metrics::new());
    let mut registry =
        ModelRegistry::open(&cfg.models_dir, cfg.cache_capacity, Arc::clone(&metrics))?;
    registry.set_threads(cfg.threads);
    registry.set_numeric_mode(cfg.numeric_mode);
    // Stream shards load models straight from the models directory: a
    // `ModelLoader` returns an owned model and the fleet keeps its own
    // per-shard LRU, so the registry's cached instances are not shared.
    // `fit` saves to disk before it replies, so a fit→stream.open sequence
    // always sees the file.
    let models_dir = cfg.models_dir.clone();
    let detect_threads = cfg.threads;
    let detect_numeric_mode = cfg.numeric_mode;
    let loader: triad_stream::ModelLoader = Arc::new(move |name: &str| {
        let path = models_dir.join(format!("{name}.triad"));
        persist::load_file(&path)
            .map(|mut m| {
                m.set_threads(detect_threads);
                m.set_numeric_mode(detect_numeric_mode);
                m
            })
            .map_err(|e| format!("load model {name:?}: {e}"))
    });
    let registry = Arc::new(RwLock::new(registry));
    // `None` is the unbudgeted fleet: every stream stays resident and no
    // drift refits run. `Some(budget)` also refits drifted streams; the
    // refit fits on the refit thread and persists through the registry, so
    // the refreshed model is immediately visible to `list`/`detect` and to
    // the shard loader above.
    let (budget_bytes, drift, refitter) = match cfg.fleet_budget_bytes {
        None => (
            0,
            DriftPolicy {
                enabled: false,
                ..DriftPolicy::default()
            },
            None,
        ),
        Some(budget) => {
            let refit_registry = Arc::clone(&registry);
            let refitter: Refitter = Arc::new(move |req: &RefitRequest| {
                let fitted = TriAd::new(req.config.clone())
                    .fit(&req.train)
                    .map_err(|e| format!("refit {:?}: {e}", req.new_model))?;
                refit_registry
                    .write()
                    .map_err(|_| "registry poisoned".to_string())?
                    .save_fitted(&req.new_model, fitted)
            });
            (budget as usize, DriftPolicy::default(), Some(refitter))
        }
    };
    let streams = FleetManager::new(
        FleetConfig {
            shards: cfg.stream_shards.max(1),
            queue_capacity: cfg.stream_queue.max(1),
            store_dir: cfg
                .stream_checkpoint_dir
                .clone()
                .unwrap_or_else(|| cfg.models_dir.join("_fleet")),
            budget_bytes,
            drift,
            ..FleetConfig::default()
        },
        loader,
        refitter,
    )
    .map_err(io::Error::other)?;
    let shared = Arc::new(Shared {
        registry,
        metrics: Arc::clone(&metrics),
        permits: Permits::new(cfg.executors.max(1)),
        streams,
        shutdown: AtomicBool::new(false),
        addr,
        request_timeout: Duration::from_millis(cfg.request_timeout_ms.max(1)),
        idle_timeout: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
    });

    let (conn_tx, conn_rx) = crossbeam::channel::bounded::<TcpStream>(1024);

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("triad-accept".into())
            .spawn(move || {
                // conn_tx lives (only) here: the loop breaking closes the
                // channel and lets the workers run dry.
                for stream in listener.incoming() {
                    if shared.shutting_down() {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            // Marks the handoff of an accepted socket to the
                            // worker pool in the trace timeline.
                            let _accept = obs::span("accept");
                            if conn_tx.send(s).is_err() {
                                break;
                            }
                        }
                        Err(_) => {
                            if shared.shutting_down() {
                                break;
                            }
                        }
                    }
                }
            })?
    };

    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        let rx = conn_rx.clone();
        workers.push(
            std::thread::Builder::new()
                .name(format!("triad-worker-{i}"))
                .spawn(move || {
                    while let Ok(stream) = rx.recv() {
                        handle_conn(&shared, stream);
                    }
                })?,
        );
    }
    drop(conn_rx);

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers,
    })
}

/// `read_line` with a hard byte cap so one client can't balloon memory.
fn read_request_line<R: BufRead>(r: &mut R, buf: &mut String) -> io::Result<usize> {
    let mut limited = r.take(MAX_LINE_BYTES as u64);
    let n = limited.read_line(buf)?;
    if n >= MAX_LINE_BYTES && !buf.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line too long",
        ));
    }
    Ok(n)
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    inc(&shared.metrics.connections_total);
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match read_request_line(&mut reader, &mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(_) => break, // idle timeout, oversized line, or socket error
        }
        if line.trim().is_empty() {
            continue;
        }
        inc(&shared.metrics.requests_total);
        let mut req_span = obs::span("request");
        req_span.add_field("bytes", line.trim().len());
        let (mut response, wants_shutdown) = handle_request(shared, line.trim());
        if response.get("ok").and_then(Value::as_bool) == Some(false) {
            inc(&shared.metrics.errors_total);
        }
        // Echo the request's span id so a client can find its trace. Only
        // injected while tracing is live: with tracing off the envelope is
        // byte-identical to an uninstrumented server.
        if req_span.id() != 0 {
            if let Value::Obj(fields) = &mut response {
                fields.push(("trace_id".into(), Value::Num(req_span.id() as f64)));
            }
        }
        let out = response.to_string();
        let write_failed = {
            let mut respond_span = obs::span("respond");
            respond_span.add_field("bytes", out.len());
            writer
                .write_all(out.as_bytes())
                .and_then(|_| writer.write_all(b"\n"))
                .and_then(|_| writer.flush())
                .is_err()
        };
        drop(req_span);
        if write_failed {
            break;
        }
        inc(&shared.metrics.responses_total);
        if wants_shutdown {
            shared.request_shutdown();
            break;
        }
        if shared.shutting_down() {
            // Finish the in-flight request (just did), then close.
            break;
        }
    }
}

/// Dispatch one request line. Returns the response and whether the verb
/// asked the whole server to shut down.
fn handle_request(shared: &Arc<Shared>, line: &str) -> (Value, bool) {
    let parse_span = obs::span("parse");
    let req = match json::parse(line) {
        Ok(v @ Value::Obj(_)) => v,
        Ok(_) => {
            return (
                err_response("?", None, "request must be a JSON object"),
                false,
            )
        }
        Err(e) => return (err_response("?", None, &format!("bad JSON: {e}")), false),
    };
    drop(parse_span);
    let id = req.get("id").cloned();
    let id = id.as_ref();
    let Some(verb) = req.get("verb").and_then(Value::as_str) else {
        return (err_response("?", id, "missing \"verb\""), false);
    };
    match verb {
        "health" => {
            inc(&shared.metrics.health_total);
            let models = shared.registry.read().map(|r| r.len()).unwrap_or(0);
            (
                ok_response(
                    "health",
                    id,
                    vec![
                        ("status".into(), "ok".into()),
                        ("models".into(), Value::Num(models as f64)),
                        ("draining".into(), Value::Bool(shared.shutting_down())),
                    ],
                ),
                false,
            )
        }
        "list" => {
            inc(&shared.metrics.list_total);
            let infos = match shared.registry.read() {
                Ok(r) => r.list(),
                Err(_) => return (err_response("list", id, "registry poisoned"), false),
            };
            let models: Vec<Value> = infos
                .iter()
                .map(|m| {
                    Value::Obj(vec![
                        ("name".into(), m.name.as_str().into()),
                        ("loaded".into(), Value::Bool(m.loaded)),
                        ("bytes".into(), Value::Num(m.file_bytes as f64)),
                    ])
                })
                .collect();
            (
                ok_response("list", id, vec![("models".into(), Value::Arr(models))]),
                false,
            )
        }
        "stats" => {
            inc(&shared.metrics.stats_total);
            let body = if req.get("format").and_then(Value::as_str) == Some("text") {
                let mut text = shared.metrics.render_text();
                render_stream_metrics(&shared.streams, &mut text);
                vec![("text".into(), Value::Str(text))]
            } else {
                let mut fields = match shared.metrics.to_json() {
                    Value::Obj(fields) => fields,
                    other => vec![("metrics".into(), other)],
                };
                fields.push(("streams".into(), stream_metrics_json(&shared.streams)));
                fields
            };
            (ok_response("stats", id, body), false)
        }
        "evict" => {
            inc(&shared.metrics.evict_total);
            let Some(model) = req.get("model").and_then(Value::as_str) else {
                return (err_response("evict", id, "evict requires \"model\""), false);
            };
            let evicted = match shared.registry.read() {
                Ok(r) => r.evict(model),
                Err(_) => Err("registry poisoned".into()),
            };
            match evicted {
                Ok(was_loaded) => (
                    ok_response(
                        "evict",
                        id,
                        vec![
                            ("model".into(), model.into()),
                            ("was_loaded".into(), Value::Bool(was_loaded)),
                        ],
                    ),
                    false,
                ),
                Err(e) => (err_response("evict", id, &e), false),
            }
        }
        "fit" => {
            inc(&shared.metrics.fit_total);
            (handle_fit(shared, &req, id), false)
        }
        "detect" => {
            inc(&shared.metrics.detect_total);
            (handle_detect(shared, &req, id), false)
        }
        "shutdown" => {
            inc(&shared.metrics.shutdown_total);
            (
                ok_response("shutdown", id, vec![("draining".into(), Value::Bool(true))]),
                true,
            )
        }
        v if v.starts_with("stream.") => {
            inc(&shared.metrics.stream_total);
            (handle_stream(shared, v, &req, id), false)
        }
        other => (
            err_response(other, id, &format!("unknown verb {other:?}")),
            false,
        ),
    }
}

fn handle_fit(shared: &Arc<Shared>, req: &Value, id: Option<&Value>) -> Value {
    let Some(model) = req.get("model").and_then(Value::as_str) else {
        return err_response("fit", id, "fit requires \"model\"");
    };
    let Some(train) = req.get("train").and_then(|v| v.as_f64_vec()) else {
        return err_response("fit", id, "fit requires a numeric \"train\" array");
    };

    let mut cfg = TriadConfig::default();
    for (key, slot) in [
        ("epochs", &mut cfg.epochs as &mut usize),
        ("hidden", &mut cfg.hidden),
        ("depth", &mut cfg.depth),
        ("batch", &mut cfg.batch),
        ("merlin_step", &mut cfg.merlin_step),
    ] {
        if let Some(v) = req.get(key).and_then(Value::as_u64) {
            *slot = v as usize;
        }
    }
    if let Some(seed) = req.get("seed").and_then(Value::as_u64) {
        cfg.seed = seed;
    }
    if let Err(e) = cfg.validate() {
        return err_response("fit", id, &format!("bad config: {e}"));
    }

    let t0 = obs::now_instant();
    let fitted = match TriAd::new(cfg).fit(&train) {
        Ok(f) => f,
        Err(e) => return err_response("fit", id, &format!("fit failed: {e}")),
    };
    let period = fitted.period();
    let window = fitted.window_len();
    let saved = match shared.registry.write() {
        Ok(mut r) => r
            .save_fitted(model, fitted)
            .map(|()| r.slot(model).map(|s| s.file_bytes()).unwrap_or(0)),
        Err(_) => Err("registry poisoned".into()),
    };
    let bytes = match saved {
        Ok(b) => b,
        Err(e) => return err_response("fit", id, &e),
    };
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    shared.metrics.fit_latency_ms.observe(elapsed_ms);
    ok_response(
        "fit",
        id,
        vec![
            ("model".into(), model.into()),
            ("n_train".into(), Value::Num(train.len() as f64)),
            ("period".into(), Value::Num(period as f64)),
            ("window".into(), Value::Num(window as f64)),
            ("bytes".into(), Value::Num(bytes as f64)),
            ("elapsed_ms".into(), Value::Num(elapsed_ms as f64)),
        ],
    )
}

fn handle_detect(shared: &Arc<Shared>, req: &Value, id: Option<&Value>) -> Value {
    let Some(model) = req.get("model").and_then(Value::as_str) else {
        return err_response("detect", id, "detect requires \"model\"");
    };
    let Some(series) = req.get("series").and_then(|v| v.as_f64_vec()) else {
        return err_response("detect", id, "detect requires a numeric \"series\" array");
    };
    if series.is_empty() {
        return err_response("detect", id, "detect \"series\" must be non-empty");
    }

    let arrived = obs::now_instant();
    let permit = {
        // Trace readers look this span up by its old name; it times the
        // wait for a permit.
        let _wait_span = obs::span("batch-wait");
        shared.permits.acquire(shared.request_timeout)
    };
    shared
        .metrics
        .queue_wait_us
        .observe(arrived.elapsed().as_micros() as u64);
    let _permit = match permit {
        Ok(p) => p,
        Err(e) => {
            inc(&shared.metrics.timeouts_total);
            return err_response("detect", id, &e);
        }
    };
    let result = detect_once(&shared.registry, model, &series);
    shared
        .metrics
        .detect_latency_us
        .observe(arrived.elapsed().as_micros() as u64);
    match result {
        Ok(body) => detect_response(id, body),
        Err(e) => err_response("detect", id, &e),
    }
}

/// Dispatch the `stream.*` verb family onto the [`FleetManager`].
fn handle_stream(shared: &Arc<Shared>, verb: &str, req: &Value, id: Option<&Value>) -> Value {
    let stream_name = req.get("stream").and_then(Value::as_str);
    match verb {
        "stream.open" => {
            let Some(stream) = stream_name else {
                return err_response(verb, id, "stream.open requires \"stream\"");
            };
            let Some(model) = req.get("model").and_then(Value::as_str) else {
                return err_response(verb, id, "stream.open requires \"model\"");
            };
            // The shard would discover a missing model too, but only after
            // the loader tries the file; the registry knows now.
            let known = match shared.registry.read() {
                Ok(r) => r.slot(model).is_some(),
                Err(_) => return err_response(verb, id, "registry poisoned"),
            };
            if !known {
                return err_response(verb, id, &format!("no such model {model:?}"));
            }
            match shared.streams.open(stream, model) {
                Ok(()) => ok_response(
                    verb,
                    id,
                    vec![
                        ("stream".into(), stream.into()),
                        ("model".into(), model.into()),
                        (
                            "shard".into(),
                            Value::Num(shared.streams.shard_of(stream) as f64),
                        ),
                    ],
                ),
                Err(e) => err_response(verb, id, &e.to_string()),
            }
        }
        "stream.push" => {
            let Some(stream) = stream_name else {
                return err_response(verb, id, "stream.push requires \"stream\"");
            };
            let Some(points) = req.get("points").and_then(|v| v.as_f64_vec()) else {
                return err_response(verb, id, "stream.push requires a numeric \"points\" array");
            };
            match shared.streams.push(stream, &points) {
                Ok(ticket) => ok_response(
                    verb,
                    id,
                    vec![
                        ("stream".into(), stream.into()),
                        ("queued".into(), Value::Bool(ticket.queued)),
                        ("dropped".into(), Value::Num(ticket.dropped as f64)),
                        ("queue_len".into(), Value::Num(ticket.queue_len as f64)),
                        ("shard".into(), Value::Num(ticket.shard as f64)),
                    ],
                ),
                Err(e) => err_response(verb, id, &e.to_string()),
            }
        }
        "stream.poll" => {
            let Some(stream) = stream_name else {
                return err_response(verb, id, "stream.poll requires \"stream\"");
            };
            match shared.streams.poll(stream) {
                Ok(status) => ok_response(verb, id, stream_status_fields(stream, &status)),
                Err(e) => err_response(verb, id, &e.to_string()),
            }
        }
        "stream.close" => {
            let Some(stream) = stream_name else {
                return err_response(verb, id, "stream.close requires \"stream\"");
            };
            match shared.streams.close(stream) {
                Ok(report) => {
                    let mut body = stream_status_fields(stream, &report.status);
                    body.push((
                        "detection".into(),
                        match &report.detection {
                            Some(det) => detection_fields(stream, det),
                            None => Value::Null,
                        },
                    ));
                    body.push((
                        "finalize_error".into(),
                        match &report.finalize_error {
                            Some(e) => Value::Str(e.clone()),
                            None => Value::Null,
                        },
                    ));
                    ok_response(verb, id, body)
                }
                Err(e) => err_response(verb, id, &e.to_string()),
            }
        }
        "stream.checkpoint" => match shared.streams.checkpoint(stream_name) {
            Ok(written) => ok_response(
                verb,
                id,
                vec![("written".into(), Value::Num(written as f64))],
            ),
            Err(e) => err_response(verb, id, &e.to_string()),
        },
        "stream.list" => {
            let names: Vec<Value> = shared
                .streams
                .streams()
                .into_iter()
                .map(Value::Str)
                .collect();
            ok_response(verb, id, vec![("streams".into(), Value::Arr(names))])
        }
        other => err_response(other, id, &format!("unknown stream verb {other:?}")),
    }
}

/// Fleet counter list shared by both expositions (JSON field names and
/// `triad_fleet_*` text metric suffixes).
fn fleet_counters(s: &FleetStats) -> [(&'static str, u64); 12] {
    [
        ("budget_bytes", s.budget_bytes),
        ("resident_bytes", s.resident_bytes),
        ("resident_streams", s.resident_streams),
        ("evicted_streams", s.evicted_streams),
        ("evictions", s.evictions),
        ("rehydrations", s.rehydrations),
        ("rehydrate_failures", s.rehydrate_failures),
        ("compacted_files", s.compacted_files),
        ("drift_events", s.drift_events),
        ("refits_requested", s.refits_requested),
        ("refits_completed", s.refits_completed),
        ("refits_failed", s.refits_failed),
    ]
}

/// Per-shard streaming counters for the `stats` verb's JSON payload.
fn stream_metrics_json(mgr: &FleetManager) -> Value {
    let mut shards = Vec::with_capacity(mgr.shard_count());
    let mut open_total = 0u64;
    for (i, m) in mgr.shard_metrics().iter().enumerate() {
        open_total += ShardMetrics::get(&m.open_streams);
        let mut fields: Vec<(String, Value)> = vec![("shard".into(), Value::Num(i as f64))];
        for (name, counter) in shard_counters(m) {
            fields.push((name.into(), Value::Num(ShardMetrics::get(counter) as f64)));
        }
        fields.push((
            "score_latency_us".into(),
            histogram_json(&m.score_latency_us),
        ));
        shards.push(Value::Obj(fields));
    }
    let fleet: Vec<(String, Value)> = fleet_counters(&mgr.fleet_stats())
        .into_iter()
        .map(|(name, v)| (name.into(), Value::Num(v as f64)))
        .collect();
    Value::Obj(vec![
        ("shards".into(), Value::Arr(shards)),
        ("open_streams".into(), Value::Num(open_total as f64)),
        ("fleet".into(), Value::Obj(fleet)),
    ])
}

/// Per-shard streaming counters in the text exposition format.
fn render_stream_metrics(mgr: &FleetManager, out: &mut String) {
    use std::fmt::Write;
    for (i, m) in mgr.shard_metrics().iter().enumerate() {
        for (name, counter) in shard_counters(m) {
            let _ = writeln!(
                out,
                "triad_stream_{name}{{shard=\"{i}\"}} {}",
                ShardMetrics::get(counter)
            );
        }
        render_histogram(
            &m.score_latency_us,
            &format!("triad_stream_shard_{i}_score_latency_us"),
            "_us",
            out,
        );
    }
    for (name, v) in fleet_counters(&mgr.fleet_stats()) {
        let _ = writeln!(out, "triad_fleet_{name} {v}");
    }
}

fn shard_counters(m: &ShardMetrics) -> [(&'static str, &std::sync::atomic::AtomicU64); 9] {
    [
        ("ingested", &m.ingested),
        ("dropped_backpressure", &m.dropped_backpressure),
        ("dropped_nonfinite", &m.dropped_nonfinite),
        ("windows_scored", &m.windows_scored),
        ("events_opened", &m.events_opened),
        ("checkpoints_written", &m.checkpoints_written),
        ("checkpoints_skipped_clean", &m.checkpoints_skipped_clean),
        ("checkpoint_failures", &m.checkpoint_failures),
        ("open_streams", &m.open_streams),
    ]
}

/// Run one detection against a registry model: resolve the slot, lock the
/// model (loading it on a cache miss) and run the pipeline. The registry
/// read lock is released before the pipeline runs, so a `fit` or a refit
/// does not wait for the pipeline of a detect it does not contend with.
pub fn detect_once(
    registry: &RwLock<ModelRegistry>,
    model: &str,
    series: &[f64],
) -> Result<Value, String> {
    let mut registry_span = obs::span("registry");
    registry_span.add_field("model", model);
    let reg = registry
        .read()
        .map_err(|_| "registry poisoned".to_string())?;
    let slot = reg
        .slot(model)
        .ok_or_else(|| format!("no such model {model:?}"))?;
    // The guard borrows `slot`, not the registry.
    let guard = reg.lock_loaded(&slot)?;
    drop(reg);
    let fitted = guard
        .as_ref()
        .ok_or_else(|| "model slot empty after load".to_string())?;
    drop(registry_span);
    let mut detect_span = obs::span("detect");
    detect_span.add_field("model", model);
    detect_span.add_field("n", series.len());
    // try_detect: a hostile payload (NaN series) must come back as an
    // error envelope, not kill the worker.
    let det = fitted.try_detect(series).map_err(|e| e.to_string())?;
    Ok(detection_fields(model, &det))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::get;

    #[test]
    fn default_config_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1 && cfg.executors >= 1);
    }

    #[test]
    fn permit_wait_times_out_and_a_release_wakes_a_waiter() {
        let permits = Permits::new(1);
        let held = permits.acquire(Duration::from_millis(10)).expect("free");
        let err = permits
            .acquire(Duration::from_millis(20))
            .err()
            .expect("no second permit while one is held");
        assert!(err.contains("timed out"), "{err}");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t0 = obs::now_instant();
                permits.acquire(Duration::from_secs(120)).map(drop)?;
                Ok::<_, String>(t0.elapsed())
            });
            // Only makes it likely that the waiter is already blocked; if it
            // is not, it takes the released permit directly and the checks
            // below still hold.
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            // Woken by the release, not by the end of its timeout.
            let waited = waiter.join().unwrap().expect("permit after release");
            assert!(waited < Duration::from_secs(60), "{waited:?}");
        });
    }

    #[test]
    fn bad_requests_get_error_envelopes_without_a_model_dir() {
        let dir = std::env::temp_dir().join(format!("triad_server_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(ServeConfig {
            models_dir: dir.clone(),
            workers: 1,
            executors: 1,
            ..Default::default()
        })
        .expect("start");
        let addr = handle.addr();

        let mut s = TcpStream::connect(addr).unwrap();
        for (req, needle) in [
            ("not json", "bad JSON"),
            ("[1,2]", "JSON object"),
            ("{\"no\":\"verb\"}", "missing \\\"verb\\\""),
            ("{\"verb\":\"teleport\"}", "unknown verb"),
            ("{\"verb\":\"detect\",\"model\":\"m\"}", "series"),
            // An unknown model is refused by the detect path itself.
            (
                "{\"verb\":\"detect\",\"model\":\"ghost\",\"series\":[1,2,3]}",
                "no such model",
            ),
        ] {
            s.write_all(req.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert!(line.contains("\"ok\":false"), "{req} -> {line}");
            assert!(line.contains(needle), "{req} -> {line}");
        }

        // health + stats still answer.
        s.write_all(b"{\"verb\":\"health\",\"id\":1}\n").unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"ok\":true") && line.contains("\"id\":1"),
            "{line}"
        );

        assert!(get(&handle.metrics().errors_total) >= 6);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_verbs_round_trip_over_tcp() {
        use crate::client::Client;
        use std::f64::consts::PI;

        let dir = std::env::temp_dir().join(format!("triad_server_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Pre-fit a small model straight into the models dir; the registry
        // discovers it at startup and the stream shards load it by file.
        let train: Vec<f64> = (0..560)
            .map(|i| (2.0 * PI * i as f64 / 32.0).sin() + 0.3 * (4.0 * PI * i as f64 / 32.0).sin())
            .collect();
        let fitted = TriAd::new(TriadConfig {
            epochs: 2,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        })
        .fit(&train)
        .expect("fit");
        let mut test = train[..380.min(train.len())].to_vec();
        for (i, v) in test.iter_mut().enumerate().take(260).skip(200) {
            *v = (8.0 * PI * i as f64 / 32.0).sin();
        }
        persist::save_file(&dir.join("m.triad"), &fitted).expect("save model");

        let handle = start(ServeConfig {
            models_dir: dir.clone(),
            workers: 2,
            executors: 1,
            stream_shards: 2,
            ..Default::default()
        })
        .expect("start");
        let mut c = Client::connect(handle.addr(), Duration::from_secs(300)).expect("connect");

        assert!(c.stream_open("s1", "ghost").is_err(), "unknown model");
        c.stream_open("s1", "m").expect("open");
        assert!(c.stream_open("s1", "m").is_err(), "duplicate stream");

        for chunk in test.chunks(64) {
            let t = c.stream_push("s1", chunk).expect("push");
            assert_eq!(t.get("queued").and_then(Value::as_bool), Some(true));
        }
        // Poll until the shard has drained the queue.
        let mut polled = None;
        for _ in 0..600 {
            let p = c.stream_poll("s1").expect("poll");
            if p.get("seq").and_then(Value::as_u64) == Some(test.len() as u64) {
                polled = Some(p);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let polled = polled.expect("stream never drained");
        assert!(polled.get("windows_scored").and_then(Value::as_u64) > Some(0));

        let listed = c.stream_list().expect("list");
        assert_eq!(
            listed.get("streams").map(|v| v.to_string()),
            Some("[\"s1\"]".to_string())
        );

        // Per-shard metrics are visible through the stats verb.
        let stats = c.stats().expect("stats");
        let streams = stats.get("streams").expect("streams in stats");
        let shards = streams
            .get("shards")
            .and_then(Value::as_arr)
            .expect("shards");
        assert_eq!(shards.len(), 2);
        let ingested: u64 = shards
            .iter()
            .map(|s| s.get("ingested").and_then(Value::as_u64).unwrap_or(0))
            .sum();
        assert_eq!(ingested, test.len() as u64);
        let text = c.stats_text().expect("stats text");
        assert!(
            text.contains("triad_stream_ingested{shard=\"0\"}"),
            "{text}"
        );
        assert!(text.contains("_p99"), "{text}");

        // Close returns the offline-equivalent detection: compare against
        // the direct (no-server) path on the same model file.
        let closed = c.stream_close("s1").expect("close");
        assert_eq!(closed.get("finalize_error"), Some(&Value::Null));
        let offline = detection_fields("s1", &fitted.detect(&test));
        assert_eq!(
            closed.get("detection").map(|v| v.to_string()),
            Some(offline.to_string()),
            "streamed detection differs from offline"
        );
        assert!(c.stream_poll("s1").is_err(), "closed stream still polls");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_tier_serves_stream_verbs_under_budget_and_exposes_counters() {
        use crate::client::Client;
        use std::f64::consts::PI;

        let dir = std::env::temp_dir().join(format!("triad_server_fleet_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        let train: Vec<f64> = (0..560)
            .map(|i| (2.0 * PI * i as f64 / 32.0).sin() + 0.3 * (4.0 * PI * i as f64 / 32.0).sin())
            .collect();
        let fitted = TriAd::new(TriadConfig {
            epochs: 2,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        })
        .fit(&train)
        .expect("fit");
        persist::save_file(&dir.join("m.triad"), &fitted).expect("save model");
        let test = &train[..380];

        // A budget far below one engine's footprint: every batch ends with
        // the shard evicting, so the verbs exercise rehydration constantly.
        let handle = start(ServeConfig {
            models_dir: dir.clone(),
            workers: 2,
            executors: 1,
            stream_shards: 2,
            fleet_budget_bytes: Some(16 * 1024),
            ..Default::default()
        })
        .expect("start");
        let mut c = Client::connect(handle.addr(), Duration::from_secs(300)).expect("connect");

        for name in ["f1", "f2", "f3"] {
            c.stream_open(name, "m").expect("open");
        }
        for chunk in test.chunks(64) {
            for name in ["f1", "f2", "f3"] {
                let t = c.stream_push(name, chunk).expect("push");
                assert_eq!(t.get("queued").and_then(Value::as_bool), Some(true));
            }
        }
        for name in ["f1", "f2", "f3"] {
            let mut drained = false;
            for _ in 0..600 {
                let p = c.stream_poll(name).expect("poll");
                if p.get("seq").and_then(Value::as_u64) == Some(test.len() as u64) {
                    drained = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(drained, "stream {name} never drained");
        }

        // The fleet section rides along in both stats expositions.
        let stats = c.stats().expect("stats");
        let fleet = stats
            .get("streams")
            .and_then(|s| s.get("fleet"))
            .expect("fleet counters in stats");
        assert_eq!(
            fleet.get("budget_bytes").and_then(Value::as_u64),
            Some(16 * 1024)
        );
        let evictions = fleet.get("evictions").and_then(Value::as_u64).unwrap_or(0);
        assert!(evictions > 0, "tiny budget must evict: {fleet:?}");
        let resident = fleet
            .get("resident_bytes")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        assert!(resident <= 16 * 1024, "residency over budget: {resident}");
        let text = c.stats_text().expect("stats text");
        assert!(text.contains("triad_fleet_evictions"), "{text}");

        // Eviction/rehydration is invisible in the close-time detection.
        let closed = c.stream_close("f1").expect("close");
        assert_eq!(closed.get("finalize_error"), Some(&Value::Null));
        let offline = detection_fields("f1", &fitted.detect(test));
        assert_eq!(
            closed.get("detection").map(|v| v.to_string()),
            Some(offline.to_string()),
            "fleet-streamed detection differs from offline"
        );

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
