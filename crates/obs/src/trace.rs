//! Span recording: the enabled gate, id allocation, per-thread buffers and
//! the global collector.
//!
//! The writer path is lock-free: a finished span goes into a bounded
//! `thread_local!` buffer. The buffer drains into the global collector
//! (one short `Mutex` push) only when the thread's span stack empties —
//! i.e. between top-level units of work — so no lock is ever taken while a
//! span is open. If one unit of work overflows the buffer, the newest
//! records are dropped and counted; [`take_records`] re-roots any span
//! whose ancestor was dropped so exported traces never contain orphan
//! parent links.

use crate::clock;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// One finished span. `parent == 0` means a root span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    /// Logical thread id (allocated per thread on first use, dense from 1).
    pub tid: u64,
    pub name: &'static str,
    /// Nanoseconds since the shared clock epoch ([`crate::clock::now_ns`]).
    pub start_ns: u64,
    pub end_ns: u64,
    pub fields: Vec<(&'static str, String)>,
}

// ------------------------------------------------------------- enabled gate

/// Tri-state so the steady-state check is a single relaxed load:
/// 0 = uninitialised, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Is tracing on? The disabled path is exactly this one relaxed load
/// (after a one-time lazy read of `TRIAD_TRACE`).
#[inline]
pub fn enabled() -> bool {
    // relaxed-ok: the gate is an independent flag; span correctness never
    // depends on ordering against other memory, only on whether we record.
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("TRIAD_TRACE")
        .map(|v| !matches!(v.as_str(), "" | "0" | "false" | "off"))
        .unwrap_or(false);
    // relaxed-ok: idempotent lazy init; racing threads store the same value.
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Force tracing on or off, overriding `TRIAD_TRACE`.
pub fn set_enabled(on: bool) {
    // relaxed-ok: independent flag, see `enabled`.
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Apply `TriadConfig::trace`: `true` force-enables; `false` defers to the
/// environment (so `TRIAD_TRACE=1` still works with a default config).
pub fn enable_from_config(trace: bool) {
    if trace {
        set_enabled(true);
    }
}

// ---------------------------------------------------------------- counters

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn alloc_id() -> u64 {
    // relaxed-ok: unique-id allocation; only uniqueness matters, not order.
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Total spans recorded into thread buffers since process start.
pub fn spans_recorded() -> u64 {
    // relaxed-ok: monitoring read; staleness is fine.
    RECORDED.load(Ordering::Relaxed)
}

/// Total spans dropped (buffer full or reentrant recording) since start.
pub fn spans_dropped() -> u64 {
    // relaxed-ok: monitoring read; staleness is fine.
    DROPPED.load(Ordering::Relaxed)
}

// ------------------------------------------------------ per-thread buffers

/// Per-thread buffer capacity; beyond this, new records are dropped (and
/// counted) until the next drain at quiescence. Bounds memory at roughly
/// 100 bytes × this per live thread.
const RING_CAPACITY: usize = 16_384;

struct ThreadBuf {
    tid: u64,
    records: Vec<SpanRecord>,
    /// Open-span stack; `last()` is the implicit parent for new spans.
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        // relaxed-ok: unique-id allocation; only uniqueness matters.
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        records: Vec::new(),
        stack: Vec::new(),
    });
}

/// The global collector. Only ever locked for short, I/O-free pushes and
/// the final drain in [`take_records`].
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn push_record(buf: &mut ThreadBuf, rec: SpanRecord) {
    if buf.records.len() >= RING_CAPACITY {
        // relaxed-ok: monotone drop tally; monitoring only.
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.records.push(rec);
    // relaxed-ok: monotone tally; monitoring only.
    RECORDED.fetch_add(1, Ordering::Relaxed);
}

/// Drain this thread's buffer into the global collector. Called
/// automatically when the span stack empties; long-lived threads that
/// never close a top-level span may call it explicitly.
pub fn flush_thread() {
    let pending = TLS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => std::mem::take(&mut buf.records),
        Err(_) => Vec::new(),
    });
    if pending.is_empty() {
        return;
    }
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.extend(pending);
}

/// Drain everything flushed so far, across all threads, and re-root spans
/// whose ancestors were dropped (so parent links always resolve). Spans
/// still open, and records buffered on threads that have not flushed, are
/// not included — call after the traced workload has fully quiesced.
pub fn take_records() -> Vec<SpanRecord> {
    flush_thread();
    let mut recs = {
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *sink)
    };
    let ids: HashSet<u64> = recs.iter().map(|r| r.id).collect();
    for r in &mut recs {
        if r.parent != 0 && !ids.contains(&r.parent) {
            r.parent = 0;
        }
    }
    recs
}

// -------------------------------------------------------------- span guard

/// RAII handle for an open span; records on drop. `id == 0` marks the
/// disabled no-op variant.
pub struct SpanGuard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// This span's id, or 0 when tracing is disabled.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a key/value field. No-op (and no allocation) when disabled.
    pub fn add_field(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if self.id != 0 {
            self.fields.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            tid: 0, // filled from the thread buffer below
            name: self.name,
            start_ns: self.start_ns,
            end_ns: clock::now_ns(),
            fields: std::mem::take(&mut self.fields),
        };
        finish_span(self.id, rec);
    }
}

fn finish_span(id: u64, mut rec: SpanRecord) {
    let flush_now = TLS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            rec.tid = buf.tid;
            // Robust against out-of-order drops: remove our own entry
            // wherever it sits, not just the top.
            if let Some(pos) = buf.stack.iter().rposition(|&x| x == id) {
                buf.stack.remove(pos);
            }
            push_record(&mut buf, rec);
            buf.stack.is_empty()
        }
        Err(_) => {
            // relaxed-ok: monotone drop tally; monitoring only.
            DROPPED.fetch_add(1, Ordering::Relaxed);
            false
        }
    });
    if flush_now {
        flush_thread();
    }
}

/// Open a span parented to the current thread's innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            fields: Vec::new(),
        };
    }
    let start_ns = clock::now_ns();
    let id = alloc_id();
    let parent = TLS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            let p = buf.stack.last().copied().unwrap_or(0);
            buf.stack.push(id);
            p
        }
        Err(_) => 0,
    });
    SpanGuard {
        id,
        parent,
        name,
        start_ns,
        fields: Vec::new(),
    }
}

/// Open a span with an explicit parent id — for work handed to another
/// thread (parallel workers, evalbed tasks), where the thread-local stack
/// cannot see the logical parent. The span still joins this thread's stack
/// so its own children nest under it.
pub fn span_with_parent(name: &'static str, parent: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            fields: Vec::new(),
        };
    }
    let start_ns = clock::now_ns();
    let id = alloc_id();
    TLS.with(|cell| {
        if let Ok(mut buf) = cell.try_borrow_mut() {
            buf.stack.push(id);
        }
    });
    SpanGuard {
        id,
        parent,
        name,
        start_ns,
        fields: Vec::new(),
    }
}

/// The innermost open span on this thread (0 if none) — pass this across
/// threads to [`span_with_parent`].
pub fn current_span_id() -> u64 {
    TLS.with(|cell| match cell.try_borrow() {
        Ok(buf) => buf.stack.last().copied().unwrap_or(0),
        Err(_) => 0,
    })
}

/// Record an already-measured interval as a span (parented to the current
/// open span). For code that measured `start_ns`/`end_ns` itself — e.g.
/// per-window scoring where a guard per window would be wasteful unless a
/// window actually completed. Returns the span id (0 when disabled).
pub fn record_span(
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    fields: Vec<(&'static str, String)>,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = alloc_id();
    let flush_now = TLS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            let rec = SpanRecord {
                id,
                parent: buf.stack.last().copied().unwrap_or(0),
                tid: buf.tid,
                name,
                start_ns,
                end_ns,
                fields,
            };
            push_record(&mut buf, rec);
            buf.stack.is_empty()
        }
        Err(_) => {
            // relaxed-ok: monotone drop tally; monitoring only.
            DROPPED.fetch_add(1, Ordering::Relaxed);
            false
        }
    });
    if flush_now {
        flush_thread();
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording tests share global state (the gate, the sink); serialise
    /// them and drain the sink at entry so parallel test threads cannot
    /// interleave records.
    fn lock_and_reset() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        let g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let _ = take_records();
        g
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _g = lock_and_reset();
        set_enabled(false);
        let before = spans_recorded();
        {
            let mut s = span("quiet");
            s.add_field("k", 1);
            assert_eq!(s.id(), 0);
        }
        assert_eq!(record_span("manual", 1, 2, Vec::new()), 0);
        assert_eq!(spans_recorded(), before);
        assert!(take_records().is_empty());
        set_enabled(true);
    }

    #[test]
    fn nesting_links_parents_on_one_thread() {
        let _g = lock_and_reset();
        {
            let outer = span("outer");
            let outer_id = outer.id();
            {
                let inner = span("inner");
                assert_eq!(current_span_id(), inner.id());
            }
            assert_eq!(current_span_id(), outer_id);
        }
        let recs = take_records();
        let outer = recs.iter().find(|r| r.name == "outer").expect("outer");
        let inner = recs.iter().find(|r| r.name == "inner").expect("inner");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let _g = lock_and_reset();
        let region_id = {
            let region = span("region");
            let rid = region.id();
            let t = std::thread::Builder::new()
                .name("obs-test-worker".into())
                .spawn(move || {
                    let w = span_with_parent("worker", rid);
                    drop(w);
                    flush_thread();
                })
                .expect("spawn");
            t.join().expect("join");
            rid
        };
        let recs = take_records();
        let worker = recs.iter().find(|r| r.name == "worker").expect("worker");
        let region = recs.iter().find(|r| r.name == "region").expect("region");
        assert_eq!(worker.parent, region_id);
        assert_ne!(worker.tid, region.tid);
    }

    #[test]
    fn manual_record_parents_to_open_span_and_keeps_fields() {
        let _g = lock_and_reset();
        let parent_id = {
            let p = span("ingest");
            let id = record_span("score", 10, 20, vec![("stream", "s1".to_string())]);
            assert_ne!(id, 0);
            p.id()
        };
        let recs = take_records();
        let score = recs.iter().find(|r| r.name == "score").expect("score");
        assert_eq!(score.parent, parent_id);
        assert_eq!(score.start_ns, 10);
        assert_eq!(score.end_ns, 20);
        assert_eq!(score.fields, vec![("stream", "s1".to_string())]);
    }

    #[test]
    fn overflow_drops_newest_and_take_reroots_orphans() {
        let _g = lock_and_reset();
        {
            let _outer = span("outer-of-flood");
            // Flood the buffer past capacity while the stack is non-empty so
            // nothing drains early; the tail (including, eventually, the
            // outer span itself) is dropped and counted.
            let dropped_before = spans_dropped();
            for _ in 0..(RING_CAPACITY + 10) {
                let _ = record_span("flood", 0, 1, Vec::new());
            }
            assert!(spans_dropped() > dropped_before);
        }
        let recs = take_records();
        assert!(recs.len() <= RING_CAPACITY);
        // Every parent link in the drained set resolves (orphans re-rooted).
        let ids: HashSet<u64> = recs.iter().map(|r| r.id).collect();
        assert!(recs
            .iter()
            .all(|r| r.parent == 0 || ids.contains(&r.parent)));
    }
}
