//! Deterministic, work-stealing-free data parallelism for the TriAD
//! workspace.
//!
//! The design goal is **thread-count invariance**: every combinator here
//! produces bit-identical results whether it runs on 1, 2, 4, or 8 workers,
//! so `TRIAD_THREADS` is a pure performance knob that can never change a
//! detection. Three rules make that hold:
//!
//! 1. **Static partitioning.** Work is split into contiguous index ranges
//!    decided only by `(n, workers)` — never by which worker finishes first.
//!    There is no work stealing and no shared counter; the schedule is a
//!    pure function of the input size.
//! 2. **Ordered assembly.** Results come back tagged with their input index
//!    (over a `crossbeam` channel) and are reassembled in index order, so
//!    the output vector is independent of completion order.
//! 3. **Caller-side exact reduction.** Combinators only *map*; any
//!    floating-point reduction stays at the call site, in a fixed serial
//!    order (or uses an exactly associative fold like `f64::min`).
//!
//! Thread counts are carried by an **ambient context** ([`with_ambient`])
//! rather than threaded through every call signature: pipeline entry points
//! set it once from their config, and the hot kernels deep inside `neuro`
//! pick it up with [`ambient`]. Worker threads are flagged so nested
//! parallel regions degrade to serial instead of oversubscribing.

#![forbid(unsafe_code)]

pub mod reduce;

use std::cell::Cell;
use std::ops::Range;

/// Environment variable consulted when no explicit thread count is set
/// anywhere (config field 0 and no ambient override).
pub const THREADS_ENV: &str = "TRIAD_THREADS";

/// Upper bound applied to *auto-detected* parallelism. Explicit requests
/// (config, env var) are honoured as given.
const AUTO_CAP: usize = 8;

thread_local! {
    /// Requested thread count for the current scope (`None` = unset).
    static AMBIENT: Cell<Option<usize>> = const { Cell::new(None) };
    /// True on pool worker threads: nested regions must run serial.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// A resolved degree of parallelism (`workers >= 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    workers: usize,
}

impl Parallelism {
    /// Resolve a requested thread count. `0` means *auto*: take
    /// [`THREADS_ENV`] if set and positive, otherwise the machine's
    /// available parallelism (capped at 8). Inside a pool worker the answer
    /// is always 1 — nested regions serialise instead of oversubscribing.
    pub fn resolve(requested: usize) -> Self {
        if IN_POOL.with(|c| c.get()) {
            return Parallelism { workers: 1 };
        }
        let workers = if requested > 0 {
            requested
        } else if let Some(n) = env_threads() {
            n
        } else {
            cores().min(AUTO_CAP)
        };
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// Exactly one worker: every combinator runs inline.
    pub fn serial() -> Self {
        Parallelism { workers: 1 }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Cap the worker count so each worker gets at least `min_per_worker`
    /// units out of `work` total — the threshold gate that keeps tiny
    /// kernels serial (spawning threads for microseconds of math is a
    /// slowdown, not a speedup). Never returns more workers than `self`.
    pub fn for_work(self, work: usize, min_per_worker: usize) -> Self {
        let useful = if min_per_worker == 0 {
            self.workers
        } else {
            work / min_per_worker
        };
        Parallelism {
            workers: self.workers.min(useful.max(1)),
        }
    }
}

/// The machine's available parallelism (1 if it cannot be read), uncapped.
/// Reported next to measurements so a thread count can be read against the
/// cores that actually ran it.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Run `f` with the ambient requested thread count set to `requested`
/// (restored afterwards, including on unwind). Entry points — `fit`,
/// `detect`, stream scoring, the bench harness — wrap their bodies in this;
/// kernels read it back with [`ambient`].
pub fn with_ambient<R>(requested: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|a| a.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT.with(|a| a.replace(Some(requested))));
    f()
}

/// The ambient parallelism for the current thread: the innermost
/// [`with_ambient`] request, resolved. Without any enclosing scope this is
/// `resolve(0)` (env var, then auto-detect).
pub fn ambient() -> Parallelism {
    Parallelism::resolve(AMBIENT.with(|a| a.get()).unwrap_or(0))
}

/// Balanced contiguous partition of `0..n` into `workers` ranges (the first
/// `n % workers` ranges get one extra item). Ranges may be empty when
/// `n < workers`; concatenated in order they cover `0..n` exactly.
pub fn split_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let w = workers.max(1);
    let base = n / w;
    let extra = n % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0usize;
    for i in 0..w {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Propagate a worker panic out of a [`crossbeam::scope`] result.
fn check_scope<R>(r: Result<R, Box<dyn std::any::Any + Send>>) -> R {
    match r {
        Ok(v) => v,
        // lint-allow(no-panic): a worker panicked; re-raising on the caller
        // thread preserves std::thread::scope semantics.
        Err(_) => panic!("parallel worker panicked"),
    }
}

/// Map `f` over `items`, returning results in input order regardless of
/// worker count or completion order. Worker `w` owns the `w`-th contiguous
/// range of indices and walks it in ascending order; results travel back
/// tagged with their index over a `crossbeam` channel and are reassembled
/// positionally. `f(i, &items[i])` must be pure for thread-count invariance.
pub fn map_indexed<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let w = par.workers().min(n.max(1));
    if w <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ranges = split_ranges(n, w);
    // lint-allow(no-unwrap): split_ranges returns exactly w >= 2 ranges here
    let (own, spawned) = ranges.split_first().expect("w >= 1 ranges");
    let mut region = obs::span("parallel-region");
    region.add_field("kind", "map_indexed");
    region.add_field("workers", w);
    region.add_field("items", n);
    let region_id = region.id();
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, R)>();
    let f = &f;
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    check_scope(crossbeam::scope(|s| {
        for range in spawned.iter().cloned() {
            let tx = tx.clone();
            s.spawn(move |_| {
                let _pool = PoolGuard::enter();
                let mut worker = obs::span_with_parent("worker", region_id);
                worker.add_field("items", range.len());
                for i in range {
                    // A send only fails when the receiver is gone, i.e. the
                    // caller side already panicked; results are moot then.
                    let _ = tx.send((i, f(i, &items[i])));
                }
            });
        }
        drop(tx);
        {
            let _pool = PoolGuard::enter();
            let mut worker = obs::span_with_parent("worker", region_id);
            worker.add_field("items", own.len());
            for i in own.clone() {
                slots[i] = Some(f(i, &items[i]));
            }
        }
        while let Ok((i, r)) = rx.recv() {
            slots[i] = Some(r);
        }
    }));
    slots
        .into_iter()
        // lint-allow(no-unwrap): the w ranges partition 0..n, so every slot
        // was filled by its owning worker (or the scope already panicked)
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

/// Apply `f` to each of the `workers` contiguous ranges of `0..n`,
/// returning the per-range results **in range order**. The intended use is
/// exact parallel reductions: each worker reduces its own range, and the
/// caller folds the returned partials in a fixed order (or with an exactly
/// associative operation such as `f64::min`).
pub fn map_ranges<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let w = par.workers().min(n.max(1)).max(1);
    if w <= 1 {
        return vec![f(0..n)];
    }
    let ranges = split_ranges(n, w);
    // lint-allow(no-unwrap): split_ranges returns exactly w >= 2 ranges here
    let (own, spawned) = ranges.split_first().expect("w >= 1 ranges");
    let mut region = obs::span("parallel-region");
    region.add_field("kind", "map_ranges");
    region.add_field("workers", w);
    region.add_field("items", n);
    let region_id = region.id();
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, R)>();
    let f = &f;
    let mut slots: Vec<Option<R>> = (0..w).map(|_| None).collect();
    check_scope(crossbeam::scope(|s| {
        for (k, range) in spawned.iter().cloned().enumerate() {
            let tx = tx.clone();
            s.spawn(move |_| {
                let _pool = PoolGuard::enter();
                let mut worker = obs::span_with_parent("worker", region_id);
                worker.add_field("items", range.len());
                let _ = tx.send((k + 1, f(range)));
            });
        }
        drop(tx);
        {
            let _pool = PoolGuard::enter();
            let mut worker = obs::span_with_parent("worker", region_id);
            worker.add_field("items", own.len());
            slots[0] = Some(f(own.clone()));
        }
        while let Ok((k, r)) = rx.recv() {
            slots[k] = Some(r);
        }
    }));
    slots
        .into_iter()
        // lint-allow(no-unwrap): slot k is filled by range k's worker, and a
        // worker panic already propagated through check_scope
        .map(|s| s.expect("every range produced exactly once"))
        .collect()
}

/// Fill a row-major buffer in parallel: `buf` is `rows × row_len`, each
/// worker receives a contiguous row range and the matching disjoint
/// `&mut` sub-slice. Because every row is written by exactly one worker and
/// row content depends only on the row index, the result is bit-identical
/// at any worker count.
pub fn fill_rows<T, F>(par: Parallelism, buf: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(buf.len() % row_len, 0, "buffer must be whole rows");
    let rows = buf.len() / row_len;
    let w = par.workers().min(rows.max(1)).max(1);
    if w <= 1 {
        f(0..rows, buf);
        return;
    }
    let ranges = split_ranges(rows, w);
    let mut parts: Vec<(Range<usize>, &mut [T])> = Vec::with_capacity(w);
    let mut rest = buf;
    for range in ranges {
        let take = range.len() * row_len;
        let (head, tail) = rest.split_at_mut(take);
        parts.push((range, head));
        rest = tail;
    }
    let f = &f;
    let mut region = obs::span("parallel-region");
    region.add_field("kind", "fill_rows");
    region.add_field("workers", w);
    region.add_field("items", rows);
    let region_id = region.id();
    check_scope(crossbeam::scope(|s| {
        let mut iter = parts.into_iter();
        // lint-allow(no-unwrap): parts has exactly w >= 2 entries by construction
        let own = iter.next().expect("w >= 1 parts");
        for (range, chunk) in iter {
            s.spawn(move |_| {
                let _pool = PoolGuard::enter();
                let mut worker = obs::span_with_parent("worker", region_id);
                worker.add_field("items", range.len());
                f(range, chunk);
            });
        }
        let _pool = PoolGuard::enter();
        let mut worker = obs::span_with_parent("worker", region_id);
        worker.add_field("items", own.0.len());
        f(own.0, own.1);
    }));
}

/// RAII marker flagging the current thread as a pool worker for its
/// lifetime, so [`Parallelism::resolve`] serialises nested regions.
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> Self {
        PoolGuard {
            prev: IN_POOL.with(|c| c.replace(true)),
        }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for w in [1usize, 2, 3, 4, 8, 13] {
                let ranges = split_ranges(n, w);
                assert_eq!(ranges.len(), w);
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (
                    *lens.iter().min().expect("w >= 1"),
                    *lens.iter().max().expect("w >= 1"),
                );
                assert!(hi - lo <= 1, "unbalanced split {lens:?}");
            }
        }
    }

    #[test]
    fn map_indexed_is_worker_count_invariant() {
        let items: Vec<f64> = (0..97).map(|i| (i as f64).sin()).collect();
        let serial = map_indexed(Parallelism::serial(), &items, |i, x| x * i as f64);
        for w in [2usize, 3, 4, 8] {
            let par = map_indexed(Parallelism { workers: w }, &items, |i, x| x * i as f64);
            assert_eq!(serial, par, "workers={w}");
        }
    }

    #[test]
    fn map_ranges_partials_fold_exactly_for_min() {
        let items: Vec<f64> = (0..1000).map(|i| ((i * 37) % 97) as f64).collect();
        let serial = items.iter().cloned().fold(f64::INFINITY, f64::min);
        for w in [1usize, 2, 4, 8] {
            let partials = map_ranges(Parallelism { workers: w }, items.len(), |r| {
                items[r].iter().cloned().fold(f64::INFINITY, f64::min)
            });
            assert_eq!(partials.len(), w.min(items.len()));
            let m = partials.into_iter().fold(f64::INFINITY, f64::min);
            assert_eq!(m, serial);
        }
    }

    #[test]
    fn fill_rows_matches_serial() {
        let rows = 33usize;
        let row_len = 7usize;
        let mut serial = vec![0.0f32; rows * row_len];
        fill_rows(Parallelism::serial(), &mut serial, row_len, |range, out| {
            for (k, row) in range.clone().zip(out.chunks_mut(row_len)) {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (k * 31 + j) as f32;
                }
            }
        });
        for w in [2usize, 4, 8] {
            let mut buf = vec![0.0f32; rows * row_len];
            fill_rows(
                Parallelism { workers: w },
                &mut buf,
                row_len,
                |range, out| {
                    for (k, row) in range.clone().zip(out.chunks_mut(row_len)) {
                        for (j, v) in row.iter_mut().enumerate() {
                            *v = (k * 31 + j) as f32;
                        }
                    }
                },
            );
            assert_eq!(serial, buf, "workers={w}");
        }
    }

    #[test]
    fn nested_regions_serialise() {
        let outer = Parallelism { workers: 4 };
        let depths = map_indexed(outer, &[(); 8], |_, _| ambient().workers());
        // Every item observed ambient()==1: either it ran on a pool worker
        // (flagged) or on the caller thread *inside* no with_ambient scope —
        // pin that down by wrapping in an explicit serial ambient.
        with_ambient(1, || {
            let depths = map_indexed(outer, &[(); 8], |_, _| ambient().workers());
            assert!(depths.iter().all(|&d| d == 1), "{depths:?}");
        });
        // Pool workers are always serial regardless of the ambient request.
        with_ambient(8, || {
            let on_workers = map_indexed(outer, &[(); 8], |_, _| ambient().workers());
            assert!(on_workers.iter().all(|&d| d == 1), "{on_workers:?}");
        });
        drop(depths);
    }

    #[test]
    fn ambient_scope_sets_and_restores() {
        with_ambient(3, || {
            assert_eq!(ambient().workers(), 3);
            with_ambient(5, || assert_eq!(ambient().workers(), 5));
            assert_eq!(ambient().workers(), 3);
        });
    }

    #[test]
    fn ambient_restored_after_panic() {
        with_ambient(2, || {
            let r = std::panic::catch_unwind(|| with_ambient(7, || panic!("boom")));
            assert!(r.is_err());
            assert_eq!(ambient().workers(), 2);
        });
    }

    #[test]
    fn worker_panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            map_indexed(
                Parallelism { workers: 4 },
                &[1u32, 2, 3, 4, 5, 6],
                |i, _| {
                    if i == 5 {
                        panic!("worker down");
                    }
                    i
                },
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn for_work_gates_small_kernels() {
        let par = Parallelism { workers: 8 };
        assert_eq!(par.for_work(100, 1000).workers(), 1);
        assert_eq!(par.for_work(4000, 1000).workers(), 4);
        assert_eq!(par.for_work(1_000_000, 1000).workers(), 8);
        assert_eq!(par.for_work(123, 0).workers(), 8);
    }

    #[test]
    fn resolve_honours_explicit_requests() {
        assert_eq!(Parallelism::resolve(3).workers(), 3);
        assert!(Parallelism::resolve(0).workers() >= 1);
    }
}
