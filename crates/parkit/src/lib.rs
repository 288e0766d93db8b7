//! # parkit — deterministic scoped-thread parallelism
//!
//! The workspace's parallel substrate: a work-stealing parallel map built
//! on [`std::thread::scope`] (no external dependencies) whose output is
//! **bit-identical at any worker count**, plus the index-keyed RNG stream
//! derivation that makes stochastic stages reproducible in parallel.
//!
//! ## The determinism contract
//!
//! Two rules make a parallel pipeline reproduce its serial output exactly:
//!
//! 1. **Results are keyed by logical index.** [`par_map`] returns
//!    `out[i] = f(i, &items[i])` in input order no matter which worker ran
//!    task `i` or in what order tasks finished.
//! 2. **Randomness is keyed by logical index, never by thread.** A task
//!    that needs noise derives its generator with [`stream_rng`] from
//!    `(base_seed, stream, index)` — attribute id, pair id, row-chunk id —
//!    so the draw sequence a task sees is a pure function of *what* it
//!    computes, not *where* it runs.
//!
//! Under these rules `workers = 1` and `workers = 64` produce the same
//! bytes, which is what the serial-vs-parallel equivalence tests in
//! `crates/core` pin down.
//!
//! ```
//! let squares = parkit::par_map(4, &[1u64, 2, 3, 4, 5], |i, &v| (i as u64, v * v));
//! assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16), (4, 25)]);
//! ```

#![warn(missing_docs)]

use obskit::names::{
    PARKIT_TASKS_TOTAL, PARKIT_TASK_NS, PARKIT_WORKER_BUSY_NS, PARKIT_WORKER_IDLE_NS,
};
use obskit::{MetricsSink, Stopwatch, Unit};
use rngkit::rngs::StdRng;
use rngkit::{RngCore, SeedableRng, SplitMix64};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default worker count: the `PARKIT_WORKERS` environment variable when
/// set (and positive), otherwise [`std::thread::available_parallelism`].
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("PARKIT_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the generator for logical task `index` of logical `stream`
/// under `base_seed`.
///
/// The derivation is three chained SplitMix64 scrambles (the same
/// seeding discipline as [`StdRng::seed_from_u64`]), so nearby
/// `(stream, index)` pairs land on statistically independent xoshiro
/// states. It is a pure function — independent of worker count,
/// scheduling, and call order — which is what the parallel pipeline's
/// determinism contract rests on.
pub fn stream_rng(base_seed: u64, stream: u64, index: u64) -> StdRng {
    let mut sm = SplitMix64::new(base_seed);
    let root = sm.next_u64();
    let mut sm = SplitMix64::new(root ^ stream);
    let branch = sm.next_u64();
    let mut sm = SplitMix64::new(branch ^ index);
    StdRng::seed_from_u64(sm.next_u64())
}

/// Splits `0..n` into contiguous ranges of at most `chunk` elements (the
/// last range may be shorter). `chunk == 0` is treated as 1; `n == 0`
/// yields no ranges.
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    if n == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// One sampling task of a row *window*: the intersection of the absolute
/// chunk `id` (rows `id*chunk .. (id+1)*chunk` of the conceptually
/// infinite row space) with a requested window, as produced by
/// [`chunk_windows`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkWindow {
    /// Absolute chunk id — the value that keys the chunk's RNG stream.
    pub id: usize,
    /// Rows of this chunk to generate-and-discard before the window
    /// starts (the window begins mid-chunk).
    pub skip: usize,
    /// Rows of this chunk inside the window.
    pub take: usize,
}

/// The row window `[offset, offset + n)` does not fit the `usize` row
/// space: `offset + n` overflows. Before this guard, the unchecked
/// addition panicked in debug builds and silently wrapped in release —
/// a wrapped `end` made [`chunk_windows`] return windows for the wrong
/// rows (or none at all), which a sharded deployment would serve as
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOverflow {
    /// Start of the requested window.
    pub offset: usize,
    /// Requested row count.
    pub n: usize,
}

impl std::fmt::Display for WindowOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row window [{}, {} + {}) overflows the addressable row space",
            self.offset, self.offset, self.n
        )
    }
}

impl std::error::Error for WindowOverflow {}

/// Splits the absolute row window `[offset, offset + n)` into the
/// chunk-aligned tasks of the fixed-`chunk` grid over `0..`. Each task
/// names its absolute chunk `id` plus how many leading rows of that
/// chunk fall before the window (`skip`) and how many are inside it
/// (`take`).
///
/// Because ids are absolute, a window's rows are the same bytes whether
/// they are produced by one call over `[0, N)` or any split
/// `[0, k)` + `[k, N)` — the foundation of the fit-once/sample-many
/// serving contract. `chunk == 0` is treated as 1; `n == 0` yields no
/// windows (including at `offset == usize::MAX`, the
/// offset-exactly-at-the-end edge); a window whose end `offset + n`
/// would overflow `usize` is rejected instead of wrapping.
pub fn try_chunk_windows(
    offset: usize,
    n: usize,
    chunk: usize,
) -> Result<Vec<ChunkWindow>, WindowOverflow> {
    let chunk = chunk.max(1);
    if n == 0 {
        return Ok(Vec::new());
    }
    let end = offset.checked_add(n).ok_or(WindowOverflow { offset, n })?;
    let first = offset / chunk;
    let last = (end - 1) / chunk;
    let mut out = Vec::with_capacity(last - first + 1);
    for id in first..=last {
        let chunk_start = id * chunk;
        let lo = chunk_start.max(offset);
        let hi = chunk_start.saturating_add(chunk).min(end);
        out.push(ChunkWindow {
            id,
            skip: lo - chunk_start,
            take: hi - lo,
        });
    }
    Ok(out)
}

/// Infallible [`try_chunk_windows`] for windows known to fit the row
/// space (every in-tree caller bounds `offset + n` by a dataset size).
///
/// # Panics
/// Panics with a descriptive message when `offset + n` overflows, in
/// debug *and* release builds — never wraps. Callers taking untrusted
/// window requests (the CLI, serving front-ends) should use
/// [`try_chunk_windows`] and surface the error instead.
pub fn chunk_windows(offset: usize, n: usize, chunk: usize) -> Vec<ChunkWindow> {
    try_chunk_windows(offset, n, chunk).unwrap_or_else(|e| panic!("{e}"))
}

/// Applies `f(index, &items[index])` to every item on up to `workers`
/// scoped threads and returns the results **in input order**.
///
/// Tasks are claimed from a shared atomic counter (work stealing), so an
/// expensive item does not serialise the items behind it; each result is
/// slotted back by its index, making the output independent of worker
/// count and scheduling. `workers <= 1`, an empty input, or a single item
/// run inline on the caller's thread with no spawn overhead.
///
/// # Panics
/// Re-raises the first worker panic on the calling thread.
pub fn par_map<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, f(i, &items[i])));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, u) in bucket {
            debug_assert!(slots[i].is_none(), "task {i} computed twice");
            slots[i] = Some(u);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task index claimed exactly once"))
        .collect()
}

/// [`par_map`] with per-chunk observability: records, into `sink` under
/// the `stage` label, the logical task count (`parkit_tasks_total`), a
/// per-task latency histogram (`parkit_task_ns`), total busy
/// nanoseconds across workers (`parkit_worker_busy_ns`), and the
/// residual idle/queue/spawn time (`parkit_worker_idle_ns` — effective
/// workers × fan-out wall time, minus busy time).
///
/// The mapping itself is exactly [`par_map`] — same output, same
/// determinism contract. Only the `Count`-unit task counter is part of
/// the deterministic snapshot; latencies are wall-clock. A disabled
/// sink skips straight to [`par_map`] with no timing reads at all.
pub fn par_map_observed<T, U, F>(
    workers: usize,
    items: &[T],
    sink: &MetricsSink,
    stage: &str,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    if !sink.enabled() {
        return par_map(workers, items, f);
    }
    let n = items.len();
    let labels = [("stage", stage)];
    sink.add_labeled(PARKIT_TASKS_TOTAL, &labels, Unit::Count, n as u64);
    let busy_ns = AtomicU64::new(0);
    let wall = Stopwatch::start();
    let out = par_map(workers, items, |i, t| {
        let task = Stopwatch::start();
        let u = f(i, t);
        let ns = task.elapsed_ns();
        busy_ns.fetch_add(ns, Ordering::Relaxed);
        sink.observe_labeled(PARKIT_TASK_NS, &labels, Unit::Nanos, ns);
        u
    });
    let wall_ns = wall.elapsed_ns();
    let effective = workers.clamp(1, n.max(1)) as u64;
    let busy = busy_ns.load(Ordering::Relaxed);
    sink.add_labeled(PARKIT_WORKER_BUSY_NS, &labels, Unit::Nanos, busy);
    sink.add_labeled(
        PARKIT_WORKER_IDLE_NS,
        &labels,
        Unit::Nanos,
        effective.saturating_mul(wall_ns).saturating_sub(busy),
    );
    out
}

/// A boxed unit of work for a [`TaskPool`].
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of long-lived worker threads draining a shared job
/// queue — the substrate for workloads whose tasks *arrive over time*
/// (accepted connections of a serving daemon) rather than existing up
/// front like [`par_map`]'s slice.
///
/// Jobs are claimed in FIFO order by whichever worker frees up first. A
/// job that panics is caught and discarded so one bad request cannot
/// shrink the pool; the panic is reported on stderr. Dropping the pool
/// closes the queue, lets the workers drain every job already submitted,
/// and joins them — no job submitted through a [`PoolPermit`] is lost.
///
/// The pool makes no determinism promise: unlike [`par_map`], job
/// *effects* happen in whatever order workers get to them. Anything that
/// must be reproducible (noise, sampling) still derives its randomness
/// from logical indices via [`stream_rng`], never from arrival order.
pub struct TaskPool {
    queue: Option<std::sync::mpsc::Sender<PoolJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    pending: std::sync::Arc<AtomicUsize>,
}

/// A bounded submission was refused: the pool already had `pending`
/// jobs queued or running, at or above the caller's `depth` bound.
/// The job was **not** enqueued; the caller sheds it (a serving
/// front-end answers 503) instead of queueing unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSaturated {
    /// Jobs queued or running at the moment of refusal.
    pub pending: usize,
    /// The caller's bound.
    pub depth: usize,
}

impl std::fmt::Display for PoolSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task pool saturated: {} jobs pending at depth bound {}",
            self.pending, self.depth
        )
    }
}

impl std::error::Error for PoolSaturated {}

/// A reserved pending slot of a [`TaskPool`], returned by
/// [`TaskPool::try_reserve`]. Consume it with [`PoolPermit::submit`];
/// dropping it unused releases the slot.
pub struct PoolPermit<'a> {
    pool: &'a TaskPool,
    armed: bool,
}

impl PoolPermit<'_> {
    /// Enqueues `job` against the reserved slot.
    pub fn submit(mut self, job: impl FnOnce() + Send + 'static) {
        self.armed = false;
        self.pool.send_reserved(Box::new(job));
    }
}

impl Drop for PoolPermit<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.pool.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl TaskPool {
    /// Spawns a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = std::sync::mpsc::channel::<PoolJob>();
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = std::sync::Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("parkit-pool-{i}"))
                    .spawn(move || loop {
                        // The lock guards only the receive; the job runs
                        // with the queue free for other workers.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => {
                                let run =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                                if run.is_err() {
                                    eprintln!("parkit: pool job panicked (worker continues)");
                                }
                            }
                            // Sender dropped: queue is closed and drained.
                            Err(_) => break,
                        }
                    })
                    .expect("spawn parkit pool worker")
            })
            .collect();
        Self {
            queue: Some(tx),
            workers: handles,
            pending: std::sync::Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued or running (submitted but not finished).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Reserves a pending slot if fewer than `depth` jobs are queued
    /// or running, refusing with [`PoolSaturated`] otherwise. The
    /// reservation counts toward [`TaskPool::pending`] until the
    /// permit is submitted (and its job finishes) or dropped — so a
    /// caller can decide what to move into the job *after* admission
    /// (a serving accept loop sheds the connection on refusal instead
    /// of losing it inside a rejected closure).
    pub fn try_reserve(&self, depth: usize) -> Result<PoolPermit<'_>, PoolSaturated> {
        let depth = depth.max(1);
        let mut current = self.pending.load(Ordering::Acquire);
        loop {
            if current >= depth {
                return Err(PoolSaturated {
                    pending: current,
                    depth,
                });
            }
            match self.pending.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(PoolPermit {
                        pool: self,
                        armed: true,
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Sends a job whose pending slot is already counted; the wrapper
    /// releases the slot when the job finishes, even by panic.
    fn send_reserved(&self, job: PoolJob) {
        struct SlotGuard(std::sync::Arc<AtomicUsize>);
        impl Drop for SlotGuard {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let guard = SlotGuard(std::sync::Arc::clone(&self.pending));
        self.queue
            .as_ref()
            .expect("pool queue open until drop")
            .send(Box::new(move || {
                let _slot = guard;
                job();
            }))
            .expect("pool workers outlive the queue");
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        drop(self.queue.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::RngCore;

    #[test]
    fn par_map_matches_serial_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| i as u64 * 3 + v)
            .collect();
        for workers in [1, 2, 3, 7, 16, 1000] {
            let par = par_map(workers, &items, |i, &v| i as u64 * 3 + v);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(8, &empty, |_, &v| v), Vec::<u32>::new());
        assert_eq!(par_map(8, &[9u32], |i, &v| v + i as u32), vec![9]);
    }

    #[test]
    fn uneven_task_durations_do_not_reorder_output() {
        // Early indices sleep longest; a finish-order bug would reverse.
        let items: Vec<u64> = (0..24).collect();
        let out = par_map(4, &items, |i, &v| {
            std::thread::sleep(std::time::Duration::from_micros(
                (items.len() - i) as u64 * 50,
            ));
            v * 10
        });
        assert_eq!(out, items.iter().map(|v| v * 10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "task panic propagates")]
    fn worker_panics_propagate() {
        let items = vec![0u32; 16];
        let _ = par_map(4, &items, |i, _| {
            if i == 7 {
                panic!("task panic propagates");
            }
            i
        });
    }

    #[test]
    fn stream_rng_is_pure_and_separates_streams() {
        let a1 = stream_rng(42, 1, 0).next_u64();
        let a2 = stream_rng(42, 1, 0).next_u64();
        assert_eq!(a1, a2, "same key, same stream");
        assert_ne!(a1, stream_rng(42, 1, 1).next_u64(), "index separates");
        assert_ne!(a1, stream_rng(42, 2, 0).next_u64(), "stream separates");
        assert_ne!(a1, stream_rng(43, 1, 0).next_u64(), "seed separates");
    }

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for (n, chunk) in [
            (0usize, 4usize),
            (1, 4),
            (4, 4),
            (5, 4),
            (1000, 256),
            (3, 0),
        ] {
            let ranges = chunk_ranges(n, chunk);
            let mut covered = vec![0u32; n];
            for r in &ranges {
                assert!(r.end <= n && r.start < r.end || n == 0);
                for i in r.clone() {
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "n={n} chunk={chunk}");
            if n > 0 {
                assert_eq!(ranges.len(), n.div_ceil(chunk.max(1)));
            } else {
                assert!(ranges.is_empty());
            }
        }
    }

    #[test]
    fn chunk_windows_cover_the_window_exactly() {
        for (offset, n, chunk) in [
            (0usize, 10usize, 4usize),
            (3, 10, 4),
            (4, 8, 4),
            (5, 1, 4),
            (1000, 513, 256),
            (7, 0, 4),
            (2, 3, 0),
        ] {
            let windows = chunk_windows(offset, n, chunk);
            let c = chunk.max(1);
            // Reconstruct covered rows; they must be offset..offset+n.
            let mut covered = Vec::new();
            for w in &windows {
                assert!(w.skip + w.take <= c, "window exceeds chunk size");
                let start = w.id * c + w.skip;
                covered.extend(start..start + w.take);
            }
            let expect: Vec<usize> = (offset..offset + n).collect();
            assert_eq!(covered, expect, "offset={offset} n={n} chunk={chunk}");
            if n == 0 {
                assert!(windows.is_empty());
            }
        }
    }

    #[test]
    fn chunk_windows_agree_with_chunk_ranges_at_offset_zero() {
        // At offset 0 the window grid is exactly the chunk_ranges grid:
        // same ids, no skips, same lengths.
        for (n, chunk) in [(10usize, 4usize), (4, 4), (1000, 256), (5, 64)] {
            let windows = chunk_windows(0, n, chunk);
            let ranges = chunk_ranges(n, chunk);
            assert_eq!(windows.len(), ranges.len());
            for (w, r) in windows.iter().zip(&ranges) {
                assert_eq!(w.id * chunk, r.start);
                assert_eq!(w.skip, 0);
                assert_eq!(w.take, r.len());
            }
        }
    }

    #[test]
    fn chunk_windows_split_is_seamless() {
        // Any split point produces the same chunk ids/rows as one call.
        let whole = chunk_windows(0, 100, 8);
        for k in [1usize, 7, 8, 9, 50, 99] {
            let mut rows_split = Vec::new();
            for w in chunk_windows(0, k, 8)
                .iter()
                .chain(&chunk_windows(k, 100 - k, 8))
            {
                let start = w.id * 8 + w.skip;
                rows_split.extend(start..start + w.take);
            }
            let mut rows_whole = Vec::new();
            for w in &whole {
                let start = w.id * 8 + w.skip;
                rows_whole.extend(start..start + w.take);
            }
            assert_eq!(rows_split, rows_whole, "split at {k}");
        }
    }

    #[test]
    fn try_chunk_windows_rejects_overflowing_windows() {
        let err = try_chunk_windows(usize::MAX - 3, 10, 8).unwrap_err();
        assert_eq!(
            err,
            WindowOverflow {
                offset: usize::MAX - 3,
                n: 10
            }
        );
        assert!(err.to_string().contains("overflows"), "{err}");
        // Zero-length at the very end, and a window ending exactly at
        // usize::MAX, are both representable.
        assert!(try_chunk_windows(usize::MAX, 0, 8).unwrap().is_empty());
        let fit = try_chunk_windows(usize::MAX - 4, 4, 8).unwrap();
        assert_eq!(fit.iter().map(|w| w.take).sum::<usize>(), 4);
    }

    #[test]
    #[should_panic(expected = "overflows the addressable row space")]
    fn chunk_windows_panics_instead_of_wrapping() {
        let _ = chunk_windows(usize::MAX, 2, 8);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    /// Submits `job` at a depth bound no test reaches.
    fn submit(pool: &TaskPool, job: impl FnOnce() + Send + 'static) {
        pool.try_reserve(usize::MAX)
            .expect("unbounded depth admits")
            .submit(job);
    }

    #[test]
    fn task_pool_runs_every_submitted_job() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = TaskPool::new(4);
            assert_eq!(pool.workers(), 4);
            for _ in 0..100 {
                let done = Arc::clone(&done);
                submit(&pool, move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop drains the queue before joining.
        }
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn task_pool_survives_panicking_jobs() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = TaskPool::new(2);
            for i in 0..20 {
                let done = Arc::clone(&done);
                submit(&pool, move || {
                    if i % 5 == 0 {
                        panic!("job {i} fails");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // 4 of 20 panic; the other 16 still run to completion.
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }

    /// Polls until the pool's pending count drains to `want` (bounded
    /// wait; the jobs in these tests finish in microseconds once
    /// released).
    fn wait_pending(pool: &TaskPool, want: usize) {
        for _ in 0..2000 {
            if pool.pending() == want {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("pool never drained to {want} (pending={})", pool.pending());
    }

    #[test]
    fn try_submit_saturates_at_depth_one_and_recovers_after_drain() {
        use std::sync::mpsc::channel;
        let pool = TaskPool::new(2);
        let (release, gate) = channel::<()>();
        let (started_tx, started) = channel::<()>();
        pool.try_reserve(1)
            .expect("empty pool admits at depth 1")
            .submit(move || {
                started_tx.send(()).unwrap();
                gate.recv().unwrap();
            });
        started
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("job runs");

        // One job in flight: depth 1 refuses, naming both numbers.
        let refused = pool.try_reserve(1).err().expect("depth 1 refuses");
        assert_eq!(
            refused,
            PoolSaturated {
                pending: 1,
                depth: 1
            }
        );
        assert!(refused.to_string().contains("depth bound 1"), "{refused}");
        // Depth 0 is clamped to 1, never a free pass.
        assert!(pool.try_reserve(0).is_err());
        // A larger bound still accepts (and raises pending).
        let (done_tx, done) = channel::<()>();
        submit(&pool, move || done_tx.send(()).unwrap());
        done.recv_timeout(std::time::Duration::from_secs(10))
            .expect("unbounded job still runs");

        // Draining the blocked job reopens bounded admission.
        release.send(()).unwrap();
        wait_pending(&pool, 0);
        pool.try_reserve(1)
            .expect("drained pool admits")
            .submit(|| {});
        wait_pending(&pool, 0);
    }

    #[test]
    fn try_submit_counts_queued_and_running_jobs_at_depth_four() {
        use std::sync::mpsc::channel;
        use std::sync::Arc;
        // One worker: job 1 runs, jobs 2-4 queue; all four count.
        let pool = TaskPool::new(1);
        let (release, gate) = channel::<()>();
        let gate = Arc::new(std::sync::Mutex::new(gate));
        let (started_tx, started) = channel::<()>();
        for i in 0..4 {
            let gate = Arc::clone(&gate);
            let started_tx = started_tx.clone();
            pool.try_reserve(4)
                .unwrap_or_else(|e| panic!("job {i} refused: {e}"))
                .submit(move || {
                    if i == 0 {
                        started_tx.send(()).unwrap();
                    }
                    gate.lock().unwrap().recv().unwrap();
                });
        }
        started
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("first job running");
        assert_eq!(pool.pending(), 4);
        let refused = pool.try_reserve(4).err().expect("depth 4 refuses");
        assert_eq!(
            refused,
            PoolSaturated {
                pending: 4,
                depth: 4
            }
        );
        // A larger bound still admits over the same backlog.
        let (done_tx, done) = channel::<()>();
        pool.try_reserve(5)
            .expect("depth 5 admits the fifth job")
            .submit(move || done_tx.send(()).unwrap());
        for _ in 0..5 {
            release.send(()).unwrap();
        }
        done.recv_timeout(std::time::Duration::from_secs(10))
            .expect("backlog drains in order");
        wait_pending(&pool, 0);
        pool.try_reserve(4)
            .expect("drained pool admits")
            .submit(|| {});
        wait_pending(&pool, 0);
    }

    #[test]
    fn dropped_permit_releases_its_slot_and_panics_release_too() {
        let pool = TaskPool::new(1);
        {
            let _permit = pool.try_reserve(1).expect("reserve");
            assert_eq!(pool.pending(), 1);
            assert!(pool.try_reserve(1).is_err(), "slot held by live permit");
        }
        assert_eq!(pool.pending(), 0, "dropped permit releases");

        // A panicking job must release its slot on unwind.
        pool.try_reserve(1)
            .expect("admitted before the panic")
            .submit(|| panic!("job panics"));
        wait_pending(&pool, 0);
        pool.try_reserve(1).expect("slot released").submit(|| {});
        wait_pending(&pool, 0);
    }

    #[test]
    fn task_pool_clamps_to_one_worker() {
        let pool = TaskPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        submit(&pool, move || tx.send(7u32).expect("receiver alive"));
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(7));
    }

    #[test]
    fn par_map_observed_matches_par_map_and_records() {
        use std::sync::Arc;
        let items: Vec<u64> = (0..37).collect();
        let plain = par_map(4, &items, |i, &v| i as u64 + v * v);

        // Disabled sink: identical output, nothing recorded.
        let off = MetricsSink::off();
        assert_eq!(
            par_map_observed(4, &items, &off, "margins", |i, &v| i as u64 + v * v),
            plain
        );

        let registry = Arc::new(obskit::MetricsRegistry::new());
        let sink = MetricsSink::to_registry(registry.clone());
        for workers in [1usize, 3, 8] {
            let observed =
                par_map_observed(workers, &items, &sink, "margins", |i, &v| i as u64 + v * v);
            assert_eq!(observed, plain, "workers={workers}");
        }
        let snap = registry.snapshot();
        let tasks = snap
            .get(r#"parkit_tasks_total{stage="margins"}"#)
            .and_then(|e| e.value.as_u64());
        assert_eq!(tasks, Some(3 * items.len() as u64));
        let lat = snap
            .get(r#"parkit_task_ns{stage="margins"}"#)
            .and_then(|e| e.value.as_hist())
            .expect("latency histogram recorded");
        assert_eq!(lat.count, 3 * items.len() as u64);
        assert!(snap
            .get(r#"parkit_worker_busy_ns{stage="margins"}"#)
            .is_some());
        assert!(snap
            .get(r#"parkit_worker_idle_ns{stage="margins"}"#)
            .is_some());
    }
}
