//! The parallel execution layer: a reusable worker pool with deterministic
//! task scheduling semantics.
//!
//! PINQ's declarative form is what lets analyses scale out (the paper's
//! footnote: "because it is based on LINQ, the analyses will also
//! automatically scale to a cluster (DryadLINQ)"). The single-machine analog
//! is an [`ExecPool`]: a validated worker count plus a work-claiming
//! protocol that every parallel kernel in the engine shares.
//!
//! ## Execution model
//!
//! A pool run takes `n` independent tasks. Workers claim task indices from a
//! shared atomic counter — the single-injector analog of work stealing: an
//! idle worker always finds the next unclaimed task, so load balances even
//! when task costs are skewed. Each worker writes its result directly into
//! a preallocated per-task slot (one writer per slot, so the slot locks are
//! never contended), and after the workers join the pool unwraps the slots
//! **in task order**. There is no result channel and no post-join drain
//! loop — completing in order costs nothing beyond the slot write. Threads
//! are scoped ([`std::thread::scope`]), so tasks may freely borrow from the
//! caller's stack; the crate-wide `forbid(unsafe_code)` holds.
//!
//! ## Determinism contract
//!
//! Every kernel built on the pool must produce bit-for-bit identical output
//! for *any* worker count at a fixed seed. Two rules make that hold:
//!
//! 1. **Fixed decomposition, ordered merge.** Work is split at positions
//!    that depend only on the input length and the pool's
//!    [chunk size](ExecPool::chunk_size) — never on the worker count — and
//!    partial results are merged in task-index order. Chunked reductions
//!    (e.g. a clamped sum) therefore associate identically no matter which
//!    worker computed which chunk.
//! 2. **No racing on randomness.** Tasks that draw noise get a private
//!    [`crate::rng::NoiseSource`] substream, derived by the coordinating
//!    thread in task order before dispatch (see
//!    [`NoiseSource::substream`](crate::rng::NoiseSource::substream)).
//!
//! ## Memory rule
//!
//! A pool task allocates nothing that outlives it. Every buffer a task
//! fills (an output slice, a pre-sized map) is allocated by the calling
//! thread and handed to the task, usually as a `Mutex<&mut [_]>` split off
//! one caller-owned vector; results a task returns are small values.
//! glibc gives each thread that allocates its own arena and keeps freed
//! arena memory mapped, so memory a worker allocates for the caller to
//! keep stays resident after it is freed. A variant of the grouping kernel
//! whose workers allocated their own scatter buffers and member lists ran
//! dpbench `batch-retx` 1.3–1.5× faster than the single-map kernel before
//! it, as the caller-allocated kernel does, but raised its `peak_rss_mb`
//! from 51 to 76–95 MB, and `MALLOC_ARENA_MAX=1` brought it back to 51 MB
//! (2-vCPU KVM guest, seed 11): the extra memory was per-thread arenas.
//!
//! The kernels' layouts under this rule:
//!
//! - grouping (`group.rs`): a hash array, part maps pre-sized to each
//!   part, and local-id and size arrays, each split into per-task slices;
//! - `partition`: one `Vec<u32>` of each record's part index, split per
//!   chunk; the calling thread then sizes each part exactly and fills the
//!   parts in record order;
//! - `partition_noisy_counts`: one `min(workers, chunks) × keys` count
//!   matrix, one row per task, summed by the calling thread. When each
//!   chunk kept its own histogram instead, `frequent_strings`' 131,072
//!   keys held about 22 one-megabyte histograms alive at once.
//!
//! Privacy semantics are untouched: the pool never talks to the accountant;
//! kernels charge the same at every worker count, and the budget/ledger
//! types are already thread-safe for the concurrent spends.

use crate::error::{Error, Result};
use dpnet_obs::span;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of records per chunk for chunked kernels. Chosen large
/// enough that per-task overhead (claim, channel send) is negligible and
/// small enough that a few hundred thousand records still split into enough
/// tasks to balance across workers.
pub const DEFAULT_CHUNK: usize = 8192;

/// A reusable worker-pool configuration for parallel kernels.
///
/// The pool is cheap to clone and carries no threads of its own: each
/// [`ExecPool::run`] spawns scoped workers for the duration of the call
/// (borrowed data in tasks rules out long-lived `'static` threads under
/// `forbid(unsafe_code)`).
///
/// ```
/// use pinq::exec::ExecPool;
///
/// let pool = ExecPool::new(4).unwrap();
/// let squares = pool.run(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
///
/// // Zero workers is an explicit error, not a silent clamp.
/// assert!(ExecPool::new(0).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ExecPool {
    workers: usize,
    chunk: usize,
}

impl ExecPool {
    /// Create a pool with `workers` worker threads per run.
    ///
    /// `workers: 0` returns [`Error::InvalidWorkers`].
    pub fn new(workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(Error::InvalidWorkers(0));
        }
        Ok(ExecPool {
            workers,
            chunk: DEFAULT_CHUNK,
        })
    }

    /// The single-worker pool: every kernel degenerates to a plain
    /// sequential loop on the calling thread.
    pub fn sequential() -> Self {
        ExecPool {
            workers: 1,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Number of workers a run may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Records per chunk used by chunked kernels.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Override the chunk size (mainly for tests and benchmarks).
    ///
    /// Chunk boundaries are part of a kernel's output identity for floating
    /// point reductions: runs with *different* chunk sizes may associate
    /// sums differently. Runs with different worker counts and the same
    /// chunk size always agree.
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// Fixed-size chunk ranges over `len` items (worker-count independent).
    pub fn chunks(&self, len: usize) -> Vec<Range<usize>> {
        chunk_ranges(len, self.chunk)
    }

    /// Apply `f` to every task, in parallel, returning results in task
    /// order. `f` receives the task index and a borrow of the task.
    pub fn run<T, R, F>(&self, tasks: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Send + Sync,
    {
        self.run_indexed(tasks.len(), |i| f(i, &tasks[i]))
    }

    /// Apply `f` to every index in `0..n`, in parallel, returning results
    /// in index order.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let threads = self.workers.min(n);
        let _run = span::enter("exec/run");
        if threads == 1 {
            return (0..n)
                .map(|i| {
                    let _task = span::enter("exec/task");
                    f(i)
                })
                .collect();
        }

        let next = AtomicUsize::new(0);
        // One slot per task, written directly by whichever worker claims the
        // task. Exactly one worker ever touches a given slot, so the lock is
        // uncontended — it exists only to satisfy `forbid(unsafe_code)`.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let next = &next;
                let f = &f;
                let slots = &slots;
                scope.spawn(move || {
                    if span::profiling_enabled() {
                        span::set_track_name(&format!("worker-{w}"));
                    }
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let _task = span::enter("exec/task");
                        *slots[i].lock() = Some(f(i));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("every task index is claimed exactly once")
            })
            .collect()
    }
}

/// Where a [`crate::Queryable`] runs, as given to
/// [`Queryable::with_ctx`](crate::Queryable::with_ctx) and
/// [`SessionManager::with_ctx`](crate::SessionManager::with_ctx).
///
/// Every queryable carries an [`ExecPool`] (by default
/// [`ExecPool::sequential`], which runs inline on the calling thread), and
/// every operator has one code path, on that pool. `with_ctx` converts
/// its argument once: `Sequential` is the one-worker pool and `Pool(p)`
/// is `p`. Nothing else reads this type. It remains, instead of
/// `with_ctx` taking an `ExecPool`, because the `dpbench` benchmark
/// (`benchmark/src/batch.rs`) names `ExecCtx::Sequential`,
/// `ExecCtx::pool` and `Queryable::with_ctx`.
///
/// ```
/// use pinq::{Accountant, ExecCtx, ExecPool, NoiseSource, Queryable};
///
/// let run = |ctx: ExecCtx| {
///     let budget = Accountant::new(1.0);
///     let q = Queryable::new(vec![0.1f64; 20_000], &budget, &NoiseSource::seeded(1));
///     q.with_ctx(ctx).noisy_sum(0.5, |&v| v).unwrap().to_bits()
/// };
/// // One path: the calling thread and a pool release the same bits.
/// assert_eq!(run(ExecCtx::Sequential), run(ExecCtx::pool(&ExecPool::new(4).unwrap())));
/// ```
#[derive(Debug, Clone)]
pub enum ExecCtx {
    /// The one-worker pool, [`ExecPool::sequential`].
    Sequential,
    /// This pool.
    Pool(ExecPool),
}

impl ExecCtx {
    /// A pool-backed context (clones the pool's configuration).
    pub fn pool(pool: &ExecPool) -> Self {
        ExecCtx::Pool(pool.clone())
    }

    /// The pool this context names.
    pub(crate) fn into_pool(self) -> ExecPool {
        match self {
            ExecCtx::Sequential => ExecPool::sequential(),
            ExecCtx::Pool(p) => p,
        }
    }
}

/// Split `0..len` into consecutive ranges of at most `chunk` items. The
/// split depends only on `len` and `chunk` — see the module docs on why
/// that matters for determinism.
///
/// # Panics
/// Panics if `chunk` is zero.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..len)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_is_an_error() {
        assert_eq!(ExecPool::new(0).unwrap_err(), Error::InvalidWorkers(0));
        let msg = ExecPool::new(0).unwrap_err().to_string();
        assert!(msg.contains("at least 1"), "{msg}");
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = ExecPool::new(8).unwrap();
        let tasks: Vec<usize> = (0..1000).collect();
        let out = pool.run(&tasks, |i, &t| {
            assert_eq!(i, t);
            t * 2
        });
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_is_fine() {
        let pool = ExecPool::new(4).unwrap();
        let out: Vec<u32> = pool.run(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let pool = ExecPool::new(64).unwrap();
        let out = pool.run(&[10u32, 20], |_, &x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn sequential_pool_runs_on_the_calling_thread() {
        let pool = ExecPool::sequential();
        let caller = std::thread::current().id();
        let ids = pool.run_indexed(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn uneven_task_costs_still_complete() {
        // Skewed costs: the atomic claim counter load-balances; all results
        // land in the right slots.
        let pool = ExecPool::new(4).unwrap();
        let out = pool.run_indexed(64, |i| {
            let spin = if i % 7 == 0 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_ranges_tile_the_input_exactly() {
        for len in [0usize, 1, 10, 8192, 8193, 50_000] {
            let ranges = chunk_ranges(len, 8192);
            let mut covered = 0;
            for (i, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "gap before range {i}");
                assert!(r.end > r.start || len == 0);
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn chunk_ranges_are_worker_count_independent() {
        // The decomposition is a function of (len, chunk) only.
        let a = ExecPool::new(1).unwrap().chunks(100_000);
        let b = ExecPool::new(16).unwrap().chunks(100_000);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        chunk_ranges(10, 0);
    }

    #[test]
    fn run_is_deterministic_across_worker_counts() {
        // A pure reduction over fixed chunks: identical for 1, 2, 8 workers.
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
        let reduce = |workers: usize| -> Vec<f64> {
            let pool = ExecPool::new(workers).unwrap().with_chunk_size(4096);
            let ranges = pool.chunks(data.len());
            pool.run(&ranges, |_, r| data[r.clone()].iter().sum::<f64>())
        };
        let one = reduce(1);
        assert_eq!(one, reduce(2));
        assert_eq!(one, reduce(8));
    }
}
