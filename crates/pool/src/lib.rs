//! A shared, work-stealing worker pool for the whole workspace.
//!
//! Every parallel entry point — `Aggregator::push_slice_sharded`, the
//! collector's batch ingest, the experiment grid's `parallel_jobs`, and
//! the bootstrap — shares one pool instead of paying for its own
//! `std::thread::scope` spawn/join round trip per call. The pool is
//! **process-global and lazily initialized** ([`global`]): the first
//! parallel call spawns the workers, every later call reuses them.
//! Threads that live for a whole connection or serve loop go through
//! [`service_scope`] instead.
//!
//! # Execution model
//!
//! Work is submitted as a *batch* of indexed jobs ([`Pool::run`] /
//! [`Pool::run_capped`]). Batches are registered in a shared injector
//! list; idle workers scan it round-robin and **steal** jobs from whichever
//! batch has work, so concurrent batches (e.g. a grid trial whose method
//! ingests through `Aggregator::push_slice_sharded`) share the same workers
//! instead of oversubscribing the host. The submitting thread always
//! participates in its own batch, which makes the design deadlock-free
//! under arbitrary nesting: a batch can always be finished by its caller
//! alone, workers are an acceleration.
//!
//! # Determinism
//!
//! Jobs are identified by their **index in the batch**, never by the worker
//! that happens to execute them. Callers derive per-job state (RNG streams,
//! shard ranges) from that index, so results are bit-identical regardless
//! of how many workers the pool has — the property sharded ingest,
//! `parallel_jobs`, and the bootstrap all rely on and that the integration
//! suite pins across `LDP_POOL_THREADS ∈ {1, 2, 7}`.
//!
//! # Sizing
//!
//! [`global`] sizes the pool from the `LDP_POOL_THREADS` environment
//! variable when set to a positive integer, else from
//! `std::thread::available_parallelism()`. A pool of size `t` keeps `t − 1`
//! background workers: the caller is the `t`-th executor, so size 1 means
//! strictly inline execution with zero thread traffic.
//!
//! # Panics
//!
//! A panicking job is caught on the worker, the rest of its batch is
//! cancelled, and the submitting call returns [`PoolError::JobPanicked`].
//! Workers and the pool survive — a panic never poisons the global pool
//! for subsequent calls.
//!
//! # Reading the unsafe internals
//!
//! This crate is one of the three places in the workspace that use
//! `unsafe`; `docs/ARCHITECTURE.md` ("Unsafe code") lists all three. Here
//! it is the scoped-lifetime erasure that lets borrowed closures cross
//! worker threads, documented as a `SAFETY:` comment at the single
//! `unsafe` block it lives in, in the crate-private `Scope::spawn` behind
//! [`Pool::run_capped`]. The supporting invariants are written on the
//! *private* items that uphold them — `Batch` and the erased `Job` type —
//! so they don't appear in the public docs. To audit them, build with
//!
//! ```sh
//! cargo doc -p ldp-pool --document-private-items
//! ```
//!
//! which renders the safety reasoning alongside the code it governs.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod service;

pub use service::{service_scope, ServiceScope};

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "LDP_POOL_THREADS";

/// Errors surfaced by pool submission APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// At least one job in the batch panicked; the batch was cancelled.
    JobPanicked,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::JobPanicked => write!(f, "a pool job panicked; the batch was cancelled"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A lifetime-erased unit of work. Only ever constructed by
/// [`Scope::spawn`], whose safety argument covers the erasure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One submitted batch of jobs.
struct Batch {
    /// Jobs not yet claimed by an executor.
    queue: Mutex<VecDeque<Job>>,
    /// Jobs enqueued but not yet finished (queued + in flight).
    pending: AtomicUsize,
    /// Executors (workers + the caller) currently draining this batch.
    /// Starts at 1: the submitting thread's slot is pre-reserved.
    executors: AtomicUsize,
    /// Maximum concurrent executors, including the caller's reserved slot.
    cap: usize,
    /// Whether the owning scope may still spawn more jobs.
    open: AtomicBool,
    /// Set when any job panicked; cancels the rest of the batch.
    panicked: AtomicBool,
    /// Completion signal: callers wait here until `pending` reaches zero.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Batch {
    fn new(cap: usize) -> Self {
        Batch {
            queue: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            // One executor slot is pre-reserved for the submitting thread
            // (it participates unconditionally in `scope_capped`), so
            // workers can claim at most `cap − 1` and the cap is exact.
            executors: AtomicUsize::new(1),
            cap: cap.max(1),
            open: AtomicBool::new(true),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// Active batches; workers scan this round-robin to steal work.
    /// Lock order: `active` strictly before any `Batch::queue`.
    active: Mutex<Vec<Arc<Batch>>>,
    /// Workers park here when no batch has claimable work.
    work_cv: Condvar,
    /// Tells workers to exit once the pool handle is dropped.
    shutdown: AtomicBool,
}

/// A work-stealing worker pool. Most code should use the process-global
/// instance via [`global`]; dedicated instances are for tests and for
/// embedding with a custom size.
pub struct Pool {
    threads: usize,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Structured-concurrency handle passed to the closure of
/// [`Pool::scope_capped`].
///
/// `'env` is the lifetime of everything the spawned jobs may borrow; the
/// scope call does not return until every spawned job has finished (or was
/// cancelled and dropped), so those borrows never dangle.
pub(crate) struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    batch: Arc<Batch>,
    /// Invariant in `'env`, exactly like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawns a job onto the pool. Jobs start as soon as a worker (or the
    /// scope's caller, once the scope closure returns) picks them up.
    ///
    /// Panics in the job are reported as [`PoolError::JobPanicked`] by the
    /// enclosing [`Pool::scope_capped`] call, after cancelling the batch's
    /// remaining jobs.
    pub(crate) fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the job may borrow data of lifetime 'env. The enclosing
        // `scope_capped` call waits until `pending == 0` before returning,
        // and every enqueued job is either executed or dropped (on
        // cancellation) before that counter reaches zero — both strictly
        // before 'env can end. The erased box therefore never outlives the
        // borrows it captures.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        self.batch.pending.fetch_add(1, Ordering::SeqCst);
        lock(&self.batch.queue).push_back(job);
        self.pool.notify_work();
    }
}

impl Pool {
    /// Creates a pool of parallelism `threads` (clamped to ≥ 1), spawning
    /// `threads − 1` background workers — the submitting thread is always
    /// the remaining executor.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            active: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        for i in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ldp-pool-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawning a pool worker");
        }
        Pool { threads, shared }
    }

    /// The pool's parallelism: background workers plus the caller.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `jobs` indexed closures and returns their results in index
    /// order. Equivalent to [`Pool::run_capped`] with no concurrency cap.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_capped(jobs, usize::MAX, f)
    }

    /// Runs `jobs` indexed closures with at most `cap` concurrent
    /// executors (the submitting thread holds one of the `cap` slots, so
    /// `cap = 1` executes strictly serially on the caller), returning
    /// results in index order.
    ///
    /// Job `i` computes `f(i)`; derive all per-job state (RNG streams,
    /// shard bounds) from `i` and results are independent of worker count.
    /// The first panicking job cancels the batch and the call returns
    /// [`PoolError::JobPanicked`].
    pub fn run_capped<T, F>(&self, jobs: usize, cap: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if jobs == 0 {
            return Ok(Vec::new());
        }
        // Each job owns a disjoint `&mut` to its result slot.
        let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        self.scope_capped(cap, |scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                scope.spawn(move || *slot = Some(f(i)));
            }
        })?;
        slots
            .into_iter()
            .map(|slot| slot.ok_or(PoolError::JobPanicked))
            .collect()
    }

    /// Structured concurrency: `f` receives a [`Scope`] whose
    /// [`Scope::spawn`]ed jobs all complete before this returns, with at
    /// most `cap` concurrent executors working on them. The submitting thread always participates and
    /// holds one of the `cap` slots from the start — that reservation is
    /// what keeps nested submissions deadlock-free (a batch can always be
    /// finished by its caller alone) while keeping the cap exact:
    /// workers take at most `cap − 1` slots, so `cap = 1` runs the whole
    /// batch serially on the caller.
    pub(crate) fn scope_capped<'env, R>(
        &self,
        cap: usize,
        f: impl FnOnce(&Scope<'_, 'env>) -> R,
    ) -> Result<R, PoolError> {
        let batch = Arc::new(Batch::new(cap));
        lock(&self.shared.active).push(Arc::clone(&batch));
        let scope = Scope {
            pool: self,
            batch: Arc::clone(&batch),
            _env: PhantomData,
        };
        // Even if `f` panics, the already-spawned jobs must finish (or be
        // cancelled and dropped) before we unwind out of 'env.
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        batch.open.store(false, Ordering::SeqCst);
        // Participate on the executor slot `Batch::new` reserved for the
        // caller.
        drain(&batch);
        batch.executors.fetch_sub(1, Ordering::SeqCst);
        wait_done(&batch);
        lock(&self.shared.active).retain(|b| !Arc::ptr_eq(b, &batch));
        match body {
            Ok(r) => {
                if batch.panicked.load(Ordering::SeqCst) {
                    Err(PoolError::JobPanicked)
                } else {
                    Ok(r)
                }
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Wakes one parked worker after new work became visible.
    fn notify_work(&self) {
        // Locking `active` (even briefly) orders this notification after
        // the enqueue: a worker either sees the job during its scan or is
        // already parked and gets woken.
        drop(lock(&self.shared.active));
        self.shared.work_cv.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(lock(&self.shared.active));
        self.shared.work_cv.notify_all();
    }
}

/// Locks `mutex`, recovering the data if a previous holder panicked. Jobs
/// never run under a pool lock and no critical section here can leave its
/// data half-updated, so a poisoned lock carries nothing worth refusing.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Picks a batch with claimable work, registering as one of its executors.
/// `rotation` rotates the scan start so batches are served fairly.
fn claim(active: &[Arc<Batch>], rotation: &mut usize) -> Option<Arc<Batch>> {
    let n = active.len();
    for i in 0..n {
        let idx = (*rotation + i) % n;
        let batch = &active[idx];
        if lock(&batch.queue).is_empty() {
            continue;
        }
        let executors = batch.executors.fetch_add(1, Ordering::SeqCst);
        if executors >= batch.cap {
            batch.executors.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        *rotation = idx + 1;
        return Some(Arc::clone(batch));
    }
    None
}

/// Executes jobs from `batch` until its queue is empty.
fn drain(batch: &Batch) {
    loop {
        let job = lock(&batch.queue).pop_front();
        match job {
            Some(job) => run_job(batch, job),
            None => break,
        }
    }
}

/// Runs one job, converting a panic into batch cancellation.
fn run_job(batch: &Batch, job: Job) {
    if batch.panicked.load(Ordering::SeqCst) {
        // Cancelled batch: drop the job without running it.
        drop(job);
        finish(batch, 1);
        return;
    }
    let outcome = catch_unwind(AssertUnwindSafe(job));
    if outcome.is_err() {
        batch.panicked.store(true, Ordering::SeqCst);
        // Fail fast: claim and drop everything still queued.
        let drained: Vec<Job> = lock(&batch.queue).drain(..).collect();
        let cancelled = drained.len();
        drop(drained);
        if cancelled > 0 {
            finish(batch, cancelled);
        }
    }
    finish(batch, 1);
}

/// Marks `count` jobs finished, signalling completion on the last one.
fn finish(batch: &Batch, count: usize) {
    let previous = batch.pending.fetch_sub(count, Ordering::SeqCst);
    if previous == count && !batch.open.load(Ordering::SeqCst) {
        // Empty critical section: ensures the waiter is either still
        // pre-check (and will observe pending == 0) or already parked in
        // `wait` (and will receive the notification).
        drop(lock(&batch.done_lock));
        batch.done_cv.notify_all();
    }
}

/// Blocks until every job of `batch` has finished.
fn wait_done(batch: &Batch) {
    let guard = lock(&batch.done_lock);
    let _guard = batch
        .done_cv
        .wait_while(guard, |_| batch.pending.load(Ordering::SeqCst) > 0)
        .unwrap_or_else(PoisonError::into_inner);
}

/// The worker main loop: steal a batch with work, drain it, repeat.
fn worker_loop(shared: &Shared, index: usize) {
    let mut rotation = index; // desynchronize scan starts across workers
    loop {
        let claimed = {
            let mut active = lock(&shared.active);
            loop {
                if let Some(batch) = claim(&active, &mut rotation) {
                    break Some(batch);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                active = shared
                    .work_cv
                    .wait(active)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match claimed {
            Some(batch) => {
                drain(&batch);
                batch.executors.fetch_sub(1, Ordering::SeqCst);
            }
            None => return,
        }
    }
}

/// Parses a thread-count override, falling back to the host parallelism
/// for unset, empty, zero, or malformed values.
fn threads_from_env(value: Option<&str>) -> usize {
    match value.map(str::trim).filter(|v| !v.is_empty()) {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => host_parallelism(),
        },
        None => host_parallelism(),
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-global pool, created on first use. Sized by
/// [`THREADS_ENV`] when set to a positive integer, else by
/// `std::thread::available_parallelism()`; the size is fixed for the
/// lifetime of the process once initialized.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(threads_from_env(std::env::var(THREADS_ENV).ok().as_deref())))
}

/// The size the global pool has — or would have — **without creating it**:
/// sizing queries (`ExperimentConfig::default()`, shard-count selection)
/// must not spawn worker threads as a side effect. Matches
/// [`Pool::threads`] of [`global`] exactly: once the pool exists its
/// recorded size is returned, and before that the same
/// [`THREADS_ENV`]/host-parallelism resolution the pool constructor uses.
#[must_use]
pub fn configured_threads() -> usize {
    match GLOBAL.get() {
        Some(pool) => pool.threads(),
        None => threads_from_env(std::env::var(THREADS_ENV).ok().as_deref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_index_order() {
        let pool = Pool::new(4);
        let out = pool.run(100, |i| i * 3).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_is_deterministic_across_pool_sizes() {
        let reference: Vec<u64> = (0..64).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 7] {
            let pool = Pool::new(threads);
            let out = pool.run(64, |i| (i as u64).wrapping_mul(0x9E37)).unwrap();
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let pool = Pool::new(2);
        let out: Vec<usize> = pool.run(0, |i| i).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn scope_observes_borrowed_environment() {
        let pool = Pool::new(3);
        let mut results = vec![0usize; 8];
        let source: Vec<usize> = (0..8).map(|i| i + 1).collect();
        pool.scope_capped(usize::MAX, |scope| {
            for (slot, &v) in results.iter_mut().zip(&source) {
                scope.spawn(move || *slot = v * 10);
            }
        })
        .unwrap();
        assert_eq!(results, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn nested_submissions_complete() {
        let pool = Pool::new(2);
        let out = pool
            .run(6, |i| {
                // Each outer job fans out again on the same pool.
                let inner = global().run(4, move |j| i * 10 + j).unwrap();
                inner.iter().sum::<usize>()
            })
            .unwrap();
        let expected: Vec<usize> = (0..6).map(|i| 4 * i * 10 + 6).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panic_surfaces_as_error_and_pool_survives() {
        let pool = Pool::new(3);
        let r = pool.run(16, |i| {
            assert!(i != 9, "injected failure");
            i
        });
        assert_eq!(r, Err(PoolError::JobPanicked));
        // The same pool keeps working afterwards.
        let ok = pool.run(16, |i| i + 1).unwrap();
        assert_eq!(ok.len(), 16);
    }

    #[test]
    fn capped_run_still_finishes_everything() {
        let pool = Pool::new(4);
        let out = pool.run_capped(40, 2, |i| i % 5).unwrap();
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn cap_of_one_is_strictly_serial_on_the_caller() {
        // The caller's pre-reserved executor slot IS the whole cap, so no
        // background worker may touch the batch even on a wide pool.
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        let ids = pool
            .run_capped(32, 1, |_| std::thread::current().id())
            .unwrap();
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn configured_threads_matches_global_and_does_not_require_the_pool() {
        // Before and after the pool exists the answer is identical; the
        // pre-existence branch is covered implicitly when this test runs
        // first in the process, and the equality holds either way.
        let before = configured_threads();
        assert_eq!(before, global().threads());
        assert_eq!(configured_threads(), global().threads());
    }

    #[test]
    fn env_parsing_falls_back_sanely() {
        let host = host_parallelism();
        assert_eq!(threads_from_env(Some("7")), 7);
        assert_eq!(threads_from_env(Some(" 2 ")), 2);
        assert_eq!(threads_from_env(Some("0")), host);
        assert_eq!(threads_from_env(Some("-3")), host);
        assert_eq!(threads_from_env(Some("lots")), host);
        assert_eq!(threads_from_env(Some("")), host);
        assert_eq!(threads_from_env(None), host);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const Pool;
        let b = global() as *const Pool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        // Several OS threads submit batches to one pool at once, so the
        // workers' park/wake and each caller's `wait_done` hand-off run
        // under contention.
        let pool = Pool::new(3);
        std::thread::scope(|s| {
            for submitter in 0..4usize {
                let pool = &pool;
                s.spawn(move || {
                    for round in 0..200usize {
                        let jobs = 1 + (submitter + round) % 7;
                        let base = submitter * 1_000_000 + round * 100;
                        let out = pool.run(jobs, |i| base + i).unwrap();
                        assert_eq!(out, (0..jobs).map(|i| base + i).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn lock_recovers_from_poison() {
        // The pool's locks keep working after a holder panicked, so one
        // panic can never wedge the shared pool.
        let m = Mutex::new(0);
        let poisoned = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = lock(&m);
                panic!("poison the lock");
            })
            .join()
        });
        assert!(poisoned.is_err() && m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.run(8, |_| std::thread::current().id()).unwrap();
        assert!(ids.iter().all(|id| *id == caller));
    }
}
