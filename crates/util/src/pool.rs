//! A zero-dependency work-stealing thread pool with deterministic,
//! index-addressed parallel primitives.
//!
//! The pool exists so the pipeline can use hardware parallelism without
//! giving up the workspace's two core guarantees:
//!
//! - **Determinism.** Every parallel primitive addresses its output by
//!   item index ([`Pool::parallel_map_with`] writes item `i` into slot
//!   `i`), so results are bit-identical to sequential execution
//!   regardless of which worker ran which item or in what order tasks
//!   were stolen.
//! - **Zero steady-state allocation.** Workers are persistent (spawned
//!   once at pool construction), task handles are `Copy` structs pushed
//!   into pre-grown deques, and fork/join coordination lives in
//!   stack-held latches built from `std`'s futex-backed `Mutex` /
//!   `Condvar`. Once the deques have reached their high-water mark a
//!   fork/join region performs no heap allocation.
//!
//! Scheduling is the classic work-stealing shape: each worker owns a
//! LIFO deque, external callers inject into a shared FIFO queue, and an
//! idle worker steals FIFO from a sibling. A [`PoolStats`] snapshot
//! exposes tasks executed, steal counts and per-worker busy time.
//!
//! The primitive set is [`Pool::join`], [`Pool::parallel_map_with`] and
//! [`Pool::parallel_update`]. The process-wide [`Pool::global`] is sized
//! by `HYPEREAR_THREADS` (default: available parallelism). A pool of one
//! thread never spawns and every primitive takes the exact sequential
//! code path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// A type-erased, `Copy` handle to a unit of work whose storage lives
/// somewhere that provably outlives its execution (the stack of a
/// fork/join caller).
#[derive(Clone, Copy)]
struct Task {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a `Task` is only ever created from storage that the pushing
// code keeps alive (and un-aliased) until the task has executed or been
// reclaimed; the pointer itself is freely sendable.
unsafe impl Send for Task {}

/// Per-worker telemetry counters (relaxed; read via [`Pool::stats`]).
#[derive(Debug, Default)]
struct Counters {
    tasks: AtomicU64,
    steals: AtomicU64,
    busy_ns: AtomicU64,
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One LIFO deque per spawned worker.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// FIFO queue for tasks pushed by threads outside the pool.
    injector: Mutex<VecDeque<Task>>,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    counters: Vec<Counters>,
}

thread_local! {
    /// `(Shared address, worker index)` of the pool this thread serves,
    /// if any. Lets `join`/regions push to the worker's own deque and
    /// assign stable participant slots.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

impl Shared {
    /// Wakes every parked worker. Taking the idle lock first closes the
    /// race against a worker that has checked the queues but not yet
    /// begun waiting.
    fn notify(&self) {
        let _guard = self
            .idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.wake.notify_all();
    }

    fn any_task_queued(&self) -> bool {
        if !self
            .injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_empty()
        {
            return true;
        }
        self.deques.iter().any(|d| {
            !d.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_empty()
        })
    }

    /// Next task for worker `me`: own deque (LIFO), then the injector,
    /// then steal FIFO from siblings.
    fn find_task(&self, me: usize) -> Option<Task> {
        if let Some(t) = self.deques[me]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_back()
        {
            return Some(t);
        }
        if let Some(t) = self
            .injector
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front()
        {
            return Some(t);
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(t) = self.deques[victim]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop_front()
            {
                self.counters[me].steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Executes one task on worker `me`, updating its counters. Task
    /// bodies catch their own panics, so this never unwinds.
    fn execute(&self, me: usize, task: Task) {
        let start = Instant::now();
        // SAFETY: the task's storage is kept alive by its creator until
        // the task's completion is observed (latch/region accounting).
        unsafe { (task.exec)(task.data) };
        let counters = &self.counters[me];
        counters.busy_ns.fetch_add(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        counters.tasks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A set-once gate a thread can block on, built from `std`'s
/// futex-backed primitives so neither arming nor signalling allocates.
///
/// A latch lives in the waiter's stack frame, which may unwind as soon
/// as the waiter sees the latch set. So the setter raises the flag under
/// the lock and touches nothing after releasing it, and every waiter
/// takes the lock once before reporting the latch set: the setter has
/// then finished with the latch.
struct Latch {
    flag: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Latch {
            flag: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Whether the latch is set. A `true` answer means the setter has
    /// released the latch, so the caller may free it.
    fn probe(&self) -> bool {
        if !self.flag.load(Ordering::Acquire) {
            return false;
        }
        drop(
            self.lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        true
    }

    fn set(&self) {
        let _guard = self
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.flag.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Blocks until [`Latch::set`]. Only for threads outside the pool —
    /// a worker must help-execute instead (see `Pool::wait_on`) or it
    /// could deadlock the pool.
    fn wait(&self) {
        let mut guard = self
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while !self.flag.load(Ordering::Acquire) {
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A stack-held fork/join job: the closure, its result slot, and the
/// completion latch, all borrowed by raw pointer from the `join` frame.
struct StackJob<F, R> {
    func: Cell<Option<F>>,
    result: Cell<Option<thread::Result<R>>>,
    latch: Latch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F) -> Self {
        StackJob {
            func: Cell::new(Some(f)),
            result: Cell::new(None),
            latch: Latch::new(),
        }
    }

    fn as_task(&self) -> Task {
        Task {
            data: std::ptr::from_ref(self).cast(),
            exec: Self::exec,
        }
    }

    unsafe fn exec(ptr: *const ()) {
        let job = &*ptr.cast::<Self>();
        let f = job.func.take().expect("stack job executes exactly once");
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        job.result.set(Some(result));
        // Last touch: after the latch is observed the frame may unwind.
        job.latch.set();
    }

    fn take_result(&self) -> thread::Result<R> {
        self.result
            .take()
            .expect("latch set implies the result was stored")
    }
}

// SAFETY: the job crosses threads exactly once (push → execute) and the
// owner only reads the result cell after observing the latch, which the
// executor sets after its final write.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

/// A stack-held parallel region: an atomic item cursor plus completion
/// accounting shared by the owner and every broadcast task.
struct Region<F> {
    /// Next unclaimed item index.
    cursor: AtomicUsize,
    /// Total items.
    len: usize,
    /// Participants still able to touch the region: one token per
    /// broadcast task (returned on task exit, or by the owner for tasks
    /// it reclaims unstarted) plus the owner's own token, returned once
    /// its share of the items is done. Items only run inside a
    /// participant, so when the count reaches zero every item has
    /// finished; whoever returns the last token sets the latch as its
    /// final touch of the region.
    pending: AtomicUsize,
    first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    latch: Latch,
    /// `f(slot, item)`: `slot` is the executing participant's stable
    /// context index, `item` the claimed item index.
    f: F,
}

impl<F: Fn(usize, usize) + Sync> Region<F> {
    /// Claims and runs items until the cursor is exhausted. Item panics
    /// are caught (first payload kept) so one bad item never strands
    /// the region's accounting.
    fn work(&self, slot: usize) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(slot, i))) {
                let mut first = self
                    .first_panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if first.is_none() {
                    *first = Some(payload);
                }
            }
        }
    }

    /// Returns `tokens` to the pending count, setting the latch if they
    /// were the last: after this the caller must not touch the region
    /// (the owner may already have returned). `AcqRel`: each
    /// participant's item writes and panic payload are released by its
    /// decrement and acquired by the last one, which then publishes them
    /// to the owner through the latch's lock.
    fn release(&self, tokens: usize) {
        if self.pending.fetch_sub(tokens, Ordering::AcqRel) == tokens {
            self.latch.set();
        }
    }

    unsafe fn exec(ptr: *const ()) {
        let region = &*ptr.cast::<Self>();
        // Broadcast tasks only ever run on registered workers; worker
        // `w` owns participant slot `w + 1` (slot 0 is the caller's).
        let slot = WORKER.get().map_or(0, |(_, w)| w + 1);
        region.work(slot);
        region.release(1);
    }
}

// SAFETY: all mutable region state is atomics or mutex-guarded; `f` is
// required `Sync` by the bound above.
unsafe impl<F: Sync> Sync for Region<F> {}

/// A raw pointer that asserts cross-thread disjoint-index access.
struct SendPtr<T>(*mut T);
// Manual impls: `derive` would add an unwanted `T: Clone`/`T: Copy`
// bound, but copying the pointer never copies the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: callers only dereference `ptr.add(i)` for indices they hold
// exclusively (unique item index or unique participant slot).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// A work-stealing thread pool (see the [module docs](self)).
///
/// `threads` counts *participants*: a pool of `N` spawns `N − 1` worker
/// threads and the calling thread contributes as the `N`-th during
/// fork/join operations. Dropping the pool joins every worker.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Scheduler internals (queues, join handles) are not meaningful
        // to print; the participant count is the pool's identity.
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// The thread count configured for this process: `HYPEREAR_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when that cannot be determined).
#[must_use]
pub(crate) fn configured_threads() -> usize {
    std::env::var("HYPEREAR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

impl Pool {
    /// Creates a pool with `threads` participants (clamped to at least
    /// one). `Pool::new(1)` spawns nothing and runs everything inline.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a worker thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let spawned = threads - 1;
        let shared = Arc::new(Shared {
            deques: (0..spawned).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: (0..spawned).map(|_| Counters::default()).collect(),
        });
        let handles = (0..spawned)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hyperear-pool-{index}"))
                    .spawn(move || worker_main(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
        }
    }

    /// The process-wide shared pool, sized by [`configured_threads`]
    /// (`HYPEREAR_THREADS`, default: available parallelism) on first use
    /// and never torn down. Long-lived consumers (batch engines, trial
    /// harnesses) should use this instead of spawning private pools.
    pub fn global() -> &'static Arc<Pool> {
        GLOBAL.get_or_init(|| Arc::new(Pool::new(configured_threads())))
    }

    /// Number of participants (spawned workers + the caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This thread's worker index in `self`, if it is one of the pool's
    /// spawned workers.
    fn current_worker(&self) -> Option<usize> {
        WORKER
            .get()
            .and_then(|(pool, w)| (pool == Arc::as_ptr(&self.shared) as usize).then_some(w))
    }

    /// Pushes a task where this thread schedules: its own deque for a
    /// worker, the injector for an external caller.
    fn push_task(&self, task: Task) {
        match self.current_worker() {
            Some(w) => self.shared.deques[w]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task),
            None => self
                .shared
                .injector
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task),
        }
        self.shared.notify();
    }

    /// Removes the most recent queued copy of `task` from the queue this
    /// thread pushes to, if nobody claimed it yet.
    fn try_unpush(&self, task: Task) -> bool {
        let queue = match self.current_worker() {
            Some(w) => &self.shared.deques[w],
            None => &self.shared.injector,
        };
        let mut queue = queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(idx) = queue.iter().rposition(|t| std::ptr::eq(t.data, task.data)) {
            queue.remove(idx);
            true
        } else {
            false
        }
    }

    /// Blocks until `latch` is set. A worker helps by executing other
    /// tasks while it waits; an external thread parks on the latch.
    fn wait_on(&self, latch: &Latch) {
        match self.current_worker() {
            Some(w) => {
                while !latch.probe() {
                    if let Some(task) = self.shared.find_task(w) {
                        self.shared.execute(w, task);
                    } else {
                        thread::yield_now();
                    }
                }
            }
            None => latch.wait(),
        }
    }

    /// Runs `a` and `b`, potentially in parallel, and returns both
    /// results. On a one-thread pool this is exactly `(a(), b())`.
    ///
    /// `b` is offered to the pool while the caller runs `a`; if no
    /// worker claimed it the caller reclaims and runs it inline, so a
    /// nested `join` on a busy pool degenerates to plain sequential
    /// calls with no latency cliff. Panics from either closure
    /// propagate (after both have finished — results never outlive
    /// their borrows).
    ///
    /// # Panics
    ///
    /// Re-throws the first panic of `a` or `b`.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.threads == 1 {
            return (a(), b());
        }
        let job = StackJob::new(b);
        let task = job.as_task();
        self.push_task(task);
        let ra = panic::catch_unwind(AssertUnwindSafe(a));
        if self.try_unpush(task) {
            // SAFETY: the job is this frame's; reclaiming it from the
            // queue restores unique ownership.
            unsafe { StackJob::<B, RB>::exec(task.data) };
        } else {
            self.wait_on(&job.latch);
        }
        let rb = job.take_result();
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (_, Err(payload)) => panic::resume_unwind(payload),
        }
    }

    /// The shared core of every indexed parallel primitive: runs
    /// `f(slot, item)` for every `item` in `0..len`, where `slot` is a
    /// participant index `< self.threads()` held exclusively for the
    /// duration of the call.
    ///
    /// Items are claimed from an atomic cursor, the caller participates
    /// (slot 0 when external, its worker slot otherwise), and the call
    /// returns only when every item has finished and every broadcast
    /// task has run or been reclaimed — so `f` may borrow freely from
    /// the caller's frame.
    fn run_region<F: Fn(usize, usize) + Sync>(&self, len: usize, f: F) {
        if self.threads == 1 || len <= 1 {
            for i in 0..len {
                f(0, i);
            }
            return;
        }
        let here = self.current_worker();
        let broadcast = self.shared.deques.len() - usize::from(here.is_some());
        let region = Region {
            cursor: AtomicUsize::new(0),
            len,
            pending: AtomicUsize::new(broadcast + 1),
            first_panic: Mutex::new(None),
            latch: Latch::new(),
            f,
        };
        let task = Task {
            data: std::ptr::from_ref(&region).cast(),
            exec: Region::<F>::exec,
        };
        for (w, deque) in self.shared.deques.iter().enumerate() {
            if Some(w) == here {
                continue;
            }
            deque
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push_back(task);
        }
        self.shared.notify();
        // The caller participates with its own slot.
        let owner_slot = here.map_or(0, |w| w + 1);
        region.work(owner_slot);
        // Reclaim broadcast tasks nobody started: the cursor is
        // exhausted, so they would only return their token — and a
        // queued task must not outlive this frame.
        let mut reclaimed = 0usize;
        for deque in &self.shared.deques {
            let mut deque = deque
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let before = deque.len();
            deque.retain(|t| !std::ptr::eq(t.data, task.data));
            reclaimed += before - deque.len();
        }
        region.release(reclaimed + 1);
        self.wait_on(&region.latch);
        let payload = region
            .first_panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Computes `f(state, i)` for every `i` in `0..len` and returns the
    /// results in index order, with per-participant mutable state:
    /// `init()` builds one `S` per participant, and `f` receives the
    /// state pinned to whichever participant claimed the item. Slot `i`
    /// receives exactly `f(_, i)` no matter which worker computed it, so
    /// results are deterministic whenever `f`'s output does not depend
    /// on the state history (the contract every engine in this workspace
    /// satisfies).
    ///
    /// # Panics
    ///
    /// Re-throws the first item panic after every item has settled.
    pub fn parallel_map_with<S, T, I, F>(&self, len: usize, init: I, f: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        I: Fn() -> S,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if self.threads == 1 || len <= 1 {
            let mut state = init();
            return (0..len).map(|i| f(&mut state, i)).collect();
        }
        let mut states: Vec<S> = (0..self.threads).map(|_| init()).collect();
        let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
        self.parallel_update(&mut states, &mut out, |state, i, slot| {
            *slot = Some(f(state, i));
        });
        out.into_iter()
            .map(|v| v.expect("region completion fills every slot"))
            .collect()
    }

    /// Updates `items[i]` in place using per-participant contexts:
    /// `f(ctx, i, item)` runs with `ctx = &mut ctxs[slot]` for the
    /// executing participant's exclusive slot. `ctxs` must provide at
    /// least [`Pool::threads`] entries.
    ///
    /// This is the zero-allocation batch primitive: both slices live in
    /// the caller and nothing is returned.
    ///
    /// # Panics
    ///
    /// Panics if `ctxs.len() < self.threads()`; re-throws the first
    /// item panic after every item has settled.
    pub fn parallel_update<S, T, F>(&self, ctxs: &mut [S], items: &mut [T], f: F)
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize, &mut T) + Sync,
    {
        assert!(
            ctxs.len() >= self.threads,
            "parallel_update needs one context per participant ({} < {})",
            ctxs.len(),
            self.threads
        );
        let ctx_ptr = SendPtr(ctxs.as_mut_ptr());
        let item_ptr = SendPtr(items.as_mut_ptr());
        self.run_region(items.len(), move |slot, i| {
            let ctx_ptr = ctx_ptr;
            let item_ptr = item_ptr;
            // SAFETY: `slot` is exclusive to the executing participant;
            // `i` is claimed exactly once; the slices outlive the
            // region because `run_region` returns only after every
            // task has finished or been reclaimed.
            unsafe { f(&mut *ctx_ptr.0.add(slot), i, &mut *item_ptr.0.add(i)) };
        });
    }

    /// A telemetry snapshot: cumulative tasks executed, steals, and
    /// per-worker busy time since the pool was built. Counters are
    /// relaxed, so a snapshot taken while work is in flight is
    /// approximate; quiescent snapshots are exact.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let per_worker: Vec<WorkerStats> = self
            .shared
            .counters
            .iter()
            .map(|c| WorkerStats {
                tasks: c.tasks.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                busy: Duration::from_nanos(c.busy_ns.load(Ordering::Relaxed)),
            })
            .collect();
        PoolStats {
            threads: self.threads,
            tasks_executed: per_worker.iter().map(|w| w.tasks).sum(),
            steals: per_worker.iter().map(|w| w.steals).sum(),
            per_worker,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker's counters inside a [`PoolStats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed through the scheduler.
    pub tasks: u64,
    /// Tasks it took from a sibling's deque.
    pub steals: u64,
    /// Cumulative wall-clock time spent executing tasks.
    pub busy: Duration,
}

/// A snapshot of pool telemetry (see [`Pool::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Participant count (spawned workers + caller).
    pub threads: usize,
    /// Total tasks executed by spawned workers.
    pub tasks_executed: u64,
    /// Total steals by spawned workers.
    pub steals: u64,
    /// Per spawned worker breakdown (`threads − 1` entries).
    pub per_worker: Vec<WorkerStats>,
}

fn worker_main(shared: &Arc<Shared>, index: usize) {
    WORKER.set(Some((Arc::as_ptr(shared) as usize, index)));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Some(task) = shared.find_task(index) {
            shared.execute(index, task);
            continue;
        }
        let guard = shared
            .idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.any_task_queued() {
            drop(guard);
            continue;
        }
        // The timeout is a belt-and-braces backstop; `Shared::notify`
        // holding the idle lock already closes the park/push race.
        let _ = shared.wake.wait_timeout(guard, Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn one_thread_pool_is_sequential_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
        let order = Mutex::new(Vec::new());
        pool.parallel_map_with(4, || (), |(), i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(pool.stats().tasks_executed, 0, "nothing is scheduled");
    }

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(4);
        let (a, b) = pool.join(|| (0..100).sum::<u64>(), || (0..200).sum::<u64>());
        assert_eq!(a, 4950);
        assert_eq!(b, 19900);
    }

    #[test]
    fn parallel_map_matches_sequential_for_all_sizes() {
        let pool = Pool::new(3);
        for len in [0usize, 1, 2, 3, 7, 64, 257] {
            let par =
                pool.parallel_map_with(len, || (), |(), i| (i as u64).wrapping_mul(2_654_435_761));
            let seq: Vec<u64> = (0..len)
                .map(|i| (i as u64).wrapping_mul(2_654_435_761))
                .collect();
            assert_eq!(par, seq, "len {len}");
        }
    }

    #[test]
    fn parallel_update_pins_slots_to_participants() {
        let pool = Pool::new(4);
        let mut ctxs = vec![0u64; pool.threads()];
        let mut items: Vec<u64> = (0..100).collect();
        pool.parallel_update(&mut ctxs, &mut items, |ctx, i, item| {
            *ctx += 1;
            *item = *item * 10 + (i as u64 % 10);
        });
        assert_eq!(ctxs.iter().sum::<u64>(), 100, "every item touched one ctx");
        assert_eq!(items[7], 77);
        assert_eq!(items[42], 422);
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let pool = Pool::new(2);
        let r = panic::catch_unwind(AssertUnwindSafe(|| pool.join(|| panic!("left boom"), || 7)));
        assert!(r.is_err());
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 7, || panic!("right boom"))
        }));
        assert!(r.is_err());
        // The pool survives panics: workers stay usable.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn region_propagates_first_item_panic_and_survives() {
        let pool = Pool::new(3);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map_with(16, || (), |(), i| assert!(i != 9, "item nine"));
        }));
        assert!(r.is_err());
        assert_eq!(
            pool.parallel_map_with(4, || (), |(), i| i),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn nested_joins_compute_correctly() {
        fn fib(pool: &Pool, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
            a + b
        }
        let pool = Pool::new(4);
        assert_eq!(fib(&pool, 16), 987);
    }

    #[test]
    fn stats_observe_scheduled_work() {
        let pool = Pool::new(4);
        let big: Vec<u64> = pool.parallel_map_with(
            64,
            || (),
            |(), i| {
                // Enough work per item that workers actually wake and claim.
                (0..2_000u64).fold(i as u64, |acc, k| acc.rotate_left(1) ^ k)
            },
        );
        assert_eq!(big.len(), 64);
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_worker.len(), 3);
        // The caller may have raced through every item on a loaded CI
        // box, so only sanity-check the shape, not a minimum count.
        assert!(stats.tasks_executed <= 3, "one broadcast task per worker");
    }

    #[test]
    fn parallel_map_with_reuses_states() {
        let pool = Pool::new(2);
        let inits = AtomicU32::new(0);
        let out = pool.parallel_map_with(
            50,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            },
            |state, i| {
                *state += 1;
                i as u64
            },
        );
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert!(
            inits.load(Ordering::SeqCst) <= 2,
            "one state per participant"
        );
    }

    #[test]
    fn configured_threads_env_contract() {
        // Can't mutate the environment safely in a threaded test binary;
        // just pin the default's sanity.
        assert!(configured_threads() >= 1);
    }
}
