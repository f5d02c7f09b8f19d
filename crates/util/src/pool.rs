//! A zero-dependency thread pool with one deterministic, index-addressed
//! fork/join primitive.
//!
//! The pool exists so the pipeline can use hardware parallelism without
//! giving up the workspace's two core guarantees:
//!
//! - **Determinism.** Every parallel primitive addresses its output by
//!   item index ([`Pool::parallel_map_with`] writes item `i` into slot
//!   `i`), so results are bit-identical to sequential execution
//!   regardless of which participant ran which item.
//! - **Zero steady-state allocation.** Workers are persistent (spawned
//!   once at pool construction), task handles are `Copy` structs pushed
//!   into a pre-grown queue, and fork/join coordination lives in
//!   stack-held latches built from `std`'s futex-backed `Mutex` /
//!   `Condvar`. Once the queue has reached its high-water mark a region
//!   performs no heap allocation.
//!
//! The one fork/join mechanism is the *region*: `len` items claimed
//! from an atomic cursor by the calling thread and by up to `len − 1`
//! broadcast copies of the region, which idle workers take from one
//! shared FIFO queue. [`Pool::parallel_map_with`] and
//! [`Pool::parallel_update`] are its two faces. Each participant holds
//! one slot for the whole region (the caller slot 0, worker `w` slot
//! `w + 1`), so per-participant state needs no lock. A region started
//! on one of the pool's own workers runs inline on that worker: no
//! worker ever waits, so none has to run other tasks while it waits,
//! and no slot is ever entered twice. A [`PoolStats`] snapshot exposes
//! tasks executed and per-worker busy time.
//!
//! The process-wide [`Pool::global`] is sized by `HYPEREAR_THREADS`
//! (default: available parallelism; at most 256 participants either
//! way). A pool of one thread never spawns and every primitive takes the
//! exact sequential code path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::{IntErrorKind, NonZeroUsize};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The most participants a pool has: [`Pool::new`] and
/// `HYPEREAR_THREADS` both clamp to it, so a hostile setting cannot ask
/// the operating system for an unbounded number of threads.
const MAX_THREADS: usize = 256;

/// A type-erased, `Copy` handle to a broadcast copy of a region whose
/// storage lives in the stack frame of the region's caller, which
/// outlives every copy's execution.
#[derive(Clone, Copy)]
struct Task {
    data: *const (),
    exec: unsafe fn(*const ()),
}

// SAFETY: a `Task` is only ever created from a region that its caller
// keeps alive until every copy has executed or been reclaimed; the
// pointer itself is freely sendable.
unsafe impl Send for Task {}

/// Per-worker telemetry counters (relaxed; read via [`Pool::stats`]).
#[derive(Debug, Default)]
struct Counters {
    tasks: AtomicU64,
    busy_ns: AtomicU64,
}

/// The queue of broadcast copies plus the shutdown flag, under one lock
/// so a worker checks both before it parks.
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on every push and on shutdown.
    wake: Condvar,
    counters: Vec<Counters>,
}

thread_local! {
    /// `(Shared address, worker index)` of the pool this thread serves,
    /// if any: gives a broadcast copy its participant slot and lets a
    /// region started on a worker run inline.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Executes one task on worker `me`, updating its counters. Task
    /// bodies catch their own panics, so this never unwinds.
    fn execute(&self, me: usize, task: Task) {
        let start = Instant::now();
        // SAFETY: the task's region is kept alive by its caller until
        // the task's completion is observed (region accounting).
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
/// the lock and touches nothing after releasing it, and the waiter
/// checks the flag under the lock: the setter has then finished with
/// the latch.
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

    fn set(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.flag.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Blocks until [`Latch::set`]. Only threads outside the pool wait:
    /// a region started on a worker runs inline instead.
    fn wait(&self) {
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !self.flag.load(Ordering::Acquire) {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A stack-held parallel region: an atomic item cursor plus completion
/// accounting shared by the caller and every broadcast copy.
struct Region<F> {
    /// Next unclaimed item index.
    cursor: AtomicUsize,
    /// Total items.
    len: usize,
    /// Participants still able to touch the region: one token per
    /// broadcast copy (returned on copy exit, or by the caller for
    /// copies it reclaims unstarted) plus the caller's own token,
    /// returned once its share of the items is done. Items only run
    /// inside a participant, so when the count reaches zero every item
    /// has finished; whoever returns the last token sets the latch as
    /// its final touch of the region.
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
                    .unwrap_or_else(PoisonError::into_inner);
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

    /// Runs one broadcast copy: claims items, then returns its token.
    ///
    /// # Safety
    ///
    /// `ptr` must point to a live `Region<F>` whose caller has counted
    /// this copy in `pending` and keeps the region in place until the
    /// latch is set.
    unsafe fn exec(ptr: *const ()) {
        let region = &*ptr.cast::<Self>();
        // Broadcast copies only ever run on registered workers; worker
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

/// A fork/join thread pool (see the [module docs](self)).
///
/// `threads` counts *participants*: a pool of `N` spawns `N − 1` worker
/// threads and the calling thread contributes as the `N`-th during a
/// region. Dropping the pool joins every worker.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Scheduler internals (queue, join handles) are not meaningful
        // to print; the participant count is the pool's identity.
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// The participant count a `HYPEREAR_THREADS` value asks for: a
/// positive integer (surrounding whitespace allowed), clamped to
/// `MAX_THREADS` even when it overflows `usize`. Anything else — unset,
/// empty, zero, negative, not an integer — falls back to `fallback`,
/// itself clamped to `1..=MAX_THREADS`.
fn threads_from(var: Option<&str>, fallback: usize) -> usize {
    let parsed = var.and_then(|s| match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        Err(e) if *e.kind() == IntErrorKind::PosOverflow => Some(MAX_THREADS),
        _ => None,
    });
    parsed.unwrap_or(fallback).clamp(1, MAX_THREADS)
}

/// The thread count configured for this process: `HYPEREAR_THREADS` when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when that cannot be determined), at most
/// `MAX_THREADS`.
#[must_use]
fn configured_threads() -> usize {
    threads_from(
        std::env::var("HYPEREAR_THREADS").ok().as_deref(),
        thread::available_parallelism().map_or(1, NonZeroUsize::get),
    )
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

impl Pool {
    /// Creates a pool with `threads` participants, clamped to
    /// `1..=256`. `Pool::new(1)` spawns nothing and runs everything
    /// inline.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a worker thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let spawned = threads - 1;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
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

    /// The process-wide shared pool, sized by `HYPEREAR_THREADS`
    /// (default: available parallelism; at most 256) on first use and
    /// never torn down. Long-lived consumers (batch engines, trial
    /// harnesses) should use this instead of spawning private pools.
    pub fn global() -> &'static Arc<Pool> {
        GLOBAL.get_or_init(|| Arc::new(Pool::new(configured_threads())))
    }

    /// Number of participants (spawned workers + the caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a region of `len` items runs inline on the calling
    /// thread: on a one-thread pool (checked first, so that path reads
    /// no thread-local), for fewer than two items, and on one of this
    /// pool's own workers.
    fn runs_inline(&self, len: usize) -> bool {
        self.threads == 1
            || len <= 1
            || WORKER
                .get()
                .is_some_and(|(pool, _)| pool == Arc::as_ptr(&self.shared) as usize)
    }

    /// The shared core of every indexed parallel primitive: runs
    /// `f(slot, item)` for every `item` in `0..len`, where `slot` is a
    /// participant index `< self.threads()` held exclusively for the
    /// duration of the call.
    ///
    /// Items are claimed from an atomic cursor; the caller participates
    /// as slot 0 alongside up to `len − 1` broadcast copies, and the
    /// call returns only when every item has finished and every copy
    /// has run or been reclaimed — so `f` may borrow freely from the
    /// caller's frame. An inline region (see `runs_inline`) has one
    /// participant, slot 0.
    fn run_region<F: Fn(usize, usize) + Sync>(&self, len: usize, f: F) {
        if self.runs_inline(len) {
            for i in 0..len {
                f(0, i);
            }
            return;
        }
        let copies = (self.threads - 1).min(len - 1);
        let region = Region {
            cursor: AtomicUsize::new(0),
            len,
            pending: AtomicUsize::new(copies + 1),
            first_panic: Mutex::new(None),
            latch: Latch::new(),
            f,
        };
        let task = Task {
            data: std::ptr::from_ref(&region).cast(),
            exec: Region::<F>::exec,
        };
        self.shared
            .lock_queue()
            .tasks
            .extend(std::iter::repeat_n(task, copies));
        for _ in 0..copies {
            self.shared.wake.notify_one();
        }
        region.work(0);
        // Reclaim the copies nobody started: the cursor is exhausted, so
        // they would only return their token — and a queued copy must
        // not outlive this frame.
        let reclaimed = {
            let mut queue = self.shared.lock_queue();
            let before = queue.tasks.len();
            queue.tasks.retain(|t| !std::ptr::eq(t.data, task.data));
            before - queue.tasks.len()
        };
        region.release(reclaimed + 1);
        region.latch.wait();
        let payload = region
            .first_panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Computes `f(state, i)` for every `i` in `0..len` and returns the
    /// results in index order, with per-participant mutable state:
    /// `init()` builds one `S` per participant, and `f` receives the
    /// state pinned to whichever participant claimed the item. Slot `i`
    /// receives exactly `f(_, i)` no matter which participant computed
    /// it, so results are deterministic whenever `f`'s output does not
    /// depend on the state history (the contract every engine in this
    /// workspace satisfies).
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
        if self.runs_inline(len) {
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
            // copy has finished or been reclaimed.
            unsafe { f(&mut *ctx_ptr.0.add(slot), i, &mut *item_ptr.0.add(i)) };
        });
    }

    /// A telemetry snapshot: cumulative tasks executed and per-worker
    /// busy time since the pool was built. Counters are relaxed, so a
    /// snapshot taken while work is in flight is approximate; quiescent
    /// snapshots are exact.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let per_worker: Vec<WorkerStats> = self
            .shared
            .counters
            .iter()
            .map(|c| WorkerStats {
                tasks: c.tasks.load(Ordering::Relaxed),
                busy: Duration::from_nanos(c.busy_ns.load(Ordering::Relaxed)),
            })
            .collect();
        PoolStats {
            threads: self.threads,
            tasks_executed: per_worker.iter().map(|w| w.tasks).sum(),
            per_worker,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock_queue().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker's counters inside a [`PoolStats`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Broadcast copies this worker executed.
    pub tasks: u64,
    /// Cumulative wall-clock time spent executing them.
    pub busy: Duration,
}

/// A snapshot of pool telemetry (see [`Pool::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Participant count (spawned workers + caller).
    pub threads: usize,
    /// Total tasks executed by spawned workers.
    pub tasks_executed: u64,
    /// Per spawned worker breakdown (`threads − 1` entries).
    pub per_worker: Vec<WorkerStats>,
}

/// A worker takes broadcast copies FIFO until shutdown, parking on the
/// queue's lock when it is empty — a push holds that lock, so no wakeup
/// is lost.
fn worker_main(shared: &Arc<Shared>, index: usize) {
    WORKER.set(Some((Arc::as_ptr(shared) as usize, index)));
    let mut queue = shared.lock_queue();
    while !queue.shutdown {
        match queue.tasks.pop_front() {
            Some(task) => {
                drop(queue);
                shared.execute(index, task);
                queue = shared.lock_queue();
            }
            None => {
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
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
        let order = Mutex::new(Vec::new());
        pool.parallel_map_with(4, || (), |(), i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(pool.stats().tasks_executed, 0, "nothing is scheduled");
        assert_eq!(Pool::new(0).threads(), 1, "clamped to one participant");
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
    fn region_started_on_a_worker_runs_inline() {
        let pool = Pool::new(3);
        let inline = pool.parallel_map_with(
            6,
            || (),
            |(), _| {
                let me = thread::current().id();
                let inner = pool.parallel_map_with(8, || (), |(), _| thread::current().id());
                // Off the pool (the caller's items) a nested region may
                // fan out; on a worker every inner item stays home.
                WORKER.get().is_none() || inner.iter().all(|&id| id == me)
            },
        );
        assert!(inline.iter().all(|&ok| ok));
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
        assert!(stats.tasks_executed <= 3, "one broadcast copy per worker");
        // A two-item region broadcasts a single copy.
        pool.parallel_map_with(2, || (), |(), i| i);
        assert!(pool.stats().tasks_executed <= stats.tasks_executed + 1);
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
    fn thread_count_setting_is_bounded_and_typed() {
        // The environment can't be mutated safely in a threaded test
        // binary, so the parsing is pinned through its pure function.
        assert!((1..=MAX_THREADS).contains(&configured_threads()));
        let fallback = 3;
        for hostile in [
            "", " ", "\t\n", "0", "00", "-1", "+-1", "1e9", "4.0", "four", "0x10",
        ] {
            assert_eq!(
                threads_from(Some(hostile), fallback),
                fallback,
                "{hostile:?}"
            );
        }
        assert_eq!(threads_from(None, fallback), fallback);
        assert_eq!(threads_from(Some(" 4\n"), fallback), 4);
        assert_eq!(threads_from(Some("+2"), fallback), 2);
        assert_eq!(threads_from(Some("256"), fallback), MAX_THREADS);
        for huge in [
            "257",
            "1000000000",
            "18446744073709551615",
            "18446744073709551616",
        ] {
            assert_eq!(threads_from(Some(huge), fallback), MAX_THREADS, "{huge}");
        }
        assert_eq!(threads_from(None, 0), 1);
        assert_eq!(threads_from(None, 100_000), MAX_THREADS);
    }
}
