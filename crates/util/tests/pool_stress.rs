//! Stress tests for the work-stealing pool: panic propagation from every
//! primitive, deeply nested fork/join on saturated pools, and randomized
//! workload shapes pinned against sequential execution. The unit tests in
//! `pool.rs` cover the happy paths; this binary hammers the scheduling
//! edges that only show up under contention.
//!
//! Latches and regions live in the waiting caller's stack frame, so a
//! completion signal that touches them after the caller may have seen
//! it corrupts whatever that frame is reused for next; the short-region
//! churn below reuses those frames thousands of times.

use hyperear_util::pool::Pool;
use hyperear_util::rng::Xoshiro256pp;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A deterministic per-item workload whose cost varies with the index,
/// so items finish out of order and stealing actually happens.
fn work_item(i: usize) -> u64 {
    let rounds = 64 + (i % 7) * 211;
    (0..rounds as u64).fold(i as u64, |acc, k| {
        acc.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k
    })
}

#[test]
fn randomized_map_shapes_match_sequential() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5745_u64);
    for threads in [1usize, 2, 3, 8] {
        let pool = Pool::new(threads);
        for _ in 0..20 {
            let len = rng.next_below(400) as usize;
            let par = pool.parallel_map(len, work_item);
            let seq: Vec<u64> = (0..len).map(work_item).collect();
            assert_eq!(par, seq, "threads {threads}, len {len}");
        }
    }
}

#[test]
fn nested_joins_to_depth_under_saturation() {
    // Binary recursion to depth 12 on a small pool: 2^12 leaves all
    // funnel through two workers plus the caller, exercising the
    // reclaim-unstarted-task path and worker help-while-waiting.
    fn sum(pool: &Pool, lo: u64, hi: u64, depth: usize) -> u64 {
        if depth == 0 || hi - lo < 2 {
            return (lo..hi).map(|x| x * x).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = pool.join(
            || sum(pool, lo, mid, depth - 1),
            || sum(pool, mid, hi, depth - 1),
        );
        a + b
    }
    let expected: u64 = (0..4096).map(|x: u64| x * x).sum();
    for threads in [1, 3] {
        let pool = Pool::new(threads);
        assert_eq!(sum(&pool, 0, 4096, 12), expected, "threads {threads}");
    }
}

#[test]
fn repeated_panics_never_wedge_the_pool() {
    let pool = Pool::new(3);
    for round in 0..50 {
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(16, |i| {
                assert!(i != round % 16, "poisoned item");
            });
        }));
        assert!(r.is_err(), "round {round} must propagate the item panic");
        // The pool must stay fully functional between failures.
        let ok = pool.parallel_map(8, |i| i * 3);
        assert_eq!(ok, vec![0, 3, 6, 9, 12, 15, 18, 21], "round {round}");
    }
}

#[test]
fn panic_inside_nested_join_unwinds_cleanly() {
    let pool = Pool::new(2);
    let executed = AtomicU64::new(0);
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.join(
            || {
                pool.join(
                    || executed.fetch_add(1, Ordering::SeqCst),
                    || panic!("inner right boom"),
                )
            },
            || executed.fetch_add(1, Ordering::SeqCst),
        )
    }));
    assert!(r.is_err());
    // Both non-panicking closures ran to completion before the unwind.
    assert_eq!(executed.load(Ordering::SeqCst), 2);
    let (a, b) = pool.join(|| 5, || 6);
    assert_eq!((a, b), (5, 6));
}

#[test]
fn scope_survives_mixed_panicking_spawns() {
    let pool = Pool::new(3);
    let done = AtomicU64::new(0);
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.scope(|s| {
            for i in 0..32 {
                s.spawn(|| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
                if i == 17 {
                    s.spawn(|| panic!("spawn seventeen-and-a-half"));
                }
            }
        });
    }));
    assert!(r.is_err(), "spawned panic must re-throw from scope");
    // Every non-panicking spawn still ran: scope waits for all tasks
    // before propagating.
    assert_eq!(done.load(Ordering::SeqCst), 32);
}

#[test]
fn interleaved_primitives_share_one_pool() {
    // Regions, joins and scopes interleaved on the same pool from the
    // same caller: the stress shape of a batch engine running sessions
    // whose internals also fork.
    let pool = Pool::new(4);
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    for _ in 0..10 {
        let len = 8 + rng.next_below(48) as usize;
        let outer = pool.parallel_map(len, |i| {
            let (a, b) = pool.join(|| work_item(i), || work_item(i + 1));
            a ^ b
        });
        let seq: Vec<u64> = (0..len).map(|i| work_item(i) ^ work_item(i + 1)).collect();
        assert_eq!(outer, seq);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..len {
                s.spawn(|| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst) as usize, len);
    }
}

/// Runs `rounds` tiny fork/join regions and checks each one's result.
fn churn(pool: &Pool, rounds: usize) {
    for round in 0..rounds {
        let (a, b) = pool.join(|| round.wrapping_mul(3), || [round; 4]);
        assert_eq!(a, round.wrapping_mul(3));
        assert_eq!(b, [round; 4]);
        let hits = AtomicUsize::new(0);
        pool.parallel_map(3, |i| {
            hits.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6, "round {round}");
    }
}

#[test]
fn short_regions_complete_from_outside_and_inside_the_pool() {
    for threads in [2, 4] {
        let pool = Pool::new(threads);
        // From a thread outside the pool: parks on every latch.
        churn(&pool, 5_000);
        // From pool workers (and the caller): spins on every latch while
        // helping, and broadcasts nested regions to sibling workers.
        pool.parallel_map(2 * threads, |_| churn(&pool, 1_000));
    }
}
