//! Stress tests for the pool: panic propagation from outside the pool
//! and from nested regions, slot exclusivity under nesting, randomized
//! workload shapes pinned against sequential execution, and short-region
//! churn. The unit tests in `pool.rs` cover the happy paths; this binary
//! hammers the scheduling edges that only show up under contention.
//!
//! Latches and regions live in the waiting caller's stack frame, so a
//! completion signal that touches them after the caller may have seen
//! it corrupts whatever that frame is reused for next; the short-region
//! churn below reuses those frames thousands of times.

use hyperear_util::pool::Pool;
use hyperear_util::rng::Xoshiro256pp;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// A deterministic per-item workload whose cost varies with the index,
/// so items finish out of order.
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
            let par = pool.parallel_map_with(len, || (), |(), i| work_item(i));
            let seq: Vec<u64> = (0..len).map(work_item).collect();
            assert_eq!(par, seq, "threads {threads}, len {len}");
        }
    }
}

/// One participant context: an "in use" flag raised for the duration of
/// every item run under it.
struct Slot(AtomicBool);

impl Slot {
    /// Runs `body` holding the slot, counting in `reentries` every item
    /// that found the slot already held — which `parallel_update`'s
    /// `&mut ctxs[slot]` promises never happens.
    fn hold<R>(&self, reentries: &AtomicUsize, body: impl FnOnce() -> R) -> R {
        if self.0.swap(true, Ordering::SeqCst) {
            reentries.fetch_add(1, Ordering::SeqCst);
        }
        let r = body();
        self.0.store(false, Ordering::SeqCst);
        r
    }
}

fn slots(pool: &Pool) -> Vec<Slot> {
    (0..pool.threads())
        .map(|_| Slot(AtomicBool::new(false)))
        .collect()
}

#[test]
fn nested_regions_never_share_a_slot() {
    let reentries = AtomicUsize::new(0);
    for threads in [2usize, 3, 8] {
        let pool = Pool::new(threads);
        for round in 0..300 {
            let mut outer_ctxs = slots(&pool);
            let mut outer: Vec<u64> = vec![0; 2 * threads];
            pool.parallel_update(&mut outer_ctxs, &mut outer, |slot, i, out| {
                *out = slot.hold(&reentries, || {
                    let mut inner_ctxs = slots(&pool);
                    let mut inner: Vec<u64> = vec![0; 2 + (i + round) % 5];
                    pool.parallel_update(&mut inner_ctxs, &mut inner, |slot, j, v| {
                        *v = slot.hold(&reentries, || work_item(i + j));
                    });
                    inner.iter().fold(0, |acc, v| acc ^ v)
                });
            });
            let seq: Vec<u64> = (0..2 * threads)
                .map(|i| (0..2 + (i + round) % 5).fold(0, |acc, j| acc ^ work_item(i + j)))
                .collect();
            assert_eq!(outer, seq, "threads {threads}, round {round}");
        }
    }
    assert_eq!(
        reentries.load(Ordering::SeqCst),
        0,
        "an item ran under a participant slot that was already in use"
    );
}

#[test]
fn repeated_panics_never_wedge_the_pool() {
    let pool = Pool::new(3);
    for round in 0..50 {
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map_with(
                16,
                || (),
                |(), i| {
                    assert!(i != round % 16, "poisoned item");
                },
            );
        }));
        assert!(r.is_err(), "round {round} must propagate the item panic");
        // The pool must stay fully functional between failures.
        let ok = pool.parallel_map_with(8, || (), |(), i| i * 3);
        assert_eq!(ok, vec![0, 3, 6, 9, 12, 15, 18, 21], "round {round}");
    }
}

#[test]
fn panic_inside_nested_region_unwinds_cleanly() {
    for threads in [2usize, 3] {
        let pool = Pool::new(threads);
        let executed = AtomicU64::new(0);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map_with(
                4,
                || (),
                |(), i| {
                    pool.parallel_map_with(
                        2,
                        || (),
                        |(), j| {
                            assert!(i != 2 || j != 1, "inner boom");
                            executed.fetch_add(1, Ordering::SeqCst);
                        },
                    );
                },
            )
        }));
        assert!(r.is_err(), "threads {threads}");
        // Every item but the one that panicked ran to completion before
        // the unwind reached the caller.
        assert_eq!(executed.load(Ordering::SeqCst), 7, "threads {threads}");
        let ok = pool.parallel_map_with(2, || (), |(), i| i + 5);
        assert_eq!(ok, vec![5, 6]);
    }
}

#[test]
fn nested_two_item_regions_share_one_pool() {
    // Two-item regions nested inside a region on the same pool from the
    // same caller: the stress shape of a batch engine running K-beacon
    // sessions, each detecting its two channels as a two-item region.
    let pool = Pool::new(4);
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    for _ in 0..10 {
        let len = 8 + rng.next_below(48) as usize;
        let outer = pool.parallel_map_with(
            len,
            || (),
            |(), i| {
                let pair = pool.parallel_map_with(2, || (), |(), j| work_item(i + j));
                pair[0] ^ pair[1]
            },
        );
        let seq: Vec<u64> = (0..len).map(|i| work_item(i) ^ work_item(i + 1)).collect();
        assert_eq!(outer, seq);
    }
}

/// Runs `rounds` tiny regions and checks each one's result.
fn churn(pool: &Pool, rounds: usize) {
    for round in 0..rounds {
        let pair = pool.parallel_map_with(
            2,
            || (),
            |(), i| {
                if i == 0 {
                    [round.wrapping_mul(3); 4]
                } else {
                    [round; 4]
                }
            },
        );
        assert_eq!(pair, [[round.wrapping_mul(3); 4], [round; 4]]);
        let hits = AtomicUsize::new(0);
        pool.parallel_map_with(
            3,
            || (),
            |(), i| {
                hits.fetch_add(i + 1, Ordering::Relaxed);
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 6, "round {round}");
    }
}

#[test]
fn short_regions_complete_from_outside_and_inside_the_pool() {
    for threads in [2, 4] {
        let pool = Pool::new(threads);
        // From a thread outside the pool: parks on every latch.
        churn(&pool, 5_000);
        // Nested inside a region: the caller's items broadcast to the
        // workers, the workers' items run inline.
        pool.parallel_map_with(2 * threads, || (), |(), _| churn(&pool, 1_000));
    }
}
