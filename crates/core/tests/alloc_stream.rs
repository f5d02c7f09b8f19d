//! Zero-allocation steady-state gate for the streaming service: once a
//! `StreamService` is warm (a parked session with its engine scratch,
//! detectors, rings and outcome storage at their high-water marks, the
//! detector core memoized), a complete ingest→pump→finish→collect
//! cycle performs **zero** heap allocations — and the working set is a
//! function of the configuration, not of how many samples have ever
//! been ingested.
//!
//! The same holds for a mixed fleet: three sessions open at once, each
//! slot streaming a different shape every round (one short slide, four
//! long ones, a two-stature 3D capture), collected out of order with a
//! pump between collections, at one and at four pool participants.
//! It holds when every outcome is collected into one shared slot, and
//! when that slot is a fresh `SessionOutcome::idle()` holding no result
//! storage (the service's spare storage stands in for it).
//!
//! One `#[test]` on purpose: the counting allocator is process-global,
//! and a concurrent test in the same binary would pollute the counter
//! between the snapshot and the assertion.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::SessionOutcome;
use hyperear::stream::{StreamConfig, StreamService};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::pool::Pool;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// One full session cycle with a fixed drive pattern (identical every
/// call, so the warm high-water mark covers the gated calls exactly).
fn cycle(svc: &mut StreamService, rec: &Recording, out: &mut SessionOutcome) {
    let id = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .expect("slot free");
    let mid = rec.imu.accel.len() / 2;
    svc.push_imu(id, &rec.imu.accel[..mid], &rec.imu.gyro[..mid])
        .unwrap();
    svc.push_imu(id, &rec.imu.accel[mid..], &rec.imu.gyro[mid..])
        .unwrap();
    for (l, r) in rec
        .audio
        .left
        .chunks(4_096)
        .zip(rec.audio.right.chunks(4_096))
    {
        svc.push_audio(id, l, r)
            .expect("ring sized for the chunking");
        svc.pump();
    }
    svc.finish(id, &mut *out).unwrap();
}

#[test]
fn warm_stream_service_does_not_allocate() {
    let recs: Vec<Recording> = (0..2)
        .map(|s| {
            ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(Environment::anechoic())
                .speaker_range(3.0)
                .slides(2)
                .seed(800 + s)
                .render()
                .unwrap()
        })
        .collect();
    let stream = StreamConfig {
        max_sessions: 2,
        ring_capacity: 8_192,
        max_samples: recs.iter().map(|r| r.audio.left.len()).max().unwrap(),
        max_imu_samples: recs.iter().map(|r| r.imu.accel.len()).max().unwrap(),
    };
    let pool = Arc::new(Pool::new(2));
    let mut svc = StreamService::new(HyperEarConfig::galaxy_s4(), stream, pool).unwrap();
    let mut out = SessionOutcome::idle();

    // Warm-up: two rounds over both recordings push every buffer —
    // rings, correlation storage, arrival lists, engine scratch, the
    // recycled outcome's slide storage — to its high-water mark.
    let mut expected = Vec::new();
    for _ in 0..2 {
        expected.clear();
        for rec in &recs {
            cycle(&mut svc, rec, &mut out);
            expected.push(out.clone());
        }
    }
    assert!(expected.iter().all(SessionOutcome::is_usable));
    let warm_bytes = svc.working_set_bytes();
    let ingested_before_gate = 4 * recs.iter().map(|r| r.audio.left.len()).sum::<usize>();
    assert!(ingested_before_gate > 0);

    // Gate: two more full rounds, zero allocations, identical outcomes.
    let before = ALLOC.allocations();
    for _ in 0..2 {
        for rec in &recs {
            cycle(&mut svc, rec, &mut out);
        }
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state streaming cycle must not allocate"
    );
    assert_eq!(
        out,
        expected[recs.len() - 1],
        "warm cycle stays bit-identical"
    );

    // Boundedness: twice as much total data has now flowed through the
    // service as at the warm snapshot, and the working set is byte-for-
    // byte unchanged — it depends on the config, not the ingest volume.
    assert_eq!(svc.working_set_bytes(), warm_bytes);
    assert!(warm_bytes > 0);

    let shapes = [(1, 0, 2.0), (4, 0, 5.0), (2, 2, 3.0)].map(|(upper, lower, range)| {
        ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(range)
            .slides(upper)
            .slides_low(lower)
            .stature_drop(0.4)
            .seed(810 + upper as u64)
            .render()
            .unwrap()
    });
    for threads in [1, 4] {
        let allocations = mixed_fleet_allocations(&shapes, threads);
        assert!(
            allocations.iter().all(|&n| n == 0),
            "warm mixed fleet at {threads} participants allocated {allocations:?} per round"
        );
    }
    for threads in [1, 4] {
        let allocations = shared_slot_allocations(&shapes, threads, false);
        assert!(
            allocations.iter().all(|&n| n == 0),
            "warm shared-slot fleet at {threads} participants allocated {allocations:?} per round"
        );
        let allocations = shared_slot_allocations(&shapes, threads, true);
        assert!(
            allocations.iter().all(|&n| n == 0),
            "warm fleet collecting into a fresh idle slot at {threads} participants \
             allocated {allocations:?} per round"
        );
    }
}

/// One round of the mixed fleet: slot `j` streams shape `(j + round) %
/// 3`, audio interleaved in 4,096-sample chunks with a pump per step;
/// every finish is requested and pumped at once, and the outcomes are
/// collected in reverse order, a pump between collections, each into
/// its phone's own slot.
fn mixed_round(
    svc: &mut StreamService,
    shapes: &[Recording; 3],
    round: usize,
    outs: &mut [SessionOutcome; 3],
) {
    let recs: [&Recording; 3] = std::array::from_fn(|j| &shapes[(j + round) % 3]);
    let ids = recs.map(|rec| {
        let id = svc
            .open(rec.audio.sample_rate, rec.imu.sample_rate)
            .expect("slot free");
        svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro).unwrap();
        id
    });
    let steps = recs.map(|r| r.audio.left.len().div_ceil(4_096));
    for step in 0..steps.into_iter().max().unwrap() {
        for (&id, rec) in ids.iter().zip(recs) {
            let at = (step * 4_096).min(rec.audio.left.len());
            let end = (at + 4_096).min(rec.audio.left.len());
            svc.push_audio(id, &rec.audio.left[at..end], &rec.audio.right[at..end])
                .expect("ring sized for the chunking");
        }
        svc.pump();
    }
    for &id in &ids {
        svc.request_finish(id).unwrap();
    }
    svc.pump();
    for (j, &id) in ids.iter().enumerate().rev() {
        assert!(svc.try_take_outcome(id, &mut outs[j]).unwrap());
        svc.pump();
    }
}

/// Allocations in each of six gated mixed rounds after two warm ones,
/// at `threads` participants. The working set must not move while
/// gated, and every gated outcome equals its shape's warm outcome.
fn mixed_fleet_allocations(shapes: &[Recording; 3], threads: usize) -> Vec<u64> {
    let stream = StreamConfig {
        max_sessions: 3,
        ring_capacity: 8_192,
        max_samples: shapes.iter().map(|r| r.audio.left.len()).max().unwrap(),
        max_imu_samples: shapes.iter().map(|r| r.imu.accel.len()).max().unwrap(),
    };
    let pool = Arc::new(Pool::new(threads));
    let mut svc = StreamService::new(HyperEarConfig::galaxy_s4(), stream, pool).unwrap();
    let mut outs: [SessionOutcome; 3] = std::array::from_fn(|_| SessionOutcome::idle());
    let mut expected: [SessionOutcome; 3] = std::array::from_fn(|_| SessionOutcome::idle());
    for round in 0..2 {
        mixed_round(&mut svc, shapes, round, &mut outs);
        for (j, out) in outs.iter().enumerate() {
            expected[(j + round) % 3] = out.clone();
        }
    }
    assert!(
        expected.iter().all(SessionOutcome::is_usable),
        "{expected:?}"
    );
    let warm_bytes = svc.working_set_bytes();
    let allocations = (2..8)
        .map(|round| {
            let before = ALLOC.allocations();
            mixed_round(&mut svc, shapes, round, &mut outs);
            let allocated = ALLOC.allocations() - before;
            for (j, out) in outs.iter().enumerate() {
                assert_eq!(*out, expected[(j + round) % 3], "round {round} slot {j}");
            }
            allocated
        })
        .collect();
    assert_eq!(svc.working_set_bytes(), warm_bytes);
    allocations
}

/// The mixed fleet collected the way a fleet driver does: every outcome
/// into one shared slot, checked against its shape's reference as soon
/// as it lands. Collection swaps storage between the slot and the
/// session, so outcome storage rotates through the parked sessions and
/// any storage can meet the largest capture. Two per-slot rounds take
/// the references, two shared-slot rounds warm the rotation, and each
/// of eight gated shared-slot rounds must read zero allocations with
/// the working set unchanged.
/// Allocations per gated round of [`shared_round`]s, after warm-up. With
/// `fresh`, the gated rounds start from a new `SessionOutcome::idle()`
/// slot, which holds no result storage to swap into the session its
/// first collection parks.
fn shared_slot_allocations(shapes: &[Recording; 3], threads: usize, fresh: bool) -> Vec<u64> {
    let stream = StreamConfig {
        max_sessions: 3,
        ring_capacity: 8_192,
        max_samples: shapes.iter().map(|r| r.audio.left.len()).max().unwrap(),
        max_imu_samples: shapes.iter().map(|r| r.imu.accel.len()).max().unwrap(),
    };
    let pool = Arc::new(Pool::new(threads));
    let mut svc =
        StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::clone(&pool)).unwrap();
    let mut outs: [SessionOutcome; 3] = std::array::from_fn(|_| SessionOutcome::idle());
    let mut expected: [SessionOutcome; 3] = std::array::from_fn(|_| SessionOutcome::idle());
    for round in 0..2 {
        mixed_round(&mut svc, shapes, round, &mut outs);
        for (j, out) in outs.iter().enumerate() {
            expected[(j + round) % 3] = out.clone();
        }
    }
    if fresh {
        // The mixed rounds' idle slots spent the service's one spare
        // storage. A new service warmed through slots that already hold
        // result storage keeps it for the gated rounds.
        svc = StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::clone(&pool)).unwrap();
        outs = expected.clone();
        for round in 0..2 {
            mixed_round(&mut svc, shapes, round, &mut outs);
        }
    }
    let mut shared = if fresh {
        std::mem::replace(&mut outs[0], SessionOutcome::idle())
    } else {
        SessionOutcome::idle()
    };
    for round in 2..4 {
        shared_round(&mut svc, shapes, round, &mut shared, &expected);
    }
    let warm_bytes = svc.working_set_bytes();
    if fresh {
        shared = SessionOutcome::idle();
    }
    let allocations = (4..12)
        .map(|round| {
            let before = ALLOC.allocations();
            shared_round(&mut svc, shapes, round, &mut shared, &expected);
            ALLOC.allocations() - before
        })
        .collect();
    assert_eq!(svc.working_set_bytes(), warm_bytes);
    allocations
}

/// One round of three sessions whose outcomes are all collected into
/// `slot`, checked against `expected`.
fn shared_round(
    svc: &mut StreamService,
    shapes: &[Recording; 3],
    round: usize,
    slot: &mut SessionOutcome,
    expected: &[SessionOutcome; 3],
) {
    let recs: [&Recording; 3] = std::array::from_fn(|j| &shapes[(j + round) % 3]);
    let ids = recs.map(|rec| {
        let id = svc
            .open(rec.audio.sample_rate, rec.imu.sample_rate)
            .expect("slot free");
        svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro).unwrap();
        for (l, r) in rec
            .audio
            .left
            .chunks(4_096)
            .zip(rec.audio.right.chunks(4_096))
        {
            svc.push_audio(id, l, r)
                .expect("ring sized for the chunking");
            svc.pump();
        }
        svc.request_finish(id).unwrap();
        id
    });
    svc.pump();
    for (j, &id) in ids.iter().enumerate().rev() {
        assert!(svc.try_take_outcome(id, &mut *slot).unwrap());
        assert_eq!(*slot, expected[(j + round) % 3], "round {round} slot {j}");
    }
}
