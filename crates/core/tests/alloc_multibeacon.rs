//! Zero-allocation steady-state gate for the multi-beacon engine: once
//! a `MultiBeaconEngine` is warm (shared detector built, bank lanes and
//! per-beacon engine scratches at their high-water marks, outcome slots
//! carrying reusable result storage), a whole K-beacon session — one
//! banked detection per channel, the two channels one two-item pool
//! region, then K per-beacon session finishes — performs **zero** heap
//! allocations, at 1, 2 and 4 pool participants.
//!
//! One `#[test]` on purpose: the counting allocator is process-global,
//! and a concurrent test in the same binary would pollute the counter
//! between the snapshot and the assertion.

use hyperear::batch::MultiBeaconEngine;
use hyperear::config::{HyperEarConfig, MultiBeaconConfig};
use hyperear::pipeline::{SessionInput, SessionOutcome};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::pool::Pool;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const BEACONS: usize = 4;

/// Renders a K-beacon scene whose speaker signatures mirror the
/// pipeline's `MultiBeaconConfig::distinct_bands` partition.
fn render() -> Recording {
    let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
        .speaker_range(3.0)
        .slides(2)
        .seed(42);
    for k in 1..BEACONS {
        builder = builder.co_speaker(
            SpeakerModel::new().with_signature(k, BEACONS),
            2.0 + k as f64,
        );
    }
    builder.render().unwrap()
}

fn input(rec: &Recording) -> SessionInput<'_> {
    SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    }
}

#[test]
fn warm_multi_beacon_engine_does_not_allocate() {
    let rec = render();
    let input = input(&rec);
    // One participant takes the sequential path; two and four run the
    // channels as a two-item region whose items land on whichever
    // participants claim them, so channel state pinned to a participant
    // instead of to its item would go cold and allocate here.
    for threads in [1, 2, 4] {
        let pool = Arc::new(Pool::new(threads));
        let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
        let mut engine = MultiBeaconEngine::new(config, pool).unwrap();
        let mut out: Vec<SessionOutcome> = Vec::new();

        // Warm-up: the first run builds the shared detector and grows
        // every buffer; the second grows the outcome slots' scavenged
        // storage.
        engine.run_session_into(&input, &mut out);
        assert_eq!(out.len(), BEACONS);
        assert!(out.iter().any(SessionOutcome::is_usable), "{out:?}");
        engine.run_session_into(&input, &mut out);
        let expected = out.clone();

        let before = ALLOC.allocations();
        for _ in 0..4 {
            engine.run_session_into(&input, &mut out);
        }
        let after = ALLOC.allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state MultiBeaconEngine::run_session_into must not allocate \
             ({threads} participants)"
        );
        assert_eq!(
            out, expected,
            "warm multi-beacon session stays bit-identical ({threads} participants)"
        );
        assert!(engine.working_set_bytes() > 0);
        assert_eq!(engine.beacons(), BEACONS);
    }
}
