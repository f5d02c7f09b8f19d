//! Zero-allocation steady-state gate for N-microphone array sessions:
//! once warm, the array path — N-channel detection fanned across the
//! pool, per-pair delay extraction, and either DOA front-end — performs
//! **zero** heap allocations, same as the stereo path it generalizes.
//!
//! One `#[test]` on purpose: the counting allocator is process-global,
//! and a concurrent test in the same binary would pollute the counter
//! between the snapshot and the assertion.

use hyperear::batch::BatchEngine;
use hyperear::config::{DoaFrontEnd, HyperEarConfig};
use hyperear::pipeline::{ArraySessionInput, SessionEngine, SessionOutcome};
use hyperear_geom::MicArray;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{ArrayRecording, ScenarioBuilder};
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::pool::Pool;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn render_fleet(array: &MicArray) -> Vec<ArrayRecording> {
    (0..3)
        .map(|s| {
            ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(Environment::anechoic())
                .speaker_range(2.5)
                .slides(2)
                .seed(4_100 + s)
                .render_array(array)
                .unwrap()
        })
        .collect()
}

#[test]
fn warm_array_sessions_do_not_allocate() {
    let array = MicArray::triangle(0.1366);
    let recs = render_fleet(&array);
    let chan_refs: Vec<Vec<&[f64]>> = recs
        .iter()
        .map(|rec| rec.audio.channels.iter().map(Vec::as_slice).collect())
        .collect();
    let inputs: Vec<ArraySessionInput<'_>> = recs
        .iter()
        .zip(&chan_refs)
        .map(|(rec, chans)| ArraySessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            channels: chans,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })
        .collect();

    // Batch path, planar front-end: 3 channels fanned over the pool.
    let config = HyperEarConfig::for_device(hyperear_geom::devices::TABLET_TRIANGLE);
    assert_eq!(config.doa_front_end, DoaFrontEnd::Planar);
    let pool = Arc::new(Pool::new(2));
    let mut batch = BatchEngine::new(config.clone(), pool).unwrap();
    let mut out: Vec<SessionOutcome> = Vec::new();
    batch.warm(&inputs);
    batch.run_batch_into(&inputs, &mut out);
    assert!(out.iter().all(SessionOutcome::is_usable));
    assert!(out
        .iter()
        .all(|o| o.result().is_some_and(|r| r.bearing.is_some())));
    batch.run_batch_into(&inputs, &mut out);
    let expected = out.clone();

    let before = ALLOC.allocations();
    for _ in 0..2 {
        batch.run_batch_into(&inputs, &mut out);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "steady-state run_batch_into must not allocate"
    );
    assert_eq!(out, expected, "warm array batch must stay bit-identical");

    // One-shot path, phase-tracking front-end: Goertzel phases over the
    // stationary hold, in fixed storage.
    let mut phase_cfg = config;
    phase_cfg.doa_front_end = DoaFrontEnd::PhaseTracking;
    let mut engine = SessionEngine::new(phase_cfg).unwrap();
    let mut slot = SessionOutcome::idle();
    engine.run_monitored_into(&inputs[0], &mut slot);
    engine.run_monitored_into(&inputs[0], &mut slot);
    let expected = slot.clone();

    let before = ALLOC.allocations();
    for _ in 0..2 {
        engine.run_monitored_into(&inputs[0], &mut slot);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "steady-state phase-tracking array session must not allocate"
    );
    assert_eq!(slot, expected);
}
