//! Determinism pins for parallel batch processing: the batch output must
//! be bit-identical to sequentially running `run_monitored` over the
//! same inputs — at any thread count, under any schedule, and
//! across repeated runs on warm engines. These tests are the contract
//! that makes `HYPEREAR_THREADS` a pure performance knob.

use hyperear::batch::BatchEngine;
use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::pool::Pool;
use std::sync::Arc;

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

fn render(seed: u64, slides: usize) -> Recording {
    ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(slides)
        .seed(seed)
        .render()
        .unwrap()
}

/// Sequential reference: one engine, `run_monitored` per input in order.
fn sequential(inputs: &[SessionInput<'_>]) -> Vec<SessionOutcome> {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    inputs.iter().map(|i| engine.run_monitored(i)).collect()
}

#[test]
fn batch_matches_sequential_at_every_thread_count() {
    let recs: Vec<Recording> = (0..5).map(|s| render(100 + s, 2)).collect();
    let inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    let reference = sequential(&inputs);
    assert!(reference.iter().any(SessionOutcome::is_usable));
    for threads in [1, 2, 5] {
        let pool = Arc::new(Pool::new(threads));
        let mut batch = BatchEngine::new(HyperEarConfig::galaxy_s4(), pool).unwrap();
        let got = batch.run_batch(&inputs);
        assert_eq!(got, reference, "threads = {threads}");
    }
}

#[test]
fn repeated_batches_on_warm_engine_are_identical() {
    let recs: Vec<Recording> = (0..4).map(|s| render(200 + s, 2)).collect();
    let inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    let pool = Arc::new(Pool::new(3));
    let mut batch = BatchEngine::new(HyperEarConfig::galaxy_s4(), pool).unwrap();
    let first = batch.run_batch(&inputs);
    for round in 0..3 {
        let again = batch.run_batch(&inputs);
        assert_eq!(again, first, "round {round}");
    }
}

#[test]
fn failed_session_never_poisons_the_batch() {
    let recs: Vec<Recording> = (0..3).map(|s| render(300 + s, 2)).collect();
    let silent_left = vec![0.0; recs[1].audio.left.len()];
    let silent_right = vec![0.0; recs[1].audio.right.len()];
    let mut inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    // Item 1 is silence: detection finds nothing and the session fails.
    inputs[1].left = &silent_left;
    inputs[1].right = &silent_right;
    let reference = sequential(&inputs);
    let pool = Arc::new(Pool::new(2));
    let mut batch = BatchEngine::new(HyperEarConfig::galaxy_s4(), pool).unwrap();
    let got = batch.run_batch(&inputs);
    assert_eq!(got, reference);
    assert!(matches!(got[1], SessionOutcome::Failed { .. }));
    assert!(got[0].is_usable());
    assert!(got[2].is_usable());
}

#[test]
fn run_batch_into_reuses_outcome_storage_and_shrinks() {
    let recs: Vec<Recording> = (0..3).map(|s| render(400 + s, 2)).collect();
    let inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    let pool = Arc::new(Pool::new(2));
    let mut batch = BatchEngine::new(HyperEarConfig::galaxy_s4(), pool).unwrap();
    let mut out = Vec::new();
    batch.run_batch_into(&inputs, &mut out);
    let reference = out.clone();
    // Re-running into the same (now longer-than-needed after truncation)
    // vector reproduces the same outcomes.
    batch.run_batch_into(&inputs[..2], &mut out);
    assert_eq!(out.len(), 2);
    assert_eq!(out, reference[..2]);
    batch.run_batch_into(&inputs, &mut out);
    assert_eq!(out, reference);
}

#[test]
fn global_pool_batch_engine_matches_sequential() {
    let recs: Vec<Recording> = (0..3).map(|s| render(600 + s, 2)).collect();
    let inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    let reference = sequential(&inputs);
    let mut batch = BatchEngine::from_env(HyperEarConfig::galaxy_s4()).unwrap();
    assert_eq!(batch.threads(), batch.pool_stats().threads);
    assert_eq!(batch.run_batch(&inputs), reference);
}
