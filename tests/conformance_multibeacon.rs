//! Multi-beacon conformance (tier 9): K concurrent beacons through the
//! shared-spectrum template bank, end to end.
//!
//! Pins the three contracts the `--multibeacon` verify tier greps for:
//! per-beacon sessions recover every speaker's range from one shared
//! capture; outcomes are **bit-identical** at any `HYPEREAR_THREADS`;
//! and cross-beacon interference (a rogue full-band chirp) degrades a
//! session into a typed outcome, never a panic, deterministically.

use hyperear::batch::MultiBeaconEngine;
use hyperear::config::{HyperEarConfig, MultiBeaconConfig};
use hyperear::pipeline::{SessionInput, SessionOutcome};
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{Fault, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;
use hyperear_util::pool::Pool;
use std::sync::Arc;

const BEACONS: usize = 4;
/// Primary speaker at 3 m, co-speakers at their own broadside ranges.
const CO_RANGES: [f64; 3] = [2.0, 4.0, 5.5];

/// Renders one capture containing all four beacons: the primary speaker
/// and three co-speakers, each playing its `with_signature` sub-band —
/// the simulator-side mirror of `MultiBeaconConfig::distinct_bands`.
fn render(seed: u64) -> Recording {
    let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
        .speaker_range(3.0)
        .slides(5)
        .seed(seed);
    for (k, range) in CO_RANGES.iter().enumerate() {
        builder = builder.co_speaker(SpeakerModel::new().with_signature(k + 1, BEACONS), *range);
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

fn run(rec: &Recording, threads: usize) -> Vec<SessionOutcome> {
    let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
    let mut engine = MultiBeaconEngine::new(config, Arc::new(Pool::new(threads))).unwrap();
    let mut out = Vec::new();
    engine.run_session_into(&input(rec), &mut out);
    out
}

#[test]
fn every_beacon_recovers_its_own_speaker_range() {
    let rec = render(910);
    let outcomes = run(&rec, 2);
    assert_eq!(outcomes.len(), BEACONS);
    // Anechoic same-plane setup: each beacon's slant range equals its
    // configured broadside range.
    let truths = [3.0, CO_RANGES[0], CO_RANGES[1], CO_RANGES[2]];
    for (k, (outcome, truth)) in outcomes.iter().zip(&truths).enumerate() {
        assert!(outcome.is_usable(), "beacon {k}: {outcome:?}");
        let est = outcome
            .result()
            .and_then(|r| r.upper.as_ref())
            .unwrap_or_else(|| panic!("beacon {k} has no estimate"));
        let err = (est.range - truth).abs();
        // Sub-band chirps carry a quarter of the full time-bandwidth
        // product, so the budget is looser than the single-beacon tier's.
        assert!(
            err < 0.35,
            "beacon {k}: estimated {:.3} m vs true {truth} m",
            est.range
        );
    }
    println!("multibeacon-contract: k={BEACONS} per-beacon range recovery HELD");
}

#[test]
fn outcomes_are_bit_identical_at_every_thread_count() {
    let rec = render(911);
    let reference = run(&rec, 1);
    assert!(reference.iter().any(SessionOutcome::is_usable));
    for threads in [2, 4] {
        let got = run(&rec, threads);
        assert_eq!(got, reference, "threads = {threads}");
    }
    // A warm engine re-running the same session is also bit-stable.
    let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
    let mut engine = MultiBeaconEngine::new(config, Arc::new(Pool::new(2))).unwrap();
    let mut out = Vec::new();
    for round in 0..2 {
        engine.run_session_into(&input(&rec), &mut out);
        assert_eq!(out, reference, "round {round}");
    }
    println!("multibeacon-contract: outcomes bit-identical at threads 1/2/4 HELD");
}

#[test]
fn cross_beacon_interference_degrades_into_typed_outcomes() {
    let clean = render(912);
    let mut faulted = clean.clone();
    let plan = FaultPlan::new(77).with(Fault::CrossBeaconInterference {
        probability: 0.8,
        f0: 2_000.0,
        f1: 6_400.0,
        amplitude: 0.35,
    });
    let log = plan.apply(&mut faulted).unwrap();
    assert!(log.rogue_chirps > 5, "{log:?}");
    let a = run(&faulted, 2);
    let b = run(&faulted, 4);
    assert_eq!(a, b, "faulted outcomes must stay deterministic");
    assert_eq!(a.len(), BEACONS);
    // Typed grades, never a panic: an interference-swamped beacon may
    // fail, but it must say so through the outcome. The distinct-band
    // signatures keep at least one beacon usable under a full-band
    // rogue sweep.
    assert!(a.iter().any(SessionOutcome::is_usable), "{a:?}");
    for (k, outcome) in a.iter().enumerate() {
        if let SessionOutcome::Failed { reason, .. } = outcome {
            let _ = format!("beacon {k}: {reason}"); // typed, displayable
        }
    }
    println!("multibeacon-contract: cross-beacon interference graded typed HELD");
}
