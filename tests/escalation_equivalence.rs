//! Escalation equivalence: a rerun re-extracts from the stored
//! correlations and ends exactly where a fresh engine would.
//!
//! An escalating engine correlates each channel once per monitored call
//! and lets every heavier rung re-extract arrivals from that store (the
//! weighting rungs share one spectrum per channel). Nothing from an
//! earlier call may leak into a later one. With `escalate_below = 1.0`
//! every session walks the whole ladder. The warm engine sees faulted
//! recordings in the order A, B, A, and each escalated outcome must
//! `assert_eq!` the outcome of a fresh, non-escalating engine whose
//! initial estimator is the ladder's winner (the `escalations` count
//! aside), and the outcome of a fresh escalating engine. A stale store,
//! say B's correlations reused for the second A, or a spectrum left over
//! from another session, breaks one of the equalities: the first when
//! the spoiled rung wins, the second when it loses.
//!
//! Stereo captures and N-microphone array captures (3 and 4
//! microphones), both through `run_monitored_into`, are covered.
//! `scripts/verify.sh --estimators` runs this binary at
//! `HYPEREAR_THREADS=1` and `=4` and greps the
//! `escalation-contract: … HELD` lines.

use hyperear::config::{HyperEarConfig, TdoaEstimator};
use hyperear::pipeline::{ArraySessionInput, SessionEngine, SessionInput, SessionOutcome};
use hyperear_geom::devices::{DevicePreset, SPEAKER_RECT, TABLET_TRIANGLE};
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{matrix, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{ArrayRecording, Recording, ScenarioBuilder};

/// Escalation on every session, through every rung of the ladder
/// (plain → PHAT → sub-band coherence → MCCI fusion).
fn forced_ladder(mut config: HyperEarConfig) -> HyperEarConfig {
    config.estimator.escalation = true;
    config.estimator.escalate_below = 1.0;
    config.degradation.retry_budget = 3;
    config
}

/// The reference for an escalated outcome: a fresh engine that starts
/// on the ladder's winner and never escalates. A failed session keeps
/// its first (initial-estimator) outcome, since a failed rerun never
/// beats a failed incumbent.
fn reference_config(ladder: &HyperEarConfig, outcome: &SessionOutcome) -> HyperEarConfig {
    let mut config = ladder.clone();
    config.estimator.escalation = false;
    config.estimator.initial = outcome
        .result()
        .map_or(ladder.estimator.initial, |r| r.estimator);
    config
}

/// The outcome with its escalation count cleared: the one field in
/// which a rerun's winner legitimately differs from a fresh run.
fn without_escalations(mut outcome: SessionOutcome) -> (SessionOutcome, usize) {
    let mut count = 0;
    match &mut outcome {
        SessionOutcome::Degraded { diagnostics, .. } => {
            count = std::mem::take(&mut diagnostics.escalations);
        }
        SessionOutcome::Failed {
            diagnostics: Some(d),
            ..
        } => count = std::mem::take(&mut d.escalations),
        _ => {}
    }
    (outcome, count)
}

/// Winner estimator name of an outcome, for the contract line.
fn winner(outcome: &SessionOutcome) -> &'static str {
    outcome
        .result()
        .map_or("failed", |r| TdoaEstimator::name(r.estimator))
}

fn faulted_stereo(seed: u64, class: usize) -> Recording {
    let mut rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(2)
        .seed(seed)
        .render()
        .unwrap();
    FaultPlan::new(seed ^ 0xE5CA)
        .with(matrix(0.8)[class])
        .apply(&mut rec)
        .unwrap();
    rec
}

/// An array capture with impulsive bursts on every channel and a 40 ms
/// dropout on the last one (the stereo fault plan covers two channels
/// only), drawn from a fixed LCG so the corruption is reproducible.
fn faulted_array(preset: DevicePreset, phone: PhoneModel, seed: u64) -> ArrayRecording {
    let mut rec = ScenarioBuilder::new(phone)
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(2)
        .seed(seed)
        .render_array(&preset.array())
        .unwrap();
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    let fs = rec.audio.sample_rate;
    let last = rec.audio.channels.len() - 1;
    for (k, ch) in rec.audio.channels.iter_mut().enumerate() {
        let n = ch.len();
        for _ in 0..(3.0 * n as f64 / fs) as usize {
            let at = next(n - 64);
            for (i, v) in ch[at..at + 64].iter_mut().enumerate() {
                *v += if i % 2 == 0 { 0.25 } else { -0.25 };
            }
        }
        if k == last {
            let len = (0.04 * fs) as usize;
            let at = next(n - len);
            ch[at..at + len].fill(0.0);
        }
    }
    rec
}

fn stereo_input(rec: &Recording) -> SessionInput<'_> {
    SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    }
}

fn array_input<'a>(rec: &'a ArrayRecording, chans: &'a [&'a [f64]]) -> ArraySessionInput<'a> {
    ArraySessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        channels: chans,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    }
}

/// Checks one warm escalated outcome: it equals a fresh escalating
/// engine's (so a rung spoiled by stale state cannot hide by losing the
/// ladder), the ladder ran every rung, and the winner equals a fresh
/// non-escalating engine on the winning estimator.
fn check(
    what: &str,
    ladder: &HyperEarConfig,
    escalated: &SessionOutcome,
    run: impl Fn(&mut SessionEngine, &mut SessionOutcome),
) {
    let mut fresh = SessionEngine::new(ladder.clone()).unwrap();
    let mut expected = SessionOutcome::idle();
    run(&mut fresh, &mut expected);
    assert_eq!(
        escalated, &expected,
        "{what}: warm escalated outcome differs from a fresh escalating engine's"
    );
    let mut fresh = SessionEngine::new(reference_config(ladder, escalated)).unwrap();
    run(&mut fresh, &mut expected);
    let (got, escalations) = without_escalations(escalated.clone());
    if !matches!(escalated, SessionOutcome::Ok(_)) {
        assert_eq!(
            escalations, ladder.degradation.retry_budget,
            "{what}: the forced ladder spends the whole budget"
        );
    }
    assert_eq!(
        got,
        expected,
        "{what}: escalated outcome ({}) differs from a fresh run",
        winner(escalated)
    );
}

#[test]
fn stereo_reruns_match_fresh_engines_across_sessions() {
    let ladder = forced_ladder(HyperEarConfig::galaxy_s4());
    // A: beacon clipping, won by sub-band coherence; B: NLOS multipath,
    // won by GCC-PHAT (fault-matrix classes 1 and 2). Both winners read
    // a spectrum, so a correlation or spectrum left over from the other
    // session changes the outcome.
    let a = faulted_stereo(91_005, 1);
    let b = faulted_stereo(91_000, 2);
    let mut engine = SessionEngine::new(ladder.clone()).unwrap();
    let mut slot = SessionOutcome::idle();
    let mut winners = Vec::new();
    for (name, rec) in [("A", &a), ("B", &b), ("A again", &a)] {
        engine.run_monitored_into(&stereo_input(rec), &mut slot);
        check(&format!("stereo {name}"), &ladder, &slot, |fresh, out| {
            fresh.run_monitored_into(&stereo_input(rec), out);
        });
        winners.push(winner(&slot));
    }
    println!(
        "escalation-contract: stereo A, B, A reruns equal fresh engines (winners {}): HELD",
        winners.join(", ")
    );
}

#[test]
fn array_reruns_match_fresh_engines_across_sessions() {
    // Seeds whose A session is won by a rerun from plain xcorr: GCC-PHAT
    // on the triangle, MCCI fusion on the rectangle. Array sessions are
    // rarely won by a weighting rung from plain, so each array also
    // walks the ladder from GCC-PHAT, where every pass reads a spectrum.
    for (preset, phone, seed_a) in [
        (TABLET_TRIANGLE, PhoneModel::galaxy_s4(), 92_001),
        (SPEAKER_RECT, PhoneModel::galaxy_note3(), 92_005),
    ] {
        let a = faulted_array(preset, phone.clone(), seed_a);
        let b = faulted_array(preset, phone, 92_002);
        let chans_a: Vec<&[f64]> = a.audio.channels.iter().map(Vec::as_slice).collect();
        let chans_b: Vec<&[f64]> = b.audio.channels.iter().map(Vec::as_slice).collect();
        for initial in [TdoaEstimator::PlainXcorr, TdoaEstimator::GccPhat] {
            let mut ladder = forced_ladder(HyperEarConfig::for_device(preset));
            ladder.estimator.initial = initial;
            let mut engine = SessionEngine::new(ladder.clone()).unwrap();
            let mut slot = SessionOutcome::idle();
            let mut winners = Vec::new();
            for (name, rec, chans) in [
                ("A", &a, &chans_a),
                ("B", &b, &chans_b),
                ("A again", &a, &chans_a),
            ] {
                engine.run_monitored_into(&array_input(rec, chans), &mut slot);
                let what = format!("{} from {} {name}", preset.name, initial.name());
                check(&what, &ladder, &slot, |fresh, out| {
                    fresh.run_monitored_into(&array_input(rec, chans), out);
                });
                winners.push(winner(&slot));
            }
            println!(
                "escalation-contract: {}-mic {} from {} A, B, A reruns equal fresh engines \
                 (winners {}): HELD",
                preset.mic_count,
                preset.name,
                initial.name(),
                winners.join(", ")
            );
        }
    }
}
