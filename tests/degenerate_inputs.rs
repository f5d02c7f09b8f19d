//! Degenerate-input audit tier: every panic-prone site on the session
//! path must surface as a typed error (`HyperEarError` / `ImuError` /
//! `SimError`) or a typed `SessionOutcome::Failed` — never a panic.
//!
//! These are the regression tests for the unwrap/panic audit: empty
//! beacon sets, zero-length traces, all-rejected slides, and invalid
//! fault plans all flow through the public API and come back as values.

use hyperear::asp::BeaconArrival;
use hyperear::config::{Aggregation, HyperEarConfig};
use hyperear::localize::{localize_with, LocalizeScratch};
use hyperear::metrics::Cdf;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear::sfo::{estimate_period_with, SfoScratch};
use hyperear::stream::{StreamConfig, StreamError, StreamService};
use hyperear::tdoa::{augmented_tdoa_with, TdoaScratch};
use hyperear::HyperEarError;
use hyperear_geom::Vec3;
use hyperear_imu::analyze::{analyze_session, SessionConfig};
use hyperear_imu::displacement::{segment_kinematics, DisplacementScratch};
use hyperear_imu::rotation::integrate_rate_into;
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{Fault, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;
use hyperear_util::pool::Pool;
use std::sync::Arc;

const FS_AUDIO: f64 = 44_100.0;
const FS_IMU: f64 = 100.0;

fn input<'a>(
    left: &'a [f64],
    right: &'a [f64],
    accel: &'a [Vec3],
    gyro: &'a [Vec3],
) -> SessionInput<'a> {
    SessionInput {
        audio_sample_rate: FS_AUDIO,
        left,
        right,
        imu_sample_rate: FS_IMU,
        accel,
        gyro,
    }
}

/// A stationary phone's worth of plausible IMU data (gravity only).
fn resting_imu(n: usize) -> (Vec<Vec3>, Vec<Vec3>) {
    (vec![Vec3::new(0.0, 0.0, -9.806_65); n], vec![Vec3::ZERO; n])
}

#[test]
fn empty_and_mismatched_session_inputs_are_typed_errors() {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    let (accel, gyro) = resting_imu(600);
    let tone: Vec<f64> = (0..44_100).map(|i| (i as f64 * 0.3).sin()).collect();

    // Empty audio: the DSP chain must reject it, not index into it.
    let empty: Vec<f64> = Vec::new();
    assert!(engine.run(&input(&empty, &empty, &accel, &gyro)).is_err());

    // Mismatched channel lengths.
    let err = engine
        .run(&input(&tone, &tone[..100], &accel, &gyro))
        .unwrap_err();
    assert!(
        matches!(err, HyperEarError::InvalidParameter { .. }),
        "{err}"
    );

    // Zero-length IMU traces alongside valid audio.
    let no_imu: Vec<Vec3> = Vec::new();
    assert!(engine.run(&input(&tone, &tone, &no_imu, &no_imu)).is_err());

    // Mismatched accel/gyro lengths.
    assert!(engine
        .run(&input(&tone, &tone, &accel, &gyro[..10]))
        .is_err());

    // Non-positive sample rates.
    let mut bad = input(&tone, &tone, &accel, &gyro);
    bad.audio_sample_rate = 0.0;
    assert!(engine.run(&bad).is_err());
    let mut bad = input(&tone, &tone, &accel, &gyro);
    bad.imu_sample_rate = -1.0;
    assert!(engine.run(&bad).is_err());
}

#[test]
fn monitored_pipeline_fails_typed_on_every_degenerate_input() {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    let (accel, gyro) = resting_imu(600);
    let silence = vec![0.0; 88_200];
    let tone: Vec<f64> = (0..44_100).map(|i| (i as f64 * 0.3).sin()).collect();
    let empty_f: Vec<f64> = Vec::new();
    let empty_v: Vec<Vec3> = Vec::new();

    let cases: Vec<(&str, SessionInput<'_>)> = vec![
        ("empty audio", input(&empty_f, &empty_f, &accel, &gyro)),
        (
            "mismatched channels",
            input(&tone, &tone[..1_000], &accel, &gyro),
        ),
        (
            "silence (no beacons)",
            input(&silence, &silence, &accel, &gyro),
        ),
        ("tone (no beacons)", input(&tone, &tone, &accel, &gyro)),
        ("empty imu", input(&tone, &tone, &empty_v, &empty_v)),
        (
            "one imu sample",
            input(&tone, &tone, &accel[..1], &gyro[..1]),
        ),
    ];
    for (label, case) in cases {
        match engine.run_monitored(&case) {
            SessionOutcome::Failed { .. } => {}
            other => panic!("{label}: expected Failed, got {other:?}"),
        }
    }
}

#[test]
fn component_apis_reject_empty_inputs() {
    // Empty beacon sets at every acoustic stage.
    assert!(estimate_period_with(&[], &[(0.0, 1.0)], 0.2, &mut SfoScratch::new()).is_err());
    assert!(augmented_tdoa_with(
        &[],
        &[],
        (0.0, 1.0),
        (2.0, 3.0),
        0.2,
        343.0,
        3,
        &mut TdoaScratch::new()
    )
    .is_err());
    let one = [BeaconArrival {
        time: 0.1,
        strength: 1.0,
    }];
    assert!(augmented_tdoa_with(
        &one,
        &one,
        (0.0, 1.0),
        (2.0, 3.0),
        0.2,
        343.0,
        3,
        &mut TdoaScratch::new()
    )
    .is_err());

    // Empty geometry sets at the solver, allocating and scratch forms.
    assert!(localize_with(&[], Aggregation::Median, &mut LocalizeScratch::new()).is_err());
    assert!(hyperear::localize::localize_with(
        &[],
        Aggregation::Joint,
        &mut LocalizeScratch::new()
    )
    .is_err());

    // Zero-length and too-short inertial traces.
    assert!(analyze_session(&[], &[], FS_IMU, &SessionConfig::default()).is_err());
    let mut kin = DisplacementScratch::default();
    assert!(segment_kinematics(&[], FS_IMU, true, &mut kin).is_err());
    assert!(segment_kinematics(&[1.0], FS_IMU, true, &mut kin).is_err());
    assert!(integrate_rate_into(&[], FS_IMU, &mut Vec::new()).is_err());
    assert!(integrate_rate_into(&[1.0, 2.0], 0.0, &mut Vec::new()).is_err());

    // Empty metric inputs.
    assert!(Cdf::new(&[]).is_err());
}

/// One-shot reference for a (possibly truncated) recording slice.
fn one_shot_outcome(
    rec: &hyperear_sim::scenario::Recording,
    audio_samples: usize,
) -> SessionOutcome {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    engine.run_monitored(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left[..audio_samples],
        right: &rec.audio.right[..audio_samples],
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    })
}

/// A streaming service sized for `rec` with one session slot.
fn stream_service(rec: &hyperear_sim::scenario::Recording) -> StreamService {
    StreamService::new(
        HyperEarConfig::galaxy_s4(),
        StreamConfig {
            max_sessions: 1,
            ring_capacity: 8_192,
            max_samples: rec.audio.left.len(),
            max_imu_samples: rec.imu.accel.len(),
        },
        Arc::new(Pool::new(1)),
    )
    .unwrap()
}

#[test]
fn streaming_degenerate_chunkings_match_one_shot() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(2.5)
        .slides(2)
        .seed(31)
        .render()
        .unwrap();
    let mut svc = stream_service(&rec);

    // Zero-length chunks sprinkled through the stream, plus a chunk
    // straddling a slide boundary (one giant push covering the middle
    // of the capture, fed around two tiny edge pushes), must not
    // change the outcome.
    let reference = one_shot_outcome(&rec, rec.audio.left.len());
    assert!(reference.is_usable());
    let id = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .unwrap();
    svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro).unwrap();
    svc.push_imu(id, &[], &[]).unwrap();
    let n = rec.audio.left.len();
    let cuts = [0usize, 3, n / 2, n - 5, n]; // windows of wildly uneven size
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        svc.push_audio(id, &[], &[]).unwrap(); // zero-length chunk
        let mut pos = a;
        while pos < b {
            let len = (b - pos).min(8_192);
            match svc.push_audio(
                id,
                &rec.audio.left[pos..pos + len],
                &rec.audio.right[pos..pos + len],
            ) {
                Ok(()) => pos += len,
                Err(StreamError::Shed { .. }) => svc.pump(),
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    let mut out = SessionOutcome::idle();
    svc.finish(id, &mut out).unwrap();
    assert_eq!(out, reference);

    // A capture that ends mid-beacon (truncated just after the first
    // beacons) matches the one-shot engine on the same prefix —
    // typically a typed Failed(InsufficientBeacons), never a panic.
    let cut = rec.audio.left.len() / 6;
    let truncated_reference = one_shot_outcome(&rec, cut);
    let id = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .unwrap();
    svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro).unwrap();
    let mut pos = 0;
    while pos < cut {
        let len = (cut - pos).min(1_000);
        match svc.push_audio(
            id,
            &rec.audio.left[pos..pos + len],
            &rec.audio.right[pos..pos + len],
        ) {
            Ok(()) => pos += len,
            Err(StreamError::Shed { .. }) => svc.pump(),
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    svc.finish(id, &mut out).unwrap();
    assert_eq!(out, truncated_reference);

    // An empty streamed capture fails typed like the one-shot engine.
    let id = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .unwrap();
    svc.finish(id, &mut out).unwrap();
    assert!(matches!(out, SessionOutcome::Failed { .. }));
}

#[test]
fn streaming_misuse_is_typed_never_a_panic() {
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.0)
        .slides(1)
        .seed(32)
        .render()
        .unwrap();
    let mut svc = stream_service(&rec);
    let mut out = SessionOutcome::idle();

    // Ingestion into a session that already failed (capacity overrun)
    // reports the sticky typed reason on every later call.
    let id = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .unwrap();
    let too_long = vec![0.0; rec.audio.left.len() + 1];
    match svc.push_audio(id, &too_long, &too_long) {
        Err(StreamError::SessionFailed(HyperEarError::CapacityExceeded { .. })) => {}
        other => panic!("expected sticky capacity failure, got {other:?}"),
    }
    assert!(matches!(
        svc.push_audio(id, &[0.0], &[0.0]),
        Err(StreamError::SessionFailed(_))
    ));
    svc.finish(id, &mut out).unwrap();
    match &out {
        SessionOutcome::Failed { reason, .. } => {
            assert!(matches!(reason, HyperEarError::CapacityExceeded { .. }));
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // The retired id is dead; a second session reuses the slot safely.
    assert_eq!(
        svc.push_audio(id, &[0.0], &[0.0]),
        Err(StreamError::UnknownSession)
    );
    assert_eq!(svc.request_finish(id), Err(StreamError::UnknownSession));
    let id2 = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .unwrap();
    assert!(svc
        .push_audio(id2, &rec.audio.left[..100], &rec.audio.right[..100])
        .is_ok());

    // Pushes after a finish request are refused typed; the finish
    // itself is idempotent.
    svc.request_finish(id2).unwrap();
    svc.request_finish(id2).unwrap();
    assert_eq!(
        svc.push_audio(id2, &[0.0], &[0.0]),
        Err(StreamError::FinishPending)
    );
    svc.pump();
    assert!(svc.try_take_outcome(id2, &mut out).unwrap());
    assert_eq!(
        svc.try_take_outcome(id2, &mut out),
        Err(StreamError::UnknownSession)
    );
}

/// Hostile stream sizing is a typed error at construction: every limit
/// must lie in `1..=` its stated maximum and the sessions' buffers
/// together within the stated byte budget, so no capacity reaches an
/// allocation (`usize::MAX` would overflow `Vec`'s capacity, an
/// abort-sized one would fail the allocation). The sizings accepted at
/// the end are only constructed, never opened: the budget is 16 GiB.
#[test]
fn hostile_stream_capacities_are_typed() {
    let pool = Arc::new(Pool::new(1));
    let base = StreamConfig::for_pool(&pool);
    let mut cases = Vec::new();
    for value in [0, usize::MAX] {
        cases.push(StreamConfig {
            max_sessions: value,
            ..base
        });
        cases.push(StreamConfig {
            ring_capacity: value,
            ..base
        });
        cases.push(StreamConfig {
            max_samples: value,
            ..base
        });
        cases.push(StreamConfig {
            max_imu_samples: value,
            ..base
        });
    }
    cases.push(StreamConfig {
        max_sessions: StreamConfig::MAX_SESSIONS + 1,
        ..base
    });
    let over = StreamConfig::MAX_CAPACITY + 1;
    cases.push(StreamConfig {
        ring_capacity: over,
        ..base
    });
    cases.push(StreamConfig {
        max_samples: over,
        ..base
    });
    cases.push(StreamConfig {
        max_imu_samples: over,
        ..base
    });
    // A session reserves 16 B per ring sample and 48 B per capture and
    // IMU sample: 64 sessions of 256 MiB fill the budget exactly, and
    // one more ring sample per session exceeds it.
    let at_budget = StreamConfig {
        max_sessions: 64,
        ring_capacity: 1 << 22,
        max_samples: 3 << 20,
        max_imu_samples: 1 << 20,
    };
    assert_eq!(
        at_budget.max_sessions as u64
            * (16 * at_budget.ring_capacity as u64
                + 48 * (at_budget.max_samples + at_budget.max_imu_samples) as u64),
        StreamConfig::MAX_RESERVED_BYTES
    );
    cases.push(StreamConfig {
        ring_capacity: at_budget.ring_capacity + 1,
        ..at_budget
    });
    // Every field at its maximum fits one session, not the full fleet.
    let max = StreamConfig {
        max_sessions: 1,
        ring_capacity: StreamConfig::MAX_CAPACITY,
        max_samples: StreamConfig::MAX_CAPACITY,
        max_imu_samples: StreamConfig::MAX_CAPACITY,
    };
    cases.push(StreamConfig {
        max_sessions: StreamConfig::MAX_SESSIONS,
        ..max
    });
    for stream in cases {
        match StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::clone(&pool)) {
            Err(HyperEarError::InvalidParameter { .. }) => {}
            Err(other) => panic!("{stream:?}: expected InvalidParameter, got {other:?}"),
            Ok(mut svc) => {
                let opened = svc.open(44_100.0, 100.0);
                panic!("{stream:?} was accepted (open: {opened:?})");
            }
        }
    }
    // The maxima and the budget themselves are accepted.
    for stream in [
        max,
        at_budget,
        StreamConfig {
            max_sessions: StreamConfig::MAX_SESSIONS,
            ring_capacity: 4_096,
            max_samples: 44_100,
            max_imu_samples: 1_000,
        },
    ] {
        assert!(
            StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::clone(&pool)).is_ok(),
            "{stream:?} was rejected"
        );
    }
}

/// Estimator bank: spectrally-degenerate inputs are graceful no-ops or
/// typed errors at the DSP layer, and typed session failures (or clean
/// fallbacks) at the pipeline layer — never NaN, never a panic.
#[test]
fn degenerate_estimator_inputs_are_typed_or_graceful() {
    use hyperear_dsp::estimator::{
        mcci_fuse_channel_into, mcci_offsets_with, CorrelationSpectrum, EstimatorScratch,
    };

    let mut scratch = EstimatorScratch::default();
    let mut spectrum = CorrelationSpectrum::default();
    let mut out = Vec::new();

    // All-zero correlation under PHAT whitening: the division floor has
    // nothing to normalize against, so the weighting reports a no-op
    // (the detector keeps the unweighted correlation) and writes nothing
    // instead of NaNs.
    spectrum.compute(&[0.0f64; 1_024]).unwrap();
    assert!(
        !spectrum
            .gcc_phat_into(0.15, &mut scratch, &mut out)
            .unwrap(),
        "whitened silence is silence"
    );
    assert!(out.is_empty());

    // Out-of-range whitening floors are typed parameter errors, and so
    // is an empty correlation.
    let mut pulse = vec![0.0f64; 256];
    pulse[40] = 1.0;
    spectrum.compute(&pulse).unwrap();
    assert!(spectrum.gcc_phat_into(0.0, &mut scratch, &mut out).is_err());
    assert!(spectrum.gcc_phat_into(1.0, &mut scratch, &mut out).is_err());
    assert!(spectrum.compute(&[]).is_err());
    assert!(spectrum
        .gcc_phat_into(0.15, &mut scratch, &mut out)
        .is_err());

    // Single-band coherence collapses to a pure band-pass (the noise
    // reference degenerates to the band's own power) — finite output,
    // no NaN, and the all-zero case is again a no-op.
    spectrum.compute(&pulse).unwrap();
    assert!(spectrum
        .subband_coherence_into(FS_AUDIO, 1_000.0, 20_000.0, 1, &mut scratch, &mut out)
        .unwrap());
    assert_eq!(out.len(), pulse.len());
    assert!(out.iter().all(|v| v.is_finite()));
    spectrum.compute(&[0.0f64; 512]).unwrap();
    assert!(!spectrum
        .subband_coherence_into(FS_AUDIO, 1_000.0, 20_000.0, 1, &mut scratch, &mut out)
        .unwrap());
    // Inverted/over-Nyquist band edges and zero band count are typed.
    spectrum.compute(&pulse).unwrap();
    let mut band = |lo: f64, hi: f64, bands: usize| {
        spectrum.subband_coherence_into(FS_AUDIO, lo, hi, bands, &mut scratch, &mut out)
    };
    assert!(band(5_000.0, 1_000.0, 4).is_err());
    assert!(band(1_000.0, 90_000.0, 4).is_err());
    assert!(band(1_000.0, 20_000.0, 0).is_err());

    // MCCI with a dead channel: the offset solver marks it dead and
    // reports too few live channels for fusion instead of aligning
    // against silence; fusing around the dead channel stays finite.
    let live_corr: Vec<f64> = (0..512).map(|i| if i == 100 { 1.0 } else { 0.0 }).collect();
    let dead_corr = vec![0.0f64; 512];
    let mut offsets = Vec::new();
    let mut live = Vec::new();
    let n_live = mcci_offsets_with(&[&live_corr, &dead_corr], 32, &mut offsets, &mut live).unwrap();
    assert_eq!(n_live, 1, "dead channel excluded from the solve");
    assert_eq!(live, [true, false]);
    let mut fused = Vec::new();
    mcci_fuse_channel_into(&[&live_corr, &dead_corr], &offsets, &live, 0, &mut fused).unwrap();
    assert!(fused.iter().all(|v| v.is_finite()));
}

/// Estimator bank at the session layer: silence and dead channels flow
/// through every estimator as typed failures or graceful fallbacks.
#[test]
fn degenerate_sessions_fail_typed_under_every_estimator() {
    use hyperear::config::TdoaEstimator;
    use hyperear::pipeline::SessionResult;

    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    let (accel, gyro) = resting_imu(600);
    let silence = vec![0.0f64; 88_200];

    // Silence (all-zero spectra end to end) under every estimator: the
    // beacon detector finds nothing and the session fails typed.
    for est in TdoaEstimator::ALL {
        let mut out = SessionResult::empty();
        let err = engine
            .run_estimated_into(&input(&silence, &silence, &accel, &gyro), est, &mut out)
            .unwrap_err();
        assert!(
            !matches!(err, HyperEarError::InvalidParameter { .. }),
            "{est:?} on silence: data-dependent failure, not a parameter error: {err}"
        );
    }

    // A real capture with one dead (all-zero) channel: MCCI cannot fuse
    // (one live channel) and falls back to per-channel extraction, which
    // fails typed on the silent side — never a panic.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.0)
        .slides(1)
        .seed(33)
        .render()
        .unwrap();
    let dead = vec![0.0f64; rec.audio.right.len()];
    let mut session = input(&rec.audio.left, &dead, &rec.imu.accel, &rec.imu.gyro);
    session.audio_sample_rate = rec.audio.sample_rate;
    session.imu_sample_rate = rec.imu.sample_rate;
    for est in TdoaEstimator::ALL {
        let mut out = SessionResult::empty();
        assert!(
            engine.run_estimated_into(&session, est, &mut out).is_err(),
            "{est:?} with a dead channel must fail typed"
        );
    }

    // Single-band coherence at the policy level: a degenerate band count
    // of 1 is a pure band-pass, and a healthy session still localizes.
    let mut cfg = HyperEarConfig::galaxy_s4();
    cfg.estimator.coherence_bands = 1;
    let mut single_band = SessionEngine::new(cfg).unwrap();
    let healthy = input(
        &rec.audio.left,
        &rec.audio.right,
        &rec.imu.accel,
        &rec.imu.gyro,
    );
    let mut healthy_in = healthy;
    healthy_in.audio_sample_rate = rec.audio.sample_rate;
    healthy_in.imu_sample_rate = rec.imu.sample_rate;
    let mut out = SessionResult::empty();
    single_band
        .run_estimated_into(&healthy_in, TdoaEstimator::SubbandCoherence, &mut out)
        .expect("single-band coherence degrades to a band-pass, not an error");
    let upper = out.upper.expect("single-band session still localizes");
    assert!(upper.position.x.is_finite() && upper.position.y.is_finite());
}

#[test]
fn invalid_fault_plans_are_typed_sim_errors() {
    let mut rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.0)
        .slides(1)
        .seed(7)
        .render()
        .unwrap();
    for fault in [
        Fault::BeaconDropout { probability: 1.5 },
        Fault::MicGainImbalance {
            right_gain_db: f64::NAN,
        },
        Fault::ImuSampleGaps {
            probability: 0.01,
            max_gap: 0,
        },
    ] {
        let plan = FaultPlan::new(1).with(fault);
        assert!(plan.apply(&mut rec).is_err(), "{fault:?} accepted");
    }
}

/// Array sessions: config-level mismatches are typed errors, and
/// data-dependent DOA failures degrade softly — `bearing: None` on an
/// otherwise usable outcome, never a panic or a failed session.
#[test]
fn degenerate_array_inputs_are_typed_or_soft() {
    use hyperear::config::DoaFrontEnd;
    use hyperear::pipeline::ArraySessionInput;
    use hyperear_geom::{GeomError, MicArray, Vec2};

    // Geometry layer: coincident and collinear placements are typed.
    let stacked = MicArray::from_positions(&[Vec2::ZERO, Vec2::ZERO, Vec2::new(0.0, 0.1)]).unwrap();
    assert!(matches!(
        stacked.validate(),
        Err(GeomError::CoincidentMics { .. })
    ));
    let line = MicArray::from_positions(&[Vec2::ZERO, Vec2::new(0.0, 0.07), Vec2::new(0.0, 0.14)])
        .unwrap();
    assert!(matches!(
        line.validate_planar(),
        Err(GeomError::CollinearMics { .. })
    ));

    // Config layer: a planar front-end on a collinear array cannot even
    // build an engine.
    let mut collinear_cfg = HyperEarConfig::for_array(line);
    collinear_cfg.doa_front_end = DoaFrontEnd::Planar;
    assert!(matches!(
        SessionEngine::new(collinear_cfg),
        Err(HyperEarError::Geom(GeomError::CollinearMics { .. }))
    ));

    // Session layer: channel-count and channel-length mismatches are
    // typed errors for an array capture.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.0)
        .slides(1)
        .seed(11)
        .render()
        .unwrap();
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    let three: [&[f64]; 3] = [&rec.audio.left, &rec.audio.right, &rec.audio.left];
    let base = ArraySessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        channels: &three,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    };
    assert!(matches!(
        engine.run(&base),
        Err(HyperEarError::InvalidParameter { .. })
    ));

    let array = MicArray::triangle(0.1366);
    let tri_rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.0)
        .slides(1)
        .seed(12)
        .render_array(&array)
        .unwrap();
    let mut tri_engine = SessionEngine::new(HyperEarConfig::for_array(array)).unwrap();
    let short: Vec<f64> = tri_rec.audio.channels[2][..1_000].to_vec();
    let ragged: [&[f64]; 3] = [
        &tri_rec.audio.channels[0],
        &tri_rec.audio.channels[1],
        &short,
    ];
    let mut ragged_input = base;
    ragged_input.channels = &ragged;
    assert!(matches!(
        tri_engine.run(&ragged_input),
        Err(HyperEarError::InvalidParameter { .. })
    ));

    // Data layer: a silent extra channel starves the planar front-end
    // of pair delays, but the session itself (which only needs the
    // primary pair) stays usable — the bearing prior is simply absent.
    let silent = vec![0.0f64; tri_rec.audio.channels[2].len()];
    let muted: [&[f64]; 3] = [
        &tri_rec.audio.channels[0],
        &tri_rec.audio.channels[1],
        &silent,
    ];
    let mut muted_input = base;
    muted_input.channels = &muted;
    let outcome = tri_engine.run_monitored(&muted_input);
    let result = outcome.result().expect("session survives a dead channel");
    assert!(result.bearing.is_none(), "no prior from starved front-end");
    assert!(result.pair_delays.is_empty());
}

/// Hostile sample rates at every session entry: zero, negative, NaN,
/// ±inf, a finite rate no template fits (`1e300`) and the smallest
/// subnormal (`5e-324`), on the audio and on the IMU side, through the
/// one-shot entries, the batch engine at 1 and 4 threads, the
/// multi-beacon engine and `StreamService::open`. Each is a typed
/// `InvalidParameter` (a `Rejected` admission for the stream), never a
/// panic and never a detection-stage grade. The capture itself is a
/// clean session that localizes at its real rates.
#[test]
fn hostile_sample_rates_are_typed_at_every_entry() {
    use hyperear::batch::{BatchEngine, MultiBeaconEngine};
    use hyperear::config::{MultiBeaconConfig, TdoaEstimator};
    use hyperear::pipeline::SessionResult;
    use hyperear::stream::AdmissionError;

    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.0)
        .slides(1)
        .seed(31)
        .render()
        .unwrap();
    let clean = SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    };
    let config = HyperEarConfig::galaxy_s4();
    let mut engine = SessionEngine::new(config.clone()).unwrap();
    assert!(
        engine.run(&clean).is_ok(),
        "the capture is a usable session"
    );

    let invalid = |what: &str, outcome: &SessionOutcome| {
        assert!(
            matches!(
                outcome,
                SessionOutcome::Failed {
                    reason: HyperEarError::InvalidParameter { .. },
                    ..
                }
            ),
            "{what}: {outcome:?}"
        );
    };
    let hostile = [
        0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        5e-324,
    ];
    let mut batches: Vec<BatchEngine> = [1, 4]
        .into_iter()
        .map(|threads| BatchEngine::new(config.clone(), Arc::new(Pool::new(threads))).unwrap())
        .collect();
    let multi_config = MultiBeaconConfig::distinct_bands(config.clone(), 2);
    let mut multi = MultiBeaconEngine::new(multi_config, Arc::new(Pool::new(2))).unwrap();
    let mut stream = StreamService::new(
        config.clone(),
        StreamConfig::for_pool(&Pool::new(1)),
        Arc::new(Pool::new(1)),
    )
    .unwrap();

    for rate in hostile {
        for side in ["audio", "imu"] {
            let mut input = clean;
            match side {
                "audio" => input.audio_sample_rate = rate,
                _ => input.imu_sample_rate = rate,
            }
            let what = format!("{side} rate {rate:e}");

            let err = engine.run(&input).unwrap_err();
            assert!(
                matches!(err, HyperEarError::InvalidParameter { .. }),
                "{what} run: {err}"
            );
            let mut out = SessionResult::empty();
            let err = engine
                .run_estimated_into(&input, TdoaEstimator::McciFusion, &mut out)
                .unwrap_err();
            assert!(
                matches!(err, HyperEarError::InvalidParameter { .. }),
                "{what} run_estimated_into: {err}"
            );
            let mut slot = SessionOutcome::idle();
            engine.run_monitored_into(&input, &mut slot);
            invalid(&format!("{what} run_monitored_into"), &slot);

            for batch in &mut batches {
                let mut outs = Vec::new();
                batch.run_batch_into(&[input, clean], &mut outs);
                invalid(&format!("{what} batch x{}", batch.threads()), &outs[0]);
                assert!(outs[1].is_usable(), "{what}: a bad item spoils its batch");
            }

            let mut outs = Vec::new();
            multi.run_session_into(&input, &mut outs);
            assert_eq!(outs.len(), 2);
            for outcome in &outs {
                invalid(&format!("{what} multi-beacon"), outcome);
            }

            match stream.open(input.audio_sample_rate, input.imu_sample_rate) {
                Err(AdmissionError::Rejected(HyperEarError::InvalidParameter { .. })) => {}
                other => panic!("{what} stream open: {other:?}"),
            }
        }
    }
}
