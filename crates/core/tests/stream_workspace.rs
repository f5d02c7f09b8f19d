//! Workspace reuse across sessions: a streaming session keeps only its
//! state (rings, IMU traces, each detector's chunk feed and decimated
//! correlation) and borrows every other buffer — FFT arena, envelope,
//! sort keys, candidate peaks, rebuild window — from the workspace of
//! whichever pool participant pumps it. Captures of different lengths
//! and beacon counts interleaved through one service must therefore
//! leave nothing behind for the next session to read: every streamed
//! outcome equals its one-shot reference, at one participant and at
//! four, whichever participant finishes which session — under plain
//! detection and under sub-band coherence weighting, whose spectrum and
//! guide live in the workspace too.

use hyperear::config::{HyperEarConfig, TdoaEstimator};
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear::stream::{SessionId, StreamConfig, StreamService};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::pool::Pool;
use std::sync::Arc;

fn one_shot(config: &HyperEarConfig, rec: &Recording) -> SessionOutcome {
    let mut engine = SessionEngine::new(config.clone()).unwrap();
    engine.run_monitored(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    })
}

/// Streams every recording through one service, all sessions open at
/// once: chunk `k` of every still-running capture per step, one pump
/// per step, each session finished on the step after its last chunk
/// (so the short capture finishes while the long one is mid-stream).
/// Returns the outcomes in recording order.
fn interleaved(svc: &mut StreamService, recs: &[&Recording], chunk: usize) -> Vec<SessionOutcome> {
    let ids: Vec<SessionId> = recs
        .iter()
        .map(|rec| {
            let id = svc
                .open(rec.audio.sample_rate, rec.imu.sample_rate)
                .unwrap();
            svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro).unwrap();
            id
        })
        .collect();
    let mut outcomes: Vec<Option<SessionOutcome>> = vec![None; recs.len()];
    let steps = recs
        .iter()
        .map(|r| r.audio.left.len().div_ceil(chunk))
        .max()
        .unwrap();
    for step in 0..=steps {
        for (i, (rec, &id)) in recs.iter().zip(&ids).enumerate() {
            let start = step * chunk;
            let n = rec.audio.left.len();
            if start < n {
                let end = (start + chunk).min(n);
                svc.push_audio(
                    id,
                    &rec.audio.left[start..end],
                    &rec.audio.right[start..end],
                )
                .unwrap();
            } else if outcomes[i].is_none() && start < n + chunk {
                svc.request_finish(id).unwrap();
            }
        }
        svc.pump();
        for (i, &id) in ids.iter().enumerate() {
            if outcomes[i].is_none() {
                let mut out = SessionOutcome::idle();
                if svc.try_take_outcome(id, &mut out).unwrap() {
                    outcomes[i] = Some(out);
                }
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every session finished"))
        .collect()
}

#[test]
fn interleaved_sessions_match_one_shot_through_shared_workspaces() {
    // A long two-stature capture and a short 2-slide one.
    let long = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(3)
        .slides_low(3)
        .seed(1_901)
        .render()
        .unwrap();
    let short = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(2.0)
        .slides(2)
        .seed(1_902)
        .render()
        .unwrap();
    assert!(long.audio.left.len() > 2 * short.audio.left.len());
    let stream = StreamConfig {
        max_sessions: 2,
        ring_capacity: 8_192,
        max_samples: long.audio.left.len(),
        max_imu_samples: long.imu.accel.len(),
    };
    for (estimator, threads) in [
        (TdoaEstimator::PlainXcorr, 1),
        (TdoaEstimator::PlainXcorr, 4),
        (TdoaEstimator::SubbandCoherence, 1),
        (TdoaEstimator::SubbandCoherence, 4),
    ] {
        let mut config = HyperEarConfig::galaxy_s4();
        config.estimator.initial = estimator;
        let (ref_long, ref_short) = (one_shot(&config, &long), one_shot(&config, &short));
        assert!(ref_long.is_usable() && ref_short.is_usable());
        let mut svc = StreamService::new(config, stream, Arc::new(Pool::new(threads))).unwrap();
        // Long then short, short then long, and each alone after the
        // other has run: a stale envelope, peak list or spectrum from
        // either capture would change the other's arrivals.
        for (round, order) in [[&long, &short], [&short, &long]].iter().enumerate() {
            let got = interleaved(&mut svc, order, 4_096 - 7 * round);
            let want: Vec<&SessionOutcome> = order
                .iter()
                .map(|r| {
                    if std::ptr::eq(*r, &long) {
                        &ref_long
                    } else {
                        &ref_short
                    }
                })
                .collect();
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g, w, "{estimator:?}, threads {threads}, round {round}");
            }
        }
        for rec in [&short, &long, &short] {
            let got = interleaved(&mut svc, &[rec], 1_999);
            let want = if std::ptr::eq(rec, &long) {
                &ref_long
            } else {
                &ref_short
            };
            assert_eq!(&got[0], want, "{estimator:?}, threads {threads}, alone");
        }
        let footprint = svc.footprint();
        assert_eq!(footprint.participants, threads);
        assert_eq!(
            footprint.workspace_bytes,
            threads * footprint.workspace_formula
        );
        assert_eq!(footprint.state_bytes, footprint.state_formula);
    }
}
