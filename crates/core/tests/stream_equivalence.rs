//! The streaming front end's core contract: a session ingested in
//! chunks — of *any* size, through *any* ring capacity — produces a
//! [`SessionOutcome`] **equal** to handing the whole capture to the
//! one-shot engine. The incremental matched filter forms FFT blocks at
//! the same stream offsets regardless of chunking, so this holds
//! bit-exactly (stronger than the 1e-9 closeness the streaming design
//! budgeted for), and the tests below pin it with `assert_eq!` across
//! randomized chunk sizes (1 sample up to the whole capture) and ring
//! wrap points.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear::stream::{StreamConfig, StreamError, StreamService};
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::rng::SimRng;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::pool::Pool;
use std::sync::Arc;

fn render(seed: u64) -> Recording {
    ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::room_quiet())
        .speaker_range(3.0)
        .slides(2)
        .seed(seed)
        .render()
        .unwrap()
}

fn one_shot(rec: &Recording) -> SessionOutcome {
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    engine.run_monitored(&SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    })
}

/// Streams `rec` through a fresh service using the given ring capacity,
/// taking chunk sizes from `next_len`. Sheds are retried after a pump,
/// exactly as a real caller would.
fn stream_outcome(
    rec: &Recording,
    ring_capacity: usize,
    mut next_len: impl FnMut() -> usize,
) -> SessionOutcome {
    let stream = StreamConfig {
        max_sessions: 2,
        ring_capacity,
        max_samples: rec.audio.left.len(),
        max_imu_samples: rec.imu.accel.len(),
    };
    let mut svc =
        StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::new(Pool::new(1))).unwrap();
    let id = svc
        .open(rec.audio.sample_rate, rec.imu.sample_rate)
        .unwrap();
    // IMU lands in two unequal chunks to cover the append path.
    let mid = rec.imu.accel.len() / 3;
    svc.push_imu(id, &rec.imu.accel[..mid], &rec.imu.gyro[..mid])
        .unwrap();
    svc.push_imu(id, &rec.imu.accel[mid..], &rec.imu.gyro[mid..])
        .unwrap();
    let mut pos = 0;
    while pos < rec.audio.left.len() {
        let len = next_len().min(rec.audio.left.len() - pos).max(1);
        let (l, r) = (
            &rec.audio.left[pos..pos + len],
            &rec.audio.right[pos..pos + len],
        );
        match svc.push_audio(id, l, r) {
            Ok(()) => pos += len,
            Err(StreamError::Shed { .. }) => svc.pump(),
            Err(e) => panic!("unexpected stream error: {e}"),
        }
    }
    let mut out = SessionOutcome::idle();
    svc.finish(id, &mut out).unwrap();
    out
}

#[test]
fn randomized_chunk_sizes_match_one_shot() {
    let rec = render(900);
    let reference = one_shot(&rec);
    assert!(reference.is_usable(), "reference session must localize");
    let mut rng = SimRng::seed_from(77).fork("chunk-sizes");
    // Chunk-size regimes from pathological to whole-capture; each trial
    // draws every chunk length independently from 1..=max.
    for max_len in [1usize, 17, 1_024, 60_000, rec.audio.left.len()] {
        let got = stream_outcome(&rec, 4_096, || rng.index(max_len) + 1);
        assert_eq!(got, reference, "chunk regime 1..={max_len}");
    }
}

#[test]
fn whole_capture_in_one_chunk_matches_one_shot() {
    let rec = render(901);
    let reference = one_shot(&rec);
    let n = rec.audio.left.len();
    let got = stream_outcome(&rec, n, || n);
    assert_eq!(got, reference);
}

#[test]
fn ring_wrap_points_do_not_change_outcomes() {
    let rec = render(902);
    let reference = one_shot(&rec);
    assert!(reference.is_usable());
    // Fixed chunking against co-prime-ish ring capacities: every
    // capacity places the wrap at different stream offsets, and a
    // chunk rarely divides the ring so drains split chunks across the
    // wrap constantly.
    for ring in [1_024usize, 1_531, 2_048, 3_000] {
        let got = stream_outcome(&rec, ring, || 1_000);
        assert_eq!(got, reference, "ring capacity {ring}");
    }
}

#[test]
fn many_interleaved_sessions_each_match_their_one_shot() {
    // Three phones stream through one service concurrently with
    // different chunkings; every outcome must still equal its own
    // one-shot reference (sessions share a service but nothing leaks
    // between them).
    let recs: Vec<Recording> = (0..3).map(|s| render(910 + s)).collect();
    let references: Vec<SessionOutcome> = recs.iter().map(one_shot).collect();
    let max_samples = recs.iter().map(|r| r.audio.left.len()).max().unwrap();
    let max_imu = recs.iter().map(|r| r.imu.accel.len()).max().unwrap();
    let stream = StreamConfig {
        max_sessions: 3,
        ring_capacity: 4_096,
        max_samples,
        max_imu_samples: max_imu,
    };
    let mut svc =
        StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::new(Pool::new(2))).unwrap();
    let ids: Vec<_> = recs
        .iter()
        .map(|r| svc.open(r.audio.sample_rate, r.imu.sample_rate).unwrap())
        .collect();
    for (i, rec) in recs.iter().enumerate() {
        svc.push_imu(ids[i], &rec.imu.accel, &rec.imu.gyro).unwrap();
    }
    let mut pos = vec![0usize; recs.len()];
    let chunk = [997usize, 1_024, 501];
    while pos.iter().zip(&recs).any(|(p, r)| *p < r.audio.left.len()) {
        for (i, rec) in recs.iter().enumerate() {
            let remaining = rec.audio.left.len() - pos[i];
            if remaining == 0 {
                continue;
            }
            let len = chunk[i].min(remaining);
            let (l, r) = (
                &rec.audio.left[pos[i]..pos[i] + len],
                &rec.audio.right[pos[i]..pos[i] + len],
            );
            if svc.push_audio(ids[i], l, r).is_ok() {
                pos[i] += len;
            } // else: shed, retry next round after the pump below
        }
        svc.pump();
    }
    for (i, id) in ids.iter().enumerate() {
        let mut out = SessionOutcome::idle();
        svc.finish(*id, &mut out).unwrap();
        assert_eq!(out, references[i], "phone {i}");
    }
}

/// Numeric-edge PCM through the whole pipeline: NaN, ±inf and subnormal
/// samples planted in the first detection block pair and near the end of
/// the capture (pairs the detector packs with their zero padding) and in
/// an interior pair (read where it lies in the capture). A warm engine's
/// `run_monitored_into` must come back with a typed outcome, never a
/// panic, and a stream through a 1- and a 4-participant pool must end in
/// the same outcome. Outcomes are compared by their `Debug` text, in
/// which NaN equals NaN.
#[test]
fn numeric_edge_pcm_streams_like_one_shot() {
    let rec = render(903);
    let n = rec.audio.left.len();
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    let mut one_shot = SessionOutcome::idle();
    let pools = [1, 4].map(|threads| Arc::new(Pool::new(threads)));
    let edges = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 1_024.0,
    ];
    for value in edges {
        for at in [10, n / 2, n - 10] {
            let (mut left, mut right) = (rec.audio.left.clone(), rec.audio.right.clone());
            left[at] = value;
            right[at + 3] = value;
            let input = SessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                left: &left,
                right: &right,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            };
            engine.run_monitored_into(&input, &mut one_shot);
            for pool in &pools {
                let stream = StreamConfig {
                    max_sessions: 1,
                    ring_capacity: 4_096,
                    max_samples: n,
                    max_imu_samples: rec.imu.accel.len(),
                };
                let mut svc =
                    StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::clone(pool))
                        .unwrap();
                let id = svc
                    .open(rec.audio.sample_rate, rec.imu.sample_rate)
                    .unwrap();
                svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro).unwrap();
                let mut pos = 0;
                while pos < n {
                    let len = 3_000.min(n - pos);
                    match svc.push_audio(id, &left[pos..pos + len], &right[pos..pos + len]) {
                        Ok(()) => pos += len,
                        Err(StreamError::Shed { .. }) => svc.pump(),
                        Err(e) => panic!("unexpected stream error: {e}"),
                    }
                }
                let mut streamed = SessionOutcome::idle();
                svc.finish(id, &mut streamed).unwrap();
                assert_eq!(
                    format!("{streamed:?}"),
                    format!("{one_shot:?}"),
                    "{value:e} at sample {at}, {} participants",
                    pool.threads()
                );
            }
        }
    }
}
