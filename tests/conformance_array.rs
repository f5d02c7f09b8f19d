//! Array conformance tier: the two-microphone compatibility contract.
//!
//! A two-channel [`ArraySessionInput`] under [`MicArray::two_mic`] with
//! no DOA front-end — exactly what
//! [`HyperEarConfig::for_mic_separation`] / the device presets build —
//! must be **bit-identical** (`assert_eq!`, not a tolerance) to the
//! stereo [`SessionInput`] of the same samples through the same entry
//! point: same outcomes, same diagnostics, at any thread count. The N-mic generalization is only allowed to *add*
//! behaviour behind `array.len() > 2` or an explicit front-end; the
//! paper's phone pipeline must not move by one ULP.

use hyperear::batch::BatchEngine;
use hyperear::config::{DoaFrontEnd, HyperEarConfig};
use hyperear::pipeline::{ArraySessionInput, SessionEngine, SessionInput, SessionOutcome};
use hyperear_geom::MicArray;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, ScenarioBuilder};
use hyperear_util::pool::Pool;
use std::sync::Arc;

fn fleet() -> Vec<Recording> {
    let mut recs = Vec::new();
    for (i, env) in [
        Environment::anechoic(),
        Environment::room_quiet(),
        Environment::mall_busy(),
    ]
    .into_iter()
    .enumerate()
    {
        recs.push(
            ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(env)
                .speaker_range(2.0 + i as f64)
                .slides(2)
                .seed(9_000 + i as u64)
                .render()
                .unwrap(),
        );
    }
    recs
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

fn array_input<'a>(rec: &'a Recording, channels: &'a [&'a [f64]; 2]) -> ArraySessionInput<'a> {
    ArraySessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        channels,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    }
}

/// One-shot engines: `run_monitored` on a two-channel array capture
/// under the two-mic compatibility preset equals `run_monitored` on the
/// stereo capture, outcome and diagnostics alike.
#[test]
fn two_mic_array_sessions_match_stereo_bit_for_bit() {
    let config = HyperEarConfig::galaxy_s4();
    assert_eq!(config.array, MicArray::two_mic(0.1366));
    assert_eq!(config.doa_front_end, DoaFrontEnd::None);
    for rec in &fleet() {
        let stereo = SessionEngine::new(config.clone())
            .unwrap()
            .run_monitored(&stereo_input(rec));
        let chans: [&[f64]; 2] = [&rec.audio.left, &rec.audio.right];
        let array = SessionEngine::new(config.clone())
            .unwrap()
            .run_monitored(&array_input(rec, &chans));
        assert_eq!(array, stereo);
        assert_eq!(array.diagnostics(), stereo.diagnostics());
        let result = array.result().expect("usable outcome");
        assert!(result.pair_delays.is_empty(), "classic path adds no delays");
        assert!(result.bearing.is_none(), "classic path attaches no bearing");
    }
}

/// Batch engines: a batch of two-channel array captures equals the
/// stereo batch and is itself invariant across pool widths (1 vs 4
/// threads), warm or cold.
#[test]
fn two_mic_array_batches_match_stereo_at_any_thread_count() {
    let recs = fleet();
    let stereo_inputs: Vec<SessionInput<'_>> = recs.iter().map(stereo_input).collect();
    let chans: Vec<[&[f64]; 2]> = recs
        .iter()
        .map(|rec| {
            let pair: [&[f64]; 2] = [&rec.audio.left, &rec.audio.right];
            pair
        })
        .collect();
    let array_inputs: Vec<ArraySessionInput<'_>> = recs
        .iter()
        .zip(&chans)
        .map(|(rec, pair)| array_input(rec, pair))
        .collect();

    let config = HyperEarConfig::galaxy_s4();
    let mut reference: Option<Vec<SessionOutcome>> = None;
    for threads in [1usize, 4] {
        let pool = Arc::new(Pool::new(threads));
        let mut stereo = BatchEngine::new(config.clone(), Arc::clone(&pool)).unwrap();
        let stereo_out = stereo.run_batch(&stereo_inputs);

        let mut arrays = BatchEngine::new(config.clone(), pool).unwrap();
        arrays.warm(&array_inputs);
        let array_out = arrays.run_batch(&array_inputs);

        assert!(array_out.iter().all(SessionOutcome::is_usable));
        assert_eq!(
            array_out, stereo_out,
            "array vs stereo at {threads} threads"
        );
        match &reference {
            None => reference = Some(array_out),
            Some(first) => assert_eq!(&array_out, first, "thread-count invariance"),
        }
    }
}

/// The channel rule at its edges: a capture carries 2 channels or one
/// per configured microphone, and the DOA front-end runs only on a full
/// capture. So on a 3-mic planar config a stereo capture and a
/// two-channel array capture both run the primary pair alone, while on
/// a two-mic config with a phase-tracking front-end the stereo capture
/// is the full capture and gets the front-end's pair delay.
#[test]
fn two_channel_captures_follow_one_channel_rule() {
    use hyperear_geom::devices::TABLET_TRIANGLE;
    let array = MicArray::triangle(TABLET_TRIANGLE.mic_separation);
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(2.5)
        .slides(2)
        .seed(9_100)
        .render_array(&array)
        .unwrap();
    let stereo = SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.channels[0],
        right: &rec.audio.channels[1],
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    };
    let pair: [&[f64]; 2] = [&rec.audio.channels[0], &rec.audio.channels[1]];
    let two = ArraySessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        channels: &pair,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    };

    let planar = HyperEarConfig::for_device(TABLET_TRIANGLE);
    assert_eq!(planar.doa_front_end, DoaFrontEnd::Planar);
    let from_stereo = SessionEngine::new(planar.clone())
        .unwrap()
        .run_monitored(&stereo);
    let from_pair = SessionEngine::new(planar).unwrap().run_monitored(&two);
    assert_eq!(from_pair, from_stereo);
    let result = from_stereo.result().expect("primary pair localizes");
    assert!(result.pair_delays.is_empty() && result.bearing.is_none());

    let mut phase = HyperEarConfig::for_mic_separation(TABLET_TRIANGLE.mic_separation);
    phase.doa_front_end = DoaFrontEnd::PhaseTracking;
    let from_stereo = SessionEngine::new(phase.clone())
        .unwrap()
        .run_monitored(&stereo);
    let from_pair = SessionEngine::new(phase).unwrap().run_monitored(&two);
    assert_eq!(from_pair, from_stereo);
    let result = from_stereo.result().expect("primary pair localizes");
    assert_eq!(result.pair_delays.len(), 1, "the front-end ran on the pair");
}
