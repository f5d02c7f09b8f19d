//! Pins the plan/scratch architecture's central promise: once the shared
//! plans are built and the scratch arena, template spectrum and output
//! buffer are warm,
//! the DSP hot path — up to and including a full pipeline session
//! through a warm `SessionEngine::run_into` — performs **zero** heap
//! allocations per call.
//!
//! The whole file is one `#[test]` on purpose — the counting allocator is
//! process-global, and concurrent tests in the same binary would pollute
//! the counter between the snapshot and the assertion.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionResult};
use hyperear_dsp::correlate::{xcorr_into, StreamingMatchedFilter};
use hyperear_dsp::filter::{FirFilter, ZeroPhaseFir};
use hyperear_dsp::plan::DspScratch;
use hyperear_dsp::window::Window;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;
use hyperear_util::alloc_counter::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn warm_xcorr_path_does_not_allocate() {
    let template: Vec<f64> = (0..1_764).map(|i| (i as f64 * 0.21).sin()).collect();
    let signal: Vec<f64> = (0..44_100)
        .map(|i| (i as f64 * 0.037).sin() * (i as f64 * 0.0011).cos())
        .collect();

    // --- Free-function planned path: xcorr_into. ----------------------
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    // Warm-up: plans built, buffers grown to their high-water mark.
    xcorr_into(&signal, &template, &mut scratch, &mut out).unwrap();
    let expected = out.clone();

    let before = ALLOC.allocations();
    for _ in 0..3 {
        xcorr_into(&signal, &template, &mut scratch, &mut out).unwrap();
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state xcorr_into must not allocate"
    );
    assert_eq!(out, expected, "warm path must stay bit-identical");

    // --- Overlap-save streaming matched filter. -----------------------
    // Block-sized FFTs instead of one capture-sized transform; the same
    // zero-allocation contract must hold once scratch is at its
    // high-water mark (one block, not one capture).
    let streaming = StreamingMatchedFilter::new(&template).unwrap();
    let mut out = Vec::new();
    streaming
        .correlate_normalized_into(&signal, &mut scratch, &mut out)
        .unwrap();
    let expected = out.clone();

    let before = ALLOC.allocations();
    for _ in 0..3 {
        streaming
            .correlate_normalized_into(&signal, &mut scratch, &mut out)
            .unwrap();
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state streaming matched filtering must not allocate"
    );
    assert_eq!(out, expected, "warm streaming path must stay bit-identical");

    // --- Overlap-save zero-phase FIR. ---------------------------------
    let bp = FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 127, Window::Hamming).unwrap();
    let fir = ZeroPhaseFir::new(&bp).unwrap();
    let mut out = Vec::new();
    fir.filter_into(&signal, &mut scratch, &mut out).unwrap();
    let expected = out.clone();

    let before = ALLOC.allocations();
    for _ in 0..3 {
        fir.filter_into(&signal, &mut scratch, &mut out).unwrap();
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state zero-phase FIR filtering must not allocate"
    );
    assert_eq!(out, expected, "warm FIR path must stay bit-identical");

    // --- Full pipeline session through a warm SessionEngine. ----------
    // Everything downstream of the matched filter — peak picking,
    // inertial analysis, SFO fit, per-slide confidence scoring, TDoA,
    // triangulation, aggregation — runs out of engine-owned scratch and
    // the reused result slot.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(3.0)
        .slides(2)
        .seed(31)
        .render()
        .unwrap();
    let input = SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    };
    let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
    let mut result = SessionResult::empty();
    // Warm-up: detector built, every scratch buffer at its high-water
    // mark, the result slot's slide storage grown.
    engine.run_into(&input, &mut result).unwrap();
    let expected = result.clone();

    let before = ALLOC.allocations();
    for _ in 0..2 {
        engine.run_into(&input, &mut result).unwrap();
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state SessionEngine::run_into must not allocate"
    );
    assert_eq!(result, expected, "warm session must stay bit-identical");
    // Overlap-save detection caps the engine's transforms at the block
    // size, far below the multi-second capture length.
    let peak = engine.peak_fft_len().expect("warm engine has a detector");
    assert!(
        peak < rec.audio.left.len(),
        "peak FFT length ({peak}) must be independent of capture length ({})",
        rec.audio.left.len()
    );

    // --- Estimator bank: every variant allocation-free when warm. -----
    // Each estimator touches its own buffers (weighted correlation copy,
    // spectral scratch, MCCI workspace); after one warm-up pass per
    // variant they are all at their high-water marks.
    use hyperear::config::TdoaEstimator;
    for est in TdoaEstimator::ALL {
        engine.run_estimated_into(&input, est, &mut result).unwrap();
        let expected = result.clone();
        let before = ALLOC.allocations();
        for _ in 0..2 {
            engine.run_estimated_into(&input, est, &mut result).unwrap();
        }
        let after = ALLOC.allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state run_estimated_into({est:?}) must not allocate"
        );
        assert_eq!(
            result, expected,
            "warm {est:?} session must stay bit-identical"
        );
    }

    // --- Envelope-mode detection allocation-free when warm. -----------
    // The Hilbert envelope runs on the shared plans and the detector's
    // own scratch, for every estimator: the plain path (peaks on the
    // envelope of the correlation), the weighted estimators' guided path
    // (envelopes of both the weighted and the own correlation) and
    // MCCI's full-rate fused and own correlations.
    let mut env_cfg = HyperEarConfig::galaxy_s4();
    env_cfg.detection.envelope_detection = true;
    let mut env_engine = SessionEngine::new(env_cfg).unwrap();
    for est in TdoaEstimator::ALL {
        env_engine
            .run_estimated_into(&input, est, &mut result)
            .unwrap();
        let expected = result.clone();
        let before = ALLOC.allocations();
        for _ in 0..2 {
            env_engine
                .run_estimated_into(&input, est, &mut result)
                .unwrap();
        }
        let after = ALLOC.allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state envelope-mode run_estimated_into({est:?}) must not allocate"
        );
        assert_eq!(
            result, expected,
            "warm envelope-mode {est:?} session must stay bit-identical"
        );
    }

    // --- Escalation retries allocation-free when warm. ----------------
    // An escalate_below of 1.0 forces every monitored session through
    // the full retry ladder (clean slides score ≈ 0.99 < 1.0), so the
    // retry slot, ladder engines and diagnostics storage all warm up in
    // one pass and the steady state is a true escalating cycle.
    let mut esc_cfg = HyperEarConfig::galaxy_s4();
    esc_cfg.estimator.escalation = true;
    esc_cfg.estimator.escalate_below = 1.0;
    let mut esc_engine = SessionEngine::new(esc_cfg).unwrap();
    let mut outcome = hyperear::pipeline::SessionOutcome::idle();
    esc_engine.run_monitored_into(&input, &mut outcome);
    assert!(
        outcome.is_usable(),
        "forced-escalation session stays usable"
    );
    let expected = outcome.clone();

    let before = ALLOC.allocations();
    for _ in 0..2 {
        esc_engine.run_monitored_into(&input, &mut outcome);
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state escalating run_monitored_into must not allocate"
    );
    assert_eq!(
        outcome, expected,
        "warm escalating session must stay bit-identical"
    );
}
