//! Micro-benchmarks of the DSP kernels on the pipeline's hot path: FFT,
//! matched-filter correlation (full-rate and band-limited), band-pass
//! filtering, fractional delay, the detection epilogue (threshold and
//! peak picking), whole band-limited detection passes, and sub-sample
//! peak refinement. Runs on the workspace's own std-only harness
//! (`hyperear_util::bench`).

use hyperear::asp::{BeaconDetector, MultiBeaconDetector, MultiBeaconScratch};
use hyperear::config::{HyperEarConfig, MultiBeaconConfig};
use hyperear_dsp::chirp::{Chirp, ChirpShape};
use hyperear_dsp::correlate::StreamingMatchedFilter;
use hyperear_dsp::delay::mix_delayed_local;
use hyperear_dsp::fft::{fft, rfft};
use hyperear_dsp::filter::{FirFilter, ZeroPhaseFir};
use hyperear_dsp::interpolate::{parabolic_peak, sinc_peak};
use hyperear_dsp::peak::{detect_peaks_into, PeakScratch, ThresholdRule};
use hyperear_dsp::plan::{shared_real_plan, DspScratch, FftPlan, Planes};
use hyperear_dsp::window::Window;
use hyperear_dsp::Complex;
use hyperear_util::alloc_counter::CountingAllocator;
use hyperear_util::bench::Suite;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn allocation_count() -> u64 {
    ALLOC.allocations()
}

fn deterministic_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.037).sin() * (i as f64 * 0.0011).cos())
        .collect()
}

fn bench_fft(suite: &mut Suite) {
    for &size in &[1_024usize, 16_384, 131_072] {
        let data: Vec<Complex> = deterministic_signal(size)
            .into_iter()
            .map(Complex::from_real)
            .collect();
        suite.bench_with_elements(&format!("fft/{size}"), size as u64, || {
            let mut buf = data.clone();
            fft(&mut buf).expect("power-of-two");
            black_box(buf)
        });
        // The planned path: setup hoisted out, butterflies only.
        let plan = FftPlan::new(size).expect("plan");
        let mut buf = data.clone();
        suite.bench_allocfree_with_elements(
            &format!("fft_planned/{size}"),
            size as u64,
            move || {
                buf.copy_from_slice(&data);
                plan.fft(&mut buf).expect("power-of-two");
                black_box(buf[0])
            },
        );
    }
    // The unpermuted split-plane passes the detector runs: the forward
    // `dif` of every overlap-save block (8192 at the default chirp) and
    // the band inverses' `dit` (block / D), each timed with the copy
    // that restores its input.
    type Pass = fn(&FftPlan, &mut [f64], &mut [f64]);
    let passes: [(&str, &[usize], Pass); 2] = [
        ("dif", &[1_024, 2_048, 8_192], FftPlan::dif),
        ("dit", &[1_024, 2_048], FftPlan::dit),
    ];
    for (name, sizes, pass) in passes {
        for &size in sizes {
            let plan = FftPlan::new(size).expect("plan");
            let re0 = deterministic_signal(size);
            let im0: Vec<f64> = re0.iter().rev().copied().collect();
            let (mut re, mut im) = (re0.clone(), im0.clone());
            suite.bench_allocfree_with_elements(
                &format!("fft/{name}/{size}"),
                size as u64,
                move || {
                    re.copy_from_slice(&re0);
                    im.copy_from_slice(&im0);
                    pass(&plan, &mut re, &mut im);
                    black_box(re[0])
                },
            );
        }
    }
}

fn bench_matched_filter(suite: &mut Suite) {
    let chirp = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::UpDown).expect("chirp");
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    // The overlap-save engine with a cached template spectrum, reused
    // scratch and output buffer. One second of audio is the natural
    // unit the detector scans.
    let streaming = StreamingMatchedFilter::new(chirp.samples()).expect("filter");
    for &seconds in &[1usize, 4] {
        let n = 44_100 * seconds;
        let signal = deterministic_signal(n);
        suite.bench_allocfree_with_elements(
            &format!("matched_filter/streaming/{seconds}s"),
            n as u64,
            || {
                streaming
                    .correlate_normalized_into(&signal, &mut scratch, &mut out)
                    .expect("correlate");
                black_box(out[0])
            },
        );
    }
    // The detector's hot path: the 127-tap band-pass folded into the
    // template, so this one pass replaces band-pass plus correlation.
    let bp =
        FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 127, Window::Hamming).expect("band-pass");
    let folded = StreamingMatchedFilter::with_zero_phase_prefilter(chirp.samples(), bp.taps())
        .expect("filter");
    for &seconds in &[1usize, 4] {
        let n = 44_100 * seconds;
        let signal = deterministic_signal(n);
        suite.bench_allocfree_with_elements(
            &format!("matched_filter/folded/{seconds}s"),
            n as u64,
            || {
                folded
                    .correlate_normalized_into(&signal, &mut scratch, &mut out)
                    .expect("correlate");
                black_box(out[0])
            },
        );
    }
    // What the detector runs: the same folded filter copied out as the
    // decimated analytic correlation (two short inverses per block pair
    // instead of one block-length inverse).
    let band = folded.band_limited().expect("band-limited");
    let mut lanes = vec![Vec::new()];
    for &seconds in &[1usize, 4] {
        let n = 44_100 * seconds;
        let signal = deterministic_signal(n);
        suite.bench_allocfree_with_elements(
            &format!("matched_filter/bandlimited/{seconds}s"),
            n as u64,
            || {
                band.correlate_into(&signal, &mut scratch, &mut lanes)
                    .expect("correlate");
                black_box(lanes[0][0])
            },
        );
    }
}

/// `seconds` of 44.1 kHz capture: uniform noise plus the HyperEar chirp
/// every 0.2 s, the raw input one channel's detection pass reads.
fn beacon_capture(seconds: usize) -> Vec<f64> {
    let n = seconds * 44_100;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut signal: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            0.05 * (2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0)
        })
        .collect();
    let chirp = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::UpDown).expect("chirp");
    for at in (1_500..n).step_by(8_820) {
        for (s, &c) in signal[at..].iter_mut().zip(chirp.samples()) {
            *s += 0.3 * c;
        }
    }
    signal
}

fn bench_band_pass(suite: &mut Suite) {
    let bp =
        FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 127, Window::Hamming).expect("band-pass");
    let signal = deterministic_signal(44_100);
    suite.bench("band_pass_1s_zero_phase", || {
        black_box(bp.filter_zero_phase(&signal).expect("filter"))
    });
    // The same filter as overlap-save blocks, with reused scratch.
    let engine = ZeroPhaseFir::new(&bp).expect("engine");
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    suite.bench_allocfree_with_elements("band_pass_1s_zero_phase_fft", 44_100, move || {
        engine
            .filter_into(&signal, &mut scratch, &mut out)
            .expect("filter");
        black_box(out[0])
    });
}

fn bench_fractional_delay(suite: &mut Suite) {
    let chirp = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::UpDown).expect("chirp");
    let mut acc = vec![0.0; 44_100];
    suite.bench("mix_delayed_local_one_beacon", || {
        mix_delayed_local(&mut acc, chirp.samples(), 10_000.37, 0.3, 16).expect("mix");
        black_box(acc[10_000])
    });
}

fn bench_peak_refinement(suite: &mut Suite) {
    // A realistic correlation main lobe.
    let chirp = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::UpDown).expect("chirp");
    let m = chirp.samples().len();
    let mut padded = vec![0.0; 3 * m];
    padded[m..2 * m].copy_from_slice(chirp.samples());
    let corr = hyperear_dsp::correlate::xcorr(&padded, chirp.samples()).expect("xcorr");
    let peak = corr
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty")
        .0;
    suite.bench("parabolic_peak", || {
        black_box(parabolic_peak(&corr, peak).expect("refine"))
    });
    suite.bench("sinc_peak", || {
        black_box(sinc_peak(&corr, peak, 8).expect("refine"))
    });
}

/// A correlation train of `seconds` at 44.1 kHz: beacon-like main lobes
/// every 0.2 s over a noise floor, the shape the weighting estimators
/// actually reprocess.
fn correlation_train(seconds: usize) -> Vec<f64> {
    let n = seconds * 44_100;
    let mut corr = deterministic_signal(n);
    for v in &mut corr {
        *v *= 0.02;
    }
    let chirp = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::UpDown).expect("chirp");
    let auto = hyperear_dsp::correlate::xcorr(chirp.samples(), chirp.samples()).expect("auto");
    for at in (2_000..n).step_by(8_820) {
        for (i, &a) in auto.iter().enumerate() {
            if at + i < n {
                corr[at + i] += a;
            }
        }
    }
    corr
}

/// The four normalized full-rate correlations of a K = 4 capture over
/// `seconds` of 44.1 kHz (see [`bank_capture`]), one solo filter per
/// chirp. The chirps share one length, hence one block, so each equals
/// the matching lane of a shared-transform bank bit for bit.
fn bank_lanes(seconds: usize) -> Vec<Vec<f64>> {
    let (signal, chirps) = bank_capture(seconds);
    let mut scratch = DspScratch::new();
    chirps
        .iter()
        .map(|chirp| {
            let mut lane = Vec::new();
            StreamingMatchedFilter::new(chirp.samples())
                .expect("filter")
                .correlate_normalized_into(&signal, &mut scratch, &mut lane)
                .expect("correlate");
            lane
        })
        .collect()
}

/// `seconds` of 44.1 kHz capture: uniform noise plus four
/// half-overlapping sub-band chirps (alternating sweep direction), each
/// repeating every 0.2 s at its own offset, as in a multi-beacon
/// session; and the four chirps.
fn bank_capture(seconds: usize) -> (Vec<f64>, Vec<Chirp>) {
    let n = seconds * 44_100;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut signal: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            0.05 * (2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0)
        })
        .collect();
    let chirps: Vec<Chirp> = (0..4)
        .map(|k| {
            let f0 = 2_000.0 + 880.0 * k as f64;
            let shape = if k % 2 == 0 {
                ChirpShape::Up
            } else {
                ChirpShape::Down
            };
            Chirp::new(f0, f0 + 1_760.0, 0.04, 44_100.0, shape).expect("chirp")
        })
        .collect();
    for (k, chirp) in chirps.iter().enumerate() {
        for at in (1_000 + 2_000 * k..n).step_by(8_820) {
            for (s, &c) in signal[at..].iter_mut().zip(chirp.samples()) {
                *s += c;
            }
        }
    }
    (signal, chirps)
}

fn bench_detection_epilogue(suite: &mut Suite) {
    // The detector's default rule: 6x the noise floor, a quarter of the
    // maximum, peaks 0.7 beacon periods (0.2 s) apart.
    let rule = ThresholdRule {
        noise_factor: 6.0,
        relative: 0.25,
        min_distance: 6_174,
    };
    let mut scratch = PeakScratch::default();
    let mut peaks = Vec::new();
    // One 6 s lane: the statistics pass, the threshold and the
    // candidate scan over a clean session channel's correlation.
    let lane = correlation_train(6);
    detect_peaks_into(&lane, &rule, &mut scratch, &mut peaks).expect("warm-up");
    suite.bench_allocfree_with_elements("detect/epilogue/6s", lane.len() as u64, || {
        detect_peaks_into(&lane, &rule, &mut scratch, &mut peaks).expect("epilogue");
        black_box(peaks.len())
    });
    // The four lanes a K = 4 channel hands to its per-beacon epilogues.
    let lanes = bank_lanes(3);
    let total: usize = lanes.iter().map(Vec::len).sum();
    suite.bench_allocfree_with_elements("detect/epilogue_k4/3s", total as u64, || {
        for lane in &lanes {
            detect_peaks_into(lane, &rule, &mut scratch, &mut peaks).expect("epilogue");
        }
        black_box(peaks.len())
    });
}

fn bench_bandlimited_detection(suite: &mut Suite) {
    // A whole detection pass as the session engine runs it per channel:
    // band-limited correlation, the envelope epilogue and the full-rate
    // refinement of every candidate.
    let capture = beacon_capture(6);
    let mut detector =
        BeaconDetector::new(&HyperEarConfig::galaxy_s4(), 44_100.0).expect("detector");
    let mut arrivals = Vec::new();
    detector
        .detect_into(&capture, &mut arrivals)
        .expect("warm-up");
    suite.bench_allocfree_with_elements("detect/bandlimited/6s", capture.len() as u64, || {
        detector
            .detect_into(&capture, &mut arrivals)
            .expect("detect");
        black_box(arrivals.len())
    });
    // The K = 4 bank: one forward transform, four band-rate lanes, four
    // per-beacon epilogues and refinements.
    let (signal, _) = bank_capture(3);
    let multi = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), 4);
    let bank = MultiBeaconDetector::new(&multi, 44_100.0).expect("bank");
    let mut scratch = MultiBeaconScratch::new();
    let mut lanes = vec![Vec::new(); 4];
    bank.detect_into(&signal, &mut scratch, &mut lanes)
        .expect("warm-up");
    suite.bench_allocfree_with_elements("detect/bandlimited_k4/3s", signal.len() as u64, || {
        bank.detect_into(&signal, &mut scratch, &mut lanes)
            .expect("detect");
        black_box(lanes[0].len())
    });
}

fn bench_estimators(suite: &mut Suite) {
    use hyperear_dsp::estimator::{
        mcci_fuse_channel_into, mcci_offsets_with, CorrelationSpectrum, EstimatorScratch,
    };
    // One weighting rung from scratch: the forward transform of the
    // correlation, the weights, and the inverse transform into the guide
    // buffer. The 1 s train runs 65,536-point transforms; the 6 s train
    // runs the 524,288-point transforms of a faulted session capture.
    for seconds in [1usize, 6] {
        let corr = correlation_train(seconds);
        let n = corr.len() as u64;
        let mut spectrum = CorrelationSpectrum::default();
        let mut scratch = EstimatorScratch::default();
        let mut guide = Vec::new();
        // Warm-up so the shared plan and the buffers are at their
        // high-water mark.
        spectrum.compute(&corr).expect("spectrum");
        spectrum
            .gcc_phat_into(0.15, &mut scratch, &mut guide)
            .expect("phat");
        {
            let corr = corr.clone();
            let mut spectrum = spectrum.clone();
            let mut scratch = scratch.clone();
            let mut guide = guide.clone();
            suite.bench_allocfree_with_elements(
                &format!("estimator/gcc_phat/{seconds}s"),
                n,
                move || {
                    spectrum.compute(&corr).expect("spectrum");
                    spectrum
                        .gcc_phat_into(0.15, &mut scratch, &mut guide)
                        .expect("phat");
                    black_box(guide[0])
                },
            );
        }
        suite.bench_allocfree_with_elements(
            &format!("estimator/subband_coherence/{seconds}s"),
            n,
            move || {
                spectrum.compute(&corr).expect("spectrum");
                spectrum
                    .subband_coherence_into(
                        44_100.0,
                        1_000.0,
                        20_000.0,
                        16,
                        &mut scratch,
                        &mut guide,
                    )
                    .expect("coherence");
                black_box(guide[0])
            },
        );
    }
    // The band-limited detector's rungs: PHAT and sub-band coherence on
    // the decimated analytic correlation of a 6 s capture
    // (131,072-point complex transforms instead of 524,288-point real
    // ones), the coherence band in the sequence's baseband frequencies
    // as the detector derives it.
    {
        use hyperear_dsp::estimator::AnalyticSpectrum;
        let chirp =
            Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::UpDown).expect("chirp");
        let bp = FirFilter::band_pass(1_800.0, 7_040.0, 44_100.0, 127, Window::Hamming)
            .expect("band-pass");
        let band = StreamingMatchedFilter::with_zero_phase_prefilter(chirp.samples(), bp.taps())
            .and_then(|f| f.band_limited())
            .expect("filter");
        let capture = beacon_capture(6);
        let mut lanes = vec![Vec::new()];
        band.correlate_into(&capture, &mut DspScratch::new(), &mut lanes)
            .expect("correlate");
        let seq = lanes.pop().expect("one lane");
        let mut spectrum = AnalyticSpectrum::default();
        let mut scratch = EstimatorScratch::default();
        let mut guide = Vec::new();
        let dec = band.decimation(0);
        let rate = 44_100.0 / dec.factor() as f64;
        let center = dec.carrier() * 44_100.0;
        let (lo, hi) = (
            (1_800.0 - center).max(-rate / 2.0),
            (7_040.0 - center).min(rate / 2.0),
        );
        spectrum.compute(&seq).expect("spectrum");
        spectrum
            .gcc_phat_into(0.15, &mut scratch, &mut guide)
            .expect("phat");
        assert!(spectrum
            .subband_coherence_into(rate, lo, hi, 16, &mut scratch, &mut guide)
            .expect("coherence"));
        {
            let seq = seq.clone();
            let mut spectrum = spectrum.clone();
            let mut scratch = scratch.clone();
            let mut guide = guide.clone();
            suite.bench_allocfree_with_elements(
                "estimator/gcc_phat_bandlimited/6s",
                capture.len() as u64,
                move || {
                    spectrum.compute(&seq).expect("spectrum");
                    spectrum
                        .gcc_phat_into(0.15, &mut scratch, &mut guide)
                        .expect("phat");
                    black_box(guide[0])
                },
            );
        }
        suite.bench_allocfree_with_elements(
            "estimator/subband_bandlimited/6s",
            capture.len() as u64,
            move || {
                spectrum.compute(&seq).expect("spectrum");
                spectrum
                    .subband_coherence_into(rate, lo, hi, 16, &mut scratch, &mut guide)
                    .expect("coherence");
                black_box(guide[0])
            },
        );
    }
    let corr = correlation_train(1);
    let n = corr.len();
    // MCCI identity solve + two-channel fusion over the same train, the
    // per-session cost the escalating policy pays for its heaviest rung.
    let shifted: Vec<f64> = {
        let mut s = vec![0.0; n];
        s[9..].copy_from_slice(&corr[..n - 9]);
        s
    };
    let mut offsets = Vec::new();
    let mut live = Vec::new();
    let mut fused = Vec::new();
    mcci_offsets_with(&[&corr, &shifted], 64, &mut offsets, &mut live).expect("offsets");
    mcci_fuse_channel_into(&[&corr, &shifted], &offsets, &live, 0, &mut fused).expect("fuse");
    suite.bench_allocfree_with_elements("estimator/mcci_solve_fuse/1s", n as u64, move || {
        mcci_offsets_with(&[&corr, &shifted], 64, &mut offsets, &mut live).expect("offsets");
        mcci_fuse_channel_into(&[&corr, &shifted], &offsets, &live, 0, &mut fused).expect("fuse");
        black_box(fused[0])
    });
}

fn bench_rfft_spectrum(suite: &mut Suite) {
    let signal = deterministic_signal(44_100);
    suite.bench("rfft_1s_padded", || {
        black_box(rfft(&signal, 65_536).expect("rfft"))
    });
    // The real-input fast path: packed half-size transform, half the
    // butterflies and scratch of the full complex rfft.
    let plan = shared_real_plan(65_536).expect("plan");
    let mut half = Planes::default();
    suite.bench_allocfree("rfft_half_planned_1s_padded", move || {
        plan.rfft_half_into(&signal, &mut half).expect("rfft_half");
        black_box(half.re[0])
    });
}

fn main() {
    let mut suite = Suite::new("dsp_kernels");
    suite.set_alloc_counter(allocation_count);
    bench_fft(&mut suite);
    bench_matched_filter(&mut suite);
    bench_band_pass(&mut suite);
    bench_fractional_delay(&mut suite);
    bench_detection_epilogue(&mut suite);
    bench_bandlimited_detection(&mut suite);
    bench_peak_refinement(&mut suite);
    bench_estimators(&mut suite);
    bench_rfft_spectrum(&mut suite);
    suite.finish();
}
