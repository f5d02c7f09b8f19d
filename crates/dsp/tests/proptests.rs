//! Property-based tests of the DSP invariants, on the workspace's own
//! harness (`hyperear_util::prop`). Each property runs
//! `HYPEREAR_PROP_CASES` seeded cases (default 64) and reports the
//! failing seed on a counterexample.

use hyperear_dsp::correlate::{xcorr, xcorr_into, BandLimitedBank, StreamingMatchedFilter};
use hyperear_dsp::delay::mix_delayed_local;
use hyperear_dsp::fft::{fft, ifft, rfft, try_next_pow2};
use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::interpolate::parabolic_peak;
use hyperear_dsp::plan::{shared_real_plan, DspScratch, FftPlan, Planes};
use hyperear_dsp::quantize::{dequantize_i16, quantize_i16};
use hyperear_dsp::window::Window;
use hyperear_dsp::Complex;
use hyperear_util::prop::{self, f64_range, usize_range, vec_f64, vec_of};
use hyperear_util::{prop_assert, prop_assert_eq, prop_assume};

fn signal_strategy(max_len: usize) -> prop::VecOf<prop::F64Range> {
    vec_f64(-1.0, 1.0, 8, max_len)
}

/// A half spectrum's planes as interleaved bins.
fn interleave(p: &Planes) -> Vec<Complex> {
    p.re.iter()
        .zip(&p.im)
        .map(|(&r, &i)| Complex::new(r, i))
        .collect()
}

/// Interleaved bins as the planes the real-FFT inverse reads.
fn planes_of(v: &[Complex]) -> Planes {
    Planes {
        re: v.iter().map(|z| z.re).collect(),
        im: v.iter().map(|z| z.im).collect(),
    }
}

#[test]
fn fft_round_trip_recovers_signal() {
    prop::check(
        "fft_round_trip_recovers_signal",
        signal_strategy(256),
        |signal| {
            let n = try_next_pow2(signal.len()).unwrap();
            let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
            data.resize(n, Complex::ZERO);
            let original = data.clone();
            fft(&mut data).unwrap();
            ifft(&mut data).unwrap();
            for (a, b) in data.iter().zip(&original) {
                prop_assert!((a.re - b.re).abs() < 1e-9);
                prop_assert!((a.im - b.im).abs() < 1e-9);
            }
            prop::pass()
        },
    );
}

#[test]
fn parseval_holds() {
    prop::check("parseval_holds", signal_strategy(256), |signal| {
        let n = try_next_pow2(signal.len()).unwrap();
        let spec = rfft(signal, n).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        prop::pass()
    });
}

#[test]
fn xcorr_finds_planted_template() {
    let strat = (vec_f64(-1.0, 1.0, 8, 32), usize_range(0, 64));
    prop::check(
        "xcorr_finds_planted_template",
        strat,
        |(template, offset)| {
            // Reject templates with almost no energy (nothing to find).
            let energy: f64 = template.iter().map(|x| x * x).sum();
            prop_assume!(energy > 0.5);
            let mut signal = vec![0.0; 128];
            for (i, &t) in template.iter().enumerate() {
                signal[offset + i] = t;
            }
            let corr = xcorr(&signal, template).unwrap();
            let peak = corr
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            prop_assert_eq!(peak, *offset);
            prop::pass()
        },
    );
}

#[test]
fn quantization_error_is_bounded() {
    prop::check(
        "quantization_error_is_bounded",
        signal_strategy(256),
        |signal| {
            let q = dequantize_i16(&quantize_i16(signal));
            let lsb = 1.0 / 32_767.0;
            for (a, b) in signal.iter().zip(&q) {
                prop_assert!((a - b).abs() <= 0.5 * lsb + 1e-12);
            }
            prop::pass()
        },
    );
}

#[test]
fn window_coefficients_bounded() {
    prop::check("window_coefficients_bounded", usize_range(1, 512), |&n| {
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
        ] {
            let c = w.coefficients(n).unwrap();
            prop_assert_eq!(c.len(), n);
            for v in c {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
            }
        }
        prop::pass()
    });
}

#[test]
fn fractional_delay_places_pulse() {
    prop::check(
        "fractional_delay_places_pulse",
        f64_range(0.0, 200.0),
        |&delay| {
            let mut pulse = vec![0.0; 8];
            pulse[4] = 1.0;
            let mut out = vec![0.0; 300];
            mix_delayed_local(&mut out, &pulse, delay, 1.0, 16).unwrap();
            let peak = out
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            let expected = 4.0 + delay;
            prop_assert!(
                (peak as f64 - expected).abs() <= 1.0,
                "peak {peak} expected {expected}"
            );
            prop::pass()
        },
    );
}

/// Direct O(n²) DFT, `X[k] = Σ_j x[j]·e^{sign·2πi·jk/n}`, as the
/// accuracy oracle for the fast transforms. Each twiddle comes from the
/// exact angle of `jk mod n` and the sums are compensated (Neumaier), so
/// the oracle's own error stays near `2ε·Σ|x|` at every size.
fn direct_dft(x: &[Complex], sign: f64) -> Vec<Complex> {
    fn add(sum: &mut (f64, f64), v: f64) {
        let t = sum.0 + v;
        sum.1 += if sum.0.abs() >= v.abs() {
            (sum.0 - t) + v
        } else {
            (v - t) + sum.0
        };
        sum.0 = t;
    }
    let n = x.len();
    (0..n)
        .map(|k| {
            let (mut re, mut im) = ((0.0, 0.0), (0.0, 0.0));
            for (j, v) in x.iter().enumerate() {
                let angle = sign * 2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                let w = Complex::from_angle(angle);
                add(&mut re, v.re * w.re);
                add(&mut re, -v.im * w.im);
                add(&mut im, v.re * w.im);
                add(&mut im, v.im * w.re);
            }
            Complex::new(re.0 + re.1, im.0 + im.1)
        })
        .collect()
}

/// The FFT kernel against the direct DFT for every power of two from 1
/// to 1024 (odd and even `log2 n`, so both the pure radix-4 and the
/// radix-4 + radix-2 stage plans). Round trip and Parseval cannot see a
/// consistent conjugation or bin-permutation error; this can.
///
/// Bound: every output bin of `fft` is within `C·max(log2 n, 1)·ε·Σ|x|`
/// of the exact DFT, and every sample of `ifft` within the same bound
/// divided by `n` (its `1/n` scaling), with `C = 4`. That is the classic
/// `O(log n)` forward-error growth of a Cooley–Tukey FFT in the max norm,
/// plus headroom for the oracle's own rounding. Observed errors stay
/// below `0.4·max(log2 n, 1)·ε·Σ|x|` (300 cases).
#[test]
fn fft_matches_direct_dft() {
    const C: f64 = 4.0;
    let strat = (usize_range(0, 11), vec_f64(-1.0, 1.0, 2048, 2049));
    prop::check("fft_matches_direct_dft", strat, |(pow, values)| {
        let n = 1usize << pow;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new(values[2 * i], values[2 * i + 1]))
            .collect();
        let l1: f64 = x.iter().map(|z| z.re.abs() + z.im.abs()).sum();
        let bound = C * (*pow).max(1) as f64 * f64::EPSILON * l1;
        let plan = FftPlan::new(n).unwrap();
        let mut fast = x.clone();
        plan.fft(&mut fast).unwrap();
        for (k, (a, r)) in fast.iter().zip(&direct_dft(&x, -1.0)).enumerate() {
            let err = (*a - *r).abs();
            prop_assert!(
                err <= bound,
                "fft n={n} bin {k}: error {err:e} > bound {bound:e}"
            );
        }
        let mut inv = x.clone();
        plan.ifft(&mut inv).unwrap();
        for (k, (a, r)) in inv.iter().zip(&direct_dft(&x, 1.0)).enumerate() {
            let err = (*a - *r / n as f64).abs();
            prop_assert!(
                err <= bound / n as f64,
                "ifft n={n} sample {k}: error {err:e} > bound {:e}",
                bound / n as f64
            );
        }
        prop::pass()
    });
}

// ---- Planned-vs-one-shot equivalence (the PR-2 refactor contract):
// the planned, allocation-free variants must be *bit-identical* to the
// one-shot functions, for any signal at any size.

#[test]
fn planned_fft_bit_identical_to_one_shot() {
    let strat = (signal_strategy(256), usize_range(0, 4));
    prop::check(
        "planned_fft_bit_identical_to_one_shot",
        strat,
        |(signal, extra_pow)| {
            let n = try_next_pow2(signal.len()).unwrap() << extra_pow;
            let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
            data.resize(n, Complex::ZERO);
            let mut planned = data.clone();
            let plan = FftPlan::new(n).unwrap();
            plan.fft(&mut planned).unwrap();
            fft(&mut data).unwrap();
            prop_assert_eq!(&planned, &data);
            plan.ifft(&mut planned).unwrap();
            ifft(&mut data).unwrap();
            prop_assert_eq!(&planned, &data);
            prop::pass()
        },
    );
}

#[test]
fn planned_xcorr_bit_identical_to_one_shot() {
    let strat = (signal_strategy(128), vec_f64(-1.0, 1.0, 8, 32));
    prop::check(
        "planned_xcorr_bit_identical_to_one_shot",
        strat,
        |(signal, template)| {
            prop_assume!(template.len() <= signal.len());
            let reference = xcorr(signal, template).unwrap();
            let mut scratch = DspScratch::new();
            let mut out = Vec::new();
            // Two passes: cold (buffers grow) and warm (buffers reused)
            // must both match the one-shot result exactly.
            for _ in 0..2 {
                xcorr_into(signal, template, &mut scratch, &mut out).unwrap();
                prop_assert_eq!(&out, &reference);
            }
            prop::pass()
        },
    );
}

// ---- Real-input fast path (the PR-4 perf contract): the packed
// half-size transform and the overlap-save streaming engine must be
// *bit-close* to their full-size references — identical up to the
// rounding-error reordering inherent in a different FFT factorization.

/// Per-element tolerance for "bit-close": a few ulps of headroom scaled
/// by the reference magnitude. Observed differences are ~1e-12 relative.
fn bit_close_tol(reference_max: f64) -> f64 {
    1e-9 * (1.0 + reference_max)
}

#[test]
fn rfft_half_expands_to_full_rfft() {
    let strat = (signal_strategy(256), usize_range(0, 3));
    prop::check(
        "rfft_half_expands_to_full_rfft",
        strat,
        |(signal, extra_pow)| {
            let n = try_next_pow2(signal.len()).unwrap() << extra_pow;
            let reference = rfft(signal, n).unwrap();
            let mut planes = Planes::default();
            shared_real_plan(n)
                .unwrap()
                .rfft_half_into(signal, &mut planes)
                .unwrap();
            let half = interleave(&planes);
            prop_assert_eq!(half.len(), n / 2 + 1);
            // Expand the half spectrum by conjugate symmetry:
            // X[n-k] = conj(X[k]) for a real input.
            let max_mag = reference.iter().map(|c| c.abs()).fold(0.0, f64::max);
            let tol = bit_close_tol(max_mag);
            for (k, r) in reference.iter().enumerate() {
                let x = if k <= n / 2 {
                    half[k]
                } else {
                    half[n - k].conj()
                };
                prop_assert!(
                    (x.re - r.re).abs() <= tol && (x.im - r.im).abs() <= tol,
                    "bin {k}: half-path {x:?} vs full rfft {r:?}"
                );
            }
            prop::pass()
        },
    );
}

#[test]
fn streaming_matched_filter_matches_one_shot_xcorr() {
    // Block sizes from the minimum legal (next power of two >= m, where the step
    // can be as small as 1 and the template dominates the block) up to
    // 8x the template; signals from shorter than one block to many
    // blocks long, so both odd block counts (a last pair whose odd half
    // is zeros) and even ones occur.
    let strat = (
        signal_strategy(192),
        vec_f64(-1.0, 1.0, 8, 24),
        usize_range(0, 3),
    );
    prop::check(
        "streaming_matched_filter_matches_one_shot_xcorr",
        strat,
        |(signal, template, extra_pow)| {
            prop_assume!(template.len() <= signal.len());
            let energy: f64 = template.iter().map(|x| x * x).sum();
            prop_assume!(energy > 1e-6);
            let block = try_next_pow2(template.len()).unwrap() << extra_pow;
            let filter = StreamingMatchedFilter::with_block_len(template, block).unwrap();
            let reference = xcorr(signal, template).unwrap();
            let mut scratch = DspScratch::new();
            let mut out = Vec::new();
            // Two passes: cold and warm must both stay bit-close.
            for _ in 0..2 {
                filter
                    .correlate_into(signal, &mut scratch, &mut out)
                    .unwrap();
                prop_assert_eq!(out.len(), reference.len());
                let max_mag = reference.iter().copied().map(f64::abs).fold(0.0, f64::max);
                let tol = bit_close_tol(max_mag);
                for (i, (a, r)) in out.iter().zip(&reference).enumerate() {
                    prop_assert!(
                        (a - r).abs() <= tol,
                        "lag {i}: streaming {a} vs one-shot {r} (block {block})"
                    );
                }
            }
            prop::pass()
        },
    );
}

/// The blocked zero-phase FIR is bit-identical to the naive scalar loop
/// over random designs, signal lengths, and contents.
#[test]
fn blocked_fir_is_bit_identical_to_scalar_reference() {
    let strat = (
        usize_range(11, 201),
        usize_range(1, 3_000),
        usize_range(0, 999),
    );
    prop::check(
        "blocked_fir_is_bit_identical_to_scalar_reference",
        strat,
        |&(taps, n, seed)| {
            let taps = taps | 1; // FIR designs use odd tap counts
            let filter = FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, taps, Window::Hamming)
                .expect("design");
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (seed as u64) << 7;
            let signal: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0
                })
                .collect();
            let blocked = filter.filter_zero_phase(&signal).expect("filter");
            // The historical scalar loop, verbatim: per-output sequential
            // accumulation over the taps with boundary checks.
            let t = filter.taps();
            let delay = (t.len() - 1) / 2;
            for (i, &b) in blocked.iter().enumerate() {
                let mut acc = 0.0;
                for (k, &tap) in t.iter().enumerate() {
                    if i + delay >= k && i + delay - k < n {
                        acc += tap * signal[i + delay - k];
                    }
                }
                prop_assert!(
                    acc.to_bits() == b.to_bits(),
                    "sample {i} differs: scalar {acc:e} vs blocked {b:e} \
                     (taps {taps}, n {n}, seed {seed})"
                );
            }
            prop::pass()
        },
    );
}

#[test]
fn planned_stft_matches_one_shot() {
    let strat = (vec_f64(-1.0, 1.0, 64, 512), usize_range(16, 64));
    prop::check("planned_stft_matches_one_shot", strat, |(signal, frame)| {
        prop_assume!(*frame <= signal.len());
        let mut scratch = DspScratch::new();
        let hop = (frame / 2).max(1);
        let planned =
            hyperear_dsp::stft::stft_with(signal, *frame, hop, 8_000.0, &mut scratch).unwrap();
        let reference = hyperear_dsp::stft::stft(signal, *frame, hop, 8_000.0).unwrap();
        prop_assert_eq!(&planned, &reference);
        prop::pass()
    });
}

#[test]
fn parabolic_vertex_recovery() {
    let strat = (f64_range(1.2, 18.8), f64_range(0.1, 10.0));
    prop::check("parabolic_vertex_recovery", strat, |(vertex, scale)| {
        let y: Vec<f64> = (0..20)
            .map(|i| -scale * (i as f64 - vertex).powi(2) + 3.0)
            .collect();
        let peak = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        prop_assume!(peak > 0 && peak + 1 < y.len());
        let (pos, _) = parabolic_peak(&y, peak).unwrap();
        prop_assert!((pos - vertex).abs() < 1e-6);
        prop::pass()
    });
}

/// A random correlation: a noise floor of random level plus up to five
/// beacon main lobes (the chirp's autocorrelation) at random positions
/// and amplitudes — zero lobes gives a pure-noise correlation.
fn random_beacon_train(len: usize, beacons: usize, noise: f64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut corr: Vec<f64> = (0..len).map(|_| noise * (2.0 * uniform() - 1.0)).collect();
    let chirp = hyperear_dsp::chirp::Chirp::new(
        2_000.0,
        6_400.0,
        0.04,
        44_100.0,
        hyperear_dsp::chirp::ChirpShape::UpDown,
    )
    .unwrap();
    let lobe = xcorr(chirp.samples(), chirp.samples()).unwrap();
    let peak = lobe.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for _ in 0..beacons {
        let at = (uniform() * len as f64) as usize;
        let gain = (0.2 + 0.8 * uniform()) / peak;
        for (i, &v) in lobe.iter().enumerate() {
            if let Some(c) = corr.get_mut(at + i) {
                *c += gain * v;
            }
        }
    }
    corr
}

/// Sub-band coherence as a stand-alone in-place kernel computed it
/// before the spectrum was shared: its own forward transform, the
/// weights applied in place, the inverse into a separate buffer and a
/// copy back. The shared-spectrum kernel must match it bit for bit.
fn reference_subband(corr: &mut [f64], fs: f64, lo: f64, hi: f64, bands: usize) {
    let n = corr.len();
    let m = try_next_pow2(n).unwrap();
    let plan = hyperear_dsp::plan::shared_real_plan(m).unwrap();
    let mut planes = Planes::default();
    plan.rfft_half_into(corr, &mut planes).unwrap();
    let mut half = interleave(&planes);
    let bins = half.len();
    let bin_hz = fs / m as f64;
    let k_lo = (lo / bin_hz).ceil() as usize;
    let k_hi = ((hi / bin_hz).floor() as usize).min(bins - 1);
    if k_lo > k_hi {
        return;
    }
    let span = k_hi - k_lo + 1;
    let b_count = bands.min(span);
    let band_of = |k: usize| ((k - k_lo) * b_count / span).min(b_count - 1);
    let mut power = vec![0.0f64; b_count];
    for k in k_lo..=k_hi {
        power[band_of(k)] += half[k].norm_sqr();
    }
    for (b, p) in power.iter_mut().enumerate() {
        let lo = k_lo + (b * span).div_ceil(b_count);
        let hi = k_lo + ((b + 1) * span).div_ceil(b_count);
        *p /= hi.saturating_sub(lo).max(1) as f64;
    }
    let total: f64 = power.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return;
    }
    let mut sorted = power.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let noise = if b_count >= 3 {
        sorted[b_count / 2]
    } else {
        sorted[0]
    };
    for (k, z) in half.iter_mut().enumerate() {
        if k < k_lo || k > k_hi {
            *z = Complex::ZERO;
        } else {
            let s = power[band_of(k)];
            let w = if s + noise > 0.0 {
                s / (s + noise)
            } else {
                0.0
            };
            *z = z.scale(w);
        }
    }
    let mut real = Vec::new();
    plan.irfft_half_into(&mut planes_of(&half), &mut real)
        .unwrap();
    corr.copy_from_slice(&real[..n]);
}

/// PHAT-β whitening with overflow-safe magnitudes (`hypot`) for every
/// bin, the form the power-based kernel replaced. Returns the
/// L1 norm of the weighted half spectrum (0 on a no-op), which scales
/// the inverse transform's rounding error.
fn reference_phat_hypot(corr: &mut [f64], floor: f64) -> f64 {
    let n = corr.len();
    let m = try_next_pow2(n).unwrap();
    let plan = hyperear_dsp::plan::shared_real_plan(m).unwrap();
    let mut planes = Planes::default();
    plan.rfft_half_into(corr, &mut planes).unwrap();
    let mut half = interleave(&planes);
    let max_mag = half.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
    if max_mag <= 0.0 || !max_mag.is_finite() {
        return 0.0;
    }
    let eps = floor * max_mag;
    for z in &mut half {
        *z = z.scale(1.0 / z.abs().max(eps).sqrt());
    }
    let l1: f64 = half.iter().map(|z| z.abs()).sum();
    let mut real = Vec::new();
    plan.irfft_half_into(&mut planes_of(&half), &mut real)
        .unwrap();
    corr.copy_from_slice(&real[..n]);
    l1
}

/// Peak indices the detector would act on: local maxima at or above
/// 30% of the maximum, 64 samples apart.
fn strong_peaks(v: &[f64]) -> Vec<usize> {
    let max = v.iter().fold(0.0f64, |m, &x| m.max(x));
    let config = hyperear_dsp::peak::PeakConfig::new(0.3 * max, 64).unwrap();
    {
        let mut out = Vec::new();
        hyperear_dsp::peak::find_peaks_into(v, &config, &mut Vec::new(), &mut out).map(|()| out)
    }
    .unwrap()
    .iter()
    .map(|p| p.index)
    .collect()
}

/// The weighting kernels over one shared spectrum: sub-band coherence is
/// bit-identical to the stand-alone kernel, power-based PHAT stays
/// within a rounding bound of the `hypot` form and picks the same
/// peaks, and weighting never disturbs the spectrum (PHAT, then
/// coherence, then PHAT again from one spectrum give the same PHAT).
///
/// The PHAT bound: the two kernels' per-bin weights differ by a few
/// ulps (a square root of the power against `hypot`, then the same
/// floor and square root), so the weighted bins differ by at most
/// `4ε·|W_k|`, and each inverse transform adds at most
/// `log2(M)·ε` relative rounding. The lag-domain difference is therefore
/// bounded by `(4 + 2·log2 M)·ε · (2/M)·Σ_k|W_k|`, the `2/M` turning the
/// half-spectrum L1 norm into the inverse transform's amplitude scale.
#[test]
fn shared_spectrum_weighting_matches_standalone_kernels() {
    use hyperear_dsp::estimator::{CorrelationSpectrum, EstimatorScratch};
    let strat = (
        usize_range(64, 12_000),
        usize_range(0, 5),
        f64_range(1e-4, 0.5),
        usize_range(0, 1 << 30),
    );
    let worst = std::cell::Cell::new(0.0f64);
    prop::check(
        "shared_spectrum_weighting_matches_standalone_kernels",
        strat,
        |&(len, beacons, noise, seed)| {
            let corr = random_beacon_train(len, beacons, noise, seed as u64);
            let mut spectrum = CorrelationSpectrum::default();
            spectrum.compute(&corr).unwrap();
            let mut scratch = EstimatorScratch::default();
            let mut phat = Vec::new();
            prop_assert!(spectrum
                .gcc_phat_into(0.15, &mut scratch, &mut phat)
                .unwrap());
            let mut coherence = Vec::new();
            let applied = spectrum
                .subband_coherence_into(
                    44_100.0,
                    1_800.0,
                    7_040.0,
                    16,
                    &mut scratch,
                    &mut coherence,
                )
                .unwrap();
            let mut reference = corr.clone();
            reference_subband(&mut reference, 44_100.0, 1_800.0, 7_040.0, 16);
            if applied {
                prop_assert_eq!(coherence, reference);
            } else {
                prop_assert_eq!(reference, corr);
            }

            let mut again = Vec::new();
            prop_assert!(spectrum
                .gcc_phat_into(0.15, &mut scratch, &mut again)
                .unwrap());
            prop_assert_eq!(&again, &phat);

            let mut hypot = corr.clone();
            let l1 = reference_phat_hypot(&mut hypot, 0.15);
            let m = try_next_pow2(len).unwrap() as f64;
            let bound = (4.0 + 2.0 * m.log2()) * f64::EPSILON * 2.0 * l1 / m;
            let diff = phat
                .iter()
                .zip(&hypot)
                .fold(0.0f64, |d, (a, b)| d.max((a - b).abs()));
            prop_assert!(diff <= bound, "PHAT differs by {diff:e}, bound {bound:e}");
            worst.set(worst.get().max(diff / bound));
            prop_assert_eq!(strong_peaks(&phat), strong_peaks(&hypot));
            prop::pass()
        },
    );
    println!("worst PHAT difference: {:.3} of the bound", worst.get());
}

/// Spectra with no usable mass are reported as no-ops (the detector then
/// guides on the unweighted correlation) and leave the output untouched:
/// all-zero correlations, and correlations carrying a non-finite sample
/// anywhere.
#[test]
fn degenerate_spectra_are_weighting_no_ops() {
    use hyperear_dsp::estimator::{CorrelationSpectrum, EstimatorScratch};
    let strat = (
        usize_range(1, 4_096),
        usize_range(0, 4_095),
        usize_range(0, 2),
    );
    prop::check(
        "degenerate_spectra_are_weighting_no_ops",
        strat,
        |&(len, at, kind)| {
            let mut corr = random_beacon_train(len, 1, 0.01, len as u64);
            match kind {
                0 => corr.fill(0.0),
                1 => corr[at % len] = f64::INFINITY,
                _ => corr[at % len] = f64::NAN,
            }
            let mut spectrum = CorrelationSpectrum::default();
            spectrum.compute(&corr).unwrap();
            let mut scratch = EstimatorScratch::default();
            let mut out = vec![42.0];
            prop_assert!(!spectrum
                .gcc_phat_into(0.15, &mut scratch, &mut out)
                .unwrap());
            prop_assert!(!spectrum
                .subband_coherence_into(44_100.0, 1_800.0, 7_040.0, 16, &mut scratch, &mut out)
                .unwrap());
            prop_assert_eq!(out, vec![42.0]);
            prop::pass()
        },
    );
}

/// The detection epilogue as it stood before the two-pass kernel: copy
/// every `|x|`, quickselect the median with `total_cmp`, fold the
/// maximum serially. Returns `(median(|x|), max(0, max x))`.
fn reference_stats(signal: &[f64]) -> (f64, f64) {
    let mut mags: Vec<f64> = signal.iter().map(|x| x.abs()).collect();
    let mid = mags.len() / 2;
    mags.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let max = signal.iter().fold(0.0f64, |m, &v| m.max(v));
    (mags[mid], max)
}

/// The plain candidate scan (every sample against the threshold) with
/// the same greedy non-maximum suppression, as it stood before the
/// chunk-skipping scan.
fn reference_find_peaks(
    signal: &[f64],
    config: &hyperear_dsp::peak::PeakConfig,
) -> Vec<hyperear_dsp::peak::Peak> {
    use hyperear_dsp::peak::Peak;
    let mut out = Vec::new();
    for i in 0..signal.len() {
        let v = signal[i];
        if v < config.threshold {
            continue;
        }
        let left_ok = i == 0 || signal[i - 1] < v;
        let right_ok = i + 1 == signal.len() || signal[i + 1] <= v;
        if left_ok && right_ok {
            out.push(Peak { index: i, value: v });
        }
    }
    if config.min_distance <= 1 || out.len() <= 1 {
        return out;
    }
    let mut candidates = out.clone();
    candidates.sort_unstable_by(|a, b| b.value.total_cmp(&a.value).then(a.index.cmp(&b.index)));
    out.clear();
    for cand in candidates {
        if out
            .iter()
            .all(|t: &Peak| cand.index.abs_diff(t.index) >= config.min_distance)
        {
            out.push(cand);
        }
    }
    out.sort_unstable_by_key(|p| p.index);
    out
}

/// Peaks as `(index, value bits)`, so a NaN peak compares equal to itself.
fn peak_bits(peaks: &[hyperear_dsp::peak::Peak]) -> Vec<(usize, u64)> {
    peaks.iter().map(|p| (p.index, p.value.to_bits())).collect()
}

/// Signals that stress the statistics pass: one value family per case
/// (a constant, heavy ties, noise with ±0/±∞/NaN/subnormals sprinkled
/// in, mostly special values, subnormals, a heavy-tailed Cauchy draw,
/// noise with spikes aligned to the sampling stride, sorted and
/// reversed noise), at lengths 1–3, below the bracketed-path minimum,
/// and well past it. Shrinks by halving the length.
#[derive(Debug, Clone, Copy)]
struct EdgeSignals;

const SPECIALS: [f64; 8] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::MIN_POSITIVE / 8.0,
    -5e-324,
];

impl prop::Strategy for EdgeSignals {
    type Value = Vec<f64>;

    fn generate(&self, g: &mut prop::Gen) -> Vec<f64> {
        let len = match g.usize_in(0, 4) {
            0 => g.usize_in(1, 4),
            1 => g.usize_in(4, 2_048),
            _ => g.usize_in(2_048, 12_000),
        };
        let family = g.usize_in(0, 10);
        let constant = if g.bool() {
            SPECIALS[g.usize_in(0, SPECIALS.len())]
        } else {
            g.f64_in(-3.0, 3.0)
        };
        let mut v: Vec<f64> = (0..len)
            .map(|i| match family {
                0 => constant,
                1 => 0.5 * (g.usize_in(0, 5) as f64 - 2.0),
                2 if g.usize_in(0, 20) == 0 => SPECIALS[g.usize_in(0, SPECIALS.len())],
                3 if g.bool() => SPECIALS[g.usize_in(0, SPECIALS.len())],
                4 => {
                    let sub = f64::from_bits(g.usize_in(0, 1 << 52) as u64);
                    if g.bool() {
                        -sub
                    } else {
                        sub
                    }
                }
                5 => (std::f64::consts::PI * (g.f64_in(0.0, 1.0) - 0.5)).tan(),
                // Large on every position the 32-sample stride samples:
                // the sampled bracket misses the median.
                6 if i % 32 == 0 => g.f64_in(10.0, 20.0),
                _ => g.f64_in(-1.0, 1.0) + g.f64_in(-1.0, 1.0) + g.f64_in(-1.0, 1.0),
            })
            .collect();
        match family {
            7 => v.sort_by(f64::total_cmp),
            8 => v.sort_by(|a, b| b.total_cmp(a)),
            _ => {}
        }
        v
    }

    fn shrink(&self, v: &Vec<f64>) -> Vec<Vec<f64>> {
        if v.len() > 1 {
            vec![v[..1].to_vec(), v[..v.len() / 2].to_vec()]
        } else {
            Vec::new()
        }
    }
}

/// The statistics pass is exact: the median of `|x|` and the maximum are
/// bit-identical to a full `total_cmp` selection and a serial fold, on
/// every value family (NaN, ±∞, ±0, subnormals, ties, sorted input) and
/// at every length, whichever path (bracketed or full) the data takes.
/// Each case runs twice through one scratch, so stale contents cannot
/// leak into the second call.
#[test]
fn signal_stats_equal_full_selection() {
    use hyperear_dsp::peak::{noise_floor, signal_stats_with, PeakScratch};
    prop::check("signal_stats_equal_full_selection", EdgeSignals, |signal| {
        let (median, max) = reference_stats(signal);
        let mut scratch = PeakScratch::default();
        for _ in 0..2 {
            let stats = signal_stats_with(signal, &mut scratch).unwrap();
            prop_assert_eq!(stats.median_abs.to_bits(), median.to_bits());
            prop_assert_eq!(stats.max.to_bits(), max.to_bits());
            prop_assert_eq!(
                noise_floor(signal).unwrap().to_bits(),
                (median / 0.6745).to_bits()
            );
        }
        prop::pass()
    });
}

/// A signal built against the 32-sample stride — every sampled position
/// large, every other sample small — puts the sampled bracket far above
/// the true median. The kernel must notice the miss, select over every
/// sample instead, and still return the exact statistics; a noise-like
/// signal of the same length must take the bracketed path.
#[test]
fn bracket_miss_falls_back_to_full_selection() {
    use hyperear_dsp::peak::{signal_stats_with, PeakScratch};
    let mut scratch = PeakScratch::default();
    let adversarial: Vec<f64> = (0..8_192)
        .map(|i| {
            if i % 32 == 0 {
                1.0 + i as f64
            } else {
                1e-3 * (i % 7) as f64
            }
        })
        .collect();
    let noise = random_beacon_train(8_192, 2, 0.05, 7);
    for (signal, fallback) in [(&adversarial, true), (&noise, false)] {
        let stats = signal_stats_with(signal, &mut scratch).unwrap();
        let (median, max) = reference_stats(signal);
        assert_eq!(stats.full_select, fallback);
        assert_eq!(stats.median_abs.to_bits(), median.to_bits());
        assert_eq!(stats.max.to_bits(), max.to_bits());
    }
}

/// The chunk-skipping candidate scan equals the plain scan: runs of
/// equal values (plateaus, many straddling a 64-sample chunk edge), a
/// threshold equal to a sample value, NaN samples, and lengths that are
/// not a multiple of the chunk, at several suppression distances.
#[test]
fn chunked_peak_scan_equals_plain_scan() {
    use hyperear_dsp::peak::{find_peaks_into, PeakConfig};
    let strat = (
        vec_of(
            (usize_range(0, 5), usize_range(1, 12), usize_range(0, 40)),
            1,
            60,
        ),
        usize_range(0, 1_000),
        usize_range(1, 40),
    );
    prop::check(
        "chunked_peak_scan_equals_plain_scan",
        strat,
        |(runs, pick, min_distance)| {
            // Each run is (level, length, NaN marker): a marker of 0
            // makes the run's first sample NaN.
            let mut signal = Vec::new();
            for &(level, len, nan) in runs {
                let start = signal.len();
                signal.extend(std::iter::repeat_n(level as f64, len));
                if nan == 0 {
                    signal[start] = f64::NAN;
                }
            }
            let finite: Vec<f64> = signal.iter().copied().filter(|v| !v.is_nan()).collect();
            let threshold = if finite.is_empty() {
                1.0
            } else {
                finite[pick % finite.len()]
            };
            let config = PeakConfig::new(threshold, *min_distance).unwrap();
            let (mut scratch, mut out) = (Vec::new(), Vec::new());
            find_peaks_into(&signal, &config, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(
                peak_bits(&out),
                peak_bits(&reference_find_peaks(&signal, &config))
            );
            prop::pass()
        },
    );
}

/// The whole epilogue — statistics, two-part threshold, chunked scan —
/// equals the reference epilogue on every value family, errors
/// included (an infinite sample makes the threshold non-finite).
#[test]
fn detect_peaks_equals_reference_epilogue() {
    use hyperear_dsp::peak::{detect_peaks_into, PeakConfig, PeakScratch, ThresholdRule};
    let rule = ThresholdRule {
        noise_factor: 6.0,
        relative: 0.25,
        min_distance: 30,
    };
    prop::check(
        "detect_peaks_equals_reference_epilogue",
        EdgeSignals,
        |signal| {
            let (median, max) = reference_stats(signal);
            let threshold = (rule.noise_factor * (median / 0.6745)).max(rule.relative * max);
            let reference = PeakConfig::new(threshold, rule.min_distance)
                .map(|config| peak_bits(&reference_find_peaks(signal, &config)));
            let mut out = Vec::new();
            let got = detect_peaks_into(signal, &rule, &mut PeakScratch::default(), &mut out)
                .map(|()| peak_bits(&out));
            prop_assert_eq!(got, reference);
            prop::pass()
        },
    );
}

/// A random beacon template for the band-limited properties: a chirp of
/// random band and direction, optionally with a band-pass folded in (the
/// detector's form), as a full-rate filter.
fn beacon_filter(
    f0: f64,
    width: f64,
    up: bool,
    folded: bool,
) -> (Vec<f64>, StreamingMatchedFilter) {
    use hyperear_dsp::chirp::{Chirp, ChirpShape};
    let shape = if up { ChirpShape::Up } else { ChirpShape::Down };
    let chirp = Chirp::new(f0, f0 + width, 0.03, 44_100.0, shape).unwrap();
    let template = chirp.samples().to_vec();
    let filter = if folded {
        let taps = FirFilter::band_pass(
            f0 * 0.9,
            ((f0 + width) * 1.1).min(22_000.0),
            44_100.0,
            127,
            Window::Hamming,
        )
        .unwrap();
        StreamingMatchedFilter::with_zero_phase_prefilter(&template, taps.taps()).unwrap()
    } else {
        StreamingMatchedFilter::new(&template).unwrap()
    };
    (template, filter)
}

/// Noise, the template at random offsets, and a strong tone outside the
/// beacon band (+35 dB over the beacons).
fn beacon_capture(
    template: &[f64],
    len: usize,
    spots: &[usize],
    tone_hz: f64,
    seed: u64,
) -> Vec<f64> {
    let mut state = seed | 1;
    let mut signal: Vec<f64> = (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let noise = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.02;
            let tone = 5.6 * (2.0 * std::f64::consts::PI * tone_hz * i as f64 / 44_100.0).sin();
            noise + tone
        })
        .collect();
    for &at in spots {
        for (s, &t) in signal[at % len..].iter_mut().zip(template) {
            *s += 0.1 * t;
        }
    }
    signal
}

/// The band-limited engine's decimated output is bit-identical across
/// random chunkings and to the one-shot call, and its rebuilt full-rate
/// values stay within `1e-5 · max|r|` of the full-rate normalized
/// correlation at every interior lag — noise, chirps at random offsets
/// and a strong out-of-band tone included. The templates are the
/// detector's: chirps with the band-pass folded in, whose spectrum falls
/// below the kept-band level outside the band. (A bare chirp's hard
/// edges leak just under that level across the whole spectrum, so a
/// +35 dB tone there reaches ~2e-5 · max|r|.)
#[test]
fn bandlimited_correlation_is_chunk_exact_and_rebuilds_full_rate() {
    use hyperear_dsp::interpolate::INTERP_HALF;
    let strat = (
        (f64_range(1_500.0, 12_000.0), f64_range(800.0, 5_000.0)),
        usize_range(0, 1),
        (
            usize_range(4_000, 40_000),
            vec_of(usize_range(0, 40_000), 1, 4),
        ),
        (
            vec_of(usize_range(0, 20_000), 1, 8),
            usize_range(0, u32::MAX as usize),
        ),
    );
    prop::check(
        "bandlimited_correlation_is_chunk_exact_and_rebuilds_full_rate",
        strat,
        |((f0, width), up, (len, spots), (chunks, seed))| {
            let (template, full) = beacon_filter(*f0, *width, *up == 1, true);
            prop_assume!(template.len() <= *len);
            let band = full.band_limited().unwrap();
            let dec = band.decimation(0);
            // A tone below the band (or above it for low bands).
            let tone = if *f0 > 3_000.0 { 400.0 } else { 18_000.0 };
            let signal = beacon_capture(&template, *len, spots, tone, *seed as u64);
            let mut scratch = DspScratch::new();
            let mut one_shot = vec![Vec::new()];
            band.correlate_into(&signal, &mut scratch, &mut one_shot)
                .unwrap();
            prop_assert_eq!(one_shot[0].len(), dec.decimated_len(signal.len()));
            let sizes: Vec<usize> = chunks.iter().map(|&c| c.max(1)).collect();
            let mut feed = band.chunk_feed();
            let mut streamed = vec![Vec::new()];
            let mut pos = 0;
            for &n in sizes.iter().cycle() {
                if pos == signal.len() {
                    break;
                }
                let n = n.min(signal.len() - pos);
                band.push_chunk_into(
                    &mut feed,
                    &signal[pos..pos + n],
                    &mut scratch,
                    &mut streamed,
                )
                .unwrap();
                pos += n;
            }
            band.finish_chunks_into(&mut feed, &mut scratch, &mut streamed)
                .unwrap();
            prop_assert!(
                streamed == one_shot,
                "chunked output diverged from one-shot"
            );

            let mut reference = Vec::new();
            full.correlate_normalized_into(&signal, &mut scratch, &mut reference)
                .unwrap();
            let edge = INTERP_HALF * dec.factor();
            prop_assume!(signal.len() > 2 * edge);
            let mut rebuilt = Vec::new();
            dec.rebuild_into(&one_shot[0], edge..signal.len() - edge, false, &mut rebuilt);
            let max = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (i, (&r, &b)) in reference[edge..].iter().zip(&rebuilt).enumerate() {
                prop_assert!(
                    (r - b).abs() <= 1e-5 * max,
                    "lag {}: rebuilt {b} vs full-rate {r} (max {max}, D {})",
                    edge + i,
                    dec.factor()
                );
            }
            prop::pass()
        },
    );
}

/// Every lane of a band-limited bank is bit-identical to a one-template
/// band-limited engine, also when fed in chunks, and the block step is
/// the same for every decimation factor at one block and template
/// length. The templates are bare chirps, so factors from 1 to 16 occur.
#[test]
fn bandlimited_bank_lanes_equal_solo_engines_at_one_step() {
    let strat = (
        vec_of(
            (f64_range(1_500.0, 14_000.0), f64_range(600.0, 6_000.0)),
            1,
            4,
        ),
        usize_range(4_000, 30_000),
        (usize_range(1, 9_000), usize_range(0, u32::MAX as usize)),
    );
    prop::check(
        "bandlimited_bank_lanes_equal_solo_engines_at_one_step",
        strat,
        |(bands, len, (chunk, seed))| {
            // Equal durations: every template has one length, so one
            // block, whatever its band.
            let filters: Vec<(Vec<f64>, StreamingMatchedFilter)> = bands
                .iter()
                .map(|&(f0, width)| beacon_filter(f0, width, true, false))
                .collect();
            let templates: Vec<&[f64]> = filters.iter().map(|(t, _)| t.as_slice()).collect();
            prop_assume!(templates[0].len() <= *len);
            let bank = BandLimitedBank::new(&templates).unwrap();
            let signal = beacon_capture(templates[0], *len, &[*len / 3], 300.0, *seed as u64);
            let mut scratch = DspScratch::new();
            let mut lanes = vec![Vec::new(); templates.len()];
            bank.correlate_into(&signal, &mut scratch, &mut lanes)
                .unwrap();
            let mut feed = bank.chunk_feed();
            let mut streamed = vec![Vec::new(); templates.len()];
            for piece in signal.chunks(*chunk) {
                bank.push_chunk_into(&mut feed, piece, &mut scratch, &mut streamed)
                    .unwrap();
            }
            bank.finish_chunks_into(&mut feed, &mut scratch, &mut streamed)
                .unwrap();
            prop_assert!(streamed == lanes, "chunked bank diverged from one-shot");
            for (k, (_, filter)) in filters.iter().enumerate() {
                let solo = filter.band_limited().unwrap();
                prop_assert_eq!(solo.step(), bank.step());
                prop_assert_eq!(solo.step() % 16, 0);
                prop_assert_eq!(solo.decimation(0), bank.decimation(k));
                let mut out = vec![Vec::new()];
                solo.correlate_into(&signal, &mut scratch, &mut out)
                    .unwrap();
                prop_assert!(out[0] == lanes[k], "lane {k} diverged from its solo engine");
            }
            prop::pass()
        },
    );
}
