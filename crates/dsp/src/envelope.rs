//! Analytic-signal envelopes (Hilbert transform).
//!
//! The cross-correlation of a band-pass signal rings at its carrier
//! frequency: `R(τ) ≈ env(τ)·cos(2π·f_c·τ)`. For the audible HyperEar
//! beacon (f_c ≈ 4.2 kHz, fractional bandwidth ~1) the main lobe is
//! smooth and direct peak-picking works. For a *near-ultrasonic* beacon
//! (f_c ≈ 17.8 kHz at 44.1 kHz sampling) the carrier period is only
//! ~2.5 samples, and picking correlation maxima hops between carrier
//! cycles — ±1.2 samples ≈ ±9 mm of TDoA error. Envelope detection
//! removes the carrier: take the magnitude of the analytic signal and
//! pick peaks on that.

use crate::fft::try_next_pow2;
use crate::plan::{with_thread_ctx, DspScratch, PlanCache, Planes};
use crate::DspError;

/// Computes the analytic signal of `x` via the frequency-domain Hilbert
/// construction (negative frequencies zeroed, positive doubled) into the
/// planes `out` (cleared and refilled; they grow to the padded
/// power-of-two length), with the FFT plan from `plans`. The imaginary
/// plane is the Hilbert transform of the input.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
fn analytic_signal_into(
    x: &[f64],
    plans: &mut PlanCache,
    out: &mut Planes,
) -> Result<(), DspError> {
    if x.is_empty() {
        return Err(DspError::EmptyInput {
            what: "analytic_signal input",
        });
    }
    let n = try_next_pow2(x.len())?;
    let plan = plans.plan(n)?;
    let Planes { re, im } = out;
    re.clear();
    im.clear();
    re.extend_from_slice(x);
    im.resize(x.len(), 0.0);
    re.resize(n, 0.0);
    im.resize(n, 0.0);
    plan.fft_split(re, im);
    // H[0] and H[n/2] stay; positive freqs double; negatives zero.
    for plane in [&mut *re, &mut *im] {
        if n > 2 {
            plane[1..n / 2].iter_mut().for_each(|v| *v *= 2.0);
        }
        if n > 1 {
            plane[n / 2 + 1..].fill(0.0);
        }
    }
    plan.ifft_split(re, im);
    re.truncate(x.len());
    im.truncate(x.len());
    Ok(())
}

/// The envelope `|analytic(x)|` of a signal.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
///
/// # Example
///
/// ```
/// // The envelope of a windowed tone recovers the window, not the tone.
/// let fs = 8_000.0;
/// let x: Vec<f64> = (0..256)
///     .map(|i| {
///         let t = i as f64 / fs;
///         (2.0 * std::f64::consts::PI * 1_000.0 * t).sin()
///     })
///     .collect();
/// let env = hyperear_dsp::envelope::envelope(&x).unwrap();
/// // Interior envelope is ~1 even where the sine crosses zero.
/// assert!(env[64] > 0.95 && env[65] > 0.95);
/// ```
pub fn envelope(x: &[f64]) -> Result<Vec<f64>, DspError> {
    let mut out = Vec::new();
    with_thread_ctx(|plans, scratch| envelope_with(x, plans, scratch, &mut out))?;
    Ok(out)
}

/// Planned form of [`envelope`]: identical output, with the FFT plan
/// from `plans`, the complex analytic signal in `scratch.p1`, and the
/// envelope written into `out` (cleared and refilled; capacity reused).
/// Steady-state calls at warm sizes do not allocate.
///
/// # Errors
///
/// Same conditions as [`envelope`].
pub fn envelope_with(
    x: &[f64],
    plans: &mut PlanCache,
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    analytic_signal_into(x, plans, &mut scratch.p1)?;
    let Planes { re, im } = &scratch.p1;
    out.clear();
    out.extend(re.iter().zip(im).map(|(r, i)| r.hypot(*i)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analytic_signal(x: &[f64]) -> Result<Vec<crate::Complex>, DspError> {
        let mut out = Planes::default();
        analytic_signal_into(x, &mut PlanCache::new(), &mut out)?;
        Ok((0..out.len()).map(|k| out.at(k)).collect())
    }

    #[test]
    fn envelope_of_tone_is_flat() {
        let fs = 8_000.0;
        let x: Vec<f64> = (0..1024)
            .map(|i| (2.0 * std::f64::consts::PI * 1_000.0 * i as f64 / fs).sin())
            .collect();
        let env = envelope(&x).unwrap();
        for &e in &env[64..960] {
            assert!((e - 1.0).abs() < 0.02, "envelope {e}");
        }
    }

    #[test]
    fn envelope_recovers_amplitude_modulation() {
        let fs = 8_000.0;
        let x: Vec<f64> = (0..2048)
            .map(|i| {
                let t = i as f64 / fs;
                let am = 0.6 + 0.4 * (2.0 * std::f64::consts::PI * 20.0 * t).sin();
                am * (2.0 * std::f64::consts::PI * 1_500.0 * t).sin()
            })
            .collect();
        let env = envelope(&x).unwrap();
        for i in (100..1900).step_by(150) {
            let t = i as f64 / fs;
            let truth = 0.6 + 0.4 * (2.0 * std::f64::consts::PI * 20.0 * t).sin();
            assert!(
                (env[i] - truth).abs() < 0.05,
                "at {i}: {} vs {truth}",
                env[i]
            );
        }
    }

    #[test]
    fn analytic_real_part_is_the_input() {
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.21).sin()).collect();
        let z = analytic_signal(&x).unwrap();
        assert_eq!(z.len(), x.len());
        for (a, b) in x.iter().zip(&z) {
            assert!((a - b.re).abs() < 1e-9);
        }
    }

    #[test]
    fn hilbert_of_cos_is_sin() {
        // On an exact FFT grid: H{cos} = sin.
        let n = 256;
        let k = 16.0;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k * i as f64 / n as f64).cos())
            .collect();
        let z = analytic_signal(&x).unwrap();
        for (i, v) in z.iter().enumerate() {
            let expected = (2.0 * std::f64::consts::PI * k * i as f64 / n as f64).sin();
            assert!((v.im - expected).abs() < 1e-9, "at {i}");
        }
    }

    #[test]
    fn envelope_peak_ignores_carrier_phase() {
        // A Hann-windowed high-frequency burst: the raw signal's max
        // depends on carrier alignment, the envelope's does not.
        let fs = 44_100.0;
        let fc = 17_750.0;
        let n = 512;
        let make = |phase: f64| -> Vec<f64> {
            (0..n)
                .map(|i| {
                    let t = i as f64 / fs;
                    let w = crate::window::Window::Hann.value(i, n);
                    w * (2.0 * std::f64::consts::PI * fc * t + phase).sin()
                })
                .collect()
        };
        let argmax = |x: &[f64]| {
            x.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0 as isize
        };
        let e0 = argmax(&envelope(&make(0.0)).unwrap());
        let e1 = argmax(&envelope(&make(1.3)).unwrap());
        assert!((e0 - e1).abs() <= 2, "envelope peaks {e0} vs {e1}");
    }

    #[test]
    fn planned_envelope_matches_one_shot_and_reuses_buffers() {
        let x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.41).sin()).collect();
        let mut plans = PlanCache::new();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        envelope_with(&x, &mut plans, &mut scratch, &mut out).unwrap();
        assert_eq!(out, envelope(&x).unwrap());
        let ptr = out.as_ptr();
        envelope_with(&x, &mut plans, &mut scratch, &mut out).unwrap();
        assert_eq!(ptr, out.as_ptr(), "capacity must be reused");
        assert!(envelope_with(&[], &mut plans, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(envelope(&[]).is_err());
        assert!(analytic_signal(&[]).is_err());
    }
}
