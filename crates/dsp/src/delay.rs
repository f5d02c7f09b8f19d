//! Integer and fractional signal delays.
//!
//! The acoustic simulator renders propagation by delaying the speaker's
//! waveform by `distance / 343 m/s` at each microphone. Real propagation
//! delays land between sampling instants, so a windowed-sinc fractional
//! delay is essential: rounding to whole samples would inject exactly the
//! quantization error HyperEar is designed to defeat, hiding the effect
//! under test.

use crate::DspError;

/// Mixes `addend`, delayed by `delay_samples` and scaled by `gain`, into
/// `accumulator`, touching only the local output window.
///
/// A windowed-sinc fractional delay (integer delays are exact copies)
/// that costs `O(addend.len() · kernel)` rather than
/// `O(accumulator.len() · kernel)`, which matters when inserting many
/// short beacons into a long recording (the simulator's hot path).
/// Contributions past the accumulator end are silently dropped (the
/// event ran off the recording).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty accumulator or addend
/// and [`DspError::InvalidParameter`] for a negative delay or a zero
/// kernel half-width.
pub fn mix_delayed_local(
    accumulator: &mut [f64],
    addend: &[f64],
    delay_samples: f64,
    gain: f64,
    kernel_half_width: usize,
) -> Result<(), DspError> {
    if accumulator.is_empty() {
        return Err(DspError::EmptyInput {
            what: "mix accumulator",
        });
    }
    if addend.is_empty() {
        return Err(DspError::EmptyInput { what: "mix addend" });
    }
    if delay_samples < 0.0 {
        return Err(DspError::invalid(
            "delay_samples",
            format!("delay must be non-negative, got {delay_samples}"),
        ));
    }
    if kernel_half_width == 0 {
        return Err(DspError::invalid("kernel_half_width", "must be positive"));
    }
    let int_part = delay_samples.floor();
    let frac = delay_samples - int_part;
    let int_delay = int_part as isize;
    let n = addend.len() as isize;
    let out_len = accumulator.len() as isize;

    if frac.abs() < 1e-12 {
        for k in 0..n {
            let j = k + int_delay;
            if j >= 0 && j < out_len {
                accumulator[j as usize] += gain * addend[k as usize];
            }
        }
        return Ok(());
    }

    let hw = kernel_half_width as isize;
    // kernel[m + hw] = windowed-sinc evaluated at (m - frac): the weight of
    // input sample k on output sample (k + int_delay + m).
    let mut kernel = Vec::with_capacity((2 * hw + 1) as usize);
    for m in -hw..=hw {
        let x = m as f64 - frac;
        let w = 0.5 + 0.5 * (std::f64::consts::PI * x / (hw as f64 + 1.0)).cos();
        kernel.push(sinc(x) * w);
    }
    // Direct convolution addend ⊛ kernel placed at int_delay - hw.
    for j in (int_delay - hw).max(0)..(int_delay + n + hw).min(out_len) {
        let mut acc = 0.0;
        // j = k + int_delay + m  ⇒  k = j - int_delay - m.
        for (mi, &kv) in kernel.iter().enumerate() {
            let m = mi as isize - hw;
            let k = j - int_delay - m;
            if k >= 0 && k < n {
                acc += addend[k as usize] * kv;
            }
        }
        accumulator[j as usize] += gain * acc;
    }
    Ok(())
}

fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::xcorr;
    use crate::interpolate::parabolic_peak;

    /// `signal` delayed by `delay` samples into `len` zeroed samples.
    fn delayed(signal: &[f64], delay: f64, half_width: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        mix_delayed_local(&mut out, signal, delay, 1.0, half_width).unwrap();
        out
    }

    #[test]
    fn zero_delay_is_identity() {
        let signal = vec![1.0, -2.0, 3.0];
        assert_eq!(delayed(&signal, 0.0, 8, signal.len()), signal);
    }

    #[test]
    fn fractional_delay_preserves_tone_phase() {
        // Delay a tone by 2.5 samples and compare against the analytically
        // shifted tone in the interior.
        let fs = 44_100.0;
        let f = 3_000.0;
        let n = 2048;
        let tone: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let delayed = delayed(&tone, 2.5, 16, n);
        for (i, &d) in delayed.iter().enumerate().take(n - 64).skip(64) {
            let truth = (2.0 * std::f64::consts::PI * f * (i as f64 - 2.5) / fs).sin();
            assert!((d - truth).abs() < 1e-4, "at {i}: {d} vs {truth}");
        }
    }

    #[test]
    fn fractional_delay_is_measurable_by_correlation() {
        // The round-trip that matters for HyperEar: render a fractional
        // delay, then recover it with matched filter + parabolic peak.
        let chirp = crate::chirp::Chirp::new(
            2_000.0,
            6_400.0,
            0.04,
            44_100.0,
            crate::chirp::ChirpShape::UpDown,
        )
        .unwrap();
        let m = chirp.samples().len();
        let true_delay = 100.37;
        let rendered = delayed(chirp.samples(), true_delay, 16, m + 256);
        let corr = xcorr(&rendered, chirp.samples()).unwrap();
        let peak = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let (pos, _) = parabolic_peak(&corr, peak).unwrap();
        assert!(
            (pos - true_delay).abs() < 0.05,
            "recovered {pos}, expected {true_delay}"
        );
    }

    #[test]
    fn into_len_extends_output() {
        let out = delayed(&[1.0, 2.0], 3.0, 8, 8);
        assert_eq!(out, vec![0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn local_mix_truncates_past_end() {
        let mut acc = vec![0.0; 8];
        mix_delayed_local(&mut acc, &[1.0, 2.0, 3.0], 6.0, 1.0, 8).unwrap();
        assert_eq!(acc[6], 1.0);
        assert_eq!(acc[7], 2.0);
    }

    #[test]
    fn local_mix_integer_fast_path() {
        let mut acc = vec![0.0; 10];
        mix_delayed_local(&mut acc, &[1.0, -1.0], 3.0, 2.0, 8).unwrap();
        assert_eq!(acc[3], 2.0);
        assert_eq!(acc[4], -2.0);
    }

    #[test]
    fn local_mix_rejects_bad_inputs() {
        let mut acc = vec![0.0; 4];
        assert!(mix_delayed_local(&mut acc, &[], 0.0, 1.0, 8).is_err());
        assert!(mix_delayed_local(&mut acc, &[1.0], -1.0, 1.0, 8).is_err());
        assert!(mix_delayed_local(&mut acc, &[1.0], 1.0, 1.0, 0).is_err());
        let mut empty: Vec<f64> = vec![];
        assert!(mix_delayed_local(&mut empty, &[1.0], 0.0, 1.0, 8).is_err());
    }

    #[test]
    fn energy_roughly_preserved_by_fractional_delay() {
        let chirp = crate::chirp::Chirp::new(
            2_000.0,
            6_400.0,
            0.04,
            44_100.0,
            crate::chirp::ChirpShape::UpDown,
        )
        .unwrap();
        let m = chirp.samples().len();
        let e_in: f64 = chirp.samples().iter().map(|x| x * x).sum();
        let out = delayed(chirp.samples(), 10.63, 16, m + 64);
        let e_out: f64 = out.iter().map(|x| x * x).sum();
        assert!((e_out - e_in).abs() / e_in < 0.01, "{e_out} vs {e_in}");
    }
}
