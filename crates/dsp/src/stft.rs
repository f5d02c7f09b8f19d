//! Short-time Fourier transform.
//!
//! Frame-based spectral analysis: used to visualize beacon chirps (the
//! `spectrogram` example), to verify noise-model spectra over time, and
//! generally useful to anyone adopting the DSP crate.

use crate::error::check_rate;
use crate::plan::{shared_real_plan, DspScratch};
use crate::window::Window;
use crate::DspError;

/// A magnitude spectrogram: frames × frequency bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    /// Frame hop in samples.
    pub hop: usize,
    /// FFT size used per frame.
    pub fft_size: usize,
    /// Sample rate, hertz.
    pub sample_rate: f64,
    /// Magnitudes, `frames[t][k]` for time frame `t` and bin `k`
    /// (bins cover `0..=fft_size/2`).
    pub frames: Vec<Vec<f64>>,
}

impl Spectrogram {
    /// The frequency of bin `k`, hertz.
    #[must_use]
    pub fn freq_of(&self, k: usize) -> f64 {
        k as f64 * self.sample_rate / self.fft_size as f64
    }

    /// The bin index nearest `freq_hz`.
    #[must_use]
    pub fn bin_of(&self, freq_hz: f64) -> usize {
        ((freq_hz * self.fft_size as f64 / self.sample_rate).round() as usize)
            .min(self.fft_size / 2)
    }
}

/// Computes a magnitude spectrogram.
///
/// `frame_len` samples per frame (Hann-windowed, zero-padded to the next
/// power of two), advancing by `hop` samples.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal,
/// [`DspError::InvalidParameter`] for zero frame/hop sizes, a frame
/// longer than the signal, or a sample rate that is not finite and
/// positive.
pub fn stft(
    signal: &[f64],
    frame_len: usize,
    hop: usize,
    sample_rate: f64,
) -> Result<Spectrogram, DspError> {
    stft_with(signal, frame_len, hop, sample_rate, &mut DspScratch::new())
}

/// Planned spectrogram: identical output to [`stft`], with the working
/// buffers taken from `scratch` — one plan lookup for the whole call and
/// no per-frame transform setup.
///
/// # Errors
///
/// Same conditions as [`stft`].
pub fn stft_with(
    signal: &[f64],
    frame_len: usize,
    hop: usize,
    sample_rate: f64,
    scratch: &mut DspScratch,
) -> Result<Spectrogram, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput { what: "stft input" });
    }
    if frame_len == 0 || hop == 0 {
        return Err(DspError::invalid("frame_len/hop", "must be positive"));
    }
    if frame_len > signal.len() {
        return Err(DspError::invalid(
            "frame_len",
            format!("frame {frame_len} longer than signal {}", signal.len()),
        ));
    }
    check_rate(sample_rate)?;
    let fft_size = crate::fft::try_next_pow2(frame_len)?;
    let plan = shared_real_plan(fft_size)?;
    let window = Window::Hann.coefficients(frame_len)?;
    let mut frames = Vec::new();
    let mut start = 0;
    while start + frame_len <= signal.len() {
        scratch.r1.clear();
        scratch
            .r1
            .extend_from_slice(&signal[start..start + frame_len]);
        Window::apply_coefficients(&window, &mut scratch.r1)?;
        // rfft_half_into zero-pads to fft_size and yields exactly the
        // fft_size/2 + 1 one-sided bins each frame stores.
        plan.rfft_half_into(&scratch.r1, &mut scratch.p1)?;
        let bins = &scratch.p1;
        frames.push(
            bins.re
                .iter()
                .zip(&bins.im)
                .map(|(r, i)| r.hypot(*i))
                .collect(),
        );
        start += hop;
    }
    Ok(Spectrogram {
        hop,
        fft_size,
        sample_rate,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frequency of frame `t`'s strongest bin.
    fn peak_frequency(spec: &Spectrogram, t: usize) -> f64 {
        let (k, _) = spec.frames[t]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        spec.freq_of(k)
    }

    #[test]
    fn tone_concentrates_in_one_bin_over_time() {
        let fs = 8_000.0;
        let f = 1_000.0;
        let signal: Vec<f64> = (0..8_000)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let spec = stft(&signal, 256, 128, fs).unwrap();
        assert!(spec.frames.len() > 50);
        for t in 0..spec.frames.len() {
            let peak = peak_frequency(&spec, t);
            assert!((peak - f).abs() < 40.0, "frame {t}: peak {peak}");
        }
    }

    #[test]
    fn chirp_peak_frequency_sweeps_up_then_down() {
        let chirp = crate::chirp::Chirp::new(
            2_000.0,
            6_400.0,
            0.04,
            44_100.0,
            crate::chirp::ChirpShape::UpDown,
        )
        .unwrap();
        let spec = stft(chirp.samples(), 256, 64, 44_100.0).unwrap();
        let n = spec.frames.len();
        // Skip the tapered edges (the Hann envelope kills the extremes).
        let early = peak_frequency(&spec, n / 8);
        let mid = peak_frequency(&spec, n / 2);
        let late = peak_frequency(&spec, 7 * n / 8);
        assert!(mid > early + 1_000.0, "mid {mid} early {early}");
        assert!(mid > late + 1_000.0, "mid {mid} late {late}");
        assert!((5_000.0..6_600.0).contains(&mid), "mid {mid}");
    }

    #[test]
    fn coordinate_helpers() {
        let signal = vec![0.0; 2_048];
        let spec = stft(&signal, 256, 128, 8_000.0).unwrap();
        assert_eq!(spec.fft_size, 256);
        assert_eq!(spec.freq_of(0), 0.0);
        assert!((spec.freq_of(128) - 4_000.0).abs() < 1e-9);
        assert_eq!(spec.bin_of(0.0), 0);
        assert_eq!(spec.bin_of(4_000.0), 128);
        assert_eq!(spec.bin_of(1_000_000.0), 128); // clamped to Nyquist
    }

    #[test]
    fn frame_count_matches_hop_arithmetic() {
        let signal = vec![0.0; 1_000];
        let spec = stft(&signal, 100, 50, 1_000.0).unwrap();
        assert_eq!(spec.frames.len(), (1_000 - 100) / 50 + 1);
        // Each frame holds fft/2 + 1 bins.
        assert_eq!(spec.frames[0].len(), spec.fft_size / 2 + 1);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(stft(&[], 64, 32, 8_000.0).is_err());
        assert!(stft(&[0.0; 100], 0, 32, 8_000.0).is_err());
        assert!(stft(&[0.0; 100], 64, 0, 8_000.0).is_err());
        assert!(stft(&[0.0; 10], 64, 32, 8_000.0).is_err());
        assert!(stft(&[0.0; 100], 64, 32, 0.0).is_err());
    }
}
