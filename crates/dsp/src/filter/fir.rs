//! Windowed-sinc FIR filter design and application.
//!
//! The band-pass used by HyperEar's Acoustic Signal Preprocessing is a
//! linear-phase windowed-sinc design. Linear phase matters: the matched
//! filter's peak position must not be skewed by the front-end filter, and a
//! symmetric FIR delays every frequency by exactly `(taps-1)/2` samples,
//! which [`FirFilter::filter_zero_phase`] compensates.

use crate::correlate::{Lanes, OverlapSave};
use crate::fft::try_next_pow2;
use crate::plan::DspScratch;
use crate::window::Window;
use crate::DspError;

/// A finite-impulse-response filter with precomputed taps.
///
/// # Example
///
/// ```
/// use hyperear_dsp::filter::FirFilter;
/// use hyperear_dsp::window::Window;
///
/// # fn main() -> Result<(), hyperear_dsp::DspError> {
/// // 2–6.4 kHz band-pass at 44.1 kHz — the HyperEar chirp band.
/// let bp = FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 101, Window::Hamming)?;
/// let signal = vec![0.0; 512];
/// let filtered = bp.filter_zero_phase(&signal)?;
/// assert_eq!(filtered.len(), signal.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Vec<f64>,
}

impl FirFilter {
    /// Creates a filter from explicit taps.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::EmptyInput { what: "FIR taps" });
        }
        Ok(FirFilter { taps })
    }

    /// Designs a low-pass filter with the given cut-off frequency.
    ///
    /// `num_taps` should be odd for an exactly linear-phase type-I design;
    /// even values are bumped up by one.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `cutoff_hz` is not in
    /// `(0, fs/2)` or `num_taps == 0`.
    pub fn low_pass(
        cutoff_hz: f64,
        sample_rate: f64,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, DspError> {
        validate_freq("cutoff_hz", cutoff_hz, sample_rate)?;
        let n = odd_taps(num_taps)?;
        let fc = cutoff_hz / sample_rate;
        let mid = (n - 1) as f64 / 2.0;
        let mut taps: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - mid;
                2.0 * fc * sinc(2.0 * fc * x) * window.value(i, n)
            })
            .collect();
        // Normalize DC gain to exactly 1.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Ok(FirFilter { taps })
    }

    /// Designs a high-pass filter via spectral inversion of a low-pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FirFilter::low_pass`].
    pub fn high_pass(
        cutoff_hz: f64,
        sample_rate: f64,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, DspError> {
        let lp = FirFilter::low_pass(cutoff_hz, sample_rate, num_taps, window)?;
        let n = lp.taps.len();
        let mid = (n - 1) / 2;
        let mut taps: Vec<f64> = lp.taps.iter().map(|t| -t).collect();
        taps[mid] += 1.0;
        Ok(FirFilter { taps })
    }

    /// Designs a band-pass filter passing `[low_hz, high_hz]`.
    ///
    /// Built as the difference of two low-pass designs, yielding a
    /// linear-phase filter with unity gain at the band centre.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the band edges are not
    /// ordered or lie outside `(0, fs/2)`.
    pub fn band_pass(
        low_hz: f64,
        high_hz: f64,
        sample_rate: f64,
        num_taps: usize,
        window: Window,
    ) -> Result<Self, DspError> {
        validate_freq("low_hz", low_hz, sample_rate)?;
        validate_freq("high_hz", high_hz, sample_rate)?;
        if low_hz >= high_hz {
            return Err(DspError::invalid(
                "low_hz/high_hz",
                format!("band edges must satisfy low < high, got {low_hz} >= {high_hz}"),
            ));
        }
        let n = odd_taps(num_taps)?;
        let f1 = low_hz / sample_rate;
        let f2 = high_hz / sample_rate;
        let mid = (n - 1) as f64 / 2.0;
        let taps: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 - mid;
                (2.0 * f2 * sinc(2.0 * f2 * x) - 2.0 * f1 * sinc(2.0 * f1 * x)) * window.value(i, n)
            })
            .collect();
        FirFilter::from_taps(taps)
    }

    /// The filter taps.
    #[must_use]
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// The group delay of this (symmetric) filter, in samples.
    #[must_use]
    pub fn group_delay(&self) -> f64 {
        (self.taps.len() - 1) as f64 / 2.0
    }

    /// Causal convolution of `signal` with the filter, same-length output.
    ///
    /// The output is delayed by [`FirFilter::group_delay`] samples relative
    /// to the input; use [`FirFilter::filter_zero_phase`] when timing must
    /// be preserved.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `signal` is empty.
    pub fn filter(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput { what: "FIR input" });
        }
        let mut out = vec![0.0; signal.len()];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &t) in self.taps.iter().enumerate() {
                if let Some(j) = i.checked_sub(k) {
                    acc += t * signal[j];
                }
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Zero-phase filtering: convolves and shifts back by the group delay.
    ///
    /// For a symmetric (linear-phase) filter this leaves event timing
    /// unchanged, which is what the matched-filter front end requires.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `signal` is empty.
    pub fn filter_zero_phase(&self, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        self.filter_zero_phase_into(signal, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`FirFilter::filter_zero_phase`]: writes
    /// the same-length output into a caller-owned buffer that is cleared
    /// and reused, so a warm filtering loop performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `signal` is empty.
    pub fn filter_zero_phase_into(
        &self,
        signal: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput { what: "FIR input" });
        }
        let delay = (self.taps.len() - 1) / 2;
        let t_len = self.taps.len();
        let n = signal.len();
        out.clear();
        out.resize(n, 0.0);
        // out[i] = sum_k taps[k] * signal[i + delay - k]
        //
        // Interior outputs — those whose every tap lands in bounds
        // (`t_len - 1 - delay <= i < n - delay`) — are computed four at a
        // time: one lane per output, each lane still accumulating over
        // `k` in the original ascending order, so results stay
        // bit-identical to the historical per-sample loop while the
        // boundary checks vanish and the k-loop body vectorizes. Edge
        // outputs keep the checked scalar path.
        let lo = (t_len - 1 - delay).min(n);
        let hi = n.saturating_sub(delay).max(lo);
        for (i, o) in out[..lo].iter_mut().enumerate() {
            *o = self.zero_phase_edge_sample(signal, i, delay);
        }
        let mut blocks = out[lo..hi].chunks_exact_mut(4);
        let mut i0 = lo;
        for block in &mut blocks {
            let mut acc = [0.0f64; 4];
            for (k, &t) in self.taps.iter().enumerate() {
                let s = &signal[i0 + delay - k..i0 + delay - k + 4];
                for (a, &x) in acc.iter_mut().zip(s) {
                    *a += t * x;
                }
            }
            block.copy_from_slice(&acc);
            i0 += 4;
        }
        for o in blocks.into_remainder() {
            let mut acc = 0.0;
            for (k, &t) in self.taps.iter().enumerate() {
                acc += t * signal[i0 + delay - k];
            }
            *o = acc;
            i0 += 1;
        }
        for (off, o) in out[hi..].iter_mut().enumerate() {
            *o = self.zero_phase_edge_sample(signal, hi + off, delay);
        }
        Ok(())
    }

    /// One boundary output of the zero-phase convolution, with the full
    /// per-tap bounds checks of the historical loop.
    fn zero_phase_edge_sample(&self, signal: &[f64], i: usize, delay: usize) -> f64 {
        let n = signal.len();
        let mut acc = 0.0;
        for (k, &t) in self.taps.iter().enumerate() {
            let idx = i as isize + delay as isize - k as isize;
            if idx >= 0 && (idx as usize) < n {
                acc += t * signal[idx as usize];
            }
        }
        acc
    }

    /// Magnitude of the filter's frequency response at `freq_hz`.
    ///
    /// Evaluated directly from the taps; useful for verifying designs.
    #[must_use]
    pub fn response_at(&self, freq_hz: f64, sample_rate: f64) -> f64 {
        let omega = 2.0 * std::f64::consts::PI * freq_hz / sample_rate;
        let (mut re, mut im) = (0.0, 0.0);
        for (k, &t) in self.taps.iter().enumerate() {
            re += t * (omega * k as f64).cos();
            im -= t * (omega * k as f64).sin();
        }
        re.hypot(im)
    }
}

/// FFT-accelerated zero-phase FIR application via overlap-save blocks.
///
/// [`FirFilter::filter_zero_phase_into`] is O(N·taps) per call. This
/// engine runs the same zero-phase convolution as blocked spectral
/// multiplications (two blocks per complex transform) — O(N log B) with a peak FFT size of
/// [`ZeroPhaseFir::block_len`], independent of signal length. (Beacon
/// detection needs neither: it folds the band-pass into the matched
/// filter, see
/// [`crate::correlate::StreamingMatchedFilter::with_zero_phase_prefilter`].)
///
/// Internally the zero-phase output `out[i] = Σ_k taps[k]·x[i + delay − k]`
/// is rewritten as a cross-correlation with the *reversed* taps at a lead
/// of `taps − 1 − delay` samples, which holds for odd and even tap counts
/// alike, and handed to the overlap-save correlator.
///
/// # Accuracy
///
/// Output is bit-close, not bit-identical, to
/// [`FirFilter::filter_zero_phase`]: identical sums evaluated in a
/// different floating-point order (pinned at `≤ 1e-9 · (1 + max|direct|)`
/// per sample by tests).
///
/// The hot method takes `&self`; per-call state lives in the caller's
/// [`DspScratch`].
#[derive(Debug, Clone)]
pub struct ZeroPhaseFir {
    core: OverlapSave,
}

impl ZeroPhaseFir {
    /// Builds the FFT engine for `filter`, with blocks of
    /// `next_pow2(4 × taps)` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if the block length
    /// overflows `usize` (never for realistic tap counts).
    pub fn new(filter: &FirFilter) -> Result<Self, DspError> {
        let taps = filter.taps();
        let reversed: Vec<f64> = taps.iter().rev().copied().collect();
        let delay = (taps.len() - 1) / 2;
        let block = try_next_pow2(taps.len().saturating_mul(4))?;
        Ok(ZeroPhaseFir {
            core: OverlapSave::new(&[&reversed], block, taps.len() - 1 - delay)?,
        })
    }

    /// The FFT block length — the peak transform size of every call,
    /// independent of signal length.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.core.block_len()
    }

    /// Zero-phase filtering into a caller-owned buffer (cleared and
    /// reused); same output convention as
    /// [`FirFilter::filter_zero_phase_into`]. Steady-state calls at warm
    /// sizes do not allocate.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `signal` is empty.
    pub fn filter_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput { what: "FIR input" });
        }
        self.core.run(
            signal,
            scratch,
            &mut Lanes::Full {
                gains: None,
                outs: std::slice::from_mut(out),
            },
        )
    }
}

fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

fn odd_taps(num_taps: usize) -> Result<usize, DspError> {
    if num_taps == 0 {
        return Err(DspError::invalid("num_taps", "must be positive"));
    }
    Ok(if num_taps.is_multiple_of(2) {
        num_taps + 1
    } else {
        num_taps
    })
}

fn validate_freq(name: &'static str, f: f64, fs: f64) -> Result<(), DspError> {
    if fs <= 0.0 {
        return Err(DspError::invalid("sample_rate", "must be positive"));
    }
    if !(f > 0.0 && f < fs / 2.0) {
        return Err(DspError::invalid(
            name,
            format!("must be in (0, {}), got {f}", fs / 2.0),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn low_pass_passes_low_and_rejects_high() {
        let fs = 44_100.0;
        let lp = FirFilter::low_pass(2_000.0, fs, 101, Window::Hamming).unwrap();
        let low = lp.filter_zero_phase(&tone(500.0, fs, 4096)).unwrap();
        let high = lp.filter_zero_phase(&tone(10_000.0, fs, 4096)).unwrap();
        // Compare interior RMS to avoid edge effects.
        assert!(rms(&low[500..3500]) > 0.6);
        assert!(rms(&high[500..3500]) < 0.02);
    }

    #[test]
    fn band_pass_isolates_chirp_band() {
        let fs = 44_100.0;
        let bp = FirFilter::band_pass(2_000.0, 6_400.0, fs, 127, Window::Hamming).unwrap();
        let inband = bp.filter_zero_phase(&tone(4_000.0, fs, 4096)).unwrap();
        let voice = bp.filter_zero_phase(&tone(800.0, fs, 4096)).unwrap();
        let hiss = bp.filter_zero_phase(&tone(12_000.0, fs, 4096)).unwrap();
        assert!(rms(&inband[500..3500]) > 0.6, "in-band should pass");
        assert!(
            rms(&voice[500..3500]) < 0.03,
            "voice band should be rejected"
        );
        assert!(rms(&hiss[500..3500]) < 0.03, "high band should be rejected");
    }

    #[test]
    fn high_pass_complements_low_pass() {
        let fs = 44_100.0;
        let hp = FirFilter::high_pass(2_000.0, fs, 101, Window::Hamming).unwrap();
        let low = hp.filter_zero_phase(&tone(300.0, fs, 4096)).unwrap();
        let high = hp.filter_zero_phase(&tone(8_000.0, fs, 4096)).unwrap();
        assert!(rms(&low[500..3500]) < 0.03);
        assert!(rms(&high[500..3500]) > 0.6);
    }

    #[test]
    fn zero_phase_preserves_pulse_position() {
        let fs = 44_100.0;
        let lp = FirFilter::low_pass(5_000.0, fs, 61, Window::Hamming).unwrap();
        let mut signal = vec![0.0; 1024];
        signal[400] = 1.0;
        let out = lp.filter_zero_phase(&signal).unwrap();
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 400);
    }

    #[test]
    fn causal_filter_delays_by_group_delay() {
        let fs = 44_100.0;
        let lp = FirFilter::low_pass(5_000.0, fs, 61, Window::Hamming).unwrap();
        let mut signal = vec![0.0; 1024];
        signal[400] = 1.0;
        let out = lp.filter(&signal).unwrap();
        let peak = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 400 + 30);
        assert_eq!(lp.group_delay(), 30.0);
    }

    #[test]
    fn dc_gain_of_low_pass_is_unity() {
        let lp = FirFilter::low_pass(1_000.0, 44_100.0, 81, Window::Hamming).unwrap();
        let sum: f64 = lp.taps().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((lp.response_at(0.0, 44_100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn response_at_band_center_is_near_unity() {
        let bp = FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 127, Window::Hamming).unwrap();
        let g = bp.response_at(4_200.0, 44_100.0);
        assert!((g - 1.0).abs() < 0.05, "band-center gain was {g}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(FirFilter::low_pass(0.0, 44_100.0, 11, Window::Hann).is_err());
        assert!(FirFilter::low_pass(30_000.0, 44_100.0, 11, Window::Hann).is_err());
        assert!(FirFilter::low_pass(100.0, 44_100.0, 0, Window::Hann).is_err());
        assert!(FirFilter::band_pass(5_000.0, 2_000.0, 44_100.0, 11, Window::Hann).is_err());
        assert!(FirFilter::low_pass(100.0, -1.0, 11, Window::Hann).is_err());
        assert!(FirFilter::from_taps(vec![]).is_err());
    }

    #[test]
    fn even_tap_requests_are_bumped_to_odd() {
        let lp = FirFilter::low_pass(1_000.0, 44_100.0, 10, Window::Hann).unwrap();
        assert_eq!(lp.taps().len() % 2, 1);
    }

    #[test]
    fn empty_signal_is_rejected() {
        let lp = FirFilter::low_pass(1_000.0, 44_100.0, 11, Window::Hann).unwrap();
        assert!(lp.filter(&[]).is_err());
        assert!(lp.filter_zero_phase(&[]).is_err());
        assert!(lp.filter_zero_phase_into(&[], &mut Vec::new()).is_err());
    }

    fn assert_bit_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        let scale = 1.0 + b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-9 * scale, "sample {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fft_zero_phase_matches_direct_odd_taps() {
        let fs = 44_100.0;
        let bp = FirFilter::band_pass(2_000.0, 6_400.0, fs, 127, Window::Hamming).unwrap();
        let signal: Vec<f64> = (0..3000)
            .map(|i| (i as f64 * 0.13).sin() + 0.4 * (i as f64 * 0.031).cos())
            .collect();
        let direct = bp.filter_zero_phase(&signal).unwrap();
        let engine = ZeroPhaseFir::new(&bp).unwrap();
        assert_eq!(engine.block_len(), 512); // next_pow2(4 * 127)
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        engine.filter_into(&signal, &mut scratch, &mut out).unwrap();
        assert_bit_close(&out, &direct);
    }

    #[test]
    fn fft_zero_phase_matches_direct_even_taps() {
        // from_taps allows even (asymmetric) tap counts; the lead
        // computation must stay aligned with the direct path's
        // (taps - 1) / 2 delay convention.
        let fir = FirFilter::from_taps(vec![0.25, -0.5, 1.0, -0.5, 0.25, 0.1]).unwrap();
        let signal: Vec<f64> = (0..200).map(|i| (i as f64 * 0.7).sin()).collect();
        let direct = fir.filter_zero_phase(&signal).unwrap();
        let engine = ZeroPhaseFir::new(&fir).unwrap();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        engine.filter_into(&signal, &mut scratch, &mut out).unwrap();
        assert_bit_close(&out, &direct);
    }

    #[test]
    fn fft_zero_phase_handles_short_signals_and_rejects_empty() {
        let lp = FirFilter::low_pass(5_000.0, 44_100.0, 61, Window::Hamming).unwrap();
        let engine = ZeroPhaseFir::new(&lp).unwrap();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        // Shorter than the taps, shorter than one block.
        let signal = [1.0, -1.0, 0.5];
        engine.filter_into(&signal, &mut scratch, &mut out).unwrap();
        assert_bit_close(&out, &lp.filter_zero_phase(&signal).unwrap());
        assert!(engine.filter_into(&[], &mut scratch, &mut out).is_err());
    }

    #[test]
    fn blocked_zero_phase_is_bit_identical_to_naive_loop() {
        // The interior/edge split with 4-wide output blocks must
        // reproduce the historical per-sample checked loop to the last
        // ulp, for odd and even tap counts and for signals shorter than
        // the filter.
        let naive = |taps: &[f64], signal: &[f64]| -> Vec<f64> {
            let delay = (taps.len() - 1) / 2;
            let n = signal.len();
            (0..n)
                .map(|i| {
                    let mut acc = 0.0;
                    for (k, &t) in taps.iter().enumerate() {
                        let idx = i as isize + delay as isize - k as isize;
                        if idx >= 0 && (idx as usize) < n {
                            acc += t * signal[idx as usize];
                        }
                    }
                    acc
                })
                .collect()
        };
        let designs = [
            FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 127, Window::Hamming).unwrap(),
            FirFilter::low_pass(5_000.0, 44_100.0, 61, Window::Hann).unwrap(),
            FirFilter::from_taps(vec![0.25, -0.5, 1.0, -0.5, 0.25, 0.1]).unwrap(),
            FirFilter::from_taps(vec![1.0]).unwrap(),
        ];
        for fir in &designs {
            for &len in &[1usize, 3, 60, 61, 62, 200, 1023] {
                let signal: Vec<f64> = (0..len)
                    .map(|i| (i as f64 * 0.13).sin() + 0.4 * (i as f64 * 0.031).cos())
                    .collect();
                let mut out = Vec::new();
                fir.filter_zero_phase_into(&signal, &mut out).unwrap();
                assert_eq!(
                    out,
                    naive(fir.taps(), &signal),
                    "taps {} len {len}",
                    fir.taps().len()
                );
            }
        }
    }

    #[test]
    fn zero_phase_into_matches_allocating_form() {
        let fs = 44_100.0;
        let bp = FirFilter::band_pass(2_000.0, 6_400.0, fs, 127, Window::Hamming).unwrap();
        let signal = tone(4_000.0, fs, 2048);
        let reference = bp.filter_zero_phase(&signal).unwrap();
        let mut out = vec![9.0; 10]; // stale contents must be irrelevant
        for _ in 0..2 {
            bp.filter_zero_phase_into(&signal, &mut out).unwrap();
            assert_eq!(out, reference);
        }
    }
}
