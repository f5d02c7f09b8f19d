//! Fast Fourier transform (radix-4, see [`crate::plan::FftPlan`]).
//!
//! The transform is the workhorse behind [`crate::correlate`] (matched
//! filtering of chirp beacons) and [`crate::spectrum`]. Sizes must be powers
//! of two; [`try_next_pow2`] chooses a padded length.
//!
//! The functions here are one-shot conveniences over the process-wide
//! plan registry (see [`crate::plan`]), so repeated calls at one size
//! reuse one set of twiddle tables. Hot paths that transform repeatedly
//! run the planned, allocation-free forms on a caller-held
//! [`crate::plan::DspScratch`] — results are bit-identical either way.
//!
//! # Example
//!
//! ```
//! use hyperear_dsp::fft::{fft, ifft};
//! use hyperear_dsp::Complex;
//!
//! # fn main() -> Result<(), hyperear_dsp::DspError> {
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let original = data.clone();
//! fft(&mut data)?;
//! ifft(&mut data)?;
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

use crate::plan::shared_plan;
use crate::{Complex, DspError};

/// The padded FFT length for `n` (the smallest power of two `>= n`), or
/// [`DspError::InvalidParameter`] when `n` exceeds the largest `usize`
/// power of two (`usize::MAX/2 + 1`), where `next_power_of_two` would
/// panic in debug builds and silently wrap to 0 in release builds.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] on overflow.
///
/// # Example
///
/// ```
/// use hyperear_dsp::fft::try_next_pow2;
/// assert_eq!(try_next_pow2(1000).unwrap(), 1024);
/// assert!(try_next_pow2(usize::MAX).is_err());
/// ```
pub fn try_next_pow2(n: usize) -> Result<usize, DspError> {
    const MAX_POW2: usize = usize::MAX / 2 + 1;
    if n > MAX_POW2 {
        return Err(DspError::invalid(
            "n",
            format!("no usize power of two can hold {n} (max {MAX_POW2})"),
        ));
    }
    Ok(n.max(1).next_power_of_two())
}

/// In-place forward FFT.
///
/// Computes `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` without normalization.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if the length is not a power of
/// two, and [`DspError::EmptyInput`] for an empty slice.
pub fn fft(data: &mut [Complex]) -> Result<(), DspError> {
    shared_plan(data.len())?.fft(data)
}

/// In-place inverse FFT, normalized by `1/N`.
///
/// `ifft(fft(x)) == x` up to floating-point error.
///
/// # Errors
///
/// Same conditions as [`fft`].
pub fn ifft(data: &mut [Complex]) -> Result<(), DspError> {
    shared_plan(data.len())?.ifft(data)
}

/// Forward FFT of a real signal, zero-padded to `padded_len`.
///
/// Returns the full complex spectrum of length `padded_len` (which must be a
/// power of two at least as large as `signal.len()`).
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `padded_len` is smaller than the
/// signal or not a power of two, and [`DspError::EmptyInput`] for an empty
/// signal.
pub fn rfft(signal: &[f64], padded_len: usize) -> Result<Vec<Complex>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput { what: "rfft input" });
    }
    if padded_len < signal.len() {
        return Err(DspError::invalid(
            "padded_len",
            format!(
                "padded length {padded_len} is smaller than the signal ({})",
                signal.len()
            ),
        ));
    }
    let mut buf: Vec<Complex> = Vec::with_capacity(padded_len);
    shared_plan(padded_len)?.rfft_into(signal, &mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 12];
        assert!(matches!(
            fft(&mut data),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        let mut data: Vec<Complex> = Vec::new();
        assert!(matches!(fft(&mut data), Err(DspError::EmptyInput { .. })));
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::from_real(1.0);
        fft(&mut data).unwrap();
        for v in &data {
            assert_close(v.re, 1.0, 1e-12);
            assert_close(v.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let mut data: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                Complex::from_real((2.0 * std::f64::consts::PI * k as f64 * t).cos())
            })
            .collect();
        fft(&mut data).unwrap();
        for (bin, v) in data.iter().enumerate() {
            let expected = if bin == k || bin == n - k {
                n as f64 / 2.0
            } else {
                0.0
            };
            assert_close(v.abs(), expected, 1e-9);
        }
    }

    #[test]
    fn round_trip_recovers_signal() {
        let mut data: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let original = data.clone();
        fft(&mut data).unwrap();
        ifft(&mut data).unwrap();
        for (a, b) in data.iter().zip(&original) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal: Vec<f64> = (0..256).map(|i| ((i * i) as f64 * 0.013).sin()).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = rfft(&signal, 256).unwrap();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / 256.0;
        assert_close(time_energy, freq_energy, 1e-8);
    }

    #[test]
    fn rfft_pads_with_zeros() {
        let signal = vec![1.0, 2.0, 3.0];
        let spec = rfft(&signal, 8).unwrap();
        assert_eq!(spec.len(), 8);
        // DC bin equals the sum of samples.
        assert_close(spec[0].re, 6.0, 1e-12);
    }

    #[test]
    fn rfft_rejects_short_pad() {
        let signal = vec![1.0; 10];
        assert!(rfft(&signal, 8).is_err());
    }

    #[test]
    fn next_pow2_boundaries() {
        assert_eq!(try_next_pow2(0).unwrap(), 1);
        assert_eq!(try_next_pow2(1).unwrap(), 1);
        assert_eq!(try_next_pow2(2).unwrap(), 2);
        assert_eq!(try_next_pow2(3).unwrap(), 4);
        assert_eq!(try_next_pow2(4096).unwrap(), 4096);
        assert_eq!(try_next_pow2(4097).unwrap(), 8192);
    }

    #[test]
    fn try_next_pow2_overflow_boundary() {
        // The largest usize power of two is the last representable
        // target; one past it must fail, not wrap to zero.
        const MAX_POW2: usize = usize::MAX / 2 + 1;
        assert_eq!(try_next_pow2(MAX_POW2).unwrap(), MAX_POW2);
        assert!(matches!(
            try_next_pow2(MAX_POW2 + 1),
            Err(DspError::InvalidParameter { .. })
        ));
        assert!(try_next_pow2(usize::MAX).is_err());
    }

    #[test]
    fn linearity_of_fft() {
        let a: Vec<Complex> = (0..32).map(|i| Complex::new(i as f64, 0.5)).collect();
        let b: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sqrt(), -1.0))
            .collect();
        let mut sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        fft(&mut fa).unwrap();
        fft(&mut fb).unwrap();
        fft(&mut sum).unwrap();
        for i in 0..32 {
            let expect = fa[i] + fb[i];
            assert_close(sum[i].re, expect.re, 1e-9);
            assert_close(sum[i].im, expect.im, 1e-9);
        }
    }
}
