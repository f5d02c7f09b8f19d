//! Sub-sample interpolation.
//!
//! At 44.1 kHz one sample of TDoA equals 7.78 mm of path difference
//! (Section II-C). HyperEar's Acoustic Signal Preprocessing performs
//! "interpolation ... to achieve sub-sample resolution": the matched-filter
//! peak is refined below the sampling grid before any geometry is computed.
//! Two refiners are provided:
//!
//! - [`parabolic_peak`] — fits a parabola to the three samples around a
//!   local maximum; cheap and accurate for smooth correlation main lobes.
//! - [`sinc_peak`] — golden-section search over a windowed-sinc
//!   reconstruction of the correlation function; slower but unbiased for
//!   narrow lobes.
//!
//! [`Decimation`] is the third kind: it rebuilds full-rate correlation
//! values from the decimated analytic correlation the band-limited
//! matched filter ([`crate::correlate::BandLimitedBank`]) produces, so
//! the refiners above can run at the full rate on a handful of lags.

use crate::{Complex, DspError};
use std::ops::Range;

/// The kept band of a template: every bin whose magnitude is at least
/// this many dB below the spectrum's peak. The dropped bins bound the
/// band-limited correlation's error: at −120 dB a dropped bin carries a
/// millionth of the peak bin's amplitude.
const KEPT_BAND_DB: f64 = 120.0;

/// The largest decimation factor. Every factor is a power of two that
/// divides this, and the band-limited engine's block step is a multiple
/// of it, so the block partition never depends on the factor.
pub(crate) const MAX_DECIMATION: usize = 16;

/// The most of the decimated rate the kept band may occupy. The
/// interpolator's passband must hold the band (`|f| ≤ ρ/2` cycles per
/// decimated sample) and its stopband the band's first image
/// (`|f| ≥ 1 − ρ/2`); with [`INTERP_HALF`] and the Kaiser `β = 12`
/// window that transition keeps the reconstruction error near −120 dB.
const MAX_OCCUPANCY: f64 = 0.66;

/// Taps each side of the rebuild interpolator (`2 · INTERP_HALF` taps).
pub const INTERP_HALF: usize = 12;

/// Kaiser window shape of the rebuild interpolator.
const KAISER_BETA: f64 = 12.0;

/// Refines the position of a local maximum to sub-sample precision by
/// fitting a parabola through `y[peak-1], y[peak], y[peak+1]`.
///
/// Returns the interpolated peak position in (fractional) samples and the
/// interpolated peak value.
///
/// # Errors
///
/// Returns [`DspError::OutOfRange`] if `peak` is on the signal boundary
/// (no neighbours to fit) and [`DspError::EmptyInput`] for an empty signal.
pub fn parabolic_peak(y: &[f64], peak: usize) -> Result<(f64, f64), DspError> {
    if y.is_empty() {
        return Err(DspError::EmptyInput {
            what: "parabolic_peak input",
        });
    }
    if peak == 0 || peak + 1 >= y.len() {
        return Err(DspError::OutOfRange {
            index: peak,
            len: y.len(),
        });
    }
    let (a, b, c) = (y[peak - 1], y[peak], y[peak + 1]);
    let denom = a - 2.0 * b + c;
    if denom.abs() < 1e-300 {
        // Flat triple — no curvature to fit; the integer peak is the answer.
        return Ok((peak as f64, b));
    }
    let delta = 0.5 * (a - c) / denom;
    // A genuine local max keeps |delta| <= 0.5; clamp to be safe against
    // pathological neighbours.
    let delta = delta.clamp(-0.5, 0.5);
    let value = b - 0.25 * (a - c) * delta;
    Ok((peak as f64 + delta, value))
}

/// Evaluates the band-limited (windowed-sinc) reconstruction of `y` at the
/// fractional position `t`, using `half_width` samples on each side.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] if `t` lies outside `[0, len-1]` or
/// `half_width` is zero.
pub(crate) fn sinc_interpolate(y: &[f64], t: f64, half_width: usize) -> Result<f64, DspError> {
    if y.is_empty() {
        return Err(DspError::EmptyInput {
            what: "sinc_interpolate input",
        });
    }
    if half_width == 0 {
        return Err(DspError::invalid("half_width", "must be positive"));
    }
    if !(0.0..=(y.len() - 1) as f64).contains(&t) {
        return Err(DspError::invalid(
            "t",
            format!("position {t} outside signal of length {}", y.len()),
        ));
    }
    let center = t.round() as isize;
    let mut acc = 0.0;
    for k in -(half_width as isize)..=(half_width as isize) {
        let idx = center + k;
        if idx < 0 || idx as usize >= y.len() {
            continue;
        }
        let x = t - idx as f64;
        // Hann taper over the kernel span suppresses truncation ripple.
        let w = 0.5 + 0.5 * (std::f64::consts::PI * x / (half_width as f64 + 1.0)).cos();
        acc += y[idx as usize] * sinc(x) * w;
    }
    Ok(acc)
}

/// Refines a local maximum with a golden-section search over the
/// windowed-sinc reconstruction in `[peak-1, peak+1]`.
///
/// Returns `(position, value)` like [`parabolic_peak`], typically a few
/// times more accurate for sharp matched-filter lobes.
///
/// # Errors
///
/// Same conditions as [`parabolic_peak`].
pub fn sinc_peak(y: &[f64], peak: usize, half_width: usize) -> Result<(f64, f64), DspError> {
    if y.is_empty() {
        return Err(DspError::EmptyInput {
            what: "sinc_peak input",
        });
    }
    if peak == 0 || peak + 1 >= y.len() {
        return Err(DspError::OutOfRange {
            index: peak,
            len: y.len(),
        });
    }
    let f = |t: f64| sinc_interpolate(y, t, half_width).unwrap_or(f64::NEG_INFINITY);
    let (mut lo, mut hi) = ((peak - 1) as f64, (peak + 1) as f64);
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let (mut f1, mut f2) = (f(x1), f(x2));
    for _ in 0..48 {
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = f(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = f(x1);
        }
    }
    let t = 0.5 * (lo + hi);
    Ok((t, f(t)))
}

/// How a band-limited correlation was decimated, and the short fixed
/// interpolator that rebuilds its full-rate values.
///
/// The band-limited matched filter keeps the template's analytic
/// correlation `a(n)` shifted to baseband and sampled every `D`-th lag:
/// `b(q) = a(D·q) · e^{−iω_c·D·q}`, with `ω_c = 2π·center/block_len` and
/// lags counted from stream start. The kept band (every bin within
/// 120 dB of the template spectrum's peak) fills at most 0.66 of the
/// decimated rate, so the
/// full-rate correlation is `r(n) = Re{b(n/D) · e^{iω_c·n}}`, where
/// `b(n/D)` between grid points comes from a `2·INTERP_HALF`-tap
/// Kaiser-windowed sinc, and the envelope is `|b(n/D)|`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decimation {
    factor: usize,
    center: usize,
    block_len: usize,
    band: (usize, usize),
    scalloping: f64,
    /// Interpolator taps for each fractional phase `s/D`, `s` in
    /// `1..D`: row `s − 1` weighs `b(q + j)` for `j` in
    /// `1 − INTERP_HALF..=INTERP_HALF`.
    taps: Vec<f64>,
}

impl Decimation {
    /// Derives the kept band, centre and factor from a template's
    /// magnitude spectrum `mags[k] = |T(k)|`, `k` in `0..=block_len/2`.
    ///
    /// The kept band is the hull of the bins within [`KEPT_BAND_DB`] of
    /// the peak; the factor is the largest power of two up to
    /// [`MAX_DECIMATION`] whose decimated rate holds the band at
    /// [`MAX_OCCUPANCY`].
    pub(crate) fn for_spectrum(mags: &[f64], block_len: usize) -> Result<Self, DspError> {
        let bins = 0..mags.len().min(block_len / 2 + 1);
        let peak = mags[bins.clone()].iter().copied().fold(0.0, f64::max);
        if !peak.is_finite() || peak <= 0.0 {
            return Err(DspError::invalid("template", "template has zero energy"));
        }
        let level = peak * 10f64.powf(-KEPT_BAND_DB / 20.0);
        let kept = |k: &usize| mags[*k] >= level;
        let lo = bins.clone().find(kept).unwrap_or(0);
        let hi = bins.rev().find(kept).unwrap_or(lo);
        let width = (hi - lo + 1) as f64;
        let mut factor = MAX_DECIMATION;
        while factor > 1 && width > MAX_OCCUPANCY * (block_len / factor) as f64 {
            factor /= 2;
        }
        let center = (lo + hi) / 2;
        // Worst grid loss: the template's own envelope half a grid step
        // off its peak, relative to the peak.
        let envelope = |u: f64| {
            let mut acc = Complex::ZERO;
            for (k, &m) in mags.iter().enumerate().take(hi + 1).skip(lo) {
                let phase = 2.0 * std::f64::consts::PI * (k - lo) as f64 * u / block_len as f64;
                acc += Complex::from_angle(phase).scale(m * m);
            }
            acc.abs()
        };
        let scalloping = (envelope(factor as f64 / 2.0) / envelope(0.0)).min(1.0);
        Ok(Decimation {
            factor,
            center,
            block_len,
            band: (lo, hi),
            scalloping,
            taps: interpolator(factor),
        })
    }

    /// The decimation factor `D`: one kept value per `D` lags.
    #[must_use]
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// The kept band's edges in cycles per full-rate sample.
    #[must_use]
    pub fn kept_band(&self) -> (f64, f64) {
        let n = self.block_len as f64;
        (self.band.0 as f64 / n, self.band.1 as f64 / n)
    }

    /// The kept band in bins of the engine's block length, inclusive.
    pub(crate) fn kept_bins(&self) -> (usize, usize) {
        self.band
    }

    /// The baseband centre bin `ω_c · block_len / 2π`.
    pub(crate) fn center(&self) -> usize {
        self.center
    }

    /// The baseband centre `ω_c / 2π` in cycles per full-rate sample.
    #[must_use]
    pub fn carrier(&self) -> f64 {
        self.center as f64 / self.block_len as f64
    }

    /// The template envelope's value half a grid step (`D/2` lags) off
    /// its peak, relative to the peak: the most a beacon's apex can lose
    /// to the decimated grid.
    #[must_use]
    pub fn scalloping_gain(&self) -> f64 {
        self.scalloping
    }

    /// Decimated values covering `samples` full-rate lags.
    #[must_use]
    pub fn decimated_len(&self, samples: usize) -> usize {
        samples.div_ceil(self.factor)
    }

    /// `e^{−iω_c·lag}`: the baseband shift of the block that starts at
    /// full-rate `lag`, from the exact integer phase.
    pub(crate) fn shift(&self, lag: usize) -> Complex {
        Complex::from_angle(-self.phase(lag))
    }

    fn phase(&self, lag: usize) -> f64 {
        let turn = (self.center as u128 * lag as u128 % self.block_len as u128) as f64;
        2.0 * std::f64::consts::PI * turn / self.block_len as f64
    }

    /// `b(lag / D)`: the baseband sequence at a full-rate lag, read off
    /// the grid or interpolated between it (values past either end of
    /// `seq` count as zero).
    fn baseband(&self, seq: &[Complex], lag: usize) -> Complex {
        let (q, s) = (lag / self.factor, lag % self.factor);
        if s == 0 {
            return seq.get(q).copied().unwrap_or(Complex::ZERO);
        }
        let row = &self.taps[(s - 1) * 2 * INTERP_HALF..s * 2 * INTERP_HALF];
        let first = q as isize + 1 - INTERP_HALF as isize;
        let mut acc = Complex::ZERO;
        for (j, &h) in row.iter().enumerate() {
            let at = first + j as isize;
            if let Some(&z) = usize::try_from(at).ok().and_then(|i| seq.get(i)) {
                acc += z.scale(h);
            }
        }
        acc
    }

    /// Rebuilds the full-rate correlation `r(n) = Re{b(n/D)·e^{iω_c·n}}`
    /// — or, with `envelope`, the envelope `|b(n/D)|` — at every lag in
    /// `lags`, into `out` (cleared and refilled).
    pub fn rebuild_into(
        &self,
        seq: &[Complex],
        lags: Range<usize>,
        envelope: bool,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(lags.map(|n| {
            let b = self.baseband(seq, n);
            if envelope {
                b.norm_sqr().sqrt()
            } else {
                (b * Complex::from_angle(self.phase(n))).re
            }
        }));
    }
}

/// Kaiser-windowed sinc taps for every fractional phase of factor `d`.
fn interpolator(d: usize) -> Vec<f64> {
    let half = INTERP_HALF as f64;
    let norm = bessel_i0(KAISER_BETA);
    let mut taps = Vec::with_capacity(d.saturating_sub(1) * 2 * INTERP_HALF);
    for s in 1..d {
        let frac = s as f64 / d as f64;
        for j in 0..2 * INTERP_HALF {
            let x = j as f64 + 1.0 - half - frac;
            let r = x / half;
            let w = bessel_i0(KAISER_BETA * (1.0 - r * r).max(0.0).sqrt()) / norm;
            taps.push(sinc(x) * w);
        }
    }
    taps
}

/// The zeroth-order modified Bessel function of the first kind, by its
/// power series (converges for every argument the window uses).
fn bessel_i0(x: f64) -> f64 {
    let q = x * x / 4.0;
    let (mut term, mut sum) = (1.0, 1.0);
    for k in 1..64 {
        term *= q / (k * k) as f64;
        sum += term;
        if term < sum * 1e-17 {
            break;
        }
    }
    sum
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

    #[test]
    fn parabola_recovers_exact_vertex() {
        // y = -(x - 5.3)^2 + 2 sampled on integers.
        let y: Vec<f64> = (0..12).map(|i| -(i as f64 - 5.3).powi(2) + 2.0).collect();
        let (pos, val) = parabolic_peak(&y, 5).unwrap();
        assert!((pos - 5.3).abs() < 1e-9, "pos {pos}");
        assert!((val - 2.0).abs() < 1e-9, "val {val}");
    }

    #[test]
    fn parabola_vertex_below_half_sample() {
        let y: Vec<f64> = (0..12).map(|i| -(i as f64 - 6.49).powi(2)).collect();
        let (pos, _) = parabolic_peak(&y, 6).unwrap();
        assert!((pos - 6.49).abs() < 1e-9);
    }

    #[test]
    fn parabola_boundary_is_error() {
        let y = vec![1.0, 2.0, 3.0];
        assert!(parabolic_peak(&y, 0).is_err());
        assert!(parabolic_peak(&y, 2).is_err());
        assert!(parabolic_peak(&[], 0).is_err());
    }

    #[test]
    fn parabola_flat_signal_returns_integer_peak() {
        let y = vec![1.0; 5];
        let (pos, val) = parabolic_peak(&y, 2).unwrap();
        assert_eq!(pos, 2.0);
        assert_eq!(val, 1.0);
    }

    #[test]
    fn sinc_interpolation_is_exact_on_samples() {
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.5).sin()).collect();
        for i in 4..28 {
            let v = sinc_interpolate(&y, i as f64, 8).unwrap();
            assert!((v - y[i]).abs() < 1e-6, "at {i}: {v} vs {}", y[i]);
        }
    }

    #[test]
    fn sinc_interpolation_reconstructs_bandlimited_signal() {
        // A 0.1-cycles/sample tone is well below Nyquist; the windowed-sinc
        // reconstruction at half-sample offsets should match the analytic
        // value closely in the signal interior.
        let f = 0.1;
        let y: Vec<f64> = (0..64)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64).sin())
            .collect();
        for i in 16..48 {
            let t = i as f64 + 0.5;
            let v = sinc_interpolate(&y, t, 12).unwrap();
            let truth = (2.0 * std::f64::consts::PI * f * t).sin();
            assert!((v - truth).abs() < 1e-3, "at {t}: {v} vs {truth}");
        }
    }

    #[test]
    fn sinc_peak_refines_better_than_integer() {
        // Sample a band-limited pulse centred off-grid and check that the
        // refined peak is close to the true centre.
        let center = 20.37;
        let y: Vec<f64> = (0..41)
            .map(|i| {
                let x = i as f64 - center;
                sinc(0.9 * x)
            })
            .collect();
        let integer_peak = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let (pos, val) = sinc_peak(&y, integer_peak, 10).unwrap();
        assert!((pos - center).abs() < 0.02, "refined pos {pos}");
        assert!(val <= 1.0 + 1e-6);
        let integer_err = (integer_peak as f64 - center).abs();
        assert!((pos - center).abs() < integer_err);
    }

    #[test]
    fn sinc_peak_boundary_is_error() {
        let y = vec![0.0, 1.0, 0.0];
        assert!(sinc_peak(&y, 0, 4).is_err());
        assert!(sinc_peak(&[], 1, 4).is_err());
    }

    #[test]
    fn sinc_interpolate_domain_checks() {
        let y = vec![1.0, 2.0, 3.0];
        assert!(sinc_interpolate(&y, -0.5, 4).is_err());
        assert!(sinc_interpolate(&y, 2.5, 4).is_err());
        assert!(sinc_interpolate(&y, 1.0, 0).is_err());
        assert!(sinc_interpolate(&[], 0.0, 4).is_err());
    }
}
