//! Robust TDoA estimator kernels: spectral re-weighting of a matched-filter
//! correlation and cross-channel fusion of redundant correlations.
//!
//! The HyperEar pipeline extracts beacon arrivals from a normalized
//! matched-filter correlation. Under clean line-of-sight conditions the
//! plain correlation is optimal, but indoor NLOS multipath smears the main
//! lobe and in-band interference raises spurious peaks. This module
//! provides three progressively heavier alternatives, all operating on the
//! correlation sequence *between* matched filtering and peak extraction so
//! the rest of the pipeline is untouched:
//!
//! - [`CorrelationSpectrum::gcc_phat_into`] — GCC-PHAT-style spectral
//!   whitening with a configurable magnitude floor. Each half-spectrum
//!   bin is divided by `max(|R(f)|, floor · max|R|)^β` (β = 0.5,
//!   partial whitening), equalizing the band's contribution and
//!   sharpening the correlation main lobe — the classic defence against
//!   multipath-induced lobe smearing. The floor bounds the whitening
//!   gain so near-empty bins cannot amplify noise without limit (plain
//!   PHAT's known low-SNR failure mode), and β < 1 keeps part of the
//!   magnitude spectrum so whitening a periodic beacon train does not
//!   raise phase-only ghost images at multiples of the beacon period.
//! - [`CorrelationSpectrum::subband_coherence_into`] — Wiener-style
//!   per-band weighting inside the beacon band. The band is split into
//!   sub-bands; each sub-band `b` with mean power `S_b` is scaled by
//!   `S_b / (S_b + N)` where `N` is the median sub-band power (a robust
//!   noise reference), and out-of-band bins are zeroed. Bands dominated
//!   by narrowband interference or notched by frequency-selective fading
//!   are attenuated instead of voting on the peak position.
//! - [`mcci_offsets_with`] / [`mcci_fuse_channel_into`] — multiple
//!   cross-correlation identity (MCCI) fusion across redundant channels.
//!   Each channel's correlation images the same beacon train shifted by
//!   that channel's propagation delay, so pairwise lags between the
//!   correlation sequences over-determine a consistent per-channel time
//!   line (least-squares over all pairs). Shift-and-averaging every live
//!   channel onto one channel's time line averages down uncorrelated
//!   noise and dropout while the common beacon structure adds coherently.
//!
//! Both weighting estimators start from the same forward transform, so
//! it is computed once per correlation ([`CorrelationSpectrum::compute`])
//! and kept: each weighting then costs one pass over the bins and one
//! inverse transform, written straight into the caller's output. A
//! session that escalates from PHAT to sub-band coherence pays one
//! forward transform per channel, not one per rung. The detector applies
//! the same two weightings to its decimated analytic correlation through
//! [`AnalyticSpectrum`], whose transforms are `D` times shorter.
//!
//! All spectral weights are real and non-negative, i.e. zero-phase: they
//! reshape lobe widths and relative amplitudes but cannot bias the peak
//! position of an isolated arrival. All kernels are allocation-free once
//! their buffers have grown to the working size, and degrade gracefully
//! (reporting a no-op, so the caller keeps the unweighted correlation)
//! on inputs with no usable spectral mass instead of producing NaNs.

use crate::complex::{axpy, dot_seq};
use crate::fft::try_next_pow2;
use crate::plan::{shared_plan, shared_real_plan, Planes};
use crate::{Complex, DspError};

/// Reusable workspace for the weighting kernels.
///
/// Holds the weighted spectrum planes (the inverse transform consumes
/// its input, so the weights are applied into this copy and the
/// spectrum survives for the next weighting) and the
/// per-band power table. Grows to a high-water mark on first use and is
/// allocation-free afterwards, mirroring [`crate::plan::DspScratch`].
#[derive(Debug, Clone, Default)]
pub struct EstimatorScratch {
    /// Weighted spectrum bins, consumed by the inverse transform.
    pub half: Planes,
    /// Per-sub-band mean power (coherence weighting).
    pub band_power: Vec<f64>,
    /// Sorted copy of `band_power` for the median noise reference.
    pub band_sort: Vec<f64>,
}

impl EstimatorScratch {
    /// Total heap capacity currently held, in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.half.capacity_bytes()
            + (self.band_power.capacity() + self.band_sort.capacity()) * std::mem::size_of::<f64>()
    }
}

/// The forward half-spectrum of one correlation sequence: the shared
/// first half of both weighting estimators.
///
/// [`CorrelationSpectrum::compute`] runs the real FFT once (length: the
/// next power of two above the correlation length, on the shared
/// process-wide plan); every weighting afterwards reads the bins without
/// modifying them, so any number of weightings can be applied to one
/// spectrum. An empty spectrum (new, or after
/// [`CorrelationSpectrum::clear`]) holds nothing to weight.
#[derive(Debug, Clone, Default)]
pub struct CorrelationSpectrum {
    bins: Planes,
    /// Length of the correlation the bins came from; 0 when empty.
    corr_len: usize,
    fft_len: usize,
}

impl CorrelationSpectrum {
    /// Replaces the spectrum with the forward transform of `corr`. On
    /// error the spectrum is left empty.
    ///
    /// # Errors
    ///
    /// [`DspError::EmptyInput`] when `corr` is empty.
    pub fn compute(&mut self, corr: &[f64]) -> Result<(), DspError> {
        self.bins.clear();
        self.corr_len = 0;
        if corr.is_empty() {
            return Err(DspError::EmptyInput {
                what: "correlation spectrum",
            });
        }
        let m = try_next_pow2(corr.len())?;
        shared_real_plan(m)?.rfft_half_into(corr, &mut self.bins)?;
        self.corr_len = corr.len();
        self.fft_len = m;
        Ok(())
    }

    /// Writes the correlation whitened with a floored PHAT-β weight into
    /// `out` (cleared and refilled to the correlation's length).
    ///
    /// Each half-spectrum bin is divided by
    /// `max(|R(f)|, floor · max_f|R(f)|)^β` (β = 0.5), then the
    /// sequence is inverse-transformed back to the lag domain. The
    /// weight is computed from the bin power `|R(f)|²`
    /// (`max(|R|², eps²)^(−1/4)`), so no bin pays for an
    /// overflow-safe magnitude; a spectrum whose power is not finite is
    /// treated as unusable.
    ///
    /// Returns `false`, leaving `out` untouched, when the spectrum has no
    /// usable mass (all zeros, or non-finite): whitening has nothing to
    /// normalize and the division floor would otherwise manufacture
    /// NaNs, so the caller keeps the unweighted correlation.
    ///
    /// # Errors
    ///
    /// - [`DspError::EmptyInput`] when the spectrum is empty.
    /// - [`DspError::InvalidParameter`] when `floor` is not in `(0, 1)`.
    pub fn gcc_phat_into(
        &self,
        floor: f64,
        scratch: &mut EstimatorScratch,
        out: &mut Vec<f64>,
    ) -> Result<bool, DspError> {
        self.check_computed("gcc_phat spectrum")?;
        if !phat_weighted(&self.bins, floor, 1.0, &mut scratch.half)? {
            return Ok(false);
        }
        self.inverse_into(scratch, out)?;
        Ok(true)
    }

    /// Writes the correlation re-weighted by per-sub-band coherence into
    /// `out` (cleared and refilled to the correlation's length).
    ///
    /// The half-spectrum bins covering `band_lo..band_hi` Hz are split
    /// into `bands` equal sub-bands. Each sub-band with mean power `S_b`
    /// is scaled by the Wiener-style coherence weight `S_b / (S_b + N)`,
    /// where `N` is the median sub-band power (minimum when fewer than
    /// three sub-bands exist, so a single-band request degenerates to a
    /// pure band-pass). Bins outside the band are zeroed.
    ///
    /// Returns `false`, leaving `out` untouched, when the spectrum has no
    /// in-band mass (or the transform is too short to resolve the band):
    /// the caller keeps the unweighted correlation.
    ///
    /// # Errors
    ///
    /// - [`DspError::EmptyInput`] when the spectrum is empty.
    /// - [`DspError::InvalidParameter`] when the band edges are not
    ///   `0 < band_lo < band_hi <= sample_rate / 2` or `bands == 0`.
    pub fn subband_coherence_into(
        &self,
        sample_rate: f64,
        band_lo: f64,
        band_hi: f64,
        bands: usize,
        scratch: &mut EstimatorScratch,
        out: &mut Vec<f64>,
    ) -> Result<bool, DspError> {
        self.check_computed("subband_coherence spectrum")?;
        check_rate(sample_rate)?;
        if !(band_lo > 0.0 && band_lo < band_hi && band_hi <= sample_rate / 2.0) {
            return Err(DspError::invalid(
                "band",
                format!("need 0 < lo < hi <= fs/2, got {band_lo}..{band_hi} at fs {sample_rate}"),
            ));
        }
        let bin_hz = sample_rate / self.fft_len as f64;
        let k_lo = (band_lo / bin_hz).ceil() as isize;
        let k_hi = ((band_hi / bin_hz).floor() as isize).min(self.bins.len() as isize - 1);
        if !subband_weighted(
            &self.bins,
            |k| k as usize,
            (k_lo, k_hi),
            bands,
            1.0,
            scratch,
        )? {
            return Ok(false);
        }
        self.inverse_into(scratch, out)?;
        Ok(true)
    }

    fn check_computed(&self, what: &'static str) -> Result<(), DspError> {
        if self.corr_len == 0 {
            return Err(DspError::EmptyInput { what });
        }
        Ok(())
    }

    /// Inverse-transforms the weighted bins in `scratch.half` into `out`,
    /// trimmed to the source correlation's length.
    fn inverse_into(
        &self,
        scratch: &mut EstimatorScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        shared_real_plan(self.fft_len)?.irfft_half_into(&mut scratch.half, out)?;
        out.truncate(self.corr_len);
        Ok(())
    }
}

fn check_rate(sample_rate: f64) -> Result<(), DspError> {
    if sample_rate.is_nan() || sample_rate <= 0.0 {
        return Err(DspError::invalid(
            "sample_rate",
            format!("must be positive, got {sample_rate}"),
        ));
    }
    Ok(())
}

/// Writes `bins` whitened by the floored PHAT-β weight (and multiplied
/// by `scale`) into `half`. Returns `false`, writing nothing, when the
/// spectrum has no usable mass (all zeros, or non-finite).
fn phat_weighted(
    bins: &Planes,
    floor: f64,
    scale: f64,
    half: &mut Planes,
) -> Result<bool, DspError> {
    if !floor.is_finite() || floor <= 0.0 || floor >= 1.0 {
        return Err(DspError::invalid(
            "floor",
            format!("PHAT whitening floor must be in (0, 1), got {floor}"),
        ));
    }
    // Largest bin power; a NaN anywhere makes the maximum NaN.
    let max_power = bins.re.iter().zip(&bins.im).fold(0.0f64, |m, (r, i)| {
        let p = r * r + i * i;
        if p > m || p.is_nan() {
            p
        } else {
            m
        }
    });
    if max_power <= 0.0 || !max_power.is_finite() {
        return Ok(false);
    }
    let eps = floor * max_power.sqrt();
    let eps_sq = eps * eps;
    half.re.resize(bins.len(), 0.0);
    half.im.resize(bins.len(), 0.0);
    // β = 0.5: divide by the floored magnitude's square root,
    // i.e. by the fourth root of the floored power.
    let weighted = half.re.iter_mut().zip(half.im.iter_mut());
    for ((hr, hi), (&r, &i)) in weighted.zip(bins.re.iter().zip(&bins.im)) {
        let w = scale / (r * r + i * i).max(eps_sq).sqrt().sqrt();
        *hr = r * w;
        *hi = i * w;
    }
    Ok(true)
}

/// Writes `bins` re-weighted by per-sub-band coherence (and multiplied
/// by `scale`) into `scratch.half`: the band is the bin range
/// `k_lo..=k_hi` (signed, so an analytic spectrum's band may straddle
/// DC), `at(k)` is the position of bin `k` in `bins`, and every other
/// position is zeroed. Returns `false`, writing nothing, when the band
/// is empty or holds no spectral mass.
fn subband_weighted(
    bins: &Planes,
    at: impl Fn(isize) -> usize,
    (k_lo, k_hi): (isize, isize),
    bands: usize,
    scale: f64,
    scratch: &mut EstimatorScratch,
) -> Result<bool, DspError> {
    if bands == 0 {
        return Err(DspError::invalid("bands", "need at least one sub-band"));
    }
    if k_lo > k_hi {
        // The transform is too short to resolve the band: no-op.
        return Ok(false);
    }
    let span = (k_hi - k_lo + 1) as usize;
    let b_count = bands.min(span);
    // Band `b` is the bins `edge(b)..edge(b + 1)`: the offsets `j = k −
    // k_lo` with `⌊j·b_count/span⌋ = b`, equal widths up to rounding.
    // Each band's power sums its bins in increasing `k`.
    let edge = |b: usize| k_lo + (b * span).div_ceil(b_count) as isize;
    scratch.band_power.clear();
    scratch.band_power.extend((0..b_count).map(|b| {
        let (lo, hi) = (edge(b), edge(b + 1));
        let power = (lo..hi).fold(0.0, |sum, k| sum + bins.at(at(k)).norm_sqr());
        power / (hi - lo) as f64
    }));
    let total: f64 = scratch.band_power.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        // No in-band spectral mass: graceful no-op.
        return Ok(false);
    }
    scratch.band_sort.clear();
    scratch.band_sort.extend_from_slice(&scratch.band_power);
    scratch.band_sort.sort_unstable_by(f64::total_cmp);
    let noise = if b_count >= 3 {
        scratch.band_sort[b_count / 2]
    } else {
        scratch.band_sort[0]
    };
    let EstimatorScratch {
        half, band_power, ..
    } = scratch;
    half.zeroed(bins.len());
    for (b, &s) in band_power.iter().enumerate() {
        let w = if s + noise > 0.0 {
            s / (s + noise)
        } else {
            0.0
        };
        let gain = w * scale;
        for k in edge(b)..edge(b + 1) {
            let i = at(k);
            half.set(i, bins.at(i).scale(gain));
        }
    }
    Ok(true)
}

/// The position of baseband bin `k` (negative below DC) in an `m`-point
/// analytic spectrum held in bit-reversed order (`m` a power of two).
fn analytic_position(k: isize, m: usize) -> usize {
    let k = k as usize & (m - 1);
    let bits = m.trailing_zeros();
    if bits == 0 {
        k
    } else {
        k.reverse_bits() >> (usize::BITS - bits)
    }
}

/// The forward spectrum of one decimated analytic correlation (see
/// [`crate::correlate::BandLimitedBank`]): the two weighting estimators
/// of [`CorrelationSpectrum`] applied to a complex baseband sequence.
///
/// The band-limited detector whitens and sub-band-weights this short
/// complex sequence instead of transforming the full-rate real
/// correlation: the transform is `D` times shorter at the same frequency
/// resolution. Weights are real and non-negative, so the weighted
/// sequence keeps the baseband form and the decimation's rebuild applies
/// to it unchanged. The spectrum is held as split planes in the
/// transform's bit-reversed order (weights are per bin, so no
/// permutation pass is needed).
#[derive(Debug, Clone, Default)]
pub struct AnalyticSpectrum {
    bins: Planes,
    /// Length of the sequence the bins came from; 0 when empty.
    seq_len: usize,
}

impl AnalyticSpectrum {
    /// Replaces the spectrum with the forward transform of `seq`
    /// zero-padded to the next power of two. On error the spectrum is
    /// left empty.
    ///
    /// # Errors
    ///
    /// [`DspError::EmptyInput`] when `seq` is empty.
    pub fn compute(&mut self, seq: &[Complex]) -> Result<(), DspError> {
        self.clear();
        if seq.is_empty() {
            return Err(DspError::EmptyInput {
                what: "analytic spectrum",
            });
        }
        let m = try_next_pow2(seq.len())?;
        let plan = shared_plan(m)?;
        let Planes { re, im } = &mut self.bins;
        re.extend(seq.iter().map(|z| z.re));
        im.extend(seq.iter().map(|z| z.im));
        re.resize(m, 0.0);
        im.resize(m, 0.0);
        plan.dif(re, im);
        self.seq_len = seq.len();
        Ok(())
    }

    /// Grows the bin buffer so that computing the spectrum of any
    /// sequence of up to `len` values does not allocate (capacity
    /// already there is kept).
    ///
    /// # Errors
    ///
    /// [`DspError::InvalidParameter`] when `len`'s transform length
    /// overflows.
    pub fn reserve(&mut self, len: usize) -> Result<(), DspError> {
        let m = try_next_pow2(len)?;
        for plane in [&mut self.bins.re, &mut self.bins.im] {
            plane.reserve_exact(m.saturating_sub(plane.len()));
        }
        Ok(())
    }

    /// Forgets the spectrum, keeping the bin buffer's capacity.
    pub fn clear(&mut self) {
        self.bins.clear();
        self.seq_len = 0;
    }

    /// Whether no spectrum has been computed since construction or the
    /// last [`AnalyticSpectrum::clear`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seq_len == 0
    }

    /// Heap capacity held by the bin planes, in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.bins.capacity_bytes()
    }

    /// [`CorrelationSpectrum::gcc_phat_into`] on the analytic sequence:
    /// writes the whitened sequence into `out` (cleared and refilled to
    /// the sequence's length), or returns `false`, leaving `out`
    /// untouched, when the spectrum has no usable mass.
    ///
    /// # Errors
    ///
    /// - [`DspError::EmptyInput`] when the spectrum is empty.
    /// - [`DspError::InvalidParameter`] when `floor` is not in `(0, 1)`.
    pub fn gcc_phat_into(
        &self,
        floor: f64,
        scratch: &mut EstimatorScratch,
        out: &mut Vec<Complex>,
    ) -> Result<bool, DspError> {
        self.check_computed("gcc_phat spectrum")?;
        let scale = 1.0 / self.bins.len() as f64;
        if !phat_weighted(&self.bins, floor, scale, &mut scratch.half)? {
            return Ok(false);
        }
        self.inverse_into(scratch, out)?;
        Ok(true)
    }

    /// [`CorrelationSpectrum::subband_coherence_into`] on the analytic
    /// sequence. The sequence is sampled at `sample_rate` and the band
    /// `band_lo..band_hi` is given in its own (baseband) frequencies, so
    /// either edge may be negative; bins outside it are zeroed. Writes
    /// the weighted sequence into `out` (cleared and refilled to the
    /// sequence's length), or returns `false`, leaving `out` untouched,
    /// when the band holds no mass or no bin.
    ///
    /// # Errors
    ///
    /// - [`DspError::EmptyInput`] when the spectrum is empty.
    /// - [`DspError::InvalidParameter`] when the band edges are not
    ///   `−sample_rate/2 <= band_lo < band_hi <= sample_rate/2` or
    ///   `bands == 0`.
    pub fn subband_coherence_into(
        &self,
        sample_rate: f64,
        band_lo: f64,
        band_hi: f64,
        bands: usize,
        scratch: &mut EstimatorScratch,
        out: &mut Vec<Complex>,
    ) -> Result<bool, DspError> {
        self.check_computed("subband_coherence spectrum")?;
        check_rate(sample_rate)?;
        let nyquist = sample_rate / 2.0;
        if !(band_lo >= -nyquist && band_lo < band_hi && band_hi <= nyquist) {
            return Err(DspError::invalid(
                "band",
                format!(
                    "need -fs/2 <= lo < hi <= fs/2, got {band_lo}..{band_hi} at fs {sample_rate}"
                ),
            ));
        }
        let m = self.bins.len();
        let half = (m / 2) as isize;
        let bin_hz = sample_rate / m as f64;
        let k_lo = ((band_lo / bin_hz).ceil() as isize).max(-half);
        let k_hi = ((band_hi / bin_hz).floor() as isize).min(half - 1);
        let at = |k: isize| analytic_position(k, m);
        let scale = 1.0 / m as f64;
        if !subband_weighted(&self.bins, at, (k_lo, k_hi), bands, scale, scratch)? {
            return Ok(false);
        }
        self.inverse_into(scratch, out)?;
        Ok(true)
    }

    fn check_computed(&self, what: &'static str) -> Result<(), DspError> {
        if self.is_empty() {
            return Err(DspError::EmptyInput { what });
        }
        Ok(())
    }

    /// Inverse-transforms the weighted bit-reversed bins in
    /// `scratch.half` (the `1/m` already folded into the weights) into
    /// `out`, trimmed to the source sequence's length.
    fn inverse_into(
        &self,
        scratch: &mut EstimatorScratch,
        out: &mut Vec<Complex>,
    ) -> Result<(), DspError> {
        let Planes { re, im } = &mut scratch.half;
        shared_plan(self.bins.len())?.dit(re, im);
        out.clear();
        out.extend(
            re[..self.seq_len]
                .iter()
                .zip(&im[..self.seq_len])
                .map(|(&r, &i)| Complex::new(r, i)),
        );
        Ok(())
    }
}

/// Estimates least-squares-consistent per-channel alignment offsets from
/// pairwise lags between correlation sequences (the MCCI identity step).
///
/// For every live pair `(i, j)` the lag maximizing
/// `Σ_t corr_i[t] · corr_j[t + d]` over `d ∈ [−max_lag, max_lag]` measures
/// `τ_j − τ_i`. The over-determined pairwise system is solved in closed
/// form (`offset_i = −Σ_j l_ij / K`, the zero-mean least-squares
/// solution), so inconsistent pair measurements are averaged rather than
/// propagated. A channel whose correlation carries no energy is marked
/// dead (`live[k] = false`, offset 0) and excluded from the solve.
///
/// Returns the number of live channels. Fewer than two live channels
/// means no fusion is possible; callers should fall back to the plain
/// per-channel correlations.
///
/// # Errors
///
/// - [`DspError::EmptyInput`] when `corrs` is empty or a channel is empty.
/// - [`DspError::LengthMismatch`] when channels differ in length.
/// - [`DspError::InvalidParameter`] when `max_lag` is zero or not below
///   the channel length.
pub fn mcci_offsets_with(
    corrs: &[&[f64]],
    max_lag: usize,
    offsets: &mut Vec<f64>,
    live: &mut Vec<bool>,
) -> Result<usize, DspError> {
    if corrs.is_empty() {
        return Err(DspError::EmptyInput {
            what: "mcci channels",
        });
    }
    let n = corrs[0].len();
    if n == 0 {
        return Err(DspError::EmptyInput {
            what: "mcci correlation",
        });
    }
    for c in corrs {
        if c.len() != n {
            return Err(DspError::LengthMismatch {
                left: n,
                right: c.len(),
                what: "mcci channel correlations",
            });
        }
    }
    if max_lag == 0 || max_lag >= n {
        return Err(DspError::invalid(
            "max_lag",
            format!("must be in 1..{n} for correlations of length {n}, got {max_lag}"),
        ));
    }
    let k_ch = corrs.len();
    live.clear();
    live.extend(corrs.iter().map(|c| c.iter().any(|&v| v != 0.0)));
    offsets.clear();
    offsets.resize(k_ch, 0.0);
    let n_live = live.iter().filter(|&&l| l).count();
    if n_live < 2 {
        return Ok(n_live);
    }
    for i in 0..k_ch {
        if !live[i] {
            continue;
        }
        for j in (i + 1)..k_ch {
            if !live[j] {
                continue;
            }
            let l_ij = best_pair_lag(corrs[i], corrs[j], max_lag);
            // l_ij ≈ τ_j − τ_i; accumulate the zero-mean LS solution.
            offsets[i] -= l_ij;
            offsets[j] += l_ij;
        }
    }
    for (o, &is_live) in offsets.iter_mut().zip(live.iter()) {
        if is_live {
            *o /= n_live as f64;
        }
    }
    Ok(n_live)
}

/// The integer lag in `[−max_lag, max_lag]` maximizing
/// `Σ_t a[t] · b[t + d]` (ties break toward the smaller |d|, then the
/// negative side, deterministically).
fn best_pair_lag(a: &[f64], b: &[f64], max_lag: usize) -> f64 {
    let n = a.len();
    let l = max_lag as isize;
    let mut best = f64::NEG_INFINITY;
    let mut best_d = 0isize;
    let mut d = 0isize;
    // Visit lags by increasing |d| so ties keep the smallest shift.
    let mut step = 0isize;
    loop {
        let (lo, hi) = if d >= 0 {
            (0usize, n - d as usize)
        } else {
            ((-d) as usize, n)
        };
        // Sequential MAC through the shared kernel: the accumulation
        // order is part of the MCCI conformance pins, so this lag sum
        // must not be reassociated (see `dot_seq`).
        let acc = dot_seq(
            &a[lo..hi],
            &b[(lo as isize + d) as usize..(hi as isize + d) as usize],
        );
        if acc > best {
            best = acc;
            best_d = d;
        }
        step += 1;
        let mag = step / 2 + step % 2;
        if mag > l {
            break;
        }
        d = if step % 2 == 1 { -mag } else { mag };
    }
    best_d as f64
}

/// Shift-and-averages every live channel's correlation onto `channel`'s
/// time line using the offsets from [`mcci_offsets_with`], writing the
/// fused sequence into `out` (cleared and refilled; capacity reused).
///
/// Channel `j` is read at `t + round(offset_j − offset_channel)`; samples
/// shifted past either end contribute zero. The fused sequence is the
/// mean over live channels, so its amplitude scale matches the inputs.
///
/// # Errors
///
/// - [`DspError::EmptyInput`] when `corrs` is empty.
/// - [`DspError::LengthMismatch`] when `offsets`/`live` do not match the
///   channel count or channels differ in length.
/// - [`DspError::OutOfRange`] when `channel` is not a valid index.
pub fn mcci_fuse_channel_into(
    corrs: &[&[f64]],
    offsets: &[f64],
    live: &[bool],
    channel: usize,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    if corrs.is_empty() {
        return Err(DspError::EmptyInput {
            what: "mcci channels",
        });
    }
    if offsets.len() != corrs.len() || live.len() != corrs.len() {
        return Err(DspError::LengthMismatch {
            left: corrs.len(),
            right: offsets.len().min(live.len()),
            what: "mcci offsets/live tables",
        });
    }
    if channel >= corrs.len() {
        return Err(DspError::OutOfRange {
            index: channel,
            len: corrs.len(),
        });
    }
    let n = corrs[0].len();
    for c in corrs {
        if c.len() != n {
            return Err(DspError::LengthMismatch {
                left: n,
                right: c.len(),
                what: "mcci channel correlations",
            });
        }
    }
    out.clear();
    out.resize(n, 0.0);
    let n_live = live.iter().filter(|&&l| l).count().max(1);
    let scale = 1.0 / n_live as f64;
    for (j, c) in corrs.iter().enumerate() {
        if !live[j] {
            continue;
        }
        let d = (offsets[j] - offsets[channel]).round() as isize;
        let (t_lo, t_hi) = if d >= 0 {
            (0usize, n.saturating_sub(d as usize))
        } else {
            ((-d) as usize, n)
        };
        if t_lo < t_hi {
            // Elementwise shift-and-accumulate through the shared axpy
            // kernel (bit-identical to the per-sample loop).
            axpy(
                &mut out[t_lo..t_hi],
                scale,
                &c[(t_lo as isize + d) as usize..(t_hi as isize + d) as usize],
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::Chirp;
    use crate::correlate::StreamingMatchedFilter;
    use crate::plan::DspScratch;

    fn beacon_corr(positions: &[f64], n: usize, noise_seed: u64) -> Vec<f64> {
        let chirp = Chirp::new(
            2_000.0,
            6_400.0,
            0.04,
            44_100.0,
            crate::chirp::ChirpShape::UpDown,
        )
        .expect("chirp");
        let mut signal = vec![0.0f64; n];
        for &p in positions {
            crate::delay::mix_delayed_local(&mut signal, chirp.samples(), p, 1.0, 16).expect("mix");
        }
        // Small deterministic noise so spectra are never exactly zero.
        let mut state = noise_seed | 1;
        for s in &mut signal {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s += ((state >> 33) as f64 / (1u64 << 31) as f64 - 1.0) * 1e-3;
        }
        let filter = StreamingMatchedFilter::new(chirp.samples()).expect("filter");
        let mut scratch = DspScratch::new();
        let mut corr = Vec::new();
        filter
            .correlate_normalized_into(&signal, &mut scratch, &mut corr)
            .expect("correlate");
        corr
    }

    fn argmax(v: &[f64]) -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty")
            .0
    }

    /// One weighting applied to a fresh spectrum of `corr`; a no-op
    /// returns the correlation unchanged, as the detector uses it.
    fn weighted(
        corr: &[f64],
        weigh: impl FnOnce(
            &CorrelationSpectrum,
            &mut EstimatorScratch,
            &mut Vec<f64>,
        ) -> Result<bool, DspError>,
    ) -> Result<Vec<f64>, DspError> {
        let mut spectrum = CorrelationSpectrum::default();
        spectrum.compute(corr)?;
        let mut out = Vec::new();
        let applied = weigh(&spectrum, &mut EstimatorScratch::default(), &mut out)?;
        Ok(if applied { out } else { corr.to_vec() })
    }

    fn phat(corr: &[f64], floor: f64) -> Result<Vec<f64>, DspError> {
        weighted(corr, |s, scratch, out| s.gcc_phat_into(floor, scratch, out))
    }

    fn coherence(corr: &[f64], bands: usize) -> Result<Vec<f64>, DspError> {
        weighted(corr, |s, scratch, out| {
            s.subband_coherence_into(44_100.0, 1_800.0, 7_040.0, bands, scratch, out)
        })
    }

    #[test]
    fn phat_preserves_peak_position() {
        let corr = beacon_corr(&[5_000.0], 16_384, 7);
        let before = argmax(&corr);
        let corr = phat(&corr, 0.15).expect("phat");
        assert_eq!(corr.len(), 16_384);
        let after = argmax(&corr);
        assert!(
            (before as isize - after as isize).abs() <= 1,
            "peak moved {before} -> {after}"
        );
        assert!(corr.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn phat_all_zero_is_graceful_noop() {
        let mut spectrum = CorrelationSpectrum::default();
        spectrum.compute(&[0.0f64; 4_096]).expect("spectrum");
        let mut out = vec![7.0];
        let applied = spectrum
            .gcc_phat_into(0.15, &mut EstimatorScratch::default(), &mut out)
            .expect("no-op");
        assert!(!applied);
        assert_eq!(out, vec![7.0], "a no-op leaves the output untouched");
    }

    #[test]
    fn phat_rejects_bad_floor_and_empty() {
        let corr = vec![1.0f64; 16];
        assert!(phat(&corr, 0.0).is_err());
        assert!(phat(&corr, 1.0).is_err());
        assert!(phat(&[], 0.15).is_err());
        // Weighting a spectrum that was never computed is typed too.
        let mut out = Vec::new();
        assert!(CorrelationSpectrum::default()
            .gcc_phat_into(0.15, &mut EstimatorScratch::default(), &mut out)
            .is_err());
    }

    #[test]
    fn coherence_preserves_peak_and_handles_single_band() {
        let corr = beacon_corr(&[5_000.0], 16_384, 11);
        let before = argmax(&corr);
        let corr = coherence(&corr, 16).expect("coherence");
        assert!((before as isize - argmax(&corr) as isize).abs() <= 1);
        assert!(corr.iter().all(|v| v.is_finite()));
        // Single-band collapse degenerates to a pure band-pass, no panic.
        let corr = coherence(&beacon_corr(&[5_000.0], 16_384, 13), 1).expect("single band");
        assert!(corr.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn coherence_all_zero_is_graceful_noop() {
        let mut spectrum = CorrelationSpectrum::default();
        spectrum.compute(&[0.0f64; 4_096]).expect("spectrum");
        let mut out = Vec::new();
        let applied = spectrum
            .subband_coherence_into(
                44_100.0,
                1_800.0,
                7_040.0,
                8,
                &mut EstimatorScratch::default(),
                &mut out,
            )
            .expect("no-op");
        assert!(!applied);
        assert!(out.is_empty());
    }

    #[test]
    fn coherence_rejects_bad_band() {
        let corr = vec![1.0f64; 64];
        let with_band = |lo: f64, hi: f64, bands: usize| {
            weighted(&corr, |s, scratch, out| {
                s.subband_coherence_into(44_100.0, lo, hi, bands, scratch, out)
            })
        };
        assert!(with_band(7_040.0, 1_800.0, 8).is_err());
        assert!(with_band(1_800.0, 30_000.0, 8).is_err());
        assert!(with_band(1_800.0, 7_040.0, 0).is_err());
    }

    #[test]
    fn mcci_recovers_interchannel_lag_and_fuses() {
        let a = beacon_corr(&[5_000.0, 12_000.0], 16_384, 17);
        let b = beacon_corr(&[5_012.0, 12_012.0], 16_384, 19);
        let corrs = [a.as_slice(), b.as_slice()];
        let mut offsets = Vec::new();
        let mut live = Vec::new();
        let n_live = mcci_offsets_with(&corrs, 64, &mut offsets, &mut live).expect("offsets");
        assert_eq!(n_live, 2);
        // τ_b − τ_a = 12 samples; the zero-mean LS split is ±6.
        let lag = offsets[1] - offsets[0];
        assert!((lag - 12.0).abs() <= 1.0, "recovered lag {lag}");
        let mut fused = Vec::new();
        mcci_fuse_channel_into(&corrs, &offsets, &live, 0, &mut fused).expect("fuse");
        assert_eq!(fused.len(), a.len());
        // The fused peak stays at channel 0's own beacon position.
        assert!((argmax(&fused) as isize - 5_000).abs() <= 2);
    }

    #[test]
    fn mcci_dead_channel_is_excluded() {
        let a = beacon_corr(&[5_000.0], 16_384, 23);
        let dead = vec![0.0f64; 16_384];
        let corrs = [a.as_slice(), dead.as_slice()];
        let mut offsets = Vec::new();
        let mut live = Vec::new();
        let n_live = mcci_offsets_with(&corrs, 64, &mut offsets, &mut live).expect("offsets");
        assert_eq!(n_live, 1);
        assert_eq!(live, vec![true, false]);
    }

    #[test]
    fn mcci_rejects_mismatched_inputs() {
        let a = vec![1.0f64; 128];
        let b = vec![1.0f64; 64];
        let mut offsets = Vec::new();
        let mut live = Vec::new();
        assert!(
            mcci_offsets_with(&[a.as_slice(), b.as_slice()], 8, &mut offsets, &mut live).is_err()
        );
        assert!(mcci_offsets_with(&[a.as_slice()], 0, &mut offsets, &mut live).is_err());
        assert!(mcci_offsets_with(&[], 8, &mut offsets, &mut live).is_err());
    }

    /// The per-bin weighting formulas the kernels replaced: a band index
    /// per bin by integer division, analytic bins mapped by
    /// `rem_euclid`, the PHAT weights collected by `extend`.
    mod oracle {
        use super::*;

        pub fn analytic_position(k: isize, m: usize) -> usize {
            let bits = m.trailing_zeros();
            let k = k.rem_euclid(m as isize) as usize;
            if bits == 0 {
                k
            } else {
                k.reverse_bits() >> (usize::BITS - bits)
            }
        }

        pub fn subband_weighted(
            bins: &Planes,
            at: impl Fn(isize) -> usize,
            (k_lo, k_hi): (isize, isize),
            bands: usize,
            scale: f64,
            scratch: &mut EstimatorScratch,
        ) -> bool {
            if k_lo > k_hi {
                return false;
            }
            let span = (k_hi - k_lo + 1) as usize;
            let b_count = bands.min(span);
            let band_of = |k: isize| ((k - k_lo) as usize * b_count / span).min(b_count - 1);
            scratch.band_power.clear();
            scratch.band_power.resize(b_count, 0.0);
            for k in k_lo..=k_hi {
                scratch.band_power[band_of(k)] += bins.at(at(k)).norm_sqr();
            }
            for b in 0..b_count {
                let lo = (b * span).div_ceil(b_count);
                let hi = ((b + 1) * span).div_ceil(b_count);
                let width = hi.saturating_sub(lo).max(1);
                scratch.band_power[b] /= width as f64;
            }
            let total: f64 = scratch.band_power.iter().sum();
            if total <= 0.0 || !total.is_finite() {
                return false;
            }
            scratch.band_sort.clear();
            scratch.band_sort.extend_from_slice(&scratch.band_power);
            scratch.band_sort.sort_unstable_by(f64::total_cmp);
            let noise = if b_count >= 3 {
                scratch.band_sort[b_count / 2]
            } else {
                scratch.band_sort[0]
            };
            scratch.half.zeroed(bins.len());
            for k in k_lo..=k_hi {
                let s = scratch.band_power[band_of(k)];
                let w = if s + noise > 0.0 {
                    s / (s + noise)
                } else {
                    0.0
                };
                let i = at(k);
                scratch.half.set(i, bins.at(i).scale(w * scale));
            }
            true
        }

        pub fn phat_weighted(
            bins: &[Complex],
            floor: f64,
            scale: f64,
            half: &mut Vec<Complex>,
        ) -> bool {
            let max_power = bins.iter().fold(0.0f64, |m, z| {
                let p = z.norm_sqr();
                if p > m || p.is_nan() {
                    p
                } else {
                    m
                }
            });
            if max_power <= 0.0 || !max_power.is_finite() {
                return false;
            }
            let eps = floor * max_power.sqrt();
            let eps_sq = eps * eps;
            half.clear();
            half.extend(
                bins.iter()
                    .map(|z| z.scale(scale / z.norm_sqr().max(eps_sq).sqrt().sqrt())),
            );
            true
        }
    }

    fn bits(v: &[Complex]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    fn plane_bits(p: &Planes) -> Vec<(u64, u64)> {
        p.re.iter()
            .zip(&p.im)
            .map(|(r, i)| (r.to_bits(), i.to_bits()))
            .collect()
    }

    #[test]
    fn weighting_kernels_match_per_bin_formulas() {
        use hyperear_util::prop::{self, bool_any, f64_range, usize_range, vec_f64};
        use hyperear_util::prop_assert_eq;
        // A random spectrum of `m = 2^log2m` bins, held as planes, in one
        // of the two layouts: the real half-spectrum (bins `0..=m/2`,
        // natural order) or the bit-reversed analytic spectrum (bins
        // `-m/2..m/2`, so a band may straddle DC). Two draws place the band edges anywhere
        // in the layout's bin range, in either order (reversed edges are
        // the empty-band no-op).
        let strat = (
            (usize_range(0, 11), bool_any()),
            vec_f64(-1.0, 1.0, 2, 2 * 1_024 + 2),
            (usize_range(0, 1 << 20), usize_range(0, 1 << 20)),
            (usize_range(1, 33), f64_range(0.01, 0.99)),
        );
        prop::check(
            "weighting_kernels_match_per_bin_formulas",
            strat,
            |((log2m, analytic), values, (lo, hi), (bands, floor))| {
                let m = 1usize << log2m;
                let len = if *analytic { m } else { m / 2 + 1 };
                let interleaved: Vec<Complex> = (0..len)
                    .map(|i| {
                        let re = values[(2 * i) % values.len()];
                        let im = values[(2 * i + 1) % values.len()];
                        Complex::new(re * (1.0 + i as f64), im)
                    })
                    .collect();
                let bins = Planes {
                    re: interleaved.iter().map(|z| z.re).collect(),
                    im: interleaved.iter().map(|z| z.im).collect(),
                };
                let (first, count) = if *analytic {
                    (-((m / 2) as isize), m)
                } else {
                    (0, len)
                };
                let k_lo = first + (lo % count) as isize;
                let k_hi = first + (hi % count) as isize;
                let scale = 1.0 / m as f64;
                let (mut got, mut want) =
                    (EstimatorScratch::default(), EstimatorScratch::default());
                let (got_ok, want_ok) = if *analytic {
                    (
                        subband_weighted(
                            &bins,
                            |k| analytic_position(k, m),
                            (k_lo, k_hi),
                            *bands,
                            scale,
                            &mut got,
                        )
                        .unwrap(),
                        oracle::subband_weighted(
                            &bins,
                            |k| oracle::analytic_position(k, m),
                            (k_lo, k_hi),
                            *bands,
                            scale,
                            &mut want,
                        ),
                    )
                } else {
                    let at = |k: isize| k as usize;
                    (
                        subband_weighted(&bins, at, (k_lo, k_hi), *bands, scale, &mut got).unwrap(),
                        oracle::subband_weighted(&bins, at, (k_lo, k_hi), *bands, scale, &mut want),
                    )
                };
                prop_assert_eq!(got_ok, want_ok);
                if got_ok {
                    let power = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(power(&got.band_power), power(&want.band_power));
                    prop_assert_eq!(plane_bits(&got.half), plane_bits(&want.half));
                }
                for k in first..first + count as isize {
                    if *analytic {
                        prop_assert_eq!(analytic_position(k, m), oracle::analytic_position(k, m));
                    }
                }
                // Stale planes of another length: the kernel resizes them.
                let stale = 3 * (values.len() % 5);
                let mut got = Planes {
                    re: vec![f64::NAN; stale],
                    im: vec![1.0; stale],
                };
                let mut want = Vec::new();
                let got_ok = phat_weighted(&bins, *floor, scale, &mut got).unwrap();
                prop_assert_eq!(
                    got_ok,
                    oracle::phat_weighted(&interleaved, *floor, scale, &mut want)
                );
                if got_ok {
                    prop_assert_eq!(plane_bits(&got), bits(&want));
                }
                prop::pass()
            },
        );
    }

    #[test]
    fn kernels_are_allocation_free_when_warm() {
        // Warm every kernel at the high-water size (a 20,000-lag
        // correlation: 32,768-point transform; 32 sub-bands), then run
        // them again at that size and below it. Warm buffers must keep
        // their exact capacity: growth means a warm call allocated, and
        // shrinkage means the next large call would.
        let big = beacon_corr(&[3_000.0, 15_000.0], 20_000, 29);
        let small = beacon_corr(&[3_000.0], 9_000, 31);
        let mut spectrum = CorrelationSpectrum::default();
        let mut scratch = EstimatorScratch::default();
        let mut out = Vec::new();
        let mut run_all = |corr: &[f64], bands: usize| {
            spectrum.compute(corr).expect("spectrum");
            assert!(spectrum
                .gcc_phat_into(0.15, &mut scratch, &mut out)
                .expect("phat"));
            assert!(spectrum
                .subband_coherence_into(44_100.0, 1_800.0, 7_040.0, bands, &mut scratch, &mut out)
                .expect("coherence"));
            assert_eq!(out.len(), corr.len());
            (
                spectrum.bins.capacity_bytes(),
                scratch.half.capacity_bytes(),
                scratch.band_power.capacity(),
                scratch.band_sort.capacity(),
                out.capacity(),
            )
        };
        let warm = run_all(&big, 32);
        assert_eq!(run_all(&big, 32), warm, "warm call at the high-water size");
        assert_eq!(
            run_all(&small, 16),
            warm,
            "warm call below the high-water size"
        );
        assert_eq!(run_all(&big, 32), warm, "high-water size again");
    }
}
