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
//! - [`gcc_phat_with`] — GCC-PHAT-style spectral whitening with a
//!   configurable magnitude floor. Each half-spectrum bin is divided by
//!   `max(|R(f)|, floor · max|R|)^β` (β = [`PHAT_BETA`], partial
//!   whitening), equalizing the band's contribution and sharpening the
//!   correlation main lobe — the classic defence against
//!   multipath-induced lobe smearing. The floor bounds the whitening gain
//!   so near-empty bins cannot amplify noise without limit (plain PHAT's
//!   known low-SNR failure mode), and β < 1 keeps part of the magnitude
//!   spectrum so whitening a periodic beacon train does not raise
//!   phase-only ghost images at multiples of the beacon period.
//! - [`subband_coherence_with`] — Wiener-style per-band weighting inside
//!   the beacon band. The band is split into sub-bands; each sub-band `b`
//!   with mean power `S_b` is scaled by `S_b / (S_b + N)` where `N` is the
//!   median sub-band power (a robust noise reference), and out-of-band
//!   bins are zeroed. Bands dominated by narrowband interference or
//!   notched by frequency-selective fading are attenuated instead of
//!   voting on the peak position.
//! - [`mcci_offsets_with`] / [`mcci_fuse_channel_into`] — multiple
//!   cross-correlation identity (MCCI) fusion across redundant channels.
//!   Each channel's correlation images the same beacon train shifted by
//!   that channel's propagation delay, so pairwise lags between the
//!   correlation sequences over-determine a consistent per-channel time
//!   line (least-squares over all pairs). Shift-and-averaging every live
//!   channel onto one channel's time line averages down uncorrelated
//!   noise and dropout while the common beacon structure adds coherently.
//!
//! All spectral weights are real and non-negative, i.e. zero-phase: they
//! reshape lobe widths and relative amplitudes but cannot bias the peak
//! position of an isolated arrival. All kernels are allocation-free once
//! their [`EstimatorScratch`] has grown to the working size, and degrade
//! gracefully (a no-op leaving the correlation unchanged) on inputs with
//! no usable spectral mass instead of producing NaNs.

use crate::complex::{axpy, dot_seq};
use crate::fft::try_next_pow2;
use crate::plan::shared_real_plan;
use crate::{Complex, DspError};

/// Reusable workspace for the estimator kernels.
///
/// Holds the half-spectrum buffer, the inverse-transform output, and the
/// per-band power table. Grows to a high-water mark on first use and is
/// allocation-free afterwards, mirroring [`crate::plan::DspScratch`].
#[derive(Debug, Clone, Default)]
pub struct EstimatorScratch {
    /// Half-spectrum bins of the forward real FFT.
    pub half: Vec<Complex>,
    /// Real output of the inverse transform.
    pub real: Vec<f64>,
    /// Per-sub-band mean power (coherence weighting).
    pub band_power: Vec<f64>,
    /// Sorted copy of `band_power` for the median noise reference.
    pub band_sort: Vec<f64>,
}

impl EstimatorScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap capacity currently held, in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.half.capacity() * std::mem::size_of::<Complex>()
            + (self.real.capacity() + self.band_power.capacity() + self.band_sort.capacity())
                * std::mem::size_of::<f64>()
    }
}

/// Partial-whitening exponent for [`gcc_phat_with`] (PHAT-β).
///
/// Full phase-only whitening (β = 1) of a *periodic* beacon train
/// manufactures ghost images one beacon period before/after the real
/// arrivals — the phase-only spectrum of a pulse train is a comb, and its
/// inverse transform rings at the comb period at ≈ 0.36 of the main-peak
/// amplitude, enough to clear the detector's relative threshold on clean
/// input. β = 0.5 keeps the square root of the magnitude spectrum, which
/// damps the images below 0.21 of the main peak while retaining most of
/// the lobe sharpening that makes PHAT robust under multipath.
pub const PHAT_BETA: f64 = 0.5;

/// Whitens a correlation sequence in place with a floored PHAT-β weight.
///
/// Each half-spectrum bin is divided by
/// `max(|R(f)|, floor · max_f|R(f)|)^β` (β = [`PHAT_BETA`]), then the
/// sequence is inverse-transformed back to the lag domain. The transform
/// length is the next power of two above `corr.len()` (shared
/// process-wide plan, so warm calls do not allocate).
///
/// A correlation with no spectral mass at all (all zeros) is left
/// unchanged — whitening has nothing to normalize and the division floor
/// would otherwise manufacture NaNs.
///
/// # Errors
///
/// - [`DspError::EmptyInput`] when `corr` is empty.
/// - [`DspError::InvalidParameter`] when `floor` is not in `(0, 1)`.
pub fn gcc_phat_with(
    corr: &mut Vec<f64>,
    floor: f64,
    scratch: &mut EstimatorScratch,
) -> Result<(), DspError> {
    if corr.is_empty() {
        return Err(DspError::EmptyInput {
            what: "gcc_phat correlation",
        });
    }
    if !floor.is_finite() || floor <= 0.0 || floor >= 1.0 {
        return Err(DspError::invalid(
            "floor",
            format!("PHAT whitening floor must be in (0, 1), got {floor}"),
        ));
    }
    let n = corr.len();
    let plan = shared_real_plan(try_next_pow2(n)?)?;
    plan.rfft_half_into(corr, &mut scratch.half)?;
    let max_mag = scratch.half.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
    if max_mag <= 0.0 || !max_mag.is_finite() {
        // All-zero (or non-finite) spectrum: graceful no-op.
        return Ok(());
    }
    let eps = floor * max_mag;
    for z in &mut scratch.half {
        // PHAT_BETA = 0.5: divide by the floored magnitude's square root.
        *z = z.scale(1.0 / z.abs().max(eps).sqrt());
    }
    plan.irfft_half_into(&mut scratch.half, &mut scratch.real)?;
    corr.clear();
    corr.extend_from_slice(&scratch.real[..n]);
    Ok(())
}

/// Re-weights a correlation sequence in place by per-sub-band coherence.
///
/// The half-spectrum bins covering `band_lo..band_hi` Hz are split into
/// `bands` equal sub-bands. Each sub-band with mean power `S_b` is scaled
/// by the Wiener-style coherence weight `S_b / (S_b + N)`, where `N` is
/// the median sub-band power (minimum when fewer than three sub-bands
/// exist, so a single-band request degenerates to a pure band-pass).
/// Bins outside the band are zeroed.
///
/// A correlation with no in-band spectral mass is left unchanged.
///
/// # Errors
///
/// - [`DspError::EmptyInput`] when `corr` is empty.
/// - [`DspError::InvalidParameter`] when the band edges are not
///   `0 < band_lo < band_hi <= sample_rate / 2` or `bands == 0`.
pub fn subband_coherence_with(
    corr: &mut Vec<f64>,
    sample_rate: f64,
    band_lo: f64,
    band_hi: f64,
    bands: usize,
    scratch: &mut EstimatorScratch,
) -> Result<(), DspError> {
    if corr.is_empty() {
        return Err(DspError::EmptyInput {
            what: "subband_coherence correlation",
        });
    }
    if sample_rate.is_nan() || sample_rate <= 0.0 {
        return Err(DspError::invalid(
            "sample_rate",
            format!("must be positive, got {sample_rate}"),
        ));
    }
    if !(band_lo > 0.0 && band_lo < band_hi && band_hi <= sample_rate / 2.0) {
        return Err(DspError::invalid(
            "band",
            format!("need 0 < lo < hi <= fs/2, got {band_lo}..{band_hi} at fs {sample_rate}"),
        ));
    }
    if bands == 0 {
        return Err(DspError::invalid("bands", "need at least one sub-band"));
    }
    let n = corr.len();
    let m = try_next_pow2(n)?;
    let plan = shared_real_plan(m)?;
    plan.rfft_half_into(corr, &mut scratch.half)?;
    let bins = scratch.half.len();
    let bin_hz = sample_rate / m as f64;
    let k_lo = (band_lo / bin_hz).ceil() as usize;
    let k_hi = ((band_hi / bin_hz).floor() as usize).min(bins - 1);
    if k_lo > k_hi {
        // The transform is too short to resolve the band: no-op.
        return Ok(());
    }
    let span = k_hi - k_lo + 1;
    let b_count = bands.min(span);
    let band_of = |k: usize| ((k - k_lo) * b_count / span).min(b_count - 1);
    scratch.band_power.clear();
    scratch.band_power.resize(b_count, 0.0);
    for k in k_lo..=k_hi {
        scratch.band_power[band_of(k)] += scratch.half[k].norm_sqr();
    }
    // Equal-width bands up to rounding; normalize by each band's bin count.
    for b in 0..b_count {
        let lo = k_lo + (b * span).div_ceil(b_count);
        let hi = k_lo + ((b + 1) * span).div_ceil(b_count);
        let width = hi.saturating_sub(lo).max(1);
        scratch.band_power[b] /= width as f64;
    }
    let total: f64 = scratch.band_power.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        // No in-band spectral mass: graceful no-op.
        return Ok(());
    }
    scratch.band_sort.clear();
    scratch.band_sort.extend_from_slice(&scratch.band_power);
    scratch.band_sort.sort_unstable_by(f64::total_cmp);
    let noise = if b_count >= 3 {
        scratch.band_sort[b_count / 2]
    } else {
        scratch.band_sort[0]
    };
    for (k, z) in scratch.half.iter_mut().enumerate() {
        if k < k_lo || k > k_hi {
            *z = Complex::ZERO;
        } else {
            let s = scratch.band_power[band_of(k)];
            let w = if s + noise > 0.0 {
                s / (s + noise)
            } else {
                0.0
            };
            *z = z.scale(w);
        }
    }
    plan.irfft_half_into(&mut scratch.half, &mut scratch.real)?;
    corr.clear();
    corr.extend_from_slice(&scratch.real[..n]);
    Ok(())
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
        let chirp = Chirp::hyperear_beacon(44_100.0).expect("chirp");
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

    #[test]
    fn phat_preserves_peak_position() {
        let mut corr = beacon_corr(&[5_000.0], 16_384, 7);
        let before = argmax(&corr);
        let mut scratch = EstimatorScratch::new();
        gcc_phat_with(&mut corr, 0.15, &mut scratch).expect("phat");
        let after = argmax(&corr);
        assert!(
            (before as isize - after as isize).abs() <= 1,
            "peak moved {before} -> {after}"
        );
        assert!(corr.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn phat_all_zero_is_graceful_noop() {
        let mut corr = vec![0.0f64; 4_096];
        let mut scratch = EstimatorScratch::new();
        gcc_phat_with(&mut corr, 0.15, &mut scratch).expect("no-op");
        assert!(corr.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn phat_rejects_bad_floor_and_empty() {
        let mut scratch = EstimatorScratch::new();
        let mut corr = vec![1.0f64; 16];
        assert!(gcc_phat_with(&mut corr, 0.0, &mut scratch).is_err());
        assert!(gcc_phat_with(&mut corr, 1.0, &mut scratch).is_err());
        let mut empty = Vec::new();
        assert!(gcc_phat_with(&mut empty, 0.15, &mut scratch).is_err());
    }

    #[test]
    fn coherence_preserves_peak_and_handles_single_band() {
        let mut corr = beacon_corr(&[5_000.0], 16_384, 11);
        let before = argmax(&corr);
        let mut scratch = EstimatorScratch::new();
        subband_coherence_with(&mut corr, 44_100.0, 1_800.0, 7_040.0, 16, &mut scratch)
            .expect("coherence");
        assert!((before as isize - argmax(&corr) as isize).abs() <= 1);
        assert!(corr.iter().all(|v| v.is_finite()));
        // Single-band collapse degenerates to a pure band-pass, no panic.
        let mut corr = beacon_corr(&[5_000.0], 16_384, 13);
        subband_coherence_with(&mut corr, 44_100.0, 1_800.0, 7_040.0, 1, &mut scratch)
            .expect("single band");
        assert!(corr.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn coherence_all_zero_is_graceful_noop() {
        let mut corr = vec![0.0f64; 4_096];
        let mut scratch = EstimatorScratch::new();
        subband_coherence_with(&mut corr, 44_100.0, 1_800.0, 7_040.0, 8, &mut scratch)
            .expect("no-op");
        assert!(corr.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn coherence_rejects_bad_band() {
        let mut scratch = EstimatorScratch::new();
        let mut corr = vec![1.0f64; 64];
        assert!(
            subband_coherence_with(&mut corr, 44_100.0, 7_040.0, 1_800.0, 8, &mut scratch).is_err()
        );
        assert!(
            subband_coherence_with(&mut corr, 44_100.0, 1_800.0, 30_000.0, 8, &mut scratch)
                .is_err()
        );
        assert!(
            subband_coherence_with(&mut corr, 44_100.0, 1_800.0, 7_040.0, 0, &mut scratch).is_err()
        );
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

    #[test]
    fn kernels_are_allocation_free_when_warm() {
        // Capacity-based proxy: after one warm call, buffers stop growing.
        let mut scratch = EstimatorScratch::new();
        let mut corr = beacon_corr(&[3_000.0], 8_192, 29);
        gcc_phat_with(&mut corr, 0.15, &mut scratch).expect("warm-up");
        let cap = scratch.capacity_bytes();
        let mut corr = beacon_corr(&[3_000.0], 8_192, 31);
        gcc_phat_with(&mut corr, 0.15, &mut scratch).expect("warm");
        subband_coherence_with(&mut corr, 44_100.0, 1_800.0, 7_040.0, 16, &mut scratch)
            .expect("warm");
        assert_eq!(scratch.capacity_bytes(), cap.max(scratch.capacity_bytes()));
        assert!(scratch.capacity_bytes() >= cap);
    }
}
