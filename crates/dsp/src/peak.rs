//! Peak picking over correlation outputs.
//!
//! Beacon detection reduces to finding correlation peaks that stand
//! "significantly larger than ... background noise" (Section IV-A), spaced
//! roughly one beacon period apart. [`detect_peaks_into`] is that whole
//! post-correlation stage in two passes over the signal: a statistics
//! pass ([`signal_stats_with`]: the median of `|x|` and the maximum) and
//! a candidate scan ([`find_peaks_into`]).

use crate::DspError;

/// `v.to_bits() & ABS_MASK` is the bit pattern of `|v|`. Patterns with a
/// clear sign bit order as unsigned integers exactly as their values
/// order under `f64::total_cmp` (±0 < subnormals < normals < ∞ < NaN).
const ABS_MASK: u64 = !(1 << 63);

/// The median bracket is chosen on every `SAMPLE_STRIDE`-th `|x|`.
const SAMPLE_STRIDE: usize = 32;

/// Inputs shorter than this skip the bracket and select in full: a
/// sample of fewer than 64 values brackets too loosely to pay for itself.
const MIN_BRACKETED_LEN: usize = 64 * SAMPLE_STRIDE;

/// The statistics pass collects bracketed values a block at a time
/// (a power of two: the write cursor is masked to it).
const COLLECT_BLOCK: usize = 1024;

/// The candidate scan tests this many samples against the threshold at
/// once and skips the block when none reaches it.
const SCAN_CHUNK: usize = 64;

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the local maximum.
    pub index: usize,
    /// Value at the maximum.
    pub value: f64,
}

/// Configuration for [`find_peaks_into`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakConfig {
    /// Absolute threshold a sample must exceed to be a candidate.
    pub threshold: f64,
    /// Minimum distance between accepted peaks, in samples. Among
    /// candidates closer than this, only the largest survives.
    pub min_distance: usize,
}

impl PeakConfig {
    /// Creates a config.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `threshold` is not finite.
    pub fn new(threshold: f64, min_distance: usize) -> Result<Self, DspError> {
        if !threshold.is_finite() {
            return Err(DspError::invalid("threshold", "must be finite"));
        }
        Ok(PeakConfig {
            threshold,
            min_distance,
        })
    }
}

/// `median(|x|) / GAUSS_MEDIAN_ABS` estimates the deviation σ of
/// zero-mean Gaussian noise `x` (see [`noise_floor`]).
const GAUSS_MEDIAN_ABS: f64 = 0.6745;

/// `√(2 ln 2)`: the median of a Rayleigh variable in units of its scale.
/// The envelope `|a|` of an analytic correlation whose real and
/// imaginary parts are Gaussian with deviation σ is Rayleigh with scale
/// σ, so `median(|a|) / RAYLEIGH_MEDIAN` estimates the same σ that
/// `median(|x|) / 0.6745` does on the real correlation, and a
/// threshold factor keeps its meaning in noise-σ units on either.
pub(crate) const RAYLEIGH_MEDIAN: f64 = 1.177_410_022_515_474_7;

/// The two-part detection threshold of [`detect_peaks_into`]: a peak
/// must reach `max(noise_factor · floor, relative · max(0, max x))`,
/// where `floor = median(|x|) / 0.6745` (see [`noise_floor`]), and
/// accepted peaks lie at least `min_distance` samples apart.
/// [`detect_envelope_peaks_into`] applies it to an envelope with the
/// Rayleigh floor instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRule {
    /// Multiple of the robust noise floor a peak must reach.
    pub noise_factor: f64,
    /// Fraction of the signal's maximum a peak must reach.
    pub relative: f64,
    /// Minimum distance between accepted peaks, in samples.
    pub min_distance: usize,
}

/// The statistics the detection threshold is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalStats {
    /// `median(|x|)`: element `len / 2` of `|x|` sorted by
    /// `f64::total_cmp` (so NaN and ±∞ take part, NaN above +∞).
    pub median_abs: f64,
    /// `max(0, max x)` over the non-NaN samples — the value
    /// `x.iter().fold(0.0, |m, &v| m.max(v))` returns.
    pub max: f64,
    /// Whether the median came from a selection over every `|x|` (short
    /// inputs, or data on which the sampled bracket missed the median)
    /// rather than over the bracketed values alone.
    pub full_select: bool,
}

/// Caller-owned buffers of [`signal_stats_with`] and
/// [`detect_peaks_into`]. Once warm, calls at or below the
/// high-water signal length and candidate count do not allocate.
#[derive(Debug, Clone, Default)]
pub struct PeakScratch {
    /// `|x|` bit patterns: the sample, then the bracketed values (or all
    /// of them on the full-selection path). Capacity: the signal length.
    keys: Vec<u64>,
    /// Candidate peaks during non-maximum suppression.
    candidates: Vec<Peak>,
}

impl PeakScratch {
    /// Grows the buffers so that no call on a signal of up to `len`
    /// samples allocates: a key per sample, and a candidate for every
    /// local maximum such a signal can hold (`⌈len/2⌉`, since two strict
    /// maxima are never adjacent). Capacity already there is kept.
    pub fn reserve(&mut self, len: usize) {
        self.keys.reserve_exact(len.saturating_sub(self.keys.len()));
        let candidates = len.div_ceil(2);
        self.candidates
            .reserve_exact(candidates.saturating_sub(self.candidates.len()));
    }

    /// Bytes currently reserved by the scratch buffers.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u64>()
            + self.candidates.capacity() * std::mem::size_of::<Peak>()
    }
}

/// Finds local maxima of `signal` above the threshold, enforcing the
/// minimum spacing by greedily keeping the largest peaks first.
///
/// Returns peaks sorted by index.
///
/// Candidate storage and the result live in caller-owned buffers that
/// are cleared and reused, so a warm detection loop performs no heap
/// allocation.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
pub fn find_peaks_into(
    signal: &[f64],
    config: &PeakConfig,
    scratch: &mut Vec<Peak>,
    out: &mut Vec<Peak>,
) -> Result<(), DspError> {
    out.clear();
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "find_peaks input",
        });
    }
    let threshold = config.threshold;
    for (c, chunk) in signal.chunks(SCAN_CHUNK).enumerate() {
        // A chunk with every sample below the threshold holds no
        // candidate. A NaN is not below it, so it keeps its chunk.
        if chunk.iter().fold(true, |below, &v| below & (v < threshold)) {
            continue;
        }
        // Collect strict local maxima (plateau-tolerant: first sample of
        // a plateau wins). Neighbours are read across chunk edges.
        let start = c * SCAN_CHUNK;
        for i in start..start + chunk.len() {
            let v = signal[i];
            if v < threshold {
                continue;
            }
            let left_ok = i == 0 || signal[i - 1] < v;
            let right_ok = i + 1 == signal.len() || signal[i + 1] <= v;
            if left_ok && right_ok {
                out.push(Peak { index: i, value: v });
            }
        }
    }
    if config.min_distance <= 1 || out.len() <= 1 {
        return Ok(());
    }
    // Greedy non-maximum suppression: biggest first. The sort key breaks
    // value ties by ascending index, which is exactly the order a stable
    // by-value sort of the index-ordered candidates would produce — so
    // the in-place unstable sort keeps results identical.
    scratch.clear();
    scratch.extend_from_slice(out);
    scratch.sort_unstable_by(|a, b| b.value.total_cmp(&a.value).then(a.index.cmp(&b.index)));
    out.clear();
    for cand in scratch.iter() {
        if out
            .iter()
            .all(|t| cand.index.abs_diff(t.index) >= config.min_distance)
        {
            out.push(*cand);
        }
    }
    // Indices are unique, so the unstable sort is order-deterministic.
    out.sort_unstable_by_key(|p| p.index);
    Ok(())
}

/// The detection epilogue over one correlation (or guide): the
/// statistics pass of [`signal_stats_with`], the threshold of `rule`, and
/// the candidate scan and non-maximum suppression of
/// [`find_peaks_into`]. Reads `signal` in two passes (plus a strided
/// sample) and allocates nothing once `scratch` and `out` are warm.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal and
/// [`DspError::InvalidParameter`] if the threshold is not finite (an
/// infinite sample, say).
pub fn detect_peaks_into(
    signal: &[f64],
    rule: &ThresholdRule,
    scratch: &mut PeakScratch,
    out: &mut Vec<Peak>,
) -> Result<(), DspError> {
    pick_into(signal, GAUSS_MEDIAN_ABS, rule, scratch, out).map(|_| ())
}

/// [`detect_peaks_into`] over a correlation envelope `|a|`: the noise
/// floor is `median(|a|) / RAYLEIGH_MEDIAN`, the same σ the real
/// correlation's floor estimates. Returns that floor.
///
/// # Errors
///
/// Same conditions as [`detect_peaks_into`].
pub fn detect_envelope_peaks_into(
    envelope: &[f64],
    rule: &ThresholdRule,
    scratch: &mut PeakScratch,
    out: &mut Vec<Peak>,
) -> Result<f64, DspError> {
    pick_into(envelope, RAYLEIGH_MEDIAN, rule, scratch, out)
}

/// The shared epilogue: the floor `median(|x|) / median_per_sigma`, the
/// two-part threshold and the candidate scan. Returns the floor.
fn pick_into(
    signal: &[f64],
    median_per_sigma: f64,
    rule: &ThresholdRule,
    scratch: &mut PeakScratch,
    out: &mut Vec<Peak>,
) -> Result<f64, DspError> {
    let stats = signal_stats_with(signal, scratch)?;
    let floor = stats.median_abs / median_per_sigma;
    let threshold = (rule.noise_factor * floor).max(rule.relative * stats.max);
    find_peaks_into(
        signal,
        &PeakConfig::new(threshold, rule.min_distance)?,
        &mut scratch.candidates,
        out,
    )?;
    Ok(floor)
}

/// Estimates the noise floor of a correlation output as
/// `k · median(|signal|)`.
///
/// For Gaussian noise, `median(|x|) ≈ 0.6745·σ`, so `k = 1/0.6745` recovers
/// σ; detection thresholds are then set at a multiple of the floor.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
pub fn noise_floor(signal: &[f64]) -> Result<f64, DspError> {
    Ok(signal_stats_with(signal, &mut PeakScratch::default())?.median_abs / GAUSS_MEDIAN_ABS)
}

/// The median of `|signal|` and the maximum of `signal`, exactly (see
/// [`SignalStats`]), in one pass over the signal plus a strided sample.
///
/// The median is selected from a bracket. Two order statistics of a
/// strided sample of `|x|`, four standard errors either side of the
/// sample median, bound it. One pass then takes the maximum, counts the
/// values below the bracket and collects those inside it, and the
/// median is selected among the collected values alone (a few percent
/// of the signal). If the bracket misses the median — only data built
/// against the stride does that — the median is selected over every
/// `|x|` instead; [`SignalStats::full_select`] reports it. Both paths
/// compare `|x|` as bit patterns, the order `f64::total_cmp` gives.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
pub fn signal_stats_with(
    signal: &[f64],
    scratch: &mut PeakScratch,
) -> Result<SignalStats, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "noise_floor input",
        });
    }
    let keys = &mut scratch.keys;
    keys.clear();
    // The full selection needs a key per sample. Reserving that much on
    // every path keeps a warm scratch allocation-free whichever path
    // the data takes; pages the bracketed path never writes stay
    // untouched.
    keys.reserve(signal.len());
    let mid = signal.len() / 2;
    let mut max = None;
    if signal.len() >= MIN_BRACKETED_LEN {
        let (lo, hi) = sample_bracket(signal, keys);
        let (pass_max, below) = bracket_pass(signal, lo, hi, keys);
        if let Some(rank) = mid.checked_sub(below).filter(|&r| r < keys.len()) {
            let median = *keys.select_nth_unstable(rank).1;
            return Ok(SignalStats {
                median_abs: f64::from_bits(median),
                max: pass_max,
                full_select: false,
            });
        }
        max = Some(pass_max);
    }
    keys.clear();
    keys.extend(signal.iter().map(|&v| v.to_bits() & ABS_MASK));
    let median = *keys.select_nth_unstable(mid).1;
    Ok(SignalStats {
        median_abs: f64::from_bits(median),
        max: max.unwrap_or_else(|| signal.iter().copied().fold(0.0, max_of)),
        full_select: true,
    })
}

/// The `|x|` bit patterns bounding the bracket: the order statistics
/// `2·√m` ranks either side of the median of the `m`-value strided
/// sample. For independent samples the sample median's rank has
/// standard error `√m / 2`, so that is four standard errors.
fn sample_bracket(signal: &[f64], keys: &mut Vec<u64>) -> (u64, u64) {
    keys.extend(
        signal
            .iter()
            .step_by(SAMPLE_STRIDE)
            .map(|&v| v.to_bits() & ABS_MASK),
    );
    let m = keys.len();
    let margin = 2 * m.isqrt();
    let hi_rank = (m / 2 + margin).min(m - 1);
    let lo_rank = (m / 2).saturating_sub(margin);
    let hi = *keys.select_nth_unstable(hi_rank).1;
    let lo = *keys[..hi_rank].select_nth_unstable(lo_rank).1;
    keys.clear();
    (lo, hi)
}

/// The statistics pass: returns `max(0, max x)` and the count of `|x|`
/// below `lo`, and appends every `|x|` pattern in `lo..=hi` to `keys`. Each block is
/// collected with branchless writes into a stack buffer (every pattern
/// is stored at the cursor, which advances only when it is inside; the
/// cursor never passes the sample index, so masking it to the buffer
/// length changes nothing but drops the bounds check), then its inside
/// values are appended. Four register accumulators carry the maximum, so
/// no compare waits on the previous one.
fn bracket_pass(signal: &[f64], lo: u64, hi: u64, keys: &mut Vec<u64>) -> (f64, usize) {
    let span = hi - lo;
    let mut max = [0.0f64; 4];
    let mut below = 0usize;
    let mut buf = [0u64; COLLECT_BLOCK];
    for block in signal.chunks(COLLECT_BLOCK) {
        let mut cursor = 0;
        let mut put = |v: f64| {
            let key = v.to_bits() & ABS_MASK;
            below += usize::from(key < lo);
            buf[cursor & (COLLECT_BLOCK - 1)] = key;
            cursor += usize::from(key.wrapping_sub(lo) <= span);
        };
        let mut quads = block.chunks_exact(4);
        for quad in &mut quads {
            let [a, b, c, d] = [quad[0], quad[1], quad[2], quad[3]];
            max = [
                max_of(max[0], a),
                max_of(max[1], b),
                max_of(max[2], c),
                max_of(max[3], d),
            ];
            put(a);
            put(b);
            put(c);
            put(d);
        }
        for &v in quads.remainder() {
            max[0] = max_of(max[0], v);
            put(v);
        }
        keys.extend_from_slice(&buf[..cursor]);
    }
    (max.into_iter().fold(0.0, max_of), below)
}

/// The running maximum step of both statistics paths. Folded from
/// `0.0`, it gives what a serial `fold(0.0, f64::max)` gives: `m` is
/// replaced only by a strictly larger sample, so NaN is skipped and the
/// result is `+0.0` when no sample is positive.
fn max_of(m: f64, v: f64) -> f64 {
    if v > m {
        v
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find_peaks(signal: &[f64], config: &PeakConfig) -> Result<Vec<Peak>, DspError> {
        let mut out = Vec::new();
        find_peaks_into(signal, config, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn finds_isolated_peaks() {
        let mut signal = vec![0.0; 100];
        signal[10] = 5.0;
        signal[50] = 3.0;
        signal[90] = 4.0;
        let cfg = PeakConfig::new(1.0, 5).unwrap();
        let peaks = find_peaks(&signal, &cfg).unwrap();
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![10, 50, 90]);
    }

    #[test]
    fn threshold_filters_small_peaks() {
        let mut signal = vec![0.0; 50];
        signal[10] = 5.0;
        signal[30] = 0.5;
        let cfg = PeakConfig::new(1.0, 1).unwrap();
        let peaks = find_peaks(&signal, &cfg).unwrap();
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 10);
        assert_eq!(peaks[0].value, 5.0);
    }

    #[test]
    fn min_distance_keeps_largest() {
        let mut signal = vec![0.0; 50];
        signal[10] = 3.0;
        signal[12] = 5.0; // bigger neighbour within min_distance
        signal[40] = 2.0;
        let cfg = PeakConfig::new(1.0, 8).unwrap();
        let peaks = find_peaks(&signal, &cfg).unwrap();
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![12, 40]);
    }

    #[test]
    fn plateau_counts_once() {
        let mut signal = vec![0.0; 20];
        signal[5] = 2.0;
        signal[6] = 2.0;
        let cfg = PeakConfig::new(1.0, 1).unwrap();
        let peaks = find_peaks(&signal, &cfg).unwrap();
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 5);
    }

    #[test]
    fn boundary_peaks_are_found() {
        let signal = vec![5.0, 1.0, 0.0, 1.0, 6.0];
        let cfg = PeakConfig::new(2.0, 1).unwrap();
        let peaks = find_peaks(&signal, &cfg).unwrap();
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 4]);
    }

    #[test]
    fn periodic_peaks_are_all_found() {
        // Simulates beacon correlation: peaks every 50 samples.
        let mut signal = vec![0.0; 500];
        for k in 0..10 {
            signal[k * 50 + 5] = 10.0 + k as f64;
        }
        let cfg = PeakConfig::new(5.0, 30).unwrap();
        let peaks = find_peaks(&signal, &cfg).unwrap();
        assert_eq!(peaks.len(), 10);
        for (k, p) in peaks.iter().enumerate() {
            assert_eq!(p.index, k * 50 + 5);
        }
    }

    #[test]
    fn noise_floor_estimates_sigma() {
        // Deterministic approximately-Gaussian noise via CLT of a LCG.
        let mut state = 123456789u64;
        let mut rand = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0
        };
        let noise: Vec<f64> = (0..10_000)
            .map(|_| (0..12).map(|_| rand()).sum::<f64>() / 2.0) // σ ≈ 1
            .collect();
        let floor = noise_floor(&noise).unwrap();
        assert!((0.8..1.2).contains(&floor), "floor {floor}");
    }

    #[test]
    fn noise_floor_is_robust_to_outliers() {
        let mut signal = vec![0.1; 1000];
        signal[500] = 100.0; // a beacon spike should barely move the median
        let floor = noise_floor(&signal).unwrap();
        assert!(floor < 0.2);
    }

    #[test]
    fn empty_inputs_rejected() {
        let cfg = PeakConfig::new(1.0, 1).unwrap();
        assert!(find_peaks(&[], &cfg).is_err());
        assert!(noise_floor(&[]).is_err());
        assert!(PeakConfig::new(f64::NAN, 1).is_err());
        let (mut s, mut o) = (Vec::new(), Vec::new());
        assert!(find_peaks_into(&[], &cfg, &mut s, &mut o).is_err());
        assert!(noise_floor(&[]).is_err());
    }

    /// A deterministic correlation-like train: uniform noise of
    /// amplitude `noise` with a spike of height 1 every `period` samples.
    fn spike_train(len: usize, period: usize, noise: f64) -> Vec<f64> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                if i % period == 0 {
                    1.0
                } else {
                    noise * (2.0 * u - 1.0)
                }
            })
            .collect()
    }

    #[test]
    fn epilogue_scratch_is_allocation_free_when_warm() {
        // Warm at the high-water length on both statistics paths: a
        // noise train (bracketed) and a train with a spike on every
        // sampled position (the bracket misses, so the full selection
        // runs). Then run again at that length and below it, on every
        // path including the short full selection. Every buffer must
        // keep its exact capacity: growth means a warm call allocated,
        // and shrinkage means the next large call would.
        let rule = ThresholdRule {
            noise_factor: 6.0,
            relative: 0.25,
            min_distance: 20,
        };
        let big = spike_train(50_000, 250, 0.01);
        let big_miss = spike_train(50_000, SAMPLE_STRIDE, 0.01);
        let small = spike_train(9_000, 300, 0.02);
        let small_miss = spike_train(8_192, SAMPLE_STRIDE, 0.02);
        let short = spike_train(1_000, 100, 0.01);
        let mut scratch = PeakScratch::default();
        let mut out = Vec::new();
        let mut run = |signal: &[f64], fallback: bool| {
            let stats = signal_stats_with(signal, &mut scratch).unwrap();
            assert_eq!(stats.full_select, fallback);
            detect_peaks_into(signal, &rule, &mut scratch, &mut out).unwrap();
            assert!(!out.is_empty());
            (
                scratch.keys.capacity(),
                scratch.candidates.capacity(),
                out.capacity(),
            )
        };
        run(&big, false);
        let warm = run(&big_miss, true);
        for (signal, fallback, what) in [
            (&big, false, "bracketed, high-water length"),
            (&big_miss, true, "bracket miss, high-water length"),
            (&small, false, "bracketed, below the high-water length"),
            (
                &small_miss,
                true,
                "bracket miss, below the high-water length",
            ),
            (&short, true, "short full selection"),
            (&big, false, "high-water length again"),
        ] {
            assert_eq!(run(signal, fallback), warm, "{what}");
        }
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        // A dense signal with value ties so the tie-breaking sort key is
        // actually exercised against the stable-sort reference order.
        let mut signal = vec![0.0; 400];
        for k in 0..8 {
            signal[k * 50 + 3] = 4.0; // equal-valued peaks
            signal[k * 50 + 20] = 2.0 + k as f64;
        }
        for min_distance in [1usize, 5, 30, 60] {
            let cfg = PeakConfig::new(1.0, min_distance).unwrap();
            let reference = find_peaks(&signal, &cfg).unwrap();
            let (mut scratch, mut out) = (Vec::new(), Vec::new());
            // Run twice through the same buffers: results must not depend
            // on stale contents.
            for _ in 0..2 {
                find_peaks_into(&signal, &cfg, &mut scratch, &mut out).unwrap();
                assert_eq!(out, reference, "min_distance {min_distance}");
            }
        }
    }
}
