//! Planned FFT execution: precomputed twiddle/bit-reversal tables and a
//! reusable scratch arena for the session hot path.
//!
//! Every figure reproduction runs hundreds of simulated sessions, and each
//! session's matched filtering re-derives the same FFT setup (twiddle
//! factors, bit-reversal permutation) and re-allocates the same working
//! buffers on every call. A [`FftPlan`] hoists the per-size setup out of
//! the transform, a [`PlanCache`] memoizes plans across sizes, and a
//! [`DspScratch`] arena lends out reusable buffers so the planned variants
//! of `fft`/`rfft`/`xcorr`/`stft`/`power_spectrum` never allocate once
//! warm. The one-shot functions elsewhere in the crate remain as thin
//! wrappers over this module.
//!
//! The one-shot wrappers execute through these same plans, so cached and
//! fresh executions produce the same floating-point results to the last
//! ulp (pinned by the equivalence property tests in `tests/proptests.rs`).
//! Twiddles come from exact angles, not a recurrence, and the transforms
//! are checked against a direct O(n²) DFT there too.
//!
//! # Example
//!
//! ```
//! use hyperear_dsp::plan::{DspScratch, FftPlan};
//! use hyperear_dsp::Complex;
//!
//! # fn main() -> Result<(), hyperear_dsp::DspError> {
//! let plan = FftPlan::new(8)?;
//! let mut data: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
//! let original = data.clone();
//! plan.fft(&mut data)?;
//! plan.ifft(&mut data)?;
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! # let _ = DspScratch::new();
//! # Ok(())
//! # }
//! ```

use crate::{Complex, DspError};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

thread_local! {
    /// The execution context behind the crate's one-shot wrappers.
    static THREAD_CTX: RefCell<(PlanCache, DspScratch)> =
        RefCell::new((PlanCache::new(), DspScratch::new()));
}

/// Runs `f` against the thread-local plan cache and scratch arena.
///
/// This is the context the crate's one-shot conveniences (`fft`, `rfft`,
/// `xcorr`, `stft`, `power_spectrum`) execute in, so repeated one-shot
/// calls on a thread reuse plans and buffers much like FFTW's "wisdom".
/// Hot paths should still hold their own [`PlanCache`]/[`DspScratch`] —
/// explicit state is faster to reach and testable — but callers with a
/// transform off the hot path can borrow this one.
///
/// # Panics
///
/// Panics if `f` re-enters `with_thread_ctx` (directly or by calling a
/// one-shot wrapper): the context is a `RefCell`, not a reentrant lock.
pub fn with_thread_ctx<T>(f: impl FnOnce(&mut PlanCache, &mut DspScratch) -> T) -> T {
    THREAD_CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let (plans, scratch) = &mut *ctx;
        f(plans, scratch)
    })
}

/// A precomputed execution plan for one FFT size.
///
/// Holds the bit-reversal permutation and the radix-4 twiddle factors,
/// so every transform runs the pure butterfly passes with no
/// trigonometry and no allocation.
///
/// There is one butterfly kernel, in two directions:
///
/// - [`FftPlan::dif`], the forward decimation-in-frequency pass, reads
///   natural order and leaves the spectrum in **bit-reversed** order;
/// - [`FftPlan::dit`], the inverse decimation-in-time pass with
///   conjugate twiddles, reads bit-reversed order and writes natural
///   order, unscaled.
///
/// Both are radix-4, with one twiddle-free radix-2 stage when `log2 n`
/// is odd. A pointwise spectral product does not care about bin order,
/// so the overlap-save correlator runs `dif → multiply → dit` with no
/// permutation at all; [`FftPlan::fft`] and [`FftPlan::ifft`] add the
/// one bit-reversal pass that ordered spectra need.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position (identity entries included).
    bit_rev: Vec<usize>,
    /// Forward twiddles `[w^j, w^2j, w^3j]` (`w = e^{-2πi/L}`) for each
    /// butterfly column `j` in `0..L/4` of each radix-4 stage of span
    /// `L`, stages flattened from `L = n` down. The inverse uses the
    /// conjugates.
    twiddles: Vec<[Complex; 3]>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for `n == 0` and
    /// [`DspError::InvalidParameter`] when `n` is not a power of two.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput { what: "fft input" });
        }
        if !n.is_power_of_two() {
            return Err(DspError::invalid(
                "data.len()",
                format!("FFT length must be a power of two, got {n}"),
            ));
        }
        let bits = n.trailing_zeros();
        let bit_rev = if n == 1 {
            vec![0]
        } else {
            (0..n)
                .map(|i| i.reverse_bits() >> (usize::BITS - bits))
                .collect()
        };
        let mut twiddles = Vec::new();
        let mut span = n;
        while span >= 4 {
            twiddles.extend((0..span / 4).map(|j| {
                [
                    unit_root(j, span),
                    unit_root(2 * j, span),
                    unit_root(3 * j, span),
                ]
            }));
            span /= 4;
        }
        Ok(FftPlan {
            n,
            bit_rev,
            twiddles,
        })
    }

    /// The transform length this plan was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true for a constructed plan).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT, `X[k] = Σ_n x[n]·e^{-2πi·kn/N}`, in natural
    /// order. Allocation-free.
    ///
    /// Identical results to [`crate::fft::fft`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `data.len()` does not
    /// match the plan length.
    pub fn fft(&self, data: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(data.len())?;
        self.dif(data);
        self.permute(data);
        Ok(())
    }

    /// In-place inverse FFT, normalized by `1/N`. Allocation-free.
    ///
    /// Identical results to [`crate::fft::ifft`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::fft`].
    pub fn ifft(&self, data: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(data.len())?;
        self.permute(data);
        self.dit(data);
        crate::complex::scale_in_place(data, 1.0 / data.len() as f64);
        Ok(())
    }

    /// Forward FFT of a real signal zero-padded to the plan length,
    /// written into `out` (cleared and resized; its capacity is reused).
    ///
    /// Identical results to [`crate::fft::rfft`] at `padded_len == n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidParameter`] when the signal exceeds the plan
    /// length.
    pub fn rfft_into(&self, signal: &[f64], out: &mut Vec<Complex>) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput { what: "rfft input" });
        }
        if self.n < signal.len() {
            return Err(DspError::invalid(
                "padded_len",
                format!(
                    "padded length {} is smaller than the signal ({})",
                    self.n,
                    signal.len()
                ),
            ));
        }
        out.clear();
        out.extend(signal.iter().map(|&x| Complex::from_real(x)));
        out.resize(self.n, Complex::ZERO);
        self.fft(out)
    }

    fn check_len(&self, len: usize) -> Result<(), DspError> {
        if len == self.n {
            Ok(())
        } else {
            Err(DspError::invalid(
                "data.len()",
                format!("plan built for length {}, got {len}", self.n),
            ))
        }
    }

    /// Swaps every element with its bit-reversed position: the one
    /// permutation pass between the kernel's bit-reversed spectra and
    /// natural order (an involution, so it serves both directions).
    fn permute(&self, data: &mut [Complex]) {
        for (i, &j) in self.bit_rev.iter().enumerate() {
            if j > i {
                data.swap(i, j);
            }
        }
    }

    /// Forward decimation-in-frequency pass: natural order in,
    /// bit-reversed spectrum out, unscaled. `data.len()` must equal the
    /// plan length.
    ///
    /// Each radix-4 stage of span `L` splits every `L`-block into four
    /// quarters walked in lockstep with the stage's twiddle triples (no
    /// bounds checks in the inner loop). The two middle outputs are
    /// stored swapped — the `(X₀, X₂, X₁, X₃)` order of two merged
    /// radix-2 stages — which is what makes the overall output order
    /// bit-reversed rather than base-4 digit-reversed.
    pub(crate) fn dif(&self, data: &mut [Complex]) {
        debug_assert_eq!(data.len(), self.n);
        let mut span = self.n;
        let mut offset = 0;
        while span >= 4 {
            let q = span / 4;
            let tw = &self.twiddles[offset..offset + q];
            for block in data.chunks_exact_mut(span) {
                let (a, rest) = block.split_at_mut(q);
                let (b, rest) = rest.split_at_mut(q);
                let (c, d) = rest.split_at_mut(q);
                for ((((x0, x1), x2), x3), w) in a.iter_mut().zip(b).zip(c).zip(d).zip(tw) {
                    let s02 = *x0 + *x2;
                    let d02 = *x0 - *x2;
                    let s13 = *x1 + *x3;
                    let d13 = mul_i(*x1 - *x3);
                    *x0 = s02 + s13;
                    *x1 = (s02 - s13) * w[1];
                    *x2 = (d02 - d13) * w[0];
                    *x3 = (d02 + d13) * w[2];
                }
            }
            offset += q;
            span = q;
        }
        if span == 2 {
            radix2(data);
        }
    }

    /// Inverse decimation-in-time pass: bit-reversed spectrum in,
    /// natural order out, **unscaled** (the caller owns the `1/N`).
    /// Exactly the transpose of [`FftPlan::dif`]: the same stages in
    /// reverse order with conjugated twiddles.
    pub(crate) fn dit(&self, data: &mut [Complex]) {
        debug_assert_eq!(data.len(), self.n);
        let odd = self.n.trailing_zeros() % 2 == 1;
        if odd {
            radix2(data);
        }
        let mut span = if odd { 8 } else { 4 };
        let mut offset = self.twiddles.len();
        while span <= self.n {
            let q = span / 4;
            offset -= q;
            let tw = &self.twiddles[offset..offset + q];
            for block in data.chunks_exact_mut(span) {
                let (a, rest) = block.split_at_mut(q);
                let (b, rest) = rest.split_at_mut(q);
                let (c, d) = rest.split_at_mut(q);
                for ((((y0, y1), y2), y3), w) in a.iter_mut().zip(b).zip(c).zip(d).zip(tw) {
                    let t1 = *y1 * w[1].conj();
                    let t2 = *y2 * w[0].conj();
                    let t3 = *y3 * w[2].conj();
                    let s = *y0 + t1;
                    let d = *y0 - t1;
                    let s23 = t2 + t3;
                    let d23 = mul_i(t2 - t3);
                    *y0 = s + s23;
                    *y1 = d + d23;
                    *y2 = s - s23;
                    *y3 = d - d23;
                }
            }
            span *= 4;
        }
    }
}

/// The twiddle-free radix-2 stage of span 2 that completes a transform
/// whose `log2 n` is odd (last in [`FftPlan::dif`], first in
/// [`FftPlan::dit`]).
fn radix2(data: &mut [Complex]) {
    for pair in data.chunks_exact_mut(2) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a + b;
        pair[1] = a - b;
    }
}

/// `i·c`.
#[inline]
fn mul_i(c: Complex) -> Complex {
    Complex::new(-c.im, c.re)
}

/// `e^{-2πi·k/n}`, computed from the exact angle (no recurrence, so no
/// error accumulates across a stage's twiddles).
fn unit_root(k: usize, n: usize) -> Complex {
    Complex::from_angle(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
}

/// A read-only view of the `n/2 + 1` non-redundant bins of a real
/// signal's spectrum.
///
/// A real signal's DFT is conjugate-symmetric (`X[n−k] = conj(X[k])`), so
/// only bins `0..=n/2` carry information. [`RealFftPlan::rfft_half_into`]
/// produces exactly those bins; this view adds the accessors consumers
/// need — DC, Nyquist, and symmetric access to the folded upper half —
/// without materializing the redundant mirror bins.
#[derive(Debug, Clone, Copy)]
pub struct HalfSpectrum<'a> {
    bins: &'a [Complex],
}

impl<'a> HalfSpectrum<'a> {
    /// Wraps a half-spectrum slice of `n/2 + 1` bins.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty slice and
    /// [`DspError::InvalidParameter`] when the bin count does not
    /// correspond to a power-of-two FFT length (`len == 1` maps to
    /// `n == 1`; otherwise `len − 1` must be a power of two).
    pub fn new(bins: &'a [Complex]) -> Result<Self, DspError> {
        if bins.is_empty() {
            return Err(DspError::EmptyInput {
                what: "half spectrum",
            });
        }
        if bins.len() > 1 && !(bins.len() - 1).is_power_of_two() {
            return Err(DspError::invalid(
                "bins.len()",
                format!(
                    "{} bins does not match any power-of-two FFT length",
                    bins.len()
                ),
            ));
        }
        Ok(HalfSpectrum { bins })
    }

    /// The number of stored (non-redundant) bins: `n/2 + 1`.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The full FFT length `n` this half-spectrum folds.
    #[must_use]
    pub fn fft_len(&self) -> usize {
        if self.bins.len() == 1 {
            1
        } else {
            2 * (self.bins.len() - 1)
        }
    }

    /// The stored bins `0..=n/2`.
    #[must_use]
    pub fn bins(&self) -> &[Complex] {
        self.bins
    }

    /// Full-spectrum bin `k` for any `k < n`, reconstructing folded bins
    /// by conjugate symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.fft_len()`.
    #[must_use]
    pub fn bin(&self, k: usize) -> Complex {
        let n = self.fft_len();
        assert!(k < n, "bin {k} out of range for FFT length {n}");
        if k < self.bins.len() {
            self.bins[k]
        } else {
            self.bins[n - k].conj()
        }
    }

    /// The DC bin (`k = 0`).
    #[must_use]
    pub fn dc(&self) -> Complex {
        self.bins[0]
    }

    /// The Nyquist bin (`k = n/2`; equals DC for `n == 1`).
    #[must_use]
    pub fn nyquist(&self) -> Complex {
        self.bins[self.bins.len() - 1]
    }
}

/// A precomputed plan for real-input transforms of length `n`.
///
/// Packs the `n` real samples into an `n/2`-point complex FFT (`z[k] =
/// x[2k] + i·x[2k+1]`) and recovers the `n/2 + 1` half-spectrum with a
/// conjugate-symmetric split pass — roughly half the butterflies and half
/// the complex scratch of the equivalent full transform. The simulator's
/// mic equalization, the STFT, the periodogram, the estimators and the
/// one-shot [`crate::correlate::xcorr`] use it; the overlap-save matched
/// filter does not (it packs two real *blocks* into one complex transform
/// instead, see DESIGN.md). See DESIGN.md for the split/merge algebra.
///
/// Unlike [`FftPlan`]'s complex path, the half-spectrum route is **not**
/// bit-identical to the full complex transform — it evaluates the same
/// DFT through a different factorization, so results agree to roughly
/// `1e-12` relative (pinned by the `rfft_half` property test), not to the
/// last ulp.
#[derive(Debug, Clone)]
pub struct RealFftPlan {
    n: usize,
    /// The `n/2`-point complex plan (`None` for the trivial `n == 1`).
    half: Option<FftPlan>,
    /// Split twiddles `e^{-2πik/n}` for `k` in `0..=n/4`; pairs
    /// `(k, n/2−k)` share a twiddle up to conjugation.
    split: Vec<Complex>,
}

impl RealFftPlan {
    /// Builds a real-input plan for transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::new`].
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput { what: "rfft input" });
        }
        if !n.is_power_of_two() {
            return Err(DspError::invalid(
                "n",
                format!("FFT length must be a power of two, got {n}"),
            ));
        }
        let (half, split) = if n == 1 {
            (None, Vec::new())
        } else {
            let angle = -2.0 * std::f64::consts::PI / n as f64;
            let split = (0..=n / 4)
                .map(|k| Complex::from_angle(angle * k as f64))
                .collect();
            (Some(FftPlan::new(n / 2)?), split)
        };
        Ok(RealFftPlan { n, half, split })
    }

    /// The real transform length this plan was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true for a constructed plan).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The number of half-spectrum bins produced: `n/2 + 1`.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        if self.n == 1 {
            1
        } else {
            self.n / 2 + 1
        }
    }

    /// Forward FFT of a real signal zero-padded to the plan length,
    /// written as the `n/2 + 1` half-spectrum bins into `out` (cleared
    /// and refilled; capacity reused). Allocation-free once `out` has
    /// grown to `num_bins()`.
    ///
    /// Runs one `n/2`-point complex FFT on the even/odd-packed samples
    /// plus an `O(n)` conjugate-symmetric split pass.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidParameter`] when the signal exceeds the plan
    /// length.
    pub fn rfft_half_into(&self, signal: &[f64], out: &mut Vec<Complex>) -> Result<(), DspError> {
        if signal.is_empty() {
            return Err(DspError::EmptyInput { what: "rfft input" });
        }
        if self.n < signal.len() {
            return Err(DspError::invalid(
                "signal.len()",
                format!(
                    "plan length {} is smaller than the signal ({})",
                    self.n,
                    signal.len()
                ),
            ));
        }
        out.clear();
        let Some(half_plan) = &self.half else {
            out.push(Complex::from_real(signal[0]));
            return Ok(());
        };
        let h = self.n / 2;
        // All n/2 + 1 bins up front, so pushing the Nyquist bin after the
        // packed transform never doubles a fresh buffer's capacity.
        out.reserve(h + 1);
        // Pack even samples into re, odd into im (zero-padded).
        let at = |j: usize| signal.get(j).copied().unwrap_or(0.0);
        out.extend((0..h).map(|k| Complex::new(at(2 * k), at(2 * k + 1))));
        half_plan.fft(out)?;
        // Split: DC and Nyquist come from Z[0] alone; interior pairs
        // (k, h−k) combine Z[k] and conj(Z[h−k]) with one twiddle.
        let z0 = out[0];
        out.push(Complex::from_real(z0.re - z0.im));
        out[0] = Complex::from_real(z0.re + z0.im);
        for k in 1..=h / 2 {
            let a = out[k];
            let b = out[h - k];
            let xe = (a + b.conj()).scale(0.5);
            let xo = (a - b.conj()) * Complex::new(0.0, -0.5);
            let t = self.split[k] * xo;
            out[k] = xe + t;
            out[h - k] = (xe - t).conj();
        }
        Ok(())
    }

    /// Inverse of [`RealFftPlan::rfft_half_into`]: merges the `n/2 + 1`
    /// half-spectrum bins back into the packed form **in place** (the
    /// contents of `half` are consumed as working storage), runs one
    /// `n/2`-point inverse FFT, and writes the `n` real samples into
    /// `out` (cleared and refilled; capacity reused).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `half.len()` is not
    /// `num_bins()`.
    pub fn irfft_half_into(
        &self,
        half: &mut [Complex],
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        if half.len() != self.num_bins() {
            return Err(DspError::invalid(
                "half.len()",
                format!(
                    "plan for length {} expects {} bins, got {}",
                    self.n,
                    self.num_bins(),
                    half.len()
                ),
            ));
        }
        out.clear();
        let Some(half_plan) = &self.half else {
            out.push(half[0].re);
            return Ok(());
        };
        let h = self.n / 2;
        // Merge: fold the Nyquist bin into Z[0], then reverse the split
        // butterflies pairwise. mul_i(c) = i·c.
        let mul_i = |c: Complex| Complex::new(-c.im, c.re);
        let a = half[0];
        let b = half[h];
        let xe = (a + b.conj()).scale(0.5);
        let xo = (a - b.conj()).scale(0.5);
        half[0] = xe + mul_i(xo);
        for k in 1..=h / 2 {
            let a = half[k];
            let b = half[h - k];
            let xe = (a + b.conj()).scale(0.5);
            let t = (a - b.conj()).scale(0.5);
            let xo = self.split[k].conj() * t;
            half[k] = xe + mul_i(xo);
            half[h - k] = xe.conj() + mul_i(xo.conj());
        }
        half_plan.ifft(&mut half[..h])?;
        out.reserve(self.n);
        for z in &half[..h] {
            out.push(z.re);
            out.push(z.im);
        }
        Ok(())
    }
}

/// A memo of [`FftPlan`]s keyed by transform length.
///
/// Sessions touch only a handful of distinct sizes (the padded
/// correlation length, the STFT frame, the spectrum pad), so a linear
/// scan over an ordered small vector beats hashing.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    plans: Vec<Arc<FftPlan>>,
    real_plans: Vec<Arc<RealFftPlan>>,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for length `n`, building and memoizing it on first use.
    ///
    /// The lookup is two-level: the cache's own lock-free vector first,
    /// then the process-wide [shared registry](shared_plan). A plan
    /// another thread already built is therefore reused (`Arc`-cloned),
    /// never rebuilt — twiddle and bit-reversal tables are immutable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::new`].
    pub fn plan(&mut self, n: usize) -> Result<Arc<FftPlan>, DspError> {
        if let Some(p) = self.plans.iter().find(|p| p.len() == n) {
            return Ok(Arc::clone(p));
        }
        let plan = shared_plan(n)?;
        self.plans.push(Arc::clone(&plan));
        Ok(plan)
    }

    /// The real-input plan for length `n`, building and memoizing it on
    /// first use (two-level lookup, like [`PlanCache::plan`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealFftPlan::new`].
    pub fn real_plan(&mut self, n: usize) -> Result<Arc<RealFftPlan>, DspError> {
        if let Some(p) = self.real_plans.iter().find(|p| p.len() == n) {
            return Ok(Arc::clone(p));
        }
        let plan = shared_real_plan(n)?;
        self.real_plans.push(Arc::clone(&plan));
        Ok(plan)
    }

    /// The number of distinct complex sizes planned so far.
    #[must_use]
    pub fn size_count(&self) -> usize {
        self.plans.len()
    }

    /// The number of distinct real-input sizes planned so far.
    #[must_use]
    pub fn real_size_count(&self) -> usize {
        self.real_plans.len()
    }
}

/// The process-wide table of immutable plan tables behind every
/// [`PlanCache`]: twiddle factors, bit-reversal permutations and packed
/// real-FFT split tables are read-only after construction, so parallel
/// workers share one `Arc` per size instead of each rebuilding (and
/// separately storing) identical tables.
struct SharedPlans {
    plans: Vec<Arc<FftPlan>>,
    real_plans: Vec<Arc<RealFftPlan>>,
}

static SHARED_PLANS: OnceLock<Mutex<SharedPlans>> = OnceLock::new();
/// Requests served from an already-built shared table (cross-thread or
/// cross-cache reuse).
static SHARED_HITS: AtomicU64 = AtomicU64::new(0);
/// Requests that had to build a fresh table.
static SHARED_MISSES: AtomicU64 = AtomicU64::new(0);

fn shared_tables() -> &'static Mutex<SharedPlans> {
    SHARED_PLANS.get_or_init(|| {
        Mutex::new(SharedPlans {
            plans: Vec::new(),
            real_plans: Vec::new(),
        })
    })
}

/// The process-shared plan for length `n`, building it on first use.
///
/// Construction happens under the registry lock, so concurrent first
/// requests for one size build its tables exactly once. Plans are built
/// by [`FftPlan::new`] and therefore bit-identical to privately built
/// ones — sharing never changes numerics.
///
/// # Errors
///
/// Same conditions as [`FftPlan::new`].
pub fn shared_plan(n: usize) -> Result<Arc<FftPlan>, DspError> {
    let mut tables = shared_tables()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = tables.plans.iter().find(|p| p.len() == n) {
        SHARED_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(p));
    }
    let plan = Arc::new(FftPlan::new(n)?);
    SHARED_MISSES.fetch_add(1, Ordering::Relaxed);
    tables.plans.push(Arc::clone(&plan));
    Ok(plan)
}

/// The process-shared real-input plan for length `n` (see
/// [`shared_plan`]).
///
/// # Errors
///
/// Same conditions as [`RealFftPlan::new`].
pub fn shared_real_plan(n: usize) -> Result<Arc<RealFftPlan>, DspError> {
    let mut tables = shared_tables()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = tables.real_plans.iter().find(|p| p.len() == n) {
        SHARED_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(p));
    }
    let plan = Arc::new(RealFftPlan::new(n)?);
    SHARED_MISSES.fetch_add(1, Ordering::Relaxed);
    tables.real_plans.push(Arc::clone(&plan));
    Ok(plan)
}

/// Cumulative count of plan requests served from the shared registry
/// without building anything — the observable proof that parallel
/// workers reuse tables instead of rebuilding them.
#[must_use]
pub fn shared_plan_hits() -> u64 {
    SHARED_HITS.load(Ordering::Relaxed)
}

/// Cumulative count of plan requests that built a fresh table (one per
/// distinct size per process, regardless of thread count).
#[must_use]
pub fn shared_plan_misses() -> u64 {
    SHARED_MISSES.load(Ordering::Relaxed)
}

/// A reusable buffer arena for the planned DSP paths.
///
/// The planned variants of `xcorr`, `stft` and `power_spectrum` borrow
/// their working storage from here instead of allocating. Buffers grow to
/// the high-water mark of the sizes seen and are then reused, so a warm
/// scratch makes the steady-state hot path allocation-free (pinned by the
/// `alloc_steady_state` test).
#[derive(Debug, Clone, Default)]
pub struct DspScratch {
    /// Primary complex workspace (signal spectra, in-place transforms).
    pub c1: Vec<Complex>,
    /// Secondary complex workspace (template spectra, products).
    pub c2: Vec<Complex>,
    /// Real workspace (windowed frames, intermediate magnitudes).
    pub r1: Vec<f64>,
}

impl DspScratch {
    /// An empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        DspScratch::default()
    }

    /// Total capacity currently held, in bytes (diagnostic).
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.c1.capacity() * std::mem::size_of::<Complex>()
            + self.c2.capacity() * std::mem::size_of::<Complex>()
            + self.r1.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_rejects_invalid_sizes() {
        assert!(matches!(FftPlan::new(0), Err(DspError::EmptyInput { .. })));
        assert!(matches!(
            FftPlan::new(12),
            Err(DspError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn plan_matches_one_shot_fft_bitwise() {
        for &n in &[1usize, 2, 8, 64, 256] {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut planned = data.clone();
            let mut oneshot = data.clone();
            let plan = FftPlan::new(n).unwrap();
            plan.fft(&mut planned).unwrap();
            crate::fft::fft(&mut oneshot).unwrap();
            assert_eq!(planned, oneshot, "forward n={n}");
            plan.ifft(&mut planned).unwrap();
            crate::fft::ifft(&mut oneshot).unwrap();
            assert_eq!(planned, oneshot, "inverse n={n}");
        }
    }

    #[test]
    fn dif_is_bit_reversed_fft_and_dit_inverts_it_unscaled() {
        for &n in &[1usize, 2, 4, 8, 32, 128, 512] {
            let data: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let plan = FftPlan::new(n).unwrap();
            let mut ordered = data.clone();
            plan.fft(&mut ordered).unwrap();
            let mut dif = data.clone();
            plan.dif(&mut dif);
            for (i, &j) in plan.bit_rev.iter().enumerate() {
                assert_eq!(dif[i], ordered[j], "n={n} position {i}");
            }
            plan.dit(&mut dif);
            for (a, b) in dif.iter().zip(&data) {
                let d = *a - b.scale(n as f64);
                assert!(d.abs() < 1e-12 * n as f64, "n={n}: {a:?} vs {n}·{b:?}");
            }
        }
    }

    #[test]
    fn plan_length_is_enforced() {
        let plan = FftPlan::new(8).unwrap();
        let mut wrong = vec![Complex::ZERO; 4];
        assert!(plan.fft(&mut wrong).is_err());
        assert!(plan.ifft(&mut wrong).is_err());
        assert_eq!(plan.len(), 8);
        assert!(!plan.is_empty());
    }

    #[test]
    fn rfft_into_matches_one_shot_and_reuses_capacity() {
        let signal: Vec<f64> = (0..100).map(|i| (i as f64 * 0.21).sin()).collect();
        let plan = FftPlan::new(128).unwrap();
        let mut out = Vec::new();
        plan.rfft_into(&signal, &mut out).unwrap();
        let reference = crate::fft::rfft(&signal, 128).unwrap();
        assert_eq!(out, reference);
        let ptr = out.as_ptr();
        plan.rfft_into(&signal, &mut out).unwrap();
        assert_eq!(ptr, out.as_ptr(), "capacity must be reused");
        assert!(plan.rfft_into(&[], &mut out).is_err());
        assert!(plan.rfft_into(&vec![0.0; 200], &mut out).is_err());
    }

    #[test]
    fn cache_memoizes_per_size() {
        let mut cache = PlanCache::new();
        let a = cache.plan(64).unwrap();
        let b = cache.plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _ = cache.plan(128).unwrap();
        assert_eq!(cache.size_count(), 2);
        assert!(cache.plan(10).is_err());
    }

    #[test]
    fn thread_ctx_memoizes_across_calls() {
        // Two separate borrows of the thread context see the same cache:
        // the second call must not grow the size count.
        let count0 = with_thread_ctx(|plans, _| {
            plans.plan(32).unwrap();
            plans.size_count()
        });
        let count1 = with_thread_ctx(|plans, _| {
            plans.plan(32).unwrap();
            plans.size_count()
        });
        assert_eq!(count0, count1);
    }

    #[test]
    fn rfft_half_matches_full_transform() {
        for &n in &[1usize, 2, 4, 8, 64, 256, 1024] {
            let signal: Vec<f64> = (0..n.min(3 * n / 4 + 1))
                .map(|i| (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 0.011).cos())
                .collect();
            let rplan = RealFftPlan::new(n).unwrap();
            let mut half = Vec::new();
            rplan.rfft_half_into(&signal, &mut half).unwrap();
            assert_eq!(half.len(), rplan.num_bins());
            let full = crate::fft::rfft(&signal, n).unwrap();
            for (k, bin) in half.iter().enumerate() {
                let d = *bin - full[k];
                assert!(
                    d.abs() < 1e-9 * (1.0 + full[k].abs()),
                    "n={n} bin {k}: {bin:?} vs {:?}",
                    full[k]
                );
            }
            // Round trip back to the padded signal.
            let mut back = Vec::new();
            rplan.irfft_half_into(&mut half, &mut back).unwrap();
            assert_eq!(back.len(), n);
            for (i, &x) in back.iter().enumerate() {
                let want = signal.get(i).copied().unwrap_or(0.0);
                assert!((x - want).abs() < 1e-10, "n={n} sample {i}: {x} vs {want}");
            }
        }
    }

    #[test]
    fn real_plan_rejects_invalid_sizes_and_inputs() {
        assert!(matches!(
            RealFftPlan::new(0),
            Err(DspError::EmptyInput { .. })
        ));
        assert!(matches!(
            RealFftPlan::new(12),
            Err(DspError::InvalidParameter { .. })
        ));
        let rplan = RealFftPlan::new(8).unwrap();
        assert_eq!(rplan.len(), 8);
        assert!(!rplan.is_empty());
        let mut out = Vec::new();
        assert!(rplan.rfft_half_into(&[], &mut out).is_err());
        assert!(rplan.rfft_half_into(&[0.0; 9], &mut out).is_err());
        let mut wrong = vec![Complex::ZERO; 3];
        assert!(rplan.irfft_half_into(&mut wrong, &mut Vec::new()).is_err());
    }

    #[test]
    fn half_spectrum_view_accessors() {
        let signal: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        let rplan = RealFftPlan::new(16).unwrap();
        let mut half = Vec::new();
        rplan.rfft_half_into(&signal, &mut half).unwrap();
        let view = HalfSpectrum::new(&half).unwrap();
        assert_eq!(view.num_bins(), 9);
        assert_eq!(view.fft_len(), 16);
        assert_eq!(view.dc(), half[0]);
        assert_eq!(view.nyquist(), half[8]);
        let full = crate::fft::rfft(&signal, 16).unwrap();
        for (k, &reference) in full.iter().enumerate() {
            let d = view.bin(k) - reference;
            assert!(d.abs() < 1e-9, "bin {k}");
        }
        assert_eq!(HalfSpectrum::new(&half[..1]).unwrap().fft_len(), 1);
        assert!(HalfSpectrum::new(&[]).is_err());
        assert!(HalfSpectrum::new(&half[..4]).is_err()); // 3 not a pow2
    }

    #[test]
    fn cache_memoizes_real_plans() {
        let mut cache = PlanCache::new();
        let a = cache.real_plan(64).unwrap();
        let b = cache.real_plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.real_size_count(), 1);
        assert!(cache.real_plan(10).is_err());
    }

    #[test]
    fn scratch_reports_capacity() {
        let mut scratch = DspScratch::new();
        assert_eq!(scratch.capacity_bytes(), 0);
        scratch.c1.reserve(16);
        assert!(scratch.capacity_bytes() >= 16 * std::mem::size_of::<Complex>());
        scratch.r1.reserve(8);
        assert!(scratch.capacity_bytes() >= 16 * std::mem::size_of::<Complex>() + 64);
    }

    #[test]
    fn caches_share_immutable_tables_across_threads() {
        // Deliberately unusual sizes so parallel sibling tests (which
        // share the process-wide registry) cannot interfere with the
        // identity assertions.
        let n = 1 << 13;
        let from_threads: Vec<(Arc<FftPlan>, Arc<RealFftPlan>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut cache = PlanCache::new();
                        (cache.plan(n).unwrap(), cache.real_plan(n).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (p, rp) in &from_threads[1..] {
            assert!(
                Arc::ptr_eq(p, &from_threads[0].0),
                "complex tables must be one shared allocation"
            );
            assert!(
                Arc::ptr_eq(rp, &from_threads[0].1),
                "real tables must be one shared allocation"
            );
        }
        // The hit counter observes the reuse: of the 8 requests above at
        // most 2 built tables, so at least 6 were shared-table hits.
        let before = shared_plan_hits();
        let mut cache = PlanCache::new();
        let again = cache.plan(n).unwrap();
        assert!(Arc::ptr_eq(&again, &from_threads[0].0));
        assert!(
            shared_plan_hits() > before,
            "a fresh cache's first request for a known size must count as a shared hit"
        );
        assert!(
            shared_plan_misses() >= 2,
            "both table kinds were built once"
        );
        // A second request from the *same* cache is served locally: the
        // shared counter must not move.
        let local_before = shared_plan_hits();
        let _ = cache.plan(n).unwrap();
        assert_eq!(
            shared_plan_hits(),
            local_before,
            "local fast path must not touch the registry"
        );
    }
}
