//! Planned FFT execution: precomputed twiddle/bit-reversal tables and a
//! reusable scratch arena for the session hot path.
//!
//! Every figure reproduction runs hundreds of simulated sessions, and each
//! session's matched filtering re-derives the same FFT setup (twiddle
//! factors, bit-reversal permutation) and re-allocates the same working
//! buffers on every call. A [`FftPlan`] hoists the per-size setup out of
//! the transform and a [`DspScratch`] arena lends out reusable buffers.
//!
//! Plans come from one place: the process-wide registry
//! ([`shared_real_plan`], and its complex twin inside the crate), which
//! builds each size's immutable tables once and hands every caller the
//! same `Arc`. Scratch comes from one place too: the caller. Each planned
//! function (`xcorr_into`, `envelope_with`, `stft_with`, the matched
//! filters) borrows a caller-held [`DspScratch`], so a warm arena makes it
//! allocation-free; the one-shot conveniences elsewhere in the crate
//! build a local arena per call.
//!
//! One-shot and planned calls execute through the same registry plans, so
//! they produce the same floating-point results to the last ulp (pinned by
//! the equivalence property tests in `tests/proptests.rs`). Twiddles come
//! from exact angles, not a recurrence, and the transforms are checked
//! against a direct O(n²) DFT there too.
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

/// A complex sequence held as two planes: element `k` is
/// `re[k] + i·im[k]`.
///
/// This is the layout the FFT kernel ([`FftPlan::dif`],
/// [`FftPlan::dit`]) transforms in place: with real and imaginary parts
/// in separate arrays, a butterfly's complex multiply is plain
/// lane-parallel arithmetic with no shuffles between the two parts.
#[derive(Debug, Clone, Default)]
pub struct Planes {
    /// Real parts.
    pub re: Vec<f64>,
    /// Imaginary parts.
    pub im: Vec<f64>,
}

impl Planes {
    /// The number of elements (the length of the real plane).
    pub(crate) fn len(&self) -> usize {
        self.re.len()
    }

    /// Empties both planes, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    /// Refills both planes with `n` zeros, reusing their capacity.
    pub(crate) fn zeroed(&mut self, n: usize) {
        for plane in [&mut self.re, &mut self.im] {
            plane.clear();
            plane.resize(n, 0.0);
        }
    }

    /// Element `k`.
    pub(crate) fn at(&self, k: usize) -> Complex {
        Complex::new(self.re[k], self.im[k])
    }

    /// Overwrites element `k`.
    pub(crate) fn set(&mut self, k: usize, z: Complex) {
        self.re[k] = z.re;
        self.im[k] = z.im;
    }

    /// Bytes reserved by both planes.
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.re.capacity() + self.im.capacity()) * std::mem::size_of::<f64>()
    }
}

thread_local! {
    /// The planes the interleaved [`FftPlan::fft`]/[`FftPlan::ifft`]
    /// conveniences transform in.
    static ORDERED: RefCell<Planes> = RefCell::new(Planes::default());
}

/// A precomputed execution plan for one FFT size.
///
/// Holds the bit-reversal permutation and the radix-4 twiddle factors,
/// so every transform runs the pure butterfly passes with no
/// trigonometry and no allocation.
///
/// There is one butterfly kernel, on split [`Planes`], in two
/// directions:
///
/// - [`FftPlan::dif`], the forward decimation-in-frequency pass, reads
///   natural order and leaves the spectrum in **bit-reversed** order;
/// - [`FftPlan::dit`], the inverse decimation-in-time pass with
///   conjugate twiddles, reads bit-reversed order and writes natural
///   order, unscaled.
///
/// Both are radix-4, with one twiddle-free radix-2 stage when `log2 n`
/// is odd; the last stages of a pass run as one pass over fixed-size
/// blocks. A pointwise spectral product does not care about bin order,
/// so the overlap-save correlator runs `dif → multiply → dit` with no
/// permutation at all; the ordered transforms add the one bit-reversal
/// pass that ordered spectra need.
///
/// The kernel has one source and, on x86-64, two compiled copies: the
/// build's baseline target and an AVX-512VL copy with 32 vector
/// registers instead of 16. A plan picks the copy its CPU runs when it
/// is built; both produce the same bits.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position (identity entries included).
    bit_rev: Vec<usize>,
    /// Forward twiddles: for each radix-4 stage of span `L` (`w =
    /// e^{-2πi/L}`, stages from `L = n` down), the butterfly columns `j`
    /// in `0..L/4` in groups of `G = min(L/4, 4)`, each group six runs of
    /// `G` values `[Re w^j, Im w^j, Re w^2j, Im w^2j, Re w^3j, Im w^3j]`,
    /// so a stage reads its twiddles as one stream. The inverse uses the
    /// conjugates.
    twiddles: Vec<f64>,
    /// The compiled copy of the kernel this plan's passes run, picked
    /// once from the CPU when the plan is built.
    kernel: Kernel,
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
            let q = span / 4;
            let group = q.min(4);
            for first in (0..q).step_by(group) {
                for power in 1..=3 {
                    let roots = (first..first + group).map(|j| unit_root(power * j, span));
                    twiddles.extend(roots.clone().map(|w| w.re));
                    twiddles.extend(roots.map(|w| w.im));
                }
            }
            span = q;
        }
        Ok(FftPlan {
            n,
            bit_rev,
            twiddles,
            kernel: Kernel::detect(),
        })
    }

    /// The transform length this plan was built for.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT, `X[k] = Σ_n x[n]·e^{-2πi·kn/N}`, in natural
    /// order, on an interleaved sequence. Allocation-free once the
    /// thread's plane buffers have grown to the plan length.
    ///
    /// Identical results to [`crate::fft::fft`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `data.len()` does not
    /// match the plan length.
    pub fn fft(&self, data: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(data.len())?;
        self.through_planes(data, Self::fft_split);
        Ok(())
    }

    /// In-place inverse FFT, normalized by `1/N`, on an interleaved
    /// sequence. Allocation-free once warm, like [`FftPlan::fft`].
    ///
    /// Identical results to [`crate::fft::ifft`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`FftPlan::fft`].
    pub fn ifft(&self, data: &mut [Complex]) -> Result<(), DspError> {
        self.check_len(data.len())?;
        self.through_planes(data, Self::ifft_split);
        Ok(())
    }

    /// Splits `data` into the thread's planes, runs `transform` on them
    /// and interleaves the result back.
    fn through_planes(&self, data: &mut [Complex], transform: fn(&Self, &mut [f64], &mut [f64])) {
        ORDERED.with(|planes| {
            let Planes { re, im } = &mut *planes.borrow_mut();
            re.clear();
            im.clear();
            re.extend(data.iter().map(|z| z.re));
            im.extend(data.iter().map(|z| z.im));
            transform(self, re, im);
            for ((z, &r), &i) in data.iter_mut().zip(re.iter()).zip(im.iter()) {
                *z = Complex::new(r, i);
            }
        });
    }

    /// The forward FFT in natural order on planes of the plan length:
    /// [`FftPlan::dif`] and one bit-reversal pass.
    pub(crate) fn fft_split(&self, re: &mut [f64], im: &mut [f64]) {
        self.dif(re, im);
        self.permute(re, im);
    }

    /// The inverse FFT, normalized by `1/N`, on planes of the plan
    /// length: one bit-reversal pass and [`FftPlan::dit`].
    pub(crate) fn ifft_split(&self, re: &mut [f64], im: &mut [f64]) {
        self.permute(re, im);
        self.dit(re, im);
        let k = 1.0 / self.n as f64;
        for x in re.iter_mut().chain(im.iter_mut()) {
            *x *= k;
        }
    }

    /// Forward FFT of a real signal zero-padded to the plan length,
    /// written into `out` (cleared and resized; its capacity is reused).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidParameter`] when the signal exceeds the plan
    /// length.
    pub(crate) fn rfft_into(&self, signal: &[f64], out: &mut Vec<Complex>) -> Result<(), DspError> {
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
    fn permute(&self, re: &mut [f64], im: &mut [f64]) {
        for (i, &j) in self.bit_rev.iter().enumerate() {
            if j > i {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
    }

    /// The four-column twiddle groups of the stage that starts at
    /// `offset` in the table, up to the end of the table (see [`stage`]
    /// for why it is not cut to the stage's length).
    fn stage(&self, offset: usize) -> &[[[f64; 4]; 6]] {
        self.twiddles[offset..].as_chunks().0.as_chunks().0
    }

    /// Forward decimation-in-frequency pass on planes of the plan
    /// length: natural order in, bit-reversed spectrum out, unscaled.
    ///
    /// Each radix-4 stage of span `L` splits every `L`-block into four
    /// quarters walked in lockstep with the stage's twiddles. The two
    /// middle outputs are stored swapped — the `(X₀, X₂, X₁, X₃)` order
    /// of two merged radix-2 stages — which is what makes the overall
    /// output order bit-reversed rather than base-4 digit-reversed. The
    /// stages run one by one down to span 32 (odd `log2 n`) or 16
    /// (even); the rest is one pass over 8- or 4-point blocks.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from the plan length.
    pub fn dif(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_planes(re, im);
        self.forward(re, im, None);
    }

    /// [`FftPlan::dif`] of the sequence `src_re + i·src_im`, written to
    /// the planes `re`/`im` and leaving the source untouched: the same
    /// bits as copying the source into the planes and running `dif`
    /// there. The first stage reads its quarters from the source and
    /// writes the planes; the rest runs in place. The overlap-save
    /// correlator forwards a block pair this way straight from the
    /// signal, with no packing copy.
    ///
    /// # Panics
    ///
    /// Panics if any of the four slices' lengths differs from the plan
    /// length.
    pub(crate) fn dif_from(&self, src_re: &[f64], src_im: &[f64], re: &mut [f64], im: &mut [f64]) {
        self.check_planes(src_re, src_im);
        self.check_planes(re, im);
        self.forward(re, im, Some((src_re, src_im)));
    }

    /// The stages of [`FftPlan::dif`] on `re`/`im`, the first one reading
    /// `src` instead when it is given (copied in first when no stage
    /// precedes the tail).
    fn forward(&self, re: &mut [f64], im: &mut [f64], mut src: Source<'_>) {
        let mut span = self.n;
        let mut offset = 0;
        while span > self.tail_span() {
            let q = span / 4;
            self.kernel
                .stage::<false>(re, im, q, self.stage(offset), src.take());
            offset += 6 * q;
            span = q;
        }
        if let Some((src_re, src_im)) = src {
            re.copy_from_slice(src_re);
            im.copy_from_slice(src_im);
        }
        self.kernel.tail::<false>(self, re, im, offset);
    }

    /// Inverse decimation-in-time pass on planes of the plan length:
    /// bit-reversed spectrum in, natural order out, **unscaled** (the
    /// caller owns the `1/N`). Exactly the transpose of
    /// [`FftPlan::dif`]: the same stages in reverse order with
    /// conjugated twiddles, the tail first.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from the plan length.
    pub fn dit(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_planes(re, im);
        let mut offset = self.twiddles.len() - self.tail_len();
        self.kernel.tail::<true>(self, re, im, offset);
        let mut span = 4 * self.tail_span();
        while span <= self.n {
            let q = span / 4;
            offset -= 6 * q;
            self.kernel
                .stage::<true>(re, im, q, self.stage(offset), None);
            span *= 4;
        }
    }

    /// The span of the first stage [`FftPlan::tail`] runs: 4 when
    /// `log2 n` is even and 8 when it is odd (`n` itself below that).
    fn tail_span(&self) -> usize {
        match self.n {
            n @ ..=4 => n,
            n if n.trailing_zeros() % 2 == 1 => 8,
            _ => 4,
        }
    }

    /// The twiddle entries of the stages [`FftPlan::tail`] runs: the
    /// end of the table.
    fn tail_len(&self) -> usize {
        match self.tail_span() {
            8 => 6 * 2,
            4 => 6,
            _ => 0,
        }
    }

    /// The last stages of [`FftPlan::dif`] (the first of [`FftPlan::dit`])
    /// as one pass over fixed-size blocks, their twiddles starting at
    /// `offset`: span 8 and the twiddle-free radix-2 stage fused over
    /// 8-blocks ([`tail8`]) when `log2 n` is odd, the span-4 stage over
    /// 4-blocks when it is even (the span-16 stage before it is a
    /// [`stage`]), the radix-2 stage at `n = 2`, nothing at `n = 1`.
    ///
    /// LLVM vectorizes both block loops across blocks. It takes the
    /// 4-block loop four blocks at a time as one interleaved group: it
    /// loads them whole, transposes them in registers so lane `k` holds
    /// block `k`, runs the butterfly and transposes back, with no gather.
    /// Inlined only into its out-of-line copies, one per [`Kernel`], like
    /// [`stage`].
    #[inline(always)]
    fn tail<const DIT: bool>(&self, re: &mut [f64], im: &mut [f64], offset: usize) {
        match self.tail_span() {
            8 => {
                let w8 = self.fixed(offset);
                let blocks = re.as_chunks_mut().0.iter_mut().zip(im.as_chunks_mut().0);
                for (r, i) in blocks {
                    tail8::<DIT>(r, i, &w8);
                }
            }
            4 => {
                let w4 = self.fixed(offset);
                let blocks = re.as_chunks_mut().0.iter_mut().zip(im.as_chunks_mut().0);
                for (r, i) in blocks {
                    butterfly::<1, DIT, 4>(r, i, &w4);
                }
            }
            2 => {
                radix2(&mut re.as_chunks_mut().0[0]);
                radix2(&mut im.as_chunks_mut().0[0]);
            }
            _ => {}
        }
    }

    /// The six twiddle planes of the `L`-column stage at `offset` as
    /// fixed arrays, loaded once per pass.
    fn fixed<const L: usize>(&self, offset: usize) -> [[f64; L]; 6] {
        let planes = self.twiddles[offset..][..6 * L].as_chunks().0;
        planes.as_chunks().0[0]
    }

    fn check_planes(&self, re: &[f64], im: &[f64]) {
        assert!(
            re.len() == self.n && im.len() == self.n,
            "plan built for length {}, got planes of {} and {}",
            self.n,
            re.len(),
            im.len()
        );
    }
}

/// Which compiled copy of the kernel ([`stage`] and [`FftPlan::tail`])
/// a plan runs. Each copy is the same source compiled out of line for a
/// different target, so both give the same bits: the operations and
/// their order are fixed by the source, vector lanes round like
/// scalars, and Rust contracts no `a·b + c` into a fused multiply-add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The build's baseline target: on x86-64, SSE2 and 16 vector
    /// registers, two per `[f64; 4]` lane array.
    Baseline,
    /// AVX-512F and AVX-512VL: each `[f64; 4]` lane array in one 256-bit
    /// register, 32 of them, so the butterflies' live values fit without
    /// spilling. Only [`Kernel::detect`] makes this value, and only when
    /// the CPU reports both features.
    #[cfg(target_arch = "x86_64")]
    Avx512Vl,
}

impl Kernel {
    /// The fastest copy this CPU runs.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512vl") {
            return Kernel::Avx512Vl;
        }
        Kernel::Baseline
    }

    /// One radix-4 [`stage`] in this copy, reading `src` when given.
    fn stage<const DIT: bool>(
        self,
        re: &mut [f64],
        im: &mut [f64],
        q: usize,
        tw: &[[[f64; 4]; 6]],
        src: Source<'_>,
    ) {
        match self {
            Kernel::Baseline => stage_baseline::<DIT>(re, im, q, tw, src),
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Kernel::Avx512Vl => {
                // SAFETY: `Kernel::Avx512Vl` is made only by
                // `Kernel::detect`, after `is_x86_feature_detected!`
                // reported both `avx512f` and `avx512vl` on this CPU: the
                // features the copy is compiled for.
                unsafe { stage_avx512vl::<DIT>(re, im, q, tw, src) }
            }
        }
    }

    /// The fused [`FftPlan::tail`] of `plan` in this copy.
    fn tail<const DIT: bool>(self, plan: &FftPlan, re: &mut [f64], im: &mut [f64], offset: usize) {
        match self {
            Kernel::Baseline => tail_baseline::<DIT>(plan, re, im, offset),
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            Kernel::Avx512Vl => {
                // SAFETY: `Kernel::Avx512Vl` is made only by
                // `Kernel::detect`, after `is_x86_feature_detected!`
                // reported both `avx512f` and `avx512vl` on this CPU: the
                // features the copy is compiled for.
                unsafe { tail_avx512vl::<DIT>(plan, re, im, offset) }
            }
        }
    }
}

/// [`stage`] compiled for the baseline target.
#[inline(never)]
fn stage_baseline<const DIT: bool>(
    re: &mut [f64],
    im: &mut [f64],
    q: usize,
    tw: &[[[f64; 4]; 6]],
    src: Source<'_>,
) {
    stage::<DIT>(re, im, q, tw, src);
}

/// [`stage`] compiled with AVX-512F and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn stage_avx512vl<const DIT: bool>(
    re: &mut [f64],
    im: &mut [f64],
    q: usize,
    tw: &[[[f64; 4]; 6]],
    src: Source<'_>,
) {
    stage::<DIT>(re, im, q, tw, src);
}

/// [`FftPlan::tail`] compiled for the baseline target.
#[inline(never)]
fn tail_baseline<const DIT: bool>(plan: &FftPlan, re: &mut [f64], im: &mut [f64], offset: usize) {
    plan.tail::<DIT>(re, im, offset);
}

/// [`FftPlan::tail`] compiled with AVX-512F and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn tail_avx512vl<const DIT: bool>(plan: &FftPlan, re: &mut [f64], im: &mut [f64], offset: usize) {
    plan.tail::<DIT>(re, im, offset);
}

/// The real and imaginary planes a [`stage`] reads instead of its own,
/// if any: the source of [`FftPlan::dif_from`]'s first stage.
type Source<'a> = Option<(&'a [f64], &'a [f64])>;

/// The four quarters of one radix-4 block as `cols` lane arrays each.
#[inline]
fn quarters(block: &mut [f64], cols: usize) -> [&mut [[f64; 4]]; 4] {
    let (a, rest) = block.as_chunks_mut::<4>().0.split_at_mut(cols);
    let (b, rest) = rest.split_at_mut(cols);
    let (c, d) = rest.split_at_mut(cols);
    [a, b, c, &mut d[..cols]]
}

/// [`quarters`] of a block that is only read.
#[inline]
fn source_quarters(block: &[f64], cols: usize) -> [&[[f64; 4]]; 4] {
    let (a, rest) = block.as_chunks::<4>().0.split_at(cols);
    let (b, rest) = rest.split_at(cols);
    let (c, d) = rest.split_at(cols);
    [a, b, c, &d[..cols]]
}

/// One radix-4 stage with `q ≥ 4` butterfly columns over every
/// `4q`-block of the planes, four columns at a time: [`butterfly_at`] in
/// the direction `DIT` on `[f64; 4]` lane arrays, with the columns'
/// twiddle groups `tw`.
///
/// The quarters are walked as lane arrays of `q / 4` elements, so their
/// accesses carry no bounds checks, and the arithmetic vectorizes across
/// the lanes, two SSE2 registers per lane array. The twiddle group is
/// indexed with one bounds check on purpose: `tw` runs to the end of the
/// table, so the check stays, and it keeps the column loop a loop with
/// two exits, which LLVM's loop vectorizer leaves alone. Vectorized
/// across columns (as it does once every check is gone), the loop pairs
/// up iterations and de-interleaves every load and store: the transforms
/// then measured 4–29% slower than the closure-generic kernel this one
/// replaced, where with the check they measure 10–34% faster (DESIGN.md,
/// "The FFT kernel"). Inlined only into its out-of-line copies, one per
/// [`Kernel`], so the loop compiles the same whatever inlines the pass.
///
/// With a source `src` the stage reads each block's quarters from the
/// source's blocks and writes the planes, running the same butterfly on
/// each column's inputs: the first stage of [`FftPlan::dif_from`].
#[inline(always)]
fn stage<const DIT: bool>(
    re: &mut [f64],
    im: &mut [f64],
    q: usize,
    tw: &[[[f64; 4]; 6]],
    src: Source<'_>,
) {
    let cols = q / 4;
    let blocks = re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q));
    let Some((src_re, src_im)) = src else {
        for (br, bi) in blocks {
            let [r0, r1, r2, r3] = quarters(br, cols);
            let [i0, i1, i2, i3] = quarters(bi, cols);
            for c in 0..cols {
                let r = [&mut r0[c], &mut r1[c], &mut r2[c], &mut r3[c]];
                let i = [&mut i0[c], &mut i1[c], &mut i2[c], &mut i3[c]];
                butterfly_at::<4, DIT>(r, i, tw[c].each_ref());
            }
        }
        return;
    };
    let sources = src_re.chunks_exact(4 * q).zip(src_im.chunks_exact(4 * q));
    for ((br, bi), (sr, si)) in blocks.zip(sources) {
        let [r0, r1, r2, r3] = quarters(br, cols);
        let [i0, i1, i2, i3] = quarters(bi, cols);
        let [s0, s1, s2, s3] = source_quarters(sr, cols);
        let [t0, t1, t2, t3] = source_quarters(si, cols);
        for c in 0..cols {
            let (mut r, mut i) = ([s0[c], s1[c], s2[c], s3[c]], [t0[c], t1[c], t2[c], t3[c]]);
            butterfly_at::<4, DIT>(r.each_mut(), i.each_mut(), tw[c].each_ref());
            [r0[c], r1[c], r2[c], r3[c]] = r;
            [i0[c], i1[c], i2[c], i3[c]] = i;
        }
    }
}

/// The fused span-8 radix-4 and radix-2 stages on one 8-block: the
/// block's quarters are the two-column lane arrays `[0, 1]`, `[2, 3]`,
/// `[4, 5]`, `[6, 7]`, and the radix-2 stage pairs the two columns of
/// each quarter (after the radix-4 butterfly in [`FftPlan::dif`], before
/// it in [`FftPlan::dit`]).
#[inline(always)]
fn tail8<const DIT: bool>(r: &mut [f64; 8], i: &mut [f64; 8], w8: &[[f64; 2]; 6]) {
    if DIT {
        r.as_chunks_mut().0.iter_mut().for_each(radix2);
        i.as_chunks_mut().0.iter_mut().for_each(radix2);
    }
    butterfly::<2, DIT, 8>(r, i, w8);
    if !DIT {
        r.as_chunks_mut().0.iter_mut().for_each(radix2);
        i.as_chunks_mut().0.iter_mut().for_each(radix2);
    }
}

/// [`butterfly_at`] on one block of four `L`-column quarters (`B = 4L`).
#[inline(always)]
fn butterfly<const L: usize, const DIT: bool, const B: usize>(
    r: &mut [f64; B],
    i: &mut [f64; B],
    w: &[[f64; L]; 6],
) {
    let [r0, r1, r2, r3] = r.as_chunks_mut::<L>().0 else {
        unreachable!("a radix-4 block is four quarters");
    };
    let [i0, i1, i2, i3] = i.as_chunks_mut::<L>().0 else {
        unreachable!("a radix-4 block is four quarters");
    };
    butterfly_at::<L, DIT>([r0, r1, r2, r3], [i0, i1, i2, i3], w.each_ref());
}

/// One radix-4 butterfly in place on `L` columns: the real parts `r` and
/// imaginary parts `i` of the four quarters, the twiddles `w` as planes
/// `[Re w^j, Im w^j, Re w^2j, Im w^2j, Re w^3j, Im w^3j]`.
///
/// Decimation in frequency (`DIT` false), per element exactly the
/// complex `s02 = x0 + x2`, `d02 = x0 − x2`, `s13 = x1 + x3`,
/// `d13 = i·(x1 − x3)`, then `(s02 + s13, (s02 − s13)·w^2j,
/// (d02 − d13)·w^j, (d02 + d13)·w^3j)`, written out on components
/// (`i·(a + ib) = −b + ia`). The two middle outputs land swapped, the
/// order that makes the spectrum bit-reversed.
///
/// Decimation in time (`DIT` true), the transpose: `t1 = x1·conj(w^2j)`,
/// `t2 = x2·conj(w^j)`, `t3 = x3·conj(w^3j)`, `s = x0 + t1`,
/// `d = x0 − t1`, `s23 = t2 + t3`, `d23 = i·(t2 − t3)`, then
/// `(s + s23, d + d23, s − s23, d − d23)`, the product by `conj(w)`
/// written `xr·wr − xi·(−wi)`, `xr·(−wi) + xi·wr`.
///
/// Each output pair is stored as soon as it is computed and each
/// twiddle pair is loaded next to its multiply, so few values are live
/// at once (see DESIGN.md, "The FFT kernel").
#[inline(always)]
fn butterfly_at<const L: usize, const DIT: bool>(
    r: [&mut [f64; L]; 4],
    i: [&mut [f64; L]; 4],
    w: [&[f64; L]; 6],
) {
    let [r0, r1, r2, r3] = r;
    let [i0, i1, i2, i3] = i;
    let [w1r, w1i, w2r, w2i, w3r, w3i] = w;
    if DIT {
        let (t1r, t1i) = mul(*r1, *i1, *w2r, neg(*w2i));
        let (sr, si) = (add(*r0, t1r), add(*i0, t1i));
        let (dr, di) = (sub(*r0, t1r), sub(*i0, t1i));
        let (t2r, t2i) = mul(*r2, *i2, *w1r, neg(*w1i));
        let (t3r, t3i) = mul(*r3, *i3, *w3r, neg(*w3i));
        let (s23r, s23i) = (add(t2r, t3r), add(t2i, t3i));
        (*r0, *i0) = (add(sr, s23r), add(si, s23i));
        (*r2, *i2) = (sub(sr, s23r), sub(si, s23i));
        let (d23r, d23i) = (neg(sub(t2i, t3i)), sub(t2r, t3r));
        (*r1, *i1) = (add(dr, d23r), add(di, d23i));
        (*r3, *i3) = (sub(dr, d23r), sub(di, d23i));
    } else {
        let (s02r, s02i) = (add(*r0, *r2), add(*i0, *i2));
        let (d02r, d02i) = (sub(*r0, *r2), sub(*i0, *i2));
        let (s13r, s13i) = (add(*r1, *r3), add(*i1, *i3));
        let (d13r, d13i) = (neg(sub(*i1, *i3)), sub(*r1, *r3));
        (*r0, *i0) = (add(s02r, s13r), add(s02i, s13i));
        (*r1, *i1) = mul(sub(s02r, s13r), sub(s02i, s13i), *w2r, *w2i);
        (*r2, *i2) = mul(sub(d02r, d13r), sub(d02i, d13i), *w1r, *w1i);
        (*r3, *i3) = mul(add(d02r, d13r), add(d02i, d13i), *w3r, *w3i);
    }
}

#[inline(always)]
fn add<const L: usize>(a: [f64; L], b: [f64; L]) -> [f64; L] {
    std::array::from_fn(|l| a[l] + b[l])
}

#[inline(always)]
fn sub<const L: usize>(a: [f64; L], b: [f64; L]) -> [f64; L] {
    std::array::from_fn(|l| a[l] - b[l])
}

#[inline(always)]
fn neg<const L: usize>(a: [f64; L]) -> [f64; L] {
    a.map(|x| -x)
}

/// `(ar + i·ai)·(wr + i·wi)` per lane, as `(ar·wr − ai·wi, ar·wi + ai·wr)`.
#[inline(always)]
fn mul<const L: usize>(
    ar: [f64; L],
    ai: [f64; L],
    wr: [f64; L],
    wi: [f64; L],
) -> ([f64; L], [f64; L]) {
    (
        std::array::from_fn(|l| ar[l] * wr[l] - ai[l] * wi[l]),
        std::array::from_fn(|l| ar[l] * wi[l] + ai[l] * wr[l]),
    )
}

/// The twiddle-free radix-2 butterfly `(a, b) → (a + b, a − b)`: the
/// whole transform at `n = 2` and the last (first) stage of [`tail8`].
#[inline(always)]
fn radix2(pair: &mut [f64; 2]) {
    let [a, b] = *pair;
    *pair = [a + b, a - b];
}
/// `e^{-2πi·k/n}`, computed from the exact angle (no recurrence, so no
/// error accumulates across a stage's twiddles).
fn unit_root(k: usize, n: usize) -> Complex {
    Complex::from_angle(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
}

/// A precomputed plan for real-input transforms of length `n`.
///
/// Deinterleaves the `n` real samples into the two planes of an
/// `n/2`-point complex FFT (`z[k] = x[2k] + i·x[2k+1]`) and recovers the
/// `n/2 + 1` half-spectrum with a conjugate-symmetric split pass —
/// roughly half the butterflies and half the scratch of the equivalent
/// full transform. The simulator's mic equalization, the STFT, the
/// periodogram, the estimators and the one-shot
/// [`crate::correlate::xcorr`] use it; the overlap-save matched filter
/// does not (it packs two real *blocks* into one complex transform
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
    pub(crate) fn new(n: usize) -> Result<Self, DspError> {
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
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The number of half-spectrum bins produced: `n/2 + 1`.
    #[must_use]
    pub(crate) fn num_bins(&self) -> usize {
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
    /// Runs one `n/2`-point complex FFT on the deinterleaved samples
    /// plus an `O(n)` conjugate-symmetric split pass.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty signal and
    /// [`DspError::InvalidParameter`] when the signal exceeds the plan
    /// length.
    pub fn rfft_half_into(&self, signal: &[f64], out: &mut Planes) -> Result<(), DspError> {
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
            out.re.push(signal[0]);
            out.im.push(0.0);
            return Ok(());
        };
        let h = self.n / 2;
        // All n/2 + 1 bins up front, so pushing the Nyquist bin after the
        // packed transform never doubles a fresh buffer's capacity.
        out.re.reserve(h + 1);
        out.im.reserve(h + 1);
        // Deinterleave: even samples into re, odd into im (zero-padded).
        let at = |j: usize| signal.get(j).copied().unwrap_or(0.0);
        out.re.extend((0..h).map(|k| at(2 * k)));
        out.im.extend((0..h).map(|k| at(2 * k + 1)));
        half_plan.fft_split(&mut out.re, &mut out.im);
        // Split: DC and Nyquist come from Z[0] alone; interior pairs
        // (k, h−k) combine Z[k] and conj(Z[h−k]) with one twiddle.
        let z0 = out.at(0);
        out.re.push(z0.re - z0.im);
        out.im.push(0.0);
        out.set(0, Complex::from_real(z0.re + z0.im));
        for k in 1..=h / 2 {
            let a = out.at(k);
            let b = out.at(h - k);
            let xe = (a + b.conj()).scale(0.5);
            let xo = (a - b.conj()) * Complex::new(0.0, -0.5);
            let t = self.split[k] * xo;
            out.set(k, xe + t);
            out.set(h - k, (xe - t).conj());
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
    /// Returns [`DspError::InvalidParameter`] if either plane of `half`
    /// does not hold `num_bins()` bins.
    pub fn irfft_half_into(&self, half: &mut Planes, out: &mut Vec<f64>) -> Result<(), DspError> {
        if half.re.len() != self.num_bins() || half.im.len() != self.num_bins() {
            return Err(DspError::invalid(
                "half.len()",
                format!(
                    "plan for length {} expects {} bins, got {} and {}",
                    self.n,
                    self.num_bins(),
                    half.re.len(),
                    half.im.len()
                ),
            ));
        }
        out.clear();
        let Some(half_plan) = &self.half else {
            out.push(half.re[0]);
            return Ok(());
        };
        let h = self.n / 2;
        // Merge: fold the Nyquist bin into Z[0], then reverse the split
        // butterflies pairwise. mul_i(c) = i·c.
        let mul_i = |c: Complex| Complex::new(-c.im, c.re);
        let a = half.at(0);
        let b = half.at(h);
        let xe = (a + b.conj()).scale(0.5);
        let xo = (a - b.conj()).scale(0.5);
        half.set(0, xe + mul_i(xo));
        for k in 1..=h / 2 {
            let a = half.at(k);
            let b = half.at(h - k);
            let xe = (a + b.conj()).scale(0.5);
            let t = (a - b.conj()).scale(0.5);
            let xo = self.split[k].conj() * t;
            half.set(k, xe + mul_i(xo));
            half.set(h - k, xe.conj() + mul_i(xo.conj()));
        }
        let (re, im) = (&mut half.re[..h], &mut half.im[..h]);
        half_plan.ifft_split(re, im);
        out.reserve(self.n);
        for (&r, &i) in re.iter().zip(im.iter()) {
            out.push(r);
            out.push(i);
        }
        Ok(())
    }
}

/// The process-wide table of immutable plan tables, the only source of
/// plans: twiddle factors, bit-reversal permutations and packed real-FFT
/// split tables are read-only after construction, so every caller on
/// every thread shares one `Arc` per size instead of rebuilding (and
/// separately storing) identical tables. Sessions touch only a handful
/// of distinct sizes, so a linear scan beats hashing.
struct SharedPlans {
    plans: Vec<Arc<FftPlan>>,
    real_plans: Vec<Arc<RealFftPlan>>,
}

static SHARED_PLANS: OnceLock<Mutex<SharedPlans>> = OnceLock::new();
/// Requests served from an already-built shared table.
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

/// The registry's plan of length `n` in the list `pick` selects,
/// built by `build` on first use.
///
/// Construction happens under the registry lock, so concurrent first
/// requests for one size build its tables exactly once.
fn registered<P>(
    pick: fn(&mut SharedPlans) -> &mut Vec<Arc<P>>,
    len: fn(&P) -> usize,
    build: fn(usize) -> Result<P, DspError>,
    n: usize,
) -> Result<Arc<P>, DspError> {
    let mut tables = shared_tables()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let list = pick(&mut tables);
    if let Some(p) = list.iter().find(|p| len(p) == n) {
        SHARED_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(p));
    }
    let plan = Arc::new(build(n)?);
    SHARED_MISSES.fetch_add(1, Ordering::Relaxed);
    list.push(Arc::clone(&plan));
    Ok(plan)
}

/// The process-shared complex plan for length `n`, building it on first
/// use. Plans are built by [`FftPlan::new`] and therefore bit-identical
/// to privately built ones — sharing never changes numerics.
///
/// # Errors
///
/// Same conditions as [`FftPlan::new`].
pub(crate) fn shared_plan(n: usize) -> Result<Arc<FftPlan>, DspError> {
    registered(|t| &mut t.plans, FftPlan::len, FftPlan::new, n)
}

/// The process-shared real-input plan for length `n`, building it on
/// first use; every caller on every thread gets the same `Arc`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for `n == 0` and
/// [`DspError::InvalidParameter`] when `n` is not a power of two.
pub fn shared_real_plan(n: usize) -> Result<Arc<RealFftPlan>, DspError> {
    registered(|t| &mut t.real_plans, RealFftPlan::len, RealFftPlan::new, n)
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
/// The caller-held working storage of every planned DSP path (the
/// matched filters, `xcorr_into`, `envelope_with`, `stft_with`): they
/// borrow their buffers from here instead of allocating. Buffers grow to
/// the high-water mark of the sizes seen and are then reused, so a warm
/// scratch makes the steady-state hot path allocation-free (pinned by the
/// `alloc_steady_state` test).
#[derive(Debug, Clone, Default)]
pub struct DspScratch {
    /// Primary complex workspace (signal spectra, in-place transforms).
    pub p1: Planes,
    /// Secondary complex workspace (template spectra, the band-limited
    /// correlator's short inverses).
    pub p2: Planes,
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
        self.p1.capacity_bytes()
            + self.p2.capacity_bytes()
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

    /// Splits an interleaved sequence into planes.
    fn planes_of(data: &[Complex]) -> Planes {
        Planes {
            re: data.iter().map(|z| z.re).collect(),
            im: data.iter().map(|z| z.im).collect(),
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
            let mut dif = planes_of(&data);
            plan.dif(&mut dif.re, &mut dif.im);
            for (i, &j) in plan.bit_rev.iter().enumerate() {
                assert_eq!(dif.at(i), ordered[j], "n={n} position {i}");
            }
            plan.dit(&mut dif.re, &mut dif.im);
            for (k, b) in data.iter().enumerate() {
                let a = dif.at(k);
                let d = a - b.scale(n as f64);
                assert!(d.abs() < 1e-12 * n as f64, "n={n}: {a:?} vs {n}·{b:?}");
            }
        }
    }

    /// The interleaved radix-4 kernel the split-plane kernel replaced,
    /// kept verbatim as the oracle the plane kernel must match bit for
    /// bit: `[Complex; 3]` twiddle triples, `Complex` butterflies.
    mod interleaved {
        use super::*;

        fn mul_i(c: Complex) -> Complex {
            Complex::new(-c.im, c.re)
        }

        fn radix2(data: &mut [Complex]) {
            for pair in data.chunks_exact_mut(2) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a + b;
                pair[1] = a - b;
            }
        }

        fn twiddles(n: usize) -> Vec<[Complex; 3]> {
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
            twiddles
        }

        pub fn dif(data: &mut [Complex]) {
            let twiddles = twiddles(data.len());
            let mut span = data.len();
            let mut offset = 0;
            while span >= 4 {
                let q = span / 4;
                let tw = &twiddles[offset..offset + q];
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

        pub fn dit(data: &mut [Complex]) {
            let n = data.len();
            let twiddles = twiddles(n);
            let odd = n.trailing_zeros() % 2 == 1;
            if odd {
                radix2(data);
            }
            let mut span = if odd { 8 } else { 4 };
            let mut offset = twiddles.len();
            while span <= n {
                let q = span / 4;
                offset -= q;
                let tw = &twiddles[offset..offset + q];
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

    /// Every compiled copy of the kernel this host runs: the baseline,
    /// and the detected copy when it is another.
    fn host_copies() -> Vec<Kernel> {
        let mut copies = vec![Kernel::Baseline];
        if Kernel::detect() != Kernel::Baseline {
            copies.push(Kernel::detect());
        }
        copies
    }

    #[test]
    fn plan_picks_the_avx512vl_copy_exactly_when_detected() {
        #[cfg(target_arch = "x86_64")]
        let detected =
            std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        for n in [1usize, 64, 8192] {
            let plan = FftPlan::new(n).unwrap();
            assert_eq!(plan.kernel != Kernel::Baseline, detected, "n={n}");
            assert_eq!(shared_plan(n).unwrap().kernel, plan.kernel, "n={n}");
        }
        let real = RealFftPlan::new(128).unwrap();
        assert_eq!(real.half.map(|half| half.kernel), Some(Kernel::detect()));
        println!(
            "fft kernel: plans run {:?}; copies this host runs: {:?}",
            Kernel::detect(),
            host_copies()
        );
    }

    /// Every copy of the split-plane kernel this host runs (the
    /// baseline always, the AVX-512VL copy when detected) against the
    /// retired interleaved kernel at every size from 2⁰ to 2¹⁷ (both
    /// parities of `log2 n`, so every tail shape runs), in both
    /// directions, and the out-of-place `dif_from` against copy-then-`dif`:
    /// every output compared by `to_bits`, NaN by `is_nan`.
    /// The inputs are random of random magnitude, with some elements
    /// replaced by ±0, subnormals, ±inf and NaN, so a kernel that skips a
    /// `×1` twiddle (which turns `0·inf` into 0 instead of NaN, or flips
    /// the sign of a zero) or reassociates a sum cannot pass. On the
    /// finite inputs it also checks `dit(dif(x)) = n·x`.
    #[test]
    fn plane_kernel_matches_interleaved_kernel_bitwise() {
        use hyperear_util::prop::{self, f64_range, usize_range};
        use hyperear_util::prop_assert;
        use hyperear_util::rng::Xoshiro256pp;
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 1024.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let copies = host_copies();
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let matches = |p: &Planes, v: &[Complex]| {
            v.iter()
                .enumerate()
                .all(|(k, z)| same(p.re[k], z.re) && same(p.im[k], z.im))
        };
        // Seed, input magnitude 2^±20, and the share of special values
        // (half the cases have none, so the round trip is checked).
        let strat = (
            usize_range(0, 1 << 30),
            f64_range(-20.0, 20.0),
            usize_range(0, 8),
        );
        prop::check(
            "plane_kernel_matches_interleaved_kernel_bitwise",
            strat,
            |(seed, log_scale, special_share)| {
                let mut rng = Xoshiro256pp::seed_from_u64(*seed as u64);
                let scale = log_scale.exp2();
                let special = *special_share >= 4;
                let part = |rng: &mut Xoshiro256pp| {
                    if special && rng.next_f64() < 0.02 * *special_share as f64 {
                        SPECIAL[(rng.next_f64() * SPECIAL.len() as f64) as usize]
                    } else {
                        (2.0 * rng.next_f64() - 1.0) * scale
                    }
                };
                for pow in 0..=17 {
                    let n = 1usize << pow;
                    let built = FftPlan::new(n).unwrap();
                    let x: Vec<Complex> = (0..n)
                        .map(|_| {
                            let re = part(&mut rng);
                            Complex::new(re, part(&mut rng))
                        })
                        .collect();
                    let mut want_dif = x.clone();
                    interleaved::dif(&mut want_dif);
                    let mut want_dit = want_dif.clone();
                    interleaved::dit(&mut want_dit);
                    for &kernel in &copies {
                        let plan = FftPlan {
                            kernel,
                            ..built.clone()
                        };
                        let mut got = planes_of(&x);
                        plan.dif(&mut got.re, &mut got.im);
                        prop_assert!(matches(&got, &want_dif), "{kernel:?} dif differs at n={n}");
                        // Out of place, into planes that hold stale values.
                        let src = planes_of(&x);
                        let mut from = Planes {
                            re: vec![-1.5e300; n],
                            im: vec![7.0; n],
                        };
                        plan.dif_from(&src.re, &src.im, &mut from.re, &mut from.im);
                        prop_assert!(
                            from.re.iter().zip(&got.re).all(|(&a, &b)| same(a, b))
                                && from.im.iter().zip(&got.im).all(|(&a, &b)| same(a, b)),
                            "{kernel:?} dif_from differs from dif at n={n}"
                        );
                        plan.dit(&mut got.re, &mut got.im);
                        prop_assert!(matches(&got, &want_dit), "{kernel:?} dit differs at n={n}");
                        if special {
                            continue;
                        }
                        let bound = 1e-12 * n as f64 * scale * (pow.max(1) as f64);
                        for (k, z) in x.iter().enumerate() {
                            let err = (got.at(k) - z.scale(n as f64)).abs();
                            prop_assert!(
                                err <= bound,
                                "{kernel:?} n={n} sample {k}: error {err:e}"
                            );
                        }
                    }
                }
                prop::pass()
            },
        );
        println!("fft kernel oracle: checked copies {copies:?}");
    }

    #[test]
    fn plan_length_is_enforced() {
        let plan = FftPlan::new(8).unwrap();
        let mut wrong = vec![Complex::ZERO; 4];
        assert!(plan.fft(&mut wrong).is_err());
        assert!(plan.ifft(&mut wrong).is_err());
        assert_eq!(plan.len(), 8);
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
    fn rfft_half_matches_full_transform() {
        for &n in &[1usize, 2, 4, 8, 64, 256, 1024] {
            let signal: Vec<f64> = (0..n.min(3 * n / 4 + 1))
                .map(|i| (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 0.011).cos())
                .collect();
            let rplan = RealFftPlan::new(n).unwrap();
            let mut half = Planes::default();
            rplan.rfft_half_into(&signal, &mut half).unwrap();
            assert_eq!(half.len(), rplan.num_bins());
            let full = crate::fft::rfft(&signal, n).unwrap();
            for (k, want) in full.iter().enumerate().take(half.len()) {
                let bin = half.at(k);
                let d = bin - *want;
                assert!(
                    d.abs() < 1e-9 * (1.0 + want.abs()),
                    "n={n} bin {k}: {bin:?} vs {want:?}"
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
        let mut out = Planes::default();
        assert!(rplan.rfft_half_into(&[], &mut out).is_err());
        assert!(rplan.rfft_half_into(&[0.0; 9], &mut out).is_err());
        let mut wrong = Planes::default();
        wrong.zeroed(3);
        assert!(rplan.irfft_half_into(&mut wrong, &mut Vec::new()).is_err());
        // Planes of unequal length are rejected too.
        wrong.zeroed(rplan.num_bins());
        wrong.im.pop();
        assert!(rplan.irfft_half_into(&mut wrong, &mut Vec::new()).is_err());
    }

    #[test]
    fn scratch_reports_capacity() {
        let mut scratch = DspScratch::new();
        assert_eq!(scratch.capacity_bytes(), 0);
        scratch.p1.re.reserve(16);
        scratch.p1.im.reserve(16);
        assert!(scratch.capacity_bytes() >= 16 * std::mem::size_of::<Complex>());
        scratch.r1.reserve(8);
        assert!(scratch.capacity_bytes() >= 16 * std::mem::size_of::<Complex>() + 64);
    }

    #[test]
    fn registry_shares_immutable_tables_across_threads() {
        // Deliberately unusual sizes so parallel sibling tests (which
        // share the process-wide registry) cannot interfere with the
        // identity assertions.
        let n = 1 << 13;
        let from_threads: Vec<(Arc<FftPlan>, Arc<RealFftPlan>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (shared_plan(n).unwrap(), shared_real_plan(n).unwrap())))
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
        let again = shared_plan(n).unwrap();
        assert!(Arc::ptr_eq(&again, &from_threads[0].0));
        assert!(
            shared_plan_hits() > before,
            "a request for a known size must count as a shared hit"
        );
        assert!(
            shared_plan_misses() >= 2,
            "both table kinds were built once"
        );
        // A size no plan can have is an error, and is never registered.
        assert!(shared_plan(10).is_err());
        assert!(shared_real_plan(10).is_err());
    }
}
