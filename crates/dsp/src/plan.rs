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
pub(crate) fn with_thread_ctx<T>(f: impl FnOnce(&mut PlanCache, &mut DspScratch) -> T) -> T {
    THREAD_CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let (plans, scratch) = &mut *ctx;
        f(plans, scratch)
    })
}

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

/// Unused `f64`s after each twiddle plane (one cache line).
const TWIDDLE_PAD: usize = 8;

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
/// is odd. A pointwise spectral product does not care about bin order,
/// so the overlap-save correlator runs `dif → multiply → dit` with no
/// permutation at all; the ordered transforms add the one bit-reversal
/// pass that ordered spectra need.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position (identity entries included).
    bit_rev: Vec<usize>,
    /// Forward twiddles: for each radix-4 stage of span `L` (`w =
    /// e^{-2πi/L}`, stages from `L = n` down), six planes `[Re w^j,
    /// Im w^j, Re w^2j, Im w^2j, Re w^3j, Im w^3j]` of one entry per
    /// butterfly column `j` in `0..L/4`, each plane followed by
    /// [`TWIDDLE_PAD`] unused entries (see [`FftPlan::stage`]). The
    /// inverse uses the conjugates.
    twiddles: Vec<f64>,
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
            for power in 1..=3 {
                let roots = (0..q).map(|j| unit_root(power * j, span));
                for part in [|w: Complex| w.re, |w: Complex| w.im] {
                    twiddles.extend(roots.clone().map(part));
                    twiddles.extend([0.0; TWIDDLE_PAD]);
                }
            }
            span = q;
        }
        Ok(FftPlan {
            n,
            bit_rev,
            twiddles,
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

    /// The six twiddle planes of the radix-4 stage with `q` butterfly
    /// columns that starts at `offset` in the table.
    ///
    /// The pad after each plane keeps the planes' starting addresses
    /// apart modulo the 4 KiB that an L1 cache set index repeats on:
    /// planes of a power-of-two length laid end to end would all map to
    /// the same sets and evict each other, beside the data planes'
    /// four quarters, which already share sets.
    fn stage(&self, offset: usize, q: usize) -> [&[f64]; 6] {
        std::array::from_fn(|p| &self.twiddles[offset + p * (q + TWIDDLE_PAD)..][..q])
    }

    /// Forward decimation-in-frequency pass on planes of the plan
    /// length: natural order in, bit-reversed spectrum out, unscaled.
    ///
    /// Each radix-4 stage of span `L` splits every `L`-block into four
    /// quarters walked in lockstep with the stage's twiddle planes. The
    /// two middle outputs are stored swapped — the `(X₀, X₂, X₁, X₃)`
    /// order of two merged radix-2 stages — which is what makes the
    /// overall output order bit-reversed rather than base-4
    /// digit-reversed.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from the plan length.
    pub fn dif(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_planes(re, im);
        let mut span = self.n;
        let mut offset = 0;
        while span >= 4 {
            let q = span / 4;
            let tw = self.stage(offset, q);
            match q {
                1 => radix4_stage::<1>(re, im, q, tw, dif_butterfly),
                2 => radix4_stage::<2>(re, im, q, tw, dif_butterfly),
                _ => radix4_stage::<4>(re, im, q, tw, dif_butterfly),
            }
            offset += 6 * (q + TWIDDLE_PAD);
            span = q;
        }
        if span == 2 {
            radix2(re);
            radix2(im);
        }
    }

    /// Inverse decimation-in-time pass on planes of the plan length:
    /// bit-reversed spectrum in, natural order out, **unscaled** (the
    /// caller owns the `1/N`). Exactly the transpose of
    /// [`FftPlan::dif`]: the same stages in reverse order with
    /// conjugated twiddles.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from the plan length.
    pub fn dit(&self, re: &mut [f64], im: &mut [f64]) {
        self.check_planes(re, im);
        let odd = self.n.trailing_zeros() % 2 == 1;
        if odd {
            radix2(re);
            radix2(im);
        }
        let mut span = if odd { 8 } else { 4 };
        let mut offset = self.twiddles.len();
        while span <= self.n {
            let q = span / 4;
            offset -= 6 * (q + TWIDDLE_PAD);
            let tw = self.stage(offset, q);
            match q {
                1 => radix4_stage::<1>(re, im, q, tw, dit_butterfly),
                2 => radix4_stage::<2>(re, im, q, tw, dit_butterfly),
                _ => radix4_stage::<4>(re, im, q, tw, dit_butterfly),
            }
            span *= 4;
        }
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

/// The four `q`-element quarters of one radix-4 block, each viewed as
/// its `q / L` lane arrays.
#[inline]
fn quarters<const L: usize>(block: &mut [f64], q: usize) -> [&mut [[f64; L]]; 4] {
    let (a, rest) = block.split_at_mut(q);
    let (b, rest) = rest.split_at_mut(q);
    let (c, d) = rest.split_at_mut(q);
    [a, b, c, d].map(|x| x.as_chunks_mut::<L>().0)
}

/// One radix-4 stage with `q` butterfly columns over every `4q`-block
/// of the planes, `L` columns at a time (`q` a multiple of `L`).
///
/// The quarters and the stage's twiddle planes are walked as fixed
/// `[f64; L]` lane arrays of one common length, so the loop carries no
/// bounds checks and `butterfly` — plain component arithmetic on
/// arrays — is vectorized across the lanes. The stages run at `L = 4`
/// (two SSE2 registers per lane array) wherever `q` allows: at `L = 2`
/// LLVM's loop vectorizer pairs up iterations instead and pays a
/// de-interleaving shuffle per load and store (the band correlation ran
/// 12% faster than with the interleaved kernel at `L = 2`, 27% at
/// `L = 4`). `butterfly` maps the inputs
/// `[x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i]` and twiddles `[w^j, w^2j,
/// w^3j]` (real, imaginary planes) to the outputs in the same order.
fn radix4_stage<const L: usize>(
    re: &mut [f64],
    im: &mut [f64],
    q: usize,
    tw: [&[f64]; 6],
    butterfly: impl Fn([[f64; L]; 8], [[f64; L]; 6]) -> [[f64; L]; 8],
) {
    let cols = q / L;
    let tw = tw.map(|t| &t.as_chunks::<L>().0[..cols]);
    for (br, bi) in re.chunks_exact_mut(4 * q).zip(im.chunks_exact_mut(4 * q)) {
        let [r0, r1, r2, r3] = quarters::<L>(br, q).map(|x| &mut x[..cols]);
        let [i0, i1, i2, i3] = quarters::<L>(bi, q).map(|x| &mut x[..cols]);
        for c in 0..cols {
            let x = [r0[c], i0[c], r1[c], i1[c], r2[c], i2[c], r3[c], i3[c]];
            let w = [tw[0][c], tw[1][c], tw[2][c], tw[3][c], tw[4][c], tw[5][c]];
            [r0[c], i0[c], r1[c], i1[c], r2[c], i2[c], r3[c], i3[c]] = butterfly(x, w);
        }
    }
}

/// The decimation-in-frequency butterfly on `L` columns: per element
/// exactly the complex `s02 = x0 + x2`, `d02 = x0 − x2`,
/// `s13 = x1 + x3`, `d13 = i·(x1 − x3)`, `y0 = s02 + s13`,
/// `y1 = (s02 − s13)·w^2j`, `y2 = (d02 − d13)·w^j`,
/// `y3 = (d02 + d13)·w^3j`, written out on components
/// (`i·(a + ib) = −b + ia`).
#[inline(always)]
fn dif_butterfly<const L: usize>(x: [[f64; L]; 8], w: [[f64; L]; 6]) -> [[f64; L]; 8] {
    let [x0r, x0i, x1r, x1i, x2r, x2i, x3r, x3i] = x;
    let [w1r, w1i, w2r, w2i, w3r, w3i] = w;
    let mut y = [[0.0; L]; 8];
    for l in 0..L {
        let (s02r, s02i) = (x0r[l] + x2r[l], x0i[l] + x2i[l]);
        let (d02r, d02i) = (x0r[l] - x2r[l], x0i[l] - x2i[l]);
        let (s13r, s13i) = (x1r[l] + x3r[l], x1i[l] + x3i[l]);
        let (d13r, d13i) = (-(x1i[l] - x3i[l]), x1r[l] - x3r[l]);
        y[0][l] = s02r + s13r;
        y[1][l] = s02i + s13i;
        let (ar, ai) = (s02r - s13r, s02i - s13i);
        y[2][l] = ar * w2r[l] - ai * w2i[l];
        y[3][l] = ar * w2i[l] + ai * w2r[l];
        let (br, bi) = (d02r - d13r, d02i - d13i);
        y[4][l] = br * w1r[l] - bi * w1i[l];
        y[5][l] = br * w1i[l] + bi * w1r[l];
        let (cr, ci) = (d02r + d13r, d02i + d13i);
        y[6][l] = cr * w3r[l] - ci * w3i[l];
        y[7][l] = cr * w3i[l] + ci * w3r[l];
    }
    y
}

/// The decimation-in-time butterfly on `L` columns, the transpose of
/// [`dif_butterfly`]: per element `t1 = y1·conj(w^2j)`,
/// `t2 = y2·conj(w^j)`, `t3 = y3·conj(w^3j)`, `s = y0 + t1`,
/// `d = y0 − t1`, `s23 = t2 + t3`, `d23 = i·(t2 − t3)`, then
/// `(s + s23, d + d23, s − s23, d − d23)`. The multiply by `conj(w)` is
/// written `yr·wr − yi·(−wi)`, `yr·(−wi) + yi·wr`.
#[inline(always)]
fn dit_butterfly<const L: usize>(x: [[f64; L]; 8], w: [[f64; L]; 6]) -> [[f64; L]; 8] {
    let [y0r, y0i, y1r, y1i, y2r, y2i, y3r, y3i] = x;
    let [w1r, w1i, w2r, w2i, w3r, w3i] = w;
    let mut y = [[0.0; L]; 8];
    for l in 0..L {
        let (c1, c2, c3) = (-w1i[l], -w2i[l], -w3i[l]);
        let t1r = y1r[l] * w2r[l] - y1i[l] * c2;
        let t1i = y1r[l] * c2 + y1i[l] * w2r[l];
        let t2r = y2r[l] * w1r[l] - y2i[l] * c1;
        let t2i = y2r[l] * c1 + y2i[l] * w1r[l];
        let t3r = y3r[l] * w3r[l] - y3i[l] * c3;
        let t3i = y3r[l] * c3 + y3i[l] * w3r[l];
        let (sr, si) = (y0r[l] + t1r, y0i[l] + t1i);
        let (dr, di) = (y0r[l] - t1r, y0i[l] - t1i);
        let (s23r, s23i) = (t2r + t3r, t2i + t3i);
        let (d23r, d23i) = (-(t2i - t3i), t2r - t3r);
        y[0][l] = sr + s23r;
        y[1][l] = si + s23i;
        y[2][l] = dr + d23r;
        y[3][l] = di + d23i;
        y[4][l] = sr - s23r;
        y[5][l] = si - s23i;
        y[6][l] = dr - d23r;
        y[7][l] = di - d23i;
    }
    y
}

/// The twiddle-free radix-2 stage of span 2 on one plane, which
/// completes a transform whose `log2 n` is odd (last in
/// [`FftPlan::dif`], first in [`FftPlan::dit`]).
fn radix2(plane: &mut [f64]) {
    for pair in plane.chunks_exact_mut(2) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a + b;
        pair[1] = a - b;
    }
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
    pub(crate) fn plan(&mut self, n: usize) -> Result<Arc<FftPlan>, DspError> {
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
pub(crate) fn shared_plan(n: usize) -> Result<Arc<FftPlan>, DspError> {
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

    /// The split-plane kernel against the retired interleaved kernel,
    /// `to_bits` for every output, at every size from 2⁰ to 2¹⁷ (both
    /// parities of `log2 n`, so the radix-2 stage and the one-column
    /// span-4 stage both run) on random inputs of random magnitude, plus
    /// `dit(dif(x)) = n·x`.
    #[test]
    fn plane_kernel_matches_interleaved_kernel_bitwise() {
        use hyperear_util::prop::{self, f64_range, usize_range};
        use hyperear_util::prop_assert;
        use hyperear_util::rng::Xoshiro256pp;
        let bits = |p: &Planes| -> Vec<(u64, u64)> {
            p.re.iter()
                .zip(&p.im)
                .map(|(r, i)| (r.to_bits(), i.to_bits()))
                .collect()
        };
        let bits_of = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let strat = (usize_range(0, 1 << 30), f64_range(-20.0, 20.0));
        prop::check(
            "plane_kernel_matches_interleaved_kernel_bitwise",
            strat,
            |(seed, log_scale)| {
                let mut rng = Xoshiro256pp::seed_from_u64(*seed as u64);
                let scale = log_scale.exp2();
                for pow in 0..=17 {
                    let n = 1usize << pow;
                    let plan = FftPlan::new(n).unwrap();
                    let x: Vec<Complex> = (0..n)
                        .map(|_| {
                            let re = (2.0 * rng.next_f64() - 1.0) * scale;
                            Complex::new(re, (2.0 * rng.next_f64() - 1.0) * scale)
                        })
                        .collect();
                    let mut want = x.clone();
                    interleaved::dif(&mut want);
                    let mut got = planes_of(&x);
                    plan.dif(&mut got.re, &mut got.im);
                    prop_assert!(bits(&got) == bits_of(&want), "dif differs at n={n}");
                    interleaved::dit(&mut want);
                    plan.dit(&mut got.re, &mut got.im);
                    prop_assert!(bits(&got) == bits_of(&want), "dit differs at n={n}");
                    let bound = 1e-12 * n as f64 * scale * (pow.max(1) as f64);
                    for (k, z) in x.iter().enumerate() {
                        let err = (got.at(k) - z.scale(n as f64)).abs();
                        prop_assert!(err <= bound, "n={n} sample {k}: error {err:e}");
                    }
                }
                prop::pass()
            },
        );
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
    fn cache_memoizes_per_size() {
        let mut cache = PlanCache::new();
        let a = cache.plan(64).unwrap();
        let b = cache.plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let _ = cache.plan(128).unwrap();
        assert_eq!(cache.plans.len(), 2);
        assert!(cache.plan(10).is_err());
    }

    #[test]
    fn thread_ctx_memoizes_across_calls() {
        // Two separate borrows of the thread context see the same cache:
        // the second call must not grow the size count.
        let count0 = with_thread_ctx(|plans, _| {
            plans.plan(32).unwrap();
            plans.plans.len()
        });
        let count1 = with_thread_ctx(|plans, _| {
            plans.plan(32).unwrap();
            plans.plans.len()
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
    fn cache_memoizes_real_plans() {
        let mut cache = PlanCache::new();
        let a = cache.real_plan(64).unwrap();
        let b = cache.real_plan(64).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.real_plans.len(), 1);
        assert!(cache.real_plan(10).is_err());
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
