//! Cross-correlation and matched filtering.
//!
//! HyperEar detects chirp beacons the BeepBeep way: "the recorded audio
//! signal at each microphone is correlated with a reference chirp signal.
//! The maximum peak of correlation is concluded as the location of a
//! signal" (Section IV-A). Correlation is computed in the frequency domain
//! so a full one-second stereo recording is cheap to scan.

use crate::complex::conj_mul_in_place;
use crate::fft::try_next_pow2;
use crate::interpolate::{Decimation, MAX_DECIMATION};
use crate::plan::{shared_plan, DspScratch, FftPlan, PlanCache, Planes};
use crate::{Complex, DspError};
use std::sync::Arc;

fn validate_xcorr_inputs(signal: &[f64], template: &[f64]) -> Result<(), DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "xcorr signal",
        });
    }
    if template.is_empty() {
        return Err(DspError::EmptyInput {
            what: "xcorr template",
        });
    }
    if template.len() > signal.len() {
        return Err(DspError::invalid(
            "template",
            format!(
                "template ({}) longer than signal ({})",
                template.len(),
                signal.len()
            ),
        ));
    }
    Ok(())
}

/// Full cross-correlation of `signal` with `template` at all lags where the
/// template overlaps the signal start, computed via FFT.
///
/// `output[k] = Σ_n signal[n + k] · template[n]`, for `k` in
/// `0..signal.len()`. The value at `k` is large when the template occurs at
/// position `k` in the signal, making the output directly indexable by
/// arrival sample.
///
/// This is the one-shot convenience and the test oracle for every
/// blocked engine below; repeated correlation should go through
/// [`xcorr_into`] (reusable plans/scratch) or a [`StreamingMatchedFilter`]
/// (which additionally caches the template spectrum).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if either input is empty, and
/// [`DspError::InvalidParameter`] if the template is longer than the signal.
pub fn xcorr(signal: &[f64], template: &[f64]) -> Result<Vec<f64>, DspError> {
    let mut out = Vec::new();
    crate::plan::with_thread_ctx(|plans, scratch| {
        xcorr_into(signal, template, plans, scratch, &mut out)
    })?;
    Ok(out)
}

/// Planned cross-correlation: identical output to [`xcorr`], but all FFT
/// setup comes from `plans` and all working storage from `scratch`/`out`,
/// so steady-state calls at warm sizes do not allocate.
///
/// `out` is cleared and refilled (its capacity is reused).
///
/// # Errors
///
/// Same conditions as [`xcorr`].
pub fn xcorr_into(
    signal: &[f64],
    template: &[f64],
    plans: &mut PlanCache,
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    validate_xcorr_inputs(signal, template)?;
    let n = try_next_pow2(signal.len().saturating_add(template.len()))?;
    let plan = plans.real_plan(n)?;
    plan.rfft_half_into(signal, &mut scratch.p1)?;
    plan.rfft_half_into(template, &mut scratch.p2)?;
    conj_mul_in_place(&mut scratch.p1, &scratch.p2);
    let DspScratch { p1, r1, .. } = scratch;
    plan.irfft_half_into(p1, r1)?;
    out.clear();
    out.extend_from_slice(&r1[..signal.len()]);
    Ok(())
}

/// Overlap-save block cross-correlation of one signal against K ≥ 1
/// fixed templates that share one forward transform per block pair.
///
/// The (implicitly zero-padded, `lead`-shifted) signal is cut into
/// blocks of `block_len` samples that advance by `step = block_len -
/// template_len + 1`, overlapping by `template_len - 1`. Blocks are
/// processed in **pairs** counted from stream start: block `2m` rides in
/// the real part and block `2m+1` in the imaginary part of one complex
/// `block_len`-point transform (a trailing odd block pairs with zeros).
/// Because every template is real, the product with its spectrum keeps
/// the two blocks apart: after the inverse, the real part holds block
/// `2m`'s correlation and the imaginary part block `2m+1`'s, of which
/// the first `step` lags are free of circular wraparound.
///
/// The block pair is packed as split planes — block `2m` copied into the
/// real plane, block `2m+1` into the imaginary plane. The forward
/// transform is the plan's decimation-in-frequency pass (natural in,
/// bit-reversed out) and the inverse its decimation-in-time pass
/// (bit-reversed in, natural out); each template spectrum is stored as
/// planes, pre-conjugated, in that bit-reversed order, with the exact
/// power-of-two `1/block_len` folded in — so a block pair costs one
/// forward transform plus, per template, one pointwise multiply, one
/// inverse transform and one copy-out, with no permutation, split,
/// merge or scale pass. Templates shorter than the
/// longest are implicitly zero-padded to it, which changes no
/// correlation value.
///
/// This is the one engine behind [`StreamingMatchedFilter`] (K = 1,
/// full-rate real output), [`BandLimitedBank`] (any K, one shared
/// forward FFT, copied out as decimated analytic lanes, see [`Lanes`])
/// and the FFT zero-phase FIR (K = 1, `lead` compensating the group
/// delay).
/// Peak FFT size is `block_len`, independent of how long the signal is.
#[derive(Debug, Clone)]
pub(crate) struct OverlapSave {
    /// Shared, read-only FFT tables for the block size: every engine at
    /// one block length in the process points at the same plan.
    plan: Arc<FftPlan>,
    /// One spectrum per template at `block_len`: conjugated, scaled by
    /// `1/block_len` and in bit-reversed bin order, behind an `Arc` so
    /// clones share instead of re-transforming.
    specs: Vec<Arc<Planes>>,
    /// The shared (longest) template length.
    template_len: usize,
    /// Output lags per block: at most `block_len - template_len + 1`,
    /// the lags free of circular wraparound.
    step: usize,
    /// Zeros implicitly preceding the signal: output lag `k` reads the
    /// signal from `k - lead`.
    lead: usize,
}

/// Where a block pair's lags go: one full-rate real lane, or the
/// decimated analytic lanes of a band-limited bank.
pub(crate) enum Lanes<'a> {
    /// The one template's `gain · r(n)` for every lag.
    Full { gain: f64, out: &'a mut Vec<f64> },
    /// Lane `k` receives `gain_k · b(q)`, the baseband analytic
    /// correlation of band `k` at every `D_k`-th lag.
    Decimated {
        bands: &'a [Arc<Band>],
        gains: &'a [f64],
        outs: &'a mut [Vec<Complex>],
    },
}

impl Lanes<'_> {
    fn count(&self) -> usize {
        match self {
            Lanes::Full { .. } => 1,
            Lanes::Decimated { outs, .. } => outs.len(),
        }
    }

    /// Clears every lane and reserves room for `lags` full-rate lags.
    fn reset(&mut self, lags: usize) {
        match self {
            Lanes::Full { out, .. } => {
                out.clear();
                out.reserve(lags);
            }
            Lanes::Decimated { bands, outs, .. } => {
                for (band, out) in bands.iter().zip(outs.iter_mut()) {
                    out.clear();
                    out.reserve(band.dec.decimated_len(lags));
                }
            }
        }
    }
}

/// One lane of a band-limited bank: how its product spectrum maps to
/// baseband, and the short inverse transform that decimates it.
#[derive(Debug)]
pub(crate) struct Band {
    dec: Decimation,
    /// Per kept bin `k`: the bit-reversed positions of `k` and `N − k`
    /// in the block spectrum, and of `k − center (mod N/D)` in the
    /// decimated one.
    map: Vec<[usize; 3]>,
    /// The template spectrum at each kept bin, in `map` order.
    coef: Vec<Complex>,
    /// The `N/D`-point plan.
    plan: Arc<FftPlan>,
}

impl Band {
    fn new(spec: &Planes, block_len: usize) -> Result<Self, DspError> {
        let bits = block_len.trailing_zeros();
        let rev = |k: usize, bits: u32| {
            if bits == 0 {
                0
            } else {
                k.reverse_bits() >> (usize::BITS - bits)
            }
        };
        // The stored spectrum is conj(T)/N in bit-reversed order.
        let mags: Vec<f64> = (0..=block_len / 2)
            .map(|k| spec.at(rev(k, bits)).abs())
            .collect();
        let dec = Decimation::for_spectrum(&mags, block_len)?;
        let m = block_len / dec.factor();
        let (lo, hi) = dec.kept_bins();
        let center = dec.center();
        let mut map: Vec<[usize; 3]> = (lo..=hi)
            .map(|k| {
                let j = (k + m - center % m) % m;
                let mirror = (block_len - k) % block_len;
                [rev(k, bits), rev(mirror, bits), rev(j, m.trailing_zeros())]
            })
            .collect();
        // Every bin writes its own output, so the order is free: walk the
        // block spectrum forwards.
        map.sort_unstable();
        // DC and Nyquist are their own mirrors: the analytic spectrum
        // holds them once, not doubled.
        let coef = map
            .iter()
            .map(|&[at, mirror, _]| spec.at(at).scale(if at == mirror { 0.5 } else { 1.0 }))
            .collect();
        Ok(Band {
            plan: shared_plan(m)?,
            coef,
            dec,
            map,
        })
    }

    /// Separates the block pair's two analytic correlations from the
    /// forward spectrum planes `fwd` at the kept bins only, shifts each
    /// to baseband into its own plane pair of `work` (block `2m` in the
    /// first `N/D` elements, block `2m+1` in the rest), inverse-transforms
    /// it at `N/D` and appends its first
    /// `take` lags' decimated values, scaled by `gain` and the block's
    /// baseband shift. Block `2m` starts at lag `pos`, block `2m+1` at
    /// `pos + step`.
    ///
    /// The packed pair's spectrum is `Z = X₀ + i·X₁`, so the real-part
    /// block's spectrum is `X₀(k) = (Z(k) + conj Z(N−k))/2` and the
    /// imaginary-part block's `X₁(k) = −i·(Z(k) − conj Z(N−k))/2`. Its
    /// analytic correlation's spectrum is `2·X(k)·S(k)` at the kept bins
    /// (`X(k)·S(k)` at DC and Nyquist) and zero elsewhere, with `S` the
    /// stored template spectrum (conjugated, `1/N` folded in).
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        fwd: &Planes,
        work: &mut Planes,
        pos: usize,
        step: usize,
        take: (usize, usize),
        gain: f64,
        out: &mut Vec<Complex>,
    ) {
        let m = self.plan.len();
        work.zeroed(2 * m);
        let (even_re, odd_re) = work.re.split_at_mut(m);
        let (even_im, odd_im) = work.im.split_at_mut(m);
        for (&[k, mirror, j], &s) in self.map.iter().zip(&self.coef) {
            let (z, w) = (fwd.at(k), fwd.at(mirror).conj());
            let e = (z + w) * s;
            even_re[j] = e.re;
            even_im[j] = e.im;
            let d = (z - w) * s;
            odd_re[j] = d.im;
            odd_im[j] = -d.re;
        }
        let blocks = [
            (even_re, even_im, take.0, pos),
            (odd_re, odd_im, take.1, pos + step),
        ];
        for (re, im, lags, start) in blocks {
            if lags == 0 {
                continue;
            }
            self.plan.dit(re, im);
            let scale = self.dec.shift(start).scale(gain);
            let len = self.dec.decimated_len(lags);
            out.extend(
                re[..len]
                    .iter()
                    .zip(&im[..len])
                    .map(|(&r, &i)| Complex::new(r, i) * scale),
            );
        }
    }
}

impl OverlapSave {
    /// Builds the engine for `templates` with FFT blocks of `block_len`.
    ///
    /// `block_len` must be a power of two and at least the longest
    /// template (otherwise no lag is free of circular wraparound).
    pub(crate) fn new(
        templates: &[&[f64]],
        block_len: usize,
        lead: usize,
    ) -> Result<Self, DspError> {
        if templates.is_empty() || templates.iter().any(|t| t.is_empty()) {
            return Err(DspError::EmptyInput {
                what: "overlap-save template",
            });
        }
        let template_len = templates.iter().map(|t| t.len()).max().unwrap_or(0);
        if block_len < template_len {
            return Err(DspError::invalid(
                "block_len",
                format!("block ({block_len}) shorter than template ({template_len})"),
            ));
        }
        let plan = shared_plan(block_len)?;
        // 1/N is a power of two, so folding it into the spectrum is exact.
        let inv_n = 1.0 / block_len as f64;
        let specs = templates
            .iter()
            .map(|template| {
                let mut spec = Planes::default();
                spec.zeroed(block_len);
                spec.re[..template.len()].copy_from_slice(template);
                plan.dif(&mut spec.re, &mut spec.im);
                // conj(z)/N, component by component.
                for (re, im) in spec.re.iter_mut().zip(spec.im.iter_mut()) {
                    *re *= inv_n;
                    *im = -*im * inv_n;
                }
                Arc::new(spec)
            })
            .collect();
        Ok(OverlapSave {
            plan,
            specs,
            template_len,
            step: block_len - template_len + 1,
            lead,
        })
    }

    /// The same engine (shared plan and template spectra) with its step
    /// rounded down to a multiple of [`MAX_DECIMATION`], so every block
    /// starts on every decimation factor's grid.
    fn aligned(&self) -> Result<Self, DspError> {
        let step = self.step / MAX_DECIMATION * MAX_DECIMATION;
        if step == 0 {
            return Err(DspError::invalid(
                "block_len",
                format!(
                    "block ({}) leaves fewer than {MAX_DECIMATION} lags per block for template ({})",
                    self.block_len(),
                    self.template_len
                ),
            ));
        }
        Ok(OverlapSave {
            step,
            ..self.clone()
        })
    }

    pub(crate) fn block_len(&self) -> usize {
        self.plan.len()
    }

    /// Output lags per block.
    pub(crate) fn step(&self) -> usize {
        self.step
    }

    fn check_outs(&self, lanes: &Lanes<'_>) -> Result<(), DspError> {
        if lanes.count() != self.specs.len() {
            return Err(DspError::invalid(
                "lanes",
                format!(
                    "bank holds {} templates but {} output lanes were provided",
                    self.specs.len(),
                    lanes.count()
                ),
            ));
        }
        Ok(())
    }

    /// Forward-transforms the block pair packed in `scratch.p1` (block
    /// `2m` starting at lag `pos`), then fans it out across every
    /// template, appending the first `take.0` lags of block `2m` and then
    /// the first `take.1` lags of block `2m+1` to that template's lane.
    ///
    /// The full-rate lane multiplies `p1` by the template spectrum in
    /// place, plane by plane, inverse-transforms it and copies the real
    /// plane (block `2m`) and the imaginary plane (block `2m+1`), each
    /// multiplied by the lane's gain (`1` for raw output, `1/energy` for
    /// normalized). Decimated lanes read `p1` at their kept bins only
    /// (see [`Band`]), using `scratch.p2` for their short inverses.
    fn fan_out(
        &self,
        scratch: &mut DspScratch,
        pos: usize,
        take: (usize, usize),
        lanes: &mut Lanes<'_>,
    ) {
        let DspScratch { p1, p2, .. } = scratch;
        self.plan.dif(&mut p1.re, &mut p1.im);
        match lanes {
            Lanes::Full { gain, out } => {
                let spec = &self.specs[0];
                let (re, im) = (&mut p1.re, &mut p1.im);
                for (((zr, zi), &tr), &ti) in
                    re.iter_mut().zip(im.iter_mut()).zip(&spec.re).zip(&spec.im)
                {
                    let (r, i) = (*zr, *zi);
                    *zr = r * tr - i * ti;
                    *zi = r * ti + i * tr;
                }
                self.plan.dit(re, im);
                out.extend(re[..take.0].iter().map(|x| x * *gain));
                out.extend(im[..take.1].iter().map(|x| x * *gain));
            }
            Lanes::Decimated { bands, gains, outs } => {
                for ((band, &gain), out) in bands.iter().zip(gains.iter()).zip(outs.iter_mut()) {
                    band.emit(p1, p2, pos, self.step, take, gain, out);
                }
            }
        }
    }

    /// Writes `lanes[t][k] = gain_t · Σ_n signal[n + k - lead] ·
    /// template_t[n]` for `k` in `0..signal.len()` (decimated lanes: the
    /// baseband analytic form at every `D`-th `k`), treating the signal
    /// as zero outside its bounds. Each lane is cleared first. `lead = 0`
    /// reproduces the [`xcorr`] convention.
    pub(crate) fn run(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut Lanes<'_>,
    ) -> Result<(), DspError> {
        self.check_outs(lanes)?;
        let out_len = signal.len();
        lanes.reset(out_len);
        let step = self.step();
        let mut pos = 0;
        while pos < out_len {
            let odd = pos + step;
            let take_odd = out_len.saturating_sub(odd).min(step);
            let re = self.padded_window(signal, pos);
            let im = if take_odd > 0 {
                self.padded_window(signal, odd)
            } else {
                (0, &[][..])
            };
            pack_pair(&mut scratch.p1, self.block_len(), re, im);
            self.fan_out(scratch, pos, (step.min(out_len - pos), take_odd), lanes);
            pos += 2 * step;
        }
        Ok(())
    }

    /// The part of the lead-shifted, zero-extended signal that falls in
    /// the block starting at padded position `start`: the offset of its
    /// first sample within the block, and the samples themselves.
    fn padded_window<'a>(&self, signal: &'a [f64], start: usize) -> (usize, &'a [f64]) {
        let block = self.block_len();
        let (offset, from) = match start.checked_sub(self.lead) {
            Some(from) => (0, from),
            None => (self.lead - start, 0),
        };
        let from = from.min(signal.len());
        let to = (start + block).saturating_sub(self.lead).min(signal.len());
        (offset, &signal[from..to.max(from)])
    }

    fn chunk_feed(&self) -> ChunkFeed {
        ChunkFeed::new(self.lead, self.block_len(), self.step)
    }

    fn check_feed(&self, feed: &ChunkFeed) -> Result<(), DspError> {
        if feed.block_len != self.block_len() || feed.step != self.step || feed.lead != self.lead {
            return Err(DspError::invalid(
                "feed",
                "chunk feed was created for a different engine",
            ));
        }
        if feed.finished {
            return Err(DspError::invalid(
                "feed",
                "chunk feed already finished; call reset() before reuse",
            ));
        }
        Ok(())
    }

    /// Packs the block pair at the front of `feed.buf` (block `2m` at
    /// offset 0, block `2m+1` at offset `step`, or zeros for the odd
    /// block when `take.1` is zero) into `scratch.p1`, fans it out, and
    /// slides the buffer forward by two steps, so only the
    /// `block_len - step` overlap tail remains.
    fn feed_pair(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        take: (usize, usize),
        lanes: &mut Lanes<'_>,
    ) {
        let block = self.block_len();
        let step = self.step();
        debug_assert_eq!(feed.buf.len(), block + step);
        let im = if take.1 > 0 {
            &feed.buf[step..]
        } else {
            &[][..]
        };
        pack_pair(&mut scratch.p1, block, (0, &feed.buf[..block]), (0, im));
        self.fan_out(scratch, feed.emitted, take, lanes);
        feed.buf.copy_within(2 * step.., 0);
        feed.buf.truncate(block - step);
        feed.emitted += take.0 + take.1;
    }

    /// Appends `chunk` to the feed, emitting (appending to every output)
    /// the lags of every block pair that fills. Emission never runs
    /// ahead of ingestion: `emitted <= pushed` holds throughout because
    /// `lead <= template_len - 1 <= block_len - step`.
    fn feed_push(
        &self,
        feed: &mut ChunkFeed,
        chunk: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut Lanes<'_>,
    ) -> Result<(), DspError> {
        self.check_outs(lanes)?;
        self.check_feed(feed)?;
        let span = self.block_len() + self.step();
        let step = self.step();
        let mut rest = chunk;
        while !rest.is_empty() {
            let take = (span - feed.buf.len()).min(rest.len());
            feed.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if feed.buf.len() == span {
                self.feed_pair(feed, scratch, (step, step), lanes);
            }
        }
        feed.pushed += chunk.len();
        debug_assert!(feed.emitted <= feed.pushed);
        Ok(())
    }

    /// Flushes the feed: zero-pads the final block pairs and emits every
    /// remaining lag up to the `pushed` total, exactly reproducing
    /// [`OverlapSave::run`]'s output for the concatenated input (pairs
    /// counted from stream start, a trailing odd block paired with
    /// zeros). Marks the feed finished.
    fn feed_finish(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        lanes: &mut Lanes<'_>,
    ) -> Result<(), DspError> {
        self.check_outs(lanes)?;
        self.check_feed(feed)?;
        let total = feed.pushed;
        let step = self.step();
        while feed.emitted < total {
            feed.buf.resize(self.block_len() + step, 0.0);
            let left = total - feed.emitted;
            let take = (step.min(left), left.saturating_sub(step).min(step));
            self.feed_pair(feed, scratch, take, lanes);
        }
        feed.finished = true;
        Ok(())
    }
}

/// The one-shot input checks for a `len`-sample signal against a bank
/// whose shortest accepted signal is `min_len` samples.
fn check_signal(min_len: usize, len: usize) -> Result<(), DspError> {
    if len == 0 {
        return Err(DspError::EmptyInput {
            what: "xcorr signal",
        });
    }
    if min_len > len {
        return Err(DspError::invalid(
            "template",
            format!("template ({min_len}) longer than signal ({len})"),
        ));
    }
    Ok(())
}

/// Packs two real blocks into one complex block of `len` samples: `re.1`
/// is copied to offset `re.0` of the real plane and `im.1` to offset
/// `im.0` of the imaginary plane, everything else is zero.
fn pack_pair(buf: &mut Planes, len: usize, re: (usize, &[f64]), im: (usize, &[f64])) {
    pack_plane(&mut buf.re, len, re);
    pack_plane(&mut buf.im, len, im);
}

/// One plane of [`pack_pair`]: an interior block is a single slice copy
/// with no zero fill.
fn pack_plane(plane: &mut Vec<f64>, len: usize, (offset, src): (usize, &[f64])) {
    plane.clear();
    if offset == 0 && src.len() >= len {
        plane.extend_from_slice(&src[..len]);
        return;
    }
    plane.resize(len, 0.0);
    let n = src.len().min(len - offset);
    plane[offset..offset + n].copy_from_slice(&src[..n]);
}

/// Incremental ingestion state for one band-limited bank: the partial
/// FFT block pair under assembly plus push/emit progress counters.
///
/// A feed turns the blocked engine behind a [`BandLimitedBank`] into an
/// online one: samples arrive in chunks of any size (single samples to
/// whole captures) and completed output lags are emitted as soon as
/// their FFT block pair fills. The engine itself stays `&self` and
/// immutable — all mutable state lives here, so one engine can serve
/// many concurrent feeds.
///
/// Because a pair is transformed exactly when both of its blocks are
/// complete, and pairs are counted from stream start as in the one-shot
/// call, the transform inputs — and therefore every emitted value — are
/// **bit-identical** regardless of how the input was chunked, and
/// bit-identical to the corresponding one-shot `correlate_into` call on
/// the concatenated input.
///
/// The working set is one `block_len + step` buffer (two overlapping
/// blocks), independent of how many samples have been pushed.
#[derive(Debug, Clone)]
pub struct ChunkFeed {
    /// The sliding window of the implicitly padded input stream
    /// (`lead` zeros, then every pushed sample, then flush-time zeros):
    /// always equal to `padded[pairs_done * 2 * step ..]`, capacity
    /// `block_len + step`.
    buf: Vec<f64>,
    lead: usize,
    block_len: usize,
    step: usize,
    pushed: usize,
    emitted: usize,
    finished: bool,
}

impl ChunkFeed {
    fn new(lead: usize, block_len: usize, step: usize) -> Self {
        let mut buf = Vec::with_capacity(block_len + step);
        buf.resize(lead, 0.0);
        ChunkFeed {
            buf,
            lead,
            block_len,
            step,
            pushed: 0,
            emitted: 0,
            finished: false,
        }
    }

    /// Returns the feed to its initial state for a fresh stream, keeping
    /// the block buffer's capacity (no allocation).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.buf.resize(self.lead, 0.0);
        self.pushed = 0;
        self.emitted = 0;
        self.finished = false;
    }

    /// Bytes reserved by the feed's block buffer.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<f64>()
    }
}

/// Folds a zero-phase FIR prefilter into a correlation template:
/// `G[u] = Σⱼ h[j]·t[u − (T−1) + j]`, the full cross-correlation of the
/// template with the taps, accumulated in f64. Correlating a raw signal
/// against `G` at lead `(T−1)/2` reproduces band-pass-then-correlate
/// exactly for every full-overlap lag (`corr(bp(x), t) = corr(x, bp⋆t)`
/// for LTI filtering under zero-extension boundaries) — the algebra
/// behind [`StreamingMatchedFilter::with_zero_phase_prefilter`] and
/// [`BandLimitedBank::with_zero_phase_prefilters`], which pay
/// for the prefilter once at construction instead of once per input
/// pass.
fn fold_zero_phase_taps(template: &[f64], taps: &[f64]) -> Vec<f64> {
    let m = template.len();
    let t = taps.len();
    (0..m + t - 1)
        .map(|u| {
            let mut acc = 0.0f64;
            for (j, &h) in taps.iter().enumerate() {
                let idx = u as isize - (t as isize - 1) + j as isize;
                if (0..m as isize).contains(&idx) {
                    acc += h * template[idx as usize];
                }
            }
            acc
        })
        .collect()
}

/// Per-template emptiness/energy validation; returns the template
/// energies (the normalized output's lane gains are their inverses).
fn template_energies(templates: &[&[f64]]) -> Result<Vec<f64>, DspError> {
    if templates.is_empty() {
        return Err(DspError::EmptyInput {
            what: "template bank",
        });
    }
    templates
        .iter()
        .map(|template| {
            if template.is_empty() {
                return Err(DspError::EmptyInput {
                    what: "matched-filter template",
                });
            }
            let energy: f64 = template.iter().map(|x| x * x).sum();
            if energy == 0.0 {
                return Err(DspError::invalid("template", "template has zero energy"));
            }
            Ok(energy)
        })
        .collect()
}

/// The folded engine for `entries` of `(template, taps)`: each template
/// with its own zero-phase prefilter folded in (see
/// [`fold_zero_phase_taps`]), at the default block policy
/// `next_pow2(4 × longest folded template)` and the shared group delay as
/// lead. Returns the engine and the original templates' energies.
fn folded_engine(entries: &[(&[f64], &[f64])]) -> Result<(OverlapSave, Vec<f64>), DspError> {
    let templates: Vec<&[f64]> = entries.iter().map(|&(t, _)| t).collect();
    let energies = template_energies(&templates)?;
    let delay = entries
        .first()
        .map_or(0, |(_, taps)| taps.len().saturating_sub(1) / 2);
    let mut folded = Vec::with_capacity(entries.len());
    for (template, taps) in entries {
        if taps.is_empty() {
            return Err(DspError::EmptyInput {
                what: "prefilter taps",
            });
        }
        if (taps.len() - 1) / 2 != delay {
            return Err(DspError::invalid(
                "taps",
                "all prefilters in a bank must share one group delay",
            ));
        }
        folded.push(fold_zero_phase_taps(template, taps));
    }
    let refs: Vec<&[f64]> = folded.iter().map(Vec::as_slice).collect();
    Ok((
        OverlapSave::new(&refs, default_block(&refs)?, delay)?,
        energies,
    ))
}

/// The default block policy: `next_pow2(4 × longest template)`.
fn default_block(templates: &[&[f64]]) -> Result<usize, DspError> {
    let longest = templates.iter().map(|t| t.len()).max().unwrap_or(0);
    try_next_pow2(longest.saturating_mul(4))
}

/// The full-rate matched filter: one template correlated in fixed-size
/// overlap-save blocks.
///
/// The signal is processed in blocks of `block_len` samples (default
/// `next_pow2(4 × template)`, so 4–8× the template length) instead of
/// one `next_pow2(signal + template)` transform: cost is O(N log B) time
/// and O(B) working memory, and the peak FFT size is the block length
/// regardless of capture length.
///
/// Detection runs the band-limited form
/// ([`StreamingMatchedFilter::band_limited`]); the full-rate output
/// serves MCCI fusion, which averages full-rate correlations across
/// channels.
///
/// # Accuracy
///
/// Output is *bit-close, not bit-identical*, to one-shot [`xcorr`]: both
/// compute the same exact sum per lag, but block boundaries change the
/// floating-point summation order. The difference is pinned by tests at
/// `≤ 1e-9 · (1 + max|xcorr|)` per lag (observed error is ~1e-12
/// relative for audio-scale inputs).
///
/// The hot methods take `&self` — one filter can serve many channels
/// concurrently, each with its own [`DspScratch`].
#[derive(Debug, Clone)]
pub struct StreamingMatchedFilter {
    engine: OverlapSave,
    /// `1 / Σ x²` of the **original** (pre-fold) template: the
    /// normalized output's gain, applied as lags are copied out.
    gain: f64,
    /// The shortest signal accepted: the original template's length.
    /// Folding lengthens the engine's template by `taps − 1`, but zero
    /// extension lets any capture that holds one original template
    /// correlate.
    min_len: usize,
}

impl StreamingMatchedFilter {
    /// Creates a streaming matched filter with the default block policy:
    /// `block_len = next_pow2(4 × template.len())`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template and
    /// [`DspError::InvalidParameter`] for an all-zero template.
    pub fn new(template: &[f64]) -> Result<Self, DspError> {
        Self::with_block_len(template, default_block(&[template])?)
    }

    /// Creates a streaming matched filter with an explicit FFT block
    /// length (power of two, at least `template.len()`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilter::new`], plus
    /// [`DspError::InvalidParameter`] for an invalid `block_len`.
    pub fn with_block_len(template: &[f64], block_len: usize) -> Result<Self, DspError> {
        let energies = template_energies(&[template])?;
        Ok(StreamingMatchedFilter {
            engine: OverlapSave::new(&[template], block_len, 0)?,
            gain: 1.0 / energies[0],
            min_len: template.len(),
        })
    }

    /// Creates a filter with a zero-phase FIR prefilter **folded into
    /// the template**: correlating a raw signal through the returned
    /// filter produces the same lags as band-passing the signal with
    /// `taps` (zero-phase, group-delay compensated) and then correlating
    /// with `template` — one overlap-save pass instead of two.
    ///
    /// The identity is exact for linear filtering under the
    /// zero-extension boundary semantics both formulations use: with
    /// `delay = (taps.len() − 1) / 2`,
    /// `Σₙ bp(x)[n+k]·t[n] = Σᵤ x[u+k−delay]·G[u]` where
    /// `G[u] = Σⱼ h[j]·t[u − (T−1) + j]` is the full cross-correlation
    /// of the template with the taps. The fold runs entirely in f64;
    /// normalization divides by the **original** template's energy so
    /// peak amplitudes match the two-pass pipeline, and the filter
    /// accepts any signal at least as long as the original template.
    ///
    /// One boundary caveat: the two-pass pipeline truncates the
    /// prefilter's ringing tail at the signal end, the folded engine
    /// keeps it, so the final `template.len() − 1` lags — the
    /// partial-overlap region where the template runs past the signal
    /// end and a matched filter's output is not meaningful anyway — may
    /// differ between the two formulations. Every earlier lag agrees up
    /// to floating-point summation order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StreamingMatchedFilter::new`], plus
    /// [`DspError::EmptyInput`] for an empty `taps` slice.
    pub fn with_zero_phase_prefilter(template: &[f64], taps: &[f64]) -> Result<Self, DspError> {
        let (engine, energies) = folded_engine(&[(template, taps)])?;
        Ok(StreamingMatchedFilter {
            engine,
            gain: 1.0 / energies[0],
            min_len: template.len(),
        })
    }

    fn run(
        &self,
        signal: &[f64],
        gain: f64,
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        check_signal(self.min_len, signal.len())?;
        self.engine
            .run(signal, scratch, &mut Lanes::Full { gain, out })
    }

    /// Blocked raw correlation; same output convention as [`xcorr`]
    /// (see the struct docs for the accuracy contract). Steady-state
    /// calls at warm sizes do not allocate.
    ///
    /// `out` is cleared and refilled (its capacity is reused).
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.run(signal, 1.0, scratch, out)
    }

    /// Blocked correlation normalized by the template energy, so a
    /// perfect match of the template at a lag yields 1.0 (the signal
    /// window energy is not divided out: beacon finding wants loud,
    /// template-shaped events).
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`].
    pub fn correlate_normalized_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), DspError> {
        self.run(signal, self.gain, scratch, out)
    }

    /// The band-limited form of this filter: a one-lane
    /// [`BandLimitedBank`] sharing its plan and template spectrum (the
    /// template is not transformed again).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when the block leaves fewer
    /// than 16 lags per block.
    pub fn band_limited(&self) -> Result<BandLimitedBank, DspError> {
        BandLimitedBank::from_engine(&self.engine, vec![self.gain], self.min_len)
    }
}

/// The band-limited matched filter: K ≥ 1 templates sharing one forward
/// FFT per overlap-save block pair, each lane copied out as its
/// decimated analytic correlation.
///
/// Every template is held at one shared `(block_len, template_len)`
/// geometry (shorter templates are implicitly zero-padded, which changes
/// no correlation value), so a block pair costs one forward transform
/// for all lanes. A beacon template occupies a narrow band, so most bins
/// of a block's product spectrum are (numerically) zero. Each lane keeps
/// only its template's band (see [`Decimation`]), separates the block
/// pair's two blocks there, shifts the band to baseband and
/// inverse-transforms it at `block_len / D`: lane `k` receives
/// `b_k(q) = a_k(D·q)·e^{−iω_c·D·q}`, the template-energy normalized
/// analytic correlation `a_k` (whose real part is the full-rate
/// correlation) at every `D`-th lag. Per lane that is two `N/D`-point
/// inverses instead of one `N`-point inverse;
/// [`Decimation::rebuild_into`] recovers full-rate values where a caller
/// needs them.
///
/// Band-pass prefilters fold into the templates
/// ([`BandLimitedBank::with_zero_phase_prefilters`]), so a K-beacon
/// detection pass runs no FIR pass over the input.
///
/// The block step is rounded down to a multiple of 16 (the largest
/// factor), so the block partition is the same for every factor,
/// decimated index `q` is full-rate lag `D·q` counted from stream start,
/// chunked ingestion is bit-identical to one-shot, and every lane is
/// bit-identical to a one-template engine at the same geometry.
///
/// The hot methods take `&self`; clones share the template spectra, the
/// bands and the FFT plans by `Arc`, so per-worker state is one
/// [`DspScratch`] plus the lanes.
#[derive(Debug, Clone)]
pub struct BandLimitedBank {
    engine: OverlapSave,
    bands: Vec<Arc<Band>>,
    gains: Vec<f64>,
    min_len: usize,
}

impl BandLimitedBank {
    /// Creates a bank with the default block policy:
    /// `block_len = next_pow2(4 × longest template)`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for an empty template list or an
    /// empty template, and [`DspError::InvalidParameter`] for an
    /// all-zero template or a block that leaves fewer than 16 lags.
    pub fn new(templates: &[&[f64]]) -> Result<Self, DspError> {
        let energies = template_energies(templates)?;
        let engine = OverlapSave::new(templates, default_block(templates)?, 0)?;
        let min_len = engine.template_len;
        Self::from_engine(&engine, energies.iter().map(|e| 1.0 / e).collect(), min_len)
    }

    /// Creates a bank with a zero-phase FIR prefilter folded into each
    /// template: entry `k` is `(template_k, taps_k)`, and lane `k`
    /// reproduces band-pass-with-`taps_k`-then-correlate-with-
    /// `template_k` under the exact algebra (and partial-overlap caveat)
    /// of [`StreamingMatchedFilter::with_zero_phase_prefilter`]. Each
    /// template can carry its *own* band — the fold runs per lane, the
    /// input is never filtered at all.
    ///
    /// All taps must share one group delay `(len − 1) / 2` so every lane
    /// keeps the shared lag origin (equal odd tap counts, the common
    /// case of one configured tap budget, always qualify).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BandLimitedBank::new`], plus
    /// [`DspError::EmptyInput`] for an empty taps slice and
    /// [`DspError::InvalidParameter`] for mismatched group delays.
    pub fn with_zero_phase_prefilters(entries: &[(&[f64], &[f64])]) -> Result<Self, DspError> {
        let (engine, energies) = folded_engine(entries)?;
        let min_len = entries.iter().map(|(t, _)| t.len()).max().unwrap_or(0);
        Self::from_engine(&engine, energies.iter().map(|e| 1.0 / e).collect(), min_len)
    }

    /// The band-limited copy-out of `engine` (sharing its plan and
    /// template spectra) with lane gains `gains`.
    fn from_engine(
        engine: &OverlapSave,
        gains: Vec<f64>,
        min_len: usize,
    ) -> Result<Self, DspError> {
        let block = engine.block_len();
        let bands = engine
            .specs
            .iter()
            .map(|spec| Band::new(spec, block).map(Arc::new))
            .collect::<Result<_, _>>()?;
        Ok(BandLimitedBank {
            engine: engine.aligned()?,
            bands,
            gains,
            min_len,
        })
    }

    /// The FFT block length — the largest transform of every call.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.engine.block_len()
    }

    /// Full-rate lags produced per block: a multiple of 16, whatever
    /// each lane's factor.
    #[must_use]
    pub fn step(&self) -> usize {
        self.engine.step()
    }

    /// Template FFTs behind this bank: exactly one per template, at
    /// construction. Clones share the spectra by `Arc` and report the
    /// same count — the observable proof that sharing a bank across pool
    /// workers never recomputes a template spectrum.
    #[must_use]
    pub fn template_fft_count(&self) -> usize {
        self.engine.specs.len()
    }

    /// Lane `k`'s decimation (factor, band, rebuild interpolator).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn decimation(&self, k: usize) -> &Decimation {
        &self.bands[k].dec
    }

    fn lanes_for<'a>(&'a self, outs: &'a mut [Vec<Complex>]) -> Lanes<'a> {
        Lanes::Decimated {
            bands: &self.bands,
            gains: &self.gains,
            outs,
        }
    }

    /// One-shot band-limited correlation: lane `k` is cleared and
    /// refilled with template `k`'s normalized decimated analytic
    /// correlation, `decimation(k).decimated_len(signal.len())` values.
    /// Steady-state calls at warm sizes do not allocate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`xcorr`], plus
    /// [`DspError::InvalidParameter`] when `lanes.len()` differs from
    /// the bank's lane count.
    pub fn correlate_into(
        &self,
        signal: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut [Vec<Complex>],
    ) -> Result<(), DspError> {
        check_signal(self.min_len, signal.len())?;
        self.engine.run(signal, scratch, &mut self.lanes_for(lanes))
    }

    /// Creates an online ingestion feed for this bank (see
    /// [`ChunkFeed`]).
    #[must_use]
    pub fn chunk_feed(&self) -> ChunkFeed {
        self.engine.chunk_feed()
    }

    /// Pushes `chunk` into `feed`, appending every decimated value whose
    /// block completed to its lane. Flushed streams are bit-identical
    /// per lane to [`BandLimitedBank::correlate_into`] over the
    /// concatenated chunks, independent of chunking.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `feed` was created by a
    /// different engine, has already been finished, or `lanes` is
    /// mis-sized.
    pub fn push_chunk_into(
        &self,
        feed: &mut ChunkFeed,
        chunk: &[f64],
        scratch: &mut DspScratch,
        lanes: &mut [Vec<Complex>],
    ) -> Result<(), DspError> {
        self.engine
            .feed_push(feed, chunk, scratch, &mut self.lanes_for(lanes))
    }

    /// Flushes `feed`, appending the remaining decimated values so each
    /// lane matches the one-shot call exactly. The feed is then
    /// finished; call [`ChunkFeed::reset`] to reuse it.
    ///
    /// # Errors
    ///
    /// Mirrors [`BandLimitedBank::correlate_into`] on the concatenated
    /// input, plus the feed and lane checks of
    /// [`BandLimitedBank::push_chunk_into`].
    pub fn finish_chunks_into(
        &self,
        feed: &mut ChunkFeed,
        scratch: &mut DspScratch,
        lanes: &mut [Vec<Complex>],
    ) -> Result<(), DspError> {
        if !feed.finished {
            check_signal(self.min_len, feed.pushed)?;
        }
        self.engine
            .feed_finish(feed, scratch, &mut self.lanes_for(lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::Window;

    fn argmax(x: &[f64]) -> usize {
        x.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0
    }

    #[test]
    fn finds_template_at_known_offset() {
        let template = [1.0, -2.0, 3.0, -1.0];
        let mut signal = vec![0.0; 64];
        signal[20..24].copy_from_slice(&template);
        let out = xcorr(&signal, &template).unwrap();
        assert_eq!(argmax(&out), 20);
        let peak = out[20];
        let energy: f64 = template.iter().map(|x| x * x).sum();
        assert!((peak - energy).abs() < 1e-9);
    }

    #[test]
    fn matches_direct_computation() {
        let signal: Vec<f64> = (0..50).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let template: Vec<f64> = (0..8).map(|i| ((i * 3 % 5) as f64) - 2.0).collect();
        let fast = xcorr(&signal, &template).unwrap();
        for k in 0..signal.len() {
            let direct: f64 = template
                .iter()
                .enumerate()
                .filter(|(n, _)| k + n < signal.len())
                .map(|(n, &t)| signal[k + n] * t)
                .sum();
            assert!((fast[k] - direct).abs() < 1e-8, "lag {k}");
        }
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(xcorr(&[], &[1.0]).is_err());
        assert!(xcorr(&[1.0], &[]).is_err());
        assert!(xcorr(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn detects_template_in_noise() {
        // Deterministic pseudo-noise plus a strong template.
        let template: Vec<f64> = (0..32)
            .map(|i| (i as f64 * 0.7).sin() * (i as f64 * 0.13).cos())
            .collect();
        let mut signal: Vec<f64> = (0..512)
            .map(|i| 0.05 * ((i * 2654435761_usize % 1000) as f64 / 500.0 - 1.0))
            .collect();
        for (i, &t) in template.iter().enumerate() {
            signal[200 + i] += t;
        }
        let out = xcorr(&signal, &template).unwrap();
        assert_eq!(argmax(&out), 200);
    }

    #[test]
    fn two_occurrences_produce_two_peaks() {
        let template = [1.0, 2.0, 1.0];
        let mut signal = vec![0.0; 64];
        signal[10..13].copy_from_slice(&template);
        signal[40..43].copy_from_slice(&template);
        let out = xcorr(&signal, &template).unwrap();
        let energy: f64 = template.iter().map(|x| x * x).sum();
        assert!((out[10] - energy).abs() < 1e-9);
        assert!((out[40] - energy).abs() < 1e-9);
    }

    fn correlate(filter: &StreamingMatchedFilter, signal: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        filter.correlate_into(signal, &mut DspScratch::new(), &mut out)?;
        Ok(out)
    }

    fn assert_bit_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        let scale = 1.0 + b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= 1e-9 * scale, "lag {i}: {x} vs {y}");
        }
    }

    #[test]
    fn streaming_matches_one_shot_xcorr() {
        let template: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.4).sin() - 0.3 * (i as f64 * 0.09).cos())
            .collect();
        let signal: Vec<f64> = (0..1500)
            .map(|i| (i as f64 * 0.021).sin() * (i as f64 * 0.0047).cos())
            .collect();
        let reference = xcorr(&signal, &template).unwrap();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        assert_eq!(filter.engine.block_len(), 256); // next_pow2(4 * 37)
        assert_eq!(filter.engine.step(), 256 - 37 + 1);
        let streamed = correlate(&filter, &signal).unwrap();
        assert_bit_close(&streamed, &reference);
    }

    #[test]
    fn streaming_handles_signal_shorter_than_one_block() {
        let template = [1.0, -2.0, 3.0, -1.0, 0.5];
        let signal: Vec<f64> = (0..7).map(|i| (i as f64 * 0.9).sin()).collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        assert!(filter.engine.block_len() > signal.len());
        let streamed = correlate(&filter, &signal).unwrap();
        let reference = xcorr(&signal, &template).unwrap();
        assert_bit_close(&streamed, &reference);
    }

    #[test]
    fn streaming_peak_fft_size_is_capture_independent() {
        let template: Vec<f64> = (0..100).map(|i| (i as f64 * 0.2).sin()).collect();
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let block = filter.engine.block_len();
        for &len in &[200usize, 1000, 50_000] {
            let signal: Vec<f64> = (0..len).map(|i| (i as f64 * 0.01).cos()).collect();
            let reference = xcorr(&signal, &template).unwrap();
            let streamed = correlate(&filter, &signal).unwrap();
            assert_bit_close(&streamed, &reference);
            // Block length is a property of the template alone.
            assert_eq!(filter.engine.block_len(), block);
        }
    }

    #[test]
    fn streaming_normalization_peaks_at_one_for_exact_match() {
        let template = [2.0, 0.0, -2.0];
        let mut signal = vec![0.0; 64];
        signal[4..7].copy_from_slice(&template);
        let filter = StreamingMatchedFilter::new(&template).unwrap();
        let mut scratch = DspScratch::new();
        let mut out = Vec::new();
        filter
            .correlate_normalized_into(&signal, &mut scratch, &mut out)
            .unwrap();
        assert!((out[4] - 1.0).abs() < 1e-9);
        assert!((filter.gain - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(filter.engine.template_len, 3);
    }

    /// Feeds `signal` through a chunk feed of `bank` in pieces of the
    /// given sizes (cycled) and returns every lane's emitted output.
    fn run_chunked(bank: &BandLimitedBank, signal: &[f64], sizes: &[usize]) -> Vec<Vec<Complex>> {
        let mut feed = bank.chunk_feed();
        let mut scratch = DspScratch::new();
        let mut lanes = vec![Vec::new(); bank.template_fft_count()];
        let mut pos = 0;
        let mut i = 0;
        while pos < signal.len() {
            let n = sizes[i % sizes.len()].min(signal.len() - pos);
            bank.push_chunk_into(&mut feed, &signal[pos..pos + n], &mut scratch, &mut lanes)
                .unwrap();
            pos += n;
            i += 1;
        }
        bank.finish_chunks_into(&mut feed, &mut scratch, &mut lanes)
            .unwrap();
        assert!(feed.finished);
        assert_eq!(feed.pushed, signal.len());
        assert_eq!(feed.emitted, signal.len());
        lanes
    }

    /// A one-template band-limited engine (a 37-tap template at a
    /// 256-point block) and a test capture.
    fn band_fixture() -> (BandLimitedBank, Vec<f64>) {
        let template: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.4).sin() - 0.3 * (i as f64 * 0.09).cos())
            .collect();
        let signal: Vec<f64> = (0..1777)
            .map(|i| (i as f64 * 0.021).sin() * (i as f64 * 0.0047).cos())
            .collect();
        let filter = StreamingMatchedFilter::with_block_len(&template, 256).unwrap();
        (filter.band_limited().unwrap(), signal)
    }

    #[test]
    fn chunked_feed_is_bit_identical_to_one_shot() {
        let (templates, signal) = bank_fixtures();
        let refs: Vec<&[f64]> = templates.iter().map(Vec::as_slice).collect();
        let (solo, _) = band_fixture();
        let bank = BandLimitedBank::new(&refs).unwrap();
        for bank in [solo, bank] {
            let mut reference = vec![Vec::new(); bank.template_fft_count()];
            bank.correlate_into(&signal, &mut DspScratch::new(), &mut reference)
                .unwrap();
            // Single samples, prime sizes, block-aligned sizes, whole capture.
            for sizes in [
                &[1usize][..],
                &[3, 7, 11][..],
                &[256][..],
                &[signal.len()][..],
                &[255, 1, 513][..],
            ] {
                let streamed = run_chunked(&bank, &signal, sizes);
                assert_eq!(streamed, reference, "chunk sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn chunk_feed_reset_supports_reuse_and_empty_chunks() {
        let (band, signal) = band_fixture();
        let mut scratch = DspScratch::new();
        let mut reference = vec![Vec::new()];
        band.correlate_into(&signal, &mut scratch, &mut reference)
            .unwrap();
        let mut feed = band.chunk_feed();
        for round in 0..3 {
            let mut out = vec![Vec::new()];
            // Zero-length chunks are no-ops anywhere in the stream.
            band.push_chunk_into(&mut feed, &[], &mut scratch, &mut out)
                .unwrap();
            band.push_chunk_into(&mut feed, &signal[..400], &mut scratch, &mut out)
                .unwrap();
            band.push_chunk_into(&mut feed, &[], &mut scratch, &mut out)
                .unwrap();
            band.push_chunk_into(&mut feed, &signal[400..], &mut scratch, &mut out)
                .unwrap();
            band.finish_chunks_into(&mut feed, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, reference, "round {round}");
            // A finished feed rejects further traffic until reset.
            assert!(band
                .push_chunk_into(&mut feed, &signal[..1], &mut scratch, &mut out)
                .is_err());
            assert!(band
                .finish_chunks_into(&mut feed, &mut scratch, &mut out)
                .is_err());
            feed.reset();
        }
    }

    #[test]
    fn chunk_feed_finish_mirrors_one_shot_errors() {
        let band = StreamingMatchedFilter::with_block_len(&[1.0, 2.0, 3.0], 64)
            .unwrap()
            .band_limited()
            .unwrap();
        let mut scratch = DspScratch::new();
        let mut out = vec![Vec::new()];
        // Nothing pushed: same error class as correlate(&[]).
        let mut feed = band.chunk_feed();
        assert!(matches!(
            band.finish_chunks_into(&mut feed, &mut scratch, &mut out),
            Err(DspError::EmptyInput { .. })
        ));
        // Fewer samples than the template: same error as the one-shot.
        feed.reset();
        band.push_chunk_into(&mut feed, &[1.0, 2.0], &mut scratch, &mut out)
            .unwrap();
        assert!(band
            .finish_chunks_into(&mut feed, &mut scratch, &mut out)
            .is_err());
        assert!(band
            .correlate_into(&[1.0, 2.0], &mut scratch, &mut out)
            .is_err());
        // A feed from a different engine geometry is rejected.
        let (other, _) = band_fixture();
        let mut foreign = other.chunk_feed();
        assert!(band
            .push_chunk_into(&mut foreign, &[1.0], &mut scratch, &mut out)
            .is_err());
    }

    #[test]
    fn streaming_rejects_degenerate_inputs() {
        assert!(StreamingMatchedFilter::new(&[]).is_err());
        assert!(StreamingMatchedFilter::new(&[0.0, 0.0]).is_err());
        // Block shorter than template, or not a power of two.
        assert!(StreamingMatchedFilter::with_block_len(&[1.0; 8], 4).is_err());
        assert!(StreamingMatchedFilter::with_block_len(&[1.0; 8], 12).is_err());
        let filter = StreamingMatchedFilter::new(&[1.0, 2.0]).unwrap();
        assert!(correlate(&filter, &[]).is_err());
        assert!(correlate(&filter, &[1.0]).is_err());
    }

    /// Three deterministic templates of *different* lengths plus a long
    /// test capture, shared by the bank conformance tests.
    fn bank_fixtures() -> (Vec<Vec<f64>>, Vec<f64>) {
        let templates: Vec<Vec<f64>> = [(37usize, 0.40, 0.09), (29, 0.23, 0.31), (61, 0.57, 0.13)]
            .iter()
            .map(|&(n, a, b)| {
                (0..n)
                    .map(|i| (i as f64 * a).sin() - 0.3 * (i as f64 * b).cos())
                    .collect()
            })
            .collect();
        let signal: Vec<f64> = (0..2_111)
            .map(|i| (i as f64 * 0.021).sin() * (i as f64 * 0.0047).cos())
            .collect();
        (templates, signal)
    }

    /// Folded-prefilter bank: each lane bit-identical to an independent
    /// folded band-limited engine. Equal-length templates give both
    /// paths the same geometry automatically.
    #[test]
    fn bank_folded_prefilters_match_independent_folded_engines() {
        let templates: Vec<Vec<f64>> = [(0.40, 0.09), (0.23, 0.31), (0.57, 0.13), (0.71, 0.05)]
            .iter()
            .map(|&(a, b)| {
                (0..48)
                    .map(|i| (i as f64 * a).sin() - 0.3 * (i as f64 * b).cos())
                    .collect()
            })
            .collect();
        let signal: Vec<f64> = (0..1_900)
            .map(|i| (i as f64 * 0.037).sin() * (i as f64 * 0.0011).cos())
            .collect();
        // Per-lane band-pass filters with distinct bands but one tap
        // count (hence one group delay), like K beacon signatures.
        let bands = [
            (2_000.0, 3_000.0),
            (3_200.0, 4_200.0),
            (4_400.0, 5_400.0),
            (5_600.0, 6_600.0),
        ];
        let taps: Vec<Vec<f64>> = bands
            .iter()
            .map(|&(lo, hi)| {
                crate::filter::FirFilter::band_pass(lo, hi, 44_100.0, 31, Window::Hamming)
                    .unwrap()
                    .taps()
                    .to_vec()
            })
            .collect();
        let entries: Vec<(&[f64], &[f64])> = templates
            .iter()
            .zip(&taps)
            .map(|(t, h)| (t.as_slice(), h.as_slice()))
            .collect();
        let bank = BandLimitedBank::with_zero_phase_prefilters(&entries).unwrap();
        assert_eq!(bank.engine.lead, 15);
        assert_eq!(bank.engine.template_len, 48 + 31 - 1);
        let mut scratch = DspScratch::new();
        let mut lanes: Vec<Vec<Complex>> = vec![Vec::new(); bank.template_fft_count()];
        bank.correlate_into(&signal, &mut scratch, &mut lanes)
            .unwrap();
        for (k, (template, tap)) in templates.iter().zip(&taps).enumerate() {
            let single = StreamingMatchedFilter::with_zero_phase_prefilter(template, tap)
                .unwrap()
                .band_limited()
                .unwrap();
            assert_eq!(single.block_len(), bank.block_len());
            assert_eq!(single.step(), bank.step());
            assert_eq!(single.decimation(0), bank.decimation(k));
            let mut reference = vec![Vec::new()];
            single
                .correlate_into(&signal, &mut scratch, &mut reference)
                .unwrap();
            assert_eq!(lanes[k], reference[0], "folded lane {k}");
        }
        // The chunked folded bank honours the shared lead.
        assert_eq!(run_chunked(&bank, &signal, &[113]), lanes);
    }

    /// The folded f64 single engine itself must reproduce band-pass →
    /// correlate exactly (not just within f32 rounding): zero-phase
    /// filter then correlate equals folded correlation at every full-
    /// overlap lag.
    #[test]
    fn f64_folded_prefilter_matches_filter_then_correlate() {
        let template: Vec<f64> = (0..61)
            .map(|i| (i as f64 * 0.31).sin() * (1.0 - (i as f64 - 30.0).abs() / 31.0))
            .collect();
        let signal: Vec<f64> = (0..2_111)
            .map(|i| (i as f64 * 0.037).sin() * (i as f64 * 0.0011).cos())
            .collect();
        let bp =
            crate::filter::FirFilter::band_pass(2_000.0, 6_400.0, 44_100.0, 31, Window::Hamming)
                .unwrap();
        let filtered = bp.filter_zero_phase(&signal).unwrap();
        let reference = xcorr(&filtered, &template).unwrap();
        let folded =
            StreamingMatchedFilter::with_zero_phase_prefilter(&template, bp.taps()).unwrap();
        let folded_len = folded.engine.template_len;
        assert_eq!(folded_len, template.len() + bp.taps().len() - 1);
        let streamed = correlate(&folded, &signal).unwrap();
        assert_eq!(streamed.len(), reference.len());
        let full = signal.len() - folded_len + 1;
        assert_bit_close(&streamed[..full], &reference[..full]);
        // Folding lengthens the engine template, not the shortest signal
        // accepted: one original template's worth still correlates, one
        // sample less does not — full-rate, band-limited and chunked
        // alike.
        let short = &signal[..template.len()];
        assert_eq!(correlate(&folded, short).unwrap().len(), template.len());
        assert!(correlate(&folded, &short[1..]).is_err());
        let band = folded.band_limited().unwrap();
        let mut scratch = DspScratch::new();
        let mut out = vec![Vec::new()];
        band.correlate_into(short, &mut scratch, &mut out).unwrap();
        assert_eq!(run_chunked(&band, short, &[7]), out);
        assert!(band
            .correlate_into(&short[1..], &mut scratch, &mut out)
            .is_err());
        let mut feed = band.chunk_feed();
        band.push_chunk_into(&mut feed, &short[1..], &mut scratch, &mut out)
            .unwrap();
        assert!(band
            .finish_chunks_into(&mut feed, &mut scratch, &mut out)
            .is_err());
        // Degenerate folds are rejected.
        assert!(StreamingMatchedFilter::with_zero_phase_prefilter(&[], bp.taps()).is_err());
        assert!(StreamingMatchedFilter::with_zero_phase_prefilter(&template, &[]).is_err());
        assert!(StreamingMatchedFilter::with_zero_phase_prefilter(&[0.0, 0.0], bp.taps()).is_err());
    }

    #[test]
    fn bank_clone_shares_template_spectra() {
        let (templates, _) = bank_fixtures();
        let refs: Vec<&[f64]> = templates.iter().map(Vec::as_slice).collect();
        let bank = BandLimitedBank::new(&refs).unwrap();
        assert_eq!(bank.template_fft_count(), 3);
        let clone = bank.clone();
        // A clone reuses the Arc'd spectra and bands — no new template
        // FFTs, no new band plans.
        assert_eq!(clone.template_fft_count(), 3);
        for (a, b) in bank.engine.specs.iter().zip(&clone.engine.specs) {
            assert!(Arc::ptr_eq(a, b));
        }
        for (a, b) in bank.bands.iter().zip(&clone.bands) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(Arc::ptr_eq(&bank.engine.plan, &clone.engine.plan));
    }

    #[test]
    fn bank_rejects_degenerate_inputs() {
        assert!(BandLimitedBank::new(&[]).is_err());
        assert!(BandLimitedBank::new(&[&[1.0, 2.0][..], &[][..]]).is_err());
        assert!(BandLimitedBank::new(&[&[1.0][..], &[0.0, 0.0][..]]).is_err());
        // Mismatched prefilter group delays are rejected.
        assert!(BandLimitedBank::with_zero_phase_prefilters(&[
            (&[1.0, 2.0][..], &[0.2, 0.6, 0.2][..]),
            (&[1.0, 2.0][..], &[0.1, 0.2, 0.4, 0.2, 0.1][..]),
        ])
        .is_err());
        assert!(BandLimitedBank::with_zero_phase_prefilters(&[]).is_err());
        assert!(BandLimitedBank::with_zero_phase_prefilters(&[(&[1.0][..], &[][..])]).is_err());

        let band = BandLimitedBank::new(&[&[1.0; 8][..], &[2.0, -1.0][..]]).unwrap();
        let mut scratch = DspScratch::new();
        let mut lanes: Vec<Vec<Complex>> = vec![Vec::new(); 2];
        assert!(band.correlate_into(&[], &mut scratch, &mut lanes).is_err());
        assert!(band
            .correlate_into(&[1.0; 7], &mut scratch, &mut lanes)
            .is_err());
        // Mis-sized lane sets are rejected everywhere.
        let mut short: Vec<Vec<Complex>> = vec![Vec::new(); 1];
        assert!(band
            .correlate_into(&[1.0; 16], &mut scratch, &mut short)
            .is_err());
        let mut feed = band.chunk_feed();
        assert!(band
            .push_chunk_into(&mut feed, &[1.0], &mut scratch, &mut short)
            .is_err());
        assert!(band
            .finish_chunks_into(&mut feed, &mut scratch, &mut short)
            .is_err());
        // Feed error mirroring: nothing pushed, short stream.
        assert!(matches!(
            band.finish_chunks_into(&mut feed, &mut scratch, &mut lanes),
            Err(DspError::EmptyInput { .. })
        ));
        band.push_chunk_into(&mut feed, &[1.0], &mut scratch, &mut lanes)
            .unwrap();
        assert!(band
            .finish_chunks_into(&mut feed, &mut scratch, &mut lanes)
            .is_err());
        // A block that leaves fewer than 16 lags has no band-limited form.
        assert!(StreamingMatchedFilter::with_block_len(&[1.0; 8], 16)
            .unwrap()
            .band_limited()
            .is_err());
    }
}
