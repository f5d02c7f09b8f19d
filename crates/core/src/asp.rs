//! Acoustic Signal Preprocessing: band-pass filtering, chirp beacon
//! detection, and sub-sample arrival interpolation (paper Sections III
//! and IV-A).
//!
//! Detection is the BeepBeep method the paper adopts: correlate each
//! channel with a reference chirp and accept correlation maxima that
//! stand well above the background-noise floor. Arrival times are then
//! refined below the sampling grid — without that refinement the TDoA
//! resolution would be stuck at 7.78 mm per sample (paper §II-C).
//!
//! The beacon occupies a narrow band, so detection runs at the band's
//! rate: the matched filter produces the decimated analytic correlation
//! ([`BandLimitedBank`]), the threshold and peak picking run on its
//! envelope, and each accepted arrival is timed on full-rate
//! correlation values rebuilt at the few lags the sub-sample fit reads
//! ([`Decimation::rebuild_into`]).

use crate::config::{HyperEarConfig, Interpolation, MultiBeaconConfig, TdoaEstimator};
use crate::HyperEarError;
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::correlate::{BandLimitedBank, ChunkFeed, StreamingMatchedFilter};
use hyperear_dsp::envelope::envelope_with;
use hyperear_dsp::estimator::{mcci_fuse_channel_into, AnalyticSpectrum, EstimatorScratch};
use hyperear_dsp::filter::FirFilter;
use hyperear_dsp::interpolate::{parabolic_peak, sinc_peak, Decimation};
use hyperear_dsp::peak::{
    detect_envelope_peaks_into, detect_peaks_into, Peak, PeakScratch, ThresholdRule,
};
use hyperear_dsp::plan::{DspScratch, Planes};
use hyperear_dsp::window::Window;
use hyperear_dsp::Complex;
use hyperear_geom::MAX_MICS;

/// One detected beacon arrival on one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconArrival {
    /// Arrival time in seconds on the recording clock, with sub-sample
    /// resolution.
    pub time: f64,
    /// Matched-filter response at the peak (template-energy normalized).
    pub strength: f64,
}

/// The immutable, shareable half of a beacon detector: the reference
/// chirp's matched filter with the band-pass folded in, and every
/// detection threshold — everything construction precomputes and
/// detection only reads.
///
/// The configured band-pass FIR is folded into the matched-filter
/// template (`corr(bp(x), t) = corr(x, bp⋆t)`, see
/// [`StreamingMatchedFilter::with_zero_phase_prefilter`]), so detection
/// is one overlap-save pass over the raw channel, copied out band-limited
/// ([`BandLimitedBank`]). The full-rate form of the same filter serves
/// only the MCCI rung. The engine's hot methods take `&self`, so one
/// core can serve any number of channels (or batch workers)
/// concurrently — each caller brings its own [`DetectScratch`]. Template
/// spectra and FFT tables therefore exist once per sample rate per
/// process instead of once per worker.
#[derive(Debug, Clone)]
pub(crate) struct DetectorCore {
    /// The full-rate folded filter: MCCI fusion's on-demand correlation.
    filter: StreamingMatchedFilter,
    /// Its band-limited form (shared template spectrum): every other
    /// detection pass.
    band: BandLimitedBank,
    /// The chirp template length: the shortest channel detection
    /// accepts (folding lengthens the engine template, not this).
    chirp_len: usize,
    sample_rate: f64,
    threshold: ThresholdRule,
    interpolation: Interpolation,
    envelope_detection: bool,
    /// The configured initial estimator (see `EstimatorPolicy::initial`);
    /// engine-driven escalation may override it per detection pass.
    estimator: TdoaEstimator,
    phat_floor: f64,
    coherence_bands: usize,
    /// Beacon band for coherence weighting, Hz (band-pass margins applied,
    /// clamped to Nyquist).
    coherence_band: (f64, f64),
}

/// How far (samples, each side) guided arrival extraction searches a
/// channel's own correlation around a *spectrally-weighted* guide peak.
/// The weighted guide lives on the channel's own time line, so the guide
/// is already within interpolation distance of the own-correlation peak.
pub(crate) const WEIGHTED_REFINE: usize = 8;

/// Refine radius (samples, each side) around an *MCCI-fused* guide peak.
/// Fusion aligns channels with one session-constant offset per channel,
/// but the instantaneous inter-channel lag walks across ±(mic
/// separation / c) during a slide — ±17.6 samples at 13.66 cm and
/// 44.1 kHz — so a fused apex can sit up to ~2× that from the own-channel
/// peak. 40 samples covers the worst case while staying below the
/// shortest NLOS echo delay the fault model injects (~53 samples), and
/// the own-correlation direct peak dominates any echo inside the window
/// regardless (echoes arrive attenuated on the unweighted correlation).
pub(crate) const FUSED_REFINE: usize = 40;

/// Leading-edge backtrack window for guided arrival extraction, seconds.
/// NLOS multipath puts an echo *after* the direct path at millisecond
/// scale; when a detected cluster's apex is actually the echo (spectral
/// whitening equalizes their amplitudes), the direct path survives as an
/// earlier near-equal local maximum inside this window.
const LEADING_EDGE_WINDOW: f64 = 0.004;

/// An earlier local maximum within [`LEADING_EDGE_WINDOW`] replaces the
/// cluster apex as the timing guide when it reaches this fraction of the
/// apex value. Matched-filter sidelobes sit far below this ratio, so the
/// rule is inert on clean correlations.
const LEADING_EDGE_RATIO: f64 = 0.7;

/// The mutable, per-channel half of a beacon detector: the FFT scratch
/// arena and every intermediate buffer a detection pass fills. One
/// scratch must not be shared between concurrent detections.
///
/// It is also one pool participant's streaming workspace: a
/// [`StreamingDetector`] keeps only its capture's state and borrows the
/// FFT arena, the spectrum and the extraction buffers from the scratch
/// of whichever participant pumps it ([`DetectScratch::reserve_stream`]
/// sizes it for any capture up front).
#[derive(Debug, Clone, Default)]
pub(crate) struct DetectScratch {
    dsp: DspScratch,
    /// The correlation of a standalone detection pass
    /// ([`DetectorCore::detect_with`]); the session engine keeps its
    /// channels' correlations in its own store instead, and a streaming
    /// finish borrows only its spectrum.
    chan: ChannelCorrelation,
    extract: ExtractScratch,
}

impl DetectScratch {
    /// An empty scratch; buffers grow to their high-water mark on first
    /// use and are then reused allocation-free.
    #[must_use]
    pub(crate) fn new() -> Self {
        DetectScratch::default()
    }

    /// Bytes currently reserved by the scratch buffers.
    #[must_use]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.dsp.capacity_bytes() + self.chan.capacity_bytes() + self.extract.capacity_bytes()
    }

    /// Grows every buffer a streaming push or finish borrows to `sizing`,
    /// so no warm pump allocates, whichever session the scratch serves.
    /// Capacity already there is kept.
    pub(crate) fn reserve_stream(&mut self, sizing: &WorkspaceSizing) -> Result<(), HyperEarError> {
        let DetectScratch { dsp, chan, extract } = self;
        let ExtractScratch { pick, est, guide } = extract;
        grow_planes(&mut dsp.p1, sizing.block);
        grow_planes(&mut dsp.p2, sizing.band);
        grow_to(&mut pick.env, sizing.lags);
        pick.peak.reserve(sizing.lags);
        grow_to(&mut pick.peaks, sizing.lags.div_ceil(2));
        grow_to(&mut pick.window, sizing.window);
        if sizing.spectrum > 0 {
            chan.spectrum.reserve(sizing.lags)?;
            grow_planes(&mut est.half, sizing.spectrum);
            grow_to(guide, sizing.lags);
        }
        grow_to(&mut est.band_power, sizing.bands);
        grow_to(&mut est.band_sort, sizing.bands);
        Ok(())
    }
}

/// Grows `v`'s capacity to exactly `capacity` when it holds less.
fn grow_to<T>(v: &mut Vec<T>, capacity: usize) {
    v.reserve_exact(capacity.saturating_sub(v.len()));
}

/// [`grow_to`] on both planes of a split complex buffer.
fn grow_planes(p: &mut Planes, capacity: usize) {
    grow_to(&mut p.re, capacity);
    grow_to(&mut p.im, capacity);
}

/// The buffer lengths one streaming workspace ([`DetectScratch`]) needs
/// to push and finish any capture of up to `max_samples` samples on a
/// detector core: the FFT block's planes and the planes of the band's
/// short inverse pair, the decimated lags (envelope, sort keys, and the
/// candidates — at most one per two lags — and their copy), the rebuilt
/// window around one candidate, and, under a weighting estimator, the
/// spectrum, its weighted copy and the guide. One workspace serving several cores
/// takes the larger of each length ([`WorkspaceSizing::max`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkspaceSizing {
    block: usize,
    band: usize,
    lags: usize,
    window: usize,
    /// Spectrum bins (the transform length over `lags`), or 0 when the
    /// core's estimator does not weight.
    spectrum: usize,
    /// Sub-band power table length (coherence weighting), else 0.
    bands: usize,
}

impl WorkspaceSizing {
    /// The sizing for captures of up to `max_samples` samples on `core`.
    pub(crate) fn new(core: &DetectorCore, max_samples: usize) -> Self {
        let dec = core.decimation();
        let lags = dec.decimated_len(max_samples);
        let block = core.band.block_len();
        WorkspaceSizing {
            block,
            band: 2 * (block / dec.factor()),
            lags,
            window: core.window_bound(dec),
            spectrum: if core.estimator.weights_spectrum() {
                lags.next_power_of_two()
            } else {
                0
            },
            bands: if core.estimator == TdoaEstimator::SubbandCoherence {
                core.coherence_bands
            } else {
                0
            },
        }
    }

    /// The larger of each length: a workspace that serves both cores.
    pub(crate) fn max(self, other: Self) -> Self {
        WorkspaceSizing {
            block: self.block.max(other.block),
            band: self.band.max(other.band),
            lags: self.lags.max(other.lags),
            window: self.window.max(other.window),
            spectrum: self.spectrum.max(other.spectrum),
            bands: self.bands.max(other.bands),
        }
    }

    /// The bytes a workspace reserved to this sizing holds.
    pub(crate) fn bytes(&self) -> usize {
        let (c, f) = (std::mem::size_of::<Complex>(), std::mem::size_of::<f64>());
        let peaks = self.lags.div_ceil(2) * std::mem::size_of::<Peak>();
        // The spectrum's and its weighted copy's plane pairs, and the guide.
        let weighting = if self.spectrum > 0 {
            4 * self.spectrum * f + self.lags * c
        } else {
            0
        };
        self.block_bytes() + 2 * self.lags * f + 2 * peaks + weighting + 2 * self.bands * f
    }

    /// The part of [`WorkspaceSizing::bytes`] the beacon sets rather
    /// than the capture length: the FFT arena's two plane pairs and the
    /// rebuild window.
    pub(crate) fn block_bytes(&self) -> usize {
        (2 * (self.block + self.band) + self.window) * std::mem::size_of::<f64>()
    }
}

/// One channel's band-limited correlation — the normalized decimated
/// analytic sequence and the number of full-rate lags it covers — and,
/// once a weighting estimator has asked for it, the sequence's forward
/// spectrum. Correlating into it forgets the old spectrum, so the
/// spectrum always belongs to the correlation beside it; estimator
/// escalation reruns weight the same spectrum instead of transforming
/// the correlation again.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChannelCorrelation {
    corr: Vec<Complex>,
    lags: usize,
    spectrum: AnalyticSpectrum,
}

impl ChannelCorrelation {
    fn clear(&mut self) {
        self.corr.clear();
        self.lags = 0;
        self.spectrum.clear();
    }

    /// Bytes reserved by the correlation and spectrum buffers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.corr.capacity() * std::mem::size_of::<Complex>() + self.spectrum.capacity_bytes()
    }
}

/// The per-worker buffers of arrival extraction: peak picking, the
/// weighting kernels' workspace, and the spectrally weighted guide
/// sequence peaks are detected on when it is not the channel's own
/// (arrivals are always timed on the own correlation).
#[derive(Debug, Clone, Default)]
struct ExtractScratch {
    pick: PickScratch,
    est: EstimatorScratch,
    guide: Vec<Complex>,
}

impl ExtractScratch {
    fn capacity_bytes(&self) -> usize {
        self.pick.capacity_bytes()
            + self.est.capacity_bytes()
            + self.guide.capacity() * std::mem::size_of::<Complex>()
    }
}

/// The post-correlation working buffers of one band-limited detection
/// pass: the guide's envelope, noise statistics, candidate peaks and the
/// rebuilt full-rate lags around one candidate. Owned by every
/// per-channel scratch ([`DetectScratch`], [`MultiBeaconScratch`]) so
/// the threshold/peak stage never allocates once warm.
#[derive(Debug, Clone, Default)]
struct PickScratch {
    peak: PeakScratch,
    /// Candidate peaks; once timed, each holds its full-rate apex on the
    /// guide instead of its envelope value.
    peaks: Vec<Peak>,
    /// `|guide|`, one value per decimated lag.
    env: Vec<f64>,
    /// Rebuilt full-rate values around the candidate being refined.
    window: Vec<f64>,
}

impl PickScratch {
    fn capacity_bytes(&self) -> usize {
        (self.env.capacity() + self.window.capacity()) * std::mem::size_of::<f64>()
            + self.peaks.capacity() * std::mem::size_of::<Peak>()
            + self.peak.capacity_bytes()
    }
}

/// The MCCI rung's on-demand full-rate buffers: every channel's
/// normalized full-rate correlation, the fused guide, and the full-rate
/// threshold/peak workspace (with the envelope buffers envelope
/// detection needs there; the envelopes' FFT runs in the detector's own
/// [`DetectScratch`]). MCCI fuses channels sample by sample on the
/// full-rate correlation exactly as it always has, so its outcomes do not
/// depend on the band-limited path.
#[derive(Debug, Clone, Default)]
pub(crate) struct McciScratch {
    corrs: Vec<Vec<f64>>,
    guide: Vec<f64>,
    pick: FullRatePick,
}

/// The full-rate threshold/peak workspace of the MCCI rung.
#[derive(Debug, Clone, Default)]
struct FullRatePick {
    peak: PeakScratch,
    peaks: Vec<Peak>,
    /// Envelope of the correlation peaks are detected on.
    env: Vec<f64>,
    /// Envelope of the channel's own correlation (guided extraction).
    env_own: Vec<f64>,
}

impl McciScratch {
    /// The first `n` channels' full-rate correlation buffers (grown on
    /// first use).
    pub(crate) fn corrs_mut(&mut self, n: usize) -> &mut [Vec<f64>] {
        if self.corrs.len() < n {
            self.corrs.resize_with(n, Vec::new);
        }
        &mut self.corrs[..n]
    }

    /// Bytes reserved by the correlations and the extraction buffers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        let p = &self.pick;
        (self.corrs.iter().map(Vec::capacity).sum::<usize>()
            + self.guide.capacity()
            + p.env.capacity()
            + p.env_own.capacity())
            * std::mem::size_of::<f64>()
            + p.peaks.capacity() * std::mem::size_of::<Peak>()
            + p.peak.capacity_bytes()
    }
}

impl DetectorCore {
    /// Builds the shared detection core from the pipeline configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid config
    /// or a sample rate that cannot carry the chirp band.
    pub(crate) fn new(config: &HyperEarConfig, sample_rate: f64) -> Result<Self, HyperEarError> {
        config.validate()?;
        if sample_rate <= 2.0 * config.beacon.f1 {
            return Err(HyperEarError::invalid(
                "sample_rate",
                format!(
                    "rate {sample_rate} cannot represent the {} Hz chirp edge",
                    config.beacon.f1
                ),
            ));
        }
        // The config is valid, so a template this rate cannot build
        // (non-finite, or too many samples) is a sample-rate error.
        let chirp = Chirp::new(
            config.beacon.f0,
            config.beacon.f1,
            config.beacon.duration,
            sample_rate,
            config.beacon.pattern.shape(),
        )
        .map_err(|e| HyperEarError::invalid("sample_rate", e.to_string()))?;
        let filter = if config.detection.band_pass {
            let design = band_pass_design(config.beacon.f0, config.beacon.f1, sample_rate, config)?;
            StreamingMatchedFilter::with_zero_phase_prefilter(chirp.samples(), design.taps())?
        } else {
            StreamingMatchedFilter::new(chirp.samples())?
        };
        Ok(DetectorCore {
            band: filter.band_limited()?,
            filter,
            chirp_len: chirp.samples().len(),
            sample_rate,
            // Two-part threshold: beacons must clear the statistical
            // noise floor AND be within an order of magnitude of the
            // session's strongest beacon — the latter keeps numerical
            // dust in quiet recordings from ever counting as a detection.
            threshold: ThresholdRule {
                noise_factor: config.detection.threshold_factor,
                relative: config.detection.relative_threshold,
                min_distance: ((config.detection.min_spacing_fraction
                    * config.beacon.period
                    * sample_rate) as usize)
                    .max(1),
            },
            interpolation: config.detection.interpolation,
            envelope_detection: config.detection.envelope_detection,
            estimator: config.estimator.initial,
            phat_floor: config.estimator.phat_floor,
            coherence_bands: config.estimator.coherence_bands,
            coherence_band: (
                config.beacon.f0 * 0.9,
                (config.beacon.f1 * 1.1).min(sample_rate / 2.0),
            ),
        })
    }

    /// The sample rate this core was built for.
    #[must_use]
    pub(crate) fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The largest FFT a detection pass ever runs, in samples.
    ///
    /// Detection processes the capture in overlap-save blocks, so this
    /// bound depends only on the chirp template and band-pass tap count
    /// — never on the capture length.
    pub(crate) fn peak_fft_len(&self) -> usize {
        self.band.block_len()
    }

    /// How detection decimates the correlation (factor, kept band,
    /// rebuild interpolator).
    pub(crate) fn decimation(&self) -> &Decimation {
        self.band.decimation(0)
    }

    /// The most arrivals one channel of up to `max_samples` samples
    /// yields: candidates stand at least the decimated minimum spacing
    /// apart, and strict local maxima are never adjacent.
    pub(crate) fn max_arrivals(&self, max_samples: usize) -> usize {
        let dec = self.decimation();
        let spacing = self.threshold.min_distance.div_ceil(dec.factor()).max(2);
        (dec.decimated_len(max_samples) - 1) / spacing + 1
    }

    /// Detects beacon arrivals in one audio channel, using a
    /// caller-provided scratch — the `&self` form that lets two channels
    /// run concurrently against one shared core.
    ///
    /// Semantics are identical to [`BeaconDetector::detect_into`].
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::Dsp`] for an empty or too-short channel.
    pub(crate) fn detect_with(
        &self,
        channel: &[f64],
        scratch: &mut DetectScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        let DetectScratch { dsp, chan, extract } = scratch;
        self.correlate_into(channel, dsp, chan)?;
        let ChannelCorrelation {
            corr,
            lags,
            spectrum,
        } = chan;
        self.arrivals_estimated(self.estimator, corr, *lags, spectrum, extract, out)
    }

    /// One channel's detection pass of a session under a per-channel
    /// estimator — the hook estimator escalation uses to rerun a
    /// poorly-graded session with a heavier estimator without rebuilding
    /// the core. With `Some(samples)` the channel is correlated into
    /// `chan` first; with `None`, `chan` already holds this session's
    /// correlation (and any spectrum an earlier rung computed) and only
    /// the arrivals are re-extracted. See
    /// [`DetectorCore::arrivals_estimated`] for the estimators.
    pub(crate) fn detect_channel(
        &self,
        samples: Option<&[f64]>,
        estimator: TdoaEstimator,
        chan: &mut ChannelCorrelation,
        scratch: &mut DetectScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        out.clear();
        if let Some(samples) = samples {
            self.correlate_into(samples, &mut scratch.dsp, chan)?;
        }
        let ChannelCorrelation {
            corr,
            lags,
            spectrum,
        } = chan;
        self.arrivals_estimated(estimator, corr, *lags, spectrum, &mut scratch.extract, out)
    }

    /// The pre-threshold half of detection: the normalized, band-pass
    /// folded, band-limited matched-filter correlation of the channel
    /// into `chan`, whose old spectrum is forgotten.
    fn correlate_into(
        &self,
        channel: &[f64],
        dsp: &mut DspScratch,
        chan: &mut ChannelCorrelation,
    ) -> Result<(), HyperEarError> {
        chan.clear();
        self.band
            .correlate_into(channel, dsp, std::slice::from_mut(&mut chan.corr))?;
        chan.lags = channel.len();
        Ok(())
    }

    /// Arrival extraction from one channel's decimated correlation `corr`
    /// (covering `lags` full-rate lags) under a per-channel estimator —
    /// the one kernel behind the session engine's detection,
    /// [`DetectorCore::detect_with`] and [`StreamingDetector::finish`].
    ///
    /// Plain xcorr picks peaks on the correlation itself. The
    /// spectral-weighting estimators (PHAT, sub-band coherence) weight
    /// the correlation's spectrum — computed into `spectrum` on first
    /// use (when it is empty) and kept there for later rungs — into the
    /// guide buffer and use it for peak detection only; each arrival is
    /// then *timed* on the plain matched-filter correlation near the
    /// detected peak (the same detect-on-weighted / time-on-own split as
    /// MCCI fusion). Whitening
    /// equal-weights the band edges, where the Doppler mismatch of a
    /// moving phone puts its largest phase error, so timing directly on
    /// a whitened correlation is biased in proportion to the slide
    /// velocity — the split keeps the weighting's robustness to masking
    /// and multipath without inheriting that bias. A weighting that is a
    /// no-op (no usable spectral mass) guides on the correlation itself.
    ///
    /// [`TdoaEstimator::McciFusion`] is cross-channel and cannot run in a
    /// per-channel pass; it falls back to the plain correlation here (the
    /// session engine owns the fusion path).
    fn arrivals_estimated(
        &self,
        estimator: TdoaEstimator,
        corr: &[Complex],
        lags: usize,
        spectrum: &mut AnalyticSpectrum,
        x: &mut ExtractScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        let dec = self.band.decimation(0);
        if !estimator.weights_spectrum() {
            return self.arrivals_band(dec, corr, None, lags, &mut x.pick, out);
        }
        if spectrum.is_empty() {
            spectrum.compute(corr)?;
        }
        let weighted = if estimator == TdoaEstimator::GccPhat {
            spectrum.gcc_phat_into(self.phat_floor, &mut x.est, &mut x.guide)?
        } else {
            // The coherence band in the decimated sequence's baseband
            // frequencies.
            let rate = self.sample_rate / dec.factor() as f64;
            let center = dec.carrier() * self.sample_rate;
            let lo = (self.coherence_band.0 - center).max(-rate / 2.0);
            let hi = (self.coherence_band.1 - center).min(rate / 2.0);
            lo < hi
                && spectrum.subband_coherence_into(
                    rate,
                    lo,
                    hi,
                    self.coherence_bands,
                    &mut x.est,
                    &mut x.guide,
                )?
        };
        let guide = if weighted { &x.guide } else { corr };
        self.arrivals_band(dec, guide, Some(corr), lags, &mut x.pick, out)
    }

    /// Band-limited arrival extraction over decimated analytic sequences
    /// covering `lags` full-rate lags.
    ///
    /// Candidates are picked on the guide's envelope `|guide|`
    /// ([`detect_envelope_peaks_into`]: Rayleigh noise floor, minimum
    /// spacing in decimated lags) at a threshold lowered by the
    /// decimation's worst-case grid loss, so the `D`-lag grid cannot
    /// drop a beacon. Each candidate's full-rate apex is then rebuilt on
    /// the guide, and a candidate is accepted when its apex reaches the
    /// full-rate two-part threshold `max(noise_factor · σ, relative ·
    /// strongest apex)`. With `own = None` (plain detection) the arrival
    /// is the guide's apex, sub-sample refined; with a weighted guide it
    /// is timed on `own`: the leading-edge rule backtracks along the
    /// guide's envelope, and `own`'s full-rate maximum within
    /// [`WEIGHTED_REFINE`] lags of the guide is refined. In envelope mode
    /// every rebuilt value is the envelope `|a|` instead of the
    /// correlation `Re a`.
    fn arrivals_band(
        &self,
        dec: &Decimation,
        guide: &[Complex],
        own: Option<&[Complex]>,
        lags: usize,
        pick: &mut PickScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        out.clear();
        let PickScratch {
            peak,
            peaks,
            env,
            window,
        } = pick;
        env.clear();
        env.extend(guide.iter().map(|z| z.norm_sqr().sqrt()));
        let d = dec.factor();
        // Carrier mode reads `Re a` at integer lags, up to half a sample
        // off a crest of the highest kept frequency.
        let crest = if self.envelope_detection {
            1.0
        } else {
            (std::f64::consts::PI * dec.kept_band().1).cos()
        };
        let loss = dec.scalloping_gain() * crest;
        let rule = &self.threshold;
        let candidates = ThresholdRule {
            noise_factor: rule.noise_factor * dec.scalloping_gain(),
            relative: rule.relative * loss * loss,
            min_distance: rule.min_distance.div_ceil(d),
        };
        let floor = detect_envelope_peaks_into(env, &candidates, peak, peaks)?;
        let radius = self.apex_radius(dec);
        let margin = self.fit_margin();
        let backtrack = (LEADING_EDGE_WINDOW * self.sample_rate) as usize / d;
        out.reserve(peaks.len());
        for p in peaks.iter_mut() {
            let at = p.index * d;
            let search = at.saturating_sub(radius)..(at + radius + 1).min(lags);
            let arrival = match own {
                None => {
                    let (arrival, value) = self.refined(dec, guide, search, margin, lags, window);
                    p.value = value;
                    arrival
                }
                Some(own) => {
                    let start = search.start;
                    dec.rebuild_into(guide, search, self.envelope_detection, window);
                    let best = first_max(window, 0..window.len());
                    p.value = window[best];
                    // Leading-edge rule: inside the cluster the apex may
                    // be an echo; guide the timing from the earliest
                    // near-equal envelope maximum instead (the direct
                    // path precedes its echoes).
                    let cutoff = LEADING_EDGE_RATIO * env[p.index];
                    let mut at = start + best;
                    for t in p.index.saturating_sub(backtrack)..p.index {
                        if env[t] >= cutoff
                            && (t == 0 || env[t] >= env[t - 1])
                            && env[t] >= env[t + 1]
                        {
                            at = t * d;
                            break;
                        }
                    }
                    let search =
                        at.saturating_sub(WEIGHTED_REFINE)..(at + WEIGHTED_REFINE + 1).min(lags);
                    self.refined(dec, own, search, margin, lags, window).0
                }
            };
            out.push(arrival);
        }
        let strongest = peaks.iter().map(|p| p.value).fold(0.0, f64::max);
        let threshold = (rule.noise_factor * floor).max(rule.relative * strongest);
        let mut k = 0;
        out.retain(|_| {
            k += 1;
            peaks[k - 1].value >= threshold
        });
        Ok(())
    }

    /// The apex search radius around a candidate's grid lag, full-rate
    /// lags each side: half a grid step, plus one carrier period in
    /// carrier mode.
    fn apex_radius(&self, dec: &Decimation) -> usize {
        dec.factor() / 2
            + if self.envelope_detection {
                1
            } else {
                (1.0 / dec.carrier()).ceil() as usize
            }
    }

    /// Lags the sub-sample fit reads either side of its integer apex.
    fn fit_margin(&self) -> usize {
        match self.interpolation {
            Interpolation::None => 0,
            Interpolation::Parabolic => 1,
            Interpolation::Sinc => SINC_HALF_WIDTH + 1,
        }
    }

    /// The most full-rate lags [`DetectorCore::arrivals_band`] rebuilds
    /// at once: an apex search, or a timing search on the own
    /// correlation, plus the fit's margin either side.
    fn window_bound(&self, dec: &Decimation) -> usize {
        2 * self.apex_radius(dec).max(WEIGHTED_REFINE) + 1 + 2 * self.fit_margin()
    }

    /// The arrival at the largest rebuilt full-rate value of `seq` over
    /// `search` (the first on ties), sub-sample refined on lags rebuilt
    /// `margin` either side, clipped to `0..lags` — so, as at a
    /// correlation's ends, a fit that needs a lag outside it falls back
    /// to the integer lag. Also returns the integer-lag value.
    fn refined(
        &self,
        dec: &Decimation,
        seq: &[Complex],
        search: std::ops::Range<usize>,
        margin: usize,
        lags: usize,
        window: &mut Vec<f64>,
    ) -> (BeaconArrival, f64) {
        let lo = search.start.saturating_sub(margin);
        let hi = (search.end + margin).min(lags);
        dec.rebuild_into(seq, lo..hi, self.envelope_detection, window);
        let best = first_max(window, search.start - lo..search.end - lo);
        let value = window[best];
        let (pos, refined) = match self.interpolation {
            Interpolation::None => (best as f64, value),
            Interpolation::Parabolic => {
                parabolic_peak(window, best).unwrap_or((best as f64, value))
            }
            Interpolation::Sinc => {
                sinc_peak(window, best, SINC_HALF_WIDTH).unwrap_or((best as f64, value))
            }
        };
        let arrival = BeaconArrival {
            time: (lo as f64 + pos) / self.sample_rate,
            strength: refined,
        };
        (arrival, value)
    }

    /// The channel's normalized full-rate correlation into `out` — the
    /// MCCI rung's on-demand input.
    pub(crate) fn correlate_full_into(
        &self,
        channel: &[f64],
        scratch: &mut DetectScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), HyperEarError> {
        self.filter
            .correlate_normalized_into(channel, &mut scratch.dsp, out)?;
        Ok(())
    }

    /// Plain full-rate arrival extraction over channel `k` of `mcci`'s
    /// correlations (the MCCI fallback for channels that could not be
    /// fused).
    pub(crate) fn arrivals_full(
        &self,
        k: usize,
        mcci: &mut McciScratch,
        scratch: &mut DetectScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        let McciScratch { corrs, pick, .. } = mcci;
        self.arrivals_from_corr(&corrs[k], pick, &mut scratch.dsp, out)
    }

    /// MCCI-guided arrival extraction for channel `k` of the first
    /// `offsets.len()` full-rate correlations in `mcci`: every live
    /// channel's correlation is shift-and-averaged onto channel `k`'s
    /// time line (into the guide buffer), peaks are *detected* on that
    /// fused correlation (so a beacon masked on this channel can be
    /// recovered from the redundant channels), and each arrival is
    /// *timed* on the channel's own correlation — the local maximum
    /// within ±[`FUSED_REFINE`] samples of the fused peak, sub-sample
    /// interpolated as usual.
    /// Cross-channel averaging therefore improves detection without ever
    /// mixing other channels' propagation delays into this channel's
    /// arrival times, which would cancel the very inter-channel TDoA the
    /// pipeline measures.
    pub(crate) fn arrivals_fused(
        &self,
        mcci: &mut McciScratch,
        offsets: &[f64],
        live: &[bool],
        k: usize,
        scratch: &mut DetectScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        let n = offsets.len();
        let McciScratch { corrs, guide, pick } = mcci;
        let mut refs: [&[f64]; MAX_MICS] = [&[]; MAX_MICS];
        for (slot, c) in refs.iter_mut().zip(&corrs[..n]) {
            *slot = c;
        }
        let corrs = &refs[..n];
        mcci_fuse_channel_into(corrs, offsets, live, k, guide)?;
        self.arrivals_fused_into(guide, corrs[k], pick, &mut scratch.dsp, out)
    }

    /// Fused-guide arrival extraction at the full rate: peaks detected
    /// on `fused`, each arrival timed on `own` within ±[`FUSED_REFINE`]
    /// samples of its guide peak. Envelopes, when envelope detection is
    /// on, are computed in `dsp`.
    fn arrivals_fused_into(
        &self,
        fused: &[f64],
        own: &[f64],
        pick: &mut FullRatePick,
        dsp: &mut DspScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        out.clear();
        let FullRatePick {
            peak,
            peaks,
            env,
            env_own,
        } = pick;
        let (fused, own): (&[f64], &[f64]) = if self.envelope_detection {
            envelope_with(fused, dsp, env)?;
            envelope_with(own, dsp, env_own)?;
            (env, env_own)
        } else {
            (fused, own)
        };
        detect_peaks_into(fused, &self.threshold, peak, peaks)?;
        out.reserve(peaks.len());
        for p in peaks.iter() {
            let lo = p.index.saturating_sub(FUSED_REFINE);
            let hi = (p.index + FUSED_REFINE + 1).min(own.len());
            let mut best = lo;
            for t in lo..hi {
                if own[t] > own[best] {
                    best = t;
                }
            }
            out.push(self.interpolated(own, best, own[best]));
        }
        Ok(())
    }

    /// Plain full-rate extraction — envelope (computed in `dsp`), noise
    /// floor, two-part threshold, peak picking, sub-sample interpolation
    /// — over a normalized correlation.
    fn arrivals_from_corr(
        &self,
        corr: &[f64],
        pick: &mut FullRatePick,
        dsp: &mut DspScratch,
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        out.clear();
        let FullRatePick {
            peak, peaks, env, ..
        } = pick;
        // Envelope detection strips the carrier ripple of high-band
        // beacons (see `DetectionConfig::envelope_detection`).
        let corr: &[f64] = if self.envelope_detection {
            envelope_with(corr, dsp, env)?;
            env
        } else {
            corr
        };
        detect_peaks_into(corr, &self.threshold, peak, peaks)?;
        out.reserve(peaks.len());
        for p in peaks.iter() {
            out.push(self.interpolated(corr, p.index, p.value));
        }
        Ok(())
    }

    /// The arrival at full-rate lag `at` of `corr`, sub-sample refined
    /// (the integer lag and `value` at a boundary).
    fn interpolated(&self, corr: &[f64], at: usize, value: f64) -> BeaconArrival {
        let (pos, value) = match self.interpolation {
            Interpolation::None => (at as f64, value),
            Interpolation::Parabolic => parabolic_peak(corr, at).unwrap_or((at as f64, value)),
            Interpolation::Sinc => {
                sinc_peak(corr, at, SINC_HALF_WIDTH).unwrap_or((at as f64, value))
            }
        };
        BeaconArrival {
            time: pos / self.sample_rate,
            strength: value,
        }
    }
}

/// Half width of the windowed-sinc sub-sample fit.
const SINC_HALF_WIDTH: usize = 8;

/// The index of the first maximum of `values` over `range` (non-empty).
fn first_max(values: &[f64], range: std::ops::Range<usize>) -> usize {
    let mut best = range.start;
    for t in range {
        if values[t] > values[best] {
            best = t;
        }
    }
    best
}

/// The detection band-pass for a chirp sweeping `f0 → f1`: ±10% band
/// margins, `config.detection.band_pass_taps` Hamming-windowed taps.
fn band_pass_design(
    f0: f64,
    f1: f64,
    sample_rate: f64,
    config: &HyperEarConfig,
) -> Result<FirFilter, HyperEarError> {
    Ok(FirFilter::band_pass(
        f0 * 0.9,
        f1 * 1.1,
        sample_rate,
        config.detection.band_pass_taps,
        Window::Hamming,
    )?)
}

/// A configured beacon detector for one sample rate: a shared detection
/// core (template spectra, FFT plans, thresholds) plus one private
/// scratch.
///
/// This is the convenient single-channel handle the pipeline has always
/// exposed — [`BeaconDetector::detect_into`] takes `&mut self` and, once
/// warm, correlates without allocating. Session engines that share one
/// core (a batch engine's per-participant engines) wrap the shared core
/// in a fresh scratch, so template spectra and FFT tables are not
/// duplicated per engine.
#[derive(Debug, Clone)]
pub struct BeaconDetector {
    core: std::sync::Arc<DetectorCore>,
    scratch: DetectScratch,
}

impl BeaconDetector {
    /// Builds a detector from the pipeline configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid config
    /// or a sample rate that cannot carry the chirp band.
    pub fn new(config: &HyperEarConfig, sample_rate: f64) -> Result<Self, HyperEarError> {
        Ok(BeaconDetector::from_core(std::sync::Arc::new(
            DetectorCore::new(config, sample_rate)?,
        )))
    }

    /// Wraps an existing shared core with a fresh scratch.
    #[must_use]
    pub(crate) fn from_core(core: std::sync::Arc<DetectorCore>) -> Self {
        BeaconDetector {
            core,
            scratch: DetectScratch::new(),
        }
    }

    /// The shared read-only core (clone the `Arc` to share it with
    /// another worker or channel).
    #[must_use]
    pub(crate) fn core(&self) -> &std::sync::Arc<DetectorCore> {
        &self.core
    }

    /// Splits the detector into its shared core and its private scratch,
    /// for callers that run every channel of a session through the one
    /// scratch in turn.
    pub(crate) fn parts_mut(&mut self) -> (&DetectorCore, &mut DetectScratch) {
        (&self.core, &mut self.scratch)
    }

    /// The sample rate this detector was built for.
    #[must_use]
    pub(crate) fn sample_rate(&self) -> f64 {
        self.core.sample_rate()
    }

    /// Bytes currently reserved by the detector's private working
    /// buffers. The shared core's immutable tables (template spectra,
    /// FFT plans) are not counted: they exist once per process, not once
    /// per detector.
    #[must_use]
    pub(crate) fn working_set_bytes(&self) -> usize {
        self.scratch.capacity_bytes()
    }

    /// Detects beacon arrivals in one audio channel.
    ///
    /// Returns arrivals sorted by time. An empty vector means no beacon
    /// stood above the noise floor (e.g. the speaker is off).
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::Dsp`] for an empty or too-short channel.
    pub fn detect_into(
        &mut self,
        channel: &[f64],
        out: &mut Vec<BeaconArrival>,
    ) -> Result<(), HyperEarError> {
        self.core.detect_with(channel, &mut self.scratch, out)
    }
}

/// Incremental beacon detection over chunked audio: the online front end
/// of a [`DetectorCore`].
///
/// Audio arrives in chunks of any size via [`StreamingDetector::push`];
/// each chunk flows through the folded, band-limited matched-filter
/// overlap-save engine *as it arrives* (the chunk feed keeps per-block
/// FFT cost amortized and the transform working set at one block), and
/// the resulting decimated analytic correlation accumulates in a buffer
/// preallocated to a hard `max_samples` cap (one complex value per `D`
/// samples). [`StreamingDetector::finish`] then runs the exact
/// threshold/peak stage of the one-shot detector over the accumulated
/// correlation into the detector's arrival list.
///
/// # State and scratch
///
/// The detector owns only its capture's state: the chunk feed, the
/// accumulated correlation and the arrival list. The threshold needs the
/// exact median of the whole correlation envelope, so the correlation
/// must live until the finish; everything else a push or finish touches
/// — the FFT arena, the envelope, sort keys, candidates, rebuild window,
/// spectrum and guide — is borrowed from the caller's [`DetectScratch`],
/// one per worker, not one per capture.
///
/// # Equivalence
///
/// Because the chunk feed assembles bit-identical FFT blocks regardless of
/// chunking, the retained correlation — and therefore every emitted
/// [`BeaconArrival`] — is **bit-identical** to
/// [`DetectorCore::detect_with`] on the concatenated capture, for any
/// chunk sizes and any scratch.
///
/// # Bounded memory
///
/// Every state buffer is preallocated from `max_samples` and the core's
/// geometry at construction (the arrival list to
/// [`DetectorCore::max_arrivals`]); pushing more total samples than
/// `max_samples` is a typed [`HyperEarError::CapacityExceeded`], so the
/// state is a function of configuration, never of offered load.
#[derive(Debug, Clone)]
pub(crate) struct StreamingDetector {
    core: std::sync::Arc<DetectorCore>,
    feed: ChunkFeed,
    /// The accumulated normalized decimated correlation (capacity for
    /// `max_samples` lags).
    corr: Vec<Complex>,
    /// The finished capture's arrivals (capacity for the most
    /// `max_samples` can hold).
    arrivals: Vec<BeaconArrival>,
    max_samples: usize,
    pushed: usize,
    finished: bool,
}

impl StreamingDetector {
    /// Builds an incremental detector over a shared core, provisioned for
    /// captures of at most `max_samples` samples per channel.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] if `max_samples` is
    /// zero or smaller than the core's chirp template (no capture that
    /// short can be correlated).
    pub(crate) fn new(
        core: std::sync::Arc<DetectorCore>,
        max_samples: usize,
    ) -> Result<Self, HyperEarError> {
        if max_samples < core.chirp_len {
            return Err(HyperEarError::invalid(
                "max_samples",
                format!(
                    "capacity {max_samples} cannot hold one chirp template ({})",
                    core.chirp_len
                ),
            ));
        }
        Ok(StreamingDetector {
            feed: core.band.chunk_feed(),
            corr: Vec::with_capacity(core.decimation().decimated_len(max_samples)),
            arrivals: Vec::with_capacity(core.max_arrivals(max_samples)),
            max_samples,
            pushed: 0,
            finished: false,
            core,
        })
    }

    /// The shared read-only core.
    #[must_use]
    pub(crate) fn core(&self) -> &std::sync::Arc<DetectorCore> {
        &self.core
    }

    /// Ingests one audio chunk (any length; empty chunks are no-ops),
    /// transforming on `scratch`'s FFT arena.
    ///
    /// # Errors
    ///
    /// - [`HyperEarError::CapacityExceeded`] when the chunk would push
    ///   the capture past `max_samples` (nothing is ingested),
    /// - [`HyperEarError::InvalidParameter`] when the stream was already
    ///   finished (reset first),
    /// - propagated DSP errors.
    pub(crate) fn push(
        &mut self,
        chunk: &[f64],
        scratch: &mut DetectScratch,
    ) -> Result<(), HyperEarError> {
        if self.finished {
            return Err(HyperEarError::invalid(
                "stream",
                "push after finish; call reset() to start a new capture",
            ));
        }
        if chunk.is_empty() {
            return Ok(());
        }
        let needed = self.pushed + chunk.len();
        if needed > self.max_samples {
            return Err(HyperEarError::CapacityExceeded {
                what: "audio samples",
                needed,
                capacity: self.max_samples,
            });
        }
        self.core.band.push_chunk_into(
            &mut self.feed,
            chunk,
            &mut scratch.dsp,
            std::slice::from_mut(&mut self.corr),
        )?;
        self.pushed = needed;
        Ok(())
    }

    /// Ends the capture: flushes the overlap-save feed and runs the
    /// one-shot threshold/peak/interpolation stage over the accumulated
    /// correlation on `scratch`'s buffers, leaving the arrivals in
    /// [`StreamingDetector::arrivals`]. The detector is then finished
    /// until [`StreamingDetector::reset`].
    ///
    /// # Errors
    ///
    /// Mirrors [`DetectorCore::detect_with`] on the concatenated capture:
    /// a typed DSP error for an empty or shorter-than-template capture,
    /// plus [`HyperEarError::InvalidParameter`] for a double finish.
    pub(crate) fn finish(&mut self, scratch: &mut DetectScratch) -> Result<(), HyperEarError> {
        if self.finished {
            return Err(HyperEarError::invalid(
                "stream",
                "capture already finished; call reset() to start a new one",
            ));
        }
        let DetectScratch { dsp, chan, extract } = scratch;
        // An empty or short capture fails here with the one-shot
        // detector's typed error.
        self.core.band.finish_chunks_into(
            &mut self.feed,
            dsp,
            std::slice::from_mut(&mut self.corr),
        )?;
        debug_assert_eq!(
            self.corr.len(),
            self.core.decimation().decimated_len(self.pushed)
        );
        self.finished = true;
        // The accumulated correlation is bit-identical to the one-shot
        // path's, so extracting through the same kernel keeps streaming
        // == one-shot under every per-channel estimator. The scratch's
        // spectrum belongs to whatever it last served: forget it.
        // McciFusion needs every channel at once and the raw PCM is long
        // discarded; per-channel streaming falls back to plain xcorr.
        chan.spectrum.clear();
        self.core.arrivals_estimated(
            self.core.estimator,
            &self.corr,
            self.pushed,
            &mut chan.spectrum,
            extract,
            &mut self.arrivals,
        )
    }

    /// The arrivals of the last [`StreamingDetector::finish`].
    pub(crate) fn arrivals(&self) -> &[BeaconArrival] {
        &self.arrivals
    }

    /// Returns the detector to its initial state for a new capture,
    /// keeping every buffer's capacity (no allocation).
    pub(crate) fn reset(&mut self) {
        self.feed.reset();
        self.corr.clear();
        self.arrivals.clear();
        self.pushed = 0;
        self.finished = false;
    }

    /// Bytes reserved by this detector's state (the shared core's
    /// immutable tables and the borrowed scratch are not counted).
    /// Constant in the number of samples ingested: every buffer is sized
    /// by `max_samples` and the core's geometry.
    #[must_use]
    pub(crate) fn state_bytes(&self) -> usize {
        self.corr.capacity() * std::mem::size_of::<Complex>()
            + self.feed.capacity_bytes()
            + self.arrivals.capacity() * std::mem::size_of::<BeaconArrival>()
    }

    /// Bytes the chunk feed and the arrival list reserve: the beacon's
    /// block and period set them, and the stream budget does not count them.
    #[cfg(test)]
    pub(crate) fn beacon_bytes(&self) -> usize {
        self.feed.capacity_bytes() + self.arrivals.capacity() * std::mem::size_of::<BeaconArrival>()
    }

    /// What [`StreamingDetector::state_bytes`] is for a detector on `core`
    /// provisioned for `max_samples`: the decimated correlation, the
    /// chunk feed's block pair (`block_len + step` samples) and
    /// [`DetectorCore::max_arrivals`] arrivals.
    #[must_use]
    pub(crate) fn state_formula(core: &DetectorCore, max_samples: usize) -> usize {
        core.decimation().decimated_len(max_samples) * std::mem::size_of::<Complex>()
            + (core.band.block_len() + core.band.step()) * std::mem::size_of::<f64>()
            + core.max_arrivals(max_samples) * std::mem::size_of::<BeaconArrival>()
    }
}

/// The mutable, per-channel half of a [`MultiBeaconDetector`]: the FFT
/// scratch arena, the K correlation lanes, and the peak/noise buffers
/// the per-beacon epilogues fill. One scratch must not be shared
/// between concurrent detections.
#[derive(Debug, Clone, Default)]
pub struct MultiBeaconScratch {
    scratch: DspScratch,
    /// K normalized decimated correlation lanes — lane `k` is beacon
    /// `k`'s band-limited matched-filter response over the whole capture.
    lanes: Vec<Vec<Complex>>,
    pick: PickScratch,
}

impl MultiBeaconScratch {
    /// An empty scratch; buffers grow to their high-water mark on first
    /// use and are then reused allocation-free.
    #[must_use]
    pub fn new() -> Self {
        MultiBeaconScratch::default()
    }

    /// Bytes currently reserved by the scratch buffers.
    #[must_use]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.scratch.capacity_bytes()
            + self.lanes.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<Complex>()
            + self.pick.capacity_bytes()
    }

    /// Beacon `k`'s normalized decimated correlation from the last
    /// detection pass (the conformance surface the bank tests pin against
    /// independent single-template engines).
    #[cfg(test)]
    pub(crate) fn lane(&self, k: usize) -> &[Complex] {
        &self.lanes[k]
    }
}

/// K-beacon detection over one shared forward FFT: a band-limited
/// [`BandLimitedBank`] whose lanes carry one beacon signature each, plus
/// the K per-beacon detection cores that own the threshold/peak
/// epilogues (and double as the per-beacon session pipeline cores).
///
/// Detection cost per channel is ~one forward transform + K short
/// (band-rate) inverse transforms per block, instead of the K×(forward +
/// inverse) that K independent detectors spend. Every signature's
/// band-pass FIR is folded into its template at construction
/// (`corr(bp(x), tᵢ) = corr(x, bp⋆tᵢ)`), exactly as in each solo
/// detector, so each lane is **bit-identical** to the solo
/// detector's band-limited correlation and arrivals equal K independent
/// detectors' exactly (conformance-pinned).
///
/// The hot methods take `&self` — clone the detector (cheap: template
/// spectra and cores are `Arc`-shared) or hand out per-worker
/// [`MultiBeaconScratch`]es to run channels concurrently.
#[derive(Debug, Clone)]
pub struct MultiBeaconDetector {
    cores: Vec<std::sync::Arc<DetectorCore>>,
    bank: BandLimitedBank,
}

impl MultiBeaconDetector {
    /// Builds the shared K-beacon detection front end.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid config
    /// or a sample rate that cannot carry any signature's chirp band.
    pub fn new(config: &MultiBeaconConfig, sample_rate: f64) -> Result<Self, HyperEarError> {
        config.validate()?;
        let k = config.beacons();
        let mut cores = Vec::with_capacity(k);
        let mut templates: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut taps: Vec<Vec<f64>> = Vec::with_capacity(k);
        let band_pass = config.session.detection.band_pass;
        for (i, sig) in config.signatures.iter().enumerate() {
            let per = config.session_config(i);
            cores.push(std::sync::Arc::new(DetectorCore::new(&per, sample_rate)?));
            let chirp = Chirp::new(
                sig.f0,
                sig.f1,
                per.beacon.duration,
                sample_rate,
                sig.pattern.shape(),
            )?;
            templates.push(chirp.samples().to_vec());
            if band_pass {
                taps.push(
                    band_pass_design(sig.f0, sig.f1, sample_rate, &per)?
                        .taps()
                        .to_vec(),
                );
            }
        }
        let bank = if band_pass {
            let entries: Vec<(&[f64], &[f64])> = templates
                .iter()
                .zip(&taps)
                .map(|(t, h)| (t.as_slice(), h.as_slice()))
                .collect();
            BandLimitedBank::with_zero_phase_prefilters(&entries)?
        } else {
            let refs: Vec<&[f64]> = templates.iter().map(Vec::as_slice).collect();
            BandLimitedBank::new(&refs)?
        };
        Ok(MultiBeaconDetector { cores, bank })
    }

    /// The shared band-limited template bank (e.g. for inspecting
    /// [`BandLimitedBank::template_fft_count`]).
    #[must_use]
    pub fn bank(&self) -> &BandLimitedBank {
        &self.bank
    }

    /// The pre-threshold half of multi-beacon detection: one banked
    /// correlation pass filling `scratch`'s K normalized decimated lanes
    /// (one forward FFT per block, K band-rate fan-outs).
    fn correlate_only(
        &self,
        channel: &[f64],
        scratch: &mut MultiBeaconScratch,
    ) -> Result<(), HyperEarError> {
        scratch.lanes.resize_with(self.cores.len(), Vec::new);
        self.bank
            .correlate_into(channel, &mut scratch.scratch, &mut scratch.lanes)?;
        Ok(())
    }

    /// Detects every beacon's arrivals in one audio channel: one banked
    /// correlation pass, then beacon `k`'s own threshold/peak epilogue
    /// over lane `k` into `out[k]`. Epilogue semantics per lane are
    /// exactly a solo [`BeaconDetector`]'s (same thresholds, peak
    /// spacing, interpolation), so a beacon's arrivals depend only on
    /// its own lane.
    ///
    /// Once warm (same K, same capture length), a detection pass does
    /// not allocate.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] when `out.len()`
    /// differs from the beacon count, and [`HyperEarError::Dsp`] for an
    /// empty or too-short channel.
    pub fn detect_into(
        &self,
        channel: &[f64],
        scratch: &mut MultiBeaconScratch,
        out: &mut [Vec<BeaconArrival>],
    ) -> Result<(), HyperEarError> {
        if out.len() != self.cores.len() {
            return Err(HyperEarError::invalid(
                "out",
                format!(
                    "detector holds {} beacons but {} output lanes were provided",
                    self.cores.len(),
                    out.len()
                ),
            ));
        }
        self.correlate_only(channel, scratch)?;
        let MultiBeaconScratch { lanes, pick, .. } = scratch;
        for (k, ((core, lane), arrivals)) in self
            .cores
            .iter()
            .zip(lanes.iter())
            .zip(out.iter_mut())
            .enumerate()
        {
            core.arrivals_band(
                self.bank.decimation(k),
                lane,
                None,
                channel.len(),
                pick,
                arrivals,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One detection pass into a fresh arrival list.
    fn detect(
        d: &mut BeaconDetector,
        channel: &[f64],
    ) -> Result<Vec<BeaconArrival>, HyperEarError> {
        let mut arrivals = Vec::new();
        d.detect_into(channel, &mut arrivals)?;
        Ok(arrivals)
    }
    use hyperear_dsp::delay::mix_delayed_local;

    const FS: f64 = 44_100.0;

    fn detector(interpolation: Interpolation) -> BeaconDetector {
        let mut config = HyperEarConfig::galaxy_s4();
        config.detection.interpolation = interpolation;
        BeaconDetector::new(&config, FS).unwrap()
    }

    fn chirp_samples() -> Vec<f64> {
        Chirp::new(
            2_000.0,
            6_400.0,
            0.04,
            FS,
            hyperear_dsp::chirp::ChirpShape::UpDown,
        )
        .unwrap()
        .samples()
        .to_vec()
    }

    /// Renders beacons at the given fractional sample positions.
    fn render(positions: &[f64], n: usize, gain: f64) -> Vec<f64> {
        let chirp = chirp_samples();
        let mut out = vec![0.0; n];
        for &p in positions {
            mix_delayed_local(&mut out, &chirp, p, gain, 16).unwrap();
        }
        out
    }

    #[test]
    fn detects_clean_beacons_at_period() {
        let positions: Vec<f64> = (0..5).map(|k| 2_000.0 + k as f64 * 8_820.0).collect();
        let signal = render(&positions, 50_000, 0.3);
        let arrivals = detect(&mut detector(Interpolation::Parabolic), &signal).unwrap();
        assert_eq!(arrivals.len(), 5);
        for (a, &p) in arrivals.iter().zip(&positions) {
            assert!(
                (a.time * FS - p).abs() < 0.1,
                "arrival {} expected {}",
                a.time * FS,
                p
            );
        }
    }

    #[test]
    fn sub_sample_accuracy_with_parabolic() {
        let truth = 10_000.37;
        let signal = render(&[truth], 20_000, 0.3);
        let arrivals = detect(&mut detector(Interpolation::Parabolic), &signal).unwrap();
        assert_eq!(arrivals.len(), 1);
        let err = (arrivals[0].time * FS - truth).abs();
        assert!(err < 0.05, "sub-sample error {err}");
    }

    #[test]
    fn interpolation_none_is_integer_quantized() {
        let truth = 10_000.43;
        let signal = render(&[truth], 20_000, 0.3);
        let arrivals = detect(&mut detector(Interpolation::None), &signal).unwrap();
        assert_eq!(arrivals.len(), 1);
        let pos = arrivals[0].time * FS;
        assert_eq!(pos, pos.round(), "integer-only position");
    }

    #[test]
    fn sinc_refinement_also_recovers_fraction() {
        let truth = 10_000.25;
        let signal = render(&[truth], 20_000, 0.3);
        let arrivals = detect(&mut detector(Interpolation::Sinc), &signal).unwrap();
        assert_eq!(arrivals.len(), 1);
        let err = (arrivals[0].time * FS - truth).abs();
        assert!(err < 0.05, "sinc error {err}");
    }

    #[test]
    fn silence_produces_no_arrivals() {
        // Tiny white noise only.
        let signal: Vec<f64> = (0..30_000)
            .map(|i| 1e-4 * (((i * 2654435761usize) % 1000) as f64 / 500.0 - 1.0))
            .collect();
        let arrivals = detect(&mut detector(Interpolation::Parabolic), &signal).unwrap();
        assert!(arrivals.is_empty(), "got {arrivals:?}");
    }

    #[test]
    fn detects_beacons_in_noise() {
        let positions: Vec<f64> = (0..4).map(|k| 3_000.0 + k as f64 * 8_820.0).collect();
        let mut signal = render(&positions, 44_100, 0.3);
        // Add noise at roughly 6 dB SNR vs the chirp envelope.
        let mut state = 1234u64;
        for s in &mut signal {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s += 0.05 * (2.0 * ((state >> 11) as f64 / (1u64 << 53) as f64) - 1.0);
        }
        let arrivals = detect(&mut detector(Interpolation::Parabolic), &signal).unwrap();
        assert_eq!(arrivals.len(), 4, "arrivals {arrivals:?}");
    }

    #[test]
    fn band_pass_rejects_out_of_band_interference() {
        // A loud 500 Hz tone (voice band) on top of one beacon.
        let truth = 12_000.0;
        let mut signal = render(&[truth], 30_000, 0.2);
        for (i, s) in signal.iter_mut().enumerate() {
            *s += 0.5 * (2.0 * std::f64::consts::PI * 500.0 * i as f64 / FS).sin();
        }
        let arrivals = detect(&mut detector(Interpolation::Parabolic), &signal).unwrap();
        assert_eq!(arrivals.len(), 1);
        assert!((arrivals[0].time * FS - truth).abs() < 1.0);
    }

    #[test]
    fn min_spacing_suppresses_echo_doubles() {
        // A strong echo 100 samples after the direct path must not count
        // as a second beacon.
        let chirp = chirp_samples();
        let mut signal = vec![0.0; 30_000];
        mix_delayed_local(&mut signal, &chirp, 10_000.0, 0.3, 16).unwrap();
        mix_delayed_local(&mut signal, &chirp, 10_100.0, 0.15, 16).unwrap();
        let arrivals = detect(&mut detector(Interpolation::Parabolic), &signal).unwrap();
        assert_eq!(arrivals.len(), 1);
        assert!((arrivals[0].time * FS - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn rejects_low_sample_rate() {
        let config = HyperEarConfig::galaxy_s4();
        assert!(BeaconDetector::new(&config, 8_000.0).is_err());
    }

    #[test]
    fn detect_into_matches_detect() {
        let positions: Vec<f64> = (0..5).map(|k| 2_000.0 + k as f64 * 8_820.0).collect();
        let signal = render(&positions, 50_000, 0.3);
        let mut d = detector(Interpolation::Parabolic);
        let reference = detect(&mut d, &signal).unwrap();
        let mut out = vec![
            BeaconArrival {
                time: 9.0,
                strength: 9.0,
            };
            3
        ]; // stale contents
        for _ in 0..2 {
            d.detect_into(&signal, &mut out).unwrap();
            assert_eq!(out, reference);
        }
        assert!(d.detect_into(&[], &mut out).is_err());
    }

    #[test]
    fn empty_channel_is_error() {
        let mut d = detector(Interpolation::Parabolic);
        assert!(detect(&mut d, &[]).is_err());
        assert_eq!(d.sample_rate(), FS);
    }

    #[test]
    fn streaming_detector_is_bit_identical_to_one_shot() {
        let positions: Vec<f64> = (0..5).map(|k| 2_000.0 + k as f64 * 8_820.0).collect();
        let signal = render(&positions, 50_000, 0.3);
        let mut d = detector(Interpolation::Parabolic);
        let reference = detect(&mut d, &signal).unwrap();
        assert_eq!(reference.len(), 5);
        let core = std::sync::Arc::clone(d.core());
        let mut stream = StreamingDetector::new(core, signal.len()).unwrap();
        let mut scratch = DetectScratch::new();
        for chunk_len in [1usize, 997, 4_096, signal.len()] {
            for chunk in signal.chunks(chunk_len) {
                stream.push(chunk, &mut scratch).unwrap();
            }
            stream.finish(&mut scratch).unwrap();
            assert_eq!(stream.arrivals(), reference, "chunk_len {chunk_len}");
            stream.reset();
        }
    }

    #[test]
    fn streaming_detector_enforces_capacity_and_stream_state() {
        let d = detector(Interpolation::Parabolic);
        let core = std::sync::Arc::clone(d.core());
        let mut stream = StreamingDetector::new(std::sync::Arc::clone(&core), 10_000).unwrap();
        let mut scratch = DetectScratch::new();
        assert_eq!(stream.max_samples, 10_000);
        // Over-capacity push is a typed error and ingests nothing.
        stream.push(&vec![0.0; 6_000], &mut scratch).unwrap();
        let err = stream.push(&vec![0.0; 6_000], &mut scratch).unwrap_err();
        assert!(
            matches!(err, HyperEarError::CapacityExceeded { .. }),
            "{err}"
        );
        assert_eq!(stream.pushed, 6_000);
        // Empty chunks are free.
        stream.push(&[], &mut scratch).unwrap();
        stream.finish(&mut scratch).unwrap();
        assert!(stream.finished);
        // Double finish and push-after-finish are typed errors.
        assert!(stream.finish(&mut scratch).is_err());
        assert!(stream.push(&[1.0], &mut scratch).is_err());
        // An empty capture mirrors the one-shot empty-channel error.
        stream.reset();
        assert!(stream.finish(&mut scratch).is_err());
        // Capacity too small for even one template is rejected up front.
        assert!(StreamingDetector::new(core, 3).is_err());
    }

    #[test]
    fn streaming_detector_working_set_is_ingestion_independent() {
        let positions: Vec<f64> = (0..3).map(|k| 2_000.0 + k as f64 * 8_820.0).collect();
        let signal = render(&positions, 30_000, 0.3);
        let d = detector(Interpolation::Parabolic);
        let core = d.core();
        let mut stream = StreamingDetector::new(std::sync::Arc::clone(core), 120_000).unwrap();
        let mut scratch = DetectScratch::new();
        // Warm on the short capture.
        for chunk in signal.chunks(1_000) {
            stream.push(chunk, &mut scratch).unwrap();
        }
        stream.finish(&mut scratch).unwrap();
        stream.reset();
        let warm = stream.state_bytes();
        // Preallocated up front: the decimated complex correlation, the
        // chunk feed's block pair and the arrival list. The envelope and peak workspace
        // over the same lags is the scratch's, not the detector's.
        let lags = core.decimation().decimated_len(120_000);
        let feed = (core.band.block_len() + core.band.step()) * std::mem::size_of::<f64>();
        assert!(warm >= lags * std::mem::size_of::<Complex>() + feed);
        assert_eq!(warm, StreamingDetector::state_formula(core, 120_000));
        // A 4x longer capture (same content plus silence) grows nothing.
        for round in 0..4 {
            for chunk in signal.chunks(777) {
                if round == 0 {
                    stream.push(chunk, &mut scratch).unwrap();
                } else {
                    stream.push(&vec![0.0; chunk.len()], &mut scratch).unwrap();
                }
            }
        }
        stream.finish(&mut scratch).unwrap();
        assert_eq!(
            stream.state_bytes(),
            warm,
            "working set must depend on capacity, not samples ingested"
        );
        stream.reset();
    }

    #[test]
    fn weighting_estimators_preserve_arrival_timing() {
        let truth = 10_000.37;
        let signal = render(&[truth], 20_000, 0.3);
        for est in [
            TdoaEstimator::GccPhat,
            TdoaEstimator::SubbandCoherence,
            // Per-channel MCCI falls back to the plain correlation.
            TdoaEstimator::McciFusion,
        ] {
            let mut config = HyperEarConfig::galaxy_s4();
            config.estimator.initial = est;
            let mut d = BeaconDetector::new(&config, FS).unwrap();
            let arrivals = detect(&mut d, &signal).unwrap();
            assert_eq!(arrivals.len(), 1, "{est:?}");
            let err = (arrivals[0].time * FS - truth).abs();
            assert!(err < 1.0, "{est:?} timing error {err}");
        }
    }

    #[test]
    fn streaming_matches_one_shot_for_weighting_estimators() {
        let positions: Vec<f64> = (0..5).map(|k| 2_000.0 + k as f64 * 8_820.0).collect();
        let signal = render(&positions, 50_000, 0.3);
        for est in [TdoaEstimator::GccPhat, TdoaEstimator::SubbandCoherence] {
            let mut config = HyperEarConfig::galaxy_s4();
            config.estimator.initial = est;
            let mut d = BeaconDetector::new(&config, FS).unwrap();
            let reference = detect(&mut d, &signal).unwrap();
            assert_eq!(reference.len(), 5, "{est:?}");
            let mut stream =
                StreamingDetector::new(std::sync::Arc::clone(d.core()), signal.len()).unwrap();
            let mut scratch = DetectScratch::new();
            for chunk in signal.chunks(997) {
                stream.push(chunk, &mut scratch).unwrap();
            }
            stream.finish(&mut scratch).unwrap();
            assert_eq!(
                stream.arrivals(),
                reference,
                "{est:?} streaming must match one-shot"
            );
        }
    }

    #[test]
    fn guided_arrivals_time_on_own_correlation() {
        // Fused peaks 4 samples off the own-channel truth must still be
        // timed at the own-channel peak.
        let truth = 10_000.0;
        let own_sig = render(&[truth], 20_000, 0.3);
        let fused_sig = render(&[truth + 4.0], 20_000, 0.3);
        let d = detector(Interpolation::Parabolic);
        let core = d.core();
        let mut scratch = DetectScratch::new();
        let mut mcci = McciScratch::default();
        for (samples, corr) in [&own_sig, &fused_sig].into_iter().zip(mcci.corrs_mut(2)) {
            core.correlate_full_into(samples, &mut scratch, corr)
                .unwrap();
        }
        let McciScratch { corrs, pick, .. } = &mut mcci;
        let mut out = Vec::new();
        core.arrivals_fused_into(&corrs[1], &corrs[0], pick, &mut scratch.dsp, &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        let err = (out[0].time * FS - truth).abs();
        assert!(err < 0.1, "guided timing error {err}");
    }

    #[test]
    fn weighted_guides_time_on_own_correlation() {
        // A guide 4 samples off the own-channel truth must still be timed
        // at the own-channel peak.
        let truth = 10_000.0;
        let own_sig = render(&[truth], 20_000, 0.3);
        let guide_sig = render(&[truth + 4.0], 20_000, 0.3);
        let d = detector(Interpolation::Parabolic);
        let core = d.core();
        let mut scratch = DetectScratch::new();
        let (mut own, mut guide) = (ChannelCorrelation::default(), ChannelCorrelation::default());
        core.correlate_into(&own_sig, &mut scratch.dsp, &mut own)
            .unwrap();
        core.correlate_into(&guide_sig, &mut scratch.dsp, &mut guide)
            .unwrap();
        let mut out = Vec::new();
        core.arrivals_band(
            core.decimation(),
            &guide.corr,
            Some(&own.corr),
            own.lags,
            &mut scratch.extract.pick,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let err = (out[0].time * FS - truth).abs();
        assert!(err < 0.1, "guided timing error {err}");
    }

    #[test]
    fn peak_fft_len_is_capture_independent() {
        let mut d = detector(Interpolation::Parabolic);
        let bound = d.core().peak_fft_len();
        // Detection over wildly different capture lengths never grows the
        // FFT bound — the overlap-save engines block the capture instead
        // of padding it whole.
        for &n in &[20_000usize, 50_000, 200_000] {
            let signal = render(&[10_000.0], n, 0.3);
            let arrivals = detect(&mut d, &signal).unwrap();
            assert_eq!(arrivals.len(), 1);
            assert_eq!(d.core().peak_fft_len(), bound);
        }
        // The bound is a small multiple of the template, nowhere near the
        // next_pow2(capture + template) a one-shot correlation would need.
        assert!(bound < 20_000, "peak FFT {bound}");
    }

    fn multi_config(beacons: usize) -> MultiBeaconConfig {
        MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), beacons)
    }

    /// Renders each beacon's chirp at its own fractional positions.
    fn render_multi(multi: &MultiBeaconConfig, positions: &[&[f64]], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for (sig, spots) in multi.signatures.iter().zip(positions) {
            let chirp = Chirp::new(
                sig.f0,
                sig.f1,
                multi.session.beacon.duration,
                FS,
                sig.pattern.shape(),
            )
            .unwrap();
            for &p in *spots {
                mix_delayed_local(&mut out, chirp.samples(), p, 0.3, 16).unwrap();
            }
        }
        out
    }

    #[test]
    fn multi_beacon_lanes_are_bit_identical_to_independent_folded_engines() {
        let multi = multi_config(3);
        let detector = MultiBeaconDetector::new(&multi, FS).unwrap();
        let signal = render_multi(&multi, &[&[5_000.0], &[9_000.0], &[13_000.0]], 30_000);
        let mut scratch = MultiBeaconScratch::new();
        let mut out = vec![Vec::new(); 3];
        detector
            .detect_into(&signal, &mut scratch, &mut out)
            .unwrap();
        let mut dsp_scratch = hyperear_dsp::plan::DspScratch::new();
        let mut reference = Vec::new();
        for (k, sig) in multi.signatures.iter().enumerate() {
            let chirp = Chirp::new(
                sig.f0,
                sig.f1,
                multi.session.beacon.duration,
                FS,
                sig.pattern.shape(),
            )
            .unwrap();
            let taps = FirFilter::band_pass(
                sig.f0 * 0.9,
                sig.f1 * 1.1,
                FS,
                multi.session.detection.band_pass_taps,
                Window::Hamming,
            )
            .unwrap();
            let engine =
                hyperear_dsp::correlate::StreamingMatchedFilter::with_zero_phase_prefilter(
                    chirp.samples(),
                    taps.taps(),
                )
                .unwrap()
                .band_limited()
                .unwrap();
            // Same geometry: equal chirp durations and tap counts give every
            // lane the single-engine default block.
            assert_eq!(engine.block_len(), detector.bank().block_len());
            assert_eq!(engine.decimation(0), detector.bank().decimation(k));
            engine
                .correlate_into(
                    &signal,
                    &mut dsp_scratch,
                    std::slice::from_mut(&mut reference),
                )
                .unwrap();
            assert_eq!(scratch.lane(k), reference.as_slice(), "lane {k}");
        }
    }

    #[test]
    fn multi_beacon_arrivals_match_independent_detectors() {
        let multi = multi_config(4);
        let detector = MultiBeaconDetector::new(&multi, FS).unwrap();
        let spots: Vec<Vec<f64>> = (0..4)
            .map(|k| vec![4_000.0 + 1_500.0 * k as f64, 22_000.0 + 1_500.0 * k as f64])
            .collect();
        let refs: Vec<&[f64]> = spots.iter().map(Vec::as_slice).collect();
        let signal = render_multi(&multi, &refs, 44_100);
        let mut scratch = MultiBeaconScratch::new();
        let mut out = vec![Vec::new(); 4];
        detector
            .detect_into(&signal, &mut scratch, &mut out)
            .unwrap();
        for (k, lane) in out.iter().enumerate() {
            let mut solo = BeaconDetector::new(&multi.session_config(k), FS).unwrap();
            let reference = detect(&mut solo, &signal).unwrap();
            assert!(!reference.is_empty(), "beacon {k}");
            // Solo detectors fold the band-pass into the template exactly
            // as every bank lane does, so arrivals are bit-identical.
            assert_eq!(lane, &reference, "beacon {k}");
        }
    }

    #[test]
    fn multi_beacon_assigns_arrivals_to_their_beacon() {
        let multi = multi_config(2);
        let detector = MultiBeaconDetector::new(&multi, FS).unwrap();
        let signal = render_multi(&multi, &[&[20_000.0], &[8_000.0]], 30_000);
        let mut scratch = MultiBeaconScratch::new();
        let mut per_beacon = vec![Vec::new(); 2];
        detector
            .detect_into(&signal, &mut scratch, &mut per_beacon)
            .unwrap();
        assert_eq!(per_beacon[0].len(), 1, "{per_beacon:?}");
        assert_eq!(per_beacon[1].len(), 1, "{per_beacon:?}");
        assert!((per_beacon[0][0].time * FS - 20_000.0).abs() < 1.0);
        assert!((per_beacon[1][0].time * FS - 8_000.0).abs() < 1.0);
    }

    #[test]
    fn multi_beacon_out_len_mismatch_is_error() {
        let multi = multi_config(2);
        let detector = MultiBeaconDetector::new(&multi, FS).unwrap();
        let signal = render_multi(&multi, &[&[8_000.0], &[20_000.0]], 30_000);
        let mut scratch = MultiBeaconScratch::new();
        let mut out = vec![Vec::new(); 3];
        let err = detector
            .detect_into(&signal, &mut scratch, &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("2 beacons"), "{err}");
    }

    #[test]
    fn multi_beacon_clones_share_template_spectra() {
        let multi = multi_config(4);
        let detector = MultiBeaconDetector::new(&multi, FS).unwrap();
        // Construction ran exactly one template FFT per beacon; worker
        // clones share the Arc'd spectra instead of re-transforming.
        assert_eq!(detector.bank().template_fft_count(), 4);
        let clone = detector.clone();
        assert_eq!(clone.bank().template_fft_count(), 4);
        assert!(std::sync::Arc::ptr_eq(&detector.cores[0], &clone.cores[0]));
    }
}
