//! The end-to-end HyperEar session pipeline.
//!
//! Wires the paper's six components (Fig. 5) together: beacon detection
//! on both channels → inertial slide/stature analysis → SFO period
//! estimation from stationary beacons → per-slide augmented TDoA →
//! two-hyperbola triangulation → multi-slide aggregation → projected
//! location estimation when the session used two statures.
//!
//! Every entry point takes any [`Capture`] — the stereo
//! [`SessionInput`] or the N-microphone [`ArraySessionInput`] — and runs
//! it through one session body; stereo is simply the two-channel case.
//!
//! - [`SessionEngine::run`] (and the allocation-free
//!   [`SessionEngine::run_into`]) — the raw pipeline; any unrecoverable
//!   condition is a typed error.
//! - [`SessionEngine::run_monitored`] — the graceful-degradation wrapper:
//!   it scores every slide's confidence, spends the configured re-slide
//!   budget dropping the worst offenders, and always returns a
//!   [`SessionOutcome`] (never panics, never a bare error).

use crate::asp::{
    BeaconArrival, ChannelCorrelation, McciScratch, MultiBeaconDetector, MultiBeaconScratch,
};
use crate::config::{DoaFrontEnd, HyperEarConfig, MultiBeaconConfig, TdoaEstimator};
use crate::doa::BearingPrior;
use crate::localize::{localize_with, slide_geometry, Estimate2d, LocalizeScratch, SlideFix};
use crate::ple::{project, ProjectedEstimate};
use crate::sfo::{estimate_period_with, PeriodEstimate, SfoScratch};
use crate::tdoa::{augmented_tdoa_with, AugmentedTdoa, TdoaScratch};
use crate::HyperEarError;
use hyperear_dsp::estimator::mcci_offsets_with;
use hyperear_geom::rotation::Side;
use hyperear_geom::triangulate::SlideGeometry;
use hyperear_geom::{Vec3, MAX_MICS, MAX_PAIRS};
use hyperear_imu::analyze::{analyze_session_with, AnalyzeScratch, SessionAnalysis, SlideEstimate};
use hyperear_imu::quality::Rejection;
use hyperear_imu::rotation::yaw_trace_into;
use std::sync::Arc;

/// Guard margin around inertially-detected movement windows when
/// classifying beacons as stationary, seconds.
const STATIONARY_MARGIN: f64 = 0.05;

/// Borrowed views of everything one session recorded.
///
/// This is deliberately decoupled from any simulator type: on a real
/// phone these slices come straight from `AudioRecord` (de-interleaved)
/// and the sensor service.
#[derive(Debug, Clone, Copy)]
pub struct SessionInput<'a> {
    /// Audio sample rate the OS reports, hertz.
    pub audio_sample_rate: f64,
    /// Mic1 channel.
    pub left: &'a [f64],
    /// Mic2 channel (the microphone `mic_separation` metres along +y).
    pub right: &'a [f64],
    /// IMU sample rate, hertz.
    pub imu_sample_rate: f64,
    /// Raw accelerometer samples (gravity included), m/s².
    pub accel: &'a [Vec3],
    /// Raw gyroscope samples, rad/s.
    pub gyro: &'a [Vec3],
}

/// Borrowed views of an N-microphone session recording: one audio slice
/// per microphone of the configured [`hyperear_geom::MicArray`], in
/// array index order (channel 0 is the primary Mic1, channel 1 the
/// Mic2 `mic_separation` metres along device +y). Two channels are
/// always accepted and run the primary pair, like a [`SessionInput`].
#[derive(Debug, Clone, Copy)]
pub struct ArraySessionInput<'a> {
    /// Audio sample rate the OS reports, hertz.
    pub audio_sample_rate: f64,
    /// One equal-length channel per microphone, array index order.
    pub channels: &'a [&'a [f64]],
    /// IMU sample rate, hertz.
    pub imu_sample_rate: f64,
    /// Raw accelerometer samples (gravity included), m/s².
    pub accel: &'a [Vec3],
    /// Raw gyroscope samples, rad/s.
    pub gyro: &'a [Vec3],
}

/// A session capture [`SessionEngine`] can process: the stereo
/// [`SessionInput`] or the N-microphone [`ArraySessionInput`]. The trait
/// only hides the channel layout; it is sealed, so these two inputs are
/// the whole set.
pub trait Capture: sealed::Sealed + Sync {}

impl Capture for SessionInput<'_> {}
impl Capture for ArraySessionInput<'_> {}

pub(crate) mod sealed {
    use hyperear_geom::{Vec3, MAX_MICS};

    /// A capture's rates, IMU traces and up to [`MAX_MICS`] channel
    /// slices (array index order) in fixed storage.
    pub struct Parts<'a> {
        pub audio_sample_rate: f64,
        pub imu_sample_rate: f64,
        pub accel: &'a [Vec3],
        pub gyro: &'a [Vec3],
        pub channels: [&'a [f64]; MAX_MICS],
        /// Channels the caller gave; may exceed [`MAX_MICS`], in which
        /// case only the first `MAX_MICS` are stored.
        pub channel_count: usize,
    }

    pub trait Sealed {
        fn parts(&self) -> Parts<'_>;
    }

    impl Sealed for super::SessionInput<'_> {
        fn parts(&self) -> Parts<'_> {
            let mut channels: [&[f64]; MAX_MICS] = [&[]; MAX_MICS];
            channels[0] = self.left;
            channels[1] = self.right;
            Parts {
                audio_sample_rate: self.audio_sample_rate,
                imu_sample_rate: self.imu_sample_rate,
                accel: self.accel,
                gyro: self.gyro,
                channels,
                channel_count: 2,
            }
        }
    }

    impl Sealed for super::ArraySessionInput<'_> {
        fn parts(&self) -> Parts<'_> {
            let mut channels: [&[f64]; MAX_MICS] = [&[]; MAX_MICS];
            for (slot, ch) in channels.iter_mut().zip(self.channels) {
                *slot = ch;
            }
            Parts {
                audio_sample_rate: self.audio_sample_rate,
                imu_sample_rate: self.imu_sample_rate,
                accel: self.accel,
                gyro: self.gyro,
                channels,
                channel_count: self.channels.len(),
            }
        }
    }
}

/// The IMU sample rates a session accepts, hertz. Phone inertial sensors
/// report 50–500 Hz; the band leaves well over a decade of headroom on
/// both sides while rejecting rates whose sample period is absurd (a
/// subnormal rate's period overflows to infinity).
const IMU_RATE_HZ: std::ops::RangeInclusive<f64> = 1.0..=100_000.0;

/// The sample-rate check every session entry shares (one-shot, batch,
/// multi-beacon, streaming `open`): the audio rate must be finite and
/// positive (a bare `rate <= 0.0` would let NaN and ±inf through; the
/// detector then rejects a rate that cannot carry the beacon), and the
/// IMU rate must lie in [`IMU_RATE_HZ`].
pub(crate) fn check_rates(
    audio_sample_rate: f64,
    imu_sample_rate: f64,
) -> Result<(), HyperEarError> {
    if !(audio_sample_rate.is_finite() && audio_sample_rate > 0.0) {
        return Err(HyperEarError::invalid(
            "audio_sample_rate",
            format!("must be finite and positive, got {audio_sample_rate:e}"),
        ));
    }
    if !IMU_RATE_HZ.contains(&imu_sample_rate) {
        return Err(HyperEarError::invalid(
            "imu_sample_rate",
            format!(
                "must be within [{}, {}] Hz, got {imu_sample_rate:e}",
                IMU_RATE_HZ.start(),
                IMU_RATE_HZ.end()
            ),
        ));
    }
    Ok(())
}

/// The input check of every one-shot session: equal channel lengths,
/// then [`check_rates`].
pub(crate) fn check_capture(
    channels: &[&[f64]],
    audio_sample_rate: f64,
    imu_sample_rate: f64,
) -> Result<(), HyperEarError> {
    let len0 = channels.first().map_or(0, |ch| ch.len());
    if let Some((k, ch)) = channels.iter().enumerate().find(|(_, ch)| ch.len() != len0) {
        return Err(HyperEarError::invalid(
            "channels",
            format!(
                "channel length mismatch: channel {k} has {} samples, channel 0 has {len0}",
                ch.len()
            ),
        ));
    }
    check_rates(audio_sample_rate, imu_sample_rate)
}

/// Which stature phase a slide belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaturePhase {
    /// Before the (first) stature change.
    Upper,
    /// After the stature change.
    Lower,
}

/// Per-slide confidence factors, each in `[0, 1]`.
///
/// The composite `score` is the geometric mean of the three factors, so
/// any single collapsed factor drags the slide toward zero — a slide is
/// only trustworthy when its beacons, the session clock fit *and* its
/// inertial integration all look healthy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlideConfidence {
    /// Mean matched-filter strength of the beacons bracketing this slide,
    /// relative to the session mean (0 when no beacon bracketed it).
    /// Collapses under NLoS obstruction or beacon dropout.
    pub beacon_factor: f64,
    /// Session-level SFO fit quality: how well stationary arrivals sit on
    /// their least-squares period line. Collapses under multipath spikes
    /// that shift individual arrivals.
    pub sfo_factor: f64,
    /// Inertial zero-velocity residual quality: how close the raw
    /// integrated velocity returned to zero at the slide end. Collapses
    /// under IMU bias drift or saturation.
    pub drift_factor: f64,
    /// Geometric mean of the three factors.
    pub score: f64,
}

impl SlideConfidence {
    fn new(beacon_factor: f64, sfo_factor: f64, drift_factor: f64) -> Self {
        SlideConfidence {
            beacon_factor,
            sfo_factor,
            drift_factor,
            score: (beacon_factor * sfo_factor * drift_factor).cbrt(),
        }
    }
}

/// Everything the pipeline concluded about one detected slide.
#[derive(Debug, Clone, PartialEq)]
pub struct SlideReport {
    /// The inertial estimate (window, distance, rotation).
    pub inertial: SlideEstimate,
    /// Stature phase.
    pub phase: StaturePhase,
    /// Whether the slide passed the quality gate.
    pub accepted: bool,
    /// Rejection reason when not accepted.
    pub rejection: Option<Rejection>,
    /// Confidence factors for the degradation policy.
    pub confidence: SlideConfidence,
    /// Whether the degradation policy dropped this slide from the
    /// aggregate (only ever set by [`SessionEngine::run_monitored`]).
    pub dropped: bool,
    /// The augmented TDoA, when beacons bracketed the slide.
    pub tdoa: Option<AugmentedTdoa>,
    /// The triangulation fix, when the solve succeeded.
    pub fix: Option<SlideFix>,
}

impl SlideReport {
    /// A zeroed, heap-free report used to pre-size index-addressed
    /// output slots; every field is overwritten when the slide is
    /// processed.
    fn placeholder() -> Self {
        SlideReport {
            inertial: SlideEstimate {
                segment: hyperear_imu::segment::Segment { start: 0, end: 0 },
                start_time: 0.0,
                end_time: 0.0,
                distance: 0.0,
                rotation_deg: 0.0,
                end_velocity_residual: 0.0,
            },
            phase: StaturePhase::Upper,
            accepted: false,
            rejection: None,
            confidence: SlideConfidence::new(0.0, 0.0, 0.0),
            dropped: false,
            tdoa: None,
            fix: None,
        }
    }
}

/// The outcome of one full session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Beacons detected on the left (Mic1) channel.
    pub beacons_left: usize,
    /// Beacons detected on the right (Mic2) channel.
    pub beacons_right: usize,
    /// Mean matched-filter strength of the detected beacons (template-
    /// energy normalized; ~1.0 for a clean, loud beacon). A sudden drop
    /// relative to earlier sessions indicates an obstructed (NLoS) path —
    /// the signal an app uses to tell the user to move.
    pub mean_beacon_strength: f64,
    /// The SFO-corrected beacon period (or the nominal period echoed
    /// back when correction is disabled).
    pub period: PeriodEstimate,
    /// Per-slide diagnostics in time order.
    pub slides: Vec<SlideReport>,
    /// Aggregated 2D estimate at the upper stature.
    pub upper: Option<Estimate2d>,
    /// Aggregated 2D estimate at the lower stature (two-stature sessions).
    pub lower: Option<Estimate2d>,
    /// Measured stature change `H`, metres (two-stature sessions).
    pub stature_drop: Option<f64>,
    /// The projected (floor-map) estimate (two-stature sessions).
    pub projected: Option<ProjectedEstimate>,
    /// Which [`TdoaEstimator`] produced this result. Stays at the
    /// configured [`crate::config::EstimatorPolicy::initial`] unless the
    /// monitored path escalated to a heavier estimator and its rerun won.
    pub estimator: TdoaEstimator,
    /// Per-pair session-median delays `t_i − t_j` (seconds) in
    /// [`hyperear_geom::MicArray::pairs`] order — filled when a DOA
    /// front-end is configured and the capture carries every microphone
    /// of the array; empty otherwise.
    pub pair_delays: Vec<f64>,
    /// The direction-finding prior from the configured
    /// [`DoaFrontEnd`], when one was active and its estimate succeeded.
    pub bearing: Option<BearingPrior>,
}

impl SessionResult {
    /// An empty result, the natural starting slot for
    /// [`SessionEngine::run_into`] (reuse it across sessions to keep the
    /// slide-report storage warm).
    #[must_use]
    pub fn empty() -> Self {
        SessionResult {
            beacons_left: 0,
            beacons_right: 0,
            mean_beacon_strength: 0.0,
            period: PeriodEstimate {
                period: 0.0,
                offset_ppm: 0.0,
                beacons_used: 0,
                windows_used: 0,
                residual_rms: 0.0,
            },
            slides: Vec::new(),
            upper: None,
            lower: None,
            stature_drop: None,
            projected: None,
            estimator: TdoaEstimator::PlainXcorr,
            pair_delays: Vec::new(),
            bearing: None,
        }
    }

    /// The best available floor-map range estimate: the projected `L*`
    /// for 3D sessions, otherwise the upper 2D range.
    #[must_use]
    pub fn best_range(&self) -> Option<f64> {
        self.projected
            .as_ref()
            .map(|p| p.l_star)
            .or_else(|| self.upper.as_ref().map(|e| e.range))
    }
}

/// Per-stage counters and residuals from one monitored session — what
/// went in, what each stage rejected, and what the degradation policy
/// dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionDiagnostics {
    /// Beacons detected on the left channel.
    pub beacons_left: usize,
    /// Beacons detected on the right channel.
    pub beacons_right: usize,
    /// Inertial slides detected.
    pub slides_detected: usize,
    /// Slides rejected by the quality gate.
    pub slides_rejected: usize,
    /// Accepted slides that produced no acoustic fix (beacons masked or
    /// solution implausible).
    pub slides_without_fix: usize,
    /// Slides dropped by the degradation policy's re-slide budget.
    pub slides_dropped: usize,
    /// Session SFO fit residual RMS, seconds.
    pub sfo_residual_rms: f64,
    /// Mean composite slide confidence.
    pub mean_confidence: f64,
    /// Lowest composite slide confidence.
    pub min_confidence: f64,
    /// Estimator-escalation retries the monitored path spent on this
    /// session (0 when escalation is disabled or never triggered).
    pub escalations: usize,
}

impl SessionDiagnostics {
    /// What `result`'s session measured: its beacon counts, SFO fit
    /// residual and slide confidences (0 without slides); every tally
    /// is 0.
    fn measured(result: &SessionResult) -> Self {
        let n = result.slides.len();
        let scores = result.slides.iter().map(|r| r.confidence.score);
        SessionDiagnostics {
            beacons_left: result.beacons_left,
            beacons_right: result.beacons_right,
            sfo_residual_rms: result.period.residual_rms,
            mean_confidence: if n > 0 {
                scores.clone().sum::<f64>() / n as f64
            } else {
                0.0
            },
            min_confidence: if n > 0 {
                scores.fold(f64::INFINITY, f64::min)
            } else {
                0.0
            },
            ..SessionDiagnostics::default()
        }
    }
}

/// The graded outcome of a monitored session.
///
/// Unlike [`SessionEngine::run`], which reports every unrecoverable
/// condition as an error, a monitored run always classifies what
/// happened: a clean estimate, a usable estimate that lost slides along
/// the way, or a failure with the typed reason and whatever diagnostics
/// the pipeline gathered before it stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// Every detected slide contributed; no stage rejected anything.
    Ok(SessionResult),
    /// An estimate exists, but slides were rejected, unlocalizable, or
    /// dropped by the degradation policy along the way.
    Degraded {
        /// The (re-aggregated) session result.
        result: SessionResult,
        /// What was lost and why.
        diagnostics: SessionDiagnostics,
    },
    /// No usable estimate.
    Failed {
        /// The typed failure.
        reason: HyperEarError,
        /// Stage counters, when the pipeline got far enough to have any.
        diagnostics: Option<SessionDiagnostics>,
    },
}

impl SessionOutcome {
    /// The session result, when one exists (`Ok` or `Degraded`).
    #[must_use]
    pub fn result(&self) -> Option<&SessionResult> {
        match self {
            SessionOutcome::Ok(result) | SessionOutcome::Degraded { result, .. } => Some(result),
            SessionOutcome::Failed { .. } => None,
        }
    }

    /// The diagnostics, when the outcome carries any.
    #[must_use]
    pub fn diagnostics(&self) -> Option<&SessionDiagnostics> {
        match self {
            SessionOutcome::Ok(_) => None,
            SessionOutcome::Degraded { diagnostics, .. } => Some(diagnostics),
            SessionOutcome::Failed { diagnostics, .. } => diagnostics.as_ref(),
        }
    }

    /// Whether the session produced an estimate at all.
    #[must_use]
    pub fn is_usable(&self) -> bool {
        self.result().is_some()
    }

    /// A non-allocating placeholder outcome — the natural initial value
    /// for a slot passed to [`SessionEngine::run_monitored_into`] or a
    /// batch output vector. Reads as a zero-count `Failed`
    /// ([`HyperEarError::NoUsableSlides`] with nothing detected) until a
    /// session overwrites it.
    #[must_use]
    pub fn idle() -> Self {
        SessionOutcome::Failed {
            reason: HyperEarError::NoUsableSlides {
                detected: 0,
                rejected: 0,
            },
            diagnostics: None,
        }
    }
}

/// A reusable session-processing engine.
///
/// Owns everything the pipeline needs between sessions: the validated
/// configuration, the beacon detector (which in turn owns the matched
/// filter's cached template spectra, the FFT plan cache and the DSP
/// scratch arena), and the working buffers of every stage — arrival
/// lists, the inertial analysis, movement/stationary timelines, the yaw
/// trace, SFO and localization scratch. Once an engine has processed one
/// session, later sessions at the same sample rate reuse all of that
/// state and [`SessionEngine::run_into`] performs no steady-state
/// allocation on the default configuration.
#[derive(Debug, Clone)]
pub struct SessionEngine {
    config: HyperEarConfig,
    /// The shared K = 1 detector for the last session's sample rate.
    detector: Option<Arc<MultiBeaconDetector>>,
    /// The detector's private scratch: every channel of a session is
    /// detected on it in turn.
    scratch: MultiBeaconScratch,
    /// Every channel's correlation for the session in flight, shared by
    /// the estimator ladder's rungs.
    store: CorrelationStore,
    tdoa_scratch: TdoaScratch,
    /// One arrival list per channel, array index order. Always holds
    /// at least the primary pair's two (channel 0 = left, 1 = right);
    /// grows on the first N-channel session and is reused warm
    /// thereafter.
    arrivals: Vec<Vec<BeaconArrival>>,
    analysis: SessionAnalysis,
    analyze_scratch: AnalyzeScratch,
    movements: Vec<(f64, f64)>,
    stationary: Vec<(f64, f64)>,
    gyro_z: Vec<f64>,
    yaw: Vec<f64>,
    sfo_scratch: SfoScratch,
    loc_scratch: LocalizeScratch,
    geoms: Vec<SlideGeometry>,
    /// Engine-owned slot for estimator-escalation reruns: keeps the
    /// candidate outcome's result storage warm across sessions so an
    /// escalating engine stays allocation-free in steady state.
    retry_slot: SessionOutcome,
}

impl SessionEngine {
    /// Creates an engine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid config.
    pub fn new(config: HyperEarConfig) -> Result<Self, HyperEarError> {
        config.validate()?;
        Ok(SessionEngine {
            config,
            detector: None,
            scratch: MultiBeaconScratch::new(),
            store: CorrelationStore::default(),
            tdoa_scratch: TdoaScratch::new(),
            arrivals: vec![Vec::new(), Vec::new()],
            analysis: SessionAnalysis {
                gravity: Vec3::ZERO,
                slides: Vec::new(),
                stature_changes: Vec::new(),
            },
            analyze_scratch: AnalyzeScratch::new(),
            movements: Vec::new(),
            stationary: Vec::new(),
            gyro_z: Vec::new(),
            yaw: Vec::new(),
            sfo_scratch: SfoScratch::new(),
            loc_scratch: LocalizeScratch::new(),
            geoms: Vec::new(),
            retry_slot: SessionOutcome::idle(),
        })
    }

    /// Installs a pre-built shared detector, replacing any cached
    /// detector that is a different instance. Batch engines use this so
    /// every worker's engine resolves to the *same* template spectra and
    /// FFT tables instead of rebuilding them per worker; if the engine
    /// already wraps this exact detector the call is free.
    pub(crate) fn install_detector(&mut self, detector: &Arc<MultiBeaconDetector>) {
        let same = self
            .detector
            .as_ref()
            .is_some_and(|d| Arc::ptr_eq(d, detector));
        if !same {
            self.detector = Some(Arc::clone(detector));
        }
    }

    /// The largest FFT this engine runs per session, in samples, or
    /// `None` before the first session builds the detector.
    ///
    /// Detection runs in overlap-save blocks, so the bound depends only
    /// on the beacon and band-pass designs — processing longer captures
    /// never grows it.
    #[must_use]
    pub fn peak_fft_len(&self) -> Option<usize> {
        self.detector.as_ref().map(|d| d.bank().block_len())
    }

    /// Bytes currently reserved by the detection scratch, the
    /// per-channel correlation store, the TDoA scratch and the arrival
    /// lists. The inertial, SFO and localization buffers are not
    /// counted.
    ///
    /// After a warm-up session the figure no longer grows, since
    /// [`SessionEngine::run_into`] performs no further allocation.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        self.scratch.capacity_bytes()
            + self.store.capacity_bytes()
            + self.tdoa_scratch.capacity_bytes()
            + self.arrivals.iter().map(Vec::capacity).sum::<usize>()
                * std::mem::size_of::<BeaconArrival>()
    }

    /// Processes one session, reusing cached detector state.
    ///
    /// # Errors
    ///
    /// - [`HyperEarError::InvalidParameter`] for inconsistent inputs: a
    ///   channel count other than 2 or the configured array's, unequal
    ///   channel lengths, or a sample rate that is not finite and
    ///   positive (or cannot carry the beacon),
    /// - [`HyperEarError::InsufficientBeacons`] when detection or SFO
    ///   estimation runs short,
    /// - [`HyperEarError::NoUsableSlides`] when every detected slide was
    ///   rejected or unlocalizable,
    /// - plus propagated component errors.
    pub fn run<C: Capture>(&mut self, input: &C) -> Result<SessionResult, HyperEarError> {
        let mut out = SessionResult::empty();
        self.run_into(input, &mut out)?;
        Ok(out)
    }

    /// Processes one session with the policy-graded, never-panicking
    /// contract: the outcome is `Ok` for a clean run, `Degraded` when
    /// slides were rejected, unlocalizable, or dropped by the
    /// [`crate::config::DegradationPolicy`]'s re-slide budget (the
    /// estimate is then re-aggregated from the surviving slides), and
    /// `Failed` with the typed reason otherwise.
    pub fn run_monitored<C: Capture>(&mut self, input: &C) -> SessionOutcome {
        let mut outcome = SessionOutcome::idle();
        self.run_monitored_into(input, &mut outcome);
        outcome
    }

    /// Allocation-free form of [`SessionEngine::run_monitored`]: the
    /// outcome lands in a caller-owned slot whose previous
    /// [`SessionResult`] storage (if any) is scavenged and reused, so a
    /// warm engine processing sessions into the same slot performs no
    /// steady-state heap allocation. This is the per-item primitive
    /// batch processing is built on.
    ///
    /// When [`crate::config::EstimatorPolicy::escalation`] is enabled and
    /// the initial run grades `Failed` or `Degraded` with collapsed
    /// confidence, the session is rerun with progressively heavier
    /// [`TdoaEstimator`]s (within the degradation policy's retry budget)
    /// and the best graded outcome wins — see
    /// [`SessionEngine::run_estimated_into`] for the estimator ladder.
    pub fn run_monitored_into<C: Capture>(&mut self, input: &C, slot: &mut SessionOutcome) {
        let parts = input.parts();
        self.escalated_monitored(slot, |engine, estimator, result| {
            engine.estimated_into(&parts, estimator, result)
        });
    }

    /// The monitored-contract core shared by the one-shot and streaming
    /// front ends: scavenges the slot's previous result storage, runs
    /// `f` to fill it, and grades the outcome (or converts the typed
    /// error into `Failed` with diagnostics where available).
    pub(crate) fn monitored_with<F>(&mut self, slot: &mut SessionOutcome, f: F)
    where
        F: FnOnce(&mut Self, &mut SessionResult) -> Result<(), HyperEarError>,
    {
        // Reclaim the previous outcome's result storage (slide reports,
        // their capacity) rather than allocating a fresh one.
        let mut result = match std::mem::replace(slot, SessionOutcome::idle()) {
            SessionOutcome::Ok(result) | SessionOutcome::Degraded { result, .. } => result,
            SessionOutcome::Failed { .. } => SessionResult::empty(),
        };
        *slot = match f(self, &mut result) {
            Err(reason) => {
                // A session that ran out of slides got as far as the
                // slide reports, so `result` holds what it measured.
                let diagnostics = match &reason {
                    HyperEarError::NoUsableSlides { detected, rejected } => {
                        Some(SessionDiagnostics {
                            slides_detected: *detected,
                            slides_rejected: *rejected,
                            slides_without_fix: detected - rejected,
                            ..SessionDiagnostics::measured(&result)
                        })
                    }
                    _ => None,
                };
                SessionOutcome::Failed {
                    reason,
                    diagnostics,
                }
            }
            Ok(()) => self.grade(result),
        };
    }

    /// Applies the degradation policy to a completed raw result and
    /// grades the outcome.
    fn grade(&mut self, mut result: SessionResult) -> SessionOutcome {
        let policy = self.config.degradation;
        let mut dropped = 0usize;
        if policy.enabled {
            // Spend the re-slide budget on the lowest-confidence fixed
            // slides below the threshold, never draining a phase below
            // `min_slides` contributing slides.
            while dropped < policy.retry_budget {
                let mut worst: Option<usize> = None;
                for (i, r) in result.slides.iter().enumerate() {
                    if r.dropped || r.fix.is_none() || r.confidence.score >= policy.min_confidence {
                        continue;
                    }
                    let phase_remaining = result
                        .slides
                        .iter()
                        .filter(|s| s.phase == r.phase && s.fix.is_some() && !s.dropped)
                        .count();
                    if phase_remaining <= policy.min_slides {
                        continue;
                    }
                    if worst.is_none_or(|w| r.confidence.score < result.slides[w].confidence.score)
                    {
                        worst = Some(i);
                    }
                }
                match worst {
                    Some(i) => {
                        result.slides[i].dropped = true;
                        dropped += 1;
                    }
                    None => break,
                }
            }
            if dropped > 0 {
                self.reaggregate(&mut result);
            }
        }
        let slides_rejected = result.slides.iter().filter(|r| !r.accepted).count();
        let slides_without_fix = result
            .slides
            .iter()
            .filter(|r| r.accepted && r.fix.is_none())
            .count();
        let diagnostics = SessionDiagnostics {
            slides_detected: result.slides.len(),
            slides_rejected,
            slides_without_fix,
            slides_dropped: dropped,
            ..SessionDiagnostics::measured(&result)
        };
        if dropped > 0 || slides_rejected > 0 || slides_without_fix > 0 {
            SessionOutcome::Degraded {
                result,
                diagnostics,
            }
        } else {
            SessionOutcome::Ok(result)
        }
    }

    /// Rebuilds the per-phase aggregates (and the 3D projection) from the
    /// slides that survived the policy's drops. A phase whose surviving
    /// set is empty keeps its original estimate — a dropped slide must
    /// never turn a usable session into a failed one.
    fn reaggregate(&mut self, result: &mut SessionResult) {
        for phase in [StaturePhase::Upper, StaturePhase::Lower] {
            self.geoms.clear();
            self.geoms.extend(
                result
                    .slides
                    .iter()
                    .filter(|r| r.phase == phase && !r.dropped && r.fix.is_some())
                    .map(|r| r.fix.as_ref().expect("filtered Some").geometry),
            );
            if self.geoms.is_empty() {
                continue;
            }
            if let Ok(est) =
                localize_with(&self.geoms, self.config.aggregation, &mut self.loc_scratch)
            {
                match phase {
                    StaturePhase::Upper => result.upper = Some(est),
                    StaturePhase::Lower => result.lower = Some(est),
                }
            }
        }
        if let (Some(u), Some(l), Some(h)) = (&result.upper, &result.lower, result.stature_drop) {
            if h > 0.01 {
                if let Ok(p) = project(u, l, h, self.config.max_speaker_depth) {
                    result.projected = Some(p);
                }
            }
        }
    }

    /// Allocation-free form of [`SessionEngine::run`]: the result lands
    /// in a caller-owned slot whose storage is cleared and reused, and
    /// every pipeline intermediate lives in engine-owned scratch. With a
    /// warm engine and the default configuration the whole session —
    /// detection, inertial analysis, SFO, per-slide TDoA, triangulation,
    /// aggregation — performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SessionEngine::run`].
    pub fn run_into<C: Capture>(
        &mut self,
        input: &C,
        out: &mut SessionResult,
    ) -> Result<(), HyperEarError> {
        let estimator = self.config.estimator.initial;
        self.run_estimated_into(input, estimator, out)
    }

    /// [`SessionEngine::run_into`] with an explicit [`TdoaEstimator`]
    /// overriding the configured initial one — the primitive the
    /// escalation policy reruns sessions through.
    ///
    /// `PlainXcorr` is the conformance baseline (bit-identical to the
    /// pre-estimator-bank pipeline). `GccPhat` and `SubbandCoherence`
    /// re-weight each channel's correlation spectrum before arrival
    /// extraction. `McciFusion` correlates every channel, solves the
    /// cross-channel alignment — every channel of an N-microphone capture
    /// joins the solve, so the fusion gain grows with the array's
    /// redundancy — and detects peaks
    /// on the fused correlation while timing each arrival on the
    /// channel's own correlation (fusing the timing itself would cancel
    /// the inter-channel TDoA the pipeline measures).
    ///
    /// Every call correlates the channels afresh; only the reruns inside
    /// one monitored call share correlations and spectra.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SessionEngine::run`].
    pub fn run_estimated_into<C: Capture>(
        &mut self,
        input: &C,
        estimator: TdoaEstimator,
        out: &mut SessionResult,
    ) -> Result<(), HyperEarError> {
        self.store.valid = false;
        self.estimated_into(&input.parts(), estimator, out)
    }

    /// The estimator-escalation wrapper around the monitored contract:
    /// runs the session with the configured initial estimator, and — when
    /// escalation is enabled and the graded outcome shows acoustic
    /// trouble — reruns it with the next heavier estimator up the
    /// [`TdoaEstimator::next_heavier`] ladder, spending at most the
    /// degradation policy's retry budget. After each rerun the better
    /// graded outcome is kept (ties keep the cheaper, earlier estimator),
    /// so escalation can never make a session worse. Clean sessions grade
    /// `Ok` and never trigger a rerun, keeping the clean-path cost
    /// identical to the non-escalating engine.
    ///
    /// The first run correlates every channel into the engine's
    /// correlation store; reruns re-extract arrivals from it (weighting
    /// rungs share one spectrum per channel), so a rerun never runs the
    /// matched filter. The store is invalidated on entry, as by every
    /// public session entry point, so it never serves another call.
    fn escalated_monitored<F>(&mut self, slot: &mut SessionOutcome, mut run: F)
    where
        F: FnMut(&mut Self, TdoaEstimator, &mut SessionResult) -> Result<(), HyperEarError>,
    {
        self.store.valid = false;
        let policy = self.config.estimator;
        self.monitored_with(slot, |engine, result| run(engine, policy.initial, result));
        if !policy.escalation {
            return;
        }
        let min_confidence = self.config.degradation.min_confidence;
        let escalate_below = policy.escalate_below;
        let budget = self.config.degradation.retry_budget;
        let mut current = policy.initial;
        let mut attempts = 0usize;
        while attempts < budget && needs_escalation(slot, min_confidence, escalate_below) {
            let Some(next) = current.next_heavier() else {
                break;
            };
            current = next;
            attempts += 1;
            let mut retry = std::mem::replace(&mut self.retry_slot, SessionOutcome::idle());
            self.monitored_with(&mut retry, |engine, result| run(engine, next, result));
            if retry_improves(&retry, slot) {
                std::mem::swap(slot, &mut retry);
            }
            self.retry_slot = retry;
        }
        if attempts > 0 {
            match slot {
                SessionOutcome::Degraded { diagnostics, .. } => {
                    diagnostics.escalations = attempts;
                }
                SessionOutcome::Failed {
                    diagnostics: Some(d),
                    ..
                } => d.escalations = attempts,
                _ => {}
            }
        }
    }

    /// The one session body behind every entry point, over the correlation
    /// store as the caller left it (an escalation rerun of the same input
    /// re-extracts arrivals from the stored correlations).
    ///
    /// A capture has two channels or one per configured microphone;
    /// any other count is a typed error. Channels 0 and 1 — the primary
    /// pair, spanning device +y — drive the slide pipeline. When the
    /// capture carries every microphone of the configured array, every
    /// channel is beacon-detected and the configured [`DoaFrontEnd`], if
    /// any, attaches the per-pair session delays and a [`BearingPrior`].
    /// Front-end failures that depend on the *data* (an extra channel
    /// with no beacons, an infeasible pair delay) leave `bearing = None`
    /// without failing the session — the prior is advisory, the
    /// primary-pair estimate is not.
    fn estimated_into(
        &mut self,
        input: &sealed::Parts<'_>,
        estimator: TdoaEstimator,
        out: &mut SessionResult,
    ) -> Result<(), HyperEarError> {
        out.slides.clear();
        out.upper = None;
        out.lower = None;
        out.stature_drop = None;
        out.projected = None;
        out.pair_delays.clear();
        out.bearing = None;
        let mics = self.config.array.len();
        let n = input.channel_count;
        if n != 2 && n != mics {
            return Err(HyperEarError::invalid(
                "channels",
                format!(
                    "the array describes {mics} microphones; need 2 or {mics} channels, got {n}"
                ),
            ));
        }
        let channels = &input.channels[..n];
        check_capture(channels, input.audio_sample_rate, input.imu_sample_rate)?;

        // ---- Beacon detection (ASP) on every channel. --------------------
        // The detector is cached across sessions; only a sample-rate
        // change forces a rebuild (new chirp template and band-pass).
        let rebuild = self
            .detector
            .as_ref()
            .is_none_or(|d| d.sample_rate() != input.audio_sample_rate);
        if rebuild {
            let solo = MultiBeaconConfig::solo(self.config.clone());
            let detector = MultiBeaconDetector::new(&solo, input.audio_sample_rate)?;
            self.detector = Some(Arc::new(detector));
        }
        self.detect_channels(channels, estimator)?;
        self.finish_from_arrivals(
            input.audio_sample_rate,
            channels[0].len(),
            input.imu_sample_rate,
            input.accel,
            input.gyro,
            out,
        )?;
        out.estimator = estimator;
        if n == mics && self.config.doa_front_end != DoaFrontEnd::None {
            self.attach_bearing(channels, input.audio_sample_rate, out);
        }
        Ok(())
    }

    /// Beacon detection on every channel of a session into the engine's
    /// per-channel arrival lists, under `estimator`.
    ///
    /// Each channel is correlated band-limited into the correlation
    /// store — unless the store already holds this session's
    /// correlations (an escalation rerun) — and its arrivals extracted
    /// from there, one channel after another on the detector's scratch.
    /// `McciFusion` runs on the full-rate correlations instead (see
    /// [`SessionEngine::extract_fused`]).
    fn detect_channels(
        &mut self,
        channels: &[&[f64]],
        estimator: TdoaEstimator,
    ) -> Result<(), HyperEarError> {
        let n = channels.len();
        if self.arrivals.len() < n {
            self.arrivals.resize_with(n, Vec::new);
        }
        if estimator == TdoaEstimator::McciFusion {
            return self.extract_fused(channels);
        }
        if self.store.channels.len() < n {
            self.store
                .channels
                .resize_with(n, ChannelCorrelation::default);
        }
        let reuse = std::mem::replace(&mut self.store.valid, false);
        let detector = self
            .detector
            .as_deref()
            .expect("detector built before detection");
        let scratch = &mut self.scratch;
        for ((samples, chan), out) in channels
            .iter()
            .zip(&mut self.store.channels)
            .zip(&mut self.arrivals)
        {
            let samples = (!reuse).then_some(*samples);
            detector.detect_channel(
                samples,
                estimator,
                Some(chan),
                scratch,
                std::slice::from_mut(out),
            )?;
        }
        self.store.valid = true;
        Ok(())
    }

    /// MCCI extraction over every channel's full-rate correlation,
    /// computed on demand on the rung's own full-rate filter (the
    /// band-limited store is left as it is):
    /// solves the cross-channel alignment offsets, then extracts each
    /// channel's arrivals. When fusion is possible (≥ 2 live channels and
    /// this channel is live) the peaks are detected on the
    /// shift-and-averaged fused correlation and each arrival is *timed*
    /// on the channel's own correlation — fusing the timing itself would
    /// average away the inter-channel TDoA the pipeline exists to
    /// measure. Dead channels and unfusable sessions fall back to plain
    /// extraction. `max_lag` is clamped to the correlation length so
    /// degenerate captures degrade to the fallback instead of erroring.
    fn extract_fused(&mut self, channels: &[&[f64]]) -> Result<(), HyperEarError> {
        let n = channels.len();
        let detector = self
            .detector
            .as_deref()
            .expect("detector built before detection");
        let scratch = &mut self.scratch;
        let CorrelationStore {
            offsets,
            live,
            mcci,
            ..
        } = &mut self.store;
        let corrs = mcci.correlate(&self.config, detector.sample_rate(), channels, scratch)?;
        let mut refs: [&[f64]; MAX_MICS] = [&[]; MAX_MICS];
        for (slot, c) in refs.iter_mut().zip(corrs.iter()) {
            *slot = c;
        }
        let refs = &refs[..n];
        let lag = self
            .config
            .estimator
            .mcci_max_lag
            .min(refs[0].len().saturating_sub(1));
        let n_live = if lag == 0 {
            // Capture too short to align; mark everything for the fallback.
            live.clear();
            live.resize(n, false);
            offsets.clear();
            offsets.resize(n, 0.0);
            0
        } else {
            mcci_offsets_with(refs, lag, offsets, live)?
        };
        for (k, out) in self.arrivals.iter_mut().take(n).enumerate() {
            if n_live >= 2 && live[k] {
                mcci.arrivals_fused(offsets, live, k, scratch, out)?;
            } else {
                mcci.arrivals_full(k, scratch, out)?;
            }
        }
        Ok(())
    }

    /// Runs the configured DOA front-end over the session's arrival
    /// lists (planar) or the initial stationary hold of the raw
    /// `channels` (phase tracking, one per configured microphone),
    /// attaching the per-pair delays and the bearing prior to the
    /// result. Data-dependent front-end failures leave `bearing = None`;
    /// the session result stands either way.
    fn attach_bearing(&self, channels: &[&[f64]], fs: f64, out: &mut SessionResult) {
        let array = self.config.array;
        let c = self.config.speed_of_sound;
        let mut delays = [0.0f64; MAX_PAIRS];
        let n = match self.config.doa_front_end {
            DoaFrontEnd::None => return,
            DoaFrontEnd::Planar => {
                let mut refs: [&[BeaconArrival]; MAX_MICS] = [&[]; MAX_MICS];
                for (slot, list) in refs.iter_mut().zip(&self.arrivals) {
                    *slot = list;
                }
                crate::doa::arrival_pair_delays(&array, &refs[..array.len()], &mut delays)
            }
            DoaFrontEnd::PhaseTracking => {
                // Phase is only meaningful while the geometry holds
                // still: probe the initial stationary hold, before the
                // first detected movement.
                let full = channels[0].len();
                let hold_end = self
                    .movements
                    .first()
                    .map_or(f64::INFINITY, |&(start, _)| start - STATIONARY_MARGIN);
                let mut prefix = if hold_end.is_finite() && hold_end > 0.0 {
                    (((hold_end * fs) as usize).max(1)).min(full)
                } else {
                    full
                };
                if prefix < 256 {
                    prefix = full;
                }
                let mut chans: [&[f64]; MAX_MICS] = [&[]; MAX_MICS];
                for (slot, ch) in chans.iter_mut().zip(channels) {
                    *slot = &ch[..prefix];
                }
                crate::doa::phase_pair_delays(
                    &array,
                    &chans[..array.len()],
                    fs,
                    phase_probe_hz(&self.config),
                    c,
                    &mut delays,
                )
            }
        };
        let Ok(n) = n else { return };
        out.pair_delays.extend_from_slice(&delays[..n]);
        out.bearing = crate::doa::bearing_from_pair_delays(&array, &delays[..n], c).ok();
    }

    /// Mutable access to the per-channel arrival lists, for front ends
    /// that run detection *outside* the engine (the stream service and
    /// the K-beacon engine copy their detectors' arrivals in here, then
    /// call [`SessionEngine::finish_from_arrivals`]).
    pub(crate) fn arrivals_mut(&mut self) -> (&mut Vec<BeaconArrival>, &mut Vec<BeaconArrival>) {
        let (left, rest) = self.arrivals.split_at_mut(1);
        (&mut left[0], &mut rest[0])
    }

    /// Everything downstream of beacon detection: inertial analysis,
    /// rotation correction, SFO estimation, per-slide TDoA and
    /// triangulation, aggregation and projection. Reads the primary
    /// pair's arrival lists (channels 0 and 1) previously left in the
    /// engine (by [`SessionEngine::run_into`]'s
    /// detection stage or via [`SessionEngine::arrivals_mut`]) — it never
    /// touches the audio samples themselves, which is what lets streaming
    /// ingestion discard PCM as soon as it has been correlated.
    pub(crate) fn finish_from_arrivals(
        &mut self,
        audio_sample_rate: f64,
        audio_samples: usize,
        imu_sample_rate: f64,
        accel: &[Vec3],
        gyro: &[Vec3],
        out: &mut SessionResult,
    ) -> Result<(), HyperEarError> {
        out.slides.clear();
        out.upper = None;
        out.lower = None;
        out.stature_drop = None;
        out.projected = None;
        // The streaming front end finishes sessions through this method
        // with the detector's configured initial estimator; the
        // one-shot estimated entry points overwrite this afterwards.
        out.estimator = self.config.estimator.initial;
        out.pair_delays.clear();
        out.bearing = None;
        let found = self.arrivals[0].len().min(self.arrivals[1].len());
        if found < 2 {
            return Err(HyperEarError::InsufficientBeacons {
                stage: "beacon detection",
                found,
                required: 2,
            });
        }

        // ---- Inertial analysis (MSP + PDE). -------------------------------
        analyze_session_with(
            accel,
            gyro,
            imu_sample_rate,
            &self.config.inertial,
            &mut self.analyze_scratch,
            &mut self.analysis,
        )?;

        // ---- Movement timeline and stationary windows. --------------------
        let audio_duration = audio_samples as f64 / audio_sample_rate;
        self.movements.clear();
        self.movements.extend(
            self.analysis
                .slides
                .iter()
                .map(|s| (s.start_time, s.end_time))
                .chain(self.analysis.stature_changes.iter().map(|c| {
                    (
                        c.segment.start as f64 / imu_sample_rate,
                        c.segment.end as f64 / imu_sample_rate,
                    )
                })),
        );
        // Unstable sort: downstream consumers are order-invariant for
        // tied start times, and the unstable variant does not allocate.
        self.movements.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        stationary_windows_into(
            &self.movements,
            audio_duration,
            STATIONARY_MARGIN,
            self.config.beacon.duration,
            &mut self.stationary,
        );

        // ---- Rotation error correction (paper Fig. 5). -------------------
        // Yaw wobble swings Mic2 toward/away from the speaker by
        // D·sin(yaw), shifting its beacon arrivals by D·sin(yaw)/S. Undo
        // it per beacon using the gyro-integrated instantaneous yaw; the
        // sign follows the speaker's side from Speaker Direction Finding.
        if self.config.rotation_correction {
            self.gyro_z.clear();
            self.gyro_z.extend(gyro.iter().map(|g| g.z));
            // The LS-detrended yaw trace: constant offsets cancel in the
            // pre/post arrival differences, and detrending keeps residual
            // bias drift far below the correction's own scale.
            yaw_trace_into(&self.gyro_z, imu_sample_rate, &mut self.yaw)?;
            let sign = match self.config.speaker_side {
                Side::Right => 1.0,
                Side::Left => -1.0,
            };
            for a in &mut self.arrivals[1] {
                let yaw = yaw_at(&self.yaw, imu_sample_rate, a.time);
                a.time +=
                    sign * self.config.mic_separation * yaw.sin() / self.config.speed_of_sound;
            }
        }

        // ---- SFO period estimation. -----------------------------------------
        let period = if self.config.sfo_correction {
            // Pool both channels' arrivals per window by estimating from
            // the left channel (both share the ADC clock) and averaging
            // with the right.
            let pl = estimate_period_with(
                &self.arrivals[0],
                &self.stationary,
                self.config.beacon.period,
                &mut self.sfo_scratch,
            )?;
            let pr = estimate_period_with(
                &self.arrivals[1],
                &self.stationary,
                self.config.beacon.period,
                &mut self.sfo_scratch,
            )?;
            let w_l = pl.beacons_used as f64;
            let w_r = pr.beacons_used as f64;
            let combined = (pl.period * w_l + pr.period * w_r) / (w_l + w_r);
            PeriodEstimate {
                period: combined,
                offset_ppm: (combined / self.config.beacon.period - 1.0) * 1e6,
                beacons_used: pl.beacons_used + pr.beacons_used,
                windows_used: pl.windows_used.max(pr.windows_used),
                residual_rms: ((pl.residual_rms * pl.residual_rms * w_l
                    + pr.residual_rms * pr.residual_rms * w_r)
                    / (w_l + w_r))
                    .sqrt(),
            }
        } else {
            PeriodEstimate {
                period: self.config.beacon.period,
                offset_ppm: 0.0,
                beacons_used: 0,
                windows_used: 0,
                residual_rms: 0.0,
            }
        };

        // ---- Stature phases. ---------------------------------------------------
        let first_stature_time = self
            .analysis
            .stature_changes
            .first()
            .map(|c| c.segment.start as f64 / imu_sample_rate);
        let stature_drop = self
            .analysis
            .stature_changes
            .first()
            .map(|c| c.height_change.abs());

        let (arr_left, arr_right) = (&self.arrivals[0], &self.arrivals[1]);
        let strength_sum: f64 = arr_left.iter().chain(arr_right).map(|a| a.strength).sum();
        let mean_beacon_strength = strength_sum / (arr_left.len() + arr_right.len()) as f64;

        // ---- Per-slide confidence, TDoA + triangulation. -----------------------
        // Session-level SFO confidence: all slides share the clock fit.
        let sfo_factor = soft_factor(
            period.residual_rms,
            self.config.degradation.sfo_residual_tol,
        );
        let ctx = SlideCtx {
            config: &self.config,
            arr_left,
            arr_right,
            movements: &self.movements,
            slides: &self.analysis.slides,
            period: period.period,
            sfo_factor,
            audio_duration,
            mean_beacon_strength,
            first_stature_time,
        };
        let n = ctx.slides.len();
        out.slides.clear();
        for idx in 0..n {
            let mut report = SlideReport::placeholder();
            process_slide(
                &ctx,
                idx,
                &mut self.tdoa_scratch,
                &mut self.loc_scratch,
                &mut report,
            )?;
            out.slides.push(report);
        }
        let rejected = out.slides.iter().filter(|r| !r.accepted).count();

        // ---- Aggregation per phase. -----------------------------------------------
        let mut upper = None;
        let mut lower = None;
        for phase in [StaturePhase::Upper, StaturePhase::Lower] {
            self.geoms.clear();
            self.geoms.extend(
                out.slides
                    .iter()
                    .filter(|r| r.phase == phase && r.fix.is_some())
                    .map(|r| r.fix.as_ref().expect("filtered Some").geometry),
            );
            if self.geoms.is_empty() {
                continue;
            }
            let est =
                localize_with(&self.geoms, self.config.aggregation, &mut self.loc_scratch).ok();
            match phase {
                StaturePhase::Upper => upper = est,
                StaturePhase::Lower => lower = est,
            }
        }

        out.beacons_left = arr_left.len();
        out.beacons_right = arr_right.len();
        out.mean_beacon_strength = mean_beacon_strength;
        out.period = period;
        if upper.is_none() && lower.is_none() {
            return Err(HyperEarError::NoUsableSlides {
                detected: self.analysis.slides.len(),
                rejected,
            });
        }

        // ---- Projection (3D sessions). -----------------------------------------------
        let projected = match (&upper, &lower, stature_drop) {
            (Some(u), Some(l), Some(h)) if h > 0.01 => {
                Some(project(u, l, h, self.config.max_speaker_depth)?)
            }
            _ => None,
        };

        out.upper = upper;
        out.lower = lower;
        out.stature_drop = stature_drop;
        out.projected = projected;
        Ok(())
    }
}

/// The engine's per-channel correlation store: each channel's
/// band-limited matched-filter correlation (with its spectrum, once a
/// weighting rung asked for it), and the MCCI rung's full-rate buffers
/// and alignment solution. `valid` marks the band-limited correlations
/// as the current session's; every public entry point clears it, so the
/// store never carries one session's correlations into another.
#[derive(Debug, Clone, Default)]
struct CorrelationStore {
    channels: Vec<ChannelCorrelation>,
    valid: bool,
    /// Least-squares per-channel alignment offsets, samples.
    offsets: Vec<f64>,
    /// Which channels carried energy (dead channels are excluded from
    /// the solve and fall back to plain extraction).
    live: Vec<bool>,
    /// The MCCI rung's own state: its full-rate filter (built the first
    /// time the rung runs at a rate), correlations and extraction buffers.
    mcci: McciScratch,
}

impl CorrelationStore {
    /// Bytes reserved by the correlations, spectra and MCCI buffers.
    fn capacity_bytes(&self) -> usize {
        self.channels
            .iter()
            .map(ChannelCorrelation::capacity_bytes)
            .sum::<usize>()
            + self.channels.capacity() * std::mem::size_of::<ChannelCorrelation>()
            + self.offsets.capacity() * std::mem::size_of::<f64>()
            + self.live.capacity()
            + self.mcci.capacity_bytes()
    }
}

/// Whether a graded outcome shows the acoustic trouble a heavier
/// estimator could plausibly fix: a failure (except configuration
/// errors, which no estimator changes); a degraded session whose
/// worst slide confidence collapsed below the policy threshold, lost
/// slides to the drop budget, or produced slides with no acoustic fix;
/// or an `Ok` session whose worst slide confidence still fell below
/// [`EstimatorPolicy::escalate_below`] — the grade cannot see ranging
/// accuracy, but a collapsed SFO factor (multipath-shifted arrivals off
/// the period line) can flag an echo-corrupted session that otherwise
/// looks healthy. Slide rejections alone (inertial quality-gate
/// failures) do not trigger escalation — no TDoA estimator can fix a
/// bad slide gesture.
fn needs_escalation(outcome: &SessionOutcome, min_confidence: f64, escalate_below: f64) -> bool {
    match outcome {
        SessionOutcome::Ok(result) => min_slide_score(result) < escalate_below,
        SessionOutcome::Degraded { diagnostics, .. } => {
            diagnostics.min_confidence < min_confidence.max(escalate_below)
                || diagnostics.slides_dropped > 0
                || diagnostics.slides_without_fix > 0
        }
        SessionOutcome::Failed { reason, .. } => {
            !matches!(reason, HyperEarError::InvalidParameter { .. })
        }
    }
}

/// The lowest slide confidence score of a result, `+inf` when there are
/// no slides (nothing to distrust).
fn min_slide_score(result: &SessionResult) -> f64 {
    result
        .slides
        .iter()
        .fold(f64::INFINITY, |m, r| m.min(r.confidence.score))
}

/// Whether an escalation rerun strictly beat the incumbent outcome.
/// Ranks `Ok` > `Degraded` > `Failed`; within `Degraded`, fewer losses
/// (dropped + fix-less slides) win, then a higher minimum confidence;
/// within `Ok`, a strictly higher minimum slide confidence wins (the
/// heavier estimator recovered the arrivals the SFO line distrusted).
/// Ties keep the incumbent — the cheaper, earlier estimator.
fn retry_improves(retry: &SessionOutcome, incumbent: &SessionOutcome) -> bool {
    fn rank(o: &SessionOutcome) -> u8 {
        match o {
            SessionOutcome::Ok(_) => 2,
            SessionOutcome::Degraded { .. } => 1,
            SessionOutcome::Failed { .. } => 0,
        }
    }
    match rank(retry).cmp(&rank(incumbent)) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match (retry, incumbent) {
            (SessionOutcome::Ok(r), SessionOutcome::Ok(i)) => {
                min_slide_score(r) > min_slide_score(i)
            }
            (
                SessionOutcome::Degraded { diagnostics: r, .. },
                SessionOutcome::Degraded { diagnostics: i, .. },
            ) => {
                let r_loss = r.slides_dropped + r.slides_without_fix;
                let i_loss = i.slides_dropped + i.slides_without_fix;
                r_loss < i_loss || (r_loss == i_loss && r.min_confidence > i.min_confidence)
            }
            _ => false,
        },
    }
}

/// The read-only session context the per-slide stage needs: shared by
/// every slide, borrowed immutably so two halves of the slide loop can
/// run concurrently against it.
struct SlideCtx<'a> {
    config: &'a HyperEarConfig,
    arr_left: &'a [BeaconArrival],
    arr_right: &'a [BeaconArrival],
    movements: &'a [(f64, f64)],
    slides: &'a [SlideEstimate],
    /// The SFO-corrected beacon period, seconds.
    period: f64,
    sfo_factor: f64,
    audio_duration: f64,
    mean_beacon_strength: f64,
    first_stature_time: Option<f64>,
}

/// Processes one slide — quality gate, confidence factors, augmented
/// TDoA, triangulation, plausibility gate — into an index-addressed
/// output slot. Pure in the session context plus the slide index: the
/// scratch arguments hold only intermediates, so any thread with any
/// warm scratch pair produces bit-identical reports.
fn process_slide(
    ctx: &SlideCtx<'_>,
    idx: usize,
    tdoa_scratch: &mut TdoaScratch,
    loc_scratch: &mut LocalizeScratch,
    slot: &mut SlideReport,
) -> Result<(), HyperEarError> {
    let slide = &ctx.slides[idx];
    let phase = match ctx.first_stature_time {
        Some(t) if slide.start_time > t => StaturePhase::Lower,
        _ => StaturePhase::Upper,
    };
    let (accepted, rejection) = if ctx.config.quality_gate_enabled {
        match ctx
            .config
            .quality_gate
            .check(slide.distance, slide.rotation_deg)
        {
            Ok(()) => (true, None),
            Err(r) => (false, Some(r)),
        }
    } else {
        (true, None)
    };
    let pre = window_before(ctx.movements, slide.start_time, ctx.config.beacon.duration);
    let post = window_after(
        ctx.movements,
        slide.end_time,
        ctx.audio_duration,
        ctx.config.beacon.duration,
    );
    // Beacon confidence: mean strength of the arrivals bracketing
    // this slide, relative to the session mean.
    let mut bracketing_sum = 0.0;
    let mut bracketing_count = 0usize;
    for a in ctx.arr_left.iter().chain(ctx.arr_right.iter()) {
        if a.time >= pre.0 && a.time <= post.1 {
            bracketing_sum += a.strength;
            bracketing_count += 1;
        }
    }
    let beacon_factor = if bracketing_count == 0 || ctx.mean_beacon_strength <= 0.0 {
        0.0
    } else {
        (bracketing_sum / bracketing_count as f64 / ctx.mean_beacon_strength).clamp(0.0, 1.0)
    };
    let drift_factor = soft_factor(
        slide.end_velocity_residual,
        ctx.config.degradation.drift_residual_tol,
    );
    *slot = SlideReport {
        inertial: *slide,
        phase,
        accepted,
        rejection,
        confidence: SlideConfidence::new(beacon_factor, ctx.sfo_factor, drift_factor),
        dropped: false,
        tdoa: None,
        fix: None,
    };
    if accepted {
        match augmented_tdoa_with(
            ctx.arr_left,
            ctx.arr_right,
            pre,
            post,
            ctx.period,
            ctx.config.speed_of_sound,
            ctx.config.beacons_per_side,
            tdoa_scratch,
        ) {
            Ok(tdoa) => {
                slot.tdoa = Some(tdoa);
                if let Ok(geometry) =
                    slide_geometry(slide.distance, ctx.config.mic_separation, &tdoa)
                {
                    if localize_with(
                        std::slice::from_ref(&geometry),
                        ctx.config.aggregation,
                        loc_scratch,
                    )
                    .is_ok()
                    {
                        // Plausibility gate: an estimate past any
                        // indoor range means the measurement pair
                        // carried no usable curvature — drop it.
                        slot.fix =
                            loc_scratch.fixes().first().copied().filter(|f| {
                                f.solution.position.y <= ctx.config.max_plausible_range
                            });
                    }
                }
            }
            Err(HyperEarError::InsufficientBeacons { .. }) => {
                // Slide unusable (beacons masked); keep the report.
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The auto-selected phase-tracking probe frequency: the lower of 80%
/// of the array's unambiguous limit `c/(2·aperture)` and the beacon
/// band's midpoint (where chirp energy is guaranteed). Compact arrays
/// probe inside the beacon band; wide arrays fall back toward the
/// unambiguous limit, which may sit below the band — the regime where
/// phase tracking needs a pilot tone to be informative.
fn phase_probe_hz(config: &HyperEarConfig) -> f64 {
    let limit = config.speed_of_sound / (2.0 * config.array.aperture());
    (0.8 * limit).min(0.5 * (config.beacon.f0 + config.beacon.f1))
}

/// A soft confidence factor in `(0, 1]`: 1 at zero residual, 0.5 at the
/// tolerance, decaying quadratically beyond it.
fn soft_factor(residual: f64, tolerance: f64) -> f64 {
    let r = residual / tolerance;
    1.0 / (1.0 + r * r)
}

/// Linear interpolation of the yaw trace at time `t` (clamped to the
/// trace ends).
fn yaw_at(yaw: &[f64], imu_sample_rate: f64, t: f64) -> f64 {
    let pos = t * imu_sample_rate;
    let i = (pos.floor() as usize).min(yaw.len().saturating_sub(1));
    let j = (i + 1).min(yaw.len() - 1);
    let frac = (pos - i as f64).clamp(0.0, 1.0);
    yaw[i] * (1.0 - frac) + yaw[j] * frac
}

/// Complements the movement windows over `[0, duration]`, shrinking each
/// stationary window by the margin on both sides and by the chirp
/// duration at the end (a beacon must *finish* before motion starts).
fn stationary_windows_into(
    movements: &[(f64, f64)],
    duration: f64,
    margin: f64,
    chirp_duration: f64,
    windows: &mut Vec<(f64, f64)>,
) {
    windows.clear();
    let mut cursor = 0.0;
    for &(start, end) in movements {
        let w_end = start - margin - chirp_duration;
        if w_end > cursor {
            windows.push((cursor, w_end));
        }
        cursor = cursor.max(end + margin);
    }
    let final_end = duration - chirp_duration;
    if final_end > cursor {
        windows.push((cursor, final_end));
    }
}

#[cfg(test)]
fn stationary_windows(
    movements: &[(f64, f64)],
    duration: f64,
    margin: f64,
    chirp_duration: f64,
) -> Vec<(f64, f64)> {
    let mut windows = Vec::new();
    stationary_windows_into(movements, duration, margin, chirp_duration, &mut windows);
    windows
}

/// The stationary window immediately before a slide, for its pre-slide
/// beacons.
fn window_before(movements: &[(f64, f64)], slide_start: f64, chirp_duration: f64) -> (f64, f64) {
    let prev_end = movements
        .iter()
        .filter(|&&(_, end)| end < slide_start - 1e-9)
        .map(|&(_, end)| end)
        .fold(0.0f64, f64::max);
    (
        prev_end + STATIONARY_MARGIN,
        slide_start - STATIONARY_MARGIN - chirp_duration,
    )
}

/// The stationary window immediately after a slide, for its post-slide
/// beacons.
fn window_after(
    movements: &[(f64, f64)],
    slide_end: f64,
    duration: f64,
    chirp_duration: f64,
) -> (f64, f64) {
    let next_start = movements
        .iter()
        .filter(|&&(start, _)| start > slide_end + 1e-9)
        .map(|&(start, _)| start)
        .fold(duration, f64::min);
    (
        slide_end + STATIONARY_MARGIN,
        next_start - STATIONARY_MARGIN - chirp_duration,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HyperEarConfig;
    use crate::metrics::OutcomeTally;
    use hyperear_sim::environment::Environment;
    use hyperear_sim::phone::PhoneModel;
    use hyperear_sim::scenario::{Recording, ScenarioBuilder};

    fn input(rec: &Recording) -> SessionInput<'_> {
        SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        }
    }

    #[test]
    fn two_d_session_localizes_at_3m() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(11)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let result = engine.run(&input(&rec)).unwrap();
        assert!(result.beacons_left >= 10);
        assert_eq!(result.slides.len(), 2);
        let est = result.upper.expect("upper estimate");
        assert!(
            (est.range - 3.0).abs() < 0.3,
            "range {} truth 3.0",
            est.range
        );
        assert!(result.projected.is_none());
        assert_eq!(result.best_range(), Some(est.range));
        // Clean anechoic slides should score confidently.
        for s in &result.slides {
            assert!(s.confidence.score > 0.3, "confidence {:?}", s.confidence);
            assert!(!s.dropped);
        }
    }

    #[test]
    fn sfo_estimate_recovers_combined_clock_offset() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slides(1)
            .seed(12)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let result = engine.run(&input(&rec)).unwrap();
        // Speaker +23 ppm, phone ADC +12 ppm: recorded period offset is
        // (1+23e-6)/(1+12e-6) − 1 ≈ +11 ppm... measured on the *nominal*
        // phone clock the arrivals stretch by both offsets:
        // T_recorded = T·(1+23e-6)·(1+12e-6) ≈ T·(1+35e-6).
        let ppm = result.period.offset_ppm;
        assert!((ppm - 35.0).abs() < 6.0, "offset {ppm} ppm");
        assert!(result.period.residual_rms < 1e-4, "sfo residual");
    }

    #[test]
    fn three_d_session_projects_to_floor() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .speaker_stature(0.5)
            .phone_stature(1.3)
            .slides(3)
            .slides_low(3)
            .stature_drop(0.4)
            .seed(13)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let result = engine.run(&input(&rec)).unwrap();
        assert!(result.upper.is_some());
        assert!(result.lower.is_some());
        let drop = result.stature_drop.expect("stature drop measured");
        assert!((drop - 0.4).abs() < 0.05, "drop {drop}");
        let proj = result.projected.expect("projected estimate");
        assert!(
            (proj.l_star - 3.0).abs() < 0.35,
            "projected {} truth 3.0",
            proj.l_star
        );
    }

    #[test]
    fn array_two_mic_compatibility_is_bit_identical() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(21)
            .render()
            .unwrap();
        let mut stereo_engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let mut array_engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let stereo = stereo_engine.run_monitored(&input(&rec));
        let chans: [&[f64]; 2] = [&rec.audio.left, &rec.audio.right];
        let array = array_engine.run_monitored(&ArraySessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            channels: &chans,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        });
        assert_eq!(array, stereo);
    }

    #[test]
    fn triangle_array_session_attaches_planar_bearing() {
        use hyperear_geom::devices;
        use hyperear_geom::MicArray;
        let array = MicArray::triangle(devices::TABLET_TRIANGLE.mic_separation);
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(22)
            .render_array(&array)
            .unwrap();
        let config = HyperEarConfig::for_device(devices::TABLET_TRIANGLE);
        let mut engine = SessionEngine::new(config).unwrap();
        let refs: Vec<&[f64]> = rec.audio.channels.iter().map(|c| c.as_slice()).collect();
        let result = engine
            .run(&ArraySessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                channels: &refs,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            })
            .unwrap();
        let est = result.upper.expect("upper estimate");
        assert!(
            (est.range - 3.0).abs() < 0.3,
            "range {} truth 3.0",
            est.range
        );
        assert_eq!(result.pair_delays.len(), 3);
        let bearing = result.bearing.expect("planar bearing prior");
        // Speaker broadside of the slide line: device +x, α ≈ 90°,
        // smeared a few degrees by the slide displacement.
        let alpha = hyperear_geom::rotation::wrap_degrees(90.0 - bearing.bearing.to_degrees());
        assert!((alpha - 90.0).abs() < 20.0, "alpha {alpha}");
        assert!(alpha < 180.0, "right half-plane: alpha {alpha}");
        assert!(
            bearing.confidence > 0.2,
            "confidence {}",
            bearing.confidence
        );
    }

    #[test]
    fn compact_array_session_attaches_phase_bearing() {
        use crate::config::DoaFrontEnd;
        use hyperear_geom::MicArray;
        // A compact 3 cm triangle: the unambiguous phase limit
        // c/(2·aperture) ≈ 5.7 kHz reaches into the beacon band, so the
        // auto probe lands where the chirp has energy.
        let mut phone = PhoneModel::galaxy_s4();
        phone.mic_separation = 0.03;
        let array = MicArray::triangle(0.03);
        let rec = ScenarioBuilder::new(phone)
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slides(1)
            .seed(23)
            .render_array(&array)
            .unwrap();
        let mut config = HyperEarConfig::for_array(array);
        config.doa_front_end = DoaFrontEnd::PhaseTracking;
        let mut engine = SessionEngine::new(config).unwrap();
        let refs: Vec<&[f64]> = rec.audio.channels.iter().map(|c| c.as_slice()).collect();
        let result = engine
            .run(&ArraySessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                channels: &refs,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            })
            .unwrap();
        let bearing = result.bearing.expect("phase bearing prior");
        // During the initial hold the speaker sits 0.29 m along the
        // slide axis and 2 m broadside of it.
        let expected = (0.29f64).atan2(2.0);
        let d = bearing.bearing - expected;
        let err = d.sin().atan2(d.cos()).abs();
        assert!(err < 0.3, "bearing {} expected {expected}", bearing.bearing);
        assert_eq!(result.pair_delays.len(), 3);
    }

    #[test]
    fn array_channel_count_mismatch_is_typed() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slides(1)
            .seed(24)
            .render()
            .unwrap();
        // Config describes 2 mics; feed 3 channels.
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let chans: [&[f64]; 3] = [&rec.audio.left, &rec.audio.right, &rec.audio.left];
        let err = engine
            .run(&ArraySessionInput {
                audio_sample_rate: rec.audio.sample_rate,
                channels: &chans,
                imu_sample_rate: rec.imu.sample_rate,
                accel: &rec.imu.accel,
                gyro: &rec.imu.gyro,
            })
            .unwrap_err();
        assert!(
            matches!(err, HyperEarError::InvalidParameter { .. }),
            "{err}"
        );
    }

    #[test]
    fn mismatched_channels_rejected() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slides(1)
            .seed(14)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let mut bad = input(&rec);
        bad.left = &rec.audio.left[..100];
        assert!(engine.run(&bad).is_err());
    }

    #[test]
    fn silence_reports_insufficient_beacons() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slides(1)
            .seed(15)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let silent_left = vec![0.0; rec.audio.left.len()];
        let silent_right = vec![0.0; rec.audio.right.len()];
        let mut silent = input(&rec);
        silent.left = &silent_left;
        silent.right = &silent_right;
        assert!(matches!(
            engine.run(&silent),
            Err(HyperEarError::InsufficientBeacons { .. })
        ));
    }

    #[test]
    fn stationary_window_computation() {
        let movements = vec![(1.0, 1.8), (2.5, 3.3)];
        let windows = stationary_windows(&movements, 5.0, 0.05, 0.04);
        assert_eq!(windows.len(), 3);
        assert!((windows[0].0 - 0.0).abs() < 1e-12);
        assert!((windows[0].1 - 0.91).abs() < 1e-9);
        assert!((windows[1].0 - 1.85).abs() < 1e-9);
        assert!((windows[1].1 - 2.41).abs() < 1e-9);
        assert!((windows[2].0 - 3.35).abs() < 1e-9);
        assert!((windows[2].1 - 4.96).abs() < 1e-9);
    }

    #[test]
    fn window_helpers_bracket_a_slide() {
        let movements = vec![(1.0, 1.8), (2.5, 3.3)];
        let pre = window_before(&movements, 2.5, 0.04);
        assert!((pre.0 - 1.85).abs() < 1e-9);
        assert!((pre.1 - 2.41).abs() < 1e-9);
        let post = window_after(&movements, 1.8, 5.0, 0.04);
        assert!((post.0 - 1.85).abs() < 1e-9);
        assert!((post.1 - 2.41).abs() < 1e-9);
    }

    #[test]
    fn quality_gate_can_reject_everything() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slide_distance(0.3) // below the 50 cm gate
            .slides(2)
            .seed(16)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        match engine.run(&input(&rec)) {
            Err(HyperEarError::NoUsableSlides { detected, rejected }) => {
                assert_eq!(detected, 2);
                assert_eq!(rejected, 2);
            }
            other => panic!("expected NoUsableSlides, got {other:?}"),
        }
        // Disabling the gate accepts the short slides (accuracy suffers,
        // but the session completes).
        let mut cfg = HyperEarConfig::galaxy_s4();
        cfg.quality_gate_enabled = false;
        let mut engine = SessionEngine::new(cfg).unwrap();
        let result = engine.run(&input(&rec)).unwrap();
        assert!(result.upper.is_some());
    }

    #[test]
    fn reused_engine_matches_one_shot_runs() {
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        assert_eq!(session.config.mic_separation, 0.1366);
        for seed in [21, 22] {
            let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(Environment::anechoic())
                .speaker_range(2.5)
                .slides(2)
                .seed(seed)
                .render()
                .unwrap();
            let reused = session.run(&input(&rec)).unwrap();
            let fresh = SessionEngine::new(HyperEarConfig::galaxy_s4())
                .unwrap()
                .run(&input(&rec))
                .unwrap();
            assert_eq!(reused, fresh, "seed {seed}");
        }
        // A standalone engine built from the same config behaves the same.
        let mut standalone = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.5)
            .slides(2)
            .seed(21)
            .render()
            .unwrap();
        assert_eq!(
            standalone.run(&input(&rec)).unwrap(),
            SessionEngine::new(HyperEarConfig::galaxy_s4())
                .unwrap()
                .run(&input(&rec))
                .unwrap()
        );
    }

    #[test]
    fn run_into_reuses_result_storage() {
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let mut out = SessionResult::empty();
        for seed in [21, 22] {
            let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
                .environment(Environment::anechoic())
                .speaker_range(2.5)
                .slides(2)
                .seed(seed)
                .render()
                .unwrap();
            session.run_into(&input(&rec), &mut out).unwrap();
            let fresh = SessionEngine::new(HyperEarConfig::galaxy_s4())
                .unwrap()
                .run(&input(&rec))
                .unwrap();
            assert_eq!(out, fresh, "seed {seed}");
        }
    }

    #[test]
    fn monitored_clean_session_is_ok() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(11)
            .render()
            .unwrap();
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let outcome = session.run_monitored(&input(&rec));
        assert!(outcome.is_usable());
        match &outcome {
            SessionOutcome::Ok(result) => {
                assert!(result.upper.is_some());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        // A monitored run's result matches the raw pipeline's.
        let raw = SessionEngine::new(HyperEarConfig::galaxy_s4())
            .unwrap()
            .run(&input(&rec))
            .unwrap();
        assert_eq!(outcome.result(), Some(&raw));
    }

    #[test]
    fn monitored_silence_fails_with_typed_reason() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slides(1)
            .seed(15)
            .render()
            .unwrap();
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let silent_left = vec![0.0; rec.audio.left.len()];
        let silent_right = vec![0.0; rec.audio.right.len()];
        let mut silent = input(&rec);
        silent.left = &silent_left;
        silent.right = &silent_right;
        let outcome = session.run_monitored(&silent);
        assert!(!outcome.is_usable());
        match outcome {
            SessionOutcome::Failed { reason, .. } => {
                assert!(matches!(reason, HyperEarError::InsufficientBeacons { .. }));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn monitored_all_rejected_fails_with_diagnostics() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(2.0)
            .slide_distance(0.3)
            .slides(2)
            .seed(16)
            .render()
            .unwrap();
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        match session.run_monitored(&input(&rec)) {
            SessionOutcome::Failed {
                reason: HyperEarError::NoUsableSlides { .. },
                diagnostics: Some(d),
            } => {
                assert_eq!(d.slides_detected, 2);
                assert_eq!(d.slides_rejected, 2);
            }
            other => panic!("expected Failed with diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn failed_sessions_keep_what_they_measured() {
        // Swapped channels turn the slide geometry around, so no slide
        // localizes — though both channels detected every beacon and the
        // clock fit ran.
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .speaker_range(2.0)
            .slides(3)
            .seed(9100)
            .render()
            .unwrap();
        let mut swapped = input(&rec);
        std::mem::swap(&mut swapped.left, &mut swapped.right);
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        match session.run_monitored(&swapped) {
            SessionOutcome::Failed {
                reason: HyperEarError::NoUsableSlides { .. },
                diagnostics: Some(d),
            } => {
                assert!(d.beacons_left >= 20 && d.beacons_right >= 20, "{d:?}");
                assert!(d.sfo_residual_rms > 0.0, "{d:?}");
                assert!(d.mean_confidence > 0.0, "{d:?}");
                assert!(d.min_confidence > 0.0, "{d:?}");
            }
            other => panic!("expected NoUsableSlides with diagnostics, got {other:?}"),
        }
    }

    #[test]
    fn retry_budget_drops_low_confidence_slides() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(3)
            .seed(11)
            .render()
            .unwrap();
        // Force every slide below the threshold so the policy must spend
        // its budget — but min_slides keeps at least one contributing.
        let mut cfg = HyperEarConfig::galaxy_s4();
        cfg.degradation.min_confidence = 1.0;
        cfg.degradation.retry_budget = 2;
        cfg.degradation.min_slides = 1;
        let mut session = SessionEngine::new(cfg).unwrap();
        match session.run_monitored(&input(&rec)) {
            SessionOutcome::Degraded {
                result,
                diagnostics,
            } => {
                assert_eq!(diagnostics.slides_dropped, 2);
                assert_eq!(result.slides.iter().filter(|s| s.dropped).count(), 2);
                // The phase keeps an estimate from the survivor.
                let est = result.upper.expect("estimate survives drops");
                assert_eq!(est.slides_used, 1);
                assert!((est.range - 3.0).abs() < 0.5, "range {}", est.range);
                // The dropped slides are the lowest-confidence ones.
                let min_kept = result
                    .slides
                    .iter()
                    .filter(|s| !s.dropped)
                    .map(|s| s.confidence.score)
                    .fold(f64::INFINITY, f64::min);
                let max_dropped = result
                    .slides
                    .iter()
                    .filter(|s| s.dropped)
                    .map(|s| s.confidence.score)
                    .fold(0.0f64, f64::max);
                assert!(max_dropped <= min_kept, "{max_dropped} vs {min_kept}");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn disabled_policy_never_drops() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(11)
            .render()
            .unwrap();
        let mut cfg = HyperEarConfig::galaxy_s4();
        cfg.degradation.min_confidence = 1.0;
        cfg.degradation.enabled = false;
        let mut session = SessionEngine::new(cfg).unwrap();
        let outcome = session.run_monitored(&input(&rec));
        let result = outcome.result().expect("usable");
        assert!(result.slides.iter().all(|s| !s.dropped));
    }

    #[test]
    fn outcome_tally_aggregates_batches() {
        let mut session = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let mut tally = OutcomeTally::new();
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(11)
            .render()
            .unwrap();
        tally.record(&session.run_monitored(&input(&rec)));
        let silent_left = vec![0.0; rec.audio.left.len()];
        let silent_right = vec![0.0; rec.audio.right.len()];
        let mut silent = input(&rec);
        silent.left = &silent_left;
        silent.right = &silent_right;
        tally.record(&session.run_monitored(&silent));
        assert_eq!(tally.sessions, 2);
        assert_eq!(tally.ok + tally.degraded, 1);
        assert_eq!(tally.failed, 1);
        assert!((tally.usable_fraction() - 0.5).abs() < 1e-12);
        assert!(tally.slides_detected >= 2);
        assert_eq!(OutcomeTally::new().usable_fraction(), 0.0);
    }

    #[test]
    fn every_estimator_localizes_clean_sessions() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(11)
            .render()
            .unwrap();
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        for est in TdoaEstimator::ALL {
            let mut out = SessionResult::empty();
            engine
                .run_estimated_into(&input(&rec), est, &mut out)
                .unwrap_or_else(|e| panic!("{est:?}: {e}"));
            assert_eq!(out.estimator, est);
            let upper = out.upper.unwrap_or_else(|| panic!("{est:?}: no estimate"));
            assert!(
                (upper.range - 3.0).abs() < 0.4,
                "{est:?} range {} truth 3.0",
                upper.range
            );
        }
    }

    #[test]
    fn escalation_leaves_clean_sessions_on_the_initial_estimator() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(2)
            .seed(11)
            .render()
            .unwrap();
        let mut base = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        let mut cfg = HyperEarConfig::galaxy_s4();
        cfg.estimator.escalation = true;
        let mut escalating = SessionEngine::new(cfg).unwrap();
        let plain = base.run_monitored(&input(&rec));
        let guarded = escalating.run_monitored(&input(&rec));
        // A clean session grades Ok, so escalation never fires and the
        // outcome is bit-identical to the non-escalating engine's.
        assert_eq!(plain, guarded);
        match &guarded {
            SessionOutcome::Ok(result) => {
                assert_eq!(result.estimator, TdoaEstimator::PlainXcorr);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn forced_escalation_spends_budget_deterministically() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(3)
            .seed(11)
            .render()
            .unwrap();
        // Confidence threshold at 1.0 marks every slide low-confidence,
        // so the graded outcome is Degraded and escalation must walk the
        // ladder until the retry budget runs out.
        let mut cfg = HyperEarConfig::galaxy_s4();
        cfg.degradation.min_confidence = 1.0;
        cfg.degradation.retry_budget = 2;
        cfg.degradation.min_slides = 1;
        cfg.estimator.escalation = true;
        let mut session = SessionEngine::new(cfg.clone()).unwrap();
        let outcome = session.run_monitored(&input(&rec));
        match &outcome {
            SessionOutcome::Degraded { diagnostics, .. } => {
                assert_eq!(diagnostics.escalations, 2);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(outcome.is_usable());
        // Escalated sessions are exactly repeatable: a fresh engine on
        // the same input picks the same winner.
        let mut again = SessionEngine::new(cfg).unwrap();
        assert_eq!(again.run_monitored(&input(&rec)), outcome);
    }

    #[test]
    fn engine_construction_validates() {
        let mut cfg = HyperEarConfig::galaxy_s4();
        cfg.mic_separation = 0.0;
        assert!(SessionEngine::new(cfg).is_err());
        let engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        assert_eq!(engine.config.mic_separation, 0.1366);
    }

    #[test]
    fn cold_engine_reports_empty_working_set() {
        let engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).unwrap();
        assert_eq!(engine.peak_fft_len(), None);
        assert_eq!(engine.working_set_bytes(), 0);
    }
}
