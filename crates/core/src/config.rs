//! Pipeline configuration.
//!
//! Every tunable of the HyperEar pipeline lives here, with defaults set to
//! the paper's published values. The ablation switches (interpolation,
//! SFO correction, drift correction, quality gate, aggregation policy)
//! exist so the benchmark harness can quantify each design choice.

use crate::HyperEarError;
use hyperear_dsp::chirp::{Chirp, ChirpShape};
use hyperear_geom::devices;
use hyperear_geom::rotation::Side;
use hyperear_geom::MicArray;
use hyperear_imu::analyze::SessionConfig;
use hyperear_imu::quality::QualityGate;
use hyperear_util::{FromJson, Json, JsonError, ToJson};

/// Sub-sample peak refinement method for TDoA interpolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interpolation {
    /// No refinement: integer-sample peaks (the §II-C strawman).
    None,
    /// Three-point parabolic fit (cheap, the default).
    #[default]
    Parabolic,
    /// Golden-section search over a windowed-sinc reconstruction
    /// (slower, slightly more accurate on sharp lobes).
    Sinc,
}

impl ToJson for Interpolation {
    fn to_json(&self) -> Json {
        Json::String(
            match self {
                Interpolation::None => "none",
                Interpolation::Parabolic => "parabolic",
                Interpolation::Sinc => "sinc",
            }
            .to_string(),
        )
    }
}

impl FromJson for Interpolation {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("none") => Ok(Interpolation::None),
            Some("parabolic") => Ok(Interpolation::Parabolic),
            Some("sinc") => Ok(Interpolation::Sinc),
            other => Err(JsonError::schema(format!(
                "interpolation must be \"none\", \"parabolic\" or \"sinc\", got {other:?}"
            ))),
        }
    }
}

/// How per-slide solutions are combined into one estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregation {
    /// Component-wise median of per-slide positions (robust, the
    /// default — matches the paper's "5-slide aggregation").
    #[default]
    Median,
    /// One joint least-squares solve over all accepted slides.
    Joint,
}

impl ToJson for Aggregation {
    fn to_json(&self) -> Json {
        Json::String(
            match self {
                Aggregation::Median => "median",
                Aggregation::Joint => "joint",
            }
            .to_string(),
        )
    }
}

impl FromJson for Aggregation {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("median") => Ok(Aggregation::Median),
            Some("joint") => Ok(Aggregation::Joint),
            other => Err(JsonError::schema(format!(
                "aggregation must be \"median\" or \"joint\", got {other:?}"
            ))),
        }
    }
}

/// Frequency-sweep pattern of a chirp beacon — the identity dimension
/// (alongside the band) that lets K concurrent beacons share the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChirpPattern {
    /// Rising linear sweep `f0 → f1`.
    Up,
    /// Falling linear sweep `f1 → f0`.
    Down,
    /// Symmetric up-then-down sweep (the paper's beacon, default).
    #[default]
    UpDown,
}

impl ChirpPattern {
    /// The DSP-layer sweep shape this pattern synthesizes.
    #[must_use]
    pub fn shape(self) -> ChirpShape {
        match self {
            ChirpPattern::Up => ChirpShape::Up,
            ChirpPattern::Down => ChirpShape::Down,
            ChirpPattern::UpDown => ChirpShape::UpDown,
        }
    }
}

impl ToJson for ChirpPattern {
    fn to_json(&self) -> Json {
        Json::String(
            match self {
                ChirpPattern::Up => "up",
                ChirpPattern::Down => "down",
                ChirpPattern::UpDown => "up-down",
            }
            .to_string(),
        )
    }
}

impl FromJson for ChirpPattern {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("up") => Ok(ChirpPattern::Up),
            Some("down") => Ok(ChirpPattern::Down),
            Some("up-down") => Ok(ChirpPattern::UpDown),
            other => Err(JsonError::schema(format!(
                "chirp pattern must be \"up\", \"down\" or \"up-down\", got {other:?}"
            ))),
        }
    }
}

/// Beacon (chirp) parameters the pipeline assumes about the speaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconConfig {
    /// Lower chirp band edge, hertz.
    pub f0: f64,
    /// Upper chirp band edge, hertz.
    pub f1: f64,
    /// Chirp duration, seconds.
    pub duration: f64,
    /// Nominal repetition period, seconds (the true period is recovered
    /// by SFO estimation).
    pub period: f64,
    /// Frequency-sweep pattern of the reference chirp.
    pub pattern: ChirpPattern,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        BeaconConfig {
            f0: Chirp::HYPEREAR_F0,
            f1: Chirp::HYPEREAR_F1,
            duration: Chirp::HYPEREAR_DURATION,
            period: Chirp::HYPEREAR_PERIOD,
            pattern: ChirpPattern::UpDown,
        }
    }
}

impl ToJson for BeaconConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("f0", Json::Number(self.f0)),
            ("f1", Json::Number(self.f1)),
            ("duration", Json::Number(self.duration)),
            ("period", Json::Number(self.period)),
            ("pattern", self.pattern.to_json()),
        ])
    }
}

impl FromJson for BeaconConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(BeaconConfig {
            f0: json.field("f0")?,
            f1: json.field("f1")?,
            duration: json.field("duration")?,
            period: json.field("period")?,
            pattern: json.field("pattern")?,
        })
    }
}

/// Chirp detection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Peaks must exceed `threshold_factor × noise floor` of the
    /// correlation magnitude.
    pub threshold_factor: f64,
    /// Peaks must additionally exceed this fraction of the session's
    /// largest correlation peak. Protects against spurious detections in
    /// near-silent recordings where the noise floor collapses to
    /// numerical dust.
    pub relative_threshold: f64,
    /// Minimum peak spacing as a fraction of the beacon period.
    pub min_spacing_fraction: f64,
    /// Whether to band-pass the audio to the chirp band first.
    pub band_pass: bool,
    /// FIR taps of the band-pass filter.
    pub band_pass_taps: usize,
    /// Sub-sample refinement method.
    pub interpolation: Interpolation,
    /// Detect and time peaks on the correlation *envelope* (the
    /// analytic correlation's magnitude `|a|`) instead of the raw
    /// correlation `Re a`. Detection always picks candidates on the
    /// envelope of the decimated analytic correlation; this switch
    /// decides what each arrival is timed on — the rebuilt full-rate
    /// envelope instead of the rebuilt full-rate correlation — so it
    /// costs nothing extra. Essential for high-band (near-ultrasonic)
    /// beacons whose correlation rings at a carrier period of a few
    /// samples; unnecessary for the paper's audible chirp.
    pub envelope_detection: bool,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            threshold_factor: 6.0,
            relative_threshold: 0.25,
            min_spacing_fraction: 0.7,
            band_pass: true,
            band_pass_taps: 127,
            interpolation: Interpolation::Parabolic,
            envelope_detection: false,
        }
    }
}

impl ToJson for DetectionConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("threshold_factor", Json::Number(self.threshold_factor)),
            ("relative_threshold", Json::Number(self.relative_threshold)),
            (
                "min_spacing_fraction",
                Json::Number(self.min_spacing_fraction),
            ),
            ("band_pass", Json::Bool(self.band_pass)),
            ("band_pass_taps", Json::Number(self.band_pass_taps as f64)),
            ("interpolation", self.interpolation.to_json()),
            ("envelope_detection", Json::Bool(self.envelope_detection)),
        ])
    }
}

impl FromJson for DetectionConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DetectionConfig {
            threshold_factor: json.field("threshold_factor")?,
            relative_threshold: json.field("relative_threshold")?,
            min_spacing_fraction: json.field("min_spacing_fraction")?,
            band_pass: json.field("band_pass")?,
            band_pass_taps: json.field("band_pass_taps")?,
            interpolation: json.field("interpolation")?,
            envelope_detection: json.field("envelope_detection")?,
        })
    }
}

/// Graceful-degradation policy: how the session engine scores per-slide
/// confidence and spends its re-slide budget before giving up.
///
/// The monitored entry point ([`crate::pipeline::SessionEngine::run_monitored`])
/// never returns a bare error for a recoverable condition: low-confidence
/// slides are dropped (up to `retry_budget` of them) and the session is
/// re-aggregated from the survivors, downgrading the outcome to
/// `Degraded` instead of failing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Whether the policy is applied at all. When `false`,
    /// `run_monitored` still classifies the outcome but never drops a
    /// slide.
    pub enabled: bool,
    /// Slides scoring below this composite confidence are candidates for
    /// dropping.
    pub min_confidence: f64,
    /// At most this many low-confidence slides are dropped (re-slid)
    /// per session.
    pub retry_budget: usize,
    /// A phase must keep at least this many slides after drops.
    pub min_slides: usize,
    /// SFO residual RMS (seconds) at which the SFO confidence factor
    /// falls to 0.5.
    pub sfo_residual_tol: f64,
    /// Zero-velocity residual (m/s) at which the drift confidence factor
    /// falls to 0.5.
    pub drift_residual_tol: f64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            enabled: true,
            min_confidence: 0.25,
            retry_budget: 2,
            min_slides: 1,
            sfo_residual_tol: 1e-4,
            drift_residual_tol: 0.08,
        }
    }
}

impl DegradationPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for any out-of-domain
    /// field.
    pub(crate) fn validate(&self) -> Result<(), HyperEarError> {
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(HyperEarError::invalid(
                "degradation.min_confidence",
                format!("must be within [0, 1], got {}", self.min_confidence),
            ));
        }
        if self.min_slides == 0 {
            return Err(HyperEarError::invalid(
                "degradation.min_slides",
                "must keep at least one slide",
            ));
        }
        if !(self.sfo_residual_tol > 0.0 && self.sfo_residual_tol.is_finite()) {
            return Err(HyperEarError::invalid(
                "degradation.sfo_residual_tol",
                format!("must be positive and finite, got {}", self.sfo_residual_tol),
            ));
        }
        if !(self.drift_residual_tol > 0.0 && self.drift_residual_tol.is_finite()) {
            return Err(HyperEarError::invalid(
                "degradation.drift_residual_tol",
                format!(
                    "must be positive and finite, got {}",
                    self.drift_residual_tol
                ),
            ));
        }
        Ok(())
    }
}

impl ToJson for DegradationPolicy {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("enabled", Json::Bool(self.enabled)),
            ("min_confidence", Json::Number(self.min_confidence)),
            ("retry_budget", Json::Number(self.retry_budget as f64)),
            ("min_slides", Json::Number(self.min_slides as f64)),
            ("sfo_residual_tol", Json::Number(self.sfo_residual_tol)),
            ("drift_residual_tol", Json::Number(self.drift_residual_tol)),
        ])
    }
}

impl FromJson for DegradationPolicy {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DegradationPolicy {
            enabled: json.field("enabled")?,
            min_confidence: json.field("min_confidence")?,
            retry_budget: json.field("retry_budget")?,
            min_slides: json.field("min_slides")?,
            sfo_residual_tol: json.field("sfo_residual_tol")?,
            drift_residual_tol: json.field("drift_residual_tol")?,
        })
    }
}

/// Which direction-finding front-end a session runs ahead of (or instead
/// of) the roll-the-phone SDF protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DoaFrontEnd {
    /// No array front-end: direction comes from the paper's rolling SDF
    /// protocol alone.
    #[default]
    None,
    /// Swadloon-style phase tracking: compare the narrowband carrier
    /// phase across channels, convert phase differences to pair delays,
    /// and solve for bearing (Huang et al., PAPERS.md).
    PhaseTracking,
    /// Arrival-time planar DOA: per-pair beacon arrival-time differences
    /// through the far-field least-squares solver (the 3-mic 2D DOA of
    /// Kovalyov et al., PAPERS.md). Requires a non-collinear array.
    Planar,
}

impl ToJson for DoaFrontEnd {
    fn to_json(&self) -> Json {
        Json::String(
            match self {
                DoaFrontEnd::None => "none",
                DoaFrontEnd::PhaseTracking => "phase-tracking",
                DoaFrontEnd::Planar => "planar",
            }
            .to_string(),
        )
    }
}

impl FromJson for DoaFrontEnd {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("none") => Ok(DoaFrontEnd::None),
            Some("phase-tracking") => Ok(DoaFrontEnd::PhaseTracking),
            Some("planar") => Ok(DoaFrontEnd::Planar),
            other => Err(JsonError::schema(format!(
                "doa front-end must be \"none\", \"phase-tracking\" or \"planar\", got {other:?}"
            ))),
        }
    }
}

/// Which TDoA estimator transforms the matched-filter correlation before
/// arrival extraction.
///
/// Ordered by compute cost: [`TdoaEstimator::PlainXcorr`] is the paper's
/// baseline (no transform at all, bit-identical to the pre-estimator
/// pipeline); the heavier variants trade a full-capture-length FFT or a
/// cross-channel lag solve for robustness to multipath, interference and
/// dropout. [`crate::pipeline::SessionEngine::run_monitored`] can escalate
/// along this order when a session grades poorly (see
/// [`EstimatorPolicy::escalation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TdoaEstimator {
    /// Plain normalized cross-correlation (the conformance baseline).
    #[default]
    PlainXcorr,
    /// GCC-PHAT spectral whitening with a magnitude floor
    /// ([`EstimatorPolicy::phat_floor`]); sharpens multipath-smeared
    /// lobes.
    GccPhat,
    /// Per-sub-band coherence (Wiener) weighting inside the beacon band
    /// ([`EstimatorPolicy::coherence_bands`]); suppresses narrowband
    /// interference.
    SubbandCoherence,
    /// Multiple cross-correlation identity fusion across channels
    /// ([`EstimatorPolicy::mcci_max_lag`]); recovers detections masked on
    /// one channel from the redundant channels. Cross-channel by nature,
    /// so per-channel paths (streaming finish) fall back to plain xcorr.
    McciFusion,
}

impl TdoaEstimator {
    /// All estimators, in escalation (cost) order.
    pub const ALL: [TdoaEstimator; 4] = [
        TdoaEstimator::PlainXcorr,
        TdoaEstimator::GccPhat,
        TdoaEstimator::SubbandCoherence,
        TdoaEstimator::McciFusion,
    ];

    /// The next-heavier estimator in escalation order, or `None` at the
    /// top of the ladder.
    #[must_use]
    pub(crate) fn next_heavier(self) -> Option<TdoaEstimator> {
        match self {
            TdoaEstimator::PlainXcorr => Some(TdoaEstimator::GccPhat),
            TdoaEstimator::GccPhat => Some(TdoaEstimator::SubbandCoherence),
            TdoaEstimator::SubbandCoherence => Some(TdoaEstimator::McciFusion),
            TdoaEstimator::McciFusion => None,
        }
    }

    /// Stable kebab-case name (used in JSON and reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TdoaEstimator::PlainXcorr => "plain-xcorr",
            TdoaEstimator::GccPhat => "gcc-phat",
            TdoaEstimator::SubbandCoherence => "subband-coherence",
            TdoaEstimator::McciFusion => "mcci-fusion",
        }
    }
}

impl ToJson for TdoaEstimator {
    fn to_json(&self) -> Json {
        Json::String(self.name().to_string())
    }
}

impl FromJson for TdoaEstimator {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str() {
            Some("plain-xcorr") => Ok(TdoaEstimator::PlainXcorr),
            Some("gcc-phat") => Ok(TdoaEstimator::GccPhat),
            Some("subband-coherence") => Ok(TdoaEstimator::SubbandCoherence),
            Some("mcci-fusion") => Ok(TdoaEstimator::McciFusion),
            other => Err(JsonError::schema(format!(
                "estimator must be \"plain-xcorr\", \"gcc-phat\", \"subband-coherence\" or \
                 \"mcci-fusion\", got {other:?}"
            ))),
        }
    }
}

/// Policy for the TDoA estimator bank: which estimator a session starts
/// with and whether poorly-graded sessions escalate to heavier ones.
///
/// Escalation is wired into the [`DegradationPolicy`]: a monitored
/// session whose graded outcome falls below
/// [`DegradationPolicy::min_confidence`] (or fails outright) is re-run
/// with the next-heavier estimator, spending one unit of
/// [`DegradationPolicy::retry_budget`] per step and keeping the better
/// outcome. Clean sessions grade `Ok` and never escalate, so the happy
/// path costs exactly what [`TdoaEstimator::PlainXcorr`] costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorPolicy {
    /// The estimator every session starts with.
    pub initial: TdoaEstimator,
    /// Whether poorly-graded monitored sessions escalate to heavier
    /// estimators. Off by default: the baseline pipeline stays
    /// bit-identical unless robustness is explicitly requested.
    pub escalation: bool,
    /// GCC-PHAT whitening floor as a fraction of the peak spectral
    /// magnitude, in `(0, 1)`. Bins below `floor · max|R|` get their
    /// whitening gain capped instead of amplifying noise without bound.
    pub phat_floor: f64,
    /// Number of sub-bands for the coherence-weighting estimator.
    pub coherence_bands: usize,
    /// MCCI pairwise lag-search radius, samples. Must comfortably exceed
    /// the largest inter-mic delay (`baseline / c · fs`, ≈ 18 samples for
    /// the paper's phones).
    pub mcci_max_lag: usize,
    /// Escalation trigger: a monitored session escalates when its lowest
    /// slide confidence score falls below this value, *even if the
    /// session still graded `Ok`* — the grade cannot see ranging
    /// accuracy, but a collapsed SFO factor (multipath-shifted arrivals
    /// off the period line) can. Clean sessions score ≥ 0.99, so the
    /// default leaves them untouched.
    pub escalate_below: f64,
}

impl Default for EstimatorPolicy {
    fn default() -> Self {
        EstimatorPolicy {
            initial: TdoaEstimator::PlainXcorr,
            escalation: false,
            phat_floor: 0.15,
            coherence_bands: 16,
            mcci_max_lag: 64,
            escalate_below: 0.9,
        }
    }
}

impl EstimatorPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for any out-of-domain
    /// field.
    pub(crate) fn validate(&self) -> Result<(), HyperEarError> {
        if !(self.phat_floor > 0.0 && self.phat_floor < 1.0) {
            return Err(HyperEarError::invalid(
                "estimator.phat_floor",
                format!("must be in (0, 1), got {}", self.phat_floor),
            ));
        }
        if self.coherence_bands == 0 || self.coherence_bands > 4_096 {
            return Err(HyperEarError::invalid(
                "estimator.coherence_bands",
                format!("must be in [1, 4096], got {}", self.coherence_bands),
            ));
        }
        if self.mcci_max_lag == 0 || self.mcci_max_lag > 44_100 {
            return Err(HyperEarError::invalid(
                "estimator.mcci_max_lag",
                format!("must be in [1, 44100] samples, got {}", self.mcci_max_lag),
            ));
        }
        if !(0.0..=1.0).contains(&self.escalate_below) {
            return Err(HyperEarError::invalid(
                "estimator.escalate_below",
                format!("must be within [0, 1], got {}", self.escalate_below),
            ));
        }
        Ok(())
    }
}

impl ToJson for EstimatorPolicy {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("initial", self.initial.to_json()),
            ("escalation", Json::Bool(self.escalation)),
            ("phat_floor", Json::Number(self.phat_floor)),
            ("coherence_bands", Json::Number(self.coherence_bands as f64)),
            ("mcci_max_lag", Json::Number(self.mcci_max_lag as f64)),
            ("escalate_below", Json::Number(self.escalate_below)),
        ])
    }
}

impl FromJson for EstimatorPolicy {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EstimatorPolicy {
            initial: json.field("initial")?,
            escalation: json.field("escalation")?,
            phat_floor: json.field("phat_floor")?,
            coherence_bands: json.field("coherence_bands")?,
            mcci_max_lag: json.field("mcci_max_lag")?,
            escalate_below: json.field("escalate_below")?,
        })
    }
}

/// The complete pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperEarConfig {
    /// Distance between the primary microphone pair (mics 0 and 1),
    /// metres. Always equals the pair-(0,1) baseline of [`Self::array`];
    /// kept as a named field because the whole augmented-TDoA chain is
    /// parameterized on it.
    pub mic_separation: f64,
    /// The device's microphone array in the device frame. The two-mic
    /// compatibility preset ([`MicArray::two_mic`]) runs the exact
    /// pre-array pipeline; larger arrays enable the DOA front-ends and
    /// per-pair TDoA carrying.
    pub array: MicArray,
    /// Which direction-finding front-end array sessions run.
    pub doa_front_end: DoaFrontEnd,
    /// Beacon parameters.
    pub beacon: BeaconConfig,
    /// Detection parameters.
    pub detection: DetectionConfig,
    /// Whether SFO (beacon period) estimation is applied; when `false`
    /// the nominal period is used — the ablation that shows why §III's
    /// "SFO Correction" stage exists.
    pub sfo_correction: bool,
    /// Inertial-chain configuration.
    pub inertial: SessionConfig,
    /// Slide quality gate.
    pub quality_gate: QualityGate,
    /// Whether the quality gate is enforced.
    pub quality_gate_enabled: bool,
    /// Multi-slide aggregation policy.
    pub aggregation: Aggregation,
    /// Speed of sound, m/s.
    pub speed_of_sound: f64,
    /// How many stationary beacons on each side of a slide are averaged
    /// into its augmented TDoA.
    pub beacons_per_side: usize,
    /// Whether the gyro-based rotation error correction is applied to
    /// Mic2's augmented TDoA (the "Augmented TDoA with Rotation Error
    /// Corrected" stage of paper Fig. 5). Without it, in-hand yaw wobble
    /// of a few degrees moves Mic2 by D·Δsin(yaw) — comparable to the
    /// entire ranging signal at 7 m.
    pub rotation_correction: bool,
    /// Which side of the phone the speaker is on (from Speaker Direction
    /// Finding); determines the sign of the rotation correction.
    pub speaker_side: Side,
    /// Per-slide range estimates beyond this are treated as failed
    /// measurements (indoor spaces bound the plausible range).
    pub max_plausible_range: f64,
    /// Plausibility bound on the speaker's vertical offset from the slide
    /// plane, metres; regularizes the Eq. 7 projection (see
    /// [`crate::ple::project`]).
    pub max_speaker_depth: f64,
    /// Graceful-degradation policy for the monitored session entry point.
    pub degradation: DegradationPolicy,
    /// TDoA estimator bank policy: initial estimator and escalation.
    pub estimator: EstimatorPolicy,
}

impl HyperEarConfig {
    /// Configuration for a Samsung Galaxy S4 (D = 13.66 cm).
    #[must_use]
    pub fn galaxy_s4() -> Self {
        Self::for_mic_separation(devices::GALAXY_S4.mic_separation)
    }

    /// Configuration for a Samsung Galaxy Note3 (D = 15.12 cm).
    #[must_use]
    pub fn galaxy_note3() -> Self {
        Self::for_mic_separation(devices::GALAXY_NOTE3.mic_separation)
    }

    /// Configuration for a named device preset from the
    /// [`hyperear_geom::devices`] table — the multi-mic presets get
    /// their arrays and the planar DOA front-end.
    #[must_use]
    pub fn for_device(preset: devices::DevicePreset) -> Self {
        let mut c = Self::for_array(preset.array());
        if preset.mic_count > 2 {
            c.doa_front_end = DoaFrontEnd::Planar;
        }
        c
    }

    /// Configuration for an arbitrary microphone array. The primary
    /// pair (mics 0 and 1) drives the augmented-TDoA chain, so
    /// `mic_separation` is derived from its baseline.
    #[must_use]
    pub fn for_array(array: MicArray) -> Self {
        let separation = array
            .baseline(0, 1)
            .unwrap_or(devices::GALAXY_S4.mic_separation);
        HyperEarConfig {
            array,
            ..Self::for_mic_separation(separation)
        }
    }

    /// Configuration for an arbitrary two-microphone phone.
    #[must_use]
    pub fn for_mic_separation(mic_separation: f64) -> Self {
        HyperEarConfig {
            mic_separation,
            array: MicArray::two_mic(mic_separation),
            doa_front_end: DoaFrontEnd::None,
            beacon: BeaconConfig::default(),
            detection: DetectionConfig::default(),
            sfo_correction: true,
            inertial: SessionConfig::default(),
            quality_gate: QualityGate::default(),
            quality_gate_enabled: true,
            aggregation: Aggregation::default(),
            speed_of_sound: hyperear_dsp::SPEED_OF_SOUND,
            beacons_per_side: 3,
            rotation_correction: true,
            speaker_side: Side::Right,
            max_plausible_range: 30.0,
            max_speaker_depth: 2.0,
            degradation: DegradationPolicy::default(),
            estimator: EstimatorPolicy::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for any out-of-domain
    /// field.
    pub(crate) fn validate(&self) -> Result<(), HyperEarError> {
        if !(0.01..=1.0).contains(&self.mic_separation) {
            return Err(HyperEarError::invalid(
                "mic_separation",
                format!("must be within [0.01, 1] m, got {}", self.mic_separation),
            ));
        }
        self.array.validate().map_err(HyperEarError::from)?;
        let primary = self.array.baseline(0, 1).map_err(HyperEarError::from)?;
        if (primary - self.mic_separation).abs() > 1e-9 {
            return Err(HyperEarError::invalid(
                "array",
                format!(
                    "primary-pair baseline {primary} m disagrees with mic_separation {} m",
                    self.mic_separation
                ),
            ));
        }
        if self.doa_front_end == DoaFrontEnd::Planar {
            self.array.validate_planar().map_err(HyperEarError::from)?;
        }
        if !(self.beacon.f0 > 0.0 && self.beacon.f1 > self.beacon.f0) {
            return Err(HyperEarError::invalid(
                "beacon.f0/f1",
                format!(
                    "need 0 < f0 < f1, got {} / {}",
                    self.beacon.f0, self.beacon.f1
                ),
            ));
        }
        if !(self.beacon.duration > 0.0 && self.beacon.duration < self.beacon.period) {
            return Err(HyperEarError::invalid(
                "beacon.duration",
                "must be positive and below the period",
            ));
        }
        if !(0.01..=5.0).contains(&self.beacon.period) {
            return Err(HyperEarError::invalid(
                "beacon.period",
                format!("must be within [0.01, 5] s, got {}", self.beacon.period),
            ));
        }
        if self.detection.threshold_factor <= 1.0 {
            return Err(HyperEarError::invalid(
                "detection.threshold_factor",
                "must exceed 1 (peaks must stand above the noise floor)",
            ));
        }
        if !(0.0..1.0).contains(&self.detection.relative_threshold) {
            return Err(HyperEarError::invalid(
                "detection.relative_threshold",
                "must be within [0, 1)",
            ));
        }
        if !(0.1..=1.0).contains(&self.detection.min_spacing_fraction) {
            return Err(HyperEarError::invalid(
                "detection.min_spacing_fraction",
                "must be within [0.1, 1]",
            ));
        }
        if self.detection.band_pass_taps < 11 {
            return Err(HyperEarError::invalid(
                "detection.band_pass_taps",
                "need at least 11 taps",
            ));
        }
        if !(100.0..=400.0).contains(&self.speed_of_sound) {
            return Err(HyperEarError::invalid(
                "speed_of_sound",
                format!("must be within [100, 400] m/s, got {}", self.speed_of_sound),
            ));
        }
        if !(self.max_plausible_range > 0.0 && self.max_plausible_range.is_finite()) {
            return Err(HyperEarError::invalid(
                "max_plausible_range",
                format!(
                    "must be positive and finite, got {}",
                    self.max_plausible_range
                ),
            ));
        }
        if !(self.max_speaker_depth > 0.0 && self.max_speaker_depth.is_finite()) {
            return Err(HyperEarError::invalid(
                "max_speaker_depth",
                format!(
                    "must be positive and finite, got {}",
                    self.max_speaker_depth
                ),
            ));
        }
        if self.beacons_per_side == 0 {
            return Err(HyperEarError::invalid(
                "beacons_per_side",
                "must average at least one beacon per side",
            ));
        }
        self.quality_gate.validate().map_err(HyperEarError::from)?;
        self.degradation.validate()?;
        self.estimator.validate()?;
        Ok(())
    }
}

impl ToJson for HyperEarConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mic_separation", Json::Number(self.mic_separation)),
            ("array", self.array.to_json()),
            ("doa_front_end", self.doa_front_end.to_json()),
            ("beacon", self.beacon.to_json()),
            ("detection", self.detection.to_json()),
            ("sfo_correction", Json::Bool(self.sfo_correction)),
            ("inertial", self.inertial.to_json()),
            ("quality_gate", self.quality_gate.to_json()),
            (
                "quality_gate_enabled",
                Json::Bool(self.quality_gate_enabled),
            ),
            ("aggregation", self.aggregation.to_json()),
            ("speed_of_sound", Json::Number(self.speed_of_sound)),
            (
                "beacons_per_side",
                Json::Number(self.beacons_per_side as f64),
            ),
            ("rotation_correction", Json::Bool(self.rotation_correction)),
            ("speaker_side", self.speaker_side.to_json()),
            (
                "max_plausible_range",
                Json::Number(self.max_plausible_range),
            ),
            ("max_speaker_depth", Json::Number(self.max_speaker_depth)),
            ("degradation", self.degradation.to_json()),
            ("estimator", self.estimator.to_json()),
        ])
    }
}

impl FromJson for HyperEarConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(HyperEarConfig {
            mic_separation: json.field("mic_separation")?,
            array: json.field("array")?,
            doa_front_end: json.field("doa_front_end")?,
            beacon: json.field("beacon")?,
            detection: json.field("detection")?,
            sfo_correction: json.field("sfo_correction")?,
            inertial: json.field("inertial")?,
            quality_gate: json.field("quality_gate")?,
            quality_gate_enabled: json.field("quality_gate_enabled")?,
            aggregation: json.field("aggregation")?,
            speed_of_sound: json.field("speed_of_sound")?,
            beacons_per_side: json.field("beacons_per_side")?,
            rotation_correction: json.field("rotation_correction")?,
            speaker_side: json.field("speaker_side")?,
            max_plausible_range: json.field("max_plausible_range")?,
            max_speaker_depth: json.field("max_speaker_depth")?,
            degradation: json.field("degradation")?,
            estimator: json.field("estimator")?,
        })
    }
}

impl HyperEarConfig {
    /// Renders the configuration as a JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parses a configuration from a JSON document produced by
    /// [`HyperEarConfig::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns [`hyperear_util::JsonError`] on malformed JSON or a
    /// missing / mistyped field.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// One beacon's acoustic identity in a multi-beacon session: its chirp
/// band and sweep pattern. Duration and repetition period are shared
/// session-wide (they come from the base [`BeaconConfig`]) — the paper's
/// timing chain assumes one beacon cadence, and distinct bands/patterns
/// are what keep K simultaneous chirps separable at the matched filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconSignature {
    /// Lower chirp band edge, hertz.
    pub f0: f64,
    /// Upper chirp band edge, hertz.
    pub f1: f64,
    /// Frequency-sweep pattern.
    pub pattern: ChirpPattern,
}

impl Default for BeaconSignature {
    fn default() -> Self {
        BeaconSignature {
            f0: Chirp::HYPEREAR_F0,
            f1: Chirp::HYPEREAR_F1,
            pattern: ChirpPattern::UpDown,
        }
    }
}

impl ToJson for BeaconSignature {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("f0", Json::Number(self.f0)),
            ("f1", Json::Number(self.f1)),
            ("pattern", self.pattern.to_json()),
        ])
    }
}

impl FromJson for BeaconSignature {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(BeaconSignature {
            f0: json.field("f0")?,
            f1: json.field("f1")?,
            pattern: json.field("pattern")?,
        })
    }
}

/// Configuration of a K-beacon session: one shared pipeline
/// configuration plus K beacon signatures.
///
/// Each beacon runs the full single-beacon pipeline under
/// [`MultiBeaconConfig::session_config`] — the base session config with
/// that signature's band and pattern substituted — while detection
/// itself is shared through the template bank (one forward FFT per
/// block for all K beacons, see
/// [`crate::asp::MultiBeaconDetector`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBeaconConfig {
    /// The shared session configuration (device, thresholds, inertial
    /// chain, degradation policy, beacon duration/period).
    pub session: HyperEarConfig,
    /// The K beacon signatures, indexed by beacon identity.
    pub signatures: Vec<BeaconSignature>,
}

impl MultiBeaconConfig {
    /// A K-beacon configuration whose signatures tile the base beacon
    /// band with **half-overlapping** sub-bands (width `2·span/(K+1)`,
    /// hop `span/(K+1)`) and alternating up/down sweep patterns.
    ///
    /// Overlap is deliberate: a disjoint K-way partition would shrink
    /// each chirp's bandwidth `B` until the matched-filter envelope
    /// (width `1/B`) dwarfs the carrier period `1/fc`, and the peak
    /// picker starts slipping between correlation ridges — arrival
    /// times then jump by `1/fc` and the slide-aperture ranging breaks
    /// down (empirically at `fc/B ≳ 3.5`). Doubling each sub-band keeps
    /// `fc/B ≤ (K + 1.5)/2` for every beacon, while adjacent (and thus
    /// overlapping) beacons always sweep in opposite directions, which
    /// keeps their chirps quasi-orthogonal under matched filtering;
    /// same-direction beacons never share band. `K = 1` reproduces the
    /// paper's full-band up-down beacon.
    #[must_use]
    pub fn distinct_bands(session: HyperEarConfig, beacons: usize) -> Self {
        let (f0, f1) = (session.beacon.f0, session.beacon.f1);
        let hop = (f1 - f0) / (beacons.max(1) + 1) as f64;
        let signatures = (0..beacons)
            .map(|k| BeaconSignature {
                f0: f0 + k as f64 * hop,
                f1: f0 + (k + 2) as f64 * hop,
                pattern: if beacons == 1 {
                    ChirpPattern::UpDown
                } else if k.is_multiple_of(2) {
                    ChirpPattern::Up
                } else {
                    ChirpPattern::Down
                },
            })
            .collect();
        MultiBeaconConfig {
            session,
            signatures,
        }
    }

    /// Number of configured beacons.
    #[must_use]
    pub fn beacons(&self) -> usize {
        self.signatures.len()
    }

    /// The full single-beacon pipeline configuration for beacon `k`:
    /// the shared session config with the signature's band and pattern
    /// substituted into [`HyperEarConfig::beacon`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn session_config(&self, k: usize) -> HyperEarConfig {
        let sig = self.signatures[k];
        let mut config = self.session.clone();
        config.beacon.f0 = sig.f0;
        config.beacon.f1 = sig.f1;
        config.beacon.pattern = sig.pattern;
        config
    }

    /// Validates the shared session configuration and every signature
    /// (including each derived per-beacon configuration).
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an empty
    /// signature list, an out-of-domain signature band, or an invalid
    /// derived per-beacon configuration.
    pub(crate) fn validate(&self) -> Result<(), HyperEarError> {
        self.session.validate()?;
        if self.signatures.is_empty() {
            return Err(HyperEarError::invalid(
                "signatures",
                "need at least one beacon signature",
            ));
        }
        for (k, sig) in self.signatures.iter().enumerate() {
            if !(sig.f0 > 0.0 && sig.f1 > sig.f0) {
                return Err(HyperEarError::invalid(
                    "signatures",
                    format!(
                        "signature {k}: need 0 < f0 < f1, got {} / {}",
                        sig.f0, sig.f1
                    ),
                ));
            }
            self.session_config(k).validate()?;
        }
        Ok(())
    }

    /// Renders the configuration as a JSON document.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parses a configuration from a JSON document produced by
    /// [`MultiBeaconConfig::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns [`hyperear_util::JsonError`] on malformed JSON or a
    /// missing / mistyped field.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

impl ToJson for MultiBeaconConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("session", self.session.to_json()),
            (
                "signatures",
                Json::Array(self.signatures.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for MultiBeaconConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(MultiBeaconConfig {
            session: json.field("session")?,
            signatures: json.field("signatures")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(HyperEarConfig::galaxy_s4().validate().is_ok());
        assert!(HyperEarConfig::galaxy_note3().validate().is_ok());
        assert_eq!(HyperEarConfig::galaxy_s4().mic_separation, 0.1366);
        assert_eq!(HyperEarConfig::galaxy_note3().mic_separation, 0.1512);
    }

    #[test]
    fn defaults_match_paper() {
        let c = HyperEarConfig::galaxy_s4();
        assert_eq!(c.beacon.f0, 2_000.0);
        assert_eq!(c.beacon.f1, 6_400.0);
        assert_eq!(c.beacon.period, 0.2);
        assert!(c.sfo_correction);
        assert!(c.quality_gate_enabled);
        assert_eq!(c.quality_gate.min_distance, 0.5);
        assert_eq!(c.quality_gate.max_rotation_deg, 20.0);
        assert_eq!(c.aggregation, Aggregation::Median);
        assert_eq!(c.detection.interpolation, Interpolation::Parabolic);
        assert_eq!(c.speed_of_sound, 343.0);
    }

    #[test]
    fn validation_catches_each_field() {
        let base = HyperEarConfig::galaxy_s4();
        let mut c = base.clone();
        c.mic_separation = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.beacon.f1 = c.beacon.f0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.beacon.duration = 1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.beacon.period = 10.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.detection.threshold_factor = 0.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.detection.min_spacing_fraction = 0.01;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.detection.band_pass_taps = 3;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.speed_of_sound = 1_000.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.beacons_per_side = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.quality_gate.min_distance = -1.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.degradation.min_confidence = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.degradation.min_slides = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.degradation.drift_residual_tol = 0.0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.estimator.phat_floor = 1.5;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.estimator.coherence_bands = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.estimator.mcci_max_lag = 0;
        assert!(c.validate().is_err());
        // Array disagreeing with mic_separation.
        let mut c = base.clone();
        c.array = MicArray::two_mic(0.2);
        assert!(c.validate().is_err());
        // Coincident mics inside the array.
        let mut c = base.clone();
        c.array = MicArray::two_mic(0.0);
        c.mic_separation = 0.0138; // keep the scalar in-domain
        assert!(c.validate().is_err());
        // Planar front-end on a collinear (two-mic) array.
        let mut c = base;
        c.doa_front_end = DoaFrontEnd::Planar;
        assert!(c.validate().is_err());
    }

    #[test]
    fn array_presets_validate_and_derive_separation() {
        for preset in [
            devices::GALAXY_S4,
            devices::GALAXY_NOTE3,
            devices::TABLET_TRIANGLE,
            devices::SPEAKER_RECT,
        ] {
            let c = HyperEarConfig::for_device(preset);
            c.validate().unwrap();
            assert_eq!(c.mic_separation, preset.mic_separation);
            assert_eq!(c.array.len(), preset.mic_count);
            assert_eq!(
                c.doa_front_end,
                if preset.mic_count > 2 {
                    DoaFrontEnd::Planar
                } else {
                    DoaFrontEnd::None
                }
            );
        }
        // The compatibility preset is structurally the two-mic array.
        assert_eq!(HyperEarConfig::galaxy_s4().array, MicArray::two_mic(0.1366));
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut c = HyperEarConfig::galaxy_note3();
        // Flip every ablation switch away from its default so the round
        // trip cannot pass by accidentally re-materializing defaults.
        c.sfo_correction = false;
        c.quality_gate_enabled = false;
        c.rotation_correction = false;
        c.aggregation = Aggregation::Joint;
        c.detection.interpolation = Interpolation::Sinc;
        c.detection.envelope_detection = true;
        c.speaker_side = Side::Left;
        c.inertial.drift_correction = false;
        c.inertial.segmenter.threshold = 0.35;
        c.quality_gate.max_rotation_deg = 15.5;
        c.degradation.enabled = false;
        c.degradation.retry_budget = 5;
        c.degradation.min_confidence = 0.4;
        c.array = MicArray::triangle(0.1512);
        c.doa_front_end = DoaFrontEnd::PhaseTracking;
        c.estimator.initial = TdoaEstimator::GccPhat;
        c.estimator.escalation = true;
        c.estimator.phat_floor = 0.3;
        c.estimator.coherence_bands = 8;
        c.estimator.mcci_max_lag = 32;
        c.detection.band_pass = false;
        c.beacon.pattern = ChirpPattern::Down;
        let text = c.to_json_string();
        assert!(text.contains("0.1512"), "{text}");
        let back = HyperEarConfig::from_json_str(&text).unwrap();
        assert_eq!(back, c);
        // Documents written while a `precision` key existed still parse:
        // fields are read by name, so the retired key is ignored.
        let legacy = text.replacen('{', "{\"precision\":\"f64\",", 1);
        assert!(legacy.contains("\"precision\""), "{legacy}");
        assert_eq!(HyperEarConfig::from_json_str(&legacy).unwrap(), c);
    }

    #[test]
    fn json_round_trip_of_disabled_quality_gate() {
        let mut c = HyperEarConfig::galaxy_s4();
        c.quality_gate = QualityGate {
            min_distance: 0.0,
            max_rotation_deg: f64::INFINITY,
        };
        let back = HyperEarConfig::from_json_str(&c.to_json_string()).unwrap();
        assert_eq!(back, c);
        assert!(back.quality_gate.max_rotation_deg.is_infinite());
    }

    #[test]
    fn json_missing_field_names_the_field() {
        let c = HyperEarConfig::galaxy_s4();
        let text = c.to_json_string().replace("\"speed_of_sound\"", "\"sos\"");
        let err = HyperEarConfig::from_json_str(&text).unwrap_err();
        assert!(err.to_string().contains("speed_of_sound"), "{err}");
    }

    #[test]
    fn json_rejects_bad_enum_variant() {
        let c = HyperEarConfig::galaxy_s4();
        let text = c.to_json_string().replace("\"median\"", "\"average\"");
        assert!(HyperEarConfig::from_json_str(&text).is_err());
        let text = c
            .to_json_string()
            .replace("\"plain-xcorr\"", "\"fancy-xcorr\"");
        assert!(HyperEarConfig::from_json_str(&text).is_err());
    }

    #[test]
    fn chirp_pattern_json_names_are_stable() {
        for (pattern, name) in [
            (ChirpPattern::Up, "up"),
            (ChirpPattern::Down, "down"),
            (ChirpPattern::UpDown, "up-down"),
        ] {
            let text = pattern.to_json().render();
            assert_eq!(text, format!("\"{name}\""));
            let back = ChirpPattern::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, pattern);
        }
        let err = ChirpPattern::from_json(&Json::parse("\"sideways\"").unwrap()).unwrap_err();
        assert!(err.to_string().contains("chirp pattern"), "{err}");
        assert_eq!(ChirpPattern::default(), ChirpPattern::UpDown);
    }

    #[test]
    fn multi_beacon_distinct_bands_partition_the_beacon_band() {
        let session = HyperEarConfig::galaxy_s4();
        let multi = MultiBeaconConfig::distinct_bands(session.clone(), 4);
        multi.validate().unwrap();
        assert_eq!(multi.beacons(), 4);
        // Half-overlapping tiling: hop span/(K+1), width twice the hop.
        let hop = (session.beacon.f1 - session.beacon.f0) / 5.0;
        for (k, sig) in multi.signatures.iter().enumerate() {
            let f0 = session.beacon.f0 + k as f64 * hop;
            assert!((sig.f0 - f0).abs() < 1e-9, "beacon {k}: {} vs {f0}", sig.f0);
            assert!((sig.f1 - (f0 + 2.0 * hop)).abs() < 1e-9);
            // Alternating sweep directions keep the overlapping
            // neighbours quasi-orthogonal under matched filtering.
            let expect = if k.is_multiple_of(2) {
                ChirpPattern::Up
            } else {
                ChirpPattern::Down
            };
            assert_eq!(sig.pattern, expect);
        }
        // Every signature stays inside the calibrated band, and
        // same-direction beacons never overlap.
        for sig in &multi.signatures {
            assert!(sig.f0 >= session.beacon.f0 - 1e-9);
            assert!(sig.f1 <= session.beacon.f1 + 1e-9);
        }
        assert!(multi.signatures[0].f1 <= multi.signatures[2].f0 + 1e-9);
        assert!(multi.signatures[1].f1 <= multi.signatures[3].f0 + 1e-9);
        // Per-beacon sessions substitute the signature into the beacon block.
        let per = multi.session_config(2);
        assert_eq!(per.beacon.f0, multi.signatures[2].f0);
        assert_eq!(per.beacon.f1, multi.signatures[2].f1);
        assert_eq!(per.beacon.pattern, multi.signatures[2].pattern);
        // A single beacon keeps the full-band up-down chirp.
        let solo = MultiBeaconConfig::distinct_bands(session, 1);
        assert_eq!(solo.signatures[0].pattern, ChirpPattern::UpDown);
    }

    #[test]
    fn multi_beacon_json_round_trip_and_validation() {
        let mut multi = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_note3(), 3);
        multi.session.detection.band_pass_taps = 63;
        multi.signatures[1].pattern = ChirpPattern::UpDown;
        let text = multi.to_json_string();
        let back = MultiBeaconConfig::from_json_str(&text).unwrap();
        assert_eq!(back, multi);

        let mut bad = multi.clone();
        bad.signatures.clear();
        assert!(bad.validate().is_err());
        let mut bad = multi.clone();
        bad.signatures[0].f1 = bad.signatures[0].f0;
        assert!(bad.validate().is_err());
        // A broken shared session fails validation for every beacon.
        let mut bad = multi;
        bad.session.beacon.period = 10.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn estimator_escalation_ladder_is_total() {
        let mut walked = vec![TdoaEstimator::PlainXcorr];
        while let Some(next) = walked.last().unwrap().next_heavier() {
            walked.push(next);
        }
        assert_eq!(walked, TdoaEstimator::ALL.to_vec());
        assert_eq!(TdoaEstimator::McciFusion.next_heavier(), None);
        assert_eq!(TdoaEstimator::default(), TdoaEstimator::PlainXcorr);
        let p = EstimatorPolicy::default();
        assert!(!p.escalation);
        assert_eq!(p.initial, TdoaEstimator::PlainXcorr);
        p.validate().unwrap();
    }
}
