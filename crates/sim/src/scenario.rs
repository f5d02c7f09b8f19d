//! Scenario building and rendering.
//!
//! A *scenario* is one HyperEar session: a phone held in-direction near a
//! speaker, an initial stationary hold (the SFO calibration window),
//! several slides at the first stature and — for the 3D protocol — a
//! stature change followed by more slides. [`ScenarioBuilder::render`]
//! produces a [`Recording`] containing exactly what the phone would hand
//! an app: stereo 16-bit-quantized audio and raw IMU traces, plus the
//! ground truth needed to score the pipeline.

use crate::environment::Environment;
use crate::imu::{sample_imu, ImuModel, ImuTrace};
use crate::mic::{add_noise_and_quantize, apply_mic_response_with, render_clean_channel};
use crate::motion::{MotionBuilder, MotionProfile, PhoneMotion};
use crate::phone::PhoneModel;
use crate::rng::SimRng;
use crate::room::{free_field, PropagationPath};
use crate::speaker::SpeakerModel;
use crate::volunteer::Volunteer;
use crate::SimError;
use hyperear_dsp::plan::{DspScratch, PlanCache};
use hyperear_dsp::SPEED_OF_SOUND;
use hyperear_geom::{MicArray, Vec2, Vec3};
use hyperear_util::pool::Pool;

/// Reusable FFT state for repeated rendering.
///
/// Holds the plan cache and scratch arena the renderer's spectral steps
/// (currently microphone-response shaping) execute against. Harnesses
/// that render many scenarios (figure reproductions, benchmarks) should
/// hold one context per worker and call [`ScenarioBuilder::render_with`]
/// so FFT setup work is paid once.
#[derive(Debug, Clone, Default)]
pub struct RenderContext {
    plans: PlanCache,
    scratch: DspScratch,
}

impl RenderContext {
    /// An empty context; state accumulates across renders.
    #[must_use]
    pub fn new() -> Self {
        RenderContext::default()
    }
}

/// A two-channel audio recording at a nominal sample rate.
///
/// Channel 0 ("left") is Mic1, channel 1 ("right") is Mic2; Mic2 sits
/// `mic_separation` metres further along the phone's y-axis.
#[derive(Debug, Clone, PartialEq)]
pub struct StereoRecording {
    /// Nominal sample rate, hertz (the rate the app *believes* it gets;
    /// the actual ADC clock may be offset by the phone's ppm error).
    pub sample_rate: f64,
    /// Mic1 samples.
    pub left: Vec<f64>,
    /// Mic2 samples.
    pub right: Vec<f64>,
}

/// An N-channel audio recording at a nominal sample rate: one channel
/// per microphone of a [`MicArray`], in array index order.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRecording {
    /// Nominal sample rate, hertz.
    pub sample_rate: f64,
    /// Per-microphone sample streams, array index order.
    pub channels: Vec<Vec<f64>>,
}

/// A rendered N-microphone session (see
/// [`ScenarioBuilder::render_array`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayRecording {
    /// The phone that recorded the session.
    pub phone: PhoneModel,
    /// The microphone array geometry, device frame.
    pub array: MicArray,
    /// The beacon source configuration.
    pub speaker: SpeakerModel,
    /// The acoustic environment.
    pub environment: Environment,
    /// Multi-channel audio as captured (noise + quantization included).
    pub audio: MultiRecording,
    /// Raw IMU traces.
    pub imu: ImuTrace,
    /// Ground truth for scoring.
    pub truth: GroundTruth,
}

/// A concurrent co-speaker: its own beacon source sharing the air with
/// the primary speaker, placed broadside of the slide line at its own
/// range. Multi-beacon scenes give each co-speaker a distinct chirp
/// signature (see [`SpeakerModel::with_signature`]) so the pipeline's
/// template bank can tell the sources apart.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoSpeaker {
    /// The co-speaker's beacon source configuration.
    pub speaker: SpeakerModel,
    /// Horizontal distance from the slide line to this co-speaker,
    /// metres.
    pub range: f64,
}

/// Everything the simulator knows that the pipeline must *estimate*.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Speaker position, world frame.
    pub speaker_position: Vec3,
    /// Co-speaker positions, world frame, in configuration order (empty
    /// for single-beacon scenes).
    pub co_speaker_positions: Vec<Vec3>,
    /// The full true phone motion (slide windows, true distances, sway).
    pub motion: PhoneMotion,
    /// Horizontal (floor-map) perpendicular distance from the slide line
    /// to the speaker — the quantity Figs. 14–19 score against.
    pub ground_distance: f64,
    /// Slant distance from the upper slide line to the speaker (the `L1`
    /// of Section VI-B).
    pub slant_distance_upper: f64,
    /// Slant distance from the lower slide line to the speaker (`L2`),
    /// equal to `slant_distance_upper` for single-stature scenarios.
    pub slant_distance_lower: f64,
    /// True stature change between slide planes (0 for 2D scenarios).
    pub stature_drop: f64,
}

/// A rendered HyperEar session.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// The phone that recorded the session.
    pub phone: PhoneModel,
    /// The beacon source configuration.
    pub speaker: SpeakerModel,
    /// The acoustic environment.
    pub environment: Environment,
    /// Stereo audio as captured (noise + quantization included).
    pub audio: StereoRecording,
    /// Raw IMU traces.
    pub imu: ImuTrace,
    /// Ground truth for scoring.
    pub truth: GroundTruth,
}

/// Builds and renders HyperEar sessions.
///
/// # Example
///
/// ```
/// use hyperear_sim::scenario::ScenarioBuilder;
/// use hyperear_sim::phone::PhoneModel;
///
/// # fn main() -> Result<(), hyperear_sim::SimError> {
/// let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
///     .speaker_range(5.0)
///     .slides(2)
///     .seed(42)
///     .render()?;
/// assert_eq!(rec.audio.left.len(), rec.audio.right.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    phone: PhoneModel,
    speaker: SpeakerModel,
    environment: Environment,
    profile: MotionProfile,
    tremor_accel_std: f64,
    phone_stature: f64,
    speaker_stature: Option<f64>,
    speaker_range: f64,
    slides: usize,
    slides_low: usize,
    stature_drop: f64,
    slide_distance: f64,
    slide_duration: f64,
    hold_duration: f64,
    direct_path_attenuation_db: f64,
    co_speakers: Vec<CoSpeaker>,
    seed: u64,
}

impl ScenarioBuilder {
    /// Creates a builder with the paper's defaults: anechoic-quiet
    /// environment, ruler motion, 55 cm / 0.8 s slides, 5 m range, phone
    /// and speaker on the same plane (2D setup).
    #[must_use]
    pub fn new(phone: PhoneModel) -> Self {
        ScenarioBuilder {
            phone,
            speaker: SpeakerModel::new(),
            environment: Environment::room_quiet(),
            profile: MotionProfile::ruler(),
            tremor_accel_std: 0.0,
            phone_stature: 1.3,
            speaker_stature: None,
            speaker_range: 5.0,
            slides: 1,
            slides_low: 0,
            stature_drop: 0.4,
            slide_distance: 0.55,
            slide_duration: 0.8,
            hold_duration: 1.2,
            direct_path_attenuation_db: 0.0,
            co_speakers: Vec::new(),
            seed: 0,
        }
    }

    /// Sets the beacon source model.
    #[must_use]
    pub fn speaker_model(mut self, speaker: SpeakerModel) -> Self {
        self.speaker = speaker;
        self
    }

    /// Sets the acoustic environment.
    #[must_use]
    pub fn environment(mut self, environment: Environment) -> Self {
        self.environment = environment;
        self
    }

    /// Sets the motion perturbation profile (ruler or hand).
    #[must_use]
    pub fn motion_profile(mut self, profile: MotionProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Configures motion and tremor from a volunteer, holding the phone at
    /// that volunteer's natural height.
    #[must_use]
    pub fn volunteer(mut self, v: &Volunteer) -> Self {
        self.profile = v.profile;
        self.tremor_accel_std = v.tremor_accel_std;
        self.phone_stature = v.upper_slide_height();
        self
    }

    /// Sets the horizontal (floor-map) distance from the slide line to the
    /// speaker.
    #[must_use]
    pub fn speaker_range(mut self, metres: f64) -> Self {
        self.speaker_range = metres;
        self
    }

    /// Sets the speaker's height above the floor. Defaults to the phone
    /// stature (same-plane 2D setup).
    #[must_use]
    pub fn speaker_stature(mut self, metres: f64) -> Self {
        self.speaker_stature = Some(metres);
        self
    }

    /// Sets the phone's (upper) slide-plane height.
    #[must_use]
    pub fn phone_stature(mut self, metres: f64) -> Self {
        self.phone_stature = metres;
        self
    }

    /// Number of slides at the upper stature.
    #[must_use]
    pub fn slides(mut self, n: usize) -> Self {
        self.slides = n;
        self
    }

    /// Number of slides at the lower stature (0 = single-stature 2D
    /// session).
    #[must_use]
    pub fn slides_low(mut self, n: usize) -> Self {
        self.slides_low = n;
        self
    }

    /// Stature change between the two slide planes, metres.
    #[must_use]
    pub fn stature_drop(mut self, metres: f64) -> Self {
        self.stature_drop = metres;
        self
    }

    /// Commanded slide distance, metres.
    #[must_use]
    pub fn slide_distance(mut self, metres: f64) -> Self {
        self.slide_distance = metres;
        self
    }

    /// Attenuates the direct (line-of-sight) path by the given amount in
    /// dB while leaving reflections untouched — an obstruction between
    /// user and speaker (a shelf, a person, a wall edge). 0 dB = clear
    /// LoS; ≥20 dB approaches full NLoS, where the matched filter locks
    /// onto a reflection. The paper assumes LoS and defers NLoS to future
    /// work; this knob enables that study.
    #[must_use]
    pub fn direct_path_attenuation_db(mut self, db: f64) -> Self {
        self.direct_path_attenuation_db = db;
        self
    }

    /// Adds a concurrent co-speaker at its own broadside range: a second
    /// beacon source sharing the air with the primary speaker, for
    /// multi-beacon scenes. Call repeatedly for K > 2 beacons; each
    /// co-speaker gets its own emission phase (an independent RNG fork,
    /// so single-speaker seeds render bit-identically). Pair with
    /// [`SpeakerModel::with_signature`] so the sources are separable.
    #[must_use]
    pub fn co_speaker(mut self, speaker: SpeakerModel, range_m: f64) -> Self {
        self.co_speakers.push(CoSpeaker {
            speaker,
            range: range_m,
        });
        self
    }

    /// Seed for every stochastic element of the render.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Renders the session.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for inconsistent
    /// configuration (e.g. speaker outside the room, zero slides) and
    /// propagates rendering errors.
    pub fn render(&self) -> Result<Recording, SimError> {
        self.render_with(&mut RenderContext::new())
    }

    /// Renders this scenario at each of `seeds` across a pool, one
    /// [`RenderContext`] (FFT plans + scratch) pinned per pool
    /// participant. Output slot `i` always holds seed `i`'s recording —
    /// bit-identical to rendering the seeds sequentially, regardless of
    /// thread count or schedule, because a render depends only on the
    /// builder and the seed, never on what a context rendered before.
    ///
    /// This is the sweep entry point: figure reproductions and
    /// benchmarks that render hundreds of seeded sessions go through
    /// here rather than looping over [`ScenarioBuilder::render`].
    pub fn render_seeds(&self, seeds: &[u64], pool: &Pool) -> Vec<Result<Recording, SimError>> {
        pool.parallel_map_with(seeds.len(), RenderContext::new, |ctx, i| {
            self.clone().seed(seeds[i]).render_with(ctx)
        })
    }

    /// Renders the session, reusing the FFT plans and scratch buffers in
    /// `ctx`. Identical output to [`ScenarioBuilder::render`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScenarioBuilder::render`].
    pub fn render_with(&self, ctx: &mut RenderContext) -> Result<Recording, SimError> {
        let mut rng = SimRng::seed_from(self.seed);
        let mut motion_rng = rng.fork("motion");
        let mut imu_rng = rng.fork("imu");
        let mut noise_rng_l = rng.fork("noise-left");
        let mut noise_rng_r = rng.fork("noise-right");
        let mut phase_rng = rng.fork("phase");
        // Co-speaker phase forks come after the stereo five, so
        // single-speaker scenes are untouched by this feature existing.
        let mut co_phase_rngs: Vec<SimRng> = (0..self.co_speakers.len())
            .map(|k| rng.fork(&format!("phase-co{k}")))
            .collect();
        let scene = self.prepare(ctx, &mut motion_rng, &mut phase_rng, &mut co_phase_rngs)?;
        let fs_nominal = self.phone.audio_sample_rate;
        let clean_left = scene.clean_channel(&|t| scene.motion.mic1_position(t))?;
        let clean_right = scene.clean_channel(&|t| scene.motion.mic2_position(t))?;
        let left = add_noise_and_quantize(
            &clean_left,
            self.environment.noise,
            self.environment.snr_db,
            fs_nominal,
            &mut noise_rng_l,
        )?;
        let right = add_noise_and_quantize(
            &clean_right,
            self.environment.noise,
            self.environment.snr_db,
            fs_nominal,
            &mut noise_rng_r,
        )?;
        let imu_model = ImuModel::phone_grade().with_tremor(self.tremor_accel_std);
        let imu = sample_imu(
            &scene.motion,
            &imu_model,
            self.phone.imu_sample_rate,
            &mut imu_rng,
        )?;
        let truth = self.ground_truth(scene.speaker_position, scene.co_positions, scene.motion);
        Ok(Recording {
            phone: self.phone.clone(),
            speaker: self.speaker.clone(),
            environment: self.environment.clone(),
            audio: StereoRecording {
                sample_rate: fs_nominal,
                left,
                right,
            },
            imu,
            truth,
        })
    }

    /// Renders the session captured by an N-microphone [`MicArray`]
    /// instead of the phone's stereo pair.
    ///
    /// The array's primary pair must match the phone: mic 0 at the
    /// device origin, mic 1 at `(0, mic_separation)` on device +y (the
    /// slide axis). Channels 0 and 1 are then **bit-identical** to the
    /// `left`/`right` of [`ScenarioBuilder::render`] at the same seed —
    /// same mic trajectories, same noise streams — so the two-mic
    /// compatibility contract extends through the simulator. Extra
    /// microphones ride rigidly at their device-frame offsets (device
    /// +x points toward the speaker side) with independent noise.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for an array that fails
    /// [`MicArray::validate`] or whose primary pair disagrees with the
    /// phone, plus the conditions of [`ScenarioBuilder::render`].
    pub fn render_array(&self, array: &MicArray) -> Result<ArrayRecording, SimError> {
        self.render_array_with(array, &mut RenderContext::new())
    }

    /// [`ScenarioBuilder::render_array`] against a reusable
    /// [`RenderContext`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScenarioBuilder::render_array`].
    pub(crate) fn render_array_with(
        &self,
        array: &MicArray,
        ctx: &mut RenderContext,
    ) -> Result<ArrayRecording, SimError> {
        array
            .validate()
            .map_err(|e| SimError::invalid("array", e.to_string()))?;
        let p0 = array.position(0).expect("validated array has mic 0");
        let p1 = array.position(1).expect("validated array has mic 1");
        if p0.x != 0.0
            || p0.y != 0.0
            || p1.x != 0.0
            || (p1.y - self.phone.mic_separation).abs() > 1e-9
        {
            return Err(SimError::invalid(
                "array",
                format!(
                    "primary pair must sit at (0, 0) and (0, {}) to match the phone's \
                     mic separation, got ({}, {}) and ({}, {})",
                    self.phone.mic_separation, p0.x, p0.y, p1.x, p1.y
                ),
            ));
        }
        let mut rng = SimRng::seed_from(self.seed);
        let mut motion_rng = rng.fork("motion");
        let mut imu_rng = rng.fork("imu");
        let mut noise_rng_l = rng.fork("noise-left");
        let mut noise_rng_r = rng.fork("noise-right");
        let mut phase_rng = rng.fork("phase");
        // Co-speaker phase forks come after the stereo five — the same
        // order as the stereo path, so a multi-beacon array render's
        // channels 0/1 still match the stereo render bit for bit.
        let mut co_phase_rngs: Vec<SimRng> = (0..self.co_speakers.len())
            .map(|k| rng.fork(&format!("phase-co{k}")))
            .collect();
        // Extra-channel noise forks come last, so the earlier streams —
        // and with them channels 0/1 — match the stereo render bit for
        // bit.
        let mut extra_rngs: Vec<SimRng> = (2..array.len())
            .map(|k| rng.fork(&format!("noise-ch{k}")))
            .collect();
        let scene = self.prepare(ctx, &mut motion_rng, &mut phase_rng, &mut co_phase_rngs)?;
        let fs_nominal = self.phone.audio_sample_rate;
        let mut channels = Vec::with_capacity(array.len());
        for k in 0..array.len() {
            let clean = match k {
                0 => scene.clean_channel(&|t| scene.motion.mic1_position(t))?,
                1 => scene.clean_channel(&|t| scene.motion.mic2_position(t))?,
                _ => {
                    let offset = array.position(k).expect("validated index");
                    scene.clean_channel(&|t| scene.motion.device_position(t, offset))?
                }
            };
            let noise_rng = match k {
                0 => &mut noise_rng_l,
                1 => &mut noise_rng_r,
                _ => &mut extra_rngs[k - 2],
            };
            channels.push(add_noise_and_quantize(
                &clean,
                self.environment.noise,
                self.environment.snr_db,
                fs_nominal,
                noise_rng,
            )?);
        }
        let imu_model = ImuModel::phone_grade().with_tremor(self.tremor_accel_std);
        let imu = sample_imu(
            &scene.motion,
            &imu_model,
            self.phone.imu_sample_rate,
            &mut imu_rng,
        )?;
        let truth = self.ground_truth(scene.speaker_position, scene.co_positions, scene.motion);
        Ok(ArrayRecording {
            phone: self.phone.clone(),
            array: *array,
            speaker: self.speaker.clone(),
            environment: self.environment.clone(),
            audio: MultiRecording {
                sample_rate: fs_nominal,
                channels,
            },
            imu,
            truth,
        })
    }

    /// Validates the builder and renders everything a channel render
    /// needs — geometry, motion, propagation paths, the mic-shaped
    /// beacon and its emission schedule. Shared by the stereo and array
    /// paths so both produce identical scenes from identical RNG forks.
    fn prepare(
        &self,
        ctx: &mut RenderContext,
        motion_rng: &mut SimRng,
        phase_rng: &mut SimRng,
        co_phase_rngs: &mut [SimRng],
    ) -> Result<PreparedScene, SimError> {
        self.phone.validate()?;
        self.speaker.validate(self.phone.audio_sample_rate)?;
        self.environment.validate()?;
        if !(0.2..=30.0).contains(&self.speaker_range) {
            return Err(SimError::invalid(
                "speaker_range",
                format!("must be within [0.2, 30] m, got {}", self.speaker_range),
            ));
        }
        debug_assert_eq!(co_phase_rngs.len(), self.co_speakers.len());
        for (k, co) in self.co_speakers.iter().enumerate() {
            co.speaker.validate(self.phone.audio_sample_rate)?;
            if !(0.2..=30.0).contains(&co.range) {
                return Err(SimError::invalid(
                    "co_speakers",
                    format!(
                        "co-speaker {k} range must be within [0.2, 30] m, got {}",
                        co.range
                    ),
                ));
            }
        }

        // ---- Geometry: place the slide line and the speaker. -----------
        // The slide axis is world +x. Place the assembly so everything
        // fits inside the room (or near the origin in free field).
        let (line_start, speaker_y_origin) = match &self.environment.room {
            Some(room) => {
                let x0 = (room.size.x / 2.0 - 2.0).max(0.5);
                (Vec3::new(x0, 2.0, self.phone_stature), 2.0)
            }
            None => (Vec3::new(0.0, 0.0, self.phone_stature), 0.0),
        };
        let speaker_stature = self.speaker_stature.unwrap_or(self.phone_stature);
        // In-direction placement: speaker broadside of the mic pair at the
        // slide's midpoint.
        let speaker_position = Vec3::new(
            line_start.x + self.slide_distance / 2.0 + self.phone.mic_separation / 2.0,
            speaker_y_origin + self.speaker_range,
            speaker_stature,
        );
        if let Some(room) = &self.environment.room {
            room.validate_point(speaker_position, "speaker_position")?;
            room.validate_point(line_start, "phone start")?;
        }
        // Co-speakers sit broadside of the slide line like the primary,
        // each at its own range and stature.
        let co_positions: Vec<Vec3> = self
            .co_speakers
            .iter()
            .map(|co| {
                Vec3::new(
                    speaker_position.x,
                    speaker_y_origin + co.range,
                    speaker_stature,
                )
            })
            .collect();
        if let Some(room) = &self.environment.room {
            for p in &co_positions {
                room.validate_point(*p, "co_speaker position")?;
            }
        }

        // ---- Motion. ----------------------------------------------------
        let motion =
            MotionBuilder::new(line_start, Vec2::new(1.0, 0.0), self.phone.mic_separation)?
                .profile(self.profile)
                .hold_duration(self.hold_duration)
                .slide_distance(self.slide_distance)
                .slide_duration(self.slide_duration)
                .build(self.slides, self.stature_drop, self.slides_low, motion_rng)?;

        // ---- Acoustics. --------------------------------------------------
        if !(self.direct_path_attenuation_db >= 0.0 && self.direct_path_attenuation_db.is_finite())
        {
            return Err(SimError::invalid(
                "direct_path_attenuation_db",
                format!(
                    "must be non-negative, got {}",
                    self.direct_path_attenuation_db
                ),
            ));
        }
        // The primary source first (same RNG draw order as ever), then
        // each co-speaker against its own phase fork. The obstruction
        // knob models something between the *user* and the primary
        // speaker, so it attenuates the primary's direct path only.
        let mut sources = Vec::with_capacity(1 + self.co_speakers.len());
        sources.push(self.source_scene(
            &self.speaker,
            speaker_position,
            self.direct_path_attenuation_db,
            motion.total_duration,
            ctx,
            phase_rng,
        )?);
        for ((co, position), rng) in self
            .co_speakers
            .iter()
            .zip(&co_positions)
            .zip(co_phase_rngs.iter_mut())
        {
            sources.push(self.source_scene(
                &co.speaker,
                *position,
                0.0,
                motion.total_duration,
                ctx,
                rng,
            )?);
        }
        let fs_effective = self.phone.effective_sample_rate();
        let out_len = (motion.total_duration * self.phone.audio_sample_rate).ceil() as usize;
        Ok(PreparedScene {
            speaker_position,
            co_positions,
            motion,
            sources,
            fs_effective,
            out_len,
        })
    }

    /// Renders one source's acoustics: its image-source (or free-field)
    /// propagation paths, the mic-shaped beacon waveform, and the
    /// emission schedule drawn from `phase_rng`.
    fn source_scene(
        &self,
        speaker: &SpeakerModel,
        position: Vec3,
        direct_attenuation_db: f64,
        total_duration: f64,
        ctx: &mut RenderContext,
        phase_rng: &mut SimRng,
    ) -> Result<SourceScene, SimError> {
        let mut paths: Vec<PropagationPath> = match &self.environment.room {
            Some(room) => room.image_sources(position)?,
            None => free_field(position),
        };
        if direct_attenuation_db > 0.0 {
            let k = 10f64.powf(-direct_attenuation_db / 20.0);
            for p in &mut paths {
                if p.order == 0 {
                    p.gain *= k;
                }
            }
        }
        let chirp = speaker.reference_chirp(self.phone.audio_sample_rate)?;
        // Pre-distort the beacon by the microphone's frequency response
        // (flat for the audible beacon; droops for near-ultrasonic ones).
        let chirp_samples = apply_mic_response_with(
            chirp.samples(),
            &|f| self.phone.mic_gain_at(f),
            self.phone.audio_sample_rate,
            &mut ctx.plans,
            &mut ctx.scratch,
        )?;
        let phase = phase_rng.uniform_in(0.0, speaker.period);
        let n_beacons = speaker.beacons_within(total_duration) + 1;
        let emissions: Vec<f64> = (0..n_beacons)
            .map(|k| phase + speaker.emission_time(k))
            .filter(|&t| t + speaker.chirp_duration < total_duration)
            .collect();
        if emissions.is_empty() {
            return Err(SimError::invalid(
                "duration",
                "session too short to contain a single beacon",
            ));
        }
        Ok(SourceScene {
            paths,
            chirp_samples,
            emissions,
            amplitude: speaker.amplitude_at_1m,
        })
    }

    /// The ground truth for a prepared scene (consumes the motion).
    fn ground_truth(
        &self,
        speaker_position: Vec3,
        co_speaker_positions: Vec<Vec3>,
        motion: PhoneMotion,
    ) -> GroundTruth {
        let dz_upper = speaker_position.z - self.phone_stature;
        let dz_lower = speaker_position.z - (self.phone_stature - self.stature_drop);
        let ground = self.speaker_range;
        GroundTruth {
            speaker_position,
            co_speaker_positions,
            motion,
            ground_distance: ground,
            slant_distance_upper: (ground * ground + dz_upper * dz_upper).sqrt(),
            slant_distance_lower: if self.slides_low > 0 {
                (ground * ground + dz_lower * dz_lower).sqrt()
            } else {
                (ground * ground + dz_upper * dz_upper).sqrt()
            },
            stature_drop: if self.slides_low > 0 {
                self.stature_drop
            } else {
                0.0
            },
        }
    }
}

/// One source's share of a prepared scene: propagation paths, the
/// mic-shaped beacon waveform, and the emission schedule.
struct SourceScene {
    paths: Vec<PropagationPath>,
    chirp_samples: Vec<f64>,
    emissions: Vec<f64>,
    amplitude: f64,
}

/// Everything a channel render needs, prepared once per scenario and
/// shared by the stereo and array paths. `sources[0]` is the primary
/// speaker; any co-speakers follow in configuration order.
struct PreparedScene {
    speaker_position: Vec3,
    co_positions: Vec<Vec3>,
    motion: PhoneMotion,
    sources: Vec<SourceScene>,
    fs_effective: f64,
    out_len: usize,
}

impl PreparedScene {
    /// Renders one clean (noise-free, unquantized) channel for a
    /// microphone trajectory: every source's contribution summed at the
    /// mic. Single-source scenes take the first render verbatim, so
    /// existing seeds are bit-identical to the pre-co-speaker renderer.
    fn clean_channel(&self, mic: &dyn Fn(f64) -> Vec3) -> Result<Vec<f64>, SimError> {
        let mut out: Option<Vec<f64>> = None;
        for source in &self.sources {
            let contribution = render_clean_channel(
                &source.chirp_samples,
                &source.emissions,
                &source.paths,
                mic,
                self.fs_effective,
                SPEED_OF_SOUND,
                source.amplitude,
                self.out_len,
            )?;
            match &mut out {
                None => out = Some(contribution),
                Some(acc) => {
                    for (a, c) in acc.iter_mut().zip(&contribution) {
                        *a += c;
                    }
                }
            }
        }
        Ok(out.expect("prepared scene always holds the primary source"))
    }
}

/// One point of a Fig. 7 rotation sweep: the phone's roll angle α and the
/// TDoA its microphone pair would measure there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotationSample {
    /// The roll angle α between the speaker direction and the phone's +y
    /// axis, degrees.
    pub alpha_degrees: f64,
    /// The measured TDoA in milliseconds, quantized to the ADC grid with
    /// detection jitter.
    pub tdoa_ms: f64,
}

/// Simulates rolling the phone through `steps` evenly spaced α angles with
/// the speaker `range` metres away (paper Figs. 6–7).
///
/// TDoAs come from exact near-field geometry, quantized to the sampling
/// grid with sub-sample detection jitter of `jitter_samples` (0.1–0.3 is
/// realistic at the paper's SNRs; 0 gives the clean staircase).
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for non-positive range/steps or
/// negative jitter.
pub fn rotation_sweep(
    phone: &PhoneModel,
    range: f64,
    steps: usize,
    jitter_samples: f64,
    seed: u64,
) -> Result<Vec<RotationSample>, SimError> {
    phone.validate()?;
    if range <= 0.0 {
        return Err(SimError::invalid("range", "must be positive"));
    }
    if steps < 4 {
        return Err(SimError::invalid("steps", "need at least 4 steps"));
    }
    if !(jitter_samples >= 0.0 && jitter_samples.is_finite()) {
        return Err(SimError::invalid("jitter_samples", "must be non-negative"));
    }
    let mut rng = SimRng::seed_from(seed);
    let speaker = Vec2::new(0.0, range); // fixed in world frame
    let half = phone.mic_separation / 2.0;
    let fs = phone.audio_sample_rate;
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps {
        let alpha = 360.0 * k as f64 / steps as f64;
        // α is the angle between the speaker direction (world +y) and the
        // phone's +y axis: rotate the phone by −α to express its y axis.
        let phone_y = Vec2::new(0.0, 1.0).rotated(-alpha.to_radians());
        let mic1 = phone_y * half;
        let mic2 = phone_y * (-half);
        let dd = speaker.distance(mic1) - speaker.distance(mic2);
        let tdoa_samples = dd / SPEED_OF_SOUND * fs;
        let quantized = (tdoa_samples + rng.gaussian(0.0, jitter_samples)).round();
        out.push(RotationSample {
            alpha_degrees: alpha,
            tdoa_ms: quantized / fs * 1_000.0,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_builder() -> ScenarioBuilder {
        let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_range(3.0)
            .slides(1)
            .seed(1);
        builder.hold_duration = 0.8;
        builder
    }

    #[test]
    fn render_seeds_matches_sequential_rendering() {
        let builder = quick_builder();
        let seeds = [11u64, 12, 13];
        let sequential: Vec<Recording> = seeds
            .iter()
            .map(|&s| builder.clone().seed(s).render().unwrap())
            .collect();
        for threads in [1, 3] {
            let pool = Pool::new(threads);
            let parallel: Vec<Recording> = builder
                .render_seeds(&seeds, &pool)
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn render_produces_consistent_shapes() {
        let rec = quick_builder().render().unwrap();
        assert_eq!(rec.audio.left.len(), rec.audio.right.len());
        let expected_len =
            (rec.truth.motion.total_duration * rec.audio.sample_rate).ceil() as usize;
        assert_eq!(rec.audio.left.len(), expected_len);
        let imu_expected = (rec.truth.motion.total_duration * 100.0).ceil() as usize;
        assert_eq!(rec.imu.accel.len(), imu_expected);
    }

    #[test]
    fn ground_truth_geometry() {
        let rec = quick_builder().render().unwrap();
        assert_eq!(rec.truth.ground_distance, 3.0);
        // Same-plane 2D setup: slant equals ground distance.
        assert!((rec.truth.slant_distance_upper - 3.0).abs() < 1e-12);
        assert_eq!(rec.truth.stature_drop, 0.0);
    }

    #[test]
    fn three_d_setup_has_different_slants() {
        let rec = quick_builder()
            .speaker_stature(0.5)
            .phone_stature(1.3)
            .slides(1)
            .slides_low(1)
            .stature_drop(0.4)
            .render()
            .unwrap();
        assert!(rec.truth.slant_distance_upper > rec.truth.ground_distance);
        assert!(rec.truth.slant_distance_lower < rec.truth.slant_distance_upper);
        assert_eq!(rec.truth.stature_drop, 0.4);
        assert_eq!(rec.truth.motion.stature_changes.len(), 1);
    }

    #[test]
    fn audio_contains_beacons() {
        let rec = quick_builder().render().unwrap();
        let peak = rec.audio.left.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(peak > 0.01, "peak {peak}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a = quick_builder().render().unwrap();
        let b = quick_builder().render().unwrap();
        assert_eq!(a.audio.left, b.audio.left);
        assert_eq!(a.imu.accel, b.imu.accel);
        let c = quick_builder().seed(2).render().unwrap();
        assert_ne!(a.audio.left, c.audio.left);
    }

    #[test]
    fn room_containment_is_checked() {
        // 29 m range inside the 13 m-deep meeting room must fail.
        let result = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(29.9)
            .render();
        assert!(result.is_err());
    }

    #[test]
    fn range_bounds_are_checked() {
        assert!(quick_builder().speaker_range(0.0).render().is_err());
        assert!(quick_builder().speaker_range(100.0).render().is_err());
    }

    #[test]
    fn rotation_sweep_crosses_zero_at_90_and_270() {
        let sweep = rotation_sweep(&PhoneModel::galaxy_s4(), 5.0, 360, 0.0, 1).unwrap();
        assert_eq!(sweep.len(), 360);
        let at = |deg: usize| sweep[deg].tdoa_ms;
        assert!(at(90).abs() < 0.03, "tdoa at 90° = {}", at(90));
        assert!(at(270).abs() < 0.03, "tdoa at 270° = {}", at(270));
        // Extremes at 0° and 180°, approx ±D/S.
        let extreme = 0.1366 / SPEED_OF_SOUND * 1_000.0;
        assert!((at(0).abs() - extreme).abs() < 0.05, "at 0°: {}", at(0));
        assert!((at(180).abs() - extreme).abs() < 0.05);
        assert!(at(0) * at(180) < 0.0, "opposite signs at 0° and 180°");
    }

    #[test]
    fn rotation_sweep_rejects_bad_parameters() {
        let phone = PhoneModel::galaxy_s4();
        assert!(rotation_sweep(&phone, 0.0, 360, 0.0, 1).is_err());
        assert!(rotation_sweep(&phone, 5.0, 2, 0.0, 1).is_err());
        assert!(rotation_sweep(&phone, 5.0, 360, -1.0, 1).is_err());
    }

    #[test]
    fn obstruction_attenuates_only_the_direct_path() {
        // Render the same room scenario with and without a deep
        // obstruction; the obstructed peak must be far weaker even though
        // reflections are untouched.
        let clear = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(3.0)
            .slides(1)
            .seed(61)
            .render()
            .unwrap();
        let blocked = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(3.0)
            .slides(1)
            .direct_path_attenuation_db(30.0)
            .seed(61)
            .render()
            .unwrap();
        let peak = |x: &[f64]| x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let p_clear = peak(&clear.audio.left);
        let p_blocked = peak(&blocked.audio.left);
        // Reflections keep the blocked level well above -30 dB of clear.
        assert!(p_blocked < 0.7 * p_clear, "{p_blocked} vs {p_clear}");
        assert!(p_blocked > 0.02 * p_clear, "{p_blocked} vs {p_clear}");
        // Negative attenuation is rejected.
        assert!(ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .direct_path_attenuation_db(-3.0)
            .slides(1)
            .render()
            .is_err());
    }

    #[test]
    fn co_speaker_adds_a_second_source_without_touching_the_rest() {
        let solo = quick_builder().render().unwrap();
        let duet = quick_builder()
            .co_speaker(SpeakerModel::new().with_signature(1, 2), 4.0)
            .render()
            .unwrap();
        // Motion, IMU and noise draw from forks taken before the
        // co-speaker phase fork, so only the audio gains energy.
        assert_eq!(duet.imu, solo.imu);
        assert_eq!(duet.truth.motion, solo.truth.motion);
        assert_eq!(duet.audio.left.len(), solo.audio.left.len());
        assert_ne!(duet.audio.left, solo.audio.left);
        let energy = |s: &[f64]| s.iter().map(|v| v * v).sum::<f64>();
        assert!(energy(&duet.audio.left) > energy(&solo.audio.left));
        // Ground truth records where the co-speaker sits: broadside like
        // the primary, at its own range (anechoic ⇒ y origin 0).
        assert_eq!(duet.truth.co_speaker_positions.len(), 1);
        let co = duet.truth.co_speaker_positions[0];
        assert_eq!(co.x, duet.truth.speaker_position.x);
        assert!((co.y - 4.0).abs() < 1e-12);
        assert_eq!(co.z, duet.truth.speaker_position.z);
        assert!(solo.truth.co_speaker_positions.is_empty());
    }

    #[test]
    fn co_speaker_renders_are_deterministic_and_seed_sensitive() {
        let build = || {
            quick_builder()
                .co_speaker(SpeakerModel::new().with_signature(1, 3), 2.0)
                .co_speaker(SpeakerModel::new().with_signature(2, 3), 5.0)
        };
        let a = build().render().unwrap();
        let b = build().render().unwrap();
        assert_eq!(a, b);
        let c = build().seed(2).render().unwrap();
        assert_ne!(a.audio.left, c.audio.left);
        assert_eq!(a.truth.co_speaker_positions.len(), 2);
    }

    #[test]
    fn array_channels_still_match_stereo_with_co_speakers() {
        let builder = quick_builder().co_speaker(SpeakerModel::new().with_signature(1, 2), 3.5);
        let stereo = builder.render().unwrap();
        let array = builder
            .render_array(&MicArray::two_mic(PhoneModel::galaxy_s4().mic_separation))
            .unwrap();
        // The co-speaker phase fork sits before the extra-channel noise
        // forks in both paths, so the stereo compatibility contract
        // survives multi-beacon scenes.
        assert_eq!(array.audio.channels[0], stereo.audio.left);
        assert_eq!(array.audio.channels[1], stereo.audio.right);
    }

    #[test]
    fn co_speaker_configuration_is_validated() {
        assert!(quick_builder()
            .co_speaker(SpeakerModel::new(), 0.0)
            .render()
            .is_err());
        let mut bad = SpeakerModel::new();
        bad.chirp_f0 = 0.0;
        assert!(quick_builder().co_speaker(bad, 3.0).render().is_err());
        // Inside a room, a co-speaker must also fit in the room.
        assert!(ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::room_quiet())
            .speaker_range(3.0)
            .slides(1)
            .co_speaker(SpeakerModel::new(), 29.9)
            .render()
            .is_err());
    }

    #[test]
    fn inaudible_beacon_renders_in_high_band() {
        use crate::speaker::SpeakerModel;
        use hyperear_dsp::spectrum::band_energy_fraction;
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_model(SpeakerModel::inaudible())
            .speaker_range(2.0)
            .slides(1)
            .seed(62)
            .render()
            .unwrap();
        // Find an active window and check its band.
        let fs = rec.audio.sample_rate;
        let win = (0.06 * fs) as usize;
        let (mut best, mut best_e) = (0usize, 0.0f64);
        let mut i = 0;
        while i + win < rec.audio.left.len() {
            let e: f64 = rec.audio.left[i..i + win].iter().map(|x| x * x).sum();
            if e > best_e {
                best_e = e;
                best = i;
            }
            i += win / 2;
        }
        let frac = band_energy_fraction(&rec.audio.left[best..best + win], fs, 15_000.0, 20_500.0)
            .unwrap();
        assert!(frac > 0.6, "high-band fraction {frac}");
    }

    #[test]
    fn array_render_first_two_channels_match_stereo_exactly() {
        let stereo = quick_builder().render().unwrap();
        let array = MicArray::triangle(PhoneModel::galaxy_s4().mic_separation);
        let rec = quick_builder().render_array(&array).unwrap();
        assert_eq!(rec.audio.channels.len(), 3);
        assert_eq!(rec.audio.channels[0], stereo.audio.left);
        assert_eq!(rec.audio.channels[1], stereo.audio.right);
        assert_eq!(rec.imu, stereo.imu);
        assert_eq!(rec.truth, stereo.truth);
        // The apex channel is a real third capture, not a copy.
        assert_eq!(rec.audio.channels[2].len(), stereo.audio.left.len());
        assert_ne!(rec.audio.channels[2], rec.audio.channels[0]);
        assert_ne!(rec.audio.channels[2], rec.audio.channels[1]);
    }

    #[test]
    fn array_render_rejects_mismatched_primary_pair() {
        // Triangle sized for the Note3 under an S4 phone: primary
        // baseline disagrees with the phone's mic separation.
        let err = quick_builder()
            .render_array(&MicArray::triangle(0.1512))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }), "{err}");
    }

    #[test]
    fn two_mic_array_render_is_the_stereo_render() {
        let stereo = quick_builder().render().unwrap();
        let rec = quick_builder()
            .render_array(&MicArray::two_mic(PhoneModel::galaxy_s4().mic_separation))
            .unwrap();
        assert_eq!(rec.audio.channels.len(), 2);
        assert_eq!(rec.audio.channels[0], stereo.audio.left);
        assert_eq!(rec.audio.channels[1], stereo.audio.right);
    }

    #[test]
    fn volunteer_configures_stature_and_profile() {
        let v = crate::volunteer::roster()[0].clone();
        let rec = quick_builder().volunteer(&v).render().unwrap();
        assert!((rec.truth.motion.origin.z - v.upper_slide_height()).abs() < 1e-12);
    }
}
