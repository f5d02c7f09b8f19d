//! Session runners and parallel trial execution.
//!
//! Every figure experiment reduces to: render N seeded sessions through
//! the simulator, run the HyperEar pipeline on each, and score the
//! estimates against ground truth. This module owns that loop, including
//! the ground-truth geometry (expressing the simulator's world-frame
//! truth in the pipeline's slide frame) and a parallel map over seeds
//! that runs on the process-wide work-stealing
//! [`Pool`](hyperear_util::pool::Pool) — one warm worker state per pool
//! participant, output slot `i` always holding seed `i`'s result.

use hyperear::config::HyperEarConfig;
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome, SessionResult};
use hyperear::HyperEarError;
use hyperear_geom::Vec2;
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{FaultLog, FaultPlan};
use hyperear_sim::motion::MotionProfile;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, RenderContext, ScenarioBuilder};
use hyperear_sim::speaker::SpeakerModel;
use hyperear_sim::volunteer::{roster, Volunteer};

/// Per-worker reusable state for trial execution: the pipeline's
/// [`SessionEngine`] (cached matched filter, FFT plans, scratch) and the
/// simulator's [`RenderContext`].
///
/// A worker is implicitly tied to one [`SessionSpec`]: the engine is
/// built from the first spec it runs and reused afterwards, so do not
/// share one worker across specs with different pipeline configurations.
#[derive(Debug, Default)]
pub(crate) struct TrialWorker {
    engine: Option<SessionEngine>,
    render_ctx: RenderContext,
}

impl TrialWorker {
    /// A fresh worker; engine and plans materialize on first use.
    #[must_use]
    pub(crate) fn new() -> Self {
        TrialWorker::default()
    }
}

/// Hand-motion mode of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Motion {
    /// The level slide ruler of §VII-B (near-ideal motion).
    Ruler,
    /// In-hand operation by the ten-volunteer roster, cycling by seed.
    Volunteers,
}

/// Specification of one experiment condition.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Phone preset.
    pub phone: PhoneModel,
    /// Pipeline configuration (usually the matching phone preset).
    pub config: HyperEarConfig,
    /// Acoustic environment.
    pub environment: Environment,
    /// Motion mode.
    pub motion: Motion,
    /// Horizontal ground distance to the speaker, metres.
    pub range: f64,
    /// Speaker height above the floor; `None` = same plane as the phone.
    pub speaker_stature: Option<f64>,
    /// Slides per stature.
    pub slides: usize,
    /// Commanded slide distance, metres.
    pub slide_distance: f64,
    /// Whether to run the two-stature 3D protocol.
    pub three_d: bool,
    /// Stature drop for 3D sessions, metres.
    pub stature_drop: f64,
    /// Beacon source override (`None` = the paper's audible chirp).
    pub speaker: Option<SpeakerModel>,
    /// Direct-path attenuation in dB (0 = clear line of sight).
    pub direct_path_attenuation_db: f64,
}

impl SessionSpec {
    /// A ruler-mounted 2D condition on the given phone.
    #[must_use]
    pub fn ruler_2d(phone: PhoneModel, config: HyperEarConfig, range: f64) -> Self {
        SessionSpec {
            phone,
            config,
            environment: Environment::room_quiet(),
            motion: Motion::Ruler,
            range,
            speaker_stature: None,
            slides: 5,
            slide_distance: 0.55,
            three_d: false,
            stature_drop: 0.4,
            speaker: None,
            direct_path_attenuation_db: 0.0,
        }
    }

    /// An in-hand 3D condition on the given phone.
    #[must_use]
    pub fn hand_3d(phone: PhoneModel, config: HyperEarConfig, range: f64) -> Self {
        SessionSpec {
            phone,
            config,
            environment: Environment::room_quiet(),
            motion: Motion::Volunteers,
            range,
            speaker_stature: Some(0.5),
            slides: 5,
            slide_distance: 0.55,
            three_d: true,
            stature_drop: 0.4,
            speaker: None,
            direct_path_attenuation_db: 0.0,
        }
    }

    fn volunteer_for(&self, seed: u64) -> Option<Volunteer> {
        match self.motion {
            Motion::Ruler => None,
            Motion::Volunteers => {
                let r = roster();
                Some(r[(seed as usize) % r.len()].clone())
            }
        }
    }

    /// Renders the session for one seed.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn render(&self, seed: u64) -> Result<Recording, hyperear_sim::SimError> {
        self.render_with(seed, &mut RenderContext::new())
    }

    /// Renders the session for one seed, reusing the FFT state in `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn render_with(
        &self,
        seed: u64,
        ctx: &mut RenderContext,
    ) -> Result<Recording, hyperear_sim::SimError> {
        let mut builder = ScenarioBuilder::new(self.phone.clone())
            .environment(self.environment.clone())
            .speaker_range(self.range)
            .slides(self.slides)
            .slide_distance(self.slide_distance)
            .direct_path_attenuation_db(self.direct_path_attenuation_db)
            .seed(seed);
        if let Some(speaker) = &self.speaker {
            builder = builder.speaker_model(speaker.clone());
        }
        if let Some(v) = self.volunteer_for(seed) {
            builder = builder.volunteer(&v);
        } else {
            builder = builder.motion_profile(MotionProfile::ruler());
        }
        if let Some(s) = self.speaker_stature {
            builder = builder.speaker_stature(s);
        }
        if self.three_d {
            builder = builder
                .slides_low(self.slides)
                .stature_drop(self.stature_drop);
        }
        builder.render_with(ctx)
    }

    /// Renders and runs the pipeline for one seed.
    ///
    /// # Errors
    ///
    /// Propagates simulator and pipeline errors.
    pub(crate) fn run(&self, seed: u64) -> Result<(Recording, SessionResult), HyperEarError> {
        self.run_with(seed, &mut TrialWorker::new())
    }

    /// Renders and runs the pipeline for one seed, reusing the worker's
    /// session engine and render context across calls. Identical results
    /// to [`SessionSpec::run`].
    ///
    /// # Errors
    ///
    /// Propagates simulator and pipeline errors.
    pub(crate) fn run_with(
        &self,
        seed: u64,
        worker: &mut TrialWorker,
    ) -> Result<(Recording, SessionResult), HyperEarError> {
        let rec = self
            .render_with(seed, &mut worker.render_ctx)
            .map_err(|e| HyperEarError::invalid("scenario", e.to_string()))?;
        if worker.engine.is_none() {
            worker.engine = Some(SessionEngine::new(self.config.clone())?);
        }
        let engine = worker.engine.as_mut().expect("engine just ensured");
        let result = engine.run(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        })?;
        Ok((rec, result))
    }

    /// Renders one seeded session, applies an optional fault plan to the
    /// recording, and runs the *monitored* pipeline — the entry point of
    /// the fault-matrix experiment. Never fails on pipeline conditions
    /// (those surface as [`SessionOutcome::Failed`]); only simulator or
    /// fault-plan parameter errors are returned as `Err`.
    ///
    /// # Errors
    ///
    /// Propagates render and fault-injection parameter errors.
    pub(crate) fn run_monitored_with(
        &self,
        seed: u64,
        fault_plan: Option<&FaultPlan>,
        worker: &mut TrialWorker,
    ) -> Result<(Recording, FaultLog, SessionOutcome), HyperEarError> {
        let mut rec = self
            .render_with(seed, &mut worker.render_ctx)
            .map_err(|e| HyperEarError::invalid("scenario", e.to_string()))?;
        let log = match fault_plan {
            Some(plan) => plan
                .apply(&mut rec)
                .map_err(|e| HyperEarError::invalid("fault plan", e.to_string()))?,
            None => FaultLog::default(),
        };
        if worker.engine.is_none() {
            worker.engine = Some(SessionEngine::new(self.config.clone())?);
        }
        let engine = worker.engine.as_mut().expect("engine just ensured");
        let outcome = engine.run_monitored(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        });
        Ok((rec, log, outcome))
    }
}

/// Ground-truth speaker position expressed in one slide's frame
/// (x along the slide axis from the midpoint of Mic1's travel; y the
/// slant distance from the slide line).
#[must_use]
pub(crate) fn truth_in_slide_frame(rec: &Recording, slide_index: usize) -> Option<Vec2> {
    let slide = rec.truth.motion.slides.get(slide_index)?;
    let a = rec.truth.motion.mic1_position(slide.start_time);
    let b = rec.truth.motion.mic1_position(slide.end_time());
    let mid = (a + b) * 0.5;
    let axis = rec.truth.motion.axis;
    let speaker = rec.truth.speaker_position;
    let d = speaker - mid;
    let along = d.x * axis.x + d.y * axis.y;
    let horiz_perp = -d.x * axis.y + d.y * axis.x;
    let slant = (horiz_perp * horiz_perp + d.z * d.z).sqrt();
    Some(Vec2::new(along, slant))
}

/// Per-slide 2D localization errors of a finished session: the Euclidean
/// distance between each accepted slide's fix and the ground truth in
/// that slide's frame (the scoring of paper Figs. 14–16).
#[must_use]
pub(crate) fn per_slide_errors(rec: &Recording, result: &SessionResult) -> Vec<f64> {
    result
        .slides
        .iter()
        .enumerate()
        .filter_map(|(i, report)| {
            let fix = report.fix.as_ref()?;
            let truth = truth_in_slide_frame(rec, i)?;
            Some((fix.solution.position - truth).norm())
        })
        .collect()
}

/// The session-level floor-map error (the scoring of paper Figs. 17–19):
/// Euclidean distance between the projected estimate and the true
/// speaker position on the floor map, in the phone frame.
#[must_use]
pub fn floor_error(rec: &Recording, result: &SessionResult) -> Option<f64> {
    // Truth floor coordinates relative to the upper-phase slide frame.
    let truth2 = truth_in_slide_frame(rec, 0)?;
    let truth_floor = Vec2::new(truth2.x, rec.truth.ground_distance);
    let estimate = match &result.projected {
        Some(p) => p.floor_position,
        None => {
            let upper = result.upper.as_ref()?;
            upper.position
        }
    };
    Some((estimate - truth_floor).norm())
}

/// Runs `f(seed)` for each seed across worker threads, preserving input
/// order in the output. Failed trials yield `None`.
pub(crate) fn parallel_trials<T, F>(seeds: &[u64], f: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(u64) -> Option<T> + Sync,
{
    parallel_trials_with_state(seeds, || (), |(), seed| f(seed))
}

/// Runs `f(&mut state, seed)` for each seed across the process-wide
/// work-stealing pool ([`Pool::global`](hyperear_util::pool::Pool::global),
/// sized by `HYPEREAR_THREADS`), where each pool participant owns one
/// `state` built by `init` — the hook that lets a trial loop keep a warm
/// [`TrialWorker`] (session engine, FFT plans, scratch buffers) per
/// thread instead of rebuilding it per seed. Output slot `i` always
/// holds seed `i`'s result regardless of steal order; failed trials
/// yield `None`.
pub(crate) fn parallel_trials_with_state<S, T, I, F>(seeds: &[u64], init: I, f: F) -> Vec<Option<T>>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Option<T> + Sync,
{
    hyperear_util::pool::Pool::global()
        .parallel_map_with(seeds.len(), init, |state, i| f(state, seeds[i]))
}

/// Collects per-slide 2D errors over many seeded sessions in parallel.
#[must_use]
pub(crate) fn collect_slide_errors(spec: &SessionSpec, seeds: &[u64]) -> Vec<f64> {
    parallel_trials_with_state(seeds, TrialWorker::new, |worker, seed| {
        let (rec, result) = spec.run_with(seed, worker).ok()?;
        Some(per_slide_errors(&rec, &result))
    })
    .into_iter()
    .flatten()
    .flatten()
    .collect()
}

/// Collects session-level floor errors over many seeded sessions.
#[must_use]
pub(crate) fn collect_floor_errors(spec: &SessionSpec, seeds: &[u64]) -> Vec<f64> {
    parallel_trials_with_state(seeds, TrialWorker::new, |worker, seed| {
        let (rec, result) = spec.run_with(seed, worker).ok()?;
        floor_error(&rec, &result)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Seeds `base..base+n` — experiments use disjoint bases so conditions
/// never share randomness.
#[must_use]
pub(crate) fn seed_range(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| base + i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_trials_preserves_order() {
        let seeds: Vec<u64> = (0..32).collect();
        let out = parallel_trials(&seeds, |s| Some(s * 2));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i as u64 * 2));
        }
    }

    #[test]
    fn parallel_trials_records_failures() {
        let seeds: Vec<u64> = (0..10).collect();
        let out = parallel_trials(&seeds, |s| if s % 2 == 0 { Some(s) } else { None });
        assert_eq!(out.iter().filter(|v| v.is_none()).count(), 5);
    }

    #[test]
    fn ruler_session_produces_slide_errors() {
        let spec = SessionSpec {
            slides: 2,
            environment: Environment::anechoic(),
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 3.0)
        };
        let errors = collect_slide_errors(&spec, &[101]);
        assert!(!errors.is_empty());
        for e in &errors {
            assert!(*e < 1.0, "slide error {e}");
        }
    }

    #[test]
    fn truth_frame_is_consistent_with_recording() {
        let spec = SessionSpec {
            slides: 1,
            environment: Environment::anechoic(),
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 4.0)
        };
        let rec = spec.render(7).unwrap();
        let truth = truth_in_slide_frame(&rec, 0).unwrap();
        // Same-plane 2D: slant equals the ground range.
        assert!((truth.y - 4.0).abs() < 0.02, "slant {}", truth.y);
        // In-direction placement keeps the speaker near the travel mid.
        assert!(truth.x.abs() < 0.2, "along-axis offset {}", truth.x);
        assert!(truth_in_slide_frame(&rec, 99).is_none());
    }

    #[test]
    fn reused_worker_matches_fresh_runs() {
        let spec = SessionSpec {
            slides: 2,
            environment: Environment::anechoic(),
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), HyperEarConfig::galaxy_s4(), 3.0)
        };
        let mut worker = TrialWorker::new();
        for seed in [101u64, 102] {
            let (rec_w, res_w) = spec.run_with(seed, &mut worker).unwrap();
            let (rec_f, res_f) = spec.run(seed).unwrap();
            assert_eq!(rec_w, rec_f, "seed {seed}");
            assert_eq!(res_w, res_f, "seed {seed}");
        }
    }

    #[test]
    fn parallel_trials_with_state_reuses_per_worker_state() {
        let seeds: Vec<u64> = (0..16).collect();
        let out = parallel_trials_with_state(
            &seeds,
            || 0u64,
            |calls, seed| {
                *calls += 1;
                Some((seed, *calls))
            },
        );
        let mut total_calls = 0;
        for (i, v) in out.iter().enumerate() {
            let (seed, calls) = v.expect("all trials succeed");
            assert_eq!(seed, i as u64);
            assert!(calls >= 1);
            total_calls = total_calls.max(calls);
        }
        // At least one worker ran more than one trial unless every seed
        // got its own thread.
        assert!(total_calls >= 1);
    }

    #[test]
    fn seed_range_is_disjoint_and_ordered() {
        let a = seed_range(1000, 5);
        assert_eq!(a, vec![1000, 1001, 1002, 1003, 1004]);
    }
}
