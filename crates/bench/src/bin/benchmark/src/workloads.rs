//! The four workloads: inputs made from the seed, set-up, the closed
//! measurement loops, output checks, and the metrics each run reports.
//!
//! Every engine and service runs on a one-participant pool (`Pool::new(1)`,
//! nothing spawned), so a run measures one thread's work whatever
//! `HYPEREAR_THREADS` says.

use crate::layers::{counted, Replayer, StreamStats};
use crate::metrics::{frac, median, pct, Metrics};
use crate::trace::{Tracer, NO_PARENT};
use crate::yardstick::Yardstick;
use hyperear::batch::MultiBeaconEngine;
use hyperear::config::{EstimatorPolicy, HyperEarConfig, MultiBeaconConfig};
use hyperear::pipeline::{SessionEngine, SessionInput, SessionOutcome};
use hyperear::stream::{AdmissionError, SessionId, StreamConfig, StreamError, StreamService};
use hyperear::HyperEarError;
use hyperear_bench::harness::{floor_error, SessionSpec};
use hyperear_geom::{Vec2, Vec3};
use hyperear_sim::environment::Environment;
use hyperear_sim::fault::{matrix, Fault, FaultPlan};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::{Recording, RenderContext, ScenarioBuilder};
use hyperear_sim::source::PhoneSource;
use hyperear_sim::speaker::SpeakerModel;
use hyperear_sim::volunteer::roster;
use hyperear_util::pool::Pool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Concurrent phones of `stream_fleet` (a closed loop: each reopens once
/// it has collected its outcome).
const PHONES: usize = 32;
/// Session slots of the measured service: fewer than the phones, so
/// admission control (`Busy`) is part of the workload.
const STREAM_SLOTS: usize = 8;
/// PCM ring per channel: about two phone buffers, so bursts shed.
const STREAM_RING: usize = 4_096;
/// Phone-buffer chunk sizes, samples (10–40 ms at 48 kHz).
const CHUNKS: (usize, usize) = (480, 1_920);
/// `oneshot_faulted` corrupts each recording with one class of the fault
/// matrix at this intensity.
const FAULT_INTENSITY: f64 = 0.7;
/// Slides per `oneshot_faulted` and `multibeacon_k4` capture: their
/// sessions cost two to three times a clean 2D one (escalation reruns, K
/// finishes), and shorter captures keep ≥ 200 sessions in a 20 s run.
const SHORT_SLIDES: usize = 3;
/// Beacons of `multibeacon_k4`: the primary speaker at 3 m plus
/// co-speakers at these broadside ranges.
const BEACONS: usize = 4;
const CO_RANGES: [f64; BEACONS - 1] = [2.0, 4.0, 5.5];
const SPAN_CAPACITY: usize = 1 << 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotClean,
    OneshotFaulted,
    StreamFleet,
    MultibeaconK4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OneshotClean,
        Workload::OneshotFaulted,
        Workload::StreamFleet,
        Workload::MultibeaconK4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotClean => "oneshot_clean",
            Workload::OneshotFaulted => "oneshot_faulted",
            Workload::StreamFleet => "stream_fleet",
            Workload::MultibeaconK4 => "multibeacon_k4",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct recordings per run. `oneshot_faulted` needs twice the clean
    /// count: only about one recording in five escalates, and its
    /// throughput follows how many do. The K=4 scenes all cost about the
    /// same, so eight are enough.
    fn default_recordings(self) -> usize {
        match self {
            Workload::OneshotClean | Workload::StreamFleet => 24,
            Workload::OneshotFaulted => 48,
            Workload::MultibeaconK4 => 8,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Measurement budget, seconds (set-up and rendering come on top).
    pub seconds: f64,
    /// The traced run: per-layer replays instead of end-to-end metrics.
    pub trace: bool,
    /// Distinct recordings; `None` (every run but the smoke test's) uses
    /// the workload's own count.
    pub recordings: Option<usize>,
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Run {
    /// Sessions whose output was checked (measured and set-up passes).
    pub attempted: u64,
    /// Checked sessions whose output differed from its reference.
    pub failed: u64,
    pub metrics: Metrics,
    pub tracer: Tracer,
}

pub fn input(rec: &Recording) -> SessionInput<'_> {
    SessionInput {
        audio_sample_rate: rec.audio.sample_rate,
        left: &rec.audio.left,
        right: &rec.audio.right,
        imu_sample_rate: rec.imu.sample_rate,
        accel: &rec.imu.accel,
        gyro: &rec.imu.gyro,
    }
}

/// A SplitMix64 draw keyed by the run seed, a stream tag and an index:
/// every rendered scene, fault plan and chunk schedule of a run derives
/// from `--seed` alone.
fn mix(seed: u64, tag: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag << 32)
        .wrapping_add(i as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Recording `i` of the clean set and its scene seed: two ruler 2D
/// sessions (5 slides, 1.5–7 m, cycling room_quiet / room_chatting /
/// mall_off_peak) for each in-hand 3D session (5 + 5 slides, 2–6 m).
///
/// Two 2D sessions per 3D one keep the median inside the 2D durations and
/// p95 inside the 3D ones; an even split would put the median on the gap
/// between them. In-hand sessions pick their volunteer by seed
/// (`roster[seed % len]`); the seed's remainder is pinned to the 3D
/// index, so every run holds the same volunteers and hence the same mix
/// of hand motions and capture lengths, whatever `--seed` is.
fn clean_scene(i: usize, seed: u64) -> (SessionSpec, u64) {
    let config = HyperEarConfig::galaxy_s4();
    if i % 3 == 2 {
        let k = (i / 3) % 8;
        let volunteers = roster().len() as u64;
        let seed = seed - seed % volunteers + k as u64 % volunteers;
        let range = 2.0 + 4.0 * k as f64 / 7.0;
        (
            SessionSpec::hand_3d(PhoneModel::galaxy_s4(), config, range),
            seed,
        )
    } else {
        let j = (i - i / 3) % 16;
        let environment = match j % 3 {
            0 => Environment::room_quiet(),
            1 => Environment::room_chatting(),
            _ => Environment::mall_off_peak(),
        };
        let spec = SessionSpec {
            environment,
            ..SessionSpec::ruler_2d(PhoneModel::galaxy_s4(), config, 1.5 + 5.5 * j as f64 / 15.0)
        };
        (spec, seed)
    }
}

fn render(workload: Workload, seed: u64, n: usize) -> Vec<Recording> {
    let mut ctx = RenderContext::new();
    // Fault classes are dealt round-robin from imu-bias-drift, the one
    // class that escalates on every realization at this intensity: 5 of 48
    // recordings escalate on every seed (others now and then), so p95 sits
    // inside the escalation tail instead of on its edge.
    let faults = matrix(FAULT_INTENSITY);
    let first_fault = faults
        .iter()
        .position(|f| matches!(f, Fault::ImuBiasDrift { .. }))
        .expect("the fault matrix has an IMU bias drift class");
    (0..n)
        .map(|i| match workload {
            // The stream fleet replays exactly the clean set, so the two
            // workloads differ only in the front end.
            Workload::OneshotClean | Workload::StreamFleet => {
                let (spec, scene_seed) = clean_scene(i, mix(seed, 1, i));
                spec.render_with(scene_seed, &mut ctx)
            }
            Workload::OneshotFaulted => {
                let spec = SessionSpec {
                    slides: SHORT_SLIDES,
                    ..SessionSpec::ruler_2d(
                        PhoneModel::galaxy_s4(),
                        HyperEarConfig::galaxy_s4(),
                        3.0,
                    )
                };
                spec.render_with(mix(seed, 2, i), &mut ctx)
                    .and_then(|mut rec| {
                        FaultPlan::new(mix(seed, 3, i))
                            .with(faults[(first_fault + i) % faults.len()])
                            .apply(&mut rec)?;
                        Ok(rec)
                    })
            }
            Workload::MultibeaconK4 => {
                let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
                    .environment(Environment::room_quiet())
                    .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
                    .speaker_range(3.0)
                    .slides(SHORT_SLIDES)
                    .seed(mix(seed, 5, i));
                for (k, range) in CO_RANGES.iter().enumerate() {
                    builder = builder
                        .co_speaker(SpeakerModel::new().with_signature(k + 1, BEACONS), *range);
                }
                builder.render_with(&mut ctx)
            }
        })
        .collect::<Result<_, _>>()
        .expect("benchmark scenarios render")
}

fn escalating() -> HyperEarConfig {
    let mut config = HyperEarConfig::galaxy_s4();
    config.estimator.escalation = true;
    config
}

/// Runs one workload: render its inputs, set it up [`SETUP_REPS`] times,
/// then drive it for `opts.seconds`. `progress` receives the running count
/// of checked sessions.
pub fn run(workload: Workload, opts: &Options, progress: &mut dyn FnMut(u64)) -> Run {
    let n = opts
        .recordings
        .unwrap_or(workload.default_recordings())
        .max(1);
    let t = Instant::now();
    let recs = render(workload, opts.seed, n);
    let render_s = t.elapsed().as_secs_f64();
    let mut host = Yardstick::new();
    let y = &mut host;
    let mut run = match workload {
        Workload::OneshotClean => oneshot(HyperEarConfig::galaxy_s4(), &recs, opts, y, progress),
        Workload::OneshotFaulted => oneshot(escalating(), &recs, opts, y, progress),
        Workload::StreamFleet => {
            stream_fleet(HyperEarConfig::galaxy_s4(), &recs, opts, y, progress)
        }
        Workload::MultibeaconK4 => multibeacon(
            MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS),
            &recs,
            opts,
            y,
            progress,
        ),
    };
    host.probe();
    if opts.trace {
        // Layer times are medians over the run: one factor for all.
        run.metrics.scale_times(host.scale());
    }
    run.metrics.set("sim.render_s", render_s, "s");
    run.metrics.set("host.yardstick_ms", host.median_ms(), "ms");
    run.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    if opts.trace {
        run.metrics
            .set("trace.dropped_spans", run.tracer.dropped() as f64, "count");
    }
    run
}

/// The process's resident high-water mark (`VmHWM`), MiB. Rendering peaks
/// below set-up and measurement, so this is the workload's own peak.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sizing of a service that can hold any of `recs`.
fn stream_sizing(recs: &[Recording], max_sessions: usize) -> StreamConfig {
    StreamConfig {
        max_sessions,
        ring_capacity: STREAM_RING,
        max_samples: recs.iter().map(|r| r.audio.left.len()).max().unwrap_or(1),
        max_imu_samples: recs.iter().map(|r| r.imu.accel.len()).max().unwrap_or(1),
    }
}

/// One session call of a closed loop.
struct Call {
    start: Instant,
    end: Instant,
    allocs: u64,
    /// Whether the output equals its recording's reference.
    ok: bool,
}

fn call(f: impl FnOnce()) -> (Instant, Instant, u64) {
    let start = Instant::now();
    let ((), allocs) = counted(f);
    (start, Instant::now(), allocs)
}

/// Session durations and counts of a measured loop.
#[derive(Debug, Default)]
struct Measured {
    /// Every measured session, wall ms; a failed one counts as +∞.
    session_ms: Vec<f64>,
    /// Each session's midpoint, where the host's speed is read.
    when: Vec<Instant>,
    /// Each session's recording.
    rec: Vec<usize>,
    /// Traced runs only, per traced session: its time with and without
    /// the writing of its span.
    traced_ms: Vec<f64>,
    call_ms: Vec<f64>,
    /// Traced runs only: heap allocations per traced session.
    allocs: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Measurement wall time, host probes (and the fleet's replays)
    /// excluded, s.
    wall_s: f64,
}

impl Measured {
    /// Records a session on recording `rec` that took `ms` around the
    /// instant `when`.
    fn record(&mut self, rec: usize, ms: f64, when: Instant, ok: bool) -> f64 {
        self.attempted += 1;
        let ms = if ok {
            ms
        } else {
            self.failed += 1;
            f64::INFINITY
        };
        self.session_ms.push(ms);
        self.when.push(when);
        self.rec.push(rec);
        ms
    }

    /// Each session's time replaced by the median time of its recording's
    /// sessions: the distribution of session time over the input mix. A
    /// host hiccup moves single calls, not a recording's median, while an
    /// expensive input (a 3D capture, an escalating one, a long stream)
    /// keeps its place in the tail. A recording with any failed session
    /// counts as +∞ in every one of its sessions, so a failure can never
    /// hide behind its recording's successful calls.
    fn per_recording(&self, ms: &[f64]) -> Vec<f64> {
        let recordings = self.rec.iter().max().map_or(0, |k| k + 1);
        let mut groups = vec![Vec::new(); recordings];
        for (&k, &t) in self.rec.iter().zip(ms) {
            groups[k].push(t);
        }
        let medians: Vec<f64> = groups
            .iter()
            .map(|g| {
                if g.iter().all(|t| t.is_finite()) {
                    median(g)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        self.rec.iter().map(|&k| medians[k]).collect()
    }
}

/// One client, one session at a time, for `opts.seconds`, cycling through
/// the recordings. In a traced run each recording gets two sessions: a
/// warm-up (after the previous recording's replays the input is out of
/// cache) and a traced one, timed once to the end of the call and once to
/// the end of writing its span; then the layer replays.
fn closed_loop(
    recs: &[Recording],
    opts: &Options,
    host: &mut Yardstick,
    progress: &mut dyn FnMut(u64),
    tracer: &mut Tracer,
    mut replayer: Option<&mut Replayer>,
    mut session: impl FnMut(usize) -> Call,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let mut probes = Duration::ZERO;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let k = i % recs.len();
        let mut timed = |m: &mut Measured| {
            let c = session(k);
            let ms = m.record(
                k,
                ms(c.end - c.start),
                c.start + (c.end - c.start) / 2,
                c.ok,
            );
            (c, ms)
        };
        match replayer.as_deref_mut() {
            None => {
                timed(&mut m);
            }
            Some(replayer) => {
                timed(&mut m);
                let (c, call_ms) = timed(&mut m);
                let id = m.attempted as u32;
                tracer.record("session", NO_PARENT, id, c.start, c.end);
                m.traced_ms.push(call_ms + ms(Instant::now() - c.end));
                m.call_ms.push(call_ms);
                replayer.replay(tracer, id, &recs[k]);
                m.allocs.push(c.allocs as f64);
            }
        }
        probes += host.tick();
        i += 1;
        progress(m.attempted);
    }
    // Only untraced runs report throughput, so replay time stays in.
    m.wall_s = (start.elapsed() - probes).as_secs_f64();
    m
}

/// Output quality over each recording's reference outcome(s).
#[derive(Debug, Default)]
struct Quality {
    outcomes: usize,
    usable: usize,
    degraded: usize,
    escalated: usize,
    slides: usize,
    fixed: usize,
    /// Per fixed slide: |fix − truth| in the slide frame, m.
    slide_err: Vec<f64>,
    /// Per usable outcome: the session-level floor-map error (for K
    /// beacons, |best range − true range| per beacon), m.
    floor_err: Vec<f64>,
}

/// `speaker` in slide `i`'s frame: `harness::truth_in_slide_frame` for any
/// speaker of the scene, not only the primary one.
fn truth_in_frame(rec: &Recording, i: usize, speaker: Vec3) -> Option<Vec2> {
    let motion = &rec.truth.motion;
    let slide = motion.slides.get(i)?;
    let a = motion.mic1_position(slide.start_time);
    let b = motion.mic1_position(slide.end_time());
    let d = speaker - (a + b) * 0.5;
    let along = d.x * motion.axis.x + d.y * motion.axis.y;
    let perp = -d.x * motion.axis.y + d.y * motion.axis.x;
    Some(Vec2::new(along, (perp * perp + d.z * d.z).sqrt()))
}

/// Whether `policy` reran the session with a heavier estimator: the
/// trigger documented on `EstimatorPolicy::escalate_below` and
/// `SessionEngine::run_monitored_into`, read back from the graded outcome.
/// An `Ok` outcome that kept its first estimator records no rerun, so its
/// slide confidences are checked against the trigger instead.
fn escalated(outcome: &SessionOutcome, policy: &EstimatorPolicy) -> bool {
    if !policy.escalation {
        return false;
    }
    match outcome {
        SessionOutcome::Ok(r) => {
            r.estimator != policy.initial
                || r.slides
                    .iter()
                    .any(|s| s.confidence.score < policy.escalate_below)
        }
        SessionOutcome::Degraded { diagnostics, .. } => diagnostics.escalations > 0,
        SessionOutcome::Failed { reason, .. } => {
            !matches!(reason, HyperEarError::InvalidParameter { .. })
        }
    }
}

impl Quality {
    /// Adds beacon `k`'s outcome on `rec` (k = 0 is the primary speaker).
    fn add(
        &mut self,
        outcome: &SessionOutcome,
        rec: &Recording,
        k: usize,
        policy: &EstimatorPolicy,
    ) {
        self.outcomes += 1;
        if matches!(outcome, SessionOutcome::Degraded { .. }) {
            self.degraded += 1;
        }
        self.escalated += usize::from(escalated(outcome, policy));
        let Some(result) = outcome.result() else {
            return;
        };
        self.usable += 1;
        let speaker = match k {
            0 => rec.truth.speaker_position,
            k => rec.truth.co_speaker_positions[k - 1],
        };
        for (i, slide) in result.slides.iter().enumerate() {
            self.slides += 1;
            if let Some(fix) = &slide.fix {
                self.fixed += 1;
                if let Some(truth) = truth_in_frame(rec, i, speaker) {
                    self.slide_err.push((fix.solution.position - truth).norm());
                }
            }
        }
        let floor = if rec.truth.co_speaker_positions.is_empty() {
            floor_error(rec, result)
        } else {
            let truth = truth_in_frame(rec, 0, speaker).map(|t| t.y);
            result.best_range().zip(truth).map(|(r, t)| (r - t).abs())
        };
        self.floor_err.extend(floor);
    }

    fn report(&self, trace: bool, out: &mut Metrics) {
        out.set("usable_frac", frac(self.usable, self.outcomes), "frac");
        out.set("slide_err_p50_m", median(&self.slide_err), "m");
        out.set("floor_err_p50_m", median(&self.floor_err), "m");
        if trace {
            out.set(
                "estimator.escalated_frac",
                frac(self.escalated, self.outcomes),
                "frac",
            );
            out.set(
                "pipeline.slides_fixed_frac",
                frac(self.fixed, self.slides),
                "frac",
            );
            out.set(
                "pipeline.degraded_frac",
                frac(self.degraded, self.outcomes),
                "frac",
            );
        }
    }
}

/// Counts checked sessions across set-up and measurement.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One timed set-up: wall seconds and its midpoint.
type SetUp = (f64, Instant);

/// Assembles a run's metrics from its set-up times and measured loop.
/// End-to-end times are reported in reference-host time, each session
/// scaled by the host's speed around it, and the session percentiles are
/// taken over the input mix ([`Measured::per_recording`]). The raw
/// wall-clock values (plain per-session percentiles) follow as `wall.*`
/// for information.
fn finish(
    opts: &Options,
    tally: Tally,
    setups: &[SetUp],
    measured: &Measured,
    quality: &Quality,
    host: &Yardstick,
    tracer: Tracer,
) -> Run {
    let mut metrics = Metrics::default();
    quality.report(opts.trace, &mut metrics);
    metrics.set("sessions", measured.attempted as f64, "count");
    metrics.set(
        "failed_ops_frac",
        frac(measured.failed as usize, measured.attempted as usize),
        "frac",
    );
    if opts.trace {
        metrics.set(
            "trace.overhead_frac",
            median(&measured.traced_ms) / median(&measured.call_ms) - 1.0,
            "frac",
        );
    } else {
        let wall = &measured.session_ms;
        let scaled: Vec<f64> = wall
            .iter()
            .zip(&measured.when)
            .map(|(ms, t)| ms * host.scale_at(*t))
            .collect();
        let over_inputs = measured.per_recording(&scaled);
        let finite_sum = |v: &[f64]| v.iter().filter(|x| x.is_finite()).sum::<f64>();
        let wall_rate = measured.attempted as f64 / measured.wall_s;
        let setup_wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let setup: Vec<f64> = setups.iter().map(|(s, t)| s * host.scale_at(*t)).collect();
        metrics.set("setup_s", median(&setup), "s");
        metrics.set("session_p50_ms", pct(&over_inputs, 50.0), "ms");
        metrics.set("session_p95_ms", pct(&over_inputs, 95.0), "ms");
        metrics.set(
            "sessions_per_s",
            wall_rate * finite_sum(wall) / finite_sum(&scaled),
            "1/s",
        );
        metrics.set("wall.setup_s", median(&setup_wall), "s");
        metrics.set("wall.session_p50_ms", pct(wall, 50.0), "ms");
        metrics.set("wall.session_p95_ms", pct(wall, 95.0), "ms");
        metrics.set("wall.sessions_per_s", wall_rate, "1/s");
    }
    Run {
        attempted: tally.attempted + measured.attempted,
        failed: tally.failed + measured.failed,
        metrics,
        tracer,
    }
}

fn run_into(engine: &mut SessionEngine, input: &SessionInput<'_>) -> SessionOutcome {
    let mut outcome = SessionOutcome::idle();
    engine.run_monitored_into(input, &mut outcome);
    outcome
}

/// Times one set-up, with host probes on both sides of it.
fn timed_set_up<R>(host: &mut Yardstick, f: impl FnOnce() -> R) -> (R, SetUp) {
    host.probe();
    let start = Instant::now();
    let r = f();
    let took = start.elapsed();
    host.probe();
    (r, (took.as_secs_f64(), start + took / 2))
}

/// Sets an engine up [`SETUP_REPS`] times: construction plus one warm pass
/// over every recording, timed. The first pass records the reference each
/// later output is checked against (later passes included). Returns the
/// last, warm engine, the references and the set-ups.
fn set_up<E, O: PartialEq>(
    recordings: usize,
    tally: &mut Tally,
    host: &mut Yardstick,
    mut build: impl FnMut() -> E,
    mut session: impl FnMut(&mut E, usize) -> O,
) -> (E, Vec<O>, Vec<SetUp>) {
    let mut setups = Vec::new();
    let mut refs: Vec<O> = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        // Freed first, so the resident peak never holds two engines.
        drop(engine.take());
        let ((e, outs), setup) = timed_set_up(host, || {
            let mut e = build();
            let outs: Vec<O> = (0..recordings).map(|k| session(&mut e, k)).collect();
            (e, outs)
        });
        setups.push(setup);
        if refs.is_empty() {
            refs = outs;
        } else {
            outs.iter()
                .zip(&refs)
                .for_each(|(o, r)| tally.check(o == r));
        }
        engine = Some(e);
    }
    (engine.expect("at least one set-up"), refs, setups)
}

/// `oneshot_clean` / `oneshot_faulted`: whole captures through one warm
/// `SessionEngine::run_monitored_into`.
fn oneshot(
    config: HyperEarConfig,
    recs: &[Recording],
    opts: &Options,
    host: &mut Yardstick,
    progress: &mut dyn FnMut(u64),
) -> Run {
    let inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    let mut tally = Tally::default();
    let (mut engine, refs, setups) = set_up(
        recs.len(),
        &mut tally,
        host,
        || SessionEngine::new(config.clone()).expect("valid config"),
        |e, k| run_into(e, &inputs[k]),
    );

    let mut tracer = Tracer::new(if opts.trace { SPAN_CAPACITY } else { 0 });
    let multi = MultiBeaconConfig::distinct_bands(config.clone(), 1);
    let mut replayer = opts.trace.then(|| {
        let sizing = stream_sizing(recs, 1);
        Replayer::new(&config, &multi, Some(sizing), recs[0].audio.sample_rate)
    });
    let mut slot = SessionOutcome::idle();
    let measured = closed_loop(
        recs,
        opts,
        host,
        progress,
        &mut tracer,
        replayer.as_mut(),
        |k| {
            let (start, end, allocs) = call(|| engine.run_monitored_into(&inputs[k], &mut slot));
            Call {
                start,
                end,
                allocs,
                ok: slot == refs[k],
            }
        },
    );

    let mut quality = Quality::default();
    for (outcome, rec) in refs.iter().zip(recs) {
        quality.add(outcome, rec, 0, &config.estimator);
    }
    let mut run = finish(opts, tally, &setups, &measured, &quality, host, tracer);
    if let Some(replayer) = &replayer {
        replayer.report(&mut run.metrics);
        // The engine under measurement is the pipeline layer itself.
        run.metrics.set(
            "pipeline.working_set_bytes",
            engine.working_set_bytes() as f64,
            "B",
        );
        run.metrics.set(
            "pipeline.allocs_per_session",
            median(&measured.allocs),
            "count",
        );
    }
    run
}

/// `multibeacon_k4`: K=4 co-speaker captures through one warm
/// `MultiBeaconEngine::run_session_into` (one banked detection per
/// channel, then K per-beacon finishes).
fn multibeacon(
    config: MultiBeaconConfig,
    recs: &[Recording],
    opts: &Options,
    host: &mut Yardstick,
    progress: &mut dyn FnMut(u64),
) -> Run {
    let inputs: Vec<SessionInput<'_>> = recs.iter().map(input).collect();
    let mut tally = Tally::default();
    let (mut engine, refs, setups) = set_up(
        recs.len(),
        &mut tally,
        host,
        || {
            MultiBeaconEngine::new(config.clone(), Arc::new(Pool::new(1)))
                .expect("valid multi-beacon config")
        },
        |e, k| {
            let mut out = Vec::new();
            e.run_session_into(&inputs[k], &mut out);
            out
        },
    );

    let mut tracer = Tracer::new(if opts.trace { SPAN_CAPACITY } else { 0 });
    let primary = config.session_config(0);
    let mut replayer = opts.trace.then(|| {
        let sizing = stream_sizing(recs, 1);
        Replayer::new(&primary, &config, Some(sizing), recs[0].audio.sample_rate)
    });
    let mut outs = Vec::new();
    let measured = closed_loop(
        recs,
        opts,
        host,
        progress,
        &mut tracer,
        replayer.as_mut(),
        |k| {
            let (start, end, allocs) = call(|| engine.run_session_into(&inputs[k], &mut outs));
            Call {
                start,
                end,
                allocs,
                ok: outs == refs[k],
            }
        },
    );

    let mut quality = Quality::default();
    for (outcomes, rec) in refs.iter().zip(recs) {
        for (k, outcome) in outcomes.iter().enumerate() {
            quality.add(outcome, rec, k, &primary.estimator);
        }
    }
    let mut run = finish(opts, tally, &setups, &measured, &quality, host, tracer);
    if let Some(replayer) = &replayer {
        replayer.report(&mut run.metrics);
        run.metrics.set(
            "multibeacon.working_set_bytes",
            engine.working_set_bytes() as f64,
            "B",
        );
        run.metrics.set(
            "multibeacon.allocs_per_session",
            median(&measured.allocs),
            "count",
        );
    }
    run
}

/// When a fleet stops opening sessions.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many sessions (the set-up pass: each recording once).
    Sessions(usize),
    /// At this instant; sessions already open still finish.
    Deadline(Instant),
}

enum State<'a> {
    Idle,
    Ingest(PhoneSource<'a>),
    Finishing,
}

struct Phone<'a> {
    state: State<'a>,
    id: Option<SessionId>,
    rec: usize,
    session: usize,
    opened: Instant,
    finish_requested: Instant,
    /// Replay time excluded so far, sampled at open and at finish request.
    excluded_at_open: Duration,
    excluded_at_finish: Duration,
    push_s: f64,
    pushes: usize,
}

struct Fleet {
    measured: Measured,
    stats: StreamStats,
    /// Allocations inside service calls.
    allocs: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a fleet streams: the recordings, their one-shot references and
/// the seed of the chunk schedules.
struct FleetInputs<'a> {
    recs: &'a [Recording],
    refs: &'a [SessionOutcome],
    seed: u64,
}

/// Drives `phones` simulated phones through `svc` round-robin, as the
/// stream soak does: each step a phone opens (or is refused `Busy`),
/// pushes up to three jittered chunks (a shed chunk is retried after a
/// pump), requests its finish once drained, or collects its outcome; then
/// the service pumps once. Every outcome is checked against the one-shot
/// reference of its recording. In a traced run every other session is
/// traced: its span is written and its outcome is followed by layer
/// replays, whose time is excluded from the clocks of the sessions still
/// open, as are the host probes taken after each round when `host` is
/// given.
fn drive_fleet<'a>(
    svc: &mut StreamService,
    inputs: &FleetInputs<'a>,
    phones: usize,
    stop: Stop,
    mut trace: Option<(&mut Tracer, &mut Replayer)>,
    mut host: Option<&mut Yardstick>,
    progress: &mut dyn FnMut(u64),
) -> Fleet {
    let FleetInputs { recs, refs, seed } = *inputs;
    let start = Instant::now();
    let mut fleet = Fleet {
        measured: Measured::default(),
        stats: StreamStats::default(),
        allocs: 0,
    };
    let mut phones: Vec<Phone<'a>> = (0..phones)
        .map(|_| Phone {
            state: State::Idle,
            id: None,
            rec: 0,
            session: 0,
            opened: start,
            finish_requested: start,
            excluded_at_open: Duration::ZERO,
            excluded_at_finish: Duration::ZERO,
            push_s: 0.0,
            pushes: 0,
        })
        .collect();
    let mut outcome = SessionOutcome::idle();
    let mut opened = 0usize;
    let mut excluded = Duration::ZERO;
    let timed = trace.is_some();
    let pump = |svc: &mut StreamService, fleet: &mut Fleet| {
        let t = Instant::now();
        let ((), a) = counted(|| svc.pump());
        let d = t.elapsed().as_secs_f64();
        fleet.allocs += a;
        if timed {
            fleet.stats.pump_ms.push(d * 1e3);
            fleet.stats.pump_total_s += d;
        }
    };
    loop {
        let accepting = match stop {
            Stop::Sessions(n) => opened < n,
            Stop::Deadline(t) => Instant::now() < t,
        };
        if !accepting && phones.iter().all(|p| matches!(p.state, State::Idle)) {
            break;
        }
        for phone in &mut phones {
            let next = match std::mem::replace(&mut phone.state, State::Idle) {
                State::Idle if !accepting => State::Idle,
                State::Idle => {
                    let k = opened % recs.len();
                    let rec = &recs[k];
                    let (r, a) = counted(|| svc.open(rec.audio.sample_rate, rec.imu.sample_rate));
                    fleet.allocs += a;
                    match r {
                        Ok(id) => {
                            *phone = Phone {
                                state: State::Idle,
                                id: Some(id),
                                rec: k,
                                session: opened,
                                opened: Instant::now(),
                                finish_requested: start,
                                excluded_at_open: excluded,
                                excluded_at_finish: excluded,
                                push_s: 0.0,
                                pushes: 0,
                            };
                            opened += 1;
                            State::Ingest(
                                PhoneSource::new(rec, mix(seed, 4, phone.session))
                                    .chunk_sizes(CHUNKS.0, CHUNKS.1),
                            )
                        }
                        Err(AdmissionError::Busy { .. }) => {
                            fleet.stats.busy += 1;
                            State::Idle
                        }
                        Err(e) => panic!("unexpected admission error: {e}"),
                    }
                }
                State::Ingest(mut source) => {
                    let id = phone.id.expect("an ingesting phone holds a session");
                    let mut drained = false;
                    for _ in 0..3 {
                        let Some(tick) = source.next_chunk() else {
                            let (r, a) = counted(|| svc.request_finish(id));
                            r.expect("live session");
                            fleet.allocs += a;
                            phone.finish_requested = Instant::now();
                            phone.excluded_at_finish = excluded;
                            drained = true;
                            break;
                        };
                        let (r, a) = counted(|| svc.push_imu(id, tick.accel, tick.gyro));
                        r.expect("imu within the service sizing");
                        fleet.allocs += a;
                        let mut shed = false;
                        loop {
                            let t = Instant::now();
                            let (r, a) = counted(|| svc.push_audio(id, tick.left, tick.right));
                            if timed {
                                phone.push_s += t.elapsed().as_secs_f64();
                                phone.pushes += 1;
                            }
                            fleet.allocs += a;
                            match r {
                                Ok(()) => break,
                                Err(StreamError::Shed { .. }) => {
                                    shed = true;
                                    fleet.stats.sheds += 1;
                                    pump(svc, &mut fleet);
                                }
                                Err(e) => panic!("unexpected push error: {e}"),
                            }
                        }
                        // A shed parks the phone until its next turn.
                        if shed {
                            break;
                        }
                    }
                    if drained {
                        State::Finishing
                    } else {
                        State::Ingest(source)
                    }
                }
                State::Finishing => {
                    let id = phone.id.expect("a finishing phone holds a session");
                    let (r, a) = counted(|| svc.try_take_outcome(id, &mut outcome));
                    fleet.allocs += a;
                    if !r.expect("live session") {
                        State::Finishing
                    } else {
                        let now = Instant::now();
                        let ok = outcome == refs[phone.rec];
                        let latency = now - phone.opened - (excluded - phone.excluded_at_open);
                        let ingest = phone.finish_requested
                            - phone.opened
                            - (phone.excluded_at_finish - phone.excluded_at_open);
                        let wait =
                            now - phone.finish_requested - (excluded - phone.excluded_at_finish);
                        let mid = phone.opened + (now - phone.opened) / 2;
                        let value = fleet.measured.record(phone.rec, ms(latency), mid, ok);
                        progress(fleet.measured.attempted);
                        if timed {
                            let stats = &mut fleet.stats;
                            stats.ingest_ms.push(ms(ingest));
                            stats.finish_wait_ms.push(ms(wait));
                            stats
                                .push_us
                                .push(phone.push_s * 1e6 / phone.pushes.max(1) as f64);
                            stats.sessions += 1;
                        }
                        if let Some((tracer, replayer)) = trace.as_mut() {
                            if phone.session % 2 == 1 {
                                let session = phone.session as u32;
                                tracer.record("session", NO_PARENT, session, phone.opened, now);
                                let t = Instant::now();
                                fleet.measured.traced_ms.push(value + ms(t - now));
                                fleet.measured.call_ms.push(value);
                                replayer.replay(tracer, session, &recs[phone.rec]);
                                excluded += t.elapsed();
                            }
                        }
                        phone.id = None;
                        State::Idle
                    }
                }
            };
            phone.state = next;
        }
        if let Some((tracer, _)) = trace.as_mut() {
            let t = Instant::now();
            pump(svc, &mut fleet);
            tracer.record("stream.pump", NO_PARENT, u32::MAX, t, Instant::now());
        } else {
            pump(svc, &mut fleet);
        }
        if let Some(host) = host.as_deref_mut() {
            excluded += host.tick();
        }
    }
    let wall = (start.elapsed() - excluded).as_secs_f64();
    fleet.measured.wall_s = wall;
    fleet.stats.wall_s = wall;
    fleet
}

/// `stream_fleet`: the clean set streamed by [`PHONES`] phones through one
/// `StreamService` with [`STREAM_SLOTS`] slots; a session lasts from open
/// to collected outcome.
fn stream_fleet(
    config: HyperEarConfig,
    recs: &[Recording],
    opts: &Options,
    host: &mut Yardstick,
    progress: &mut dyn FnMut(u64),
) -> Run {
    // A streamed session must equal the one-shot pipeline's outcome on the
    // whole capture, bit for bit.
    let mut one_shot = SessionEngine::new(config.clone()).expect("valid config");
    let refs: Vec<SessionOutcome> = recs
        .iter()
        .map(|r| run_into(&mut one_shot, &input(r)))
        .collect();
    // Freed before the service exists, so the peak holds one engine.
    drop(one_shot);
    let inputs = FleetInputs {
        recs,
        refs: &refs,
        seed: opts.seed,
    };
    let sizing = stream_sizing(recs, STREAM_SLOTS);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut service = None;
    // Set-up: construction plus one warm pass, every recording streamed
    // once with every slot busy.
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let ((svc, warm), setup) = timed_set_up(host, || {
            let mut svc = StreamService::new(config.clone(), sizing, Arc::new(Pool::new(1)))
                .expect("valid stream sizing");
            let stop = Stop::Sessions(recs.len());
            let warm = drive_fleet(
                &mut svc,
                &inputs,
                STREAM_SLOTS,
                stop,
                None,
                None,
                &mut |_| {},
            );
            (svc, warm)
        });
        setups.push(setup);
        tally.attempted += warm.measured.attempted;
        tally.failed += warm.measured.failed;
        service = Some(svc);
    }
    let mut svc = service.expect("at least one set-up");

    let mut tracer = Tracer::new(if opts.trace { SPAN_CAPACITY } else { 0 });
    let multi = MultiBeaconConfig::distinct_bands(config.clone(), 1);
    // The fleet measures the streaming layer itself; replays cover the rest.
    let mut replayer = opts
        .trace
        .then(|| Replayer::new(&config, &multi, None, recs[0].audio.sample_rate));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let fleet = drive_fleet(
        &mut svc,
        &inputs,
        PHONES,
        Stop::Deadline(deadline),
        replayer.as_mut().map(|r| (&mut tracer, r)),
        Some(&mut *host),
        progress,
    );

    let mut quality = Quality::default();
    for (outcome, rec) in refs.iter().zip(recs) {
        quality.add(outcome, rec, 0, &config.estimator);
    }
    let mut run = finish(
        opts,
        tally,
        &setups,
        &fleet.measured,
        &quality,
        host,
        tracer,
    );
    if let Some(replayer) = &replayer {
        replayer.report(&mut run.metrics);
        let sessions = fleet.measured.attempted.max(1) as f64;
        fleet.stats.report(
            svc.working_set_bytes(),
            fleet.allocs as f64 / sessions,
            &mut run.metrics,
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_the_input_mix_drop_hiccups_but_not_failures() {
        let mut m = Measured::default();
        let t = Instant::now();
        // Recording 1 costs 10 ms, recording 0 costs 1 ms and recording 2
        // costs 5 ms; one call of recording 0 hit a 100 ms hiccup, one of
        // recording 2 failed.
        for (rec, ms, ok) in [
            (0, 1.0, true),
            (1, 10.0, true),
            (2, 5.0, true),
            (0, 100.0, true),
            (1, 10.0, true),
            (2, 5.0, false),
            (0, 1.0, true),
            (2, 5.0, true),
        ] {
            m.record(rec, ms, t, ok);
        }
        let times = m.session_ms.clone();
        assert_eq!(m.failed, 1);
        let inf = f64::INFINITY;
        assert_eq!(
            m.per_recording(&times),
            vec![1.0, 10.0, inf, 1.0, 10.0, inf, 1.0, inf]
        );
    }
}
