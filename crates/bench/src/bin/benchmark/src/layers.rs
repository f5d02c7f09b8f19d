//! Per-layer replays of a traced run.
//!
//! After each traced session the benchmark hands the same recording to
//! every layer's public function in turn: band-pass, matched filter,
//! beacon detector, the four TDoA estimators (each a whole session),
//! inertial analysis, aggregation, single-slide triangulation, projection,
//! a one-session streaming service and a multi-beacon engine. Each call
//! is a child span of one `layers` span that sits next to the session's
//! own span. The layer objects belong to the replayer (built from the
//! workload's configuration), so replays never warm or perturb the engine
//! under measurement.

use crate::metrics::{median, pct, Metrics};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::input;
use hyperear::asp::{BeaconArrival, BeaconDetector, MultiBeaconScratch};
use hyperear::batch::MultiBeaconEngine;
use hyperear::config::{Aggregation, HyperEarConfig, MultiBeaconConfig, TdoaEstimator};
use hyperear::imu::analyze::SessionConfig as InertialConfig;
use hyperear::imu::analyze::{analyze_session_with, AnalyzeScratch, SessionAnalysis};
use hyperear::localize::{localize_with, LocalizeScratch};
use hyperear::pipeline::{SessionEngine, SessionOutcome, SessionResult, StaturePhase};
use hyperear::ple::project;
use hyperear::stream::{StreamConfig, StreamService};
use hyperear_dsp::chirp::Chirp;
use hyperear_dsp::correlate::StreamingMatchedFilter;
use hyperear_dsp::filter::{FirFilter, ZeroPhaseFir};
use hyperear_dsp::plan::DspScratch;
use hyperear_dsp::window::Window;
use hyperear_geom::triangulate::{solve_slide, SlideGeometry};
use hyperear_geom::Vec3;
use hyperear_sim::scenario::Recording;
use hyperear_sim::source::PhoneSource;
use hyperear_util::pool::Pool;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Runs `f` and returns its result with the heap allocations it made.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = crate::allocations();
    let r = f();
    (r, crate::allocations() - before)
}

/// The estimators in replay order; plain runs last so its result is the
/// one aggregation, triangulation and projection replay from.
const ESTIMATORS: [(TdoaEstimator, &str, &str); 4] = [
    (
        TdoaEstimator::GccPhat,
        "estimator.gcc_phat",
        "estimator.gcc_phat_session_ms",
    ),
    (
        TdoaEstimator::SubbandCoherence,
        "estimator.subband",
        "estimator.subband_session_ms",
    ),
    (
        TdoaEstimator::McciFusion,
        "estimator.mcci",
        "estimator.mcci_session_ms",
    ),
    (
        TdoaEstimator::PlainXcorr,
        "estimator.plain",
        "estimator.plain_session_ms",
    ),
];

/// Streaming-layer measurements, shared by the one-session replay and the
/// `stream_fleet` workload's measured service.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Mean `push_audio` call per session, µs.
    pub push_us: Vec<f64>,
    /// Every `pump` call, ms.
    pub pump_ms: Vec<f64>,
    pub pump_total_s: f64,
    /// Wall time of the streaming phase the pumps ran in, s.
    pub wall_s: f64,
    /// Per session: open → finish requested, ms.
    pub ingest_ms: Vec<f64>,
    /// Per session: finish requested → outcome collected, ms.
    pub finish_wait_ms: Vec<f64>,
    pub busy: usize,
    pub sheds: usize,
    pub sessions: usize,
    /// Allocations inside service calls: per-session counts for the
    /// replay, one total for the fleet (whose pumps serve every session).
    pub allocs: Vec<f64>,
}

impl StreamStats {
    pub fn report(&self, working_set_bytes: usize, allocs_per_session: f64, out: &mut Metrics) {
        let per_session = |n: usize| n as f64 / self.sessions.max(1) as f64;
        out.set("stream.push_audio_us", median(&self.push_us), "us");
        out.set("stream.pump_ms_p50", pct(&self.pump_ms, 50.0), "ms");
        out.set("stream.pump_ms_p95", pct(&self.pump_ms, 95.0), "ms");
        out.set(
            "stream.pump_busy_frac",
            self.pump_total_s / self.wall_s,
            "frac",
        );
        out.set("stream.ingest_ms", median(&self.ingest_ms), "ms");
        out.set("stream.finish_wait_ms", median(&self.finish_wait_ms), "ms");
        out.set("stream.busy_per_session", per_session(self.busy), "count");
        out.set("stream.sheds_per_session", per_session(self.sheds), "count");
        out.set("stream.working_set_bytes", working_set_bytes as f64, "B");
        out.set("stream.allocs_per_session", allocs_per_session, "count");
    }
}

struct StreamReplay {
    service: StreamService,
    outcome: SessionOutcome,
    stats: StreamStats,
}

pub struct Replayer {
    band_pass: Option<ZeroPhaseFir>,
    matched: StreamingMatchedFilter,
    dsp: DspScratch,
    filtered: Vec<f64>,
    corr: Vec<f64>,
    detector: BeaconDetector,
    arrivals: Vec<BeaconArrival>,
    engine: SessionEngine,
    result: SessionResult,
    inertial: InertialConfig,
    analyze_scratch: AnalyzeScratch,
    analysis: SessionAnalysis,
    aggregation: Aggregation,
    max_depth: f64,
    loc_scratch: LocalizeScratch,
    geoms: Vec<SlideGeometry>,
    stream: Option<StreamReplay>,
    multi: MultiBeaconEngine,
    multi_scratch: MultiBeaconScratch,
    lanes: Vec<Vec<BeaconArrival>>,
    multi_out: Vec<SessionOutcome>,
    /// Per-layer samples by metric name, with their unit.
    samples: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
}

impl Replayer {
    /// Layers for `config` at `sample_rate`, with a multi-beacon engine for
    /// `multi` and, unless `stream` is `None` (the workload measures the
    /// streaming service itself), a one-session streaming service.
    pub fn new(
        config: &HyperEarConfig,
        multi: &MultiBeaconConfig,
        stream: Option<StreamConfig>,
        sample_rate: f64,
    ) -> Self {
        let beacon = &config.beacon;
        let chirp = Chirp::new(
            beacon.f0,
            beacon.f1,
            beacon.duration,
            sample_rate,
            beacon.pattern.shape(),
        )
        .expect("workload beacon fits the sample rate");
        // The same band-pass design `DetectorCore::new` builds (±10% band
        // margins), which the detector keeps private.
        let band_pass = config.detection.band_pass.then(|| {
            let design = FirFilter::band_pass(
                beacon.f0 * 0.9,
                beacon.f1 * 1.1,
                sample_rate,
                config.detection.band_pass_taps,
                Window::Hamming,
            )
            .expect("valid band-pass design");
            ZeroPhaseFir::new(&design).expect("band-pass engine")
        });
        let pool = || Arc::new(Pool::new(1));
        let stream = stream.map(|sizing| StreamReplay {
            service: StreamService::new(config.clone(), sizing, pool()).expect("stream sizing"),
            outcome: SessionOutcome::idle(),
            stats: StreamStats::default(),
        });
        Replayer {
            band_pass,
            matched: StreamingMatchedFilter::new(chirp.samples()).expect("chirp template"),
            dsp: DspScratch::new(),
            filtered: Vec::new(),
            corr: Vec::new(),
            detector: BeaconDetector::new(config, sample_rate).expect("detector"),
            arrivals: Vec::new(),
            engine: SessionEngine::new(config.clone()).expect("valid config"),
            result: SessionResult::empty(),
            inertial: config.inertial,
            analyze_scratch: AnalyzeScratch::new(),
            analysis: SessionAnalysis {
                gravity: Vec3::ZERO,
                slides: Vec::new(),
                stature_changes: Vec::new(),
            },
            aggregation: config.aggregation,
            max_depth: config.max_speaker_depth,
            loc_scratch: LocalizeScratch::new(),
            geoms: Vec::new(),
            stream,
            multi: MultiBeaconEngine::new(multi.clone(), pool())
                .expect("valid multi-beacon config"),
            multi_scratch: MultiBeaconScratch::new(),
            lanes: vec![Vec::new(); multi.beacons()],
            multi_out: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn sample(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples
            .entry(name)
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    /// Replays `rec` through every layer under one `layers` span.
    pub fn replay(&mut self, tracer: &mut Tracer, session: u32, rec: &Recording) {
        let layers = tracer.open("layers", NO_PARENT, session);
        let left = rec.audio.left.as_slice();

        // Per-channel stages run twice and only the second call is timed:
        // each owns scratch as large as the capture, which the engine's
        // detection finds warm from its previous session but a replay
        // would otherwise find evicted by the replay before it.
        //
        // DSP: band-pass, then the matched filter over its output.
        let bp_ms = match &self.band_pass {
            Some(bp) => {
                let mut run = || bp.filter_into(left, &mut self.dsp, &mut self.filtered);
                run().expect("band-pass replay");
                tracer.time("dsp.bandpass", layers, session, run).1
            }
            None => 0.0,
        };
        let signal = if self.band_pass.is_some() {
            self.filtered.as_slice()
        } else {
            left
        };
        let mut run = || {
            self.matched
                .correlate_into(signal, &mut self.dsp, &mut self.corr)
        };
        run().expect("matched-filter replay");
        let (_, mf_ms) = tracer.time("dsp.matched_filter", layers, session, run);

        // ASP: the whole per-channel detector (the two stages above plus
        // thresholding, peak picking and interpolation).
        let mut run = || self.detector.detect_into(left, &mut self.arrivals);
        run().expect("detector replay");
        let (_, detect_ms) = tracer.time("asp.detect", layers, session, run);
        let beacons = self.arrivals.len() as f64;

        // Whole sessions under each estimator. Typed failures are valid
        // outcomes of a replay, so results are not unwrapped.
        let session_input = input(rec);
        let mut estimator_allocs = 0;
        let mut plain_ms = 0.0;
        for (estimator, span, name) in ESTIMATORS {
            let ((_, ms), allocs) = counted(|| {
                tracer.time(span, layers, session, || {
                    self.engine
                        .run_estimated_into(&session_input, estimator, &mut self.result)
                })
            });
            estimator_allocs += allocs;
            self.sample(name, "ms", ms);
            plain_ms = ms;
        }

        let (r, analyze_ms) = tracer.time("imu.analyze", layers, session, || {
            analyze_session_with(
                &rec.imu.accel,
                &rec.imu.gyro,
                rec.imu.sample_rate,
                &self.inertial,
                &mut self.analyze_scratch,
                &mut self.analysis,
            )
        });
        r.expect("inertial replay");

        // Aggregation and triangulation over the plain session's
        // upper-phase fixes; projection when it had two statures.
        self.geoms.clear();
        self.geoms.extend(
            self.result
                .slides
                .iter()
                .filter(|s| s.phase == StaturePhase::Upper)
                .filter_map(|s| s.fix.as_ref().map(|f| f.geometry)),
        );
        let (mut aggregate_ms, mut solve_ms, mut project_ms) = (0.0, 0.0, 0.0);
        if !self.geoms.is_empty() {
            let (_, ms) = tracer.time("localize.aggregate", layers, session, || {
                localize_with(&self.geoms, self.aggregation, &mut self.loc_scratch)
            });
            aggregate_ms = ms;
            let (_, ms) = tracer.time("geom.solve_slide", layers, session, || {
                for g in &self.geoms {
                    let _ = solve_slide(g);
                }
            });
            solve_ms = ms;
            self.sample("localize.aggregate_us", "us", aggregate_ms * 1e3);
            self.sample(
                "geom.solve_slide_us",
                "us",
                solve_ms * 1e3 / self.geoms.len() as f64,
            );
        }
        if let (Some(u), Some(l), Some(h)) = (
            self.result.upper,
            self.result.lower,
            self.result.stature_drop,
        ) {
            if h > 0.01 {
                let (_, ms) = tracer.time("ple.project", layers, session, || {
                    project(&u, &l, h, self.max_depth)
                });
                project_ms = ms;
                self.sample("ple.project_us", "us", ms * 1e3);
            }
        }

        if self.stream.is_some() {
            self.replay_stream(tracer, layers, session, rec);
        }

        // The K-lane bank alone (per channel, so warmed like the stages
        // above), then the whole multi-beacon session.
        let bank = self
            .multi
            .detector_for(rec.audio.sample_rate)
            .expect("bank fits the sample rate");
        let mut run = || bank.detect_into(left, &mut self.multi_scratch, &mut self.lanes);
        run().expect("bank replay");
        let (_, bank_ms) = tracer.time("multibeacon.bank_detect", layers, session, run);
        let ((_, multi_ms), multi_allocs) = counted(|| {
            tracer.time("multibeacon.session", layers, session, || {
                self.multi
                    .run_session_into(&session_input, &mut self.multi_out)
            })
        });
        tracer.close(layers);

        self.sample("dsp.bandpass_ms", "ms", bp_ms);
        self.sample("dsp.matched_filter_ms", "ms", mf_ms);
        self.sample(
            "dsp.ns_per_sample",
            "ns",
            (bp_ms + mf_ms) * 1e6 / left.len() as f64,
        );
        self.sample("asp.detect_ms", "ms", detect_ms);
        self.sample("asp.peak_pick_ms", "ms", detect_ms - bp_ms - mf_ms);
        self.sample("asp.beacons_per_channel", "count", beacons);
        self.sample("imu.analyze_ms", "ms", analyze_ms);
        self.sample("pipeline.tail_ms", "ms", plain_ms - 2.0 * detect_ms);
        self.sample(
            "pipeline.unattributed_ms",
            "ms",
            plain_ms - 2.0 * detect_ms - analyze_ms - aggregate_ms - solve_ms - project_ms,
        );
        self.sample(
            "pipeline.allocs_per_session",
            "count",
            estimator_allocs as f64 / ESTIMATORS.len() as f64,
        );
        self.sample("multibeacon.bank_detect_ms", "ms", bank_ms);
        self.sample("multibeacon.finish_ms", "ms", multi_ms - 2.0 * bank_ms);
        self.sample(
            "multibeacon.allocs_per_session",
            "count",
            multi_allocs as f64,
        );
    }

    /// One streaming session: jittered phone-buffer chunks, a pump after
    /// every chunk (so the ring never sheds), then finish.
    fn replay_stream(&mut self, tracer: &mut Tracer, layers: u32, session: u32, rec: &Recording) {
        let replay = self.stream.as_mut().expect("checked by caller");
        let svc = &mut replay.service;
        let stats = &mut replay.stats;
        let mut allocs = 0;
        let opened = Instant::now();
        let (id, a) = counted(|| svc.open(rec.audio.sample_rate, rec.imu.sample_rate));
        allocs += a;
        let id = id.expect("the replay service has a free slot");
        let mut source = PhoneSource::new(rec, u64::from(session)).chunk_sizes(480, 1_920);
        let (mut push_s, mut pushes) = (0.0, 0usize);
        while let Some(tick) = source.next_chunk() {
            let (r, a) = counted(|| svc.push_imu(id, tick.accel, tick.gyro));
            r.expect("imu fits the replay sizing");
            allocs += a;
            let t = Instant::now();
            let (r, a) = counted(|| svc.push_audio(id, tick.left, tick.right));
            push_s += t.elapsed().as_secs_f64();
            pushes += 1;
            r.expect("a pumped ring always has room for one chunk");
            allocs += a;
            let t = Instant::now();
            let ((), a) = counted(|| svc.pump());
            let pump = t.elapsed().as_secs_f64();
            allocs += a;
            stats.pump_ms.push(pump * 1e3);
            stats.pump_total_s += pump;
        }
        let finish_at = Instant::now();
        let (r, a) = counted(|| {
            svc.request_finish(id)?;
            svc.pump();
            svc.try_take_outcome(id, &mut replay.outcome)
        });
        allocs += a;
        assert_eq!(r, Ok(true), "one pump finishes a requested session");
        let done = Instant::now();
        tracer.record("stream.session", layers, session, opened, done);
        stats.push_us.push(push_s * 1e6 / pushes.max(1) as f64);
        stats
            .ingest_ms
            .push((finish_at - opened).as_secs_f64() * 1e3);
        stats
            .finish_wait_ms
            .push((done - finish_at).as_secs_f64() * 1e3);
        stats.wall_s += (done - opened).as_secs_f64();
        stats.sessions += 1;
        stats.allocs.push(allocs as f64);
    }

    /// Medians of every replayed layer, plus the replay objects' working
    /// sets.
    pub fn report(&self, out: &mut Metrics) {
        for (name, (unit, values)) in &self.samples {
            out.set(name, median(values), unit);
        }
        out.set(
            "pipeline.working_set_bytes",
            self.engine.working_set_bytes() as f64,
            "B",
        );
        out.set(
            "multibeacon.working_set_bytes",
            self.multi.working_set_bytes() as f64,
            "B",
        );
        if let Some(replay) = &self.stream {
            replay.stats.report(
                replay.service.working_set_bytes(),
                median(&replay.stats.allocs),
                out,
            );
        }
    }
}
