//! Deterministic parallel batch session processing.
//!
//! [`BatchEngine`] processes a slice of session captures (stereo
//! [`SessionInput`]s or N-microphone
//! [`crate::pipeline::ArraySessionInput`]s) across a [`Pool`],
//! pinning one warm [`SessionEngine`] (with all of its scratch —
//! detector buffers, TDoA/localization scratch, slide storage) to each
//! pool participant. Immutable detection state — the
//! matched-filter template spectra and FFT tables of the detection
//! core — is built once per sample rate and shared across
//! every worker, so memory scales with *thread count × scratch*, not
//! *thread count × tables*.
//!
//! Parallelism is between sessions: each session runs start to finish
//! on one participant. [`MultiBeaconEngine`] is the K-beacon
//! counterpart for one capture — one banked detection per channel,
//! then each beacon's arrivals finish in turn through one warm
//! [`SessionEngine`].
//!
//! # Determinism
//!
//! Outcomes land in index-addressed slots (`out[i]` is always input
//! `i`'s outcome) and every session is processed by exactly one engine
//! whose computation does not depend on which worker ran it or what it
//! processed before (pinned by the engine-reuse tests in
//! [`crate::pipeline`]). The batch output is therefore bit-identical to
//! running [`SessionEngine::run_monitored`] sequentially over the same
//! inputs, at any thread count and under any schedule.
//!
//! # Isolation
//!
//! Each item gets [`SessionEngine::run_monitored_into`] semantics: a
//! session that fails records [`SessionOutcome::Failed`] in its own slot
//! and never poisons the rest of the batch.

use crate::asp::{BeaconArrival, DetectorCore, MultiBeaconDetector, MultiBeaconScratch};
use crate::config::{HyperEarConfig, MultiBeaconConfig};
use crate::pipeline::{check_capture, Capture, SessionEngine, SessionInput, SessionOutcome};
use crate::HyperEarError;
use hyperear_util::pool::{Pool, PoolStats};
use std::sync::Arc;

/// A batch session processor: one warm [`SessionEngine`] pinned per pool
/// participant, shared read-only detector cores, index-addressed
/// outcomes (see the [module docs](self)).
#[derive(Debug)]
pub struct BatchEngine {
    pool: Arc<Pool>,
    config: HyperEarConfig,
    /// One warm engine per pool participant, touched by exactly one
    /// thread at a time.
    workers: Vec<SessionEngine>,
    /// Shared detector cores by sample rate: built once on the calling
    /// thread, installed into every worker engine by `Arc` clone.
    cores: Vec<(f64, Arc<DetectorCore>)>,
}

impl BatchEngine {
    /// Creates a batch engine over a shared pool.
    ///
    /// One worker engine is built per pool participant; their detector
    /// state stays empty until the first batch reveals the sample rate.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid config.
    pub fn new(config: HyperEarConfig, pool: Arc<Pool>) -> Result<Self, HyperEarError> {
        config.validate()?;
        let workers = (0..pool.threads())
            .map(|_| SessionEngine::new(config.clone()))
            .collect::<Result<Vec<_>, HyperEarError>>()?;
        Ok(BatchEngine {
            pool,
            config,
            workers,
            cores: Vec::new(),
        })
    }

    /// Creates a batch engine over the process-wide [`Pool::global`]
    /// (sized by `HYPEREAR_THREADS`, default: available parallelism).
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid config.
    pub fn from_env(config: HyperEarConfig) -> Result<Self, HyperEarError> {
        BatchEngine::new(config, Arc::clone(Pool::global()))
    }

    /// Number of pool participants (and warm worker engines).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Cumulative telemetry of the underlying pool (tasks executed,
    /// per-worker busy time).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Bytes currently reserved across all worker engines' reusable
    /// working buffers — the steady-state footprint after a warm-up
    /// batch.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        self.workers
            .iter()
            .map(SessionEngine::working_set_bytes)
            .sum()
    }

    /// The shared detector core for a sample rate, building (and
    /// memoizing) it on the calling thread the first time that rate is
    /// seen.
    fn core_for(&mut self, sample_rate: f64) -> Result<Arc<DetectorCore>, HyperEarError> {
        if let Some((_, core)) = self.cores.iter().find(|(rate, _)| *rate == sample_rate) {
            return Ok(Arc::clone(core));
        }
        let core = Arc::new(DetectorCore::new(&self.config, sample_rate)?);
        self.cores.push((sample_rate, Arc::clone(&core)));
        Ok(core)
    }

    /// Deterministically warms **every** worker engine by running each
    /// of `inputs` through each of them on the calling thread.
    ///
    /// Which items a given worker claims is schedule-dependent, so a
    /// worker engine's scratch otherwise grows to its high-water mark
    /// only when the schedule happens to hand it the most demanding
    /// item — an allocation that can land many batches in. Worse, "most
    /// demanding" is not one dimension: capture-sized correlation
    /// buffers, beacon-count arrival lists and IMU-sized traces each
    /// peak on whichever item maximizes *that* buffer. Serving-style deployments that care about
    /// steady-state latency — and the zero-allocation gate — call this
    /// once with a representative workload; afterwards batches of
    /// sessions no more demanding than the warm-up set allocate
    /// nothing, regardless of schedule.
    pub fn warm<C: Capture>(&mut self, inputs: &[C]) {
        let mut slot = SessionOutcome::idle();
        for w in 0..self.workers.len() {
            for input in inputs {
                let core = self.core_for(input.parts().audio_sample_rate).ok();
                let engine = &mut self.workers[w];
                if let Some(core) = &core {
                    engine.install_detector_core(core);
                }
                engine.run_monitored_into(input, &mut slot);
            }
        }
    }

    /// Processes a batch, returning one outcome per input in input
    /// order.
    ///
    /// Convenience wrapper over [`BatchEngine::run_batch_into`].
    pub fn run_batch<C: Capture>(&mut self, inputs: &[C]) -> Vec<SessionOutcome> {
        let mut out = Vec::new();
        self.run_batch_into(inputs, &mut out);
        out
    }

    /// Processes a batch into a caller-owned outcome vector
    /// (`out[i]` is input `i`'s outcome; previous contents' result
    /// storage is scavenged and reused).
    ///
    /// Items are distributed across the pool participants; each runs
    /// under [`SessionEngine::run_monitored_into`] semantics on its
    /// worker's warm engine, so a failed session records `Failed` in its
    /// slot without affecting any other item. After a warm-up batch at a
    /// given sample rate and capture size, processing allocates nothing
    /// in steady state.
    pub fn run_batch_into<C: Capture>(&mut self, inputs: &[C], out: &mut Vec<SessionOutcome>) {
        // Build the shared detector cores for every distinct sample rate
        // up front, on this thread: workers then only `Arc`-clone them.
        // A rate the config cannot serve is left to fail per item, where
        // the error lands in that item's own slot.
        for input in inputs {
            let _ = self.core_for(input.parts().audio_sample_rate);
        }
        // Reuse outcome slots; `idle()` placeholders are heap-free.
        if out.len() > inputs.len() {
            out.truncate(inputs.len());
        }
        while out.len() < inputs.len() {
            out.push(SessionOutcome::idle());
        }
        let cores = &self.cores;
        let workers = &mut self.workers;
        self.pool
            .parallel_update(workers, out, |engine, idx, slot| {
                let input = &inputs[idx];
                let rate = input.parts().audio_sample_rate;
                if let Some((_, core)) = cores.iter().find(|(r, _)| *r == rate) {
                    engine.install_detector_core(core);
                }
                engine.run_monitored_into(input, slot);
            });
    }
}

/// A K-beacon session processor: one shared [`MultiBeaconDetector`]
/// front end (one forward FFT per block fanned across every beacon's
/// template) feeding one warm [`SessionEngine`] that finishes each
/// beacon in turn.
///
/// The two channels' banked detections are the two items of one pool
/// region ([`Pool::parallel_update`]) — one shared read-only detector,
/// and each channel's [`MultiBeaconScratch`] and arrival lanes pinned
/// to its item, so they stay warm whichever participant runs it. Each
/// beacon's arrivals then flow through the session engine's
/// post-detection chain (inertial analysis, rotation correction, SFO,
/// TDoA, aggregation) under the monitored grading contract, producing
/// one [`SessionOutcome`] per beacon. The per-beacon configurations
/// differ only in the chirp band and pattern, which nothing after
/// detection reads, so one engine built from
/// [`MultiBeaconConfig::session`] serves every beacon.
///
/// # Determinism
///
/// Outcomes are index-addressed by beacon (`out[k]` is signature `k`'s
/// outcome) and bit-identical at any thread count: the two items touch
/// disjoint channel state, and the per-beacon finishes run on this
/// thread in beacon order.
#[derive(Debug)]
pub struct MultiBeaconEngine {
    pool: Arc<Pool>,
    config: MultiBeaconConfig,
    /// The warm post-detection engine every beacon finishes through.
    engine: SessionEngine,
    /// Shared detection front ends by sample rate, like
    /// [`BatchEngine`]'s core memo.
    detectors: Vec<(f64, Arc<MultiBeaconDetector>)>,
    /// Left and right channel, one region item each.
    channels: [Channel; 2],
}

/// One channel's banked-detection state: its scratch, its K arrival
/// lanes, and the result of its last detection.
#[derive(Debug)]
struct Channel {
    scratch: MultiBeaconScratch,
    arrivals: Vec<Vec<BeaconArrival>>,
    result: Result<(), HyperEarError>,
}

impl Channel {
    fn new(beacons: usize) -> Self {
        Channel {
            scratch: MultiBeaconScratch::new(),
            arrivals: vec![Vec::new(); beacons],
            result: Ok(()),
        }
    }

    fn capacity_bytes(&self) -> usize {
        self.scratch.capacity_bytes()
            + self.arrivals.iter().map(Vec::capacity).sum::<usize>()
                * std::mem::size_of::<BeaconArrival>()
    }
}

impl MultiBeaconEngine {
    /// Creates a K-beacon engine over a shared pool.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid
    /// configuration.
    pub fn new(config: MultiBeaconConfig, pool: Arc<Pool>) -> Result<Self, HyperEarError> {
        config.validate()?;
        let k = config.beacons();
        let engine = SessionEngine::new(config.session.clone())?;
        Ok(MultiBeaconEngine {
            pool,
            config,
            engine,
            detectors: Vec::new(),
            channels: [Channel::new(k), Channel::new(k)],
        })
    }

    /// Number of beacons (and per-beacon outcomes per session).
    #[must_use]
    pub fn beacons(&self) -> usize {
        self.config.beacons()
    }

    /// The shared detection front end for a sample rate, building (and
    /// memoizing) it the first time that rate is seen.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for a rate that
    /// cannot carry every signature's chirp band.
    pub fn detector_for(
        &mut self,
        sample_rate: f64,
    ) -> Result<Arc<MultiBeaconDetector>, HyperEarError> {
        if let Some((_, det)) = self.detectors.iter().find(|(rate, _)| *rate == sample_rate) {
            return Ok(Arc::clone(det));
        }
        let det = Arc::new(MultiBeaconDetector::new(&self.config, sample_rate)?);
        self.detectors.push((sample_rate, Arc::clone(&det)));
        Ok(det)
    }

    /// Bytes currently reserved across the engine's reusable working
    /// buffers (the session engine's, detection scratches, arrival
    /// lists).
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        self.engine.working_set_bytes()
            + self
                .channels
                .iter()
                .map(Channel::capacity_bytes)
                .sum::<usize>()
    }

    /// Processes one K-beacon session into a caller-owned outcome
    /// vector (`out[k]` is signature `k`'s outcome; previous contents'
    /// result storage is scavenged and reused).
    ///
    /// One banked detection pass per channel — the two channels are a
    /// two-item pool region, run concurrently on a multi-thread pool —
    /// then each beacon's arrivals finish in turn through the warm
    /// session engine. A beacon whose session fails (e.g. its band is
    /// masked by interference) records `Failed` in its own slot without
    /// affecting the other beacons. After a warm-up session at a given
    /// sample rate and capture size, processing allocates nothing in
    /// steady state.
    pub fn run_session_into(&mut self, input: &SessionInput<'_>, out: &mut Vec<SessionOutcome>) {
        let k = self.beacons();
        if out.len() > k {
            out.truncate(k);
        }
        while out.len() < k {
            out.push(SessionOutcome::idle());
        }
        let detected = check_capture(
            &[input.left, input.right],
            input.audio_sample_rate,
            input.imu_sample_rate,
        )
        .and_then(|()| self.detector_for(input.audio_sample_rate))
        .and_then(|detector| {
            // Banked detection, one region item per channel: the
            // detector is shared read-only, each item owns its channel's
            // scratch and lanes. The contexts are zero-sized, so the
            // vector never allocates.
            let samples = [input.left, input.right];
            let mut participants = vec![(); self.pool.threads()];
            self.pool
                .parallel_update(&mut participants, &mut self.channels, |(), i, ch| {
                    let Channel {
                        scratch,
                        arrivals,
                        result,
                    } = ch;
                    for lane in arrivals.iter_mut() {
                        lane.clear();
                    }
                    *result = detector.detect_into(samples[i], scratch, arrivals);
                });
            let [left, right] = &mut self.channels;
            std::mem::replace(&mut left.result, Ok(()))
                .and(std::mem::replace(&mut right.result, Ok(())))
        });
        if let Err(reason) = detected {
            // The whole front end is unusable (bad input, a rate the
            // bank cannot serve, a detection error): every beacon fails
            // with the same typed reason.
            for slot in out.iter_mut() {
                *slot = SessionOutcome::Failed {
                    reason: reason.clone(),
                    diagnostics: None,
                };
            }
            return;
        }
        // Per-beacon session finishes, in beacon order on this thread
        // (cheap next to detection; deterministic at any thread count).
        let [left, right] = &self.channels;
        let lanes = left.arrivals.iter().zip(&right.arrivals);
        for (slot, (lane_left, lane_right)) in out.iter_mut().zip(lanes) {
            self.engine.monitored_with(slot, |engine, result| {
                let (arr_left, arr_right) = engine.arrivals_mut();
                lane_left.clone_into(arr_left);
                lane_right.clone_into(arr_right);
                engine.finish_from_arrivals(
                    input.audio_sample_rate,
                    input.left.len(),
                    input.imu_sample_rate,
                    input.accel,
                    input.gyro,
                    result,
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperear_sim::environment::Environment;
    use hyperear_sim::phone::PhoneModel;
    use hyperear_sim::scenario::ScenarioBuilder;
    use hyperear_sim::speaker::SpeakerModel;

    #[test]
    fn one_tail_engine_matches_per_beacon_engines() {
        const BEACONS: usize = 4;
        let mut builder = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .environment(Environment::anechoic())
            .speaker_model(SpeakerModel::new().with_signature(0, BEACONS))
            .speaker_range(3.0)
            .slides(3)
            .seed(20);
        for k in 1..BEACONS {
            builder = builder.co_speaker(
                SpeakerModel::new().with_signature(k, BEACONS),
                1.5 + k as f64,
            );
        }
        let rec = builder.render().unwrap();
        let input = SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        };
        let config = MultiBeaconConfig::distinct_bands(HyperEarConfig::galaxy_s4(), BEACONS);
        let mut engine = MultiBeaconEngine::new(config.clone(), Arc::new(Pool::new(1))).unwrap();
        let mut out = Vec::new();
        engine.run_session_into(&input, &mut out);
        assert_eq!(out.len(), BEACONS);
        assert!(out.iter().any(SessionOutcome::is_usable), "{out:?}");
        // The reference: a fresh engine per beacon, built from that
        // beacon's own configuration, finishing the same lane.
        for (k, got) in out.iter().enumerate() {
            let mut solo = SessionEngine::new(config.session_config(k)).unwrap();
            let mut want = SessionOutcome::idle();
            solo.monitored_with(&mut want, |solo, result| {
                let (left, right) = solo.arrivals_mut();
                left.clone_from(&engine.channels[0].arrivals[k]);
                right.clone_from(&engine.channels[1].arrivals[k]);
                solo.finish_from_arrivals(
                    input.audio_sample_rate,
                    input.left.len(),
                    input.imu_sample_rate,
                    input.accel,
                    input.gyro,
                    result,
                )
            });
            assert_eq!(*got, want, "beacon {k}");
        }
    }
}
