//! Deterministic parallel batch session processing.
//!
//! [`BatchEngine`] processes a slice of session captures (stereo
//! [`SessionInput`]s or N-microphone
//! [`crate::pipeline::ArraySessionInput`]s) across a
//! work-stealing [`Pool`], pinning one warm [`SessionEngine`] (with all
//! of its scratch — detector buffers, TDoA/localization scratch, slide
//! storage) to each pool participant. Immutable detection state — the
//! matched-filter template spectra and FFT tables inside a
//! [`DetectorCore`] — is built once per sample rate and shared across
//! every worker, so memory scales with *thread count × scratch*, not
//! *thread count × tables*.
//!
//! # Determinism
//!
//! Outcomes land in index-addressed slots (`out[i]` is always input
//! `i`'s outcome) and every session is processed by exactly one engine
//! whose computation does not depend on which worker ran it or what it
//! processed before (pinned by the engine-reuse tests in
//! [`crate::pipeline`]). The batch output is therefore bit-identical to
//! running [`SessionEngine::run_monitored`] sequentially over the same
//! inputs, at any thread count and under any steal schedule.
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
use std::sync::{Arc, Mutex, PoisonError};

/// One pool participant's processing state: a warm session engine whose
/// scratch is touched by exactly one thread at a time.
#[derive(Debug)]
struct BatchWorker {
    engine: SessionEngine,
}

/// A batch session processor: one warm [`SessionEngine`] pinned per pool
/// participant, shared read-only detector cores, index-addressed
/// outcomes (see the [module docs](self)).
#[derive(Debug)]
pub struct BatchEngine {
    pool: Arc<Pool>,
    config: HyperEarConfig,
    workers: Vec<BatchWorker>,
    /// Shared detector cores by sample rate: built once on the calling
    /// thread, installed into every worker engine by `Arc` clone.
    cores: Mutex<Vec<(f64, Arc<DetectorCore>)>>,
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
            .map(|_| {
                Ok(BatchWorker {
                    engine: SessionEngine::new(config.clone())?,
                })
            })
            .collect::<Result<Vec<_>, HyperEarError>>()?;
        Ok(BatchEngine {
            pool,
            config,
            workers,
            cores: Mutex::new(Vec::new()),
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
    /// steals, per-worker busy time).
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
            .map(|w| w.engine.working_set_bytes())
            .sum()
    }

    /// The shared detector core for a sample rate, building (and
    /// memoizing) it on the calling thread the first time that rate is
    /// seen.
    fn core_for(&self, sample_rate: f64) -> Result<Arc<DetectorCore>, HyperEarError> {
        let mut cores = self.cores.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, core)) = cores.iter().find(|(rate, _)| *rate == sample_rate) {
            return Ok(Arc::clone(core));
        }
        let core = Arc::new(DetectorCore::new(&self.config, sample_rate)?);
        cores.push((sample_rate, Arc::clone(&core)));
        Ok(core)
    }

    /// Deterministically warms **every** worker engine by running each
    /// of `inputs` through each of them on the calling thread.
    ///
    /// Under work stealing, which items a given worker claims is
    /// schedule-dependent, so a worker engine's scratch otherwise grows
    /// to its high-water mark only when the steal schedule happens to
    /// hand it the most demanding item — an allocation that can land
    /// many batches in. Worse, "most demanding" is not one dimension:
    /// capture-sized correlation buffers, beacon-count arrival lists
    /// and IMU-sized traces each peak on whichever item maximizes
    /// *that* buffer. Serving-style deployments that care about
    /// steady-state latency — and the zero-allocation gate — call this
    /// once with a representative workload; afterwards batches of
    /// sessions no more demanding than the warm-up set allocate
    /// nothing, regardless of steal schedule.
    pub fn warm<C: Capture>(&mut self, inputs: &[C]) {
        let mut slot = SessionOutcome::idle();
        for w in 0..self.workers.len() {
            for input in inputs {
                let core = self.core_for(input.parts().audio_sample_rate).ok();
                let worker = &mut self.workers[w];
                if let Some(core) = &core {
                    worker.engine.install_detector_core(core);
                }
                worker.engine.run_monitored_into(input, &mut slot);
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
        let cores = self.cores.lock().unwrap_or_else(PoisonError::into_inner);
        let workers = &mut self.workers;
        self.pool
            .parallel_update(workers, out, |worker, idx, slot| {
                let input = &inputs[idx];
                let rate = input.parts().audio_sample_rate;
                if let Some((_, core)) = cores.iter().find(|(r, _)| *r == rate) {
                    worker.engine.install_detector_core(core);
                }
                worker.engine.run_monitored_into(input, slot);
            });
    }
}

/// A K-beacon session processor: one shared [`MultiBeaconDetector`]
/// front end (one forward FFT per block fanned across every beacon's
/// template) feeding K warm per-beacon [`SessionEngine`]s.
///
/// Detection of the two channels runs pool-parallel via [`Pool::join`]
/// — one shared read-only detector, one private [`MultiBeaconScratch`]
/// per channel, the same split the single-beacon [`SessionEngine`]
/// uses. Each beacon's arrivals then flow through its own session
/// engine's post-detection chain (inertial analysis, rotation
/// correction, SFO, TDoA, aggregation) under the monitored grading
/// contract, producing one [`SessionOutcome`] per beacon.
///
/// # Determinism
///
/// Outcomes are index-addressed by beacon (`out[k]` is signature `k`'s
/// outcome) and bit-identical at any thread count: the join's two sides
/// touch disjoint scratches, and the per-beacon finishes run on this
/// thread in beacon order.
#[derive(Debug)]
pub struct MultiBeaconEngine {
    pool: Arc<Pool>,
    config: MultiBeaconConfig,
    /// One warm session engine per beacon, built from that beacon's
    /// [`MultiBeaconConfig::session_config`].
    engines: Vec<SessionEngine>,
    /// Shared detection front ends by sample rate, like
    /// [`BatchEngine`]'s core memo.
    detectors: Mutex<Vec<(f64, Arc<MultiBeaconDetector>)>>,
    scratch_left: MultiBeaconScratch,
    scratch_right: MultiBeaconScratch,
    arrivals_left: Vec<Vec<BeaconArrival>>,
    arrivals_right: Vec<Vec<BeaconArrival>>,
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
        let engines = (0..k)
            .map(|i| SessionEngine::new(config.session_config(i)))
            .collect::<Result<Vec<_>, HyperEarError>>()?;
        Ok(MultiBeaconEngine {
            pool,
            config,
            engines,
            detectors: Mutex::new(Vec::new()),
            scratch_left: MultiBeaconScratch::new(),
            scratch_right: MultiBeaconScratch::new(),
            arrivals_left: vec![Vec::new(); k],
            arrivals_right: vec![Vec::new(); k],
        })
    }

    /// Number of beacons (and per-beacon outcomes per session).
    #[must_use]
    pub fn beacons(&self) -> usize {
        self.engines.len()
    }

    /// The shared detection front end for a sample rate, building (and
    /// memoizing) it on the calling thread the first time that rate is
    /// seen.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for a rate that
    /// cannot carry every signature's chirp band.
    pub fn detector_for(
        &self,
        sample_rate: f64,
    ) -> Result<Arc<MultiBeaconDetector>, HyperEarError> {
        let mut detectors = self
            .detectors
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, det)) = detectors.iter().find(|(rate, _)| *rate == sample_rate) {
            return Ok(Arc::clone(det));
        }
        let det = Arc::new(MultiBeaconDetector::new(&self.config, sample_rate)?);
        detectors.push((sample_rate, Arc::clone(&det)));
        Ok(det)
    }

    /// Bytes currently reserved across the engine's reusable working
    /// buffers (per-beacon session engines, detection scratches,
    /// arrival lists).
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        self.engines
            .iter()
            .map(SessionEngine::working_set_bytes)
            .sum::<usize>()
            + self.scratch_left.capacity_bytes()
            + self.scratch_right.capacity_bytes()
            + (self
                .arrivals_left
                .iter()
                .chain(&self.arrivals_right)
                .map(Vec::capacity)
                .sum::<usize>())
                * std::mem::size_of::<BeaconArrival>()
    }

    /// Processes one K-beacon session into a caller-owned outcome
    /// vector (`out[k]` is signature `k`'s outcome; previous contents'
    /// result storage is scavenged and reused).
    ///
    /// One banked detection pass per channel — the two channels run
    /// concurrently via [`Pool::join`] under an attached multi-thread
    /// pool — then each beacon's arrivals finish through its own warm
    /// session engine. A beacon whose session fails (e.g. its band is
    /// masked by interference) records `Failed` in its own slot without
    /// affecting the other beacons. After a warm-up session at a given
    /// sample rate and capture size, processing allocates nothing in
    /// steady state.
    pub fn run_session_into(&mut self, input: &SessionInput<'_>, out: &mut Vec<SessionOutcome>) {
        let k = self.engines.len();
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
            for lane in self
                .arrivals_left
                .iter_mut()
                .chain(&mut self.arrivals_right)
            {
                lane.clear();
            }
            // Banked detection, both channels concurrently: the detector
            // is shared read-only, each side owns its scratch and lanes.
            let scratch_left = &mut self.scratch_left;
            let scratch_right = &mut self.scratch_right;
            let arrivals_left = &mut self.arrivals_left;
            let arrivals_right = &mut self.arrivals_right;
            let det = &*detector;
            let (r_left, r_right) = self.pool.join(
                || det.detect_into(input.left, scratch_left, arrivals_left),
                || det.detect_into(input.right, scratch_right, arrivals_right),
            );
            r_left.and(r_right)
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
        for (k, (engine, slot)) in self.engines.iter_mut().zip(out.iter_mut()).enumerate() {
            let lane_left = &self.arrivals_left[k];
            let lane_right = &self.arrivals_right[k];
            engine.monitored_with(slot, |engine, result| {
                let (arr_left, arr_right) = engine.arrivals_mut();
                arr_left.clear();
                arr_left.extend_from_slice(lane_left);
                arr_right.clear();
                arr_right.extend_from_slice(lane_right);
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
