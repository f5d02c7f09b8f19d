//! Real-time streaming session service.
//!
//! The one-shot [`crate::pipeline::SessionEngine`] wants the whole
//! capture up front; a phone records PCM a few milliseconds at a time.
//! This module closes that gap with an online front end that accepts
//! audio in arbitrary-size chunks, runs matched-filter beacon detection
//! incrementally (bit-identical to the one-shot detector for any
//! chunking), and finishes each session through the exact same
//! post-detection pipeline as a one-shot session — so a streamed session's
//! [`SessionOutcome`] is **equal** to the outcome of handing the whole
//! capture to [`SessionEngine::run_monitored`].
//!
//! # Bounded memory
//!
//! A session owns state; a worker owns scratch. Each session holds only
//! what must live from open to finish, sized at construction from
//! [`StreamConfig`] and never grown afterwards: two
//! fixed-capacity PCM ring buffers that decouple the caller from the
//! worker pool, IMU traces capped at `max_imu_samples`, and two
//! streaming detectors, each a chunk feed plus the decimated correlation
//! and the arrival list reserved for `max_samples` (the threshold needs
//! the exact median of the whole correlation envelope, so it is kept
//! until the finish). Everything a pump borrows only while it runs —
//! the FFT arena, and the envelope, sort keys, candidates, rebuild
//! window and spectrum of the finish — lives in one workspace per pool
//! participant, sized up front for the longest capture whenever a
//! detector core is built, so no warm pump allocates on any worker,
//! whatever the schedule. The post-detection tail runs through
//! one [`SessionEngine`] the service owns, on the thread that calls
//! [`StreamService::pump`]. The working set is a function of the
//! *configuration* and the pool width, not of how many samples have
//! been ingested — pinned by the allocation-gate test;
//! [`StreamService::footprint`] splits it by owner.
//!
//! # Backpressure and admission control
//!
//! Offered load above capacity is rejected with *typed* errors, never
//! absorbed into unbounded queues:
//!
//! - [`AdmissionError::Busy`] — all session slots are occupied;
//!   callers retry after an outcome is collected.
//! - [`StreamError::Shed`] — a PCM chunk does not fit in the session's
//!   ring; nothing is ingested (all-or-nothing), callers retry after
//!   [`StreamService::pump`] drains the rings.
//! - [`HyperEarError::CapacityExceeded`] — a capture exceeds the
//!   provisioned `max_samples`/`max_imu_samples`; the session fails
//!   sticky and reports the reason in its `Failed` outcome.
//!
//! # Determinism
//!
//! Shed and admission decisions happen on the caller's thread from
//! caller-visible state, each session's detection lives in
//! session-owned buffers touched by one worker at a time, and the tails
//! run in slot order on the calling thread after the parallel region,
//! so a given call sequence produces identical outcomes *and identical
//! shedding* at any pool width.
//!
//! # Microphone arrays
//!
//! Streaming ingest is two-channel: it serves the phone's stereo
//! recording path, which is also the only real-time capture the paper's
//! hardware offers, and it finishes the primary pair (channels 0 and 1)
//! exactly as the one-shot engine does for a stereo capture.
//! N-microphone [`hyperear_geom::MicArray`] captures (and the DOA
//! front-ends that ride on them) go through the one-shot
//! [`SessionEngine::run_into`] or the batch
//! [`crate::batch::BatchEngine::run_batch_into`] with an
//! [`crate::pipeline::ArraySessionInput`] instead; the extra
//! [`crate::pipeline::SessionResult`] fields those populate
//! (`pair_delays`, `bearing`) simply pass through a streamed outcome
//! empty/`None`.
//!
//! ```
//! use hyperear::config::HyperEarConfig;
//! use hyperear::stream::{StreamConfig, StreamService};
//! use hyperear_sim::{phone::PhoneModel, scenario::ScenarioBuilder};
//! use hyperear_util::pool::Pool;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
//!     .speaker_range(3.0)
//!     .slides(1)
//!     .seed(7)
//!     .render()?;
//! let pool = Arc::new(Pool::new(2));
//! let cfg = StreamConfig::for_pool(&pool);
//! let mut svc = StreamService::new(HyperEarConfig::galaxy_s4(), cfg, pool)?;
//!
//! let id = svc.open(rec.audio.sample_rate, rec.imu.sample_rate)?;
//! svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro)?;
//! for (l, r) in rec.audio.left.chunks(4096).zip(rec.audio.right.chunks(4096)) {
//!     svc.push_audio(id, l, r)?;
//!     svc.pump(); // drain rings into the detectors on the pool
//! }
//! let mut outcome = hyperear::pipeline::SessionOutcome::idle();
//! svc.finish(id, &mut outcome)?;
//! assert!(outcome.result().is_some());
//! # Ok(())
//! # }
//! ```

use crate::asp::{DetectScratch, DetectorCore, StreamingDetector, WorkspaceSizing};
use crate::config::HyperEarConfig;
use crate::pipeline::{check_rates, SessionEngine, SessionOutcome, SessionResult};
use crate::HyperEarError;
use hyperear_geom::Vec3;
use hyperear_util::pool::Pool;
use std::fmt;
use std::sync::Arc;

/// Sizing for a [`StreamService`] and its sessions. Every limit is a
/// hard bound fixed at construction; see the [module docs](self).
///
/// Each limit must lie in `1..=` its maximum:
/// [`StreamConfig::MAX_SESSIONS`] slots and
/// [`StreamConfig::MAX_CAPACITY`] samples for each of `ring_capacity`,
/// `max_samples` and `max_imu_samples`. Together they must also fit the
/// byte budget [`StreamConfig::MAX_RESERVED_BYTES`], which counts every
/// buffer these limits size at its worst case:
///
/// - a session reserves at most `16·ring_capacity + 32·max_samples +
///   48·max_imu_samples` bytes: two `f64` PCM rings, two detectors'
///   complex correlations of one 16-byte lag per sample (a wide-band
///   beacon is not decimated), and the accelerometer and gyroscope
///   traces of three `f64`s a sample;
/// - each pool participant's workspace reserves at most
///   `32·(max_samples + 1)` bytes — an envelope value, a sort key and at
///   most half a candidate peak and its copy per lag — or
///   `112·(max_samples + 1)` under a weighting initial estimator, whose
///   spectrum and weighted copy (a power-of-two transform: under two
///   16-byte bins per sample each) and complex guide come on top.
///
/// `max_sessions` sessions and the service's participants must fit
/// together. [`StreamService::new`] rejects anything else with
/// [`HyperEarError::InvalidParameter`], so no accepted sizing makes the
/// service reserve more than the budget for these buffers. Buffers that
/// the beacon sets rather than the sizing come on top: each detector's
/// chunk feed and each workspace's FFT arena hold an FFT block or two,
/// each detector's arrival list holds the most beacons a capture can
/// carry, and the service's one post-detection engine holds per-slide
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Concurrent session slots. Opening beyond this sheds with
    /// [`AdmissionError::Busy`].
    pub max_sessions: usize,
    /// Per-channel PCM ring capacity, samples. A push that does not fit
    /// sheds with [`StreamError::Shed`].
    pub ring_capacity: usize,
    /// Longest accepted capture, samples per channel. Ingesting beyond
    /// this fails the session with [`HyperEarError::CapacityExceeded`].
    pub max_samples: usize,
    /// Longest accepted IMU trace, samples.
    pub max_imu_samples: usize,
}

impl StreamConfig {
    /// The largest accepted [`StreamConfig::max_sessions`].
    pub const MAX_SESSIONS: usize = 1 << 12;

    /// The largest accepted `ring_capacity`, `max_samples` and
    /// `max_imu_samples`: 2^26 samples, 25 minutes of 44.1 kHz audio in
    /// a 512 MiB buffer.
    pub const MAX_CAPACITY: usize = 1 << 26;

    /// The largest accepted total of the buffers every session slot
    /// reserves when open: 16 GiB.
    pub const MAX_RESERVED_BYTES: u64 = 1 << 34;

    /// A conservative sizing for `pool`: `8 × threads` session slots,
    /// or fewer where that many would exceed
    /// [`StreamConfig::MAX_RESERVED_BYTES`] (so offered load beyond that
    /// queues at admission, which is the backpressure story, not silent
    /// memory growth), ~0.7 s of 48 kHz audio per ring, 20 s captures,
    /// 30 s of 500 Hz IMU. The workspaces are counted at their weighting
    /// worst case, whatever estimator the service will run.
    #[must_use]
    pub fn for_pool(pool: &Pool) -> Self {
        let mut cfg = StreamConfig {
            max_sessions: 1,
            ring_capacity: 32_768,
            max_samples: 960_000,
            max_imu_samples: 15_000,
        };
        let fits = cfg
            .workspace_bytes(true)
            .and_then(|w| w.checked_mul(pool.threads() as u64))
            .and_then(|w| Self::MAX_RESERVED_BYTES.checked_sub(w))
            .zip(cfg.session_bytes())
            .map_or(0, |(left, session)| left / session);
        cfg.max_sessions = (8 * pool.threads())
            .min(Self::MAX_SESSIONS)
            .min(usize::try_from(fits).unwrap_or(usize::MAX))
            .max(1);
        cfg
    }

    /// The most bytes one open session reserves for the buffers these
    /// limits size, or `None` if that overflows `u64`.
    fn session_bytes(&self) -> Option<u64> {
        // Per sample: one f64 per PCM ring; one complex lag per
        // detector's correlation; three f64s per IMU trace.
        bytes(self.ring_capacity, 2 * 8)?
            .checked_add(bytes(self.max_samples, 2 * 16)?)?
            .checked_add(bytes(self.max_imu_samples, 2 * 3 * 8)?)
    }

    /// The most bytes one participant's workspace reserves for the
    /// buffers these limits size (`weighting`: under a weighting initial
    /// estimator), or `None` if that overflows `u64`.
    fn workspace_bytes(&self, weighting: bool) -> Option<u64> {
        // Per lag: an envelope value and a sort key, and 16-byte
        // candidates and their copy for at most every other lag. A
        // weighting estimator adds a spectrum and its weighted copy of
        // under two 16-byte bins per lag, and a complex guide.
        bytes(self.max_samples + 1, if weighting { 112 } else { 32 })
    }

    /// The budget [`StreamConfig::MAX_RESERVED_BYTES`] holds to:
    /// `max_sessions` sessions and `participants` workspaces.
    fn reserved_bytes(&self, participants: usize, weighting: bool) -> Option<u64> {
        self.session_bytes()?
            .checked_mul(self.max_sessions as u64)?
            .checked_add(
                self.workspace_bytes(weighting)?
                    .checked_mul(participants as u64)?,
            )
    }

    fn validate(&self, participants: usize, weighting: bool) -> Result<(), HyperEarError> {
        for (name, value, max) in [
            ("max_sessions", self.max_sessions, Self::MAX_SESSIONS),
            ("ring_capacity", self.ring_capacity, Self::MAX_CAPACITY),
            ("max_samples", self.max_samples, Self::MAX_CAPACITY),
            ("max_imu_samples", self.max_imu_samples, Self::MAX_CAPACITY),
        ] {
            if !(1..=max).contains(&value) {
                return Err(HyperEarError::invalid(
                    name,
                    format!("{value} is outside 1..={max}"),
                ));
            }
        }
        let budget = Self::MAX_RESERVED_BYTES;
        match self.reserved_bytes(participants, weighting) {
            Some(total) if total <= budget => Ok(()),
            _ => Err(HyperEarError::invalid(
                "stream capacities",
                format!(
                    "every session's and worker's buffers together exceed the {budget}-byte budget"
                ),
            )),
        }
    }
}

/// `samples × per_sample` bytes, or `None` if that overflows `u64`.
fn bytes(samples: usize, per_sample: u64) -> Option<u64> {
    u64::try_from(samples).ok()?.checked_mul(per_sample)
}

/// Where a [`StreamService`]'s reserved bytes live
/// ([`StreamService::footprint`]): each session's state, the one tail
/// engine, and one detection workspace per pool participant, shared by
/// every session that participant pumps. Each formula is computed from
/// the sizing and the detector core's geometry, not read off the
/// buffers, so a buffer that grew past its reservation (or a workspace
/// that a session grew for itself) shows as a difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFootprint {
    /// Sessions holding buffers, live and parked.
    pub sessions: usize,
    /// Bytes the sessions' state reserves: two PCM rings, two IMU
    /// traces, and two detectors' chunk feeds, decimated correlations
    /// and arrival lists.
    pub state_bytes: usize,
    /// What `state_bytes` is by formula, summed over the sessions: per
    /// session `16·ring_capacity + 48·max_imu_samples`, and per detector
    /// 16 bytes per decimated lag of `max_samples`, its feed's FFT block
    /// pair and its arrival list's bound.
    pub state_formula: usize,
    /// Bytes the service's one post-detection engine reserves, as
    /// [`SessionEngine::working_set_bytes`] counts them: in practice its
    /// TDoA scratch and arrival lists, since sessions detect in their
    /// own detectors. The inertial, SFO and localization buffers are not
    /// counted.
    pub engine_bytes: usize,
    /// Pool participants, one workspace each.
    pub participants: usize,
    /// Bytes the workspaces reserve together.
    pub workspace_bytes: usize,
    /// What one workspace reserves by formula: the FFT arena of one
    /// block, and the finish's buffers over the decimated lags of
    /// `max_samples`, for the largest of the service's detector cores.
    pub workspace_formula: usize,
}

/// Why [`StreamService::open`] refused a new session.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// Every session slot is occupied; retry after collecting an
    /// outcome.
    Busy {
        /// Sessions currently active.
        active: usize,
        /// Configured [`StreamConfig::max_sessions`].
        capacity: usize,
    },
    /// The session parameters were invalid (bad sample rate, or the
    /// detector for that rate could not be built).
    Rejected(HyperEarError),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Busy { active, capacity } => {
                write!(f, "service busy: {active}/{capacity} sessions active")
            }
            AdmissionError::Rejected(e) => write!(f, "session rejected: {e}"),
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::Rejected(e) => Some(e),
            AdmissionError::Busy { .. } => None,
        }
    }
}

impl From<HyperEarError> for AdmissionError {
    fn from(e: HyperEarError) -> Self {
        AdmissionError::Rejected(e)
    }
}

/// Why a per-session call failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StreamError {
    /// The chunk does not fit in the session's PCM ring right now;
    /// nothing was ingested. Retry after [`StreamService::pump`].
    Shed {
        /// Samples offered per channel.
        offered: usize,
        /// Ring space free per channel.
        free: usize,
    },
    /// The left and right chunks had different lengths.
    ChannelMismatch {
        /// Left chunk length.
        left: usize,
        /// Right chunk length.
        right: usize,
    },
    /// The accel and gyro chunks had different lengths.
    ImuMismatch {
        /// Accelerometer chunk length.
        accel: usize,
        /// Gyroscope chunk length.
        gyro: usize,
    },
    /// No session with this id is active (never opened, already
    /// collected, or its slot was recycled).
    UnknownSession,
    /// The session already failed; the reason is sticky and will be the
    /// `Failed` outcome's reason.
    SessionFailed(HyperEarError),
    /// Ingestion after [`StreamService::request_finish`].
    FinishPending,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Shed { offered, free } => {
                write!(
                    f,
                    "chunk shed: offered {offered} samples, ring has {free} free"
                )
            }
            StreamError::ChannelMismatch { left, right } => {
                write!(f, "channel length mismatch: left {left}, right {right}")
            }
            StreamError::ImuMismatch { accel, gyro } => {
                write!(f, "imu length mismatch: accel {accel}, gyro {gyro}")
            }
            StreamError::UnknownSession => write!(f, "unknown or already collected session"),
            StreamError::SessionFailed(e) => write!(f, "session already failed: {e}"),
            StreamError::FinishPending => write!(f, "session finish already requested"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::SessionFailed(e) => Some(e),
            _ => None,
        }
    }
}

/// Handle to an open streaming session. Ids are generation-checked:
/// once the outcome is collected the slot's epoch advances and stale
/// ids report [`StreamError::UnknownSession`] instead of aliasing a
/// later session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    index: u32,
    epoch: u32,
}

/// Fixed-capacity PCM ring buffer. Pushes are all-or-nothing (a chunk
/// that does not fit is refused whole, so shedding never tears a
/// chunk); draining consumes everything and leaves the head where the
/// data ended, so sustained streaming continually exercises the wrap.
#[derive(Debug)]
struct PcmRing {
    buf: Box<[f64]>,
    head: usize,
    len: usize,
}

impl PcmRing {
    fn new(capacity: usize) -> Self {
        PcmRing {
            buf: vec![0.0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn free(&self) -> usize {
        self.buf.len() - self.len
    }

    /// Appends `data` if it fits; returns `false` (ingesting nothing)
    /// otherwise.
    fn push(&mut self, data: &[f64]) -> bool {
        if data.len() > self.free() {
            return false;
        }
        let cap = self.buf.len();
        let tail = (self.head + self.len) % cap;
        let first = data.len().min(cap - tail);
        self.buf[tail..tail + first].copy_from_slice(&data[..first]);
        self.buf[..data.len() - first].copy_from_slice(&data[first..]);
        self.len += data.len();
        true
    }

    /// The buffered samples in push order as up to two slices.
    fn as_slices(&self) -> (&[f64], &[f64]) {
        let cap = self.buf.len();
        let first = self.len.min(cap - self.head);
        (
            &self.buf[self.head..self.head + first],
            &self.buf[..self.len - first],
        )
    }

    /// Marks everything consumed; the head advances past the drained
    /// data (it does *not* reset to zero — see the type docs).
    fn consume_all(&mut self) {
        self.head = (self.head + self.len) % self.buf.len();
        self.len = 0;
    }

    fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    fn capacity_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f64>()
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepting audio and IMU chunks.
    Ingest,
    /// Finish requested; the next [`StreamService::pump`] finalizes.
    FinishRequested,
    /// Outcome ready for [`StreamService::try_take_outcome`].
    Done,
}

/// One streaming session's complete state: detectors, rings, IMU
/// storage, sticky failure and outcome. Owned by exactly one slot and
/// touched by one worker at a time, which is what makes the service
/// deterministic under any schedule. The scratch a pump works in
/// is the worker's, and the tail engine the service's, not the
/// session's.
#[derive(Debug)]
struct StreamSession {
    det_left: StreamingDetector,
    det_right: StreamingDetector,
    ring_left: PcmRing,
    ring_right: PcmRing,
    accel: Vec<Vec3>,
    gyro: Vec<Vec3>,
    audio_rate: f64,
    imu_rate: f64,
    /// Samples per channel accepted into the rings so far (the
    /// caller-side capacity gate, so overflow is detected at push time
    /// on the caller's thread, independent of pump cadence).
    audio_accepted: usize,
    failure: Option<HyperEarError>,
    phase: Phase,
    outcome: SessionOutcome,
}

impl StreamSession {
    fn new(stream: &StreamConfig, core: &Arc<DetectorCore>) -> Result<Self, HyperEarError> {
        Ok(StreamSession {
            det_left: StreamingDetector::new(Arc::clone(core), stream.max_samples)?,
            det_right: StreamingDetector::new(Arc::clone(core), stream.max_samples)?,
            ring_left: PcmRing::new(stream.ring_capacity),
            ring_right: PcmRing::new(stream.ring_capacity),
            accel: Vec::with_capacity(stream.max_imu_samples),
            gyro: Vec::with_capacity(stream.max_imu_samples),
            audio_rate: 0.0,
            imu_rate: 0.0,
            audio_accepted: 0,
            failure: None,
            phase: Phase::Ingest,
            outcome: SessionOutcome::idle(),
        })
    }

    /// Rearms a parked session for a fresh capture, rebuilding the
    /// detectors only if the sample rate (and thus the shared core)
    /// changed.
    fn reopen(
        &mut self,
        stream: &StreamConfig,
        core: &Arc<DetectorCore>,
        audio_rate: f64,
        imu_rate: f64,
    ) -> Result<(), HyperEarError> {
        if !Arc::ptr_eq(self.det_left.core(), core) {
            self.det_left = StreamingDetector::new(Arc::clone(core), stream.max_samples)?;
            self.det_right = StreamingDetector::new(Arc::clone(core), stream.max_samples)?;
        } else {
            self.det_left.reset();
            self.det_right.reset();
        }
        self.ring_left.reset();
        self.ring_right.reset();
        self.accel.clear();
        self.gyro.clear();
        self.audio_rate = audio_rate;
        self.imu_rate = imu_rate;
        self.audio_accepted = 0;
        self.failure = None;
        self.phase = Phase::Ingest;
        Ok(())
    }

    /// Readies the outcome storage for a fresh capture: a result whose
    /// slide storage already holds `max_slides` reports. Collection swaps
    /// storage with the caller's slot, so over time any storage can meet
    /// any capture; reserving the bound up front means no finish grows
    /// it, whichever storage it got. Storage that arrived without a
    /// result (an idle or failed slot) is replaced once, here.
    fn reserve_outcome(&mut self, max_slides: usize) {
        if !self.outcome.is_usable() {
            self.outcome = SessionOutcome::Ok(SessionResult::empty());
        }
        if let SessionOutcome::Ok(result) | SessionOutcome::Degraded { result, .. } =
            &mut self.outcome
        {
            result.slides.clear();
            result.slides.reserve_exact(max_slides);
        }
    }

    /// Drains the rings into the detectors and, if a finish is pending,
    /// flushes both detectors into their arrival lists; a detector error
    /// becomes the sticky failure. Runs on a pool worker, in that
    /// worker's `scratch`. A `Done` session does nothing.
    fn pump(&mut self, scratch: &mut DetectScratch) {
        if self.phase == Phase::Done {
            return;
        }
        if self.failure.is_none() {
            let (l1, l2) = self.ring_left.as_slices();
            let (r1, r2) = self.ring_right.as_slices();
            let mut fed = self
                .det_left
                .push(l1, scratch)
                .and_then(|()| self.det_left.push(l2, scratch))
                .and_then(|()| self.det_right.push(r1, scratch))
                .and_then(|()| self.det_right.push(r2, scratch));
            if self.phase == Phase::FinishRequested {
                fed = fed
                    .and_then(|()| self.det_left.finish(scratch))
                    .and_then(|()| self.det_right.finish(scratch));
            }
            if let Err(e) = fed {
                self.failure = Some(e);
            }
        }
        self.ring_left.consume_all();
        self.ring_right.consume_all();
    }

    /// Completes a pumped finish into `self.outcome` through the
    /// service's `tail` engine with the monitored contract: the
    /// detectors' arrivals → the exact one-shot post-detection pipeline,
    /// or `Failed` with the sticky reason.
    fn finish(&mut self, tail: &mut SessionEngine) {
        tail.monitored_with(&mut self.outcome, |e, result| {
            if let Some(reason) = self.failure.take() {
                return Err(reason);
            }
            let (arr_left, arr_right) = e.arrivals_mut();
            self.det_left.arrivals().clone_into(arr_left);
            self.det_right.arrivals().clone_into(arr_right);
            e.finish_from_arrivals(
                self.audio_rate,
                self.audio_accepted,
                self.imu_rate,
                &self.accel,
                &self.gyro,
                result,
            )
        });
        self.phase = Phase::Done;
    }

    /// Bytes reserved by this session's state: rings, IMU traces and
    /// detectors.
    fn state_bytes(&self) -> usize {
        self.det_left.state_bytes()
            + self.det_right.state_bytes()
            + self.ring_left.capacity_bytes()
            + self.ring_right.capacity_bytes()
            + (self.accel.capacity() + self.gyro.capacity()) * std::mem::size_of::<Vec3>()
    }

    /// What [`StreamSession::state_bytes`] is by formula under `stream`.
    fn state_formula(&self, stream: &StreamConfig) -> usize {
        2 * StreamingDetector::state_formula(self.det_left.core(), stream.max_samples)
            + 2 * stream.ring_capacity * std::mem::size_of::<f64>()
            + 2 * stream.max_imu_samples * std::mem::size_of::<Vec3>()
    }
}

/// One service slot: a generation counter plus the session occupying
/// it (if any).
#[derive(Debug)]
struct Slot {
    epoch: u32,
    session: Option<Box<StreamSession>>,
}

/// A bounded-memory streaming session service over a thread pool; see
/// the [module docs](self) for the contract.
#[derive(Debug)]
pub struct StreamService {
    config: HyperEarConfig,
    stream: StreamConfig,
    pool: Arc<Pool>,
    slots: Vec<Slot>,
    /// Indices of unoccupied slots.
    free: Vec<u32>,
    /// Recycled sessions awaiting reuse — their detectors and rings stay
    /// warm so reopening a session allocates nothing. Kept boxed so a
    /// session moves between here and a [`Slot`] as one pointer, never
    /// copying its multi-hundred-byte body.
    #[allow(clippy::vec_box)]
    parked: Vec<Box<StreamSession>>,
    /// Shared detector cores by sample rate (template spectra and FFT
    /// tables built once, shared by every session at that rate).
    cores: Vec<(f64, Arc<DetectorCore>)>,
    /// One detection workspace per pool participant — the context
    /// [`Pool::parallel_update`] hands each participant's pumps — all
    /// reserved to `sizing`.
    workspaces: Vec<DetectScratch>,
    /// What every workspace is reserved for: the largest needs of the
    /// cores built so far.
    sizing: WorkspaceSizing,
    /// The one post-detection engine every session finishes through, in
    /// slot order on the thread that calls [`StreamService::pump`].
    tail: SessionEngine,
}

impl StreamService {
    /// Creates a service with `stream` sizing over a shared pool.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an invalid
    /// pipeline or stream configuration.
    pub fn new(
        config: HyperEarConfig,
        stream: StreamConfig,
        pool: Arc<Pool>,
    ) -> Result<Self, HyperEarError> {
        config.validate()?;
        stream.validate(pool.threads(), config.estimator.initial.weights_spectrum())?;
        let slots = (0..stream.max_sessions)
            .map(|_| Slot {
                epoch: 0,
                session: None,
            })
            .collect();
        let free = (0..stream.max_sessions as u32).rev().collect();
        let workspaces = vec![DetectScratch::new(); pool.threads()];
        Ok(StreamService {
            tail: SessionEngine::new(config.clone())?,
            config,
            stream,
            pool,
            slots,
            free,
            parked: Vec::with_capacity(stream.max_sessions),
            cores: Vec::new(),
            workspaces,
            sizing: WorkspaceSizing::default(),
        })
    }

    /// Sessions currently active (opened, outcome not yet collected).
    #[must_use]
    pub(crate) fn active(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Configured session capacity.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes reserved across every live and parked session's buffers
    /// and every participant's workspace — the steady-state footprint,
    /// independent of how many samples have ever been ingested. The sum
    /// of [`StreamService::footprint`]'s state, engine and workspace
    /// bytes.
    #[must_use]
    pub fn working_set_bytes(&self) -> usize {
        let f = self.footprint();
        f.state_bytes + f.engine_bytes + f.workspace_bytes
    }

    /// The working set split by owner, each part beside its formula.
    #[must_use]
    pub fn footprint(&self) -> StreamFootprint {
        let sessions = || {
            self.slots
                .iter()
                .filter_map(|s| s.session.as_deref())
                .chain(self.parked.iter().map(Box::as_ref))
        };
        StreamFootprint {
            sessions: sessions().count(),
            state_bytes: sessions().map(StreamSession::state_bytes).sum(),
            state_formula: sessions().map(|s| s.state_formula(&self.stream)).sum(),
            engine_bytes: self.tail.working_set_bytes(),
            participants: self.workspaces.len(),
            workspace_bytes: self
                .workspaces
                .iter()
                .map(DetectScratch::capacity_bytes)
                .sum(),
            workspace_formula: self.sizing.bytes(),
        }
    }

    /// The most slides one capture within the sizing can report: every
    /// slide is an IMU movement segment of at least `min_length` samples,
    /// and segments do not touch.
    fn max_slides(&self) -> usize {
        let min_length = self.config.inertial.segmenter.min_length.max(1);
        self.stream.max_imu_samples / (min_length + 1) + 1
    }

    /// The shared core for `sample_rate`, built on first use — when every
    /// workspace is also grown to serve captures on it.
    fn core_for(&mut self, sample_rate: f64) -> Result<Arc<DetectorCore>, HyperEarError> {
        if let Some((_, core)) = self.cores.iter().find(|(rate, _)| *rate == sample_rate) {
            return Ok(Arc::clone(core));
        }
        let core = Arc::new(DetectorCore::new(&self.config, sample_rate)?);
        self.sizing = self
            .sizing
            .max(WorkspaceSizing::new(&core, self.stream.max_samples));
        for workspace in &mut self.workspaces {
            workspace.reserve_stream(&self.sizing)?;
        }
        self.cores.push((sample_rate, Arc::clone(&core)));
        Ok(core)
    }

    /// Opens a streaming session, recycling a parked session's warm
    /// buffers when one is available.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Busy`] when every slot is occupied;
    /// [`AdmissionError::Rejected`] for invalid sample rates (or a
    /// detector build failure at a new rate).
    pub fn open(&mut self, audio_rate: f64, imu_rate: f64) -> Result<SessionId, AdmissionError> {
        if self.free.is_empty() {
            return Err(AdmissionError::Busy {
                active: self.active(),
                capacity: self.capacity(),
            });
        }
        check_rates(audio_rate, imu_rate)?;
        let core = self.core_for(audio_rate)?;
        let mut session = match self.parked.pop() {
            Some(mut s) => {
                s.reopen(&self.stream, &core, audio_rate, imu_rate)?;
                s
            }
            None => {
                let mut s = Box::new(StreamSession::new(&self.stream, &core)?);
                s.audio_rate = audio_rate;
                s.imu_rate = imu_rate;
                s
            }
        };
        session.reserve_outcome(self.max_slides());
        let index = self.free.pop().expect("checked non-empty");
        let slot = &mut self.slots[index as usize];
        slot.session = Some(session);
        Ok(SessionId {
            index,
            epoch: slot.epoch,
        })
    }

    fn session_mut(&mut self, id: SessionId) -> Result<&mut StreamSession, StreamError> {
        self.slots
            .get_mut(id.index as usize)
            .filter(|s| s.epoch == id.epoch)
            .and_then(|s| s.session.as_deref_mut())
            .ok_or(StreamError::UnknownSession)
    }

    /// Offers one stereo PCM chunk (any length, including empty) to the
    /// session. All-or-nothing: on any error nothing is ingested.
    ///
    /// # Errors
    ///
    /// [`StreamError::Shed`] when the chunk does not fit the ring
    /// (retry after [`StreamService::pump`]);
    /// [`StreamError::ChannelMismatch`] for unequal chunk lengths;
    /// [`StreamError::FinishPending`] after a finish was requested;
    /// [`StreamError::SessionFailed`] once the session failed sticky —
    /// including the push that overruns [`StreamConfig::max_samples`],
    /// which fails the session with
    /// [`HyperEarError::CapacityExceeded`].
    pub fn push_audio(
        &mut self,
        id: SessionId,
        left: &[f64],
        right: &[f64],
    ) -> Result<(), StreamError> {
        let max_samples = self.stream.max_samples;
        let session = self.session_mut(id)?;
        if session.phase != Phase::Ingest {
            return Err(StreamError::FinishPending);
        }
        if let Some(reason) = &session.failure {
            return Err(StreamError::SessionFailed(reason.clone()));
        }
        if left.len() != right.len() {
            return Err(StreamError::ChannelMismatch {
                left: left.len(),
                right: right.len(),
            });
        }
        let needed = session.audio_accepted + left.len();
        if needed > max_samples {
            let reason = HyperEarError::CapacityExceeded {
                what: "audio samples",
                needed,
                capacity: max_samples,
            };
            session.failure = Some(reason.clone());
            return Err(StreamError::SessionFailed(reason));
        }
        let free = session.ring_left.free();
        if left.len() > free {
            return Err(StreamError::Shed {
                offered: left.len(),
                free,
            });
        }
        let ok = session.ring_left.push(left) && session.ring_right.push(right);
        debug_assert!(ok, "checked capacity above");
        session.audio_accepted += left.len();
        Ok(())
    }

    /// Appends IMU samples (equal-length accel and gyro chunks).
    ///
    /// # Errors
    ///
    /// [`StreamError::ImuMismatch`] for unequal chunk lengths;
    /// [`StreamError::FinishPending`] after a finish was requested;
    /// [`StreamError::SessionFailed`] once failed sticky — including
    /// the push that overruns [`StreamConfig::max_imu_samples`].
    pub fn push_imu(
        &mut self,
        id: SessionId,
        accel: &[Vec3],
        gyro: &[Vec3],
    ) -> Result<(), StreamError> {
        let max_imu = self.stream.max_imu_samples;
        let session = self.session_mut(id)?;
        if session.phase != Phase::Ingest {
            return Err(StreamError::FinishPending);
        }
        if let Some(reason) = &session.failure {
            return Err(StreamError::SessionFailed(reason.clone()));
        }
        if accel.len() != gyro.len() {
            return Err(StreamError::ImuMismatch {
                accel: accel.len(),
                gyro: gyro.len(),
            });
        }
        let needed = session.accel.len() + accel.len();
        if needed > max_imu {
            let reason = HyperEarError::CapacityExceeded {
                what: "imu samples",
                needed,
                capacity: max_imu,
            };
            session.failure = Some(reason.clone());
            return Err(StreamError::SessionFailed(reason));
        }
        session.accel.extend_from_slice(accel);
        session.gyro.extend_from_slice(gyro);
        Ok(())
    }

    /// Marks the capture complete; the next [`StreamService::pump`]
    /// flushes the detectors and produces the outcome. Idempotent.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] for a stale id.
    pub fn request_finish(&mut self, id: SessionId) -> Result<(), StreamError> {
        let session = self.session_mut(id)?;
        if session.phase == Phase::Ingest {
            session.phase = Phase::FinishRequested;
        }
        Ok(())
    }

    /// Drains every session's rings into its detectors and flushes the
    /// detectors of sessions whose finish is pending, spreading the work
    /// across the pool (one session is touched by exactly one worker per
    /// pump, in that worker's workspace); then finishes those sessions
    /// in slot order on this thread through the one tail engine.
    pub fn pump(&mut self) {
        self.pool.parallel_update(
            &mut self.workspaces,
            &mut self.slots,
            |workspace, _, slot| {
                if let Some(session) = slot.session.as_deref_mut() {
                    session.pump(workspace);
                }
            },
        );
        for session in self
            .slots
            .iter_mut()
            .filter_map(|s| s.session.as_deref_mut())
        {
            if session.phase == Phase::FinishRequested {
                session.finish(&mut self.tail);
            }
        }
    }

    /// Collects a finished session's outcome into `slot` (whose
    /// previous storage is recycled into the service). Returns
    /// `Ok(false)` — leaving `slot` untouched — while the session is
    /// still running; after `Ok(true)` the id is retired and the
    /// session's buffers are parked for reuse.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] for a stale id.
    pub fn try_take_outcome(
        &mut self,
        id: SessionId,
        slot: &mut SessionOutcome,
    ) -> Result<bool, StreamError> {
        let session = self.session_mut(id)?;
        if session.phase != Phase::Done {
            return Ok(false);
        }
        std::mem::swap(&mut session.outcome, slot);
        let service_slot = &mut self.slots[id.index as usize];
        let session = service_slot.session.take().expect("session checked above");
        self.parked.push(session);
        service_slot.epoch = service_slot.epoch.wrapping_add(1);
        self.free.push(id.index);
        Ok(true)
    }

    /// Convenience: requests the finish, pumps once, and collects the
    /// outcome into `slot`.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] for a stale id.
    pub fn finish(&mut self, id: SessionId, slot: &mut SessionOutcome) -> Result<(), StreamError> {
        self.request_finish(id)?;
        self.pump();
        let done = self.try_take_outcome(id, slot)?;
        debug_assert!(done, "pump finalizes every pending finish");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SessionInput;
    use hyperear_sim::phone::PhoneModel;
    use hyperear_sim::scenario::ScenarioBuilder;

    fn small_config() -> StreamConfig {
        StreamConfig {
            max_sessions: 2,
            ring_capacity: 1024,
            max_samples: 400_000,
            max_imu_samples: 8_000,
        }
    }

    fn service(stream: StreamConfig) -> StreamService {
        StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::new(Pool::new(1)))
            .expect("valid config")
    }

    #[test]
    fn pcm_ring_wraps_and_refuses_whole_chunks() {
        let mut ring = PcmRing::new(8);
        assert!(ring.push(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        ring.consume_all(); // head now 6: subsequent pushes wrap
        assert!(ring.push(&[7.0, 8.0, 9.0, 10.0]));
        let (a, b) = ring.as_slices();
        assert_eq!(a, &[7.0, 8.0]);
        assert_eq!(b, &[9.0, 10.0]);
        // All-or-nothing: five more do not fit (4 free), nothing lands.
        assert!(!ring.push(&[0.0; 5]));
        assert_eq!(ring.as_slices(), (&[7.0, 8.0][..], &[9.0, 10.0][..]));
        assert!(ring.push(&[11.0; 4]));
        assert_eq!(ring.free(), 0);
        ring.consume_all();
        assert_eq!(ring.free(), 8);
    }

    #[test]
    fn admission_sheds_busy_then_recovers() {
        let mut svc = service(small_config());
        let a = svc.open(48_000.0, 500.0).expect("slot free");
        let b = svc.open(48_000.0, 500.0).expect("slot free");
        match svc.open(48_000.0, 500.0) {
            Err(AdmissionError::Busy { active, capacity }) => {
                assert_eq!((active, capacity), (2, 2));
            }
            other => panic!("expected Busy, got {other:?}"),
        }
        // Collecting an outcome frees the slot; the stale id is retired.
        let mut out = SessionOutcome::idle();
        svc.finish(a, &mut out).expect("finish");
        assert!(matches!(out, SessionOutcome::Failed { .. })); // empty capture
        assert_eq!(svc.active(), 1);
        let c = svc.open(48_000.0, 500.0).expect("slot freed");
        assert_eq!(
            svc.push_audio(a, &[0.0], &[0.0]),
            Err(StreamError::UnknownSession)
        );
        assert!(svc.push_audio(b, &[0.0], &[0.0]).is_ok());
        assert!(svc.push_audio(c, &[0.0], &[0.0]).is_ok());
        assert!(matches!(
            svc.open(48_000.0, 0.0),
            Err(AdmissionError::Busy { .. })
        ));
    }

    #[test]
    fn open_rejects_bad_rates() {
        let mut svc = service(small_config());
        assert!(matches!(
            svc.open(0.0, 500.0),
            Err(AdmissionError::Rejected(
                HyperEarError::InvalidParameter { .. }
            ))
        ));
        assert!(matches!(
            svc.open(48_000.0, -1.0),
            Err(AdmissionError::Rejected(
                HyperEarError::InvalidParameter { .. }
            ))
        ));
    }

    #[test]
    fn shed_is_all_or_nothing_and_retryable() {
        let mut svc = service(small_config());
        let id = svc.open(48_000.0, 500.0).expect("open");
        svc.push_audio(id, &[0.1; 800], &[0.2; 800]).expect("fits");
        match svc.push_audio(id, &[0.3; 400], &[0.4; 400]) {
            Err(StreamError::Shed { offered, free }) => {
                assert_eq!((offered, free), (400, 224));
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        // Nothing of the shed chunk was ingested; pump drains the ring
        // and the retry succeeds.
        svc.pump();
        svc.push_audio(id, &[0.3; 400], &[0.4; 400])
            .expect("retry after pump");
        let mut mismatched = svc.push_audio(id, &[0.0; 3], &[0.0; 2]);
        assert_eq!(
            mismatched,
            Err(StreamError::ChannelMismatch { left: 3, right: 2 })
        );
        mismatched = svc.push_imu(id, &[Vec3::ZERO; 2], &[Vec3::ZERO; 3]);
        assert_eq!(
            mismatched,
            Err(StreamError::ImuMismatch { accel: 2, gyro: 3 })
        );
    }

    #[test]
    fn capacity_overrun_fails_sticky_with_typed_reason() {
        let mut stream = small_config();
        stream.max_samples = 2_000; // one chirp template is 1920 samples
        let mut svc = service(stream);
        let id = svc.open(48_000.0, 500.0).expect("open");
        svc.push_audio(id, &[0.0; 950], &[0.0; 950]).expect("fits");
        svc.pump(); // drain the ring so the second chunk fits
        svc.push_audio(id, &[0.0; 950], &[0.0; 950]).expect("fits");
        let expected = HyperEarError::CapacityExceeded {
            what: "audio samples",
            needed: 2_100,
            capacity: 2_000,
        };
        assert_eq!(
            svc.push_audio(id, &[0.0; 200], &[0.0; 200]),
            Err(StreamError::SessionFailed(expected.clone()))
        );
        // Sticky: every later ingest reports the same typed reason...
        assert_eq!(
            svc.push_audio(id, &[], &[]),
            Err(StreamError::SessionFailed(expected.clone()))
        );
        assert_eq!(
            svc.push_imu(id, &[Vec3::ZERO], &[Vec3::ZERO]),
            Err(StreamError::SessionFailed(expected.clone()))
        );
        // ...and the outcome carries it too.
        let mut out = SessionOutcome::idle();
        svc.finish(id, &mut out).expect("finish");
        match out {
            SessionOutcome::Failed { reason, .. } => assert_eq!(reason, expected),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn imu_capacity_overrun_fails_sticky() {
        let mut stream = small_config();
        stream.max_imu_samples = 10;
        let mut svc = service(stream);
        let id = svc.open(48_000.0, 500.0).expect("open");
        svc.push_imu(id, &[Vec3::ZERO; 8], &[Vec3::ZERO; 8])
            .expect("fits");
        assert_eq!(
            svc.push_imu(id, &[Vec3::ZERO; 3], &[Vec3::ZERO; 3]),
            Err(StreamError::SessionFailed(
                HyperEarError::CapacityExceeded {
                    what: "imu samples",
                    needed: 11,
                    capacity: 10,
                }
            ))
        );
    }

    #[test]
    fn streamed_session_equals_one_shot_and_recycles_buffers() {
        let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .speaker_range(2.5)
            .slides(2)
            .seed(11)
            .render()
            .expect("render");
        let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4()).expect("engine");
        let reference = engine.run_monitored(&SessionInput {
            audio_sample_rate: rec.audio.sample_rate,
            left: &rec.audio.left,
            right: &rec.audio.right,
            imu_sample_rate: rec.imu.sample_rate,
            accel: &rec.imu.accel,
            gyro: &rec.imu.gyro,
        });

        let mut stream = small_config();
        stream.ring_capacity = 8_192;
        let mut svc = service(stream);
        let mut out = SessionOutcome::idle();
        for round in 0..3 {
            let id = svc
                .open(rec.audio.sample_rate, rec.imu.sample_rate)
                .expect("open");
            svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro)
                .expect("imu");
            let chunk = 4_096 - round; // vary chunking across rounds
            for (l, r) in rec
                .audio
                .left
                .chunks(chunk)
                .zip(rec.audio.right.chunks(chunk))
            {
                svc.push_audio(id, l, r).expect("push");
                svc.pump();
            }
            svc.finish(id, &mut out).expect("finish");
            assert_eq!(out, reference, "round {round}");
        }
        // Round 2 and 3 reused round 1's parked session: the working
        // set did not grow.
        let warm = svc.working_set_bytes();
        let id = svc
            .open(rec.audio.sample_rate, rec.imu.sample_rate)
            .expect("open");
        svc.push_imu(id, &rec.imu.accel, &rec.imu.gyro)
            .expect("imu");
        for (l, r) in rec
            .audio
            .left
            .chunks(4_096)
            .zip(rec.audio.right.chunks(4_096))
        {
            svc.push_audio(id, l, r).expect("push");
            svc.pump();
        }
        svc.finish(id, &mut out).expect("finish");
        assert_eq!(out, reference);
        assert_eq!(svc.working_set_bytes(), warm);
    }

    #[test]
    fn finish_is_idempotent_and_pushes_after_finish_are_typed() {
        let mut svc = service(small_config());
        let id = svc.open(48_000.0, 500.0).expect("open");
        svc.request_finish(id).expect("finish request");
        svc.request_finish(id).expect("idempotent");
        assert_eq!(
            svc.push_audio(id, &[0.0], &[0.0]),
            Err(StreamError::FinishPending)
        );
        assert_eq!(
            svc.push_imu(id, &[Vec3::ZERO], &[Vec3::ZERO]),
            Err(StreamError::FinishPending)
        );
        let mut out = SessionOutcome::idle();
        assert_eq!(svc.try_take_outcome(id, &mut out), Ok(false)); // not pumped yet
        svc.pump();
        assert_eq!(svc.try_take_outcome(id, &mut out), Ok(true));
        assert_eq!(
            svc.try_take_outcome(id, &mut out),
            Err(StreamError::UnknownSession)
        );
        assert_eq!(svc.request_finish(id), Err(StreamError::UnknownSession));
    }

    /// Streams `samples` (both channels) and a still IMU trace through
    /// every free slot at once and collects the outcomes, warming the
    /// sessions and every workspace a finish can land on.
    fn fill_and_finish(svc: &mut StreamService, rate: f64, samples: &[f64]) {
        let mut ids = Vec::new();
        while let Ok(id) = svc.open(rate, 500.0) {
            svc.push_imu(id, &[Vec3::ZERO; 1_000], &[Vec3::ZERO; 1_000])
                .expect("imu fits");
            ids.push(id);
        }
        for chunk in samples.chunks(1_000) {
            for &id in &ids {
                svc.push_audio(id, chunk, chunk).expect("ring fits");
            }
            svc.pump();
        }
        let mut out = SessionOutcome::idle();
        for id in ids {
            svc.finish(id, &mut out).expect("finish");
        }
    }

    /// Beacons of `config`'s chirp every 0.2 s over `n` samples at `rate`.
    fn beacon_train(config: &HyperEarConfig, rate: f64, n: usize) -> Vec<f64> {
        let b = &config.beacon;
        let chirp =
            hyperear_dsp::chirp::Chirp::new(b.f0, b.f1, b.duration, rate, b.pattern.shape())
                .expect("chirp");
        let mut out = vec![0.0; n];
        let mut at = 500.0;
        while at + (chirp.samples().len() as f64) < n as f64 {
            hyperear_dsp::delay::mix_delayed_local(&mut out, chirp.samples(), at, 0.3, 16)
                .expect("mix");
            at += 0.2 * rate;
        }
        out
    }

    #[test]
    fn undecimated_service_stays_within_its_budget() {
        // A 500–20 000 Hz beacon at 44.1 kHz is not decimated (D = 1):
        // every capture sample is a 16-byte correlation lag.
        let mut config = HyperEarConfig::galaxy_s4();
        config.beacon.f0 = 500.0;
        config.beacon.f1 = 20_000.0;
        let rate = 44_100.0;
        let core = DetectorCore::new(&config, rate).expect("core");
        assert_eq!(core.decimation().factor(), 1);
        let stream = StreamConfig {
            max_sessions: 3,
            ring_capacity: 4_096,
            max_samples: 60_001,
            max_imu_samples: 1_000,
        };
        let pool = Arc::new(Pool::new(2));
        let mut svc = StreamService::new(config.clone(), stream, pool).expect("service");
        let samples = beacon_train(&config, rate, stream.max_samples);
        for _ in 0..2 {
            fill_and_finish(&mut svc, rate, &samples);
        }
        let f = svc.footprint();
        assert_eq!((f.sessions, f.participants), (3, 2));
        assert_eq!(f.state_bytes, f.state_formula);
        assert_eq!(f.workspace_bytes, 2 * f.workspace_formula);
        // The budget counts the buffers the sizing sets; each feed's and
        // each workspace's FFT-block buffers, each detector's arrival list
        // and the tail engine are set by the beacon and come on top.
        let feeds: usize = svc
            .parked
            .iter()
            .map(|s| s.det_left.beacon_bytes() + s.det_right.beacon_bytes())
            .sum();
        let sized = f.state_bytes - feeds + f.workspace_bytes - 2 * svc.sizing.block_bytes();
        assert_eq!(
            svc.working_set_bytes(),
            sized + feeds + 2 * svc.sizing.block_bytes() + f.engine_bytes
        );
        let budget = usize::try_from(stream.reserved_bytes(2, false).expect("fits")).unwrap();
        assert!(
            sized <= budget,
            "{sized} B reserved against a {budget} B budget"
        );
        // And the budget is tight: only the candidate rounding of an odd
        // lag count is left over, per workspace.
        assert!(budget - sized <= 2 * 32, "{sized} B against {budget} B");
    }

    #[test]
    fn more_sessions_add_state_never_workspace() {
        let config = HyperEarConfig::galaxy_s4();
        let rate = 44_100.0;
        let samples = beacon_train(&config, rate, 50_000);
        let footprint = |max_sessions: usize| {
            let stream = StreamConfig {
                max_sessions,
                ..small_config()
            };
            let mut svc = StreamService::new(config.clone(), stream, Arc::new(Pool::new(2)))
                .expect("service");
            fill_and_finish(&mut svc, rate, &samples);
            svc.footprint()
        };
        let (one, five) = (footprint(1), footprint(5));
        assert_eq!((one.sessions, five.sessions), (1, 5));
        assert_eq!(five.participants, one.participants);
        assert_eq!(five.workspace_bytes, one.workspace_bytes);
        assert_eq!(five.workspace_formula, one.workspace_formula);
        assert_eq!(five.state_bytes, 5 * one.state_bytes);
        assert_eq!(five.state_formula, five.state_bytes);
        assert_eq!(five.engine_bytes, one.engine_bytes);
    }

    #[test]
    fn config_validation_rejects_zero_capacities() {
        let pool = Arc::new(Pool::new(1));
        for stream in [
            StreamConfig {
                max_sessions: 0,
                ..small_config()
            },
            StreamConfig {
                ring_capacity: 0,
                ..small_config()
            },
            StreamConfig {
                max_samples: 0,
                ..small_config()
            },
            StreamConfig {
                max_imu_samples: 0,
                ..small_config()
            },
        ] {
            assert!(
                StreamService::new(HyperEarConfig::galaxy_s4(), stream, Arc::clone(&pool)).is_err()
            );
        }
    }
}
