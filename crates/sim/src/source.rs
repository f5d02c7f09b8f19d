//! Chunked playback of rendered recordings.
//!
//! A real phone does not hand the pipeline a finished capture: the OS
//! delivers PCM a buffer at a time (whose size jitters with scheduling)
//! and IMU samples trickle in at their own rate. [`PhoneSource`] replays
//! a rendered [`Recording`] the same way — as a deterministic,
//! seed-controlled sequence of variable-size audio chunks with the IMU
//! stream paced proportionally — so streaming front ends can be driven
//! with realistic arrival patterns and *exactly* reproducible ones.
//!
//! ```
//! use hyperear_sim::phone::PhoneModel;
//! use hyperear_sim::scenario::ScenarioBuilder;
//! use hyperear_sim::source::PhoneSource;
//!
//! # fn main() -> Result<(), hyperear_sim::SimError> {
//! let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
//!     .speaker_range(3.0)
//!     .slides(1)
//!     .seed(7)
//!     .render()?;
//! let mut source = PhoneSource::new(&rec, 42).chunk_sizes(480, 4800);
//! let mut audio = 0;
//! let mut imu = 0;
//! while let Some(tick) = source.next_chunk() {
//!     audio += tick.left.len();
//!     imu += tick.accel.len();
//! }
//! assert_eq!(audio, rec.audio.left.len());
//! assert_eq!(imu, rec.imu.accel.len());
//! # Ok(())
//! # }
//! ```

use crate::rng::SimRng;
use crate::scenario::Recording;
use hyperear_geom::Vec3;

/// One delivery from the simulated phone: a stereo PCM chunk plus the
/// IMU samples that arrived over the same wall-clock span.
#[derive(Debug, Clone, Copy)]
pub struct SourceTick<'a> {
    /// Left-channel samples.
    pub left: &'a [f64],
    /// Right-channel samples (always `left.len()`).
    pub right: &'a [f64],
    /// Accelerometer samples delivered alongside this chunk.
    pub accel: &'a [Vec3],
    /// Gyroscope samples (always `accel.len()`).
    pub gyro: &'a [Vec3],
}

/// Deterministic chunked replay of one [`Recording`]; see the
/// [module docs](self).
#[derive(Debug)]
pub struct PhoneSource<'a> {
    rec: &'a Recording,
    rng: SimRng,
    audio_pos: usize,
    imu_pos: usize,
    min_chunk: usize,
    max_chunk: usize,
}

impl<'a> PhoneSource<'a> {
    /// Creates a source over `rec` whose chunk-size jitter is drawn
    /// from a dedicated stream seeded by `seed` (two sources with the
    /// same recording and seed emit identical tick sequences). Default
    /// chunk sizes model common OS audio buffers: 10–40 ms at 48 kHz.
    #[must_use]
    pub fn new(rec: &'a Recording, seed: u64) -> Self {
        PhoneSource {
            rec,
            rng: SimRng::seed_from(seed).fork("phone-source"),
            audio_pos: 0,
            imu_pos: 0,
            min_chunk: 480,
            max_chunk: 1_920,
        }
    }

    /// Overrides the chunk-size range, samples per chunk (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max`.
    #[must_use]
    pub fn chunk_sizes(mut self, min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "need 0 < min <= max chunk size");
        self.min_chunk = min;
        self.max_chunk = max;
        self
    }

    /// Whether the whole recording has been emitted.
    #[must_use]
    pub(crate) fn is_drained(&self) -> bool {
        self.audio_pos >= self.rec.audio.left.len() && self.imu_pos >= self.rec.imu.accel.len()
    }

    /// The next delivery, or `None` once the recording is drained. The
    /// audio advances by a random `min..=max` chunk (capped at the
    /// remainder); the IMU stream keeps pace with the audio clock and
    /// flushes its tail with the final audio chunk.
    pub fn next_chunk(&mut self) -> Option<SourceTick<'a>> {
        if self.is_drained() {
            return None;
        }
        let audio = &self.rec.audio;
        let imu = &self.rec.imu;
        let remaining = audio.left.len() - self.audio_pos;
        let span = self.max_chunk - self.min_chunk + 1;
        let take = (self.min_chunk + self.rng.index(span)).min(remaining);
        let audio_start = self.audio_pos;
        self.audio_pos += take;

        // IMU samples whose timestamps fall inside the audio delivered
        // so far; everything left rides along with the last chunk.
        let imu_target = if self.audio_pos >= audio.left.len() {
            imu.accel.len()
        } else {
            let elapsed = self.audio_pos as f64 / audio.sample_rate;
            ((elapsed * imu.sample_rate) as usize).min(imu.accel.len())
        };
        let imu_start = self.imu_pos;
        self.imu_pos = self.imu_pos.max(imu_target);

        Some(SourceTick {
            left: &audio.left[audio_start..self.audio_pos],
            right: &audio.right[audio_start..self.audio_pos],
            accel: &imu.accel[imu_start..self.imu_pos],
            gyro: &imu.gyro[imu_start..self.imu_pos],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phone::PhoneModel;
    use crate::scenario::ScenarioBuilder;

    fn render() -> Recording {
        ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .speaker_range(2.0)
            .slides(1)
            .seed(5)
            .render()
            .expect("render")
    }

    #[test]
    fn replay_covers_the_recording_exactly_once_in_order() {
        let rec = render();
        let mut source = PhoneSource::new(&rec, 9);
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut accel = Vec::new();
        let mut gyro = Vec::new();
        while let Some(tick) = source.next_chunk() {
            assert_eq!(tick.left.len(), tick.right.len());
            assert_eq!(tick.accel.len(), tick.gyro.len());
            assert!(!tick.left.is_empty());
            left.extend_from_slice(tick.left);
            right.extend_from_slice(tick.right);
            accel.extend_from_slice(tick.accel);
            gyro.extend_from_slice(tick.gyro);
        }
        assert_eq!(left, rec.audio.left);
        assert_eq!(right, rec.audio.right);
        assert_eq!(accel, rec.imu.accel);
        assert_eq!(gyro, rec.imu.gyro);
        assert!(source.is_drained());
        assert!(source.next_chunk().is_none());
    }

    #[test]
    fn same_seed_same_ticks_different_seed_different_ticks() {
        let rec = render();
        let sizes = |seed: u64| {
            let mut s = PhoneSource::new(&rec, seed);
            let mut out = Vec::new();
            while let Some(t) = s.next_chunk() {
                out.push((t.left.len(), t.accel.len()));
            }
            out
        };
        assert_eq!(sizes(3), sizes(3));
        assert_ne!(sizes(3), sizes(4));
    }

    #[test]
    fn chunk_size_bounds_are_honored() {
        let rec = render();
        let mut source = PhoneSource::new(&rec, 1).chunk_sizes(100, 250);
        let mut last = 0;
        while let Some(tick) = source.next_chunk() {
            last = tick.left.len();
            assert!(tick.left.len() <= 250);
        }
        // Only the final (remainder) chunk may undershoot the minimum.
        assert!(last <= 250);
        assert_eq!(source.audio_pos, rec.audio.left.len());
    }

    #[test]
    #[should_panic(expected = "need 0 < min <= max")]
    fn zero_min_chunk_panics() {
        let rec = render();
        let _ = PhoneSource::new(&rec, 1).chunk_sizes(0, 10);
    }
}
