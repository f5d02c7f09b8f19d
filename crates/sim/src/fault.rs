//! Deterministic fault injection.
//!
//! Real sessions fail in structured ways the clean renderer never
//! produces: a cart rolls between phone and speaker (beacon dropout,
//! NLoS multipath), the user's palm covers one microphone (gain
//! imbalance, channel dropout), keys jingle next to the phone
//! (impulsive bursts), the IMU drifts or saturates mid-slide. A
//! [`FaultPlan`] applies a seeded, exactly-reproducible set of such
//! corruptions to an already-rendered [`Recording`], so the pipeline's
//! graceful-degradation policy can be exercised against every fault
//! class without touching the clean render path.
//!
//! Every fault draws from its own labelled fork of the plan's RNG:
//! adding or removing one fault never perturbs another's draws, and the
//! same plan applied to the same recording yields bit-identical output.

use crate::rng::SimRng;
use crate::scenario::Recording;
use crate::SimError;

/// One class of injected corruption with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// An obstruction blocks beacon slots entirely: each beacon period is
    /// silenced (both channels) with the given probability.
    BeaconDropout {
        /// Per-beacon probability of being dropped, in `[0, 1]`.
        probability: f64,
    },
    /// Overdriven beacons: each slot is amplified by `drive` and clamped
    /// back to its pre-fault peak, with the given probability — the
    /// harmonic distortion of a too-loud or too-close speaker.
    BeaconClipping {
        /// Per-beacon probability of being clipped, in `[0, 1]`.
        probability: f64,
        /// Amplification factor pushed into the clamp (> 1).
        drive: f64,
    },
    /// NLoS multipath: a delayed, attenuated echo of the beacon is added
    /// with an *independently drawn* delay per channel, corrupting the
    /// inter-channel TDoA the way a strong off-path reflection does.
    NlosMultipath {
        /// Per-beacon probability of sprouting an echo, in `[0, 1]`.
        probability: f64,
        /// Nominal echo delay, milliseconds (the drawn delay varies
        /// uniformly within ±50% of this).
        delay_ms: f64,
        /// Echo amplitude relative to the direct path, in `[0, 1]`.
        relative_amplitude: f64,
    },
    /// A static sensitivity mismatch between the two microphones (palm
    /// partially covering one port): the right channel is scaled by the
    /// given gain.
    MicGainImbalance {
        /// Right-channel gain, decibels (negative = attenuated).
        right_gain_db: f64,
    },
    /// One channel goes silent for a stretch (loose connection, DSP
    /// underrun): per beacon slot, with the given probability, a randomly
    /// chosen channel is zeroed for `duration_ms` starting at a random
    /// offset inside the slot.
    ChannelDropout {
        /// Per-slot probability of a dropout, in `[0, 1]`.
        probability: f64,
        /// Dropout length, milliseconds.
        duration_ms: f64,
    },
    /// Impulsive wideband bursts (keys, door slams) added to both
    /// channels at random times.
    ImpulsiveBurst {
        /// Mean burst rate, events per second.
        rate_hz: f64,
        /// Peak burst amplitude in sample units.
        amplitude: f64,
    },
    /// A rogue concurrent beacon: another deployment's chirp sweeping
    /// the given band lands inside beacon slots on both channels —
    /// exactly the cross-beacon interference a multi-beacon template
    /// bank must reject by signature.
    CrossBeaconInterference {
        /// Per-slot probability of a rogue chirp, in `[0, 1]`.
        probability: f64,
        /// Rogue sweep's lower band edge, hertz.
        f0: f64,
        /// Rogue sweep's upper band edge, hertz.
        f1: f64,
        /// Rogue chirp peak amplitude in sample units.
        amplitude: f64,
    },
    /// A slowly growing accelerometer bias on the slide (y) axis — the
    /// uncompensated thermal drift the PDE's zero-velocity correction is
    /// supposed to absorb, here pushed past its design point.
    ImuBiasDrift {
        /// Bias growth rate, (m/s²) per second.
        slope: f64,
    },
    /// Accelerometer saturation: every component is clamped to the given
    /// magnitude, flattening the slide's acceleration peaks.
    ImuSaturation {
        /// Clamp magnitude, m/s².
        limit: f64,
    },
    /// Dropped IMU samples (sensor-hub hiccups): with the given per-sample
    /// probability a gap starts, during which accelerometer and gyroscope
    /// hold their last delivered value.
    ImuSampleGaps {
        /// Per-sample probability of a gap starting, in `[0, 1]`.
        probability: f64,
        /// Longest gap, samples (drawn uniformly in `[1, max_gap]`).
        max_gap: usize,
    },
}

impl Fault {
    /// Stable, human-readable class name (report rows, RNG fork labels).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Fault::BeaconDropout { .. } => "beacon-dropout",
            Fault::BeaconClipping { .. } => "beacon-clipping",
            Fault::NlosMultipath { .. } => "nlos-multipath",
            Fault::MicGainImbalance { .. } => "mic-gain-imbalance",
            Fault::ChannelDropout { .. } => "channel-dropout",
            Fault::ImpulsiveBurst { .. } => "impulsive-burst",
            Fault::CrossBeaconInterference { .. } => "cross-beacon-interference",
            Fault::ImuBiasDrift { .. } => "imu-bias-drift",
            Fault::ImuSaturation { .. } => "imu-saturation",
            Fault::ImuSampleGaps { .. } => "imu-sample-gaps",
        }
    }

    /// Validates the fault's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for probabilities outside
    /// `[0, 1]` or non-positive magnitudes.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        let prob_ok = |p: f64| (0.0..=1.0).contains(&p);
        let ok = match *self {
            Fault::BeaconDropout { probability } => prob_ok(probability),
            Fault::BeaconClipping { probability, drive } => prob_ok(probability) && drive >= 1.0,
            Fault::NlosMultipath {
                probability,
                delay_ms,
                relative_amplitude,
            } => prob_ok(probability) && delay_ms > 0.0 && prob_ok(relative_amplitude),
            Fault::MicGainImbalance { right_gain_db } => right_gain_db.is_finite(),
            Fault::ChannelDropout {
                probability,
                duration_ms,
            } => prob_ok(probability) && duration_ms > 0.0,
            Fault::ImpulsiveBurst { rate_hz, amplitude } => rate_hz >= 0.0 && amplitude > 0.0,
            Fault::CrossBeaconInterference {
                probability,
                f0,
                f1,
                amplitude,
            } => prob_ok(probability) && 0.0 < f0 && f0 < f1 && amplitude > 0.0,
            Fault::ImuBiasDrift { slope } => slope.is_finite(),
            Fault::ImuSaturation { limit } => limit > 0.0,
            Fault::ImuSampleGaps {
                probability,
                max_gap,
            } => prob_ok(probability) && max_gap >= 1,
        };
        if ok {
            Ok(())
        } else {
            Err(SimError::invalid("fault", format!("{self:?}")))
        }
    }
}

/// What a [`FaultPlan::apply`] call actually injected — the ground truth
/// that per-stage pipeline diagnostics are correlated against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Beacon slots silenced.
    pub beacons_dropped: usize,
    /// Beacon slots clipped.
    pub beacons_clipped: usize,
    /// Beacon slots that grew a multipath echo.
    pub multipath_echoes: usize,
    /// Single-channel dropout stretches.
    pub channel_dropouts: usize,
    /// Impulsive bursts added.
    pub bursts: usize,
    /// Rogue cross-beacon chirps injected.
    pub rogue_chirps: usize,
    /// IMU hold-last-value gaps.
    pub imu_gaps: usize,
    /// Accelerometer samples that hit the saturation clamp.
    pub saturated_samples: usize,
}

/// A seeded, ordered set of faults applied to a rendered recording.
///
/// # Example
///
/// ```
/// use hyperear_sim::fault::{Fault, FaultPlan};
/// use hyperear_sim::phone::PhoneModel;
/// use hyperear_sim::scenario::ScenarioBuilder;
///
/// # fn main() -> Result<(), hyperear_sim::SimError> {
/// let mut rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
///     .speaker_range(3.0)
///     .slides(1)
///     .seed(7)
///     .render()?;
/// let plan = FaultPlan::new(99).with(Fault::BeaconDropout { probability: 0.2 });
/// let log = plan.apply(&mut rec)?;
/// assert!(log.beacons_dropped <= 60);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan drawing from the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds one fault to the plan (applied in insertion order).
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Applies every fault to the recording in order, deterministically.
    ///
    /// Each fault draws from `fork("{name}#{index}")` of the plan's base
    /// RNG, so the same plan on the same recording is bit-reproducible
    /// and faults never share randomness.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an invalid fault or an
    /// empty recording.
    pub fn apply(&self, rec: &mut Recording) -> Result<FaultLog, SimError> {
        if rec.audio.left.is_empty() || rec.audio.left.len() != rec.audio.right.len() {
            return Err(SimError::invalid(
                "recording",
                "audio channels must be non-empty and equal length",
            ));
        }
        for f in &self.faults {
            f.validate()?;
        }
        let mut log = FaultLog::default();
        for (i, fault) in self.faults.iter().enumerate() {
            // Fork from a fresh base so each fault's stream depends only
            // on the plan seed and the fault's class (plus an occurrence
            // index for repeated classes) — never on its position among
            // other faults.
            let occurrence = self.faults[..i]
                .iter()
                .filter(|f| f.name() == fault.name())
                .count();
            let mut rng =
                SimRng::seed_from(self.seed).fork(&format!("{}#{occurrence}", fault.name()));
            apply_one(*fault, rec, &mut rng, &mut log);
        }
        Ok(log)
    }
}

/// The beacon slot grid of a recording: `(period, slot_count)` on the
/// nominal timeline. Clock offsets (tens of ppm) drift slot edges by well
/// under a millisecond over a session — negligible against the 200 ms
/// slot.
fn beacon_slots(rec: &Recording) -> (f64, usize) {
    let duration = rec.audio.left.len() as f64 / rec.audio.sample_rate;
    let period = rec.speaker.actual_period();
    (period, rec.speaker.beacons_within(duration))
}

fn slot_sample_range(rec: &Recording, period: f64, k: usize) -> (usize, usize) {
    let fs = rec.audio.sample_rate;
    let start = ((k as f64 * period) * fs) as usize;
    let end = (((k as f64 + 1.0) * period) * fs) as usize;
    (
        start.min(rec.audio.left.len()),
        end.min(rec.audio.left.len()),
    )
}

fn apply_one(fault: Fault, rec: &mut Recording, rng: &mut SimRng, log: &mut FaultLog) {
    match fault {
        Fault::BeaconDropout { probability } => {
            let (period, n) = beacon_slots(rec);
            for k in 0..n {
                if rng.uniform() >= probability {
                    continue;
                }
                let (s, e) = slot_sample_range(rec, period, k);
                rec.audio.left[s..e].fill(0.0);
                rec.audio.right[s..e].fill(0.0);
                log.beacons_dropped += 1;
            }
        }
        Fault::BeaconClipping { probability, drive } => {
            let (period, n) = beacon_slots(rec);
            for k in 0..n {
                if rng.uniform() >= probability {
                    continue;
                }
                let (s, e) = slot_sample_range(rec, period, k);
                for channel in [&mut rec.audio.left, &mut rec.audio.right] {
                    let peak = channel[s..e].iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                    if peak <= 0.0 {
                        continue;
                    }
                    for v in &mut channel[s..e] {
                        *v = (*v * drive).clamp(-peak, peak);
                    }
                }
                log.beacons_clipped += 1;
            }
        }
        Fault::NlosMultipath {
            probability,
            delay_ms,
            relative_amplitude,
        } => {
            let (period, n) = beacon_slots(rec);
            let fs = rec.audio.sample_rate;
            for k in 0..n {
                if rng.uniform() >= probability {
                    continue;
                }
                let (s, e) = slot_sample_range(rec, period, k);
                // Independent delays per channel: the echo's extra path
                // length differs at each microphone, which is exactly what
                // skews the inter-channel TDoA.
                for channel in [&mut rec.audio.left, &mut rec.audio.right] {
                    let delay_s = rng.uniform_in(0.5, 1.5) * delay_ms * 1e-3;
                    let d = (delay_s * fs).round() as usize;
                    let src: Vec<f64> = channel[s..e].to_vec();
                    let end = channel.len();
                    for (i, &v) in src.iter().enumerate() {
                        let j = s + i + d;
                        if j >= end {
                            break;
                        }
                        channel[j] += relative_amplitude * v;
                    }
                }
                log.multipath_echoes += 1;
            }
        }
        Fault::MicGainImbalance { right_gain_db } => {
            let gain = 10f64.powf(right_gain_db / 20.0);
            for v in &mut rec.audio.right {
                *v *= gain;
            }
        }
        Fault::ChannelDropout {
            probability,
            duration_ms,
        } => {
            let (period, n) = beacon_slots(rec);
            let fs = rec.audio.sample_rate;
            let len = (duration_ms * 1e-3 * fs) as usize;
            for k in 0..n {
                if rng.uniform() >= probability {
                    continue;
                }
                let (s, e) = slot_sample_range(rec, period, k);
                if e <= s {
                    continue;
                }
                let start = s + rng.index(e - s);
                let channel = if rng.uniform() < 0.5 {
                    &mut rec.audio.left
                } else {
                    &mut rec.audio.right
                };
                let stop = (start + len).min(channel.len());
                channel[start..stop].fill(0.0);
                log.channel_dropouts += 1;
            }
        }
        Fault::ImpulsiveBurst { rate_hz, amplitude } => {
            let fs = rec.audio.sample_rate;
            let duration = rec.audio.left.len() as f64 / fs;
            let count = (rate_hz * duration).round() as usize;
            // A burst is a short decaying wideband click, hitting both
            // channels at (almost) the same instant like a nearby source.
            let burst_len = (0.002 * fs) as usize;
            for _ in 0..count {
                let at = rng.index(rec.audio.left.len());
                let scale = amplitude * rng.uniform_in(0.5, 1.0);
                let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
                for channel in [&mut rec.audio.left, &mut rec.audio.right] {
                    for i in 0..burst_len {
                        let Some(v) = channel.get_mut(at + i) else {
                            break;
                        };
                        let t = i as f64 / burst_len as f64;
                        *v += sign * scale * (1.0 - t) * (43.0 * t).cos();
                    }
                }
                log.bursts += 1;
            }
        }
        Fault::CrossBeaconInterference {
            probability,
            f0,
            f1,
            amplitude,
        } => {
            let (period, n) = beacon_slots(rec);
            let fs = rec.audio.sample_rate;
            // The rogue deployment plays the paper's 40 ms chirp length.
            let len = (0.04 * fs) as usize;
            let dur = len as f64 / fs;
            for k in 0..n {
                if rng.uniform() >= probability {
                    continue;
                }
                let (s, e) = slot_sample_range(rec, period, k);
                if e <= s {
                    continue;
                }
                let at = s + rng.index(e - s);
                let scale = amplitude * rng.uniform_in(0.6, 1.0);
                // Like a nearby source, the rogue chirp hits both channels
                // at the same instant — zero TDoA, maximal confusion if a
                // detector locks onto it.
                for channel in [&mut rec.audio.left, &mut rec.audio.right] {
                    for i in 0..len {
                        let Some(v) = channel.get_mut(at + i) else {
                            break;
                        };
                        let t = i as f64 / fs;
                        let phase =
                            2.0 * std::f64::consts::PI * (f0 * t + 0.5 * (f1 - f0) / dur * t * t);
                        let window = (std::f64::consts::PI * i as f64 / len as f64).sin();
                        *v += scale * window * phase.sin();
                    }
                }
                log.rogue_chirps += 1;
            }
        }
        Fault::ImuBiasDrift { slope } => {
            let fs = rec.imu.sample_rate;
            for (i, a) in rec.imu.accel.iter_mut().enumerate() {
                a.y += slope * i as f64 / fs;
            }
        }
        Fault::ImuSaturation { limit } => {
            for a in &mut rec.imu.accel {
                let clamped = hyperear_geom::Vec3::new(
                    a.x.clamp(-limit, limit),
                    a.y.clamp(-limit, limit),
                    a.z.clamp(-limit, limit),
                );
                if clamped != *a {
                    log.saturated_samples += 1;
                }
                *a = clamped;
            }
        }
        Fault::ImuSampleGaps {
            probability,
            max_gap,
        } => {
            let n = rec.imu.accel.len();
            let mut i = 1usize;
            while i < n {
                if rng.uniform() < probability {
                    let gap = 1 + rng.index(max_gap);
                    let held_a = rec.imu.accel[i - 1];
                    let held_g = rec.imu.gyro[i - 1];
                    let stop = (i + gap).min(n);
                    for j in i..stop {
                        rec.imu.accel[j] = held_a;
                        rec.imu.gyro[j] = held_g;
                    }
                    log.imu_gaps += 1;
                    i = stop;
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// The standard fault matrix at a given intensity in `[0, 1]`: one
/// representative instance of every fault class, with parameters scaled
/// so intensity 0 is (nearly) harmless and intensity 1 is severe. The
/// `repro faults` experiment sweeps this matrix.
#[must_use]
pub fn matrix(intensity: f64) -> Vec<Fault> {
    let s = intensity.clamp(0.0, 1.0);
    vec![
        Fault::BeaconDropout {
            probability: 0.35 * s,
        },
        Fault::BeaconClipping {
            probability: 0.5 * s,
            drive: 1.0 + 7.0 * s,
        },
        Fault::NlosMultipath {
            probability: 0.6 * s,
            delay_ms: 1.2,
            relative_amplitude: 0.9 * s,
        },
        Fault::MicGainImbalance {
            right_gain_db: -9.0 * s,
        },
        Fault::ChannelDropout {
            probability: 0.3 * s,
            duration_ms: 40.0,
        },
        Fault::ImpulsiveBurst {
            rate_hz: 3.0 * s,
            amplitude: 0.25,
        },
        Fault::CrossBeaconInterference {
            probability: 0.45 * s,
            f0: 2_000.0,
            f1: 6_400.0,
            amplitude: 0.2,
        },
        Fault::ImuBiasDrift { slope: 0.06 * s },
        Fault::ImuSaturation {
            limit: 30.0 - 18.0 * s,
        },
        Fault::ImuSampleGaps {
            probability: 0.008 * s,
            max_gap: 5,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phone::PhoneModel;
    use crate::scenario::ScenarioBuilder;

    fn render() -> Recording {
        ScenarioBuilder::new(PhoneModel::galaxy_s4())
            .speaker_range(3.0)
            .slides(1)
            .seed(17)
            .render()
            .unwrap()
    }

    #[test]
    fn apply_is_deterministic() {
        let clean = render();
        let plan = FaultPlan::new(5)
            .with(Fault::BeaconDropout { probability: 0.3 })
            .with(Fault::NlosMultipath {
                probability: 0.5,
                delay_ms: 1.0,
                relative_amplitude: 0.7,
            })
            .with(Fault::ImuSampleGaps {
                probability: 0.01,
                max_gap: 4,
            });
        let mut a = clean.clone();
        let mut b = clean.clone();
        let log_a = plan.apply(&mut a).unwrap();
        let log_b = plan.apply(&mut b).unwrap();
        assert_eq!(log_a, log_b);
        assert_eq!(a, b);
        assert_ne!(a.audio.left, clean.audio.left, "faults must do something");
    }

    #[test]
    fn faults_draw_independent_streams() {
        let clean = render();
        // The dropout fault's victims must not change when an unrelated
        // fault is added before it.
        let solo = FaultPlan::new(5).with(Fault::BeaconDropout { probability: 0.3 });
        let paired = FaultPlan::new(5)
            .with(Fault::ImuBiasDrift { slope: 0.1 })
            .with(Fault::BeaconDropout { probability: 0.3 });
        let mut a = clean.clone();
        let mut b = clean.clone();
        let log_a = solo.apply(&mut a).unwrap();
        let log_b = paired.apply(&mut b).unwrap();
        assert_eq!(log_a.beacons_dropped, log_b.beacons_dropped);
        assert_eq!(a.audio.left, b.audio.left);
    }

    #[test]
    fn dropout_silences_whole_slots() {
        let clean = render();
        let mut rec = clean.clone();
        let plan = FaultPlan::new(1).with(Fault::BeaconDropout { probability: 1.0 });
        let log = plan.apply(&mut rec).unwrap();
        assert!(log.beacons_dropped > 10);
        // Every beacon slot is zeroed; only the sub-period tail (ambient
        // noise, no beacon) survives.
        let energy = |s: &[f64]| s.iter().map(|v| v * v).sum::<f64>();
        assert!(energy(&rec.audio.left) < 0.05 * energy(&clean.audio.left));
    }

    #[test]
    fn gain_imbalance_scales_right_channel_only() {
        let clean = render();
        let mut rec = clean.clone();
        let plan = FaultPlan::new(1).with(Fault::MicGainImbalance {
            right_gain_db: -6.0,
        });
        plan.apply(&mut rec).unwrap();
        assert_eq!(rec.audio.left, clean.audio.left);
        let g = 10f64.powf(-6.0 / 20.0);
        for (f, c) in rec.audio.right.iter().zip(&clean.audio.right) {
            assert!((f - c * g).abs() < 1e-15);
        }
    }

    #[test]
    fn saturation_clamps_and_counts() {
        let mut rec = render();
        let plan = FaultPlan::new(1).with(Fault::ImuSaturation { limit: 9.0 });
        let log = plan.apply(&mut rec).unwrap();
        // Gravity alone (~9.8 m/s²) exceeds the clamp, so nearly every
        // sample saturates.
        assert!(log.saturated_samples > rec.imu.accel.len() / 2);
        for a in &rec.imu.accel {
            assert!(a.x.abs() <= 9.0 && a.y.abs() <= 9.0 && a.z.abs() <= 9.0);
        }
    }

    #[test]
    fn sample_gaps_hold_last_value() {
        let mut rec = render();
        let plan = FaultPlan::new(9).with(Fault::ImuSampleGaps {
            probability: 0.05,
            max_gap: 3,
        });
        let log = plan.apply(&mut rec).unwrap();
        assert!(log.imu_gaps > 0);
        // Somewhere there must be a held (repeated) consecutive pair.
        let repeats = rec.imu.accel.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats >= log.imu_gaps);
    }

    #[test]
    fn zero_intensity_matrix_is_nearly_harmless() {
        let clean = render();
        let mut rec = clean.clone();
        let mut plan = FaultPlan::new(3);
        for f in matrix(0.0) {
            plan = plan.with(f);
        }
        let log = plan.apply(&mut rec).unwrap();
        assert_eq!(log.beacons_dropped, 0);
        assert_eq!(log.multipath_echoes, 0);
        assert_eq!(log.bursts, 0);
        assert_eq!(log.rogue_chirps, 0);
        assert_eq!(log.imu_gaps, 0);
        assert_eq!(log.saturated_samples, 0);
        // Gain at 0 dB and drift at slope 0 leave the data bit-identical.
        assert_eq!(rec.audio, clean.audio);
    }

    #[test]
    fn full_matrix_validates_and_applies() {
        for intensity in [0.25, 0.5, 1.0] {
            let mut rec = render();
            let mut plan = FaultPlan::new(11);
            for f in matrix(intensity) {
                f.validate().unwrap();
                plan = plan.with(f);
            }
            let log = plan.apply(&mut rec).unwrap();
            assert!(log.multipath_echoes > 0, "intensity {intensity}");
            for v in rec.audio.left.iter().chain(rec.audio.right.iter()) {
                assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn cross_beacon_interference_injects_rogue_chirps() {
        let clean = render();
        let mut rec = clean.clone();
        let plan = FaultPlan::new(4).with(Fault::CrossBeaconInterference {
            probability: 1.0,
            f0: 3_000.0,
            f1: 4_000.0,
            amplitude: 0.3,
        });
        let log = plan.apply(&mut rec).unwrap();
        assert!(log.rogue_chirps > 10, "{log:?}");
        assert_ne!(rec.audio.left, clean.audio.left);
        assert_ne!(rec.audio.right, clean.audio.right);
        // Additive interference only — the beacon underneath survives.
        let energy = |s: &[f64]| s.iter().map(|v| v * v).sum::<f64>();
        assert!(energy(&rec.audio.left) > energy(&clean.audio.left));
        for v in rec.audio.left.iter().chain(rec.audio.right.iter()) {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn invalid_faults_rejected() {
        let mut rec = render();
        for bad in [
            Fault::BeaconDropout { probability: 1.5 },
            Fault::BeaconClipping {
                probability: 0.5,
                drive: 0.5,
            },
            Fault::NlosMultipath {
                probability: 0.5,
                delay_ms: -1.0,
                relative_amplitude: 0.5,
            },
            Fault::MicGainImbalance {
                right_gain_db: f64::NAN,
            },
            Fault::ChannelDropout {
                probability: -0.1,
                duration_ms: 40.0,
            },
            Fault::ImpulsiveBurst {
                rate_hz: -1.0,
                amplitude: 0.2,
            },
            Fault::CrossBeaconInterference {
                probability: 0.5,
                f0: 4_000.0,
                f1: 3_000.0,
                amplitude: 0.2,
            },
            Fault::ImuSaturation { limit: 0.0 },
            Fault::ImuSampleGaps {
                probability: 0.5,
                max_gap: 0,
            },
        ] {
            assert!(
                FaultPlan::new(1).with(bad).apply(&mut rec).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
