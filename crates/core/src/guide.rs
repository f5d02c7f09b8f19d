//! Interactive session guidance.
//!
//! The paper's third requirement is "excellent user experience: the
//! system should be easy to use and minimize the involvement of users"
//! (Section I). This module provides the state machine an app drives the
//! user with: find the direction, slide five times, lower the phone,
//! slide five more, done. It consumes the same live measurements the
//! pipeline produces (TDoAs while rolling, slide estimates while
//! sliding) and emits the next instruction.

use crate::sdf::{guidance, Guidance};
use crate::HyperEarError;
use hyperear_imu::analyze::SlideEstimate;
use hyperear_imu::quality::{QualityGate, Rejection};

/// What the app should tell the user to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// Roll the phone around its z-axis and watch the TDoA.
    RollPhone,
    /// Stop rolling: the phone is in-direction.
    StopRolling,
    /// Hold still (the SFO calibration window is filling).
    HoldStill {
        /// Seconds of stillness remaining.
        remaining: f64,
    },
    /// Slide the phone along its y-axis (back or forth).
    Slide {
        /// Slides completed at the current stature.
        done: usize,
        /// Slides requested per stature.
        target: usize,
    },
    /// The last slide was rejected; slide again.
    SlideAgain {
        /// Why the slide was rejected.
        reason: Rejection,
    },
    /// Lower the phone to the second stature.
    LowerPhone,
    /// The protocol is complete; the app can run the pipeline.
    Done,
}

/// Protocol phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Direction,
    Calibration,
    UpperSlides,
    Lowering,
    LowerSlides,
    Complete,
}

/// The guided-session state machine.
///
/// # Example
///
/// ```
/// use hyperear::guide::{Instruction, SessionGuide};
///
/// # fn main() -> Result<(), hyperear::HyperEarError> {
/// let mut guide = SessionGuide::new(0.1366, 343.0, 2, true)?;
/// assert_eq!(guide.current(), Instruction::RollPhone);
/// // The user rolls until the TDoA crosses ~zero...
/// guide.observe_tdoa(0.000_2)?;
/// assert_eq!(guide.current(), Instruction::RollPhone);
/// guide.observe_tdoa(0.000_001)?;
/// assert_eq!(guide.current(), Instruction::StopRolling);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SessionGuide {
    mic_separation: f64,
    speed_of_sound: f64,
    slides_per_stature: usize,
    two_statures: bool,
    calibration_seconds: f64,
    gate: QualityGate,
    phase: Phase,
    still_accumulated: f64,
    upper_done: usize,
    lower_done: usize,
    last_rejection: Option<Rejection>,
    in_direction: bool,
}

impl SessionGuide {
    /// Creates a guide for a phone with the given microphone separation.
    ///
    /// `slides_per_stature` slides are collected at each stature;
    /// `two_statures` selects the 3D protocol.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for non-positive
    /// hardware constants or zero slides.
    pub fn new(
        mic_separation: f64,
        speed_of_sound: f64,
        slides_per_stature: usize,
        two_statures: bool,
    ) -> Result<Self, HyperEarError> {
        if mic_separation <= 0.0 {
            return Err(HyperEarError::invalid("mic_separation", "must be positive"));
        }
        if speed_of_sound <= 0.0 {
            return Err(HyperEarError::invalid("speed_of_sound", "must be positive"));
        }
        if slides_per_stature == 0 {
            return Err(HyperEarError::invalid(
                "slides_per_stature",
                "need at least one slide",
            ));
        }
        Ok(SessionGuide {
            mic_separation,
            speed_of_sound,
            slides_per_stature,
            two_statures,
            calibration_seconds: 1.2,
            gate: QualityGate::default(),
            phase: Phase::Direction,
            still_accumulated: 0.0,
            upper_done: 0,
            lower_done: 0,
            last_rejection: None,
            in_direction: false,
        })
    }

    /// The instruction the app should currently display.
    #[must_use]
    pub fn current(&self) -> Instruction {
        match self.phase {
            Phase::Direction => {
                if self.in_direction {
                    Instruction::StopRolling
                } else {
                    Instruction::RollPhone
                }
            }
            Phase::Calibration => Instruction::HoldStill {
                remaining: (self.calibration_seconds - self.still_accumulated).max(0.0),
            },
            Phase::UpperSlides => match self.last_rejection {
                Some(reason) => Instruction::SlideAgain { reason },
                None => Instruction::Slide {
                    done: self.upper_done,
                    target: self.slides_per_stature,
                },
            },
            Phase::Lowering => Instruction::LowerPhone,
            Phase::LowerSlides => match self.last_rejection {
                Some(reason) => Instruction::SlideAgain { reason },
                None => Instruction::Slide {
                    done: self.lower_done,
                    target: self.slides_per_stature,
                },
            },
            Phase::Complete => Instruction::Done,
        }
    }

    /// Whether the protocol has finished.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.phase == Phase::Complete
    }

    /// Feeds a live TDoA measurement while the user rolls the phone.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] when called outside the
    /// direction-finding phase.
    pub fn observe_tdoa(&mut self, tdoa_seconds: f64) -> Result<(), HyperEarError> {
        if self.phase != Phase::Direction {
            return Err(HyperEarError::invalid(
                "phase",
                "TDoA observations only apply during direction finding",
            ));
        }
        if guidance(tdoa_seconds, self.mic_separation, self.speed_of_sound, 0.05)? == Guidance::Stop
        {
            self.in_direction = true;
        }
        Ok(())
    }

    /// Feeds elapsed stationary time during the calibration hold.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] outside the
    /// calibration phase or for negative durations.
    pub fn observe_stillness(&mut self, seconds: f64) -> Result<(), HyperEarError> {
        if self.phase == Phase::Direction && self.in_direction {
            // The user stopped rolling; calibration starts now.
            self.phase = Phase::Calibration;
        }
        if self.phase != Phase::Calibration {
            return Err(HyperEarError::invalid(
                "phase",
                "stillness only applies during calibration",
            ));
        }
        if seconds < 0.0 {
            return Err(HyperEarError::invalid("seconds", "must be non-negative"));
        }
        self.still_accumulated += seconds;
        if self.still_accumulated >= self.calibration_seconds {
            self.phase = Phase::UpperSlides;
        }
        Ok(())
    }

    /// Feeds a completed slide's inertial estimate; the gate decides
    /// whether it counts.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] outside a sliding
    /// phase.
    pub fn observe_slide(&mut self, slide: &SlideEstimate) -> Result<(), HyperEarError> {
        let counting = match self.phase {
            Phase::UpperSlides => true,
            Phase::LowerSlides => false,
            _ => {
                return Err(HyperEarError::invalid(
                    "phase",
                    "slides only apply during a sliding phase",
                ))
            }
        };
        match self.gate.check(slide.distance, slide.rotation_deg) {
            Ok(()) => {
                self.last_rejection = None;
                if counting {
                    self.upper_done += 1;
                    if self.upper_done >= self.slides_per_stature {
                        self.phase = if self.two_statures {
                            Phase::Lowering
                        } else {
                            Phase::Complete
                        };
                    }
                } else {
                    self.lower_done += 1;
                    if self.lower_done >= self.slides_per_stature {
                        self.phase = Phase::Complete;
                    }
                }
            }
            Err(reason) => self.last_rejection = Some(reason),
        }
        Ok(())
    }

    /// Signals that the user lowered the phone (a stature change was
    /// detected).
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] outside the lowering
    /// phase.
    pub fn observe_stature_change(&mut self) -> Result<(), HyperEarError> {
        if self.phase != Phase::Lowering {
            return Err(HyperEarError::invalid(
                "phase",
                "stature changes only apply during the lowering phase",
            ));
        }
        self.phase = Phase::LowerSlides;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperear_imu::segment::Segment;

    fn slide(distance: f64, rotation_deg: f64) -> SlideEstimate {
        SlideEstimate {
            segment: Segment { start: 0, end: 80 },
            start_time: 0.0,
            end_time: 0.8,
            distance,
            rotation_deg,
            end_velocity_residual: 0.0,
        }
    }

    fn drive_to_upper_slides(guide: &mut SessionGuide) {
        guide.observe_tdoa(0.0).unwrap();
        guide.observe_stillness(1.3).unwrap();
    }

    #[test]
    fn full_3d_protocol_walkthrough() {
        let mut guide = SessionGuide::new(0.1366, 343.0, 2, true).unwrap();
        assert_eq!(guide.current(), Instruction::RollPhone);
        // Large TDoA: keep rolling.
        guide.observe_tdoa(0.000_3).unwrap();
        assert_eq!(guide.current(), Instruction::RollPhone);
        // Near zero: stop rolling; stillness starts calibration.
        guide.observe_tdoa(1e-6).unwrap();
        assert_eq!(guide.current(), Instruction::StopRolling);
        guide.observe_stillness(0.5).unwrap();
        assert!(matches!(guide.current(), Instruction::HoldStill { .. }));
        if let Instruction::HoldStill { remaining } = guide.current() {
            assert!((remaining - 0.7).abs() < 1e-9);
        } else {
            panic!("expected HoldStill");
        }
        guide.observe_stillness(0.8).unwrap();
        assert_eq!(guide.current(), Instruction::Slide { done: 0, target: 2 });
        guide.observe_slide(&slide(0.55, 2.0)).unwrap();
        guide.observe_slide(&slide(-0.54, 1.0)).unwrap();
        assert_eq!(guide.current(), Instruction::LowerPhone);
        guide.observe_stature_change().unwrap();
        guide.observe_slide(&slide(0.56, 3.0)).unwrap();
        guide.observe_slide(&slide(-0.55, 2.0)).unwrap();
        assert_eq!(guide.current(), Instruction::Done);
        assert!(guide.is_complete());
    }

    #[test]
    fn two_d_protocol_skips_lowering() {
        let mut guide = SessionGuide::new(0.1366, 343.0, 1, false).unwrap();
        drive_to_upper_slides(&mut guide);
        guide.observe_slide(&slide(0.55, 1.0)).unwrap();
        assert!(guide.is_complete());
    }

    #[test]
    fn rejected_slides_do_not_count() {
        let mut guide = SessionGuide::new(0.1366, 343.0, 1, false).unwrap();
        drive_to_upper_slides(&mut guide);
        // Too short.
        guide.observe_slide(&slide(0.3, 1.0)).unwrap();
        assert!(matches!(
            guide.current(),
            Instruction::SlideAgain {
                reason: Rejection::TooShort { .. }
            }
        ));
        // Too rotated.
        guide.observe_slide(&slide(0.6, 25.0)).unwrap();
        assert!(matches!(
            guide.current(),
            Instruction::SlideAgain {
                reason: Rejection::TooMuchRotation { .. }
            }
        ));
        assert!(!guide.is_complete());
        // A good one finishes.
        guide.observe_slide(&slide(0.6, 3.0)).unwrap();
        assert!(guide.is_complete());
    }

    #[test]
    fn out_of_phase_observations_are_rejected() {
        let mut guide = SessionGuide::new(0.1366, 343.0, 1, true).unwrap();
        assert!(guide.observe_stillness(1.0).is_err());
        assert!(guide.observe_slide(&slide(0.55, 1.0)).is_err());
        assert!(guide.observe_stature_change().is_err());
        guide.observe_tdoa(0.0).unwrap();
        assert_eq!(guide.current(), Instruction::StopRolling);
        guide.observe_stillness(2.0).unwrap();
        assert!(guide.observe_tdoa(0.0).is_err()); // rolling is over
        assert!(guide.observe_stillness(-1.0).is_err());
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(SessionGuide::new(0.0, 343.0, 1, false).is_err());
        assert!(SessionGuide::new(0.14, 0.0, 1, false).is_err());
        assert!(SessionGuide::new(0.14, 343.0, 0, false).is_err());
    }
}
