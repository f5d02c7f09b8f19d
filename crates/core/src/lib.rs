//! # hyperear
//!
//! A from-scratch reproduction of **HyperEar: Indoor Remote Object
//! Finding with a Single Phone** (Zhu, Zhang, Liu, Chang, Chen —
//! ICDCS 2019). HyperEar localizes a small object carrying a cheap chirp
//! beacon using one commodity smartphone — no synchronization, no extra
//! infrastructure — by *sliding the phone through the air* to grow the
//! effective TDoA baseline from the 13–15 cm between the phone's two
//! microphones to the 50–60 cm of the slide.
//!
//! The crate mirrors the paper's six components (Fig. 5):
//!
//! | Paper component | Module |
//! |---|---|
//! | Acoustic Signal Preprocessing (band-pass, sub-sample interpolation, SFO correction) | [`asp`], [`sfo`] |
//! | Speaker Direction Finding | [`sdf`] |
//! | Motion Signal Preprocessing + Phone Displacement Estimation | re-exported from `hyperear-imu` |
//! | 2D TDoA Localization (augmented TDoA + triangulation) | [`tdoa`], [`localize`] |
//! | Projected Location Estimation (3D) | [`ple`] |
//! | End-to-end session pipeline | [`pipeline`] |
//! | Interactive user guidance (the app-side protocol driver) | [`guide`] |
//!
//! Plus [`baseline`] (the naive fixed-baseline schemes of paper §II-C the
//! evaluation compares against), [`metrics`] (error CDFs in the format
//! of paper Figs. 14–19), and [`batch`] (deterministic parallel batch
//! session processing over a thread pool).
//!
//! # Quick start
//!
//! ```
//! use hyperear::pipeline::{SessionEngine, SessionInput};
//! use hyperear::config::HyperEarConfig;
//! use hyperear_sim::{phone::PhoneModel, scenario::ScenarioBuilder};
//! use hyperear_sim::environment::Environment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate a session: one slide, speaker 3 m away.
//! let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
//!     .environment(Environment::anechoic())
//!     .speaker_range(3.0)
//!     .slides(1)
//!     .seed(7)
//!     .render()?;
//!
//! // Run the HyperEar pipeline on the recording. The engine keeps its
//! // detector and scratch warm, so hold it across sessions.
//! let mut engine = SessionEngine::new(HyperEarConfig::galaxy_s4())?;
//! let result = engine.run(&SessionInput {
//!     audio_sample_rate: rec.audio.sample_rate,
//!     left: &rec.audio.left,
//!     right: &rec.audio.right,
//!     imu_sample_rate: rec.imu.sample_rate,
//!     accel: &rec.imu.accel,
//!     gyro: &rec.imu.gyro,
//! })?;
//! let est = result.upper.expect("a slide was localized");
//! assert!((est.range - 3.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asp;
pub mod baseline;
pub mod batch;
pub mod config;
pub mod doa;
mod error;
pub mod guide;
pub mod localize;
pub mod metrics;
pub mod pipeline;
pub mod ple;
pub mod sdf;
pub mod sfo;
pub mod stream;
pub mod tdoa;

pub use error::HyperEarError;

// The inertial chain is part of the published system; re-export it so
// downstream users need only this crate.
pub use hyperear_imu as imu;
