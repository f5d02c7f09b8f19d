//! # hyperear-geom
//!
//! Geometry for the [HyperEar] reproduction:
//!
//! - [`vec`](mod@vec) — 2D/3D vectors.
//! - [`array`](mod@array) — the N-microphone array description (device frame,
//!   derived pairwise baselines) every layer consumes.
//! - [`devices`] — the named device-preset table (Galaxy S4 / Note 3 /
//!   synthetic multi-mic arrays); the single home of the mic constants.
//! - [`doa`] — far-field planar direction-of-arrival from pairwise
//!   delays (the 3-mic 2D DOA construction).
//! - [`rotation`] — planar rotations and z-axis (roll) frames, used by the
//!   Speaker Direction Finding component and by the motion simulator.
//! - [`hyperbola`] — the locus `|p−f1| − |p−f2| = Δd` a single TDoA
//!   measurement constrains the speaker to (paper Eq. 1).
//! - [`tdoa_regions`] — how many hyperbolas a given microphone separation
//!   and sampling rate can distinguish (paper Eq. 2) and how wide the
//!   ambiguity regions grow with range (paper Figs. 3–4).
//! - [`triangulate`] — the two-hyperbola intersection of paper Eqs. 5–6
//!   via damped Gauss-Newton, plus a joint multi-slide solver.
//! - [`project`] — the 3D projected-location math of paper Eq. 7.
//!
//! # Example
//!
//! Intersecting the two augmented hyperbolas of one slide:
//!
//! ```
//! use hyperear_geom::triangulate::{SlideGeometry, solve_slide};
//!
//! # fn main() -> Result<(), hyperear_geom::GeomError> {
//! // Ground truth: speaker at (0.05, 5.0) in the slide frame.
//! let truth = hyperear_geom::Vec2::new(0.05, 5.0);
//! let geometry = SlideGeometry::from_ground_truth(0.55, 0.1366, truth);
//! let solution = solve_slide(&geometry)?;
//! assert!((solution.position - truth).norm() < 1e-6);
//! # Ok(())
//! # }
//! ```
//!
//! [HyperEar]: https://doi.org/10.1109/ICDCS.2019.00073

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod devices;
pub mod doa;
mod error;
pub mod hyperbola;
pub mod project;
pub mod rotation;
pub mod tdoa_regions;
pub mod triangulate;
pub mod vec;

pub use array::{MicArray, MicPair, MAX_MICS, MAX_PAIRS};
pub use error::GeomError;
pub use vec::{Vec2, Vec3};
