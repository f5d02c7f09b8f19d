//! Digital filters.
//!
//! Three families cover everything HyperEar needs:
//!
//! - [`fir`] — windowed-sinc FIR design and zero-phase filtering; the
//!   band-pass stage of Acoustic Signal Preprocessing uses these to isolate
//!   the 2–6.4 kHz chirp band from ambient noise (Section III, "ASP").
//! - [`biquad`] — RBJ biquad sections for cheap streaming filters, used by
//!   the simulator to shape microphone frequency responses and noise
//!   spectra.
//! - [`sma`] — the simple-moving-average low-pass the paper applies to the
//!   100 Hz inertial signals (n = 4, ≈15 Hz cut-off; Section V-A-1).

pub mod biquad;
pub mod fir;
pub mod sma;

pub use biquad::{Biquad, BiquadKind};
pub use fir::{FirFilter, ZeroPhaseFir};
pub use sma::MovingAverage;
