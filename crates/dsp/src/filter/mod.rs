//! Digital filters.
//!
//! Two families cover HyperEar's acoustic filtering:
//!
//! - [`fir`] — windowed-sinc FIR design and zero-phase filtering; the
//!   band-pass stage of Acoustic Signal Preprocessing uses these to isolate
//!   the 2–6.4 kHz chirp band from ambient noise (Section III, "ASP").
//! - [`biquad`] — RBJ biquad sections for cheap streaming filters, used by
//!   the simulator to shape microphone frequency responses and noise
//!   spectra.

pub mod biquad;
pub mod fir;

pub use biquad::{Biquad, BiquadKind};
pub use fir::{FirFilter, ZeroPhaseFir};
