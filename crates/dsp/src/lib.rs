//! # hyperear-dsp
//!
//! Acoustic digital-signal-processing primitives for the [HyperEar]
//! reproduction. The Rust acoustic-DSP ecosystem is thin, so everything the
//! HyperEar pipeline needs is implemented here from scratch:
//!
//! - [`fft`] — radix-4 complex FFT/IFFT and real-signal helpers.
//! - [`plan`] — planned FFT execution: precomputed twiddle/bit-reversal
//!   tables ([`plan::FftPlan`]) from one process-wide registry, and the
//!   caller-held [`plan::DspScratch`] buffer arena behind the
//!   allocation-free hot path.
//! - [`window`] — Hann/Hamming/Blackman/rectangular analysis windows.
//! - [`filter`] — windowed-sinc band-pass FIR design and zero-phase
//!   filtering, RBJ biquads, and the moving-average window the paper
//!   uses on inertial signals.
//! - [`correlate`] — FFT-accelerated cross-correlation and the one
//!   overlap-save matched-filter engine, band-pass optionally folded in:
//!   the full-rate single-template filter (MCCI fusion) and the
//!   K-template band-limited bank whose decimated analytic correlation
//!   chirp beacon detection runs on (BeepBeep-style).
//! - [`chirp`] — linear and up-down chirp synthesis (the HyperEar beacon).
//! - [`estimator`] — robust TDoA estimator kernels: floored GCC-PHAT
//!   whitening and sub-band coherence weighting from one shared
//!   correlation spectrum (real, or the decimated analytic sequence),
//!   and MCCI cross-channel correlation fusion.
//! - [`interpolate`] — parabolic and windowed-sinc sub-sample interpolation
//!   for pushing TDoA resolution below the 44.1 kHz sampling grid, and
//!   the full-rate rebuild of a band-limited decimated correlation.
//! - [`delay`] — windowed-sinc fractional-delay mixing (propagation
//!   rendering in the simulator).
//! - [`envelope`] — analytic-signal (Hilbert) envelopes for carrier-free
//!   peak detection of high-band beacons.
//! - [`peak`] — the detection epilogue: exact median and maximum of a
//!   correlation (or its envelope, with the Rayleigh noise floor) in one
//!   pass, then threshold-based peak picking.
//! - [`spectrum`] — periodograms and band-energy measurements.
//! - [`level`] — signal power and dB conversion.
//! - [`goertzel`] — single-bin DFT (the phase-tracking DOA front-end).
//! - [`quantize`] — 16-bit ADC quantization and PCM byte codecs.
//! - [`stft`] — short-time Fourier transform / spectrograms.
//! - [`wav`] — minimal RIFF PCM16 file reading and writing.
//!
//! # Example
//!
//! Detecting a chirp embedded in noise with a matched filter:
//!
//! ```
//! use hyperear_dsp::chirp::{Chirp, ChirpShape};
//! use hyperear_dsp::correlate::StreamingMatchedFilter;
//! use hyperear_dsp::plan::DspScratch;
//!
//! # fn main() -> Result<(), hyperear_dsp::DspError> {
//! let fs = 44_100.0;
//! let chirp = Chirp::new(2_000.0, 6_400.0, 0.04, fs, ChirpShape::UpDown)?;
//! let reference = chirp.samples();
//!
//! // A recording with the chirp placed at sample 1000.
//! let mut recording = vec![0.0f64; 8192];
//! recording[1000..1000 + reference.len()].copy_from_slice(reference);
//!
//! let filter = StreamingMatchedFilter::new(reference)?;
//! let mut output = Vec::new();
//! filter.correlate_into(&recording, &mut DspScratch::new(), &mut output)?;
//! let peak = output
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
//!     .map(|(i, _)| i)
//!     .unwrap();
//! assert_eq!(peak, 1000);
//! # Ok(())
//! # }
//! ```
//!
//! [HyperEar]: https://doi.org/10.1109/ICDCS.2019.00073

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chirp;
pub mod complex;
pub mod correlate;
pub mod delay;
pub mod envelope;
mod error;
pub mod estimator;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod interpolate;
pub mod level;
pub mod peak;
pub mod plan;
pub mod quantize;
pub mod spectrum;
pub mod stft;
pub mod wav;
pub mod window;

pub use complex::Complex;
pub use error::DspError;

/// Speed of sound in air at room temperature, in metres per second.
///
/// The HyperEar paper uses 343 m/s throughout (Section II).
pub const SPEED_OF_SOUND: f64 = 343.0;
