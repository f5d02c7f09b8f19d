//! Chirp beacon synthesis.
//!
//! The HyperEar speaker "periodically plays a chirp signal, in which the
//! frequency first linearly increases and then decreases with time, for its
//! good auto correlation property" (Section IV-A). The evaluation uses a
//! 2–6.4 kHz linear chirp repeated every 200 ms.

use crate::window::Window;
use crate::DspError;

/// The frequency trajectory of a chirp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChirpShape {
    /// Frequency sweeps linearly from `f0` to `f1` over the full duration.
    Up,
    /// Frequency sweeps linearly from `f1` down to `f0`.
    Down,
    /// Frequency rises `f0 → f1` over the first half, then falls back to
    /// `f0` — the HyperEar beacon shape.
    UpDown,
}

/// A synthesized chirp with cached samples.
///
/// # Example
///
/// ```
/// use hyperear_dsp::chirp::{Chirp, ChirpShape};
///
/// # fn main() -> Result<(), hyperear_dsp::DspError> {
/// let beacon = Chirp::hyperear_beacon(44_100.0)?;
/// assert_eq!(beacon.samples().len(), (0.04 * 44_100.0) as usize);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chirp {
    f0: f64,
    f1: f64,
    duration: f64,
    sample_rate: f64,
    shape: ChirpShape,
    samples: Vec<f64>,
}

impl Chirp {
    /// The lower edge of the paper's chirp band, in hertz.
    pub const HYPEREAR_F0: f64 = 2_000.0;
    /// The upper edge of the paper's chirp band, in hertz.
    pub const HYPEREAR_F1: f64 = 6_400.0;
    /// The beacon duration used in this reproduction, in seconds.
    ///
    /// The paper does not state the chirp length explicitly; 40 ms gives a
    /// time-bandwidth product of ~176 with the 4.4 kHz sweep, comfortably
    /// inside the 200 ms repetition period.
    pub const HYPEREAR_DURATION: f64 = 0.04;
    /// The beacon repetition period: "playing chirp signals on every 200ms".
    pub const HYPEREAR_PERIOD: f64 = 0.2;
    /// The longest template [`Chirp::new`] synthesizes, in samples:
    /// 2²⁴ (about 350 s at 48 kHz, 128 MiB of `f64`). A beacon is tens
    /// of milliseconds; the cap turns an absurd `duration × sample_rate`
    /// into a typed error instead of an impossible allocation.
    pub const MAX_LEN: usize = 1 << 24;

    /// Synthesizes a chirp.
    ///
    /// `f0`/`f1` are the sweep band edges in hertz, `duration` in seconds.
    /// A Hann amplitude envelope is applied to suppress spectral splatter
    /// at the chirp edges, which keeps the beacon inside its nominal band.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `sample_rate` is not
    /// finite and positive, frequencies are not in `(0, fs/2)`,
    /// `f0 >= f1`, or the duration yields fewer than 8 samples or more
    /// than [`Chirp::MAX_LEN`].
    pub fn new(
        f0: f64,
        f1: f64,
        duration: f64,
        sample_rate: f64,
        shape: ChirpShape,
    ) -> Result<Self, DspError> {
        if !(sample_rate.is_finite() && sample_rate > 0.0) {
            return Err(DspError::invalid(
                "sample_rate",
                "must be finite and positive",
            ));
        }
        let nyquist = sample_rate / 2.0;
        if !(f0 > 0.0 && f0 < nyquist && f1 > 0.0 && f1 < nyquist) {
            return Err(DspError::invalid(
                "f0/f1",
                format!("frequencies must be in (0, {nyquist})"),
            ));
        }
        if f0 >= f1 {
            return Err(DspError::invalid(
                "f0/f1",
                format!("need f0 < f1, got {f0} >= {f1}"),
            ));
        }
        let len = (duration * sample_rate).round();
        if len.is_nan() || len > Self::MAX_LEN as f64 {
            return Err(DspError::invalid(
                "duration",
                format!(
                    "{duration} s at {sample_rate:e} Hz is {len:e} samples, over the {} limit",
                    Self::MAX_LEN
                ),
            ));
        }
        let n = len as usize;
        if n < 8 {
            return Err(DspError::invalid(
                "duration",
                format!("chirp must span at least 8 samples, got {n}"),
            ));
        }
        let samples = synthesize(f0, f1, n, sample_rate, shape);
        Ok(Chirp {
            f0,
            f1,
            duration,
            sample_rate,
            shape,
            samples,
        })
    }

    /// The standard HyperEar beacon: 2–6.4 kHz up-down chirp, 40 ms.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `sample_rate` cannot carry
    /// the 6.4 kHz band edge.
    pub fn hyperear_beacon(sample_rate: f64) -> Result<Self, DspError> {
        Chirp::new(
            Self::HYPEREAR_F0,
            Self::HYPEREAR_F1,
            Self::HYPEREAR_DURATION,
            sample_rate,
            ChirpShape::UpDown,
        )
    }

    /// The chirp samples (unit peak amplitude envelope).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The lower band edge in hertz.
    #[must_use]
    pub fn f0(&self) -> f64 {
        self.f0
    }

    /// The upper band edge in hertz.
    #[must_use]
    pub fn f1(&self) -> f64 {
        self.f1
    }

    /// The duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// The sample rate the chirp was synthesized at.
    #[must_use]
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// The frequency trajectory shape.
    #[must_use]
    pub fn shape(&self) -> ChirpShape {
        self.shape
    }

    /// The swept bandwidth `f1 - f0` in hertz.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.f1 - self.f0
    }

    /// Time-bandwidth product, the matched-filter processing gain.
    #[must_use]
    pub fn time_bandwidth(&self) -> f64 {
        self.duration * self.bandwidth()
    }
}

fn synthesize(f0: f64, f1: f64, n: usize, fs: f64, shape: ChirpShape) -> Vec<f64> {
    let dt = 1.0 / fs;
    let total = n as f64 * dt;
    let tau = 2.0 * std::f64::consts::PI;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * dt;
        // Phase = 2π ∫ f(t) dt for the piecewise-linear frequency law.
        let phase = match shape {
            ChirpShape::Up => {
                let k = (f1 - f0) / total;
                tau * (f0 * t + 0.5 * k * t * t)
            }
            ChirpShape::Down => {
                let k = (f1 - f0) / total;
                tau * (f1 * t - 0.5 * k * t * t)
            }
            ChirpShape::UpDown => {
                let half = total / 2.0;
                let k = (f1 - f0) / half;
                if t <= half {
                    tau * (f0 * t + 0.5 * k * t * t)
                } else {
                    let u = t - half;
                    let phase_half = tau * (f0 * half + 0.5 * k * half * half);
                    phase_half + tau * (f1 * u - 0.5 * k * u * u)
                }
            }
        };
        out.push(phase.sin());
    }
    // Hann envelope to confine spectral leakage.
    for (i, s) in out.iter_mut().enumerate() {
        *s *= Window::Hann.value(i, n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::xcorr;
    use crate::spectrum::band_energy_fraction;

    #[test]
    fn beacon_parameters() {
        let c = Chirp::hyperear_beacon(44_100.0).unwrap();
        assert_eq!(c.f0(), 2_000.0);
        assert_eq!(c.f1(), 6_400.0);
        assert_eq!(c.shape(), ChirpShape::UpDown);
        assert!((c.bandwidth() - 4_400.0).abs() < 1e-9);
        assert!((c.time_bandwidth() - 176.0).abs() < 1e-9);
        assert_eq!(c.samples().len(), 1764);
    }

    #[test]
    fn amplitude_is_bounded() {
        for shape in [ChirpShape::Up, ChirpShape::Down, ChirpShape::UpDown] {
            let c = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, shape).unwrap();
            assert!(c.samples().iter().all(|s| s.abs() <= 1.0 + 1e-12));
        }
    }

    #[test]
    fn energy_is_confined_to_band() {
        let c = Chirp::hyperear_beacon(44_100.0).unwrap();
        let frac = band_energy_fraction(c.samples(), 44_100.0, 1_800.0, 6_600.0).unwrap();
        assert!(frac > 0.97, "in-band energy fraction was {frac}");
    }

    #[test]
    fn autocorrelation_peaks_sharply_at_zero_lag() {
        let c = Chirp::hyperear_beacon(44_100.0).unwrap();
        let n = c.samples().len();
        let mut padded = vec![0.0; n * 3];
        padded[n..2 * n].copy_from_slice(c.samples());
        let ac = xcorr(&padded, c.samples()).unwrap();
        let peak_idx = ac
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak_idx, n);
        // Sidelobes 20 samples away should be well below the main peak —
        // the "good auto correlation property" the paper relies on.
        let main = ac[n];
        let sidelobe = ac[n + 20].abs().max(ac[n - 20].abs());
        assert!(sidelobe < 0.2 * main, "sidelobe ratio {}", sidelobe / main);
    }

    #[test]
    fn up_and_down_chirps_differ() {
        let up = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::Up).unwrap();
        let down = Chirp::new(2_000.0, 6_400.0, 0.04, 44_100.0, ChirpShape::Down).unwrap();
        assert_ne!(up.samples(), down.samples());
    }

    #[test]
    fn updown_is_nearly_symmetric_in_band() {
        // The up-down chirp spends equal time at each frequency; spectral
        // content of the two halves should match closely.
        let c = Chirp::hyperear_beacon(44_100.0).unwrap();
        let n = c.samples().len();
        let first: Vec<f64> = c.samples()[..n / 2].to_vec();
        let second: Vec<f64> = c.samples()[n / 2..].to_vec();
        let e1: f64 = first.iter().map(|x| x * x).sum();
        let e2: f64 = second.iter().map(|x| x * x).sum();
        assert!((e1 - e2).abs() / e1 < 0.05);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Chirp::new(0.0, 6_400.0, 0.04, 44_100.0, ChirpShape::Up).is_err());
        assert!(Chirp::new(2_000.0, 30_000.0, 0.04, 44_100.0, ChirpShape::Up).is_err());
        assert!(Chirp::new(6_400.0, 2_000.0, 0.04, 44_100.0, ChirpShape::Up).is_err());
        assert!(Chirp::new(2_000.0, 6_400.0, 0.00001, 44_100.0, ChirpShape::Up).is_err());
        assert!(Chirp::new(2_000.0, 6_400.0, 0.04, 0.0, ChirpShape::Up).is_err());
        // Non-finite rates, and templates past MAX_LEN, are typed errors
        // rather than a `usize::MAX`-sample allocation.
        for fs in [f64::NAN, f64::INFINITY, 1e300] {
            assert!(Chirp::new(2_000.0, 6_400.0, 0.04, fs, ChirpShape::Up).is_err());
        }
        assert!(Chirp::new(2_000.0, 6_400.0, 1e9, 44_100.0, ChirpShape::Up).is_err());
        assert!(Chirp::new(2_000.0, 6_400.0, f64::NAN, 44_100.0, ChirpShape::Up).is_err());
    }

    #[test]
    fn duration_accessor_matches_request() {
        let c = Chirp::new(2_000.0, 6_400.0, 0.05, 48_000.0, ChirpShape::UpDown).unwrap();
        assert_eq!(c.duration(), 0.05);
        assert_eq!(c.sample_rate(), 48_000.0);
    }
}
