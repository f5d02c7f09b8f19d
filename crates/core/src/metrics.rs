//! Localization-error metrics.
//!
//! The paper reports error CDFs (Figs. 14–19) and summary statistics
//! (mean and "90%-precision" accuracy). This module computes those in the
//! same format so the benchmark harness can print paper-comparable rows.

use crate::pipeline::SessionOutcome;
use crate::HyperEarError;

/// Summary statistics over a set of localization errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Number of trials.
    pub count: usize,
    /// Mean error, metres.
    pub mean: f64,
    /// Median error, metres.
    pub median: f64,
    /// 90th-percentile error — the paper's "90%-precision accuracy".
    pub p90: f64,
    /// Maximum error, metres.
    pub max: f64,
}

/// An empirical cumulative distribution over errors.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw errors.
    ///
    /// # Errors
    ///
    /// Returns [`HyperEarError::InvalidParameter`] for an empty input or
    /// non-finite values.
    pub fn new(errors: &[f64]) -> Result<Self, HyperEarError> {
        if errors.is_empty() {
            return Err(HyperEarError::invalid("errors", "need at least one error"));
        }
        if errors.iter().any(|e| !e.is_finite()) {
            return Err(HyperEarError::invalid("errors", "errors must be finite"));
        }
        let mut sorted = errors.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Cdf { sorted })
    }

    /// The fraction of errors ≤ `x`.
    #[must_use]
    pub fn fraction_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-th percentile (0–100), linearly interpolated.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = p / 100.0 * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Summary statistics of the underlying errors.
    #[must_use]
    pub fn stats(&self) -> ErrorStats {
        let n = self.sorted.len();
        ErrorStats {
            count: n,
            mean: self.sorted.iter().sum::<f64>() / n as f64,
            median: self.percentile(50.0),
            p90: self.percentile(90.0),
            max: *self.sorted.last().expect("non-empty"),
        }
    }
}

/// Aggregated outcome counts over a batch of monitored sessions —
/// the per-stage diagnostics the fault-matrix experiment reports
/// ("how many sessions recovered, and what got rejected along the way").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Sessions recorded.
    pub sessions: usize,
    /// Sessions that completed cleanly.
    pub ok: usize,
    /// Sessions that produced an estimate after dropping or rejecting
    /// slides.
    pub degraded: usize,
    /// Sessions with no usable estimate.
    pub failed: usize,
    /// Inertial slides detected, summed over sessions.
    pub slides_detected: usize,
    /// Slides rejected by the quality gate.
    pub slides_rejected: usize,
    /// Accepted slides that produced no acoustic fix (missing beacons or
    /// implausible solution).
    pub slides_without_fix: usize,
    /// Slides dropped by the degradation policy's re-slide budget.
    pub slides_dropped: usize,
}

impl OutcomeTally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one monitored-session outcome into the tally.
    pub fn record(&mut self, outcome: &SessionOutcome) {
        self.sessions += 1;
        let diagnostics = match outcome {
            SessionOutcome::Ok(_) => {
                self.ok += 1;
                None
            }
            SessionOutcome::Degraded { diagnostics, .. } => {
                self.degraded += 1;
                Some(diagnostics)
            }
            SessionOutcome::Failed { diagnostics, .. } => {
                self.failed += 1;
                diagnostics.as_ref()
            }
        };
        if let SessionOutcome::Ok(result) = outcome {
            self.slides_detected += result.slides.len();
        }
        if let Some(d) = diagnostics {
            self.slides_detected += d.slides_detected;
            self.slides_rejected += d.slides_rejected;
            self.slides_without_fix += d.slides_without_fix;
            self.slides_dropped += d.slides_dropped;
        }
    }

    /// The fraction of sessions that produced an estimate (`Ok` or
    /// `Degraded`); 0 for an empty tally.
    #[must_use]
    pub fn usable_fraction(&self) -> f64 {
        if self.sessions == 0 {
            return 0.0;
        }
        (self.ok + self.degraded) as f64 / self.sessions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_distribution() {
        let errors: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let s = Cdf::new(&errors).unwrap().stats();
        assert_eq!(s.count, 100);
        assert!((s.mean - 0.505).abs() < 1e-12);
        assert!((s.median - 0.505).abs() < 0.01);
        assert!((s.p90 - 0.901).abs() < 0.01);
        assert_eq!(s.max, 1.0);
    }

    #[test]
    fn fraction_below_boundaries() {
        let cdf = Cdf::new(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(cdf.fraction_below(0.0), 0.0);
        assert_eq!(cdf.fraction_below(0.2), 0.5);
        assert_eq!(cdf.fraction_below(1.0), 1.0);
    }

    #[test]
    fn percentile_interpolates() {
        let cdf = Cdf::new(&[0.0, 1.0]).unwrap();
        assert_eq!(cdf.percentile(0.0), 0.0);
        assert_eq!(cdf.percentile(50.0), 0.5);
        assert_eq!(cdf.percentile(100.0), 1.0);
        let single = Cdf::new(&[0.7]).unwrap();
        assert_eq!(single.percentile(90.0), 0.7);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let cdf = Cdf::new(&[0.5, 0.1, 0.9, 0.3]).unwrap();
        assert_eq!(cdf.percentile(0.0), 0.1);
        assert_eq!(cdf.stats().max, 0.9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Cdf::new(&[]).is_err());
        assert!(Cdf::new(&[0.1, f64::NAN]).is_err());
        assert!(Cdf::new(&[f64::INFINITY]).is_err());
        assert!(Cdf::new(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        let _ = Cdf::new(&[0.1]).unwrap().percentile(150.0);
    }
}
