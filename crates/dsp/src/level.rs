//! Signal power and decibel utilities.
//!
//! Fig. 19 of the paper sweeps environments by signal-to-noise ratio
//! (> 15 dB quiet room down to 3 dB busy mall); the simulator uses these
//! helpers to scale noise to an exact target SNR.

use crate::DspError;

/// Mean power (mean square) of a signal.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
pub fn power(signal: &[f64]) -> Result<f64, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            what: "power input",
        });
    }
    Ok(signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64)
}

/// Converts decibels to a power ratio: `10^(db/10)`.
#[must_use]
pub fn db_to_power_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_reference_points() {
        assert!((db_to_power_ratio(10.0) - 10.0).abs() < 1e-12);
        assert!((db_to_power_ratio(3.0103) - 2.0).abs() < 1e-4);
        assert_eq!(db_to_power_ratio(0.0), 1.0);
    }

    #[test]
    fn power_is_the_mean_square() {
        assert!((power(&[1.0, -1.0, 3.0, -3.0]).unwrap() - 5.0).abs() < 1e-12);
        assert!(power(&[]).is_err());
    }
}
