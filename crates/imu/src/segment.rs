//! Movement segmentation (paper Section V-A-2, Eq. 3, Fig. 8).
//!
//! "We calculate the power levels of the acceleration signal along y-axis
//! by averaging the accumulative square of the signal amplitude in a
//! sliding time window ... length of the sliding window as 4 samples ...
//! a slide starts when the power levels exceeds a threshold and stops
//! when the power levels goes below the threshold for m samples. An
//! empirical threshold of 0.2 and m = 8 are used."

use crate::ImuError;

/// Parameters of the power-based segmenter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentConfig {
    /// Sliding power window length `W`, samples.
    pub window: usize,
    /// Power threshold for movement, (m/s²)².
    pub threshold: f64,
    /// Hangover `m`: the power must stay below threshold this many
    /// samples before a movement is considered over.
    pub hangover: usize,
    /// Padding added to each side of a detected segment before
    /// integration, samples. The power threshold clips the gentle
    /// beginning/end of a min-jerk profile; padding recovers them (the
    /// padded region is stationary, so the ZUPT correction is unharmed).
    pub padding: usize,
    /// Minimum segment length (before padding) to report, samples —
    /// rejects single-sample noise pops.
    pub min_length: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            window: 4,
            threshold: 0.2,
            hangover: 8,
            padding: 15,
            min_length: 10,
        }
    }
}

impl SegmentConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ImuError::InvalidParameter`] for zero windows or a
    /// non-positive threshold.
    pub(crate) fn validate(&self) -> Result<(), ImuError> {
        if self.window == 0 {
            return Err(ImuError::invalid("window", "must be positive"));
        }
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err(ImuError::invalid(
                "threshold",
                format!("must be positive, got {}", self.threshold),
            ));
        }
        if self.hangover == 0 {
            return Err(ImuError::invalid("hangover", "must be positive"));
        }
        Ok(())
    }
}

impl hyperear_util::ToJson for SegmentConfig {
    fn to_json(&self) -> hyperear_util::Json {
        use hyperear_util::Json;
        Json::obj(vec![
            ("window", Json::Number(self.window as f64)),
            ("threshold", Json::Number(self.threshold)),
            ("hangover", Json::Number(self.hangover as f64)),
            ("padding", Json::Number(self.padding as f64)),
            ("min_length", Json::Number(self.min_length as f64)),
        ])
    }
}

impl hyperear_util::FromJson for SegmentConfig {
    fn from_json(json: &hyperear_util::Json) -> Result<Self, hyperear_util::JsonError> {
        Ok(SegmentConfig {
            window: json.field("window")?,
            threshold: json.field("threshold")?,
            hangover: json.field("hangover")?,
            padding: json.field("padding")?,
            min_length: json.field("min_length")?,
        })
    }
}

/// A detected movement window `[start, end)` in sample indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First sample of the movement (inclusive, after padding).
    pub start: usize,
    /// One past the last sample (exclusive, after padding).
    pub end: usize,
}

/// The sliding power level of Eq. 3: `P(t) = (1/W)·Σ_{n=t}^{t+W-1} a(n)²`.
///
/// # Errors
///
/// Returns [`ImuError::TraceTooShort`] if the signal is shorter than the
/// window and [`ImuError::InvalidParameter`] for a zero window.
pub fn power_levels(signal: &[f64], window: usize) -> Result<Vec<f64>, ImuError> {
    let mut out = Vec::new();
    power_levels_into(signal, window, &mut out)?;
    Ok(out)
}

/// Allocation-free form of [`power_levels`] writing into a caller-owned
/// buffer that is cleared and reused.
///
/// # Errors
///
/// Same conditions as [`power_levels`].
pub(crate) fn power_levels_into(
    signal: &[f64],
    window: usize,
    out: &mut Vec<f64>,
) -> Result<(), ImuError> {
    if window == 0 {
        return Err(ImuError::invalid("window", "must be positive"));
    }
    if signal.len() < window {
        return Err(ImuError::TraceTooShort {
            have: signal.len(),
            need: window,
        });
    }
    out.clear();
    out.reserve(signal.len());
    let mut acc: f64 = signal[..window].iter().map(|x| x * x).sum();
    out.push(acc / window as f64);
    for t in 1..=signal.len() - window {
        acc += signal[t + window - 1] * signal[t + window - 1];
        acc -= signal[t - 1] * signal[t - 1];
        out.push(acc / window as f64);
    }
    // Tail: shrink the window so the output has the same length as input.
    for t in signal.len() - window + 1..signal.len() {
        let tail = &signal[t..];
        out.push(tail.iter().map(|x| x * x).sum::<f64>() / tail.len() as f64);
    }
    Ok(())
}

/// Segments a linear-acceleration axis into movements.
///
/// The per-sample power and the segments land in caller-owned buffers
/// that are cleared and reused.
///
/// # Errors
///
/// Same conditions as [`power_levels`] plus config validation.
pub fn segment_movements_into(
    signal: &[f64],
    config: &SegmentConfig,
    power: &mut Vec<f64>,
    out: &mut Vec<Segment>,
) -> Result<(), ImuError> {
    config.validate()?;
    power_levels_into(signal, config.window, power)?;
    out.clear();
    // Candidates are emitted in ascending start order, so merging the
    // padding overlaps against the last accepted segment as we go is
    // equivalent to the collect-then-merge formulation.
    let push_merged = |out: &mut Vec<Segment>, s: Segment| {
        if let Some(last) = out.last_mut() {
            if s.start <= last.end {
                last.end = last.end.max(s.end);
                return;
            }
        }
        out.push(s);
    };
    let mut state_start: Option<usize> = None;
    let mut below = 0usize;
    for (i, &p) in power.iter().enumerate() {
        match state_start {
            None => {
                if p > config.threshold {
                    state_start = Some(i);
                    below = 0;
                }
            }
            Some(start) => {
                if p > config.threshold {
                    below = 0;
                } else {
                    below += 1;
                    if below >= config.hangover {
                        let end = i + 1 - below;
                        if end - start >= config.min_length {
                            push_merged(out, pad(start, end, config.padding, signal.len()));
                        }
                        state_start = None;
                        below = 0;
                    }
                }
            }
        }
    }
    if let Some(start) = state_start {
        let end = power.len() - below;
        if end.saturating_sub(start) >= config.min_length {
            push_merged(out, pad(start, end, config.padding, signal.len()));
        }
    }
    Ok(())
}

fn pad(start: usize, end: usize, padding: usize, len: usize) -> Segment {
    Segment {
        start: start.saturating_sub(padding),
        end: (end + padding).min(len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_movements(signal: &[f64], config: &SegmentConfig) -> Result<Vec<Segment>, ImuError> {
        let mut out = Vec::new();
        segment_movements_into(signal, config, &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    fn one_slide_signal() -> Vec<f64> {
        // 600 samples: quiet, a 100-sample burst at 200, quiet again.
        let mut s = vec![0.01; 600];
        for i in 0..50 {
            s[200 + i] = 2.0;
            s[250 + i] = -2.0;
        }
        s
    }

    #[test]
    fn power_of_constant_signal() {
        let p = power_levels(&[2.0; 10], 4).unwrap();
        assert_eq!(p.len(), 10);
        assert!(p.iter().all(|&v| (v - 4.0).abs() < 1e-12));
    }

    #[test]
    fn power_window_averages() {
        let p = power_levels(&[1.0, 0.0, 0.0, 0.0, 0.0], 4).unwrap();
        assert!((p[0] - 0.25).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12);
    }

    #[test]
    fn detects_single_slide() {
        let segments = segment_movements(&one_slide_signal(), &SegmentConfig::default()).unwrap();
        assert_eq!(segments.len(), 1);
        let s = segments[0];
        assert!(s.start <= 200 && s.start >= 170, "start {}", s.start);
        assert!(s.end >= 300 && s.end <= 330, "end {}", s.end);
        assert!(s.end - s.start >= 100);
    }

    #[test]
    fn detects_back_and_forth_slides_separately() {
        // Two bursts separated by 70 quiet samples (the inter-slide gap).
        let mut s = vec![0.0; 800];
        for i in 0..60 {
            s[100 + i] = 1.5;
            s[400 + i] = -1.5;
        }
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert_eq!(segments.len(), 2);
        assert!(segments[0].end < segments[1].start);
    }

    #[test]
    fn hangover_bridges_zero_crossings() {
        // A slide's acceleration crosses zero mid-way (accelerate then
        // decelerate); the dip must not split the segment.
        let mut s = vec![0.0; 400];
        for i in 0..40 {
            s[100 + i] = 2.0;
        }
        // 5-sample dip below threshold (less than hangover = 8).
        for i in 0..40 {
            s[145 + i] = -2.0;
        }
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert_eq!(segments.len(), 1);
    }

    #[test]
    fn quiet_trace_has_no_segments() {
        let s = vec![0.05; 500];
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert!(segments.is_empty());
    }

    #[test]
    fn short_noise_pops_are_rejected() {
        let mut s = vec![0.0; 300];
        s[100] = 5.0; // single-sample spike
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert!(segments.is_empty());
    }

    #[test]
    fn movement_running_to_trace_end_is_closed() {
        let mut s = vec![0.0; 200];
        for v in s.iter_mut().skip(150) {
            *v = 2.0;
        }
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].end, 200);
    }

    #[test]
    fn padding_does_not_escape_bounds() {
        let mut s = vec![0.0; 100];
        for v in s.iter_mut().take(30) {
            *v = 2.0;
        }
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].start, 0);
    }

    #[test]
    fn adjacent_padded_segments_merge() {
        let mut s = vec![0.0; 400];
        for i in 0..40 {
            s[100 + i] = 2.0;
            s[160 + i] = 2.0; // 20-sample gap < 2×padding
        }
        let segments = segment_movements(&s, &SegmentConfig::default()).unwrap();
        assert_eq!(segments.len(), 1);
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        // Two bursts whose padded segments merge, plus a tail burst, so
        // the inline merge and the open-at-end close path are exercised.
        let mut s = vec![0.0; 500];
        for i in 0..40 {
            s[100 + i] = 2.0;
            s[160 + i] = 2.0;
        }
        for v in s.iter_mut().skip(450) {
            *v = 2.0;
        }
        let cfg = SegmentConfig::default();
        let reference = segment_movements(&s, &cfg).unwrap();
        let power_ref = power_levels(&s, cfg.window).unwrap();
        let (mut power, mut out) = (vec![9.0; 3], vec![Segment { start: 7, end: 8 }]);
        for _ in 0..2 {
            segment_movements_into(&s, &cfg, &mut power, &mut out).unwrap();
            assert_eq!(out, reference);
            assert_eq!(power, power_ref);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(power_levels(&[], 4).is_err());
        assert!(power_levels(&[1.0; 2], 4).is_err());
        assert!(power_levels(&[1.0; 10], 0).is_err());
        let cfg = SegmentConfig {
            threshold: 0.0,
            ..SegmentConfig::default()
        };
        assert!(segment_movements(&[0.0; 100], &cfg).is_err());
        let cfg = SegmentConfig {
            window: 0,
            ..SegmentConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SegmentConfig {
            hangover: 0,
            ..SegmentConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
