//! Fig. 8: segmenting slides from the power of the y-axis acceleration.
//!
//! A simulated back-and-forth slide pair is pushed through the paper's
//! segmenter (Eq. 3: W = 4, threshold 0.2, hangover m = 8); the report
//! compares detected windows against the ground-truth slide plan.

use crate::report::Report;
use hyperear::imu::analyze::{analyze_session, SessionConfig};
use hyperear::imu::preprocess::preprocess;
use hyperear::imu::segment::power_levels;
use hyperear_sim::environment::Environment;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;

/// Runs the experiment.
#[must_use]
pub(crate) fn run() -> Report {
    let mut report = Report::new(
        "fig08",
        "Fig. 8: movement segmentation from y-axis acceleration power",
    );
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .speaker_range(3.0)
        .slides(2)
        .seed(81)
        .render()
        .expect("render");
    let fs = rec.imu.sample_rate;
    let (linear, _) = preprocess(&rec.imu.accel, 60, 4).expect("preprocess");
    let y: Vec<f64> = linear.iter().map(|v| v.y).collect();
    let power = power_levels(&y, 4).expect("power");

    // A coarse textual power trace: max power in 0.5 s buckets.
    report.line("  time bucket : max P(t) of y-axis acceleration [(m/s²)²]");
    for (b, chunk) in power.chunks((0.5 * fs) as usize).enumerate() {
        let max = chunk.iter().cloned().fold(0.0f64, f64::max);
        let bar_len = ((max * 4.0).sqrt() * 8.0).min(40.0) as usize;
        report.line(format!(
            "  {:>5.1}-{:>4.1}s : {:>7.3} {}",
            b as f64 * 0.5,
            (b + 1) as f64 * 0.5,
            max,
            "#".repeat(bar_len)
        ));
    }
    report.blank();

    let session = analyze_session(&rec.imu.accel, &rec.imu.gyro, fs, &SessionConfig::default())
        .expect("analysis");
    report.line(format!(
        "  Detected slides: {}   (ground truth: {})",
        session.slides.len(),
        rec.truth.motion.slides.len()
    ));
    for (est, truth) in session.slides.iter().zip(&rec.truth.motion.slides) {
        report.line(format!(
            "    detected [{:>5.2}, {:>5.2}]s  truth [{:>5.2}, {:>5.2}]s  distance est {:>6.3} m / true {:>6.3} m",
            est.start_time,
            est.end_time,
            truth.start_time,
            truth.end_time(),
            est.distance,
            truth.distance
        ));
    }
    let matched = session.slides.len() == rec.truth.motion.slides.len();
    report.line(format!(
        "  Paper claim (threshold 0.2, m = 8 cleanly segments slides): {}",
        if matched {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_reproduces() {
        let text = run().render();
        assert!(text.contains("REPRODUCED"), "{text}");
        assert!(text.contains("Detected slides: 2"));
    }
}
