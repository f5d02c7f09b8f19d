//! Fig. 9: the integral of noisy acceleration drifts approximately
//! linearly; anchoring on the zero-velocity slide endpoints (Eq. 4)
//! removes the accumulated error.

use crate::report::Report;
use hyperear::imu::preprocess::preprocess;
use hyperear::imu::velocity::estimate_velocity;
use hyperear_sim::environment::Environment;
use hyperear_sim::motion::MotionProfile;
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::ScenarioBuilder;

/// Runs the experiment.
#[must_use]
pub(crate) fn run() -> Report {
    let mut report = Report::new(
        "fig09",
        "Fig. 9: velocity-integral drift and the Eq. 4 linear correction",
    );
    // In-hand motion: tilt wander and bias make the drift visible.
    let rec = ScenarioBuilder::new(PhoneModel::galaxy_s4())
        .environment(Environment::anechoic())
        .motion_profile(MotionProfile::average_hand())
        .speaker_range(3.0)
        .slides(1)
        .seed(91)
        .render()
        .expect("render");
    let fs = rec.imu.sample_rate;
    let (linear, _) = preprocess(&rec.imu.accel, 60, 4).expect("preprocess");
    let slide = rec.truth.motion.slides[0];
    let start = ((slide.start_time - 0.15) * fs) as usize;
    let end = (((slide.end_time() + 0.15) * fs) as usize).min(linear.len());
    let y_accel: Vec<f64> = linear[start..end].iter().map(|v| v.y).collect();
    let est = estimate_velocity(&y_accel, fs).expect("velocity");

    report.line("  t into slide : integral v(t)  corrected v*(t)   [m/s]");
    let n = est.raw.len();
    for k in 0..=8 {
        let i = (n - 1) * k / 8;
        report.line(format!(
            "  {:>10.2}s : {:>10.4}    {:>10.4}",
            i as f64 / fs,
            est.raw[i],
            est.corrected[i]
        ));
    }
    report.blank();
    let end_drift = est.raw[n - 1].abs();
    let end_corrected = est.corrected[n - 1].abs();
    report.line(format!(
        "  End-of-slide velocity: raw integral {:.4} m/s, corrected {:.6} m/s",
        est.raw[n - 1],
        est.corrected[n - 1]
    ));
    report.line(format!(
        "  Fitted drift slope err_a = {:.4} m/s²",
        est.drift_slope
    ));
    report.line(format!(
        "  Paper claim (drift visible, corrected speed returns to zero): {}",
        if end_drift > 5.0 * end_corrected.max(1e-9) || end_corrected < 1e-9 {
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
    fn drift_correction_reproduces() {
        let text = run().render();
        assert!(text.contains("REPRODUCED"), "{text}");
        assert!(text.contains("err_a"));
    }
}
