//! Fig. 7: measured TDoA versus roll angle α, with zero crossings at the
//! in-direction angles 90° and 270° and extremes of ±D/S at 0°/180°.

use crate::report::Report;
use hyperear::sdf::{find_crossings, RollObservation};
use hyperear_sim::phone::PhoneModel;
use hyperear_sim::scenario::rotation_sweep;

/// Runs the experiment.
#[must_use]
pub(crate) fn run() -> Report {
    let mut report = Report::new(
        "fig07",
        "Fig. 7: TDoA versus roll angle α (speaker 5 m away, Galaxy S4)",
    );
    let phone = PhoneModel::galaxy_s4();
    let samples = rotation_sweep(&phone, 5.0, 360, 0.15, 42).expect("valid sweep");
    report.line("  α (deg)   TDoA (ms)      [paper: −(D/S)·cos α, ±0.40 ms extremes for the S4]");
    for &alpha in &[0, 45, 90, 135, 180, 225, 270, 315] {
        let s = samples[alpha as usize];
        report.line(format!("  {alpha:>7}   {:>8.4}", s.tdoa_ms));
    }
    let obs: Vec<RollObservation> = samples
        .iter()
        .map(|s| RollObservation {
            roll_degrees: s.alpha_degrees,
            tdoa: s.tdoa_ms / 1_000.0,
        })
        .collect();
    let crossings = find_crossings(&obs).expect("enough observations");
    report.blank();
    report.line(format!(
        "  Zero crossings found at: {}",
        crossings
            .iter()
            .map(|c| format!("{:.1}° ({:?})", c.roll_degrees, c.side))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let near_in_direction = crossings
        .iter()
        .all(|c| (c.roll_degrees - 90.0).abs() < 8.0 || (c.roll_degrees - 270.0).abs() < 8.0);
    report.line(format!(
        "  Paper claim (crossings at 90°/270°): {}",
        if near_in_direction && !crossings.is_empty() {
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
    fn crossings_reproduce() {
        let text = run().render();
        assert!(text.contains("REPRODUCED"), "{text}");
        assert!(text.contains("90"));
    }
}
