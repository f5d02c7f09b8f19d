//! Fig. 4: (a) hyperbolas are unevenly distributed — dense near the
//! perpendicular bisector, sparse to the sides; (b) expanding the
//! separation D → D′ raises the density everywhere.
//!
//! Reproduced numerically: region-boundary crossings per row in three
//! vertical strips of the mapped area (left / centre / right), for the
//! phone baseline and for a widened one.

use crate::report::Report;
use hyperear_geom::devices;
use hyperear_geom::tdoa_regions::{DensityMap, TdoaQuantizer};
use hyperear_geom::Vec2;

/// Runs the experiment.
#[must_use]
pub(crate) fn run() -> Report {
    let mut report = Report::new(
        "fig04",
        "Fig. 4: hyperbola density — uneven distribution and baseline expansion",
    );
    let fs = 44_100.0;
    let s = 343.0;
    let map_for = |d: f64| {
        let q = TdoaQuantizer::new(Vec2::new(-d / 2.0, 0.0), Vec2::new(d / 2.0, 0.0), fs, s)
            .expect("valid quantizer");
        DensityMap::compute(&q, Vec2::new(-0.3, 0.05), 0.002, 300, 125).expect("valid grid")
    };
    let narrow = map_for(devices::GALAXY_S4.mic_separation);
    let wide = map_for(0.30);

    let profile_n = narrow.crossing_profile(3);
    let profile_w = wide.crossing_profile(3);
    report.line("  Mapped area: x ∈ [-0.3, 0.3] m, y ∈ [0.05, 0.3] m (as in the figure)");
    report.line(format!(
        "  (a) D = 13.66 cm: crossings/row  left {:.1} | centre {:.1} | right {:.1}",
        profile_n[0], profile_n[1], profile_n[2]
    ));
    report.line(format!(
        "      distinct regions in view: {}",
        narrow.distinct_regions()
    ));
    report.line(format!(
        "  (b) D' = 30 cm:   crossings/row  left {:.1} | centre {:.1} | right {:.1}",
        profile_w[0], profile_w[1], profile_w[2]
    ));
    report.line(format!(
        "      distinct regions in view: {}",
        wide.distinct_regions()
    ));
    report.blank();
    let denser_centre = profile_n[1] > profile_n[0] && profile_n[1] > profile_n[2];
    let denser_wide = wide.boundary_crossings() > narrow.boundary_crossings();
    report.line(format!(
        "  Paper claim (a) centre denser than sides: {}",
        if denser_centre {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    report.line(format!(
        "  Paper claim (b) wider separation denser:  {}",
        if denser_wide {
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
    fn both_claims_reproduce() {
        let text = run().render();
        assert_eq!(text.matches("REPRODUCED").count(), 2, "{text}");
    }
}
