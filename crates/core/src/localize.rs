//! 2D TDoA Localization (paper Section VI-A).
//!
//! Turns one slide's augmented TDoA pair plus its inertially-estimated
//! sliding distance into the two-hyperbola intersection of Eqs. 5–6, and
//! aggregates multiple slides into one robust estimate (the paper's
//! "5-slide aggregation").
//!
//! All positions are expressed in the **phone frame**: x along the
//! phone's +y (slide) axis, origin at the midpoint of Mic1's travel, the
//! speaker in the upper half-plane. Backward slides (the "back" of
//! back-and-forth) are mirrored into this frame before solving, so their
//! solutions aggregate directly with forward ones.

use crate::config::Aggregation;
use crate::tdoa::AugmentedTdoa;
use crate::HyperEarError;
use hyperear_geom::hyperbola::HalfHyperbola;
use hyperear_geom::triangulate::{solve_joint_with, SlideGeometry, SlideSolution};
use hyperear_geom::Vec2;

/// Builds the phone-frame [`SlideGeometry`] for one slide.
///
/// `slide_distance` is the signed inertial displacement along the
/// phone's y-axis (negative = backward slide); `mic_separation` the
/// phone's Mic1→Mic2 distance. Backward slides are mirrored into the
/// forward convention (negating both distance differences), which leaves
/// the solved position directly comparable across slides.
///
/// # Errors
///
/// Returns [`HyperEarError::InvalidParameter`] for a zero slide distance
/// or non-positive separation.
pub fn slide_geometry(
    slide_distance: f64,
    mic_separation: f64,
    tdoa: &AugmentedTdoa,
) -> Result<SlideGeometry, HyperEarError> {
    if mic_separation <= 0.0 {
        return Err(HyperEarError::invalid(
            "mic_separation",
            format!("must be positive, got {mic_separation}"),
        ));
    }
    if slide_distance == 0.0 || !slide_distance.is_finite() {
        return Err(HyperEarError::invalid(
            "slide_distance",
            format!("must be non-zero and finite, got {slide_distance}"),
        ));
    }
    let forward = slide_distance > 0.0;
    let (d1, d2) = if forward {
        (tdoa.delta_d1, tdoa.delta_d2)
    } else {
        (-tdoa.delta_d1, -tdoa.delta_d2)
    };
    Ok(SlideGeometry::new(
        slide_distance.abs(),
        mic_separation,
        d1,
        d2,
    )?)
}

/// One slide's localization outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlideFix {
    /// The geometry that was solved.
    pub geometry: SlideGeometry,
    /// The solver's output.
    pub solution: SlideSolution,
}

/// An aggregated 2D estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate2d {
    /// Speaker position in the phone frame, metres.
    pub position: Vec2,
    /// Perpendicular distance `L` from the slide line to the speaker,
    /// metres (the `position.y` component; in 3D sessions this is a slant
    /// distance).
    pub range: f64,
    /// Number of slides aggregated.
    pub slides_used: usize,
}

/// Reusable working storage for [`localize_with`]: the per-slide fixes
/// and the median coordinate buffers.
#[derive(Debug, Clone, Default)]
pub struct LocalizeScratch {
    fixes: Vec<SlideFix>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    hyperbolas: Vec<(HalfHyperbola, HalfHyperbola)>,
}

impl LocalizeScratch {
    /// An empty scratch.
    #[must_use]
    pub fn new() -> Self {
        LocalizeScratch::default()
    }

    /// The per-slide fixes from the most recent [`localize_with`] call.
    #[must_use]
    pub(crate) fn fixes(&self) -> &[SlideFix] {
        &self.fixes
    }
}

/// Solves each slide and aggregates per the configured policy.
///
/// The per-slide fixes land in `scratch`; only the aggregate estimate is
/// returned.
///
/// # Errors
///
/// Returns [`HyperEarError::InvalidParameter`] for an empty input and
/// propagates solver failures (a slide whose measurements admit no
/// solution fails the whole call — callers filter such slides upstream).
pub fn localize_with(
    geometries: &[SlideGeometry],
    aggregation: Aggregation,
    scratch: &mut LocalizeScratch,
) -> Result<Estimate2d, HyperEarError> {
    scratch.fixes.clear();
    if geometries.is_empty() {
        return Err(HyperEarError::invalid(
            "geometries",
            "need at least one slide geometry",
        ));
    }
    for g in geometries {
        scratch.fixes.push(SlideFix {
            geometry: *g,
            solution: solve_joint_with(std::slice::from_ref(g), &mut scratch.hyperbolas)?,
        });
    }
    let fixes = &scratch.fixes;
    let estimate = match aggregation {
        Aggregation::Median => {
            scratch.xs.clear();
            scratch
                .xs
                .extend(fixes.iter().map(|f| f.solution.position.x));
            scratch.ys.clear();
            scratch
                .ys
                .extend(fixes.iter().map(|f| f.solution.position.y));
            let position = Vec2::new(median(&mut scratch.xs), median(&mut scratch.ys));
            Estimate2d {
                position,
                range: position.y,
                slides_used: fixes.len(),
            }
        }
        Aggregation::Joint => {
            let joint = solve_joint_with(geometries, &mut scratch.hyperbolas)?;
            Estimate2d {
                position: joint.position,
                range: joint.position.y,
                slides_used: geometries.len(),
            }
        }
    };
    Ok(estimate)
}

/// Median of a non-empty slice, sorting it in place (average of the
/// middle two for even lengths). Unstable sort: ties under `total_cmp`
/// are bit-identical, so the result matches a stable sort exactly.
fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    values.sort_unstable_by(f64::total_cmp);
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-slide fixes and the aggregate of one [`localize_with`] call.
    fn localize(
        geometries: &[SlideGeometry],
        aggregation: Aggregation,
    ) -> Result<(Vec<SlideFix>, Estimate2d), HyperEarError> {
        let mut scratch = LocalizeScratch::new();
        let estimate = localize_with(geometries, aggregation, &mut scratch)?;
        Ok((scratch.fixes().to_vec(), estimate))
    }

    const D: f64 = 0.1366;

    fn tdoa_for(speaker: Vec2, d_prime: f64, forward: bool) -> AugmentedTdoa {
        // Forward ground truth in the phone frame.
        let g = SlideGeometry::from_ground_truth(d_prime, D, speaker);
        let (d1, d2) = if forward {
            (g.delta_d1, g.delta_d2)
        } else {
            // What a backward slide would physically measure: mirrored.
            (-g.delta_d1, -g.delta_d2)
        };
        AugmentedTdoa {
            delta_d1: d1,
            delta_d2: d2,
            pairs_mic1: 1,
            pairs_mic2: 1,
        }
    }

    #[test]
    fn forward_slide_recovers_speaker() {
        let speaker = Vec2::new(0.07, 5.0);
        let tdoa = tdoa_for(speaker, 0.55, true);
        let g = slide_geometry(0.55, D, &tdoa).unwrap();
        let (fixes, est) = localize(&[g], Aggregation::Median).unwrap();
        assert_eq!(fixes.len(), 1);
        assert!((est.position - speaker).norm() < 1e-6);
        assert!((est.range - 5.0).abs() < 1e-6);
    }

    #[test]
    fn backward_slide_lands_in_the_same_frame() {
        let speaker = Vec2::new(0.07, 5.0);
        let tdoa = tdoa_for(speaker, 0.55, false);
        let g = slide_geometry(-0.55, D, &tdoa).unwrap();
        let (_, est) = localize(&[g], Aggregation::Median).unwrap();
        assert!(
            (est.position - speaker).norm() < 1e-6,
            "got {:?}",
            est.position
        );
    }

    #[test]
    fn mixed_directions_aggregate() {
        let speaker = Vec2::new(0.0, 4.0);
        let slides: Vec<SlideGeometry> = [0.55f64, -0.52, 0.56, -0.54, 0.55]
            .iter()
            .map(|&d| {
                let tdoa = tdoa_for(speaker, d.abs(), d > 0.0);
                slide_geometry(d, D, &tdoa).unwrap()
            })
            .collect();
        for agg in [Aggregation::Median, Aggregation::Joint] {
            let (fixes, est) = localize(&slides, agg).unwrap();
            assert_eq!(fixes.len(), 5);
            assert_eq!(est.slides_used, 5);
            assert!(
                (est.position - speaker).norm() < 1e-5,
                "{agg:?}: {:?}",
                est.position
            );
        }
    }

    #[test]
    fn median_aggregation_resists_one_bad_slide() {
        let speaker = Vec2::new(0.0, 5.0);
        let mut geoms: Vec<SlideGeometry> = (0..5)
            .map(|_| {
                let tdoa = tdoa_for(speaker, 0.55, true);
                slide_geometry(0.55, D, &tdoa).unwrap()
            })
            .collect();
        // Corrupt one slide's Δd1 badly (e.g. an echo-captured beacon).
        geoms[2].delta_d1 += 0.004;
        let (_, est) = localize(&geoms, Aggregation::Median).unwrap();
        assert!(
            (est.position - speaker).norm() < 0.05,
            "median estimate {:?}",
            est.position
        );
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn with_variant_matches_allocating_form() {
        let speaker = Vec2::new(0.0, 4.0);
        let slides: Vec<SlideGeometry> = [0.55f64, -0.52, 0.56, -0.54, 0.55]
            .iter()
            .map(|&d| {
                let tdoa = tdoa_for(speaker, d.abs(), d > 0.0);
                slide_geometry(d, D, &tdoa).unwrap()
            })
            .collect();
        let mut scratch = LocalizeScratch::new();
        for agg in [Aggregation::Median, Aggregation::Joint] {
            let (fixes_ref, est_ref) = localize(&slides, agg).unwrap();
            for _ in 0..2 {
                let est = localize_with(&slides, agg, &mut scratch).unwrap();
                assert_eq!(est, est_ref);
                assert_eq!(scratch.fixes(), fixes_ref.as_slice());
            }
        }
        assert!(localize_with(&[], Aggregation::Median, &mut scratch).is_err());
        assert!(scratch.fixes().is_empty());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let tdoa = AugmentedTdoa {
            delta_d1: 0.0,
            delta_d2: 0.0,
            pairs_mic1: 1,
            pairs_mic2: 1,
        };
        assert!(slide_geometry(0.0, D, &tdoa).is_err());
        assert!(slide_geometry(0.5, 0.0, &tdoa).is_err());
        assert!(slide_geometry(f64::NAN, D, &tdoa).is_err());
        assert!(localize(&[], Aggregation::Median).is_err());
    }

    #[test]
    fn range_equals_position_y() {
        let speaker = Vec2::new(0.3, 2.5);
        let tdoa = tdoa_for(speaker, 0.5, true);
        let g = slide_geometry(0.5, D, &tdoa).unwrap();
        let (_, est) = localize(&[g], Aggregation::Joint).unwrap();
        assert_eq!(est.range, est.position.y);
    }
}
