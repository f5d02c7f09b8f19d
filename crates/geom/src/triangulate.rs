//! Two-hyperbola triangulation of the augmented-TDoA slide geometry.
//!
//! Paper Section VI-A: a slide of length `D′` turns each microphone into a
//! synthetic two-element array along the slide axis. In the slide frame —
//! origin at the midpoint of Mic1's two positions, x-axis along the slide —
//! the speaker `(x, y)` satisfies
//!
//! ```text
//! √((x−D′/2)² + y²) − √((x+D′/2)² + y²) = Δd₁          (Eq. 5)
//! √((x−D−D′/2)² + y²) − √((x−D+D′/2)² + y²) = Δd₂      (Eq. 6)
//! ```
//!
//! where `D` is the Mic1→Mic2 offset along the slide axis and
//! `Δdᵢ = Δt′ᵢ·S` are the per-microphone augmented TDoAs. The intersection
//! is found by damped Gauss-Newton seeded with the far-field closed form;
//! the quantity HyperEar ultimately wants is `L = y`, the perpendicular
//! distance from the slide line to the speaker.

use crate::hyperbola::HalfHyperbola;
use crate::{GeomError, Vec2};

/// The measurements of one slide, expressed in the slide frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlideGeometry {
    /// Sliding distance `D′` between positions p1 and p2, in metres.
    pub d_prime: f64,
    /// Offset of Mic2 from Mic1 along the slide axis (the inter-microphone
    /// distance `D` on the phone), in metres. Negative for backward
    /// slides, where the slide frame's x-axis (the motion direction)
    /// points opposite to the phone's y-axis and Mic2 trails Mic1.
    pub mic_offset: f64,
    /// Augmented distance difference at Mic1: `(t2 − t1 − nT)·S`, in
    /// metres (`d(p2) − d(p1)` for Mic1).
    pub delta_d1: f64,
    /// Augmented distance difference at Mic2, in metres.
    pub delta_d2: f64,
}

impl SlideGeometry {
    /// Builds a geometry from measurements.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidParameter`] for non-positive `d_prime`
    /// or `mic_offset`, or non-finite measurements.
    pub fn new(
        d_prime: f64,
        mic_offset: f64,
        delta_d1: f64,
        delta_d2: f64,
    ) -> Result<Self, GeomError> {
        if !(d_prime > 0.0 && d_prime.is_finite()) {
            return Err(GeomError::invalid(
                "d_prime",
                format!("slide distance must be positive, got {d_prime}"),
            ));
        }
        if !(mic_offset != 0.0 && mic_offset.is_finite()) {
            return Err(GeomError::invalid(
                "mic_offset",
                format!("mic offset must be non-zero and finite, got {mic_offset}"),
            ));
        }
        if !delta_d1.is_finite() || !delta_d2.is_finite() {
            return Err(GeomError::invalid(
                "delta_d",
                "distance differences must be finite",
            ));
        }
        Ok(SlideGeometry {
            d_prime,
            mic_offset,
            delta_d1,
            delta_d2,
        })
    }

    /// Builds the exact measurements a noiseless slide would produce for a
    /// speaker at `speaker` (slide-frame coordinates).
    ///
    /// Mostly for tests and simulators: the forward model of Eqs. 5–6.
    #[must_use]
    pub fn from_ground_truth(d_prime: f64, mic_offset: f64, speaker: Vec2) -> Self {
        let m1_p1 = Vec2::new(-d_prime / 2.0, 0.0);
        let m1_p2 = Vec2::new(d_prime / 2.0, 0.0);
        let m2_p1 = Vec2::new(mic_offset - d_prime / 2.0, 0.0);
        let m2_p2 = Vec2::new(mic_offset + d_prime / 2.0, 0.0);
        SlideGeometry {
            d_prime,
            mic_offset,
            delta_d1: speaker.distance(m1_p2) - speaker.distance(m1_p1),
            delta_d2: speaker.distance(m2_p2) - speaker.distance(m2_p1),
        }
    }

    /// Mic1's pre- and post-slide positions in the slide frame.
    #[must_use]
    pub(crate) fn mic1_positions(&self) -> (Vec2, Vec2) {
        (
            Vec2::new(-self.d_prime / 2.0, 0.0),
            Vec2::new(self.d_prime / 2.0, 0.0),
        )
    }

    /// Mic2's pre- and post-slide positions in the slide frame.
    #[must_use]
    pub(crate) fn mic2_positions(&self) -> (Vec2, Vec2) {
        (
            Vec2::new(self.mic_offset - self.d_prime / 2.0, 0.0),
            Vec2::new(self.mic_offset + self.d_prime / 2.0, 0.0),
        )
    }

    /// The two half-hyperbolas of Eqs. 5 and 6, with measurements clamped
    /// into the feasible band `|Δd| ≤ D′` (noise can push a measurement
    /// slightly past the physical limit; clamping keeps the locus defined).
    ///
    /// # Errors
    ///
    /// Propagates [`GeomError::Degenerate`] from degenerate foci (cannot
    /// happen for validated geometries).
    pub(crate) fn hyperbolas(&self) -> Result<(HalfHyperbola, HalfHyperbola), GeomError> {
        let clamp = |dd: f64| {
            let lim = 0.999_999 * self.d_prime;
            dd.clamp(-lim, lim)
        };
        let (m1a, m1b) = self.mic1_positions();
        let (m2a, m2b) = self.mic2_positions();
        // residual convention: |p − f1| − |p − f2| = Δd with Δd = d(p2) − d(p1)
        // means f1 = p2-position, f2 = p1-position.
        let h1 = HalfHyperbola::new(m1b, m1a, clamp(self.delta_d1))?;
        let h2 = HalfHyperbola::new(m2b, m2a, clamp(self.delta_d2))?;
        Ok((h1, h2))
    }

    /// Closed-form far-field initial guess for the speaker position.
    ///
    /// In the far field `Δd₁ ≈ −D′·x/R` and `Δd₂ ≈ −D′·(x−D)/R`, giving
    /// `R ≈ D·D′/(Δd₂ − Δd₁)` and `x ≈ −Δd₁·R/D′`. Falls back to a
    /// broadside guess when the difference of differences is too small to
    /// invert (speaker effectively at infinity).
    #[must_use]
    pub(crate) fn far_field_guess(&self) -> Vec2 {
        let diff = self.delta_d2 - self.delta_d1;
        let r = if diff.abs() > 1e-9 {
            (self.mic_offset * self.d_prime / diff).abs()
        } else {
            100.0 // effectively at infinity; pick a large broadside range
        };
        let r = r.clamp(0.05, 200.0);
        let x = (-self.delta_d1 * r / self.d_prime).clamp(-r, r);
        let y = (r * r - x * x).max(1e-6).sqrt();
        Vec2::new(x, y)
    }
}

/// The result of a triangulation solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlideSolution {
    /// Estimated speaker position in the slide frame. `position.y` is the
    /// paper's `L`, the perpendicular distance to the slide line.
    pub position: Vec2,
    /// Gauss-Newton iterations used.
    pub iterations: usize,
    /// Final residual norm in metres.
    pub residual: f64,
}

impl SlideSolution {}

/// Solves one slide's two-hyperbola intersection (paper Eqs. 5–6).
///
/// Damped Gauss-Newton seeded by the slide's far-field guess. The
/// solution is constrained to the upper half-plane (`y > 0`): the speaker's
/// side is resolved earlier by Speaker Direction Finding, so the mirror
/// ambiguity is already broken.
///
/// # Errors
///
/// Returns [`GeomError::NoConvergence`] if the residual fails to drop
/// below tolerance, and propagates construction errors from infeasible
/// geometry.
pub fn solve_slide(geometry: &SlideGeometry) -> Result<SlideSolution, GeomError> {
    solve_joint(std::slice::from_ref(geometry))
}

/// Jointly solves several slides for a single speaker position.
///
/// Every slide contributes two residuals; the normal equations of the
/// stacked Jacobian are solved each step. Slides must share a slide frame
/// (the 5-slide aggregation protocol re-slides along the same line).
///
/// # Errors
///
/// Returns [`GeomError::InvalidParameter`] for an empty slice, otherwise
/// as [`solve_slide`].
pub fn solve_joint(geometries: &[SlideGeometry]) -> Result<SlideSolution, GeomError> {
    solve_joint_with(geometries, &mut Vec::new())
}

/// Allocation-free form of [`solve_joint`]: the per-slide hyperbola pairs
/// live in a caller-owned buffer that is cleared and reused. Results are
/// identical to [`solve_joint`].
///
/// # Errors
///
/// Same conditions as [`solve_joint`].
pub fn solve_joint_with(
    geometries: &[SlideGeometry],
    hyperbolas: &mut Vec<(HalfHyperbola, HalfHyperbola)>,
) -> Result<SlideSolution, GeomError> {
    if geometries.is_empty() {
        return Err(GeomError::invalid("geometries", "need at least one slide"));
    }
    hyperbolas.clear();
    for g in geometries {
        hyperbolas.push(g.hyperbolas()?);
    }

    // Initial guess: average of per-slide far-field guesses.
    let mut p = geometries
        .iter()
        .fold(Vec2::ZERO, |acc, g| acc + g.far_field_guess())
        / geometries.len() as f64;
    if p.y <= 0.0 {
        p.y = 1.0;
    }

    let tol = 1e-10;
    let max_iter = 200;
    let mut lambda = 1e-6;
    let mut residual_norm = f64::INFINITY;

    for iter in 0..max_iter {
        // Stack residuals and normal equations.
        let (mut jtj00, mut jtj01, mut jtj11) = (0.0, 0.0, 0.0);
        let (mut jtr0, mut jtr1) = (0.0, 0.0);
        let mut sum_r2 = 0.0;
        for (h1, h2) in hyperbolas.iter() {
            for h in [h1, h2] {
                let r = h.residual(p);
                sum_r2 += r * r;
                let g = match h.residual_gradient(p) {
                    Some(g) => g,
                    None => Vec2::new(1e-6, 1e-6),
                };
                jtj00 += g.x * g.x;
                jtj01 += g.x * g.y;
                jtj11 += g.y * g.y;
                jtr0 += g.x * r;
                jtr1 += g.y * r;
            }
        }
        residual_norm = sum_r2.sqrt();
        if residual_norm < tol {
            return Ok(SlideSolution {
                position: p,
                iterations: iter,
                residual: residual_norm,
            });
        }
        // Levenberg damping on the normal equations.
        let a00 = jtj00 + lambda;
        let a11 = jtj11 + lambda;
        let det = a00 * a11 - jtj01 * jtj01;
        if det.abs() < 1e-300 {
            lambda = (lambda * 10.0).max(1e-6);
            continue;
        }
        let dx = (-jtr0 * a11 + jtr1 * jtj01) / det;
        let dy = (jtr0 * jtj01 - jtr1 * a00) / det;
        let mut candidate = p + Vec2::new(dx, dy);
        // Keep the iterate in the resolved half-plane and off the axis.
        if candidate.y < 1e-4 {
            candidate.y = 1e-4;
        }
        // Accept/reject with adaptive damping.
        let cand_r2: f64 = hyperbolas
            .iter()
            .flat_map(|(h1, h2)| [h1.residual(candidate), h2.residual(candidate)])
            .map(|r| r * r)
            .sum();
        if cand_r2 < sum_r2 {
            p = candidate;
            lambda = (lambda * 0.3).max(1e-12);
        } else {
            lambda = (lambda * 10.0).min(1e6);
            if lambda >= 1e6 {
                // Damping saturated: accept the best point found so far if
                // the residual is already small in physical terms (< 0.1 mm
                // per measurement), else report failure below.
                if residual_norm < 1e-4 * (2 * geometries.len()) as f64 {
                    return Ok(SlideSolution {
                        position: p,
                        iterations: iter,
                        residual: residual_norm,
                    });
                }
            }
        }
    }
    // Converged "well enough" is still useful: noisy measurements have no
    // exact intersection, so a small stationary residual is the expected
    // outcome, not an error.
    if residual_norm.is_finite() && residual_norm < 0.05 * (2 * geometries.len()) as f64 {
        return Ok(SlideSolution {
            position: p,
            iterations: max_iter,
            residual: residual_norm,
        });
    }
    Err(GeomError::NoConvergence {
        iterations: max_iter,
        residual: residual_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const S4_D: f64 = 0.1366;

    #[test]
    fn recovers_exact_ground_truth() {
        for speaker in [
            Vec2::new(0.05, 5.0),
            Vec2::new(-0.4, 3.0),
            Vec2::new(1.0, 7.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(2.0, 2.0),
        ] {
            let g = SlideGeometry::from_ground_truth(0.55, S4_D, speaker);
            let sol = solve_slide(&g).unwrap();
            assert!(
                (sol.position - speaker).norm() < 1e-6,
                "speaker {speaker:?} got {:?}",
                sol.position
            );
        }
    }

    #[test]
    fn far_field_guess_is_close_at_range() {
        let speaker = Vec2::new(0.2, 6.0);
        let g = SlideGeometry::from_ground_truth(0.55, S4_D, speaker);
        let guess = g.far_field_guess();
        assert!(
            (guess - speaker).norm() < 0.5,
            "guess {guess:?} vs {speaker:?}"
        );
    }

    #[test]
    fn joint_solve_averages_noise() {
        // Perturb each slide's measurements; the joint solution should be
        // closer to the truth than the worst single-slide solution.
        let speaker = Vec2::new(0.1, 5.0);
        let noise = [1e-4, -8e-5, 5e-5, -3e-5, 7e-5];
        let slides: Vec<SlideGeometry> = noise
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut g = SlideGeometry::from_ground_truth(0.55, S4_D, speaker);
                g.delta_d1 += n;
                g.delta_d2 -= noise[(i + 2) % noise.len()];
                g
            })
            .collect();
        let joint = solve_joint(&slides).unwrap();
        let worst = slides
            .iter()
            .map(|g| (solve_slide(g).unwrap().position - speaker).norm())
            .fold(0.0f64, f64::max);
        let joint_err = (joint.position - speaker).norm();
        assert!(joint_err <= worst + 1e-9, "joint {joint_err} worst {worst}");
    }

    #[test]
    fn noisy_measurements_still_converge() {
        let speaker = Vec2::new(0.0, 7.0);
        let mut g = SlideGeometry::from_ground_truth(0.55, S4_D, speaker);
        g.delta_d1 += 2e-4; // ~0.2 mm measurement error
        g.delta_d2 -= 2e-4;
        let sol = solve_slide(&g).unwrap();
        // Error grows with range but must stay bounded.
        assert!(
            (sol.position - speaker).norm() < 2.0,
            "err {}",
            (sol.position - speaker).norm()
        );
        assert!(sol.residual < 1e-3);
    }

    #[test]
    fn longer_slides_reduce_noise_sensitivity() {
        // The Fig. 14 effect, in its geometric core: identical measurement
        // noise hurts short slides more.
        let speaker = Vec2::new(0.0, 5.0);
        let noise = 1e-4;
        let err_for = |d_prime: f64| {
            let mut g = SlideGeometry::from_ground_truth(d_prime, S4_D, speaker);
            g.delta_d1 += noise;
            g.delta_d2 -= noise;
            (solve_slide(&g).unwrap().position - speaker).norm()
        };
        let short = err_for(0.15);
        let long = err_for(0.55);
        assert!(long < short, "short {short} long {long}");
    }

    #[test]
    fn infeasible_measurements_are_clamped_not_fatal() {
        // Noise pushes Δd slightly past D′; the solver clamps and proceeds.
        let g = SlideGeometry::new(0.5, S4_D, 0.5001, 0.48).unwrap();
        g.hyperbolas().unwrap();
    }

    #[test]
    fn negative_mic_offset_solves_backward_slides() {
        // A backward slide expressed in its motion frame: Mic2 trails.
        for speaker in [Vec2::new(0.1, 4.0), Vec2::new(-0.5, 6.0)] {
            let g = SlideGeometry::from_ground_truth(0.55, -S4_D, speaker);
            let sol = solve_slide(&g).unwrap();
            assert!(
                (sol.position - speaker).norm() < 1e-6,
                "speaker {speaker:?} got {:?}",
                sol.position
            );
        }
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(SlideGeometry::new(0.0, S4_D, 0.0, 0.0).is_err());
        assert!(SlideGeometry::new(0.5, 0.0, 0.0, 0.0).is_err());
        assert!(SlideGeometry::new(0.5, S4_D, f64::NAN, 0.0).is_err());
        assert!(SlideGeometry::new(0.5, S4_D, 0.0, f64::INFINITY).is_err());
        assert!(solve_joint(&[]).is_err());
    }

    #[test]
    fn mic_positions_layout() {
        let g = SlideGeometry::from_ground_truth(0.6, 0.14, Vec2::new(0.0, 3.0));
        let (a, b) = g.mic1_positions();
        assert_eq!(a, Vec2::new(-0.3, 0.0));
        assert_eq!(b, Vec2::new(0.3, 0.0));
        let (c, d) = g.mic2_positions();
        assert_eq!(c, Vec2::new(0.14 - 0.3, 0.0));
        assert_eq!(d, Vec2::new(0.14 + 0.3, 0.0));
    }

    #[test]
    fn solution_stays_in_upper_half_plane() {
        let speaker = Vec2::new(0.3, 2.0);
        let g = SlideGeometry::from_ground_truth(0.5, S4_D, speaker);
        let sol = solve_slide(&g).unwrap();
        assert!(sol.position.y > 0.0);
    }

    #[test]
    fn forward_model_signs() {
        // Speaker broadside above the midpoint of mic1's travel: moving
        // toward +x takes mic1 slightly toward the speaker's x, so the
        // difference d(p2) − d(p1) reflects the speaker's x offset sign.
        let g = SlideGeometry::from_ground_truth(0.5, S4_D, Vec2::new(0.0, 5.0));
        assert!(g.delta_d1.abs() < 1e-9);
        // Speaker at +x: p2 is closer, so delta_d1 < 0.
        let g = SlideGeometry::from_ground_truth(0.5, S4_D, Vec2::new(1.0, 5.0));
        assert!(g.delta_d1 < 0.0);
    }
}
