//! Shoebox-room acoustics via the image-source method.
//!
//! The paper's environments — a 17 m × 13 m meeting room and a
//! 95 m × 16.5 m mall corridor — put reflections on top of the direct
//! path. Early reflections are the part of reverberation that can bias a
//! matched-filter peak, so the simulator renders them explicitly: each
//! reflection of order `k` is an *image source* mirrored across the walls
//! with gain `r^k` (r = wall reflection coefficient), and the capture
//! chain treats every image as another speaker.

use crate::SimError;
use hyperear_geom::Vec3;

/// One propagation path from (an image of) the speaker to a receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationPath {
    /// Position of the (image) source in world coordinates.
    pub source: Vec3,
    /// Reflection gain accumulated along the path (1.0 for the direct
    /// path); excludes spherical-spreading attenuation, which depends on
    /// the receiver and is applied at render time.
    pub gain: f64,
    /// Reflection order (0 for the direct path).
    pub order: usize,
}

/// An axis-aligned shoebox room with uniform wall reflectivity.
///
/// The room spans `[0, size.x] × [0, size.y] × [0, size.z]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Room {
    /// Interior dimensions, metres.
    pub size: Vec3,
    /// Pressure reflection coefficient of the walls, in `[0, 1)`.
    /// Typical: 0.5–0.7 for a furnished meeting room, 0.8 for a hard mall
    /// corridor.
    pub reflection_coeff: f64,
    /// Maximum reflection order rendered.
    pub max_order: usize,
}

impl Room {
    /// The paper's meeting room: "approximately 17m×13m", assumed 3 m
    /// high, moderately absorbent (seats, people).
    #[must_use]
    pub fn meeting_room() -> Self {
        Room {
            size: Vec3::new(17.0, 13.0, 3.0),
            reflection_coeff: 0.55,
            max_order: 2,
        }
    }

    /// The paper's mall corridor: "95m×16.5m with shops open on both
    /// sides", assumed 4 m high with hard surfaces.
    #[must_use]
    pub(crate) fn mall_corridor() -> Self {
        Room {
            size: Vec3::new(95.0, 16.5, 4.0),
            reflection_coeff: 0.7,
            max_order: 2,
        }
    }

    /// Validates the room and that `p` lies inside it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for degenerate dimensions,
    /// out-of-range reflectivity, or a point outside the room.
    pub(crate) fn validate_point(&self, p: Vec3, what: &'static str) -> Result<(), SimError> {
        self.validate()?;
        let inside = (0.0..=self.size.x).contains(&p.x)
            && (0.0..=self.size.y).contains(&p.y)
            && (0.0..=self.size.z).contains(&p.z);
        if !inside {
            return Err(SimError::invalid(
                what,
                format!("point {p:?} outside room of size {:?}", self.size),
            ));
        }
        Ok(())
    }

    /// Validates the room parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for non-positive dimensions
    /// or a reflection coefficient outside `[0, 1)`.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        if self.size.x <= 0.0 || self.size.y <= 0.0 || self.size.z <= 0.0 {
            return Err(SimError::invalid(
                "size",
                format!("room dimensions must be positive, got {:?}", self.size),
            ));
        }
        if !(0.0..1.0).contains(&self.reflection_coeff) {
            return Err(SimError::invalid(
                "reflection_coeff",
                format!("must be in [0, 1), got {}", self.reflection_coeff),
            ));
        }
        if self.max_order > 4 {
            return Err(SimError::invalid(
                "max_order",
                format!(
                    "orders above 4 are prohibitively many images, got {}",
                    self.max_order
                ),
            ));
        }
        Ok(())
    }

    /// Enumerates the image sources of a speaker at `source`, up to
    /// `max_order` reflections, including the direct path (order 0).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if the source lies outside
    /// the room or the room is invalid.
    pub fn image_sources(&self, source: Vec3) -> Result<Vec<PropagationPath>, SimError> {
        self.validate_point(source, "source")?;
        let order = self.max_order as isize;
        let mut paths = Vec::new();
        for nx in -order..=order {
            for ny in -order..=order {
                for nz in -order..=order {
                    let reflections = nx.unsigned_abs() + ny.unsigned_abs() + nz.unsigned_abs();
                    if reflections as isize > order {
                        continue;
                    }
                    let img = Vec3::new(
                        mirror(source.x, self.size.x, nx),
                        mirror(source.y, self.size.y, ny),
                        mirror(source.z, self.size.z, nz),
                    );
                    paths.push(PropagationPath {
                        source: img,
                        gain: self.reflection_coeff.powi(reflections as i32),
                        order: reflections,
                    });
                }
            }
        }
        Ok(paths)
    }
}

/// Free-field propagation: the direct path only.
#[must_use]
pub(crate) fn free_field(source: Vec3) -> Vec<PropagationPath> {
    vec![PropagationPath {
        source,
        gain: 1.0,
        order: 0,
    }]
}

/// Mirrors coordinate `x` in a box of length `l` for image index `n`:
/// even `n` translates, odd `n` reflects.
fn mirror(x: f64, l: f64, n: isize) -> f64 {
    let n_f = n as f64;
    if n % 2 == 0 {
        x + n_f * l
    } else {
        // Odd image: reflect across the nearer wall of the n-th cell.
        (n_f + 1.0) * l - x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_path_is_included_with_unit_gain() {
        let room = Room::meeting_room();
        let src = Vec3::new(5.0, 5.0, 1.0);
        let paths = room.image_sources(src).unwrap();
        let direct: Vec<_> = paths.iter().filter(|p| p.order == 0).collect();
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0].gain, 1.0);
        assert_eq!(direct[0].source, src);
    }

    #[test]
    fn first_order_count_is_six() {
        let room = Room {
            max_order: 1,
            ..Room::meeting_room()
        };
        let paths = room.image_sources(Vec3::new(5.0, 5.0, 1.0)).unwrap();
        assert_eq!(paths.iter().filter(|p| p.order == 1).count(), 6);
        assert_eq!(paths.len(), 7);
    }

    #[test]
    fn image_gains_decay_with_order() {
        let room = Room::meeting_room();
        let paths = room.image_sources(Vec3::new(3.0, 4.0, 1.5)).unwrap();
        for p in &paths {
            let expected = room.reflection_coeff.powi(p.order as i32);
            assert!((p.gain - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn wall_reflection_geometry() {
        // Source at x=3 in a 17 m room: the image across x=0 sits at -3,
        // the image across x=17 at 31.
        let room = Room {
            max_order: 1,
            ..Room::meeting_room()
        };
        let src = Vec3::new(3.0, 4.0, 1.5);
        let paths = room.image_sources(src).unwrap();
        let xs: Vec<f64> = paths
            .iter()
            .filter(|p| p.order == 1 && p.source.y == 4.0 && p.source.z == 1.5)
            .map(|p| p.source.x)
            .collect();
        assert!(xs.contains(&-3.0), "xs {xs:?}");
        assert!(xs.contains(&31.0), "xs {xs:?}");
    }

    #[test]
    fn mirror_even_translates_odd_reflects() {
        assert_eq!(mirror(3.0, 10.0, 0), 3.0);
        assert_eq!(mirror(3.0, 10.0, 2), 23.0);
        assert_eq!(mirror(3.0, 10.0, -2), -17.0);
        assert_eq!(mirror(3.0, 10.0, 1), 17.0); // reflect across x=10
        assert_eq!(mirror(3.0, 10.0, -1), -3.0); // reflect across x=0
    }

    #[test]
    fn image_path_lengths_are_longer_than_direct() {
        let room = Room::meeting_room();
        let src = Vec3::new(8.0, 6.0, 1.5);
        let receiver = Vec3::new(2.0, 3.0, 1.2);
        let paths = room.image_sources(src).unwrap();
        let direct_len = src.distance(receiver);
        for p in paths.iter().filter(|p| p.order > 0) {
            assert!(p.source.distance(receiver) > direct_len);
        }
    }

    #[test]
    fn out_of_room_source_rejected() {
        let room = Room::meeting_room();
        assert!(room.image_sources(Vec3::new(-1.0, 5.0, 1.0)).is_err());
        assert!(room.image_sources(Vec3::new(5.0, 50.0, 1.0)).is_err());
    }

    #[test]
    fn invalid_room_rejected() {
        let mut room = Room::meeting_room();
        room.reflection_coeff = 1.0;
        assert!(room.validate().is_err());
        let mut room = Room::meeting_room();
        room.size = Vec3::new(0.0, 5.0, 3.0);
        assert!(room.validate().is_err());
        let mut room = Room::meeting_room();
        room.max_order = 9;
        assert!(room.validate().is_err());
    }

    #[test]
    fn free_field_is_single_path() {
        let paths = free_field(Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].order, 0);
        assert_eq!(paths[0].gain, 1.0);
    }

    #[test]
    fn presets_are_valid() {
        assert!(Room::meeting_room().validate().is_ok());
        assert!(Room::mall_corridor().validate().is_ok());
    }

    #[test]
    fn second_order_count() {
        // |nx|+|ny|+|nz| <= 2 in 3D: 1 + 6 + (6 choose axis-pairs...) = 25.
        let room = Room::meeting_room();
        let paths = room.image_sources(Vec3::new(5.0, 5.0, 1.0)).unwrap();
        assert_eq!(paths.len(), 25);
    }
}
