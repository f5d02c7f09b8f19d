//! First-class microphone-array description.
//!
//! HyperEar's paper device is exactly two microphones `mic_separation`
//! apart; everything downstream of the detector used to hard-code that.
//! [`MicArray`] generalizes the device model to N microphones at
//! arbitrary positions in the **device frame** — a 2D frame fixed to
//! the phone body with mic 0 at the origin and +y along the primary mic
//! pair (the phone's long axis, matching the roll-frame convention of
//! [`crate::rotation`]: the far-field primary-pair TDoA is ∝ cos α and
//! vanishes at α = 90°/270°). +x is the in-plane perpendicular, toward
//! the paper's "right side" of the phone. Pairwise baselines, pair axes
//! and midpoints are derived, never stored, so an array can't fall out
//! of sync with itself.
//!
//! The array is a fixed-capacity `Copy` value ([`MAX_MICS`] slots): warm
//! session paths can embed and pass it without ever touching the heap,
//! which keeps the counting-allocator gates honest for N-mic sessions.

use crate::error::GeomError;
use crate::vec::Vec2;
use hyperear_util::json::{FromJson, Json, JsonError, ToJson};

/// Maximum number of microphones an array can describe.
///
/// Eight covers every device class the roadmap names (phones, tablets,
/// smart speakers, small ad-hoc arrays) while keeping [`MicArray`]
/// `Copy` and pair scratch fixed-size.
pub const MAX_MICS: usize = 8;

/// Maximum number of distinct microphone pairs (`MAX_MICS choose 2`).
pub const MAX_PAIRS: usize = MAX_MICS * (MAX_MICS - 1) / 2;

/// Two placements closer than this are considered coincident, metres.
/// An order of magnitude below any plausible mic-capsule spacing, and
/// far above f64 noise at phone scale.
pub(crate) const COINCIDENT_EPS: f64 = 1e-6;

/// A set of microphones lying within this perpendicular deviation of a
/// single line is considered collinear, metres.
pub(crate) const COLLINEAR_EPS: f64 = 1e-6;

/// One derived microphone pair of an array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicPair {
    /// Index of the first microphone.
    pub i: usize,
    /// Index of the second microphone.
    pub j: usize,
    /// Distance between the two microphones, metres.
    pub baseline: f64,
    /// Unit vector from mic `i` toward mic `j` in the device frame.
    pub axis: Vec2,
    /// Midpoint of the pair in the device frame.
    pub midpoint: Vec2,
}

/// An N-microphone array in the device frame.
///
/// Positions are stored inline (`Copy`, no heap); `len` of the
/// fixed-capacity storage is the microphone count. Construct via the
/// presets ([`MicArray::two_mic`], [`MicArray::triangle`], or the
/// device table in [`crate::devices`]) or [`MicArray::from_positions`], then call
/// [`MicArray::validate`] — constructors only enforce structural
/// bounds (2..=[`MAX_MICS`] mics), validation enforces geometry
/// (coincidence, and for DOA use, collinearity via
/// [`MicArray::validate_planar`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicArray {
    positions: [Vec2; MAX_MICS],
    len: usize,
}

impl MicArray {
    /// The paper's two-mic phone: mic 0 at the origin, mic 1 at
    /// `(0, separation)` — the primary pair spans the device +y axis
    /// (the phone's long axis).
    ///
    /// This is the compatibility preset: a config whose array is
    /// `two_mic(d)` runs the exact pre-refactor two-channel pipeline.
    pub fn two_mic(separation: f64) -> MicArray {
        let mut positions = [Vec2::ZERO; MAX_MICS];
        positions[1] = Vec2::new(0.0, separation);
        MicArray { positions, len: 2 }
    }

    /// Equilateral 3-mic triangle with side `separation`: the primary
    /// pair on +y plus an apex mic on the +x side of the midpoint. The
    /// smallest array that supports single-shot planar 2D DOA.
    pub fn triangle(separation: f64) -> MicArray {
        let mut positions = [Vec2::ZERO; MAX_MICS];
        positions[1] = Vec2::new(0.0, separation);
        positions[2] = Vec2::new(separation * 3f64.sqrt() / 2.0, separation / 2.0);
        MicArray { positions, len: 3 }
    }

    /// 4-mic rectangle: primary pair `(0,0)`–`(0,height)` plus the same
    /// pair shifted to `x = width`.
    pub(crate) fn rectangle(height: f64, width: f64) -> MicArray {
        let mut positions = [Vec2::ZERO; MAX_MICS];
        positions[1] = Vec2::new(0.0, height);
        positions[2] = Vec2::new(width, height);
        positions[3] = Vec2::new(width, 0.0);
        MicArray { positions, len: 4 }
    }

    /// Builds an array from explicit device-frame positions.
    ///
    /// # Errors
    ///
    /// [`GeomError::InvalidParameter`] if fewer than 2 or more than
    /// [`MAX_MICS`] positions are given, or any coordinate is
    /// non-finite.
    pub fn from_positions(positions: &[Vec2]) -> Result<MicArray, GeomError> {
        if positions.len() < 2 {
            return Err(GeomError::invalid(
                "positions",
                format!(
                    "an array needs at least 2 microphones, got {}",
                    positions.len()
                ),
            ));
        }
        if positions.len() > MAX_MICS {
            return Err(GeomError::invalid(
                "positions",
                format!(
                    "at most {MAX_MICS} microphones supported, got {}",
                    positions.len()
                ),
            ));
        }
        let mut stored = [Vec2::ZERO; MAX_MICS];
        for (k, p) in positions.iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(GeomError::invalid(
                    "positions",
                    format!(
                        "microphone {k} has a non-finite coordinate ({}, {})",
                        p.x, p.y
                    ),
                ));
            }
            stored[k] = *p;
        }
        Ok(MicArray {
            positions: stored,
            len: positions.len(),
        })
    }

    /// Number of microphones.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The microphone positions in the device frame.
    pub(crate) fn positions(&self) -> &[Vec2] {
        &self.positions[..self.len]
    }

    /// Position of microphone `k`, or `None` past the end.
    pub fn position(&self, k: usize) -> Option<Vec2> {
        self.positions().get(k).copied()
    }

    /// Number of distinct microphone pairs, `n·(n−1)/2`.
    pub fn pair_count(&self) -> usize {
        self.len * (self.len - 1) / 2
    }

    /// Distance between mics `i` and `j`.
    ///
    /// # Errors
    ///
    /// [`GeomError::InvalidParameter`] if either index is out of range.
    pub fn baseline(&self, i: usize, j: usize) -> Result<f64, GeomError> {
        let pi = self
            .position(i)
            .ok_or_else(|| GeomError::invalid("i", format!("mic index {i} out of range")))?;
        let pj = self
            .position(j)
            .ok_or_else(|| GeomError::invalid("j", format!("mic index {j} out of range")))?;
        Ok(pi.distance(pj))
    }

    /// The derived pair `(i, j)` with baseline, axis, and midpoint.
    ///
    /// # Errors
    ///
    /// [`GeomError::InvalidParameter`] for out-of-range indices,
    /// [`GeomError::CoincidentMics`] if the pair has no usable axis.
    pub fn pair(&self, i: usize, j: usize) -> Result<MicPair, GeomError> {
        let pi = self
            .position(i)
            .ok_or_else(|| GeomError::invalid("i", format!("mic index {i} out of range")))?;
        let pj = self
            .position(j)
            .ok_or_else(|| GeomError::invalid("j", format!("mic index {j} out of range")))?;
        let baseline = pi.distance(pj);
        let axis = (pj - pi).normalized().ok_or(GeomError::CoincidentMics {
            i,
            j,
            distance: baseline,
        })?;
        Ok(MicPair {
            i,
            j,
            baseline,
            axis,
            midpoint: (pi + pj) * 0.5,
        })
    }

    /// Iterates the derived pairs in `(0,1), (0,2), …, (n−2,n−1)` order.
    ///
    /// The iterator skips nothing and allocates nothing; on a validated
    /// array every pair is well-formed, so the per-pair `Result` only
    /// surfaces coincident placements on unvalidated arrays.
    pub fn pairs(&self) -> impl Iterator<Item = Result<MicPair, GeomError>> + '_ {
        (0..self.len).flat_map(move |i| ((i + 1)..self.len).map(move |j| self.pair(i, j)))
    }

    /// Largest pairwise baseline (the array aperture), metres.
    pub fn aperture(&self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.len {
            for j in (i + 1)..self.len {
                best = best.max(self.positions[i].distance(self.positions[j]));
            }
        }
        best
    }

    /// Largest perpendicular deviation of any mic from the line through
    /// the pair realizing the aperture. Zero for 2-mic arrays.
    pub(crate) fn max_line_deviation(&self) -> f64 {
        if self.len <= 2 {
            return 0.0;
        }
        // Anchor the line on the widest pair so near-coincident mics
        // can't fake collinearity by defining a noisy axis.
        let (mut ai, mut aj, mut best) = (0usize, 1usize, -1.0f64);
        for i in 0..self.len {
            for j in (i + 1)..self.len {
                let d = self.positions[i].distance(self.positions[j]);
                if d > best {
                    (ai, aj, best) = (i, j, d);
                }
            }
        }
        let origin = self.positions[ai];
        let Some(axis) = (self.positions[aj] - origin).normalized() else {
            return 0.0; // every mic coincides; coincidence check reports it
        };
        let mut dev = 0.0f64;
        for p in self.positions() {
            dev = dev.max(axis.cross(*p - origin).abs());
        }
        dev
    }

    /// Whether every microphone lies on one line (within 1e-6 m of the
    /// line through the first pair). Two-mic arrays are trivially
    /// collinear.
    pub fn is_collinear(&self) -> bool {
        self.len <= 2 || self.max_line_deviation() < COLLINEAR_EPS
    }

    /// Validates the array geometry: 2..=[`MAX_MICS`] microphones,
    /// finite coordinates, and no coincident pair.
    ///
    /// Collinearity is *not* rejected here — a straight line of mics is
    /// a legal TDoA array (the two-mic phone is one). Use
    /// [`MicArray::validate_planar`] where a 2D direction estimate is
    /// required.
    ///
    /// # Errors
    ///
    /// [`GeomError::InvalidParameter`] or [`GeomError::CoincidentMics`].
    pub fn validate(&self) -> Result<(), GeomError> {
        if !(2..=MAX_MICS).contains(&self.len) {
            return Err(GeomError::invalid(
                "mics",
                format!(
                    "an array needs 2..={MAX_MICS} microphones, got {}",
                    self.len
                ),
            ));
        }
        for (k, p) in self.positions().iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(GeomError::invalid(
                    "positions",
                    format!(
                        "microphone {k} has a non-finite coordinate ({}, {})",
                        p.x, p.y
                    ),
                ));
            }
        }
        for i in 0..self.len {
            for j in (i + 1)..self.len {
                let d = self.positions[i].distance(self.positions[j]);
                if d < COINCIDENT_EPS {
                    return Err(GeomError::CoincidentMics { i, j, distance: d });
                }
            }
        }
        Ok(())
    }

    /// [`MicArray::validate`] plus the planar-DOA observability
    /// requirement: at least 3 microphones spanning two dimensions.
    ///
    /// # Errors
    ///
    /// Everything [`MicArray::validate`] rejects, plus
    /// [`GeomError::CollinearMics`] for collinear (or 2-mic) layouts.
    pub fn validate_planar(&self) -> Result<(), GeomError> {
        self.validate()?;
        if self.is_collinear() {
            return Err(GeomError::CollinearMics {
                mics: self.len,
                deviation: self.max_line_deviation(),
            });
        }
        Ok(())
    }
}

impl ToJson for MicArray {
    fn to_json(&self) -> Json {
        Json::Array(
            self.positions()
                .iter()
                .map(|p| Json::Array(vec![Json::Number(p.x), Json::Number(p.y)]))
                .collect(),
        )
    }
}

impl FromJson for MicArray {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_array()
            .ok_or_else(|| JsonError::schema("mic array must be a JSON array of [x, y] pairs"))?;
        let mut positions = Vec::with_capacity(items.len());
        for (k, item) in items.iter().enumerate() {
            let pair = item
                .as_array()
                .ok_or_else(|| JsonError::schema(format!("mic {k} must be an [x, y] pair")))?;
            if pair.len() != 2 {
                return Err(JsonError::schema(format!(
                    "mic {k} must have exactly 2 coordinates, got {}",
                    pair.len()
                )));
            }
            let x = pair[0]
                .as_f64()
                .ok_or_else(|| JsonError::schema(format!("mic {k} x must be a number")))?;
            let y = pair[1]
                .as_f64()
                .ok_or_else(|| JsonError::schema(format!("mic {k} y must be a number")))?;
            positions.push(Vec2::new(x, y));
        }
        MicArray::from_positions(&positions)
            .map_err(|e| JsonError::schema(format!("invalid mic array: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_mic_matches_paper_conventions() {
        let a = MicArray::two_mic(0.1366);
        a.validate().unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.pair_count(), 1);
        let p = a.pair(0, 1).unwrap();
        assert!((p.baseline - 0.1366).abs() < 1e-15);
        assert_eq!(p.axis, Vec2::new(0.0, 1.0));
        assert!(a.is_collinear());
        assert!(matches!(
            a.validate_planar(),
            Err(GeomError::CollinearMics { mics: 2, .. })
        ));
    }

    #[test]
    fn triangle_spans_two_dimensions() {
        let a = MicArray::triangle(0.15);
        a.validate_planar().unwrap();
        assert_eq!(a.pair_count(), 3);
        for p in a.pairs() {
            let p = p.unwrap();
            assert!(
                (p.baseline - 0.15).abs() < 1e-12,
                "equilateral: {}",
                p.baseline
            );
        }
        assert!((a.aperture() - 0.15).abs() < 1e-12);
        assert!(!a.is_collinear());
    }

    #[test]
    fn rectangle_pairs_and_aperture() {
        let a = MicArray::rectangle(0.2, 0.1);
        a.validate_planar().unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.pair_count(), 6);
        assert_eq!(a.pairs().count(), 6);
        assert!((a.aperture() - (0.2f64 * 0.2 + 0.1 * 0.1).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn coincident_and_collinear_are_typed() {
        let coincident =
            MicArray::from_positions(&[Vec2::ZERO, Vec2::new(1e-9, 0.0), Vec2::new(0.1, 0.0)])
                .unwrap();
        assert!(matches!(
            coincident.validate(),
            Err(GeomError::CoincidentMics { i: 0, j: 1, .. })
        ));

        let line =
            MicArray::from_positions(&[Vec2::ZERO, Vec2::new(0.05, 0.05), Vec2::new(0.1, 0.1)])
                .unwrap();
        line.validate().unwrap();
        assert!(matches!(
            line.validate_planar(),
            Err(GeomError::CollinearMics { mics: 3, .. })
        ));
    }

    #[test]
    fn construction_bounds_are_typed() {
        assert!(MicArray::from_positions(&[Vec2::ZERO]).is_err());
        let many = vec![Vec2::ZERO; MAX_MICS + 1];
        assert!(MicArray::from_positions(&many).is_err());
        assert!(MicArray::from_positions(&[Vec2::ZERO, Vec2::new(f64::NAN, 0.0)]).is_err());
    }

    #[test]
    fn json_round_trip() {
        let a = MicArray::triangle(0.1366);
        let j = a.to_json();
        let back = MicArray::from_json(&j).unwrap();
        assert_eq!(back, a);
        assert!(MicArray::from_json(&Json::Number(1.0)).is_err());
        assert!(MicArray::from_json(&Json::Array(vec![Json::Number(1.0)])).is_err());
    }
}
