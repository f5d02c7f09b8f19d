//! TDoA quantization regions.
//!
//! Section II-C of the paper derives the hard limits of naive TDoA
//! localization on a phone: the sampling rate quantizes the measurable
//! distance difference into steps of `S/fs` (≈7.78 mm at 44.1 kHz), the
//! microphone separation bounds the difference to `[−D, D]`, so only
//! `N = ⌊2·D·fs/S⌋` hyperbolas are distinguishable (Eq. 2) — 35 for a
//! Galaxy S4. The space between adjacent hyperbolas is one *ambiguity
//! region*; every point inside is indistinguishable. This module computes
//! region indices, widths, and the density maps of Fig. 4.

use crate::{GeomError, Vec2};

/// Quantized-TDoA geometry for a pair of receivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TdoaQuantizer {
    mic1: Vec2,
    mic2: Vec2,
    /// Distance-difference resolution `S/fs` in metres.
    resolution: f64,
}

impl TdoaQuantizer {
    /// Creates a quantizer for receivers at `mic1`, `mic2` with sampling
    /// rate `sample_rate` and sound speed `speed_of_sound`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidParameter`] for non-positive rates or
    /// speeds, and [`GeomError::CoincidentMics`] for coincident
    /// receivers.
    pub fn new(
        mic1: Vec2,
        mic2: Vec2,
        sample_rate: f64,
        speed_of_sound: f64,
    ) -> Result<Self, GeomError> {
        if sample_rate <= 0.0 {
            return Err(GeomError::invalid("sample_rate", "must be positive"));
        }
        if speed_of_sound <= 0.0 {
            return Err(GeomError::invalid("speed_of_sound", "must be positive"));
        }
        let d = mic1.distance(mic2);
        if d < crate::array::COINCIDENT_EPS {
            return Err(GeomError::CoincidentMics {
                i: 0,
                j: 1,
                distance: d,
            });
        }
        Ok(TdoaQuantizer {
            mic1,
            mic2,
            resolution: speed_of_sound / sample_rate,
        })
    }

    /// The distance-difference resolution `S/fs` in metres.
    #[must_use]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// The receiver baseline in metres.
    #[must_use]
    pub(crate) fn baseline(&self) -> f64 {
        self.mic1.distance(self.mic2)
    }

    /// Number of distinguishable hyperbolas, paper Eq. 2:
    /// `N = ⌊2·D·fs/S⌋ = ⌊2·D / resolution⌋`.
    #[must_use]
    pub fn distinguishable_hyperbolas(&self) -> usize {
        (2.0 * self.baseline() / self.resolution).floor() as usize
    }

    /// The exact distance difference `|p−mic1| − |p−mic2|` at a point.
    #[must_use]
    pub(crate) fn distance_difference(&self, p: Vec2) -> f64 {
        p.distance(self.mic1) - p.distance(self.mic2)
    }

    /// The quantized region index of a point: `round(Δd / resolution)`.
    ///
    /// Two points with equal indices cannot be told apart by this receiver
    /// pair.
    #[must_use]
    pub fn region_index(&self, p: Vec2) -> i64 {
        (self.distance_difference(p) / self.resolution).round() as i64
    }

    /// Far-field broadside width of one quantized region at range `r`:
    /// `resolution · r / D`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidParameter`] for a non-positive range.
    pub fn broadside_region_width(&self, r: f64) -> Result<f64, GeomError> {
        if r <= 0.0 {
            return Err(GeomError::invalid("r", "range must be positive"));
        }
        Ok(self.resolution * r / self.baseline())
    }
}

/// A rasterized map of quantized-TDoA region indices over a rectangle —
/// the data behind paper Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    /// Lower-left corner of the mapped area.
    pub origin: Vec2,
    /// Cell size in metres.
    pub cell: f64,
    /// Number of columns.
    pub cols: usize,
    /// Number of rows.
    pub rows: usize,
    /// Region index per cell, row-major from the origin.
    pub regions: Vec<i64>,
}

impl DensityMap {
    /// Rasterizes region indices on a `cols × rows` grid starting at
    /// `origin` with square cells of `cell` metres.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidParameter`] for zero dimensions or
    /// non-positive cell size.
    pub fn compute(
        quantizer: &TdoaQuantizer,
        origin: Vec2,
        cell: f64,
        cols: usize,
        rows: usize,
    ) -> Result<Self, GeomError> {
        if cols == 0 || rows == 0 {
            return Err(GeomError::invalid("cols/rows", "grid must be non-empty"));
        }
        if cell <= 0.0 {
            return Err(GeomError::invalid("cell", "cell size must be positive"));
        }
        let mut regions = Vec::with_capacity(cols * rows);
        for j in 0..rows {
            for i in 0..cols {
                let p = origin + Vec2::new((i as f64 + 0.5) * cell, (j as f64 + 0.5) * cell);
                regions.push(quantizer.region_index(p));
            }
        }
        Ok(DensityMap {
            origin,
            cell,
            cols,
            rows,
            regions,
        })
    }

    /// Number of distinct region indices present in the map.
    #[must_use]
    pub fn distinct_regions(&self) -> usize {
        let mut seen: Vec<i64> = self.regions.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Number of horizontal cell boundaries where the region index changes
    /// — a proxy for hyperbola density (more crossings = denser curves).
    #[must_use]
    pub fn boundary_crossings(&self) -> usize {
        let mut count = 0;
        for j in 0..self.rows {
            for i in 1..self.cols {
                if self.regions[j * self.cols + i] != self.regions[j * self.cols + i - 1] {
                    count += 1;
                }
            }
        }
        count
    }

    /// Boundary crossings within each vertical strip of the map, left to
    /// right, normalized per row — the "dense centre, sparse sides"
    /// profile of Fig. 4(a).
    #[must_use]
    pub fn crossing_profile(&self, strips: usize) -> Vec<f64> {
        let strips = strips.max(1).min(self.cols);
        let mut counts = vec![0usize; strips];
        for j in 0..self.rows {
            for i in 1..self.cols {
                if self.regions[j * self.cols + i] != self.regions[j * self.cols + i - 1] {
                    let strip = i * strips / self.cols;
                    counts[strip.min(strips - 1)] += 1;
                }
            }
        }
        counts
            .into_iter()
            .map(|c| c as f64 / self.rows as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 44_100.0;
    const S: f64 = 343.0;

    fn s4_quantizer() -> TdoaQuantizer {
        let d = 0.1366;
        TdoaQuantizer::new(Vec2::new(-d / 2.0, 0.0), Vec2::new(d / 2.0, 0.0), FS, S).unwrap()
    }

    #[test]
    fn s4_has_35_hyperbolas_per_paper() {
        // "With a sampling rate of 44.1kHz, this yields only 35 measurable
        // hyperbolas" (Section II-C).
        assert_eq!(s4_quantizer().distinguishable_hyperbolas(), 35);
    }

    #[test]
    fn note3_has_38_hyperbolas() {
        let d = 0.1512;
        let q =
            TdoaQuantizer::new(Vec2::new(-d / 2.0, 0.0), Vec2::new(d / 2.0, 0.0), FS, S).unwrap();
        assert_eq!(q.distinguishable_hyperbolas(), (2.0 * d * FS / S) as usize);
    }

    #[test]
    fn resolution_matches_paper() {
        // "the resolution of distance difference Δd ... is about 7.78mm"
        let q = s4_quantizer();
        assert!((q.resolution() - 0.007778).abs() < 1e-5);
    }

    #[test]
    fn region_index_symmetry() {
        let q = s4_quantizer();
        assert_eq!(q.region_index(Vec2::new(0.0, 3.0)), 0);
        let left = q.region_index(Vec2::new(-2.0, 3.0));
        let right = q.region_index(Vec2::new(2.0, 3.0));
        assert_eq!(left, -right);
        assert!(right > 0);
    }

    #[test]
    fn broadside_width_numbers() {
        // q·r/D at 1 m for the S4: 0.00778·1/0.1366 ≈ 5.7 cm.
        let q = s4_quantizer();
        let w = q.broadside_region_width(1.0).unwrap();
        assert!((0.05..0.07).contains(&w), "width {w}");
    }

    #[test]
    fn density_map_center_denser_than_sides() {
        // Fig. 4(a): hyperbolas are densest near the perpendicular
        // bisector (centre) and sparser toward the sides.
        let q = s4_quantizer();
        let map = DensityMap::compute(&q, Vec2::new(-0.3, 0.05), 0.002, 300, 120).unwrap();
        let profile = map.crossing_profile(3);
        assert_eq!(profile.len(), 3);
        assert!(
            profile[1] > profile[0] && profile[1] > profile[2],
            "profile {profile:?}"
        );
    }

    #[test]
    fn wider_separation_gives_more_regions() {
        // Fig. 4(b): expanding D → D′ increases hyperbola density.
        let narrow = s4_quantizer();
        let wide = TdoaQuantizer::new(Vec2::new(-0.2, 0.0), Vec2::new(0.2, 0.0), FS, S).unwrap();
        let origin = Vec2::new(-0.3, 0.05);
        let m1 = DensityMap::compute(&narrow, origin, 0.002, 300, 120).unwrap();
        let m2 = DensityMap::compute(&wide, origin, 0.002, 300, 120).unwrap();
        assert!(m2.distinct_regions() > m1.distinct_regions());
        assert!(m2.boundary_crossings() > m1.boundary_crossings());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(0.1, 0.0);
        assert!(TdoaQuantizer::new(a, b, 0.0, S).is_err());
        assert!(TdoaQuantizer::new(a, b, FS, 0.0).is_err());
        assert!(TdoaQuantizer::new(a, a, FS, S).is_err());
        let q = s4_quantizer();
        assert!(q.broadside_region_width(0.0).is_err());
        assert!(DensityMap::compute(&q, a, 0.01, 0, 5).is_err());
        assert!(DensityMap::compute(&q, a, 0.0, 5, 5).is_err());
    }

    #[test]
    fn coincident_receivers_are_typed() {
        let a = Vec2::new(0.0, 0.0);
        let err = TdoaQuantizer::new(a, a, FS, S).unwrap_err();
        assert!(
            matches!(err, GeomError::CoincidentMics { i: 0, j: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn density_map_dimensions() {
        let q = s4_quantizer();
        let map = DensityMap::compute(&q, Vec2::new(0.0, 0.1), 0.01, 20, 10).unwrap();
        assert_eq!(map.regions.len(), 200);
        assert_eq!(map.cols, 20);
        assert_eq!(map.rows, 10);
    }
}
