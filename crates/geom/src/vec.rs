//! 2D and 3D vectors.
//!
//! Deliberately minimal: just the operations the localization math and the
//! simulators need, with `f64` components throughout.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2D vector / point.
///
/// # Example
///
/// ```
/// use hyperear_geom::Vec2;
///
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product.
    #[inline]
    pub(crate) fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z-component of the 3D cross product).
    #[inline]
    pub(crate) fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction; returns `None` for (near-)zero
    /// vectors.
    #[must_use]
    pub(crate) fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(self / n)
        }
    }

    /// The polar angle `atan2(y, x)` in radians.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotates the vector by `theta` radians counter-clockwise.
    #[must_use]
    pub fn rotated(self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// The perpendicular vector (rotated +90°).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A 3D vector / point.
///
/// Used for room coordinates, speaker/phone placement, and IMU axes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component (height).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, k: f64) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, k: f64) -> Vec3 {
        Vec3::new(self.x / k, self.y / k, self.z / k)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_basics() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
    }

    #[test]
    fn vec2_norm_and_distance() {
        assert_eq!(Vec2::new(3.0, 4.0).norm(), 5.0);
        assert_eq!(Vec2::new(1.0, 1.0).distance(Vec2::new(4.0, 5.0)), 5.0);
    }

    #[test]
    fn vec2_rotation() {
        let x = Vec2::new(1.0, 0.0);
        let r = x.rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x).abs() < 1e-12);
        assert!((r.y - 1.0).abs() < 1e-12);
        assert_eq!(x.perp(), Vec2::new(0.0, 1.0));
        let back = r.rotated(-std::f64::consts::FRAC_PI_2);
        assert!((back - x).norm() < 1e-12);
    }

    #[test]
    fn vec2_angles() {
        assert!((Vec2::new(0.0, 1.0).angle() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn vec2_normalized() {
        let n = Vec2::new(0.0, 5.0).normalized().unwrap();
        assert_eq!(n, Vec2::new(0.0, 1.0));
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn vec2_assign_ops() {
        let mut a = Vec2::new(1.0, 1.0);
        a += Vec2::new(2.0, 3.0);
        assert_eq!(a, Vec2::new(3.0, 4.0));
        a -= Vec2::new(1.0, 1.0);
        assert_eq!(a, Vec2::new(2.0, 3.0));
    }

    #[test]
    fn vec3_basics() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.0, 1.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.0, 4.0));
        assert_eq!(a - b, Vec3::new(2.0, 2.0, 2.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-b, Vec3::new(1.0, 0.0, -1.0));
    }

    #[test]
    fn vec3_norm_and_distance() {
        let v = Vec3::new(2.0, 3.0, 6.0);
        assert_eq!(v.norm(), 7.0);
        assert_eq!(Vec3::new(0.0, 0.0, 0.0).distance(v), 7.0);
    }

    #[test]
    fn vec3_assign_ops() {
        let mut a = Vec3::new(1.0, 1.0, 1.0);
        a += Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(a, Vec3::new(2.0, 3.0, 4.0));
        a -= Vec3::new(2.0, 3.0, 4.0);
        assert_eq!(a, Vec3::ZERO);
    }
}
