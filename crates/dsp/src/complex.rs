//! A minimal complex-number type for the FFT and spectral helpers, plus
//! the crate's shared lane-aware slice kernels.
//!
//! Only the operations the crate needs are implemented; this is not a
//! general-purpose complex-arithmetic library.
//!
//! # Lane kernels
//!
//! The free functions at the bottom of this module ([`conj_mul_in_place`],
//! [`mul_assign_real`], [`axpy`], [`dot_seq`]) are the
//! single home for the elementwise multiply / multiply-accumulate loops
//! that used to be written ad hoc in `correlate`, `estimator`, and
//! `spectrum`. Every kernel except the deliberately sequential
//! [`dot_seq`] is elementwise with no cross-lane reduction, so whatever
//! the autovectorizer makes of it is **bit-identical** to its scalar
//! loop.

use crate::plan::Planes;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use hyperear_dsp::Complex;
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates the unit phasor `e^{iθ}` for the angle `theta` in radians.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Returns the modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Returns the squared modulus `|z|²`, avoiding the square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        self.scale(1.0 / rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

// ---------------------------------------------------------------------
// Shared lane-aware slice kernels.
// ---------------------------------------------------------------------

/// Multiplies `acc[k] *= conj(by[k])` elementwise on split planes — the
/// spectral correlation kernel of the one-shot `xcorr_into`. (The
/// overlap-save engine behind every matched filter stores its template
/// spectra pre-conjugated and multiplies plainly.)
///
/// Elementwise with no cross-lane reduction, so any vectorization is
/// bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if the planes differ in length (internal kernel contract; all
/// call sites pass same-length spectra).
pub(crate) fn conj_mul_in_place(acc: &mut Planes, by: &Planes) {
    assert!(
        acc.re.len() == by.re.len() && acc.im.len() == by.im.len(),
        "conj_mul_in_place length mismatch"
    );
    for (((xr, xi), &yr), &yi) in acc
        .re
        .iter_mut()
        .zip(acc.im.iter_mut())
        .zip(&by.re)
        .zip(&by.im)
    {
        let (r, i) = (*xr, *xi);
        *xr = r * yr + i * yi;
        *xi = i * yr - r * yi;
    }
}

/// Multiplies `out[i] *= by[i]` elementwise — the window-application
/// kernel (`Window::apply` over cached coefficients, STFT framing).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub(crate) fn mul_assign_real(out: &mut [f64], by: &[f64]) {
    assert_eq!(out.len(), by.len(), "mul_assign_real length mismatch");
    for (o, &b) in out.iter_mut().zip(by) {
        *o *= b;
    }
}

/// `out[i] += k * src[i]` elementwise — the MCCI shift-and-average
/// fusion kernel. No cross-lane accumulation (each output element has
/// exactly one term), so vector lanes are bit-identical to the scalar
/// loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub(crate) fn axpy(out: &mut [f64], k: f64, src: &[f64]) {
    assert_eq!(out.len(), src.len(), "axpy length mismatch");
    for (o, &s) in out.iter_mut().zip(src) {
        *o += k * s;
    }
}

/// Strictly sequential dot product — the MCCI pairwise-lag MAC kernel.
///
/// Deliberately **not** lane-parallel: splitting the accumulator would
/// reassociate the reduction and move results away from the historical
/// scalar order that the conformance pins freeze. Lag scans get their
/// data parallelism across lags (independent outputs), never inside one
/// accumulation.
#[must_use]
pub(crate) fn dot_seq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, -4.0);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a - a, Complex::ZERO);
        assert_eq!(-a, Complex::new(-3.0, 4.0));
    }

    #[test]
    fn modulus_and_conjugate() {
        let a = Complex::new(3.0, -4.0);
        assert!((a.abs() - 5.0).abs() < EPS);
        assert!((a.norm_sqr() - 25.0).abs() < EPS);
        assert_eq!(a.conj(), Complex::new(3.0, 4.0));
        // z * conj(z) = |z|^2
        let p = a * a.conj();
        assert!((p.re - 25.0).abs() < EPS);
        assert!(p.im.abs() < EPS);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.25, 4.0);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < EPS);
        assert!((q.im - a.im).abs() < EPS);
    }

    #[test]
    fn phasor_has_unit_modulus() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex::from_angle(theta);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn scalar_operations() {
        let a = Complex::new(2.0, -6.0);
        assert_eq!(a * 0.5, Complex::new(1.0, -3.0));
        assert_eq!(a / 2.0, Complex::new(1.0, -3.0));
        assert_eq!(Complex::from(7.0), Complex::new(7.0, 0.0));
    }

    fn seq(n: usize, k: f64) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * k).sin(), (i as f64 * (k + 0.1)).cos()))
            .collect()
    }

    #[test]
    fn conj_mul_in_place_is_bit_identical_to_scalar() {
        let planes = |v: &[Complex]| Planes {
            re: v.iter().map(|z| z.re).collect(),
            im: v.iter().map(|z| z.im).collect(),
        };
        for n in [0usize, 1, 3, 4, 7, 8, 64, 129] {
            let a = seq(n, 0.3);
            let b = seq(n, 0.7);
            let reference: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x * y.conj()).collect();
            let mut acc = planes(&a);
            conj_mul_in_place(&mut acc, &planes(&b));
            assert_eq!(acc.re, reference.iter().map(|z| z.re).collect::<Vec<_>>());
            assert_eq!(acc.im, reference.iter().map(|z| z.im).collect::<Vec<_>>());
        }
    }

    #[test]
    fn real_kernels_match_scalar_loops() {
        let a: Vec<f64> = (0..97).map(|i| (i as f64 * 0.11).sin()).collect();
        let b: Vec<f64> = (0..97).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut m = a.clone();
        mul_assign_real(&mut m, &b);
        let mut x = a.clone();
        axpy(&mut x, 0.375, &b);
        let mut dot = 0.0;
        for i in 0..a.len() {
            assert_eq!(m[i], a[i] * b[i]);
            assert_eq!(x[i], a[i] + 0.375 * b[i]);
            dot += a[i] * b[i];
        }
        assert_eq!(dot_seq(&a, &b), dot);
    }
}
