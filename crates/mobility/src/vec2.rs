//! Minimal 2-D vector arithmetic.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point or displacement in the plane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Vec2 {
    /// Construct from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The origin.
    pub const ZERO: Vec2 = Vec2::new(0.0, 0.0);

    /// Euclidean norm.
    fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm (no square root; use for comparisons).
    fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to another point.
    pub fn distance_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// Unit vector in this direction (zero stays zero).
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n == 0.0 {
            Vec2::ZERO
        } else {
            self / n
        }
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, o: Vec2) {
        self.x += o.x;
        self.y += o.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, o: Vec2) {
        self.x -= o.x;
        self.y -= o.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(3.0, 4.0);
        let b = Vec2::new(1.0, -2.0);
        assert_eq!(a + b, Vec2::new(4.0, 2.0));
        assert_eq!(a - b, Vec2::new(2.0, 6.0));
        assert_eq!(a * 2.0, Vec2::new(6.0, 8.0));
        assert_eq!(a / 2.0, Vec2::new(1.5, 2.0));
        assert_eq!(-a, Vec2::new(-3.0, -4.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Vec2::new(4.0, 2.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn norms_and_distance() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.distance(Vec2::ZERO), 5.0);
        assert_eq!(a.distance_sq(Vec2::ZERO), 25.0);
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let u = Vec2::new(0.0, -9.0).normalized();
        assert!((u.norm() - 1.0).abs() < 1e-15);
        assert_eq!(u, Vec2::new(0.0, -1.0));
    }
}
