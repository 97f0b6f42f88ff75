//! The rectangular simulation area.

use crate::Vec2;

/// An axis-aligned rectangular field `[0, width] × [0, height]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Field {
    width: f64,
    height: f64,
}

impl Field {
    /// Create a field of the given dimensions.
    ///
    /// # Panics
    /// Panics unless both dimensions are strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "field dimensions must be positive"
        );
        Field { width, height }
    }

    /// Field width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Field height.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Whether a point lies inside (inclusive of the boundary).
    pub fn contains(&self, p: Vec2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Clamp a point onto the field.
    pub fn clamp(&self, p: Vec2) -> Vec2 {
        Vec2::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// The field diagonal (an upper bound on any pairwise distance).
    pub fn diagonal(&self) -> f64 {
        self.width.hypot(self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containment_and_clamp() {
        let f = Field::new(10.0, 5.0);
        assert!(f.contains(Vec2::new(0.0, 0.0)));
        assert!(f.contains(Vec2::new(10.0, 5.0)));
        assert!(!f.contains(Vec2::new(10.1, 1.0)));
        assert!(!f.contains(Vec2::new(1.0, -0.1)));
        assert_eq!(f.clamp(Vec2::new(12.0, -3.0)), Vec2::new(10.0, 0.0));
        assert_eq!(f.diagonal(), (125.0f64).sqrt());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_degenerate_field() {
        let _ = Field::new(0.0, 5.0);
    }
}
