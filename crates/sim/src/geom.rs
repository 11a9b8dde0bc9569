//! 2-D and 3-D vector geometry for the world model.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-D vector / point in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
}

/// A 3-D vector / point in metres (z is altitude above datum).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// East coordinate in metres.
    pub x: f64,
    /// North coordinate in metres.
    pub y: f64,
    /// Altitude in metres.
    pub z: f64,
}

impl Vec2 {
    /// The origin.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    #[must_use]
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Distance to another point.
    #[must_use]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).length()
    }

    /// Dot product.
    #[must_use]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Unit vector in the same direction; zero stays zero.
    #[must_use]
    pub fn normalized(self) -> Vec2 {
        let len = self.length();
        if len < 1e-12 {
            Vec2::ZERO
        } else {
            self / len
        }
    }

    /// Linear interpolation: `self` at t = 0, `other` at t = 1.
    #[must_use]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Lifts to 3-D with the given altitude.
    #[must_use]
    pub fn with_z(self, z: f64) -> Vec3 {
        Vec3 {
            x: self.x,
            y: self.y,
            z,
        }
    }

    /// Heading angle in radians (atan2 convention, east = 0).
    #[must_use]
    pub fn heading(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Offset of this point from its closest point on the segment
    /// `a`–`b`; its length is [`Vec2::distance_to_segment`].
    #[inline]
    fn offset_from_segment(self, a: Vec2, b: Vec2) -> Vec2 {
        let ab = b - a;
        let len2 = ab.dot(ab);
        if len2 < 1e-12 {
            return self - a;
        }
        let t = ((self - a).dot(ab) / len2).clamp(0.0, 1.0);
        self - (a + ab * t)
    }

    /// Distance from this point to the segment `a`–`b`.
    #[must_use]
    pub fn distance_to_segment(self, a: Vec2, b: Vec2) -> f64 {
        self.offset_from_segment(a, b).length()
    }

    /// Exactly `self.distance_to_segment(a, b) <= r`, without the `hypot`
    /// in almost every case.
    ///
    /// The offset is computed exactly as `distance_to_segment` computes
    /// it. Its squared length `d²` is within a few ulps of the exact
    /// square, and `hypot` is within one ulp of the exact length, so when
    /// `r` is positive and `d²` and `r²` are normal floats more than a
    /// relative 1e-9 apart (about 10⁷ times those errors), comparing the
    /// squares gives the answer the `hypot` comparison would. Inside that
    /// band, or for a zero, subnormal, infinite or NaN square, the
    /// `hypot` itself decides.
    #[must_use]
    #[inline]
    pub fn is_near_segment(self, a: Vec2, b: Vec2, r: f64) -> bool {
        let d = self.offset_from_segment(a, b);
        let d2 = d.dot(d);
        let r2 = r * r;
        if r > 0.0 && d2.is_normal() && r2.is_normal() {
            if d2 < r2 * (1.0 - SEGMENT_GUARD_BAND) {
                return true;
            }
            if d2 > r2 * (1.0 + SEGMENT_GUARD_BAND) {
                return false;
            }
        }
        d.length() <= r
    }
}

/// Relative band around `r²` inside which [`Vec2::is_near_segment`] falls
/// back to the `hypot` distance.
const SEGMENT_GUARD_BAND: f64 = 1e-9;

impl Vec3 {
    /// The origin.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector.
    #[must_use]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean length.
    #[must_use]
    pub fn length(self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Distance to another point.
    #[must_use]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).length()
    }

    /// Drops the altitude component.
    #[must_use]
    pub fn xy(self) -> Vec2 {
        Vec2 {
            x: self.x,
            y: self.y,
        }
    }

    /// Linear interpolation: `self` at t = 0, `other` at t = 1.
    #[must_use]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        Vec3 {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
            z: self.z + (other.z - self.z) * t,
        }
    }
}

macro_rules! impl_vec_ops {
    ($t:ty { $($f:ident),+ }) => {
        impl Add for $t {
            type Output = $t;
            fn add(self, rhs: $t) -> $t {
                <$t>::new($(self.$f + rhs.$f),+)
            }
        }
        impl Sub for $t {
            type Output = $t;
            fn sub(self, rhs: $t) -> $t {
                <$t>::new($(self.$f - rhs.$f),+)
            }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            fn mul(self, rhs: f64) -> $t {
                <$t>::new($(self.$f * rhs),+)
            }
        }
        impl Div<f64> for $t {
            type Output = $t;
            fn div(self, rhs: f64) -> $t {
                <$t>::new($(self.$f / rhs),+)
            }
        }
        impl Neg for $t {
            type Output = $t;
            fn neg(self) -> $t {
                <$t>::new($(-self.$f),+)
            }
        }
    };
}

impl_vec_ops!(Vec2 { x, y });
impl_vec_ops!(Vec3 { x, y, z });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn length_and_distance() {
        assert!((Vec2::new(3.0, 4.0).length() - 5.0).abs() < 1e-12);
        assert!((Vec3::new(1.0, 2.0, 2.0).length() - 3.0).abs() < 1e-12);
        assert!((Vec2::new(0.0, 0.0).distance(Vec2::new(0.0, 7.0)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(10.0, 0.0).normalized();
        assert!((v.x - 1.0).abs() < 1e-12 && v.y.abs() < 1e-12);
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(5.0, 10.0));
        let c = Vec3::new(0.0, 0.0, 0.0).lerp(Vec3::new(2.0, 4.0, 6.0), 0.5);
        assert_eq!(c, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn segment_distance() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(10.0, 0.0);
        assert!((Vec2::new(5.0, 3.0).distance_to_segment(a, b) - 3.0).abs() < 1e-12);
        assert!((Vec2::new(-4.0, 0.0).distance_to_segment(a, b) - 4.0).abs() < 1e-12);
        assert!((Vec2::new(13.0, 4.0).distance_to_segment(a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((Vec2::new(1.0, 1.0).distance_to_segment(a, a) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn heading_convention() {
        assert!((Vec2::new(1.0, 0.0).heading() - 0.0).abs() < 1e-12);
        assert!((Vec2::new(0.0, 1.0).heading() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn projections() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(p.xy(), Vec2::new(1.0, 2.0));
        assert_eq!(p.xy().with_z(9.0), Vec3::new(1.0, 2.0, 9.0));
    }
}
