//! An exact rational number with a positive-denominator invariant.

use crate::int::{gcd, Int};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational `num/den` with `den > 0` and `gcd(num, den) == 1`.
///
/// Backed by `i128`; arithmetic panics on overflow rather than losing
/// precision (polyhedral computations on the paper's kernels stay far below
/// the 128-bit range once rows are gcd-normalized).
///
/// # Examples
/// ```
/// use pluto_linalg::Ratio;
/// let a = Ratio::new(2, 4);
/// assert_eq!(a, Ratio::new(1, 2));
/// assert_eq!(a + Ratio::from(1), Ratio::new(3, 2));
/// assert!(a < Ratio::from(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: Int,
    den: Int,
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a rational, normalizing sign and gcd.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: Int, den: Int) -> Ratio {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = if g == 0 { (0, 1) } else { (num / g, den / g) };
        if den < 0 {
            num = -num;
            den = -den;
        }
        Ratio { num, den }
    }

    /// The numerator (sign-carrying).
    pub fn numer(self) -> Int {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(self) -> Int {
        self.den
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether the value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Sign of the value: -1, 0 or 1.
    pub fn signum(self) -> Int {
        self.num.signum()
    }

    /// The largest integer `<= self`.
    pub fn floor(self) -> Int {
        crate::int::floor_div(self.num, self.den)
    }

    /// The smallest integer `>= self`.
    pub fn ceil(self) -> Int {
        crate::int::ceil_div(self.num, self.den)
    }

    /// The fractional part `self - floor(self)`, in `[0, 1)`.
    pub fn fract(self) -> Ratio {
        self - Ratio::from(self.floor())
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(self) -> Ratio {
        assert!(self.num != 0, "reciprocal of zero");
        Ratio::new(self.den, self.num)
    }

    /// The absolute value.
    pub fn abs(self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Converts to `f64` (for reporting only — never used in decisions).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl From<Int> for Ratio {
    fn from(v: Int) -> Ratio {
        Ratio { num: v, den: 1 }
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Ratio {
        Ratio {
            num: v as Int,
            den: 1,
        }
    }
}

impl From<i32> for Ratio {
    fn from(v: i32) -> Ratio {
        Ratio {
            num: v as Int,
            den: 1,
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        // Integer operands — nearly every simplex tableau cell — need no
        // gcd and no renormalization.
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_add(rhs.num);
            return Ratio::from(num.expect("rational add overflow"));
        }
        let g = gcd(self.den, rhs.den);
        let l = (self.den / g)
            .checked_mul(rhs.den)
            .expect("rational add overflow");
        let n = self
            .num
            .checked_mul(rhs.den / g)
            .and_then(|a| {
                rhs.num
                    .checked_mul(self.den / g)
                    .and_then(|b| a.checked_add(b))
            })
            .expect("rational add overflow");
        Ratio::new(n, l)
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_mul(rhs.num);
            return Ratio::from(num.expect("rational mul overflow"));
        }
        // Cross-cancel before multiplying to limit growth.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let n = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .expect("rational mul overflow");
        let d = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .expect("rational mul overflow");
        Ratio::new(n, d)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    // Division by the reciprocal is the intended exact-rational identity.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Ratio) -> Ratio {
        self * rhs.recip()
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  with b,d > 0.
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational cmp overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational cmp overflow");
        lhs.cmp(&rhs)
    }
}

impl Default for Ratio {
    fn default() -> Ratio {
        Ratio::ZERO
    }
}

impl std::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, -5), Ratio::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a + b, Ratio::new(1, 2));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 18));
        assert_eq!(a / b, Ratio::from(2));
        assert_eq!(-a, Ratio::new(-1, 3));
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(-7, 2).floor(), -4);
        assert_eq!(Ratio::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio::new(-7, 2).fract(), Ratio::new(1, 2));
        assert_eq!(Ratio::from(5).fract(), Ratio::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert!(Ratio::new(3, 2) > Ratio::ONE);
    }

    #[test]
    fn integer_operands_stay_normalized() {
        assert_eq!(Ratio::from(6) + Ratio::from(-6), Ratio::ZERO);
        assert_eq!(Ratio::from(-4) * Ratio::from(3), Ratio::new(-12, 1));
        assert!((Ratio::from(7) * Ratio::from(0)).is_integer());
    }

    #[test]
    #[should_panic(expected = "rational add overflow")]
    fn common_denominator_overflow_panics() {
        // gcd of the denominators is 1, so their product exceeds i128.
        let big: Int = 1 << 100;
        let _ = Ratio::new(1, big + 1) + Ratio::new(1, big + 3);
    }

    #[test]
    #[should_panic(expected = "rational add overflow")]
    fn integer_add_overflow_panics() {
        let _ = Ratio::from(Int::MAX) + Ratio::ONE;
    }

    #[test]
    #[should_panic(expected = "rational mul overflow")]
    fn integer_mul_overflow_panics() {
        let big: Int = 1 << 100;
        let _ = Ratio::from(big) * Ratio::from(big);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Ratio::ZERO.recip();
    }
}
