//! Tolerance classes for comparing floating-point results.
//!
//! Three disciplines, ordered from strictest to loosest:
//!
//! - [`Tolerance::Exact`]: the two values must share a bit pattern
//!   (`to_bits` equality, so `-0.0 != 0.0` and NaN payloads matter).
//!   This is the contract between the reference oracle and both
//!   production sweep engines — pure scheduling/caching refactors move
//!   nothing.
//! - [`Tolerance::Ulps`]: the values may differ by at most N units in
//!   the last place. The right class for algebraic identities that are
//!   exact over the reals but not over `f64` — a unit conversion
//!   round-trip (`x * 1000.0 / 1000.0`) lands within an ulp or two.
//! - [`Tolerance::Relative`]: classic `|a-b| <= eps * max(|a|,|b|)`.
//!   For comparisons against externally recorded anchors (paper values,
//!   blessed corpus numbers serialized through decimal JSON).

use std::fmt;

/// How close two `f64` values must be to count as equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Bit-exact: `a.to_bits() == b.to_bits()`.
    Exact,
    /// At most this many units in the last place apart.
    Ulps(u32),
    /// `|a - b| <= eps * max(|a|, |b|)` (and exact equality for zeros).
    Relative(f64),
}

impl Tolerance {
    /// Whether `a` and `b` are equal under this tolerance. Two NaNs are
    /// equal only under [`Tolerance::Exact`] with identical payloads —
    /// approximate classes treat NaN as unequal to everything, so a
    /// poisoned value can never hide inside a loose comparison.
    #[must_use]
    pub fn accepts(&self, a: f64, b: f64) -> bool {
        match *self {
            Tolerance::Exact => a.to_bits() == b.to_bits(),
            Tolerance::Ulps(n) => ulps_apart(a, b).is_some_and(|d| d <= u64::from(n)),
            Tolerance::Relative(eps) => {
                if !(a.is_finite() && b.is_finite()) {
                    return false;
                }
                if a.to_bits() == b.to_bits() {
                    return true;
                }
                (a - b).abs() <= eps * a.abs().max(b.abs())
            }
        }
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tolerance::Exact => write!(f, "exact"),
            Tolerance::Ulps(n) => write!(f, "{n} ulps"),
            Tolerance::Relative(eps) => write!(f, "relative {eps:e}"),
        }
    }
}

/// Distance between two finite `f64` values in units in the last place,
/// via the monotone total-order mapping of IEEE-754 bit patterns. `None`
/// when either value is NaN/infinite or the signs differ (crossing zero
/// is never "close" in ulp terms except exactly at ±0.0, which map to
/// adjacent lattice points).
#[must_use]
pub fn ulps_apart(a: f64, b: f64) -> Option<u64> {
    if !(a.is_finite() && b.is_finite()) {
        return None;
    }
    // Map the sign-magnitude float lattice onto a monotone unsigned line:
    // negatives fold below the midpoint, positives above, with -0.0 and
    // +0.0 adjacent.
    fn lattice(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 0 {
            bits | (1 << 63)
        } else {
            !bits
        }
    }
    Some(lattice(a).abs_diff(lattice(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_bitwise() {
        assert!(Tolerance::Exact.accepts(1.5, 1.5));
        assert!(!Tolerance::Exact.accepts(0.0, -0.0));
        assert!(Tolerance::Exact.accepts(f64::NAN, f64::NAN));
        assert!(!Tolerance::Exact.accepts(1.0, 1.0 + f64::EPSILON));
    }

    #[test]
    fn ulps_counts_lattice_steps() {
        let x = 1.0f64;
        let next = f64::from_bits(x.to_bits() + 1);
        assert_eq!(ulps_apart(x, next), Some(1));
        assert_eq!(ulps_apart(x, x), Some(0));
        assert_eq!(ulps_apart(0.0, -0.0), Some(1));
        assert!(Tolerance::Ulps(1).accepts(x, next));
        assert!(!Tolerance::Ulps(0).accepts(x, next));
        assert_eq!(ulps_apart(f64::NAN, 1.0), None);
    }

    #[test]
    fn unit_rescale_roundtrip_sits_within_a_few_ulps() {
        for &x in &[2.0f64, 2.4, 2.8, 3.2, 500.0, 900.0, 4800.0] {
            let rt = x * 1000.0 / 1000.0;
            assert!(
                Tolerance::Ulps(2).accepts(x, rt),
                "{x} vs {rt}: {:?} ulps",
                ulps_apart(x, rt)
            );
        }
    }

    #[test]
    fn relative_scales_with_magnitude_and_rejects_nan() {
        assert!(Tolerance::Relative(1e-9).accepts(1e12, 1e12 + 100.0));
        assert!(!Tolerance::Relative(1e-9).accepts(1.0, 1.001));
        assert!(Tolerance::Relative(1e-3).accepts(1.0, 1.0005));
        assert!(!Tolerance::Relative(1.0).accepts(f64::NAN, f64::NAN));
        assert!(Tolerance::Relative(0.0).accepts(0.0, 0.0));
    }
}
