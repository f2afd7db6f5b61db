//! The strided-interval abstract domain.
//!
//! A [`StridedInterval`] `⟨lo, hi, s⟩` denotes the set of integers
//! `{lo, lo + s, lo + 2s, …} ∩ [lo, hi]` — an interval refined with a
//! stride congruence. It subsumes both halves of the classic dependence
//! disproofs: the plain interval `[lo, hi]` (stride 1) and the GCD
//! congruence class (stride = gcd of the coefficients), and it is closed
//! under the affine operations the IR's subscripts are built from, so a
//! whole `c0 + Σ ci·ivi` can be evaluated abstractly without losing the
//! congruence information a `step k` loop induces.
//!
//! Arithmetic is carried out in `i128` with checked operations; any
//! overflow widens to [`StridedInterval::top`], which keeps every
//! consumer conservative. For affine expressions over `i64` loop bounds
//! the `i128` computation is exact, which is what lets the out-of-bounds
//! lint (V502) report *errors* rather than *maybes*: over a box domain
//! where every variable independently attains its extremes, the abstract
//! endpoints of an affine expression are attained by concrete iterations.

use std::fmt;

/// A set of integers `{lo + k·stride | k ≥ 0} ∩ [lo, hi]`.
///
/// Canonical form: `lo ≤ hi`; `stride == 0` iff `lo == hi`; for
/// non-singletons `stride > 0` and `(hi - lo) % stride == 0`, so both
/// endpoints are members of the set.
///
/// # Examples
///
/// ```
/// use slp_analyze::StridedInterval;
///
/// // The values of `i` in `for i in 0..8 step 2`: {0, 2, 4, 6}.
/// let i = StridedInterval::range(0, 6, 2);
/// assert!(i.contains(4));
/// assert!(!i.contains(3));
/// // i - 3 is odd: never zero, even though [−3, 3] straddles 0.
/// let d = i.add(&StridedInterval::constant(-3));
/// assert!(!d.contains(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StridedInterval {
    lo: i128,
    hi: i128,
    stride: i128,
}

/// gcd over `i128` magnitudes; `gcd(0, 0) == 0`.
fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    // The magnitude of any i128 gcd argument is at most 2^127, which only
    // fails to convert back for |i128::MIN|. The result is used as a
    // stride, so the sound degradation is 1 (the dense hull) — a large
    // substitute like i128::MAX would not divide the true gcd and could
    // drop members from a sum.
    i128::try_from(a).unwrap_or(1)
}

impl StridedInterval {
    /// Canonicalizes `⟨lo, hi, stride⟩`; `lo` must not exceed `hi`.
    ///
    /// Total over all of `i128`: the endpoint snap works through
    /// `rem_euclid` residues rather than the span `hi - lo`, which
    /// overflows for intervals touching `i128::MIN` — those keep their
    /// congruence instead of degrading to the stride-1 hull.
    fn canonical(lo: i128, hi: i128, stride: i128) -> Self {
        debug_assert!(lo <= hi, "inverted interval {lo}..{hi}");
        if lo == hi {
            return StridedInterval { lo, hi, stride: 0 };
        }
        let stride = stride.max(1);
        if stride == 1 {
            return StridedInterval { lo, hi, stride };
        }
        // Pull `hi` down to the last lattice point so it is a member:
        // the distance down to `hi ≡ lo (mod stride)` is the residue
        // difference. Both residues live in `[0, stride)`, so neither
        // the subtraction nor the final snap can overflow.
        let down = (hi.rem_euclid(stride) - lo.rem_euclid(stride)).rem_euclid(stride);
        let hi = hi - down;
        if lo == hi {
            return StridedInterval { lo, hi, stride: 0 };
        }
        StridedInterval { lo, hi, stride }
    }

    /// The singleton `{c}`.
    pub fn constant(c: i64) -> Self {
        StridedInterval {
            lo: c as i128,
            hi: c as i128,
            stride: 0,
        }
    }

    /// The set `{lo, lo + stride, …} ∩ [lo, hi]` (e.g. the values of a
    /// loop induction variable). A negative stride denotes the mirrored
    /// descending sequence `{hi, hi − |stride|, …} ∩ [lo, hi]` — the
    /// anchor endpoint is `hi`, so canonicalization pulls `lo` *up*
    /// instead of collapsing to the dense hull. A zero stride over a
    /// non-singleton range means the dense interval.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `lo > hi`.
    pub fn range(lo: i64, hi: i64, stride: i64) -> Self {
        let (lo, hi) = (lo as i128, hi as i128);
        if stride >= 0 {
            return Self::canonical(lo, hi, stride as i128);
        }
        debug_assert!(lo <= hi, "inverted interval {lo}..{hi}");
        if lo == hi {
            return StridedInterval { lo, hi, stride: 0 };
        }
        // `-(stride as i128)` is exact even for i64::MIN.
        let stride = -(stride as i128);
        if stride == 1 {
            return StridedInterval { lo, hi, stride };
        }
        let up = (hi.rem_euclid(stride) - lo.rem_euclid(stride)).rem_euclid(stride);
        let lo = lo + up;
        if lo == hi {
            return StridedInterval { lo, hi, stride: 0 };
        }
        StridedInterval { lo, hi, stride }
    }

    /// The unconstrained element: all integers.
    pub(crate) fn top() -> Self {
        StridedInterval {
            lo: i128::MIN,
            hi: i128::MAX,
            stride: 1,
        }
    }

    /// Whether this is the unconstrained element.
    pub(crate) fn is_top(&self) -> bool {
        *self == Self::top()
    }

    /// Smallest member.
    pub fn lo(&self) -> i128 {
        self.lo
    }

    /// Largest member.
    pub fn hi(&self) -> i128 {
        self.hi
    }

    /// The stride (0 for singletons).
    pub fn stride(&self) -> i128 {
        self.stride
    }

    /// Whether `v` is a member of the denoted set.
    pub fn contains(&self, v: i64) -> bool {
        let v = v as i128;
        if v < self.lo || v > self.hi {
            return false;
        }
        if self.stride == 0 {
            v == self.lo
        } else {
            // Congruence check without `v - lo`, which can overflow for
            // near-top intervals.
            v.rem_euclid(self.stride) == self.lo.rem_euclid(self.stride)
        }
    }

    /// Abstract addition: `{a + b | a ∈ self, b ∈ other}` is contained in
    /// the result (exact interval hull, stride weakened to the gcd).
    pub fn add(&self, other: &StridedInterval) -> StridedInterval {
        let (Some(lo), Some(hi)) = (self.lo.checked_add(other.lo), self.hi.checked_add(other.hi))
        else {
            return Self::top();
        };
        Self::canonical(lo, hi, gcd_i128(self.stride, other.stride))
    }

    /// Abstract multiplication by a constant (exact).
    pub fn scale(&self, k: i64) -> StridedInterval {
        if k == 0 {
            return Self::constant(0);
        }
        let k = k as i128;
        let (Some(a), Some(b), Some(s)) = (
            self.lo.checked_mul(k),
            self.hi.checked_mul(k),
            self.stride.checked_mul(k.unsigned_abs() as i128),
        ) else {
            return Self::top();
        };
        Self::canonical(a.min(b), a.max(b), s)
    }
}

impl fmt::Display for StridedInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            write!(f, "⊤")
        } else if self.stride == 0 {
            write!(f, "{{{}}}", self.lo)
        } else {
            write!(f, "[{}, {}]/{}", self.lo, self.hi, self.stride)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_pulls_hi_onto_the_lattice() {
        let s = StridedInterval::range(1, 10, 4); // {1, 5, 9}
        assert_eq!((s.lo(), s.hi(), s.stride()), (1, 9, 4));
        assert!(s.contains(5));
        assert!(!s.contains(10));
        let single = StridedInterval::range(3, 3, 7);
        assert_eq!(single, StridedInterval::constant(3));
        assert_eq!(single.stride(), 0);
    }

    #[test]
    fn parity_survives_addition_of_constants() {
        // {0, 2, ..., 14} − 3 = {−3, −1, ..., 11}: all odd, 0 excluded.
        let evens = StridedInterval::range(0, 14, 2);
        let d = evens.add(&StridedInterval::constant(-3));
        assert_eq!((d.lo(), d.hi(), d.stride()), (-3, 11, 2));
        assert!(!d.contains(0));
        assert!(d.contains(-1));
    }

    #[test]
    fn add_weakens_stride_to_gcd() {
        let a = StridedInterval::range(0, 12, 4);
        let b = StridedInterval::range(0, 6, 6);
        let sum = a.add(&b);
        assert_eq!(sum.stride(), 2);
        // Exact hull of the sum set.
        assert_eq!((sum.lo(), sum.hi()), (0, 18));
    }

    #[test]
    fn scale_by_negative_swaps_and_keeps_magnitude() {
        let s = StridedInterval::range(1, 7, 3); // {1, 4, 7}
        let t = s.scale(-2); // {−14, −8, −2}
        assert_eq!((t.lo(), t.hi(), t.stride()), (-14, -2, 6));
        assert!(t.contains(-8));
        assert!(!t.contains(-4));
        assert_eq!(s.scale(0), StridedInterval::constant(0));
    }

    #[test]
    fn negative_stride_enumerates_descending_from_hi() {
        // step −4 from 10 down: {10, 6, 2} — anchored at hi, lo pulled up.
        let s = StridedInterval::range(0, 10, -4);
        assert_eq!((s.lo(), s.hi(), s.stride()), (2, 10, 4));
        assert!(s.contains(6));
        assert!(!s.contains(0));
        assert!(!s.contains(4));
        // Descending unit stride is the dense interval.
        let d = StridedInterval::range(-3, 3, -1);
        assert_eq!((d.lo(), d.hi(), d.stride()), (-3, 3, 1));
        // i64::MIN stride must not overflow on negation.
        let m = StridedInterval::range(0, 5, i64::MIN);
        assert_eq!((m.lo(), m.hi(), m.stride()), (5, 5, 0));
        assert_eq!(
            StridedInterval::range(7, 7, -3),
            StridedInterval::constant(7)
        );
    }

    #[test]
    fn lo_at_i128_min_canonicalizes_without_overflow() {
        // ⟨i128::MIN, 2^62 + 1, 2^62⟩: the span 2^127 + 2^62 + 1 overflows
        // i128, so a span-based snap would degrade this to the stride-1
        // hull; the residue snap pulls `hi` onto the lattice and keeps the
        // congruence.
        let s = StridedInterval::canonical(i128::MIN, (1i128 << 62) + 1, 1i128 << 62);
        assert_eq!(s.lo(), i128::MIN, "endpoint reaches i128::MIN exactly");
        assert_eq!(s.hi(), 1i128 << 62);
        assert_eq!(s.stride(), 1i128 << 62, "congruence survives the wide span");
        assert!(!s.is_top());
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert!(!s.contains(3));
    }

    #[test]
    fn overflow_widens_to_top() {
        let huge = StridedInterval::range(i64::MAX, i64::MAX, 0);
        let t = huge.scale(i64::MAX).scale(i64::MAX).scale(i64::MAX);
        assert!(t.is_top());
        assert!(t.contains(0));
        assert!(StridedInterval::top().add(&huge).is_top());
    }

    #[test]
    fn display_forms() {
        assert_eq!(StridedInterval::constant(4).to_string(), "{4}");
        assert_eq!(StridedInterval::range(0, 6, 2).to_string(), "[0, 6]/2");
        assert_eq!(StridedInterval::top().to_string(), "⊤");
    }
}
