//! Shared exact integer arithmetic for the static analyses.
//!
//! Dependence testing ([`crate::deps`]), bounds validation
//! ([`Program::validate`](crate::Program::validate)), alignment proofs
//! ([`crate::align`]) and the `slp-analyze` dataflow framework all need
//! the same two primitives: a Euclidean gcd and the provable value range
//! of an affine expression over the enclosing loop bounds. They used to
//! carry private copies with subtly different overflow behavior; this
//! module is the single shared implementation, computed in `i128` so
//! pathological coefficients cannot overflow (or, worse, wrap into a
//! falsely-in-range interval).

use crate::ids::LoopVarId;
use crate::program::LoopHeader;

/// Greatest common divisor of `|a|` and `|b|`; `gcd(0, 0) == 0`.
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    // An i64's absolute value always fits back after the gcd (the only
    // overflow candidate, |i64::MIN|, can only be returned for inputs
    // whose gcd genuinely is 2^63, and the clamp keeps that sound).
    i64::try_from(a).unwrap_or(i64::MAX)
}

/// The provable `[min, max]` of `constant + Σ terms` (an affine
/// expression's, or a difference read in place) over loop ranges.
///
/// Returns `None` when some variable has no enclosing header or when an
/// enclosing loop provably never runs (no iteration exists, so no value
/// constraint is meaningful). Computed in `i128` and clamped back to
/// `i64`; clamping is monotone around 0, so sign-based verdicts
/// (out-of-bounds, never-zero) survive it.
pub(crate) fn interval_in(
    terms: impl IntoIterator<Item = (LoopVarId, i64)>,
    constant: i64,
    loops: &[LoopHeader],
) -> Option<(i64, i64)> {
    let mut lo = constant as i128;
    let mut hi = lo;
    for (v, c) in terms {
        let h = loops.iter().find(|h| h.var == v)?;
        let trips = h.trip_count() as i128;
        if trips <= 0 {
            return None;
        }
        let first = h.lower as i128;
        let last = first + (trips - 1) * h.step as i128;
        let (a, b) = ((c as i128) * first, (c as i128) * last);
        lo = lo.saturating_add(a.min(b));
        hi = hi.saturating_add(a.max(b));
    }
    let clamp = |x: i128| x.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
    Some((clamp(lo), clamp(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;

    fn interval(e: &AffineExpr, loops: &[LoopHeader]) -> Option<(i64, i64)> {
        interval_in(e.terms(), e.constant(), loops)
    }

    fn header(var: u32, lower: i64, upper: i64, step: i64) -> LoopHeader {
        LoopHeader {
            var: LoopVarId::new(var),
            lower,
            upper,
            step,
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(-8, 12), 4);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(i64::MIN, 0), i64::MAX); // |i64::MIN| clamps, stays sound
    }

    #[test]
    fn interval_over_one_loop() {
        // 2i + 1 over i in 0..8 -> [1, 15].
        let e = AffineExpr::var(LoopVarId::new(0)).scaled(2).offset(1);
        let h = [header(0, 0, 8, 1)];
        assert_eq!(interval(&e, &h), Some((1, 15)));
    }

    #[test]
    fn interval_respects_step_endpoint() {
        // i over i in 0..7 step 2 -> last iteration is i = 6.
        let e = AffineExpr::var(LoopVarId::new(0));
        let h = [header(0, 0, 7, 2)];
        assert_eq!(interval(&e, &h), Some((0, 6)));
    }

    #[test]
    fn interval_unknown_var_is_none() {
        let e = AffineExpr::var(LoopVarId::new(3));
        assert_eq!(interval(&e, &[]), None);
    }

    #[test]
    fn interval_zero_trip_is_none() {
        let e = AffineExpr::var(LoopVarId::new(0));
        let h = [header(0, 4, 4, 1)];
        assert_eq!(interval(&e, &h), None);
    }

    #[test]
    fn interval_negative_coefficients() {
        // -3i + 2 over i in 1..5 -> [-10, -1].
        let e = AffineExpr::var(LoopVarId::new(0)).scaled(-3).offset(2);
        let h = [header(0, 1, 5, 1)];
        assert_eq!(interval(&e, &h), Some((-10, -1)));
    }

    #[test]
    fn interval_saturates_instead_of_wrapping() {
        let e = AffineExpr::var(LoopVarId::new(0)).scaled(i64::MAX);
        let h = [header(0, 1, i64::MAX, 1)];
        let (lo, hi) = interval(&e, &h).expect("bounded");
        assert!(lo > 0, "sign must survive saturation");
        assert_eq!(hi, i64::MAX);
    }
}
