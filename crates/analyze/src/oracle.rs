//! The range-refined dependence oracle.
//!
//! [`RangeOracle`] implements [`slp_ir::DepOracle`] with three layers of
//! disproof per array-reference pair, applied to the per-dimension
//! subscript difference `Δd = e₁d − e₂d`:
//!
//! 1. the **GCD test** (`slp_ir::refs_overlap_in` without loop bounds) —
//!    the baseline the built-in oracle already performs, so refutations
//!    here are not counted as refinements;
//! 2. a **strided-interval evaluation** of `Δd` over the exact value
//!    sets of the induction variables: if `0` is not a member (outside
//!    the hull *or* off the stride lattice), the references never
//!    coincide in dimension `d`;
//! 3. a **joint pairwise test** across dimensions: an overlap needs
//!    *every* `Δd` to vanish at the same iteration, so if `Δa − Δb` is
//!    provably never zero the pair cannot overlap even when each
//!    dimension separately can.
//!
//! Layers 2 and 3 go beyond the GCD test; each pair they refute bumps
//! the telemetry counter surfaced as `deps_refuted` in compile stats.
//! The oracle is conservative by construction — every disproof is a
//! proof that no iteration makes all differences vanish — and the
//! `conservative.rs` property test re-checks that against brute-force
//! enumeration of random iteration spaces.

use std::cell::Cell;

use slp_ir::{operands_overlap_in, refs_overlap_in, ArrayRef, DepOracle, LoopHeader, Operand};

use crate::ranges::{eval_affine, loop_env};

/// A [`DepOracle`] that augments the built-in affine test with
/// strided-interval range disproofs.
///
/// # Examples
///
/// ```
/// use slp_ir::{AccessVector, AffineExpr, ArrayId, ArrayRef, LoopHeader, LoopVarId,
///     DepOracle, Operand};
/// use slp_analyze::RangeOracle;
///
/// let i = LoopVarId::new(0);
/// // for i in 0..16 step 2: A[2i] vs A[i+3] — Δ = i − 3 is odd, never 0.
/// let w = ArrayRef::new(ArrayId::new(0),
///     AccessVector::new(vec![AffineExpr::var(i).scaled(2)]));
/// let r = ArrayRef::new(ArrayId::new(0),
///     AccessVector::new(vec![AffineExpr::var(i).offset(3)]));
/// let loops = [LoopHeader { var: i, lower: 0, upper: 16, step: 2 }];
/// let oracle = RangeOracle::new();
/// assert!(!oracle.operands_overlap(&Operand::Array(w), &Operand::Array(r), &loops));
/// assert_eq!(oracle.refuted_beyond_gcd(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RangeOracle {
    refuted_beyond_gcd: Cell<u64>,
}

impl RangeOracle {
    /// A fresh oracle with a zeroed telemetry counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many operand-pair queries were refuted by range reasoning the
    /// GCD test alone could not settle (each refuted query kills one
    /// candidate dependence edge).
    pub fn refuted_beyond_gcd(&self) -> u64 {
        self.refuted_beyond_gcd.get()
    }

    fn count_refinement(&self) {
        self.refuted_beyond_gcd
            .set(self.refuted_beyond_gcd.get() + 1);
    }

    fn refs_overlap(&self, x: &ArrayRef, y: &ArrayRef, loops: &[LoopHeader]) -> bool {
        // Layer 1: the built-in test without loop bounds is the GCD
        // disproof alone, walked off the subscripts' term lists
        // (uncounted). It also settles distinct arrays.
        if !refs_overlap_in(x, y, &[]) {
            return false;
        }
        // Range layers need every induction variable's value set; a
        // provably dead loop yields no constraint (the built-in test is
        // conservative there too), and mismatched ranks are malformed.
        let (Some(env), true) = (loop_env(loops), x.access.rank() == y.access.rank()) else {
            return true;
        };
        let dims = x.access.dims().iter().zip(y.access.dims());
        let deltas: Vec<_> = dims.map(|(a, b)| a.sub(b)).collect();
        let never_zero = |delta: &slp_ir::AffineExpr| -> bool {
            // A constant delta that survived the GCD test is zero.
            !delta.is_constant() && eval_affine(delta, &env).is_some_and(|si| !si.contains(0))
        };
        // Layer 2: per-dimension strided-interval disproof.
        if deltas.iter().any(never_zero) {
            self.count_refinement();
            return false;
        }
        // Layer 3: joint test. All Δd must vanish simultaneously for an
        // overlap, so a never-zero pairwise difference refutes the pair.
        for a in 0..deltas.len() {
            for b in a + 1..deltas.len() {
                let diff = deltas[a].sub(&deltas[b]);
                if slp_ir::gcd_test_refutes_zero(&diff) || never_zero(&diff) {
                    self.count_refinement();
                    return false;
                }
            }
        }
        true
    }
}

impl DepOracle for RangeOracle {
    fn operands_overlap(&self, a: &Operand, b: &Operand, loops: &[LoopHeader]) -> bool {
        match (a, b) {
            (Operand::Array(x), Operand::Array(y)) => self.refs_overlap(x, y, loops),
            _ => operands_overlap_in(a, b, loops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{AccessVector, AffineExpr, ArrayId, LoopVarId};

    fn at(dims: Vec<AffineExpr>) -> Operand {
        Operand::Array(ArrayRef::new(ArrayId::new(0), AccessVector::new(dims)))
    }

    fn h(var: u32, lower: i64, upper: i64, step: i64) -> LoopHeader {
        LoopHeader {
            var: LoopVarId::new(var),
            lower,
            upper,
            step,
        }
    }

    #[test]
    fn stride_parity_refutes_what_gcd_and_intervals_cannot() {
        let i = LoopVarId::new(0);
        // for i in 0..16 step 2: A[2i] vs A[i+3].  Δ = i − 3: the GCD of
        // {1} divides 3, and [−3, 11] straddles 0 — but i is even, so
        // Δ is odd and never vanishes.
        let w = at(vec![AffineExpr::var(i).scaled(2)]);
        let r = at(vec![AffineExpr::var(i).offset(3)]);
        let loops = [h(0, 0, 16, 2)];
        assert!(operands_overlap_in(&w, &r, &loops), "baseline keeps it");
        let oracle = RangeOracle::new();
        assert!(!oracle.operands_overlap(&w, &r, &loops));
        assert_eq!(oracle.refuted_beyond_gcd(), 1);
    }

    #[test]
    fn interval_refutation_beyond_gcd_is_counted() {
        let i = LoopVarId::new(0);
        // for i in 0..8: A[2i] vs A[i+16].  Δ = i − 16 ∈ [−16, −9] < 0.
        let w = at(vec![AffineExpr::var(i).scaled(2)]);
        let r = at(vec![AffineExpr::var(i).offset(16)]);
        let oracle = RangeOracle::new();
        assert!(!oracle.operands_overlap(&w, &r, &[h(0, 0, 8, 1)]));
        assert_eq!(oracle.refuted_beyond_gcd(), 1);
    }

    #[test]
    fn gcd_refutations_are_not_counted_as_refinements() {
        let i = LoopVarId::new(0);
        // A[2i] vs A[2i+1]: constant odd difference — pure GCD territory.
        let a = at(vec![AffineExpr::var(i).scaled(2)]);
        let b = at(vec![AffineExpr::var(i).scaled(2).offset(1)]);
        let oracle = RangeOracle::new();
        assert!(!oracle.operands_overlap(&a, &b, &[h(0, 0, 8, 1)]));
        assert_eq!(oracle.refuted_beyond_gcd(), 0);
    }

    #[test]
    fn joint_test_refutes_simultaneous_zeros() {
        let (i, j) = (LoopVarId::new(0), LoopVarId::new(1));
        // B[i][j] vs B[j][i+1]: Δ0 = i − j, Δ1 = j − i − 1. Each dimension
        // vanishes somewhere, but Δ0 − Δ1 = 2(i − j) + 1 is odd: they
        // never vanish together.
        let a = at(vec![AffineExpr::var(i), AffineExpr::var(j)]);
        let b = at(vec![AffineExpr::var(j), AffineExpr::var(i).offset(1)]);
        let loops = [h(0, 0, 8, 1), h(1, 0, 8, 1)];
        assert!(operands_overlap_in(&a, &b, &loops), "baseline keeps it");
        let oracle = RangeOracle::new();
        assert!(!oracle.operands_overlap(&a, &b, &loops));
        assert_eq!(oracle.refuted_beyond_gcd(), 1);
    }

    #[test]
    fn genuinely_overlapping_pairs_stay_dependent() {
        let i = LoopVarId::new(0);
        let a = at(vec![AffineExpr::var(i)]);
        let b = at(vec![AffineExpr::var(i).scaled(2).offset(-4)]);
        // Δ = 4 − i vanishes at i = 4 ∈ [0, 8).
        let oracle = RangeOracle::new();
        assert!(oracle.operands_overlap(&a, &b, &[h(0, 0, 8, 1)]));
        assert_eq!(oracle.refuted_beyond_gcd(), 0);
    }

    #[test]
    fn zero_trip_and_unknown_loops_stay_conservative() {
        let i = LoopVarId::new(0);
        let a = at(vec![AffineExpr::var(i)]);
        let b = at(vec![AffineExpr::var(i).scaled(2)]);
        let oracle = RangeOracle::new();
        assert!(oracle.operands_overlap(&a, &b, &[h(0, 4, 4, 1)]));
        assert!(oracle.operands_overlap(&a, &b, &[]));
        assert_eq!(oracle.refuted_beyond_gcd(), 0);
    }

    #[test]
    fn scalar_queries_fall_through_to_the_builtin_test() {
        let oracle = RangeOracle::new();
        let x = Operand::Scalar(slp_ir::VarId::new(0));
        let y = Operand::Scalar(slp_ir::VarId::new(1));
        assert!(oracle.operands_overlap(&x, &x, &[]));
        assert!(!oracle.operands_overlap(&x, &y, &[]));
    }
}
