//! Alignment and contiguity analysis.
//!
//! The pre-processing stage performs alignment analysis (§3, Figure 3) so
//! the later cost model can distinguish a single aligned vector load from a
//! gather of scalar loads plus register inserts. Array base addresses are
//! assumed to be aligned to the widest vector width in play, matching the
//! usual `attribute((aligned(16)))` discipline of hand-tuned SSE code.

use crate::affine::AffineExpr;
use crate::expr::ArrayRef;
use crate::program::{LoopHeader, Program};

/// Whether the references form a *contiguous ascending pack*: same array,
/// identical subscripts in every outer dimension, and innermost subscripts
/// that differ by exactly `0, 1, 2, ...` from the first reference.
///
/// Such a pack can be loaded with one vector memory operation (if also
/// aligned); anything else needs scalar loads plus register inserts.
pub fn pack_is_contiguous(refs: &[&ArrayRef]) -> bool {
    let Some(first) = refs.first() else {
        return false;
    };
    let rank = first.access.rank();
    refs.iter().enumerate().all(|(k, r)| {
        r.array == first.array
            && r.access.rank() == rank
            && (0..rank - 1).all(|d| r.access.dim(d) == first.access.dim(d))
            && first
                .access
                .dim(rank - 1)
                .constant_difference(r.access.dim(rank - 1))
                == Some(k as i64)
    })
}

/// Whether the byte offset `elem_size * expr` is guaranteed to be a
/// multiple of `align_bytes` for every value of the loop variables.
///
/// Without a header in `loops` this holds iff every coefficient and the
/// constant term scale to multiples of the alignment. Induction variables
/// found in `loops` only take the values `lower, lower+step, ...`, so
/// their effective coefficient is `c·step` with a base shift of
/// `c·lower`. This is what makes `A[i]` with `i` stepping by 2 (an
/// unrolled loop) provably 16-byte aligned for f64.
pub(crate) fn is_aligned_in(
    expr: &AffineExpr,
    elem_size: u32,
    align_bytes: u32,
    loops: &[LoopHeader],
) -> bool {
    let m = i64::from(align_bytes);
    let e = i64::from(elem_size);
    if m <= e {
        return true;
    }
    let mut base = expr.constant();
    for (v, c) in expr.terms() {
        match loops.iter().find(|h| h.var == v) {
            Some(h) => {
                if (c * h.step * e) % m != 0 {
                    return false;
                }
                base += c * h.lower;
            }
            None => {
                if (c * e) % m != 0 {
                    return false;
                }
            }
        }
    }
    (base * e) % m == 0
}

/// Whether a contiguous pack starting at `refs[0]` is aligned to the full
/// pack width in `program`'s memory layout, given the enclosing `loops`
/// (see `is_aligned_in`).
pub fn pack_is_aligned_in(refs: &[&ArrayRef], program: &Program, loops: &[LoopHeader]) -> bool {
    let Some(first) = refs.first() else {
        return false;
    };
    let info = program.array(first.array);
    let elem = info.ty.size_bytes();
    let width = elem * refs.len() as u32;
    // Only the innermost dimension varies within a pack; outer dims
    // contribute multiples of the innermost extent, which we require to be
    // a multiple of the pack lane count for alignment to be guaranteed.
    let rank = first.access.rank();
    if rank > 1 {
        let inner_extent = *info.dims.last().expect("array has dims");
        if (inner_extent * i64::from(elem)) % i64::from(width) != 0 {
            return false;
        }
    }
    is_aligned_in(first.access.dim(rank - 1), elem, width, loops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AccessVector;
    use crate::ids::{ArrayId, LoopVarId};
    use crate::types::ScalarType;

    fn i() -> LoopVarId {
        LoopVarId::new(0)
    }

    fn r1(coeff: i64, cst: i64) -> ArrayRef {
        ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(i()).scaled(coeff).offset(cst)]),
        )
    }

    #[test]
    fn contiguous_pack_detection() {
        let a0 = r1(2, 0);
        let a1 = r1(2, 1);
        let a2 = r1(2, 2);
        assert!(pack_is_contiguous(&[&a0, &a1]));
        assert!(pack_is_contiguous(&[&a0, &a1, &a2]));
        // Descending or gapped packs are not contiguous.
        assert!(!pack_is_contiguous(&[&a1, &a0]));
        assert!(!pack_is_contiguous(&[&a0, &a2]));
        // Different linear parts are not contiguous.
        let b = r1(4, 1);
        assert!(!pack_is_contiguous(&[&a0, &b]));
        assert!(!pack_is_contiguous(&[]));
    }

    #[test]
    fn multi_dim_contiguity_requires_equal_outer_dims() {
        let a = ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(i()), AffineExpr::constant_expr(0)]),
        );
        let b = ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(i()), AffineExpr::constant_expr(1)]),
        );
        let c = ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![
                AffineExpr::var(i()).offset(1),
                AffineExpr::constant_expr(1),
            ]),
        );
        assert!(pack_is_contiguous(&[&a, &b]));
        assert!(!pack_is_contiguous(&[&a, &c]));
    }

    #[test]
    fn loop_aware_alignment_uses_step_and_lower() {
        let i = LoopVarId::new(0);
        let h = |lower: i64, step: i64| crate::program::LoopHeader {
            var: i,
            lower,
            upper: 1 << 20,
            step,
        };
        // A[i] with i stepping by 2 is 16-byte aligned for f64.
        let e = AffineExpr::var(i);
        assert!(!is_aligned_in(&e, 8, 16, &[]));
        assert!(is_aligned_in(&e, 8, 16, &[h(0, 2)]));
        // ... but not when the loop starts at an odd element.
        assert!(!is_aligned_in(&e, 8, 16, &[h(1, 2)]));
        // Unknown variables stay conservative.
        assert!(!is_aligned_in(&e, 8, 16, &[]));
    }

    #[test]
    fn aligned_pack() {
        let mut p = Program::new("t");
        let arr = p.add_array("A", ScalarType::F64, vec![64], true);
        let i = p.add_loop_var("i");
        let at = |coeff: i64, cst: i64| {
            ArrayRef::new(
                arr,
                AccessVector::new(vec![AffineExpr::var(i).scaled(coeff).offset(cst)]),
            )
        };
        // <A[2i], A[2i+1]> with f64: 16-byte pack, always aligned.
        let (a, b) = (at(2, 0), at(2, 1));
        assert!(pack_is_aligned_in(&[&a, &b], &p, &[]));
        // <A[2i+1], A[2i+2]> starts at odd element: misaligned.
        let (c, d) = (at(2, 1), at(2, 2));
        assert!(!pack_is_aligned_in(&[&c, &d], &p, &[]));
        // <A[i], ...>: coefficient 1 cannot guarantee 16-byte alignment.
        let (e, f) = (at(1, 0), at(1, 1));
        assert!(!pack_is_aligned_in(&[&e, &f], &p, &[]));
    }
}
