//! Cross-iteration superword reuse (opt-in).
//!
//! The paper cites Shin, Chame & Hall's compiler-controlled caching of
//! the vector register file as complementary to its framework; this
//! module implements the loop-carried flavour of that idea on top of the
//! shared code generator. When a pack loaded this iteration at
//! `A[f(i + step)]` is exactly what another pack `A[f(i)]`'s *next*
//! iteration will need, the later load is replaced by a
//! [`VInst::CarriedLoad`]: on the first iteration it performs the real
//! load, on every later one it copies the still-live register from the
//! previous iteration — a vector move instead of memory traffic.
//!
//! Safety conditions:
//! * the array is read-only in the whole program (no store can
//!   invalidate the carried value between iterations),
//! * the consumer precedes the source in the body, so the copy happens
//!   before the source register is overwritten with this iteration's
//!   value,
//! * the block sits in an innermost loop with a positive step.

use slp_ir::{LoopHeader, Program};

use crate::code::VInst;
use crate::regalloc::def_of;

/// Rewrites eligible loads in `body` into carried loads. Returns the
/// number of conversions.
pub(crate) fn apply_cross_iteration_reuse(
    body: &mut [VInst],
    program: &Program,
    innermost: Option<&LoopHeader>,
) -> usize {
    let Some(h) = innermost else { return 0 };
    if h.step <= 0 {
        return 0;
    }

    // Collect plain loads from read-only arrays: (index, refs, dst).
    let loads: Vec<usize> = body
        .iter()
        .enumerate()
        .filter_map(|(idx, inst)| match inst {
            VInst::Load { refs, .. }
                if refs.iter().all(|r| program.array_is_read_only(r.array)) =>
            {
                Some(idx)
            }
            _ => None,
        })
        .collect();

    let mut conversions = 0;
    for &consumer_idx in &loads {
        // The consumer's next-iteration refs: i -> i + step.
        let shifted: Vec<slp_ir::ArrayRef> = match &body[consumer_idx] {
            VInst::Load { refs, .. } => refs
                .iter()
                .map(|r| {
                    slp_ir::ArrayRef::new(
                        r.array,
                        r.access
                            .substitute(h.var, &slp_ir::AffineExpr::var(h.var).offset(h.step)),
                    )
                })
                .collect(),
            _ => continue,
        };
        // A later load producing exactly those refs is the source whose
        // register survives into the next iteration.
        let source = loads.iter().copied().find(|&src_idx| {
            src_idx > consumer_idx
                && matches!(&body[src_idx], VInst::Load { refs, .. } if *refs == shifted)
        });
        let Some(src_idx) = source else { continue };
        let Some(carried_from) = def_of(&body[src_idx]) else {
            continue;
        };
        if let VInst::Load { dst, refs, class } = body[consumer_idx].clone() {
            body[consumer_idx] = VInst::CarriedLoad {
                dst,
                refs,
                class,
                carried_from,
            };
            conversions += 1;
        }
    }
    conversions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::VReg;
    use slp_core::AccessClass;
    use slp_ir::{AccessVector, AffineExpr, ArrayRef, Expr, ScalarType};

    fn setup() -> (Program, LoopHeader) {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![64], true); // read-only
        let b = p.add_array("B", ScalarType::F64, vec![64], true); // written
        let i = p.add_loop_var("i");
        let w = p.make_stmt(
            ArrayRef::new(b, AccessVector::new(vec![AffineExpr::var(i)])).into(),
            Expr::Copy(1.0.into()),
        );
        p.push_item(slp_ir::Item::Stmt(w));
        let _ = a;
        (
            p,
            LoopHeader {
                var: slp_ir::LoopVarId::new(0),
                lower: 0,
                upper: 16,
                step: 2,
            },
        )
    }

    fn load(dst: u32, array: u32, base: i64) -> VInst {
        // <A[2i+base], A[2i+base+1]>
        let refs = (0..2)
            .map(|k| {
                ArrayRef::new(
                    slp_ir::ArrayId::new(array),
                    AccessVector::new(vec![AffineExpr::var(slp_ir::LoopVarId::new(0))
                        .scaled(2)
                        .offset(base + k)]),
                )
            })
            .collect();
        VInst::Load {
            dst: VReg(dst),
            refs,
            class: AccessClass::Aligned,
        }
    }

    #[test]
    fn stencil_overlap_is_carried() {
        let (p, h) = setup();
        // Pack <A[2i], A[2i+1]> next iteration (i += 2) is
        // <A[2i+4], A[2i+5]> — exactly the second load of this iteration.
        let mut body = vec![load(0, 0, 0), load(1, 0, 4)];
        let n = apply_cross_iteration_reuse(&mut body, &p, Some(&h));
        assert_eq!(n, 1);
        assert!(matches!(
            &body[0],
            VInst::CarriedLoad {
                carried_from: VReg(1),
                ..
            }
        ));
        // The source stays a plain load.
        assert!(matches!(&body[1], VInst::Load { .. }));
    }

    #[test]
    fn written_arrays_are_never_carried() {
        let (p, h) = setup();
        let mut body = vec![load(0, 1, 0), load(1, 1, 4)];
        assert_eq!(apply_cross_iteration_reuse(&mut body, &p, Some(&h)), 0);
    }

    #[test]
    fn source_must_follow_the_consumer() {
        let (p, h) = setup();
        // Reversed order: the "source" is overwritten before the copy
        // could happen, so no conversion.
        let mut body = vec![load(1, 0, 4), load(0, 0, 0)];
        assert_eq!(apply_cross_iteration_reuse(&mut body, &p, Some(&h)), 0);
    }

    #[test]
    fn shift_must_match_the_loop_step() {
        let (p, h) = setup();
        // Offset 2 ≠ step × coeff (4): not next-iteration content.
        let mut body = vec![load(0, 0, 0), load(1, 0, 2)];
        assert_eq!(apply_cross_iteration_reuse(&mut body, &p, Some(&h)), 0);
    }

    #[test]
    fn top_level_blocks_are_untouched() {
        let (p, _) = setup();
        let mut body = vec![load(0, 0, 0), load(1, 0, 4)];
        assert_eq!(apply_cross_iteration_reuse(&mut body, &p, None), 0);
    }
}
