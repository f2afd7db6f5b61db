//! Loop-invariant pack hoisting — part of the post-processing "other
//! low-level optimizations" of the paper's Figure 3.
//!
//! A superword materialization whose inputs cannot change across the
//! innermost loop's iterations — a broadcast of a never-written scalar, a
//! constant vector, or a load from a program-wide read-only array whose
//! subscripts do not use the innermost induction variable — is executed
//! once per loop *entry* instead of once per iteration. This is the LICM
//! every real backend performs on SLP output (the splat of `alpha` in an
//! axpy loop is the canonical case), and it applies identically to every
//! optimization scheme because code generation is shared.
//!
//! Hoisting only *partitions* the instruction sequence into a preheader
//! and a body; it never changes the instruction set, so static metrics of
//! `preheader + body` stay equal to the unhoisted block (the §4.3
//! estimator relies on this).

use std::collections::HashSet;

use slp_ir::{Dest, LoopHeader, Program, VarId};

use crate::code::{SplatSrc, VInst, VReg};
use crate::regalloc::uses_of;

/// Splits `insts` into `(preheader, body)`: the preheader holds the
/// hoistable materializations, in their original relative order.
///
/// `innermost` is the loop the block sits in (`None` means top-level code
/// — nothing to hoist out of).
pub(crate) fn hoist_invariant_packs(
    insts: Vec<VInst>,
    program: &Program,
    innermost: Option<&LoopHeader>,
) -> (Vec<VInst>, Vec<VInst>) {
    let Some(loop_header) = innermost else {
        return (Vec::new(), insts);
    };

    // Scalars written anywhere in the program cannot be assumed stable
    // across iterations (a sibling block inside the same loop might write
    // them); same for arrays.
    let mut written_scalars: HashSet<VarId> = HashSet::new();
    program.for_each_stmt(|s| {
        if let Dest::Scalar(v) = s.dest() {
            written_scalars.insert(*v);
        }
    });

    let invariant_inst = |inst: &VInst| -> bool {
        match inst {
            VInst::ConstVec { .. } => true,
            VInst::Splat { src, .. } => match src {
                SplatSrc::Const(_) => true,
                SplatSrc::Scalar { var, .. } => !written_scalars.contains(var),
            },
            VInst::Load { refs, .. } => refs.iter().all(|r| {
                program.array_is_read_only(r.array)
                    && r.access
                        .dims()
                        .iter()
                        .all(|e| e.coeff(loop_header.var) == 0)
            }),
            VInst::PackScalars { vars, .. } => vars.iter().all(|v| !written_scalars.contains(v)),
            _ => false,
        }
    };

    // A hoisted instruction's register must not be clobbered in the body.
    // Codegen emits SSA-style (each register defined once), so hoisting
    // the defining instruction is enough; but permuted-reuse rewrites may
    // read hoisted registers, which is fine.
    let mut preheader = Vec::new();
    let mut body = Vec::new();
    let mut hoisted_regs: HashSet<VReg> = HashSet::new();
    for inst in insts {
        let hoistable = invariant_inst(&inst)
            // Inputs produced in the body cannot be consumed earlier.
            && uses_of(&inst).iter().all(|r| hoisted_regs.contains(r));
        if hoistable {
            if let Some(d) = crate::regalloc::def_of(&inst) {
                hoisted_regs.insert(d);
            }
            preheader.push(inst);
        } else {
            body.push(inst);
        }
    }
    (preheader, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::AccessClass;
    use slp_ir::{AccessVector, AffineExpr, ArrayRef, Expr, ScalarType};

    fn setup() -> (Program, LoopHeader) {
        let mut p = Program::new("t");
        let _a = p.add_array("A", ScalarType::F64, vec![64], true); // read-only
        let b = p.add_array("B", ScalarType::F64, vec![64], true); // written below
        let s = p.add_scalar("alpha", ScalarType::F64); // never written
        let t = p.add_scalar("t", ScalarType::F64); // written below
        let i = p.add_loop_var("i");
        let j = p.add_loop_var("j");
        let _ = s;
        let stmt = p.make_stmt(
            ArrayRef::new(b, AccessVector::new(vec![AffineExpr::var(i)])).into(),
            Expr::Copy(1.0.into()),
        );
        let stmt2 = p.make_stmt(t.into(), Expr::Copy(2.0.into()));
        p.push_item(slp_ir::Item::Stmt(stmt));
        p.push_item(slp_ir::Item::Stmt(stmt2));
        let header = LoopHeader {
            var: i,
            lower: 0,
            upper: 8,
            step: 1,
        };
        let _ = j;
        (p, header)
    }

    fn splat_const(dst: u32) -> VInst {
        VInst::Splat {
            dst: VReg(dst),
            src: SplatSrc::Const(2.0),
            width: 2,
        }
    }

    #[test]
    fn const_and_parameter_splats_hoist() {
        let (p, h) = setup();
        let insts = vec![
            splat_const(0),
            VInst::Splat {
                dst: VReg(1),
                src: SplatSrc::Scalar {
                    var: VarId::new(0), // alpha: never written
                    from_memory: true,
                },
                width: 2,
            },
            VInst::Splat {
                dst: VReg(2),
                src: SplatSrc::Scalar {
                    var: VarId::new(1), // t: written in the program
                    from_memory: false,
                },
                width: 2,
            },
        ];
        let (pre, body) = hoist_invariant_packs(insts, &p, Some(&h));
        assert_eq!(pre.len(), 2);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn invariant_loads_hoist_only_from_read_only_arrays() {
        let (p, h) = setup();
        let load = |array: u32, coeff: i64| VInst::Load {
            dst: VReg(0),
            refs: vec![ArrayRef::new(
                slp_ir::ArrayId::new(array),
                AccessVector::new(vec![
                    AffineExpr::var(slp_ir::LoopVarId::new(1)).scaled(coeff)
                ]),
            )],
            class: AccessClass::Aligned,
        };
        // A (read-only) indexed by the *outer* var j: hoists out of i.
        let (pre, body) = hoist_invariant_packs(vec![load(0, 2)], &p, Some(&h));
        assert_eq!((pre.len(), body.len()), (1, 0));
        // B is written in the program: stays.
        let (pre, body) = hoist_invariant_packs(vec![load(1, 2)], &p, Some(&h));
        assert_eq!((pre.len(), body.len()), (0, 1));
    }

    #[test]
    fn loads_using_the_innermost_var_stay() {
        let (p, h) = setup();
        let load = VInst::Load {
            dst: VReg(0),
            refs: vec![ArrayRef::new(
                slp_ir::ArrayId::new(0),
                AccessVector::new(vec![AffineExpr::var(h.var).scaled(2)]),
            )],
            class: AccessClass::Aligned,
        };
        let (pre, body) = hoist_invariant_packs(vec![load], &p, Some(&h));
        assert_eq!((pre.len(), body.len()), (0, 1));
    }

    #[test]
    fn top_level_blocks_hoist_nothing() {
        let (p, _) = setup();
        let (pre, body) = hoist_invariant_packs(vec![splat_const(0)], &p, None);
        assert!(pre.is_empty());
        assert_eq!(body.len(), 1);
    }
}
