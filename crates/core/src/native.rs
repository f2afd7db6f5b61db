//! The "Native" comparator: a deliberately simple vectorizer standing in
//! for the native compiler's SLP support in §7 ("the native
//! compiler-generated version when SLP optimization is enabled").
//!
//! It only vectorizes runs of isomorphic, independent statements whose
//! array references are contiguous in program order and whose scalar
//! operands are uniform (splats) — the classic unrolled-loop pattern a
//! straightforward tree vectorizer recognizes. No reuse analysis, no lane
//! reordering, no scalar packing.

use slp_ir::{BlockDeps, Dest, Operand};

use crate::schedule::schedule_in_program_order;
use crate::superword::BlockSchedule;
use crate::{BlockIndex, Unit};

/// Runs the native-style vectorizer on one block.
pub(crate) fn native_block(ix: &BlockIndex<'_>, deps: &BlockDeps) -> BlockSchedule {
    let stmts = ix.block().stmts();
    let mut units: Vec<Unit> = Vec::new();
    let mut taken = vec![false; stmts.len()];
    for start in 0..stmts.len() {
        if taken[start] {
            continue;
        }
        let cap = ix.lane_cap(start);
        // Greedily grow a contiguous vectorizable chain from `start`: the
        // continuation may appear anywhere later in the block (unrolled
        // bodies interleave the statement families), as long as every
        // array position keeps ascending contiguously.
        let mut members = vec![start];
        while members.len() < cap {
            let found = (members[members.len() - 1] + 1..stmts.len()).find(|&next| {
                if taken[next] {
                    return false;
                }
                let candidate: Vec<usize> = members.iter().copied().chain([next]).collect();
                run_is_vectorizable(ix, &candidate, deps)
            });
            match found {
                Some(next) => members.push(next),
                None => break,
            }
        }
        if members.len() >= 2 {
            let mut unit = Unit::singleton(stmts[members[0]].id());
            for &m in &members[1..] {
                unit = Unit::merged(&unit, &Unit::singleton(stmts[m].id()));
            }
            for &m in &members {
                taken[m] = true;
            }
            units.push(unit);
        }
    }
    for (i, s) in stmts.iter().enumerate() {
        if !taken[i] {
            units.push(Unit::singleton(s.id()));
        }
    }
    schedule_in_program_order(ix, deps, &units)
}

/// Whether the statements at `idx` (in order) form a native-vectorizable
/// run: isomorphic, independent, every array position contiguous-ascending
/// and every scalar/constant position uniform.
fn run_is_vectorizable(ix: &BlockIndex<'_>, idx: &[usize], deps: &BlockDeps) -> bool {
    let stmts = ix.block().stmts();
    let first = &stmts[idx[0]];
    // Independence must hold between *every* pair of lanes, not just
    // neighbours: a ⊥ b and b ⊥ c do not imply a ⊥ c.
    for (i, &a) in idx.iter().enumerate() {
        for &b in &idx[i + 1..] {
            if ix.class(a) != ix.class(b) || deps.reaches(a, b) || deps.reaches(b, a) {
                return false;
            }
        }
    }
    // Destination: all array and contiguous, or all scalar (scalars are
    // allowed — they become an unpacked store, which real vectorizers
    // reject; requiring array dests keeps Native strictly simplest).
    let dests: Vec<&slp_ir::ArrayRef> = idx
        .iter()
        .filter_map(|&i| match stmts[i].dest() {
            Dest::Array(r) => Some(r),
            Dest::Scalar(_) => None,
        })
        .collect();
    if dests.len() != idx.len() || !slp_ir::pack_is_contiguous(&dests) {
        return false;
    }
    for k in 0..first.expr().operands().len() {
        let ops: Vec<&Operand> = idx.iter().map(|&i| stmts[i].expr().operands()[k]).collect();
        let ok = match ops[0] {
            Operand::Array(_) => {
                let refs: Vec<&slp_ir::ArrayRef> =
                    ops.iter().filter_map(|o| o.as_array()).collect();
                refs.len() == ops.len() && slp_ir::pack_is_contiguous(&refs)
            }
            // Uniform scalar or constant: a splat.
            Operand::Scalar(v) => ops.iter().all(|o| o.as_scalar() == Some(*v)),
            Operand::Const(c) => ops.iter().all(|o| matches!(o, Operand::Const(d) if d == c)),
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superword::validate_schedule;
    use slp_ir::{
        AccessVector, AffineExpr, ArrayRef, BasicBlock, BinOp, Expr, Program, ScalarType,
    };

    fn at(p: &Program, arr: slp_ir::ArrayId, i: slp_ir::LoopVarId, c: i64, k: i64) -> ArrayRef {
        let _ = p;
        ArrayRef::new(
            arr,
            AccessVector::new(vec![AffineExpr::var(i).scaled(c).offset(k)]),
        )
    }

    /// A[4i+k] = B[4i+k] * s for k in 0..4 — the classic unrolled body.
    fn contiguous_block() -> (Program, BasicBlock) {
        let mut p = Program::new("contig");
        let a = p.add_array("A", ScalarType::F32, vec![64], true);
        let b = p.add_array("B", ScalarType::F32, vec![64], true);
        let i = p.add_loop_var("i");
        let s = p.add_scalar("s", ScalarType::F32);
        let stmts: Vec<_> = (0..4)
            .map(|k| {
                let d = at(&p, a, i, 4, k);
                let src = at(&p, b, i, 4, k);
                p.make_stmt(d.into(), Expr::Binary(BinOp::Mul, src.into(), s.into()))
            })
            .collect();
        let bb: BasicBlock = stmts.into_iter().collect();
        (p, bb)
    }

    #[test]
    fn vectorizes_contiguous_runs() {
        let (p, bb) = contiguous_block();
        let deps = BlockDeps::analyze(&bb);
        let sched = native_block(&BlockIndex::new(&bb, &p, |_| 4), &deps);
        validate_schedule(&bb, &deps, &sched, &p, |_| 4).unwrap();
        assert_eq!(sched.superword_count(), 1);
        assert_eq!(sched.items()[0].stmts().len(), 4);
    }

    #[test]
    fn rejects_scalar_destinations() {
        // a = A[2i]; b = A[2i+1] — adjacent loads into scalars: baseline
        // SLP takes these, Native does not.
        let mut p = Program::new("sc");
        let arr = p.add_array("A", ScalarType::F64, vec![16], true);
        let i = p.add_loop_var("i");
        let a = p.add_scalar("a", ScalarType::F64);
        let b = p.add_scalar("b", ScalarType::F64);
        let s0 = p.make_stmt(a.into(), Expr::Copy(at(&p, arr, i, 2, 0).into()));
        let s1 = p.make_stmt(b.into(), Expr::Copy(at(&p, arr, i, 2, 1).into()));
        let bb: BasicBlock = [s0, s1].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let sched = native_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        assert_eq!(sched.superword_count(), 0);
    }

    #[test]
    fn rejects_gathered_operands() {
        // A[2i+k] = B[4i+4k] * s: strided source, not contiguous.
        let mut p = Program::new("gather");
        let a = p.add_array("A", ScalarType::F32, vec![64], true);
        let b = p.add_array("B", ScalarType::F32, vec![256], true);
        let i = p.add_loop_var("i");
        let s = p.add_scalar("s", ScalarType::F32);
        let stmts: Vec<_> = (0..2)
            .map(|k| {
                let d = at(&p, a, i, 2, k);
                let src = at(&p, b, i, 4, 4 * k);
                p.make_stmt(d.into(), Expr::Binary(BinOp::Mul, src.into(), s.into()))
            })
            .collect();
        let bb: BasicBlock = stmts.into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let sched = native_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        assert_eq!(sched.superword_count(), 0);
    }

    #[test]
    fn splits_runs_at_lane_cap() {
        let (p, bb) = contiguous_block();
        let deps = BlockDeps::analyze(&bb);
        let sched = native_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        validate_schedule(&bb, &deps, &sched, &p, |_| 2).unwrap();
        assert_eq!(sched.superword_count(), 2);
    }

    #[test]
    fn mixed_scalar_operands_must_be_uniform() {
        // A[2i+k] = B[2i+k] * t_k with different scalars per lane: no splat.
        let mut p = Program::new("nonuniform");
        let a = p.add_array("A", ScalarType::F32, vec![64], true);
        let b = p.add_array("B", ScalarType::F32, vec![64], true);
        let i = p.add_loop_var("i");
        let t0 = p.add_scalar("t0", ScalarType::F32);
        let t1 = p.add_scalar("t1", ScalarType::F32);
        let s0 = {
            let d = at(&p, a, i, 2, 0);
            let src = at(&p, b, i, 2, 0);
            p.make_stmt(d.into(), Expr::Binary(BinOp::Mul, src.into(), t0.into()))
        };
        let s1 = {
            let d = at(&p, a, i, 2, 1);
            let src = at(&p, b, i, 2, 1);
            p.make_stmt(d.into(), Expr::Binary(BinOp::Mul, src.into(), t1.into()))
        };
        let bb: BasicBlock = [s0, s1].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let sched = native_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        assert_eq!(sched.superword_count(), 0);
    }
}
