//! Loop unrolling, the main pre-processing transformation.
//!
//! "For loop-intensive applications, loop unrolling can be used to reveal
//! more opportunities for short SIMD operations and to fully utilize the
//! superword datapath available in the underlying architecture" (§3). Both
//! the paper's framework and its reimplementation of the baseline SLP
//! algorithm use the *same* pre-processing, so this pass is shared by every
//! optimizer in `slp-core`.
//!
//! Unrolling an innermost loop by factor `u` replicates the body `u` times,
//! substituting `i ↦ i + k` into affine subscripts of replica `k`, renames
//! privatizable scalars (those written before read within the body) per
//! replica to avoid false dependences, and multiplies the loop step by `u`.
//! A remainder loop is emitted when the trip count is not divisible.

use std::collections::HashMap;

use crate::affine::AffineExpr;
use crate::expr::{Dest, Expr, Operand};
use crate::ids::VarId;
use crate::program::{Item, Loop, Program};
use crate::stmt::Statement;

/// Unrolls every innermost loop of `program` by `factor`.
///
/// Loops whose step is not 1, loops with fewer than `factor` iterations and
/// non-innermost loops are left untouched. Returns the number of loops that
/// were unrolled.
///
/// # Examples
///
/// ```
/// use slp_ir::{Program, ScalarType, Expr, BinOp, ArrayRef, AccessVector, AffineExpr};
/// use slp_ir::{Item, Loop, LoopHeader};
///
/// let mut p = Program::new("k");
/// let a = p.add_array("A", ScalarType::F64, vec![64], true);
/// let i = p.add_loop_var("i");
/// let s = p.make_stmt(
///     ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)])).into(),
///     Expr::Copy(1.0.into()),
/// );
/// p.push_item(Item::Loop(Loop {
///     header: LoopHeader { var: i, lower: 0, upper: 64, step: 1 },
///     body: vec![Item::Stmt(s)],
/// }));
/// assert_eq!(slp_ir::unroll_program(&mut p, 4), 1);
/// // The unrolled body now exposes four statements to the SLP optimizer.
/// assert_eq!(p.blocks()[0].block.len(), 4);
/// ```
pub fn unroll_program(program: &mut Program, factor: usize) -> usize {
    if factor < 2 {
        return 0;
    }
    let mut items = std::mem::take(program.items_mut());
    // Whole-program scalar read counts (pre-transformation): a privatized
    // scalar that is also read outside its loop is live-out and needs a
    // copy-back from the last replica.
    let mut total_reads = HashMap::new();
    count_scalar_reads(&items, &mut total_reads);
    let mut count = 0;
    unroll_items(&mut items, factor, program, &total_reads, &mut count);
    *program.items_mut() = items;
    count
}

fn count_scalar_reads(items: &[Item], counts: &mut HashMap<VarId, usize>) {
    for item in items {
        match item {
            Item::Stmt(s) => {
                for u in s.uses() {
                    if let Operand::Scalar(v) = u {
                        *counts.entry(*v).or_insert(0) += 1;
                    }
                }
            }
            Item::Loop(l) => count_scalar_reads(&l.body, counts),
        }
    }
}

/// The scalars [`unroll_program`] privatizes without a copy-back:
/// defined before any use in an innermost loop body and read nowhere
/// outside it. Each is a dead temporary whose final value legitimately
/// differs once its loop is unrolled; the criterion holds whether or not
/// the loop is long enough to be unrolled.
pub fn loop_local_scalars(program: &Program) -> Vec<VarId> {
    fn walk(items: &[Item], total_reads: &HashMap<VarId, usize>, out: &mut Vec<VarId>) {
        for item in items {
            let Item::Loop(l) = item else { continue };
            if !l.is_innermost() {
                walk(&l.body, total_reads, out);
                continue;
            }
            let private = private_scalars(l, total_reads).into_iter();
            out.extend(private.filter(|&(_, live_out)| !live_out).map(|(v, _)| v));
        }
    }
    let mut total_reads = HashMap::new();
    count_scalar_reads(program.items(), &mut total_reads);
    let mut out = Vec::new();
    walk(program.items(), &total_reads, &mut out);
    out
}

fn unroll_items(
    items: &mut Vec<Item>,
    factor: usize,
    program: &mut Program,
    total_reads: &HashMap<VarId, usize>,
    count: &mut usize,
) {
    let mut idx = 0;
    while idx < items.len() {
        if let Item::Loop(l) = &mut items[idx] {
            if l.is_innermost() {
                if let Some(replacement) = unroll_loop(l, factor, program, total_reads) {
                    let n = replacement.len();
                    items.splice(idx..=idx, replacement);
                    *count += 1;
                    idx += n;
                    continue;
                }
            } else {
                unroll_items(&mut l.body, factor, program, total_reads, count);
            }
        }
        idx += 1;
    }
}

/// The scalars of innermost loop `l` that are defined before any use, and
/// may therefore be renamed per unroll replica (privatization), each with
/// whether it is live-out: read outside `l`, given whole-program read
/// counts `total_reads`.
fn private_scalars(l: &Loop, total_reads: &HashMap<VarId, usize>) -> Vec<(VarId, bool)> {
    let mut seen_use: Vec<VarId> = Vec::new();
    let mut defined_first: Vec<VarId> = Vec::new();
    for item in &l.body {
        let Item::Stmt(s) = item else { continue };
        for u in s.uses() {
            if let Operand::Scalar(v) = u {
                if !defined_first.contains(v) && !seen_use.contains(v) {
                    seen_use.push(*v);
                }
            }
        }
        if let Dest::Scalar(v) = s.dest() {
            if !seen_use.contains(v) && !defined_first.contains(v) {
                defined_first.push(*v);
            }
        }
    }
    let mut body_reads = HashMap::new();
    count_scalar_reads(&l.body, &mut body_reads);
    let reads = |counts: &HashMap<VarId, usize>, v| counts.get(&v).copied().unwrap_or(0);
    let live_out = |v| reads(total_reads, v) > reads(&body_reads, v);
    defined_first
        .into_iter()
        .map(|v| (v, live_out(v)))
        .collect()
}

/// Unrolls one innermost loop. Returns the replacement item sequence (the
/// unrolled main loop, copy-backs for live-out privatized scalars, plus a
/// remainder loop when the trip count is not divisible by `factor`), or
/// `None` when the loop is left untouched.
fn unroll_loop(
    l: &Loop,
    factor: usize,
    program: &mut Program,
    total_reads: &HashMap<VarId, usize>,
) -> Option<Vec<Item>> {
    let h = l.header;
    if h.step != 1 {
        return None;
    }
    let trip = h.trip_count();
    if trip < factor as i64 {
        return None;
    }
    let body: Vec<Statement> = l
        .body
        .iter()
        .map(|it| match it {
            Item::Stmt(s) => s.clone(),
            Item::Loop(_) => unreachable!("innermost loop"),
        })
        .collect();

    let private = private_scalars(l, total_reads);
    let main_trips = trip / factor as i64;
    let main_upper = h.lower + main_trips * factor as i64;

    let mut new_body = Vec::with_capacity(body.len() * factor);
    let mut last_renames: HashMap<VarId, VarId> = HashMap::new();
    for k in 0..factor {
        // Rename privatizable scalars in replicas 1..factor.
        let renames: HashMap<VarId, VarId> = if k == 0 {
            HashMap::new()
        } else {
            private
                .iter()
                .map(|&(v, _)| {
                    let name = format!("{}.u{}", program.scalar(v).name, k);
                    let ty = program.scalar(v).ty;
                    (v, program.add_scalar(name, ty))
                })
                .collect()
        };
        if k == factor - 1 {
            last_renames = renames.clone();
        }
        let shift = AffineExpr::var(h.var).offset(k as i64);
        for s in &body {
            let id = program.fresh_stmt_id();
            let mut dest = s.dest().clone();
            rewrite_dest(&mut dest, h, &shift, &renames);
            let mut expr = s.expr().clone();
            for op in expr.operands_mut() {
                rewrite_operand(op, h, &shift, &renames);
            }
            new_body.push(Item::Stmt(Statement::new(id, dest, expr)));
        }
    }

    let main = Loop {
        header: crate::program::LoopHeader {
            var: h.var,
            lower: h.lower,
            upper: main_upper,
            step: factor as i64,
        },
        body: new_body,
    };

    // Privatization renames the scalar's final definition into the last
    // replica's copy, so a scalar that is read after the loop (live-out)
    // must be copied back to its original name. The copy-backs precede the
    // remainder loop: the remainder re-defines the scalar itself, matching
    // the original last-iteration-wins semantics.
    let mut out = vec![Item::Loop(main)];
    for &(v, live_out) in &private {
        if live_out {
            if let Some(&last) = last_renames.get(&v) {
                let id = program.fresh_stmt_id();
                out.push(Item::Stmt(Statement::new(
                    id,
                    Dest::Scalar(v),
                    Expr::Copy(Operand::Scalar(last)),
                )));
            }
        }
    }

    if main_upper == h.upper {
        return Some(out);
    }
    // Remainder loop with fresh statement ids.
    let mut rem_body = Vec::with_capacity(body.len());
    for s in &body {
        let id = program.fresh_stmt_id();
        rem_body.push(Item::Stmt(Statement::new(
            id,
            s.dest().clone(),
            s.expr().clone(),
        )));
    }
    let rem = Loop {
        header: crate::program::LoopHeader {
            var: h.var,
            lower: main_upper,
            upper: h.upper,
            step: 1,
        },
        body: rem_body,
    };
    out.push(Item::Loop(rem));
    Some(out)
}

fn rewrite_dest(
    dest: &mut Dest,
    h: crate::program::LoopHeader,
    shift: &AffineExpr,
    renames: &HashMap<VarId, VarId>,
) {
    match dest {
        Dest::Scalar(v) => {
            if let Some(&nv) = renames.get(v) {
                *v = nv;
            }
        }
        Dest::Array(r) => {
            r.access = r.access.substitute(h.var, shift);
        }
    }
}

fn rewrite_operand(
    op: &mut Operand,
    h: crate::program::LoopHeader,
    shift: &AffineExpr,
    renames: &HashMap<VarId, VarId>,
) {
    match op {
        Operand::Scalar(v) => {
            if let Some(&nv) = renames.get(v) {
                *v = nv;
            }
        }
        Operand::Array(r) => {
            r.access = r.access.substitute(h.var, shift);
        }
        Operand::Const(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AccessVector;
    use crate::expr::{ArrayRef, BinOp, Expr};
    use crate::program::LoopHeader;
    use crate::types::ScalarType;

    /// for i in 0..n { t = A[i]; A[i] = t * 2 }
    fn make_loop_program(n: i64) -> Program {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![n.max(1)], true);
        let t = p.add_scalar("t", ScalarType::F64);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s1 = p.make_stmt(t.into(), Expr::Copy(r.clone().into()));
        let s2 = p.make_stmt(
            r.clone().into(),
            Expr::Binary(BinOp::Mul, t.into(), 2.0.into()),
        );
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: n,
                step: 1,
            },
            body: vec![Item::Stmt(s1), Item::Stmt(s2)],
        }));
        p
    }

    #[test]
    fn unroll_divisible_trip() {
        let mut p = make_loop_program(8);
        assert_eq!(unroll_program(&mut p, 4), 1);
        let blocks = p.blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].block.len(), 8);
        let h = blocks[0].loops.last().unwrap();
        assert_eq!(h.step, 4);
        assert_eq!(h.upper, 8);
    }

    #[test]
    fn unrolled_subscripts_are_shifted() {
        let mut p = make_loop_program(8);
        unroll_program(&mut p, 2);
        let blocks = p.blocks();
        let stmts = blocks[0].block.stmts();
        // Replica 1's array refs read A[i+1].
        let second_load = &stmts[2];
        let uses = second_load.uses();
        let r = uses[0].as_array().unwrap();
        assert_eq!(r.access.dim(0).constant(), 1);
    }

    #[test]
    fn privatizable_scalar_renamed_per_replica() {
        let mut p = make_loop_program(8);
        unroll_program(&mut p, 4);
        let blocks = p.blocks();
        let stmts = blocks[0].block.stmts();
        // Four distinct destinations for the four `t = A[i+k]` statements.
        let mut dests = Vec::new();
        for k in 0..4 {
            match stmts[2 * k].dest() {
                Dest::Scalar(v) => dests.push(*v),
                _ => panic!("expected scalar dest"),
            }
        }
        dests.sort();
        dests.dedup();
        assert_eq!(dests.len(), 4, "each replica must get a private t");
        // And the block is now fully parallel across replicas.
        let d = crate::deps::BlockDeps::analyze(&blocks[0].block);
        assert!(d.independent(stmts[0].id(), stmts[2].id()));
    }

    #[test]
    fn remainder_loop_emitted() {
        let mut p = make_loop_program(10);
        assert_eq!(unroll_program(&mut p, 4), 1);
        let blocks = p.blocks();
        assert_eq!(blocks.len(), 2, "main + remainder blocks");
        assert_eq!(blocks[0].block.len(), 8);
        assert_eq!(blocks[1].block.len(), 2);
        let main = blocks[0].loops.last().unwrap();
        let rem = blocks[1].loops.last().unwrap();
        assert_eq!((main.lower, main.upper, main.step), (0, 8, 4));
        assert_eq!((rem.lower, rem.upper, rem.step), (8, 10, 1));
    }

    #[test]
    fn short_loops_left_alone() {
        let mut p = make_loop_program(2);
        assert_eq!(unroll_program(&mut p, 4), 0);
        assert_eq!(p.blocks()[0].block.len(), 2);
    }

    #[test]
    fn factor_one_is_noop() {
        let mut p = make_loop_program(8);
        assert_eq!(unroll_program(&mut p, 1), 0);
    }

    #[test]
    fn stmt_ids_remain_unique_after_unrolling() {
        let mut p = make_loop_program(10);
        unroll_program(&mut p, 4);
        let mut ids = Vec::new();
        p.for_each_stmt(|s| ids.push(s.id()));
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn live_out_privatized_scalar_copied_back() {
        // for i in 0..8 { t = A[i]; A[i] = t * 2; }  B[0] = t;
        // After unrolling, t's final definition lives in replica 3
        // (`t.u3`), so a copy-back must restore t before the read.
        let mut p = Program::new("liveout");
        let a = p.add_array("A", ScalarType::F64, vec![8], true);
        let b = p.add_array("B", ScalarType::F64, vec![1], true);
        let t = p.add_scalar("t", ScalarType::F64);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s1 = p.make_stmt(t.into(), Expr::Copy(r.clone().into()));
        let s2 = p.make_stmt(r.into(), Expr::Binary(BinOp::Mul, t.into(), 2.0.into()));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(s1), Item::Stmt(s2)],
        }));
        let rb = ArrayRef::new(b, AccessVector::new(vec![AffineExpr::constant_expr(0)]));
        let s3 = p.make_stmt(rb.into(), Expr::Copy(t.into()));
        p.push_item(Item::Stmt(s3));
        unroll_program(&mut p, 4);
        let items = p.items();
        assert!(matches!(items[0], Item::Loop(_)));
        let copy = match &items[1] {
            Item::Stmt(s) => s,
            _ => panic!("expected copy-back between loop and trailing read"),
        };
        assert_eq!(copy.dest(), &Dest::Scalar(t));
        match copy.expr() {
            Expr::Copy(Operand::Scalar(v)) => assert_eq!(p.scalar(*v).name, "t.u3"),
            e => panic!("expected scalar copy, got {e:?}"),
        }
    }

    #[test]
    fn loop_local_scalar_gets_no_copy_back() {
        // t is only read inside the loop body; no copy-back statement
        // should perturb the unrolled output.
        let mut p = make_loop_program(8);
        unroll_program(&mut p, 4);
        assert_eq!(p.items().len(), 1, "{:?}", p.items());
    }

    #[test]
    fn reduction_scalar_not_privatized() {
        // for i in 0..8 { acc = acc + A[i] } : acc is used before defined,
        // so all replicas must share it.
        let mut p = Program::new("red");
        let a = p.add_array("A", ScalarType::F64, vec![8], true);
        let acc = p.add_scalar("acc", ScalarType::F64);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s = p.make_stmt(acc.into(), Expr::Binary(BinOp::Add, acc.into(), r.into()));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(s)],
        }));
        unroll_program(&mut p, 4);
        let blocks = p.blocks();
        let stmts = blocks[0].block.stmts();
        let dests: Vec<_> = stmts
            .iter()
            .map(|s| match s.dest() {
                Dest::Scalar(v) => *v,
                _ => unreachable!(),
            })
            .collect();
        assert!(
            dests.iter().all(|&d| d == acc),
            "reduction must stay shared"
        );
    }
}
