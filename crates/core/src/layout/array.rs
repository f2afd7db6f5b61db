//! §5.2 — data layout optimization for array reference superwords.
//!
//! A superword like `<A[4i], A[4i+3]>` needs two loads plus shuffling
//! every iteration. Mapping the accessed elements into a fresh array `B`
//! such that lane `p` of iteration `i` lives at `B[L*i + p]` turns the
//! whole pack into one aligned contiguous vector load (paper Figure 14).
//! The general mapping of Eq. (8) reduces, for the strided interleaved
//! target layout, to giving lane `p` the new affine subscript
//! `p + L * Σ_d stride_d · (i_d − lo_d)` over the enclosing loop nest.
//!
//! Two §5.2 restrictions apply verbatim: all lanes must reference the
//! *same* array and that array must be *read-only* (replication duplicates
//! data, so writes could not be kept coherent). In addition, a replication
//! is only committed when its estimated cycle benefit (cheaper packs ×
//! dynamic occurrences) exceeds the one-time copy cost, and when the
//! replicated array stays within a configurable size budget — this is the
//! "the benefit of layout optimization has to outweigh the cost" gate the
//! paper describes.

use std::collections::BTreeMap;

use slp_ir::{
    pack_is_aligned_in, pack_is_contiguous, AccessVector, AffineExpr, ArrayId, ArrayRef,
    LoopHeader, Operand, Program, ScalarType,
};

use slp_analysis::PackPos;

use super::PackUse;
use crate::machine::CostParams;

/// A replication is skipped when the new array would exceed this
/// multiple of the source array's size ("in case the input data sizes
/// ... are too large ... we can skip the layout transformation").
const MAX_REPLICATION_FACTOR: f64 = 16.0;

/// A committed mapping/replication: the VM populates `dest` from `source`
/// before the kernel's loops run.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// The original (read-only) array.
    pub source: ArrayId,
    /// The new interleaved array.
    pub dest: ArrayId,
    /// Original per-lane accesses, in lane order.
    pub lanes: Vec<AccessVector>,
    /// New 1-D subscript per lane (`p + L·Σ stride_d (i_d − lo_d)`).
    pub dest_exprs: Vec<AffineExpr>,
    /// The loop nest to iterate when populating, outermost first.
    pub loops: Vec<LoopHeader>,
}

impl Replication {
    /// Number of element copies the population pass performs.
    pub fn copy_count(&self) -> i64 {
        let trips: i64 = self
            .loops
            .iter()
            .fold(1i64, |acc, h| acc.saturating_mul(h.trip_count()));
        trips.saturating_mul(self.lanes.len() as i64)
    }
}

/// The Eq. (4) mapping for a one-dimensional reference `A[a·i + b]` in a
/// superword of length `l` at lane position `p`: element `d` of `A` maps
/// to `(d − b) / a · l + p` in the new array.
///
/// # Examples
///
/// Figure 14's `<A[4i], A[4i+3]>` (`l = 2`):
///
/// ```
/// use slp_core::eq4_map;
/// // Lane 0 (A[4i]): elements 0,4,8 land at B[0],B[2],B[4].
/// assert_eq!(eq4_map(8, 4, 0, 2, 0), 4);
/// // Lane 1 (A[4i+3]): elements 3,7,11 land at B[1],B[3],B[5].
/// assert_eq!(eq4_map(7, 4, 3, 2, 1), 3);
/// ```
pub fn eq4_map(d: i64, a: i64, b: i64, l: i64, p: i64) -> i64 {
    (d - b) / a * l + p
}

/// Identifies profitable array reference superwords in `uses`, rewrites
/// the participating references in `program` to target fresh interleaved
/// arrays, and returns the replications the runtime must perform. `cost`
/// is the target machine's: the benefit estimate uses its cycle prices.
pub(crate) fn optimize_array_layout(
    program: &mut Program,
    uses: &[PackUse],
    cost: &CostParams,
) -> Vec<Replication> {
    // Aggregate identical packs (same array, lane accesses and nest).
    // Occurrences count once per *block*: repeated uses within one block
    // hit the pack in a vector register (reuse), not memory.
    type Key = (ArrayId, Vec<AccessVector>, Vec<(i64, i64, i64)>);
    let mut agg: BTreeMap<Key, (Vec<&PackUse>, i64, Vec<slp_ir::BlockId>)> = BTreeMap::new();
    for u in uses {
        if u.pos == PackPos::Dest {
            continue; // writes cannot be replicated
        }
        let Some((array, lanes)) = array_pack(u) else {
            continue;
        };
        let loop_key: Vec<(i64, i64, i64)> =
            u.loops.iter().map(|h| (h.lower, h.upper, h.step)).collect();
        let e = agg
            .entry((array, lanes, loop_key))
            .or_insert_with(|| (Vec::new(), 0, Vec::new()));
        if !e.2.contains(&u.block) {
            e.1 += u.dynamic_trips();
            e.2.push(u.block);
        }
        e.0.push(u);
    }

    let mut out = Vec::new();
    for ((array, lanes, _), (pack_uses, occurrences, _)) in agg {
        if !program.array_is_read_only(array) {
            continue;
        }
        let info = program.array(array).clone();
        let loops = pack_uses[0].loops.clone();
        if let Some(r) =
            plan_replication(program, array, &info.ty, &lanes, &loops, occurrences, cost)
        {
            rewrite_uses(program, &pack_uses, &lanes, array, &r);
            out.push(r);
        }
    }
    out
}

/// Extracts `(array, lane accesses)` when every lane of the pack is a
/// distinct reference into one array.
fn array_pack(u: &PackUse) -> Option<(ArrayId, Vec<AccessVector>)> {
    let mut array = None;
    let mut lanes = Vec::with_capacity(u.ops.len());
    for op in &u.ops {
        let r = op.as_array()?;
        match array {
            None => array = Some(r.array),
            Some(a) if a == r.array => {}
            Some(_) => return None, // intra-array references only (§5.2)
        }
        lanes.push(r.access.clone());
    }
    let mut dedup = lanes.clone();
    dedup.sort();
    dedup.dedup();
    if dedup.len() != lanes.len() {
        return None; // splat lanes broadcast instead
    }
    array.map(|a| (a, lanes))
}

/// Builds the replication plan if it is profitable and within budget.
fn plan_replication(
    program: &mut Program,
    source: ArrayId,
    ty: &ScalarType,
    lanes: &[AccessVector],
    loops: &[LoopHeader],
    occurrences: i64,
    c: &CostParams,
) -> Option<Replication> {
    let l = lanes.len() as i64;
    let refs: Vec<ArrayRef> = lanes
        .iter()
        .map(|a| ArrayRef::new(source, a.clone()))
        .collect();
    let ref_ptrs: Vec<&ArrayRef> = refs.iter().collect();

    // Old per-occurrence cost of materializing the pack from memory.
    let old = if pack_is_contiguous(&ref_ptrs) {
        if pack_is_aligned_in(&ref_ptrs, program, &[]) {
            return None; // already optimal
        }
        c.unaligned_load
    } else {
        l as f64 * (c.scalar_load + c.insert)
    };
    let new = c.vector_load;

    // Only the loops the accesses actually index with shape the new
    // array; invariant outer loops re-read the same replicated elements,
    // which is precisely when replication pays off.
    let used: Vec<LoopHeader> = loops
        .iter()
        .filter(|h| {
            lanes
                .iter()
                .any(|a| a.dims().iter().any(|e| e.coeff(h.var) != 0))
        })
        .copied()
        .collect();

    // New array size: lane stride L over the mixed-radix span of the
    // indexing loops.
    let mut span = 1i64;
    for h in &used {
        span = span.saturating_mul(h.upper.saturating_sub(h.lower).max(1));
    }
    let new_len = l.saturating_mul(span);
    let src_len = program.array(source).len().max(1);
    if (new_len as f64) > MAX_REPLICATION_FACTOR * src_len as f64 {
        return None;
    }

    // One-time population cost vs recurring savings.
    let copies: i64 = used
        .iter()
        .fold(1i64, |acc, h| acc.saturating_mul(h.trip_count()))
        .saturating_mul(l);
    let copy_cost = copies as f64 * (c.scalar_load + c.scalar_store);
    let saving = occurrences as f64 * (old - new);
    if saving <= copy_cost {
        return None;
    }

    // Per-lane destination subscripts: p + L·Σ stride_d (i_d − lo_d).
    let mut base = AffineExpr::constant_expr(0);
    let mut stride = l;
    for h in used.iter().rev() {
        base = base.add(
            &AffineExpr::var(h.var)
                .offset(0i64.saturating_sub(h.lower))
                .scaled(stride),
        );
        stride = stride.saturating_mul(h.upper.saturating_sub(h.lower).max(1));
    }
    let dest_exprs: Vec<AffineExpr> = (0..l).map(|p| base.offset(p)).collect();
    let loops = used;

    let name = format!(
        "{}.slp{}",
        program.array(source).name,
        program.arrays().len()
    );
    let dest = program.add_array(name, *ty, vec![new_len], false);
    Some(Replication {
        source,
        dest,
        lanes: lanes.to_vec(),
        dest_exprs,
        loops: loops.to_vec(),
    })
}

/// Rewrites the lane operands of the participating statements to read the
/// new interleaved array.
fn rewrite_uses(
    program: &mut Program,
    pack_uses: &[&PackUse],
    lanes: &[AccessVector],
    source: ArrayId,
    r: &Replication,
) {
    for u in pack_uses {
        let PackPos::Operand(k) = u.pos else { continue };
        for (lane, &stmt_id) in u.stmts.iter().enumerate() {
            let target = &lanes[lane];
            program.for_each_stmt_mut(|s| {
                if s.id() != stmt_id {
                    return;
                }
                if let Some(op) = s.expr_mut().operands_mut().nth(k) {
                    if let Operand::Array(ar) = op {
                        if ar.array == source && &ar.access == target {
                            *op = Operand::Array(ArrayRef::new(
                                r.dest,
                                AccessVector::new(vec![r.dest_exprs[lane].clone()]),
                            ));
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{BlockId, Expr, StmtId};

    /// Builds the Figure 13/14 scenario: a superword <A[4i], A[4i+3]>
    /// read in a loop of `n` iterations, optionally re-read by an
    /// enclosing loop of `outer` iterations that the accesses ignore.
    fn figure14(n: i64, outer: Option<i64>) -> (Program, PackUse) {
        let mut p = Program::new("fig14");
        let a = p.add_array("A", ScalarType::F64, vec![4 * n + 4], true);
        let i = p.add_loop_var("i");
        let (d0, d1) = (
            p.add_scalar("d0", ScalarType::F64),
            p.add_scalar("d1", ScalarType::F64),
        );
        let acc0 = AccessVector::new(vec![AffineExpr::var(i).scaled(4)]);
        let acc3 = AccessVector::new(vec![AffineExpr::var(i).scaled(4).offset(3)]);
        let s0 = p.make_stmt(d0.into(), Expr::Copy(ArrayRef::new(a, acc0.clone()).into()));
        let s1 = p.make_stmt(d1.into(), Expr::Copy(ArrayRef::new(a, acc3.clone()).into()));
        let header = LoopHeader {
            var: i,
            lower: 0,
            upper: n,
            step: 1,
        };
        let inner = slp_ir::Item::Loop(slp_ir::Loop {
            header,
            body: vec![slp_ir::Item::Stmt(s0), slp_ir::Item::Stmt(s1)],
        });
        let mut loops = Vec::new();
        match outer {
            Some(reps) => {
                let t = p.add_loop_var("t");
                let outer_header = LoopHeader {
                    var: t,
                    lower: 0,
                    upper: reps,
                    step: 1,
                };
                loops.push(outer_header);
                p.push_item(slp_ir::Item::Loop(slp_ir::Loop {
                    header: outer_header,
                    body: vec![inner],
                }));
            }
            None => p.push_item(inner),
        }
        loops.push(header);
        let u = PackUse {
            block: BlockId(0),
            stmts: vec![StmtId::new(0), StmtId::new(1)],
            pos: PackPos::Operand(0),
            ops: vec![ArrayRef::new(a, acc0).into(), ArrayRef::new(a, acc3).into()],
            loops,
        };
        (p, u)
    }

    #[test]
    fn figure14_replication_interleaves_lanes() {
        let (mut p, u) = figure14(64, Some(8));
        let reps = optimize_array_layout(&mut p, &[u], &CostParams::intel());
        assert_eq!(reps.len(), 1);
        let r = &reps[0];
        // Lane p reads B[2i + p], matching Eq. (4).
        let i = slp_ir::LoopVarId::new(0);
        assert_eq!(r.dest_exprs[0], AffineExpr::var(i).scaled(2));
        assert_eq!(r.dest_exprs[1], AffineExpr::var(i).scaled(2).offset(1));
        assert_eq!(r.copy_count(), 128);
        // The program's loads were rewritten to the new array.
        let blocks = p.blocks();
        let stmts = blocks[0].block.stmts();
        for s in stmts {
            let r0 = s.uses()[0].as_array().unwrap();
            assert_eq!(r0.array, r.dest);
        }
        // And the rewritten pack is contiguous + aligned.
        let refs: Vec<&ArrayRef> = stmts
            .iter()
            .map(|s| s.uses()[0].as_array().unwrap())
            .collect();
        assert!(pack_is_contiguous(&refs));
        assert!(pack_is_aligned_in(&refs, &p, &[]));
    }

    #[test]
    fn written_arrays_are_not_replicated() {
        let (mut p, u) = figure14(64, Some(8));
        // Add a write to A, making it non-read-only.
        let a = ArrayId::new(0);
        let i = slp_ir::LoopVarId::new(0);
        let w = p.make_stmt(
            ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)])).into(),
            Expr::Copy(1.0.into()),
        );
        p.push_item(slp_ir::Item::Stmt(w));
        let reps = optimize_array_layout(&mut p, &[u], &CostParams::intel());
        assert!(reps.is_empty());
    }

    #[test]
    fn already_contiguous_aligned_packs_are_left_alone() {
        let mut p = Program::new("noop");
        let a = p.add_array("A", ScalarType::F64, vec![64], true);
        let i = p.add_loop_var("i");
        let acc = |c: i64| AccessVector::new(vec![AffineExpr::var(i).scaled(2).offset(c)]);
        let u = PackUse {
            block: BlockId(0),
            stmts: vec![StmtId::new(0), StmtId::new(1)],
            pos: PackPos::Operand(0),
            ops: vec![
                ArrayRef::new(a, acc(0)).into(),
                ArrayRef::new(a, acc(1)).into(),
            ],
            loops: vec![LoopHeader {
                var: i,
                lower: 0,
                upper: 32,
                step: 1,
            }],
        };
        let reps = optimize_array_layout(&mut p, &[u], &CostParams::intel());
        assert!(reps.is_empty());
    }

    #[test]
    fn single_sweep_fails_the_benefit_gate() {
        // Without an enclosing loop each replicated element is read once:
        // the one-time copy costs more than the per-iteration saving.
        let (mut p, u) = figure14(64, None);
        let reps = optimize_array_layout(&mut p, &[u], &CostParams::intel());
        assert!(reps.is_empty());
    }

    #[test]
    fn replication_budget_is_enforced() {
        // <A[i+j], A[i+j+2]> over a 64 x 64 nest, re-swept 64 times: the
        // replica holds 2 * 64 * 64 = 8192 elements. A 512-element source
        // is exactly the 16x budget and is replicated; one element fewer
        // is over it and is not.
        let replications = |source_len: i64| {
            let mut p = Program::new("budget");
            let a = p.add_array("A", ScalarType::F64, vec![source_len], true);
            let header = |var| LoopHeader {
                var,
                lower: 0,
                upper: 64,
                step: 1,
            };
            let loops = ["t", "i", "j"].map(|name| header(p.add_loop_var(name)));
            let (i, j) = (loops[1].var, loops[2].var);
            let lane = |c| {
                let sum = AffineExpr::var(i).add(&AffineExpr::var(j));
                ArrayRef::new(a, AccessVector::new(vec![sum.offset(c)])).into()
            };
            let u = PackUse {
                block: BlockId(0),
                stmts: vec![StmtId::new(0), StmtId::new(1)],
                pos: PackPos::Operand(0),
                ops: vec![lane(0), lane(2)],
                loops: loops.to_vec(),
            };
            optimize_array_layout(&mut p, &[u], &CostParams::intel()).len()
        };
        assert_eq!(replications(512), 1);
        assert_eq!(replications(511), 0);
    }

    #[test]
    fn eq4_matches_figure14_table() {
        // A = [a0 .. a11], L = 2: lane 0 covers 0,4,8 -> 0,2,4; lane 1
        // covers 3,7,11 -> 1,3,5.
        for (idx, (d, want)) in [(0, 0), (4, 2), (8, 4)].iter().enumerate() {
            let _ = idx;
            assert_eq!(eq4_map(*d, 4, 0, 2, 0), *want);
        }
        for (d, want) in [(3, 1), (7, 3), (11, 5)] {
            assert_eq!(eq4_map(d, 4, 3, 2, 1), want);
        }
    }

    #[test]
    fn mixed_array_packs_are_rejected() {
        let (mut p, mut u) = figure14(64, Some(8));
        let b = p.add_array("B", ScalarType::F64, vec![64], true);
        let i = slp_ir::LoopVarId::new(0);
        u.ops[1] = ArrayRef::new(b, AccessVector::new(vec![AffineExpr::var(i)])).into();
        let reps = optimize_array_layout(&mut p, &[u], &CostParams::intel());
        assert!(reps.is_empty());
    }
}
