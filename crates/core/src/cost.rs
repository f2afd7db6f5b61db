//! The §4.3 static cost model.
//!
//! "We employ a similar cost model used in [16] to estimate the potential
//! speed-ups brought by the transformed code, taking into account all the
//! important factors, e.g., the number of SIMD instructions, the number of
//! memory operations and the number of vector register
//! reshuffling/permutation instructions."
//!
//! [`estimate_schedule_cost`] walks a block schedule with the same
//! register-resident pack tracking the `slp-vm` code generator uses and
//! sums per-instruction cycle estimates. The pipeline uses it to arbitrate
//! between grouping proposals ("if we realize that our transformation
//! could potentially degrade the performance, we choose not to apply it"),
//! and `slp-vm` re-applies the identical logic as its final gate — a
//! cross-crate consistency test keeps the two in sync.

use slp_analysis::{sorted, BlockIndex, Loc, PackPos};
use slp_ir::{
    pack_is_aligned_in, pack_is_contiguous, ArrayRef, BasicBlock, Dest, LoopHeader, Operand,
    Program, Statement, VarId,
};

use crate::machine::{op_cost_factor, CostParams};
use crate::superword::{BlockSchedule, ScheduledItem};

/// Cost-model context for one basic block.
#[derive(Debug, Clone, Copy)]
pub struct CostContext<'a> {
    /// The program the block belongs to.
    pub program: &'a Program,
    /// The block's enclosing loop nest (for step-aware alignment).
    pub loops: &'a [LoopHeader],
    /// Upward-exposed (memory-resident) scalars.
    pub exposed: &'a [bool],
    /// The machine's cycle costs.
    pub cost: &'a CostParams,
    /// Vector register file size (pack-reuse window).
    pub vector_regs: usize,
    /// Whether the §5 data layout stage will run afterwards. When set,
    /// read-only strided array packs are costed as if replication had
    /// already turned them into aligned vector loads, and all-exposed
    /// scalar packs as if §5.1 had placed them contiguously — so the
    /// proposal arbitration does not shy away from the gather-heavy,
    /// reuse-rich groupings the layout stage is designed to fix.
    pub assume_layout: bool,
}

/// Estimated per-execution cycles of the scalar (unvectorized) block.
pub fn estimate_scalar_cost(block: &BasicBlock, cx: &CostContext<'_>) -> f64 {
    block.iter().map(|s| scalar_stmt_cost(s, cx)).sum()
}

/// The ordered packs believed register-resident, oldest first, as
/// [`BlockIndex`] operand keys.
type Regs = Vec<Vec<u32>>;

/// Estimated per-execution cycles of `schedule` for the block indexed by
/// `ix`, mirroring the `slp-vm` code generator's emission decisions (pack
/// reuse, permuted reuse, memory access classes, scalar pack shuffles,
/// lane sinks).
pub fn estimate_schedule_cost(
    ix: &BlockIndex<'_>,
    schedule: &BlockSchedule,
    cx: &CostContext<'_>,
) -> f64 {
    let mut regs: Regs = Vec::new();
    let mut total = 0.0;
    let items = schedule.items();
    for (idx, item) in items.iter().enumerate() {
        match item {
            ScheduledItem::Single(id) => {
                let p = ix.position(*id);
                total += scalar_stmt_cost(ix.stmt_at(p), cx);
                invalidate(&mut regs, ix, ix.key(p, PackPos::Dest));
            }
            ScheduledItem::Superword(sw) => {
                let lanes: Vec<usize> = sw.lanes().iter().map(|&id| ix.position(id)).collect();
                let expr = ix.stmt_at(lanes[0]).expr();
                // Source packs.
                for k in 0..expr.arity() {
                    let keys = ix.keys(&lanes, PackPos::Operand(k));
                    total += materialize_cost(ix, keys, &mut regs, cx);
                }
                // The SIMD op.
                total += op_cost_factor(expr.shape()) * cx.cost.simd_op;
                // Destination write-back.
                let dest_keys = ix.keys(&lanes, PackPos::Dest);
                for &key in &dest_keys {
                    invalidate(&mut regs, ix, key);
                }
                total += dest_cost(ix, &dest_keys, &items[idx + 1..], cx);
                register(&mut regs, dest_keys, cx.vector_regs);
            }
        }
    }
    total
}

/// Estimated cycles of executing one statement as a scalar statement:
/// exposed-operand loads, the (possibly exposed) destination store, and
/// the shape-weighted ALU op. Public so the `slp-opt` branch-and-bound
/// solver can build admissible per-statement lower bounds from the same
/// tables the schedule estimator uses.
pub fn scalar_stmt_cost(stmt: &Statement, cx: &CostContext<'_>) -> f64 {
    let loads = stmt
        .uses()
        .iter()
        .filter(|o| match o {
            Operand::Array(_) => true,
            Operand::Scalar(v) => cx.exposed[v.index()],
            Operand::Const(_) => false,
        })
        .count() as f64;
    let stores = match stmt.dest() {
        Dest::Array(_) => 1.0,
        Dest::Scalar(v) => f64::from(u8::from(cx.exposed[v.index()])),
    };
    loads * cx.cost.scalar_load
        + stores * cx.cost.scalar_store
        + op_cost_factor(stmt.expr().shape()) * cx.cost.scalar_op
}

fn materialize_cost(
    ix: &BlockIndex<'_>,
    keys: Vec<u32>,
    regs: &mut Regs,
    cx: &CostContext<'_>,
) -> f64 {
    let locs: Vec<Loc<'_>> = keys.iter().map(|&k| ix.loc(k)).collect();
    // Constant packs. Uniformity is numeric (`0.0 == -0.0`), not by key.
    if let Loc::Const(first) = locs[0] {
        if locs.iter().all(|l| matches!(l, Loc::Const(_))) {
            let uniform = locs
                .iter()
                .all(|l| matches!(l, Loc::Const(c) if f64::from_bits(*c) == f64::from_bits(first)));
            return if uniform {
                cx.cost.insert
            } else {
                cx.cost.vector_load
            };
        }
    }
    if regs.contains(&keys) {
        return 0.0; // direct reuse
    }
    let content = sorted(&keys);
    let cost = if regs.iter().any(|k| sorted(k) == content) {
        cx.cost.permute // permuted reuse: register the new ordering
    } else {
        pack_cost(&locs, cx, true)
    };
    register(regs, keys, cx.vector_regs);
    cost
}

/// Memory/shuffle cost of assembling (`is_load`) or scattering a pack.
fn pack_cost(locs: &[Loc<'_>], cx: &CostContext<'_>, is_load: bool) -> f64 {
    let w = locs.len() as f64;
    let pick = |load: f64, store: f64| if is_load { load } else { store };
    match locs[0] {
        Loc::Array(_) => {
            let refs: Vec<&ArrayRef> = locs.iter().filter_map(|l| l.as_array()).collect();
            if refs.len() == locs.len() && pack_is_contiguous(&refs) {
                if pack_is_aligned_in(&refs, cx.program, cx.loops) {
                    pick(cx.cost.vector_load, cx.cost.vector_store)
                } else {
                    pick(cx.cost.unaligned_load, cx.cost.unaligned_store)
                }
            } else if is_load {
                // Mirror the §5.2 replication gate: profitable only for
                // intra-array read-only packs re-swept by an enclosing
                // loop the subscripts do not use (outer-loop reuse pays
                // for the one-time copy).
                let replicable = cx.assume_layout
                    && refs.len() == locs.len()
                    && refs.iter().all(|r| r.array == refs[0].array)
                    && cx.program.array_is_read_only(refs[0].array)
                    && cx.loops.iter().any(|h| {
                        refs.iter()
                            .all(|r| r.access.dims().iter().all(|e| e.coeff(h.var) == 0))
                    });
                if replicable {
                    cx.cost.vector_load
                } else {
                    w * (cx.cost.scalar_load + cx.cost.insert)
                }
            } else {
                w * (cx.cost.extract + cx.cost.scalar_store)
            }
        }
        Loc::Scalar(v0) => {
            // Splat?
            if locs.iter().all(|&l| l == Loc::Scalar(v0)) {
                return cx.cost.insert
                    + if cx.exposed[v0.index()] {
                        cx.cost.scalar_load
                    } else {
                        0.0
                    };
            }
            let mem = locs
                .iter()
                .filter(|l| matches!(l, Loc::Scalar(v) if cx.exposed[v.index()]))
                .count() as f64;
            if cx.assume_layout && mem == w {
                // §5.1 will place an all-exposed pack contiguously.
                return pick(cx.cost.vector_load, cx.cost.vector_store);
            }
            w * cx.cost.insert + mem * cx.cost.scalar_load
        }
        // Invariant: materialize_cost early-returns on all-const packs, and
        // packs are operand-kind homogeneous, so no Const reaches here.
        Loc::Const(_) => unreachable!("const packs handled by caller"),
    }
}

fn dest_cost(
    ix: &BlockIndex<'_>,
    dest_keys: &[u32],
    rest: &[ScheduledItem],
    cx: &CostContext<'_>,
) -> f64 {
    let locs: Vec<Loc<'_>> = dest_keys.iter().map(|&k| ix.loc(k)).collect();
    match locs[0] {
        Loc::Array(_) => pack_cost(&locs, cx, false),
        _ => {
            let mut total = 0.0;
            for loc in locs {
                let Loc::Scalar(v) = loc else {
                    // Invariant: superwords pack isomorphic statements, so
                    // every lane's dest matches the first's (Scalar here).
                    unreachable!("isomorphic dests")
                };
                if cx.exposed[v.index()] {
                    total += cx.cost.extract + cx.cost.scalar_store;
                } else if scalar_read_by_later_single(v, ix, rest) {
                    total += cx.cost.extract;
                }
            }
            total
        }
    }
}

/// Whether scalar `v` is read by a later single of this block's schedule
/// before being redefined.
fn scalar_read_by_later_single(v: VarId, ix: &BlockIndex<'_>, rest: &[ScheduledItem]) -> bool {
    for item in rest {
        let ScheduledItem::Single(id) = item else {
            continue;
        };
        let stmt = ix.stmt_at(ix.position(*id));
        if stmt.uses().iter().any(|o| o.as_scalar() == Some(v)) {
            return true;
        }
        if matches!(stmt.dest(), Dest::Scalar(w) if *w == v) {
            return false;
        }
    }
    false
}

fn register(regs: &mut Regs, keys: Vec<u32>, cap: usize) {
    regs.retain(|k| *k != keys);
    regs.push(keys);
    if regs.len() > cap {
        regs.remove(0);
    }
}

fn invalidate(regs: &mut Regs, ix: &BlockIndex<'_>, written: u32) {
    regs.retain(|keys| !keys.iter().any(|&k| ix.overlaps(written, k)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_block;
    use crate::schedule::{schedule_block, ScheduleConfig};
    use slp_ir::BlockDeps;

    fn context<'a>(
        program: &'a Program,
        loops: &'a [LoopHeader],
        exposed: &'a [bool],
        cost: &'a CostParams,
    ) -> CostContext<'a> {
        CostContext {
            program,
            loops,
            exposed,
            cost,
            vector_regs: 16,
            assume_layout: false,
        }
    }

    fn compile_block(src: &str) -> (Program, slp_ir::BlockInfo, BlockSchedule) {
        let p = slp_lang::compile(src).unwrap();
        let info = p.blocks().into_iter().next().unwrap();
        let deps = BlockDeps::analyze(&info.block);
        let ix = BlockIndex::new(&info.block, &p, |_| 2);
        let g = group_block(&ix, &deps);
        let sched = schedule_block(&ix, &deps, &g.units, &ScheduleConfig::default());
        (p, info, sched)
    }

    #[test]
    fn vector_beats_scalar_on_contiguous_streams() {
        let (p, info, sched) = compile_block(
            "kernel k { array A: f64[64]; array B: f64[64];
             for i in 0..16 { A[2*i] = B[2*i] * 2.0; A[2*i+1] = B[2*i+1] * 2.0; } }",
        );
        let exposed = p.upward_exposed_scalars();
        let cost = CostParams::intel();
        let cx = context(&p, &info.loops, &exposed, &cost);
        let sc = estimate_scalar_cost(&info.block, &cx);
        let vc = estimate_schedule_cost(&BlockIndex::new(&info.block, &p, |_| 2), &sched, &cx);
        assert!(vc < sc, "vector {vc} vs scalar {sc}");
    }

    #[test]
    fn scalar_schedule_costs_equal_scalar_estimate() {
        let (p, info, _) = compile_block(
            "kernel k { array A: f64[64]; scalar t: f64;
             for i in 0..16 { t = A[2*i]; A[2*i+1] = t * 2.0; } }",
        );
        let exposed = p.upward_exposed_scalars();
        let cost = CostParams::intel();
        let cx = context(&p, &info.loops, &exposed, &cost);
        let scalar_sched = BlockSchedule::scalar(&info.block);
        assert_eq!(
            estimate_schedule_cost(&BlockIndex::new(&info.block, &p, |_| 2), &scalar_sched, &cx),
            estimate_scalar_cost(&info.block, &cx)
        );
    }

    #[test]
    fn reuse_makes_second_use_free() {
        // Two groups reading the same B pack: the estimator must charge
        // the load once.
        let (p, info, sched) = compile_block(
            "kernel k { array A: f64[64]; array B: f64[64]; array C: f64[64];
             for i in 0..16 {
                 A[2*i] = B[2*i] * 2.0;
                 A[2*i+1] = B[2*i+1] * 2.0;
                 C[2*i] = B[2*i] + 1.0;
                 C[2*i+1] = B[2*i+1] + 1.0;
             } }",
        );
        let exposed = p.upward_exposed_scalars();
        let cost = CostParams::intel();
        let cx = context(&p, &info.loops, &exposed, &cost);
        let vc = estimate_schedule_cost(&BlockIndex::new(&info.block, &p, |_| 2), &sched, &cx);
        // One B load + two aligned stores + two ops + splat-ish consts.
        // Well under the cost of loading B twice.
        assert!(vc < 2.0 * cost.vector_load + 2.0 * cost.vector_store + 8.0);
    }
}
