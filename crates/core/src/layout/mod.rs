//! Data layout optimization (§5): the complementary second stage.
//!
//! Superword statement generation reduces *how often* packing/unpacking
//! happens; this stage reduces *what each remaining mandatory
//! packing/unpacking costs* by reorganizing memory:
//!
//! * [`scalar`] — §5.1: offset-assignment-style placement of scalar
//!   variables so a scalar superword occupies consecutive aligned slots
//!   and moves with one vector memory operation,
//! * [`array`] — §5.2: affine transformation plus mapping/replication of
//!   read-only array references into a new interleaved array, so a
//!   strided gather becomes one aligned contiguous vector load
//!   (paper Figures 13–14, Eq. (1)–(8)).

pub(crate) mod array;
pub(crate) mod scalar;

use slp_ir::{BlockInfo, LoopHeader, Operand, StmtId};

use slp_analysis::PackPos;

use crate::superword::{BlockSchedule, ScheduledItem};

/// One appearance of an ordered superword (pack) in a final schedule,
/// with enough loop context to weigh and rewrite it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PackUse {
    /// The block the pack appears in.
    pub block: slp_ir::BlockId,
    /// Lane statements in lane order.
    pub stmts: Vec<StmtId>,
    /// The operand position the pack occupies.
    pub pos: PackPos,
    /// The lane operands in lane order.
    pub ops: Vec<Operand>,
    /// The enclosing loop nest, outermost first.
    pub loops: Vec<LoopHeader>,
}

impl PackUse {
    /// How many times this pack is touched at run time (product of the
    /// enclosing trip counts).
    pub(crate) fn dynamic_trips(&self) -> i64 {
        self.loops
            .iter()
            .fold(1i64, |acc, h| acc.saturating_mul(h.trip_count()))
    }
}

/// Collects every location pack of every superword statement across the
/// scheduled blocks, in lane order.
pub(crate) fn collect_pack_uses(schedules: &[(BlockInfo, BlockSchedule)]) -> Vec<PackUse> {
    let mut out = Vec::new();
    for (info, sched) in schedules {
        for item in sched.items() {
            let ScheduledItem::Superword(sw) = item else {
                continue;
            };
            let stmts: Vec<_> = sw
                .lanes()
                .iter()
                .map(|&id| info.block.stmt(id).expect("lane in block"))
                .collect();
            // Destination pack.
            let dest_ops: Vec<Operand> = stmts.iter().map(|s| s.def()).collect();
            out.push(PackUse {
                block: info.id,
                stmts: sw.lanes().to_vec(),
                pos: PackPos::Dest,
                ops: dest_ops,
                loops: info.loops.clone(),
            });
            // Source packs.
            for k in 0..stmts[0].expr().arity() {
                let ops: Vec<Operand> = stmts
                    .iter()
                    .map(|s| s.expr().operands()[k].clone())
                    .collect();
                if ops.iter().all(Operand::is_location) {
                    out.push(PackUse {
                        block: info.id,
                        stmts: sw.lanes().to_vec(),
                        pos: PackPos::Operand(k),
                        ops,
                        loops: info.loops.clone(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_block;
    use crate::schedule::schedule_block;
    use slp_ir::{BlockDeps, Program, ScalarType, TypeEnv};

    fn compile_blocks(src: &str) -> (Program, Vec<(BlockInfo, BlockSchedule)>) {
        let mut p = slp_lang::compile(src).unwrap();
        slp_ir::unroll_program(&mut p, 2);
        let mut scheds = Vec::new();
        for info in p.blocks() {
            let deps = BlockDeps::analyze(&info.block);
            let ix = crate::BlockIndex::new(&info.block, &p, |_| 2);
            let g = group_block(&ix, &deps);
            let s = schedule_block(&ix, &deps, &g.units, 16);
            scheds.push((info, s));
        }
        (p, scheds)
    }

    #[test]
    fn collects_dest_and_source_packs_with_loop_context() {
        let (p, scheds) = compile_blocks(
            "kernel k { array A: f64[32]; array B: f64[32]; scalar s: f64;
             for i in 0..16 { A[i] = B[i] * s; } }",
        );
        assert_eq!(p.scalar_type(slp_ir::VarId::new(0)), ScalarType::F64);
        let uses = collect_pack_uses(&scheds);
        // One superword statement: dest pack (A), source pack (B) and the
        // splat pack (s,s).
        assert_eq!(uses.len(), 3);
        assert!(uses.iter().all(|u| u.loops.len() == 1));
        // Trips: 16 iterations unrolled by 2 -> 8 dynamic executions.
        assert!(uses.iter().all(|u| u.dynamic_trips() == 8));
    }
}
