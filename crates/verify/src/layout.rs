//! Data-layout soundness: proving each committed [`Replication`] safe.
//!
//! The §5.2 array layout stage materializes an interleaved copy of a
//! read-only array and rewrites pack references to it, using the Eq. (4)
//! remapping. This checker enumerates the replication's loop nest and
//! proves, element by element,
//!
//! * **injectivity** — no two distinct (lane, iteration) pairs land on
//!   the same replica element ([`LintCode::NonInjectiveLayoutMap`]); an
//!   overlap would let one lane's copy clobber another's,
//! * **bounds** — every source read and replica write stays inside its
//!   array ([`LintCode::ReplicationOutOfBounds`]),
//! * **immutability** — neither the source nor the replica is written by
//!   the program, so the copied data stays valid for the kernel's whole
//!   run ([`LintCode::ReplicatedArrayWritten`]), and
//! * **coverage** — every program reference to the replica reads an
//!   element the population loop actually wrote
//!   ([`LintCode::UnpopulatedReplicaRead`]).

use std::collections::HashMap;

use slp_core::{CompiledKernel, Replication};
use slp_ir::{BlockInfo, Dest, LoopHeader, LoopVarId, Operand};

use crate::diag::{Diagnostic, LintCode, Span};

/// Upper bound on enumerated (lane, iteration) pairs per replication.
/// Every suite kernel sits far below this; a nest that exceeds it is
/// checked over its first `ENUM_CAP` iterations only.
const ENUM_CAP: usize = 1 << 20;

/// Runs the layout-soundness checks over every committed replication;
/// `blocks` are the kernel's.
pub(crate) fn check_layout(kernel: &CompiledKernel, blocks: &[BlockInfo]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in &kernel.replications {
        check_replication(kernel, blocks, r, &mut out);
    }
    out
}

fn check_replication(
    kernel: &CompiledKernel,
    blocks: &[BlockInfo],
    r: &Replication,
    out: &mut Vec<Diagnostic>,
) {
    let program = &kernel.program;
    let src_name = program.array(r.source).name.clone();
    let dst_name = program.array(r.dest).name.clone();

    if r.lanes.len() != r.dest_exprs.len() {
        out.push(Diagnostic::new(
            LintCode::NonInjectiveLayoutMap,
            Span::program(),
            format!(
                "replication {src_name} -> {dst_name} has {} lane accesses \
                 but {} destination expressions",
                r.lanes.len(),
                r.dest_exprs.len()
            ),
        ));
        return;
    }

    // V303: the population runs once before the kernel's loops, so both
    // arrays must stay unwritten afterwards.
    for (a, name) in [(r.source, &src_name), (r.dest, &dst_name)] {
        if !program.array_is_read_only(a) {
            out.push(Diagnostic::new(
                LintCode::ReplicatedArrayWritten,
                Span::program(),
                format!(
                    "replicated array {name} is written by the program; the \
                     copy made before the loops would go stale"
                ),
            ));
        }
    }

    // Enumerate the population nest: populated replica index -> the
    // source index it was filled from.
    let mut populated: HashMap<i64, Vec<i64>> = HashMap::new();
    let mut injective_errors = 0usize;
    let mut bounds_errors = 0usize;
    for env in iteration_space(&r.loops).take(ENUM_CAP / r.lanes.len().max(1)) {
        for (lane, (access, dest_expr)) in r.lanes.iter().zip(&r.dest_exprs).enumerate() {
            let src_idx = access.eval(&env);
            if !program.array(r.source).in_bounds(&src_idx) && bounds_errors < 4 {
                bounds_errors += 1;
                out.push(Diagnostic::new(
                    LintCode::ReplicationOutOfBounds,
                    Span::program(),
                    format!(
                        "lane {lane} of replication {src_name} -> {dst_name} \
                         reads {src_name}{src_idx:?}, outside the array, at \
                         iteration {env:?}"
                    ),
                ));
            }
            let dst_idx = dest_expr.eval(&env);
            if !program.array(r.dest).in_bounds(&[dst_idx]) && bounds_errors < 4 {
                bounds_errors += 1;
                out.push(Diagnostic::new(
                    LintCode::ReplicationOutOfBounds,
                    Span::program(),
                    format!(
                        "lane {lane} of replication {src_name} -> {dst_name} \
                         writes {dst_name}[{dst_idx}], outside the array, at \
                         iteration {env:?}"
                    ),
                ));
            }
            if let Some(prev) = populated.insert(dst_idx, src_idx.clone()) {
                // Two writers of one replica slot: the Eq. (4) map is not
                // injective over (lane, iteration).
                if prev != src_idx && injective_errors < 4 {
                    injective_errors += 1;
                    out.push(Diagnostic::new(
                        LintCode::NonInjectiveLayoutMap,
                        Span::program(),
                        format!(
                            "replica element {dst_name}[{dst_idx}] is written \
                             from both {src_name}{prev:?} and \
                             {src_name}{src_idx:?} (lane {lane}, iteration \
                             {env:?})"
                        ),
                    ));
                }
            }
        }
    }

    // V304: every program read of the replica must hit a populated slot.
    let mut unpopulated = 0usize;
    for info in blocks {
        let mut replica_reads: Vec<(slp_ir::StmtId, slp_ir::AffineExpr)> = Vec::new();
        for s in info.block.iter() {
            for o in s.uses() {
                if let Operand::Array(ar) = o {
                    if ar.array == r.dest && ar.access.rank() == 1 {
                        replica_reads.push((s.id(), ar.access.dim(0).clone()));
                    }
                }
            }
            if let Dest::Array(ar) = s.dest() {
                if ar.array == r.dest {
                    out.push(Diagnostic::new(
                        LintCode::ReplicatedArrayWritten,
                        Span::stmts(info.id, vec![s.id()]),
                        format!("{} writes replica array {dst_name}", s.id()),
                    ));
                }
            }
        }
        if replica_reads.is_empty() {
            continue;
        }
        for env in iteration_space(&info.loops).take(ENUM_CAP / replica_reads.len().max(1)) {
            for (sid, expr) in &replica_reads {
                let idx = expr.eval(&env);
                if !populated.contains_key(&idx) && unpopulated < 4 {
                    unpopulated += 1;
                    out.push(Diagnostic::new(
                        LintCode::UnpopulatedReplicaRead,
                        Span::stmts(info.id, vec![*sid]),
                        format!(
                            "{sid} reads {dst_name}[{idx}] at iteration \
                             {env:?}, but the population loop never writes \
                             that element"
                        ),
                    ));
                }
            }
        }
    }
}

/// Enumerates the concrete iteration vectors of a loop nest, outermost
/// first, as `(variable, value)` environments.
fn iteration_space(loops: &[LoopHeader]) -> impl Iterator<Item = Vec<(LoopVarId, i64)>> + '_ {
    let trips: Vec<i64> = loops.iter().map(|h| h.trip_count().max(0)).collect();
    let total: i64 = trips.iter().product();
    (0..total.max(if loops.is_empty() { 1 } else { 0 })).map(move |mut flat| {
        let mut env = Vec::with_capacity(loops.len());
        for (h, &t) in loops.iter().zip(&trips).rev() {
            let k = if t > 0 { flat % t } else { 0 };
            flat /= t.max(1);
            env.push((h.var, h.lower + k * h.step));
        }
        env.reverse();
        env
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(var: u32, lower: i64, upper: i64, step: i64) -> LoopHeader {
        LoopHeader {
            var: LoopVarId::new(var),
            lower,
            upper,
            step,
        }
    }

    #[test]
    fn iteration_space_enumerates_row_major() {
        let envs: Vec<_> = iteration_space(&[header(0, 0, 2, 1), header(1, 0, 3, 1)]).collect();
        assert_eq!(envs.len(), 6);
        assert_eq!(
            envs[0],
            vec![(LoopVarId::new(0), 0), (LoopVarId::new(1), 0)]
        );
        assert_eq!(
            envs[1],
            vec![(LoopVarId::new(0), 0), (LoopVarId::new(1), 1)]
        );
        assert_eq!(
            envs[5],
            vec![(LoopVarId::new(0), 1), (LoopVarId::new(1), 2)]
        );
    }

    #[test]
    fn iteration_space_honors_step_and_lower() {
        let envs: Vec<_> = iteration_space(&[header(0, 4, 10, 2)]).collect();
        let values: Vec<i64> = envs.iter().map(|e| e[0].1).collect();
        assert_eq!(values, vec![4, 6, 8]);
    }

    #[test]
    fn empty_nest_has_one_iteration() {
        let envs: Vec<_> = iteration_space(&[]).collect();
        assert_eq!(envs, vec![vec![]]);
    }
}
