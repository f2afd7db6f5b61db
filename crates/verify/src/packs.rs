//! Pack legality lints: the per-superword well-formedness rules.
//!
//! Where `deps` proves the schedule's *order* sound, this module checks
//! each superword statement in isolation:
//!
//! * lanes are isomorphic — same operation shape, operand kinds and
//!   element types in every position ([`LintCode::LaneTypeMismatch`]),
//! * the pack fits the machine's datapath ([`LintCode::PackTooWide`]),
//! * no two lanes may write the same location in one iteration
//!   ([`LintCode::OverlappingLaneDests`]),
//! * contiguous memory packs are provably aligned, else the code
//!   generator must issue unaligned vector memory operations
//!   ([`LintCode::MisalignedPack`], a warning), and
//! * every subscript only uses loop variables an enclosing loop defines
//!   ([`LintCode::UnknownLoopVar`]).

use std::collections::BTreeSet;

use slp_core::{CompiledKernel, ScheduledItem};
use slp_ir::{
    operands_overlap_in, pack_is_aligned_in, pack_is_contiguous, ArrayRef, BlockInfo, Dest,
    LoopVarId, Statement, TypeEnv,
};

use crate::diag::{Diagnostic, LintCode, Span};

/// Runs the pack legality lints over every superword statement of
/// `blocks`, the kernel's.
pub(crate) fn check_packs(kernel: &CompiledKernel, blocks: &[BlockInfo]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let program = &kernel.program;
    let machine = &kernel.config.machine;

    for info in blocks {
        let in_scope: BTreeSet<LoopVarId> = info.loops.iter().map(|h| h.var).collect();

        // V205: subscripts must only use variables of enclosing loops.
        // This is a property of the (possibly layout-rewritten) program
        // itself, so it is checked for every statement, packed or not.
        for s in info.block.iter() {
            let mut refs: Vec<&ArrayRef> = s.uses().iter().filter_map(|o| o.as_array()).collect();
            if let Dest::Array(r) = s.dest() {
                refs.push(r);
            }
            for r in refs {
                for dim in r.access.dims() {
                    for v in dim.vars() {
                        if !in_scope.contains(&v) {
                            out.push(Diagnostic::new(
                                LintCode::UnknownLoopVar,
                                Span::stmts(info.id, vec![s.id()]),
                                format!(
                                    "subscript of {} uses loop variable {}, which no \
                                     enclosing loop defines",
                                    program.array(r.array).name,
                                    program.loop_var_name(v)
                                ),
                            ));
                        }
                    }
                }
            }
        }

        let Some(sched) = kernel.schedule_of(info.id) else {
            continue; // reported by the dependence checker
        };
        for item in sched.items() {
            let ScheduledItem::Superword(sw) = item else {
                continue;
            };
            let stmts: Option<Vec<&Statement>> =
                sw.lanes().iter().map(|&s| info.block.stmt(s)).collect();
            let Some(stmts) = stmts else {
                continue; // foreign statement ids: a permutation failure
            };
            let span = || Span::stmts(info.id, sw.lanes().to_vec());
            let first = stmts[0];

            // V201: lane isomorphism (operation shape, operand kinds and
            // element types, destination included).
            for s in &stmts[1..] {
                if !s.isomorphic(first, program) {
                    out.push(Diagnostic::new(
                        LintCode::LaneTypeMismatch,
                        span(),
                        format!(
                            "lane {} is not isomorphic to lane {} (operation \
                             shape, operand kind, or element type differs)",
                            s.id(),
                            first.id()
                        ),
                    ));
                }
            }

            // V202: the pack must fit the datapath.
            let ty = program.dest_type(first.dest());
            let bits = sw.width() as u32 * ty.size_bytes() * 8;
            if bits > machine.datapath_bits {
                out.push(Diagnostic::new(
                    LintCode::PackTooWide,
                    span(),
                    format!(
                        "{} lanes of {ty} need {bits} bits but the {} datapath \
                         is {} bits wide",
                        sw.width(),
                        machine.name,
                        machine.datapath_bits
                    ),
                ));
            }

            // V203: lanes write disjoint locations. `operands_overlap_in`
            // tests same-iteration aliasing, so contiguous store packs
            // like <A[i], A[i+1]> pass.
            for (i, a) in stmts.iter().enumerate() {
                for b in &stmts[i + 1..] {
                    if operands_overlap_in(&a.def(), &b.def(), &info.loops) {
                        out.push(Diagnostic::new(
                            LintCode::OverlappingLaneDests,
                            Span::stmts(info.id, vec![a.id(), b.id()]),
                            format!(
                                "lanes {} and {} may write the same location \
                                 ({} and {})",
                                a.id(),
                                b.id(),
                                a.dest(),
                                b.dest()
                            ),
                        ));
                    }
                }
            }

            // V204: each memory position that forms a contiguous run must
            // also be provably aligned, or the pack needs an unaligned
            // vector memory operation.
            let dest_refs: Option<Vec<&ArrayRef>> = stmts
                .iter()
                .map(|s| match s.dest() {
                    Dest::Array(r) => Some(r),
                    Dest::Scalar(_) => None,
                })
                .collect();
            let mut positions: Vec<(&'static str, Vec<&ArrayRef>)> = Vec::new();
            if let Some(refs) = dest_refs {
                positions.push(("destination", refs));
            }
            for k in 0..first.expr().operands().len() {
                let refs: Option<Vec<&ArrayRef>> = stmts
                    .iter()
                    .map(|s| s.expr().operands().get(k).and_then(|o| o.as_array()))
                    .collect();
                if let Some(refs) = refs {
                    positions.push(("operand", refs));
                }
            }
            for (what, refs) in positions {
                if pack_is_contiguous(&refs) && !pack_is_aligned_in(&refs, program, &info.loops) {
                    out.push(Diagnostic::new(
                        LintCode::MisalignedPack,
                        span(),
                        format!(
                            "contiguous {what} pack of {} starts at an address \
                             not provably aligned to {} bytes",
                            program.array(refs[0].array).name,
                            sw.width() as u32 * ty.size_bytes()
                        ),
                    ));
                }
            }
        }
    }
    out
}
