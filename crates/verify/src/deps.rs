//! Dependence preservation: an independent re-derivation of the §4.1
//! validity constraints over the *final* schedules.
//!
//! The optimizer validates its own output (`slp_core::validate_schedule`)
//! while compiling; this checker recomputes the dependence graph from the
//! scalar block with [`BlockDeps`] and re-proves, with no shared state,
//! that the emitted superword schedule
//!
//! 1. is a permutation of the block's statements ([`LintCode::ScheduleNotPermutation`]),
//! 2. orders every dependence source before its target
//!    ([`LintCode::DependenceOrderViolated`]),
//! 3. packs no two statements that depend on each other
//!    ([`LintCode::IntraPackDependence`]), and
//! 4. contains no pair of cyclically dependent superword statements
//!    ([`LintCode::PackCycle`]).

use std::collections::HashMap;

use slp_core::{CompiledKernel, ScheduledItem};
use slp_ir::{BlockDeps, BlockInfo, StmtId};

use crate::diag::{Diagnostic, LintCode, Span};

/// Runs the dependence-preservation checks over every scheduled block of
/// `blocks`, the kernel's.
pub(crate) fn check_dependences(kernel: &CompiledKernel, blocks: &[BlockInfo]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for info in blocks {
        let Some(sched) = kernel.schedule_of(info.id) else {
            out.push(Diagnostic::new(
                LintCode::ScheduleNotPermutation,
                Span::block(info.id),
                "block has no schedule",
            ));
            continue;
        };

        // 1. Permutation: every block statement scheduled exactly once,
        // nothing foreign.
        let mut pos: HashMap<StmtId, usize> = HashMap::new();
        for (i, item) in sched.items().iter().enumerate() {
            for &s in item.stmts() {
                if info.block.stmt(s).is_none() {
                    out.push(Diagnostic::new(
                        LintCode::ScheduleNotPermutation,
                        Span::stmts(info.id, vec![s]),
                        format!("schedule mentions {s}, which is not in the block"),
                    ));
                    continue;
                }
                if pos.insert(s, i).is_some() {
                    out.push(Diagnostic::new(
                        LintCode::ScheduleNotPermutation,
                        Span::stmts(info.id, vec![s]),
                        format!("{s} is scheduled more than once"),
                    ));
                }
            }
        }
        for s in info.block.iter() {
            if !pos.contains_key(&s.id()) {
                out.push(Diagnostic::new(
                    LintCode::ScheduleNotPermutation,
                    Span::stmts(info.id, vec![s.id()]),
                    format!("{} is missing from the schedule", s.id()),
                ));
            }
        }

        // 2. Re-derive the dependence graph from the scalar block and
        // check the schedule executes every source before its target.
        let deps = BlockDeps::analyze_in(&info.block, &info.loops);
        for d in deps.direct() {
            let (Some(&ps), Some(&pd)) = (pos.get(&d.src), pos.get(&d.dst)) else {
                continue; // already reported as a permutation failure
            };
            if ps > pd {
                out.push(Diagnostic::new(
                    LintCode::DependenceOrderViolated,
                    Span::stmts(info.id, vec![d.src, d.dst]),
                    format!(
                        "{} dependence {} -> {} is reversed (source at \
                         position {ps}, target at {pd})",
                        d.kind, d.src, d.dst
                    ),
                ));
            }
        }

        // 3. Lanes of one pack must be pairwise independent — checked
        // against the transitive closure, so a dependence routed through
        // a third statement is caught even when no direct edge joins the
        // lanes.
        let packs: Vec<&[StmtId]> = sched
            .items()
            .iter()
            .filter_map(|item| match item {
                ScheduledItem::Superword(sw) => Some(sw.lanes()),
                ScheduledItem::Single(_) => None,
            })
            .collect();
        for lanes in &packs {
            for (i, &a) in lanes.iter().enumerate() {
                for &b in &lanes[i + 1..] {
                    if a == b || info.block.stmt(a).is_none() || info.block.stmt(b).is_none() {
                        continue; // permutation failures already reported
                    }
                    if deps.depends(a, b) || deps.depends(b, a) {
                        out.push(Diagnostic::new(
                            LintCode::IntraPackDependence,
                            Span::stmts(info.id, vec![a, b]),
                            format!("pack lanes {a} and {b} depend on each other"),
                        ));
                    }
                }
            }
        }

        // 4. No two packs may be cyclically dependent (each would have to
        // execute before the other).
        for (i, p) in packs.iter().enumerate() {
            for q in &packs[i + 1..] {
                if p.iter()
                    .chain(q.iter())
                    .any(|&s| info.block.stmt(s).is_none())
                {
                    continue;
                }
                if deps.sets_form_cycle(p, q) {
                    let mut stmts = p.to_vec();
                    stmts.extend_from_slice(q);
                    out.push(Diagnostic::new(
                        LintCode::PackCycle,
                        Span::stmts(info.id, stmts),
                        "superword statements are cyclically dependent",
                    ));
                }
            }
        }
    }
    out
}
