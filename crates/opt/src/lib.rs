//! # slp-opt — exact statement packing as a 0-1 integer program
//!
//! The heuristic pipeline (`Strategy::Holistic`) grows packs greedily:
//! each §4.2.2 round merges the highest-weight candidate and never
//! reconsiders. This crate answers the question the heuristic cannot:
//! *what is the best packing, and how far from it did the heuristic
//! land?*
//!
//! Statement packing is cast as a 0-1 integer linear program in the
//! goSLP style (`model`) and solved from scratch, dependency-free, by
//! best-first branch-and-bound (`solve`), warm-started from the
//! holistic heuristic so the anytime answer is never worse than what
//! `Strategy::Holistic` ships. An expired deadline or node cap returns
//! the best packing found so far with `degraded = true` and the tightest
//! *proven* lower bound, from which the pipeline reports
//! [`slp_core::CompileStats::opt_gap_ppm`].
//!
//! The solver plugs into `slp-core` behind the [`slp_core::Packer`]
//! trait as [`OptimalPacker`]; the driver installs it automatically for
//! [`slp_core::Strategy::Optimal`]. "Optimal" is exact over *statement
//! packing* — which statements form each superword — modulo the
//! deterministic scheduler's lane ordering and linearization, which the
//! solver shares with every other strategy. [`enumerated_minimum`] is the
//! exhaustive reference an unbudgeted solve is held to, by this crate's
//! tests and by `slp-fuzz`'s optimality oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod model;
mod solve;

pub use solve::{enumerated_minimum, OptimalPacker};

#[cfg(test)]
pub(crate) mod testutil {
    use slp_core::{
        estimate_schedule_cost, BlockIndex, BlockSchedule, CostContext, LayoutView, PackRequest,
        SlpConfig,
    };
    use slp_ir::{BlockDeps, Program};

    /// Calls `f` with a request to pack each block of `program` as it
    /// stands (no unrolling), warm-started from the scalar schedule.
    pub(crate) fn each_block(
        program: &Program,
        config: &SlpConfig,
        mut f: impl FnMut(&PackRequest<'_>),
    ) {
        let exposed = program.upward_exposed_scalars();
        for info in program.blocks() {
            let deps = BlockDeps::analyze_in(&info.block, &info.loops);
            let incumbent = BlockSchedule::scalar(&info.block);
            let cx = CostContext {
                program,
                loops: &info.loops,
                exposed: &exposed,
                cost: &config.machine.cost,
                vector_regs: config.machine.vector_regs,
                layout: LayoutView::None,
                permuted_reuse: config.strategy.permuted_reuse(),
            };
            let ix = BlockIndex::new(&info.block, program, |ty| config.machine.lanes_for(ty));
            let incumbent_cost = estimate_schedule_cost(&ix, &incumbent, &cx);
            f(&PackRequest {
                ix: &ix,
                deps: &deps,
                program,
                loops: &info.loops,
                exposed: &exposed,
                config,
                optimism: false,
                incumbent: &incumbent,
                incumbent_cost,
                stop_at: None,
            });
        }
    }
}
