//! # slp-analysis — the grouping analyses of §4.2.1
//!
//! This crate implements the graph machinery the holistic SLP optimizer's
//! grouping phase is built on (paper Figures 4–9):
//!
//! * [`PackContent`] / [`OperandKey`] — order-insensitive superword
//!   identities (a reuse "even for the case with different orderings" only
//!   costs a register permutation, never memory traffic),
//! * [`Unit`] and [`Pack`] — grouping units and the variable packs they
//!   form; units generalize single statements so the same algorithm serves
//!   the iterative wider-than-two grouping of §4.2.2,
//! * [`find_candidates`] / [`Candidate`] — step 1, candidate group
//!   identification under the §4.1 validity constraints ([`legal_merges`]
//!   is the same test without the packs, for the `slp-opt` solver),
//! * [`ConflictMatrix`] — the shared-statement / dependence-cycle conflict
//!   relation,
//! * [`PackGraph`] — step 2, the variable-pack conflicting graph,
//! * [`candidate_weight`] — step 3, auxiliary-graph construction, greedy
//!   conflict elimination and the `W = r / Nt` average-reuse weight.
//!
//! The decision loop (step 4) lives in `slp-core`, which drives these
//! pieces.
//!
//! # Examples
//!
//! Score the paper's Figure 2 candidates:
//!
//! ```
//! use slp_analysis::{find_candidates, candidate_weight, ConflictMatrix, PackGraph, Unit};
//! use slp_ir::{BlockDeps, BinOp, Expr, Program, ScalarType, BasicBlock};
//!
//! let mut p = Program::new("fig2");
//! let v: Vec<_> = (0..8).map(|k| p.add_scalar(format!("V{k}"), ScalarType::F32)).collect();
//! let stmts = [
//!     p.make_stmt(v[1].into(), Expr::Copy(v[3].into())),              // S1: V1 = V3
//!     p.make_stmt(v[2].into(), Expr::Copy(v[5].into())),              // S2: V2 = V5
//!     p.make_stmt(v[5].into(), Expr::Copy(v[7].into())),              // S3: V5 = V7
//!     p.make_stmt(v[1].into(), Expr::Binary(BinOp::Mul, v[3].into(), v[1].into())),
//!     p.make_stmt(v[5].into(), Expr::Binary(BinOp::Mul, v[5].into(), v[2].into())),
//! ];
//! let bb: BasicBlock = stmts.into_iter().collect();
//! let deps = BlockDeps::analyze(&bb);
//! let units: Vec<Unit> = bb.iter().map(|s| Unit::singleton(s.id())).collect();
//! let cands = find_candidates(&units, &bb, &deps, &p, |_| 4);
//! assert_eq!(cands.len(), 3);
//! let conflicts = ConflictMatrix::compute(&cands, &deps);
//! let vp = PackGraph::build(&cands);
//! let alive = vec![true; cands.len()];
//! // The paper's unadjusted formula gives 1/1 for {S1,S2}.
//! let w0 = slp_analysis::candidate_weight_with(
//!     0, &cands, &vp, &conflicts, &alive, &[],
//!     &slp_analysis::WeightParams::reuse_only(),
//! );
//! assert_eq!(w0, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod candidates;
mod groupgraph;
mod key;
mod packgraph;
mod unit;
mod weight;

pub use candidates::{find_candidates, legal_merges, Candidate, ConflictMatrix};
pub use groupgraph::{GroupingEdge, StatementGroupingGraph};
pub use key::{OperandKey, PackContent};
pub use packgraph::{PackGraph, PackNode};
pub use unit::{Pack, PackPos, Unit};
pub use weight::{candidate_weight, candidate_weight_with, WeightContext, WeightParams};
