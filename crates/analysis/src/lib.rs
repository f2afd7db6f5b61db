//! # slp-analysis — the grouping analyses of §4.2.1
//!
//! This crate implements the graph machinery the holistic SLP optimizer's
//! grouping phase is built on (paper Figures 4–9):
//!
//! * [`Unit`] — grouping units; they generalize single statements so the
//!   same algorithm serves the iterative wider-than-two grouping of
//!   §4.2.2,
//! * [`BlockIndex`] — the per-block tables every later step reads:
//!   statement positions, isomorphism classes, lane caps, and every
//!   operand interned to an integer key. A pack's *content* is its sorted
//!   keys: two packs of the same content are the same superword for reuse
//!   purposes — "even for the case with different orderings" a reuse only
//!   costs a register permutation, never memory traffic. `slp-core`'s
//!   scheduler and emission walk share the index,
//! * [`mergeable`] — step 1, candidate group identification under the
//!   §4.1 validity constraints (the `slp-opt` solver branches on the same
//!   pairs),
//! * [`Round`] — one grouping round's state: the candidates, the
//!   shared-statement / dependence-cycle conflict relation, step 2's
//!   variable-pack conflicting graph over ranked pack contents, and step
//!   3's auxiliary-graph construction, greedy conflict elimination and
//!   `W = r / Nt` average-reuse weight — with every candidate alive and
//!   nothing decided, the weighted statement grouping graph of Figure 5.
//!
//! The decision loop (step 4) lives in `slp-core`, which drives these
//! pieces.
//!
//! # Examples
//!
//! Score the paper's Figure 2 candidates:
//!
//! ```
//! use slp_analysis::{BlockIndex, Round, Unit, WeightParams};
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
//! let ix = BlockIndex::new(&bb, &p, |_| 4);
//! let units: Vec<Unit> = bb.iter().map(|s| Unit::singleton(s.id())).collect();
//! // The paper's unadjusted formula gives 1/1 for {S1,S2}.
//! let mut round = Round::new(&ix, &deps, &units, &WeightParams::reuse_only());
//! assert_eq!(round.candidates(), [(0, 1), (0, 2), (3, 4)]);
//! assert_eq!(round.weight(0, &[true; 3]), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod candidates;
mod index;
mod unit;
mod weight;

pub use candidates::mergeable;
pub use index::{locs_of, BlockIndex, Loc};
pub use unit::{PackPos, Unit};
pub use weight::{Round, WeightParams};

// The owned operand keys and pack contents the interned forms above are
// specified against (`weight.rs` and `index.rs` tests).
#[cfg(test)]
mod key;
