//! # slp-core — the holistic SLP optimizer
//!
//! Stage 1 of the paper's framework (§4, Figure 3) turns each basic block
//! into superword statements: a statement-grouping phase decides which
//! isomorphic statements become SIMD groups, a statement-scheduling phase
//! orders them and fixes each superword's lane order, and one cost model
//! (§4.3) prices both. Stage 2 (§5) then reorganizes memory for the packs
//! that remain. [`compile`] runs the whole pipeline and returns a
//! [`CompiledKernel`] for `slp-vm`. The modules, in pipeline order:
//!
//! * `index` — [`BlockIndex`], the per-block tables every later step
//!   reads: statement positions, isomorphism classes, lane caps, and every
//!   operand interned to an integer key, numbered in [`Loc`] order. A
//!   pack's *content* is its sorted keys: two packs of the same content
//!   are the same superword for reuse purposes — "even for the case with
//!   different orderings" a reuse only costs a register permutation, never
//!   memory traffic. Grouping, the scheduler and the emission walk share
//!   the index.
//! * `unit` — [`Unit`], the grouping unit. It generalizes a single
//!   statement so the same algorithm serves the iterative wider-than-two
//!   grouping of §4.2.2; [`PackPos`] names one of its operand packs.
//! * `candidates` — §4.2.1 step 1, candidate group identification under
//!   the §4.1 validity constraints: [`mergeable`], the one pair test (the
//!   `slp-opt` solver branches on the same pairs).
//! * `weight` — [`Round`], one grouping round's state: the candidates, the
//!   shared-statement / dependence-cycle conflict relation, step 2's
//!   variable-pack conflicting graph over ranked pack contents, and step
//!   3's auxiliary-graph construction, greedy conflict elimination and
//!   `W = r / Nt` average-reuse weight, tuned by [`WeightParams`]. With
//!   every candidate alive and nothing decided, it is the weighted
//!   statement grouping graph of Figure 5.
//! * `group` — step 4, the decision loop of Figure 10 that drives a
//!   `Round`: commit the heaviest candidate, update the graphs, repeat,
//!   then regroup the merged units for wider groups ([`group_block`]).
//! * `schedule` — §4.3, Figure 11: a valid order of the groups and the
//!   leftover statements that brings superword reuses close together, and
//!   each superword's lane order ([`schedule_block`]).
//! * `live` — the live superword set: the ordered packs believed resident
//!   in vector registers. The scheduler plans on it; the emission walk
//!   decides on it.
//! * `emit` — the one emission walk. Into the estimate it is the §4.3 cost
//!   model ([`estimate_schedule_cost`]); into an [`EmitSink`] it is the
//!   generated code.
//! * `layout` — §5: offset-assignment placement of scalar superwords
//!   ([`ScalarLayout`], §5.1) and array replication for strided array
//!   superwords ([`Replication`], §5.2).
//!
//! `baseline` and `native` are the §7 comparators a [`Strategy`] selects;
//! `pipeline` is Figure 3 end to end.
//!
//! # Examples
//!
//! Score the paper's Figure 2 candidates:
//!
//! ```
//! use slp_core::{BlockIndex, Round, Unit, WeightParams};
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

mod baseline;
mod candidates;
mod deadline;
mod emit;
mod error;
mod group;
mod index;
mod layout;
mod live;
mod machine;
mod native;
mod pipeline;
mod schedule;
mod superword;
mod telemetry;
mod unit;
mod weight;

pub use baseline::baseline_block;
pub use candidates::mergeable;
pub use deadline::{Deadline, Expired};
pub use emit::{
    emit_schedule, estimate_scalar_cost, estimate_schedule_cost, scalar_stmt_cost, scalar_traffic,
    AccessClass, CostContext, EmitSink, LaneSink, LayoutView, ScalarPackClass,
};
pub use error::{ExecError, ExecErrorKind};
pub use group::{group_block, group_block_with, Grouping, GroupingDecision};
pub use index::{BlockIndex, Loc};
pub use layout::array::{eq4_map, Replication};
pub use layout::scalar::ScalarLayout;
pub use machine::{CostParams, MachineConfig};
pub use pipeline::{
    compile, compile_passes, compile_timed, compile_within, estimate_kernel_cost, CompileStats,
    CompiledKernel, OptParams, PackOutcome, PackRequest, Packer, SlpConfig, Strategy,
};
pub use schedule::{schedule_block, schedule_in_program_order};
pub use superword::{BlockSchedule, ScheduledItem, SuperwordStmt};
pub use telemetry::{Phase, PhaseTimings};
pub use unit::{PackPos, Unit};
pub use weight::{Round, WeightParams};

// `CompiledKernel::safety`: consumers of compiled kernels (slp-vm's check
// elision, slp-driver's codec and `DriverError::Unsafe`) can name the
// certificate types without a slp-analyze edge.
pub use slp_analyze::{AccessCert, AccessVerdict, SafetyCert};

// The owned operand keys and pack contents the interned forms of `index`
// are specified against (`weight.rs` and `index.rs` tests).
#[cfg(test)]
mod key;
