//! # slp-ir — the intermediate representation substrate
//!
//! A small typed compiler IR in the spirit of the SUIF infrastructure the
//! paper built on: programs of counted loops over three-address statements
//! whose array subscripts are affine functions of the loop indices.
//!
//! The crate provides everything the SLP optimizers in `slp-core` consume:
//!
//! * symbol tables, scalar/array/loop-variable ids ([`Program`]),
//! * affine index algebra ([`AffineExpr`], [`AccessVector`] — Eq. (1) of
//!   the paper),
//! * statements, isomorphism testing and basic blocks ([`Statement`],
//!   [`BasicBlock`]),
//! * intra-block dependence analysis with transitive closure
//!   ([`BlockDeps`]),
//! * the pre-processing passes: loop unrolling ([`unroll_program`]) and
//!   alignment/contiguity analysis ([`pack_is_contiguous`],
//!   [`pack_is_aligned_in`]).
//!
//! # Examples
//!
//! Build part of the paper's Figure 2 example block and check a dependence:
//!
//! ```
//! use slp_ir::{Program, ScalarType, Expr, BinOp, BasicBlock, BlockDeps};
//!
//! let mut p = Program::new("fig2");
//! let v: Vec<_> = (1..=7).map(|k| p.add_scalar(format!("V{k}"), ScalarType::F32)).collect();
//! // S1: V1 = V3;  S3: V5 = V7;  S5: V3 = V1 + V5  (paper, Figure 2)
//! let s1 = p.make_stmt(v[0].into(), Expr::Copy(v[2].into()));
//! let s3 = p.make_stmt(v[4].into(), Expr::Copy(v[6].into()));
//! let s5 = p.make_stmt(v[2].into(), Expr::Binary(BinOp::Add, v[0].into(), v[4].into()));
//! let bb: BasicBlock = [s1.clone(), s3, s5.clone()].into_iter().collect();
//! let deps = BlockDeps::analyze(&bb);
//! assert!(deps.depends(s1.id(), s5.id())); // V1 flows into S5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod affine;
mod align;
mod block;
mod deps;
mod emit;
mod expr;
mod ids;
mod numeric;
mod program;
mod stmt;
mod types;
mod unroll;
mod validate;

pub use affine::{AccessVector, AffineExpr};
pub use align::{pack_is_aligned_in, pack_is_contiguous};
pub use block::{BasicBlock, StmtPositions};
pub use deps::{operands_overlap_in, refs_overlap_in, BlockDeps, DepKind, Dependence};
pub use expr::{
    mul_add, ArrayRef, BinOp, CmpOp, Dest, Expr, ExprShape, OpRow, Operand, OperandKind, Operands,
    TypeEnv, UnOp,
};
pub use ids::{ArrayId, LoopVarId, StmtId, VarId};
pub use program::{ArrayInfo, BlockId, BlockInfo, Item, Loop, LoopHeader, Program, ScalarInfo};
pub use stmt::Statement;
pub use types::ScalarType;
pub use unroll::{loop_local_scalars, unroll_program};
pub use validate::ValidationError;
