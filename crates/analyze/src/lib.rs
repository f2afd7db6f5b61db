//! # slp-analyze — abstract interpretation for the SLP pipeline
//!
//! A small dataflow / abstract-interpretation framework over `slp-ir`.
//! The paper's grouping and scheduling stages (§3–§4) consume dependence
//! information, and every *false* dependence removes candidate packs and
//! superword-reuse opportunities — the precision axis goSLP (Mendis &
//! Amarasinghe, 2018) attacks with global optimization. This crate
//! supplies the predictive side of that argument:
//!
//! * [`StridedInterval`] — the abstract domain: intervals refined with a
//!   stride congruence, exact under the affine operations subscripts are
//!   built from (`domain`);
//! * [`loop_env`] / [`eval_affine`] — exact value sets for induction
//!   variables and abstract evaluation of affine subscripts, plus
//!   [`ScalarRanges`], a widening fixpoint of f64 intervals for scalars
//!   (`ranges`);
//! * `DefUse` — def-use chains and program-order liveness facts, what
//!   the lints below read (`defuse`);
//! * [`RangeOracle`] — a [`slp_ir::DepOracle`] that disproves
//!   dependences the constant/GCD baseline cannot, with a telemetry
//!   counter of refinements (`oracle`);
//! * [`lint_program`] — whole-program safety lints: use-before-def,
//!   dead stores (same-iteration and whole-program), provably
//!   out-of-bounds subscripts, and misalignment risks for pack
//!   candidates (`lint`); `slp-verify` surfaces these as diagnostics
//!   V500–V504 and V507;
//! * [`SafetyCert`] — per-access memory-safety certificates: every
//!   array access classified `ProvenSafe` / `ProvenFaulting` /
//!   `Unknown` against its declared extents (`safety`); `slp-verify`
//!   reports these as V505/V506, and the bytecode engine elides bounds
//!   checks for certified accesses.
//!
//! # Examples
//!
//! Refute a dependence the GCD and plain-interval tests both keep:
//!
//! ```
//! use slp_ir::{AccessVector, AffineExpr, ArrayId, ArrayRef, BasicBlock, BlockDeps,
//!     Expr, LoopHeader, LoopVarId, StmtId, Statement, VarId};
//! use slp_analyze::RangeOracle;
//!
//! // for i in 0..16 step 2 { A[2i] = 1.0; x = A[i+3]; }  — i is even, so
//! // the read A[i+3] (odd index) never touches the written A[2i] (even).
//! let i = LoopVarId::new(0);
//! let w = ArrayRef::new(ArrayId::new(0),
//!     AccessVector::new(vec![AffineExpr::var(i).scaled(2)]));
//! let r = ArrayRef::new(ArrayId::new(0),
//!     AccessVector::new(vec![AffineExpr::var(i).offset(3)]));
//! let block: BasicBlock = [
//!     Statement::new(StmtId::new(0), w.into(), Expr::Copy(1.0.into())),
//!     Statement::new(StmtId::new(1), VarId::new(0).into(), Expr::Copy(r.into())),
//! ].into_iter().collect();
//! let loops = [LoopHeader { var: i, lower: 0, upper: 16, step: 2 }];
//!
//! let baseline = BlockDeps::analyze_in(&block, &loops);
//! assert_eq!(baseline.direct().len(), 1, "GCD+interval keep a false RAW");
//!
//! let oracle = RangeOracle::new();
//! let refined = BlockDeps::analyze_with(&block, &loops, &oracle);
//! assert!(refined.direct().is_empty(), "stride parity refutes it");
//! assert_eq!(oracle.refuted_beyond_gcd(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod defuse;
mod domain;
mod lint;
mod oracle;
mod ranges;
mod safety;

pub use domain::StridedInterval;
pub use lint::{lint_program, Finding, FindingKind};
pub use oracle::RangeOracle;
pub use ranges::{eval_affine, loop_env, render_scalar_ranges, FloatInterval, ScalarRanges};
pub use safety::{AccessCert, AccessVerdict, SafetyCert};
