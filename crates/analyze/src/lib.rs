//! # slp-analyze — abstract interpretation for the SLP pipeline
//!
//! A small dataflow / abstract-interpretation framework over `slp-ir`:
//! the value ranges, lints and memory-safety certificates that the
//! verifier, the symbolic validator and the VM read.
//!
//! * [`StridedInterval`] — the abstract domain: intervals refined with a
//!   stride congruence, exact under the affine operations subscripts are
//!   built from (`domain`);
//! * [`loop_env`] / [`eval_affine`] — exact value sets for induction
//!   variables and abstract evaluation of affine subscripts (`ranges`);
//! * `DefUse` — def-use chains and program-order liveness facts, what
//!   the lints below read (`defuse`);
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod defuse;
mod domain;
mod lint;
mod ranges;
mod safety;

pub use domain::StridedInterval;
pub use lint::{lint_program, Finding, FindingKind};
pub use ranges::{eval_affine, loop_env};
pub use safety::{AccessCert, AccessVerdict, SafetyCert};
