//! # slp-tv — symbolic translation validation
//!
//! Proves that a vectorized [`CompiledKernel`](slp_core::CompiledKernel)
//! is equivalent to the scalar program it was compiled from — over **all**
//! inputs, not just the seeded image the differential check runs.
//!
//! The differential gate in `slp-verify` executes both builds on one
//! deterministic input and compares memory bitwise: a strong smoke signal,
//! but a single point in the input space. This crate closes the gap with a
//! small translation validator:
//!
//! 1. `term` — a hash-consed arena of *uninterpreted* terms. Operators
//!    are formal symbols (`Add(a, b) ≠ Add(b, a)`): the theory admits
//!    exactly the transformations SLP performs (reordering independent
//!    statements, duplicating computations, copying cells) and nothing it
//!    does not (reassociation, algebraic rewriting).
//! 2. `eval` — a symbolic evaluator. Loop bounds are compile-time
//!    constants in this IR, so loop nests are walked concretely with
//!    exact affine subscript evaluation (backed by `slp-analyze`'s
//!    strided-interval pre-pass for early budget/bounds screening), while
//!    every array cell and scalar carries a term describing its value as
//!    a function of the inputs. Superword semantics mirror the VM: all
//!    lane operands read before any destination writes.
//! 3. [`validate`] — the comparator. Every written cell of every original
//!    array and every live-out scalar must hold the *identical* term on
//!    both sides. On mismatch, a distinguishing concrete input is
//!    extracted from the first diverging term pair and replayed through
//!    both VM engines; only an execution-confirmed divergence becomes a
//!    [`Verdict::Refuted`]. On resource exhaustion the verdict degrades
//!    to [`Verdict::Budget`]/[`Verdict::Unsupported`] and callers fall
//!    back to the differential check — the validator never silently
//!    weakens a claim.
//!
//! # Example
//!
//! ```
//! use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
//! use slp_tv::{validate, Budgets, Verdict};
//!
//! let src = "kernel k { array A: f64[64]; array B: f64[64];
//!            for i in 0..64 { A[i] = B[i] * 2.0; } }";
//! let program = slp_lang::compile(src).unwrap();
//! let machine = MachineConfig::intel_dunnington();
//! let kernel = compile(&program, &SlpConfig::for_machine(machine.clone(), Strategy::Holistic));
//! match validate(&program, &kernel, &machine, &Budgets::default()) {
//!     Verdict::Proved(stats) => assert!(stats.cells_compared > 0),
//!     v => panic!("expected a proof, got {v:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod eval;
mod term;
mod validate;

pub use eval::Budgets;
pub use validate::{replay_counterexample, validate, Counterexample, ProofStats, Verdict};
