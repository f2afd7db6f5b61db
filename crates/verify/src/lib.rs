//! # slp-verify — legality lints and translation validation
//!
//! An independent checker for the output of the SLP pipeline. Where
//! `slp-core` validates its own schedules while compiling, this crate
//! re-derives every obligation from scratch over the *finished*
//! [`CompiledKernel`] and reports findings as structured
//! [`Diagnostic`]s instead of panicking:
//!
//! * dependences — recomputes the dependence graph on the scalar block
//!   and proves the superword schedule preserves it (`V1xx` codes),
//! * packs — per-superword legality lints: lane isomorphism, datapath
//!   fit, disjoint destinations, alignment, loop-variable scope
//!   (`V2xx`),
//! * layout — proves each §5.2 array replication injective, in-bounds,
//!   immutable, and fully populated (`V3xx`),
//! * [`check_differential`] — executes the scalar baseline and the
//!   compiled kernel on identical seeded memory and diffs the final
//!   arrays bit for bit (`V4xx`),
//! * `check_certificate` — reports the kernel's memory-safety
//!   certificate: proven-faulting accesses are V505 errors, unproven
//!   accesses V506 warnings,
//! * [`lint_program`] — whole-program dataflow lints over the *source*
//!   program, bridged from `slp-analyze`: use-before-def, dead stores,
//!   provably out-of-bounds subscripts, misalignment risks, dead loops
//!   (`V5xx`),
//! * [`prove_kernel`] — symbolic translation validation as diagnostics:
//!   [`validate()`] proves scalar ≡ vectorized over *all* inputs, and on
//!   budget exhaustion the report degrades to the differential check
//!   (`V6xx`).
//!
//! [`verify_kernel`] bundles the static checks over one extraction of the
//! kernel's blocks; [`verify_with_execution`] adds the differential run:
//!
//! ```
//! use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
//!
//! let program = slp_lang::compile(
//!     "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
//!      for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }",
//! )?;
//! let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
//! let kernel = compile(&program, &cfg);
//! let report = slp_verify::verify_with_execution(&program, &kernel);
//! assert!(report.passes());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Symbolic translation validation
//!
//! The differential gate compares memory after one seeded run;
//! [`validate()`] proves a vectorized [`CompiledKernel`] equivalent to its
//! scalar program over **all** inputs (DESIGN.md, "Translation
//! validation"). Four modules make it up:
//!
//! 1. `term` — hash-consed *uninterpreted* terms (`Add(a, b) ≠
//!    Add(b, a)`): the theory admits what SLP does (reordering,
//!    duplicating, copying) and no algebraic rewriting.
//! 2. `eval` — the symbolic evaluator: data are terms, superwords read
//!    every lane before writing any, as the VM does.
//! 3. `blockwise` — each basic block proven once, its induction
//!    variables symbolic, so a proof costs the code and not the trip
//!    counts; what it cannot decide `eval` walks iteration by iteration.
//! 4. `validate` — the comparator: identical terms prove, and a mismatch
//!    is [`Verdict::Refuted`] only once both VM engines replay a
//!    distinguishing input; exhausted budgets degrade to
//!    [`Verdict::Budget`]/[`Verdict::Unsupported`].
//!
//! ```
//! use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
//! use slp_verify::{validate, Budgets, Verdict};
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

mod blockwise;
mod cert;
mod deps;
mod diag;
mod differential;
mod eval;
mod layout;
mod lints;
mod packs;
mod symbolic;
mod term;
mod validate;

use cert::check_certificate;
use deps::check_dependences;
pub use diag::{Diagnostic, LintCode, Report, Severity, Span};
pub use differential::{assert_states_equivalent, check_differential, check_engine_agreement};
pub use eval::Budgets;
use layout::check_layout;
pub use lints::lint_program;
use packs::check_packs;
pub use symbolic::prove_kernel;
pub use validate::{replay_counterexample, validate, Counterexample, ProofStats, Verdict};

use slp_core::CompiledKernel;
use slp_ir::Program;

/// Runs all static checkers (dependences, packs, layout, memory-safety
/// certificate) over a compiled kernel.
pub fn verify_kernel(kernel: &CompiledKernel) -> Report {
    let blocks = kernel.program.blocks();
    let mut report = Report::new();
    report.extend(check_dependences(kernel, &blocks));
    report.extend(check_packs(kernel, &blocks));
    report.extend(check_layout(kernel, &blocks));
    report.extend(check_certificate(kernel).diagnostics);
    report
}

/// Runs the static checkers plus the differential translation validation
/// against `original`, the program as it was before compilation.
pub fn verify_with_execution(original: &Program, kernel: &CompiledKernel) -> Report {
    let mut report = verify_kernel(kernel);
    report.extend(check_differential(original, kernel));
    report
}
