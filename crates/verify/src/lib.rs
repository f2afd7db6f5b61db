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
//! * [`prove_kernel`] — symbolic translation validation bridged from
//!   `slp-tv`: proves scalar ≡ vectorized over *all* inputs, degrading to
//!   the differential check on budget exhaustion (`V6xx`).
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cert;
mod deps;
mod diag;
mod differential;
mod layout;
mod lints;
mod packs;
mod symbolic;

use cert::check_certificate;
use deps::check_dependences;
pub use diag::{Diagnostic, LintCode, Report, Severity, Span};
pub use differential::{assert_states_equivalent, check_differential, check_engine_agreement};
use layout::check_layout;
pub use lints::lint_program;
use packs::check_packs;
pub use symbolic::prove_kernel;

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
