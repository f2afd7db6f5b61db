//! # slp — a compiler framework for extracting superword level parallelism
//!
//! A from-scratch Rust reproduction of *Liu, Zhang, Jang, Ding, Kandemir:
//! "A Compiler Framework for Extracting Superword Level Parallelism"*
//! (PLDI 2012): a holistic SLP auto-vectorizer whose statement grouping
//! maximizes superword reuse over whole basic blocks, a scheduling phase
//! that fixes lane orders against a live superword set, and a data layout
//! stage (scalar offset assignment and array mapping/replication) — plus
//! everything the evaluation needs: an IR, a kernel language, the
//! Larsen–Amarasinghe baseline, a native-style vectorizer, a
//! cycle-approximate SIMD virtual machine modelling the paper's two test
//! machines, and the sixteen-benchmark suite.
//!
//! The workspace crates are re-exported here under short names:
//!
//! * [`ir`] — typed IR, affine subscripts, dependence analysis, unrolling
//! * [`lang`] — the kernel mini-language frontend
//! * [`analysis`] — candidate groups, conflict graphs, reuse weights
//! * [`analyze`] — abstract interpretation: strided intervals, def-use,
//!   the range-refined dependence oracle, whole-program lints
//! * [`core`] — grouping, scheduling, baselines, cost model, layout
//! * [`opt`] — exact statement packing: 0-1 ILP branch-and-bound behind
//!   the `Packer` trait, `SlpConfig`'s one plug-in point
//!   (`Strategy::Optimal`; with no packer installed it ships the
//!   heuristic's schedule)
//! * [`vm`] — vector code generation and the simulated machines
//! * [`suite`] — the Table 3 benchmark kernels and a program generator
//! * [`tv`] — symbolic translation validation: prove scalar ≡ vectorized
//!   over all inputs via hash-consed value graphs
//! * [`verify`] — legality lints and differential translation validation
//! * [`driver`] — compile caching, parallel batches, telemetry, plus the
//!   `slp-serve` layer: versioned wire protocol, multi-tenant quotas,
//!   request coalescing, stdio/TCP transports and a load generator
//!
//! # Examples
//!
//! Vectorize a kernel and verify both speed and semantics:
//!
//! ```
//! use slp::core::{compile, MachineConfig, SlpConfig, Strategy};
//! use slp::vm::execute;
//!
//! let program = slp::lang::compile(
//!     "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
//!      for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }",
//! )?;
//! let machine = MachineConfig::intel_dunnington();
//!
//! let scalar = compile(&program, &SlpConfig::for_machine(machine.clone(), Strategy::Scalar));
//! let global = compile(&program, &SlpConfig::for_machine(machine.clone(), Strategy::Holistic));
//!
//! let s = execute(&scalar, &machine)?;
//! let g = execute(&global, &machine)?;
//! assert!(g.state.arrays_bitwise_eq(&s.state, program.arrays().len()));
//! assert!(g.stats.metrics.cycles < s.stats.metrics.cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use slp_analysis as analysis;
pub use slp_analyze as analyze;
pub use slp_core as core;
pub use slp_ir as ir;
pub use slp_lang as lang;
pub use slp_opt as opt;
pub use slp_suite as suite;
pub use slp_tv as tv;
pub use slp_verify as verify;
pub use slp_vm as vm;

/// The batch/caching driver plus the serving layer in one namespace.
///
/// Everything from `slp-driver` (compile requests, the two-tier cache,
/// batches, reports, fingerprints) re-exported alongside the
/// `slp-serve` front: [`serve_handler`](driver::serve_handler) (stdio line protocol),
/// [`serve_tcp`](driver::serve_tcp) (concurrent TCP with workers,
/// admission control and `GET /metrics`), the transport-agnostic
/// [`Handler`](driver::Handler) with its [`ServeConfig`](driver::ServeConfig)
/// / [`QuotaConfig`](driver::QuotaConfig) knobs, and the stable
/// [`ErrorCode`](driver::ErrorCode) table of the wire protocol.
pub mod driver {
    pub use slp_driver::*;
    pub use slp_serve::{
        protocol, protocol::ErrorCode, serve_handler, serve_tcp, Handler, QuotaConfig, ServeConfig,
        TcpOptions, TcpServer,
    };
}

/// The stable, front-end-facing API surface in one import.
///
/// Everything a tool built on this framework needs — parsing, pipeline
/// configuration, compilation, execution, verification and the typed
/// error — without reaching into individual workspace crates:
///
/// ```
/// use slp::prelude::*;
///
/// let request = CompileRequest {
///     name: "axpy".into(),
///     source: "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
///              for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }".into(),
///     config: SlpConfig::for_machine(MachineConfig::intel_dunnington(), "global".parse()?),
///     verify: VerifyLevel::Static,
/// };
/// let compiled = compile_source(&request, None).map_err(|e| e.to_string())?;
/// let outcome = execute(&compiled.kernel, &compiled.kernel.config.machine)?;
/// assert!(outcome.stats.metrics.cycles > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The surface is intentionally small and additive: new items may
/// appear here, but the meaning and signatures of the existing ones are
/// stable across the workspace's internal refactors (the bytecode
/// execution engine replaced the tree-walking interpreter underneath
/// [`execute`] without any change visible through this module). One
/// change broke that rule: `SlpConfig` dropped its post-compile verify
/// hook, keeping `Packer` as its one extension point, and five items
/// left this module with it (README, "The stable API", names each).
/// Check a finished kernel with `slp::verify::verify_kernel` or a
/// request's `VerifyLevel` and read the `Report`; `SlpConfig::packer`
/// is an `Option<Arc<dyn Packer>>`, and leaving it `None` makes
/// `Strategy::Optimal` ship the heuristic's schedule, proving nothing.
pub mod prelude {
    pub use slp_core::{
        compile, compile_timed, estimate_kernel_cost, CompileStats, CompiledKernel, ExecError,
        ExecErrorKind, MachineConfig, OptParams, PackOutcome, PackRequest, Packer, SlpConfig,
        Strategy,
    };
    pub use slp_driver::{
        compile_batch, compile_source, parallel_map, parse_machine, BatchConfig, CompileCache,
        CompileOutcome, CompileRequest, DriverError, ProveVerdict, ServeSummary, VerifyLevel,
    };
    pub use slp_ir::Program;
    pub use slp_lang::{compile as parse_kernel, ParseError};
    pub use slp_opt::OptimalPacker;
    pub use slp_serve::{serve_handler, serve_tcp, Handler, QuotaConfig, ServeConfig, TcpOptions};
    pub use slp_vm::{
        execute, execute_gated, run_scalar, BytecodeKernel, MachineState, Outcome, RunStats,
    };
}
