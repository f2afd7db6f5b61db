//! # slp-vm — the cycle-approximate SIMD virtual machine
//!
//! The execution substrate standing in for the paper's Intel/AMD SSE2
//! hardware. It has four layers:
//!
//! * `code`: a small vector instruction set ([`VInst`]) whose
//!   instructions know their cycle costs and their contribution to the
//!   §7 counters (dynamic instructions, memory operations,
//!   packing/unpacking operations, permutations),
//! * `codegen`: lowers a [`slp_core::BlockSchedule`] to vector code — the
//!   instruction-building sink of [`slp_core::emit_schedule`], the one walk
//!   that decides pack reuse (direct reuse = free, permuted reuse = one
//!   shuffle, otherwise load/gather) for the §4.3 estimate too — then
//!   hoists, allocates registers and applies the §4.3 cost-model gate,
//! * `exec`: an interpreter that actually *runs* the code on seeded
//!   memory, so any vectorized build can be checked bit-for-bit against
//!   the scalar build — an oracle the original paper did not have,
//! * `bytecode`: the fast-path engine behind [`execute`] — a dense,
//!   pre-resolved lowering of the same code (flat register slots, one
//!   linear address form per certified access, fused superinstructions)
//!   run directly on the flat memory image, bit-identical to the
//!   `exec` reference interpreter at a fraction of the interpretation
//!   cost,
//! * `multicore`: the analytic model behind the Figure 21 multicore
//!   scaling experiments.
//!
//! # Examples
//!
//! Compile a kernel two ways and compare both results and speed:
//!
//! ```
//! use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
//! use slp_vm::execute;
//!
//! let src = "kernel k { array A: f64[64]; array B: f64[64];
//!            for i in 0..32 { A[i] = B[i] * 2.0; } }";
//! let program = slp_lang::compile(src).unwrap();
//! let machine = MachineConfig::intel_dunnington();
//!
//! let scalar = compile(&program, &SlpConfig::for_machine(machine.clone(), Strategy::Scalar));
//! let global = compile(&program, &SlpConfig::for_machine(machine.clone(), Strategy::Holistic));
//! let s = execute(&scalar, &machine).unwrap();
//! let g = execute(&global, &machine).unwrap();
//! assert!(g.state.arrays_bitwise_eq(&s.state, 2));
//! assert!(g.stats.metrics.cycles < s.stats.metrics.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bytecode;
mod code;
mod codegen;
mod exec;
mod hoist;
mod memory;
mod multicore;
mod regalloc;

pub use bytecode::BytecodeKernel;
pub use code::{InstMetrics, SplatSrc, VInst, VReg};
pub use codegen::{lower_kernel, lower_kernel_with, BlockCode};
pub use exec::{
    apply_shape, execute, execute_fully_checked, execute_gated, execute_gated_reference,
    execute_reference, execute_reference_with_state, execute_with_state, run_scalar, Outcome,
    RunStats,
};
pub use memory::{seed_scalar, seed_value, MachineState};
pub use multicore::{reduction_percent, MulticoreModel};

// The machine descriptions, the runtime error and the pack class in
// `VInst`'s fields are slp-core's: the VM and the optimizer share them.
pub use slp_core::{ExecError, ExecErrorKind, MachineConfig, ScalarPackClass};
