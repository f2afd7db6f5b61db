//! Differential translation validation: run it both ways, diff memory.
//!
//! The static checkers prove structural properties; this one executes.
//! The original program is compiled under the scalar strategy (no
//! unrolling, no packs, no layout changes) and the kernel under test is
//! executed as compiled; both start from the same deterministic seeded
//! memory, and the final contents of every original array are compared
//! bit for bit. Replicas appended by the layout stage are scratch space,
//! not program output, and are excluded from the diff.

use slp_core::{CompiledKernel, SlpConfig, Strategy};
use slp_ir::Program;
use slp_vm::{execute, execute_reference, MachineState};

use crate::diag::{Diagnostic, LintCode, Span};

/// Compiles and runs the scalar baseline of `original`, runs `kernel`,
/// and diffs the final memories.
pub fn check_differential(original: &Program, kernel: &CompiledKernel) -> Vec<Diagnostic> {
    let machine = &kernel.config.machine;
    let scalar_cfg = SlpConfig::for_machine(machine.clone(), Strategy::Scalar);
    let scalar = slp_core::compile(original, &scalar_cfg);
    let reference = match execute(&scalar, machine) {
        Ok(out) => out,
        Err(e) => {
            return vec![Diagnostic::new(
                LintCode::ExecutionFailed,
                Span::program(),
                format!(
                    "scalar baseline of '{}' failed to run: {e}",
                    original.name()
                ),
            )]
        }
    };
    let candidate = match execute(kernel, machine) {
        Ok(out) => out,
        Err(e) => {
            return vec![Diagnostic::new(
                LintCode::ExecutionFailed,
                Span::program(),
                format!(
                    "compiled kernel of '{}' ({} strategy) failed to run: {e}",
                    original.name(),
                    kernel.config.strategy.label()
                ),
            )]
        }
    };
    let (x, y) = (&reference.state, &candidate.state);
    diff_states(original, x, y, ["scalar", "vectorized"])
}

/// Diffs two final machine states over the arrays of `program`, bit for
/// bit, reporting the first divergent element of each divergent array
/// under the names of the two runs.
///
/// This is the comparison `check_differential` performs, exposed
/// separately so harnesses that already hold executed [`MachineState`]s
/// (the bench harness, the oracle stress test) can route their
/// equivalence assertions through the same validator.
pub(crate) fn diff_states(
    program: &Program,
    reference: &MachineState,
    candidate: &MachineState,
    [x_run, y_run]: [&str; 2],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for a in program.array_ids() {
        let name = &program.array(a).name;
        let (x, y) = (reference.array(a), candidate.array(a));
        if x.len() != y.len() {
            out.push(Diagnostic::new(
                LintCode::DifferentialMismatch,
                Span::program(),
                format!(
                    "array {name} has {} elements after {x_run} execution but \
                     {} after {y_run} execution",
                    x.len(),
                    y.len()
                ),
            ));
            continue;
        }
        if let Some(i) = (0..x.len()).find(|&i| x[i].to_bits() != y[i].to_bits()) {
            let total = (0..x.len())
                .filter(|&i| x[i].to_bits() != y[i].to_bits())
                .count();
            out.push(Diagnostic::new(
                LintCode::DifferentialMismatch,
                Span::program(),
                format!(
                    "array {name} diverges at [{i}]: {x_run} {} vs {y_run} \
                     {} ({total} element(s) differ)",
                    x[i], y[i]
                ),
            ));
        }
    }
    out
}

/// Cross-checks the two execution engines on `kernel`: the fast bytecode
/// engine (the one behind [`execute`]) against the reference
/// interpreter, on identically seeded memory.
///
/// Where [`check_differential`] validates the *compilation* (vectorized
/// vs scalar semantics), this validates the *executor*: the bytecode
/// lowering must preserve every observable of the reference engine — the
/// full memory image (arrays *and* scalars, bit for bit), the run
/// statistics (cycles, dynamic instructions, memory/pack/permute
/// counters, iterations), the vectorized-block count and the per-block
/// cycle attribution. Any divergence is a bug in the fast engine, never
/// in the program under test.
pub fn check_engine_agreement(kernel: &CompiledKernel) -> Vec<Diagnostic> {
    let machine = &kernel.config.machine;
    let name = kernel.program.name();
    let fast = match execute(kernel, machine) {
        Ok(out) => out,
        Err(e) => {
            return vec![Diagnostic::new(
                LintCode::ExecutionFailed,
                Span::program(),
                format!("bytecode engine failed to run '{name}': {e}"),
            )]
        }
    };
    let reference = match execute_reference(kernel, machine) {
        Ok(out) => out,
        Err(e) => {
            return vec![Diagnostic::new(
                LintCode::ExecutionFailed,
                Span::program(),
                format!("reference engine failed to run '{name}': {e}"),
            )]
        }
    };

    let mut out = Vec::new();
    if !fast.state.bitwise_eq(&reference.state) {
        let (x, y) = (&reference.state, &fast.state);
        out.extend(diff_states(
            &kernel.program,
            x,
            y,
            ["reference", "bytecode"],
        ));
        // diff_states only covers arrays; flag scalar-frame divergence
        // (or an array diff too subtle for it, e.g. NaN payloads)
        // explicitly so agreement failures are never silent.
        if out.is_empty() {
            out.push(Diagnostic::new(
                LintCode::DifferentialMismatch,
                Span::program(),
                format!(
                    "engines disagree on the final machine state of '{name}' \
                     outside the array contents (scalar frame)"
                ),
            ));
        }
    }
    if fast.stats != reference.stats {
        out.push(Diagnostic::new(
            LintCode::DifferentialMismatch,
            Span::program(),
            format!(
                "engines disagree on run statistics for '{name}': bytecode \
                 {:?} vs reference {:?}",
                fast.stats, reference.stats
            ),
        ));
    }
    if fast.vectorized_blocks != reference.vectorized_blocks
        || fast.block_cycles != reference.block_cycles
    {
        out.push(Diagnostic::new(
            LintCode::DifferentialMismatch,
            Span::program(),
            format!(
                "engines disagree on block accounting for '{name}': bytecode \
                 ({} vectorized, {:?}) vs reference ({} vectorized, {:?})",
                fast.vectorized_blocks,
                fast.block_cycles,
                reference.vectorized_blocks,
                reference.block_cycles
            ),
        ));
    }
    out
}

/// Convenience used by harness assertions: diffs every measurement's
/// state against the reference and panics with the rendered diagnostics
/// on divergence.
pub fn assert_states_equivalent(
    program: &Program,
    reference: &MachineState,
    candidate: &MachineState,
    label: &str,
) {
    let diags = diff_states(program, reference, candidate, ["scalar", "vectorized"]);
    assert!(
        diags.is_empty(),
        "{} under {label} diverged from the scalar execution:\n{}",
        program.name(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
