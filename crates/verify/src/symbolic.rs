//! Symbolic translation validation (`V6xx`), bridged from `slp-tv`.
//!
//! [`prove_kernel`] upgrades the point-wise differential check to a
//! proof over **all** inputs: the `slp-tv` validator symbolically
//! evaluates the scalar program and the compiled kernel over a shared
//! hash-consed term arena and compares every observable location's value
//! graph. The bridge composes the fallback the validator itself promises:
//!
//! * **proved** — clean report; nothing to say.
//! * **refuted** — the validator extracted a concrete input and confirmed
//!   the divergence on both VM engines: [`LintCode::SymbolicMismatch`]
//!   (V600, error) carrying the distinguishing input.
//! * **budget / unsupported** — the proof attempt degraded; the bridge
//!   runs the existing [`check_differential`] gate instead and records
//!   the downgrade as [`LintCode::SymbolicBudgetExceeded`] (V601) or
//!   [`LintCode::SymbolicUnsupported`] (V602), both warnings. Any
//!   differential findings (V401/V402) ride along as usual, so a degraded
//!   run is never *weaker* than the previous behavior — just honest about
//!   being point-wise.

use slp_core::CompiledKernel;
use slp_ir::Program;
use slp_tv::{Budgets, Counterexample, Verdict};

use crate::diag::{Diagnostic, LintCode, Report, Span};
use crate::differential::check_differential;

/// Runs the symbolic translation validator with the default budgets and
/// folds the verdict into a diagnostic report (see module docs),
/// returning the raw [`Verdict`] beside it so callers (the driver's
/// `--prove` mode, the fuzzer's validator oracle) can act on the proof
/// outcome itself.
///
/// `original` must be the program `kernel` was compiled from.
///
/// # Examples
///
/// ```
/// use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
///
/// let program = slp_lang::compile(
///     "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
///      for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }",
/// )?;
/// let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
/// let kernel = compile(&program, &cfg);
/// let (report, _) = slp_verify::prove_kernel(&program, &kernel);
/// assert!(report.is_clean(), "{report}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn prove_kernel(original: &Program, kernel: &CompiledKernel) -> (Report, Verdict) {
    let verdict = slp_tv::validate(
        original,
        kernel,
        &kernel.config.machine,
        &Budgets::default(),
    );
    let mut report = Report::new();
    match &verdict {
        Verdict::Proved(_) => {}
        Verdict::Refuted(cex) => {
            report.push(Diagnostic::new(
                LintCode::SymbolicMismatch,
                Span::program(),
                describe_counterexample(cex),
            ));
        }
        Verdict::Budget { reason } => {
            degrade(
                original,
                kernel,
                &mut report,
                LintCode::SymbolicBudgetExceeded,
                reason,
            );
        }
        Verdict::Unsupported { reason } => {
            degrade(
                original,
                kernel,
                &mut report,
                LintCode::SymbolicUnsupported,
                reason,
            );
        }
    }
    (report, verdict)
}

fn degrade(
    original: &Program,
    kernel: &CompiledKernel,
    report: &mut Report,
    code: LintCode,
    reason: &str,
) {
    report.push(Diagnostic::new(
        code,
        Span::program(),
        format!("symbolic proof degraded to the differential check: {reason}"),
    ));
    report.extend(check_differential(original, kernel));
}

fn describe_counterexample(cex: &Counterexample) -> String {
    format!(
        "execution-confirmed miscompile at {}: scalar computes {:?}, vectorized computes {:?} \
         on a concrete input assigning {} array cell(s) and {} scalar(s)",
        cex.location,
        cex.scalar_value,
        cex.vector_value,
        cex.cells.len(),
        cex.scalars.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{compile, BlockSchedule, MachineConfig, ScheduledItem, SlpConfig, Strategy};

    fn program(src: &str) -> Program {
        slp_lang::compile(src).unwrap()
    }

    #[test]
    fn proved_kernel_reports_clean() {
        let p = program(
            "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
             for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }",
        );
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
        let k = compile(&p, &cfg);
        let (report, verdict) = prove_kernel(&p, &k);
        assert!(report.is_clean(), "{report}");
        assert_eq!(verdict.name(), "proved");
    }

    #[test]
    fn tampered_schedule_reports_v600() {
        let p = program(
            "kernel dep { array A: f64[8];
             for i in 0..8 { A[i] = A[i] * 2.0; A[i] = A[i] + 1.0; } }",
        );
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
        let mut k = compile(&p, &cfg);
        let (bid, sched) = k.schedules[0].clone();
        assert!(sched.is_vectorized());
        let mut items: Vec<ScheduledItem> = sched.items().to_vec();
        items.swap(0, 1);
        k.schedules[0] = (bid, BlockSchedule::new(items));
        let (report, verdict) = prove_kernel(&p, &k);
        assert!(report.has(LintCode::SymbolicMismatch), "{report}");
        assert!(!report.passes());
        assert_eq!(verdict.name(), "refuted");
    }
}
