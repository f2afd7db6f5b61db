//! Memory-safety certificate diagnostics (`V505`/`V506`), bridged from
//! the [`SafetyCert`](slp_core::SafetyCert) the pipeline attaches to every [`CompiledKernel`].
//!
//! The certificate classifies each array access of the *transformed*
//! program against its declared extents. This module turns the non-safe
//! verdicts into diagnostics through the shared catalogue:
//!
//! * [`AccessVerdict::ProvenFaulting`] → [`LintCode::ProvenFaultingAccess`]
//!   (V505, **error**): interval endpoints over the iteration box are
//!   attained, so the access really does trap on some iteration;
//! * [`AccessVerdict::Unknown`] → [`LintCode::UnprovenAccess`] (V506,
//!   warning): the range arithmetic widened to ⊤, so the access keeps
//!   its runtime bounds check and its safety rests on that check alone.
//!
//! `ProvenSafe` accesses produce nothing — they are the quiet majority
//! the bytecode engine rewards with unchecked loads and stores.

use slp_core::{AccessVerdict, CompiledKernel};

use crate::diag::{Diagnostic, LintCode, Report, Span};

/// Reports every non-safe verdict of the kernel's memory-safety
/// certificate as a `V505`/`V506` diagnostic.
pub(crate) fn check_certificate(kernel: &CompiledKernel) -> Report {
    let mut report = Report::new();
    for cert in &kernel.safety.accesses {
        let what = if cert.is_write {
            "store to"
        } else {
            "load from"
        };
        match cert.verdict {
            AccessVerdict::ProvenSafe => {}
            AccessVerdict::ProvenFaulting => report.push(Diagnostic::new(
                LintCode::ProvenFaultingAccess,
                Span::stmts(cert.block, vec![cert.stmt]),
                format!(
                    "{what} {} is proven out of bounds: {}",
                    cert.reference, cert.detail
                ),
            )),
            AccessVerdict::Unknown => report.push(Diagnostic::new(
                LintCode::UnprovenAccess,
                Span::stmts(cert.block, vec![cert.stmt]),
                format!(
                    "{what} {} cannot be proven in bounds ({}); it executes fully checked",
                    cert.reference, cert.detail
                ),
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use slp_core::{compile, MachineConfig, SlpConfig, Strategy};

    fn kernel(src: &str) -> CompiledKernel {
        let p = slp_lang::compile(src).expect("compiles");
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
        compile(&p, &cfg)
    }

    #[test]
    fn safe_kernel_produces_no_certificate_diagnostics() {
        let k = kernel(
            "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
             for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }",
        );
        assert!(k.safety.all_proven_safe());
        assert!(check_certificate(&k).is_clean());
        assert_eq!(k.stats.accesses_proven_safe, k.safety.accesses.len());
        assert_eq!(k.stats.accesses_proven_faulting, 0);
        assert_eq!(k.stats.accesses_unknown, 0);
    }

    #[test]
    fn proven_faulting_access_is_a_v505_error() {
        let k = kernel("kernel oob { array A: f64[8]; for i in 0..8 { A[i+1] = 2.0; } }");
        let r = check_certificate(&k);
        assert!(r.has(LintCode::ProvenFaultingAccess), "{r}");
        assert!(!r.passes());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::ProvenFaultingAccess)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("store to"), "{}", d.message);
        assert!(d.span.block.is_some());
        assert!(k.stats.accesses_proven_faulting > 0);
    }

    #[test]
    fn certificate_diagnostics_flow_through_verify_kernel() {
        let k = kernel("kernel oob { array A: f64[8]; for i in 0..8 { A[i+1] = 2.0; } }");
        let r = crate::verify_kernel(&k);
        assert!(r.has(LintCode::ProvenFaultingAccess), "{r}");
        assert!(!r.passes());
    }
}
