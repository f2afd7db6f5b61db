//! The measurement harness shared by the figure generators: compiles a
//! kernel under every §7 scheme and runs it on the simulated machine.

use slp_core::{compile, CompiledKernel, MachineConfig, SlpConfig, Strategy};
use slp_ir::Program;
use slp_vm::{execute, Outcome};

/// The four optimization schemes of the evaluation, plus Global+Layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unoptimized scalar code (the normalization baseline).
    Scalar,
    /// The native compiler's simple vectorizer.
    Native,
    /// Larsen & Amarasinghe's SLP.
    Slp,
    /// The paper's holistic optimizer.
    Global,
    /// Holistic optimizer plus the data layout stage.
    GlobalLayout,
}

impl Scheme {
    /// Every scheme, in the order the figures list them.
    pub fn all() -> [Scheme; 5] {
        [
            Scheme::Scalar,
            Scheme::Native,
            Scheme::Slp,
            Scheme::Global,
            Scheme::GlobalLayout,
        ]
    }

    /// The figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Scalar => "scalar",
            Scheme::Native => "Native",
            Scheme::Slp => "SLP",
            Scheme::Global => "Global",
            Scheme::GlobalLayout => "Global+Layout",
        }
    }

    /// The pipeline configuration of this scheme on `machine`.
    pub fn config(self, machine: &MachineConfig) -> SlpConfig {
        let (strategy, layout) = match self {
            Scheme::Scalar => (Strategy::Scalar, false),
            Scheme::Native => (Strategy::Native, false),
            Scheme::Slp => (Strategy::Baseline, false),
            Scheme::Global => (Strategy::Holistic, false),
            Scheme::GlobalLayout => (Strategy::Holistic, true),
        };
        let cfg = SlpConfig::for_machine(machine.clone(), strategy);
        if layout {
            cfg.with_layout()
        } else {
            cfg
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The scheme measured.
    pub scheme: Scheme,
    /// Compiler output (kept for compile-time statistics).
    pub kernel: CompiledKernel,
    /// Execution outcome (final state + counters).
    pub outcome: Outcome,
}

impl Measurement {
    /// Simulated cycles.
    pub fn cycles(&self) -> f64 {
        self.outcome.stats.metrics.cycles
    }

    /// Execution-time reduction over `baseline` in percent (the y-axis of
    /// Figures 16, 19, 20).
    pub(crate) fn reduction_over(&self, baseline: &Measurement) -> f64 {
        (1.0 - self.cycles() / baseline.cycles()) * 100.0
    }
}

/// Compiles and runs `program` under `scheme` on `machine`.
///
/// # Panics
///
/// Panics if execution fails — the suite kernels are in-bounds by
/// construction, so a failure is a harness bug.
pub fn measure(program: &Program, machine: &MachineConfig, scheme: Scheme) -> Measurement {
    let kernel = compile(program, &scheme.config(machine));
    let outcome = execute(&kernel, machine)
        .unwrap_or_else(|e| panic!("{} under {:?} failed: {e}", program.name(), scheme));
    Measurement {
        scheme,
        kernel,
        outcome,
    }
}

/// Runs all five schemes on one program; results indexed by [`Scheme`].
pub(crate) fn measure_all(program: &Program, machine: &MachineConfig) -> Vec<Measurement> {
    Scheme::all()
        .into_iter()
        .map(|s| measure(program, machine, s))
        .collect()
}

/// Finds one scheme's measurement in a `measure_all` result.
///
/// # Panics
///
/// Panics if `scheme` is absent.
pub(crate) fn of(measurements: &[Measurement], scheme: Scheme) -> &Measurement {
    measurements
        .iter()
        .find(|m| m.scheme == scheme)
        .expect("scheme measured")
}

/// Asserts that every vectorized scheme computed the same array contents
/// as the scalar scheme — the semantic oracle run before any number is
/// reported. Routed through the `slp-verify` differential validator so a
/// divergence is reported with the array, index, and both values.
///
/// # Panics
///
/// Panics on the first divergence.
pub(crate) fn assert_equivalent(program: &Program, measurements: &[Measurement]) {
    let scalar = of(measurements, Scheme::Scalar);
    for m in measurements {
        slp_verify::assert_states_equivalent(
            program,
            &scalar.outcome.state,
            &m.outcome.state,
            m.scheme.label(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_all_covers_all_schemes() {
        let p = slp_suite::kernel("lbm", 1);
        let machine = MachineConfig::intel_dunnington();
        let ms = measure_all(&p, &machine);
        assert_eq!(ms.len(), 5);
        assert_equivalent(&p, &ms);
        // The scalar scheme is the slowest or tied.
        let scalar = of(&ms, Scheme::Scalar).cycles();
        for m in &ms {
            assert!(
                m.cycles() <= scalar + 1e-9,
                "{} slower than scalar",
                m.scheme.label()
            );
        }
    }

    #[test]
    fn reduction_is_zero_against_self() {
        let p = slp_suite::kernel("cg", 1);
        let machine = MachineConfig::intel_dunnington();
        let m = measure(&p, &machine, Scheme::Scalar);
        assert_eq!(m.reduction_over(&m), 0.0);
    }
}
