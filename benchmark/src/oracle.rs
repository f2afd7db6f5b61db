//! The independent oracle: what every job's output must be.
//!
//! Expected final memory comes from the tree-walking reference
//! interpreter running the *scalar* build of the unmodified program —
//! never from the bytecode engine or the strategy a workload measures.

use std::time::Instant;

use slp_core::{MachineConfig, SlpConfig, Strategy};
use slp_vm::MachineState;

use crate::inputs::{machine, Kernel, MACHINES};

/// The expected result of one kernel.
#[derive(Debug)]
struct Expected {
    /// Final memory of the scalar program.
    state: MachineState,
    /// Arrays the source declares; layout replicas a compile appends
    /// behind them are scratch and not compared.
    arrays: usize,
    /// Simulated cycles of the scalar build per machine — the base of
    /// `sim_speedup_geomean`.
    scalar_cycles: [f64; MACHINES.len()],
}

/// Expected results for a kernel set.
#[derive(Debug)]
pub struct Oracle {
    expected: Vec<Expected>,
    /// Wall seconds spent preparing (`harness.oracle_s`).
    pub seconds: f64,
}

impl Oracle {
    /// Runs the scalar reference of every kernel.
    ///
    /// # Panics
    ///
    /// Panics if a kernel of the set does not compile or run: the set
    /// is fixed, so that is a broken checkout, not a measurement.
    pub fn prepare(kernels: &[Kernel]) -> Oracle {
        let start = Instant::now();
        let machines: Vec<MachineConfig> = MACHINES.iter().map(|m| machine(m)).collect();
        let expected = kernels
            .iter()
            .map(|k| {
                let program = slp_lang::compile(&k.source)
                    .unwrap_or_else(|e| panic!("kernel {} does not parse: {e}", k.name));
                let mut scalar_cycles = [0.0; MACHINES.len()];
                let mut state = None;
                for (m, mc) in machines.iter().enumerate() {
                    let scalar = slp_core::compile(
                        &program,
                        &SlpConfig::for_machine(mc.clone(), Strategy::Scalar),
                    );
                    let reference = slp_vm::execute_reference(&scalar, mc)
                        .unwrap_or_else(|e| panic!("scalar {} does not run: {e}", k.name));
                    let engine = slp_vm::execute(&scalar, mc)
                        .unwrap_or_else(|e| panic!("scalar {} does not run: {e}", k.name));
                    scalar_cycles[m] = engine.stats.metrics.cycles;
                    state.get_or_insert(reference.state);
                }
                Expected {
                    state: state.expect("at least one machine"),
                    arrays: program.arrays().len(),
                    scalar_cycles,
                }
            })
            .collect();
        Oracle {
            expected,
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Whether `state` holds the expected contents of every array the
    /// source of `kernel` declares.
    pub fn matches(&self, kernel: usize, state: &MachineState) -> bool {
        let e = &self.expected[kernel];
        state.arrays_bitwise_eq(&e.state, e.arrays)
    }

    /// Simulated cycles of the scalar build of `kernel` on `machine`.
    pub fn scalar_cycles(&self, kernel: usize, machine: usize) -> f64 {
        self.expected[kernel].scalar_cycles[machine]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::kernels;

    #[test]
    fn oracle_accepts_a_vectorized_build_and_rejects_a_wrong_one() {
        let ks = kernels(1, true);
        let oracle = Oracle::prepare(&ks);
        let mc = machine("intel");
        let program = slp_lang::compile(&ks[0].source).unwrap();
        let config = SlpConfig::for_machine(mc.clone(), Strategy::Holistic).with_layout();
        let out = slp_vm::execute(&slp_core::compile(&program, &config), &mc).unwrap();
        assert!(oracle.matches(0, &out.state));
        assert!(oracle.scalar_cycles(0, 0) > out.stats.metrics.cycles);
        // Another kernel's memory is not this kernel's answer.
        let other = slp_lang::compile(&ks[1].source).unwrap();
        let wrong = slp_vm::execute(&slp_core::compile(&other, &config), &mc).unwrap();
        assert!(!oracle.matches(0, &wrong.state));
    }
}
