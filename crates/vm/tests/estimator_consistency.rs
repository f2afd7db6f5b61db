//! The §4.3 static cost estimator in `slp-core` must mirror the code
//! generator's emission decisions: the pipeline uses the estimator to
//! arbitrate grouping proposals, and the VM re-derives the same costs as
//! its gate, so any drift between the two silently mis-arbitrates.
//!
//! For every suite kernel and a population of random programs, the
//! estimator's per-block cycles must equal the generated code's static
//! metrics whenever the block was actually vectorized (and the scalar
//! estimates must always agree).

use slp_core::{
    compile, estimate_scalar_cost, estimate_schedule_cost, BlockIndex, CostContext, MachineConfig,
    SlpConfig, Strategy,
};
use slp_vm::lower_kernel;

fn check_kernel(program: &slp_ir::Program, machine: &MachineConfig) {
    let cfg = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
    let kernel = compile(program, &cfg);
    let exposed = kernel.program.upward_exposed_scalars();
    // Ungated code mirrors the schedules one to one.
    let codes = lower_kernel(&kernel, machine, false);
    for (info, (id, code)) in kernel.program.blocks().iter().zip(&codes) {
        assert_eq!(info.id, *id);
        let cx = CostContext {
            program: &kernel.program,
            loops: &info.loops,
            exposed: &exposed,
            cost: &machine.cost,
            vector_regs: machine.vector_regs,
            assume_layout: false,
        };
        let schedule = kernel.schedule_of(info.id).expect("scheduled block");
        let estimated = if schedule.is_vectorized() {
            let lanes = |ty| machine.lanes_for(ty);
            let ix = BlockIndex::new(&info.block, &kernel.program, lanes);
            estimate_schedule_cost(&ix, schedule, &cx)
        } else {
            estimate_scalar_cost(&info.block, &cx)
        };
        // Hoisting partitions instructions between preheader and body
        // without changing the set, so the estimator matches their sum.
        let emitted = code.static_metrics.cycles + code.preheader_metrics.cycles;
        assert!(
            (estimated - emitted).abs() < 1e-6,
            "estimator drift on {} block {}: estimated {estimated}, emitted {emitted}\n{:#?}",
            program.name(),
            info.id,
            code.insts
        );
    }
}

#[test]
fn estimator_matches_codegen_on_the_suite() {
    let machine = MachineConfig::intel_dunnington();
    for (_, program) in slp_suite::all(1) {
        check_kernel(&program, &machine);
    }
}

#[test]
fn estimator_matches_codegen_on_random_programs() {
    let machine = MachineConfig::intel_dunnington();
    for seed in 0..60 {
        let program = slp_suite::random_program(seed, &slp_suite::GeneratorConfig::default());
        check_kernel(&program, &machine);
    }
}

#[test]
fn estimator_matches_codegen_on_amd_costs() {
    let machine = MachineConfig::amd_phenom_ii();
    for name in ["milc", "wrf", "gromacs", "ft"] {
        check_kernel(&slp_suite::kernel(name, 1), &machine);
    }
}
