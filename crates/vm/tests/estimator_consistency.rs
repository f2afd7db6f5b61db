//! The §4.3 estimate and the generated code are one emission walk
//! (`slp_core::emit_schedule`) into two sinks. This test compares the
//! estimate with the *real* code — after hoisting, register allocation and
//! spill insertion — so it fails when the walk's two sinks price an
//! emission differently, and when a post-processing pass starts changing
//! what a block costs behind the estimate's back.
//!
//! For every input, under every vectorizing strategy, the estimator's
//! per-block cycles must equal the ungated code's static metrics.

use slp_core::{
    compile, estimate_scalar_cost, estimate_schedule_cost, BlockIndex, CostContext, LayoutView,
    MachineConfig, SlpConfig, Strategy,
};
use slp_vm::lower_kernel;

fn check_kernel(program: &slp_ir::Program, machine: &MachineConfig, strategy: Strategy) {
    let cfg = SlpConfig::for_machine(machine.clone(), strategy);
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
            layout: LayoutView::None,
            permuted_reuse: strategy.permuted_reuse(),
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
        // without changing the set, so the estimator matches their sum
        // (up to the reordered additions).
        let emitted = code.static_metrics.cycles + code.preheader_metrics.cycles;
        assert!(
            (estimated - emitted).abs() < 1e-6,
            "estimator drift on {} block {} under {strategy} on {}: \
             estimated {estimated}, emitted {emitted}\n{:#?}",
            program.name(),
            info.id,
            machine.name,
            code.insts
        );
    }
}

/// R1: a destination pack read back by the next superword — reusable from
/// its register only when the element type is a float (an integer
/// register holds un-truncated lanes).
fn dest_reuse(ty: &str) -> slp_ir::Program {
    let src = format!(
        "kernel r1_{ty} {{ array A: {ty}[64]; array B: {ty}[64]; array C: {ty}[64];
         for i in 0..16 {{
             A[2*i] = B[2*i] * 2; A[2*i+1] = B[2*i+1] * 2;
             C[2*i] = A[2*i] + 1; C[2*i+1] = A[2*i+1] + 1;
         }} }}"
    );
    slp_lang::compile(&src).expect("R1 compiles")
}

/// R2: an operand pack live in the other lane order — one permute for the
/// holistic strategies, a second load for the baselines.
fn permuted_operand() -> slp_ir::Program {
    slp_lang::compile(
        "kernel r2 { array A: f64[64]; array B: f64[64]; array C: f64[64];
         for i in 0..16 {
             A[2*i] = B[2*i] * 2.0; A[2*i+1] = B[2*i+1] * 2.0;
             C[2*i] = B[2*i+1] + 1.0; C[2*i+1] = B[2*i] + 1.0;
         } }",
    )
    .expect("R2 compiles")
}

#[test]
fn estimate_matches_the_generated_code() {
    let intel = MachineConfig::intel_dunnington();
    let amd = MachineConfig::amd_phenom_ii();
    let mut inputs: Vec<(slp_ir::Program, &MachineConfig)> = Vec::new();
    for (_, program) in slp_suite::all(1) {
        inputs.push((program.clone(), &intel));
        inputs.push((program, &amd));
    }
    for seed in 0..60 {
        let config = slp_suite::GeneratorConfig::default();
        inputs.push((slp_suite::random_program(seed, &config), &intel));
    }
    for ty in ["f64", "f32", "i64", "i32", "i16"] {
        inputs.push((dest_reuse(ty), &intel));
    }
    inputs.push((permuted_operand(), &intel));
    for (program, machine) in &inputs {
        for strategy in [Strategy::Native, Strategy::Baseline, Strategy::Holistic] {
            check_kernel(program, machine, strategy);
        }
    }
}
