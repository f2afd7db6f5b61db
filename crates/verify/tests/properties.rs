//! Property tests: for arbitrary generated kernels, everything the
//! pipeline emits passes the full slp-verify battery, and a
//! deliberately corrupted schedule is rejected.

use rand::Rng;

use slp_core::{
    compile, BlockSchedule, CompiledKernel, MachineConfig, ScheduledItem, SlpConfig, Strategy,
};
use slp_fuzz::property::{case_rng, check_program};
use slp_ir::{BlockDeps, Program};
use slp_suite::{random_program, GeneratorConfig};
use slp_verify::{verify_kernel, verify_with_execution, LintCode};

/// Every random program, compiled under every vectorizing strategy,
/// passes the static checks and the differential translation
/// validation.
#[test]
fn pipeline_output_always_verifies() {
    let mut rng = case_rng("properties::pipeline_output_always_verifies");
    let machine = MachineConfig::intel_dunnington();
    for case in 0..12 {
        let seed = rng.gen_range(0..1_000_000);
        let sweeps: i64 = rng.gen_range(0..3);
        let config = GeneratorConfig {
            outer_sweeps: sweeps * 4,
            ..GeneratorConfig::default()
        };
        let label = format!("case {case}: seed {seed}, sweeps {sweeps}");
        check_program(&label, &random_program(seed, &config), |program| {
            for (strategy, layout) in [
                (Strategy::Native, false),
                (Strategy::Baseline, false),
                (Strategy::Holistic, false),
                (Strategy::Holistic, true),
            ] {
                let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
                if layout {
                    cfg = cfg.with_layout();
                }
                let report = verify_with_execution(program, &compile(program, &cfg));
                if !report.passes() {
                    return Err(format!("{strategy:?}/layout={layout} failed:\n{report}"));
                }
            }
            Ok(())
        });
    }
}

/// The scalar compile of `program` with its first block's statements
/// reversed, or `None` when that block has no dependence to violate
/// (it stays valid in any order).
fn reversed_first_block(program: &Program) -> Option<CompiledKernel> {
    let machine = MachineConfig::intel_dunnington();
    let mut kernel = compile(program, &SlpConfig::for_machine(machine, Strategy::Scalar));
    let blocks = kernel.program.blocks();
    let info = &blocks[0];
    let deps = BlockDeps::analyze_in(&info.block, &info.loops);
    if deps.direct().is_empty() {
        return None;
    }
    let reversed: Vec<ScheduledItem> = info
        .block
        .iter()
        .rev()
        .map(|s| ScheduledItem::Single(s.id()))
        .collect();
    kernel.schedules[0].1 = BlockSchedule::new(reversed);
    Some(kernel)
}

/// Reversing the statement order of a block with at least one
/// dependence always trips the dependence-preservation checker.
#[test]
fn corrupted_schedules_are_rejected() {
    let mut rng = case_rng("properties::corrupted_schedules_are_rejected");
    let mut checked = 0;
    for case in 0..12 {
        let seed = rng.gen_range(0..1_000_000);
        let program = random_program(seed, &GeneratorConfig::default());
        checked += usize::from(reversed_first_block(&program).is_some());
        check_program(&format!("case {case}: seed {seed}"), &program, |program| {
            let Some(kernel) = reversed_first_block(program) else {
                return Ok(());
            };
            let report = verify_kernel(&kernel);
            if !report.passes() && report.has(LintCode::DependenceOrderViolated) {
                Ok(())
            } else {
                Err(format!("corruption not caught:\n{report}"))
            }
        });
    }
    // A case without a dependence checks nothing. All twelve drawn cases
    // have one; fewer would leave the property partly vacuous.
    assert_eq!(checked, 12, "cases that reached the check");
}
