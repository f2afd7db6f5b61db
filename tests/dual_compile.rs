//! The Global+Layout dual compile against its definition: the shipped
//! kernel is the one two independent single-pass compiles — one
//! arbitrating as if the layout stage will run, one as if not — and the
//! `<=` on their estimates produce, although the pipeline pre-processes
//! once, builds each proposal once and finishes once where it can.

use slp::core::{compile_passes, estimate_kernel_cost, Deadline, PhaseTimings};
use slp::prelude::*;

fn assert_same(shipped: &CompiledKernel, reference: &CompiledKernel, what: &str) {
    assert_eq!(shipped.program, reference.program, "{what}: program");
    assert_eq!(shipped.schedules, reference.schedules, "{what}: schedules");
    assert_eq!(shipped.scalar_layout, reference.scalar_layout, "{what}");
    assert_eq!(shipped.replications, reference.replications, "{what}");
    assert_eq!(shipped.stats, reference.stats, "{what}: stats");
    assert_eq!(shipped.safety, reference.safety, "{what}: certificate");
}

#[test]
fn dual_compile_ships_what_two_independent_passes_and_the_estimate_choose() {
    let mut programs: Vec<Program> = slp::suite::all(1).into_iter().map(|(_, p)| p).collect();
    let branchy = slp::suite::branchy_catalog().into_iter();
    programs.extend(branchy.map(|name| slp::suite::branchy_kernel(name, 1)));
    let (mut plain_shipped, mut refuted) = (0, 0);
    for program in &programs {
        for machine in ["intel", "amd"] {
            let machine = parse_machine(machine).unwrap();
            let global = SlpConfig::for_machine(machine.clone(), Strategy::Holistic).with_layout();
            let optimal = SlpConfig::for_machine(machine, Strategy::Optimal)
                .with_layout()
                .with_packer(OptimalPacker)
                .with_opt_budget(0, 500);
            for config in [global.clone().with_refined_deps(), global, optimal] {
                let single = |optimism| {
                    let no_deadline = Deadline::default();
                    compile_passes(
                        program,
                        &config,
                        &[optimism],
                        no_deadline,
                        &mut PhaseTimings::new(),
                    )
                    .expect("no deadline was set")
                };
                let (optimistic, plain) = (single(true), single(false));
                let cheaper = estimate_kernel_cost(&optimistic) <= estimate_kernel_cost(&plain);
                let reference = if cheaper { &optimistic } else { &plain };
                let what = format!(
                    "{} on {} under {} (refined: {})",
                    program.name(),
                    config.machine.name,
                    config.strategy,
                    config.refine_deps
                );
                assert_same(&slp::core::compile(program, &config), reference, &what);
                plain_shipped += usize::from(!cheaper);
                refuted += reference.stats.deps_refuted;
            }
        }
    }
    // Both arms of the arbitration, and the refutation tally, were seen.
    assert!(
        plain_shipped > 0 && refuted > 0,
        "{plain_shipped} / {refuted}"
    );
}
