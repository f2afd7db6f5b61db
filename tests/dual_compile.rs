//! The Global+Layout dual compile against its definition: the shipped
//! kernel is the one two independent single-pass compiles — one
//! arbitrating as if the layout stage will run, one as if not — and the
//! `<=` on their estimates produce, although the pipeline pre-processes
//! once, builds each proposal once and finishes once where it can.

use slp::core::{compile_passes, estimate_kernel_cost, Deadline, PhaseTimings};
use slp::prelude::*;

mod common;

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
    let programs = common::suite_and_branchy();
    let mut plain_shipped = 0;
    for program in &programs {
        for machine in ["intel", "amd"] {
            let machine = parse_machine(machine).unwrap();
            let global = SlpConfig::for_machine(machine.clone(), Strategy::Holistic).with_layout();
            let optimal = SlpConfig::for_machine(machine, Strategy::Optimal)
                .with_layout()
                .with_packer(OptimalPacker)
                .with_opt_budget(0, 500);
            for config in [global, optimal] {
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
                    "{} on {} under {}",
                    program.name(),
                    config.machine.name,
                    config.strategy
                );
                assert_same(&slp::core::compile(program, &config), reference, &what);
                plain_shipped += usize::from(!cheaper);
            }
        }
    }
    // Both arms of the arbitration were seen.
    assert!(plain_shipped > 0, "{plain_shipped}");
}

/// One FNV per machine/layout column over the `{:?}` schedules Global
/// gives `seeds` generated programs and the validating members of
/// `ir_case(0, 0..cases)`, and how many compiles that was.
fn generated_schedule_hashes(seeds: u64, cases: u64) -> ([u64; 4], usize) {
    let mut programs: Vec<Program> = (0..seeds)
        .map(|seed| slp::suite::random_program(seed, &Default::default()))
        .collect();
    let cases = (0..cases).map(|n| slp_fuzz::genir::ir_case(0, n));
    programs.extend(cases.filter(|p| p.validate().is_ok()));
    let mut columns = [0; 4];
    for (column, hash) in columns.iter_mut().enumerate() {
        let machine = parse_machine(["intel", "amd"][column / 2]).unwrap();
        let mut config = SlpConfig::for_machine(machine, Strategy::Holistic);
        config.layout = column % 2 == 1;
        let schedules = |p| format!("{:?}\n", slp::core::compile(p, &config).schedules);
        *hash = common::fnv64(&programs.iter().map(schedules).collect::<String>());
    }
    (columns, 4 * programs.len())
}

/// The scheduler plans on the emission walk's live superword set
/// (`slp_core`'s `LivePacks`), not on one of its own with other rules.
/// Recorded on the tree that still had the second set: the schedules of
/// generated programs, integer-typed ones among them, did not move.
/// (intel, intel+layout, amd, amd+layout.)
#[test]
fn generated_program_schedules_match_the_two_set_scheduler() {
    let (columns, compiled) = generated_schedule_hashes(60, 120);
    assert_eq!(compiled, 648);
    assert_eq!(
        columns,
        [
            0xbc29e099a7b90a6f,
            0x6f28b47d806f0aa5,
            0xaf9baebf72a8f432,
            0x0551fda522f7cf34,
        ]
    );
}
