//! End-to-end pins of the `slp-opt` branch-and-bound packing solver.
//!
//! Five guarantees, each over the sixteen-kernel suite:
//!
//! * **Identity** — node counts, proven gaps and shipped schedules equal
//!   the values recorded before the solver's internals were rebuilt for
//!   speed: a faster search must be the same search.
//! * **Determinism** — a node-capped solve (no wall deadline) produces
//!   bit-identical schedules across repeated runs and across batch
//!   worker-pool sizes.
//! * **Warm start** — the solver's incumbent starts at the holistic
//!   heuristic's packing, so `Strategy::Optimal` never ships a kernel
//!   with a worse estimated cost than `Strategy::Holistic`.
//! * **Anytime degradation** — an exhausted budget returns the best
//!   packing found with `opt_degraded` recorded all the way up through
//!   `CompileStats` and the batch `DriverReport`.
//! * **Validated output** — the symbolic translation validator proves
//!   every `Strategy::Optimal` kernel equivalent to its scalar source;
//!   the exact packer earns no exemption from the proof obligation.

mod common;

use slp::core::compile;
use slp::driver::DriverReport;
use slp::prelude::*;
use slp::tv::{validate, Budgets, Verdict};

fn machine() -> MachineConfig {
    MachineConfig::intel_dunnington()
}

/// A deterministic, test-sized solver budget: no wall deadline (verdicts
/// must not depend on machine load), a few hundred nodes.
fn optimal_config(max_nodes: u64) -> SlpConfig {
    SlpConfig::for_machine(machine(), Strategy::Optimal)
        .with_packer(OptimalPacker)
        .with_opt_budget(0, max_nodes)
}

fn schedule_signature(kernel: &CompiledKernel) -> String {
    format!("{:?} {:?}", kernel.schedules, kernel.stats)
}

/// One recorded solve: `opt_nodes`, `opt_gap_ppm`, `opt_degraded` and the
/// FNV-1a hash of the kernel's `{:?}`-printed block schedules.
type Solve = (u64, u64, bool, u64);

/// Per kernel (the sixteen of the suite, then the four branchy ones):
/// intel at node caps 500 and 20 000, then amd at the same two. Recorded
/// at PR 15 (commit c5e04d7), before partitions were shared down exclude
/// chains and the scheduler and estimator moved onto interned operand
/// keys; neither may change a node count, a bound or a lane.
#[rustfmt::skip]
const SOLVES: [(&str, [Solve; 4]); 20] = [
    ("cactusADM", [(500, 62187, true, 0x5448cfa2a8e0a9d0), (915, 0, false, 0x5448cfa2a8e0a9d0), (500, 135060, true, 0x5448cfa2a8e0a9d0), (1160, 0, false, 0x5448cfa2a8e0a9d0)]),
    ("soplex", [(7, 0, false, 0xc69eb054571d1bf6), (7, 0, false, 0xc69eb054571d1bf6), (7, 0, false, 0xc69eb054571d1bf6), (7, 0, false, 0xc69eb054571d1bf6)]),
    ("lbm", [(500, 173752, true, 0x2d4d4031e786f21e), (12111, 0, false, 0x2d4d4031e786f21e), (500, 235294, true, 0x2d4d4031e786f21e), (14781, 0, false, 0x2d4d4031e786f21e)]),
    ("milc", [(500, 273171, true, 0x70c03233d30dec23), (20000, 273171, true, 0x70c03233d30dec23), (500, 352941, true, 0x70c03233d30dec23), (20000, 352941, true, 0x70c03233d30dec23)]),
    ("povray", [(500, 199192, true, 0x99d392e446e88926), (20000, 161005, true, 0x7e324c770a1abe4a), (500, 261406, true, 0x99d392e446e88926), (20000, 212581, true, 0x7e324c770a1abe4a)]),
    ("gromacs", [(500, 369515, true, 0xe3c3a36bd711db3a), (20000, 369515, true, 0xe3c3a36bd711db3a), (500, 410638, true, 0x63a47e976fa0741e), (20000, 410638, true, 0x63a47e976fa0741e)]),
    ("calculix", [(189, 0, false, 0x577cf137b8d4132a), (189, 0, false, 0x577cf137b8d4132a), (198, 0, false, 0x577cf137b8d4132a), (198, 0, false, 0x577cf137b8d4132a)]),
    ("dealII", [(2, 0, false, 0x509840b897e65a65), (2, 0, false, 0x509840b897e65a65), (2, 0, false, 0x509840b897e65a65), (2, 0, false, 0x509840b897e65a65)]),
    ("wrf", [(578, 338346, true, 0x70fbe2bed5115704), (20078, 144231, true, 0x3bb52e29cbf8684a), (578, 364925, true, 0x245041e9a9407f96), (20078, 181990, true, 0x195149c8fc654140)]),
    ("namd", [(500, 218069, true, 0x9f5d0e0c9a4b23ba), (20000, 218069, true, 0x9f5d0e0c9a4b23ba), (500, 271429, true, 0x9f5d0e0c9a4b23ba), (20000, 271429, true, 0x9f5d0e0c9a4b23ba)]),
    ("ua", [(500, 189006, true, 0x2d4d4031e786f21e), (1911, 0, false, 0x2d4d4031e786f21e), (500, 270107, true, 0x2d4d4031e786f21e), (1991, 0, false, 0x2d4d4031e786f21e)]),
    ("ft", [(500, 263081, true, 0xa396eedbd88d7836), (18600, 0, false, 0xa396eedbd88d7836), (500, 333766, true, 0xa396eedbd88d7836), (19968, 0, false, 0xa396eedbd88d7836)]),
    ("bt", [(500, 222552, true, 0xa396eedbd88d7836), (20000, 69733, true, 0xa396eedbd88d7836), (500, 298153, true, 0xa396eedbd88d7836), (20000, 164908, true, 0xa396eedbd88d7836)]),
    ("sp", [(3, 0, false, 0xc69eb054571d1bf6), (3, 0, false, 0xc69eb054571d1bf6), (4, 0, false, 0xc69eb054571d1bf6), (4, 0, false, 0xc69eb054571d1bf6)]),
    ("mg", [(500, 142857, true, 0x2d4d4031e786f21e), (1335, 0, false, 0x2d4d4031e786f21e), (500, 206171, true, 0x2d4d4031e786f21e), (1748, 0, false, 0x2d4d4031e786f21e)]),
    ("cg", [(17, 0, false, 0x41dd5606452af780), (17, 0, false, 0x41dd5606452af780), (17, 0, false, 0x41dd5606452af780), (17, 0, false, 0x41dd5606452af780)]),
    ("abs", [(5, 0, false, 0x62636d2c4821df1c), (5, 0, false, 0x62636d2c4821df1c), (5, 0, false, 0x62636d2c4821df1c), (5, 0, false, 0x62636d2c4821df1c)]),
    ("clamp", [(13, 0, false, 0xbe1ada61e190490d), (13, 0, false, 0xbe1ada61e190490d), (39, 0, false, 0xbe1ada61e190490d), (39, 0, false, 0xbe1ada61e190490d)]),
    ("threshold", [(3, 0, false, 0xedcc1077d63aba6f), (3, 0, false, 0xedcc1077d63aba6f), (3, 0, false, 0xedcc1077d63aba6f), (3, 0, false, 0xedcc1077d63aba6f)]),
    ("masked_stencil", [(4, 0, false, 0xedcc1077d63aba6f), (4, 0, false, 0xedcc1077d63aba6f), (6, 0, false, 0xedcc1077d63aba6f), (6, 0, false, 0xedcc1077d63aba6f)]),
];

fn assert_solves_match(column: usize, machine: &str, max_nodes: u64) {
    let programs = common::suite_and_branchy();
    for (program, (name, recorded)) in programs.iter().zip(SOLVES) {
        let cfg = SlpConfig::for_machine(parse_machine(machine).unwrap(), Strategy::Optimal)
            .with_packer(OptimalPacker)
            .with_opt_budget(0, max_nodes);
        let kernel = compile(program, &cfg);
        let stats = &kernel.stats;
        assert_eq!(
            (
                stats.opt_nodes,
                stats.opt_gap_ppm,
                stats.opt_degraded,
                common::fnv64(&format!("{:?}", kernel.schedules))
            ),
            recorded[column],
            "{name} on {machine} under a {max_nodes}-node cap"
        );
    }
}

#[test]
fn solves_under_a_500_node_cap_match_the_recorded_search() {
    assert_solves_match(0, "intel", 500);
    assert_solves_match(2, "amd", 500);
}

/// A quarter of a million nodes: minutes without optimization, so it
/// runs with `cargo test --release` (CI's `opt-smoke` job) only.
#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release: 250k solver nodes")]
fn solves_under_a_20000_node_cap_match_the_recorded_search() {
    assert_solves_match(1, "intel", 20_000);
    assert_solves_match(3, "amd", 20_000);
}

#[test]
fn node_capped_solves_are_deterministic_across_runs() {
    let cfg = optimal_config(300);
    for (spec, program) in slp::suite::all(1) {
        let first = compile(&program, &cfg);
        let second = compile(&program, &cfg);
        assert_eq!(
            schedule_signature(&first),
            schedule_signature(&second),
            "{}: repeated node-capped solves disagreed",
            spec.name
        );
    }
}

#[test]
fn batch_solves_are_deterministic_across_thread_counts() {
    // The packer is deliberately left for the driver to install — this
    // doubles as the pin that `compile_source` auto-installs `slp-opt`
    // for `Strategy::Optimal` requests.
    let requests: Vec<CompileRequest> = slp::suite::all(1)
        .into_iter()
        .take(6)
        .map(|(spec, program)| CompileRequest {
            name: spec.name.to_string(),
            source: program.to_source(),
            config: SlpConfig::for_machine(machine(), Strategy::Optimal).with_opt_budget(0, 200),
            verify: VerifyLevel::None,
        })
        .collect();
    let signatures = |threads: usize| -> Vec<String> {
        compile_batch(
            &requests,
            None,
            &BatchConfig {
                threads,
                budget_ms: None,
                degrade: false,
            },
        )
        .into_iter()
        .map(|o| schedule_signature(&o.result.expect("suite kernel compiles").kernel))
        .collect()
    };
    assert_eq!(
        signatures(1),
        signatures(4),
        "solver output depends on batch worker count"
    );
}

#[test]
fn optimal_never_ships_a_costlier_packing_than_the_heuristic() {
    let opt_cfg = optimal_config(300);
    let heur_cfg = SlpConfig::for_machine(machine(), Strategy::Holistic);
    for (spec, program) in slp::suite::all(1) {
        let opt = estimate_kernel_cost(&compile(&program, &opt_cfg));
        let heur = estimate_kernel_cost(&compile(&program, &heur_cfg));
        assert!(
            opt <= heur + 1e-6,
            "{}: Optimal shipped {opt:.3} estimated cycles, Holistic {heur:.3} \
             — the warm start guarantees this never happens",
            spec.name
        );
    }
}

#[test]
fn exhausted_budget_degrades_and_is_recorded_in_the_driver_report() {
    // milc's unrolled blocks need hundreds of thousands of nodes to
    // exhaust (the opt-gap benchmark still hits its cap at 200k), so a
    // two-node cap is guaranteed to expire mid-search.
    let (spec, program) = slp::suite::all(1)
        .into_iter()
        .find(|(spec, _)| spec.name == "milc")
        .expect("milc is in the suite");
    let requests = vec![CompileRequest {
        name: spec.name.to_string(),
        source: program.to_source(),
        config: SlpConfig::for_machine(machine(), Strategy::Optimal).with_opt_budget(0, 2),
        verify: VerifyLevel::None,
    }];
    let outcomes = compile_batch(&requests, None, &BatchConfig::default());
    let stats = &outcomes[0].result.as_ref().expect("compiles").kernel.stats;
    assert!(stats.opt_degraded, "a 2-node cap must expire mid-search");
    assert!(
        stats.opt_gap_ppm > 0,
        "an expired solve cannot claim a proven-optimal (gap 0) packing"
    );

    let report = DriverReport::from_outcomes(&outcomes, 0, None);
    assert!(
        report.rows[0].stats.opt_degraded,
        "degradation lost in the report"
    );
    assert_eq!(report.rows[0].stats.opt_gap_ppm, stats.opt_gap_ppm);
    assert_eq!(report.rows[0].stats.opt_nodes, stats.opt_nodes);
    let rendered = report.summary_table();
    assert!(
        rendered.contains("optimal:") && rendered.contains("1 hit the solver budget"),
        "summary table must surface the budget hit:\n{rendered}"
    );
}

#[test]
fn whole_suite_optimal_output_is_proved_by_the_validator() {
    let cfg = optimal_config(300);
    let budgets = Budgets::default();
    for (spec, program) in slp::suite::all(1) {
        let kernel = compile(&program, &cfg);
        match validate(&program, &kernel, &machine(), &budgets) {
            Verdict::Proved(_) => {}
            other => panic!("{}: Optimal kernel not proved: {other:?}", spec.name),
        }
    }
}
