//! End-to-end pins of the `slp-opt` branch-and-bound packing solver.
//!
//! Six guarantees, each over the sixteen-kernel suite:
//!
//! * **Identity** — node counts, proven gaps and shipped schedules equal
//!   the values recorded before the solver's internals were rebuilt for
//!   speed: a faster search must be the same search.
//! * **Confirmed wins** — in the same pass, every win the solver
//!   *proves* over the heuristic holds in VM-measured cycles, the anytime
//!   claims that do not are a pinned list, and both kernels match the
//!   scalar reference.
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
use slp::verify::{validate, Budgets, Verdict};

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
/// keys; neither may change a node count, a bound or a lane. Node counts
/// and gaps were re-recorded when the bound became sound (a singleton
/// counts as packable while any legal merge touches it, excluded or not):
/// no cap-500 schedule moved, and povray's cap-20 000 solves ship their
/// cap-500 schedule.
#[rustfmt::skip]
const SOLVES: [(&str, [Solve; 4]); 20] = [
    ("cactusADM", [(500, 224674, true, 0x5448cfa2a8e0a9d0), (1215, 0, false, 0x5448cfa2a8e0a9d0), (500, 277521, true, 0x5448cfa2a8e0a9d0), (1215, 0, false, 0x5448cfa2a8e0a9d0)]),
    ("soplex", [(13, 0, false, 0xc69eb054571d1bf6), (13, 0, false, 0xc69eb054571d1bf6), (13, 0, false, 0xc69eb054571d1bf6), (13, 0, false, 0xc69eb054571d1bf6)]),
    ("lbm", [(500, 173752, true, 0x2d4d4031e786f21e), (15279, 0, false, 0x2d4d4031e786f21e), (500, 235294, true, 0x2d4d4031e786f21e), (15279, 0, false, 0x2d4d4031e786f21e)]),
    ("milc", [(500, 273171, true, 0x70c03233d30dec23), (20000, 273171, true, 0x70c03233d30dec23), (500, 352941, true, 0x70c03233d30dec23), (20000, 352941, true, 0x70c03233d30dec23)]),
    ("povray", [(500, 199192, true, 0x99d392e446e88926), (20000, 199192, true, 0x99d392e446e88926), (500, 261406, true, 0x99d392e446e88926), (20000, 261406, true, 0x99d392e446e88926)]),
    ("gromacs", [(500, 369515, true, 0xe3c3a36bd711db3a), (20000, 369515, true, 0xe3c3a36bd711db3a), (500, 410638, true, 0x63a47e976fa0741e), (20000, 410638, true, 0x63a47e976fa0741e)]),
    ("calculix", [(199, 0, false, 0x577cf137b8d4132a), (199, 0, false, 0x577cf137b8d4132a), (199, 0, false, 0x577cf137b8d4132a), (199, 0, false, 0x577cf137b8d4132a)]),
    ("dealII", [(3, 0, false, 0x509840b897e65a65), (3, 0, false, 0x509840b897e65a65), (3, 0, false, 0x509840b897e65a65), (3, 0, false, 0x509840b897e65a65)]),
    ("wrf", [(579, 361298, true, 0x70fbe2bed5115704), (20079, 304888, true, 0x3bb52e29cbf8684a), (579, 386567, true, 0x245041e9a9407f96), (20079, 333712, true, 0x195149c8fc654140)]),
    ("namd", [(500, 218069, true, 0x9f5d0e0c9a4b23ba), (20000, 218069, true, 0x9f5d0e0c9a4b23ba), (500, 271429, true, 0x9f5d0e0c9a4b23ba), (20000, 271429, true, 0x9f5d0e0c9a4b23ba)]),
    ("ua", [(500, 310241, true, 0x2d4d4031e786f21e), (1999, 0, false, 0x2d4d4031e786f21e), (500, 375335, true, 0x2d4d4031e786f21e), (1999, 0, false, 0x2d4d4031e786f21e)]),
    ("ft", [(500, 302326, true, 0xa396eedbd88d7836), (19999, 0, false, 0xa396eedbd88d7836), (500, 366234, true, 0xa396eedbd88d7836), (19999, 0, false, 0xa396eedbd88d7836)]),
    ("bt", [(500, 222552, true, 0xa396eedbd88d7836), (20000, 222552, true, 0xa396eedbd88d7836), (500, 298153, true, 0xa396eedbd88d7836), (20000, 298153, true, 0xa396eedbd88d7836)]),
    ("sp", [(7, 0, false, 0xc69eb054571d1bf6), (7, 0, false, 0xc69eb054571d1bf6), (7, 0, false, 0xc69eb054571d1bf6), (7, 0, false, 0xc69eb054571d1bf6)]),
    ("mg", [(500, 279570, true, 0x2d4d4031e786f21e), (1999, 0, false, 0x2d4d4031e786f21e), (500, 330996, true, 0x2d4d4031e786f21e), (1999, 0, false, 0x2d4d4031e786f21e)]),
    ("cg", [(39, 0, false, 0x41dd5606452af780), (39, 0, false, 0x41dd5606452af780), (39, 0, false, 0x41dd5606452af780), (39, 0, false, 0x41dd5606452af780)]),
    ("abs", [(15, 0, false, 0x62636d2c4821df1c), (15, 0, false, 0x62636d2c4821df1c), (15, 0, false, 0x62636d2c4821df1c), (15, 0, false, 0x62636d2c4821df1c)]),
    ("clamp", [(111, 0, false, 0xbe1ada61e190490d), (111, 0, false, 0xbe1ada61e190490d), (111, 0, false, 0xbe1ada61e190490d), (111, 0, false, 0xbe1ada61e190490d)]),
    ("threshold", [(7, 0, false, 0xedcc1077d63aba6f), (7, 0, false, 0xedcc1077d63aba6f), (7, 0, false, 0xedcc1077d63aba6f), (7, 0, false, 0xedcc1077d63aba6f)]),
    ("masked_stencil", [(7, 0, false, 0xedcc1077d63aba6f), (7, 0, false, 0xedcc1077d63aba6f), (7, 0, false, 0xedcc1077d63aba6f), (7, 0, false, 0xedcc1077d63aba6f)]),
];

/// Solves every recorded program on both machines under `max_nodes` and
/// holds each solve to two things: the recorded search (`column` is
/// intel's in [`SOLVES`], amd's is two further on), and the VM.
///
/// The solver's wins are claims about *estimated* cycles, so each one is
/// executed: a *proven* win (the search exhausted, so the cheaper
/// packing is optimal under the cost model) must not lose measured
/// cycles to the heuristic; an *anytime* claim from a budget-hit solve
/// was never a proof, so the ones that fail confirmation are pinned
/// rather than forbidden. Both kernels must also match the scalar
/// reference.
fn assert_solves_match(column: usize, max_nodes: u64) {
    const EPS: f64 = 1e-9;
    // gromacs on amd ships the same packing at node caps 500, 20 000 and
    // 200 000: estimated 18 048 < 20 083 cycles, measured 18 633 > 18 436.
    // ROADMAP item 3 (calibration) wants this list empty.
    const UNCONFIRMED_ANYTIME: [&str; 1] = ["gromacs/amd"];
    let programs = common::suite_and_branchy();
    let suite_kernels = slp::suite::catalog().len();
    let mut unconfirmed = Vec::new();
    // Suite kernels the solver improved (VM-confirmed) or proved
    // heuristic-optimal on some machine. The branchy four close in a
    // handful of nodes and would make the floor below vacuous.
    let mut scored = std::collections::BTreeSet::new();
    for (column, machine) in [(column, "intel"), (column + 2, "amd")] {
        let machine_cfg = parse_machine(machine).unwrap();
        let heur_cfg = SlpConfig::for_machine(machine_cfg.clone(), Strategy::Holistic);
        let opt_cfg = SlpConfig::for_machine(machine_cfg.clone(), Strategy::Optimal)
            .with_packer(OptimalPacker)
            .with_opt_budget(0, max_nodes);
        for (i, (program, (name, recorded))) in programs.iter().zip(SOLVES).enumerate() {
            let label = format!("{name}/{machine}");
            let opt = compile(program, &opt_cfg);
            let stats = &opt.stats;
            assert_eq!(
                (
                    stats.opt_nodes,
                    stats.opt_gap_ppm,
                    stats.opt_degraded,
                    common::fnv64(&format!("{:?}", opt.schedules))
                ),
                recorded[column],
                "{label} under a {max_nodes}-node cap"
            );

            let heur = compile(program, &heur_cfg);
            for kernel in [&heur, &opt] {
                let diffs = slp::verify::check_differential(program, kernel);
                assert!(diffs.is_empty(), "{label}: {diffs:?}");
            }
            let cycles =
                |k: &CompiledKernel| execute(k, &machine_cfg).unwrap().stats.metrics.cycles;
            let (est_opt, est_heur) = (estimate_kernel_cost(&opt), estimate_kernel_cost(&heur));
            let (cycles_opt, cycles_heur) = (cycles(&opt), cycles(&heur));
            let proved = !stats.opt_degraded && stats.opt_gap_ppm == 0;
            let claimed = est_opt < est_heur - EPS;
            let confirmed = claimed && cycles_opt <= cycles_heur + EPS;
            if claimed && !confirmed {
                assert!(
                    !proved,
                    "{label}: proven win estimated {est_opt} < {est_heur} \
                     but measured {cycles_opt} > {cycles_heur} cycles"
                );
                unconfirmed.push(label);
            }
            if i < suite_kernels && (confirmed || proved) {
                scored.insert(name);
            }
        }
    }
    assert_eq!(
        unconfirmed, UNCONFIRMED_ANYTIME,
        "anytime claims the VM does not confirm under a {max_nodes}-node cap"
    );
    assert!(
        scored.len() >= 3,
        "the solver improved or proved only {scored:?} under a {max_nodes}-node cap"
    );
}

#[test]
fn solves_under_a_500_node_cap_match_the_recorded_search() {
    assert_solves_match(0, 500);
}

/// A quarter of a million nodes: minutes without optimization, so it
/// runs with `cargo test --release` (CI's `opt-smoke` job) only.
#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release: 250k solver nodes")]
fn solves_under_a_20000_node_cap_match_the_recorded_search() {
    assert_solves_match(1, 20_000);
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
    // exhaust (a 200 000-node cap still expires), so a two-node cap is
    // guaranteed to expire mid-search.
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
