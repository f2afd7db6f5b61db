//! End-to-end pins of the `slp-opt` branch-and-bound packing solver.
//!
//! Four guarantees, each over the sixteen-kernel suite:
//!
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
