//! Every workload, untraced and traced, on the smoke-sized inputs: all
//! output checks, count invariants and the trace reconciliation on.

use slp_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use slp_benchmark::{run_workload, Plan};

fn plan(seed: u64, trace: bool) -> Plan {
    Plan {
        seed,
        seconds: 0.2,
        trace,
        smoke: true,
    }
}

// One test, so that nothing else runs in this process while a traced
// pass takes its spans: a workload pins its threads to one CPU, and a
// second workload beside it would be waited for inside the first one's
// spans.
#[test]
fn every_workload_passes_its_checks_and_the_seed_decides_its_inputs() {
    for (name, _) in WORKLOADS {
        let untraced = run_workload(name, &plan(1, false)).expect("a workload");
        assert!(untraced.correct(), "{name}: {:?}", untraced.errors);
        assert!(untraced.attempted > 0);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{name}");
        for (metric, value) in &untraced.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name} {metric} = {value}"
            );
        }

        let traced = run_workload(name, &plan(1, true)).expect("a workload");
        assert!(traced.correct(), "{name}: {:?}", traced.errors);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0), "{name}");
        assert!(traced.metrics.iter().all(|m| m.1.is_finite()), "{name}");
        assert!(traced.metric("trace.jobs").unwrap() > 0.0);
        assert!(traced.metric("trace.unaccounted_share").unwrap() <= 0.10);

        // The same seed gives the same inputs, another seed others, and
        // the product's metric depends on neither.
        assert_eq!(traced.input_digest, untraced.input_digest, "{name}");
        let other = run_workload(name, &plan(2, false)).expect("a workload");
        assert!(other.correct(), "{name}: {:?}", other.errors);
        assert_ne!(other.input_digest, untraced.input_digest, "{name}");
        assert_eq!(
            other.metric("sim_speedup_geomean"),
            untraced.metric("sim_speedup_geomean"),
            "{name}"
        );
    }
    assert!(run_workload("no_such_workload", &plan(1, false)).is_none());
}
