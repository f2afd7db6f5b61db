//! From a traced pass to the per-layer metrics.
//!
//! A workload records spans (named after the metric they feed, minus
//! its `_us`) and adds raw sums to a [`Values`]; [`finish`] turns sums
//! into means and shares, and [`assemble`] lays every per-layer metric
//! out in table order.

use slp_core::{CompileStats, Phase, PhaseTimings, Strategy};

use crate::measure::Summary;
use crate::metrics::{Values, PER_LAYER};
use crate::trace::Totals;

/// Metrics accumulated as sums over the traced jobs and reported as
/// means per job.
const PER_JOB_SUMS: [&str; 19] = [
    "lang.tokens",
    "ir.stmts",
    "core.unroll_us",
    "core.alignment_us",
    "core.grouping_us",
    "core.scheduling_us",
    "core.layout_us",
    "core.safety_us",
    "core.stmts_unrolled",
    "core.superwords",
    "core.replications",
    "opt.solve_us",
    "opt.nodes",
    "vm.codegen_insts",
    "vm.translate_ops",
    "vm.fused_ops",
    "vm.sim_cycles",
    "serve.request_bytes",
    "serve.response_bytes",
];

/// Adds one compilation's counts and phase split.
pub fn add_compile(
    v: &mut Values,
    strategy: Strategy,
    stats: &CompileStats,
    timings: &PhaseTimings,
) {
    let us = |phase| timings.nanos(phase) as f64 / 1e3;
    v.add("core.unroll_us", us(Phase::Unroll));
    v.add("core.alignment_us", us(Phase::Alignment));
    v.add("core.grouping_us", us(Phase::Grouping));
    v.add("core.scheduling_us", us(Phase::Scheduling));
    v.add("core.layout_us", us(Phase::Layout));
    v.add("core.safety_us", us(Phase::Safety));
    v.add("opt.solve_us", us(Phase::Solve));
    v.add("core.stmts_unrolled", stats.stmts as f64);
    v.add("core.superwords", stats.superwords as f64);
    v.add("core.replications", stats.replications as f64);
    v.add("raw.vectorized_stmts", stats.vectorized_stmts as f64);
    if strategy == Strategy::Optimal {
        v.add("opt.nodes", stats.opt_nodes as f64);
        v.add("raw.opt_jobs", 1.0);
        if !stats.opt_degraded {
            v.add("raw.opt_proved", 1.0);
        }
    }
}

/// Σ of the `core` phases [`add_compile`] recorded, µs (the solver's
/// phase is `opt`'s, not `core`'s).
pub fn core_phase_sum_us(v: &Values) -> f64 {
    [
        "core.unroll_us",
        "core.alignment_us",
        "core.grouping_us",
        "core.scheduling_us",
        "core.layout_us",
        "core.safety_us",
    ]
    .iter()
    .map(|name| v.get(name))
    .sum()
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Derives means and shares from the raw sums of a traced pass and adds
/// the figures every workload reports the same way. Values a workload
/// set under a metric's own name are kept.
pub fn finish(t: &Totals, v: &mut Values, untraced: &Summary, oracle_s: f64, failed_share: f64) {
    let jobs = t.jobs() as f64;
    // Shares first: they divide raw sums by raw sums.
    v.set(
        "core.vectorized_stmt_share",
        share(v.get("raw.vectorized_stmts"), v.get("core.stmts_unrolled")),
    );
    v.set(
        "opt.nodes_per_s",
        share(v.get("opt.nodes"), v.get("opt.solve_us") / 1e6),
    );
    v.set(
        "opt.proved_share",
        share(v.get("raw.opt_proved"), v.get("raw.opt_jobs")),
    );
    v.set(
        "tv.proved_share",
        share(v.get("raw.tv_proved"), v.get("raw.tv_jobs")),
    );
    v.set(
        "vm.unchecked_access_share",
        share(v.get("raw.unchecked_accesses"), v.get("raw.accesses")),
    );
    // Simulated instructions per µs of engine wall time = M inst/s.
    v.set(
        "vm.sim_minsts_per_s",
        share(v.get("raw.sim_insts"), t.micros("vm.exec")),
    );
    if v.try_get("core.compile_us").is_none() {
        let compile = t.micros("core.compile");
        v.set("core.compile_us", share(compile, jobs));
        // `compile_timed` runs the solver inside the same call.
        let phases = core_phase_sum_us(v) + v.get("opt.solve_us");
        v.set("core.self_us", share((compile - phases).max(0.0), jobs));
    }
    for name in PER_JOB_SUMS {
        v.set(name, share(v.get(name), jobs));
    }
    // `parse` lexes the source itself; the separately timed `lex` is
    // taken out of it.
    let parse = (t.micros("lang.parse") - t.micros("lang.lex")).max(0.0);
    v.set("lang.parse_us", share(parse, jobs));
    // Calls only some jobs make: mean over the calls made.
    for name in [
        "driver.cache_get_hit_us",
        "driver.cache_get_miss_us",
        "driver.codec_encode_us",
        "driver.codec_decode_us",
        "serve.handle_line_hit_us",
        "serve.handle_line_miss_us",
        "serve.ping_rtt_us",
    ] {
        let span = name.strip_suffix("_us").expect("a time metric");
        v.set(name, t.mean_micros(span));
    }
    v.set(
        "driver.codec_bytes",
        share(
            v.get("driver.codec_bytes"),
            t.count.get("driver.codec_encode").copied().unwrap_or(0) as f64,
        ),
    );

    let traced_job_us = share(t.job_nanos as f64 / 1e3, jobs);
    v.set("trace.jobs", jobs);
    v.set("trace.job_us", traced_job_us);
    if v.try_get("trace.unaccounted_share").is_none() {
        v.set("trace.unaccounted_share", t.unaccounted_share());
    }
    v.set(
        "trace.overhead_share",
        share(traced_job_us, untraced.mean_job_us) - 1.0,
    );
    v.set("client.job_p99_us", untraced.job_p99_us);
    v.set("client.job_max_us", untraced.job_max_us);
    v.set("client.samples", untraced.jobs as f64);
    v.set("client.failed_share", failed_share);
    v.set("harness.oracle_s", oracle_s);
    v.set("harness.pass_spread", untraced.pass_spread);
}

/// Every per-layer metric in table order: the value set under the
/// metric's name, else the per-job mean of the span named like the
/// metric without its `_us`, else 0.
pub fn assemble(t: &Totals, v: &Values) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let value = v.try_get(name).unwrap_or_else(|| {
                name.strip_suffix("_us")
                    .map_or(0.0, |span| t.micros_per_job(span))
            });
            (name, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Fastest, Latencies, Summary};
    use crate::trace::{Span, JOB};

    #[test]
    fn spans_and_sums_become_per_job_metrics() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("lang.lex", None, 0, 1_000),
            span(JOB, None, 1_000, 21_000),
            span("lang.parse", Some(1), 1_000, 4_000),
            span("core.compile", Some(1), 4_000, 14_000),
            span("vm.exec", Some(1), 14_000, 20_000),
            span("lang.lex", None, 21_000, 22_000),
            span(JOB, None, 22_000, 42_000),
            span("lang.parse", Some(6), 22_000, 25_000),
            span("core.compile", Some(6), 25_000, 35_000),
            span("vm.exec", Some(6), 35_000, 41_000),
        ];
        let t = Totals::of(&spans);
        let mut v = Values::default();
        v.add("core.grouping_us", 12.0);
        v.add("core.superwords", 7.0);
        v.add("core.stmts_unrolled", 40.0);
        v.add("raw.vectorized_stmts", 10.0);
        v.add("raw.sim_insts", 2400.0);
        let mut fastest = Fastest::new(1);
        fastest.record(0, 16_000, 0);
        let mut all = Latencies::default();
        all.record(16_000);
        all.record(16_000);
        let untraced = Summary::offline(&fastest, &[], &all);
        finish(&t, &mut v, &untraced, 0.5, 0.0);
        let m: std::collections::BTreeMap<_, _> = assemble(&t, &v).into_iter().collect();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["lang.lex_us"], 1.0);
        assert_eq!(m["lang.parse_us"], 2.0);
        assert_eq!(m["core.compile_us"], 10.0);
        assert_eq!(m["core.grouping_us"], 6.0);
        assert_eq!(m["core.self_us"], 4.0);
        assert_eq!(m["core.superwords"], 3.5);
        assert_eq!(m["core.vectorized_stmt_share"], 0.25);
        assert_eq!(m["vm.exec_us"], 6.0);
        assert_eq!(m["vm.sim_minsts_per_s"], 200.0);
        assert_eq!(m["trace.job_us"], 20.0);
        assert_eq!(m["trace.overhead_share"], 0.25);
        assert!((m["trace.unaccounted_share"] - 0.05).abs() < 1e-12);
        assert_eq!(m["harness.oracle_s"], 0.5);
        assert_eq!(m["tv.prove_us"], 0.0);
        assert_eq!(m["serve.wire_us"], 0.0);
    }
}
