//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` states the
//! same tables for the driver; a unit test keeps the two equal.

use std::collections::BTreeMap;

use slp_driver::json::Json;

/// A workload: its name and why it was chosen.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "compile_cold",
        "no cache: every job pays lex to execution; core (grouping, scheduling) is most of the job",
    ),
    (
        "execute_hot",
        "kernels compiled in set-up at scale 32: the job is VM code generation, translation and run; core is 0",
    ),
    (
        "solve_prove",
        "Strategy::Optimal under a node cap plus symbolic proof: the only workload where opt and tv do the work",
    ),
    (
        "serve_warm",
        "TCP service, every request a cache hit: wire, JSON, gates, fingerprint, cache read and encoding; core is 0",
    ),
    (
        "serve_cold",
        "TCP service, every request unique with 10 % errors: cache writes, evictions and error paths behind the wire",
    ),
];

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse before
    /// it counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p90_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_job",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_speedup_geomean",
        unit: "ratio",
        higher_is_better: true,
        bound: 1e-9,
    },
];

/// A per-layer metric: name, unit, whether higher is better.
pub type PerLayer = (&'static str, &'static str, bool);

/// The per-layer metrics of the traced pass. Times are means per job
/// in µs and counts are means per job unless the README says otherwise;
/// a metric a workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 69] = [
    ("lang.lex_us", "us", false),
    ("lang.parse_us", "us", false),
    ("lang.lower_us", "us", false),
    ("lang.tokens", "count", false),
    ("ir.validate_us", "us", false),
    ("ir.stmts", "count", false),
    ("analyze.certify_us", "us", false),
    ("core.compile_us", "us", false),
    ("core.unroll_us", "us", false),
    ("core.alignment_us", "us", false),
    ("core.grouping_us", "us", false),
    ("core.scheduling_us", "us", false),
    ("core.layout_us", "us", false),
    ("core.safety_us", "us", false),
    ("core.self_us", "us", false),
    ("core.stmts_unrolled", "count", false),
    ("core.superwords", "count", true),
    ("core.vectorized_stmt_share", "fraction", true),
    ("core.replications", "count", true),
    ("core.est_over_sim_cycles_geomean", "ratio", false),
    ("opt.solve_us", "us", false),
    ("opt.nodes", "count", false),
    ("opt.nodes_per_s", "1/s", true),
    ("opt.proved_share", "fraction", true),
    ("verify.static_us", "us", false),
    ("tv.prove_us", "us", false),
    ("tv.proved_share", "fraction", true),
    ("vm.codegen_us", "us", false),
    ("vm.codegen_insts", "count", false),
    ("vm.translate_us", "us", false),
    ("vm.translate_ops", "count", false),
    ("vm.fused_ops", "count", true),
    ("vm.unchecked_access_share", "fraction", true),
    ("vm.seed_us", "us", false),
    ("vm.exec_us", "us", false),
    ("vm.sim_cycles", "count", false),
    ("vm.sim_minsts_per_s", "1/s", true),
    ("driver.compile_source_us", "us", false),
    ("driver.compile_guarded_us", "us", false),
    ("driver.fingerprint_us", "us", false),
    ("driver.cache_get_hit_us", "us", false),
    ("driver.cache_get_miss_us", "us", false),
    ("driver.cache_put_us", "us", false),
    ("driver.cache_hit_share", "fraction", true),
    ("driver.cache_evictions", "count", false),
    ("driver.codec_encode_us", "us", false),
    ("driver.codec_decode_us", "us", false),
    ("driver.codec_bytes", "count", false),
    ("serve.parse_request_us", "us", false),
    ("serve.certify_source_us", "us", false),
    ("serve.handle_line_hit_us", "us", false),
    ("serve.handle_line_miss_us", "us", false),
    ("serve.encode_us", "us", false),
    ("serve.ping_rtt_us", "us", false),
    ("serve.wire_us", "us", false),
    ("serve.request_bytes", "count", false),
    ("serve.response_bytes", "count", false),
    ("serve.coalesced_share", "fraction", true),
    ("serve.rejected_share", "fraction", false),
    ("client.job_p99_us", "us", false),
    ("client.job_max_us", "us", false),
    ("client.samples", "count", true),
    ("client.failed_share", "fraction", false),
    ("trace.jobs", "count", true),
    ("trace.job_us", "us", false),
    ("trace.unaccounted_share", "fraction", false),
    ("trace.overhead_share", "fraction", false),
    ("harness.oracle_s", "s", false),
    ("harness.pass_spread", "fraction", false),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// Named values gathered during a pass; a missing name reads 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The value of `name`, if it was ever set.
    pub fn try_get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Values) {
        for (name, v) in &other.0 {
            self.add(name, *v);
        }
    }
}

/// What one invocation on one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload.
    pub workload: &'static str,
    /// Digest of every input the system was fed.
    pub input_digest: u64,
    /// Jobs attempted in the measured phases.
    pub attempted: u64,
    /// Jobs that errored when success was expected, answered with the
    /// wrong code when an error was expected, or failed the oracle.
    pub failed: u64,
    /// Failed checks that are not a single job's (count drift between
    /// rounds, counter invariants, trace reconciliation), and the first
    /// failed job's description.
    pub errors: Vec<String>,
    /// Every end-to-end metric (`--trace 0`) or every per-layer metric
    /// (`--trace 1`), in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The untraced phase in one printed line.
    pub phase: String,
}

impl RunResult {
    /// Whether every output was correct and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The result line the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let entry = Json::obj([
                    ("value", Json::float(value)),
                    ("unit", Json::str(unit_of(name))),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(list: &Json) -> Vec<String> {
        list.array()
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::string)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let b = benchmark_json();
        let workloads = b.get("workloads").expect("workloads");
        assert_eq!(names(workloads), WORKLOADS.map(|w| w.0.to_string()));
        for (entry, (_, why)) in workloads.array().unwrap().iter().zip(WORKLOADS) {
            assert_eq!(entry.get("why").and_then(Json::string), Some(why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let e2e = b.get("end_to_end").expect("end_to_end").array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::string), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::string), Some(m.unit));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry.get("better").and_then(Json::string), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = b.get("per_layer").expect("per_layer").array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::string), Some(m.0));
            assert_eq!(entry.get("unit").and_then(Json::string), Some(m.1));
            let better = if m.2 { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::string), Some(better));
        }
        assert_eq!(
            b.get("paths").map(names_of_strings),
            Some(vec!["benchmark".to_string()])
        );
    }

    fn names_of_strings(list: &Json) -> Vec<String> {
        list.array()
            .expect("array")
            .iter()
            .map(|s| s.string().expect("string").to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_within_the_schema() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(WORKLOADS.iter().map(|w| w.0));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &all {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "compile_cold",
            input_digest: 1,
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            metrics: vec![("setup_s", 0.25), ("jobs_per_s", 1234.5)],
            phase: String::new(),
        };
        assert_eq!(
            r.to_json().to_compact(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"jobs_per_s\":{\"value\":1234.5,\"unit\":\"1/s\"}}}"
        );
        let bad = RunResult {
            errors: vec!["drift".into()],
            ..r
        };
        assert!(!bad.correct());
    }
}
