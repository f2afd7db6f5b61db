//! `run`: every workload, four untraced passes and one traced pass,
//! each (pass, workload) in a child process of its own so that
//! `peak_rss_mb`, allocator state and caches are per workload.
//!
//! Passes interleave the workloads (`A B C D E A B C D E …`), so a slow
//! minute of the machine hits every workload once, not one workload
//! four times. A workload's metrics are taken together from its
//! quietest pass; min, median and max across passes are printed beside
//! them and written to the result file `compare` reads.

use std::path::Path;
use std::process::Command;

use slp_driver::json::Json;

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;

/// Untraced passes of `run`.
pub const RUN_PASSES: usize = 4;

/// One child invocation's result line.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digest: String,
}

fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing (exit {})", output.status))?;
    let json = Json::parse(last).map_err(|e| format!("{workload} result line: {e:?}"))?;
    let metrics = match json.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::f64).unwrap_or(f64::NAN);
                (name.clone(), value)
            })
            .collect(),
        _ => return Err(format!("{workload} result line has no metrics")),
    };
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("input_digest "))
        .unwrap_or_default()
        .to_string();
    for line in stdout.lines().filter(|l| l.starts_with("error: ")) {
        eprintln!("{workload}: {line}");
    }
    Ok(Child {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        attempted: json.get("attempted").and_then(Json::u64).unwrap_or(0),
        failed: json.get("failed").and_then(Json::u64).unwrap_or(0),
        metrics,
        digest,
    })
}

fn value_of(child: &Child, name: &str) -> f64 {
    child
        .metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(f64::NAN, |m| m.1)
}

/// Share of the mean traced job each layer's calls take, from the
/// per-layer metrics of one workload.
pub fn layer_shares(workload: &str, layer: &dyn Fn(&str) -> f64) -> Vec<(&'static str, f64)> {
    let job = layer("trace.job_us");
    let sum = |names: &[&str]| names.iter().map(|n| layer(n)).sum::<f64>() / job;
    if workload.starts_with("serve") {
        vec![
            ("serve.parse_request", sum(&["serve.parse_request_us"])),
            ("serve.certify_source", sum(&["serve.certify_source_us"])),
            ("driver.fingerprint", sum(&["driver.fingerprint_us"])),
            (
                "driver.compile_guarded",
                sum(&["driver.compile_guarded_us"]),
            ),
            (
                "  of which compile_source",
                sum(&["driver.compile_source_us"]),
            ),
            ("  of which core", sum(&["core.compile_us"])),
            ("serve.encode", sum(&["serve.encode_us"])),
            ("wire (round trip - handle_line)", sum(&["serve.wire_us"])),
            ("unaccounted", layer("trace.unaccounted_share")),
        ]
    } else {
        vec![
            // `parse` lexes; its span is `lex` + the parser proper.
            (
                "lang",
                sum(&["lang.lex_us", "lang.parse_us", "lang.lower_us"]),
            ),
            ("ir", sum(&["ir.validate_us"])),
            (
                "core",
                layer("core.compile_us") / job - sum(&["opt.solve_us"]),
            ),
            ("opt", sum(&["opt.solve_us"])),
            ("verify", sum(&["verify.static_us"])),
            ("tv", sum(&["tv.prove_us"])),
            (
                "vm",
                sum(&[
                    "vm.codegen_us",
                    "vm.translate_us",
                    "vm.seed_us",
                    "vm.exec_us",
                ]),
            ),
            ("  of which vm.exec", sum(&["vm.exec_us"])),
            ("driver", sum(&["driver.fingerprint_us"])),
            ("unaccounted", layer("trace.unaccounted_share")),
        ]
    }
}

/// Runs everything, prints every metric and writes the result file.
/// Returns whether every check of every child passed.
pub fn run(seed: u64, seconds: u64, out: &Path) -> Result<bool, String> {
    let mut untraced: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for pass in 0..RUN_PASSES {
        for (w, (name, _)) in WORKLOADS.iter().enumerate() {
            eprintln!("pass {}/{RUN_PASSES}: {name}", pass + 1);
            untraced[w].push(child(name, seed, seconds, false)?);
        }
    }
    let mut all_correct = true;
    let mut file = Vec::new();
    for (w, (name, why)) in WORKLOADS.iter().enumerate() {
        eprintln!("traced pass: {name}");
        let traced = child(name, seed, seconds, true)?;
        let passes = &untraced[w];
        let quietest = passes
            .iter()
            .max_by(|a, b| value_of(a, "jobs_per_s").total_cmp(&value_of(b, "jobs_per_s")))
            .expect("at least one pass");
        let attempted: u64 = passes.iter().map(|c| c.attempted).sum::<u64>() + traced.attempted;
        let failed: u64 = passes.iter().map(|c| c.failed).sum::<u64>() + traced.failed;
        let mut correct = traced.correct && passes.iter().all(|c| c.correct);

        println!("\n== {name}: {why}");
        println!(
            "   input_digest {}   jobs attempted {attempted}   failed {failed}",
            quietest.digest
        );
        println!(
            "   {:<22} {:>14} {:<6} {:>14} {:>14} {:>14}  bound",
            "end-to-end", "quietest pass", "unit", "min", "median", "max"
        );
        let mut e2e = Vec::new();
        for m in END_TO_END {
            let values: Vec<f64> = passes.iter().map(|c| value_of(c, m.name)).collect();
            let value = value_of(quietest, m.name);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            println!(
                "   {:<22} {:>14.4} {:<6} {:>14.4} {:>14.4} {:>14.4}  {}",
                m.name,
                value,
                m.unit,
                min,
                median(&values),
                max,
                m.bound
            );
            // Counts must repeat exactly in every pass.
            if m.name == "sim_speedup_geomean" && min != max {
                println!("   error: sim_speedup_geomean differs between passes");
                correct = false;
            }
            e2e.push((
                m.name.to_string(),
                Json::obj([
                    ("value", Json::float(value)),
                    ("unit", Json::str(m.unit)),
                    (
                        "passes",
                        Json::Arr(values.into_iter().map(Json::float).collect()),
                    ),
                ]),
            ));
        }
        if passes.iter().any(|c| c.digest != quietest.digest) {
            println!("   error: input_digest differs between passes");
            correct = false;
        }

        println!("   per-layer (traced pass)");
        let mut layers = Vec::new();
        for (metric, unit, _) in PER_LAYER {
            let value = value_of(&traced, metric);
            println!("   {metric:<34} {value:>16.4} {unit}");
            layers.push((
                metric.to_string(),
                Json::obj([("value", Json::float(value)), ("unit", Json::str(unit))]),
            ));
        }
        println!("   share of the mean traced job");
        for (label, share) in layer_shares(name, &|metric| value_of(&traced, metric)) {
            println!("   {label:<34} {:>15.1} %", share * 100.0);
        }
        all_correct &= correct;
        file.push((
            name.to_string(),
            Json::obj([
                ("input_digest", Json::str(quietest.digest.clone())),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::num(attempted)),
                ("failed", Json::num(failed)),
                ("end_to_end", Json::Obj(e2e)),
                ("per_layer", Json::Obj(layers)),
            ]),
        ));
    }
    let result = Json::obj([
        ("seed", Json::num(seed)),
        ("seconds", Json::num(seconds)),
        ("passes", Json::num(RUN_PASSES as u64)),
        ("workloads", Json::Obj(file)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, result.to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult file: {}", out.display());
    println!(
        "{}",
        if all_correct {
            "all checks passed"
        } else {
            "error: some checks failed"
        }
    );
    Ok(all_correct)
}
