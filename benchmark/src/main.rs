//! Command line of the benchmark.
//!
//! ```text
//! slp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! slp-benchmark run [--seed <n>] [--seconds <s>] [--out <file>]
//! slp-benchmark compare <a.json> <b.json>
//! slp-benchmark --smoke
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! result line. `run` does everything and writes a result file,
//! `compare` judges two result files, `--smoke` runs every workload
//! and check on tiny inputs.

use std::path::PathBuf;
use std::process::ExitCode;

use slp_benchmark::metrics::{RunResult, WORKLOADS};
use slp_benchmark::{compare, out_dir, run_all, run_workload, Plan};
use slp_driver::json::Json;

const USAGE: &str = "usage:
  slp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  slp-benchmark run [--seed <n>] [--seconds <s>] [--out <file>]
  slp-benchmark compare <a.json> <b.json>
  slp-benchmark --smoke";

/// Seed and measured seconds of `run` when not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;

/// The value following flag `name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn print_result(result: &RunResult) {
    println!("workload {}", result.workload);
    println!("input_digest {:016x}", result.input_digest);
    for (name, value) in &result.metrics {
        println!(
            "{name:<34} {value:>16.4} {}",
            slp_benchmark::metrics::unit_of(name)
        );
    }
    println!("untraced phase: {}", result.phase);
    for e in &result.errors {
        println!("error: {e}");
    }
    println!("{}", result.to_json().to_compact());
}

fn one_workload(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload needs a value")?;
    let plan = Plan {
        seed: flag(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS as f64),
        trace: flag::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        smoke: args.iter().any(|a| a == "--smoke"),
    };
    if !plan.seconds.is_finite() || plan.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let result = run_workload(&name, &plan).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!("unknown workload {name:?}; workloads: {}", names.join(", "))
    })?;
    print_result(&result);
    Ok(result.correct())
}

fn smoke() -> bool {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            let plan = Plan {
                seed: DEFAULT_SEED,
                seconds: 0.3,
                trace,
                smoke: true,
            };
            let result = run_workload(name, &plan).expect("a workload of the table");
            print_result(&result);
            ok &= result.correct();
        }
    }
    ok
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = flag(args, "--seed")?.unwrap_or(DEFAULT_SEED);
            let seconds = flag(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
            let out = flag::<PathBuf>(args, "--out")?
                .unwrap_or_else(|| out_dir().join(format!("result-seed{seed}.json")));
            run_all::run(seed, seconds, &out)
        }
        Some("compare") => match args {
            [_, a, b] => {
                let (report, acceptable) = compare::compare(&read_json(a)?, &read_json(b)?)?;
                print!("{report}");
                Ok(acceptable)
            }
            _ => Err(USAGE.to_string()),
        },
        Some("--smoke") if args.len() == 1 => Ok(smoke()),
        Some(_) if args.iter().any(|a| a == "--workload") => one_workload(args),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
