//! Command-line front-end for the fuzzing campaign.
//!
//! ```text
//! slp-fuzz run [--seed S] [--iters N] [--no-minimize] [--write DIR]
//! slp-fuzz replay [DIR]
//! slp-fuzz minimize FILE
//! ```
//!
//! `run` executes the two-level campaign and prints one line per
//! failure (exit code 1 if any); `--write` stores minimized reproducers
//! as `.slp` files. `replay` re-checks a corpus directory (default:
//! the crate's `corpus/`). `minimize` shrinks a single failing case.

use std::path::PathBuf;
use std::process::ExitCode;

use slp_fuzz::oracle::{check_source, Budget};
use slp_fuzz::{default_corpus_dir, minimize, render_reproducer, run_campaign, FuzzConfig};
use slp_vm::MachineConfig;

fn usage() -> ExitCode {
    eprintln!(
        "usage: slp-fuzz run [--seed S] [--iters N] [--no-minimize] [--write DIR]\n       \
         slp-fuzz replay [DIR]\n       \
         slp-fuzz minimize FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("minimize") => cmd_minimize(&args[1..]),
        _ => usage(),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut seed = 0u64;
    let mut iters = 500u64;
    let mut minimize = true;
    let mut write: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => iters = v,
                None => return usage(),
            },
            "--no-minimize" => minimize = false,
            "--write" => match it.next() {
                Some(v) => write = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let mut cfg = FuzzConfig::new(seed, iters);
    cfg.minimize = minimize;
    let (stats, failures) = run_campaign(&cfg);
    println!(
        "slp-fuzz: {} cases (seed {seed}): {} clean, {} rejected (typed), {} failures",
        stats.cases, stats.clean, stats.rejected, stats.failures
    );
    for f in &failures {
        println!(
            "FAIL {} {}: {}",
            f.case,
            f.anomaly.headline(),
            f.anomaly.detail
        );
    }
    if let Some(dir) = write {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("slp-fuzz: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        for (k, f) in failures.iter().enumerate() {
            let name = format!(
                "{}-{}-{k}.slp",
                f.anomaly.kind.name(),
                f.case.replace('/', "-")
            );
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, render_reproducer(f)) {
                eprintln!("slp-fuzz: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", path.display());
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(default_corpus_dir);
    match slp_fuzz::replay_corpus(&dir) {
        Err(e) => {
            eprintln!("slp-fuzz: cannot replay {}: {e}", dir.display());
            ExitCode::from(2)
        }
        Ok(failures) if failures.is_empty() => {
            println!("slp-fuzz: corpus {} clean", dir.display());
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for (name, anomaly) in &failures {
                println!("FAIL {name} {}: {}", anomaly.headline(), anomaly.detail);
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_minimize(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("slp-fuzz: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = MachineConfig::intel_dunnington();
    let budget = Budget::default();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = match check_source(&src, &machine, &budget) {
        None => {
            std::panic::set_hook(hook);
            println!("slp-fuzz: {path} does not reproduce any anomaly");
            return ExitCode::SUCCESS;
        }
        Some(anomaly) => {
            let want = (anomaly.kind, anomaly.stage);
            let min = minimize::minimize(&src, |s| {
                check_source(s, &machine, &budget).is_some_and(|a| (a.kind, a.stage) == want)
            });
            std::panic::set_hook(hook);
            println!("// {}", anomaly.headline());
            min
        }
    };
    println!("{out}");
    ExitCode::FAILURE
}
