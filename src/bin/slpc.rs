//! `slpc` — the command-line driver for the SLP framework.
//!
//! ```text
//! slpc <kernel.slp> [options]
//!
//! options:
//!   --strategy scalar|native (alias: auto-adjacent)|slp|global|optimal
//!                                         optimizer (default: global)
//!   --layout                              enable the §5 data layout stage
//!   --machine intel|amd                   cost model (default: intel)
//!   --emit source|schedule|code|stats     what to print (default: stats)
//!   --run                                 execute and print counters
//!   --no-unchecked                        keep every bounds check at runtime,
//!                                         ignoring the memory-safety certificate
//!   --unroll N                            unroll factor (default: auto)
//!
//! slpc analyze <kernel.slp>... [options]
//!
//! Runs the slp-analyze whole-program dataflow lints (V500 use before
//! def, V501 dead store, V502 provably out-of-bounds subscript, V503
//! misalignment risk, V504 dead loop, V507 dead array store — a cell
//! written but never read nor live-out) over each kernel's source
//! program. Purely static: nothing is compiled or executed.
//!
//! options:
//!   --machine intel|amd                   echoed in the report header
//!   --json                                machine-readable report
//!
//! slpc check <kernel.slp>... [options]
//!
//! Compiles each kernel under every vectorizing configuration (Native,
//! SLP, Global, Global+Layout, Optimal) and runs the slp-verify checkers
//! over the
//! output: dependence preservation, pack legality, layout soundness,
//! memory-safety certification (V505 proven out-of-bounds is a hard
//! error, V506 unproven-access warnings), and differential translation
//! validation against the scalar build.
//!
//! options:
//!   --machine intel|amd                   cost model (default: intel)
//!   --static                              skip the differential execution
//!   --unroll N                            unroll factor (default: auto)
//!   --json                                machine-readable report
//!
//! slpc prove <kernel.slp>... [options]
//!
//! Compiles each kernel under every vectorizing configuration and runs
//! the symbolic translation validator (slp-verify) over the output: proves
//! scalar ≡ vectorized over *all* inputs by hash-consed value-graph
//! comparison. Per configuration the verdict is `proved`, `budget` (the
//! proof degraded to the differential check) or `refuted` (an
//! execution-confirmed counterexample exists; details in the V600
//! diagnostic).
//!
//! options:
//!   --machine intel|amd                   cost model (default: intel)
//!   --unroll N                            unroll factor (default: auto)
//!   --json                                machine-readable report
//!
//! slpc batch <dir|manifest|kernel.slp>... [options]
//!
//! Compiles a corpus across a worker pool with content-addressed
//! caching (memory + `.slp-cache/` disk tier), per-kernel panic
//! isolation and time budgets, and graceful degradation to scalar. A
//! directory contributes its `*.slp` files (sorted); a non-`.slp` file
//! is a manifest listing one kernel path per line (`#` comments).
//!
//! options:
//!   --strategy scalar|native (alias: auto-adjacent)|slp|global|optimal
//!                                         optimizer (default: global)
//!   --layout                              enable the data layout stage
//!   --machine intel|amd                   cost model (default: intel)
//!   --unroll N                            unroll factor (default: auto)
//!   --verify none|static|full|prove       verification level (default: static)
//!   --prove                               shorthand for --verify prove
//!   --threads N                           worker threads (default: cores)
//!   --budget-ms N                         per-kernel deadline, checked between stages
//!   --no-degrade                          fail entries instead of scalar fallback
//!   --cache-dir DIR                       disk cache location (default: .slp-cache)
//!   --no-cache                            disable caching entirely
//!   --json                                machine-readable report
//!   --strict                              exit 1 on degradation or verify findings
//!
//! Exit codes: 0 success, 1 compile/run/verification error, 2 usage
//! error.
//! ```

use std::process::ExitCode;
use std::time::Instant;

use slp::driver::json::Json;
use slp::driver::{DriverReport, DEFAULT_DISK_DIR, DEFAULT_MEMORY_CAPACITY};
use slp::prelude::*;
use slp::verify::Report;
use slp::vm::lower_kernel;

struct Options {
    path: String,
    strategy: Strategy,
    layout: bool,
    machine: MachineConfig,
    emit: String,
    run: bool,
    no_unchecked: bool,
    unroll: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: slpc <kernel.slp> [--strategy scalar|native (alias: auto-adjacent)|slp|global|optimal] \
         [--layout] [--machine intel|amd] [--emit source|schedule|code|stats] \
         [--run] [--no-unchecked] [--unroll N]\n       \
         slpc analyze <kernel.slp>... [--machine intel|amd] [--json]\n       \
         slpc check <kernel.slp>... [--machine intel|amd] [--static] \
         [--unroll N] [--json]\n       \
         slpc prove <kernel.slp>... [--machine intel|amd] \
         [--unroll N] [--json]\n       \
         slpc batch <dir|manifest|kernel.slp>... [--strategy ...] [--layout] \
         [--machine intel|amd] [--unroll N] \
         [--verify none|static|full|prove] [--prove] \
         [--threads N] [--budget-ms N] [--no-degrade] [--cache-dir DIR] \
         [--no-cache] [--json] [--strict]"
    );
    ExitCode::from(2)
}

/// The value after a flag, through `parse`; a missing or unparsable one
/// is a usage error.
fn flag<T>(
    args: &mut impl Iterator<Item = String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ExitCode> {
    args.next().as_deref().and_then(parse).ok_or_else(usage)
}

fn build_config(
    machine: &MachineConfig,
    strategy: Strategy,
    layout: bool,
    unroll: usize,
) -> SlpConfig {
    let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
    cfg.unroll = unroll;
    if layout {
        cfg = cfg.with_layout();
    }
    cfg
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, ExitCode> {
    let mut opts = Options {
        path: String::new(),
        strategy: Strategy::Holistic,
        layout: false,
        machine: MachineConfig::intel_dunnington(),
        emit: "stats".to_string(),
        run: false,
        no_unchecked: false,
        unroll: 0,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strategy" => opts.strategy = flag(&mut args, |s| s.parse().ok())?,
            "--layout" => opts.layout = true,
            "--machine" => opts.machine = flag(&mut args, parse_machine)?,
            "--emit" => {
                let emits = ["source", "schedule", "code", "stats"];
                opts.emit = flag(&mut args, |e| emits.contains(&e).then(|| e.to_string()))?;
            }
            "--run" => opts.run = true,
            "--no-unchecked" => opts.no_unchecked = true,
            "--unroll" => opts.unroll = flag(&mut args, |s| s.parse().ok())?,
            path if !path.starts_with('-') && opts.path.is_empty() => opts.path = path.to_string(),
            _ => return Err(usage()),
        }
    }
    if opts.path.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// Reads `path` and compiles it through the shared driver entry point.
fn compile_file(
    path: &str,
    config: SlpConfig,
    verify: VerifyLevel,
) -> Result<slp::driver::CompileOutcome, ExitCode> {
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("slpc: cannot read {path}: {e}");
            return Err(ExitCode::from(1));
        }
    };
    let req = CompileRequest {
        name: path.to_string(),
        source,
        config,
        verify,
    };
    compile_source(&req, None).map_err(|e| {
        match e {
            DriverError::Parse(rendered) => eprintln!("{rendered}"),
            DriverError::Invalid(errors) => {
                for err in errors {
                    eprintln!("slpc: {path}: {err}");
                }
            }
            // The safety certificate owns this rejection: the V505 hard
            // error, matching `slpd`'s S114.
            DriverError::Unsafe(faulting) => {
                for a in &faulting {
                    let what = if a.is_write { "store to" } else { "load from" };
                    eprintln!(
                        "slpc: {path}: error[V505]: {what} {} is proven out of \
                         bounds: {}",
                        a.reference, a.detail
                    );
                }
            }
            other => eprintln!("slpc: {path}: {other}"),
        }
        ExitCode::from(1)
    })
}

/// Options of the `check` subcommand.
struct CheckOptions {
    paths: Vec<String>,
    machine: MachineConfig,
    differential: bool,
    unroll: usize,
    json: bool,
}

/// Parses the arguments of `check` and of `prove`, which takes the same
/// options minus `--static` (`allow_static`): the validator itself
/// decides when to degrade to the differential check.
fn parse_check_args(
    mut args: impl Iterator<Item = String>,
    allow_static: bool,
) -> Result<CheckOptions, ExitCode> {
    let mut opts = CheckOptions {
        paths: Vec::new(),
        machine: MachineConfig::intel_dunnington(),
        differential: true,
        unroll: 0,
        json: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--machine" => opts.machine = flag(&mut args, parse_machine)?,
            "--static" if allow_static => opts.differential = false,
            "--unroll" => opts.unroll = flag(&mut args, |s| s.parse().ok())?,
            "--json" => opts.json = true,
            path if !path.starts_with('-') => opts.paths.push(path.to_string()),
            _ => return Err(usage()),
        }
    }
    if opts.paths.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// The configurations `slpc check` verifies each kernel under.
fn check_configs(opts: &CheckOptions) -> Vec<(String, SlpConfig)> {
    [
        ("Native", Strategy::Native, false),
        ("SLP", Strategy::Baseline, false),
        ("Global", Strategy::Holistic, false),
        ("Global+Layout", Strategy::Holistic, true),
        ("Optimal", Strategy::Optimal, false),
    ]
    .into_iter()
    .map(|(label, strategy, layout)| {
        (
            label.to_string(),
            build_config(&opts.machine, strategy, layout, opts.unroll),
        )
    })
    .collect()
}

/// Structured JSON for a report's diagnostics — the one serialization
/// path shared by `slpc check --json` and `slpc analyze --json`.
fn diagnostics_json(report: &Report) -> Json {
    Json::Arr(
        report
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("code", Json::str(d.code.code())),
                    ("severity", Json::str(d.severity.to_string())),
                    ("message", Json::str(&d.message)),
                    ("span", Json::str(d.span.to_string())),
                    ("rendered", Json::str(d.to_string())),
                ])
            })
            .collect(),
    )
}

fn run_check(opts: &CheckOptions) -> ExitCode {
    let verify = if opts.differential {
        VerifyLevel::Differential
    } else {
        VerifyLevel::Static
    };
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut kernel_rows = Vec::new();
    for path in &opts.paths {
        let mut config_rows = Vec::new();
        for (label, cfg) in check_configs(opts) {
            let outcome = match compile_file(path, cfg, verify) {
                Ok(o) => o,
                Err(code) => return code,
            };
            let report = outcome.report.as_ref().expect("check always verifies");
            errors += report.error_count();
            warnings += report.warning_count();
            if opts.json {
                config_rows.push(Json::obj(vec![
                    ("config", Json::str(&label)),
                    (
                        "superwords",
                        Json::num(outcome.kernel.stats.superwords as u64),
                    ),
                    (
                        "replications",
                        Json::num(outcome.kernel.stats.replications as u64),
                    ),
                    ("errors", Json::num(report.error_count() as u64)),
                    ("warnings", Json::num(report.warning_count() as u64)),
                    ("diagnostics", diagnostics_json(report)),
                    ("fingerprint", Json::str(outcome.fingerprint.to_hex())),
                ]));
            } else if report.is_clean() {
                println!(
                    "{path} [{label}]: ok ({} superword statement(s), {} replication(s))",
                    outcome.kernel.stats.superwords, outcome.kernel.stats.replications
                );
            } else {
                println!("{path} [{label}]:");
                for d in &report.diagnostics {
                    println!("  {d}");
                }
            }
        }
        if opts.json {
            kernel_rows.push(Json::obj(vec![
                ("path", Json::str(path)),
                ("configs", Json::Arr(config_rows)),
            ]));
        }
    }
    if opts.json {
        let doc = Json::obj(vec![
            ("machine", Json::str(&opts.machine.name)),
            ("differential", Json::Bool(opts.differential)),
            ("kernels", Json::Arr(kernel_rows)),
            ("errors", Json::num(errors as u64)),
            ("warnings", Json::num(warnings as u64)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "checked {} kernel(s) x {} configuration(s) on {}: \
             {errors} error(s), {warnings} warning(s)",
            opts.paths.len(),
            check_configs(opts).len(),
            opts.machine.name
        );
    }
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `slpc prove`: compile each kernel under every vectorizing
/// configuration and run the symbolic translation validator over the
/// output. Exits 1 when any configuration is refuted or any verify
/// checker reports an error.
fn run_prove(opts: &CheckOptions) -> ExitCode {
    let mut errors = 0usize;
    let mut counts = [0usize; 3]; // proved, budget, refuted
    let mut kernel_rows = Vec::new();
    for path in &opts.paths {
        let mut config_rows = Vec::new();
        for (label, cfg) in check_configs(opts) {
            let outcome = match compile_file(path, cfg, VerifyLevel::Prove) {
                Ok(o) => o,
                Err(code) => return code,
            };
            let report = outcome.report.as_ref().expect("prove always verifies");
            let verdict = outcome.prove.expect("prove level always carries a verdict");
            errors += report.error_count();
            counts[match verdict {
                ProveVerdict::Proved => 0,
                ProveVerdict::Budget => 1,
                ProveVerdict::Refuted => 2,
            }] += 1;
            if opts.json {
                config_rows.push(Json::obj(vec![
                    ("config", Json::str(&label)),
                    ("verdict", Json::str(verdict.name())),
                    (
                        "superwords",
                        Json::num(outcome.kernel.stats.superwords as u64),
                    ),
                    ("errors", Json::num(report.error_count() as u64)),
                    ("warnings", Json::num(report.warning_count() as u64)),
                    ("diagnostics", diagnostics_json(report)),
                    ("fingerprint", Json::str(outcome.fingerprint.to_hex())),
                ]));
            } else {
                println!(
                    "{path} [{label}]: {} ({} superword statement(s))",
                    verdict.name(),
                    outcome.kernel.stats.superwords
                );
                for d in &report.diagnostics {
                    println!("  {d}");
                }
            }
        }
        if opts.json {
            kernel_rows.push(Json::obj(vec![
                ("path", Json::str(path)),
                ("configs", Json::Arr(config_rows)),
            ]));
        }
    }
    let [proved, budget, refuted] = counts;
    if opts.json {
        let doc = Json::obj(vec![
            ("machine", Json::str(&opts.machine.name)),
            ("kernels", Json::Arr(kernel_rows)),
            ("proved", Json::num(proved as u64)),
            ("budget", Json::num(budget as u64)),
            ("refuted", Json::num(refuted as u64)),
            ("errors", Json::num(errors as u64)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "proved {proved}/{} kernel-configuration(s) on {}: \
             {budget} degraded to differential, {refuted} refuted",
            proved + budget + refuted,
            opts.machine.name
        );
    }
    if refuted > 0 || errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Options of the `analyze` subcommand.
struct AnalyzeOptions {
    paths: Vec<String>,
    machine: MachineConfig,
    json: bool,
}

fn parse_analyze_args(mut args: impl Iterator<Item = String>) -> Result<AnalyzeOptions, ExitCode> {
    let mut opts = AnalyzeOptions {
        paths: Vec::new(),
        machine: MachineConfig::intel_dunnington(),
        json: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--machine" => opts.machine = flag(&mut args, parse_machine)?,
            "--json" => opts.json = true,
            path if !path.starts_with('-') => opts.paths.push(path.to_string()),
            _ => return Err(usage()),
        }
    }
    if opts.paths.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// `slpc analyze`: parse each kernel and run the whole-program dataflow
/// lints (V5xx) over its *source* program. Static only — nothing is vectorized or executed. Exits 1
/// when any error-severity finding (V502) is present.
fn run_analyze(opts: &AnalyzeOptions) -> ExitCode {
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut kernel_rows = Vec::new();
    for path in &opts.paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("slpc: cannot read {path}: {e}");
                return ExitCode::from(1);
            }
        };
        let program = match parse_kernel(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}", e.render(&source));
                return ExitCode::from(1);
            }
        };
        let report = slp::verify::lint_program(&program);
        errors += report.error_count();
        warnings += report.warning_count();
        if opts.json {
            kernel_rows.push(Json::obj(vec![
                ("path", Json::str(path)),
                ("errors", Json::num(report.error_count() as u64)),
                ("warnings", Json::num(report.warning_count() as u64)),
                ("diagnostics", diagnostics_json(&report)),
            ]));
        } else {
            if report.is_clean() {
                println!("{path}: ok");
            } else {
                println!("{path}:");
                for d in &report.diagnostics {
                    println!("  {d}");
                }
            }
        }
    }
    if opts.json {
        let doc = Json::obj(vec![
            ("machine", Json::str(&opts.machine.name)),
            ("kernels", Json::Arr(kernel_rows)),
            ("errors", Json::num(errors as u64)),
            ("warnings", Json::num(warnings as u64)),
        ]);
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "analyzed {} kernel(s): {errors} error(s), {warnings} warning(s)",
            opts.paths.len()
        );
    }
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Options of the `batch` subcommand.
struct BatchOptions {
    inputs: Vec<String>,
    strategy: Strategy,
    layout: bool,
    machine: MachineConfig,
    unroll: usize,
    verify: VerifyLevel,
    threads: usize,
    budget_ms: Option<u64>,
    degrade: bool,
    cache_dir: Option<String>,
    no_cache: bool,
    json: bool,
    strict: bool,
}

fn parse_batch_args(mut args: impl Iterator<Item = String>) -> Result<BatchOptions, ExitCode> {
    let mut opts = BatchOptions {
        inputs: Vec::new(),
        strategy: Strategy::Holistic,
        layout: false,
        machine: MachineConfig::intel_dunnington(),
        unroll: 0,
        verify: VerifyLevel::Static,
        threads: 0,
        budget_ms: None,
        degrade: true,
        cache_dir: None,
        no_cache: false,
        json: false,
        strict: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strategy" => opts.strategy = flag(&mut args, |s| s.parse().ok())?,
            "--layout" => opts.layout = true,
            "--machine" => opts.machine = flag(&mut args, parse_machine)?,
            "--unroll" => opts.unroll = flag(&mut args, |s| s.parse().ok())?,
            "--verify" => opts.verify = flag(&mut args, VerifyLevel::from_name)?,
            "--threads" => opts.threads = flag(&mut args, |s| s.parse().ok())?,
            "--budget-ms" => opts.budget_ms = Some(flag(&mut args, |s| s.parse().ok())?),
            "--prove" => opts.verify = VerifyLevel::Prove,
            "--no-degrade" => opts.degrade = false,
            "--cache-dir" => opts.cache_dir = Some(flag(&mut args, |s| Some(s.to_string()))?),
            "--no-cache" => opts.no_cache = true,
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            path if !path.starts_with('-') => opts.inputs.push(path.to_string()),
            _ => return Err(usage()),
        }
    }
    if opts.inputs.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

/// Expands directories (sorted `*.slp` members), kernel files and
/// manifests into `(name, path)` pairs.
fn collect_kernel_paths(inputs: &[String]) -> Result<Vec<std::path::PathBuf>, String> {
    let mut paths = Vec::new();
    for input in inputs {
        let path = std::path::Path::new(input);
        if path.is_dir() {
            let mut members: Vec<std::path::PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read directory {input}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "slp"))
                .collect();
            members.sort();
            if members.is_empty() {
                return Err(format!("directory {input} contains no .slp files"));
            }
            paths.extend(members);
        } else if path.extension().is_some_and(|ext| ext == "slp") {
            paths.push(path.to_path_buf());
        } else {
            // A manifest: one kernel path per line, relative to the
            // manifest's directory.
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read manifest {input}: {e}"))?;
            let base = path.parent().unwrap_or(std::path::Path::new("."));
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                paths.push(base.join(line));
            }
        }
    }
    if paths.is_empty() {
        return Err("no kernels to compile".to_string());
    }
    Ok(paths)
}

fn kernel_name(path: &std::path::Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn run_batch(opts: &BatchOptions) -> ExitCode {
    let paths = match collect_kernel_paths(&opts.inputs) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("slpc: {msg}");
            return ExitCode::from(1);
        }
    };
    let mut requests = Vec::with_capacity(paths.len());
    for path in &paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("slpc: cannot read {}: {e}", path.display());
                return ExitCode::from(1);
            }
        };
        requests.push(CompileRequest {
            name: kernel_name(path),
            source,
            config: build_config(&opts.machine, opts.strategy, opts.layout, opts.unroll),
            verify: opts.verify,
        });
    }

    let cache = if opts.no_cache {
        None
    } else {
        let dir = opts
            .cache_dir
            .clone()
            .unwrap_or_else(|| DEFAULT_DISK_DIR.to_string());
        Some(CompileCache::with_disk(DEFAULT_MEMORY_CAPACITY, dir))
    };
    let batch_config = BatchConfig {
        threads: opts.threads,
        budget_ms: opts.budget_ms,
        degrade: opts.degrade,
    };

    let start = Instant::now();
    let outcomes = compile_batch(&requests, cache.as_ref(), &batch_config);
    let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let report =
        DriverReport::from_outcomes(&outcomes, wall_nanos, cache.as_ref().map(|c| c.stats()));

    if opts.json {
        println!("{}", report.to_json().to_pretty());
    } else {
        print!("{}", report.summary_table());
    }

    let failed = report.failed_count() > 0;
    let strict_dirty = opts.strict && !report.all_clean();
    if failed || strict_dirty {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// The single-kernel mode: compile one kernel, print what `--emit` asks
/// for and, with `--run`, execute it.
fn run_kernel(opts: &Options) -> ExitCode {
    let config = build_config(&opts.machine, opts.strategy, opts.layout, opts.unroll);
    let outcome = match compile_file(&opts.path, config, VerifyLevel::None) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let kernel = &outcome.kernel;

    match opts.emit.as_str() {
        "source" => print!("{}", kernel.program.to_source()),
        "schedule" => {
            for (bid, sched) in &kernel.schedules {
                println!("block {bid}:");
                for item in sched.items() {
                    println!("  {item}");
                }
            }
        }
        "code" => {
            for (bid, code) in lower_kernel(kernel, &opts.machine, true) {
                println!("block {bid} (vectorized = {}):", code.vectorized);
                if !code.preheader.is_empty() {
                    println!("  preheader:");
                    for inst in &code.preheader {
                        println!("    {inst}");
                    }
                }
                for inst in &code.insts {
                    println!("  {inst}");
                }
            }
        }
        "stats" => {
            let s = kernel.stats;
            println!("statements            {}", s.stmts);
            println!("blocks                {}", s.blocks);
            println!("superword statements  {}", s.superwords);
            println!("vectorized statements {}", s.vectorized_stmts);
            println!("scalar packs laid out {}", s.scalar_packs_laid_out);
            println!("array replications    {}", s.replications);
            println!("accesses proven safe  {}", s.accesses_proven_safe);
            if s.accesses_unknown + s.accesses_proven_faulting > 0 {
                println!("accesses unproven     {}", s.accesses_unknown);
                println!("accesses faulting     {}", s.accesses_proven_faulting);
            }
            if kernel.config.strategy == Strategy::Optimal {
                println!("solver nodes          {}", s.opt_nodes);
                println!("optimality gap        {} ppm", s.opt_gap_ppm);
                println!(
                    "solver outcome        {}",
                    if s.opt_degraded {
                        "budget expired (anytime result)"
                    } else {
                        "proven optimal"
                    }
                );
            }
        }
        _ => unreachable!("validated in parse_args"),
    }

    if opts.run {
        // `--no-unchecked` opts out of certificate-driven check elision:
        // every access keeps its per-dimension bounds check, as if
        // nothing had been proven.
        let result = if opts.no_unchecked {
            slp::vm::execute_fully_checked(kernel, &opts.machine)
        } else {
            execute(kernel, &opts.machine)
        };
        match result {
            Ok(out) => {
                let m = &out.stats.metrics;
                println!("-- run on {} --", opts.machine.name);
                println!("cycles                {:.0}", m.cycles);
                println!("dynamic instructions  {}", m.dynamic_instructions);
                println!("memory operations     {}", m.memory_ops);
                println!("packing/unpacking ops {}", m.packing_ops);
                println!("permutations          {}", m.permutes);
                println!(
                    "simulated time        {:.3} µs",
                    out.stats.seconds(&opts.machine) * 1e6
                );
                if out.block_cycles.len() > 1 {
                    println!("hottest blocks:");
                    for (bid, cycles) in out.block_cycles.iter().take(5) {
                        println!(
                            "  {bid:<6} {cycles:>10.0} cycles ({:.1}%)",
                            cycles / out.stats.metrics.cycles * 100.0
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("slpc: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next_if(|a| ["analyze", "check", "prove", "batch"].contains(&a.as_str()));
    let ran = match command.as_deref() {
        None => parse_args(argv).map(|opts| run_kernel(&opts)),
        Some("analyze") => parse_analyze_args(argv).map(|opts| run_analyze(&opts)),
        Some("check") => parse_check_args(argv, true).map(|opts| run_check(&opts)),
        Some("prove") => parse_check_args(argv, false).map(|opts| run_prove(&opts)),
        Some(_) => parse_batch_args(argv).map(|opts| run_batch(&opts)),
    };
    ran.unwrap_or_else(|code| code)
}
