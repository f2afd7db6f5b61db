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
//!   --unroll N                            unroll factor (default: auto)
//!
//! slpc check <kernel.slp>... [options]
//!
//! Verifies each kernel. First the whole-program dataflow lints run once
//! over its source program (the `[source]` row: V500 use before def,
//! V501 dead store, V502 provably out-of-bounds subscript, V503
//! misalignment risk, V504 dead loop, V507 dead array store). Then the
//! kernel is compiled under every vectorizing configuration (Native,
//! SLP, Global, Global+Layout, Optimal) and the slp-verify checkers run
//! over the output at the chosen level:
//!
//!   static   dependence preservation, pack legality, layout soundness
//!            and the memory-safety certificate (V505 proven
//!            out-of-bounds is a hard error, V506 unproven access a
//!            warning)
//!   full     static plus differential translation validation against
//!            the scalar build
//!   prove    static plus symbolic translation validation: scalar ≡
//!            vectorized over *all* inputs. Per configuration the verdict
//!            is `proved`, `budget` (the proof degraded to the
//!            differential check) or `refuted` (an execution-confirmed
//!            counterexample; details in the V600 diagnostic)
//!
//! A kernel that cannot be read, parsed or compiled counts as one error;
//! the run goes on with the next one.
//!
//! options:
//!   --machine intel|amd                   cost model (default: intel)
//!   --verify static|full|prove            verification level (default: full)
//!   --unroll N                            unroll factor (default: auto)
//!   --json                                machine-readable report
//!
//! slpc batch <dir|manifest|kernel.slp>... [options]
//!
//! Compiles a corpus across a worker pool with content-addressed
//! caching (memory + `.slp-cache/` disk tier), per-kernel panic
//! isolation and time budgets, and graceful degradation to scalar. A
//! directory contributes its `*.slp` files (sorted); a non-`.slp` file
//! is a manifest listing one kernel path per line (`#` comments). A
//! kernel that cannot be read is a `failed` row; the batch goes on.
//!
//! options:
//!   --strategy scalar|native (alias: auto-adjacent)|slp|global|optimal
//!                                         optimizer (default: global)
//!   --layout                              enable the data layout stage
//!   --machine intel|amd                   cost model (default: intel)
//!   --unroll N                            unroll factor (default: auto)
//!   --verify none|static|full|prove       verification level (default: static)
//!   --threads N                           worker threads (default: cores)
//!   --budget-ms N                         per-kernel deadline, checked between stages
//!   --no-degrade                          fail entries instead of scalar fallback
//!   --cache-dir DIR                       disk cache location (default: .slp-cache)
//!   --no-cache                            disable caching entirely
//!   --json                                machine-readable report
//!   --strict                              exit 1 on degradation or verify findings
//!
//! Exit codes: 0 success, 1 compile/run/verification error (or stdout
//! closed early), 2 usage error.
//! ```

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use slp::driver::json::Json;
use slp::driver::{DriverReport, KernelRow, DEFAULT_DISK_DIR, DEFAULT_MEMORY_CAPACITY};
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
    unroll: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: slpc <kernel.slp> [--strategy scalar|native (alias: auto-adjacent)|slp|global|optimal] \
         [--layout] [--machine intel|amd] [--emit source|schedule|code|stats] \
         [--run] [--unroll N]\n       \
         slpc check <kernel.slp>... [--machine intel|amd] \
         [--verify static|full|prove] [--unroll N] [--json]\n       \
         slpc batch <dir|manifest|kernel.slp>... [--strategy ...] [--layout] \
         [--machine intel|amd] [--unroll N] \
         [--verify none|static|full|prove] \
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

/// Reads `path`; a failure is reported on stderr.
fn read_source(path: impl AsRef<std::path::Path>) -> Option<String> {
    let path = path.as_ref();
    std::fs::read_to_string(path)
        .map_err(|e| eprintln!("slpc: cannot read {}: {e}", path.display()))
        .ok()
}

/// Compiles `source` through the shared driver entry point; a failure
/// is reported on stderr.
fn compile_or_report(
    path: &str,
    source: &str,
    config: SlpConfig,
    verify: VerifyLevel,
) -> Option<slp::driver::CompileOutcome> {
    let req = CompileRequest {
        name: path.to_string(),
        source: source.to_string(),
        config,
        verify,
    };
    compile_source(&req, None)
        .map_err(|e| match e {
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
        })
        .ok()
}

/// Options of the `check` subcommand.
struct CheckOptions {
    paths: Vec<String>,
    machine: MachineConfig,
    verify: VerifyLevel,
    unroll: usize,
    json: bool,
}

fn parse_check_args(mut args: impl Iterator<Item = String>) -> Result<CheckOptions, ExitCode> {
    let mut opts = CheckOptions {
        paths: Vec::new(),
        machine: MachineConfig::intel_dunnington(),
        verify: VerifyLevel::Differential,
        unroll: 0,
        json: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--machine" => opts.machine = flag(&mut args, parse_machine)?,
            "--verify" => {
                opts.verify = flag(&mut args, |s| {
                    VerifyLevel::from_name(s).filter(|&v| v != VerifyLevel::None)
                })?;
            }
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
fn check_configs(opts: &CheckOptions) -> Vec<(&'static str, SlpConfig)> {
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
            label,
            build_config(&opts.machine, strategy, layout, opts.unroll),
        )
    })
    .collect()
}

/// Structured JSON for a report's diagnostics: the source lints and
/// every configuration's findings share this shape.
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

/// One text row of `slpc check`: the status line, then each diagnostic.
fn write_row(out: &mut impl Write, head: &str, report: &Report) -> io::Result<()> {
    writeln!(out, "{head}")?;
    for d in &report.diagnostics {
        writeln!(out, "  {d}")?;
    }
    Ok(())
}

/// `slpc check`: lint each kernel's source program (V5xx) once, then
/// compile it under every vectorizing configuration and verify the
/// output at `opts.verify`. A kernel that cannot be read, parsed or
/// compiled counts as one error and the run goes on. Exits 1 on any
/// error-severity finding or refuted proof.
fn run_check(opts: &CheckOptions, out: &mut impl Write) -> io::Result<ExitCode> {
    let configs = check_configs(opts);
    let (mut errors, mut warnings, mut compiled) = (0usize, 0usize, 0usize);
    let mut verdicts = Vec::new();
    let mut kernel_rows = Vec::new();
    for path in &opts.paths {
        let source = read_source(path);
        let program = source.as_deref().and_then(|source| {
            parse_kernel(source)
                .map_err(|e| eprintln!("{}", e.render(source)))
                .ok()
        });
        let (Some(source), Some(program)) = (source, program) else {
            errors += 1;
            continue;
        };
        let lints = slp::verify::lint_program(&program);
        errors += lints.error_count();
        warnings += lints.warning_count();
        if !opts.json {
            let status = if lints.is_clean() { "ok" } else { "flagged" };
            write_row(out, &format!("{path} [source]: {status}"), &lints)?;
        }
        let mut config_rows = Vec::new();
        for (label, cfg) in &configs {
            let Some(outcome) = compile_or_report(path, &source, cfg.clone(), opts.verify) else {
                errors += 1;
                break;
            };
            compiled += 1;
            let report = outcome.report.as_ref().expect("check always verifies");
            errors += report.error_count();
            warnings += report.warning_count();
            verdicts.extend(outcome.prove);
            let stats = outcome.kernel.stats;
            if opts.json {
                let mut row = vec![("config", Json::str(*label))];
                if let Some(verdict) = outcome.prove {
                    row.push(("verdict", Json::str(verdict.name())));
                }
                row.extend([
                    ("superwords", Json::num(stats.superwords as u64)),
                    ("replications", Json::num(stats.replications as u64)),
                    ("errors", Json::num(report.error_count() as u64)),
                    ("warnings", Json::num(report.warning_count() as u64)),
                    ("diagnostics", diagnostics_json(report)),
                    ("fingerprint", Json::str(outcome.fingerprint.to_hex())),
                ]);
                config_rows.push(Json::obj(row));
            } else {
                let status = match outcome.prove {
                    Some(verdict) => verdict.name(),
                    None if report.is_clean() => "ok",
                    None => "flagged",
                };
                let head = format!(
                    "{path} [{label}]: {status} ({} superword statement(s), {} replication(s))",
                    stats.superwords, stats.replications
                );
                write_row(out, &head, report)?;
            }
        }
        if opts.json {
            kernel_rows.push(Json::obj(vec![
                ("path", Json::str(path)),
                ("lints", diagnostics_json(&lints)),
                ("configs", Json::Arr(config_rows)),
            ]));
        }
    }
    use ProveVerdict::{Budget, Proved, Refuted};
    let count = |verdict| verdicts.iter().filter(|&&v| v == verdict).count();
    let [proved, budget, refuted] = [Proved, Budget, Refuted].map(count);
    let proving = opts.verify == VerifyLevel::Prove;
    if opts.json {
        let mut doc = vec![
            ("machine", Json::str(&opts.machine.name)),
            ("verify", Json::str(opts.verify.name())),
            ("kernels", Json::Arr(kernel_rows)),
        ];
        if proving {
            doc.extend([
                ("proved", Json::num(proved as u64)),
                ("budget", Json::num(budget as u64)),
                ("refuted", Json::num(refuted as u64)),
            ]);
        }
        doc.extend([
            ("errors", Json::num(errors as u64)),
            ("warnings", Json::num(warnings as u64)),
        ]);
        writeln!(out, "{}", Json::obj(doc).to_pretty())?;
    } else {
        write!(
            out,
            "checked {} kernel(s), {compiled} configuration(s) compiled on {}: \
             {errors} error(s), {warnings} warning(s)",
            opts.paths.len(),
            opts.machine.name
        )?;
        if proving {
            write!(
                out,
                "; proved {proved}/{}, {budget} degraded to differential, {refuted} refuted",
                proved + budget + refuted
            )?;
        }
        writeln!(out)?;
    }
    Ok(if errors > 0 || refuted > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
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

fn run_batch(opts: &BatchOptions, out: &mut impl Write) -> io::Result<ExitCode> {
    let paths = match collect_kernel_paths(&opts.inputs) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("slpc: {msg}");
            return Ok(ExitCode::from(1));
        }
    };
    // An unreadable kernel becomes a failed row in its input position;
    // the rest of the batch still compiles.
    let mut requests = Vec::with_capacity(paths.len());
    let mut unreadable = Vec::new();
    for (at, path) in paths.iter().enumerate() {
        match std::fs::read_to_string(path) {
            Ok(source) => requests.push(CompileRequest {
                name: kernel_name(path),
                source,
                config: build_config(&opts.machine, opts.strategy, opts.layout, opts.unroll),
                verify: opts.verify,
            }),
            Err(e) => {
                let error = format!("cannot read {}: {e}", path.display());
                eprintln!("slpc: {error}");
                unreadable.push((at, kernel_name(path), error));
            }
        }
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
    let mut report =
        DriverReport::from_outcomes(&outcomes, wall_nanos, cache.as_ref().map(|c| c.stats()));
    for (at, name, error) in unreadable {
        let row = KernelRow {
            name,
            error: Some(error),
            ..KernelRow::default()
        };
        report.rows.insert(at, row);
    }

    if opts.json {
        writeln!(out, "{}", report.to_json().to_pretty())?;
    } else {
        write!(out, "{}", report.summary_table())?;
    }

    let failed = report.failed_count() > 0;
    let strict_dirty = opts.strict && !report.all_clean();
    Ok(if failed || strict_dirty {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// The single-kernel mode: compile one kernel, print what `--emit` asks
/// for and, with `--run`, execute it.
fn run_kernel(opts: &Options, out: &mut impl Write) -> io::Result<ExitCode> {
    let config = build_config(&opts.machine, opts.strategy, opts.layout, opts.unroll);
    let Some(outcome) = read_source(&opts.path)
        .and_then(|source| compile_or_report(&opts.path, &source, config, VerifyLevel::None))
    else {
        return Ok(ExitCode::from(1));
    };
    let kernel = &outcome.kernel;

    match opts.emit.as_str() {
        "source" => write!(out, "{}", kernel.program.to_source())?,
        "schedule" => {
            for (bid, sched) in &kernel.schedules {
                writeln!(out, "block {bid}:")?;
                for item in sched.items() {
                    writeln!(out, "  {item}")?;
                }
            }
        }
        "code" => {
            for (bid, code) in lower_kernel(kernel, &opts.machine, true) {
                writeln!(out, "block {bid} (vectorized = {}):", code.vectorized)?;
                if !code.preheader.is_empty() {
                    writeln!(out, "  preheader:")?;
                    for inst in &code.preheader {
                        writeln!(out, "    {inst}")?;
                    }
                }
                for inst in &code.insts {
                    writeln!(out, "  {inst}")?;
                }
            }
        }
        "stats" => {
            let s = kernel.stats;
            writeln!(out, "statements            {}", s.stmts)?;
            writeln!(out, "blocks                {}", s.blocks)?;
            writeln!(out, "superword statements  {}", s.superwords)?;
            writeln!(out, "vectorized statements {}", s.vectorized_stmts)?;
            writeln!(out, "scalar packs laid out {}", s.scalar_packs_laid_out)?;
            writeln!(out, "array replications    {}", s.replications)?;
            writeln!(out, "accesses proven safe  {}", s.accesses_proven_safe)?;
            if s.accesses_unknown + s.accesses_proven_faulting > 0 {
                writeln!(out, "accesses unproven     {}", s.accesses_unknown)?;
                writeln!(out, "accesses faulting     {}", s.accesses_proven_faulting)?;
            }
            if kernel.config.strategy == Strategy::Optimal {
                writeln!(out, "solver nodes          {}", s.opt_nodes)?;
                writeln!(out, "optimality gap        {} ppm", s.opt_gap_ppm)?;
                writeln!(
                    out,
                    "solver outcome        {}",
                    if s.opt_degraded {
                        "budget expired (anytime result)"
                    } else {
                        "proven optimal"
                    }
                )?;
            }
        }
        _ => unreachable!("validated in parse_args"),
    }

    if opts.run {
        match execute(kernel, &opts.machine) {
            Ok(run) => {
                let m = &run.stats.metrics;
                writeln!(out, "-- run on {} --", opts.machine.name)?;
                writeln!(out, "cycles                {:.0}", m.cycles)?;
                writeln!(out, "dynamic instructions  {}", m.dynamic_instructions)?;
                writeln!(out, "memory operations     {}", m.memory_ops)?;
                writeln!(out, "packing/unpacking ops {}", m.packing_ops)?;
                writeln!(out, "permutations          {}", m.permutes)?;
                writeln!(
                    out,
                    "simulated time        {:.3} µs",
                    run.stats.seconds(&opts.machine) * 1e6
                )?;
                if run.block_cycles.len() > 1 {
                    writeln!(out, "hottest blocks:")?;
                    for (bid, cycles) in run.block_cycles.iter().take(5) {
                        writeln!(
                            out,
                            "  {bid:<6} {cycles:>10.0} cycles ({:.1}%)",
                            cycles / m.cycles * 100.0
                        )?;
                    }
                }
            }
            Err(e) => {
                eprintln!("slpc: {e}");
                return Ok(ExitCode::from(1));
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next_if(|a| a == "check" || a == "batch");
    // Every report goes through this one handle: a reader that goes away
    // (`slpc check ... | head`) ends the command with exit 1, not a panic.
    let out = &mut io::stdout().lock();
    let ran = match command.as_deref() {
        None => parse_args(argv).map(|opts| run_kernel(&opts, out)),
        Some("check") => parse_check_args(argv).map(|opts| run_check(&opts, out)),
        Some(_) => parse_batch_args(argv).map(|opts| run_batch(&opts, out)),
    };
    match ran {
        // The flush writes what follows the last newline (`--emit source`).
        Ok(report) => report
            .and_then(|code| out.flush().map(|()| code))
            .unwrap_or(ExitCode::from(1)),
        Err(usage) => usage,
    }
}
