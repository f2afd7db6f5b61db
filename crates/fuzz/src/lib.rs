//! `slp-fuzz`: a deterministic differential fuzzing campaign for the
//! SLP pipeline.
//!
//! The input space of the curated suite is 16 hand-written kernels;
//! this crate adversarially drives the *whole* source → parse → group →
//! schedule → layout → execute path with two generators:
//!
//! - `mutate::source_case` — source-text mutants of generated and
//!   hand-written kernels (token splices, bound/stride/type
//!   perturbations, malformed programs);
//! - [`genir::ir_case`] — well-formed typed-IR programs with
//!   adversarial dependence and alignment patterns, rendered back to
//!   source through [`Program::to_source`](slp_ir::Program).
//!
//! Every case runs under `catch_unwind` against seven oracles (no
//! panic / scalar equivalence / engine agreement / no lint false
//! positives / symbolic-validator agreement / certificate soundness /
//! solver optimality — see [`oracle::check_source`]); failures are shrunk by the
//! [`minimize`](minimize::minimize) delta debugger and stored under
//! `crates/fuzz/corpus/`, which doubles as a regression suite replayed
//! in `cargo test`. The same minimizer shrinks a failing property test
//! ([`property::check_program`]).
//!
//! Everything is seed-driven: `run_campaign(seed, iters)` is a pure
//! function of its arguments, so a failure report is a reproducer.

pub mod genir;
pub mod minimize;
mod mutate;
pub mod oracle;
pub mod property;

use oracle::{Anomaly, Budget};
use slp_vm::MachineConfig;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// PRNG seed; the campaign is a pure function of `(seed, iters)`.
    pub seed: u64,
    /// Number of cases per generator level.
    pub iters: u64,
    /// Execution budgets for the differential oracles.
    pub budget: Budget,
    /// The machine model compiled against.
    pub machine: MachineConfig,
    /// Shrink failures with the delta-debugging minimizer.
    pub minimize: bool,
}

impl FuzzConfig {
    /// The default campaign: `iters` cases per level from `seed`.
    pub fn new(seed: u64, iters: u64) -> Self {
        FuzzConfig {
            seed,
            iters,
            budget: Budget::default(),
            machine: MachineConfig::intel_dunnington(),
            minimize: true,
        }
    }
}

/// One oracle violation, with its (possibly minimized) reproducer.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Generator level and case index, e.g. `src/17` or `ir/3`.
    pub case: String,
    /// The anomaly that fired.
    pub anomaly: Anomaly,
    /// Reproducer source (minimized when the config asks for it).
    pub source: String,
}

/// Campaign totals.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Cases generated and checked.
    pub cases: u64,
    /// Cases the front-end rejected with a typed error.
    pub rejected: u64,
    /// Cases that ran every oracle cleanly.
    pub clean: u64,
    /// Oracle violations.
    pub failures: u64,
}

/// Runs the full two-level campaign; deterministic in `config`.
///
/// The default panic hook is suppressed for the duration so expected
/// `catch_unwind` probes do not spam stderr; it is restored before
/// returning.
pub fn run_campaign(config: &FuzzConfig) -> (Stats, Vec<Failure>) {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = run_campaign_inner(config);
    std::panic::set_hook(hook);
    result
}

fn run_campaign_inner(config: &FuzzConfig) -> (Stats, Vec<Failure>) {
    let mut stats = Stats::default();
    let mut failures = Vec::new();
    let mut check = |case: String, src: String| {
        stats.cases += 1;
        match oracle::check_source(&src, &config.machine, &config.budget) {
            None => {
                // Distinguish clean runs from typed rejections for the
                // summary line (both are passing outcomes).
                if slp_lang::compile(&src).is_ok() {
                    stats.clean += 1;
                } else {
                    stats.rejected += 1;
                }
            }
            Some(anomaly) => {
                stats.failures += 1;
                let source = if config.minimize {
                    let want = (anomaly.kind, anomaly.stage);
                    minimize::minimize(&src, |s| {
                        let found = oracle::check_source(s, &config.machine, &config.budget);
                        found.is_some_and(|a| (a.kind, a.stage) == want)
                    })
                } else {
                    src
                };
                failures.push(Failure {
                    case,
                    anomaly,
                    source,
                });
            }
        }
    };
    for n in 0..config.iters {
        check(format!("src/{n}"), mutate::source_case(config.seed, n));
    }
    for n in 0..config.iters {
        check(
            format!("ir/{n}"),
            genir::ir_case(config.seed, n).to_source(),
        );
    }
    (stats, failures)
}

/// Formats a corpus reproducer file: anomaly header plus source.
pub fn render_reproducer(f: &Failure) -> String {
    format!(
        "// slp-fuzz reproducer: {}\n// case: {}\n// detail: {}\n{}\n",
        f.anomaly.headline(),
        f.case,
        f.anomaly.detail.replace('\n', " "),
        f.source
    )
}

/// Replays every `.slp` file in `dir` through the oracles.
///
/// Returns the failing file names with their anomalies; an empty vector
/// means the whole corpus is clean. Files are checked in sorted order
/// for deterministic reports.
///
/// # Errors
///
/// Returns an IO error if `dir` cannot be read.
pub fn replay_corpus(dir: &std::path::Path) -> std::io::Result<Vec<(String, Anomaly)>> {
    let machine = MachineConfig::intel_dunnington();
    let budget = Budget::default();
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "slp"))
        .collect();
    names.sort();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut out = Vec::new();
    for path in names {
        let src = std::fs::read_to_string(&path)?;
        if let Some(anomaly) = oracle::check_source(&src, &machine, &budget) {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            out.push((name, anomaly));
        }
    }
    std::panic::set_hook(hook);
    Ok(out)
}

/// The crate-relative corpus directory, for tests and the CLI default.
pub fn default_corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_deterministic_and_clean() {
        let cfg = FuzzConfig::new(0, 20);
        let (stats, failures) = run_campaign(&cfg);
        assert_eq!(stats.cases, 40);
        assert_eq!(
            failures.len(),
            0,
            "oracle violations: {:?}",
            failures
                .iter()
                .map(|f| (f.case.clone(), f.anomaly.headline()))
                .collect::<Vec<_>>()
        );
        let (stats2, _) = run_campaign(&cfg);
        assert_eq!(stats.clean, stats2.clean);
        assert_eq!(stats.rejected, stats2.rejected);
    }
}
