//! The repository's benchmark: five workloads from source text to
//! executed kernel and served response, end-to-end metrics with
//! regression bounds, and a traced pass that times the calls into each
//! crate's public functions from outside. See `README.md` beside this
//! crate for what every workload and metric means.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod inputs;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod offline;
pub mod oracle;
// One foreign call: the C library's process CPU clock.
#[allow(unsafe_code)]
pub mod os;
pub mod run_all;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use metrics::RunResult;

/// The traced pass fails when more than this share of mean job time is
/// not accounted for by the spans below the job.
pub const MAX_UNACCOUNTED_SHARE: f64 = 0.10;

/// Jobs whose spans the trace file keeps (per recording thread).
const TRACE_FILE_JOBS: u32 = 2000;

/// How one invocation runs one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Drives every shuffle, draw and generated name.
    pub seed: u64,
    /// Length of the measured phases together, seconds.
    pub seconds: f64,
    /// Whether this is the traced pass: a third of the time measures
    /// untraced (the base of `trace.overhead_share`), the rest records
    /// spans, and the per-layer metrics are reported.
    pub trace: bool,
    /// Five small kernels and a single set-up, so that a debug-build
    /// test run finishes in seconds. All checks stay on.
    pub smoke: bool,
}

impl Plan {
    /// Whether set-up, having taken `so_far` seconds each time, runs
    /// once more: three to nine times, until 1.5 s are spent, so that a
    /// quick set-up is repeated more often than a slow one. `setup_s`
    /// is the median.
    pub fn set_up_again(&self, so_far: &[f64]) -> bool {
        let runs = so_far.len();
        if self.smoke {
            return runs < 1;
        }
        runs < 3 || (runs < 9 && so_far.iter().sum::<f64>() < 1.5)
    }

    /// Seconds the untraced phase measures.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 3.0
        } else {
            self.seconds
        }
    }

    /// Seconds the traced phase measures.
    pub fn traced_seconds(&self) -> f64 {
        self.seconds - self.untraced_seconds()
    }
}

/// Runs workload `name`; `None` for a name that is not a workload.
///
/// The calling thread, and with it every thread the workload starts, is
/// confined to one CPU for good. Left to the scheduler, the six threads
/// of a service workload change places on a two-CPU machine every few
/// hundred milliseconds and throughput moves by a third with them; on
/// one CPU the numbers are the CPU cost of the path measured, whatever
/// the machine has beside it. For the same reason the process allocates
/// from one malloc arena (see [`os::use_one_malloc_arena`]).
pub fn run_workload(name: &str, plan: &Plan) -> Option<RunResult> {
    match os::allowed_cpus().last() {
        Some(&cpu) if os::pin_to_cpu(cpu) => {}
        _ => eprintln!("benchmark: cannot pin to one CPU; placement is left to the scheduler"),
    }
    if !os::use_one_malloc_arena() {
        eprintln!("benchmark: cannot limit malloc to one arena; peak_rss_mb will vary more");
    }
    Some(match name {
        "compile_cold" => offline::run(offline::Kind::CompileCold, plan),
        "execute_hot" => offline::run(offline::Kind::ExecuteHot, plan),
        "solve_prove" => offline::run(offline::Kind::SolveProve, plan),
        "serve_warm" => serve::run(serve::Kind::Warm, plan),
        "serve_cold" => serve::run(serve::Kind::Cold, plan),
        _ => return None,
    })
}

/// Where the benchmark writes: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `out/trace-<workload>.json`. A trace that cannot be written
/// is reported and does not fail the run: the metrics do not depend on
/// the file.
fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, trace::render(spans, TRACE_FILE_JOBS)));
    if let Err(e) = written {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}
