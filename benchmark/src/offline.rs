//! The three single-threaded workloads: `compile_cold`, `execute_hot`
//! and `solve_prove`. A job starts with source text (or a compiled
//! kernel) and ends with executed memory that is compared with the
//! oracle after the job's timer stopped.

use std::time::Instant;

use slp_core::{CompiledKernel, MachineConfig, Strategy};
use slp_driver::json::Json;
use slp_driver::{CompileRequest, VerifyLevel};
use slp_vm::{BytecodeKernel, MachineState};

use crate::inputs::{
    compile_request, kernels, machine, triples, Digest, Kernel, Rng, Scheme, Triple, MACHINES,
};
use crate::layers;
use crate::measure::{Fastest, Latencies, Pass, Summary};
use crate::metrics::{RunResult, Values};
use crate::oracle::Oracle;
use crate::os::cpu_nanos;
use crate::stats::Geomean;
use crate::trace::{Recorder, Totals, JOB};
use crate::{write_trace, Plan};

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Source text to executed kernel, every job a full compile.
    CompileCold,
    /// Execution of kernels compiled during set-up.
    ExecuteHot,
    /// Exact packing under a node cap plus symbolic proof.
    SolveProve,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::CompileCold => "compile_cold",
            Kind::ExecuteHot => "execute_hot",
            Kind::SolveProve => "solve_prove",
        }
    }

    /// Problem scale of the kernel sources: 64 × scale elements.
    fn scale(self) -> usize {
        match self {
            Kind::ExecuteHot => 32,
            Kind::CompileCold | Kind::SolveProve => 1,
        }
    }

    fn schemes(self) -> &'static [Scheme] {
        match self {
            Kind::CompileCold | Kind::ExecuteHot => &Scheme::FIVE,
            Kind::SolveProve => &[Scheme::Optimal],
        }
    }

    fn verify(self) -> VerifyLevel {
        match self {
            Kind::CompileCold | Kind::ExecuteHot => VerifyLevel::Static,
            Kind::SolveProve => VerifyLevel::Prove,
        }
    }
}

/// A job's wall and CPU clocks, started and stopped together.
struct Stopwatch {
    cpu0: u64,
    start: Instant,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            cpu0: cpu_nanos(),
            start: Instant::now(),
        }
    }

    /// `(wall, cpu)` nanoseconds since the start.
    fn stop(self) -> (u64, u64) {
        let wall = self.start.elapsed().as_nanos() as u64;
        (wall, cpu_nanos() - self.cpu0)
    }
}

/// What a job's output was, established after its timer stopped.
struct Facts {
    /// `None` when the job succeeded and matched the oracle.
    error: Option<String>,
    /// Simulated cycles of the run.
    cycles: f64,
    /// Digest of the job's deterministic counts; must repeat in every
    /// round.
    signature: u64,
}

impl Facts {
    fn failed(error: String) -> Facts {
        Facts {
            error: Some(error),
            cycles: 0.0,
            signature: 0,
        }
    }
}

/// Everything fixed before the first measured job.
struct Workload {
    kind: Kind,
    kernels: Vec<Kernel>,
    machines: Vec<MachineConfig>,
    oracle: Oracle,
    jobs: Vec<Triple>,
    requests: Vec<CompileRequest>,
}

/// Results gathered across the measured phases.
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Per job index: signature and cycles of its first execution.
    first: Vec<Option<(u64, f64)>>,
}

impl Tally {
    fn record(&mut self, job: usize, label: impl Fn() -> String, facts: Facts) {
        self.attempted += 1;
        let error = match (facts.error, self.first[job]) {
            (Some(e), _) => Some(e),
            (None, Some((signature, _))) if signature != facts.signature => {
                Some("counts differ from the job's first execution".to_string())
            }
            (None, first) => {
                if first.is_none() {
                    self.first[job] = Some((facts.signature, facts.cycles));
                }
                None
            }
        };
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.is_empty() {
                self.errors.push(format!("job {}: {e}", label()));
            }
        }
    }
}

impl Workload {
    fn new(kind: Kind, smoke: bool) -> Workload {
        let kernels = kernels(kind.scale(), smoke);
        let jobs = triples(kernels.len(), kind.schemes());
        let requests = jobs
            .iter()
            .map(|&t| {
                let k = &kernels[t.kernel];
                compile_request(&k.name, &k.source, t, kind.verify())
            })
            .collect();
        Workload {
            kind,
            oracle: Oracle::prepare(&kernels),
            kernels,
            machines: MACHINES.iter().map(|m| machine(m)).collect(),
            jobs,
            requests,
        }
    }

    fn label(&self, job: usize) -> String {
        let t = self.jobs[job];
        format!(
            "{} {} {:?}",
            self.kernels[t.kernel].name, MACHINES[t.machine], t.scheme
        )
    }

    /// The system's work before the first measured job: for
    /// `execute_hot` compiling every kernel, for the compile workloads
    /// one unmeasured round so that lazy set-up is paid.
    fn set_up(&self, tally: &mut Tally) -> Vec<CompiledKernel> {
        match self.kind {
            Kind::ExecuteHot => self
                .requests
                .iter()
                .map(|req| {
                    let out = slp_driver::compile_source(req, None)
                        .unwrap_or_else(|e| panic!("set-up compile of {}: {e}", req.name));
                    out.kernel
                })
                .collect(),
            Kind::CompileCold | Kind::SolveProve => {
                for job in 0..self.jobs.len() {
                    let (_, facts) = self.job(job, &[]);
                    if let Some(e) = facts.error {
                        tally
                            .errors
                            .push(format!("set-up job {}: {e}", self.label(job)));
                    }
                }
                Vec::new()
            }
        }
    }

    /// Runs job `job` and returns its wall and CPU time in nanoseconds.
    /// Only the calls into the system are timed.
    fn job(&self, job: usize, compiled: &[CompiledKernel]) -> ((u64, u64), Facts) {
        let t = self.jobs[job];
        let mc = &self.machines[t.machine];
        match self.kind {
            Kind::ExecuteHot => {
                let kernel = &compiled[job];
                let watch = Stopwatch::start();
                let run = slp_vm::execute(kernel, mc);
                let nanos = watch.stop();
                (nanos, self.check_run(t, kernel, run))
            }
            Kind::CompileCold | Kind::SolveProve => {
                let req = &self.requests[job];
                let watch = Stopwatch::start();
                let out = slp_driver::compile_source(req, None);
                let run = out.as_ref().ok().map(|o| slp_vm::execute(&o.kernel, mc));
                let nanos = watch.stop();
                let facts = match (out, run) {
                    (Ok(out), Some(run)) => {
                        if out.report.as_ref().is_some_and(|r| !r.passes()) {
                            Facts::failed("the verifier reported errors".to_string())
                        } else {
                            self.check_run(t, &out.kernel, run)
                        }
                    }
                    (Err(e), _) => Facts::failed(e.to_string()),
                    (Ok(_), None) => unreachable!("a compiled kernel is run"),
                };
                (nanos, facts)
            }
        }
    }

    fn check_run(
        &self,
        t: Triple,
        kernel: &CompiledKernel,
        run: Result<slp_vm::Outcome, slp_vm::ExecError>,
    ) -> Facts {
        let run = match run {
            Ok(run) => run,
            Err(e) => return Facts::failed(e.to_string()),
        };
        if !self.oracle.matches(t.kernel, &run.state) {
            return Facts::failed("final memory differs from the scalar reference".to_string());
        }
        let s = &kernel.stats;
        let mut d = Digest::default();
        for count in [
            s.stmts as u64,
            s.superwords as u64,
            s.vectorized_stmts as u64,
            s.replications as u64,
            s.opt_nodes,
            run.stats.metrics.cycles.to_bits(),
        ] {
            d.add(&count.to_le_bytes());
        }
        Facts {
            error: None,
            cycles: run.stats.metrics.cycles,
            signature: d.value(),
        }
    }

    /// Job `job` decomposed into the public calls `compile_source` and
    /// `execute` make, one span each.
    fn job_traced(
        &self,
        job: usize,
        compiled: &[CompiledKernel],
        rec: &mut Recorder,
        v: &mut Values,
        estimate: &mut Geomean,
        with_codec: bool,
    ) -> Facts {
        let t = self.jobs[job];
        let mc = &self.machines[t.machine];
        if self.kind == Kind::ExecuteHot {
            let root = rec.enter(JOB);
            let run = run_traced(&compiled[job], mc, rec, v);
            rec.exit(root);
            return self.check_run(t, &compiled[job], run);
        }

        let req = &self.requests[job];
        // `parse` lexes the text itself, so the lexer's own time is
        // taken beside the job, not in it.
        if let Ok(tokens) = rec.time("lang.lex", || slp_lang::lex(&req.source)) {
            v.add("lang.tokens", tokens.len() as f64);
        }
        let root = rec.enter(JOB);
        rec.time("driver.fingerprint", || req.fingerprint());
        let program = rec
            .time("lang.parse", || slp_lang::parse(&req.source))
            .and_then(|ast| rec.time("lang.lower", || slp_lang::lower(&ast)));
        let program = match program {
            Ok(program) => program,
            Err(e) => {
                rec.exit(root);
                return Facts::failed(e.to_string());
            }
        };
        if let Err(errors) = rec.time("ir.validate", || program.validate()) {
            rec.exit(root);
            return Facts::failed(format!("{} validation errors", errors.len()));
        }
        // What `compile_source` does for `Strategy::Optimal`.
        let config = if req.config.strategy == Strategy::Optimal {
            req.config.clone().with_packer(slp_opt::OptimalPacker)
        } else {
            req.config.clone()
        };
        let (kernel, timings) = rec.time("core.compile", || {
            slp_core::compile_timed(&program, &config)
        });
        let report = rec.time("verify.static", || slp_verify::verify_kernel(&kernel));
        let mut passes = report.passes();
        if req.verify == VerifyLevel::Prove {
            let (symbolic, verdict) =
                rec.time("tv.prove", || slp_verify::prove_kernel(&program, &kernel));
            passes &= symbolic.passes();
            v.add("raw.tv_jobs", 1.0);
            if verdict.name() == "proved" {
                v.add("raw.tv_proved", 1.0);
            }
        }
        let run = run_traced(&kernel, mc, rec, v);
        rec.exit(root);

        v.add("ir.stmts", program.stmt_count() as f64);
        layers::add_compile(v, config.strategy, &kernel.stats, &timings);
        if let Ok(run) = &run {
            let estimated = slp_core::estimate_kernel_cost(&kernel);
            if estimated > 0.0 && run.stats.metrics.cycles > 0.0 {
                estimate.add(estimated / run.stats.metrics.cycles);
            }
        }
        if with_codec {
            let text = rec.time("driver.codec_encode", || {
                slp_driver::encode_kernel(&kernel).to_compact()
            });
            v.add("driver.codec_bytes", text.len() as f64);
            let decoded = rec.time("driver.codec_decode", || {
                Json::parse(&text)
                    .ok()
                    .and_then(|json| slp_driver::decode_kernel(&json).ok())
            });
            if decoded.map(|k| k.stats) != Some(kernel.stats) {
                return Facts::failed("the kernel does not survive the codec".to_string());
            }
        }
        if !passes {
            return Facts::failed("the verifier reported errors".to_string());
        }
        self.check_run(t, &kernel, run)
    }
}

/// The order of the next round and the stream it is reshuffled from.
struct Rounds {
    order: Vec<usize>,
    rng: Rng,
}

impl Workload {
    /// Runs traced rounds for the traced share of `plan.seconds` (at
    /// least one) and turns their spans into the per-layer metrics.
    fn traced_pass(
        &self,
        plan: &Plan,
        mut rounds: Rounds,
        compiled: &[CompiledKernel],
        tally: &mut Tally,
        untraced: &Summary,
    ) -> Vec<(&'static str, f64)> {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        let mut v = Values::default();
        let mut estimate = Geomean::default();
        let mut done = 0;
        let mut traced = 0u32;
        loop {
            for &job in &rounds.order {
                rec.set_job(traced);
                traced += 1;
                // The codec round trip is taken in the first round only.
                let with_codec = self.kind == Kind::CompileCold && done == 0;
                let facts =
                    self.job_traced(job, compiled, &mut rec, &mut v, &mut estimate, with_codec);
                tally.record(job, || self.label(job), facts);
            }
            rounds.rng.shuffle(&mut rounds.order);
            done += 1;
            if phase_done(epoch.elapsed().as_secs_f64(), done, plan.traced_seconds()) {
                break;
            }
        }
        let spans = rec.into_spans();
        let totals = Totals::of(&spans);
        write_trace(self.kind.name(), &spans);
        if self.kind != Kind::ExecuteHot {
            // What `compile_source` covers of the decomposed job.
            let covered: f64 = [
                "driver.fingerprint",
                "lang.parse",
                "lang.lower",
                "ir.validate",
                "core.compile",
                "verify.static",
                "tv.prove",
            ]
            .iter()
            .map(|span| totals.micros_per_job(span))
            .sum();
            v.set("driver.compile_source_us", covered);
        }
        v.set("core.est_over_sim_cycles_geomean", estimate.value());
        let failed_share = tally.failed as f64 / tally.attempted as f64;
        layers::finish(&totals, &mut v, untraced, self.oracle.seconds, failed_share);
        if totals.unaccounted_share() > crate::MAX_UNACCOUNTED_SHARE {
            tally.errors.push(format!(
                "the trace leaves {:.1} % of job time unaccounted",
                totals.unaccounted_share() * 100.0
            ));
        }
        layers::assemble(&totals, &v)
    }
}

/// `slp_vm::execute` as its four public steps.
fn run_traced(
    kernel: &CompiledKernel,
    mc: &MachineConfig,
    rec: &mut Recorder,
    v: &mut Values,
) -> Result<slp_vm::Outcome, slp_vm::ExecError> {
    let codes = rec.time("vm.codegen", || slp_vm::lower_kernel(kernel, mc, true));
    let bytecode = rec.time("vm.translate", || {
        BytecodeKernel::from_codes(kernel, mc, &codes)
    })?;
    let state = rec.time("vm.seed", || MachineState::seeded(&kernel.program));
    let run = rec.time("vm.exec", || bytecode.run_from(state))?;

    let insts: usize = codes
        .iter()
        .map(|(_, code)| code.preheader.len() + code.insts.len())
        .sum();
    v.add("vm.codegen_insts", insts as f64);
    v.add("vm.translate_ops", bytecode.op_count() as f64);
    v.add("vm.fused_ops", bytecode.fused_count() as f64);
    let (unchecked, accesses) = bytecode.unchecked_accesses();
    v.add("raw.unchecked_accesses", unchecked as f64);
    v.add("raw.accesses", accesses as f64);
    v.add("vm.sim_cycles", run.stats.metrics.cycles);
    v.add(
        "raw.sim_insts",
        run.stats.metrics.dynamic_instructions as f64,
    );
    Ok(run)
}

/// Whether a phase of whole rounds that has run `elapsed` seconds in
/// `rounds` rounds should stop: at the round boundary closest to
/// `target`.
fn phase_done(elapsed: f64, rounds: u32, target: f64) -> bool {
    elapsed + elapsed / f64::from(rounds) / 2.0 >= target
}

/// Runs one offline workload as `plan` says.
pub fn run(kind: Kind, plan: &Plan) -> RunResult {
    let w = Workload::new(kind, plan.smoke);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        first: vec![None; w.jobs.len()],
    };
    let mut rng = Rng::new(plan.seed, 1);
    let mut order: Vec<usize> = (0..w.jobs.len()).collect();
    rng.shuffle(&mut order);

    let mut digest = Digest::default();
    for k in &w.kernels {
        digest.add(k.source.as_bytes());
    }
    for &job in &order {
        digest.add(w.label(job).as_bytes());
    }

    let mut setup_s = Vec::new();
    let mut compiled = Vec::new();
    while plan.set_up_again(&setup_s) {
        let start = Instant::now();
        compiled = w.set_up(&mut tally);
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // Untraced phase: whole rounds, each in a fresh seeded order. A
    // round is a pass; the quietest pass is put together from each
    // job's fastest execution.
    let mut fastest = Fastest::new(w.jobs.len());
    let mut all = Latencies::default();
    let mut rounds = Vec::new();
    let start = Instant::now();
    loop {
        let mut pass = Pass::default();
        for &job in &order {
            let ((wall, cpu), facts) = w.job(job, &compiled);
            fastest.record(job, wall, cpu);
            all.record(wall);
            pass.jobs += 1;
            pass.busy_s += wall as f64 / 1e9;
            pass.cpu_s += cpu as f64 / 1e9;
            tally.record(job, || w.label(job), facts);
        }
        rounds.push(pass);
        rng.shuffle(&mut order);
        let done = rounds.len() as u32;
        if phase_done(start.elapsed().as_secs_f64(), done, plan.untraced_seconds()) {
            break;
        }
    }
    let summary = Summary::offline(&fastest, &rounds, &all);

    let mut speedup = Geomean::default();
    for (t, first) in w.jobs.iter().zip(&tally.first) {
        match first {
            Some((_, cycles)) if t.scheme != Scheme::Scalar => {
                speedup.add(w.oracle.scalar_cycles(t.kernel, t.machine) / cycles);
            }
            _ => {}
        }
    }

    let metrics = if plan.trace {
        let rounds = Rounds { order, rng };
        w.traced_pass(plan, rounds, &compiled, &mut tally, &summary)
    } else {
        summary.end_to_end(&setup_s, speedup.value())
    };

    RunResult {
        workload: kind.name(),
        input_digest: digest.value(),
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        phase: summary.describe(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_stop_at_the_closest_round_boundary() {
        // 1.6 s rounds against a 2 s target: one round (1.6) is closer
        // than two (3.2).
        assert!(phase_done(1.6, 1, 2.0));
        // 0.15 s rounds: 13 rounds = 1.95 s, 14 = 2.1 s.
        assert!(!phase_done(1.80, 12, 2.0));
        assert!(phase_done(1.95, 13, 2.0));
    }
}
