//! The differential oracles: one fuzz case in, one verdict out.
//!
//! A case is a source string. It walks the full pipeline —
//! parse → lower → validate → compile (per strategy) → execute — with
//! every stage wrapped in [`catch_unwind`], and is judged against three
//! oracles:
//!
//! 1. **No panic**: every rejection must be a typed error
//!    ([`slp_lang::ParseError`], [`slp_ir::ValidationError`],
//!    [`slp_core::ExecError`]); a panic at any stage is a bug.
//! 2. **Scalar equivalence**: for every vectorizing strategy, the final
//!    memory image must be bit-identical to the scalar run
//!    ([`slp_verify::check_differential`]).
//! 3. **Engine agreement**: the bytecode engine and the reference
//!    tree-walking interpreter must agree on state, statistics and block
//!    accounting ([`slp_verify::check_engine_agreement`]).
//! 4. **No lint false positives**: `V502` claims a subscript *provably*
//!    escapes its array, so a program whose scalar reference run
//!    completes without an out-of-bounds trap must never trip it
//!    ([`slp_analyze::lint_program`]).
//! 5. **Validator agreement**: the symbolic translation validator
//!    ([`slp_verify::validate`]) must never *refute* a kernel whose
//!    differential check was clean — a refutation carries an
//!    execution-confirmed counterexample, so either the compiler
//!    miscompiles on a non-default input the point-wise check missed, or
//!    the validator itself is wrong. Both are bugs worth a reproducer.
//!    `Proved`/`Budget`/`Unsupported` verdicts make no extra claim.
//! 6. **Certificate soundness**: the memory-safety certificate's
//!    verdicts are proofs, held to execution in both directions. A
//!    kernel certified all-`ProvenSafe` must never trap out of bounds in
//!    the fully checked reference engine (the unchecked fast path would
//!    have corrupted memory); a kernel with a `ProvenFaulting` access
//!    must never complete cleanly (the "proof" of a fault was wrong).
//! 7. **Optimality**: the exact packer's claims are held to the cost
//!    model. A block solve's proven lower bound must not exceed the
//!    estimated cost of the scalar, Native, SLP or Global schedule of the
//!    same block. On a block of at most eight unrolled statements, an
//!    unbudgeted solve started from the scalar schedule must cost
//!    exactly what [`slp_opt::enumerated_minimum`] finds, and its bound
//!    is held to the same schedules. That a child's bound is never below
//!    its parent's is a `debug_assert!` in the solver, so debug builds
//!    check it on every case.
//!
//! Programs whose dynamic statement count or memory footprint exceeds
//! the fuzzing budgets are compile-tested only, so a hostile bound like
//! `0..1<<60` cannot stall the campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use slp_core::{
    baseline_block, estimate_schedule_cost, native_block, BlockSchedule, PackOutcome, PackRequest,
    Packer, SlpConfig, Strategy,
};
use slp_ir::Program;
use slp_opt::{enumerated_minimum, OptimalPacker};
use slp_vm::MachineConfig;

/// The pipeline stage at which an anomaly surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lexing, parsing or lowering of source text.
    Parse,
    /// Static validation of the lowered program.
    Validate,
    /// The SLP optimizer proper.
    Compile,
    /// VM execution and the two differential oracles.
    Execute,
    /// Re-emission of the program as source.
    Emit,
    /// The `slp-analyze` whole-program lints.
    Lint,
    /// The symbolic translation validator (`slp_verify::validate`).
    Prove,
}

impl Stage {
    /// Stable lower-case name, used in reports and corpus headers.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Validate => "validate",
            Stage::Compile => "compile",
            Stage::Execute => "execute",
            Stage::Emit => "emit",
            Stage::Lint => "lint",
            Stage::Prove => "prove",
        }
    }
}

/// What went wrong — the oracle that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A stage panicked instead of returning a typed error.
    Panic,
    /// Vectorized state diverged from the scalar reference.
    StateDivergence,
    /// The bytecode engine disagreed with the reference engine.
    EngineDivergence,
    /// A valid program failed to re-parse from its own emitted source.
    RoundTrip,
    /// An error-severity lint fired on a program whose reference run is
    /// clean (a `V502` on a program with no out-of-bounds access).
    LintFalsePositive,
    /// The symbolic validator refuted a kernel whose differential check
    /// was clean, or its counterexample failed to replay.
    ValidatorDisagreement,
    /// The memory-safety certificate's proof disagreed with execution:
    /// an all-`ProvenSafe` kernel trapped out of bounds in the checked
    /// reference engine, or a `ProvenFaulting` kernel completed cleanly.
    CertificateUnsound,
    /// The exact packer's proven lower bound exceeded another strategy's
    /// estimated cost, or an unbudgeted solve of a small block missed
    /// the enumerated minimum.
    OptimalityUnsound,
}

impl AnomalyKind {
    /// Stable lower-case name, used in reports and corpus headers.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::Panic => "panic",
            AnomalyKind::StateDivergence => "state-divergence",
            AnomalyKind::EngineDivergence => "engine-divergence",
            AnomalyKind::RoundTrip => "round-trip",
            AnomalyKind::LintFalsePositive => "lint-false-positive",
            AnomalyKind::ValidatorDisagreement => "validator-disagreement",
            AnomalyKind::CertificateUnsound => "certificate-unsound",
            AnomalyKind::OptimalityUnsound => "optimality-unsound",
        }
    }
}

/// An oracle violation: the bug class, where it fired, and a detail
/// message (panic payload or first diagnostic).
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// The oracle that fired.
    pub kind: AnomalyKind,
    /// The pipeline stage.
    pub stage: Stage,
    /// Strategy label when the anomaly is strategy-specific.
    pub strategy: Option<&'static str>,
    /// Panic payload or first diagnostic rendering.
    pub detail: String,
}

impl Anomaly {
    /// One-line rendering, stable enough for minimizer equivalence.
    pub fn headline(&self) -> String {
        match self.strategy {
            Some(s) => format!("{}/{} [{s}]", self.kind.name(), self.stage.name()),
            None => format!("{}/{}", self.kind.name(), self.stage.name()),
        }
    }
}

/// Execution budgets: cases beyond these run the compiler but not the VM.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Max dynamic statement executions (Σ block size × trip product).
    pub dynamic_stmts: i64,
    /// Max total array elements.
    pub array_elems: i64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            dynamic_stmts: 1 << 20,
            array_elems: 1 << 20,
        }
    }
}

/// Whether `program` fits the execution budgets.
pub(crate) fn within_budget(program: &Program, budget: &Budget) -> bool {
    let elems = program
        .arrays()
        .iter()
        .fold(0i64, |acc, a| acc.saturating_add(a.len().max(0)));
    if elems > budget.array_elems {
        return false;
    }
    let mut dynamic = 0i64;
    for info in program.blocks() {
        let trips = info
            .loops
            .iter()
            .fold(1i64, |acc, h| acc.saturating_mul(h.trip_count().max(0)));
        dynamic = dynamic.saturating_add(trips.saturating_mul(info.block.len() as i64));
    }
    dynamic <= budget.dynamic_stmts
}

/// The strategy matrix every valid program is pushed through.
///
/// `(strategy, layout, label)` — covering the four §7 schemes and the
/// branch-and-bound exact packer (so a solver packing the heuristic
/// would never produce is still held to scalar equivalence).
pub(crate) const STRATEGIES: &[(Strategy, bool, &str)] = &[
    (Strategy::Native, false, "native"),
    (Strategy::Baseline, false, "slp"),
    (Strategy::Holistic, false, "global"),
    (Strategy::Holistic, true, "global+layout"),
    (Strategy::Optimal, false, "global+opt"),
];

/// The configuration of one row of [`STRATEGIES`]; `Optimal` solves
/// through `audit`.
fn config_for(
    machine: &MachineConfig,
    strategy: Strategy,
    layout: bool,
    audit: &Arc<OptimalityAudit>,
) -> SlpConfig {
    let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
    if layout {
        cfg = cfg.with_layout();
    }
    if strategy == Strategy::Optimal {
        // A small deterministic node cap instead of a wall deadline: fuzz
        // verdicts must not depend on machine load, and a few hundred
        // nodes already exercises merge/exclude branching, bound pruning
        // and budget degradation.
        cfg.packer = Some(Arc::clone(audit) as Arc<dyn Packer>);
        cfg = cfg.with_opt_budget(0, 256);
    }
    cfg
}

/// Cost comparisons treat differences below this as ties, as the solver
/// does.
const EPS: f64 = 1e-9;

/// Blocks of at most this many unrolled statements are solved again
/// without a budget and held to the enumerated minimum.
const ENUMERATED_STMTS: usize = 8;

/// [`OptimalPacker`], holding every block solve to the optimality
/// oracle; keeps the first violation.
#[derive(Debug, Default)]
struct OptimalityAudit(Mutex<Option<String>>);

impl Packer for OptimalityAudit {
    fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
        let out = OptimalPacker.pack(req);
        let mut found = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if found.is_none() {
            *found = optimality_violation(req, &out);
        }
        out
    }
}

/// What is wrong with the solve `out` of `req`, if anything. The
/// unbudgeted solve of a small block starts from the scalar schedule,
/// not the request's incumbent: started from the heuristic's packing,
/// which is optimal on most small blocks, a search that prunes too much
/// would still return the optimum.
fn optimality_violation(req: &PackRequest<'_>, out: &PackOutcome) -> Option<String> {
    let (ix, deps, cx) = (req.ix, req.deps, req.cost_context());
    let scalar = BlockSchedule::scalar(ix.block());
    let others = [
        ("scalar", &scalar),
        ("native", &native_block(ix, deps)),
        ("slp", &baseline_block(ix, deps)),
        ("global", req.incumbent),
    ]
    .map(|(label, sched)| (label, estimate_schedule_cost(ix, sched, &cx)));
    let above_a_schedule = |solve: &str, bound: f64| {
        let (label, cost) = others.iter().find(|(_, cost)| bound > cost + EPS)?;
        Some(format!(
            "{solve} solve proves a lower bound of {bound}, above the {label} schedule's cost {cost}"
        ))
    };
    if let Some(found) = above_a_schedule("a budgeted", out.lower_bound) {
        return Some(found);
    }
    let stmts = ix.block().len();
    if stmts > ENUMERATED_STMTS {
        return None;
    }
    let config = req.config.clone().with_opt_budget(0, 0);
    let solved = OptimalPacker.pack(&PackRequest {
        config: &config,
        incumbent: &scalar,
        incumbent_cost: others[0].1,
        stop_at: None,
        ..*req
    });
    let minimum = enumerated_minimum(req);
    if solved.degraded || (solved.cost - minimum).abs() > EPS {
        return Some(format!(
            "an unbudgeted solve of a {stmts}-statement block costs {} (degraded: {}), \
             the enumerated minimum is {minimum}",
            solved.cost, solved.degraded
        ));
    }
    above_a_schedule("an unbudgeted", solved.lower_bound)
}

fn panic_payload(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_payload)
}

/// Runs every oracle against `src` on `machine`.
///
/// Returns `None` when the case is clean: either it was rejected with a
/// typed error at some stage, or it survived the whole pipeline with all
/// oracles agreeing. Returns the first [`Anomaly`] otherwise.
pub fn check_source(src: &str, machine: &MachineConfig, budget: &Budget) -> Option<Anomaly> {
    // Stage 1: parse + lower. A typed ParseError is a clean rejection.
    let program = match guarded(|| slp_lang::compile(src)) {
        Err(panic) => {
            return Some(Anomaly {
                kind: AnomalyKind::Panic,
                stage: Stage::Parse,
                strategy: None,
                detail: panic,
            })
        }
        Ok(Err(_)) => return None,
        Ok(Ok(p)) => p,
    };

    check_program(&program, machine, budget)
}

/// Runs the post-parse oracles against an already-lowered program.
///
/// Used directly by the typed-IR generator (which never had source) and
/// by [`check_source`] after parsing.
pub fn check_program(
    program: &Program,
    machine: &MachineConfig,
    budget: &Budget,
) -> Option<Anomaly> {
    // Stage 2: validation. A typed ValidationError is a clean rejection.
    match guarded(|| program.validate()) {
        Err(panic) => {
            return Some(Anomaly {
                kind: AnomalyKind::Panic,
                stage: Stage::Validate,
                strategy: None,
                detail: panic,
            })
        }
        Ok(Err(_)) => return None,
        Ok(Ok(())) => {}
    }

    // Stage 3: emission round-trip. Every valid program must re-parse
    // from its own source rendering (this is what the corpus stores).
    match guarded(|| slp_lang::compile(&program.to_source())) {
        Err(panic) => {
            return Some(Anomaly {
                kind: AnomalyKind::Panic,
                stage: Stage::Emit,
                strategy: None,
                detail: panic,
            })
        }
        Ok(Err(e)) => {
            return Some(Anomaly {
                kind: AnomalyKind::RoundTrip,
                stage: Stage::Emit,
                strategy: None,
                detail: e.render(&program.to_source()),
            })
        }
        Ok(Ok(_)) => {}
    }

    let run_vm = within_budget(program, budget);

    // Stage 4: the no-false-positive lint oracle. V502 asserts an
    // out-of-bounds access is provable; when the scalar reference run
    // of the same program completes without an OOB trap, the "proof"
    // was wrong. (Warnings V500/V501/V503 are heuristic and exempt.)
    if run_vm {
        let oob = match guarded(|| {
            slp_analyze::lint_program(program)
                .into_iter()
                .find(|f| f.kind == slp_analyze::FindingKind::OutOfBounds)
        }) {
            Err(panic) => {
                return Some(Anomaly {
                    kind: AnomalyKind::Panic,
                    stage: Stage::Lint,
                    strategy: None,
                    detail: panic,
                })
            }
            Ok(f) => f,
        };
        if let Some(finding) = oob {
            match guarded(|| slp_vm::run_scalar(program, machine)) {
                Err(panic) => {
                    return Some(Anomaly {
                        kind: AnomalyKind::Panic,
                        stage: Stage::Execute,
                        strategy: None,
                        detail: panic,
                    })
                }
                Ok(Ok(_)) => {
                    return Some(Anomaly {
                        kind: AnomalyKind::LintFalsePositive,
                        stage: Stage::Lint,
                        strategy: None,
                        detail: finding.message,
                    })
                }
                // The reference run trapped: the access really is out of
                // bounds and the lint was right to flag it.
                Ok(Err(_)) => {}
            }
        }
    }

    // Stages 5-6: each strategy compiles; in-budget programs also run
    // the two differential oracles.
    for &(strategy, layout, label) in STRATEGIES {
        let audit = Arc::default();
        let cfg = config_for(machine, strategy, layout, &audit);
        let kernel = match guarded(|| slp_core::compile(program, &cfg)) {
            Err(panic) => {
                return Some(Anomaly {
                    kind: AnomalyKind::Panic,
                    stage: Stage::Compile,
                    strategy: Some(label),
                    detail: panic,
                })
            }
            Ok(k) => k,
        };
        let found = audit
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(detail) = found {
            return Some(Anomaly {
                kind: AnomalyKind::OptimalityUnsound,
                stage: Stage::Compile,
                strategy: Some(label),
                detail,
            });
        }
        if !run_vm {
            continue;
        }
        match guarded(|| slp_verify::check_differential(program, &kernel)) {
            Err(panic) => {
                return Some(Anomaly {
                    kind: AnomalyKind::Panic,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: panic,
                })
            }
            Ok(diags) if !diags.is_empty() => {
                return Some(Anomaly {
                    kind: AnomalyKind::StateDivergence,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: diags[0].to_string(),
                })
            }
            Ok(_) => {}
        }
        match guarded(|| slp_verify::check_engine_agreement(&kernel)) {
            Err(panic) => {
                return Some(Anomaly {
                    kind: AnomalyKind::Panic,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: panic,
                })
            }
            Ok(diags) if !diags.is_empty() => {
                return Some(Anomaly {
                    kind: AnomalyKind::EngineDivergence,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: diags[0].to_string(),
                })
            }
            Ok(_) => {}
        }
        // The certificate-soundness oracle, both directions. The
        // reference engine keeps every bounds check regardless of the
        // certificate, so it is the ground truth the certificate's
        // proofs are held to: all-safe kernels must run clean, and a
        // proven-faulting access must actually trap (any earlier typed
        // error still counts as a trap — the run did not complete).
        match guarded(|| slp_vm::execute_reference(&kernel, machine)) {
            Err(panic) => {
                return Some(Anomaly {
                    kind: AnomalyKind::Panic,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: panic,
                })
            }
            Ok(Err(e))
                if kernel.safety.all_proven_safe()
                    && e.kind() == slp_vm::ExecErrorKind::OutOfBounds =>
            {
                return Some(Anomaly {
                    kind: AnomalyKind::CertificateUnsound,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: format!(
                        "certificate proves every access in bounds but the reference \
                         engine trapped: {e}"
                    ),
                })
            }
            Ok(Ok(_)) if kernel.safety.proven_faulting() > 0 => {
                return Some(Anomaly {
                    kind: AnomalyKind::CertificateUnsound,
                    stage: Stage::Execute,
                    strategy: Some(label),
                    detail: format!(
                        "certificate proves {} access(es) faulting but the reference \
                         engine completed cleanly",
                        kernel.safety.proven_faulting()
                    ),
                })
            }
            Ok(_) => {}
        }
        // The validator-agreement oracle. The differential check above
        // was clean, so a refutation here means the validator found (and
        // execution-confirmed) a divergence on an input the point-wise
        // check never tried. A counterexample that then fails to replay
        // is a validator-determinism bug instead; both disagree with the
        // differential verdict.
        match guarded(|| {
            slp_verify::validate(program, &kernel, machine, &slp_verify::Budgets::default())
        }) {
            Err(panic) => {
                return Some(Anomaly {
                    kind: AnomalyKind::Panic,
                    stage: Stage::Prove,
                    strategy: Some(label),
                    detail: panic,
                })
            }
            Ok(slp_verify::Verdict::Refuted(cex)) => {
                let replays =
                    guarded(|| slp_verify::replay_counterexample(program, &kernel, machine, &cex))
                        .unwrap_or(false);
                return Some(Anomaly {
                    kind: AnomalyKind::ValidatorDisagreement,
                    stage: Stage::Prove,
                    strategy: Some(label),
                    detail: format!(
                        "refuted at {} (scalar {:?}, vectorized {:?}, replay confirmed: {replays}) \
                         but the differential check was clean",
                        cex.location, cex.scalar_value, cex.vector_value
                    ),
                });
            }
            // Proved agrees with the clean differential; Budget and
            // Unsupported make no claim.
            Ok(_) => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::intel_dunnington()
    }

    #[test]
    fn clean_kernel_passes_every_oracle() {
        let src = "kernel k {
            const N = 16;
            array A: f64[N]; array B: f64[N];
            for i in 0..N { A[i] = A[i] + B[i]; }
        }";
        assert!(check_source(src, &machine(), &Budget::default()).is_none());
    }

    #[test]
    fn malformed_source_is_a_clean_rejection() {
        for src in ["kernel", "kernel k { array A: f64[-", "@@@@", ""] {
            assert!(check_source(src, &machine(), &Budget::default()).is_none());
        }
    }

    #[test]
    fn over_budget_programs_are_compile_tested_only() {
        // 1<<40 iterations: legal, validates, but must not be executed.
        let src = "kernel k {
            array A: f64[8];
            scalar s: f64;
            for i in 0..1099511627776 { s = s + A[0]; }
        }";
        assert!(check_source(src, &machine(), &Budget::default()).is_none());
    }

    #[test]
    fn strided_kernel_does_not_trip_the_lint_oracle() {
        // A step-2 loop stresses exactly the strided reasoning behind
        // V502; a clean run must never be flagged.
        let src = "kernel k {
            const N = 16;
            array A: f64[2*N]; array B: f64[N];
            for i in 0..N step 2 {
                A[2*i] = B[i] + 1.0;
                A[2*i+1] = A[i+3] + 1.0;
            }
        }";
        assert!(check_source(src, &machine(), &Budget::default()).is_none());
    }

    #[test]
    fn suite_corpus_is_clean() {
        for (name, src) in slp_suite::corpus(7, 4) {
            let verdict = check_source(&src, &machine(), &Budget::default());
            assert!(verdict.is_none(), "{name}: {verdict:?}");
        }
    }
}
