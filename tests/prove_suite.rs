//! End-to-end guarantees of the symbolic translation validator.
//!
//! Two directions:
//!
//! * **Completeness on real output**: every kernel of the sixteen-kernel
//!   suite, compiled under every vectorizing strategy, must come back
//!   `Proved` — the validator accepts everything the optimizer actually
//!   emits, with no budget or unsupported degradation.
//! * **Soundness on injected miscompiles**: classic vectorizer bugs —
//!   reordered dependent stores, a dropped remainder iteration, a wrong
//!   lane permutation — must come back `Refuted`, each with a concrete
//!   counterexample input that demonstrably diverges when replayed
//!   through the VM.

use slp::core::{compile, BlockSchedule, ScheduledItem};
use slp::prelude::*;
use slp::verify::{replay_counterexample, validate, Budgets, Verdict};

fn machine() -> MachineConfig {
    MachineConfig::intel_dunnington()
}

fn strategies() -> [(&'static str, Strategy, bool); 4] {
    [
        ("Native", Strategy::Native, false),
        ("SLP", Strategy::Baseline, false),
        ("Global", Strategy::Holistic, false),
        ("Global+Layout", Strategy::Holistic, true),
    ]
}

fn config(strategy: Strategy, layout: bool) -> SlpConfig {
    let cfg = SlpConfig::for_machine(machine(), strategy);
    if layout {
        cfg.with_layout()
    } else {
        cfg
    }
}

fn program(src: &str) -> Program {
    parse_kernel(src).expect("kernel compiles")
}

#[test]
fn whole_suite_is_proved_under_every_strategy() {
    let budgets = Budgets::default();
    for (spec, original) in slp::suite::all(1) {
        for (label, strategy, layout) in strategies() {
            let kernel = compile(&original, &config(strategy, layout));
            let verdict = validate(&original, &kernel, &machine(), &budgets);
            assert_eq!(
                verdict.name(),
                "proved",
                "{} under {label}: {verdict:?}",
                spec.name
            );
        }
    }
}

#[test]
fn driver_prove_level_carries_the_verdict() {
    let req = CompileRequest {
        name: "axpy".to_string(),
        source: "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
                 for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }"
            .to_string(),
        config: config(Strategy::Holistic, false),
        verify: VerifyLevel::Prove,
    };
    let cache = CompileCache::in_memory(4);
    let cold = compile_source(&req, Some(&cache)).expect("compiles");
    assert_eq!(cold.prove, Some(ProveVerdict::Proved));
    assert!(cold.report.expect("prove verifies").passes());
    let warm = compile_source(&req, Some(&cache)).expect("compiles");
    assert!(warm.cache_hit());
    assert_eq!(warm.prove, Some(ProveVerdict::Proved), "verdict is cached");
}

/// Asserts `verdict` is a refutation whose counterexample demonstrably
/// diverges when replayed through both VM engines.
fn assert_confirmed_refutation(
    original: &Program,
    kernel: &slp::core::CompiledKernel,
    verdict: &Verdict,
) {
    let cex = match verdict {
        Verdict::Refuted(cex) => cex,
        other => panic!("expected refutation, got {other:?}"),
    };
    assert!(
        replay_counterexample(original, kernel, &machine(), cex),
        "counterexample at {} does not replay",
        cex.location
    );
}

/// Injected bug #1: two dependent stores to the same cells, scheduled in
/// the wrong order. `A[i] = A[i] * 2.0` must run before
/// `A[i] = A[i] + 1.0`; swapping the superword items computes
/// `(a + 1) * 2` instead of `a * 2 + 1`.
#[test]
fn reordered_dependent_stores_are_refuted() {
    let original = program(
        "kernel dep { array A: f64[8];
         for i in 0..8 { A[i] = A[i] * 2.0; A[i] = A[i] + 1.0; } }",
    );
    let mut kernel = compile(&original, &config(Strategy::Holistic, false));
    let (bid, sched) = kernel.schedules[0].clone();
    // The tamper must target a schedule the VM executes: a block that
    // loses the cost gate falls back to statement-order scalar code and
    // the broken schedule would be dead.
    assert!(sched.is_vectorized(), "tamper needs an executed schedule");
    let mut items: Vec<ScheduledItem> = sched.items().to_vec();
    items.swap(0, 1);
    kernel.schedules[0] = (bid, BlockSchedule::new(items));

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
}

/// Injected bug #2: the vectorized loop covers only the main iterations
/// and the remainder is dropped — the tail cells keep their input
/// values instead of being rewritten.
#[test]
fn dropped_remainder_iteration_is_refuted() {
    let original = program(
        "kernel tail { array A: f64[10];
         for i in 0..10 { A[i] = 1.0 + A[i] * 3.0; } }",
    );
    // The miscompiled kernel: identical declarations, but the transformed
    // program stops two iterations short.
    let truncated = program(
        "kernel tail { array A: f64[10];
         for i in 0..8 { A[i] = 1.0 + A[i] * 3.0; } }",
    );
    let kernel = compile(&truncated, &config(Strategy::Holistic, false));

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
    if let Verdict::Refuted(cex) = &verdict {
        assert!(
            cex.location == "A[8]" || cex.location == "A[9]",
            "divergence should be in the dropped tail, got {}",
            cex.location
        );
    }
}

/// Injected bug #3: a wrong permutation — the even/odd lanes read each
/// other's elements, as if a shuffle picked the mirrored lane order.
#[test]
fn wrong_permutation_is_refuted() {
    let original = program(
        "kernel perm { array A: f64[16]; array B: f64[16];
         for i in 0..8 {
             B[2*i] = A[2*i] + 1.0;
             B[2*i+1] = A[2*i+1] + 2.0;
         } }",
    );
    let permuted = program(
        "kernel perm { array A: f64[16]; array B: f64[16];
         for i in 0..8 {
             B[2*i] = A[2*i+1] + 1.0;
             B[2*i+1] = A[2*i] + 2.0;
         } }",
    );
    let kernel = compile(&permuted, &config(Strategy::Holistic, false));

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
}

/// The prove_kernel bridge surfaces a refutation as a V600 error, so
/// `slpc prove` and `--prove` batches fail loudly on a miscompile.
#[test]
fn refutation_reaches_the_diagnostic_report() {
    let original = program(
        "kernel dep { array A: f64[8];
         for i in 0..8 { A[i] = A[i] * 2.0; A[i] = A[i] + 1.0; } }",
    );
    let mut kernel = compile(&original, &config(Strategy::Holistic, false));
    let (bid, sched) = kernel.schedules[0].clone();
    assert!(sched.is_vectorized());
    let mut items: Vec<ScheduledItem> = sched.items().to_vec();
    items.swap(0, 1);
    kernel.schedules[0] = (bid, BlockSchedule::new(items));

    let (report, _) = slp::verify::prove_kernel(&original, &kernel);
    assert!(
        report.has(slp::verify::LintCode::SymbolicMismatch),
        "{report}"
    );
    assert!(!report.passes());
}
