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
//!   through the VM. So must the miscompiles the block-wise proof of a
//!   loop body is exposed to: a superword over a recurrence between
//!   unroll replicas, a main loop that no longer partitions the range,
//!   swapped writes to cells that meet at one iteration, and a replica
//!   missing a statement.
//!
//! The block-wise proof visits each loop body once, so what a proof
//! costs does not depend on the trip counts.

use slp::core::{compile, BlockSchedule, CompiledKernel, ScheduledItem, SuperwordStmt};
use slp::ir::{Item, Loop, LoopHeader};
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
/// `slpc check --verify prove` and `--verify prove` batches fail loudly on
/// a miscompile.
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

/// The kernel program's first loop.
fn first_loop(kernel: &mut CompiledKernel) -> &mut Loop {
    let items = kernel.program.items_mut().iter_mut();
    let mut loops = items.filter_map(|item| match item {
        Item::Loop(l) => Some(l),
        Item::Stmt(_) => None,
    });
    loops.next().expect("a loop")
}

/// Injected bug #4: the two unroll replicas of a recurrence packed into
/// one superword, so the second lane reads `A[i+1]` before the first
/// lane writes it.
#[test]
fn superword_over_a_replica_recurrence_is_refuted() {
    let original = program(
        "kernel rec { array A: f64[17];
         for i in 0..16 { A[i+1] = A[i] * 2.0; } }",
    );
    let mut kernel = compile(&original, &config(Strategy::Holistic, false));
    let blocks = kernel.program.blocks();
    let lanes: Vec<_> = blocks[0].block.stmts().iter().map(|s| s.id()).collect();
    assert_eq!(lanes.len(), 2, "the body is unrolled twice");
    let packed = ScheduledItem::Superword(SuperwordStmt::new(lanes));
    kernel.schedules.retain(|(id, _)| *id != blocks[0].id);
    kernel
        .schedules
        .push((blocks[0].id, BlockSchedule::new(vec![packed])));

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
}

/// Injected bug #5: the unrolled main loop stops short, strides past
/// iterations, or, with the remainder dropped, ends inside its last step
/// and so runs iteration 11, which the original never runs: the loops no
/// longer partition the range.
#[test]
fn main_loop_that_no_longer_partitions_the_range_is_refuted() {
    let original = program(
        "kernel part { array A: f64[12];
         for i in 0..11 { A[i] = 1.0 + A[i] * 3.0; } }",
    );
    fn main(items: &mut [Item]) -> &mut LoopHeader {
        match &mut items[0] {
            Item::Loop(l) => &mut l.header,
            Item::Stmt(_) => panic!("the main loop comes first"),
        }
    }
    let tampers: [fn(&mut Vec<Item>); 3] = [
        |items| main(items).upper -= 2,
        |items| main(items).step *= 2,
        |items| {
            main(items).upper += 1;
            items.truncate(1);
        },
    ];
    for tamper in tampers {
        let mut kernel = compile(&original, &config(Strategy::Holistic, false));
        let items = kernel.program.items_mut();
        assert_eq!(
            (items.len(), main(items).step),
            (2, 2),
            "main and remainder"
        );
        tamper(items);
        let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
        assert_confirmed_refutation(&original, &kernel, &verdict);
    }
}

/// Injected bug #6: two stores whose subscripts differ by a multiple of
/// `i`, swapped. They meet only at `i = 0`, where the swap leaves the
/// wrong value in `A[0]`.
#[test]
fn swapped_stores_that_meet_at_one_iteration_are_refuted() {
    let original = program(
        "kernel meet { array A: f64[16]; array B: f64[8];
         for i in 0..8 { A[i] = B[i] + 1.0; A[2*i] = B[i] * 2.0; } }",
    );
    let mut cfg = config(Strategy::Holistic, false);
    cfg.unroll = 1;
    let mut kernel = compile(&original, &cfg);
    first_loop(&mut kernel).body.swap(0, 1);
    // No schedule: both engines run the block in its (swapped) order.
    kernel.schedules.clear();

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
    if let Verdict::Refuted(cex) = &verdict {
        assert_eq!(cex.location, "A[0]");
    }
}

/// Injected bug #7: the unrolled body lost its second replica, so every
/// odd cell keeps its input value.
#[test]
fn replica_missing_a_statement_is_refuted() {
    let original = program(
        "kernel miss { array A: f64[8]; array B: f64[8];
         for i in 0..8 { A[i] = B[i] + 1.0; } }",
    );
    let mut kernel = compile(&original, &config(Strategy::Holistic, false));
    let body = &mut first_loop(&mut kernel).body;
    assert_eq!(body.len(), 2, "the body is unrolled twice");
    body.pop();
    kernel.schedules.clear();

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
}

/// Injected bug #8: the two unroll replicas of a sum swapped, so the
/// live-out scalar adds in another order; only the scalar shows it at the
/// loop's exit, since `B[0]` copies the sum after the loop.
#[test]
fn swapped_sum_replicas_are_refuted() {
    let original = program(
        "kernel sum { array A: f64[8]; array B: f64[1]; scalar s: f64;
         for i in 0..8 { s = s + A[i]; }
         B[0] = s; }",
    );
    let mut kernel = compile(&original, &config(Strategy::Holistic, false));
    let body = &mut first_loop(&mut kernel).body;
    assert_eq!(body.len(), 2, "the body is unrolled twice");
    body.swap(0, 1);
    kernel.schedules.clear();

    let verdict = validate(&original, &kernel, &machine(), &Budgets::default());
    assert_confirmed_refutation(&original, &kernel, &verdict);
}

/// Every suite and branchy kernel proves at scale 256, where povray's
/// concrete walk exceeds its step budget, in exactly the steps it takes
/// at scale 1: no loop is walked iteration by iteration.
#[test]
fn proof_steps_do_not_depend_on_scale() {
    let configs = [
        config(Strategy::Holistic, false),
        SlpConfig::for_machine(machine(), Strategy::Optimal)
            .with_packer(OptimalPacker)
            .with_opt_budget(0, 500),
    ];
    let steps = |scale| {
        let mut programs: Vec<Program> =
            slp::suite::all(scale).into_iter().map(|(_, p)| p).collect();
        for name in slp::suite::branchy_catalog() {
            programs.push(slp::suite::branchy_kernel(name, scale));
        }
        let mut steps = Vec::new();
        for original in &programs {
            for config in &configs {
                let kernel = compile(original, config);
                match validate(original, &kernel, &machine(), &Budgets::default()) {
                    Verdict::Proved(stats) => steps.push(stats.steps),
                    verdict => panic!("{} at scale {scale}: {verdict:?}", original.name()),
                }
            }
        }
        steps
    };
    assert_eq!(steps(1), steps(256));
}
