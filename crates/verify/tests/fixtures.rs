//! Injected-bug fixtures: each test plants one specific illegal
//! construct in an otherwise well-formed kernel and asserts that the
//! intended lint — and its stable code — catches it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use slp_core::{
    compile, BlockSchedule, CompiledKernel, MachineConfig, Replication, ScheduledItem, SlpConfig,
    Strategy, SuperwordStmt,
};
use slp_ir::{
    AccessVector, AffineExpr, Dest, Expr, Item, Loop, LoopHeader, Operand, Program, ScalarType,
    StmtId,
};
use slp_verify::{verify_kernel, verify_with_execution, LintCode, Report, Severity};

mod layout_cases;

/// The system allocator, tracking the bytes each thread holds and the
/// most it held since [`peak_bytes`] last reset the count.
struct Tracking;

thread_local! {
    static HELD: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn track(delta: isize) {
    let _ = HELD.try_with(|h| {
        let held = h.get().0 + delta;
        h.set((held, h.get().1.max(held)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller's `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The most heap bytes this thread held at once while running `f`.
fn peak_bytes(f: impl FnOnce()) -> isize {
    HELD.with(|h| h.set((0, 0)));
    f();
    HELD.with(|h| h.get().1)
}

fn machine() -> MachineConfig {
    MachineConfig::intel_dunnington()
}

/// Compiles `src` under the scalar strategy: the schedule is the
/// program order, ready to be corrupted by the fixture.
fn scalar_kernel(src: &str) -> CompiledKernel {
    let program = slp_lang::compile(src).expect("fixture source compiles");
    compile(
        &program,
        &SlpConfig::for_machine(machine(), Strategy::Scalar),
    )
}

/// The statement ids of the kernel's first block, in program order.
fn block_stmts(kernel: &CompiledKernel) -> Vec<StmtId> {
    kernel.program.blocks()[0]
        .block
        .iter()
        .map(|s| s.id())
        .collect()
}

fn replace_first_schedule(kernel: &mut CompiledKernel, items: Vec<ScheduledItem>) {
    kernel.schedules[0].1 = BlockSchedule::new(items);
}

fn only_code(report: &Report, code: LintCode) {
    assert!(report.has(code), "expected {code}, got:\n{report}");
}

#[test]
fn reordered_dependent_pair_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel dep { array A: f64[16]; scalar a: f64;
         for i in 0..8 { a = A[i]; A[i+8] = a * 2.0; } }",
    );
    let stmts = block_stmts(&kernel);
    // Swap the RAW-dependent pair: the use of `a` now runs first.
    replace_first_schedule(
        &mut kernel,
        vec![
            ScheduledItem::Single(stmts[1]),
            ScheduledItem::Single(stmts[0]),
        ],
    );
    let report = verify_kernel(&kernel);
    only_code(&report, LintCode::DependenceOrderViolated);
    assert!(!report.passes());
}

#[test]
fn misaligned_pack_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel mis { array A: f64[32]; array B: f64[32];
         for i in 0..8 { B[2*i+1] = A[2*i+1] * 2.0; B[2*i+2] = A[2*i+2] * 2.0; } }",
    );
    let stmts = block_stmts(&kernel);
    // <B[2i+1], B[2i+2]> is contiguous but starts one element past an
    // aligned boundary — a legal pack, but it forces unaligned vector
    // memory operations.
    replace_first_schedule(
        &mut kernel,
        vec![ScheduledItem::Superword(SuperwordStmt::new(vec![
            stmts[0], stmts[1],
        ]))],
    );
    let report = verify_kernel(&kernel);
    only_code(&report, LintCode::MisalignedPack);
    // Misalignment is a performance hazard, not a soundness violation.
    assert!(report.passes());
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Warning));
}

#[test]
fn non_injective_layout_map_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel lay { array A: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = A[i] + A[i+1]; } }",
    );
    let a = kernel.program.array_ids().next().expect("array A");
    let i = kernel.program.blocks()[0].loops[0].var;
    let rep = kernel
        .program
        .add_array("A_rep".to_string(), ScalarType::F64, vec![32], false);
    // Both lanes map to the same replica element 2i, but copy different
    // source elements A[i] and A[i+1]: lane 1 clobbers lane 0.
    kernel.replications.push(Replication {
        source: a,
        dest: rep,
        lanes: vec![
            AccessVector::new(vec![AffineExpr::var(i)]),
            AccessVector::new(vec![AffineExpr::var(i).offset(1)]),
        ],
        dest_exprs: vec![AffineExpr::var(i).scaled(2), AffineExpr::var(i).scaled(2)],
        loops: vec![kernel.program.blocks()[0].loops[0]],
    });
    let report = verify_kernel(&kernel);
    only_code(&report, LintCode::NonInjectiveLayoutMap);
    assert!(!report.passes());
}

#[test]
fn schedule_permutation_failures_are_caught() {
    let src = "kernel perm { array A: f64[16];
         for i in 0..8 { A[i] = A[i] * 2.0; A[i+8] = 1.0; } }";
    // Missing statement.
    let mut kernel = scalar_kernel(src);
    let stmts = block_stmts(&kernel);
    replace_first_schedule(&mut kernel, vec![ScheduledItem::Single(stmts[0])]);
    only_code(&verify_kernel(&kernel), LintCode::ScheduleNotPermutation);
    // Duplicated statement.
    let mut kernel = scalar_kernel(src);
    replace_first_schedule(
        &mut kernel,
        vec![
            ScheduledItem::Single(stmts[0]),
            ScheduledItem::Single(stmts[1]),
            ScheduledItem::Single(stmts[0]),
        ],
    );
    only_code(&verify_kernel(&kernel), LintCode::ScheduleNotPermutation);
    // Foreign statement id.
    let mut kernel = scalar_kernel(src);
    replace_first_schedule(
        &mut kernel,
        vec![
            ScheduledItem::Single(stmts[0]),
            ScheduledItem::Single(stmts[1]),
            ScheduledItem::Single(StmtId::new(999)),
        ],
    );
    only_code(&verify_kernel(&kernel), LintCode::ScheduleNotPermutation);
}

#[test]
fn intra_pack_dependence_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel intra { array A: f64[16]; array B: f64[16];
         for i in 0..8 { A[i] = A[i] * 2.0; B[i] = A[i] * 3.0; } }",
    );
    let stmts = block_stmts(&kernel);
    // B[i] reads the A[i] the first lane writes: RAW inside the pack.
    replace_first_schedule(
        &mut kernel,
        vec![ScheduledItem::Superword(SuperwordStmt::new(vec![
            stmts[0], stmts[1],
        ]))],
    );
    only_code(&verify_kernel(&kernel), LintCode::IntraPackDependence);
}

#[test]
fn pack_cycle_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel cyc { array A: f64[16]; scalar a, b, c, d: f64;
         for i in 0..8 { a = A[i]; b = a * 2.0; c = A[i+1]; d = c * 2.0; } }",
    );
    let s = block_stmts(&kernel);
    // P = <S0, S3> and Q = <S1, S2>: S0 -> S1 forces P before Q while
    // S2 -> S3 forces Q before P.
    replace_first_schedule(
        &mut kernel,
        vec![
            ScheduledItem::Superword(SuperwordStmt::new(vec![s[0], s[3]])),
            ScheduledItem::Superword(SuperwordStmt::new(vec![s[1], s[2]])),
        ],
    );
    only_code(&verify_kernel(&kernel), LintCode::PackCycle);
}

#[test]
fn lane_type_mismatch_is_caught() {
    // Built through the IR so the two lanes can have different element
    // types (the frontend would never produce this).
    let mut p = Program::new("ty".to_string());
    let x = p.add_scalar("x".to_string(), ScalarType::F32);
    let y = p.add_scalar("y".to_string(), ScalarType::F64);
    let i = p.add_loop_var("i");
    let s0 = p.make_stmt(Dest::Scalar(x), Expr::Copy(Operand::Const(1.0)));
    let s1 = p.make_stmt(Dest::Scalar(y), Expr::Copy(Operand::Const(2.0)));
    let (id0, id1) = (s0.id(), s1.id());
    p.push_item(Item::Loop(Loop {
        header: LoopHeader {
            var: i,
            lower: 0,
            upper: 4,
            step: 1,
        },
        body: vec![Item::Stmt(s0), Item::Stmt(s1)],
    }));
    let mut kernel = compile(&p, &SlpConfig::for_machine(machine(), Strategy::Scalar));
    replace_first_schedule(
        &mut kernel,
        vec![ScheduledItem::Superword(SuperwordStmt::new(vec![id0, id1]))],
    );
    only_code(&verify_kernel(&kernel), LintCode::LaneTypeMismatch);
}

#[test]
fn pack_wider_than_the_datapath_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel wide { array A: f64[32]; array B: f64[32];
         for i in 0..4 {
             B[4*i] = A[4*i] * 2.0; B[4*i+1] = A[4*i+1] * 2.0;
             B[4*i+2] = A[4*i+2] * 2.0; B[4*i+3] = A[4*i+3] * 2.0;
         } }",
    );
    let s = block_stmts(&kernel);
    // Four f64 lanes need 256 bits; the Dunnington datapath has 128.
    replace_first_schedule(
        &mut kernel,
        vec![ScheduledItem::Superword(SuperwordStmt::new(vec![
            s[0], s[1], s[2], s[3],
        ]))],
    );
    only_code(&verify_kernel(&kernel), LintCode::PackTooWide);
}

#[test]
fn overlapping_lane_destinations_are_caught() {
    let mut kernel = scalar_kernel(
        "kernel lap { array A: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = A[i] * 2.0; B[i] = A[i] * 3.0; } }",
    );
    let s = block_stmts(&kernel);
    replace_first_schedule(
        &mut kernel,
        vec![ScheduledItem::Superword(SuperwordStmt::new(vec![
            s[0], s[1],
        ]))],
    );
    only_code(&verify_kernel(&kernel), LintCode::OverlappingLaneDests);
}

#[test]
fn out_of_scope_loop_variable_is_caught() {
    // A[j] inside the i-loop, with j defined by no enclosing loop.
    let mut p = Program::new("scope".to_string());
    let a = p.add_array("A".to_string(), ScalarType::F64, vec![16], true);
    let i = p.add_loop_var("i");
    let j = p.add_loop_var("j");
    let s = p.make_stmt(
        Dest::Array(slp_ir::ArrayRef::new(
            a,
            AccessVector::new(vec![AffineExpr::var(i)]),
        )),
        Expr::Copy(Operand::Array(slp_ir::ArrayRef::new(
            a,
            AccessVector::new(vec![AffineExpr::var(j)]),
        ))),
    );
    p.push_item(Item::Loop(Loop {
        header: LoopHeader {
            var: i,
            lower: 0,
            upper: 8,
            step: 1,
        },
        body: vec![Item::Stmt(s)],
    }));
    let kernel = compile(&p, &SlpConfig::for_machine(machine(), Strategy::Scalar));
    only_code(&verify_kernel(&kernel), LintCode::UnknownLoopVar);
}

#[test]
fn replication_out_of_bounds_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel oob { array A: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = A[i] * 2.0; } }",
    );
    let a = kernel.program.array_ids().next().expect("array A");
    let i = kernel.program.blocks()[0].loops[0].var;
    let rep = kernel
        .program
        .add_array("A_rep".to_string(), ScalarType::F64, vec![16], false);
    // 4i runs to 28, past the 16-element replica.
    kernel.replications.push(Replication {
        source: a,
        dest: rep,
        lanes: vec![AccessVector::new(vec![AffineExpr::var(i)])],
        dest_exprs: vec![AffineExpr::var(i).scaled(4)],
        loops: vec![kernel.program.blocks()[0].loops[0]],
    });
    only_code(&verify_kernel(&kernel), LintCode::ReplicationOutOfBounds);
}

#[test]
fn written_replication_source_is_caught() {
    let mut kernel = scalar_kernel(
        "kernel wr { array A: f64[16]; array B: f64[16];
         for i in 0..8 { A[i] = A[i] * 2.0; B[i] = A[i] + 1.0; } }",
    );
    let a = kernel.program.array_ids().next().expect("array A");
    let i = kernel.program.blocks()[0].loops[0].var;
    let rep = kernel
        .program
        .add_array("A_rep".to_string(), ScalarType::F64, vec![16], false);
    // A is written inside the loop, so a pre-loop copy of it goes stale.
    kernel.replications.push(Replication {
        source: a,
        dest: rep,
        lanes: vec![AccessVector::new(vec![AffineExpr::var(i)])],
        dest_exprs: vec![AffineExpr::var(i)],
        loops: vec![kernel.program.blocks()[0].loops[0]],
    });
    only_code(&verify_kernel(&kernel), LintCode::ReplicatedArrayWritten);
}

#[test]
fn unpopulated_replica_read_is_caught() {
    // The program reads R[2i+1] but the population loop writes R[2i].
    let mut p = Program::new("pop".to_string());
    let a = p.add_array("A".to_string(), ScalarType::F64, vec![16], true);
    let r = p.add_array("R".to_string(), ScalarType::F64, vec![16], false);
    let b = p.add_array("B".to_string(), ScalarType::F64, vec![16], false);
    let i = p.add_loop_var("i");
    let header = LoopHeader {
        var: i,
        lower: 0,
        upper: 8,
        step: 1,
    };
    let s = p.make_stmt(
        Dest::Array(slp_ir::ArrayRef::new(
            b,
            AccessVector::new(vec![AffineExpr::var(i)]),
        )),
        Expr::Copy(Operand::Array(slp_ir::ArrayRef::new(
            r,
            AccessVector::new(vec![AffineExpr::var(i).scaled(2).offset(1)]),
        ))),
    );
    p.push_item(Item::Loop(Loop {
        header,
        body: vec![Item::Stmt(s)],
    }));
    let mut kernel = compile(&p, &SlpConfig::for_machine(machine(), Strategy::Scalar));
    kernel.replications.push(Replication {
        source: a,
        dest: r,
        lanes: vec![AccessVector::new(vec![AffineExpr::var(i)])],
        dest_exprs: vec![AffineExpr::var(i).scaled(2)],
        loops: vec![header],
    });
    only_code(&verify_kernel(&kernel), LintCode::UnpopulatedReplicaRead);
}

#[test]
fn differential_mismatch_is_caught() {
    let program = slp_lang::compile(
        "kernel diff { array A: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = A[i] * 2.0; } }",
    )
    .expect("compiles");
    let mut kernel = compile(
        &program,
        &SlpConfig::for_machine(machine(), Strategy::Scalar),
    );
    // Corrupt the compiled body: the kernel now multiplies by 3.
    kernel.program.for_each_stmt_mut(|s| {
        if let Expr::Binary(_, _, op) = s.expr_mut() {
            *op = Operand::Const(3.0);
        }
    });
    let report = verify_with_execution(&program, &kernel);
    only_code(&report, LintCode::DifferentialMismatch);
    assert!(!report.passes());
}

#[test]
fn failing_execution_is_reported() {
    let program = slp_lang::compile(
        "kernel crash { array A: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = A[i] * 2.0; } }",
    )
    .expect("compiles");
    let mut kernel = compile(
        &program,
        &SlpConfig::for_machine(machine(), Strategy::Scalar),
    );
    // Push every read far out of bounds.
    kernel.program.for_each_stmt_mut(|s| {
        if let Expr::Binary(_, Operand::Array(r), _) = s.expr_mut() {
            let shifted = r.access.dim(0).offset(1000);
            r.access = AccessVector::new(vec![shifted]);
        }
    });
    let report = verify_with_execution(&program, &kernel);
    only_code(&report, LintCode::ExecutionFailed);
}

#[test]
fn clean_kernels_report_nothing() {
    for name in ["lbm", "soplex", "cg"] {
        let program = slp_suite::kernel(name, 1);
        for (strategy, layout) in [
            (Strategy::Baseline, false),
            (Strategy::Holistic, false),
            (Strategy::Holistic, true),
        ] {
            let mut cfg = SlpConfig::for_machine(machine(), strategy);
            if layout {
                cfg = cfg.with_layout();
            }
            let kernel = compile(&program, &cfg);
            let report = verify_with_execution(&program, &kernel);
            assert!(
                report.passes(),
                "{name} under {strategy:?}/layout={layout}:\n{report}"
            );
        }
    }
}

/// The layout (V3xx) diagnostics of a report, with their messages.
fn layout_findings(report: &Report) -> Vec<(&'static str, &str)> {
    (report.diagnostics.iter())
        .filter(|d| d.code.code().starts_with("V3"))
        .map(|d| (d.code.code(), d.message.as_str()))
        .collect()
}

#[test]
fn every_layout_fixture_trips_exactly_its_codes() {
    for (name, codes, kernel) in layout_cases::cases() {
        let report = verify_kernel(&kernel);
        let found = layout_findings(&report);
        for code in codes {
            assert!(
                found.iter().any(|f| f.0 == *code),
                "{name}: no {code} in\n{report}"
            );
        }
        for (code, message) in &found {
            assert!(codes.contains(code), "{name}: unexpected {code}: {message}");
        }
    }
}

#[test]
fn an_out_of_bounds_lane_rewriting_a_filled_slot_is_caught_twice() {
    let report = verify_kernel(&layout_cases::oob_lane_rewrites_filled_slot());
    let found = layout_findings(&report);
    let count = |code| found.iter().filter(|f| f.0 == code).count();
    // Both counts stop at the cap of four findings per code.
    assert_eq!((count("V301"), count("V302")), (4, 4), "{report}");
    assert!(found.contains(&(
        "V302",
        "lane 1 of replication A -> R reads A[16], outside the array, at \
         iteration [(LoopVarId(0), 0)]"
    )));
    assert!(found.contains(&(
        "V301",
        "replica element R[0] is written from both A[0] and A[16] (lane 1, \
         iteration [(LoopVarId(0), 0)])"
    )));
}

#[test]
fn replica_reads_below_zero_and_past_the_end_are_caught() {
    let report = verify_kernel(&layout_cases::reads_outside_replica());
    let found = layout_findings(&report);
    let reads: Vec<&str> = found.iter().map(|f| f.1).collect();
    assert_eq!(found.len(), 4, "{report}");
    assert!(
        reads[0].contains("reads R[-1] at iteration [(LoopVarId(0), 0)]"),
        "{report}"
    );
    assert!(
        reads[1].contains("reads R[17] at iteration [(LoopVarId(0), 4)]"),
        "{report}"
    );
}

#[test]
fn a_rank_2_replica_is_out_of_bounds() {
    let report = verify_kernel(&layout_cases::rank_2_dest());
    let found = layout_findings(&report);
    assert_eq!(found.len(), 4, "{report}");
    assert!(found
        .iter()
        .all(|f| f.0 == "V302" && f.1.contains("writes R[")));
}

#[test]
fn a_replica_declared_far_longer_than_its_pairs_costs_memory_by_its_pairs() {
    let kernel = layout_cases::long_dest();
    // 16 pairs into 2^26 declared elements: a table spanning the whole
    // replica would hold 256 MiB.
    let peak = peak_bytes(|| assert!(verify_kernel(&kernel).is_clean()));
    assert!(
        0 < peak && peak < 64 << 10,
        "the check held {peak} bytes at once"
    );
}

#[test]
fn a_truncated_layout_check_says_so() {
    let report = verify_kernel(&layout_cases::truncated());
    let found = layout_findings(&report);
    assert_eq!(
        found,
        [(
            "V305",
            "layout check of replication A -> R stopped at its cap: checked \
             4194304 of 8388608 pairs"
        )],
        "{report}"
    );
    // What it checked is sound: a truncation is a warning.
    assert!(report.passes());
    assert_eq!(LintCode::LayoutCheckTruncated.severity(), Severity::Warning);
}
