//! Old-vs-new engine differential: the bytecode engine must reproduce
//! the reference interpreter bit for bit on *every* observable — final
//! memory image (arrays and scalars), run statistics, vectorized-block
//! count and per-block cycle attribution — across the whole benchmark
//! suite, deterministic random-program sweeps, and property-generated
//! workloads.
//!
//! The reference interpreter stays in the tree as the oracle precisely
//! so this file can exist; a divergence here is always a bug in the
//! bytecode lowering, never in the program under test.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use slp_core::{compile, ExecErrorKind, MachineConfig, SlpConfig, Strategy};
use slp_fuzz::property::{case_rng, check_program};
use slp_ir::Program;
use slp_suite::GeneratorConfig;
use slp_vm::{execute, execute_reference, BytecodeKernel, ExecError, Outcome};

fn strategies() -> [Strategy; 4] {
    [
        Strategy::Scalar,
        Strategy::Native,
        Strategy::Baseline,
        Strategy::Holistic,
    ]
}

fn configs(machine: &MachineConfig) -> Vec<SlpConfig> {
    let mut out = Vec::new();
    for strategy in strategies() {
        out.push(SlpConfig::for_machine(machine.clone(), strategy));
    }
    // Layout exercises replication population, the engine's stateful
    // corner.
    out.push(SlpConfig::for_machine(machine.clone(), Strategy::Holistic).with_layout());
    out
}

/// Fails the test unless `fast` (a bytecode lowering) and `slow` (the
/// reference) produced identical outcomes, or the identical error.
fn assert_same(
    label: &str,
    lowering: &str,
    fast: &Result<Outcome, ExecError>,
    slow: &Result<Outcome, ExecError>,
) {
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            assert!(
                fast.state.bitwise_eq(&slow.state),
                "{label}: {lowering} memory image diverged"
            );
            assert_eq!(
                fast.stats, slow.stats,
                "{label}: {lowering} run statistics diverged"
            );
            assert_eq!(
                fast.vectorized_blocks, slow.vectorized_blocks,
                "{label}: {lowering} vectorized-block count diverged"
            );
            assert_eq!(
                fast.block_cycles, slow.block_cycles,
                "{label}: {lowering} per-block cycles diverged"
            );
        }
        (Err(fast), Err(slow)) => {
            assert_eq!(
                fast, slow,
                "{label}: {lowering} fails with a different error"
            );
        }
        (fast, slow) => panic!(
            "{label}: one engine failed and the other did not \
             ({lowering} bytecode: {fast:?}, reference: {slow:?})"
        ),
    }
}

/// Compiles `program` under `config` and fails the test unless the
/// certified bytecode lowering, the fully checked one and the reference
/// interpreter produce identical outcomes (or the identical error, which
/// is returned).
fn assert_engines_agree(program: &Program, config: &SlpConfig, label: &str) -> Option<ExecError> {
    let kernel = compile(program, config);
    let machine = &config.machine;
    let slow = execute_reference(&kernel, machine);
    let certified = execute(&kernel, machine);
    assert_same(label, "certified", &certified, &slow);
    let checked = BytecodeKernel::compile_checked(&kernel, machine).and_then(|bc| bc.run());
    assert_same(label, "checked", &checked, &slow);
    slow.err()
}

#[test]
fn engines_agree_on_the_whole_suite() {
    for machine in [
        MachineConfig::intel_dunnington(),
        MachineConfig::amd_phenom_ii(),
    ] {
        for (spec, program) in slp_suite::all(1) {
            for config in configs(&machine) {
                let label = format!(
                    "{} / {} / {} (layout {})",
                    spec.name,
                    config.strategy.label(),
                    machine.name,
                    config.layout
                );
                assert_engines_agree(&program, &config, &label);
            }
        }
    }
}

#[test]
fn engines_agree_on_deterministic_random_sweeps() {
    let machine = MachineConfig::intel_dunnington();
    // Outer sweeps exercise preheader scheduling (invariant-pack
    // hoisting) and the layout replication gate; single loops exercise
    // the flat fast path.
    let shapes = [
        GeneratorConfig::default(),
        GeneratorConfig {
            outer_sweeps: 4,
            ..GeneratorConfig::default()
        },
        GeneratorConfig {
            body_stmts: 16,
            trip_count: 9,
            max_stride: 3,
            ..GeneratorConfig::default()
        },
    ];
    for (s, shape) in shapes.iter().enumerate() {
        for seed in 0..40u64 {
            let program = slp_suite::random_program(seed, shape);
            for config in configs(&machine) {
                let label = format!(
                    "shape {s} seed {seed} / {} (layout {})",
                    config.strategy.label(),
                    config.layout
                );
                assert_engines_agree(&program, &config, &label);
            }
        }
    }
}

/// Address classes neither generator reaches (both declare rank-1 arrays
/// only, `random_program` only `f64`): every shape the translator folds
/// into a linear form or marks as a one-slice lane run, next to the ones
/// it must leave on the per-lane and per-dimension paths.
const ADDRESS_CLASSES: [(&str, &str); 6] = [
    (
        // Row-wise, transposed and diagonal subscripts under a 2-deep
        // nest; the outer loop steps by 2 from a negative lower bound.
        "rank-2, inner loop vectorized",
        "kernel rank2 {
            const N = 8;
            array A: f64[N+3][N+2]; array B: f64[N+2][N]; array C: f64[N+2][N];
            array T: f64[N+1][N+2]; array D: f64[2*N+4]; array E: f64[N+2][N];
            for i in -2..N step 2 {
                for j in 0..N {
                    A[i+2][j] = B[i+2][j] * 2.0;
                    C[i+2][j] = T[j+1][i+2] + D[i+j+2];
                    E[i+2][j] = A[j+1][i+2] + 1.0;
                }
            }
        }",
    ),
    (
        // The same three subscript shapes with the non-unit step and the
        // negative lower bound on the *inner* loop.
        "rank-2, inner loop strided",
        "kernel rank2s {
            const N = 9;
            array A: f64[N+4][N+4]; array B: f64[N+4][N+4]; array D: f64[2*N+8];
            scalar s: f64;
            for i in 0..N {
                for j in -3..N step 3 {
                    s = B[i][j+3] + D[i+j+3];
                    A[i][j+3] = s * A[j+4][i];
                }
            }
        }",
    ),
    (
        // Vector stores into every element type: `f32` moves as a slice
        // like `f64`, the integer types coerce lane by lane (and wrap at
        // 8, 16 and 32 bits on these values) on unit-stride runs and on
        // scattered lanes alike.
        "element types",
        "kernel types {
            const N = 16;
            array F: f64[2*N];
            array I8: i8[2*N]; array I16: i16[2*N]; array I32: i32[2*N];
            array I64: i64[2*N]; array F32: f32[2*N];
            for i in 0..N {
                I8[i] = F[i] * 37.5;
                I16[i] = F[i] * 4000.7;
                I32[i] = F[i] * 300000000.3;
                I64[2*i] = F[i] * 1.5;
                F32[i] = F[i] * 0.3;
                I32[2*N-1-i] = F[2*i] * -2.5;
                I8[N+i] = I16[i] + I8[i];
            }
        }",
    ),
    (
        // Lanes that are unit-stride, strided, reversed and repeated, as
        // loads and as stores.
        "lane orders",
        "kernel lanes {
            const N = 16;
            array A: f64[4*N]; array B: f64[4*N]; array C: f64[4*N]; array R: f64[4*N];
            for i in 0..N {
                A[i] = B[2*i] * 2.0;
                C[2*i] = B[i] + 1.0;
                R[i] = B[N-1-i] * 3.0;
                R[3*N-i] = B[i] - 1.0;
                A[2*N+2*i] = B[i] * 2.0;
                A[2*N+2*i+1] = B[i] * 3.0;
                C[2*N+i] = B[7] + B[i];
            }
        }",
    ),
    (
        // A read-only superword indexed by the outer variable only hoists
        // to the preheader, where it is translated under the truncated
        // loop stack; the zero-trip sweep must charge nothing.
        "preheader-hoisted loads",
        "kernel hoisted {
            array A: f64[64]; array B: f64[64]; array W: f64[16]; array Z: f64[8];
            for t in 0..4 {
                for i in 0..16 {
                    A[2*i] = B[2*i] + W[2*t];
                    A[2*i+1] = B[2*i+1] + W[2*t+1];
                }
            }
            for t in 0..0 {
                for i in 0..4 { Z[2*i] = W[2*t]; Z[2*i+1] = W[2*t+1]; }
            }
        }",
    ),
    (
        // A stencil whose neighbouring loads overlap across iterations,
        // nested in an outer sweep: the inner body range runs once per
        // inner iteration of every sweep, and its integer counters are
        // folded in by run count.
        "overlapping stencil under an outer sweep",
        "kernel stencil {
            const N = 32;
            array U: f64[N+4]; array V: f64[N+4];
            for t in 0..3 {
                for i in 0..N {
                    V[i] = U[i] + U[i+2] * 0.5;
                }
            }
        }",
    ),
];

fn for_all_configs(mut f: impl FnMut(&SlpConfig, String)) {
    for machine in [
        MachineConfig::intel_dunnington(),
        MachineConfig::amd_phenom_ii(),
    ] {
        for (c, config) in configs(&machine).into_iter().enumerate() {
            f(&config, format!("config {c} / {}", machine.name));
        }
    }
}

#[test]
fn engines_agree_on_every_address_class() {
    for (class, src) in ADDRESS_CLASSES {
        let program = slp_lang::compile(src).unwrap_or_else(|e| panic!("{class}: {e}"));
        for_all_configs(|config, label| {
            let label = format!("{class} / {label}");
            assert_eq!(assert_engines_agree(&program, config, &label), None);
        });
    }
}

#[test]
fn out_of_bounds_messages_match_in_every_address_class() {
    // One faulting subscript per class: linearly inside the array but out
    // of bounds in a dimension (row-wise, transposed), off the end on a
    // diagonal, below zero from a negative lower bound, a scattered
    // integer store, and a preheader-hoisted superword load.
    let faulting = [
        "kernel f { array A: f64[4][8]; for i in 0..4 { for j in 0..9 { A[i][j] = 1.0; } } }",
        "kernel f { array A: f64[4][8]; array B: f64[8][8];
                    for i in 0..4 { for j in 0..8 { B[i][j] = A[j][i]; } } }",
        "kernel f { array A: f64[8]; array B: f64[8][8];
                    for i in 0..4 step 2 { for j in 0..8 { B[i][j] = A[i+j]; } } }",
        "kernel f { array A: f64[16]; for i in -1..8 { A[2*i] = 2.0; A[2*i+1] = 3.0; } }",
        "kernel f { array A: i16[16]; array B: f64[16];
                    for i in 0..8 { A[3*i] = B[i] * 2.0; A[3*i+1] = B[i] * 3.0; } }",
        "kernel f { array A: f64[32]; array W: f64[6];
                    for t in 0..4 { for i in 0..8 {
                        A[2*i] = A[2*i] + W[2*t]; A[2*i+1] = A[2*i+1] + W[2*t+1]; } } }",
    ];
    for src in faulting {
        let program = slp_lang::compile(src).expect("compiles");
        for_all_configs(|config, label| {
            let err = assert_engines_agree(&program, config, &format!("{label}: {src}"))
                .expect("the program faults under every configuration");
            assert_eq!(err.kind(), ExecErrorKind::OutOfBounds, "{label}: {src}");
        });
    }
}

#[test]
fn a_cost_that_is_not_a_whole_milli_cycle_is_the_same_error_on_both_engines() {
    // Both engines count cycles in integer milli-cycles, so a cost table
    // they cannot convert is refused before memory is seeded — a NaN
    // loop overhead as much as a fraction of a milli-cycle.
    let program = slp_lang::compile(
        "kernel two { array A: f64[16]; array B: f64[16];
         for i in 0..8 { A[2*i] = B[2*i] * 2.0; A[2*i+1] = B[2*i+1] * 2.0; }
         for i in 0..16 { B[i] = A[i] + 1.0; } }",
    )
    .expect("compiles");
    // Loop control and the replication copy are priced in every run, a
    // scalar statement's row only where one is emitted (the scalar
    // strategy emits nothing else).
    let spoiled = |spoil: fn(&mut slp_core::CostParams)| {
        let mut machine = MachineConfig::intel_dunnington();
        spoil(&mut machine.cost);
        machine
    };
    let tables = [
        (spoiled(|c| c.loop_overhead = f64::NAN), true),
        (spoiled(|c| c.scalar_load = 1.0005), true),
        (spoiled(|c| c.scalar_op = f64::INFINITY), false),
    ];
    for (machine, everywhere) in tables {
        for config in configs(&machine) {
            let label = format!("{} (layout {})", config.strategy.label(), config.layout);
            let err = assert_engines_agree(&program, &config, &label);
            if everywhere || config.strategy == Strategy::Scalar {
                let err = err.unwrap_or_else(|| panic!("{label}: the table is refused"));
                assert_eq!(err.kind(), ExecErrorKind::MalformedCode, "{err}");
                assert!(err.to_string().contains("milli-cycles"), "{err}");
            }
        }
    }
}

#[test]
fn every_stored_nan_is_canonical_on_both_engines() {
    // `sqrt` of a negative and its negation make NaNs of both signs; the
    // reference engine, the per-iteration loop and strips each compute
    // theirs on their own path, and every store makes them `f64::NAN`.
    let program = slp_lang::compile(
        "kernel nan { array A: f64[32]; array B: f64[32]; array C: f64[32];
         scalar t, s, u: f64;
         for i in 0..32 {
             B[i] = neg(A[i]); C[i] = sqrt(B[i]); A[i] = neg(C[i]);
             t = neg(A[i]); s = sqrt(t); u = neg(s); B[i] = u * 2.0;
         } }",
    )
    .expect("compiles");
    let canonical = f64::NAN.to_bits();
    for_all_configs(|config, label| {
        let kernel = compile(&program, config);
        let checked = BytecodeKernel::compile_checked(&kernel, &config.machine)
            .and_then(|bc| bc.run())
            .expect("runs");
        for out in [
            execute(&kernel, &config.machine).expect("runs"),
            execute_reference(&kernel, &config.machine).expect("runs"),
            checked,
        ] {
            let mut nans = 0;
            for a in kernel.program.array_ids().take(3) {
                for &v in out.state.array(a) {
                    assert!(!v.is_nan() || v.to_bits() == canonical, "{label}: {v:?}");
                    nans += usize::from(v.is_nan());
                }
            }
            assert_eq!(nans, 96, "{label}");
            for v in kernel.program.scalar_ids() {
                let v = out.state.scalar(v);
                assert!(!v.is_nan() || v.to_bits() == canonical, "{label}: {v:?}");
            }
        }
    });
    // The reproducer the canonical store was found with: a generated
    // body whose NaN sign differed between the engines.
    let shape = GeneratorConfig {
        max_stride: 1,
        body_stmts: 14,
        scalars: 3,
        ..GeneratorConfig::default()
    };
    let program = slp_suite::random_program(60, &shape);
    for_all_configs(|config, label| {
        assert_engines_agree(&program, config, &format!("seed 60 / {label}"));
    });
}

/// Property-generated workloads: arbitrary generator knobs and seeds,
/// all strategies, both machines. Trip counts and body sizes are kept
/// moderate so the reference interpreter (the slow side of the
/// comparison) stays fast enough for CI.
#[test]
fn engines_agree_on_property_generated_workloads() {
    let mut rng = case_rng("engine_differential::engines_agree_on_property_generated_workloads");
    for case in 0..48 {
        let seed = rng.gen_range(0..10_000);
        let shape = GeneratorConfig {
            arrays: rng.gen_range(2..5),
            scalars: rng.gen_range(2..8),
            body_stmts: rng.gen_range(4..14),
            trip_count: rng.gen_range(4..24),
            max_stride: rng.gen_range(1..4),
            outer_sweeps: rng.gen_range(0..4),
        };
        let strategy = strategies()[rng.gen_range(0..4_usize)];
        let machine = if rng.next_u64() & 1 == 1 {
            MachineConfig::amd_phenom_ii()
        } else {
            MachineConfig::intel_dunnington()
        };
        let mut config = SlpConfig::for_machine(machine, strategy);
        if rng.next_u64() & 1 == 1 {
            config = config.with_layout();
        }
        let label = format!(
            "case {case}: seed {seed}, {shape:?} / {} / {} (layout {})",
            strategy.label(),
            config.machine.name,
            config.layout
        );
        let program = slp_suite::random_program(seed, &shape);
        check_program(&label, &program, |program| {
            assert_engines_agree(program, &config, &label);
            Ok(())
        });
    }
}

/// A kernel whose loop body the bytecode engine can run in strips: every
/// array the body writes is read and written at one subscript `c·i + o`
/// only, so each access meets the others at distance 0 — also after
/// unrolling; read-only arrays are read at any offset. Without
/// `recurrences` every scalar is written before the body reads it; with
/// them a term may read any scalar, so a scalar read before its write
/// carries a recurrence, and `s2` is an `f32` and `s3` an `i32`, so links
/// coerce. An optional outer sweep reruns the loop, so strips start from
/// an outer counter too.
fn strip_program<R: Rng>(rng: &mut R, recurrences: bool) -> Program {
    let n: i64 = rng.gen_range(3..40);
    let arrays = rng.gen_range(2..6);
    let types = ["f64", "f64", "f64", "f32", "i32"];
    // Per array: coefficient, offset, written by the body.
    let shape: Vec<(i64, i64, bool)> = (0..arrays)
        .map(|a| {
            (
                rng.gen_range(1..4),
                rng.gen_range(0..4),
                a == 0 || rng.gen_bool(0.5),
            )
        })
        .collect();
    let mut src = String::from("kernel strips {\n");
    for (a, &(c, _, _)) in shape.iter().enumerate() {
        let ty = types[rng.gen_range(0..types.len())];
        src += &format!("  array A{a}: {ty}[{}];\n", c * n + 8);
    }
    src += if recurrences {
        "  scalar s0, s1: f64;\n  scalar s2: f32;\n  scalar s3: i32;\n"
    } else {
        "  scalar s0, s1, s2, s3: f64;\n"
    };
    let sweeps = rng.gen_range(1..3);
    src += &format!("  for t in 0..{sweeps} {{ for i in 0..{n} {{\n");
    let mut written = [false; 4];
    for _ in 0..rng.gen_range(3..14) {
        let term = |rng: &mut R, written: &[bool; 4]| -> String {
            match rng.gen_range(0..3) {
                0 => format!("{}.5", rng.gen_range(0..7)),
                1 if recurrences || written.iter().any(|&w| w) => {
                    let live: Vec<usize> = (0..4).filter(|&s| recurrences || written[s]).collect();
                    format!("s{}", live[rng.gen_range(0..live.len())])
                }
                _ => {
                    let a = rng.gen_range(0..shape.len());
                    let (c, o, w) = shape[a];
                    let o = if w { o } else { rng.gen_range(0..8) };
                    format!("A{a}[{c}*i+{o}]")
                }
            }
        };
        let (x, y, z) = (
            term(rng, &written),
            term(rng, &written),
            term(rng, &written),
        );
        let rhs = match rng.gen_range(0..6) {
            0 => x,
            1 => format!("{x} + {y}"),
            2 => format!("{x} * {y}"),
            3 => format!("{x} + {y} * {z}"),
            4 => format!("sqrt({x})"),
            _ => format!("select({x} < {y}, {z}, {x})"),
        };
        let lhs = if rng.gen_bool(0.4) {
            let s = rng.gen_range(0..4_usize);
            written[s] = true;
            format!("s{s}")
        } else {
            let stores: Vec<usize> = (0..shape.len()).filter(|&a| shape[a].2).collect();
            let a = stores[rng.gen_range(0..stores.len())];
            format!("A{a}[{}*i+{}]", shape[a].0, shape[a].1)
        };
        src += &format!("    {lhs} = {rhs};\n");
    }
    src += "  } }\n}\n";
    slp_lang::compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// Property-generated strip-eligible bodies: the engines agree when the
/// bytecode engine runs a body op by op over up to 64 iterations. A
/// release build runs the full profile.
#[test]
fn engines_agree_on_strip_eligible_bodies() {
    strip_profile(
        "engine_differential::engines_agree_on_strip_eligible_bodies",
        |rng| strip_program(rng, false),
    );
}

/// Property-generated bodies with scalar recurrences, scalars written
/// more than once and coercing scalar types: the engines agree when the
/// bytecode engine runs a recurrence as a scan inside the strip. A
/// release build runs the full profile.
#[test]
fn engines_agree_on_recurrence_bodies() {
    strip_profile(
        "engine_differential::engines_agree_on_recurrence_bodies",
        |rng| strip_program(rng, true),
    );
}

/// A kernel whose loop body reads and writes one array `A` at
/// subscripts `c·i + o`, coefficients 1–3 and offsets small or up to
/// 160: pairs with unequal coefficients run behind the per-strip guard,
/// so some strips overlap and run iteration by iteration and others do
/// not. `B` is read-only; a scalar is read only once written.
fn guarded_program<R: Rng>(rng: &mut R) -> Program {
    let n: i64 = rng.gen_range(3..200);
    let mut src = format!(
        "kernel guarded {{\n  array A: f64[{}];\n  array B: f64[{n}];\n  scalar s0, s1: f64;\n",
        3 * n + 160
    );
    src += &format!(
        "  for t in 0..{} {{ for i in 0..{n} {{\n",
        rng.gen_range(1..3)
    );
    let mut written = [false; 2];
    for _ in 0..rng.gen_range(2..7) {
        let access = |rng: &mut R| {
            let c = rng.gen_range(1..4);
            let o = if rng.gen_bool(0.5) {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..161)
            };
            format!("A[{c}*i+{o}]")
        };
        let term = |rng: &mut R| match rng.gen_range(0..4) {
            0 => format!("{}.5", rng.gen_range(0..7)),
            1 if written[0] => "s0".to_string(),
            2 => "B[i]".to_string(),
            _ => access(rng),
        };
        let (x, y) = (term(rng), term(rng));
        let rhs = match rng.gen_range(0..3) {
            0 => x,
            1 => format!("{x} + {y}"),
            _ => format!("{x} * {y}"),
        };
        let lhs = if rng.gen_bool(0.2) {
            let s = rng.gen_range(0..2_usize);
            written[s] = true;
            format!("s{s}")
        } else {
            access(rng)
        };
        src += &format!("    {lhs} = {rhs};\n");
    }
    src += "  } }\n}\n";
    slp_lang::compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// Property-generated bodies with unequal coefficients on one array: the
/// engines agree whether a strip's guard lets it run column-wise or
/// sends it to the per-iteration loop. A release build runs the full
/// profile.
#[test]
fn engines_agree_on_guarded_bodies() {
    strip_profile(
        "engine_differential::engines_agree_on_guarded_bodies",
        guarded_program,
    );
}

/// Runs `program` cases under random strategies, machines and layout: 40
/// in a debug build, 400 in release.
fn strip_profile(name: &str, mut program: impl FnMut(&mut StdRng) -> Program) {
    let mut rng = case_rng(name);
    let cases = if cfg!(debug_assertions) { 40 } else { 400 };
    for case in 0..cases {
        let program = program(&mut rng);
        let strategy = strategies()[rng.gen_range(0..4_usize)];
        let machine = if rng.next_u64() & 1 == 1 {
            MachineConfig::amd_phenom_ii()
        } else {
            MachineConfig::intel_dunnington()
        };
        let mut config = SlpConfig::for_machine(machine, strategy);
        if rng.next_u64() & 1 == 1 {
            config = config.with_layout();
        }
        let label = format!(
            "case {case} / {} / {} (layout {})",
            strategy.label(),
            config.machine.name,
            config.layout
        );
        check_program(&label, &program, |program| {
            assert_engines_agree(program, &config, &label);
            Ok(())
        });
    }
}
