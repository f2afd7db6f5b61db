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
fn a_nan_cost_table_orders_blocks_the_same_on_both_engines() {
    // `loop_overhead` reaches every cycle total after the first
    // iteration, so every block's cycles are NaN: sorting them must
    // neither panic nor depend on the engine.
    let program = slp_lang::compile(
        "kernel two { array A: f64[16]; array B: f64[16];
         for i in 0..8 { A[2*i] = B[2*i] * 2.0; A[2*i+1] = B[2*i+1] * 2.0; }
         for i in 0..16 { B[i] = A[i] + 1.0; } }",
    )
    .expect("compiles");
    let mut machine = MachineConfig::intel_dunnington();
    machine.cost.loop_overhead = f64::NAN;
    for config in configs(&machine) {
        let kernel = compile(&program, &config);
        let fast = execute(&kernel, &machine).expect("bytecode runs");
        let slow = execute_reference(&kernel, &machine).expect("reference runs");
        let bits = |o: &Outcome| -> Vec<_> {
            (o.block_cycles.iter().map(|&(id, c)| (id, c.to_bits()))).collect()
        };
        assert_eq!(fast.block_cycles.len(), 2);
        assert_eq!(bits(&fast), bits(&slow));
        assert!(fast.stats.metrics.cycles.is_nan() && slow.stats.metrics.cycles.is_nan());
        assert!(fast.state.bitwise_eq(&slow.state));
    }
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
