//! Property tests: for arbitrary generated programs, every
//! optimization strategy must preserve execution semantics, schedules
//! must satisfy the §4.1 validity constraints (asserted inside the
//! pipeline), and the pre-processing transformations must be meaning
//! preserving.
//!
//! Each property is a seeded loop over drawn cases; a failing program is
//! shrunk to a minimized reproducer by `slp_fuzz::property`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use slp::core::{compile, MachineConfig, SlpConfig, Strategy as Scheme};
use slp::suite::{random_program, GeneratorConfig};
use slp::vm::execute;
use slp_fuzz::property::{case_rng, check_program};

fn generator_config(rng: &mut StdRng) -> GeneratorConfig {
    GeneratorConfig {
        arrays: rng.gen_range(1..=3),
        scalars: rng.gen_range(2..=6),
        body_stmts: rng.gen_range(2..=14),
        trip_count: rng.gen_range(4..=24),
        max_stride: rng.gen_range(1..=4),
        outer_sweeps: rng.gen_range(0..=4),
    }
}

fn scalar_run(program: &slp::ir::Program, machine: &MachineConfig) -> slp::vm::Outcome {
    execute(
        &compile(
            program,
            &SlpConfig::for_machine(machine.clone(), Scheme::Scalar),
        ),
        machine,
    )
    .expect("scalar run")
}

/// Every strategy (including the layout stage) computes bit-identical
/// array contents to the scalar run, on any valid program.
#[test]
fn all_strategies_preserve_semantics() {
    let mut rng = case_rng("properties::all_strategies_preserve_semantics");
    let machine = MachineConfig::intel_dunnington();
    for case in 0..48 {
        let seed = rng.next_u64();
        let cfg = generator_config(&mut rng);
        // A draw that once picked a per-case flag: discarding it keeps
        // every later case on its seed.
        rng.next_u64();
        let label = format!("case {case}: seed {seed}, {cfg:?}");
        check_program(&label, &random_program(seed, &cfg), |program| {
            let scalar = scalar_run(program, &machine);
            let n = program.arrays().len();
            for (strategy, layout) in [
                (Scheme::Native, false),
                (Scheme::Baseline, false),
                (Scheme::Holistic, false),
                (Scheme::Holistic, true),
            ] {
                let mut c = SlpConfig::for_machine(machine.clone(), strategy);
                if layout {
                    c = c.with_layout();
                }
                // `compile` internally validates every schedule against the
                // §4.1 constraints and panics on violation.
                let out = execute(&compile(program, &c), &machine).expect("vector run");
                if !out.state.arrays_bitwise_eq(&scalar.state, n) {
                    return Err(format!("{strategy:?} layout={layout} diverged"));
                }
            }
            Ok(())
        });
    }
}

/// The fast-path bytecode engine agrees bit-for-bit with the
/// reference interpreter on every strategy's compiled kernel.
#[test]
fn engines_agree_on_random_programs() {
    let mut rng = case_rng("properties::engines_agree_on_random_programs");
    let machine = MachineConfig::intel_dunnington();
    let strategies = [
        Scheme::Scalar,
        Scheme::Native,
        Scheme::Baseline,
        Scheme::Holistic,
    ];
    for case in 0..48 {
        let seed = rng.next_u64();
        let cfg = generator_config(&mut rng);
        let label = format!("case {case}: seed {seed}, {cfg:?}");
        check_program(&label, &random_program(seed, &cfg), |program| {
            for strategy in strategies {
                let kernel = compile(program, &SlpConfig::for_machine(machine.clone(), strategy));
                let diags = slp::verify::check_engine_agreement(&kernel);
                if !diags.is_empty() {
                    return Err(format!("{strategy:?} engines disagree: {diags:?}"));
                }
            }
            Ok(())
        });
    }
}

/// No strategy makes the program slower than scalar once the §4.3
/// cost gate has run.
#[test]
fn cost_gate_bounds_regressions() {
    let mut rng = case_rng("properties::cost_gate_bounds_regressions");
    let machine = MachineConfig::intel_dunnington();
    for case in 0..48 {
        let seed = rng.next_u64();
        let program = random_program(seed, &GeneratorConfig::default());
        check_program(&format!("case {case}: seed {seed}"), &program, |program| {
            let scalar = scalar_run(program, &machine).stats.metrics.cycles;
            for strategy in [Scheme::Baseline, Scheme::Holistic] {
                let c = SlpConfig::for_machine(machine.clone(), strategy);
                let out = execute(&compile(program, &c), &machine).expect("vector run");
                let cycles = out.stats.metrics.cycles;
                if cycles > scalar * 1.001 {
                    return Err(format!("{strategy:?}: {cycles} cycles, scalar {scalar}"));
                }
            }
            Ok(())
        });
    }
}

/// Loop unrolling is meaning preserving on its own.
#[test]
fn unrolling_preserves_semantics() {
    let mut rng = case_rng("properties::unrolling_preserves_semantics");
    let machine = MachineConfig::intel_dunnington();
    for case in 0..48 {
        let seed = rng.next_u64();
        let factor = rng.gen_range(2..=4);
        let program = random_program(seed, &GeneratorConfig::default());
        let label = format!("case {case}: seed {seed}, factor {factor}");
        check_program(&label, &program, |program| {
            let mut unrolled = program.clone();
            slp::ir::unroll_program(&mut unrolled, factor);
            let a = scalar_run(program, &machine);
            let b = scalar_run(&unrolled, &machine);
            if a.state.arrays_bitwise_eq(&b.state, program.arrays().len()) {
                Ok(())
            } else {
                Err("unrolling changed the arrays".to_string())
            }
        });
    }
}

/// The affine substitution used by unrolling matches direct
/// evaluation: eval(e[v := v + k]) == eval(e) with v shifted by k.
#[test]
fn affine_substitution_matches_shifted_evaluation() {
    use slp::ir::{AffineExpr, LoopVarId};
    let mut rng = case_rng("properties::affine_substitution_matches_shifted_evaluation");
    let v = LoopVarId::new(0);
    for case in 0..48 {
        let coeff = rng.gen_range(-8..=8);
        let cst = rng.gen_range(-16..=16);
        let k = rng.gen_range(-8..=8);
        let at = rng.gen_range(-32..=32);
        let e = AffineExpr::from_terms([(v, coeff)], cst);
        let shifted = e.substitute(v, &AffineExpr::var(v).offset(k));
        assert_eq!(
            shifted.eval(&[(v, at)]),
            e.eval(&[(v, at + k)]),
            "case {case}: coeff {coeff}, cst {cst}, k {k}, at {at}"
        );
    }
}

/// Eq. (4): the layout mapping sends each element a reference touches
/// to the strided interleaved slot, injectively per lane.
#[test]
fn eq4_is_a_strided_injection() {
    let mut rng = case_rng("properties::eq4_is_a_strided_injection");
    for case in 0..48 {
        let a = rng.gen_range(1..=8);
        let b = rng.gen_range(0..=8);
        let l = rng.gen_range(1..=4);
        let iters = rng.gen_range(1..=32);
        for p in 0..l {
            for i in 0..iters {
                assert_eq!(
                    slp::core::eq4_map(a * i + b, a, b, l, p),
                    l * i + p,
                    "case {case}: a {a}, b {b}, l {l}, iters {iters}; lane {p}, i {i}"
                );
            }
        }
    }
}

/// Generated programs satisfy the static validator, and unrolling
/// preserves validity (ids stay unique, subscripts stay in bounds).
#[test]
fn generated_programs_validate_and_stay_valid_after_unrolling() {
    let mut rng =
        case_rng("properties::generated_programs_validate_and_stay_valid_after_unrolling");
    for case in 0..64 {
        let seed = rng.next_u64();
        let factor = rng.gen_range(2..=4);
        let program = random_program(seed, &GeneratorConfig::default());
        let label = format!("case {case}: seed {seed}, factor {factor}");
        check_program(&label, &program, |program| {
            program.validate().map_err(|e| format!("invalid: {e:?}"))?;
            let mut unrolled = program.clone();
            slp::ir::unroll_program(&mut unrolled, factor);
            unrolled
                .validate()
                .map_err(|e| format!("invalid after unrolling: {e:?}"))
        });
    }
}

#[test]
fn suite_kernels_validate() {
    for (spec, program) in slp::suite::all(1) {
        program
            .validate()
            .unwrap_or_else(|e| panic!("{} is invalid: {e:?}", spec.name));
    }
}
