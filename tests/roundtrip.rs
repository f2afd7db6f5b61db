//! Source round-trip: emitting any program back to `slp-lang` text and
//! recompiling it must preserve execution semantics exactly — including
//! unrolled programs (the `step` clause) and privatized temporaries.

use rand::{Rng, RngCore};

use slp::core::{compile, MachineConfig, SlpConfig, Strategy as Scheme};
use slp::suite::{random_program, GeneratorConfig};
use slp::vm::execute;
use slp_fuzz::property::{case_rng, check_program};

fn scalar_run(program: &slp::ir::Program, machine: &MachineConfig) -> slp::vm::Outcome {
    execute(
        &compile(
            program,
            &SlpConfig::for_machine(machine.clone(), Scheme::Scalar),
        ),
        machine,
    )
    .expect("programs are in bounds")
}

#[test]
fn suite_kernels_round_trip() {
    let machine = MachineConfig::intel_dunnington();
    for (spec, program) in slp::suite::all(1) {
        let src = program.to_source();
        let reparsed = slp::lang::compile(&src)
            .unwrap_or_else(|e| panic!("{} failed to re-parse: {e}\n{src}", spec.name));
        assert_eq!(program.stmt_count(), reparsed.stmt_count(), "{}", spec.name);
        let a = scalar_run(&program, &machine);
        let b = scalar_run(&reparsed, &machine);
        assert!(
            a.state.arrays_bitwise_eq(&b.state, program.arrays().len()),
            "{} changed meaning across the round trip",
            spec.name
        );
    }
}

#[test]
fn unrolled_programs_round_trip_via_step_syntax() {
    let machine = MachineConfig::intel_dunnington();
    for name in ["lbm", "milc", "wrf"] {
        let mut program = slp::suite::kernel(name, 1);
        slp::ir::unroll_program(&mut program, 2);
        let src = program.to_source();
        assert!(src.contains("step 2"), "{name} should emit a step clause");
        let reparsed = slp::lang::compile(&src)
            .unwrap_or_else(|e| panic!("{name} unrolled failed to re-parse: {e}\n{src}"));
        let a = scalar_run(&program, &machine);
        let b = scalar_run(&reparsed, &machine);
        assert!(
            a.state.arrays_bitwise_eq(&b.state, program.arrays().len()),
            "{name}"
        );
    }
}

#[test]
fn random_programs_round_trip() {
    let mut rng = case_rng("roundtrip::random_programs_round_trip");
    let machine = MachineConfig::intel_dunnington();
    for case in 0..64 {
        let seed = rng.next_u64();
        let body_stmts = 6 + rng.gen_range(0..4_usize);
        let cfg = GeneratorConfig {
            body_stmts,
            ..GeneratorConfig::default()
        };
        let label = format!("case {case}: seed {seed}, body_stmts {body_stmts}");
        check_program(&label, &random_program(seed, &cfg), |program| {
            let src = program.to_source();
            let reparsed =
                slp::lang::compile(&src).map_err(|e| format!("failed to re-parse: {e}\n{src}"))?;
            let a = scalar_run(program, &machine);
            let b = scalar_run(&reparsed, &machine);
            if a.state.arrays_bitwise_eq(&b.state, program.arrays().len()) {
                Ok(())
            } else {
                Err("the round trip changed the arrays".to_string())
            }
        });
    }
}
