//! The memory image at the engine's edges: what `MachineState::seeded`
//! writes (the benchmark oracle's input too) is pinned per suite kernel,
//! and an image allocated for another program is a typed error before
//! anything runs, on either engine.

use slp_core::{compile, ExecErrorKind, MachineConfig, SlpConfig, Strategy};
use slp_ir::Program;
use slp_vm::{execute_reference_with_state, BytecodeKernel, MachineState};

/// `(kernel, digest() of the seeded arrays, FNV fold of the seeded scalar
/// frame)` at scale 1, recorded before the image became one allocation.
const SEEDED: [(&str, u64, u64); 20] = [
    ("cactusADM", 0xb86346b66bd9546f, 0x34ae8793af717870),
    ("soplex", 0xb5246b421fabad12, 0xb6151f7c73b13dbe),
    ("lbm", 0x327d04ff83157166, 0x6d97c7c66ed7cb1a),
    ("milc", 0x09dc50f4731b1189, 0xc9d6671eb19117a2),
    ("povray", 0xfb3ead64bc18c0d5, 0xc828f55cd36b9110),
    ("gromacs", 0x4cf9fabe02111830, 0x34ae8793af717870),
    ("calculix", 0xd16abf8c9581c038, 0x6d97c7c66ed7cb1a),
    ("dealII", 0xf1dc5e47f47d1990, 0xccbe6f8eb8b94f26),
    ("wrf", 0x8d4b1dfec43af773, 0x6419305c54e0e3e6),
    ("namd", 0xb84ef1afb96fbffa, 0xc828f55cd36b9110),
    ("ua", 0x4cf9fabe02111830, 0x6d97c7c66ed7cb1a),
    ("ft", 0x9ac30a56e3315635, 0x34ae8793af717870),
    ("bt", 0xf6c0cbb099e554e1, 0x34ae8793af717870),
    ("sp", 0x1f67f0c685679fa2, 0xccbe6f8eb8b94f26),
    ("mg", 0x812224dde21a6769, 0x6d97c7c66ed7cb1a),
    ("cg", 0xc16eb791583fc060, 0x6d97c7c66ed7cb1a),
    ("abs", 0x32ad4a45b53e48c5, 0xccbe6f8eb8b94f26),
    ("clamp", 0x32ad4a45b53e48c5, 0xb6151f7c73b13dbe),
    ("threshold", 0x32ad4a45b53e48c5, 0x0000000000000000),
    ("masked_stencil", 0xcdaabe8fd56b766f, 0xccbe6f8eb8b94f26),
];

#[test]
fn seeding_is_unchanged_for_the_suite() {
    let suite = slp_suite::all(1)
        .into_iter()
        .map(|(spec, p)| (spec.name, p));
    let branchy = slp_suite::branchy_catalog()
        .into_iter()
        .map(|name| (name, slp_suite::branchy_kernel(name, 1)));
    let programs: Vec<(&str, Program)> = suite.chain(branchy).collect();
    assert_eq!(programs.len(), SEEDED.len());
    for ((name, program), (pinned, arrays, scalars)) in programs.iter().zip(SEEDED) {
        assert_eq!(*name, pinned);
        let state = MachineState::seeded(program);
        assert_eq!(state.digest(), arrays, "{name}: seeded arrays changed");
        let frame = program.scalar_ids().fold(0u64, |h, v| {
            (h ^ state.scalar(v).to_bits()).wrapping_mul(0x1000_0000_01B3)
        });
        assert_eq!(frame, scalars, "{name}: seeded scalars changed");
    }
}

#[test]
fn a_foreign_memory_image_is_a_typed_error() {
    let machine = MachineConfig::intel_dunnington();
    let kernel_for = |src: &str| {
        let program = slp_lang::compile(src).expect("compiles");
        compile(
            &program,
            &SlpConfig::for_machine(machine.clone(), Strategy::Scalar),
        )
    };
    let body = "for i in 0..8 { A[i] = y + B[i] * x; }";
    let kernel = kernel_for(&format!(
        "kernel k {{ array A: f64[8]; array B: f64[8]; scalar x, y: f64; {body} }}"
    ));
    // Images seeded for programs with one more array, a longer array and
    // fewer scalars: each fails naming what does not fit.
    let foreign = [
        (
            "array A: f64[8]; array B: f64[8]; array C: f64[4]; scalar x, y: f64;",
            "3 arrays and 2 scalars",
        ),
        (
            "array A: f64[12]; array B: f64[8]; scalar x, y: f64;",
            "12 elements of array A",
        ),
        (
            "array A: f64[8]; array B: f64[8]; scalar x: f64;",
            "2 arrays and 1 scalars",
        ),
    ];
    let bytecode = BytecodeKernel::compile(&kernel, &machine).expect("translates");
    for (decls, names) in foreign {
        let other = kernel_for(&format!(
            "kernel o {{ {decls} for i in 0..4 {{ A[i] = x; }} }}"
        ));
        let image = || MachineState::seeded(&other.program);
        // Both engines refuse it the same way.
        for err in [
            bytecode.run_from(image()),
            execute_reference_with_state(&kernel, &machine, image()),
        ]
        .map(|run| run.expect_err("the image was allocated for another program"))
        {
            assert_eq!(err.kind(), ExecErrorKind::MalformedCode, "{decls}");
            assert!(err.to_string().contains(names), "{decls}: {err}");
        }
    }
    // The kernel's own image still runs, and comes back as the outcome.
    let own = MachineState::seeded(&kernel.program);
    let out = bytecode.run_from(own.clone()).expect("runs");
    assert!(!out.state.bitwise_eq(&own), "the run wrote A");
    assert_eq!(
        out.state.array(slp_ir::ArrayId::new(1)),
        own.array(slp_ir::ArrayId::new(1))
    );
}
