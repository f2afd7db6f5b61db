//! Safety-certificate gates over the whole kernel catalog: every
//! curated suite kernel and every branchy (if-converted) kernel must
//! certify `ProvenSafe` on all accesses, the compile stats must mirror
//! the certificate, and the bytecode translator must actually elide
//! bounds checks for certified accesses while staying bit-identical to
//! the fully-checked engine. These invocations back the CI
//! `safety-smoke` job.

use slp::core::{compile, MachineConfig, SlpConfig, Strategy};
use slp::vm::{execute_fully_checked, execute_reference, BytecodeKernel};

fn machine() -> MachineConfig {
    MachineConfig::intel_dunnington()
}

fn config(strategy: Strategy) -> SlpConfig {
    SlpConfig::for_machine(machine(), strategy)
}

#[test]
fn every_suite_kernel_certifies_proven_safe() {
    let scale = 8;
    for (spec, program) in slp::suite::all(scale) {
        for strategy in [Strategy::Scalar, Strategy::Baseline, Strategy::Holistic] {
            let kernel = compile(&program, &config(strategy));
            assert!(
                kernel.safety.all_proven_safe(),
                "{} ({strategy:?}): {} unknown, {} faulting of {} accesses",
                spec.name,
                kernel.safety.unknown(),
                kernel.safety.proven_faulting(),
                kernel.safety.accesses.len()
            );
            assert_eq!(
                kernel.stats.accesses_proven_safe,
                kernel.safety.accesses.len(),
                "{}: stats must mirror the certificate",
                spec.name
            );
        }
    }
}

#[test]
fn every_branchy_kernel_certifies_proven_safe() {
    let scale = 8;
    for name in slp::suite::branchy_catalog() {
        let program = slp::suite::branchy_kernel(name, scale);
        for strategy in [Strategy::Scalar, Strategy::Holistic] {
            let kernel = compile(&program, &config(strategy));
            assert!(
                kernel.safety.all_proven_safe(),
                "{name} ({strategy:?}): {} unknown, {} faulting of {} accesses",
                kernel.safety.unknown(),
                kernel.safety.proven_faulting(),
                kernel.safety.accesses.len()
            );
        }
    }
}

/// The certificate is not decorative: over the sixteen kernels under
/// scalar / SLP / Global / Global+Layout on both machines, the translator
/// must drop the bounds checks of every certified access, the checked
/// lowering must keep all of them, and the two executions must agree on
/// the memory image and on every run-statistics counter — elision may
/// only remove compares, never change a result. (That the bytecode
/// engine agrees with the reference engine is `engine_differential`'s
/// gate; the image is held against it here only as a cross-check.)
#[test]
fn certified_elision_is_effective_and_bit_exact_across_the_suite() {
    let schemes = [
        (Strategy::Scalar, false),
        (Strategy::Baseline, false),
        (Strategy::Holistic, false),
        (Strategy::Holistic, true),
    ];
    let suite = slp::suite::all(1);
    let mut tally = (0, 0);
    for machine in [
        MachineConfig::intel_dunnington(),
        MachineConfig::amd_phenom_ii(),
    ] {
        for (strategy, layout) in schemes {
            let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
            cfg.layout = layout;
            for (spec, program) in &suite {
                let label = format!(
                    "{} ({strategy:?}, layout {layout}, {})",
                    spec.name, machine.name
                );
                let kernel = compile(program, &cfg);
                let fast = BytecodeKernel::compile(&kernel, &machine, true).expect("compiles");
                let (elided, total) = fast.unchecked_accesses();
                assert!(
                    total > 0 && elided == total,
                    "{label}: certificate proved everything safe but {elided} of {total} \
                     accesses were elided"
                );
                let checked = BytecodeKernel::compile_checked(&kernel, &machine, true);
                assert_eq!(
                    checked.expect("compiles").unchecked_accesses(),
                    (0, total),
                    "{label}: the checked lowering dropped a check"
                );
                tally = (tally.0 + elided, tally.1 + total);

                let a = fast.run().expect("unchecked run");
                let b = execute_fully_checked(&kernel, &machine).expect("checked run");
                let c = execute_reference(&kernel, &machine).expect("reference run");
                assert!(
                    a.state.bitwise_eq(&b.state) && a.state.bitwise_eq(&c.state),
                    "{label}: unchecked execution diverged"
                );
                assert_eq!(a.stats, b.stats, "{label}: run statistics diverged");
            }
        }
    }
    // Recorded at PR 16 (commit 5fdccdf): 128 configurations, every
    // access of every one certificate-elided.
    assert_eq!(
        tally,
        (1980, 1980),
        "(elided, total) accesses over the matrix"
    );
}
