//! Gates for the branchy kernels: if-conversion must turn `if`/`else`
//! bodies into predicated `select` superwords that are (a) bit-exact
//! against the scalar execution and (b) proved equivalent by the
//! symbolic translation validator, under every vectorizing strategy.

use slp::core::{compile, CompiledKernel, MachineConfig, SlpConfig, Strategy};
use slp::verify::{validate, Budgets, Verdict};
use slp::vm::execute;

fn machine() -> MachineConfig {
    MachineConfig::intel_dunnington()
}

fn strategies() -> [(&'static str, Strategy, bool); 5] {
    [
        ("Native", Strategy::Native, false),
        ("SLP", Strategy::Baseline, false),
        ("Global", Strategy::Holistic, false),
        ("Global+Layout", Strategy::Holistic, true),
        ("Optimal", Strategy::Optimal, false),
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

fn superwords(kernel: &CompiledKernel) -> usize {
    kernel
        .schedules
        .iter()
        .map(|(_, s)| s.superword_count())
        .sum()
}

/// The before/after vectorization ledger. "Before" is what the packer
/// can do with a branch in the loop body: nothing — a branchy body is
/// not a basic block, so without if-conversion every one of these
/// kernels would stay scalar (the Scalar row pins that floor at 0).
/// "After" pins the superword statements the Global strategy finds in
/// the if-converted code.
const PINNED: [(&str, usize); 4] = [
    ("abs", 3),
    ("clamp", 5),
    ("threshold", 2),
    ("masked_stencil", 2),
];

#[test]
fn branchy_kernels_gain_superwords_after_if_conversion() {
    assert_eq!(
        slp::suite::branchy_catalog().len(),
        PINNED.len(),
        "every branchy kernel must be pinned here"
    );
    for (name, expected) in PINNED {
        let program = slp::suite::branchy_kernel(name, 1);
        // Before: no superword statements without vectorization.
        let scalar_kernel = compile(&program, &config(Strategy::Scalar, false));
        assert_eq!(superwords(&scalar_kernel), 0, "{name} scalar baseline");
        // After: the if-converted selects pack.
        for strategy in [Strategy::Holistic, Strategy::Optimal] {
            let kernel = compile(&program, &config(strategy, false));
            assert_eq!(
                superwords(&kernel),
                expected,
                "{name} under {strategy:?}: superword count drifted"
            );
        }
    }
}

#[test]
fn branchy_kernels_are_bit_exact_and_proved_under_every_strategy() {
    let budgets = Budgets::default();
    for name in slp::suite::branchy_catalog() {
        let program = slp::suite::branchy_kernel(name, 1);
        let n = program.arrays().len();
        let scalar = execute(
            &compile(&program, &config(Strategy::Scalar, false)),
            &machine(),
        )
        .expect("scalar run");
        for (label, strategy, layout) in strategies() {
            let kernel = compile(&program, &config(strategy, layout));
            // Differential gate: bitwise-identical memory against the
            // scalar execution.
            let out = execute(&kernel, &machine()).expect("vector run");
            assert!(
                out.state.arrays_bitwise_eq(&scalar.state, n),
                "{name} under {label} diverged from scalar"
            );
            // Prove gate: symbolic equivalence over all inputs. If the
            // validator ever steps outside its fragment the differential
            // gate above is the accepted fallback; anything else fails.
            match validate(&program, &kernel, &machine(), &budgets) {
                Verdict::Proved(_) => {}
                Verdict::Unsupported { reason } => {
                    eprintln!(
                        "{name} under {label}: tv unsupported ({reason}); differential gate stands"
                    );
                }
                other => panic!("{name} under {label}: {other:?}"),
            }
        }
    }
}

#[test]
fn branchy_sources_really_contain_branches() {
    // Guard against the kernels quietly being rewritten into select
    // form at the source level, which would stop exercising the
    // if-conversion pass.
    for name in slp::suite::branchy_catalog() {
        let src = slp::suite::branchy_source(name, 1);
        assert!(src.contains("if "), "{name} lost its branch");
        let program = slp::suite::branchy_kernel(name, 1);
        let selects = program
            .blocks()
            .iter()
            .flat_map(|b| b.block.stmts())
            .filter(|s| matches!(s.expr(), slp::ir::Expr::Select(..)))
            .count();
        assert!(selects > 0, "{name} produced no predicated selects");
    }
}
