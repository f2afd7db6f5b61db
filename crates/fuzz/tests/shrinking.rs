//! A failing program property shrinks to a reproducer. This is its own
//! test binary because shrinking silences the process-wide panic hook,
//! which the campaign's unit tests swap too.

use std::panic::{catch_unwind, AssertUnwindSafe};

use slp_fuzz::property::check_program;
use slp_ir::Program;

#[test]
fn a_false_program_property_yields_a_shorter_failing_reproducer() {
    // False on purpose: a generated loop body has ten statements.
    let at_most_two = |p: &Program| match p.stmt_count() {
        n if n <= 2 => Ok(()),
        n => Err(format!("{n} statements")),
    };
    let program = slp_suite::random_program(7, &slp_suite::GeneratorConfig::default());
    let payload = catch_unwind(AssertUnwindSafe(|| {
        check_program("case 3: seed 7", &program, at_most_two)
    }))
    .expect_err("the property is false");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        message.starts_with("case 3: seed 7: 10 statements\n"),
        "{message}"
    );
    let (_, minimized) = message
        .split_once("minimized reproducer:\n")
        .expect("a reproducer");
    assert!(minimized.len() < program.to_source().len(), "{minimized}");
    let reparsed = slp_lang::compile(minimized).expect("the reproducer re-parses");
    assert_eq!(at_most_two(&reparsed), Err("3 statements".to_string()));
}
