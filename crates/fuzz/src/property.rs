//! One way to write a property test: a `for case in 0..n` loop draws
//! each case from [`case_rng`], labels it with its index and drawn
//! values, and hands a generated program to [`check_program`], which
//! shrinks a failing one through the one [`minimize`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use slp_ir::Program;

use crate::minimize::minimize;
use crate::oracle::guarded;

/// The case stream of the property named `path` (by convention
/// `module::test_name`): a [`StdRng`] seeded with the FNV-1a hash of the
/// name, so every run draws the same cases.
pub fn case_rng(path: &str) -> StdRng {
    let seed = path.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    StdRng::seed_from_u64(seed)
}

/// Checks `check` on `program`, the generated input of `case`.
///
/// The check fails by returning an error or by panicking. Its program's
/// source is then shrunk while it re-parses and still fails, and this
/// panics with the case, the error and the minimized source.
pub fn check_program(
    case: &str,
    program: &Program,
    check: impl Fn(&Program) -> Result<(), String>,
) {
    let outcome = |p: &Program| guarded(|| check(p)).and_then(|r| r);
    let Err(error) = outcome(program) else {
        return;
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let minimized = minimize(
        &program.to_source(),
        |src| matches!(guarded(|| slp_lang::compile(src)), Ok(Ok(p)) if outcome(&p).is_err()),
    );
    std::panic::set_hook(hook);
    panic!("{case}: {error}\nminimized reproducer:\n{minimized}");
}

#[cfg(test)]
mod tests {
    use rand::RngCore;

    use super::*;

    #[test]
    fn the_case_stream_is_splitmix_seeded_with_the_fnv1a_of_the_name() {
        assert_eq!(case_rng("t").next_u64(), 0x1f13_bda3_2bbb_7ff9);
    }
}
