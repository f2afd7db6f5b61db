//! Source-level case generation: mutations over generated kernels.
//!
//! The seed pool is the [`slp_suite`] random-program generator plus the
//! hand-written benchmark kernels. Each case applies a small burst of
//! mutations: character splices, span deletions/duplications, numeric
//! perturbations toward adversarial values (`i64::MAX`, `-1`, huge
//! strides), type swaps, and keyword corruption. Most mutants are
//! malformed — exactly what drives the "typed error, never a panic"
//! oracle — while the survivors stress the pipeline with bounds and
//! strides the curated suite never uses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adversarial integers spliced over numeric literals.
const EXTREME_INTS: &[&str] = &[
    "9223372036854775807",
    "-9223372036854775808",
    "99999999999999999999999",
    "-1",
    "0",
    "1152921504606846976",
    "4611686018427387904",
];

/// Fragments spliced at random positions.
const SPLICES: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "(",
    ")",
    ";",
    "..",
    "*",
    "+",
    "-",
    "/",
    "=",
    "step",
    "for",
    "kernel",
    "array",
    "scalar",
    "const",
    "f32",
    "i64",
    "\"",
    ".",
    "in",
    "i",
    "A",
    "if",
    "else",
    "select",
    "<=",
    "!=",
    "if (A[i] < 0) { A[i] = 0; }",
];

/// A base program to mutate, drawn from the generators and the suite.
fn base_source(rng: &mut StdRng) -> String {
    let k = rng.gen_range(0..10u32);
    if k < 6 {
        // Generator output: structured, valid, parameter-swept. The
        // generator emits `select` expressions, so branchy programs
        // flow through the mutation pool too.
        let seed = rng.gen_range(0..1u64 << 48);
        slp_suite::corpus(seed, 1).remove(0).1
    } else if k < 8 {
        // A branchy kernel: `if`/`else` bodies the front-end
        // if-converts, so mutants attack the control-flow grammar.
        let names = slp_suite::branchy_catalog();
        let pick = rng.gen_range(0..names.len());
        slp_suite::branchy_source(names[pick], 1)
    } else {
        // A hand-written benchmark kernel at a small scale.
        let names = slp_suite::catalog();
        let pick = rng.gen_range(0..names.len());
        slp_suite::source(names[pick].name, 1)
    }
}

/// Replaces the numeric literal starting at `pos` (if any digit is
/// there) with an adversarial value.
fn perturb_number(src: &mut String, pos: usize, rng: &mut StdRng) {
    let bytes = src.as_bytes();
    if pos >= bytes.len() || !bytes[pos].is_ascii_digit() {
        return;
    }
    let start = pos;
    let mut end = pos;
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    let replacement = EXTREME_INTS[rng.gen_range(0..EXTREME_INTS.len())];
    src.replace_range(start..end, replacement);
}

/// One mutation burst over `src`.
fn mutate_once(src: &mut String, rng: &mut StdRng) {
    if src.is_empty() {
        src.push_str("kernel");
        return;
    }
    match rng.gen_range(0..6u32) {
        // Splice a fragment at a random byte boundary.
        0 => {
            let pos = char_boundary(src, rng.gen_range(0..=src.len()));
            let frag = SPLICES[rng.gen_range(0..SPLICES.len())];
            src.insert_str(pos, frag);
        }
        // Delete a random span.
        1 => {
            let a = char_boundary(src, rng.gen_range(0..src.len()));
            let len = rng.gen_range(1..=32usize.min(src.len() - a).max(1));
            let b = char_boundary(src, (a + len).min(src.len()));
            if a < b {
                src.replace_range(a..b, "");
            }
        }
        // Duplicate a random span in place.
        2 => {
            let a = char_boundary(src, rng.gen_range(0..src.len()));
            let len = rng.gen_range(1..=48usize.min(src.len() - a).max(1));
            let b = char_boundary(src, (a + len).min(src.len()));
            let span = src[a..b].to_string();
            src.insert_str(b, &span);
        }
        // Perturb a numeric literal toward an extreme.
        3 => {
            let digits: Vec<usize> = src
                .bytes()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if !digits.is_empty() {
                let pos = digits[rng.gen_range(0..digits.len())];
                perturb_number(src, pos, rng);
            }
        }
        // Swap a scalar type keyword.
        4 => {
            let types = ["f32", "f64", "i8", "i16", "i32", "i64"];
            let from = types[rng.gen_range(0..types.len())];
            let to = types[rng.gen_range(0..types.len())];
            if let Some(at) = src.find(from) {
                src.replace_range(at..at + from.len(), to);
            }
        }
        // Truncate: unterminated constructs.
        _ => {
            let keep = char_boundary(src, rng.gen_range(0..src.len()));
            src.truncate(keep);
        }
    }
}

/// Largest char boundary `<= pos`.
pub(crate) fn char_boundary(s: &str, mut pos: usize) -> usize {
    pos = pos.min(s.len());
    while pos > 0 && !s.is_char_boundary(pos) {
        pos -= 1;
    }
    pos
}

/// Deterministically generates the `n`-th source-level fuzz case.
pub(crate) fn source_case(seed: u64, n: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut src = base_source(&mut rng);
    // Every third case stays unmutated: a pure generator sweep that
    // feeds the differential oracles with valid programs.
    if n.is_multiple_of(3) {
        return src;
    }
    let bursts = rng.gen_range(1..=4u32);
    for _ in 0..bursts {
        mutate_once(&mut src, &mut rng);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        assert_eq!(source_case(1, 5), source_case(1, 5));
        assert_ne!(source_case(1, 4), source_case(1, 5));
    }

    #[test]
    fn unmutated_cases_parse() {
        for n in [0u64, 3, 6, 9] {
            let src = source_case(9, n);
            assert!(slp_lang::compile(&src).is_ok(), "case {n} must parse");
        }
    }

    #[test]
    fn branchy_bases_flow_through() {
        // The unmutated (n % 3 == 0) stream must carry both `if` bodies
        // from the branchy catalog and `select` expressions from the
        // random generator, so the differential oracles exercise
        // if-conversion and masked superwords on every campaign.
        let mut with_if = 0usize;
        let mut with_select = 0usize;
        for n in (0..180u64).step_by(3) {
            let src = source_case(11, n);
            with_if += src.contains("if ") as usize;
            with_select += src.contains("select(") as usize;
        }
        assert!(with_if >= 6, "only {with_if}/60 bases had an if");
        assert!(with_select >= 6, "only {with_select}/60 bases had a select");
    }

    #[test]
    fn mutation_preserves_utf8() {
        // The mutator slices at char boundaries; a thousand bursts must
        // never split a code point or panic.
        for n in 0..200u64 {
            let _ = source_case(0xFEED, n);
        }
    }
}
