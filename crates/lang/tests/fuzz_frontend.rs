//! Frontend robustness: the lexer/parser/lowering must never panic —
//! any input either compiles or produces a positioned `ParseError`.

use std::panic::catch_unwind;

use rand::Rng;
use slp_fuzz::property::case_rng;

/// Compiles `src`, failing with the case and its input if the frontend
/// panics instead of accepting or rejecting it.
fn never_panics(case: usize, src: &str) {
    if catch_unwind(|| slp_lang::compile(src)).is_err() {
        panic!("case {case}: the frontend panicked on {src:?}");
    }
}

/// Arbitrary printable-ASCII soup never panics the frontend.
#[test]
fn arbitrary_text_never_panics() {
    let mut rng = case_rng("fuzz_frontend::arbitrary_text_never_panics");
    for case in 0..256 {
        let len = rng.gen_range(0..=200);
        let src: String = (0..len)
            .map(|_| char::from(rng.gen_range(0x20..0x7f_u8)))
            .collect();
        never_panics(case, &src);
    }
}

/// Arbitrary sequences of the language's own tokens never panic.
#[test]
fn token_soup_never_panics() {
    const TOKENS: [&str; 32] = [
        "kernel", "array", "scalar", "const", "for", "in", "step", "f64", "f32", "{", "}", "[",
        "]", "(", ")", ":", ";", ",", "=", "+", "-", "*", "/", "..", "x", "A", "i", "0", "1",
        "2.5", "min", "sqrt",
    ];
    let mut rng = case_rng("fuzz_frontend::token_soup_never_panics");
    for case in 0..256 {
        let len = rng.gen_range(0..40);
        let tokens: Vec<&str> = (0..len)
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect();
        never_panics(case, &tokens.join(" "));
    }
}

/// Mutating one byte of a valid kernel never panics.
#[test]
fn mutated_valid_kernel_never_panics() {
    const KERNEL: &str = "kernel k { const N = 8; array A: f64[2*N]; scalar x, y: f64; \
         for i in 0..N { x = A[2*i] + A[2*i+1]; A[2*i] = x * 0.5; y = min(x, y); } }";
    let mut rng = case_rng("fuzz_frontend::mutated_valid_kernel_never_panics");
    for case in 0..256 {
        let pos = rng.gen_range(0..KERNEL.len());
        let byte = rng.gen_range(0..0x7f_u8);
        let mut bytes = KERNEL.as_bytes().to_vec();
        bytes[pos] = byte;
        let src = String::from_utf8(bytes).expect("an ASCII byte in ASCII source");
        never_panics(case, &src);
    }
}

#[test]
fn errors_carry_positions_not_panics() {
    for src in [
        "",
        "kernel",
        "kernel k {",
        "kernel k { array A: f64; }",
        "kernel k { scalar a: f64; a = ; }",
        "kernel k { for i in 0..4 step -1 { } }",
        "kernel k { scalar a: f64; a = b + c * ; }",
        "kernel k { array A: f64[0]; }",
    ] {
        if let Err(e) = slp_lang::compile(src) {
            assert!(
                e.line() >= 1 || e.message().contains("duplicate"),
                "{src:?}: {e}"
            );
        }
    }
}
