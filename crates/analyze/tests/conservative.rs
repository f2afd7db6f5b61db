//! Conservativeness of the range-refined dependence oracle.
//!
//! Soundness contract ([`slp_ir::DepOracle`]): when [`RangeOracle`]
//! declares two array references non-overlapping, no concrete iteration
//! vector may make their subscripts coincide *within that iteration* —
//! the same-iteration aliasing question block-level SLP legality asks
//! (loop-carried ordering is preserved by the loop structure itself).
//! The seeded property loops below re-check that claim against brute-force
//! enumeration of the full iteration space of random small-bound loop
//! nests — exactly the ground truth the abstract strided-interval
//! reasoning approximates.

use std::ops::RangeInclusive;

use rand::Rng;

use slp_analyze::RangeOracle;
use slp_fuzz::property::case_rng;
use slp_ir::{
    AccessVector, AffineExpr, ArrayId, ArrayRef, DepOracle, LoopHeader, LoopVarId, Operand,
};

/// Builds one affine subscript `c0*i0 + c1*i1 + k` from a raw triple.
fn affine(coeffs: &[i64], k: i64, nvars: usize) -> AffineExpr {
    let mut e = AffineExpr::constant_expr(k);
    for (idx, &c) in coeffs.iter().take(nvars).enumerate() {
        e = e.add(&AffineExpr::var(LoopVarId::new(idx as u32)).scaled(c));
    }
    e
}

/// Every concrete environment of a loop nest: the cross product of each
/// header's value sequence `lower, lower+step, …  (< upper)`.
fn all_envs(loops: &[LoopHeader]) -> Vec<Vec<(LoopVarId, i64)>> {
    let mut envs: Vec<Vec<(LoopVarId, i64)>> = vec![Vec::new()];
    for h in loops {
        let mut vals = Vec::new();
        let mut v = h.lower;
        while v < h.upper {
            vals.push(v);
            v += h.step;
        }
        envs = envs
            .into_iter()
            .flat_map(|env| {
                vals.iter().map(move |&v| {
                    let mut e = env.clone();
                    e.push((h.var, v));
                    e
                })
            })
            .collect();
    }
    envs
}

/// Asserts the oracle's verdict for `(x, y)`, the pair of `case`, is
/// conservative under brute-force enumeration, and returns whether it
/// refuted the pair.
fn check_pair(case: &str, x: &ArrayRef, y: &ArrayRef, loops: &[LoopHeader]) -> bool {
    let oracle = RangeOracle::new();
    let overlap = oracle.operands_overlap(
        &Operand::Array(x.clone()),
        &Operand::Array(y.clone()),
        loops,
    );
    if overlap {
        return false;
    }
    // Refuted: no single iteration may evaluate both references to the
    // same subscript vector.
    for env in &all_envs(loops) {
        assert_ne!(
            x.access.eval(env),
            y.access.eval(env),
            "{case}: oracle refuted {x:?} vs {y:?} under {loops:?}, \
             but env {env:?} makes them collide"
        );
    }
    true
}

/// Random affine reference pairs over random 1–2 deep loop nests:
/// any refutation must survive exhaustive concrete enumeration.
#[test]
fn refuted_pairs_never_collide_concretely() {
    let mut rng = case_rng("conservative::refuted_pairs_never_collide_concretely");
    let mut draw = |range: RangeInclusive<i64>| rng.gen_range(range);
    for case in 0..500 {
        let headers: Vec<(i64, i64, i64)> = (0..draw(1..=2))
            .map(|_| (draw(-3..=3), draw(1..=6), draw(1..=3)))
            .collect();
        let rank = draw(1..=2) as usize;
        // Each reference draws its coefficient count, always six
        // (`c_i0, c_i1, k` per dimension), then the coefficients.
        let ca: Vec<i64> = (0..draw(6..=6)).map(|_| draw(-3..=3)).collect();
        let cb: Vec<i64> = (0..draw(6..=6)).map(|_| draw(-3..=3)).collect();
        let (ka, kb) = (draw(-8..=8), draw(-8..=8));
        let loops: Vec<LoopHeader> = headers
            .iter()
            .enumerate()
            .map(|(idx, &(lower, trips, step))| LoopHeader {
                var: LoopVarId::new(idx as u32),
                lower,
                upper: lower + (trips - 1) * step + 1,
                step,
            })
            .collect();
        let nvars = loops.len();
        let build = |c: &[i64], k: i64| {
            let dims: Vec<AffineExpr> = (0..rank)
                .map(|d| affine(&c[d * 3..d * 3 + 2], k + c[d * 3 + 2], nvars))
                .collect();
            ArrayRef::new(ArrayId::new(0), AccessVector::new(dims))
        };
        let label = format!(
            "case {case}: headers {headers:?}, rank {rank}, ca {ca:?}, cb {cb:?}, ka {ka}, kb {kb}"
        );
        check_pair(&label, &build(&ca, ka), &build(&cb, kb), &loops);
    }
}

/// Stride-heavy pairs (both subscripts scaled) exercise the lattice
/// part of the domain where the plain-interval hull is weakest.
#[test]
fn strided_refutations_are_sound() {
    let mut rng = case_rng("conservative::strided_refutations_are_sound");
    let mut draw = |range: RangeInclusive<i64>| rng.gen_range(range);
    let i = LoopVarId::new(0);
    for case in 0..500 {
        let (lower, trips, step) = (draw(-2..=2), draw(1..=8), draw(1..=4));
        let (sa, sb) = (draw(1..=4), draw(1..=4));
        let (ka, kb) = (draw(-12..=12), draw(-12..=12));
        let loops = [LoopHeader {
            var: i,
            lower,
            upper: lower + (trips - 1) * step + 1,
            step,
        }];
        let a = ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(i).scaled(sa).offset(ka)]),
        );
        let b = ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(i).scaled(sb).offset(kb)]),
        );
        let label = format!(
            "case {case}: lower {lower}, trips {trips}, step {step}, sa {sa}, sb {sb}, ka {ka}, kb {kb}"
        );
        check_pair(&label, &a, &b, &loops);
    }
}

/// The generators above must actually reach the refinement layers —
/// otherwise the property passes vacuously. This deterministic smoke
/// case pins one refutation of each interesting kind.
#[test]
fn refinement_layers_are_exercised() {
    let i = LoopVarId::new(0);
    // Parity: for i in 0..16 step 2, A[2i] vs A[i+3].
    let loops = [LoopHeader {
        var: i,
        lower: 0,
        upper: 16,
        step: 2,
    }];
    let w = ArrayRef::new(
        ArrayId::new(0),
        AccessVector::new(vec![AffineExpr::var(i).scaled(2)]),
    );
    let r = ArrayRef::new(
        ArrayId::new(0),
        AccessVector::new(vec![AffineExpr::var(i).offset(3)]),
    );
    let refuted = check_pair("parity pair", &w, &r, &loops);
    assert!(refuted, "parity pair must be refuted");
    // Band separation: for i in 0..8, A[2i] vs A[i+16].
    let loops = [LoopHeader {
        var: i,
        lower: 0,
        upper: 8,
        step: 1,
    }];
    let far = ArrayRef::new(
        ArrayId::new(0),
        AccessVector::new(vec![AffineExpr::var(i).offset(16)]),
    );
    let refuted = check_pair("band pair", &w, &far, &loops);
    assert!(refuted, "band pair must be refuted");
}
