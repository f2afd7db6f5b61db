//! Soundness of [`StridedInterval`] construction against brute force.
//!
//! The subscript evaluator's verdicts (the out-of-bounds lint V502 and
//! the memory-safety certificates V505/V506) lean on `range` producing
//! exactly the loop's value set: both endpoints members, no member
//! outside, the congruence exact. These properties re-check that claim
//! by enumerating small sets concretely — including negative strides
//! (descending enumeration) and spans near the `i64` extremes, where the
//! canonical form used to degrade or overflow.

use std::ops::RangeInclusive;

use rand::Rng;

use slp_analyze::StridedInterval;
use slp_fuzz::property::case_rng;

/// Brute-force membership of `{anchor, anchor ± |stride|, …} ∩ [lo, hi]`:
/// ascending from `lo` for `stride >= 0`, descending from `hi` otherwise.
fn enumerate(lo: i64, hi: i64, stride: i64) -> Vec<i64> {
    if lo > hi {
        return Vec::new();
    }
    if lo == hi {
        return vec![lo];
    }
    let step = stride.unsigned_abs().max(1);
    let mut out = Vec::new();
    if stride >= 0 {
        let mut v = lo as i128;
        while v <= hi as i128 {
            out.push(v as i64);
            v += step as i128;
        }
    } else {
        let mut v = hi as i128;
        while v >= lo as i128 {
            out.push(v as i64);
            v -= step as i128;
        }
        out.reverse();
    }
    out
}

/// Checks `range(lo, hi, stride)` against enumeration; `case` names the
/// drawn case in every failure.
fn check_range(case: &str, lo: i64, hi: i64, stride: i64, probe_pad: i64) {
    let s = StridedInterval::range(lo, hi, stride);
    let members = enumerate(lo, hi, stride);
    assert!(!members.is_empty());
    assert_eq!(
        (s.lo(), s.hi()),
        (members[0] as i128, *members.last().unwrap() as i128),
        "{case}: endpoints of range({lo}, {hi}, {stride}) must be attained members"
    );
    for &m in &members {
        assert!(
            s.contains(m),
            "{case}: range({lo}, {hi}, {stride}) lost {m}"
        );
    }
    // Probe a window around the set for false members.
    let from = lo.saturating_sub(probe_pad);
    let to = hi.saturating_add(probe_pad);
    let mut v = from;
    loop {
        assert_eq!(
            s.contains(v),
            members.contains(&v),
            "{case}: range({lo}, {hi}, {stride}) wrong about {v}"
        );
        if v == to {
            break;
        }
        v += 1;
    }
}

/// Small random ranges, both stride signs, checked value-by-value.
#[test]
fn range_matches_brute_force_enumeration() {
    let mut rng = case_rng("interval_props::range_matches_brute_force_enumeration");
    let mut draw = |range: RangeInclusive<i64>| rng.gen_range(range);
    for case in 0..600 {
        let (lo, span, stride) = (draw(-60..=60), draw(0..=70), draw(-15..=15));
        let label = format!("case {case}: lo {lo}, span {span}, stride {stride}");
        check_range(&label, lo, lo + span, stride, 3);
    }
}

/// The same property anchored at the i64 extremes: canonicalization
/// must neither overflow nor misplace an endpoint there.
#[test]
fn range_is_exact_at_i64_extremes() {
    let mut rng = case_rng("interval_props::range_is_exact_at_i64_extremes");
    let mut draw = |range: RangeInclusive<i64>| rng.gen_range(range);
    for case in 0..600 {
        let (span, stride, at_min) = (draw(0..=50), draw(-9..=9), draw(0..=1) == 0);
        let label = format!("case {case}: span {span}, stride {stride}, at_min {at_min}");
        if at_min {
            check_range(&label, i64::MIN, i64::MIN + span, stride, 0);
        } else {
            check_range(&label, i64::MAX - span, i64::MAX, stride, 0);
        }
    }
}

/// Abstract ops on enumerable sets stay sound: every concrete result
/// of `a + b` and `a · k` is a member of the abstract result.
#[test]
fn add_and_scale_cover_concrete_results() {
    let mut rng = case_rng("interval_props::add_and_scale_cover_concrete_results");
    let mut draw = |range: RangeInclusive<i64>| rng.gen_range(range);
    for case in 0..600 {
        let (lo_a, span_a, st_a) = (draw(-20..=20), draw(0..=12), draw(-5..=5));
        let (lo_b, span_b, st_b) = (draw(-20..=20), draw(0..=12), draw(-5..=5));
        let k = draw(-6..=6);
        let label = format!(
            "case {case}: a ({lo_a}, +{span_a}, {st_a}), b ({lo_b}, +{span_b}, {st_b}), k {k}"
        );
        let a = StridedInterval::range(lo_a, lo_a + span_a, st_a);
        let b = StridedInterval::range(lo_b, lo_b + span_b, st_b);
        let sum = a.add(&b);
        let scaled = a.scale(k);
        for &x in &enumerate(lo_a, lo_a + span_a, st_a) {
            assert!(scaled.contains(x * k), "{label}: {a} · {k} lost {}", x * k);
            for &y in &enumerate(lo_b, lo_b + span_b, st_b) {
                assert!(sum.contains(x + y), "{label}: {a} + {b} lost {}", x + y);
            }
        }
    }
}
