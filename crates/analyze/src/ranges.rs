//! Induction-variable value ranges.
//!
//! Induction variables get *exact* [`StridedInterval`]s straight from
//! their loop headers ([`loop_env`]); [`eval_affine`] then folds a whole
//! affine subscript through the domain. No widening is needed — counted
//! loops give the fixpoint in closed form.

use slp_ir::{AffineExpr, LoopHeader, LoopVarId};

use crate::domain::StridedInterval;

/// The exact value sets of the induction variables of `loops`.
///
/// Returns `None` when any enclosing loop provably never runs: the
/// governed code is dead and no value constraint is meaningful (callers
/// stay conservative, matching `slp_ir::numeric::interval_in`).
pub fn loop_env(loops: &[LoopHeader]) -> Option<Vec<(LoopVarId, StridedInterval)>> {
    let mut env = Vec::with_capacity(loops.len());
    for h in loops {
        let trips = h.trip_count() as i128;
        if trips <= 0 {
            return None;
        }
        let first = h.lower as i128;
        let Some(last) = (trips - 1)
            .checked_mul(h.step as i128)
            .and_then(|span| first.checked_add(span))
        else {
            env.push((h.var, StridedInterval::top()));
            continue;
        };
        let si = StridedInterval::range(
            i64::try_from(first).unwrap_or(i64::MIN),
            i64::try_from(last).unwrap_or(i64::MAX),
            h.step,
        );
        env.push((h.var, si));
    }
    Some(env)
}

/// Evaluates an affine expression over a variable environment.
///
/// Exact for the interval hull (each variable independently attains its
/// extremes over a box domain, so both endpoints of the result are
/// attained by concrete iterations); the stride is the provable
/// congruence. Returns `None` if some variable of `e` is absent from
/// `env`.
pub fn eval_affine(
    e: &AffineExpr,
    env: &[(LoopVarId, StridedInterval)],
) -> Option<StridedInterval> {
    let mut acc = StridedInterval::constant(e.constant());
    for (v, c) in e.terms() {
        let (_, si) = env.iter().find(|(ev, _)| *ev == v)?;
        acc = acc.add(&si.scale(c));
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(var: LoopVarId, lower: i64, upper: i64, step: i64) -> LoopHeader {
        LoopHeader {
            var,
            lower,
            upper,
            step,
        }
    }

    #[test]
    fn loop_env_matches_actual_iteration_values() {
        let i = LoopVarId::new(0);
        let env = loop_env(&[header(i, 0, 7, 2)]).expect("live loop");
        let si = env[0].1;
        // i visits 0, 2, 4, 6.
        assert_eq!((si.lo(), si.hi(), si.stride()), (0, 6, 2));
        assert!(loop_env(&[header(i, 5, 5, 1)]).is_none(), "zero trips");
    }

    #[test]
    fn eval_affine_keeps_stride_information() {
        let i = LoopVarId::new(0);
        let env = loop_env(&[header(i, 0, 16, 2)]).unwrap();
        // 2i − 3 over even i: stride 4, never zero.
        let e = AffineExpr::var(i).scaled(2).offset(-3);
        let si = eval_affine(&e, &env).unwrap();
        assert_eq!((si.lo(), si.hi(), si.stride()), (-3, 25, 4));
        assert!(!si.contains(0));
        // Unknown variable: no verdict.
        assert!(eval_affine(&AffineExpr::var(LoopVarId::new(9)), &env).is_none());
    }
}
