//! Forward value-range analysis.
//!
//! Two range analyses live here:
//!
//! * **Induction variables** get *exact* [`StridedInterval`]s straight
//!   from their loop headers ([`loop_env`]); [`eval_affine`] then folds a
//!   whole affine subscript through the domain. No widening is needed —
//!   counted loops give the fixpoint in closed form.
//! * **Scalars** get floating-point intervals ([`ScalarRanges`]): a
//!   forward fixpoint over the program with classic interval widening at
//!   loop headers (an endpoint that keeps growing is pushed to ±∞). The
//!   VM seeds scalars and input arrays with arbitrary finite values, so
//!   the initial state is ⊤, and every transfer function rounds outward
//!   by one ULP so the abstract bounds stay sound under f64 rounding.
//!   NaN-producing operations (0/0, √negative, ∞−∞) widen to ⊤, which is
//!   read as "any value, possibly NaN".

use std::collections::HashMap;

use slp_ir::{
    AffineExpr, BinOp, CmpOp, Expr, Item, LoopHeader, LoopVarId, Operand, Program, UnOp, VarId,
};

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

/// A closed floating-point interval `[lo, hi]`; ⊤ is `[−∞, +∞]` and is
/// also the sound abstraction of a possibly-NaN value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloatInterval {
    /// Lower bound (may be `−∞`, never NaN).
    pub lo: f64,
    /// Upper bound (may be `+∞`, never NaN).
    pub hi: f64,
}

/// The next f64 above `x` (identity on `+∞`).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

/// The next f64 below `x` (identity on `−∞`).
fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

impl FloatInterval {
    /// The singleton `[c, c]` (⊤ if `c` is NaN).
    pub(crate) fn constant(c: f64) -> Self {
        if c.is_nan() {
            return Self::top();
        }
        FloatInterval { lo: c, hi: c }
    }

    /// The unconstrained interval.
    pub(crate) fn top() -> Self {
        FloatInterval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Whether this interval constrains nothing.
    pub(crate) fn is_top(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// Whether both bounds are finite.
    pub(crate) fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Whether `v` lies within the interval (NaN is a member of ⊤ only).
    pub fn contains(&self, v: f64) -> bool {
        if v.is_nan() {
            return self.is_top();
        }
        self.lo <= v && v <= self.hi
    }

    /// Builds the outward-rounded hull of finite candidate values; any
    /// non-finite candidate (overflow, NaN) widens to ⊤.
    fn hull(candidates: &[f64]) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &c in candidates {
            if c.is_nan() {
                // ∞ − ∞, 0 · ∞, ∞ / ∞: the concrete result can be NaN.
                return Self::top();
            }
            lo = lo.min(c);
            hi = hi.max(c);
        }
        // Infinite endpoints are already maximal — corner arithmetic with
        // a half-bounded operand (a widened accumulator, say) keeps its
        // finite side tight instead of collapsing the whole interval.
        FloatInterval {
            lo: if lo.is_finite() { next_down(lo) } else { lo },
            hi: if hi.is_finite() { next_up(hi) } else { hi },
        }
    }

    /// Least upper bound.
    pub(crate) fn join(&self, other: &FloatInterval) -> FloatInterval {
        FloatInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Classic interval widening: an endpoint `other` pushes past is sent
    /// straight to its infinity, so loop fixpoints terminate.
    pub(crate) fn widen(&self, other: &FloatInterval) -> FloatInterval {
        FloatInterval {
            lo: if other.lo < self.lo {
                f64::NEG_INFINITY
            } else {
                self.lo
            },
            hi: if other.hi > self.hi {
                f64::INFINITY
            } else {
                self.hi
            },
        }
    }

    /// Abstract binary operation.
    pub(crate) fn apply_bin(op: BinOp, a: &FloatInterval, b: &FloatInterval) -> FloatInterval {
        match op {
            BinOp::Min => {
                if a.lo.is_infinite() && b.lo.is_infinite() {
                    return Self::top();
                }
                FloatInterval {
                    lo: a.lo.min(b.lo),
                    hi: a.hi.min(b.hi),
                }
            }
            BinOp::Max => {
                if a.hi.is_infinite() && b.hi.is_infinite() {
                    return Self::top();
                }
                FloatInterval {
                    lo: a.lo.max(b.lo),
                    hi: a.hi.max(b.hi),
                }
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                if op == BinOp::Div && b.contains(0.0) {
                    return Self::top();
                }
                let f = |x: f64, y: f64| op.apply(x, y);
                Self::hull(&[f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi)])
            }
        }
    }

    /// Decides a comparison over intervals: `Some(v)` when every pair
    /// drawn from `a × b` compares to `v`, `None` when the branch can go
    /// either way. ⊤ operands (possibly NaN) are never decidable — NaN
    /// fails every ordered comparison, so even disjoint bounds prove
    /// nothing.
    pub(crate) fn decide_cmp(op: CmpOp, a: &FloatInterval, b: &FloatInterval) -> Option<bool> {
        if a.is_top() || b.is_top() {
            return None;
        }
        match op {
            CmpOp::Lt => {
                if a.hi < b.lo {
                    Some(true)
                } else if a.lo >= b.hi {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Le => {
                if a.hi <= b.lo {
                    Some(true)
                } else if a.lo > b.hi {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Gt => Self::decide_cmp(CmpOp::Lt, b, a),
            CmpOp::Ge => Self::decide_cmp(CmpOp::Le, b, a),
            CmpOp::Eq => {
                if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
                    Some(true)
                } else if a.hi < b.lo || b.hi < a.lo {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Ne => Self::decide_cmp(CmpOp::Eq, a, b).map(|v| !v),
        }
    }

    /// Narrows `self` under the assumption that `self op other` holds —
    /// the strided-interval refinement a taken branch grants its
    /// condition operands. Sound with NaN: a NaN left side satisfies no
    /// ordered comparison, so inside a taken `<`/`<=`/`>`/`>=`/`==`
    /// branch the operand is known non-NaN and clamping to the finite
    /// bound is exact. `!=` proves nothing representable.
    pub(crate) fn refine_by_cmp(&self, op: CmpOp, other: &FloatInterval) -> FloatInterval {
        match op {
            CmpOp::Lt | CmpOp::Le => FloatInterval {
                lo: self.lo,
                hi: self.hi.min(other.hi),
            },
            CmpOp::Gt | CmpOp::Ge => FloatInterval {
                lo: self.lo.max(other.lo),
                hi: self.hi,
            },
            CmpOp::Eq => FloatInterval {
                lo: self.lo.max(other.lo),
                hi: self.hi.min(other.hi),
            },
            CmpOp::Ne => *self,
        }
    }

    /// Abstract unary operation.
    pub(crate) fn apply_un(op: UnOp, a: &FloatInterval) -> FloatInterval {
        match op {
            UnOp::Neg => FloatInterval {
                lo: -a.hi,
                hi: -a.lo,
            },
            UnOp::Abs => {
                if a.lo >= 0.0 {
                    *a
                } else if a.hi <= 0.0 {
                    Self::apply_un(UnOp::Neg, a)
                } else {
                    FloatInterval {
                        lo: 0.0,
                        hi: (-a.lo).max(a.hi),
                    }
                }
            }
            UnOp::Sqrt => {
                if a.lo < 0.0 {
                    return Self::top(); // NaN possible
                }
                if !a.is_bounded() {
                    return FloatInterval {
                        lo: next_down(a.lo.sqrt()).max(0.0),
                        hi: f64::INFINITY,
                    };
                }
                Self::hull(&[a.lo.sqrt(), a.hi.sqrt()])
            }
        }
    }
}

impl std::fmt::Display for FloatInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_top() {
            write!(f, "⊤")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The provable value range of every scalar at the end of the program.
///
/// # Examples
///
/// ```
/// use slp_ir::{Expr, Program, ScalarType, BinOp};
/// use slp_analyze::ScalarRanges;
///
/// let mut p = Program::new("t");
/// let x = p.add_scalar("x", ScalarType::F64);
/// let y = p.add_scalar("y", ScalarType::F64);
/// p.push_stmt(x.into(), Expr::Copy(2.0.into()));
/// p.push_stmt(y.into(), Expr::Binary(BinOp::Mul, x.into(), 3.0.into()));
/// let ranges = ScalarRanges::analyze(&p);
/// assert!(ranges.range(y).contains(6.0));
/// assert!(!ranges.range(y).contains(7.0));
/// ```
#[derive(Debug, Clone)]
pub struct ScalarRanges {
    ranges: Vec<FloatInterval>,
}

impl ScalarRanges {
    /// Runs the forward fixpoint over `program`.
    pub fn analyze(program: &Program) -> Self {
        // Scalars hold runtime-seeded input values before their first
        // write: start at ⊤, not at zero.
        let mut state = vec![FloatInterval::top(); program.scalars().len()];
        exec_items(program.items(), &mut state);
        ScalarRanges { ranges: state }
    }

    /// The provable range of `v` after the program runs.
    pub fn range(&self, v: VarId) -> FloatInterval {
        self.ranges[v.index()]
    }
}

fn eval_operand(op: &Operand, state: &[FloatInterval]) -> FloatInterval {
    match op {
        Operand::Const(c) => FloatInterval::constant(*c),
        Operand::Scalar(v) => state[v.index()],
        // Array elements are runtime inputs (or written from unknown
        // positions): unconstrained.
        Operand::Array(_) => FloatInterval::top(),
    }
}

fn transfer(s: &slp_ir::Statement, state: &mut [FloatInterval]) {
    let value = match s.expr() {
        Expr::Copy(a) => eval_operand(a, state),
        Expr::Unary(op, a) => FloatInterval::apply_un(*op, &eval_operand(a, state)),
        Expr::Binary(op, a, b) => {
            FloatInterval::apply_bin(*op, &eval_operand(a, state), &eval_operand(b, state))
        }
        Expr::MulAdd(a, b, c) => FloatInterval::apply_bin(
            BinOp::Add,
            &eval_operand(a, state),
            &FloatInterval::apply_bin(BinOp::Mul, &eval_operand(b, state), &eval_operand(c, state)),
        ),
        Expr::Select(op, a, b, t, f) => {
            let ia = eval_operand(a, state);
            let ib = eval_operand(b, state);
            match FloatInterval::decide_cmp(*op, &ia, &ib) {
                Some(true) => eval_operand(t, state),
                Some(false) => eval_operand(f, state),
                None => {
                    // Taken-branch refinement: when an arm *is* one of
                    // the condition operands, the comparison known to
                    // hold on that arm narrows its interval (e.g.
                    // `select(x < 0, -x, x)` is provably >= 0 minus a
                    // rounding ulp). Non-top operands are provably
                    // non-NaN, so negating the condition for the false
                    // arm is sound there.
                    let mut it = eval_operand(t, state);
                    if t == a {
                        it = it.refine_by_cmp(*op, &ib);
                    } else if t == b {
                        it = it.refine_by_cmp(op.swap(), &ia);
                    }
                    let mut ie = eval_operand(f, state);
                    if !ia.is_top() && !ib.is_top() {
                        if let Some(neg) = negate_ordered(*op) {
                            if f == a {
                                ie = ie.refine_by_cmp(neg, &ib);
                            } else if f == b {
                                ie = ie.refine_by_cmp(neg.swap(), &ia);
                            }
                        }
                    }
                    it.join(&ie)
                }
            }
        }
    };
    if let slp_ir::Dest::Scalar(v) = s.dest() {
        state[v.index()] = value;
    }
}

/// The comparison that holds when `op` does not, valid only for inputs
/// known non-NaN (`Eq`'s negation `Ne` carries no interval information,
/// so it reports `None`).
fn negate_ordered(op: CmpOp) -> Option<CmpOp> {
    match op {
        CmpOp::Lt => Some(CmpOp::Ge),
        CmpOp::Le => Some(CmpOp::Gt),
        CmpOp::Gt => Some(CmpOp::Le),
        CmpOp::Ge => Some(CmpOp::Lt),
        CmpOp::Eq | CmpOp::Ne => None,
    }
}

fn exec_items(items: &[Item], state: &mut Vec<FloatInterval>) {
    for item in items {
        match item {
            Item::Stmt(s) => transfer(s, state),
            Item::Loop(l) => {
                if l.header.trip_count() == 0 {
                    continue; // body never runs
                }
                // Fixpoint with widening: two plain joins let constant
                // bounds settle, then growing endpoints go to ±∞. Each
                // scalar widens at most twice, so this terminates.
                let mut round = 0usize;
                loop {
                    let mut next = state.clone();
                    exec_items(&l.body, &mut next);
                    let combined: Vec<FloatInterval> = state
                        .iter()
                        .zip(&next)
                        .map(|(cur, nxt)| {
                            let j = cur.join(nxt);
                            if round >= 2 {
                                cur.widen(&j)
                            } else {
                                j
                            }
                        })
                        .collect();
                    if combined == *state {
                        break;
                    }
                    *state = combined;
                    round += 1;
                }
            }
        }
    }
}

/// Renders the per-scalar ranges with source names (for `slpc analyze`).
pub fn render_scalar_ranges(program: &Program, ranges: &ScalarRanges) -> Vec<(String, String)> {
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for v in program.scalar_ids() {
        let name = program.scalar(v).name.clone();
        if seen.insert(name.clone(), ()).is_none() {
            out.push((name, ranges.range(v).to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{AccessVector, ArrayRef, Loop, ScalarType};

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

    #[test]
    fn float_interval_arithmetic_is_outward_rounded() {
        let a = FloatInterval::constant(0.1);
        let b = FloatInterval::constant(0.2);
        let sum = FloatInterval::apply_bin(BinOp::Add, &a, &b);
        assert!(sum.contains(0.1 + 0.2));
        assert!(sum.contains(0.3), "true sum inside outward bounds");
        let div = FloatInterval::apply_bin(BinOp::Div, &a, &FloatInterval::constant(0.0));
        assert!(div.is_top(), "division by zero widens");
    }

    #[test]
    fn sqrt_of_possibly_negative_is_top() {
        let m = FloatInterval { lo: -1.0, hi: 4.0 };
        assert!(FloatInterval::apply_un(UnOp::Sqrt, &m).is_top());
        let p = FloatInterval { lo: 4.0, hi: 9.0 };
        let r = FloatInterval::apply_un(UnOp::Sqrt, &p);
        assert!(r.contains(2.0) && r.contains(3.0) && !r.contains(3.5));
    }

    #[test]
    fn straight_line_ranges_are_tight() {
        let mut p = Program::new("t");
        let x = p.add_scalar("x", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        p.push_stmt(x.into(), Expr::Copy(2.0.into()));
        p.push_stmt(
            y.into(),
            Expr::Binary(BinOp::Add, x.into(), Operand::Const(1.5)),
        );
        let r = ScalarRanges::analyze(&p);
        assert!(r.range(y).contains(3.5));
        assert!(!r.range(y).contains(3.6));
    }

    #[test]
    fn uninitialized_scalars_are_unconstrained() {
        let mut p = Program::new("t");
        let a = p.add_scalar("a", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        p.push_stmt(y.into(), Expr::Binary(BinOp::Mul, a.into(), 2.0.into()));
        let r = ScalarRanges::analyze(&p);
        assert!(r.range(a).is_top(), "runtime-seeded input");
        assert!(r.range(y).is_top());
    }

    #[test]
    fn decidable_select_takes_one_arm_exactly() {
        let mut p = Program::new("t");
        let y = p.add_scalar("y", ScalarType::F64);
        p.push_stmt(
            y.into(),
            Expr::Select(CmpOp::Lt, 1.0.into(), 2.0.into(), 5.0.into(), 9.0.into()),
        );
        let r = ScalarRanges::analyze(&p);
        assert!(r.range(y).contains(5.0));
        assert!(!r.range(y).contains(9.0));
    }

    #[test]
    fn taken_branch_narrows_condition_operand() {
        // x = abs(s) is in [0, +inf); y = select(x < 2, x, 2) clamps the
        // taken arm by the branch condition: y is provably in [0, 2].
        let mut p = Program::new("t");
        let s = p.add_scalar("s", ScalarType::F64);
        let x = p.add_scalar("x", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        p.push_stmt(x.into(), Expr::Unary(UnOp::Abs, s.into()));
        p.push_stmt(
            y.into(),
            Expr::Select(CmpOp::Lt, x.into(), 2.0.into(), x.into(), 2.0.into()),
        );
        let r = ScalarRanges::analyze(&p);
        let ry = r.range(y);
        assert!(ry.is_bounded(), "clamp bounds the range: {ry}");
        assert_eq!(ry.lo, 0.0);
        assert_eq!(ry.hi, 2.0);
    }

    #[test]
    fn undecidable_select_with_top_operands_joins_arms() {
        let mut p = Program::new("t");
        let s = p.add_scalar("s", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        p.push_stmt(
            y.into(),
            Expr::Select(CmpOp::Gt, s.into(), 0.0.into(), 3.0.into(), 7.0.into()),
        );
        let r = ScalarRanges::analyze(&p);
        assert!(r.range(y).contains(3.0) && r.range(y).contains(7.0));
        assert!(!r.range(y).contains(8.0));
    }

    #[test]
    fn decide_cmp_is_nan_aware() {
        let a = FloatInterval { lo: 0.0, hi: 1.0 };
        let b = FloatInterval { lo: 2.0, hi: 3.0 };
        assert_eq!(FloatInterval::decide_cmp(CmpOp::Lt, &a, &b), Some(true));
        assert_eq!(FloatInterval::decide_cmp(CmpOp::Gt, &a, &b), Some(false));
        assert_eq!(FloatInterval::decide_cmp(CmpOp::Ne, &a, &b), Some(true));
        // ⊤ may be NaN: nothing is decidable, not even with disjoint
        // finite bounds on the other side.
        let top = FloatInterval::top();
        for op in CmpOp::all() {
            assert_eq!(FloatInterval::decide_cmp(op, &top, &b), None, "{op:?}");
        }
        let c2 = FloatInterval::constant(2.0);
        assert_eq!(FloatInterval::decide_cmp(CmpOp::Eq, &c2, &c2), Some(true));
        assert_eq!(FloatInterval::decide_cmp(CmpOp::Le, &b, &b), None);
    }

    #[test]
    fn accumulator_widens_instead_of_diverging() {
        // s = 0; for i in 0..1000 { s = s + 1.0 }: widening must reach a
        // fixpoint quickly and keep the sound [0, +inf) bound.
        let mut p = Program::new("t");
        let s = p.add_scalar("s", ScalarType::F64);
        let i = p.add_loop_var("i");
        p.push_stmt(s.into(), Expr::Copy(0.0.into()));
        let body = p.make_stmt(s.into(), Expr::Binary(BinOp::Add, s.into(), 1.0.into()));
        p.push_item(Item::Loop(Loop {
            header: header(i, 0, 1000, 1),
            body: vec![Item::Stmt(body)],
        }));
        let r = ScalarRanges::analyze(&p);
        let si = r.range(s);
        assert_eq!(si.lo, 0.0, "lower bound survives widening");
        assert_eq!(si.hi, f64::INFINITY, "upper bound widened");
    }

    #[test]
    fn loop_invariant_ranges_survive_the_loop() {
        // x = 3; for i { A[i] = x }: x stays [3, 3].
        let mut p = Program::new("t");
        let x = p.add_scalar("x", ScalarType::F64);
        let a = p.add_array("A", ScalarType::F64, vec![8], false);
        let i = p.add_loop_var("i");
        p.push_stmt(x.into(), Expr::Copy(3.0.into()));
        let body = p.make_stmt(
            ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)])).into(),
            Expr::Copy(x.into()),
        );
        p.push_item(Item::Loop(Loop {
            header: header(i, 0, 8, 1),
            body: vec![Item::Stmt(body)],
        }));
        let r = ScalarRanges::analyze(&p);
        assert_eq!(r.range(x), FloatInterval::constant(3.0));
    }
}
