//! Affine index expressions over loop induction variables.
//!
//! Array subscripts in the IR are affine functions of the enclosing loop
//! indices, exactly the class the paper's §5.2 data layout optimization
//! requires ("loop bounds and array references are affine functions of the
//! enclosing loop indices and loop independent variables").
//!
//! An [`AffineExpr`] is `c0 + Σ ci * iv_i` with integer coefficients, held
//! as a list of `(variable, coefficient)` terms sorted by variable. Sums,
//! differences and substitutions merge two such lists in one pass, and
//! [`AffineExpr::difference`] reads `e₁ − e₂` off the two lists without
//! building it — the form the dependence test walks. The polyhedral access
//! form of Eq. (1), `r = Q·i + O`, is recovered by [`AccessVector`], one
//! affine expression per array dimension.

use std::fmt;

use crate::ids::LoopVarId;

/// An affine expression `c0 + Σ ci * iv_i` over loop induction variables.
///
/// # Examples
///
/// ```
/// use slp_ir::{AffineExpr, LoopVarId};
///
/// let i = LoopVarId::new(0);
/// // 4*i + 3
/// let e = AffineExpr::var(i).scaled(4).offset(3);
/// assert_eq!(e.coeff(i), 4);
/// assert_eq!(e.constant(), 3);
/// assert_eq!(e.eval(&[(i, 2)]), 11);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AffineExpr {
    /// `(variable, coefficient)` terms sorted by variable, each variable
    /// once, no zero coefficient.
    terms: Vec<(LoopVarId, i64)>,
    /// Constant term `c0`.
    constant: i64,
}

/// The non-zero terms of `Σa + k·Σb`, in variable order, merged from two
/// variable-ordered term lists. Coefficient arithmetic saturates.
fn merge(
    a: impl Iterator<Item = (LoopVarId, i64)>,
    b: impl Iterator<Item = (LoopVarId, i64)>,
    k: i64,
) -> impl Iterator<Item = (LoopVarId, i64)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || loop {
        let (v, c) = match (a.peek(), b.peek()) {
            (None, None) => return None,
            (Some(x), Some(y)) if x.0 == y.0 => {
                let ((v, ca), (_, cb)) = (a.next()?, b.next()?);
                (v, ca.saturating_add(cb.saturating_mul(k)))
            }
            (Some(x), y) if !matches!(y, Some(y) if y.0 < x.0) => a.next()?,
            _ => b.next().map(|(v, c)| (v, c.saturating_mul(k)))?,
        };
        if c != 0 {
            return Some((v, c));
        }
    })
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant_expr(c: i64) -> Self {
        AffineExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single loop variable with
    /// coefficient 1.
    pub fn var(v: LoopVarId) -> Self {
        AffineExpr {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// Builds `c0 + Σ ci*vi` from explicit terms, summing repeated
    /// variables (saturating, like [`add`](Self::add)) and dropping zero
    /// coefficients.
    pub fn from_terms<I: IntoIterator<Item = (LoopVarId, i64)>>(terms: I, constant: i64) -> Self {
        let mut terms: Vec<_> = terms.into_iter().collect();
        // Stable: a repeated variable's coefficients sum in the order given.
        terms.sort_by_key(|&(v, _)| v);
        terms.dedup_by(|(v, c), (kept, sum)| {
            v == kept && {
                *sum = sum.saturating_add(*c);
                true
            }
        });
        terms.retain(|&(_, c)| c != 0);
        AffineExpr { terms, constant }
    }

    /// The constant term `c0`.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// The coefficient of loop variable `v` (0 if absent).
    pub fn coeff(&self, v: LoopVarId) -> i64 {
        self.terms().find(|&(tv, _)| tv == v).map_or(0, |(_, c)| c)
    }

    /// Iterator over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (LoopVarId, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// The loop variables referenced by this expression.
    pub fn vars(&self) -> impl Iterator<Item = LoopVarId> + '_ {
        self.terms().map(|(v, _)| v)
    }

    /// Returns `self + other`.
    ///
    /// Coefficient arithmetic saturates at the i64 extremes: a saturated
    /// subscript is certainly out of bounds for any declarable array, so
    /// downstream bounds checks still reject it — without the debug-build
    /// overflow panic a hostile input could otherwise trigger.
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        AffineExpr {
            terms: merge(self.terms(), other.terms(), 1).collect(),
            constant: self.constant.saturating_add(other.constant),
        }
    }

    /// `self - other` read in place: its constant and its non-zero terms
    /// in variable order, merged from the two term lists without building
    /// the difference.
    pub(crate) fn difference<'a>(
        &'a self,
        other: &'a AffineExpr,
    ) -> (i64, impl Iterator<Item = (LoopVarId, i64)> + 'a) {
        let constant = self
            .constant
            .saturating_add(other.constant.saturating_mul(-1));
        (constant, merge(self.terms(), other.terms(), -1))
    }

    /// Returns `self * k`.
    pub fn scaled(&self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::constant_expr(0);
        }
        AffineExpr {
            terms: self
                .terms()
                .map(|(v, c)| (v, c.saturating_mul(k)))
                .collect(),
            constant: self.constant.saturating_mul(k),
        }
    }

    /// Returns `self + k`.
    pub fn offset(&self, k: i64) -> AffineExpr {
        AffineExpr {
            terms: self.terms.clone(),
            constant: self.constant.saturating_add(k),
        }
    }

    /// Substitutes loop variable `v` with the expression `e`.
    ///
    /// Used by loop unrolling to rewrite replica `k` of a body statement:
    /// `i ↦ i + k*step`.
    pub fn substitute(&self, v: LoopVarId, e: &AffineExpr) -> AffineExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let rest = self.terms().filter(|&(tv, _)| tv != v);
        AffineExpr {
            terms: merge(rest, e.terms(), c).collect(),
            constant: self.constant.saturating_add(e.constant.saturating_mul(c)),
        }
    }

    /// Evaluates the expression given concrete values for loop variables.
    ///
    /// Variables absent from `env` are treated as 0, which matches
    /// evaluation outside their loop.
    pub fn eval(&self, env: &[(LoopVarId, i64)]) -> i64 {
        // Accumulate in i128: a validated in-bounds subscript can still
        // have transiently huge partial sums (e.g. a near-MAX constant
        // cancelled by a negative term), and the final value must be
        // exact for the bounds check. Saturate the clamp back to i64 —
        // a clamped value is out of bounds for any real array.
        let mut acc = self.constant as i128;
        for (v, c) in self.terms() {
            if let Some(&(_, val)) = env.iter().find(|&&(ev, _)| ev == v) {
                acc = acc.saturating_add(c as i128 * val as i128);
            }
        }
        acc.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// Whether two expressions have identical variable parts (all
    /// coefficients equal), so their difference is the constant
    /// `other.constant - self.constant`.
    ///
    /// This is the core test for *adjacent memory references* (difference
    /// of exactly one element) and for the no-alias guarantee used by the
    /// dependence analysis: equal coefficients with different constants can
    /// never access the same element in the same iteration.
    pub fn same_linear_part(&self, other: &AffineExpr) -> bool {
        self.terms == other.terms
    }

    /// If `self` and `other` differ only in their constant term, returns
    /// `other.constant - self.constant`.
    pub fn constant_difference(&self, other: &AffineExpr) -> Option<i64> {
        if self.same_linear_part(other) {
            Some(other.constant - self.constant)
        } else {
            None
        }
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant_expr(c)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}*{v}")?,
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, "+{v}")?;
                } else {
                    write!(f, "+{c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, "-{v}")?;
            } else {
                write!(f, "{c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, "+{}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// The polyhedral access form of Eq. (1): `r = Q·i + O`.
///
/// One [`AffineExpr`] per array dimension; the access matrix `Q` row for
/// dimension `d` holds the coefficients of that dimension's expression and
/// the offset vector `O` holds its constant.
///
/// # Examples
///
/// ```
/// use slp_ir::{AccessVector, AffineExpr, LoopVarId};
///
/// let i = LoopVarId::new(0);
/// // A[4i + 3]
/// let acc = AccessVector::new(vec![AffineExpr::var(i).scaled(4).offset(3)]);
/// assert_eq!(acc.rank(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessVector {
    dims: Vec<AffineExpr>,
}

impl AccessVector {
    /// Builds an access vector from per-dimension index expressions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty: arrays have at least one dimension.
    pub fn new(dims: Vec<AffineExpr>) -> Self {
        assert!(!dims.is_empty(), "access vector needs at least 1 dimension");
        AccessVector { dims }
    }

    /// Number of array dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The index expression of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= self.rank()`.
    pub fn dim(&self, d: usize) -> &AffineExpr {
        &self.dims[d]
    }

    /// All per-dimension expressions, outermost dimension first.
    pub fn dims(&self) -> &[AffineExpr] {
        &self.dims
    }

    /// Evaluates every dimension under `env`.
    pub fn eval(&self, env: &[(LoopVarId, i64)]) -> Vec<i64> {
        self.dims.iter().map(|e| e.eval(env)).collect()
    }

    /// Applies `substitute` to every dimension.
    pub fn substitute(&self, v: LoopVarId, e: &AffineExpr) -> AccessVector {
        AccessVector {
            dims: self.dims.iter().map(|d| d.substitute(v, e)).collect(),
        }
    }

    /// Whether both access vectors have the same linear part in every
    /// dimension.
    pub fn same_linear_part(&self, other: &AccessVector) -> bool {
        self.rank() == other.rank()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.same_linear_part(b))
    }

    /// For same-linear-part accesses, the per-dimension constant
    /// differences `other - self`, outermost dimension first.
    pub fn constant_difference<'a>(
        &'a self,
        other: &'a AccessVector,
    ) -> Option<impl Iterator<Item = i64> + 'a> {
        let dims = self.dims.iter().zip(&other.dims);
        (self.same_linear_part(other)).then(|| dims.map(|(a, b)| b.constant - a.constant))
    }
}

impl fmt::Display for AccessVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.dims {
            write!(f, "[{d}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i() -> LoopVarId {
        LoopVarId::new(0)
    }
    fn j() -> LoopVarId {
        LoopVarId::new(1)
    }

    #[test]
    fn arithmetic_basics() {
        let e = AffineExpr::var(i()).scaled(4).offset(3); // 4i+3
        let f = AffineExpr::var(i()).scaled(-4).offset(1); // -4i+1
        let sum = e.add(&f);
        assert_eq!(sum, AffineExpr::constant_expr(4));
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let e = AffineExpr::from_terms([(i(), 2), (j(), 0)], 5);
        assert_eq!(e.vars().count(), 1);
        let g = e.add(&AffineExpr::var(i()).scaled(-2));
        assert_eq!(g, AffineExpr::constant_expr(5));
    }

    #[test]
    fn substitute_for_unrolling() {
        // 4i + 3 with i -> i + 2 gives 4i + 11 (unroll replica at step 2).
        let e = AffineExpr::var(i()).scaled(4).offset(3);
        let repl = AffineExpr::var(i()).offset(2);
        let e2 = e.substitute(i(), &repl);
        assert_eq!(e2, AffineExpr::var(i()).scaled(4).offset(11));
    }

    #[test]
    fn substitute_absent_var_is_identity() {
        let e = AffineExpr::var(i()).scaled(4).offset(3);
        assert_eq!(e.substitute(j(), &AffineExpr::constant_expr(9)), e);
    }

    #[test]
    fn eval_multi_var() {
        // 2i + 3j - 1 at (i,j)=(5,2) is 15.
        let e = AffineExpr::from_terms([(i(), 2), (j(), 3)], -1);
        assert_eq!(e.eval(&[(i(), 5), (j(), 2)]), 15);
        // Missing vars evaluate as 0.
        assert_eq!(e.eval(&[(i(), 5)]), 9);
    }

    #[test]
    fn constant_difference_detects_adjacency() {
        let a = AffineExpr::var(i()).scaled(4); // 4i
        let b = AffineExpr::var(i()).scaled(4).offset(1); // 4i+1
        assert_eq!(a.constant_difference(&b), Some(1));
        let c = AffineExpr::var(i()).scaled(2);
        assert_eq!(a.constant_difference(&c), None);
    }

    #[test]
    fn display_formats() {
        let e = AffineExpr::from_terms([(i(), 4)], 3);
        assert_eq!(e.to_string(), "4*i0+3");
        assert_eq!(AffineExpr::constant_expr(-2).to_string(), "-2");
        let m = AffineExpr::from_terms([(i(), 1), (j(), -1)], 0);
        assert_eq!(m.to_string(), "i0-i1");
    }

    #[test]
    fn access_vector_matrix_view() {
        // A[2i+j][3j+1]: Q = [[2,1],[0,3]], O = (0,1).
        let a = AccessVector::new(vec![
            AffineExpr::from_terms([(i(), 2), (j(), 1)], 0),
            AffineExpr::from_terms([(j(), 3)], 1),
        ]);
        assert_eq!(a.eval(&[(i(), 1), (j(), 2)]), vec![4, 7]);
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_access_vector_panics() {
        let _ = AccessVector::new(vec![]);
    }

    #[test]
    fn eval_survives_transient_overflow() {
        // (MAX-6) + j - i at j=7, i=MAX-13: the partial sum (MAX-6)+7
        // overflows i64 but the exact value is 14.
        let e = AffineExpr::from_terms([(i(), -1), (j(), 1)], i64::MAX - 6);
        assert_eq!(e.eval(&[(j(), 7), (i(), i64::MAX - 13)]), 14);
        // A genuinely huge value clamps to the i64 extremes instead of
        // panicking; clamped values are out of bounds of any real array.
        let big = AffineExpr::from_terms([(i(), i64::MAX)], i64::MAX);
        assert_eq!(big.eval(&[(i(), i64::MAX)]), i64::MAX);
        assert_eq!(big.scaled(-1).eval(&[(i(), i64::MAX)]), i64::MIN);
    }

    #[test]
    fn symbolic_ops_saturate() {
        let e = AffineExpr::from_terms([(i(), i64::MAX)], i64::MAX);
        let doubled = e.scaled(2);
        assert_eq!(doubled.coeff(i()), i64::MAX);
        assert_eq!(doubled.constant(), i64::MAX);
        assert_eq!(e.add(&e).constant(), i64::MAX);
        assert_eq!(e.offset(5).constant(), i64::MAX);
    }

    #[test]
    fn from_terms_sums_repeated_variables_saturating() {
        // Reachable from a disk-cache entry through the codec: used to
        // overflow (a debug panic, coefficient -2 in release).
        let e = AffineExpr::from_terms([(i(), i64::MAX), (i(), i64::MAX)], 0);
        assert_eq!(e.coeff(i()), i64::MAX);
        let e = AffineExpr::from_terms([(j(), 3), (i(), 1), (j(), -3), (i(), 1)], 0);
        assert_eq!(e.terms().collect::<Vec<_>>(), [(i(), 2)]);
    }

    /// The representation checked against definitions written out here:
    /// a dense coefficient per variable plus the constant, every operation
    /// spelled with the saturating i64 arithmetic `add` documents.
    mod model {
        use super::*;

        const VARS: usize = 3;
        const POOL: [i64; 11] = [
            0,
            1,
            -1,
            2,
            -3,
            7,
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
            -7,
        ];

        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Model {
            coeffs: [i64; VARS],
            constant: i64,
        }

        fn var(k: usize) -> LoopVarId {
            LoopVarId::new(k as u32)
        }

        fn of(e: &AffineExpr) -> Model {
            let terms: Vec<_> = e.terms().collect();
            assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "{e:?}");
            assert!(terms.iter().all(|&(_, c)| c != 0), "{e:?}");
            Model {
                coeffs: std::array::from_fn(|k| e.coeff(var(k))),
                constant: e.constant(),
            }
        }

        fn add(a: Model, b: Model) -> Model {
            Model {
                coeffs: std::array::from_fn(|k| a.coeffs[k].saturating_add(b.coeffs[k])),
                constant: a.constant.saturating_add(b.constant),
            }
        }

        fn scaled(a: Model, k: i64) -> Model {
            Model {
                coeffs: a.coeffs.map(|c| c.saturating_mul(k)),
                constant: a.constant.saturating_mul(k),
            }
        }

        fn substitute(a: Model, v: usize, e: Model) -> Model {
            let mut base = a;
            base.coeffs[v] = 0;
            match a.coeffs[v] {
                0 => a,
                c => add(base, scaled(e, c)),
            }
        }

        fn eval(a: Model, env: &[i64; VARS]) -> i64 {
            let sum = (0..VARS).fold(a.constant as i128, |acc, k| {
                acc.saturating_add(a.coeffs[k] as i128 * env[k] as i128)
            });
            sum.clamp(i64::MIN as i128, i64::MAX as i128) as i64
        }

        /// The order the earlier map representation derived: the non-zero
        /// `(variable, coefficient)` pairs lexicographically, then the
        /// constant.
        fn key(a: Model) -> (Vec<(usize, i64)>, i64) {
            let terms = (0..VARS).map(|k| (k, a.coeffs[k])).filter(|&(_, c)| c != 0);
            (terms.collect(), a.constant)
        }

        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }
            fn pick(&mut self) -> i64 {
                POOL[self.below(POOL.len())]
            }
            /// An expression from up to five terms, repeats included, with
            /// its model summed in the order given.
            fn expr(&mut self) -> (AffineExpr, Model) {
                let terms: Vec<(usize, i64)> = (0..self.below(6))
                    .map(|_| (self.below(VARS), self.pick()))
                    .collect();
                let constant = self.pick();
                let mut m = Model {
                    coeffs: [0; VARS],
                    constant,
                };
                for &(k, c) in &terms {
                    m.coeffs[k] = m.coeffs[k].saturating_add(c);
                }
                let e = AffineExpr::from_terms(terms.iter().map(|&(k, c)| (var(k), c)), constant);
                (e, m)
            }
        }

        #[test]
        fn operations_match_the_written_out_definitions() {
            let mut rng = Rng(25);
            for _ in 0..20_000 {
                let ((a, ma), (b, mb)) = (rng.expr(), rng.expr());
                assert_eq!(of(&a), ma, "from_terms {a:?}");
                assert_eq!(of(&a.add(&b)), add(ma, mb), "{a:?} + {b:?}");
                let diff = add(ma, scaled(mb, -1));
                let (constant, terms) = a.difference(&b);
                let difference = AffineExpr::from_terms(terms, constant);
                assert_eq!(of(&difference), diff, "{a:?} - {b:?}");
                let k = rng.pick();
                assert_eq!(of(&a.scaled(k)), scaled(ma, k), "{a:?} * {k}");
                let offset = Model {
                    constant: ma.constant.saturating_add(k),
                    ..ma
                };
                assert_eq!(of(&a.offset(k)), offset, "{a:?} + {k}");
                let v = rng.below(VARS);
                let sub = substitute(ma, v, mb);
                assert_eq!(of(&a.substitute(var(v), &b)), sub, "{a:?}[{v} := {b:?}]");
                let env: [i64; VARS] = std::array::from_fn(|_| rng.pick());
                let bound: Vec<_> = (0..VARS).map(|k| (var(k), env[k])).collect();
                assert_eq!(a.eval(&bound), eval(ma, &env), "{a:?} at {env:?}");
                assert_eq!(a.cmp(&b), key(ma).cmp(&key(mb)), "{a:?} vs {b:?}");
                assert_eq!(a == b, ma == mb, "{a:?} vs {b:?}");
            }
        }
    }
}
