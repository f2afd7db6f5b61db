//! Operands, operators and right-hand-side expressions.
//!
//! Statements in the IR are in three-address style: a destination and an
//! expression of at most one operator, which is the granularity at which
//! the paper's isomorphism test (§4.1 constraint 3: "same operations in the
//! same order") and variable-pack extraction ("variables coming from the
//! same position of different isomorphic statements") operate.

use std::fmt;

use crate::affine::AccessVector;
use crate::ids::{ArrayId, VarId};
use crate::types::ScalarType;

/// A reference to an array element with affine subscripts, e.g. `A[4i+3]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayRef {
    /// The array being accessed.
    pub array: ArrayId,
    /// One affine index expression per dimension.
    pub access: AccessVector,
}

impl ArrayRef {
    /// Creates a reference to `array` with the given per-dimension access.
    pub fn new(array: ArrayId, access: AccessVector) -> Self {
        ArrayRef { array, access }
    }

    /// Whether the two references certainly touch the same element in every
    /// iteration (same array, identical access expressions).
    pub fn must_alias(&self, other: &ArrayRef) -> bool {
        self.array == other.array && self.access == other.access
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.array, self.access)
    }
}

/// An operand of an expression: a scalar variable, an array element or an
/// immediate constant.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Operand {
    /// A scalar variable.
    Scalar(VarId),
    /// An array element with affine subscripts.
    Array(ArrayRef),
    /// An immediate constant (stored as `f64`; integer types truncate on
    /// evaluation).
    Const(f64),
}

impl Operand {
    /// Returns the scalar variable if this operand is one.
    pub fn as_scalar(&self) -> Option<VarId> {
        match self {
            Operand::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the array reference if this operand is one.
    pub fn as_array(&self) -> Option<&ArrayRef> {
        match self {
            Operand::Array(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this operand reads from memory or a register (i.e. is not a
    /// constant).
    pub fn is_location(&self) -> bool {
        !matches!(self, Operand::Const(_))
    }

    /// The structural kind of the operand, used by the isomorphism test.
    pub fn kind(&self) -> OperandKind {
        match self {
            Operand::Scalar(_) => OperandKind::Scalar,
            Operand::Array(_) => OperandKind::Array,
            Operand::Const(_) => OperandKind::Const,
        }
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Scalar(v)
    }
}

impl From<ArrayRef> for Operand {
    fn from(r: ArrayRef) -> Self {
        Operand::Array(r)
    }
}

impl From<f64> for Operand {
    fn from(c: f64) -> Self {
        Operand::Const(c)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Scalar(v) => write!(f, "{v}"),
            Operand::Array(r) => write!(f, "{r}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// The structural kind of an [`Operand`], compared positionally by the
/// isomorphism test ("the operands in the corresponding positions should
/// have the same data type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// A scalar variable operand.
    Scalar,
    /// An array element operand.
    Array,
    /// A constant operand.
    Const,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Lane-wise minimum.
    Min,
    /// Lane-wise maximum.
    Max,
}

impl BinOp {
    /// Applies the operator to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// All binary operators (handy for tests and generators).
    pub fn all() -> [BinOp; 6] {
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
}

impl UnOp {
    /// Applies the operator to a value.
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Sqrt => a.sqrt(),
        }
    }

    /// All unary operators.
    pub fn all() -> [UnOp; 3] {
        [UnOp::Neg, UnOp::Abs, UnOp::Sqrt]
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
        };
        f.write_str(s)
    }
}

/// Comparison operators, used only as the predicate of a
/// [`Expr::Select`]: the IR has no boolean values, so a comparison never
/// appears outside a select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `a < b`
    Lt,
    /// `a <= b`
    Le,
    /// `a > b`
    Gt,
    /// `a >= b`
    Ge,
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
}

impl CmpOp {
    /// Applies the comparison with IEEE-754 semantics (every ordered
    /// comparison involving NaN is false; `!=` is true).
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// The comparison satisfied exactly when `self` is not (NaN inputs
    /// included: `!(a < b)` is `a >= b || unordered`, which `Ge` does
    /// *not* express, so negation swaps the select arms instead — see
    /// [`Expr::Select`]). This helper only flips the operand order:
    /// `a < b` ⇔ `b > a`.
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// All comparison operators (handy for tests and generators).
    pub fn all() -> [CmpOp; 6] {
        [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ]
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A right-hand-side expression: at most one operator over operands.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Expr {
    /// A plain copy `dst = src`.
    Copy(Operand),
    /// A unary operation `dst = op src`.
    Unary(UnOp, Operand),
    /// A binary operation `dst = a op b`.
    Binary(BinOp, Operand, Operand),
    /// A fused multiply-add `dst = a + b * c`, the shape of the example
    /// statements `A[2i] = d + a*c` in the paper's Figure 15.
    MulAdd(Operand, Operand, Operand),
    /// A predicated blend `dst = (a cmp b) ? t : f` — the masked form
    /// if-conversion produces; vectorizes as compare-to-mask + blend.
    Select(CmpOp, Operand, Operand, Operand, Operand),
}

impl Expr {
    /// The operands of the expression in positional order, as a view
    /// that reads as a slice (`len`, `[k]`, `iter`) or iterates by value
    /// without allocating.
    pub fn operands(&self) -> Operands<'_> {
        let (refs, len) = match self {
            Expr::Copy(a) | Expr::Unary(_, a) => ([a; 4], 1),
            Expr::Binary(_, a, b) => ([a, b, b, b], 2),
            Expr::MulAdd(a, b, c) => ([a, b, c, c], 3),
            Expr::Select(_, a, b, t, e) => ([a, b, t, e], 4),
        };
        Operands { refs, len }
    }

    /// Mutable access to the operands in positional order.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        let refs = match self {
            Expr::Copy(a) | Expr::Unary(_, a) => [Some(a), None, None, None],
            Expr::Binary(_, a, b) => [Some(a), Some(b), None, None],
            Expr::MulAdd(a, b, c) => [Some(a), Some(b), Some(c), None],
            Expr::Select(_, a, b, t, e) => [Some(a), Some(b), Some(t), Some(e)],
        };
        refs.into_iter().flatten()
    }

    /// Number of operand positions.
    pub fn arity(&self) -> usize {
        self.operands().len()
    }

    /// A discriminant describing the operator shape, ignoring operands.
    /// Two expressions with equal shape and positionally equal operand
    /// kinds are isomorphic.
    pub fn shape(&self) -> ExprShape {
        match self {
            Expr::Copy(_) => ExprShape::Copy,
            Expr::Unary(op, _) => ExprShape::Unary(*op),
            Expr::Binary(op, _, _) => ExprShape::Binary(*op),
            Expr::MulAdd(_, _, _) => ExprShape::MulAdd,
            Expr::Select(op, _, _, _, _) => ExprShape::Select(*op),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Copy(a) => write!(f, "{a}"),
            Expr::Unary(op, a) => write!(f, "{op}({a})"),
            Expr::Binary(op, a, b) => match op {
                BinOp::Min | BinOp::Max => write!(f, "{op}({a}, {b})"),
                _ => write!(f, "{a} {op} {b}"),
            },
            Expr::MulAdd(a, b, c) => write!(f, "{a} + {b} * {c}"),
            Expr::Select(op, a, b, t, e) => write!(f, "select({a} {op} {b}, {t}, {e})"),
        }
    }
}

/// At most four operand references in positional order: what
/// [`Expr::operands`] and [`Statement::uses`](crate::Statement::uses)
/// return. Dereferences to a slice; iterating it by value yields the
/// references themselves.
#[derive(Clone, Copy)]
pub struct Operands<'a> {
    /// The operands, padded past `len` with a repeat of one of them.
    refs: [&'a Operand; 4],
    len: usize,
}

impl<'a> Operands<'a> {
    /// The operands that are locations (not constants), in order.
    pub(crate) fn locations(self) -> Operands<'a> {
        let mut out = Operands { len: 0, ..self };
        for op in self.into_iter().filter(|op| op.is_location()) {
            out.refs[out.len] = op;
            out.len += 1;
        }
        out
    }
}

impl<'a> std::ops::Deref for Operands<'a> {
    type Target = [&'a Operand];

    fn deref(&self) -> &[&'a Operand] {
        &self.refs[..self.len]
    }
}

impl<'a> IntoIterator for Operands<'a> {
    type Item = &'a Operand;
    type IntoIter = std::iter::Take<std::array::IntoIter<&'a Operand, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.refs.into_iter().take(self.len)
    }
}

impl fmt::Debug for Operands<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The operator shape of an [`Expr`], used as an isomorphism-class key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExprShape {
    /// Shape of [`Expr::Copy`].
    Copy,
    /// Shape of [`Expr::Unary`].
    Unary(UnOp),
    /// Shape of [`Expr::Binary`].
    Binary(BinOp),
    /// Shape of [`Expr::MulAdd`].
    MulAdd,
    /// Shape of [`Expr::Select`]; selects pack only with selects using
    /// the same comparison.
    Select(CmpOp),
}

/// A typed destination: where a statement writes.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Dest {
    /// Write to a scalar variable.
    Scalar(VarId),
    /// Write to an array element.
    Array(ArrayRef),
}

impl Dest {
    /// Views the destination as an operand (for uniform location handling).
    pub(crate) fn as_operand(&self) -> Operand {
        match self {
            Dest::Scalar(v) => Operand::Scalar(*v),
            Dest::Array(r) => Operand::Array(r.clone()),
        }
    }

    /// The structural kind of the destination.
    pub fn kind(&self) -> OperandKind {
        match self {
            Dest::Scalar(_) => OperandKind::Scalar,
            Dest::Array(_) => OperandKind::Array,
        }
    }
}

impl From<VarId> for Dest {
    fn from(v: VarId) -> Self {
        Dest::Scalar(v)
    }
}

impl From<ArrayRef> for Dest {
    fn from(r: ArrayRef) -> Self {
        Dest::Array(r)
    }
}

impl fmt::Display for Dest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dest::Scalar(v) => write!(f, "{v}"),
            Dest::Array(r) => write!(f, "{r}"),
        }
    }
}

/// Element type context: anything that can report the [`ScalarType`] of a
/// scalar variable or array. Implemented by
/// [`Program`](crate::program::Program).
pub trait TypeEnv {
    /// The element type of scalar variable `v`.
    fn scalar_type(&self, v: VarId) -> ScalarType;
    /// The element type of array `a`.
    fn array_type(&self, a: ArrayId) -> ScalarType;

    /// The element type of an operand; constants default to `F64`.
    fn operand_type(&self, op: &Operand) -> ScalarType {
        match op {
            Operand::Scalar(v) => self.scalar_type(*v),
            Operand::Array(r) => self.array_type(r.array),
            Operand::Const(_) => ScalarType::F64,
        }
    }

    /// The element type of a destination.
    fn dest_type(&self, d: &Dest) -> ScalarType {
        match d {
            Dest::Scalar(v) => self.scalar_type(*v),
            Dest::Array(r) => self.array_type(r.array),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::ids::LoopVarId;

    fn aref(a: u32, coeff: i64, cst: i64) -> ArrayRef {
        ArrayRef::new(
            ArrayId::new(a),
            AccessVector::new(vec![AffineExpr::var(LoopVarId::new(0))
                .scaled(coeff)
                .offset(cst)]),
        )
    }

    #[test]
    fn alias_rules() {
        let a = aref(0, 4, 0);
        let b = aref(0, 4, 3);
        let c = aref(0, 2, 0);
        let d = aref(1, 4, 0);
        assert!(a.must_alias(&a));
        assert!(!a.must_alias(&b) && !a.must_alias(&c) && !a.must_alias(&d));
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Div.apply(7.0, 2.0), 3.5);
        assert_eq!(BinOp::Min.apply(2.0, -3.0), -3.0);
        assert_eq!(BinOp::Max.apply(2.0, -3.0), 2.0);
    }

    #[test]
    fn unop_semantics() {
        assert_eq!(UnOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnOp::Abs.apply(-2.0), 2.0);
        assert_eq!(UnOp::Sqrt.apply(9.0), 3.0);
    }

    #[test]
    fn expr_shape_distinguishes_ops() {
        let x = Operand::Const(1.0);
        let add = Expr::Binary(BinOp::Add, x.clone(), x.clone());
        let mul = Expr::Binary(BinOp::Mul, x.clone(), x.clone());
        assert_ne!(add.shape(), mul.shape());
        assert_eq!(add.shape(), ExprShape::Binary(BinOp::Add));
        assert_eq!(add.arity(), 2);
        assert_eq!(Expr::MulAdd(x.clone(), x.clone(), x.clone()).arity(), 3);
    }

    #[test]
    fn cmpop_semantics() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(!CmpOp::Lt.apply(2.0, 2.0));
        assert!(CmpOp::Le.apply(2.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Eq.apply(0.0, -0.0));
        assert!(CmpOp::Ne.apply(1.0, 2.0));
        // IEEE: ordered comparisons with NaN are false, != is true.
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
            assert!(!op.apply(f64::NAN, 1.0), "{op:?}");
        }
        assert!(CmpOp::Ne.apply(f64::NAN, 1.0));
        for op in CmpOp::all() {
            assert_eq!(op.swap().swap(), op);
            assert_eq!(op.apply(1.0, 2.0), op.swap().apply(2.0, 1.0));
        }
    }

    #[test]
    fn select_shape_and_operands() {
        let x = Operand::Const(1.0);
        let s = Expr::Select(CmpOp::Lt, x.clone(), x.clone(), x.clone(), x.clone());
        assert_eq!(s.arity(), 4);
        assert_eq!(s.operands().len(), 4);
        assert_eq!(s.shape(), ExprShape::Select(CmpOp::Lt));
        assert_ne!(s.shape(), ExprShape::Select(CmpOp::Gt));
        let shown = Expr::Select(
            CmpOp::Ge,
            Operand::Scalar(VarId::new(0)),
            0.0.into(),
            Operand::Scalar(VarId::new(1)),
            2.0.into(),
        );
        assert_eq!(shown.to_string(), "select(v0 >= 0, v1, 2)");
    }

    #[test]
    fn operand_kind_and_conversions() {
        let v: Operand = VarId::new(3).into();
        assert_eq!(v.kind(), OperandKind::Scalar);
        assert_eq!(v.as_scalar(), Some(VarId::new(3)));
        let c: Operand = 2.5.into();
        assert_eq!(c.kind(), OperandKind::Const);
        assert!(!c.is_location());
        let r: Operand = aref(0, 1, 0).into();
        assert_eq!(r.kind(), OperandKind::Array);
        assert!(r.as_array().is_some());
    }

    #[test]
    fn display_statement_pieces() {
        let e = Expr::Binary(
            BinOp::Mul,
            Operand::Scalar(VarId::new(0)),
            Operand::Array(aref(1, 4, 0)),
        );
        assert_eq!(e.to_string(), "v0 * A1[4*i0]");
        let m = Expr::Binary(BinOp::Min, 1.0.into(), 2.0.into());
        assert_eq!(m.to_string(), "min(1, 2)");
    }
}
