//! Operands, operators and right-hand-side expressions.
//!
//! Statements in the IR are in three-address style: a destination and an
//! expression of at most one operator, which is the granularity at which
//! the paper's isomorphism test (§4.1 constraint 3: "same operations in the
//! same order") and variable-pack extraction ("variables coming from the
//! same position of different isomorphic statements") operate.

use std::fmt;
use std::str::FromStr;

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
    #[inline]
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

    /// The source spelling, infix (`+`) or a function name (`min`).
    fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reads the spelling [`Display`](fmt::Display) writes.
impl FromStr for BinOp {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        BinOp::all().into_iter().find(|op| op.name() == s).ok_or(())
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
    #[inline]
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

    /// The source spelling, a function name.
    fn name(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reads the spelling [`Display`](fmt::Display) writes.
impl FromStr for UnOp {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        UnOp::all().into_iter().find(|op| op.name() == s).ok_or(())
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
    #[inline]
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

    /// The expression of `shape` over `operands` in positional order, or
    /// `None` when their count differs from the shape's arity.
    pub fn from_shape(shape: ExprShape, operands: Vec<Operand>) -> Option<Expr> {
        let mut operands = operands.into_iter();
        let mut next = || operands.next();
        let e = match shape {
            ExprShape::Copy => Expr::Copy(next()?),
            ExprShape::Unary(op) => Expr::Unary(op, next()?),
            ExprShape::Binary(op) => Expr::Binary(op, next()?, next()?),
            ExprShape::MulAdd => Expr::MulAdd(next()?, next()?, next()?),
            ExprShape::Select(op) => Expr::Select(op, next()?, next()?, next()?, next()?),
        };
        operands.next().is_none().then_some(e)
    }
}

/// Writes `e` in `slp-lang` source syntax, each operand as `show`
/// renders it: the one expression writer behind `Display for Expr`,
/// [`Program::show_stmt`](crate::Program::show_stmt) and
/// [`Program::to_source`](crate::Program::to_source).
pub(crate) fn write_expr<'a, D: fmt::Display>(
    out: &mut impl fmt::Write,
    e: &'a Expr,
    show: impl Fn(&'a Operand) -> D,
) -> fmt::Result {
    match e {
        Expr::Copy(a) => write!(out, "{}", show(a)),
        Expr::Unary(op, a) => write!(out, "{op}({})", show(a)),
        // A spelling that lexes as an identifier (`min`) cannot sit
        // between operands: the grammar reads it as a call.
        Expr::Binary(op, a, b) if op.name().starts_with(char::is_alphabetic) => {
            write!(out, "{op}({}, {})", show(a), show(b))
        }
        Expr::Binary(op, a, b) => write!(out, "{} {op} {}", show(a), show(b)),
        Expr::MulAdd(a, b, c) => write!(out, "{} + {} * {}", show(a), show(b), show(c)),
        Expr::Select(op, a, b, t, e) => {
            let (a, b, t, e) = (show(a), show(b), show(t), show(e));
            write!(out, "select({a} {op} {b}, {t}, {e})")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self, |a| a)
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

/// One row of the operator table [`ExprShape::TABLE`]: what every layer
/// knows about a shape besides its lane semantics ([`ExprShape::apply`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRow {
    /// The shape the row describes.
    pub shape: ExprShape,
    /// The number of operand positions.
    pub arity: usize,
    /// The operator's tag in `slp-driver`'s cache and wire encoding.
    pub tag: &'static str,
    /// The superword operation's mnemonic in `slp-vm` listings.
    pub mnemonic: &'static str,
    /// The §4.3 cost class: the multiplier on the machine's base ALU cost,
    /// scalar and SIMD alike (division and square root are the slow ones).
    pub cost: f64,
}

const fn row(
    shape: ExprShape,
    arity: usize,
    tag: &'static str,
    mnemonic: &'static str,
    cost: f64,
) -> OpRow {
    OpRow {
        shape,
        arity,
        tag,
        mnemonic,
        cost,
    }
}

impl ExprShape {
    /// The operator table: one row per shape, in encoding order (the
    /// codec's schema lists the tags in this order).
    pub const TABLE: &'static [OpRow; 17] = &[
        row(ExprShape::Copy, 1, "copy", "vmov", 0.5),
        row(ExprShape::Unary(UnOp::Neg), 1, "neg", "vneg", 1.0),
        row(ExprShape::Unary(UnOp::Abs), 1, "abs", "vabs", 1.0),
        row(ExprShape::Unary(UnOp::Sqrt), 1, "sqrt", "vsqrt", 12.0),
        row(ExprShape::Binary(BinOp::Add), 2, "add", "vadd", 1.0),
        row(ExprShape::Binary(BinOp::Sub), 2, "sub", "vsub", 1.0),
        row(ExprShape::Binary(BinOp::Mul), 2, "mul", "vmul", 2.0),
        row(ExprShape::Binary(BinOp::Div), 2, "div", "vdiv", 10.0),
        row(ExprShape::Binary(BinOp::Min), 2, "min", "vmin", 1.0),
        row(ExprShape::Binary(BinOp::Max), 2, "max", "vmax", 1.0),
        row(ExprShape::MulAdd, 3, "muladd", "vfma", 2.5),
        // Compare-to-mask plus blend: two cheap ALU ops, listed as one
        // superword op.
        row(ExprShape::Select(CmpOp::Lt), 4, "sel.lt", "vsellt", 2.0),
        row(ExprShape::Select(CmpOp::Le), 4, "sel.le", "vselle", 2.0),
        row(ExprShape::Select(CmpOp::Gt), 4, "sel.gt", "vselgt", 2.0),
        row(ExprShape::Select(CmpOp::Ge), 4, "sel.ge", "vselge", 2.0),
        row(ExprShape::Select(CmpOp::Eq), 4, "sel.eq", "vseleq", 2.0),
        row(ExprShape::Select(CmpOp::Ne), 4, "sel.ne", "vselne", 2.0),
    ];

    /// The shape's row of [`ExprShape::TABLE`], found by index (the
    /// operator enums' declaration order is the table's).
    #[inline]
    pub fn row(self) -> &'static OpRow {
        &Self::TABLE[match self {
            ExprShape::Copy => 0,
            ExprShape::Unary(op) => 1 + op as usize,
            ExprShape::Binary(op) => 4 + op as usize,
            ExprShape::MulAdd => 10,
            ExprShape::Select(op) => 11 + op as usize,
        }]
    }

    /// Applies the operator to its positional operand values: the lane
    /// semantics of the reference engine and of constant folding, built
    /// from the per-lane functions the bytecode engine's lane loops call.
    #[inline]
    pub fn apply(self, vals: &[f64]) -> f64 {
        match self {
            ExprShape::Copy => vals[0],
            ExprShape::Unary(op) => op.apply(vals[0]),
            ExprShape::Binary(op) => op.apply(vals[0], vals[1]),
            ExprShape::MulAdd => mul_add(vals[0], vals[1], vals[2]),
            ExprShape::Select(op) => {
                if op.apply(vals[0], vals[1]) {
                    vals[2]
                } else {
                    vals[3]
                }
            }
        }
    }
}

/// The lane of [`Expr::MulAdd`], `a + b * c`, rounded after the multiply
/// and again after the add: not the fused [`f64::mul_add`].
#[inline]
pub fn mul_add(a: f64, b: f64, c: f64) -> f64 {
    a + b * c
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
        assert_eq!(add.shape().row().arity, 2);
        assert_eq!(
            Expr::MulAdd(x.clone(), x.clone(), x.clone())
                .shape()
                .row()
                .arity,
            3
        );
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
        assert_eq!(s.shape().row().arity, 4);
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

    /// The operator table, spelled as the codec's tags, the VM listing's
    /// mnemonics, the bytecode engine's operand counts and the cost
    /// model's factors were spelled before they read them from here.
    #[test]
    fn operator_table_golden() {
        use std::collections::HashSet;
        let want: [(ExprShape, &str, &str, usize, f64); 17] = [
            (ExprShape::Copy, "copy", "vmov", 1, 0.5),
            (ExprShape::Unary(UnOp::Neg), "neg", "vneg", 1, 1.0),
            (ExprShape::Unary(UnOp::Abs), "abs", "vabs", 1, 1.0),
            (ExprShape::Unary(UnOp::Sqrt), "sqrt", "vsqrt", 1, 12.0),
            (ExprShape::Binary(BinOp::Add), "add", "vadd", 2, 1.0),
            (ExprShape::Binary(BinOp::Sub), "sub", "vsub", 2, 1.0),
            (ExprShape::Binary(BinOp::Mul), "mul", "vmul", 2, 2.0),
            (ExprShape::Binary(BinOp::Div), "div", "vdiv", 2, 10.0),
            (ExprShape::Binary(BinOp::Min), "min", "vmin", 2, 1.0),
            (ExprShape::Binary(BinOp::Max), "max", "vmax", 2, 1.0),
            (ExprShape::MulAdd, "muladd", "vfma", 3, 2.5),
            (ExprShape::Select(CmpOp::Lt), "sel.lt", "vsellt", 4, 2.0),
            (ExprShape::Select(CmpOp::Le), "sel.le", "vselle", 4, 2.0),
            (ExprShape::Select(CmpOp::Gt), "sel.gt", "vselgt", 4, 2.0),
            (ExprShape::Select(CmpOp::Ge), "sel.ge", "vselge", 4, 2.0),
            (ExprShape::Select(CmpOp::Eq), "sel.eq", "vseleq", 4, 2.0),
            (ExprShape::Select(CmpOp::Ne), "sel.ne", "vselne", 4, 2.0),
        ];
        for (row, (shape, tag, mnemonic, arity, cost)) in ExprShape::TABLE.iter().zip(want) {
            let expected = OpRow {
                shape,
                arity,
                tag,
                mnemonic,
                cost,
            };
            assert_eq!(*row, expected);
            assert_eq!(shape.row(), row, "{shape:?} indexes its own row");
        }
        let tags: HashSet<_> = ExprShape::TABLE.iter().map(|r| r.tag).collect();
        let mnemonics: HashSet<_> = ExprShape::TABLE.iter().map(|r| r.mnemonic).collect();
        assert_eq!(tags.len(), 17, "tags are unique");
        assert_eq!(mnemonics.len(), 17, "mnemonics are unique");
    }

    #[test]
    fn from_shape_takes_exactly_the_arity() {
        for row in ExprShape::TABLE {
            for n in 0..=5 {
                let operands: Vec<Operand> = (0..n).map(|k| Operand::Const(k as f64)).collect();
                match Expr::from_shape(row.shape, operands.clone()) {
                    Some(e) => {
                        assert_eq!(n, row.arity, "{} built from {n} operands", row.tag);
                        assert_eq!(e.shape(), row.shape);
                        assert!(e.operands().iter().copied().eq(&operands));
                    }
                    None => assert_ne!(n, row.arity, "{} rejected its arity", row.tag),
                }
            }
        }
    }

    /// `apply` against plain `f64` expressions on NaN, signed zeros and
    /// infinities, in every operand position.
    #[test]
    fn apply_matches_plain_f64_on_special_values() {
        use std::hint::black_box;
        fn plain(shape: ExprShape, v: [f64; 4]) -> f64 {
            let [a, b, c, d] = v;
            match shape {
                ExprShape::Copy => a,
                ExprShape::Unary(UnOp::Neg) => -a,
                ExprShape::Unary(UnOp::Abs) => a.abs(),
                ExprShape::Unary(UnOp::Sqrt) => a.sqrt(),
                ExprShape::Binary(BinOp::Add) => a + b,
                ExprShape::Binary(BinOp::Sub) => a - b,
                ExprShape::Binary(BinOp::Mul) => a * b,
                ExprShape::Binary(BinOp::Div) => a / b,
                ExprShape::Binary(BinOp::Min) => a.min(b),
                ExprShape::Binary(BinOp::Max) => a.max(b),
                ExprShape::MulAdd => a + b * c,
                ExprShape::Select(CmpOp::Lt) => {
                    if a < b {
                        c
                    } else {
                        d
                    }
                }
                ExprShape::Select(CmpOp::Le) => {
                    if a <= b {
                        c
                    } else {
                        d
                    }
                }
                ExprShape::Select(CmpOp::Gt) => {
                    if a > b {
                        c
                    } else {
                        d
                    }
                }
                ExprShape::Select(CmpOp::Ge) => {
                    if a >= b {
                        c
                    } else {
                        d
                    }
                }
                ExprShape::Select(CmpOp::Eq) => {
                    if a == b {
                        c
                    } else {
                        d
                    }
                }
                ExprShape::Select(CmpOp::Ne) => {
                    if a != b {
                        c
                    } else {
                        d
                    }
                }
            }
        }
        let special = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 2.0];
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for row in ExprShape::TABLE {
            for &a in &special {
                for &b in &special {
                    for &c in &special {
                        let v = black_box([a, b, c, -3.0]);
                        let (got, want) = (row.shape.apply(&v[..row.arity]), plain(row.shape, v));
                        assert!(same(got, want), "{} {v:?}: {got} vs {want}", row.tag);
                    }
                }
            }
        }
        // The multiply-add rounds twice: (1+ε)(1−ε) rounds to 1 first, so
        // the sum is 0 where the fused form keeps −ε².
        let e = f64::EPSILON;
        assert_eq!(mul_add(-1.0, 1.0 + e, 1.0 - e), 0.0);
        assert_eq!((1.0 + e).mul_add(1.0 - e, -1.0), -e * e);
    }

    /// One single-statement kernel per shape survives `to_source` and the
    /// parser: the writer spells every operator the grammar accepts.
    #[test]
    fn every_shape_round_trips_through_source() {
        use crate::affine::AffineExpr;
        use crate::program::Program;
        use crate::types::ScalarType;
        for row in ExprShape::TABLE {
            let mut p = Program::new("op");
            let a = p.add_array("A", ScalarType::F64, vec![4], true);
            let x = p.add_scalar("x", ScalarType::F64);
            let at = |k| ArrayRef::new(a, AccessVector::new(vec![AffineExpr::constant_expr(k)]));
            let pool: [Operand; 4] = [x.into(), at(1).into(), 2.5.into(), at(2).into()];
            let e = Expr::from_shape(row.shape, pool[..row.arity].to_vec()).unwrap();
            p.push_stmt(at(0).into(), e);
            let src = p.to_source();
            let q = slp_lang::compile(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", row.tag));
            assert_eq!(q.to_source(), src, "{}", row.tag);
            let mut tags = Vec::new();
            q.for_each_stmt(|s| tags.push(s.expr().shape().row().tag));
            assert_eq!(tags, [row.tag], "{src}");
        }
    }
}
