//! Abstract syntax tree of the kernel mini-language.
//!
//! Integer constant expressions (`const` declarations, array extents, loop
//! bounds) are folded during parsing, so the AST stores plain `i64` where
//! the source may have written `2*N+8`.

use slp_ir::{BinOp, CmpOp, ScalarType, UnOp};

/// A parsed kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAst {
    /// Kernel name.
    pub name: String,
    /// Array declarations: name, element type, dimension extents.
    pub arrays: Vec<(String, ScalarType, Vec<i64>)>,
    /// Scalar declarations: name, element type.
    pub scalars: Vec<(String, ScalarType)>,
    /// Top-level items in source order.
    pub items: Vec<AstItem>,
}

/// A loop or an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AstItem {
    /// `for var in lower..upper [step k] { body }`
    For {
        /// Induction variable name.
        var: String,
        /// Inclusive lower bound.
        lower: i64,
        /// Exclusive upper bound.
        upper: i64,
        /// Step (1 unless written).
        step: i64,
        /// Body items.
        body: Vec<AstItem>,
    },
    /// `lhs = rhs;`
    Assign {
        /// Assignment target.
        lhs: AstLValue,
        /// Right-hand side.
        rhs: AstRhs,
        /// 1-based source line (for lowering diagnostics).
        line: u32,
    },
    /// `if a cmp b { then } [else { else }]` — removed before lowering
    /// by the if-conversion pass, which flattens
    /// both bodies into predicated `select` assignments.
    If {
        /// Branch condition.
        cond: AstCond,
        /// Items executed when the condition holds.
        then_body: Vec<AstItem>,
        /// Items executed otherwise (empty without `else`).
        else_body: Vec<AstItem>,
        /// 1-based source line (for lowering diagnostics).
        line: u32,
    },
}

/// A branch / select condition `a cmp b`.
#[derive(Debug, Clone, PartialEq)]
pub struct AstCond {
    /// The comparison operator.
    pub op: CmpOp,
    /// Left operand.
    pub a: AstTerm,
    /// Right operand.
    pub b: AstTerm,
}

/// A named location: scalar `x` or array element `A[2*i+1][j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AstLValue {
    /// Variable or array name.
    pub name: String,
    /// Subscripts; `None` for scalars.
    pub indices: Option<Vec<AstAffine>>,
}

/// An affine subscript `c0 + Σ ci * name_i`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AstAffine {
    /// `(coefficient, loop-variable name)` pairs.
    pub terms: Vec<(i64, String)>,
    /// Constant term.
    pub constant: i64,
}

/// An expression operand: a location or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum AstTerm {
    /// A scalar variable or array element.
    Loc(AstLValue),
    /// A numeric literal.
    Num(f64),
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum AstRhs {
    /// `lhs = t`
    Copy(AstTerm),
    /// `lhs = op(t)` for `neg` / `abs` / `sqrt`
    Unary(UnOp, AstTerm),
    /// `lhs = a op b`, including `min(a, b)` / `max(a, b)` call syntax
    Binary(BinOp, AstTerm, AstTerm),
    /// `lhs = a + b * c`
    MulAdd(AstTerm, AstTerm, AstTerm),
    /// `lhs = select(a cmp b, t, f)`
    Select(AstCond, AstTerm, AstTerm),
}
