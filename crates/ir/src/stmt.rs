//! Statements: the unit the SLP optimizer groups and schedules.

use std::fmt;

use crate::expr::{Dest, Expr, Operand, Operands, TypeEnv};
use crate::ids::StmtId;

/// A single three-address statement `dest = expr`.
///
/// Statements carry a program-wide unique [`StmtId`], stable across passes,
/// so graphs built by the analyses can refer to statements by value.
///
/// # Examples
///
/// ```
/// use slp_ir::{Statement, StmtId, Expr, BinOp, VarId, Operand};
///
/// let s = Statement::new(
///     StmtId::new(0),
///     VarId::new(0).into(),
///     Expr::Binary(BinOp::Add, VarId::new(1).into(), Operand::Const(1.0)),
/// );
/// assert_eq!(s.to_string(), "S0: v0 = v1 + 1");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    id: StmtId,
    dest: Dest,
    expr: Expr,
}

impl Statement {
    /// Creates a statement.
    pub fn new(id: StmtId, dest: Dest, expr: Expr) -> Self {
        Statement { id, dest, expr }
    }

    /// The statement's stable id.
    pub fn id(&self) -> StmtId {
        self.id
    }

    /// The destination written by this statement.
    pub fn dest(&self) -> &Dest {
        &self.dest
    }

    /// The right-hand-side expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Mutable access to the expression (used by layout rewriting).
    pub fn expr_mut(&mut self) -> &mut Expr {
        &mut self.expr
    }

    /// The location written (defined) by this statement, as an operand.
    pub fn def(&self) -> Operand {
        self.dest.as_operand()
    }

    /// The locations read (used) by this statement, in positional order,
    /// excluding constants.
    pub fn uses(&self) -> Operands<'_> {
        self.expr.operands().locations()
    }

    /// Whether `self` and `other` are isomorphic under the §4.1 definition:
    /// same operations in the same order, and operands in corresponding
    /// positions of the same kind and element type (destination included:
    /// both sides of a superword statement are vectorized together).
    pub fn isomorphic<E: TypeEnv>(&self, other: &Statement, env: &E) -> bool {
        if self.expr.shape() != other.expr.shape() {
            return false;
        }
        if self.dest.kind() != other.dest.kind()
            || env.dest_type(&self.dest) != env.dest_type(&other.dest)
        {
            return false;
        }
        let a = self.expr.operands();
        let b = other.expr.operands();
        debug_assert_eq!(a.len(), b.len());
        a.into_iter()
            .zip(b)
            .all(|(x, y)| x.kind() == y.kind() && env.operand_type(x) == env.operand_type(y))
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} = {}", self.id, self.dest, self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{AccessVector, AffineExpr};
    use crate::expr::{ArrayRef, BinOp};
    use crate::ids::{ArrayId, LoopVarId, VarId};
    use crate::types::ScalarType;

    struct UniformEnv;
    impl TypeEnv for UniformEnv {
        fn scalar_type(&self, _: VarId) -> ScalarType {
            ScalarType::F64
        }
        fn array_type(&self, _: ArrayId) -> ScalarType {
            ScalarType::F64
        }
    }

    struct MixedEnv;
    impl TypeEnv for MixedEnv {
        fn scalar_type(&self, v: VarId) -> ScalarType {
            if v.index() < 2 {
                ScalarType::F32
            } else {
                ScalarType::F64
            }
        }
        fn array_type(&self, _: ArrayId) -> ScalarType {
            ScalarType::F64
        }
    }

    fn aref(cst: i64) -> ArrayRef {
        ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(LoopVarId::new(0)).offset(cst)]),
        )
    }

    fn stmt(id: u32, dst: u32, a: u32, b: u32, op: BinOp) -> Statement {
        Statement::new(
            StmtId::new(id),
            VarId::new(dst).into(),
            Expr::Binary(op, VarId::new(a).into(), VarId::new(b).into()),
        )
    }

    #[test]
    fn def_and_uses() {
        let s = Statement::new(
            StmtId::new(0),
            aref(0).into(),
            Expr::Binary(BinOp::Add, VarId::new(1).into(), Operand::Const(1.0)),
        );
        assert_eq!(s.def(), Operand::Array(aref(0)));
        // Constants are not uses.
        assert_eq!(s.uses()[..], [&Operand::Scalar(VarId::new(1))]);
    }

    #[test]
    fn isomorphism_same_shape_same_kinds() {
        let s1 = stmt(0, 0, 2, 3, BinOp::Mul);
        let s2 = stmt(1, 1, 4, 5, BinOp::Mul);
        assert!(s1.isomorphic(&s2, &UniformEnv));
    }

    #[test]
    fn isomorphism_rejects_different_ops() {
        let s1 = stmt(0, 0, 2, 3, BinOp::Mul);
        let s2 = stmt(1, 1, 4, 5, BinOp::Add);
        assert!(!s1.isomorphic(&s2, &UniformEnv));
    }

    #[test]
    fn isomorphism_rejects_kind_mismatch() {
        let s1 = stmt(0, 0, 2, 3, BinOp::Mul);
        let s2 = Statement::new(
            StmtId::new(1),
            VarId::new(1).into(),
            Expr::Binary(BinOp::Mul, aref(0).into(), VarId::new(5).into()),
        );
        assert!(!s1.isomorphic(&s2, &UniformEnv));
    }

    #[test]
    fn isomorphism_rejects_type_mismatch() {
        // v0/v1 are f32 in MixedEnv, v2+ are f64: destination types differ.
        let s1 = stmt(0, 0, 2, 3, BinOp::Mul);
        let s2 = stmt(1, 4, 2, 3, BinOp::Mul);
        assert!(!s1.isomorphic(&s2, &MixedEnv));
        assert!(s1.isomorphic(&s2, &UniformEnv));
    }

    #[test]
    fn isomorphism_is_symmetric() {
        let s1 = stmt(0, 0, 2, 3, BinOp::Mul);
        let s2 = stmt(1, 1, 4, 5, BinOp::Mul);
        assert_eq!(
            s1.isomorphic(&s2, &UniformEnv),
            s2.isomorphic(&s1, &UniformEnv)
        );
    }
}
