//! Lowering from AST to the `slp-ir` program representation.

use std::collections::HashMap;

use slp_ir::{
    AccessVector, AffineExpr, ArrayId, ArrayRef, Dest, Expr, Item, Loop, LoopHeader, LoopVarId,
    Operand, Program, VarId,
};

use crate::ast::{AstAffine, AstItem, AstLValue, AstRhs, AstTerm, KernelAst};
use crate::error::{ParseError, Result};

/// Lowers a parsed kernel to an IR [`Program`].
///
/// Branchy kernels are if-converted first (`if_convert`): by the time items
/// reach the lowerer every `if` has been flattened into predicated
/// `select` assignments, so the IR stays straight-line.
///
/// # Errors
///
/// Returns a [`ParseError`] for undeclared names, subscripted scalars,
/// unsubscripted arrays, wrong subscript rank and subscripts that use
/// names that are not in-scope loop variables.
///
/// # Examples
///
/// ```
/// let src = "kernel k { array A: f64[8]; scalar x: f64; for i in 0..8 { x = A[i]; } }";
/// let program = slp_lang::lower(&slp_lang::parse(src).unwrap()).unwrap();
/// assert_eq!(program.stmt_count(), 1);
/// assert_eq!(program.arrays()[0].dims, vec![8]);
/// ```
pub fn lower(ast: &KernelAst) -> Result<Program> {
    if crate::if_convert::has_branches(ast) {
        let mut flat = ast.clone();
        crate::if_convert::if_convert(&mut flat);
        return lower_flat(&flat);
    }
    lower_flat(ast)
}

fn lower_flat(ast: &KernelAst) -> Result<Program> {
    let mut p = Program::new(ast.name.clone());
    let mut arrays: HashMap<&str, ArrayId> = HashMap::new();
    let mut scalars: HashMap<&str, VarId> = HashMap::new();
    for (name, ty, dims) in &ast.arrays {
        if arrays.contains_key(name.as_str()) || scalars.contains_key(name.as_str()) {
            return Err(dup(name));
        }
        arrays.insert(name, p.add_array(name.clone(), *ty, dims.clone(), true));
    }
    for (name, ty) in &ast.scalars {
        if arrays.contains_key(name.as_str()) || scalars.contains_key(name.as_str()) {
            return Err(dup(name));
        }
        scalars.insert(name, p.add_scalar(name.clone(), *ty));
    }
    let mut cx = Lowerer {
        arrays,
        scalars,
        loop_stack: Vec::new(),
        program: &mut p,
    };
    let items = cx.items(&ast.items)?;
    for item in items {
        p.push_item(item);
    }
    Ok(p)
}

/// Parses and lowers in one step: the usual entry point.
///
/// # Errors
///
/// Propagates lexing, parsing and lowering errors.
///
/// # Examples
///
/// ```
/// let p = slp_lang::compile("kernel k { scalar a: f64; a = 2.0; }").unwrap();
/// assert_eq!(p.name(), "k");
/// ```
pub fn compile(src: &str) -> Result<Program> {
    lower(&crate::parser::parse(src)?)
}

fn dup(name: &str) -> ParseError {
    ParseError::new(format!("duplicate declaration of '{name}'"), 0, 0)
}

struct Lowerer<'a> {
    arrays: HashMap<&'a str, ArrayId>,
    scalars: HashMap<&'a str, VarId>,
    loop_stack: Vec<(&'a str, LoopVarId)>,
    program: &'a mut Program,
}

impl<'a> Lowerer<'a> {
    fn items(&mut self, items: &'a [AstItem]) -> Result<Vec<Item>> {
        items.iter().map(|it| self.item(it)).collect()
    }

    fn item(&mut self, item: &'a AstItem) -> Result<Item> {
        match item {
            AstItem::For {
                var,
                lower,
                upper,
                step,
                body,
            } => {
                let id = self.program.add_loop_var(var.clone());
                self.loop_stack.push((var, id));
                let body = self.items(body)?;
                self.loop_stack.pop();
                Ok(Item::Loop(Loop {
                    header: LoopHeader {
                        var: id,
                        lower: *lower,
                        upper: *upper,
                        step: *step,
                    },
                    body,
                }))
            }
            AstItem::Assign { lhs, rhs, line } => {
                let dest = self.dest(lhs, *line)?;
                let expr = self.rhs(rhs, *line)?;
                Ok(Item::Stmt(self.program.make_stmt(dest, expr)))
            }
            AstItem::If { line, .. } => Err(ParseError::new(
                "internal error: 'if' reached lowering without if-conversion",
                *line,
                0,
            )),
        }
    }

    fn lookup_loop_var(&self, name: &str, line: u32) -> Result<LoopVarId> {
        self.loop_stack
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, id)| id)
            .ok_or_else(|| {
                ParseError::new(
                    format!("'{name}' is not an in-scope loop variable"),
                    line,
                    0,
                )
            })
    }

    fn affine(&self, a: &AstAffine, line: u32) -> Result<AffineExpr> {
        let mut terms = Vec::with_capacity(a.terms.len());
        for (coeff, name) in &a.terms {
            terms.push((self.lookup_loop_var(name, line)?, *coeff));
        }
        Ok(AffineExpr::from_terms(terms, a.constant))
    }

    fn array_ref(&self, name: &str, indices: &[AstAffine], line: u32) -> Result<ArrayRef> {
        let id = *self
            .arrays
            .get(name)
            .ok_or_else(|| ParseError::new(format!("'{name}' is not a declared array"), line, 0))?;
        let rank = self.program.array(id).dims.len();
        if indices.len() != rank {
            return Err(ParseError::new(
                format!(
                    "array '{name}' has rank {rank} but was subscripted with {} indices",
                    indices.len()
                ),
                line,
                0,
            ));
        }
        let dims = indices
            .iter()
            .map(|a| self.affine(a, line))
            .collect::<Result<Vec<_>>>()?;
        Ok(ArrayRef::new(id, AccessVector::new(dims)))
    }

    fn dest(&self, lhs: &AstLValue, line: u32) -> Result<Dest> {
        match &lhs.indices {
            Some(idx) => Ok(self.array_ref(&lhs.name, idx, line)?.into()),
            None => {
                if self.arrays.contains_key(lhs.name.as_str()) {
                    return Err(ParseError::new(
                        format!("array '{}' must be subscripted", lhs.name),
                        line,
                        0,
                    ));
                }
                let v = self.scalars.get(lhs.name.as_str()).ok_or_else(|| {
                    ParseError::new(format!("'{}' is not a declared scalar", lhs.name), line, 0)
                })?;
                Ok((*v).into())
            }
        }
    }

    fn operand(&self, t: &AstTerm, line: u32) -> Result<Operand> {
        match t {
            AstTerm::Num(v) => Ok(Operand::Const(*v)),
            AstTerm::Loc(l) => match &l.indices {
                Some(idx) => Ok(self.array_ref(&l.name, idx, line)?.into()),
                None => {
                    if self.arrays.contains_key(l.name.as_str()) {
                        return Err(ParseError::new(
                            format!("array '{}' must be subscripted", l.name),
                            line,
                            0,
                        ));
                    }
                    let v = self.scalars.get(l.name.as_str()).ok_or_else(|| {
                        ParseError::new(format!("'{}' is not declared", l.name), line, 0)
                    })?;
                    Ok((*v).into())
                }
            },
        }
    }

    fn rhs(&self, rhs: &AstRhs, line: u32) -> Result<Expr> {
        Ok(match rhs {
            AstRhs::Copy(t) => Expr::Copy(self.operand(t, line)?),
            AstRhs::Unary(op, t) => Expr::Unary(*op, self.operand(t, line)?),
            AstRhs::Binary(op, a, b) => {
                Expr::Binary(*op, self.operand(a, line)?, self.operand(b, line)?)
            }
            AstRhs::MulAdd(a, b, c) => Expr::MulAdd(
                self.operand(a, line)?,
                self.operand(b, line)?,
                self.operand(c, line)?,
            ),
            AstRhs::Select(cond, t, f) => Expr::Select(
                cond.op,
                self.operand(&cond.a, line)?,
                self.operand(&cond.b, line)?,
                self.operand(t, line)?,
                self.operand(f, line)?,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::TypeEnv;

    #[test]
    fn lowers_nested_loops() {
        let p = compile(
            "kernel k { array A: f64[4][8]; scalar x: f64;
             for i in 0..4 { for j in 0..8 { x = A[i][j]; A[i][j] = x * 2.0; } } }",
        )
        .unwrap();
        let blocks = p.blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].loops.len(), 2);
        assert_eq!(blocks[0].block.len(), 2);
    }

    #[test]
    fn scalar_types_resolved() {
        let p = compile("kernel k { scalar a: f32; scalar b: f64; a = 1.0; b = 2.0; }").unwrap();
        assert_eq!(p.scalar_type(VarId::new(0)), slp_ir::ScalarType::F32);
        assert_eq!(p.scalar_type(VarId::new(1)), slp_ir::ScalarType::F64);
    }

    #[test]
    fn rejects_undeclared_names() {
        let e = compile("kernel k { scalar a: f64; a = zz; }").unwrap_err();
        assert!(e.message().contains("not declared"));
    }

    #[test]
    fn rejects_rank_mismatch() {
        let e =
            compile("kernel k { array A: f64[4][4]; scalar a: f64; for i in 0..4 { a = A[i]; } }")
                .unwrap_err();
        assert!(e.message().contains("rank"));
    }

    #[test]
    fn rejects_unsubscripted_array() {
        let e = compile("kernel k { array A: f64[4]; scalar a: f64; a = A; }").unwrap_err();
        assert!(e.message().contains("must be subscripted"));
    }

    #[test]
    fn rejects_subscript_outside_loop() {
        let e = compile("kernel k { array A: f64[4]; scalar a: f64; a = A[i]; }").unwrap_err();
        assert!(e.message().contains("loop variable"));
    }

    #[test]
    fn rejects_duplicate_declarations() {
        let e = compile("kernel k { scalar a: f64; array a: f64[2]; }").unwrap_err();
        assert!(e.message().contains("duplicate"));
    }

    #[test]
    fn shadowed_loop_vars_resolve_innermost() {
        let p = compile(
            "kernel k { array A: f64[8]; scalar x: f64;
             for i in 0..2 { for i in 0..4 { x = A[2*i]; } } }",
        )
        .unwrap();
        let blocks = p.blocks();
        let inner = blocks[0].loops[1];
        let s = &blocks[0].block.stmts()[0];
        let r = s.uses()[0].as_array().unwrap();
        assert_eq!(r.access.dim(0).coeff(inner.var), 2);
        assert_eq!(r.access.dim(0).coeff(blocks[0].loops[0].var), 0);
    }

    #[test]
    fn select_lowers_to_ir_select() {
        let p = compile(
            "kernel k { array A: f64[8]; for i in 0..8 {
                 A[i] = select(A[i] < 0.0, 0.0, A[i]);
             } }",
        )
        .unwrap();
        let b = &p.blocks()[0];
        assert_eq!(b.block.len(), 1);
        let s = &b.block.stmts()[0];
        assert!(matches!(s.expr(), Expr::Select(slp_ir::CmpOp::Lt, ..)));
        assert_eq!(s.expr().operands().len(), 4);
    }

    #[test]
    fn branchy_kernel_compiles_to_straight_line_selects() {
        // clamp-to-[0,1] via if/else; must lower to one basic block of
        // selects after if-conversion.
        let p = compile(
            "kernel clamp { array A: f64[8]; for i in 0..8 {
                 if A[i] < 0.0 {
                     A[i] = 0.0;
                 } else if A[i] > 1.0 {
                     A[i] = 1.0;
                 }
             } }",
        )
        .unwrap();
        let blocks = p.blocks();
        assert_eq!(blocks.len(), 1, "if-conversion keeps a single block");
        let selects = blocks[0]
            .block
            .stmts()
            .iter()
            .filter(|s| matches!(s.expr(), Expr::Select(..)))
            .count();
        assert!(selects >= 2, "both branches become selects: {p}");
        // The flattened program must round-trip through the emitter.
        let src = p.to_source();
        let again = compile(&src).unwrap();
        assert_eq!(again.stmt_count(), p.stmt_count());
    }

    #[test]
    fn branchy_errors_keep_source_lines() {
        let e = compile("kernel k { scalar x: f64;\nif x < 0.0 {\n  x = zz;\n} }").unwrap_err();
        assert!(e.message().contains("not declared"), "{e}");
        assert_eq!(e.line(), 3, "diagnostics survive if-conversion");
    }

    #[test]
    fn round_trips_paper_figure15_input() {
        // Figure 15 (a): the running example of the paper.
        let p = compile(
            r#"kernel fig15 {
                const N = 16;
                array A: f64[4*N];
                array B: f64[8*N];
                scalar a, b, c, d, g, h, q, r: f64;
                for i in 0..N {
                    a = A[i];
                    b = A[i+1];
                    c = a * B[4*i];
                    d = b * B[4*i+4];
                    g = q * B[4*i-2];
                    h = r * B[4*i+2];
                    A[2*i] = d + a * c;
                    A[2*i+2] = g + r * h;
                }
            }"#,
        )
        .unwrap();
        assert_eq!(p.stmt_count(), 8);
        let b = &p.blocks()[0];
        assert_eq!(b.block.len(), 8);
    }
}
