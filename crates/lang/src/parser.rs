//! Recursive-descent parser for the kernel mini-language.
//!
//! ```text
//! kernel  ::= 'kernel' (ident | string) '{' decl* item* '}'
//! decl    ::= 'const' ident '=' intexpr ';'
//!           | 'array' ident ':' type ('[' intexpr ']')+ ';'
//!           | 'scalar' ident (',' ident)* ':' type ';'
//! item    ::= 'for' ident 'in' intexpr '..' intexpr '{' item* '}'
//!           | 'if' cond '{' item* '}' ('else' ('{' item* '}' | if-item))?
//!           | lvalue '=' rhs ';'
//! lvalue  ::= ident ('[' affine ']')*
//! rhs     ::= fn '(' term (',' term)? ')'      fn ∈ {neg, abs, sqrt, min, max}
//!           | 'select' '(' cond ',' term ',' term ')'
//!           | term (('+'|'-'|'*'|'/') term)?   with a + b * c parsed as muladd
//! cond    ::= term ('<'|'<='|'>'|'>='|'=='|'!=') term
//! term    ::= ('-')? number | lvalue
//! affine  ::= ('+'|'-')? aterm (('+'|'-') aterm)*
//! aterm   ::= int ('*' ident)? | ident ('*' int)?
//! intexpr ::= affine over `const` names and integers, folded to a value
//! ```

use std::collections::HashMap;

use slp_ir::{BinOp, CmpOp, UnOp};

use crate::ast::{AstAffine, AstCond, AstItem, AstLValue, AstRhs, AstTerm, KernelAst};
use crate::error::{ParseError, Result};
use crate::lexer::lex;
use crate::token::{Spanned, Token};

/// Parses a kernel source into its AST.
///
/// # Errors
///
/// Returns a [`ParseError`] with position information for lexical errors,
/// syntax errors and undefined `const` names.
///
/// # Examples
///
/// ```
/// let src = r#"
///     kernel demo {
///         const N = 8;
///         array A: f64[2*N];
///         scalar x: f64;
///         for i in 0..N {
///             x = A[2*i] + A[2*i+1];
///             A[2*i] = x * 0.5;
///         }
///     }
/// "#;
/// let ast = slp_lang::parse(src).unwrap();
/// assert_eq!(ast.name, "demo");
/// assert_eq!(ast.arrays[0].2, vec![16]);
/// ```
pub fn parse(src: &str) -> Result<KernelAst> {
    let tokens = lex(src)?;
    Parser {
        tokens,
        pos: 0,
        consts: HashMap::new(),
        depth: 0,
    }
    .kernel()
}

/// Deepest `for` nesting the parser accepts. The recursive-descent
/// parser (and every recursive pass downstream) consumes stack
/// proportional to the nesting depth; unbounded nesting on adversarial
/// input would overflow the stack, which aborts instead of raising a
/// typed error.
pub(crate) const MAX_LOOP_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    consts: HashMap<String, i64>,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Spanned {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let s = self.peek();
        Err(ParseError::new(msg, s.line, s.col))
    }

    fn expect(&mut self, want: &Token) -> Result<Spanned> {
        if &self.peek().token == want {
            Ok(self.bump())
        } else {
            self.err(format!("expected '{want}', found '{}'", self.peek().token))
        }
    }

    fn eat(&mut self, want: &Token) -> bool {
        if &self.peek().token == want {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match &self.peek().token {
            Token::Ident(_) => match self.bump().token {
                Token::Ident(s) => Ok(s),
                other => self.err(format!("expected identifier, found '{other}'")),
            },
            other => self.err(format!("expected identifier, found '{other}'")),
        }
    }

    fn kernel(mut self) -> Result<KernelAst> {
        self.expect(&Token::Kernel)?;
        let name = match &self.peek().token {
            Token::Ident(_) => self.ident()?,
            Token::Str(_) => match self.bump().token {
                Token::Str(s) => s,
                other => return self.err(format!("expected kernel name, found '{other}'")),
            },
            other => return self.err(format!("expected kernel name, found '{other}'")),
        };
        self.expect(&Token::LBrace)?;
        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        loop {
            match &self.peek().token {
                Token::Const => {
                    self.bump();
                    let n = self.ident()?;
                    self.expect(&Token::Eq)?;
                    let v = self.intexpr()?;
                    self.expect(&Token::Semi)?;
                    self.consts.insert(n, v);
                }
                Token::Array => {
                    self.bump();
                    let n = self.ident()?;
                    self.expect(&Token::Colon)?;
                    let ty = self.scalar_type()?;
                    let mut dims = Vec::new();
                    while self.eat(&Token::LBracket) {
                        dims.push(self.intexpr()?);
                        self.expect(&Token::RBracket)?;
                    }
                    if dims.is_empty() {
                        return self.err("array declaration needs at least one dimension");
                    }
                    self.expect(&Token::Semi)?;
                    arrays.push((n, ty, dims));
                }
                Token::Scalar => {
                    self.bump();
                    let mut names = vec![self.ident()?];
                    while self.eat(&Token::Comma) {
                        names.push(self.ident()?);
                    }
                    self.expect(&Token::Colon)?;
                    let ty = self.scalar_type()?;
                    self.expect(&Token::Semi)?;
                    for n in names {
                        scalars.push((n, ty));
                    }
                }
                _ => break,
            }
        }
        let items = self.items_until(&Token::RBrace)?;
        self.expect(&Token::RBrace)?;
        Ok(KernelAst {
            name,
            arrays,
            scalars,
            items,
        })
    }

    fn scalar_type(&mut self) -> Result<slp_ir::ScalarType> {
        match self.peek().token {
            Token::Type(t) => {
                self.bump();
                Ok(t)
            }
            _ => self.err(format!("expected a type, found '{}'", self.peek().token)),
        }
    }

    fn items_until(&mut self, end: &Token) -> Result<Vec<AstItem>> {
        let mut items = Vec::new();
        while &self.peek().token != end {
            if self.peek().token == Token::Eof {
                return self.err(format!("expected '{end}' before end of input"));
            }
            items.push(self.item()?);
        }
        Ok(items)
    }

    fn item(&mut self) -> Result<AstItem> {
        if self.eat(&Token::For) {
            if self.depth >= MAX_LOOP_DEPTH {
                return self.err(format!(
                    "loop nesting exceeds the depth limit of {MAX_LOOP_DEPTH}"
                ));
            }
            self.depth += 1;
            let var = self.ident()?;
            self.expect(&Token::In)?;
            let lower = self.intexpr()?;
            self.expect(&Token::DotDot)?;
            let upper = self.intexpr()?;
            let step = if self.eat(&Token::Step) {
                let s = self.intexpr()?;
                if s <= 0 {
                    return self.err("loop step must be positive");
                }
                s
            } else {
                1
            };
            self.expect(&Token::LBrace)?;
            let body = self.items_until(&Token::RBrace)?;
            self.expect(&Token::RBrace)?;
            self.depth -= 1;
            Ok(AstItem::For {
                var,
                lower,
                upper,
                step,
                body,
            })
        } else if self.peek().token == Token::If {
            let line = self.peek().line;
            self.bump();
            if self.depth >= MAX_LOOP_DEPTH {
                return self.err(format!(
                    "if nesting exceeds the depth limit of {MAX_LOOP_DEPTH}"
                ));
            }
            self.depth += 1;
            let cond = self.cond()?;
            self.expect(&Token::LBrace)?;
            let then_body = self.items_until(&Token::RBrace)?;
            self.expect(&Token::RBrace)?;
            let else_body = if self.eat(&Token::Else) {
                if self.peek().token == Token::If {
                    // `else if …` sugars to an else block holding one if.
                    vec![self.item()?]
                } else {
                    self.expect(&Token::LBrace)?;
                    let body = self.items_until(&Token::RBrace)?;
                    self.expect(&Token::RBrace)?;
                    body
                }
            } else {
                Vec::new()
            };
            self.depth -= 1;
            Ok(AstItem::If {
                cond,
                then_body,
                else_body,
                line,
            })
        } else {
            let line = self.peek().line;
            let lhs = self.lvalue()?;
            self.expect(&Token::Eq)?;
            let rhs = self.rhs()?;
            self.expect(&Token::Semi)?;
            Ok(AstItem::Assign { lhs, rhs, line })
        }
    }

    fn lvalue(&mut self) -> Result<AstLValue> {
        let name = self.ident()?;
        if self.peek().token == Token::LBracket {
            let mut indices = Vec::new();
            while self.eat(&Token::LBracket) {
                indices.push(self.affine()?);
                self.expect(&Token::RBracket)?;
            }
            Ok(AstLValue {
                name,
                indices: Some(indices),
            })
        } else {
            Ok(AstLValue {
                name,
                indices: None,
            })
        }
    }

    /// Parses a comparison `term cmp term`.
    fn cond(&mut self) -> Result<AstCond> {
        let a = self.term()?;
        let op = match self.peek().token {
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            Token::EqEq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            _ => {
                return self.err(format!(
                    "expected a comparison operator, found '{}'",
                    self.peek().token
                ))
            }
        };
        self.bump();
        let b = self.term()?;
        Ok(AstCond { op, a, b })
    }

    fn rhs(&mut self) -> Result<AstRhs> {
        // Call syntax: fn '(' ... ')' for `select` and the operators
        // `slp-ir` spells as identifiers (`neg`, `min`, ...). Each is a
        // keyword only when followed by '('; `min` may be an ordinary
        // variable name otherwise.
        if let Token::Ident(name) = &self.peek().token {
            if self.tokens.get(self.pos + 1).map(|s| &s.token) == Some(&Token::LParen) {
                let (un, bin) = (name.parse::<UnOp>(), name.parse::<BinOp>());
                if name == "select" || un.is_ok() || bin.is_ok() {
                    self.bump(); // fn name
                    self.bump(); // '('
                    let rhs = match (un, bin) {
                        (Ok(op), _) => AstRhs::Unary(op, self.term()?),
                        (_, Ok(op)) => {
                            let a = self.term()?;
                            self.expect(&Token::Comma)?;
                            AstRhs::Binary(op, a, self.term()?)
                        }
                        _ => {
                            let cond = self.cond()?;
                            self.expect(&Token::Comma)?;
                            let t = self.term()?;
                            self.expect(&Token::Comma)?;
                            AstRhs::Select(cond, t, self.term()?)
                        }
                    };
                    self.expect(&Token::RParen)?;
                    return Ok(rhs);
                }
            }
        }
        let a = self.term()?;
        let op = match self.peek().token {
            Token::Plus => Some(BinOp::Add),
            Token::Minus => Some(BinOp::Sub),
            Token::Star => Some(BinOp::Mul),
            Token::Slash => Some(BinOp::Div),
            _ => None,
        };
        let Some(op) = op else {
            return Ok(AstRhs::Copy(a));
        };
        self.bump();
        let b = self.term()?;
        // `a + b * c` is the fused mul-add shape of the paper's examples.
        if op == BinOp::Add && self.eat(&Token::Star) {
            let c = self.term()?;
            return Ok(AstRhs::MulAdd(a, b, c));
        }
        Ok(AstRhs::Binary(op, a, b))
    }

    fn term(&mut self) -> Result<AstTerm> {
        match &self.peek().token {
            Token::Minus => {
                self.bump();
                match self.bump().token {
                    Token::Int(v) => Ok(AstTerm::Num(-(v as f64))),
                    Token::Float(v) => Ok(AstTerm::Num(-v)),
                    other => self.err(format!("expected number after '-', found '{other}'")),
                }
            }
            Token::Int(v) => {
                let v = *v;
                self.bump();
                Ok(AstTerm::Num(v as f64))
            }
            Token::Float(v) => {
                let v = *v;
                self.bump();
                Ok(AstTerm::Num(v))
            }
            Token::Ident(_) => Ok(AstTerm::Loc(self.lvalue()?)),
            other => self.err(format!("expected operand, found '{other}'")),
        }
    }

    /// Parses an affine subscript over loop variables (and `const` names,
    /// which fold into the constant term).
    fn affine(&mut self) -> Result<AstAffine> {
        let mut out = AstAffine::default();
        let mut sign = 1i64;
        if self.eat(&Token::Minus) {
            sign = -1;
        } else {
            self.eat(&Token::Plus);
        }
        loop {
            self.affine_term(sign, &mut out)?;
            if self.eat(&Token::Plus) {
                sign = 1;
            } else if self.eat(&Token::Minus) {
                sign = -1;
            } else {
                return Ok(out);
            }
        }
    }

    fn affine_term(&mut self, sign: i64, out: &mut AstAffine) -> Result<()> {
        match self.bump().token {
            Token::Int(c) => {
                if self.eat(&Token::Star) {
                    let name = self.ident()?;
                    let coeff = self.checked_mul(sign, c)?;
                    self.add_term(out, coeff, name)?;
                } else {
                    let term = self.checked_mul(sign, c)?;
                    out.constant = self.checked_add(out.constant, term)?;
                }
            }
            Token::Ident(name) => {
                if self.eat(&Token::Star) {
                    match self.bump().token {
                        Token::Int(c) => {
                            let coeff = self.checked_mul(sign, c)?;
                            self.add_term(out, coeff, name)?;
                        }
                        other => {
                            return self
                                .err(format!("expected integer coefficient, found '{other}'"))
                        }
                    }
                } else {
                    self.add_term(out, sign, name)?;
                }
            }
            other => return self.err(format!("expected subscript term, found '{other}'")),
        }
        Ok(())
    }

    fn checked_mul(&self, a: i64, b: i64) -> Result<i64> {
        a.checked_mul(b)
            .map_or_else(|| self.err("integer expression overflows i64"), Ok)
    }

    fn checked_add(&self, a: i64, b: i64) -> Result<i64> {
        a.checked_add(b)
            .map_or_else(|| self.err("integer expression overflows i64"), Ok)
    }

    fn add_term(&mut self, out: &mut AstAffine, coeff: i64, name: String) -> Result<()> {
        if let Some(&v) = self.consts.get(&name) {
            let folded = self.checked_mul(coeff, v)?;
            out.constant = self.checked_add(out.constant, folded)?;
        } else if let Some(pos) = out.terms.iter().position(|(_, n)| *n == name) {
            out.terms[pos].0 = self.checked_add(out.terms[pos].0, coeff)?;
        } else {
            out.terms.push((coeff, name));
        }
        Ok(())
    }

    /// Parses and folds an integer constant expression (ints and `const`
    /// names combined with `+`, `-`, `*`).
    fn intexpr(&mut self) -> Result<i64> {
        let a = self.affine()?;
        if let Some((_, name)) = a.terms.first() {
            return self.err(format!("'{name}' is not a declared const"));
        }
        Ok(a.constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_kernel() {
        let src = r#"
            kernel "demo" {
                const N = 4;
                const M = 2*N+1;
                array A: f64[2*N];
                array B: f32[N][M];
                scalar a, b: f64;
                a = 1.5;
                for i in 0..N {
                    b = A[2*i+1] * a;
                    A[2*i] = b + a * b;
                }
            }
        "#;
        let k = parse(src).unwrap();
        assert_eq!(k.name, "demo");
        assert_eq!(k.arrays.len(), 2);
        assert_eq!(k.arrays[0].2, vec![8]);
        assert_eq!(k.arrays[1].2, vec![4, 9]);
        assert_eq!(k.scalars.len(), 2);
        assert_eq!(k.items.len(), 2);
        match &k.items[1] {
            AstItem::For {
                var,
                lower,
                upper,
                step,
                ..
            } => {
                assert_eq!(var, "i");
                assert_eq!((*lower, *upper, *step), (0, 4, 1));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn explicit_step() {
        let k =
            parse("kernel k { array A: f64[64]; for i in 0..32 step 4 { A[i] = 1.0; } }").unwrap();
        assert!(matches!(&k.items[0], AstItem::For { step: 4, .. }));
        assert!(parse("kernel k { for i in 0..4 step 0 { } }").is_err());
    }

    #[test]
    fn muladd_is_recognized() {
        let k = parse("kernel k { scalar a,b,c,d: f64; a = b + c * d; }").unwrap();
        match &k.items[0] {
            AstItem::Assign {
                rhs: AstRhs::MulAdd(_, _, _),
                ..
            } => {}
            other => panic!("expected muladd, got {other:?}"),
        }
    }

    #[test]
    fn call_syntax_ops() {
        let k = parse("kernel k { scalar a,b,c: f64; a = min(b, c); b = sqrt(c); }").unwrap();
        assert!(matches!(
            &k.items[0],
            AstItem::Assign {
                rhs: AstRhs::Binary(BinOp::Min, _, _),
                ..
            }
        ));
        assert!(matches!(
            &k.items[1],
            AstItem::Assign {
                rhs: AstRhs::Unary(UnOp::Sqrt, _),
                ..
            }
        ));
    }

    #[test]
    fn affine_subscripts() {
        let k =
            parse("kernel k { array A: f64[64]; scalar x: f64; for i in 0..4 { x = A[4*i-2]; } }")
                .unwrap();
        let AstItem::For { body, .. } = &k.items[0] else {
            panic!()
        };
        let AstItem::Assign {
            rhs: AstRhs::Copy(AstTerm::Loc(l)),
            ..
        } = &body[0]
        else {
            panic!()
        };
        let idx = &l.indices.as_ref().unwrap()[0];
        assert_eq!(idx.terms, vec![(4, "i".to_string())]);
        assert_eq!(idx.constant, -2);
    }

    #[test]
    fn coefficient_on_either_side() {
        let k =
            parse("kernel k { array A: f64[64]; scalar x: f64; for i in 0..4 { x = A[i*3+1]; } }")
                .unwrap();
        let AstItem::For { body, .. } = &k.items[0] else {
            panic!()
        };
        let AstItem::Assign {
            rhs: AstRhs::Copy(AstTerm::Loc(l)),
            ..
        } = &body[0]
        else {
            panic!()
        };
        let idx = &l.indices.as_ref().unwrap()[0];
        assert_eq!(idx.terms, vec![(3, "i".to_string())]);
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("kernel k { array A f64[4]; }").unwrap_err();
        assert!(e.to_string().contains("expected ':'"), "{e}");
        let e2 = parse("kernel k { scalar a: f64; a = ; }").unwrap_err();
        assert!(e2.message().contains("expected operand"));
    }

    #[test]
    fn undeclared_const_in_bound() {
        let e = parse("kernel k { array A: f64[Q]; }").unwrap_err();
        assert!(e.message().contains("not a declared const"));
    }

    #[test]
    fn negative_literals() {
        let k = parse("kernel k { scalar a: f64; a = -2.5; }").unwrap();
        assert!(matches!(
            &k.items[0],
            AstItem::Assign {
                rhs: AstRhs::Copy(AstTerm::Num(v)),
                ..
            } if *v == -2.5
        ));
    }

    #[test]
    fn const_arithmetic_overflow_is_a_typed_error() {
        // Folding 2*N overflows i64: must be a ParseError, not a panic.
        let e =
            parse("kernel k { const N = 9223372036854775807; array A: f64[2*N]; }").unwrap_err();
        assert!(e.message().contains("overflows"), "{e}");
        // Accumulating constants overflows.
        let e2 = parse("kernel k { array A: f64[9223372036854775807 + 9223372036854775807]; }")
            .unwrap_err();
        assert!(e2.message().contains("overflows"), "{e2}");
        // Merged coefficients overflow: i*MAX + i*MAX.
        let e3 = parse(
            "kernel k { array A: f64[8]; scalar x: f64;
             for i in 0..4 { x = A[9223372036854775807*i + 9223372036854775807*i]; } }",
        )
        .unwrap_err();
        assert!(e3.message().contains("overflows"), "{e3}");
    }

    #[test]
    fn loop_nesting_depth_is_capped() {
        let mut src = String::from("kernel k { scalar x: f64; ");
        for d in 0..(MAX_LOOP_DEPTH + 1) {
            src.push_str(&format!("for v{d} in 0..1 {{ "));
        }
        src.push_str("x = 1.0; ");
        for _ in 0..(MAX_LOOP_DEPTH + 1) {
            src.push('}');
        }
        src.push('}');
        let e = parse(&src).unwrap_err();
        assert!(e.message().contains("depth limit"), "{e}");
        // One level under the cap still parses.
        let mut ok = String::from("kernel k { scalar x: f64; ");
        for d in 0..MAX_LOOP_DEPTH {
            ok.push_str(&format!("for v{d} in 0..1 {{ "));
        }
        ok.push_str("x = 1.0; ");
        for _ in 0..MAX_LOOP_DEPTH {
            ok.push('}');
        }
        ok.push('}');
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn if_else_parses() {
        let k = parse(
            "kernel k { array A: f64[8]; scalar x: f64;
             for i in 0..8 {
                 if A[i] < 0.0 { x = 1.0; } else { x = 2.0; }
             } }",
        )
        .unwrap();
        let AstItem::For { body, .. } = &k.items[0] else {
            panic!()
        };
        let AstItem::If {
            cond,
            then_body,
            else_body,
            ..
        } = &body[0]
        else {
            panic!("expected if, got {:?}", body[0])
        };
        assert_eq!(cond.op, CmpOp::Lt);
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 1);
    }

    #[test]
    fn else_if_chains() {
        let k = parse(
            "kernel k { scalar x, y: f64;
             if x < 0.0 { y = 0.0; } else if x > 1.0 { y = 1.0; } else { y = x; } }",
        )
        .unwrap();
        let AstItem::If { else_body, .. } = &k.items[0] else {
            panic!()
        };
        assert!(matches!(&else_body[0], AstItem::If { .. }));
    }

    #[test]
    fn select_call_parses() {
        let k = parse("kernel k { scalar a,b,c: f64; a = select(b >= 0.0, b, c); }").unwrap();
        match &k.items[0] {
            AstItem::Assign {
                rhs: AstRhs::Select(cond, _, _),
                ..
            } => assert_eq!(cond.op, CmpOp::Ge),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn select_as_variable_name_still_works() {
        let k = parse("kernel k { scalar select, a: f64; a = select; select = a; }").unwrap();
        assert!(matches!(
            &k.items[0],
            AstItem::Assign {
                rhs: AstRhs::Copy(AstTerm::Loc(l)),
                ..
            } if l.name == "select"
        ));
    }

    #[test]
    fn branchy_negative_fixtures() {
        // A condition needs a comparison.
        let e = parse("kernel k { scalar x: f64; if x { x = 1.0; } }").unwrap_err();
        assert!(e.message().contains("comparison"), "{e}");
        // select with a bare term instead of a condition.
        let e = parse("kernel k { scalar x: f64; x = select(x, 1.0, 2.0); }").unwrap_err();
        assert!(e.message().contains("comparison"), "{e}");
        // select is ternary.
        let e = parse("kernel k { scalar x: f64; x = select(x < 0.0, 1.0); }").unwrap_err();
        assert!(e.message().contains("expected ','"), "{e}");
        // else without a preceding if is not an item.
        let e = parse("kernel k { scalar x: f64; else { x = 1.0; } }").unwrap_err();
        assert!(e.message().contains("expected"), "{e}");
        // A missing brace after the condition.
        let e = parse("kernel k { scalar x: f64; if x < 0.0 x = 1.0; }").unwrap_err();
        assert!(e.message().contains("expected '{'"), "{e}");
        // Keyword-prefixed names are ordinary identifiers.
        let k = parse("kernel k { scalar iffy, selector: f64; iffy = selector; }").unwrap();
        assert!(matches!(
            &k.items[0],
            AstItem::Assign {
                rhs: AstRhs::Copy(AstTerm::Loc(l)),
                ..
            } if l.name == "selector"
        ));
        // Comparisons are not expressions outside if/select.
        let e = parse("kernel k { scalar x: f64; x = x < 1.0; }").unwrap_err();
        assert!(e.message().contains("expected ';'"), "{e}");
    }

    #[test]
    fn if_nesting_counts_against_depth_limit() {
        let mut src = String::from("kernel k { scalar x: f64; ");
        for _ in 0..(MAX_LOOP_DEPTH + 1) {
            src.push_str("if x < 1.0 { ");
        }
        src.push_str("x = 1.0; ");
        for _ in 0..(MAX_LOOP_DEPTH + 1) {
            src.push('}');
        }
        src.push('}');
        let e = parse(&src).unwrap_err();
        assert!(e.message().contains("depth limit"), "{e}");
    }

    #[test]
    fn min_as_variable_name_still_works() {
        let k = parse("kernel k { scalar min, a: f64; a = min; }").unwrap();
        assert!(matches!(
            &k.items[0],
            AstItem::Assign {
                rhs: AstRhs::Copy(AstTerm::Loc(l)),
                ..
            } if l.name == "min"
        ));
    }
}
