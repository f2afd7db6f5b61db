//! If-conversion: flattening branchy bodies into predicated
//! straight-line code.
//!
//! The SLP pipeline packs statements inside straight-line basic blocks,
//! so a branch in a loop body would end vectorization at the branch.
//! This pass rewrites every [`AstItem::If`] into unconditional
//! assignments guarded by `select`:
//!
//! ```text
//! if c { x = e; }        =>   t = e;                  (t fresh)
//!                             x = select(c, t, x);
//! if c { } else { x = e; } => t = e;
//!                             x = select(c, x, t);
//! ```
//!
//! A right-hand side that is a single term needs no temporary and merges
//! directly: `x = select(c, e, x)`. Both arms of an `if`/`else` are
//! flattened against the *same* condition, so the merged block stays a
//! single basic block the packer can treat exactly like hand-written
//! selects.
//!
//! Soundness notes:
//!
//! * The mini-language has no traps — division by zero and the square
//!   root of a negative produce IEEE non-finite values — so hoisting a
//!   guarded computation to unconditional execution never changes the
//!   observable result of the statements that *are* selected.
//! * Each guarded assignment merges immediately (`x = select(c, t, x)`),
//!   so later statements in the same branch read the merged value, which
//!   under the branch condition equals the branch value. Off-branch, the
//!   select writes back the old value and the statement is a no-op.
//! * If a branch body writes a location the condition reads, re-evaluating
//!   the condition at later guarded statements would see the new value;
//!   the pass hoists such condition operands into fresh temporaries
//!   evaluated once, before the first guarded statement.

use std::collections::HashSet;

use slp_ir::ScalarType;

use crate::ast::{AstCond, AstItem, AstLValue, AstRhs, AstTerm, KernelAst};

/// Rewrites every `if`/`else` in `ast` into straight-line predicated
/// assignments. Programs without branches are returned unchanged
/// (cheaply: the item tree is only rebuilt along branchy paths).
///
/// Fresh temporaries are declared as scalars typed like the assignment
/// target they guard; locations the pass cannot type (undeclared names
/// surface as lowering errors later) default to `f64`.
pub(crate) fn if_convert(ast: &mut KernelAst) {
    if !items_have_if(&ast.items) {
        return;
    }
    let mut cx = Converter {
        taken: ast
            .arrays
            .iter()
            .map(|(n, _, _)| n.clone())
            .chain(ast.scalars.iter().map(|(n, _)| n.clone()))
            .collect(),
        fresh: Vec::new(),
        next: 0,
        ast,
    };
    let items = std::mem::take(&mut cx.ast.items);
    let converted = cx.convert_items(items);
    cx.ast.items = converted;
    let fresh = std::mem::take(&mut cx.fresh);
    ast.scalars.extend(fresh);
}

/// Whether `ast` contains any `if` item (and hence needs conversion).
pub(crate) fn has_branches(ast: &KernelAst) -> bool {
    items_have_if(&ast.items)
}

fn items_have_if(items: &[AstItem]) -> bool {
    items.iter().any(|it| match it {
        AstItem::If { .. } => true,
        AstItem::For { body, .. } => items_have_if(body),
        AstItem::Assign { .. } => false,
    })
}

struct Converter<'a> {
    ast: &'a mut KernelAst,
    /// Every name already in use (declarations plus generated temps).
    taken: HashSet<String>,
    /// Temporaries minted so far, appended to the scalar declarations.
    fresh: Vec<(String, ScalarType)>,
    next: usize,
}

impl Converter<'_> {
    fn convert_items(&mut self, items: Vec<AstItem>) -> Vec<AstItem> {
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            match item {
                AstItem::Assign { .. } => out.push(item),
                AstItem::For {
                    var,
                    lower,
                    upper,
                    step,
                    body,
                } => {
                    let body = self.convert_items(body);
                    out.push(AstItem::For {
                        var,
                        lower,
                        upper,
                        step,
                        body,
                    });
                }
                AstItem::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                } => {
                    // Inner branches first: afterwards both bodies are
                    // plain assignment lists.
                    let then_body = self.convert_items(then_body);
                    let else_body = self.convert_items(else_body);
                    self.flatten(cond, then_body, else_body, line, &mut out);
                }
            }
        }
        out
    }

    /// Emits the predicated form of one (already flattened) `if`.
    fn flatten(
        &mut self,
        cond: AstCond,
        then_body: Vec<AstItem>,
        else_body: Vec<AstItem>,
        line: u32,
        out: &mut Vec<AstItem>,
    ) {
        // Hoist condition operands the bodies may overwrite, so every
        // guard evaluates the condition as of branch entry.
        let cond = self.stabilize_cond(cond, &then_body, &else_body, line, out);
        for (body, is_then) in [(then_body, true), (else_body, false)] {
            for item in body {
                let AstItem::Assign { lhs, rhs, line } = item else {
                    unreachable!("bodies are flattened before guarding")
                };
                self.guard(lhs, rhs, &cond, is_then, line, out);
            }
        }
    }

    /// Rewrites `lhs = rhs` under `cond` into select-merged form.
    fn guard(
        &mut self,
        lhs: AstLValue,
        rhs: AstRhs,
        cond: &AstCond,
        is_then: bool,
        line: u32,
        out: &mut Vec<AstItem>,
    ) {
        // A temp of the pass feeding a later select needs no guard: it
        // is dead unless its consumer selects it.
        if lhs.indices.is_none() && self.fresh.iter().any(|(n, _)| *n == lhs.name) {
            out.push(AstItem::Assign { lhs, rhs, line });
            return;
        }
        let value = match rhs {
            AstRhs::Copy(t) => t,
            complex => {
                let tmp = self.fresh_temp(&lhs);
                out.push(AstItem::Assign {
                    lhs: AstLValue {
                        name: tmp.clone(),
                        indices: None,
                    },
                    rhs: complex,
                    line,
                });
                AstTerm::Loc(AstLValue {
                    name: tmp,
                    indices: None,
                })
            }
        };
        let old = AstTerm::Loc(lhs.clone());
        let (t, f) = if is_then { (value, old) } else { (old, value) };
        out.push(AstItem::Assign {
            lhs,
            rhs: AstRhs::Select(cond.clone(), t, f),
            line,
        });
    }

    /// Hoists condition operands that a guarded statement may overwrite
    /// into fresh temporaries evaluated before the guards. Only writes
    /// *before the last* guarded statement matter: a guard at position
    /// `i` re-reads the condition, so it sees writes from positions
    /// `< i`; the final statement's write has no guard after it. This
    /// keeps the common single-statement branch free of extra copies.
    fn stabilize_cond(
        &mut self,
        cond: AstCond,
        then_body: &[AstItem],
        else_body: &[AstItem],
        line: u32,
        out: &mut Vec<AstItem>,
    ) -> AstCond {
        let guarded: Vec<&AstItem> = then_body.iter().chain(else_body).collect();
        let written: Vec<&AstLValue> = guarded[..guarded.len().saturating_sub(1)]
            .iter()
            .filter_map(|it| match it {
                AstItem::Assign { lhs, .. } => Some(lhs),
                _ => None,
            })
            .collect();
        let AstCond { op, a, b } = cond;
        let a = self.hoist_term(a, &written, line, out);
        let b = self.hoist_term(b, &written, line, out);
        AstCond { op, a, b }
    }

    fn hoist_term(
        &mut self,
        term: AstTerm,
        written: &[&AstLValue],
        line: u32,
        out: &mut Vec<AstItem>,
    ) -> AstTerm {
        let AstTerm::Loc(loc) = &term else {
            return term; // literals are trivially stable
        };
        // Scalars clash on the name; array elements conservatively on
        // the array (subscripts are loop-invariant within an iteration,
        // but distinct elements of one array may still alias).
        let clobbered = written.iter().any(|w| w.name == loc.name);
        if !clobbered {
            return term;
        }
        let tmp = self.fresh_temp(loc);
        out.push(AstItem::Assign {
            lhs: AstLValue {
                name: tmp.clone(),
                indices: None,
            },
            rhs: AstRhs::Copy(term),
            line,
        });
        AstTerm::Loc(AstLValue {
            name: tmp,
            indices: None,
        })
    }

    /// Mints a scalar temporary typed like `like` (its declared scalar
    /// type, or the element type of the array it names).
    fn fresh_temp(&mut self, like: &AstLValue) -> String {
        let ty = self
            .ast
            .scalars
            .iter()
            .find(|(n, _)| *n == like.name)
            .map(|(_, t)| *t)
            .or_else(|| {
                self.ast
                    .arrays
                    .iter()
                    .find(|(n, _, _)| *n == like.name)
                    .map(|(_, t, _)| *t)
            })
            .unwrap_or(ScalarType::F64);
        loop {
            let name = format!("t.if{}", self.next);
            self.next += 1;
            if self.taken.insert(name.clone()) {
                self.fresh.push((name.clone(), ty));
                return name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn convert(src: &str) -> KernelAst {
        let mut ast = parse(src).unwrap();
        if_convert(&mut ast);
        ast
    }

    fn assigns(items: &[AstItem]) -> Vec<&AstItem> {
        items
            .iter()
            .flat_map(|it| match it {
                AstItem::For { body, .. } => assigns(body),
                other => vec![other],
            })
            .collect()
    }

    #[test]
    fn branchless_programs_pass_through() {
        let src = "kernel k { scalar x: f64; x = 1.0; }";
        let before = parse(src).unwrap();
        let after = convert(src);
        assert_eq!(before, after);
    }

    #[test]
    fn then_only_if_becomes_one_select() {
        let ast = convert(
            "kernel k { array A: f64[8]; for i in 0..8 {
                 if A[i] < 0.0 { A[i] = 0.0; }
             } }",
        );
        let flat = assigns(&ast.items);
        assert_eq!(flat.len(), 1, "{flat:?}");
        let AstItem::Assign {
            rhs: AstRhs::Select(cond, t, f),
            ..
        } = flat[0]
        else {
            panic!("expected select, got {:?}", flat[0]);
        };
        assert_eq!(cond.op, slp_ir::CmpOp::Lt);
        assert!(matches!(t, AstTerm::Num(v) if *v == 0.0));
        assert!(matches!(f, AstTerm::Loc(l) if l.name == "A"), "{f:?}");
    }

    #[test]
    fn else_branch_swaps_select_arms() {
        let ast = convert(
            "kernel k { scalar x, y: f64;
             if x > 0.0 { y = 1.0; } else { y = 2.0; } }",
        );
        let flat = assigns(&ast.items);
        // then-guard merges into y, else-guard merges on top.
        assert_eq!(flat.len(), 2);
        let AstItem::Assign {
            rhs: AstRhs::Select(_, t, f),
            ..
        } = flat[1]
        else {
            panic!()
        };
        assert!(matches!(t, AstTerm::Loc(l) if l.name == "y"));
        assert!(matches!(f, AstTerm::Num(v) if *v == 2.0));
    }

    #[test]
    fn complex_rhs_gets_a_typed_temp() {
        let ast = convert(
            "kernel k { scalar x: f32; scalar g: f64;
             if g < 0.5 { x = x + 1.0; } }",
        );
        // t.if0 = x + 1.0; x = select(g < 0.5, t.if0, x)
        assert!(ast
            .scalars
            .iter()
            .any(|(n, t)| n == "t.if0" && *t == ScalarType::F32));
        let flat = assigns(&ast.items);
        assert_eq!(flat.len(), 2);
        assert!(matches!(
            flat[0],
            AstItem::Assign {
                lhs,
                rhs: AstRhs::Binary(..),
                ..
            } if lhs.name == "t.if0"
        ));
    }

    #[test]
    fn condition_operand_written_by_body_is_hoisted() {
        let ast = convert(
            "kernel k { scalar x, y: f64;
             if x < 0.0 { x = 0.0; y = 1.0; } }",
        );
        let flat = assigns(&ast.items);
        // hoist: t = x; x = select(t < 0, 0, x); y = select(t < 0, 1, y)
        assert_eq!(flat.len(), 3, "{flat:?}");
        let AstItem::Assign { lhs, rhs, .. } = flat[0] else {
            panic!()
        };
        assert!(lhs.name.starts_with("t.if"), "hoist first: {flat:?}");
        assert!(matches!(rhs, AstRhs::Copy(AstTerm::Loc(l)) if l.name == "x"));
        for g in &flat[1..] {
            let AstItem::Assign {
                rhs: AstRhs::Select(cond, _, _),
                ..
            } = g
            else {
                panic!()
            };
            assert!(
                matches!(&cond.a, AstTerm::Loc(l) if l.name == lhs.name),
                "guards must use the hoisted copy"
            );
        }
    }

    #[test]
    fn nested_ifs_flatten_inside_out() {
        let ast = convert(
            "kernel k { scalar x, y: f64;
             if x < 0.0 { if y < 0.0 { x = 1.0; } } }",
        );
        let flat = assigns(&ast.items);
        assert!(
            flat.iter().all(|it| matches!(it, AstItem::Assign { .. })),
            "no ifs remain: {flat:?}"
        );
        // Inner produces x = select(y<0, 1, x); outer re-guards it via a
        // temp: t = select(y<0, 1, x); x = select(x<0, t, x).
        assert_eq!(flat.len(), 2, "{flat:?}");
    }

    #[test]
    fn temp_names_avoid_collisions() {
        let ast = convert(
            "kernel k { scalar g: f64; scalar t.if0: f64;
             if g < 0.0 { g = g + 1.0; } }",
        );
        let minted: Vec<_> = ast
            .scalars
            .iter()
            .filter(|(n, _)| n.starts_with("t.if"))
            .collect();
        assert_eq!(minted.len(), 2, "{minted:?}");
        assert!(ast.scalars.iter().any(|(n, _)| n == "t.if1"));
    }
}
