//! Delta-debugging minimizer for failing cases.
//!
//! Reduction re-checks the caller's still-fails predicate after every
//! candidate edit and keeps the edit only when it holds. The fuzz
//! campaign asks for the same anomaly (kind + stage), so a minimized
//! reproducer pins the *original* bug, not a new one; a property test
//! asks that the source re-parses and its property still fails.
//!
//! Two modes:
//! - **Structural**, when the case parses: remove statements and loops,
//!   unwrap loop nests, shrink trip counts, and simplify expressions on
//!   the typed [`Program`], re-emitting source after each step.
//! - **Textual**, for sources that do not parse: greedy line removal
//!   followed by shrinking character-chunk removal (a ddmin variant),
//!   since a malformed case has no tree to walk.

use slp_ir::{Expr, Item, Operand, Program};

use crate::mutate::char_boundary;

/// Caps the number of predicate calls one minimization may spend.
const ORACLE_CALLS: usize = 400;

struct Ctx<'a> {
    fails: &'a mut dyn FnMut(&str) -> bool,
    calls: usize,
}

impl Ctx<'_> {
    /// Whether `src` still fails, while the call budget lasts.
    fn still_fails(&mut self, src: &str) -> bool {
        if self.calls >= ORACLE_CALLS {
            return false;
        }
        self.calls += 1;
        (self.fails)(src)
    }
}

/// Minimizes `src`, for which `still_fails` must currently hold.
///
/// Returns the smallest source found within the call budget for which
/// `still_fails` holds; at worst, `src` unchanged.
pub fn minimize(src: &str, mut still_fails: impl FnMut(&str) -> bool) -> String {
    let mut cx = Ctx {
        fails: &mut still_fails,
        calls: 0,
    };
    if !cx.still_fails(src) {
        return src.to_string(); // flaky or budget-dependent: keep as-is
    }
    match slp_lang::compile(src) {
        Ok(program) => minimize_structural(&program, src, &mut cx),
        Err(_) => minimize_textual(src, &mut cx),
    }
}

// ---- structural ---------------------------------------------------------

/// Every way of deleting or simplifying one node of the item tree.
fn candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    let n_items = count_edit_points(p.items());
    for k in 0..n_items {
        // Deletion.
        let mut q = p.clone();
        let mut seen = 0;
        edit_nth(q.items_mut(), k, &mut seen, &mut |_| Edit::Delete);
        out.push(q);
        // Loop unwrapping and bound shrinking.
        let mut q = p.clone();
        let mut seen = 0;
        edit_nth(q.items_mut(), k, &mut seen, &mut |item| match item {
            Item::Loop(l) => {
                if l.header.trip_count() > 1 {
                    let mut l = l.clone();
                    l.header.upper = l.header.lower + l.header.step;
                    Edit::Replace(vec![Item::Loop(l)])
                } else {
                    // Single-trip loop: splice the body up one level.
                    Edit::Replace(l.body.clone())
                }
            }
            other => Edit::Replace(vec![other.clone()]),
        });
        out.push(q);
        // Expression simplification.
        let mut q = p.clone();
        let mut seen = 0;
        edit_nth(q.items_mut(), k, &mut seen, &mut |item| match item {
            Item::Stmt(s) => {
                let mut s = s.clone();
                let first = s.expr().operands()[0].clone();
                *s.expr_mut() = match s.expr() {
                    Expr::Copy(Operand::Const(_)) => Expr::Copy(Operand::Const(1.0)),
                    Expr::Copy(_) => Expr::Copy(Operand::Const(1.0)),
                    _ => Expr::Copy(first),
                };
                Edit::Replace(vec![Item::Stmt(s)])
            }
            other => Edit::Replace(vec![other.clone()]),
        });
        out.push(q);
    }
    out
}

enum Edit {
    Delete,
    Replace(Vec<Item>),
}

fn count_edit_points(items: &[Item]) -> usize {
    items
        .iter()
        .map(|i| match i {
            Item::Stmt(_) => 1,
            Item::Loop(l) => 1 + count_edit_points(&l.body),
        })
        .sum()
}

/// Applies `f` to the `k`-th node (pre-order) of the item tree.
fn edit_nth(
    items: &mut Vec<Item>,
    k: usize,
    seen: &mut usize,
    f: &mut dyn FnMut(&Item) -> Edit,
) -> bool {
    let mut idx = 0;
    while idx < items.len() {
        if *seen == k {
            match f(&items[idx]) {
                Edit::Delete => {
                    items.remove(idx);
                }
                Edit::Replace(with) => {
                    items.splice(idx..idx + 1, with);
                }
            }
            *seen += 1;
            return true;
        }
        *seen += 1;
        if let Item::Loop(l) = &mut items[idx] {
            if edit_nth(&mut l.body, k, seen, f) {
                return true;
            }
        }
        idx += 1;
    }
    false
}

fn minimize_structural(program: &Program, src: &str, cx: &mut Ctx<'_>) -> String {
    let mut best_src = src.to_string();
    let mut best = program.clone();
    loop {
        let mut improved = false;
        for cand in candidates(&best) {
            let cand_src = cand.to_source();
            if cand_src.len() < best_src.len() && cx.still_fails(&cand_src) {
                best = cand;
                best_src = cand_src;
                improved = true;
                break;
            }
        }
        if !improved || cx.calls >= ORACLE_CALLS {
            return best_src;
        }
    }
}

// ---- textual ------------------------------------------------------------

fn minimize_textual(src: &str, cx: &mut Ctx<'_>) -> String {
    let mut best = src.to_string();
    // Pass 1: greedy line removal to fixpoint.
    loop {
        let lines: Vec<&str> = best.lines().collect();
        let mut improved = false;
        for skip in 0..lines.len() {
            let cand: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n");
            if cx.still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    // Pass 2: shrinking chunk removal over characters.
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && cx.calls < ORACLE_CALLS {
        let mut improved = false;
        let mut start = 0;
        while start < best.len() {
            let end = char_boundary(&best, (start + chunk).min(best.len()));
            let s = char_boundary(&best, start);
            if s >= end {
                start += chunk;
                continue;
            }
            let cand = format!("{}{}", &best[..s], &best[end..]);
            if cx.still_fails(&cand) {
                best = cand;
                improved = true;
            } else {
                start += chunk;
            }
        }
        if !improved {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_mode_keeps_only_the_statements_the_predicate_needs() {
        let src = slp_suite::random_program(7, &slp_suite::GeneratorConfig::default()).to_source();
        let needed = ["s2 = 2.25 - A1[i];", "A0[i] = 2.0;"];
        assert!(needed.iter().all(|n| src.contains(n)), "{src}");
        let out = minimize(&src, |s| {
            slp_lang::compile(s).is_ok() && needed.iter().all(|n| s.contains(n))
        });
        // The declarations stay (the minimizer edits items only), the loop
        // shrinks to one trip and every other statement goes.
        let decls = &src[..src.find("    for ").expect("one loop")];
        let expected = format!(
            "{decls}    for i in 0..1 {{\n        {}\n        {}\n    }}\n}}\n",
            needed[0], needed[1]
        );
        assert_eq!(out, expected);
    }

    #[test]
    fn textual_mode_shrinks_an_unparseable_source_to_its_marker() {
        let src = "kernel k {\n    array A: f64[4];\n    A[0] = @@;\n    A[1] = 2.0;\n}\n";
        assert!(slp_lang::compile(src).is_err());
        assert_eq!(minimize(src, |s| s.contains("@@")), "@@");
    }
}
