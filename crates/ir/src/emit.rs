//! Emission of IR programs back to `slp-lang` source.
//!
//! [`Program::to_source`] renders any program — including unrolled ones
//! (the `step` clause) and privatized temporaries (dotted names) — as a
//! kernel the frontend parses back to an equivalent program. The
//! round-trip property is exercised over the whole benchmark suite and
//! random programs in the test suite.

use std::fmt::Write as _;

use crate::affine::AffineExpr;
use crate::expr::{write_expr, Dest, Operand};
use crate::ids::LoopVarId;
use crate::program::{Item, Program};
use crate::stmt::Statement;

impl Program {
    /// Renders the program as `slp-lang` source text.
    ///
    /// # Examples
    ///
    /// ```
    /// let p = slp_lang::compile(
    ///     "kernel k { array A: f64[8]; scalar x: f64;
    ///      for i in 0..8 { x = A[i]; A[i] = x * 2.0; } }",
    /// ).unwrap();
    /// let src = p.to_source();
    /// let q = slp_lang::compile(&src).unwrap();
    /// assert_eq!(p.stmt_count(), q.stmt_count());
    /// ```
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "kernel \"{}\" {{", self.name());
        for a in self.arrays() {
            let dims: Vec<String> = a.dims.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(out, "    array {}: {}[{}];", a.name, a.ty, dims.join("]["));
        }
        for s in self.scalars() {
            let _ = writeln!(out, "    scalar {}: {};", s.name, s.ty);
        }
        emit_items(self, self.items(), 1, &mut out);
        out.push_str("}\n");
        out
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn emit_items(p: &Program, items: &[Item], depth: usize, out: &mut String) {
    for item in items {
        match item {
            Item::Stmt(s) => {
                indent(depth, out);
                emit_stmt(p, s, out);
            }
            Item::Loop(l) => {
                indent(depth, out);
                let h = l.header;
                let step = if h.step == 1 {
                    String::new()
                } else {
                    format!(" step {}", h.step)
                };
                let _ = writeln!(
                    out,
                    "for {} in {}..{}{step} {{",
                    p.loop_var_name(h.var),
                    h.lower,
                    h.upper
                );
                emit_items(p, &l.body, depth + 1, out);
                indent(depth, out);
                out.push_str("}\n");
            }
        }
    }
}

fn emit_stmt(p: &Program, s: &Statement, out: &mut String) {
    match s.dest() {
        Dest::Scalar(v) => out.push_str(&p.scalar(*v).name),
        Dest::Array(r) => emit_ref(p, r, out),
    }
    out.push_str(" = ");
    let _ = write_expr(out, s.expr(), |o| emit_operand(p, o));
    out.push_str(";\n");
}

fn emit_operand(p: &Program, op: &Operand) -> String {
    let mut out = String::new();
    match op {
        Operand::Scalar(v) => out.push_str(&p.scalar(*v).name),
        Operand::Array(r) => emit_ref(p, r, &mut out),
        Operand::Const(c) => emit_const(*c, &mut out),
    }
    out
}

fn emit_const(c: f64, out: &mut String) {
    if c == c.trunc() && c.abs() < 1e15 {
        // Keep an explicit fraction so the value lexes as a float and the
        // sign stays attached to the literal.
        let _ = write!(out, "{:.1}", c);
    } else {
        let start = out.len();
        let _ = write!(out, "{c}");
        // f64's Display never uses exponent notation, so a huge integral
        // value (say 1e23) prints as a bare digit string that would
        // re-lex as an overflowing integer literal; keep it a float.
        if c.is_finite() && !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn emit_ref(p: &Program, r: &crate::expr::ArrayRef, out: &mut String) {
    out.push_str(&p.array(r.array).name);
    for dim in r.access.dims() {
        out.push('[');
        emit_affine(p, dim, out);
        out.push(']');
    }
}

fn emit_affine(p: &Program, e: &AffineExpr, out: &mut String) {
    let mut first = true;
    let var_name = |v: LoopVarId| p.loop_var_name(v).to_string();
    for (v, c) in e.terms() {
        if first {
            match c {
                1 => out.push_str(&var_name(v)),
                -1 => {
                    // The grammar has no leading unary minus on a name;
                    // write it as a -1 coefficient.
                    let _ = write!(out, "-1*{}", var_name(v));
                }
                _ => {
                    let _ = write!(out, "{c}*{}", var_name(v));
                }
            }
            first = false;
        } else if c == 1 {
            let _ = write!(out, "+{}", var_name(v));
        } else if c > 0 {
            let _ = write!(out, "+{c}*{}", var_name(v));
        } else if c == -1 {
            let _ = write!(out, "-{}", var_name(v));
        } else {
            let _ = write!(out, "-{}*{}", -c, var_name(v));
        }
    }
    let k = e.constant();
    if first {
        let _ = write!(out, "{k}");
    } else if k > 0 {
        let _ = write!(out, "+{k}");
    } else if k < 0 {
        let _ = write!(out, "{k}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AccessVector;
    use crate::expr::{ArrayRef, Expr};
    use crate::program::{Loop, LoopHeader};
    use crate::types::ScalarType;

    #[test]
    fn emits_steps_and_affine_forms() {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![64], true);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(
            a,
            AccessVector::new(vec![AffineExpr::var(i).scaled(2).offset(-1)]),
        );
        let s = p.make_stmt(r.into(), Expr::Copy(Operand::Const(2.0)));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 1,
                upper: 9,
                step: 2,
            },
            body: vec![Item::Stmt(s)],
        }));
        let src = p.to_source();
        assert!(src.contains("for i in 1..9 step 2 {"), "{src}");
        assert!(src.contains("A[2*i-1] = 2.0;"), "{src}");
    }

    #[test]
    fn integral_constants_stay_floats() {
        let mut s = String::new();
        emit_const(3.0, &mut s);
        assert_eq!(s, "3.0");
        let mut s = String::new();
        emit_const(-0.25, &mut s);
        assert_eq!(s, "-0.25");
    }

    #[test]
    fn huge_integral_constants_stay_floats() {
        // 1e23 is integral but far outside i64; it must not emit as a
        // bare (overflowing) integer literal.
        for c in [1e23, -1e23, 9.223372036854776e18, 1e300] {
            let mut s = String::new();
            emit_const(c, &mut s);
            assert!(
                s.contains(['.', 'e', 'E']),
                "{c} emitted as integer literal: {s}"
            );
            assert_eq!(s.parse::<f64>().unwrap(), c, "value must round-trip");
        }
    }

    #[test]
    fn negative_leading_coefficient() {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![64], true);
        let i = p.add_loop_var("i");
        let _ = a;
        let mut s = String::new();
        emit_affine(&p, &AffineExpr::var(i).scaled(-1).offset(8), &mut s);
        assert_eq!(s, "-1*i+8");
    }
}
