//! Typed-IR case generation: well-formed programs with adversarial
//! dependence and alignment patterns.
//!
//! Where `mutate` attacks the front-end with broken
//! text, this level builds [`Program`]s directly, biased toward the
//! structures where SLP miscompiles hide: loop-carried dependences
//! (`A[i] = f(A[i-1])`), partially overlapping reads and writes,
//! non-unit strides and misaligned offsets, negative lower bounds,
//! sequential and nested loops, scalar reductions, mixed element types,
//! and division (the VM seeds memory nonzero, so `Div` is safe).
//! Extents are computed *after* the accesses so most programs validate;
//! a deliberate fraction is corrupted (shrunken extents, zero steps) to
//! exercise the typed rejection paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp_ir::{
    AccessVector, AffineExpr, ArrayId, ArrayRef, BinOp, CmpOp, Dest, Expr, Item, Loop, LoopHeader,
    LoopVarId, Operand, Program, ScalarType, UnOp, VarId,
};

const TYPES: &[ScalarType] = &[
    ScalarType::F64,
    ScalarType::F64,
    ScalarType::F64,
    ScalarType::F32,
    ScalarType::I64,
    ScalarType::I32,
    ScalarType::I16,
];

struct Gen {
    rng: StdRng,
    arrays: Vec<ArrayId>,
    scalars: Vec<VarId>,
    /// Per-array, the worst-case subscript range generated so far.
    ranges: Vec<(i64, i64)>,
}

impl Gen {
    /// A random affine subscript `c*v + off` over the in-scope loops,
    /// recording the range it can reach for the extent computation.
    fn subscript(&mut self, array: usize, loops: &[LoopHeader]) -> AffineExpr {
        let h = loops[self.rng.gen_range(0..loops.len())];
        let c = self.rng.gen_range(1..=3i64);
        // Offsets reach backward too (A[c*i - d] patterns), then the
        // whole subscript is shifted so its low end stays at >= 0 —
        // invalidity is injected deliberately elsewhere, not by accident.
        let mut off = self.rng.gen_range(-2..=4i64);
        let last = h.lower + (h.trip_count() - 1).max(0) * h.step;
        let low = (c * h.lower).min(c * last) + off;
        if low < 0 {
            off -= low;
        }
        let (a, b) = (c * h.lower + off, c * last + off);
        let (lo, hi) = (a.min(b), a.max(b));
        let r = &mut self.ranges[array];
        r.0 = r.0.min(lo);
        r.1 = r.1.max(hi);
        AffineExpr::var(h.var).scaled(c).offset(off)
    }

    fn array_ref(&mut self, loops: &[LoopHeader]) -> ArrayRef {
        let pick = self.rng.gen_range(0..self.arrays.len());
        let e = self.subscript(pick, loops);
        ArrayRef::new(self.arrays[pick], AccessVector::new(vec![e]))
    }

    fn operand(&mut self, loops: &[LoopHeader]) -> Operand {
        match self.rng.gen_range(0..8u32) {
            0..=3 => Operand::Array(self.array_ref(loops)),
            4..=5 => Operand::Scalar(self.scalars[self.rng.gen_range(0..self.scalars.len())]),
            6 => Operand::Const(self.rng.gen_range(1..=9) as f64 * 0.5),
            _ => Operand::Array(self.array_ref(loops)),
        }
    }

    fn cmp(&mut self) -> CmpOp {
        let ops = CmpOp::all();
        ops[self.rng.gen_range(0..ops.len())]
    }

    fn expr(&mut self, loops: &[LoopHeader]) -> Expr {
        match self.rng.gen_range(0..12u32) {
            0..=4 => {
                let ops = BinOp::all();
                let op = ops[self.rng.gen_range(0..ops.len())];
                Expr::Binary(op, self.operand(loops), self.operand(loops))
            }
            5..=6 => Expr::MulAdd(
                self.operand(loops),
                self.operand(loops),
                self.operand(loops),
            ),
            7 => {
                let ops = UnOp::all();
                let op = ops[self.rng.gen_range(0..ops.len())];
                Expr::Unary(op, self.operand(loops))
            }
            8..=9 => Expr::Select(
                self.cmp(),
                self.operand(loops),
                self.operand(loops),
                self.operand(loops),
                self.operand(loops),
            ),
            _ => Expr::Copy(self.operand(loops)),
        }
    }

    fn dest(&mut self, loops: &[LoopHeader]) -> Dest {
        if self.rng.gen_bool(0.7) {
            Dest::Array(self.array_ref(loops))
        } else {
            Dest::Scalar(self.scalars[self.rng.gen_range(0..self.scalars.len())])
        }
    }
}

/// Deterministically builds the `n`-th typed-IR fuzz case.
///
/// Most cases validate; roughly a fifth are deliberately corrupted so
/// the typed rejection paths stay exercised.
pub fn ir_case(seed: u64, n: u64) -> Program {
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed ^ n.wrapping_mul(0xD134_2543_DE82_EF95)),
        arrays: Vec::new(),
        scalars: Vec::new(),
        ranges: Vec::new(),
    };
    let mut p = Program::new(format!("ir{n}"));

    let n_arrays = g.rng.gen_range(1..=3usize);
    for k in 0..n_arrays {
        let ty = TYPES[g.rng.gen_range(0..TYPES.len())];
        // Extent fixed up after generation; declare a placeholder.
        g.arrays
            .push(p.add_array(format!("A{k}"), ty, vec![1], true));
        g.ranges.push((0, 0));
    }
    let n_scalars = g.rng.gen_range(1..=3usize);
    for k in 0..n_scalars {
        let ty = TYPES[g.rng.gen_range(0..TYPES.len())];
        g.scalars.push(p.add_scalar(format!("s{k}"), ty));
    }

    // 1-2 sequential top-level loops, each 1-2 deep.
    let n_loops = g.rng.gen_range(1..=2usize);
    let mut items: Vec<Item> = Vec::new();
    // A scalar init before the loops exercises straight-line blocks.
    if g.rng.gen_bool(0.5) {
        let v = g.scalars[g.rng.gen_range(0..g.scalars.len())];
        let s = p.make_stmt(Dest::Scalar(v), Expr::Copy(Operand::Const(1.5)));
        items.push(Item::Stmt(s));
    }
    for l in 0..n_loops {
        let depth = g.rng.gen_range(1..=2usize);
        let mut headers = Vec::new();
        for d in 0..depth {
            let var = p.add_loop_var(format!("v{l}_{d}"));
            let lower = g.rng.gen_range(-4..=4i64);
            let step = g.rng.gen_range(1..=3i64);
            let trips = g.rng.gen_range(1..=16i64);
            headers.push(LoopHeader {
                var,
                lower,
                upper: lower + trips * step,
                step,
            });
        }
        let n_stmts = g.rng.gen_range(1..=6usize);
        let mut body: Vec<Item> = Vec::new();
        for _ in 0..n_stmts {
            if g.rng.gen_bool(0.15) {
                // Exclusive merge pair — the canonical if-conversion
                // residue. A then-merge `d = select(op,a,b,t,d)` guards
                // the true side; an optional else-merge with the *same*
                // predicate, `d = select(op,a,b,d,e)`, guards the false
                // side. The dependence analysis must see the two writes
                // as reorderable, and the packer may fuse them.
                let op = g.cmp();
                let a = g.operand(&headers);
                let b = g.operand(&headers);
                let dest = g.dest(&headers);
                let dest_read = match &dest {
                    Dest::Array(r) => Operand::Array(r.clone()),
                    Dest::Scalar(v) => Operand::Scalar(*v),
                };
                let t = g.operand(&headers);
                let s1 = p.make_stmt(
                    dest.clone(),
                    Expr::Select(op, a.clone(), b.clone(), t, dest_read.clone()),
                );
                body.push(Item::Stmt(s1));
                if g.rng.gen_bool(0.6) {
                    let e = g.operand(&headers);
                    let s2 = p.make_stmt(dest, Expr::Select(op, a, b, dest_read, e));
                    body.push(Item::Stmt(s2));
                }
                continue;
            }
            let (dest, expr) = if g.rng.gen_bool(0.25) {
                // Loop-carried chain: A[c*i + off] = f(A[c*i + off'])
                // on the same array, offsets straddling the write.
                let pick = g.rng.gen_range(0..g.arrays.len());
                let write = g.subscript(pick, &headers);
                let read = g.subscript(pick, &headers);
                let a = g.arrays[pick];
                (
                    Dest::Array(ArrayRef::new(a, AccessVector::new(vec![write]))),
                    Expr::Binary(
                        BinOp::Add,
                        Operand::Array(ArrayRef::new(a, AccessVector::new(vec![read]))),
                        g.operand(&headers),
                    ),
                )
            } else if g.rng.gen_bool(0.2) {
                // Reduction: s = s op expr.
                let v = g.scalars[g.rng.gen_range(0..g.scalars.len())];
                (
                    Dest::Scalar(v),
                    Expr::Binary(BinOp::Add, Operand::Scalar(v), g.operand(&headers)),
                )
            } else {
                let d = g.dest(&headers);
                let e = g.expr(&headers);
                (d, e)
            };
            let s = p.make_stmt(dest, expr);
            body.push(Item::Stmt(s));
        }
        // Wrap innermost-out.
        let mut item = Item::Loop(Loop {
            header: headers[depth - 1],
            body,
        });
        for d in (0..depth - 1).rev() {
            item = Item::Loop(Loop {
                header: headers[d],
                body: vec![item],
            });
        }
        items.push(item);
    }
    if g.rng.gen_bool(0.3) {
        let v = g.scalars[g.rng.gen_range(0..g.scalars.len())];
        let s = p.make_stmt(Dest::Scalar(v), Expr::Unary(UnOp::Abs, Operand::Scalar(v)));
        items.push(Item::Stmt(s));
    }
    for item in items {
        p.push_item(item);
    }

    // Fix up extents from the recorded subscript ranges. A negative low
    // end shifts the whole program out of reach of the validator, so
    // instead size the array to cover [0, hi] and accept that cases
    // whose low end dips below zero are (intentionally) invalid.
    let corrupt = g.rng.gen_bool(0.2);
    let shrink = if corrupt && g.rng.gen_bool(0.5) { 1 } else { 0 };
    let mut q = Program::new(p.name());
    let mut fixed = Vec::new();
    for (k, a) in p.arrays().iter().enumerate() {
        let extent = (g.ranges[k].1 + 1).max(1) - shrink;
        fixed.push(q.add_array(
            a.name.clone(),
            a.ty,
            vec![extent.max(1 - shrink)],
            a.is_input,
        ));
    }
    let _ = fixed;
    for s in p.scalars() {
        q.add_scalar(s.name.clone(), s.ty);
    }
    for v in 0..p.loop_var_count() {
        q.add_loop_var(p.loop_var_name(LoopVarId::new(v as u32)).to_string());
    }
    let mut items = p.items().to_vec();
    if corrupt && shrink == 0 {
        // Corrupt a loop step to zero instead: must be a typed
        // BadLoopStep rejection, never a hang or panic.
        fn break_step(items: &mut [Item]) -> bool {
            for item in items {
                if let Item::Loop(l) = item {
                    l.header.step = 0;
                    return true;
                }
            }
            false
        }
        let _ = break_step(&mut items);
    }
    for item in items {
        q.push_item(item);
    }
    q.ensure_stmt_ids(p.stmt_count() as u32 + 1);
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let a = ir_case(3, 11).to_source();
        let b = ir_case(3, 11).to_source();
        assert_eq!(a, b);
    }

    #[test]
    fn most_cases_validate() {
        let valid = (0..50u64)
            .filter(|&n| ir_case(1, n).validate().is_ok())
            .count();
        assert!(valid >= 25, "only {valid}/50 cases validate");
    }

    #[test]
    fn selects_and_merge_pairs_appear() {
        let mut with_select = 0usize;
        let mut with_pair = 0usize;
        for n in 0..60u64 {
            let p = ir_case(4, n);
            let mut any = false;
            for info in p.blocks() {
                let stmts: Vec<_> = info.block.iter().collect();
                for s in &stmts {
                    if matches!(s.expr(), Expr::Select(..)) {
                        any = true;
                    }
                }
                for w in stmts.windows(2) {
                    if w[0].dest() == w[1].dest()
                        && matches!(w[0].expr(), Expr::Select(..))
                        && matches!(w[1].expr(), Expr::Select(..))
                    {
                        with_pair += 1;
                    }
                }
            }
            with_select += any as usize;
        }
        assert!(
            with_select >= 20,
            "only {with_select}/60 cases had a select"
        );
        assert!(
            with_pair >= 5,
            "only {with_pair} exclusive merge pairs seen"
        );
    }

    #[test]
    fn valid_cases_round_trip_through_source() {
        for n in 0..30u64 {
            let p = ir_case(2, n);
            if p.validate().is_err() {
                continue;
            }
            let src = p.to_source();
            let reparsed = slp_lang::compile(&src)
                .unwrap_or_else(|e| panic!("case {n} did not re-parse: {}\n{src}", e.render(&src)));
            assert_eq!(
                reparsed.to_source(),
                src,
                "case {n} emission is not a fixpoint"
            );
        }
    }
}
