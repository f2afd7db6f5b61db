//! Def-use chains and liveness facts for scalars and array regions.
//!
//! The IR has no branches — a program is a tree of counted loops over
//! straight-line statements — so the flattened DFS statement order *is*
//! the execution order of each statement's first dynamic instance. That
//! makes def-use relationships decidable with simple positional
//! reasoning: a use at a smaller order index than a scalar's first def
//! executes before any write and therefore observes the runtime seed
//! (the V500 lint), and a def with no observing use on any continuation
//! is a dead store (the V501 lint, computed in [`crate::lint`] with the
//! loop back-edge taken into account).

use std::collections::HashMap;

use slp_ir::{ArrayId, ArrayRef, Dest, Operand, Program, StmtId, VarId};

/// One array access site.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArrayAccess {
    /// The statement performing the access.
    pub stmt: StmtId,
    /// The reference (array + affine subscripts).
    pub reference: ArrayRef,
    /// Whether the access is a write (store destination).
    pub is_write: bool,
}

/// Def-use chains over a whole program.
#[derive(Debug, Clone)]
pub(crate) struct DefUse {
    order: HashMap<StmtId, usize>,
    scalar_defs: Vec<Vec<StmtId>>,
    scalar_uses: Vec<Vec<StmtId>>,
    array_accesses: Vec<Vec<ArrayAccess>>,
}

impl DefUse {
    /// Collects the chains of `program` in flattened DFS order.
    pub(crate) fn analyze(program: &Program) -> Self {
        let mut order = HashMap::new();
        let mut scalar_defs = vec![Vec::new(); program.scalars().len()];
        let mut scalar_uses = vec![Vec::new(); program.scalars().len()];
        let mut array_accesses = vec![Vec::new(); program.arrays().len()];
        let mut next = 0usize;
        program.for_each_stmt(|s| {
            order.insert(s.id(), next);
            next += 1;
            for u in s.uses() {
                match u {
                    Operand::Scalar(v) => scalar_uses[v.index()].push(s.id()),
                    Operand::Array(r) => array_accesses[r.array.index()].push(ArrayAccess {
                        stmt: s.id(),
                        reference: r.clone(),
                        is_write: false,
                    }),
                    Operand::Const(_) => {}
                }
            }
            match s.dest() {
                Dest::Scalar(v) => scalar_defs[v.index()].push(s.id()),
                Dest::Array(r) => array_accesses[r.array.index()].push(ArrayAccess {
                    stmt: s.id(),
                    reference: r.clone(),
                    is_write: true,
                }),
            }
        });
        DefUse {
            order,
            scalar_defs,
            scalar_uses,
            array_accesses,
        }
    }

    /// The flattened DFS position of a statement (its first-execution
    /// order), or `None` for statements not in the program.
    pub(crate) fn order_of(&self, s: StmtId) -> Option<usize> {
        self.order.get(&s).copied()
    }

    /// Statements writing scalar `v`, in program order.
    pub(crate) fn scalar_defs(&self, v: VarId) -> &[StmtId] {
        &self.scalar_defs[v.index()]
    }

    /// Accesses (reads and writes) of array `a`, in program order.
    pub(crate) fn array_accesses(&self, a: ArrayId) -> &[ArrayAccess] {
        &self.array_accesses[a.index()]
    }

    /// Uses of `v` positioned strictly before its first def — reads that
    /// observe the runtime seed on the program's first pass. Empty when
    /// `v` is never written (a pure input parameter) or first written
    /// before (or within) every reading statement; a use *inside* the
    /// first defining statement (`s = s + 1` accumulators) is at the
    /// same position, not strictly before, so it does not qualify.
    pub(crate) fn uses_before_first_def(&self, v: VarId) -> Vec<StmtId> {
        let Some(&first_def) = self.scalar_defs[v.index()].first() else {
            return Vec::new();
        };
        let def_pos = self.order[&first_def];
        let mut out: Vec<StmtId> = self.scalar_uses[v.index()]
            .iter()
            .copied()
            .filter(|u| self.order[u] < def_pos)
            .collect();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{AccessVector, AffineExpr, BinOp, Expr, Item, Loop, LoopHeader, ScalarType};

    #[test]
    fn chains_follow_flattened_order() {
        // x = 1; for i { t = A[i]; A[i] = t * x }; y = x
        let mut p = Program::new("t");
        let x = p.add_scalar("x", ScalarType::F64);
        let t = p.add_scalar("t", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        let a = p.add_array("A", ScalarType::F64, vec![8], true);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s0 = p.push_stmt(x.into(), Expr::Copy(1.0.into()));
        let s1 = p.make_stmt(t.into(), Expr::Copy(r.clone().into()));
        let s2 = p.make_stmt(
            r.clone().into(),
            Expr::Binary(BinOp::Mul, t.into(), x.into()),
        );
        let (id1, id2) = (s1.id(), s2.id());
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(s1), Item::Stmt(s2)],
        }));
        let s3 = p.push_stmt(y.into(), Expr::Copy(x.into()));
        let du = DefUse::analyze(&p);
        assert_eq!(du.order_of(s0), Some(0));
        assert_eq!(du.order_of(id1), Some(1));
        assert_eq!(du.order_of(s3), Some(3));
        assert_eq!(du.scalar_defs(t), &[id1]);
        assert_eq!(du.scalar_uses[t.index()], [id2]);
        assert_eq!(du.scalar_uses[x.index()], [id2, s3]);
        let acc = du.array_accesses(a);
        assert_eq!(acc.len(), 2);
        assert!(!acc[0].is_write && acc[1].is_write);
    }

    #[test]
    fn accumulator_first_def_is_not_a_use_before_def() {
        // s = s + 1 as the first statement: the use sits inside the
        // defining statement, which is the well-defined read-modify-write
        // of the seeded value — not strictly before the def.
        let mut p = Program::new("t");
        let s = p.add_scalar("s", ScalarType::F64);
        p.push_stmt(s.into(), Expr::Binary(BinOp::Add, s.into(), 1.0.into()));
        let du = DefUse::analyze(&p);
        assert!(du.uses_before_first_def(s).is_empty());
    }

    #[test]
    fn read_before_write_is_detected() {
        let mut p = Program::new("t");
        let s = p.add_scalar("s", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        let s0 = p.push_stmt(y.into(), Expr::Copy(s.into()));
        p.push_stmt(s.into(), Expr::Copy(2.0.into()));
        let du = DefUse::analyze(&p);
        assert_eq!(du.uses_before_first_def(s), vec![s0]);
        // Never-written scalars are parameters, not violations: y has no
        // def here beyond s0 and no use at all before it.
        assert!(du.uses_before_first_def(y).is_empty());
    }
}
