//! Whole programs: symbol tables, loop nests and basic blocks.
//!
//! A [`Program`] is the unit handed to the pre-processing passes (loop
//! unrolling, alignment analysis) and then, block by block, to the SLP
//! optimizer. It plays the role of SUIF's intermediate program
//! representation in the original system.

use std::convert::Infallible;
use std::fmt;

use crate::affine::AccessVector;
use crate::block::BasicBlock;
use crate::expr::{write_expr, Dest, Expr, Operand, TypeEnv};
use crate::ids::{ArrayId, LoopVarId, StmtId, VarId};
use crate::stmt::Statement;
use crate::types::ScalarType;

/// Metadata of a scalar variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarInfo {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: ScalarType,
}

/// Metadata of an array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub ty: ScalarType,
    /// Extent of each dimension, outermost first. Storage is row-major
    /// (§5.2: "the default layout adopted by the compiler is row major").
    pub dims: Vec<i64>,
    /// Whether the array holds externally supplied input data; the VM
    /// seeds such arrays with a deterministic pattern before execution.
    pub is_input: bool,
}

impl ArrayInfo {
    /// Total number of elements (product of dimension extents).
    ///
    /// Saturates at `i64::MAX` so absurdly large declared extents report
    /// a huge-but-defined size instead of overflowing in debug builds;
    /// such arrays are rejected later by the execution memory budget.
    pub fn len(&self) -> i64 {
        self.dims.iter().fold(1i64, |acc, &d| acc.saturating_mul(d))
    }

    /// Whether the array has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row-major linear offset `access` reaches under `env`, or
    /// `None` when its rank differs or a dimension falls outside the
    /// array. Evaluates each dimension in place and allocates nothing.
    pub fn offset_of(&self, access: &AccessVector, env: &[(LoopVarId, i64)]) -> Option<i64> {
        if access.rank() != self.dims.len() {
            return None;
        }
        let mut off = 0i64;
        for (e, &d) in access.dims().iter().zip(&self.dims) {
            let i = e.eval(env);
            if i < 0 || i >= d {
                return None;
            }
            off = off.wrapping_mul(d).wrapping_add(i);
        }
        Some(off)
    }

    /// Whether `index` lies inside the array bounds in every dimension.
    pub fn in_bounds(&self, index: &[i64]) -> bool {
        index.len() == self.dims.len()
            && index.iter().zip(&self.dims).all(|(&i, &d)| i >= 0 && i < d)
    }
}

/// A counted `for` loop header: `for var in lower..upper step step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopHeader {
    /// The induction variable.
    pub var: LoopVarId,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Exclusive upper bound.
    pub upper: i64,
    /// Step (after unrolling, the unroll factor).
    pub step: i64,
}

impl LoopHeader {
    /// Number of iterations the loop executes.
    ///
    /// Saturates on pathological bounds (`upper - lower` near `i64::MAX`)
    /// rather than overflowing; such loops are far beyond any execution
    /// budget anyway.
    pub fn trip_count(&self) -> i64 {
        if self.upper <= self.lower || self.step <= 0 {
            0
        } else {
            self.upper
                .saturating_sub(self.lower)
                .saturating_add(self.step - 1)
                / self.step
        }
    }
}

/// A loop with its body.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// The loop header.
    pub header: LoopHeader,
    /// Body items in source order.
    pub body: Vec<Item>,
}

impl Loop {
    /// Whether the body holds statements only, no nested loop.
    pub fn is_innermost(&self) -> bool {
        self.body.iter().all(|item| matches!(item, Item::Stmt(_)))
    }
}

/// One item of a program or loop body.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A straight-line statement.
    Stmt(Statement),
    /// A nested loop.
    Loop(Loop),
}

/// Identifies one basic block within a program by its DFS visit order.
///
/// Block ids are stable as long as the program's loop structure and the
/// partition of statements into blocks is unchanged; rewriting passes that
/// only touch operands (e.g. data layout) preserve them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A basic block extracted from a program, with its enclosing loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// DFS-order id of the block.
    pub id: BlockId,
    /// The statements of the block, in program order.
    pub block: BasicBlock,
    /// Enclosing loops, outermost first (empty for top-level code).
    pub loops: Vec<LoopHeader>,
}

/// A whole kernel program: symbol tables plus a tree of loops and
/// statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    name: String,
    scalars: Vec<ScalarInfo>,
    arrays: Vec<ArrayInfo>,
    loop_vars: Vec<String>,
    items: Vec<Item>,
    next_stmt: u32,
}

impl Program {
    /// Creates an empty program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ---- symbol tables -------------------------------------------------

    /// Declares a scalar variable and returns its id.
    pub fn add_scalar(&mut self, name: impl Into<String>, ty: ScalarType) -> VarId {
        self.scalars.push(ScalarInfo {
            name: name.into(),
            ty,
        });
        VarId::new(self.scalars.len() as u32 - 1)
    }

    /// Declares an array and returns its id.
    pub fn add_array(
        &mut self,
        name: impl Into<String>,
        ty: ScalarType,
        dims: Vec<i64>,
        is_input: bool,
    ) -> ArrayId {
        self.arrays.push(ArrayInfo {
            name: name.into(),
            ty,
            dims,
            is_input,
        });
        ArrayId::new(self.arrays.len() as u32 - 1)
    }

    /// Declares a loop induction variable and returns its id.
    pub fn add_loop_var(&mut self, name: impl Into<String>) -> LoopVarId {
        self.loop_vars.push(name.into());
        LoopVarId::new(self.loop_vars.len() as u32 - 1)
    }

    /// Metadata of scalar `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not declared in this program.
    pub fn scalar(&self, v: VarId) -> &ScalarInfo {
        &self.scalars[v.index()]
    }

    /// Metadata of array `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` was not declared in this program.
    pub fn array(&self, a: ArrayId) -> &ArrayInfo {
        &self.arrays[a.index()]
    }

    /// Name of loop variable `v`.
    pub fn loop_var_name(&self, v: LoopVarId) -> &str {
        &self.loop_vars[v.index()]
    }

    /// All declared scalars.
    pub fn scalars(&self) -> &[ScalarInfo] {
        &self.scalars
    }

    /// All declared arrays.
    pub fn arrays(&self) -> &[ArrayInfo] {
        &self.arrays
    }

    /// Number of declared loop variables.
    pub fn loop_var_count(&self) -> usize {
        self.loop_vars.len()
    }

    /// Ids of all declared arrays.
    pub fn array_ids(&self) -> impl Iterator<Item = ArrayId> + '_ {
        (0..self.arrays.len() as u32).map(ArrayId::new)
    }

    /// Ids of all declared scalars.
    pub fn scalar_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.scalars.len() as u32).map(VarId::new)
    }

    // ---- statements and structure ---------------------------------------

    /// Allocates a fresh, program-unique statement id.
    pub fn fresh_stmt_id(&mut self) -> StmtId {
        let id = StmtId::new(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    /// Raises the fresh-id watermark so [`Program::fresh_stmt_id`] never
    /// returns an id below `next`.
    ///
    /// Builders that insert statements with externally chosen ids (the
    /// `slp-driver` cache codec reconstructing a persisted kernel) call
    /// this with `max used id + 1` so ids allocated later stay unique.
    pub fn ensure_stmt_ids(&mut self, next: u32) {
        self.next_stmt = self.next_stmt.max(next);
    }

    /// Builds a statement with a fresh id.
    pub fn make_stmt(&mut self, dest: Dest, expr: Expr) -> Statement {
        let id = self.fresh_stmt_id();
        Statement::new(id, dest, expr)
    }

    /// Appends a top-level item.
    pub fn push_item(&mut self, item: Item) {
        self.items.push(item);
    }

    /// Appends a top-level statement with a fresh id.
    pub fn push_stmt(&mut self, dest: Dest, expr: Expr) -> StmtId {
        let s = self.make_stmt(dest, expr);
        let id = s.id();
        self.items.push(Item::Stmt(s));
        id
    }

    /// The top-level items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Mutable access to the top-level items (used by unrolling).
    pub fn items_mut(&mut self) -> &mut Vec<Item> {
        &mut self.items
    }

    // ---- basic-block extraction -----------------------------------------

    /// Extracts every basic block with its enclosing loop nest, in DFS
    /// order. Consecutive statements within one body form one block.
    pub fn blocks(&self) -> Vec<BlockInfo> {
        let mut out = Vec::new();
        let _: Result<(), Infallible> = self.try_for_each_block(|id, run, loops| {
            let stmts = run.iter().filter_map(|item| match item {
                Item::Stmt(s) => Some(s.clone()),
                Item::Loop(_) => None,
            });
            out.push(BlockInfo {
                id,
                block: BasicBlock::from_stmts(stmts.collect()),
                loops: loops.to_vec(),
            });
            Ok(())
        });
        out
    }

    /// Calls `f` on every basic block in [`BlockId`] order: its id, its
    /// statements (a maximal run of `Item::Stmt`, borrowed in place) and
    /// its enclosing loops, outermost first. Stops at the first error.
    pub fn try_for_each_block<'a, E>(
        &'a self,
        mut f: impl FnMut(BlockId, &'a [Item], &[LoopHeader]) -> Result<(), E>,
    ) -> Result<(), E> {
        fn walk<'a, E>(
            items: &'a [Item],
            loops: &mut Vec<LoopHeader>,
            next: &mut u32,
            f: &mut impl FnMut(BlockId, &'a [Item], &[LoopHeader]) -> Result<(), E>,
        ) -> Result<(), E> {
            let mut nested = items.iter().filter_map(|item| match item {
                Item::Loop(l) => Some(l),
                Item::Stmt(_) => None,
            });
            for run in items.split(|item| matches!(item, Item::Loop(_))) {
                if !run.is_empty() {
                    f(BlockId(*next), run, loops)?;
                    *next += 1;
                }
                if let Some(l) = nested.next() {
                    loops.push(l.header);
                    walk(&l.body, loops, next, f)?;
                    loops.pop();
                }
            }
            Ok(())
        }
        walk(&self.items, &mut Vec::new(), &mut 0, &mut f)
    }

    /// Applies `f` to every statement in the program, in DFS order.
    pub fn for_each_stmt_mut<F: FnMut(&mut Statement)>(&mut self, mut f: F) {
        fn walk<F: FnMut(&mut Statement)>(items: &mut [Item], f: &mut F) {
            for item in items {
                match item {
                    Item::Stmt(s) => f(s),
                    Item::Loop(l) => walk(&mut l.body, f),
                }
            }
        }
        walk(&mut self.items, &mut f);
    }

    /// Applies `f` to every statement in the program, in DFS order.
    pub fn for_each_stmt<F: FnMut(&Statement)>(&self, mut f: F) {
        fn walk<F: FnMut(&Statement)>(items: &[Item], f: &mut F) {
            for item in items {
                match item {
                    Item::Stmt(s) => f(s),
                    Item::Loop(l) => walk(&l.body, f),
                }
            }
        }
        walk(&self.items, &mut f);
    }

    /// Total number of statements.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.for_each_stmt(|_| n += 1);
        n
    }

    /// For every scalar, whether it is *upward exposed* in some basic
    /// block: read before any write within that block.
    ///
    /// A scalar that is never upward exposed is a pure block-local
    /// temporary — every read is preceded by a write in its own block, so
    /// the value never crosses a block (or loop-iteration) boundary and
    /// the code generator may keep it in a register without ever touching
    /// its memory home. Upward-exposed scalars (parameters, accumulators,
    /// loop-carried values) are memory-resident.
    pub fn upward_exposed_scalars(&self) -> Vec<bool> {
        // Walks the item tree in place: a block is a run of statements
        // between loops, so `written` restarts at each body and after
        // each loop.
        fn walk(items: &[Item], exposed: &mut [bool], written: &mut [bool]) {
            written.fill(false);
            for item in items {
                match item {
                    Item::Stmt(s) => {
                        for v in s.uses().into_iter().filter_map(Operand::as_scalar) {
                            exposed[v.index()] |= !written[v.index()];
                        }
                        if let Dest::Scalar(v) = s.dest() {
                            written[v.index()] = true;
                        }
                    }
                    Item::Loop(l) => {
                        walk(&l.body, exposed, written);
                        written.fill(false);
                    }
                }
            }
        }
        let n = self.scalars.len();
        let mut exposed = vec![false; n];
        walk(&self.items, &mut exposed, &mut vec![false; n]);
        exposed
    }

    /// Whether array `a` is only ever read (never a store destination).
    ///
    /// §5.2 restricts mapping/replication to read-only array references.
    pub fn array_is_read_only(&self, a: ArrayId) -> bool {
        let mut written = false;
        self.for_each_stmt(|s| {
            if let Dest::Array(r) = s.dest() {
                if r.array == a {
                    written = true;
                }
            }
        });
        !written
    }

    /// Renders an operand with source-level names.
    pub fn show_operand(&self, op: &Operand) -> String {
        match op {
            Operand::Scalar(v) => self.scalar(*v).name.clone(),
            Operand::Array(r) => format!("{}{}", self.array(r.array).name, r.access),
            Operand::Const(c) => c.to_string(),
        }
    }

    /// Renders a statement with source-level names.
    pub fn show_stmt(&self, s: &Statement) -> String {
        let dest = self.show_operand(&s.dest().as_operand());
        let mut out = format!("{}: {dest} = ", s.id());
        let _ = write_expr(&mut out, s.expr(), |o| self.show_operand(o));
        out
    }
}

impl TypeEnv for Program {
    fn scalar_type(&self, v: VarId) -> ScalarType {
        self.scalars[v.index()].ty
    }
    fn array_type(&self, a: ArrayId) -> ScalarType {
        self.arrays[a.index()].ty
    }
}

/// The program as `slp-lang` source text, [`Program::to_source`].
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{AccessVector, AffineExpr};
    use crate::expr::{ArrayRef, BinOp};

    fn sample() -> Program {
        // kernel t { array A: f64[16]; scalar x;
        //   x = 1.0;
        //   for i in 0..8 { A[2i] = x + A[2i+1]; }
        //   x = x * 2.0; }
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![16], true);
        let x = p.add_scalar("x", ScalarType::F64);
        let i = p.add_loop_var("i");
        p.push_stmt(x.into(), Expr::Copy(1.0.into()));
        let body_stmt = p.make_stmt(
            ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i).scaled(2)])).into(),
            Expr::Binary(
                BinOp::Add,
                x.into(),
                ArrayRef::new(
                    a,
                    AccessVector::new(vec![AffineExpr::var(i).scaled(2).offset(1)]),
                )
                .into(),
            ),
        );
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(body_stmt)],
        }));
        p.push_stmt(x.into(), Expr::Binary(BinOp::Mul, x.into(), 2.0.into()));
        p
    }

    #[test]
    fn block_extraction_partitions_statements() {
        let p = sample();
        let blocks = p.blocks();
        // Pre-loop block, loop body block, post-loop block.
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].loops.len(), 0);
        assert_eq!(blocks[1].loops.len(), 1);
        assert_eq!(blocks[1].block.len(), 1);
        assert_eq!(blocks[2].loops.len(), 0);
        // Ids are dense DFS order.
        assert_eq!(blocks.iter().map(|b| b.id.0).collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn stmt_ids_are_unique() {
        let p = sample();
        let mut ids = Vec::new();
        p.for_each_stmt(|s| ids.push(s.id()));
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
        assert_eq!(p.stmt_count(), 3);
    }

    #[test]
    fn upward_exposed_classification() {
        // x = 1.0 (block 0); loop { A[2i] = x + A[2i+1] } (block 1);
        // x = x * 2.0 (block 2). x is read in blocks 1 and 2 without a
        // preceding write there: exposed.
        let p = sample();
        let exposed = p.upward_exposed_scalars();
        assert!(exposed[0], "x crosses block boundaries");

        // t = A[i]; A[i] = t * 2  -> t is written before read: a temp.
        let mut q = Program::new("t");
        let a = q.add_array("A", ScalarType::F64, vec![8], true);
        let t = q.add_scalar("t", ScalarType::F64);
        let i = q.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s1 = q.make_stmt(t.into(), Expr::Copy(r.clone().into()));
        let s2 = q.make_stmt(r.into(), Expr::Binary(BinOp::Mul, t.into(), 2.0.into()));
        q.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(s1), Item::Stmt(s2)],
        }));
        assert_eq!(q.upward_exposed_scalars(), vec![false]);
    }

    #[test]
    fn read_only_detection() {
        let p = sample();
        // A is written inside the loop.
        assert!(!p.array_is_read_only(ArrayId::new(0)));
        let mut q = Program::new("q");
        let b = q.add_array("B", ScalarType::F64, vec![4], true);
        let y = q.add_scalar("y", ScalarType::F64);
        q.push_stmt(
            y.into(),
            Expr::Copy(
                ArrayRef::new(b, AccessVector::new(vec![AffineExpr::constant_expr(0)])).into(),
            ),
        );
        assert!(q.array_is_read_only(b));
    }

    #[test]
    fn trip_count() {
        let h = LoopHeader {
            var: LoopVarId::new(0),
            lower: 0,
            upper: 10,
            step: 4,
        };
        assert_eq!(h.trip_count(), 3); // 0,4,8
        let empty = LoopHeader {
            var: LoopVarId::new(0),
            lower: 5,
            upper: 5,
            step: 1,
        };
        assert_eq!(empty.trip_count(), 0);
    }

    #[test]
    fn trip_count_saturates_on_pathological_bounds() {
        let h = LoopHeader {
            var: LoopVarId::new(0),
            lower: i64::MIN,
            upper: i64::MAX,
            step: 1,
        };
        assert_eq!(h.trip_count(), i64::MAX);
        let neg = LoopHeader {
            var: LoopVarId::new(0),
            lower: i64::MAX,
            upper: i64::MIN,
            step: 3,
        };
        assert_eq!(neg.trip_count(), 0);
    }

    #[test]
    fn array_len_saturates() {
        let a = ArrayInfo {
            name: "A".into(),
            ty: ScalarType::F64,
            dims: vec![i64::MAX, 4],
            is_input: false,
        };
        assert_eq!(a.len(), i64::MAX);
    }

    #[test]
    fn linearize_row_major() {
        let a = ArrayInfo {
            name: "A".into(),
            ty: ScalarType::F64,
            dims: vec![3, 4],
            is_input: false,
        };
        assert_eq!(a.len(), 12);
        let (i, j) = (LoopVarId::new(0), LoopVarId::new(1));
        let at = |r: i64, c: i64| {
            let access = AccessVector::new(vec![AffineExpr::var(i), AffineExpr::var(j)]);
            a.offset_of(&access, &[(i, r), (j, c)])
        };
        assert_eq!(at(0, 0), Some(0));
        assert_eq!(at(1, 0), Some(4));
        assert_eq!(at(2, 3), Some(11));
        assert_eq!(at(3, 0), None);
        assert_eq!(at(0, -1), None);
        assert!(a.in_bounds(&[2, 3]));
        assert!(!a.in_bounds(&[3, 0]));
        assert!(!a.in_bounds(&[0, -1]));
    }

    #[test]
    fn display_renders_names() {
        let p = sample();
        let text = p.to_string();
        assert_eq!(text, p.to_source());
        assert!(text.contains("array A: f64[16];"));
        assert!(text.contains("for i in 0..8 {"));
        assert!(text.contains("A[2*i] = x + A[2*i+1];"));
    }

    #[test]
    fn show_stmt_writes_min_and_max_as_calls() {
        let mut p = sample();
        let x = VarId::new(0);
        for (op, shown) in [(BinOp::Min, "min(x, 1)"), (BinOp::Max, "max(x, 1)")] {
            let s = p.make_stmt(x.into(), Expr::Binary(op, x.into(), 1.0.into()));
            assert_eq!(p.show_stmt(&s), format!("{}: x = {shown}", s.id()));
        }
    }
}
