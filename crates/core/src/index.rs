//! The per-block index grouping, scheduling and the emission walk share.
//!
//! All three walk a block's statements by [`StmtId`] and compare operand
//! identities in their innermost loops. [`BlockIndex`] is built once
//! beside the block's `BlockDeps` and makes both a table lookup: a
//! statement id resolves to its block position without scanning the
//! block, and every destination and operand is interned to a small
//! integer key. Keys are numbered in [`Loc`] order, so two operands name
//! the same data exactly when their keys are equal, and a sorted key
//! vector is a pack's order-insensitive content (the tests specify both
//! against the owned `OperandKey`/`PackContent` of `key.rs`). Per
//! statement the index also holds what candidate identification asks of
//! every pair: the isomorphism class and the lane cap.

use slp_ir::{
    ArrayRef, BasicBlock, Dest, Operand, ScalarType, Statement, StmtId, StmtPositions, TypeEnv,
    VarId,
};

use crate::unit::PackPos;

/// What an interned key names, in key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Loc<'b> {
    /// A scalar variable.
    Scalar(VarId),
    /// An array element.
    Array(&'b ArrayRef),
    /// A constant, by bit pattern.
    Const(u64),
}

impl<'b> Loc<'b> {
    /// The array element named, if one is.
    pub fn as_array(self) -> Option<&'b ArrayRef> {
        match self {
            Loc::Array(r) => Some(r),
            _ => None,
        }
    }
}

/// Position, operand-key, isomorphism-class and lane-cap tables of one
/// basic block.
#[derive(Debug, Clone)]
pub struct BlockIndex<'b> {
    block: &'b BasicBlock,
    pos: StmtPositions,
    /// Key → what it names, ascending.
    locs: Vec<Loc<'b>>,
    /// Position by position: the destination's key, then the operands'.
    keys: Vec<u32>,
    /// Per block position: where its keys start (and, last, their count).
    first_key: Vec<usize>,
    /// Per block position: equal exactly for isomorphic statements.
    class: Vec<u32>,
    /// Per key: for an array element, one more than its array's index and
    /// the class of its array and subscripts' linear part; `(0, 0)` for
    /// anything else.
    alias: Vec<(u32, u32)>,
    /// Per block position: the destination's element type.
    dest_type: Vec<ScalarType>,
    /// Per block position: the widest group the statement may join.
    lane_cap: Vec<usize>,
}

/// What `stmt` names: its destination, then its operands.
pub(crate) fn locs_of(stmt: &Statement) -> impl Iterator<Item = Loc<'_>> {
    let dest = match stmt.dest() {
        Dest::Scalar(v) => Loc::Scalar(*v),
        Dest::Array(r) => Loc::Array(r),
    };
    let operands = stmt.expr().operands().into_iter().map(|op| match op {
        Operand::Scalar(v) => Loc::Scalar(*v),
        Operand::Array(r) => Loc::Array(r),
        Operand::Const(c) => Loc::Const(c.to_bits()),
    });
    std::iter::once(dest).chain(operands)
}

impl<'b> BlockIndex<'b> {
    /// Indexes `block`. `lane_cap` is the §4.1 constraint 4 datapath
    /// bound: how many elements of a statement's destination type fit
    /// the target's vector register.
    pub fn new<E: TypeEnv>(
        block: &'b BasicBlock,
        env: &E,
        lane_cap: impl Fn(ScalarType) -> usize,
    ) -> Self {
        // Every destination and operand slot with its place in `keys`;
        // sorted, equal locations are neighbours and ranks ascend.
        let (mut slots, mut first_key) = (Vec::new(), Vec::with_capacity(block.len() + 1));
        for stmt in block {
            first_key.push(slots.len());
            for loc in locs_of(stmt) {
                slots.push((loc, slots.len()));
            }
        }
        first_key.push(slots.len());
        slots.sort_unstable();
        let (mut locs, mut keys) = (Vec::new(), vec![0; slots.len()]);
        for (loc, slot) in slots {
            if locs.last() != Some(&loc) {
                locs.push(loc);
            }
            keys[slot] = (locs.len() - 1) as u32;
        }
        // One class per array and linear part, found as the isomorphism
        // classes below are.
        let mut parts: Vec<&ArrayRef> = Vec::new();
        let alias = (locs.iter())
            .map(|loc| {
                let Loc::Array(r) = *loc else {
                    return (0, 0);
                };
                let same = |part: &&ArrayRef| {
                    part.array == r.array && part.access.same_linear_part(&r.access)
                };
                let class = parts.iter().position(same).unwrap_or_else(|| {
                    parts.push(r);
                    parts.len() - 1
                });
                (r.array.index() as u32 + 1, class as u32)
            })
            .collect();
        // `Statement::isomorphic` is equality of a signature, so comparing
        // with one representative per class settles the class.
        let mut firsts: Vec<&Statement> = Vec::new();
        let class = (block.iter())
            .map(|s| {
                let known = firsts.iter().position(|f| f.isomorphic(s, env));
                known.unwrap_or_else(|| {
                    firsts.push(s);
                    firsts.len() - 1
                }) as u32
            })
            .collect();
        let dest_type: Vec<ScalarType> = (block.iter()).map(|s| env.dest_type(s.dest())).collect();
        let lane_cap = dest_type.iter().map(|&ty| lane_cap(ty)).collect();
        BlockIndex {
            block,
            pos: block.positions(),
            locs,
            keys,
            first_key,
            class,
            alias,
            dest_type,
            lane_cap,
        }
    }

    /// The indexed block.
    pub fn block(&self) -> &'b BasicBlock {
        self.block
    }

    /// The block position of statement `id`; panics if the indexed block
    /// has no such statement.
    pub fn position(&self, id: StmtId) -> usize {
        self.pos.of(id)
    }

    /// The statement at block position `p`.
    pub fn stmt_at(&self, p: usize) -> &'b Statement {
        &self.block.stmts()[p]
    }

    /// The isomorphism class of the statement at position `p`.
    pub fn class(&self, p: usize) -> u32 {
        self.class[p]
    }

    /// The destination element type of the statement at position `p`.
    pub fn dest_type(&self, p: usize) -> ScalarType {
        self.dest_type[p]
    }

    /// The lane cap of the statement at position `p`.
    pub fn lane_cap(&self, p: usize) -> usize {
        self.lane_cap[p]
    }

    /// The keys of the statement at position `p`: the destination's, then
    /// the operands' in order.
    pub fn keys_at(&self, p: usize) -> &[u32] {
        &self.keys[self.first_key[p]..self.first_key[p + 1]]
    }

    /// The key at pack position `slot` of the statement at position `p`.
    pub fn key(&self, p: usize, slot: PackPos) -> u32 {
        match slot {
            PackPos::Dest => self.keys_at(p)[0],
            PackPos::Operand(k) => self.keys_at(p)[k + 1],
        }
    }

    /// The keys at pack position `slot` of the statements at `order`.
    pub fn keys<'a>(
        &'a self,
        order: &'a [usize],
        slot: PackPos,
    ) -> impl ExactSizeIterator<Item = u32> + 'a {
        order.iter().map(move |&p| self.key(p, slot))
    }

    /// The pack positions at which the statements at `lanes` form
    /// location packs: the destination, and every operand position free
    /// of constants (those are materialized once and free thereafter).
    pub(crate) fn pack_positions<'a>(
        &'a self,
        lanes: &'a [usize],
    ) -> impl Iterator<Item = PackPos> + 'a {
        let arity = self.keys_at(lanes[0]).len() - 1;
        let located = move |&slot: &PackPos| {
            (lanes.iter()).all(|&p| !matches!(self.loc(self.key(p, slot)), Loc::Const(_)))
        };
        std::iter::once(PackPos::Dest).chain((0..arity).map(PackPos::Operand).filter(located))
    }

    /// What `key` names.
    pub fn loc(&self, key: u32) -> Loc<'b> {
        self.locs[key as usize]
    }

    /// Every statement pair `(p, q)`, as block positions, where `p`
    /// references the array element one below (one less in the last
    /// subscript, equal in every other) the one `q` references at the same
    /// slot: the destination or one operand position. Sorted by (alias
    /// class, key), the references of one class ascend by their
    /// subscripts' constant parts, so the element one past a key's is the
    /// next key of its class, if any.
    pub(crate) fn adjacent_refs(&self) -> Vec<(usize, usize)> {
        let mut refs = Vec::with_capacity(self.keys.len());
        for p in 0..self.block.len() {
            for (slot, &k) in self.keys_at(p).iter().enumerate() {
                if self.alias[k as usize].0 != 0 {
                    refs.push((self.alias[k as usize], k, slot, p));
                }
            }
        }
        refs.sort_unstable();
        let one_past = |a: u32, b: u32| {
            let (Loc::Array(x), Loc::Array(y)) = (self.loc(a), self.loc(b)) else {
                return false;
            };
            let last = x.access.rank() - 1;
            (x.access.constant_difference(&y.access))
                .is_some_and(|diff| diff.enumerate().all(|(dim, d)| d == i64::from(dim == last)))
        };
        let run = |at: usize| at + refs[at..].partition_point(|r| r.1 == refs[at].1);
        let mut pairs = Vec::new();
        let (mut low, mut high) = (0, refs.first().map_or(0, |_| run(0)));
        while high < refs.len() {
            let end = run(high);
            let (a, b) = (&refs[low], &refs[high]);
            if a.0 == b.0 && one_past(a.1, b.1) {
                for &(_, _, slot, p) in &refs[low..high] {
                    let above = refs[high..end].iter().filter(|r| r.2 == slot);
                    pairs.extend(above.map(|r| (p, r.3)));
                }
            }
            (low, high) = (high, end);
        }
        pairs
    }

    /// Whether a write to the destination key `written` may change the
    /// data `key` names: the same location, or a possibly aliasing one.
    /// Distinct arrays never alias (the IR has no pointers). Two elements
    /// of one array whose subscripts share the linear part are apart by a
    /// constant — zero only for the same key — and any others are
    /// conservatively assumed to meet.
    pub fn overlaps(&self, written: u32, key: u32) -> bool {
        let (w, k) = (self.alias[written as usize], self.alias[key as usize]);
        written == key || (w.0 != 0 && w.0 == k.0 && w.1 != k.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::OperandKey;
    use slp_ir::Program;

    fn program() -> Program {
        slp_lang::compile(
            "kernel k { array A: f64[64]; array B: f64[64]; scalar t: f64;
             for i in 0..16 { t = A[2*i] * 2.0; B[2*i] = t + A[2*i]; A[2*i+1] = t * 2.0; } }",
        )
        .unwrap()
    }

    #[test]
    fn positions_and_statements_match_the_block() {
        let p = program();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block, &p, |_| 2);
        for (at, stmt) in block.iter().enumerate() {
            assert_eq!(ix.position(stmt.id()), at);
            assert_eq!(ix.stmt_at(at).id(), stmt.id());
        }
    }

    #[test]
    fn key_order_is_operand_key_order() {
        let p = program();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block, &p, |_| 2);
        let mut all: Vec<(u32, OperandKey)> = Vec::new();
        for (at, stmt) in block.iter().enumerate() {
            all.push((ix.key(at, PackPos::Dest), OperandKey::of(&stmt.def())));
            for (k, op) in stmt.expr().operands().into_iter().enumerate() {
                all.push((ix.key(at, PackPos::Operand(k)), OperandKey::of(op)));
            }
        }
        // Scalars, array elements and constants all occur, so every
        // variant boundary of the order is crossed.
        for (ka, a) in &all {
            for (kb, b) in &all {
                assert_eq!(ka.cmp(kb), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn classes_are_isomorphism_and_caps_follow_the_destination_type() {
        let p = slp_lang::compile(
            "kernel k { array A: f64[64]; array F: f32[64]; scalar t, u: f64;
             for i in 0..16 { t = A[i] * 2.0; u = A[i+1] * 3.0; F[i] = F[i] * 2.0; A[i] = t + u; } }",
        )
        .unwrap();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block, &p, |ty| 16 / ty.size_bytes() as usize);
        for (a, sa) in block.iter().enumerate() {
            for (b, sb) in block.iter().enumerate() {
                assert_eq!(ix.class(a) == ix.class(b), sa.isomorphic(sb, &p));
            }
        }
        let caps: Vec<usize> = (0..block.len()).map(|at| ix.lane_cap(at)).collect();
        assert_eq!(caps, [2, 2, 4, 2]);
    }

    #[test]
    fn constant_positions_form_no_location_pack() {
        let p = program();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block, &p, |_| 2);
        let slots = |at: usize| ix.pack_positions(&[at]).collect::<Vec<_>>();
        assert_eq!(slots(0), [PackPos::Dest, PackPos::Operand(0)]);
        assert_eq!(
            slots(1),
            [PackPos::Dest, PackPos::Operand(0), PackPos::Operand(1)]
        );
    }

    #[test]
    fn a_write_overlaps_its_own_location_and_possible_aliases() {
        let p = program();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block, &p, |_| 2);
        let dest = |at| ix.key(at, PackPos::Dest);
        let (t, b, a1) = (dest(0), dest(1), dest(2));
        let a0 = ix.key(0, PackPos::Operand(0));
        assert!(ix.overlaps(t, t) && ix.overlaps(a1, a1));
        assert!(!ix.overlaps(t, b) && !ix.overlaps(b, a0));
        // A[2i+1] and A[2i] share the linear part and differ by one.
        assert!(!ix.overlaps(a1, a0));
    }

    /// The alias rule row by row, on references a frontend would not put
    /// in one block: `t = <ref>` per reference, all over array 0 but the
    /// last.
    #[test]
    fn alias_classes_follow_the_per_dimension_constant_differences() {
        use slp_ir::{AccessVector, AffineExpr, ArrayId, Expr};
        let mut p = Program::new("alias");
        let t = p.add_scalar("t", ScalarType::F64);
        let (i, j) = (p.add_loop_var("i"), p.add_loop_var("j"));
        for name in ["A", "B"] {
            p.add_array(name, ScalarType::F64, vec![64, 64], false);
        }
        let (i, j) = (AffineExpr::var(i), AffineExpr::var(j));
        let refs = [
            (0, vec![i.clone(), j.clone()]),
            (0, vec![i.clone(), j.offset(1)]),
            (0, vec![i.offset(1), j.clone()]),
            (0, vec![i.scaled(2), j.offset(1)]),
            (0, vec![i.clone()]),
            (1, vec![i.clone(), j.clone()]),
        ];
        let block: BasicBlock = (refs.into_iter())
            .map(|(array, dims)| {
                let r = ArrayRef::new(ArrayId::new(array), AccessVector::new(dims));
                p.make_stmt(t.into(), Expr::Copy(r.into()))
            })
            .collect();
        let ix = BlockIndex::new(&block, &p, |_| 2);
        let overlaps = |a, b| {
            let (a, b) = (
                ix.key(a, PackPos::Operand(0)),
                ix.key(b, PackPos::Operand(0)),
            );
            assert_eq!(ix.overlaps(a, b), ix.overlaps(b, a));
            ix.overlaps(a, b)
        };
        // Same linear part: one zero and one non-zero difference, either way.
        assert!(overlaps(0, 0) && !overlaps(0, 1) && !overlaps(0, 2) && !overlaps(1, 2));
        // A differing linear part in one dimension outweighs a non-zero
        // difference in another; so does a rank mismatch.
        assert!(overlaps(3, 0) && overlaps(3, 1) && overlaps(3, 2));
        assert!(overlaps(4, 0) && overlaps(4, 1) && overlaps(4, 3));
        // Another array, the same subscripts.
        assert!((0..5).all(|a| !overlaps(5, a)) && overlaps(5, 5));
    }
}
