//! The per-block index the scheduler and the cost estimator share.
//!
//! Both walk a block's statements by [`StmtId`] and compare operand
//! identities (`slp_analysis::OperandKey`) in their innermost loops.
//! [`BlockIndex`] is built once beside the block's `BlockDeps` and makes
//! both a table lookup: a statement id resolves to its block position
//! without scanning the block, and every destination and operand is
//! interned to a small integer key. Two operands name the same data
//! exactly when their keys are equal; the keys' numeric order (first
//! appearance in the block) means nothing.

use std::collections::HashMap;

use slp_analysis::PackPos;
use slp_ir::{ArrayRef, BasicBlock, Dest, Operand, Statement, StmtId, VarId};

/// What an interned key names: the borrowed form of an `OperandKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Loc<'b> {
    Scalar(VarId),
    Array(&'b ArrayRef),
    /// A constant, by bit pattern.
    Const(u64),
}

impl<'b> Loc<'b> {
    pub(crate) fn as_array(self) -> Option<&'b ArrayRef> {
        match self {
            Loc::Array(r) => Some(r),
            _ => None,
        }
    }
}

/// `keys` ascending: what two permutations of one pack have in common.
pub(crate) fn sorted(keys: &[u32]) -> Vec<u32> {
    let mut keys = keys.to_vec();
    keys.sort_unstable();
    keys
}

/// Position and operand-key tables of one basic block.
#[derive(Debug, Clone)]
pub struct BlockIndex<'b> {
    block: &'b BasicBlock,
    pos: HashMap<StmtId, usize>,
    /// Key → what it names.
    locs: Vec<Loc<'b>>,
    /// Per block position: the destination's key, then the operands'.
    keys: Vec<Vec<u32>>,
}

impl<'b> BlockIndex<'b> {
    /// Indexes `block`.
    pub fn new(block: &'b BasicBlock) -> Self {
        let mut interned: HashMap<Loc<'b>, u32> = HashMap::new();
        let mut locs = Vec::new();
        let mut intern = |loc: Loc<'b>| {
            *interned.entry(loc).or_insert_with(|| {
                locs.push(loc);
                (locs.len() - 1) as u32
            })
        };
        let mut pos = HashMap::with_capacity(block.len());
        let mut keys = Vec::with_capacity(block.len());
        for (p, stmt) in block.iter().enumerate() {
            pos.insert(stmt.id(), p);
            let dest = match stmt.dest() {
                Dest::Scalar(v) => Loc::Scalar(*v),
                Dest::Array(r) => Loc::Array(r),
            };
            let operands = stmt.expr().operands().into_iter().map(|op| match op {
                Operand::Scalar(v) => Loc::Scalar(*v),
                Operand::Array(r) => Loc::Array(r),
                Operand::Const(c) => Loc::Const(c.to_bits()),
            });
            keys.push(
                std::iter::once(dest)
                    .chain(operands)
                    .map(&mut intern)
                    .collect(),
            );
        }
        BlockIndex {
            block,
            pos,
            locs,
            keys,
        }
    }

    /// The indexed block.
    pub fn block(&self) -> &'b BasicBlock {
        self.block
    }

    /// The block position of statement `id`; panics if the indexed block
    /// has no such statement.
    pub fn position(&self, id: StmtId) -> usize {
        *self.pos.get(&id).expect("stmt in block")
    }

    /// The statement at block position `p`.
    pub fn stmt_at(&self, p: usize) -> &'b Statement {
        &self.block.stmts()[p]
    }

    /// The key at pack position `slot` of the statement at position `p`.
    pub(crate) fn key(&self, p: usize, slot: PackPos) -> u32 {
        match slot {
            PackPos::Dest => self.keys[p][0],
            PackPos::Operand(k) => self.keys[p][k + 1],
        }
    }

    /// The keys at pack position `slot` of the statements at `order`.
    pub(crate) fn keys(&self, order: &[usize], slot: PackPos) -> Vec<u32> {
        order.iter().map(|&p| self.key(p, slot)).collect()
    }

    /// What `key` names.
    pub(crate) fn loc(&self, key: u32) -> Loc<'b> {
        self.locs[key as usize]
    }

    /// Whether a write to the destination key `written` may change the
    /// data `key` names: the same location, or a possibly aliasing one.
    pub(crate) fn overlaps(&self, written: u32, key: u32) -> bool {
        written == key
            || match (self.loc(written), self.loc(key)) {
                (Loc::Array(w), Loc::Array(r)) => w.may_alias(r),
                _ => false,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_analysis::OperandKey;
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
        let ix = BlockIndex::new(block);
        for (at, stmt) in block.iter().enumerate() {
            assert_eq!(ix.position(stmt.id()), at);
            assert_eq!(ix.stmt_at(at).id(), stmt.id());
        }
    }

    #[test]
    fn keys_are_equal_exactly_when_operand_keys_are() {
        let p = program();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block);
        let mut all: Vec<(u32, OperandKey)> = Vec::new();
        for (at, stmt) in block.iter().enumerate() {
            all.push((ix.key(at, PackPos::Dest), OperandKey::of(&stmt.def())));
            for (k, op) in stmt.expr().operands().into_iter().enumerate() {
                all.push((ix.key(at, PackPos::Operand(k)), OperandKey::of(op)));
            }
        }
        for (ka, a) in &all {
            for (kb, b) in &all {
                assert_eq!(ka == kb, a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn overlap_follows_may_alias() {
        let p = program();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block);
        let dest = |at| ix.key(at, PackPos::Dest);
        let (t, b, a1) = (dest(0), dest(1), dest(2));
        let a0 = ix.key(0, PackPos::Operand(0));
        assert!(ix.overlaps(t, t) && ix.overlaps(a1, a1));
        assert!(!ix.overlaps(t, b) && !ix.overlaps(b, a0));
        // A[2i+1] and A[2i] share the linear part and differ by one.
        assert!(!ix.overlaps(a1, a0));
    }
}
