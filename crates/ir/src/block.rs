//! Basic blocks: straight-line statement sequences.
//!
//! The input to the SLP optimizer "is a set of basic blocks of a program"
//! (§3). After the pre-processing unrolls innermost loops, each unrolled
//! loop body is one basic block in which the optimizer looks for superword
//! statements.

use std::fmt;

use crate::ids::StmtId;
use crate::stmt::Statement;

/// A straight-line sequence of statements, `S = <S1, S2, ..., Sn>` in the
/// paper's notation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BasicBlock {
    stmts: Vec<Statement>,
}

impl BasicBlock {
    /// Creates an empty basic block.
    pub fn new() -> Self {
        BasicBlock::default()
    }

    /// Creates a block from a statement sequence.
    pub(crate) fn from_stmts(stmts: Vec<Statement>) -> Self {
        BasicBlock { stmts }
    }

    /// Appends a statement.
    pub fn push(&mut self, stmt: Statement) {
        self.stmts.push(stmt);
    }

    /// The statements in program order.
    pub fn stmts(&self) -> &[Statement] {
        &self.stmts
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the block has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Looks up a statement by id.
    pub fn stmt(&self, id: StmtId) -> Option<&Statement> {
        self.stmts.iter().find(|s| s.id() == id)
    }

    /// Iterates over the statements.
    pub fn iter(&self) -> std::slice::Iter<'_, Statement> {
        self.stmts.iter()
    }

    /// The id → position table of the block as it stands, for the
    /// analyses that resolve ids in their inner loops.
    pub fn positions(&self) -> StmtPositions {
        let mut by_id: Vec<_> = (self.stmts.iter().enumerate())
            .map(|(p, s)| (s.id(), p))
            .collect();
        by_id.sort_unstable();
        StmtPositions(by_id)
    }
}

/// Statement id → block position without scanning the block or hashing:
/// the `(id, position)` pairs sorted by id.
#[derive(Debug, Clone)]
pub struct StmtPositions(Vec<(StmtId, usize)>);

impl StmtPositions {
    /// The position of statement `id`; panics if the block has no such
    /// statement.
    pub fn of(&self, id: StmtId) -> usize {
        let slot = self.0.binary_search_by_key(&id, |&(i, _)| i);
        self.0[slot.expect("statement in the indexed block")].1
    }
}

impl<'a> IntoIterator for &'a BasicBlock {
    type Item = &'a Statement;
    type IntoIter = std::slice::Iter<'a, Statement>;

    fn into_iter(self) -> Self::IntoIter {
        self.stmts.iter()
    }
}

impl FromIterator<Statement> for BasicBlock {
    fn from_iter<T: IntoIterator<Item = Statement>>(iter: T) -> Self {
        BasicBlock {
            stmts: iter.into_iter().collect(),
        }
    }
}

impl Extend<Statement> for BasicBlock {
    fn extend<T: IntoIterator<Item = Statement>>(&mut self, iter: T) {
        self.stmts.extend(iter);
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stmts {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::ids::VarId;

    fn stmt(id: u32) -> Statement {
        Statement::new(
            StmtId::new(id),
            VarId::new(id).into(),
            Expr::Binary(BinOp::Add, VarId::new(id + 1).into(), 1.0.into()),
        )
    }

    #[test]
    fn push_and_lookup() {
        let mut bb = BasicBlock::new();
        assert!(bb.is_empty());
        bb.push(stmt(0));
        bb.push(stmt(1));
        assert_eq!(bb.len(), 2);
        assert_eq!(bb.stmt(StmtId::new(1)).unwrap().id(), StmtId::new(1));
        assert_eq!(bb.positions().of(StmtId::new(1)), 1);
    }

    #[test]
    fn collect_and_iterate() {
        let bb: BasicBlock = (0..3).map(stmt).collect();
        let ids: Vec<_> = bb.iter().map(|s| s.id().index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let ids2: Vec<_> = (&bb).into_iter().map(|s| s.id().index()).collect();
        assert_eq!(ids, ids2);
    }

    #[test]
    fn display_one_stmt_per_line() {
        let bb: BasicBlock = (0..2).map(stmt).collect();
        let text = bb.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("S0: v0 = v1 + 1"));
    }
}
