//! Grouping units: atomic statement sets during (iterative) grouping.
//!
//! The basic grouping algorithm finds SIMD groups of size two; iterative
//! grouping (§4.2.2) then "treats each SIMD group as a new single
//! statement, and each variable pack as a new single variable" and re-runs
//! the basic algorithm. A [`Unit`] is that generalized statement: one or
//! more isomorphic, mutually independent statements handled atomically.

use std::fmt;
use std::sync::Arc;

use slp_ir::StmtId;

/// The operand position a variable pack was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PackPos {
    /// The destinations of the grouped statements.
    Dest,
    /// The `k`-th right-hand-side operand position.
    Operand(usize),
}

/// An atomic set of statements treated as one unit by the grouping
/// algorithm.
///
/// The statements are shared, not copied, by a clone: the exact solver
/// makes every search state's partition from its parent's units.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Unit {
    stmts: Arc<[StmtId]>,
}

impl Unit {
    /// A unit holding a single statement (round one of grouping).
    pub fn singleton(s: StmtId) -> Self {
        Unit {
            stmts: Arc::new([s]),
        }
    }

    /// Merges two units into one (a grouping decision).
    pub fn merged(a: &Unit, b: &Unit) -> Self {
        Unit {
            stmts: a.stmts.iter().chain(b.stmts.iter()).copied().collect(),
        }
    }

    /// The member statements (in discovery order, not lane order).
    pub fn stmts(&self) -> &[StmtId] {
        &self.stmts
    }

    /// Number of member statements (= lanes this unit occupies).
    pub fn width(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the unit holds a single statement.
    pub(crate) fn is_singleton(&self) -> bool {
        self.stmts.len() == 1
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, s) in self.stmts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_display_lists_lanes() {
        let u = Unit::merged(
            &Unit::singleton(StmtId::new(0)),
            &Unit::singleton(StmtId::new(4)),
        );
        assert_eq!(u.to_string(), "<S0,S4>");
        assert_eq!(Unit::singleton(StmtId::new(7)).to_string(), "<S7>");
        assert_eq!((u.width(), u.is_singleton()), (2, false));
    }
}
