//! Canonical keys for operands and variable packs.
//!
//! The grouping phase treats a variable pack as *unordered*: "we do not
//! consider the ordering of the variables in a variable pack at this step"
//! (§4.2.1). Two packs with the same operand multiset are therefore the
//! same superword for reuse purposes — even if later scheduling orders them
//! differently, reuse only costs a register permutation, not memory
//! traffic. [`PackContent`] is that order-insensitive identity.
//!
//! Test-only: production code works on [`BlockIndex`](crate::BlockIndex)'s
//! interned keys, and the `weight.rs` and `index.rs` tests check those
//! against the owned forms here.

use std::fmt;

use slp_ir::{AccessVector, ArrayId, Operand, VarId};

/// A totally ordered, hashable identity for an operand.
///
/// Constants are keyed by their IEEE-754 bit pattern, giving a total order
/// without violating `Eq` for NaN payloads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum OperandKey {
    /// A scalar variable.
    Scalar(VarId),
    /// An array element.
    Array(ArrayId, AccessVector),
    /// A constant, keyed by bit pattern.
    Const(u64),
}

impl OperandKey {
    /// The canonical key of an operand.
    pub(crate) fn of(op: &Operand) -> OperandKey {
        match op {
            Operand::Scalar(v) => OperandKey::Scalar(*v),
            Operand::Array(r) => OperandKey::Array(r.array, r.access.clone()),
            Operand::Const(c) => OperandKey::Const(c.to_bits()),
        }
    }
}

impl fmt::Display for OperandKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandKey::Scalar(v) => write!(f, "{v}"),
            OperandKey::Array(a, acc) => write!(f, "{a}{acc}"),
            OperandKey::Const(bits) => write!(f, "{}", f64::from_bits(*bits)),
        }
    }
}

/// The order-insensitive identity of a variable pack: the sorted multiset
/// of its operand keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct PackContent {
    keys: Vec<OperandKey>,
}

impl PackContent {
    /// Builds the content key from operands (any iteration order).
    pub(crate) fn new<'a, I: IntoIterator<Item = &'a Operand>>(ops: I) -> Self {
        let mut keys: Vec<OperandKey> = ops.into_iter().map(OperandKey::of).collect();
        keys.sort();
        PackContent { keys }
    }

    /// Number of lanes in the pack.
    pub(crate) fn width(&self) -> usize {
        self.keys.len()
    }

    /// Whether every lane of the pack is an array reference.
    pub(crate) fn is_all_array(&self) -> bool {
        self.keys.iter().all(|k| matches!(k, OperandKey::Array(..)))
    }
}

impl fmt::Display for PackContent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, k) in self.keys.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{AccessVector, AffineExpr, ArrayRef, LoopVarId};

    fn arr(cst: i64) -> Operand {
        ArrayRef::new(
            ArrayId::new(0),
            AccessVector::new(vec![AffineExpr::var(LoopVarId::new(0)).offset(cst)]),
        )
        .into()
    }

    #[test]
    fn content_ignores_order() {
        let a = arr(0);
        let b = arr(1);
        assert_eq!(PackContent::new([&a, &b]), PackContent::new([&b, &a]));
        assert_ne!(PackContent::new([&a, &a]), PackContent::new([&a, &b]));
    }

    #[test]
    fn content_is_a_multiset() {
        let a = arr(0);
        // {a, a} has width 2 and differs from {a}.
        let double = PackContent::new([&a, &a]);
        let single = PackContent::new([&a]);
        assert_eq!(double.width(), 2);
        assert_ne!(double, single);
    }

    #[test]
    fn const_keys_by_bits() {
        let a = OperandKey::of(&Operand::Const(0.5));
        let b = OperandKey::of(&Operand::Const(0.5));
        let c = OperandKey::of(&Operand::Const(-0.5));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_is_braced() {
        let v1: Operand = VarId::new(1).into();
        let v2: Operand = VarId::new(2).into();
        assert_eq!(PackContent::new([&v1, &v2]).to_string(), "{v1,v2}");
    }
}
