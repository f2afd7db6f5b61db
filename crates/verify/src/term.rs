//! The hash-consed term arena: uninterpreted value graphs.
//!
//! Every value a kernel computes is a term over *uninterpreted*
//! operators: `Add(a, b)` is a formal application equal only to
//! `Add(a, b)` itself — never to `Add(b, a)`, with no reassociation and
//! no commutativity. That is exactly the theory under which SLP is
//! sound: unrolling, grouping, scheduling and layout replication move
//! and duplicate computations but never rewrite them, so a correct
//! transformation preserves every observable value graph syntactically.
//!
//! Structurally equal terms share one [`TermId`], so graph equality is
//! one integer comparison and memory follows the number of *distinct*
//! values. A [`Term`] is a few machine words and `Copy` — an operator's
//! operands sit inline — so it is its own interning key: interning
//! hashes it once, word by word, and allocates nothing but the arena
//! slot of a new id. Constant folding reads its operands into a stack
//! buffer.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use slp_ir::{ArrayId, ExprShape, ScalarType, VarId};

use crate::eval::EvalError;

/// An interned term. Equality of ids is structural equality of terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct TermId(u32);

impl TermId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the value graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Term {
    /// The initial (input) contents of one array cell, identified by the
    /// array and its row-major linear offset.
    Cell(ArrayId, i64),
    /// The initial (input) value of a scalar variable.
    Scalar(VarId),
    /// A floating-point constant, stored as bits so `NaN`s and signed
    /// zeros hash and compare exactly.
    Const(u64),
    /// An uninterpreted operator application: the shape, its operands
    /// in positional order (slots past the count repeat the first) and
    /// the operand count.
    Op(ExprShape, [TermId; 4], u8),
    /// Integer storage coercion (truncate-and-wrap) applied on store.
    /// Float coercions are the identity and never allocate a node.
    Coerce(ScalarType, TermId),
}

/// A word-at-a-time multiplicative hasher for keys of a few machine
/// words (terms, cells, statement ids), finished with SplitMix64's
/// avalanche so that keys differing in any bits — cell offsets in an
/// arithmetic progression of any stride, say — spread over every bucket.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

/// The per-word multiplier of [`WordHasher`].
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let x = u64::from_le_bytes(word);
            self.0 = self.0.wrapping_add(x).wrapping_mul(K);
        }
    }
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A hash map keyed through [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// The hash-consing arena.
#[derive(Debug)]
pub(crate) struct Arena {
    terms: Vec<Term>,
    interned: WordMap<Term, TermId>,
    max_terms: usize,
}

impl Arena {
    /// An empty arena capped at `max_terms` distinct terms.
    pub(crate) fn new(max_terms: usize) -> Self {
        Arena {
            terms: Vec::new(),
            interned: WordMap::default(),
            max_terms,
        }
    }

    /// Number of distinct terms interned so far.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    /// The term behind `id`.
    pub(crate) fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    fn intern(&mut self, t: Term) -> Result<TermId, EvalError> {
        let slot = match self.interned.entry(t) {
            Entry::Occupied(e) => return Ok(*e.get()),
            Entry::Vacant(slot) => slot,
        };
        if self.terms.len() >= self.max_terms {
            let max = self.max_terms;
            return Err(EvalError::Budget(format!(
                "term arena exceeded {max} distinct terms"
            )));
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t);
        Ok(*slot.insert(id))
    }

    /// The input term of array cell `(a, offset)`.
    pub(crate) fn cell(&mut self, a: ArrayId, offset: i64) -> Result<TermId, EvalError> {
        self.intern(Term::Cell(a, offset))
    }

    /// The input term of scalar `v`.
    pub(crate) fn scalar(&mut self, v: VarId) -> Result<TermId, EvalError> {
        self.intern(Term::Scalar(v))
    }

    /// The constant term of `c` (interned by bit pattern).
    pub(crate) fn constant(&mut self, c: f64) -> Result<TermId, EvalError> {
        self.intern(Term::Const(c.to_bits()))
    }

    /// Applies `shape` to the (one to four) operand terms `args`.
    ///
    /// `Copy` is the identity (both engines implement it as `vals[0]`),
    /// and an application whose operands are all constants folds through
    /// [`ExprShape::apply`]: the function the reference engine evaluates
    /// with, built from the per-lane functions the bytecode engine's lane
    /// loops call, so folding cannot diverge from execution. Everything
    /// else stays an uninterpreted application.
    pub(crate) fn op(&mut self, shape: ExprShape, args: &[TermId]) -> Result<TermId, EvalError> {
        if shape == ExprShape::Copy {
            return Ok(args[0]);
        }
        let mut vals = [0.0; 4];
        let folds = args
            .iter()
            .zip(&mut vals)
            .all(|(&a, v)| match self.term(a) {
                Term::Const(bits) => {
                    *v = f64::from_bits(*bits);
                    true
                }
                _ => false,
            });
        if folds {
            return self.constant(shape.apply(&vals[..args.len()]));
        }
        let mut ids = [args[0]; 4];
        ids[..args.len()].copy_from_slice(args);
        self.intern(Term::Op(shape, ids, args.len() as u8))
    }

    /// The storage coercion of `t` to element type `ty`.
    ///
    /// Floats pass through unchanged (the VM models `f32` storage at
    /// `f64` precision), re-coercing to the same integer type is the
    /// identity (truncate-and-wrap is idempotent), and coercing a
    /// constant folds to the coerced constant.
    pub(crate) fn coerce(&mut self, ty: ScalarType, t: TermId) -> Result<TermId, EvalError> {
        if ty.is_float() {
            return Ok(t);
        }
        match *self.term(t) {
            Term::Const(bits) => self.constant(ty.coerce(f64::from_bits(bits))),
            Term::Coerce(t2, _) if t2 == ty => Ok(t),
            _ => self.intern(Term::Coerce(ty, t)),
        }
    }

    /// Collects the distinct input leaves ([`Term::Cell`] and
    /// [`Term::Scalar`]) reachable from `roots`, in first-visit order.
    pub(crate) fn leaves(&self, roots: &[TermId]) -> Vec<Term> {
        let mut seen = vec![false; self.terms.len()];
        let mut stack: Vec<TermId> = roots.to_vec();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            match *self.term(id) {
                t @ (Term::Cell(_, _) | Term::Scalar(_)) => out.push(t),
                Term::Const(_) => {}
                Term::Op(_, args, n) => stack.extend_from_slice(&args[..n as usize]),
                Term::Coerce(_, inner) => stack.push(inner),
            }
        }
        out
    }

    /// Concretely evaluates `root` under an assignment of values to input
    /// leaves, memoized over the arena. Leaves missing from `assign` read
    /// as `0.0` (callers assign every leaf of the terms they evaluate).
    pub(crate) fn eval(&self, root: TermId, assign: &HashMap<Term, f64>) -> f64 {
        let mut memo: HashMap<TermId, f64> = HashMap::new();
        self.eval_memo(root, assign, &mut memo)
    }

    fn eval_memo(
        &self,
        id: TermId,
        assign: &HashMap<Term, f64>,
        memo: &mut HashMap<TermId, f64>,
    ) -> f64 {
        if let Some(&v) = memo.get(&id) {
            return v;
        }
        let v = match *self.term(id) {
            t @ (Term::Cell(_, _) | Term::Scalar(_)) => assign.get(&t).copied().unwrap_or(0.0),
            Term::Const(bits) => f64::from_bits(bits),
            Term::Op(shape, args, n) => {
                let mut vals = [0.0; 4];
                for (v, &a) in vals.iter_mut().zip(&args[..n as usize]) {
                    *v = self.eval_memo(a, assign, memo);
                }
                shape.apply(&vals[..n as usize])
            }
            Term::Coerce(ty, inner) => ty.coerce(self.eval_memo(inner, assign, memo)),
        };
        memo.insert(id, v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::BinOp;

    #[test]
    fn hash_consing_shares_structurally_equal_terms() {
        let mut ar = Arena::new(1 << 10);
        let a = ar.cell(ArrayId::new(0), 3).unwrap();
        let b = ar.cell(ArrayId::new(0), 3).unwrap();
        assert_eq!(a, b);
        let x = ar.op(ExprShape::Binary(BinOp::Add), &[a, b]).unwrap();
        let y = ar.op(ExprShape::Binary(BinOp::Add), &[a, b]).unwrap();
        assert_eq!(x, y);
        assert_eq!(ar.len(), 2); // one leaf, one op
    }

    #[test]
    fn no_commutativity_or_reassociation() {
        let mut ar = Arena::new(1 << 10);
        let a = ar.cell(ArrayId::new(0), 0).unwrap();
        let b = ar.cell(ArrayId::new(0), 1).unwrap();
        let ab = ar.op(ExprShape::Binary(BinOp::Add), &[a, b]).unwrap();
        let ba = ar.op(ExprShape::Binary(BinOp::Add), &[b, a]).unwrap();
        assert_ne!(ab, ba, "Add(a,b) must stay distinct from Add(b,a)");
    }

    #[test]
    fn copy_is_identity_and_constants_fold() {
        let mut ar = Arena::new(1 << 10);
        let a = ar.cell(ArrayId::new(0), 0).unwrap();
        assert_eq!(ar.op(ExprShape::Copy, &[a]).unwrap(), a);
        let two = ar.constant(2.0).unwrap();
        let three = ar.constant(3.0).unwrap();
        let six = ar.op(ExprShape::Binary(BinOp::Mul), &[two, three]).unwrap();
        assert_eq!(ar.term(six), &Term::Const(6.0f64.to_bits()));
    }

    #[test]
    fn coercions_normalize() {
        let mut ar = Arena::new(1 << 10);
        let a = ar.cell(ArrayId::new(0), 0).unwrap();
        assert_eq!(ar.coerce(ScalarType::F64, a).unwrap(), a);
        assert_eq!(ar.coerce(ScalarType::F32, a).unwrap(), a);
        let c = ar.coerce(ScalarType::I32, a).unwrap();
        assert_ne!(c, a);
        assert_eq!(ar.coerce(ScalarType::I32, c).unwrap(), c, "idempotent");
        let v = ar.constant(3.9).unwrap();
        let cv = ar.coerce(ScalarType::I32, v).unwrap();
        assert_eq!(ar.term(cv), &Term::Const(3.0f64.to_bits()));
    }

    #[test]
    fn budget_is_enforced() {
        let mut ar = Arena::new(2);
        ar.cell(ArrayId::new(0), 0).unwrap();
        ar.cell(ArrayId::new(0), 1).unwrap();
        assert!(ar.cell(ArrayId::new(0), 2).is_err());
        // Re-interning an existing term still succeeds at the cap.
        assert!(ar.cell(ArrayId::new(0), 1).is_ok());
    }

    #[test]
    fn cell_progressions_spread_over_buckets() {
        // Before the final avalanche a cell's hash moves by `stride * K`
        // per element, so a stride of K⁻¹ (shifted) moved it by a power
        // of two and left the bucket bits and the tag fixed.
        use std::hash::BuildHasher;
        let mut inv = K;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(inv)));
        }
        assert_eq!(K.wrapping_mul(inv), 1);
        let build = BuildHasherDefault::<WordHasher>::default();
        for stride in [1, inv, inv << 20, inv << 38] {
            let hashes: Vec<u64> = (0..4096u64)
                .map(|i| {
                    build.hash_one(Term::Cell(ArrayId::new(0), (i.wrapping_mul(stride)) as i64))
                })
                .collect();
            let mut buckets: Vec<u64> = hashes.iter().map(|h| h & 0xfff).collect();
            let mut tags: Vec<u64> = hashes.iter().map(|h| h >> 57).collect();
            buckets.sort_unstable();
            buckets.dedup();
            tags.sort_unstable();
            tags.dedup();
            // 4 096 random keys fill ≈ 2 590 of 4 096 buckets and all 128 tags.
            assert!(
                buckets.len() > 2400,
                "stride {stride:#x}: {} buckets",
                buckets.len()
            );
            assert_eq!(tags.len(), 128, "stride {stride:#x}");
        }
    }

    #[test]
    fn leaves_and_concrete_eval() {
        let mut ar = Arena::new(1 << 10);
        let a = ar.cell(ArrayId::new(0), 0).unwrap();
        let s = ar.scalar(VarId::new(1)).unwrap();
        let sum = ar.op(ExprShape::Binary(BinOp::Add), &[a, s]).unwrap();
        let leaves = ar.leaves(&[sum]);
        assert_eq!(leaves.len(), 2);
        let mut assign = HashMap::new();
        assign.insert(Term::Cell(ArrayId::new(0), 0), 2.5);
        assign.insert(Term::Scalar(VarId::new(1)), 1.5);
        assert_eq!(ar.eval(sum, &assign), 4.0);
    }
}
