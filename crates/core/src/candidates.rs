//! Candidate group identification and conflict analysis (§4.2.1, steps
//! 1–2), over block positions: every test is a table lookup in the
//! block's [`BlockIndex`] or a bit of its `BlockDeps`.

use std::ops::Index;

use slp_ir::BlockDeps;

use crate::index::BlockIndex;
use crate::unit::Unit;

/// Each unit's statements as block positions, in the unit's order: unit
/// `u`'s are `lanes[u]`.
#[derive(Debug)]
pub(crate) struct Lanes {
    positions: Vec<usize>,
    start: Vec<usize>,
}

impl Lanes {
    /// The number of units.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }
}

impl Index<usize> for Lanes {
    type Output = [usize];

    fn index(&self, u: usize) -> &[usize] {
        &self.positions[self.start[u]..self.start[u + 1]]
    }
}

/// The [`Lanes`] of `units`.
pub(crate) fn lanes_of(ix: &BlockIndex<'_>, units: &[Unit]) -> Lanes {
    let mut start = Vec::with_capacity(units.len() + 1);
    start.push(0);
    let mut positions = Vec::with_capacity(units.iter().map(Unit::width).sum());
    for u in units {
        positions.extend(u.stmts().iter().map(|&s| ix.position(s)));
        start.push(positions.len());
    }
    Lanes { positions, start }
}

/// The legal pairwise merges among the units at `lanes` ([`lanes_of`]),
/// as ascending index pairs `(a, b)`, `a < b`: the candidate groups —
/// *potential* SIMD groups of two units, unordered ("there is no ordering
/// between Si and Sj in the candidate group").
pub(crate) fn merges(ix: &BlockIndex<'_>, deps: &BlockDeps, lanes: &Lanes) -> Vec<(usize, usize)> {
    let pairs = (0..lanes.len()).flat_map(|a| (a + 1..lanes.len()).map(move |b| (a, b)));
    pairs
        .filter(|&(a, b)| mergeable(ix, deps, &lanes[a], &lanes[b]))
        .collect()
}

/// Whether the units at block positions `la` and `lb` may merge (the
/// candidate test of §4.2.1 step 1, and the solver's): they are
/// isomorphic, mutually dependence free (§4.1 constraints 1 and 3) and
/// the merged width stays within the lane cap (§4.1 constraint 4).
pub fn mergeable(ix: &BlockIndex<'_>, deps: &BlockDeps, la: &[usize], lb: &[usize]) -> bool {
    let free = |p: usize, q: usize| p != q && !deps.reaches(p, q) && !deps.reaches(q, p);
    // Members within each unit are isomorphic by construction, so
    // comparing representatives settles the class; cross-independence
    // needs every pair.
    la.len() + lb.len() <= ix.lane_cap(la[0])
        && ix.class(la[0]) == ix.class(lb[0])
        && la.iter().all(|&p| lb.iter().all(|&q| free(p, q)))
}

/// The symmetric candidate-conflict relation: two candidate groups
/// "conflict with each other if they have a common statement ... or there
/// exists a dependence cycle between these two groups". One row of bits
/// per candidate.
#[derive(Debug)]
pub(crate) struct ConflictMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl ConflictMatrix {
    /// Computes the conflict relation among the candidates `pairs` of the
    /// units at `lanes`.
    ///
    /// Rows are unions of per-unit candidate sets: the number of units is
    /// linear in the block size while the number of candidates is
    /// quadratic, so `x`'s row is the candidates holding one of its units,
    /// plus those holding a unit its units reach *and* one reaching them,
    /// a few word operations per unit pair rather than a test per
    /// candidate pair. This keeps wide-datapath blocks (hundreds of
    /// statements after 8–16x unrolling) tractable.
    pub(crate) fn compute(pairs: &[(usize, usize)], lanes: &Lanes, deps: &BlockDeps) -> Self {
        let (units, words) = (lanes.len(), pairs.len().div_ceil(64));
        if words == 0 {
            return ConflictMatrix {
                words,
                bits: Vec::new(),
            };
        }
        let at = |table: usize, u: usize| (table * units + u) * words;
        // Per unit, three candidate sets: those holding it (table 0), those
        // holding a unit it reaches (1) and those holding a unit that
        // reaches it (2).
        let mut sets = vec![0u64; 3 * units * words];
        for (c, &(a, b)) in pairs.iter().enumerate() {
            for u in [a, b] {
                sets[at(0, u) + c / 64] |= 1 << (c % 64);
            }
        }
        for i in 0..units {
            for j in (0..units).filter(|&j| j != i) {
                if (lanes[i].iter()).any(|&p| lanes[j].iter().any(|&q| deps.reaches(p, q))) {
                    for w in 0..words {
                        let (into, from) = (sets[at(0, j) + w], sets[at(0, i) + w]);
                        sets[at(1, i) + w] |= into;
                        sets[at(2, j) + w] |= from;
                    }
                }
            }
        }
        let mut bits = vec![0u64; pairs.len() * words];
        for (c, &(a, b)) in pairs.iter().enumerate() {
            for w in 0..words {
                let set = |table: usize| sets[at(table, a) + w] | sets[at(table, b) + w];
                bits[c * words + w] = set(0) | (set(1) & set(2));
            }
            bits[c * words + c / 64] &= !(1 << (c % 64));
        }
        ConflictMatrix { words, bits }
    }

    /// Whether candidates `i` and `j` conflict.
    pub(crate) fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 != 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use slp_ir::{BasicBlock, BinOp, Expr, Program, ScalarType};

    /// The paper's Figure 2 block (reconstructed):
    /// S1: V1 = V3;   S2: V2 = V5;   S3: V5 = V7;
    /// S4: V1 = V3 * V1;   S5: V5 = V5 * V2;
    ///
    /// This reconstruction reproduces every number the paper derives from
    /// Figure 2: the candidate set {{S1,S2}, {S1,S3}, {S4,S5}}, the
    /// Figure 4 pack nodes (with {S4,S5} contributing {V3,V5}, {V1,V2}
    /// and {V1,V5}), and the Figure 5 edge weights 1/1, 1/2 and 2/3.
    pub(crate) fn figure2() -> (Program, BasicBlock) {
        let mut p = Program::new("fig2");
        let v: Vec<_> = (0..8)
            .map(|k| p.add_scalar(format!("V{k}"), ScalarType::F32))
            .collect();
        let s1 = p.make_stmt(v[1].into(), Expr::Copy(v[3].into()));
        let s2 = p.make_stmt(v[2].into(), Expr::Copy(v[5].into()));
        let s3 = p.make_stmt(v[5].into(), Expr::Copy(v[7].into()));
        let s4 = p.make_stmt(
            v[1].into(),
            Expr::Binary(BinOp::Mul, v[3].into(), v[1].into()),
        );
        let s5 = p.make_stmt(
            v[5].into(),
            Expr::Binary(BinOp::Mul, v[5].into(), v[2].into()),
        );
        let bb: BasicBlock = [s1, s2, s3, s4, s5].into_iter().collect();
        (p, bb)
    }

    fn legal_merges(ix: &BlockIndex<'_>, deps: &BlockDeps, units: &[Unit]) -> Vec<(usize, usize)> {
        merges(ix, deps, &lanes_of(ix, units))
    }

    /// One singleton unit per statement of `bb`.
    pub(crate) fn singletons(bb: &BasicBlock) -> Vec<Unit> {
        bb.iter().map(|s| Unit::singleton(s.id())).collect()
    }

    #[test]
    fn figure2_candidate_set() {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        // Unit indices equal statement positions here: S1..S5 are 0..4.
        let pairs = legal_merges(&ix, &deps, &singletons(&bb));
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 4)]);
    }

    #[test]
    fn lane_cap_filters_pairs() {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 1);
        assert!(legal_merges(&ix, &deps, &singletons(&bb)).is_empty());
    }

    #[test]
    fn merging_requires_isomorphism_and_cross_independence() {
        // S1: v1 = v3;  S2: v2 = v5;  S3: v5 = v7;
        // S4: v8 = v3 + v1;  S5: v9 = v5 + v2;
        let mut p = Program::new("fig2ish");
        let v: Vec<_> = (0..10)
            .map(|k| p.add_scalar(format!("v{k}"), ScalarType::F32))
            .collect();
        let add = |a: usize, b: usize| Expr::Binary(BinOp::Add, v[a].into(), v[b].into());
        let bb: BasicBlock = [
            p.make_stmt(v[1].into(), Expr::Copy(v[3].into())),
            p.make_stmt(v[2].into(), Expr::Copy(v[5].into())),
            p.make_stmt(v[5].into(), Expr::Copy(v[7].into())),
            p.make_stmt(v[8].into(), add(3, 1)),
            p.make_stmt(v[9].into(), add(5, 2)),
        ]
        .into_iter()
        .collect();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        let units = singletons(&bb);
        // S1/S2 are independent copies; S1/S4 differ in shape (copy vs
        // add); S2/S3 are dependent (S2 reads v5, S3 writes v5).
        let pairs = legal_merges(&ix, &deps, &units);
        assert!(pairs.contains(&(0, 1)));
        assert!(!pairs.contains(&(0, 3)) && !pairs.contains(&(1, 2)));
        // S3 conflicts with S2 inside <S1,S2>: the merged unit cannot
        // take it, although S1 alone could.
        assert!(pairs.contains(&(0, 2)));
        let merged = [Unit::merged(&units[0], &units[1]), units[2].clone()];
        assert!(legal_merges(&ix, &deps, &merged).is_empty());
    }

    #[test]
    fn conflicts_on_shared_statement() {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        let lanes = lanes_of(&ix, &singletons(&bb));
        let m = ConflictMatrix::compute(&merges(&ix, &deps, &lanes), &lanes, &deps);
        // {S1,S2} and {S1,S3} share S1.
        assert!(m.get(0, 1));
        assert!(m.get(1, 0));
        // {S1,S2} and {S4,S5} are compatible.
        assert!(!m.get(0, 2));
        // Self is never reported conflicting.
        assert!(!m.get(0, 0));
    }

    #[test]
    fn conflicts_on_dependence_cycle() {
        // S0: a = x;  S1: b = a;  S2: c = y;  S3: d = c;
        // {S0,S3} and {S1,S2} form a cycle: S0→S1 (into the second group)
        // and S2→S3 (back into the first), yet each pair is internally
        // independent.
        let mut p = Program::new("cyc");
        let names = ["a", "b", "c", "d", "x", "y"];
        let v: Vec<_> = names
            .iter()
            .map(|n| p.add_scalar(*n, ScalarType::F64))
            .collect();
        let s0 = p.make_stmt(v[0].into(), Expr::Copy(v[4].into()));
        let s1 = p.make_stmt(v[1].into(), Expr::Copy(v[0].into()));
        let s2 = p.make_stmt(v[2].into(), Expr::Copy(v[5].into()));
        let s3 = p.make_stmt(v[3].into(), Expr::Copy(v[2].into()));
        let bb: BasicBlock = [s0, s1, s2, s3].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        let lanes = lanes_of(&ix, &singletons(&bb));
        let pairs = merges(&ix, &deps, &lanes);
        let i03 = pairs.iter().position(|&c| c == (0, 3)).unwrap();
        let i12 = pairs.iter().position(|&c| c == (1, 2)).unwrap();
        let m = ConflictMatrix::compute(&pairs, &lanes, &deps);
        assert!(m.get(i03, i12), "cycle must be a conflict");
    }
}
