//! Candidate group identification and conflict analysis (§4.2.1, steps
//! 1–2), over block positions: every test is a table lookup in the
//! block's [`BlockIndex`] or a bit of its `BlockDeps`.

use slp_ir::BlockDeps;

use crate::index::BlockIndex;
use crate::unit::Unit;

/// Each unit's statements as block positions, in the unit's order.
pub(crate) fn lanes_of(ix: &BlockIndex<'_>, units: &[Unit]) -> Vec<Vec<usize>> {
    let lanes = |u: &Unit| u.stmts().iter().map(|&s| ix.position(s)).collect();
    units.iter().map(lanes).collect()
}

/// The legal pairwise merges among the units at `lanes` ([`lanes_of`]),
/// as ascending index pairs `(a, b)`, `a < b`: the candidate groups —
/// *potential* SIMD groups of two units, unordered ("there is no ordering
/// between Si and Sj in the candidate group").
pub(crate) fn merges(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    lanes: &[Vec<usize>],
) -> Vec<(usize, usize)> {
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
/// exists a dependence cycle between these two groups".
#[derive(Debug)]
pub(crate) struct ConflictMatrix {
    n: usize,
    bits: Vec<bool>,
}

impl ConflictMatrix {
    /// Computes the conflict relation among the candidates `pairs` of the
    /// units at `lanes`.
    ///
    /// Dependence-cycle detection is precomputed at unit granularity: the
    /// number of units is linear in the block size while the number of
    /// candidates is quadratic, so checking `candidate × candidate` pairs
    /// against a `unit × unit` reachability table keeps wide-datapath
    /// blocks (hundreds of statements after 8–16x unrolling) tractable.
    pub(crate) fn compute(
        pairs: &[(usize, usize)],
        lanes: &[Vec<usize>],
        deps: &BlockDeps,
    ) -> Self {
        let n = pairs.len();
        let mut m = ConflictMatrix {
            n,
            bits: vec![false; n * n],
        };
        let units = lanes.len();
        let mut reach = vec![false; units * units];
        for (i, li) in lanes.iter().enumerate() {
            for (j, lj) in lanes.iter().enumerate() {
                reach[i * units + j] =
                    i != j && li.iter().any(|&p| lj.iter().any(|&q| deps.reaches(p, q)));
            }
        }
        let reaches = |a: usize, b: usize| reach[a * units + b];
        for (i, x) in pairs.iter().enumerate() {
            for (j, y) in pairs.iter().enumerate().skip(i + 1) {
                let shares_unit = x.0 == y.0 || x.0 == y.1 || x.1 == y.0 || x.1 == y.1;
                let conflicting = shares_unit || {
                    let x_to_y = reaches(x.0, y.0)
                        || reaches(x.0, y.1)
                        || reaches(x.1, y.0)
                        || reaches(x.1, y.1);
                    let y_to_x = reaches(y.0, x.0)
                        || reaches(y.0, x.1)
                        || reaches(y.1, x.0)
                        || reaches(y.1, x.1);
                    x_to_y && y_to_x
                };
                if conflicting {
                    m.bits[i * n + j] = true;
                    m.bits[j * n + i] = true;
                }
            }
        }
        m
    }

    /// Whether candidates `i` and `j` conflict.
    pub(crate) fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.n + j]
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
