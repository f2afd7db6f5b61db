//! Candidate group identification and conflict analysis (§4.2.1, steps 1–2).

use slp_ir::{BasicBlock, BlockDeps, StmtId, TypeEnv};

use crate::unit::{Pack, Unit};

/// A candidate group: a *potential* SIMD group of two units. Unordered —
/// "there is no ordering between Si and Sj in the candidate group".
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index of the first unit (in the round's unit list).
    pub a: usize,
    /// Index of the second unit.
    pub b: usize,
    /// The variable packs the merged group would form (location packs
    /// only), with their order-insensitive contents.
    pub packs: Vec<Pack>,
    /// The member statements of the merged group: unit `a`'s statements
    /// followed by unit `b`'s.
    pub stmts: Vec<StmtId>,
    /// Number of leading `stmts` that belong to unit `a`.
    pub split: usize,
}

/// The legal pairwise merges among `units`, as ascending index pairs
/// `(a, b)`, `a < b`. A pair qualifies when the units are isomorphic,
/// mutually dependence free (§4.1 constraints 1 and 3) and the merged
/// width stays within `lane_cap(stmt)` lanes — the §4.1 constraint 4
/// datapath bound, supplied by the caller because it depends on the
/// element type and machine.
pub fn legal_merges<E: TypeEnv>(
    units: &[Unit],
    block: &BasicBlock,
    deps: &BlockDeps,
    env: &E,
    mut lane_cap: impl FnMut(StmtId) -> usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for a in 0..units.len() {
        for b in a + 1..units.len() {
            let (ua, ub) = (&units[a], &units[b]);
            if ua.width() + ub.width() <= lane_cap(ua.stmts()[0])
                && ua.can_merge(ub, block, deps, env)
            {
                out.push((a, b));
            }
        }
    }
    out
}

/// Identifies all candidate groups among `units`: the [`legal_merges`],
/// each with its variable packs.
pub fn find_candidates<E: TypeEnv>(
    units: &[Unit],
    block: &BasicBlock,
    deps: &BlockDeps,
    env: &E,
    lane_cap: impl FnMut(StmtId) -> usize,
) -> Vec<Candidate> {
    legal_merges(units, block, deps, env, lane_cap)
        .into_iter()
        .map(|(a, b)| {
            let merged = Unit::merged(&units[a], &units[b]);
            let packs = merged
                .packs(block)
                .into_iter()
                .filter(Pack::is_location_pack)
                .collect();
            Candidate {
                a,
                b,
                packs,
                stmts: merged.stmts().to_vec(),
                split: units[a].width(),
            }
        })
        .collect()
}

/// The symmetric candidate-conflict relation: two candidate groups
/// "conflict with each other if they have a common statement ... or there
/// exists a dependence cycle between these two groups".
#[derive(Debug, Clone)]
pub struct ConflictMatrix {
    n: usize,
    bits: Vec<bool>,
}

impl ConflictMatrix {
    /// Computes the conflict relation among `candidates`.
    ///
    /// Dependence-cycle detection is precomputed at unit granularity: the
    /// number of units is linear in the block size while the number of
    /// candidates is quadratic, so checking `candidate × candidate` pairs
    /// against a `unit × unit` reachability table keeps wide-datapath
    /// blocks (hundreds of statements after 8–16x unrolling) tractable.
    pub fn compute(candidates: &[Candidate], deps: &BlockDeps) -> Self {
        let n = candidates.len();
        let mut m = ConflictMatrix {
            n,
            bits: vec![false; n * n],
        };
        // Unit-level reachability over the units the candidates mention.
        let units = 1 + candidates.iter().map(|c| c.a.max(c.b)).max().unwrap_or(0);
        let mut unit_stmts: Vec<&[StmtId]> = vec![&[]; units];
        for c in candidates {
            let (sa, sb) = c.stmts.split_at(c.split);
            unit_stmts[c.a] = sa;
            unit_stmts[c.b] = sb;
        }
        let mut reach = vec![false; units * units];
        for i in 0..units {
            for j in 0..units {
                if i != j
                    && unit_stmts[i]
                        .iter()
                        .any(|&s| unit_stmts[j].iter().any(|&t| deps.depends(s, t)))
                {
                    reach[i * units + j] = true;
                }
            }
        }
        let reaches = |a: usize, b: usize| reach[a * units + b];
        for (i, x) in candidates.iter().enumerate() {
            for (j, y) in candidates.iter().enumerate().skip(i + 1) {
                let shares_unit = x.a == y.a || x.a == y.b || x.b == y.a || x.b == y.b;
                let conflicting = shares_unit || {
                    let x_to_y = reaches(x.a, y.a)
                        || reaches(x.a, y.b)
                        || reaches(x.b, y.a)
                        || reaches(x.b, y.b);
                    let y_to_x = reaches(y.a, x.a)
                        || reaches(y.a, x.b)
                        || reaches(y.b, x.a)
                        || reaches(y.b, x.b);
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
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.n + j]
    }

    /// Number of candidates covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero candidates.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use slp_ir::{BinOp, Expr, Program, ScalarType};

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

    fn setup() -> (Program, BasicBlock, BlockDeps, Vec<Unit>) {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let units: Vec<Unit> = bb.iter().map(|s| Unit::singleton(s.id())).collect();
        (p, bb, deps, units)
    }

    #[test]
    fn figure2_candidate_set() {
        let (p, bb, deps, units) = setup();
        let cands = find_candidates(&units, &bb, &deps, &p, |_| 4);
        let pairs: Vec<(usize, usize)> = cands.iter().map(|c| (c.a, c.b)).collect();
        // Unit indices equal statement positions here: S1..S5 are 0..4.
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 4)]);
    }

    #[test]
    fn lane_cap_filters_pairs() {
        let (p, bb, deps, units) = setup();
        let cands = find_candidates(&units, &bb, &deps, &p, |_| 1);
        assert!(cands.is_empty());
    }

    #[test]
    fn candidate_packs_are_location_packs() {
        let (p, bb, deps, units) = setup();
        let cands = find_candidates(&units, &bb, &deps, &p, |_| 4);
        // {S1,S2}: dest pack {V1,V2} and source pack {V3,V5}.
        let c12 = &cands[0];
        assert_eq!(c12.packs.len(), 2);
        // {S4,S5}: dest {V4,V6}, op0 {V3,V5}, op1 {V1,V2}.
        let c45 = &cands[2];
        assert_eq!(c45.packs.len(), 3);
    }

    #[test]
    fn conflicts_on_shared_statement() {
        let (p, bb, deps, units) = setup();
        let cands = find_candidates(&units, &bb, &deps, &p, |_| 4);
        let m = ConflictMatrix::compute(&cands, &deps);
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
        let units: Vec<Unit> = bb.iter().map(|s| Unit::singleton(s.id())).collect();
        let cands = find_candidates(&units, &bb, &deps, &p, |_| 4);
        let i03 = cands.iter().position(|c| (c.a, c.b) == (0, 3)).unwrap();
        let i12 = cands.iter().position(|c| (c.a, c.b) == (1, 2)).unwrap();
        let m = ConflictMatrix::compute(&cands, &deps);
        assert!(m.get(i03, i12), "cycle must be a conflict");
    }
}
