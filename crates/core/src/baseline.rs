//! The baseline SLP algorithm of Larsen & Amarasinghe (PLDI 2000), the
//! comparator the paper evaluates against ("SLP" in §7).
//!
//! The algorithm is local and greedy: it seeds the pack set with
//! isomorphic, independent statement pairs whose memory references are
//! *adjacent*, extends packs along def-use and use-def chains, combines
//! chained pairs into wider groups, and schedules in plain dependence
//! order. It has no global view of reuse and fixes lane order at packing
//! time, which is exactly what the holistic optimizer improves on.

use slp_ir::{BlockDeps, Dest, Statement, StmtId};

use crate::schedule::schedule_in_program_order;
use crate::superword::BlockSchedule;
use crate::{BlockIndex, Unit};

/// An ordered statement pair in the pack set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackPair {
    left: StmtId,
    right: StmtId,
}

/// Runs the baseline SLP algorithm on one block and returns the schedule.
///
/// The index's lane caps bound group width exactly as in the holistic
/// optimizer so the two strategies compete under identical constraints.
pub fn baseline_block(ix: &BlockIndex<'_>, deps: &BlockDeps) -> BlockSchedule {
    schedule_in_program_order(ix, deps, &baseline_groups(ix, deps))
}

/// The grouping phases of the baseline algorithm (seed → extend →
/// combine), without the scheduling step. Unit statement order is the
/// chain order (ascending addresses). Exposed so the holistic pipeline
/// can evaluate adjacency-seeded groups under its own scheduler and cost
/// model.
pub(crate) fn baseline_groups(ix: &BlockIndex<'_>, deps: &BlockDeps) -> Vec<Unit> {
    combine_pairs(&build_pack_set(ix, deps), ix, deps)
}

/// The seed pairs as `(left, right)` block positions, in the order the
/// original pair scan meets them: every statement pair `i < j` where one
/// has a memory reference one element below the matching reference of the
/// other ([`BlockIndex::adjacent_refs`]), oriented low address → left, `i`
/// left when both orientations hold.
fn seeds(ix: &BlockIndex<'_>) -> Vec<(usize, usize)> {
    let mut seeds = ix.adjacent_refs();
    seeds.sort_unstable_by_key(|&(l, r)| (l.min(r), l.max(r), l > r));
    seeds.dedup_by_key(|&mut (l, r)| (l.min(r), l.max(r)));
    seeds
}

/// Phases 1-2 of the baseline: seed with adjacent memory references, then
/// extend along def-use / use-def chains until fixpoint. Each statement
/// may be the left lane of at most one pair and the right lane of at most
/// one pair (the original algorithm's occupancy rule).
fn build_pack_set(ix: &BlockIndex<'_>, deps: &BlockDeps) -> Vec<PackPair> {
    let stmts = ix.block().stmts();
    let mut pairs: Vec<PackPair> = Vec::new();
    let mut left_used: Vec<StmtId> = Vec::new();
    let mut right_used: Vec<StmtId> = Vec::new();
    let mut offer = |pairs: &mut Vec<PackPair>, l: Option<&Statement>, r: Option<&Statement>| {
        let (Some(l), Some(r)) = (l, r) else { return };
        let (left, right) = (l.id(), r.id());
        if left != right
            && !left_used.contains(&left)
            && !right_used.contains(&right)
            && ix.class(ix.position(left)) == ix.class(ix.position(right))
            && deps.independent(left, right)
        {
            pairs.push(PackPair { left, right });
            left_used.push(left);
            right_used.push(right);
        }
    };

    // Seeds: adjacent memory references, oriented low address -> left.
    for (l, r) in seeds(ix) {
        offer(&mut pairs, Some(&stmts[l]), Some(&stmts[r]));
    }

    // Extension along chains until fixpoint: each pair in order, the
    // seeds and then the ones extension adds, once (extending a pair again
    // finds the statements it would pack already taken).
    let mut next = 0;
    while let Some(&pair) = pairs.get(next) {
        next += 1;
        let (lp, rp) = (ix.position(pair.left), ix.position(pair.right));
        let (ls, rs) = (&stmts[lp], &stmts[rp]);
        // Use-def: pack the statements defining the pair's scalar
        // operands.
        for k in 0..ls.expr().arity() {
            let (lu, ru) = (ls.expr().operands()[k], rs.expr().operands()[k]);
            if let (Some(lv), Some(rv)) = (lu.as_scalar(), ru.as_scalar()) {
                let defs = (reaching_def(stmts, lv, lp), reaching_def(stmts, rv, rp));
                offer(&mut pairs, defs.0, defs.1);
            }
        }
        // Def-use: pack the first users of the pair's scalar results.
        if let (Dest::Scalar(lv), Dest::Scalar(rv)) = (ls.dest(), rs.dest()) {
            for k in 0..3 {
                let uses = (first_use(stmts, *lv, lp, k), first_use(stmts, *rv, rp, k));
                offer(&mut pairs, uses.0, uses.1);
            }
        }
    }
    pairs
}

/// The last statement before position `before` that writes scalar `v`.
fn reaching_def(stmts: &[Statement], v: slp_ir::VarId, before: usize) -> Option<&Statement> {
    stmts[..before]
        .iter()
        .rev()
        .find(|s| matches!(s.dest(), Dest::Scalar(w) if *w == v))
}

/// The first statement after position `after` whose operand position `k`
/// reads scalar `v`.
fn first_use(stmts: &[Statement], v: slp_ir::VarId, after: usize, k: usize) -> Option<&Statement> {
    stmts[after + 1..].iter().find(|s| {
        s.expr()
            .operands()
            .get(k)
            .is_some_and(|o| o.as_scalar() == Some(v))
    })
}

/// Phase 3: combine chained pairs `(a,b)` and `(b,c)` into `[a,b,c]`,
/// bounded by the lane capacity.
///
/// Pair membership only guarantees *pairwise* independence within each
/// pair; a combined group must be independent across every lane (§4.1
/// constraint 1), so extension re-checks the new member against the whole
/// chain, and the taken-filter below re-checks the surviving members.
fn combine_pairs(pairs: &[PackPair], ix: &BlockIndex<'_>, deps: &BlockDeps) -> Vec<Unit> {
    let mut chains: Vec<Vec<StmtId>> = Vec::new();
    let mut used = vec![false; pairs.len()];
    for (i, p) in pairs.iter().enumerate() {
        if used[i] {
            continue;
        }
        used[i] = true;
        let mut chain = vec![p.left, p.right];
        // Extend to the right while a pair continues the chain and the
        // new member stays independent of every existing lane.
        loop {
            if chain.len() >= ix.lane_cap(ix.position(chain[0])) {
                break;
            }
            let tail = *chain.last().expect("chain non-empty");
            let next = pairs.iter().enumerate().find(|(j, q)| {
                !used[*j]
                    && q.left == tail
                    && !chain.contains(&q.right)
                    && chain.iter().all(|&m| deps.independent(m, q.right))
            });
            match next {
                Some((j, q)) => {
                    used[j] = true;
                    chain.push(q.right);
                }
                None => break,
            }
        }
        chains.push(chain);
    }

    let n = ix.block().len();
    let (mut units, mut taken, mut members) =
        (Vec::with_capacity(n), Vec::with_capacity(n), Vec::new());
    for chain in chains {
        // A statement can only belong to one group; later chains skip
        // already-taken members (drop the whole chain if < 2 remain).
        // Dropping a middle member can leave neighbours that were never
        // checked against each other, so keep only a mutually independent
        // prefix of the survivors.
        members.clear();
        for s in chain {
            if !taken.contains(&s) && members.iter().all(|&m| deps.independent(m, s)) {
                members.push(s);
            }
        }
        if members.len() >= 2 {
            taken.extend(&members);
            units.push(Unit::of(&members));
        }
    }
    for s in ix.block() {
        if !taken.contains(&s.id()) {
            units.push(Unit::singleton(s.id()));
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superword::{validate_schedule, ScheduledItem};
    use slp_ir::{
        AccessVector, AffineExpr, ArrayRef, BasicBlock, BinOp, Expr, Program, ScalarType,
    };

    /// a = A[2i]; b = A[2i+1]; c = a * x; d = b * x;
    fn adjacent_block() -> (Program, BasicBlock) {
        let mut p = Program::new("adj");
        let arr = p.add_array("A", ScalarType::F64, vec![64], true);
        let i = p.add_loop_var("i");
        let names = ["a", "b", "c", "d", "x"];
        let v: Vec<_> = names
            .iter()
            .map(|n| p.add_scalar(*n, ScalarType::F64))
            .collect();
        let at = |cst: i64| {
            ArrayRef::new(
                arr,
                AccessVector::new(vec![AffineExpr::var(i).scaled(2).offset(cst)]),
            )
        };
        let s0 = p.make_stmt(v[0].into(), Expr::Copy(at(0).into()));
        let s1 = p.make_stmt(v[1].into(), Expr::Copy(at(1).into()));
        let s2 = p.make_stmt(
            v[2].into(),
            Expr::Binary(BinOp::Mul, v[0].into(), v[4].into()),
        );
        let s3 = p.make_stmt(
            v[3].into(),
            Expr::Binary(BinOp::Mul, v[1].into(), v[4].into()),
        );
        let bb: BasicBlock = [s0, s1, s2, s3].into_iter().collect();
        (p, bb)
    }

    #[test]
    fn seeds_from_adjacent_refs_and_extends_def_use() {
        let (p, bb) = adjacent_block();
        let deps = BlockDeps::analyze(&bb);
        let sched = baseline_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        validate_schedule(&bb, &deps, &sched, &p, |_| 2).unwrap();
        // Both the load pair and the multiply pair get vectorized.
        assert_eq!(sched.superword_count(), 2);
    }

    #[test]
    fn no_adjacency_means_no_seeds() {
        // Scalar-only isomorphic statements: the baseline finds nothing
        // (no adjacent memory references to seed from).
        let mut p = Program::new("scalars");
        let x = p.add_scalar("x", ScalarType::F64);
        let a = p.add_scalar("a", ScalarType::F64);
        let b = p.add_scalar("b", ScalarType::F64);
        let s0 = p.make_stmt(a.into(), Expr::Binary(BinOp::Add, x.into(), 1.0.into()));
        let s1 = p.make_stmt(b.into(), Expr::Binary(BinOp::Add, x.into(), 2.0.into()));
        let bb: BasicBlock = [s0, s1].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let sched = baseline_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        assert_eq!(sched.superword_count(), 0);
    }

    #[test]
    fn chains_combine_to_lane_cap() {
        // Four adjacent loads with a 4-lane cap combine into one group.
        let mut p = Program::new("c4");
        let arr = p.add_array("A", ScalarType::F32, vec![64], true);
        let i = p.add_loop_var("i");
        let v: Vec<_> = (0..4)
            .map(|k| p.add_scalar(format!("t{k}"), ScalarType::F32))
            .collect();
        let stmts: Vec<_> = (0..4)
            .map(|k| {
                let r = ArrayRef::new(
                    arr,
                    AccessVector::new(vec![AffineExpr::var(i).scaled(4).offset(k)]),
                );
                p.make_stmt(v[k as usize].into(), Expr::Copy(r.into()))
            })
            .collect();
        let bb: BasicBlock = stmts.into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let sched = baseline_block(&BlockIndex::new(&bb, &p, |_| 4), &deps);
        validate_schedule(&bb, &deps, &sched, &p, |_| 4).unwrap();
        assert_eq!(sched.superword_count(), 1);
        let ScheduledItem::Superword(sw) = &sched.items()[0] else {
            panic!("expected superword");
        };
        assert_eq!(sw.width(), 4);
        // Lane order follows ascending addresses.
        assert_eq!(
            sw.lanes().to_vec(),
            (0..4).map(StmtId::new).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lane_cap_cuts_chains() {
        let (p, bb) = adjacent_block();
        let deps = BlockDeps::analyze(&bb);
        let sched = baseline_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        for item in sched.items() {
            assert!(item.stmts().len() <= 2);
        }
    }

    /// The quadratic pair scan that [`seeds`] replaced: every statement
    /// pair tested for adjacent references, in either orientation.
    fn pair_scan_seeds(ix: &BlockIndex<'_>) -> Vec<(usize, usize)> {
        let adjacent = |a: &ArrayRef, b: &ArrayRef| {
            a.array == b.array
                && a.access.constant_difference(&b.access).is_some_and(|diff| {
                    let last = a.access.rank() - 1;
                    diff.enumerate().all(|(dim, d)| d == i64::from(dim == last))
                })
        };
        let has_adjacent_refs = |p: usize, q: usize| {
            let refs = |p: usize| ix.keys_at(p).iter().map(|&k| ix.loc(k).as_array());
            (refs(p).zip(refs(q))).any(|pair| matches!(pair, (Some(a), Some(b)) if adjacent(a, b)))
        };
        let n = ix.block().len();
        let mut seeds = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if has_adjacent_refs(i, j) {
                    seeds.push((i, j));
                } else if has_adjacent_refs(j, i) {
                    seeds.push((j, i));
                }
            }
        }
        seeds
    }

    /// The pack set as the pair scan seeded it and a fixpoint over
    /// snapshots of the pairs extended it, each round extending every pair
    /// found so far.
    fn fixpoint_pack_set(ix: &BlockIndex<'_>, deps: &BlockDeps) -> Vec<PackPair> {
        let stmts = ix.block().stmts();
        let offer = |pairs: &mut Vec<PackPair>, l: &Statement, r: &Statement| {
            let (left, right) = (l.id(), r.id());
            let packs = left != right
                && !pairs.iter().any(|p| p.left == left || p.right == right)
                && ix.class(ix.position(left)) == ix.class(ix.position(right))
                && deps.independent(left, right);
            if packs {
                pairs.push(PackPair { left, right });
            }
            packs
        };
        let mut pairs = Vec::new();
        for (l, r) in pair_scan_seeds(ix) {
            offer(&mut pairs, &stmts[l], &stmts[r]);
        }
        let mut changed = true;
        while changed {
            changed = false;
            for pair in pairs.clone() {
                let (lp, rp) = (ix.position(pair.left), ix.position(pair.right));
                let (ls, rs) = (&stmts[lp], &stmts[rp]);
                for k in 0..ls.expr().arity() {
                    let (lu, ru) = (ls.expr().operands()[k], rs.expr().operands()[k]);
                    if let (Some(lv), Some(rv)) = (lu.as_scalar(), ru.as_scalar()) {
                        if let (Some(ld), Some(rd)) =
                            (reaching_def(stmts, lv, lp), reaching_def(stmts, rv, rp))
                        {
                            changed |= offer(&mut pairs, ld, rd);
                        }
                    }
                }
                if let (Dest::Scalar(lv), Dest::Scalar(rv)) = (ls.dest(), rs.dest()) {
                    for k in 0..3 {
                        if let (Some(lu), Some(ru)) =
                            (first_use(stmts, *lv, lp, k), first_use(stmts, *rv, rp, k))
                        {
                            changed |= offer(&mut pairs, lu, ru);
                        }
                    }
                }
            }
        }
        pairs
    }

    /// The index finds the pair scan's seeds, in its order, on the suite
    /// unrolled by 2, 4 and 8 and on random blocks, and extending each
    /// pair once builds the pack set the fixpoint builds.
    #[test]
    fn index_seeds_and_one_pass_extension_build_the_fixpoint_pack_set() {
        use crate::weight::tests::{lanes, random_programs};
        let (mut blocks, mut seeds_seen) = (0, 0);
        let mut check = |p: &Program| {
            for info in p.blocks() {
                let ix = BlockIndex::new(&info.block, p, lanes);
                let want = pair_scan_seeds(&ix);
                assert_eq!(seeds(&ix), want, "{}", info.block);
                let deps = BlockDeps::analyze_in(&info.block, &info.loops);
                let pack_set = build_pack_set(&ix, &deps);
                assert_eq!(pack_set, fixpoint_pack_set(&ix, &deps), "{}", info.block);
                (blocks, seeds_seen) = (blocks + 1, seeds_seen + want.len());
            }
        };
        for unroll in [2, 4, 8] {
            for (_, mut p) in slp_suite::all(1) {
                slp_ir::unroll_program(&mut p, unroll);
                check(&p);
            }
        }
        random_programs().for_each(|p| check(&p));
        // Adjacent both ways (the stores down, the loads up): the earlier
        // statement is the left lane.
        let both = slp_lang::compile(
            "kernel k { array A: f64[64]; array B: f64[64];
             for i in 0..16 { A[2*i+1] = B[2*i]; A[2*i] = B[2*i+1]; } }",
        )
        .unwrap();
        check(&both);
        assert!(blocks > 300 && seeds_seen > 1000, "{blocks} / {seeds_seen}");
        let infos = both.blocks();
        let ix = BlockIndex::new(&infos[0].block, &both, lanes);
        assert_eq!(seeds(&ix), [(0, 1)]);
    }
}
