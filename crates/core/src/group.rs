//! The holistic statement-grouping phase (§4.2): the paper's main
//! contribution.
//!
//! Unlike the seed-and-extend heuristic of the original SLP algorithm,
//! every grouping decision here is scored against the *whole basic block*:
//! the candidate whose variable packs promise the largest average superword
//! reuse (weight `W = r / Nt`, computed over the variable-pack conflicting
//! graph) is committed first, the graphs are updated, and the process
//! repeats until no candidate remains. Iterative grouping (§4.2.2) then
//! treats each decided group as an atomic unit and reruns the basic
//! algorithm to fill wider datapaths.

use slp_ir::{BlockDeps, StmtId};

use crate::deadline::{Deadline, Expired};
use crate::{BlockIndex, Round, Unit, WeightParams};

/// A record of one grouping decision, for tracing and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingDecision {
    /// The statements merged by this decision.
    pub stmts: Vec<StmtId>,
    /// The weight the decision was taken at.
    pub weight: f64,
    /// The grouping round (0 = pairs, 1 = pairs of pairs, ...).
    pub round: usize,
}

/// The result of the grouping phase for one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// All units: SIMD groups (width ≥ 2) and leftover singletons.
    pub units: Vec<Unit>,
    /// The decision trace, in the order decisions were made.
    pub decisions: Vec<GroupingDecision>,
}

impl Grouping {
    /// The SIMD groups (units of width ≥ 2).
    pub fn groups(&self) -> impl Iterator<Item = &Unit> {
        self.units.iter().filter(|u| !u.is_singleton())
    }
}

/// Runs holistic grouping on the block `ix` indexes, whose lane caps bound
/// the group width per statement (§4.1 constraint 4), under the default
/// weight parameters.
pub fn group_block(ix: &BlockIndex<'_>, deps: &BlockDeps) -> Grouping {
    group_block_with(ix, deps, &WeightParams::default())
}

/// [`group_block`] with explicit weight parameters.
pub fn group_block_with(ix: &BlockIndex<'_>, deps: &BlockDeps, weights: &WeightParams) -> Grouping {
    let mut groupings =
        group_block_under(ix, deps, &[*weights], Deadline::default()).expect("no deadline was set");
    groupings.pop().expect("one grouping per profile")
}

/// One [`group_block_with`] result per weight profile. The first round's
/// candidates, conflicts and packs depend on no profile: they are built
/// once and every profile's decision loop starts from them. `deadline` is
/// checked before every §4.2.2 rerun.
pub(crate) fn group_block_under(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    profiles: &[WeightParams],
    deadline: Deadline,
) -> Result<Vec<Grouping>, Expired> {
    let singletons: Vec<Unit> = (ix.block().iter())
        .map(|s| Unit::singleton(s.id()))
        .collect();
    let mut pairs = Round::new(ix, deps, &singletons, &WeightParams::default());
    let group = |weights: &WeightParams| {
        pairs.restart(weights);
        let (mut units, mut decisions) = (singletons.clone(), Vec::new());
        let (mut made, mut round) = (basic_round(&mut pairs, &mut units, 0, &mut decisions), 0);
        // §4.2.2: rerun over the merged units until a round decides nothing.
        while made > 0 {
            deadline.check()?;
            round += 1;
            let mut wider = Round::new(ix, deps, &units, weights);
            made = basic_round(&mut wider, &mut units, round, &mut decisions);
        }
        Ok(Grouping { units, decisions })
    };
    profiles.iter().map(group).collect()
}

/// Step 4 of the basic grouping algorithm (§4.2.1, Figure 10) over a fresh
/// round of `units`: pick the best candidate, update, repeat. Returns the
/// number of decisions made and merges the decided pairs in `units`.
fn basic_round(
    state: &mut Round,
    units: &mut Vec<Unit>,
    round: usize,
    decisions: &mut Vec<GroupingDecision>,
) -> usize {
    let mut decided: Vec<usize> = Vec::new();
    while let Some((c, weight)) = state.best() {
        let (a, b) = state.candidates()[c];
        decided.push(c);
        decisions.push(GroupingDecision {
            stmts: [units[a].stmts(), units[b].stmts()].concat(),
            weight,
            round,
        });
        // Kills the decision and every conflicting candidate (they share
        // a unit with it or would form a dependence cycle with it).
        state.decide(c);
    }
    merge_decided(state.candidates(), &decided, units);
    decided.len()
}

/// Merges the `decided` candidates among `pairs` into new units, in
/// decision order, followed by the units no decision took.
fn merge_decided(pairs: &[(usize, usize)], decided: &[usize], units: &mut Vec<Unit>) {
    let taken = |u: usize| decided.iter().any(|&c| pairs[c].0 == u || pairs[c].1 == u);
    let mut new_units = Vec::with_capacity(units.len() - decided.len());
    new_units.extend(
        decided
            .iter()
            .map(|&c| Unit::merged(&units[pairs[c].0], &units[pairs[c].1])),
    );
    new_units.extend(
        (0..units.len())
            .filter(|&u| !taken(u))
            .map(|u| units[u].clone()),
    );
    *units = new_units;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::tests::figure2;
    use slp_ir::{BasicBlock, BinOp, Expr, Program, ScalarType};

    #[test]
    fn figure2_grouping_decisions() {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 2);
        // The paper's unadjusted weights reproduce its decision trace.
        let g = group_block_with(&ix, &deps, &WeightParams::reuse_only());
        // The paper decides {S1,S2} first (weight 1), then {S4,S5}
        // (weight 2/3); {S1,S3} dies with the first decision.
        assert_eq!(g.decisions.len(), 2);
        assert_eq!(g.decisions[0].stmts, vec![StmtId::new(0), StmtId::new(1)]);
        assert!((g.decisions[0].weight - 1.0).abs() < 1e-9);
        assert_eq!(g.decisions[1].stmts, vec![StmtId::new(3), StmtId::new(4)]);
        assert!((g.decisions[1].weight - 2.0 / 3.0).abs() < 1e-9);
        // S3 stays scalar.
        assert_eq!(g.units.iter().filter(|u| u.is_singleton()).count(), 1);
        assert_eq!(g.groups().map(Unit::width).sum::<usize>(), 4);
    }

    #[test]
    fn iterative_grouping_reaches_datapath_width() {
        // Eight independent isomorphic statements and a 4-lane datapath:
        // two rounds must produce two 4-wide groups.
        let mut p = Program::new("wide");
        let x = p.add_scalar("x", ScalarType::F32);
        let dsts: Vec<_> = (0..8)
            .map(|k| p.add_scalar(format!("d{k}"), ScalarType::F32))
            .collect();
        let stmts: Vec<_> = dsts
            .iter()
            .map(|&d| p.make_stmt(d.into(), Expr::Binary(BinOp::Add, x.into(), 1.0.into())))
            .collect();
        let bb: BasicBlock = stmts.into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let g = group_block(&BlockIndex::new(&bb, &p, |_| 4), &deps);
        let widths: Vec<usize> = g.groups().map(Unit::width).collect();
        assert_eq!(widths, vec![4, 4]);
        assert!(g.decisions.iter().any(|d| d.round == 1), "needs round 2");
    }

    /// The deadline is asked before every §4.2.2 rerun, and only there: a
    /// block whose first round decides nothing never meets it.
    #[test]
    fn an_expired_deadline_stops_the_grouping_between_rounds() {
        let expired = Deadline::after_ms(Some(0));
        let mut p = Program::new("wide");
        let x = p.add_scalar("x", ScalarType::F32);
        let stmts: Vec<_> = (0..8)
            .map(|k| {
                let d = p.add_scalar(format!("d{k}"), ScalarType::F32);
                p.make_stmt(d.into(), Expr::Binary(BinOp::Add, x.into(), 1.0.into()))
            })
            .collect();
        let bb: BasicBlock = stmts.into_iter().collect();
        let (deps, profiles) = (BlockDeps::analyze(&bb), [WeightParams::default()]);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        assert_eq!(
            group_block_under(&ix, &deps, &profiles, expired),
            Err(Expired)
        );

        let (p, bb) = (Program::new("empty"), BasicBlock::new());
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        let deps = BlockDeps::analyze(&bb);
        assert!(group_block_under(&ix, &deps, &profiles, expired).is_ok());
    }

    #[test]
    fn groups_never_exceed_lane_cap() {
        let mut p = Program::new("cap");
        let x = p.add_scalar("x", ScalarType::F64);
        let dsts: Vec<_> = (0..6)
            .map(|k| p.add_scalar(format!("d{k}"), ScalarType::F64))
            .collect();
        let stmts: Vec<_> = dsts
            .iter()
            .map(|&d| p.make_stmt(d.into(), Expr::Binary(BinOp::Mul, x.into(), 2.0.into())))
            .collect();
        let bb: BasicBlock = stmts.into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let g = group_block(&BlockIndex::new(&bb, &p, |_| 2), &deps);
        assert!(g.groups().all(|u| u.width() <= 2));
        assert_eq!(g.groups().map(Unit::width).sum::<usize>(), 6);
    }

    #[test]
    fn dependent_statements_stay_scalar() {
        // A chain a -> b -> c has no independent isomorphic pair.
        let mut p = Program::new("chain");
        let a = p.add_scalar("a", ScalarType::F64);
        let b = p.add_scalar("b", ScalarType::F64);
        let c = p.add_scalar("c", ScalarType::F64);
        let s0 = p.make_stmt(b.into(), Expr::Binary(BinOp::Add, a.into(), 1.0.into()));
        let s1 = p.make_stmt(c.into(), Expr::Binary(BinOp::Add, b.into(), 1.0.into()));
        let s2 = p.make_stmt(a.into(), Expr::Binary(BinOp::Add, c.into(), 1.0.into()));
        let bb: BasicBlock = [s0, s1, s2].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let g = group_block(&BlockIndex::new(&bb, &p, |_| 4), &deps);
        assert_eq!(g.decisions.len(), 0);
        assert!(g.units.iter().all(Unit::is_singleton));
    }

    #[test]
    fn empty_block_is_fine() {
        let p = Program::new("empty");
        let bb = BasicBlock::new();
        let deps = BlockDeps::analyze(&bb);
        let g = group_block(&BlockIndex::new(&bb, &p, |_| 4), &deps);
        assert!(g.units.is_empty());
        assert!(g.decisions.is_empty());
    }

    /// The decision loop before bounds, as a reference: every live
    /// candidate weighed after every decision, ties to the smaller sorted
    /// statement ids, reruns until a round decides nothing.
    fn full_scan_decisions(
        ix: &BlockIndex<'_>,
        deps: &BlockDeps,
        weights: &WeightParams,
    ) -> (Vec<GroupingDecision>, usize) {
        let mut units: Vec<Unit> = ix.block().iter().map(|s| Unit::singleton(s.id())).collect();
        let (mut decisions, mut weighed) = (Vec::new(), 0);
        for round in 0.. {
            let mut state = Round::new(ix, deps, &units, weights);
            let pairs = state.candidates().to_vec();
            let stmts = |c: usize| [units[pairs[c].0].stmts(), units[pairs[c].1].stmts()].concat();
            let (mut alive, mut decided) = (vec![true; pairs.len()], Vec::new());
            loop {
                let mut best: Option<(usize, f64, Vec<StmtId>)> = None;
                for c in (0..pairs.len()).filter(|&c| alive[c]) {
                    let (weight, mut ids) = (state.weight(c, &alive), stmts(c));
                    ids.sort_unstable();
                    weighed += 1;
                    if best
                        .as_ref()
                        .is_none_or(|(_, w, first)| weight > *w || (weight == *w && ids < *first))
                    {
                        best = Some((c, weight, ids));
                    }
                }
                let Some((c, weight, _)) = best else { break };
                decided.push(c);
                decisions.push(GroupingDecision {
                    stmts: stmts(c),
                    weight,
                    round,
                });
                state.decide(c);
                for (other, slot) in alive.iter_mut().enumerate() {
                    *slot &= other != c && !state.conflict(c, other);
                }
            }
            if decided.is_empty() {
                break;
            }
            merge_decided(&pairs, &decided, &mut units);
        }
        (decisions, weighed)
    }

    /// The best-first scan decides exactly as the full scan, to the weight
    /// bit, under weight profiles that make the bound's clamp, its scalar
    /// terms and its adjustment matter, and skips weights while at it.
    #[test]
    fn pruning_changes_no_decision_on_random_blocks() {
        use crate::weight::tests::{lanes, random_programs, WEIGHED};
        let profiles = [
            WeightParams::default(),
            WeightParams::reuse_only(),
            WeightParams {
                scalar_reuse_weight: -0.5,
                ..WeightParams::default()
            },
            WeightParams {
                contiguous_bonus: 0.0,
                gather_penalty: 8.0,
                ..WeightParams::default()
            },
        ];
        let (mut decisions, mut weighed) = (0, 0);
        let weighed_before = WEIGHED.get();
        for program in random_programs() {
            for info in program.blocks() {
                let deps = BlockDeps::analyze_in(&info.block, &info.loops);
                let ix = BlockIndex::new(&info.block, &program, lanes);
                for weights in &profiles {
                    let got = group_block_with(&ix, &deps, weights).decisions;
                    let (want, scanned) = full_scan_decisions(&ix, &deps, weights);
                    let key = |d: &GroupingDecision| (d.stmts.clone(), d.round, d.weight.to_bits());
                    let (got, want): (Vec<_>, Vec<_>) = (
                        got.iter().map(key).collect(),
                        want.iter().map(key).collect(),
                    );
                    assert_eq!(got, want, "{weights:?} on\n{}", info.block);
                    (decisions, weighed) = (decisions + got.len(), weighed + scanned);
                }
            }
        }
        let skipped = weighed - (WEIGHED.get() - weighed_before);
        println!("{decisions} decisions: {skipped} of {weighed} weights skipped");
        assert!(decisions > 1000 && skipped > 0, "{decisions} / {skipped}");
    }
}
