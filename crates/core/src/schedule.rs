//! The statement-scheduling phase (§4.3, pseudo-code Figure 11).
//!
//! Given the SIMD groups found by grouping, this phase (1) linearizes the
//! groups and leftover single statements into a valid execution sequence
//! that brings superword reuses close together, and (2) fixes the lane
//! order inside each superword statement to minimize register permutation
//! instructions, using a *live superword set* that tracks which ordered
//! packs are most likely resident in vector registers.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::ops::Range;

use slp_ir::{ArrayRef, BlockDeps};

use crate::live::{LivePacks, Reuse};
use crate::superword::{BlockSchedule, ScheduledItem, SuperwordStmt};
use crate::{BlockIndex, PackPos, Unit};

/// Schedules one basic block from its grouping result.
///
/// `units` must partition the block's statements (as produced by
/// [`group_block`](crate::group_block)); groups that would deadlock the
/// dependence graph (a multi-group cycle the pairwise conflict test cannot
/// see) are split back into scalar statements. The live superword set
/// holds `vector_regs` packs, the machine's register file.
pub fn schedule_block(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    units: &[Unit],
    vector_regs: usize,
) -> BlockSchedule {
    split_on_deadlock(units, |units| {
        try_schedule(ix, deps, units, vector_regs, |_| {})
    })
}

/// Schedules units in plain program/dependence order, keeping each unit's
/// stored lane order. This is the scheduling the baseline SLP algorithm
/// and the native vectorizer use: no live-set reuse heuristic, no lane
/// reordering.
pub fn schedule_in_program_order(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    units: &[Unit],
) -> BlockSchedule {
    split_on_deadlock(units, |units| try_program_order(ix, deps, units))
}

/// Runs `attempt` until it succeeds, splitting the deadlocked group each
/// `Err(i)` names back into singletons to break the cycle.
fn split_on_deadlock(
    units: &[Unit],
    attempt: impl Fn(&[Unit]) -> Result<BlockSchedule, usize>,
) -> BlockSchedule {
    let mut units = Cow::Borrowed(units);
    loop {
        match attempt(&units) {
            Ok(sched) => return sched,
            Err(stuck) => {
                let units = units.to_mut();
                let victim = units.remove(stuck);
                units.extend(victim.stmts().iter().map(|&s| Unit::singleton(s)));
            }
        }
    }
}

/// The dependence graph among units (paper Figure 11, lines 1-9) and the
/// progress of one pass over it.
struct UnitGraph {
    /// The units' statements as block positions, unit after unit, each in
    /// the unit's order.
    lanes: Vec<usize>,
    /// Where each unit's lanes start (and, last, their count).
    start: Vec<usize>,
    /// The dependences between distinct units, ascending, each once.
    edges: Vec<(usize, usize)>,
    /// Each unit's count of unscheduled predecessor units; `usize::MAX`
    /// once the unit is scheduled itself.
    preds: Vec<usize>,
}

impl UnitGraph {
    fn new(ix: &BlockIndex<'_>, deps: &BlockDeps, units: &[Unit]) -> Self {
        let (n, stmts) = (units.len(), ix.block().len());
        let (mut lanes, mut start) = (Vec::with_capacity(stmts), Vec::with_capacity(n + 1));
        let mut unit_of = vec![usize::MAX; stmts];
        for (u, unit) in units.iter().enumerate() {
            start.push(lanes.len());
            for &s in unit.stmts() {
                let p = ix.position(s);
                unit_of[p] = u;
                lanes.push(p);
            }
        }
        start.push(lanes.len());
        assert!(!unit_of.contains(&usize::MAX), "units partition the block");
        let between = |&(p, q): &(usize, usize)| (unit_of[p], unit_of[q]);
        let mut edges: Vec<_> = deps.direct_pairs().iter().map(between).collect();
        edges.retain(|(a, b)| a != b);
        edges.sort_unstable();
        edges.dedup();
        let mut preds = vec![0usize; n];
        for &(_, b) in &edges {
            preds[b] += 1;
        }
        UnitGraph {
            lanes,
            start,
            edges,
            preds,
        }
    }

    /// The statements of unit `u` as block positions, in the unit's order.
    fn lanes(&self, u: usize) -> &[usize] {
        &self.lanes[self.start[u]..self.start[u + 1]]
    }

    /// The earliest block position of unit `u`.
    fn first(&self, u: usize) -> usize {
        self.lanes(u).iter().copied().min().unwrap_or(0)
    }

    fn is_group(&self, u: usize) -> bool {
        self.lanes(u).len() > 1
    }

    /// The unscheduled units whose predecessors have all been scheduled.
    fn ready(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.preds.len()).filter(|&u| self.preds[u] == 0)
    }

    fn retire(&mut self, u: usize) {
        self.preds[u] = usize::MAX;
        let succs = &self.edges[self.edges.partition_point(|&(a, _)| a < u)..];
        for &(_, s) in succs.iter().take_while(|&&(a, _)| a == u) {
            self.preds[s] -= 1;
        }
    }

    /// On deadlock (nothing ready): the first unscheduled group, to split.
    fn stuck_group(&self) -> usize {
        (0..self.preds.len())
            .find(|&u| self.preds[u] != usize::MAX && self.is_group(u))
            // Invariant: singletons alone form the acyclic statement
            // DAG, so any cycle involves a superword group to split.
            .expect("pure statement DAGs cannot deadlock")
    }
}

/// The schedule item executing the statements at positions `order`.
fn item(ix: &BlockIndex<'_>, order: &[usize]) -> ScheduledItem {
    let id = |&p: &usize| ix.stmt_at(p).id();
    match order {
        [single] => ScheduledItem::Single(id(single)),
        _ => ScheduledItem::Superword(SuperwordStmt::new(order.iter().map(id).collect())),
    }
}

fn try_program_order(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    units: &[Unit],
) -> Result<BlockSchedule, usize> {
    let mut graph = UnitGraph::new(ix, deps, units);
    let mut items = Vec::with_capacity(units.len());
    for _ in 0..units.len() {
        let Some(chosen) = graph.ready().min_by_key(|&u| graph.first(u)) else {
            return Err(graph.stuck_group());
        };
        items.push(item(ix, graph.lanes(chosen)));
        graph.retire(chosen);
    }
    Ok(BlockSchedule::new(items))
}

/// Attempts a schedule; `Err(i)` names a group unit to split on deadlock.
/// `planned` hears, superword by superword in operand order, how the plan
/// expects each source pack to be come by.
fn try_schedule(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    units: &[Unit],
    vector_regs: usize,
    mut planned: impl FnMut(Reuse),
) -> Result<BlockSchedule, usize> {
    let mut graph = UnitGraph::new(ix, deps, units);
    let mut live = LivePacks::new(vector_regs);
    let mut items = Vec::with_capacity(units.len());
    // Scratch, reused from step to step: a pack's keys, the candidate
    // lane orders one after the other, a pack's array elements.
    let (mut keys, mut orders, mut refs) = (Vec::new(), Vec::new(), Vec::new());

    for _ in 0..units.len() {
        // Prefer the ready superword statement with the most superword
        // reuses against the live set (Figure 11, lines 15-18); emit
        // singles only when no group is ready. Any lane order names a
        // pack's content: the unit's stored one does.
        let mut reuses = |u: usize| {
            let lanes = graph.lanes(u);
            let live_in_some_order = |&slot: &PackPos| {
                keys.clear();
                keys.extend(ix.keys(lanes, slot));
                live.permuted(&keys).is_some()
            };
            ix.pack_positions(lanes).filter(live_in_some_order).count()
        };
        let chosen = (graph.ready().filter(|&u| graph.is_group(u)))
            .max_by_key(|&u| (reuses(u), Reverse(graph.first(u))))
            .or_else(|| graph.ready().min_by_key(|&u| graph.first(u)));
        let Some(chosen) = chosen else {
            return Err(graph.stuck_group());
        };

        let lanes = graph.lanes(chosen);
        if graph.is_group(chosen) {
            let order = choose_lane_order(ix, lanes, &live, &mut keys, &mut orders, &mut refs);
            let order = &orders[order];
            for slot in ix
                .pack_positions(lanes)
                .filter(|&slot| slot != PackPos::Dest)
            {
                keys.clear();
                keys.extend(ix.keys(order, slot));
                planned(live.source(&keys, true, |_| ()).1);
            }
            live.define(ix, order, ());
            items.push(item(ix, order));
        } else {
            live.invalidate(ix, ix.key(lanes[0], PackPos::Dest));
            items.push(item(ix, lanes));
        }
        graph.retire(chosen);
    }
    Ok(BlockSchedule::new(items))
}

/// Chooses the lane order of the superword statement over `lanes` (Figure
/// 11, lines 19-27): among program order and the orders that realize a
/// *direct* reuse from the live set, the one needing the fewest
/// permutations. The candidates are left in `orders`, one after the
/// other, and the chosen one's place there is returned.
///
/// Only a live pack that is a permutation of one of the statement's packs
/// can be aligned with, lane by lane: each of its keys takes the first
/// lane of `lanes` that holds the key and is not yet taken.
fn choose_lane_order<'b>(
    ix: &BlockIndex<'b>,
    lanes: &[usize],
    live: &LivePacks<()>,
    keys: &mut Vec<u32>,
    orders: &mut Vec<usize>,
    refs: &mut Vec<&'b ArrayRef>,
) -> Range<usize> {
    let width = lanes.len();
    orders.clear();
    orders.extend_from_slice(lanes);
    orders.sort_unstable();
    for slot in ix.pack_positions(lanes) {
        keys.clear();
        keys.extend(ix.keys(lanes, slot));
        for (target, ()) in live.permutations(keys) {
            let known = orders.len();
            for want in target {
                let taken = &orders[known..];
                let lane = (lanes.iter().zip(&*keys))
                    .find(|&(lane, key)| key == want && !taken.contains(lane))
                    .expect("a permutation has a lane for every key");
                orders.push(*lane.0);
            }
            let (before, aligned) = orders.split_at(known);
            if before.chunks_exact(width).any(|order| order == aligned) {
                orders.truncate(known);
            }
        }
    }

    // Program order alone: nothing live to align to, nothing to score.
    if orders.len() == width {
        return 0..width;
    }
    let mut best = (usize::MAX, usize::MAX, 0);
    for (rank, order) in orders.chunks_exact(width).enumerate() {
        let (mut permutes, mut directs, mut gathers) = (0usize, 0usize, 0usize);
        for slot in ix.pack_positions(lanes) {
            keys.clear();
            keys.extend(ix.keys(order, slot));
            if live.exact(keys).is_some() {
                directs += 1;
            } else if live.permuted(keys).is_some() {
                permutes += 1;
            } else if is_noncontiguous_array_pack(ix, keys, refs) {
                // A memory-resident array pack that this lane order
                // turns into a gather/scatter instead of one vector
                // memory operation.
                gathers += 1;
            }
        }
        // A gather costs several shuffles' worth of work, so it
        // dominates the permutation count; ties keep earlier
        // candidates (program order first) for determinism.
        best = best.min((4 * gathers + permutes, usize::MAX - directs, rank));
    }
    best.2 * width..(best.2 + 1) * width
}

/// Whether `keys` is an all-array pack that is *not* contiguous ascending
/// in this order (so materializing it from memory needs a gather).
fn is_noncontiguous_array_pack<'b>(
    ix: &BlockIndex<'b>,
    keys: &[u32],
    refs: &mut Vec<&'b ArrayRef>,
) -> bool {
    refs.clear();
    refs.extend(keys.iter().map_while(|&k| ix.loc(k).as_array()));
    refs.len() == keys.len() && !slp_ir::pack_is_contiguous(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_groups;
    use crate::emit::{
        emit_schedule, AccessClass, CostContext, EmitSink, LaneSink, LayoutView, ScalarPackClass,
    };
    use crate::group::group_block;
    use crate::superword::validate_schedule;
    use crate::{compile, MachineConfig, SlpConfig, Strategy};
    use slp_ir::{BasicBlock, BinOp, Expr, Program, ScalarType, StmtId};

    /// Figure 1's reuse chain, reconstructed:
    /// S1: c1 = V1 * k;  S2: c2 = V2 * k;     defines pack <V1,V2>
    /// S3: d1 = V1 + x;  S4: d2 = V2 + x;     direct reuse of <V1,V2>
    /// S5: e1 = V2 - y;  S6: e2 = V1 - y;     permuted reuse <V2,V1>
    fn figure1() -> (Program, BasicBlock) {
        let mut p = Program::new("fig1");
        let names = [
            "V1", "V2", "k", "x", "y", "c1", "c2", "d1", "d2", "e1", "e2",
        ];
        let v: Vec<_> = names
            .iter()
            .map(|n| p.add_scalar(*n, ScalarType::F32))
            .collect();
        let s = [
            p.make_stmt(
                v[5].into(),
                Expr::Binary(BinOp::Mul, v[0].into(), v[2].into()),
            ),
            p.make_stmt(
                v[6].into(),
                Expr::Binary(BinOp::Mul, v[1].into(), v[2].into()),
            ),
            p.make_stmt(
                v[7].into(),
                Expr::Binary(BinOp::Add, v[0].into(), v[3].into()),
            ),
            p.make_stmt(
                v[8].into(),
                Expr::Binary(BinOp::Add, v[1].into(), v[3].into()),
            ),
            p.make_stmt(
                v[9].into(),
                Expr::Binary(BinOp::Sub, v[1].into(), v[4].into()),
            ),
            p.make_stmt(
                v[10].into(),
                Expr::Binary(BinOp::Sub, v[0].into(), v[4].into()),
            ),
        ];
        let bb: BasicBlock = s.into_iter().collect();
        (p, bb)
    }

    fn lanes(item: &ScheduledItem) -> Vec<u32> {
        item.stmts().iter().map(|s| s.index() as u32).collect()
    }

    #[test]
    fn schedules_are_valid() {
        let (p, bb) = figure1();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 2);
        let g = group_block(&ix, &deps);
        let sched = schedule_block(&ix, &deps, &g.units, 16);
        validate_schedule(&bb, &deps, &sched, &p, |_| 2).unwrap();
        assert_eq!(sched.superword_count(), 3);
    }

    #[test]
    fn permuted_reuse_aligns_lane_order() {
        let (p, bb) = figure1();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 2);
        let g = group_block(&ix, &deps);
        let sched = schedule_block(&ix, &deps, &g.units, 16);
        // The <S5,S6> group uses V2,V1: with <V1,V2> live, the chosen lane
        // order must align to the live pack, scheduling S6 (which reads
        // V1) first.
        let last = sched
            .items()
            .iter()
            .rfind(|i| matches!(i, ScheduledItem::Superword(_)))
            .unwrap();
        assert_eq!(lanes(last), vec![5, 4], "expected <S6,S5> lane order");
    }

    /// `c0 = V * k; c1 = W * k; c2 = V * k`: operand 0 holds `V` in two
    /// lanes. The lane order chosen for the statements at `lanes` with
    /// operand 0's keys live in the order of positions `target`.
    fn order_aligned_to(lanes: &[usize], target: Option<[usize; 3]>) -> Vec<usize> {
        let mut p = Program::new("dup");
        let names = ["V", "W", "k", "c0", "c1", "c2"];
        let v: Vec<_> = (names.iter())
            .map(|n| p.add_scalar(*n, ScalarType::F32))
            .collect();
        let mul = |x: usize| Expr::Binary(BinOp::Mul, v[x].into(), v[2].into());
        let stmts =
            [(3, 0), (4, 1), (5, 0)].map(|(dest, src)| p.make_stmt(v[dest].into(), mul(src)));
        let bb: BasicBlock = stmts.into_iter().collect();
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        let mut live = LivePacks::new(16);
        if let Some(target) = target {
            live.register(ix.keys(&target, PackPos::Operand(0)), ());
        }
        let (mut keys, mut orders, mut refs) = (Vec::new(), Vec::new(), Vec::new());
        let order = choose_lane_order(&ix, lanes, &live, &mut keys, &mut orders, &mut refs);
        orders[order].to_vec()
    }

    #[test]
    fn a_key_held_by_two_lanes_takes_the_first_lane_not_yet_taken() {
        // Live <V,V,W>: the first V takes lane 0, the second lane 2.
        assert_eq!(order_aligned_to(&[0, 1, 2], Some([0, 2, 1])), [0, 2, 1]);
        assert_eq!(order_aligned_to(&[0, 1, 2], Some([2, 0, 1])), [0, 2, 1]);
        // Live <W,V,V>.
        assert_eq!(order_aligned_to(&[0, 1, 2], Some([1, 0, 2])), [1, 0, 2]);
        assert_eq!(order_aligned_to(&[0, 1, 2], Some([1, 2, 0])), [1, 0, 2]);
        // "First" is first in the unit's stored order, not in the block:
        // stored <S2,S1,S0>, the first V of live <V,V,W> takes S2.
        assert_eq!(order_aligned_to(&[2, 1, 0], Some([0, 2, 1])), [2, 0, 1]);
        assert_eq!(order_aligned_to(&[2, 1, 0], Some([1, 0, 2])), [1, 2, 0]);
    }

    #[test]
    fn one_candidate_is_program_order() {
        // Nothing live, and a live pack that aligns to program order
        // itself: <V,W,V>, in either order of its two `V`s.
        assert_eq!(order_aligned_to(&[0, 1, 2], None), [0, 1, 2]);
        assert_eq!(order_aligned_to(&[2, 0, 1], None), [0, 1, 2]);
        assert_eq!(order_aligned_to(&[0, 1, 2], Some([0, 1, 2])), [0, 1, 2]);
        assert_eq!(order_aligned_to(&[0, 1, 2], Some([2, 1, 0])), [0, 1, 2]);
    }

    #[test]
    fn singles_and_groups_interleave_validly() {
        // S0: t = x + y (single);  S1/S2 use t: groupable pair.
        let mut p = Program::new("mix");
        let names = ["t", "x", "y", "a", "b"];
        let v: Vec<_> = names
            .iter()
            .map(|n| p.add_scalar(*n, ScalarType::F64))
            .collect();
        let s0 = p.make_stmt(
            v[0].into(),
            Expr::Binary(BinOp::Add, v[1].into(), v[2].into()),
        );
        let s1 = p.make_stmt(
            v[3].into(),
            Expr::Binary(BinOp::Mul, v[0].into(), v[1].into()),
        );
        let s2 = p.make_stmt(
            v[4].into(),
            Expr::Binary(BinOp::Mul, v[0].into(), v[2].into()),
        );
        let bb: BasicBlock = [s0, s1, s2].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 2);
        let g = group_block(&ix, &deps);
        let sched = schedule_block(&ix, &deps, &g.units, 16);
        validate_schedule(&bb, &deps, &sched, &p, |_| 2).unwrap();
        // The single S0 must run before the group that reads t.
        assert!(matches!(sched.items()[0], ScheduledItem::Single(_)));
    }

    #[test]
    fn writes_invalidate_live_packs() {
        // S0/S1 define <a,b>; S2 overwrites a; S3/S4 read <a,b> again.
        // The schedule is still valid; the live set must not claim a
        // stale <a,b>. (Behavioural check: scheduling succeeds and S2
        // precedes the second group.)
        let mut p = Program::new("inv");
        let names = ["a", "b", "x", "c", "d"];
        let v: Vec<_> = names
            .iter()
            .map(|n| p.add_scalar(*n, ScalarType::F64))
            .collect();
        let s0 = p.make_stmt(
            v[0].into(),
            Expr::Binary(BinOp::Add, v[2].into(), 1.0.into()),
        );
        let s1 = p.make_stmt(
            v[1].into(),
            Expr::Binary(BinOp::Add, v[2].into(), 2.0.into()),
        );
        let s2 = p.make_stmt(
            v[0].into(),
            Expr::Binary(BinOp::Mul, v[0].into(), 3.0.into()),
        );
        let s3 = p.make_stmt(
            v[3].into(),
            Expr::Binary(BinOp::Sub, v[0].into(), v[2].into()),
        );
        let s4 = p.make_stmt(
            v[4].into(),
            Expr::Binary(BinOp::Sub, v[1].into(), v[2].into()),
        );
        let bb: BasicBlock = [s0, s1, s2, s3, s4].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 2);
        let g = group_block(&ix, &deps);
        let sched = schedule_block(&ix, &deps, &g.units, 16);
        validate_schedule(&bb, &deps, &sched, &p, |_| 2).unwrap();
    }

    /// The emission walk's account of where each non-constant source
    /// pack came from, superword by superword in operand order.
    #[derive(Default)]
    struct Emitted {
        /// What defined each register since the last SIMD op: `None` for
        /// a constant, which is no source pack.
        fresh: Vec<(usize, Option<Reuse>)>,
        regs: usize,
        classes: Vec<Reuse>,
    }

    impl Emitted {
        fn def(&mut self, class: Option<Reuse>) -> usize {
            self.regs += 1;
            self.fresh.push((self.regs, class));
            self.regs
        }
    }

    impl EmitSink for Emitted {
        type Reg = usize;
        fn scalar_stmt(&mut self, _: &slp_ir::Statement, _: u32, _: u32) {}
        fn const_splat(&mut self, _: f64, _: usize) -> usize {
            self.def(None)
        }
        fn const_vector(&mut self, _: impl ExactSizeIterator<Item = f64>) -> usize {
            self.def(None)
        }
        fn scalar_splat(&mut self, _: slp_ir::VarId, _: bool, _: usize) -> usize {
            self.def(Some(Reuse::Absent))
        }
        fn array_load(&mut self, _: &[&ArrayRef], _: AccessClass) -> usize {
            self.def(Some(Reuse::Absent))
        }
        fn scalar_pack(&mut self, _: &[slp_ir::VarId], _: &[bool], _: ScalarPackClass) -> usize {
            self.def(Some(Reuse::Absent))
        }
        fn permute(&mut self, _: usize, _: &[u32], _: &[u32]) -> usize {
            self.def(Some(Reuse::Permuted))
        }
        fn op(&mut self, _: slp_ir::ExprShape, srcs: &[usize]) -> usize {
            for &src in srcs {
                // A register nothing defined for this op was live: a
                // direct reuse — also of an earlier operand of the op.
                match self.fresh.iter().position(|&(reg, _)| reg == src) {
                    Some(at) => self.classes.extend(self.fresh.remove(at).1),
                    None => self.classes.push(Reuse::Direct),
                }
            }
            self.fresh.clear();
            self.regs += 1;
            self.regs
        }
        fn array_store(&mut self, _: usize, _: &[&ArrayRef], _: AccessClass) {}
        fn scalar_unpack(
            &mut self,
            _: usize,
            _: &[slp_ir::VarId],
            _: &[LaneSink],
            _: ScalarPackClass,
        ) {
        }
    }

    /// Schedules every block of `program` (unrolled as the pipeline
    /// unrolls it) from the holistic and from the baseline groups, and
    /// checks that the walk comes by every source pack the way the
    /// scheduler planned. Returns each schedule's lanes and plan.
    fn plan_is_what_the_walk_emits(
        program: &Program,
        machine: &MachineConfig,
    ) -> Vec<(Vec<Vec<u32>>, Vec<Reuse>)> {
        let config = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
        let program = compile(program, &config).program;
        let exposed = program.upward_exposed_scalars();
        let mut schedules = Vec::new();
        for info in program.blocks() {
            let deps = BlockDeps::analyze(&info.block);
            let ix = BlockIndex::new(&info.block, &program, |ty| machine.lanes_for(ty));
            let cx = CostContext {
                program: &program,
                loops: &info.loops,
                exposed: &exposed,
                cost: &machine.cost,
                vector_regs: machine.vector_regs,
                layout: LayoutView::None,
                permuted_reuse: true,
            };
            for units in [group_block(&ix, &deps).units, baseline_groups(&ix, &deps)] {
                let planned = std::cell::RefCell::new(Vec::new());
                let sched = split_on_deadlock(&units, |units| {
                    planned.borrow_mut().clear();
                    let plan = |class| planned.borrow_mut().push(class);
                    try_schedule(&ix, &deps, units, machine.vector_regs, plan)
                });
                let mut emitted = Emitted::default();
                emit_schedule(&ix, &sched, &cx, &mut emitted);
                let planned = planned.into_inner();
                assert_eq!(planned, emitted.classes, "{}: {sched:?}", program.name());
                schedules.push((sched.items().iter().map(lanes).collect(), planned));
            }
        }
        schedules
    }

    #[test]
    fn the_scheduler_plans_what_the_walk_emits() {
        let machines = [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ];
        for machine in &machines {
            for (_, program) in slp_suite::all(1) {
                plan_is_what_the_walk_emits(&program, machine);
            }
        }
        // A destination pack read back by the next superword. Over `f64`
        // its register is reused. Over `i64` the register holds
        // un-truncated lanes and the walk reloads, where a scheduler
        // with a live set of its own planned a direct reuse. The belief
        // changed, the schedule did not: the lanes are that scheduler's.
        for (ty, reuse) in [("f64", Reuse::Direct), ("i64", Reuse::Absent)] {
            let r1 = slp_lang::compile(&format!(
                "kernel r1 {{ array A: {ty}[64]; array B: {ty}[64]; array C: {ty}[64];
                 for i in 0..16 {{
                     A[2*i] = B[2*i] * 2; A[2*i+1] = B[2*i+1] * 2;
                     C[2*i] = A[2*i] + 1; C[2*i+1] = A[2*i+1] + 1;
                 }} }}"
            ))
            .unwrap();
            let pairs = vec![vec![4, 5], vec![6, 7], vec![8, 9], vec![10, 11]];
            let plan = vec![Reuse::Absent, reuse, Reuse::Absent, reuse];
            assert_eq!(
                plan_is_what_the_walk_emits(&r1, &machines[0]),
                [(pairs.clone(), plan.clone()), (pairs, plan)],
                "{ty}"
            );
        }
    }

    #[test]
    fn multi_group_cycle_is_split() {
        // Construct a 3-group cycle that pairwise conflict checks miss:
        // G0 = {S0, S5}, G1 = {S1, S2}, G2 = {S3, S4} with
        // S0→S1 (G0→G1), S2→S3 (G1→G2), S4→S5 (G2→G0).
        let mut p = Program::new("cycle3");
        let v: Vec<_> = (0..12)
            .map(|k| p.add_scalar(format!("v{k}"), ScalarType::F64))
            .collect();
        let mk = |p: &mut Program, d: usize, s: usize| {
            p.make_stmt(
                v[d].into(),
                Expr::Binary(BinOp::Add, v[s].into(), 1.0.into()),
            )
        };
        let s0 = mk(&mut p, 0, 6);
        let s1 = mk(&mut p, 1, 0);
        let s2 = mk(&mut p, 2, 7);
        let s3 = mk(&mut p, 3, 2);
        let s4 = mk(&mut p, 4, 8);
        let s5 = mk(&mut p, 5, 4);
        let bb: BasicBlock = [s0, s1, s2, s3, s4, s5].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let g0 = Unit::merged(
            &Unit::singleton(StmtId::new(0)),
            &Unit::singleton(StmtId::new(5)),
        );
        let g1 = Unit::merged(
            &Unit::singleton(StmtId::new(1)),
            &Unit::singleton(StmtId::new(2)),
        );
        let g2 = Unit::merged(
            &Unit::singleton(StmtId::new(3)),
            &Unit::singleton(StmtId::new(4)),
        );
        let units = vec![g0, g1, g2];
        let ix = BlockIndex::new(&bb, &p, |_| 2);
        let sched = schedule_block(&ix, &deps, &units, 16);
        // At least one group was split, and the result is valid.
        validate_schedule(&bb, &deps, &sched, &p, |_| 2).unwrap();
        assert!(sched.superword_count() < 3);
    }
}
