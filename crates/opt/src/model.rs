//! The 0-1 ILP view of one packing state.
//!
//! Following goSLP's formulation, statement packing is an integer
//! program: one binary variable per *candidate pack formation* (a legal
//! merge of two current grouping units, which fixes both the pack
//! memberships and — through the deterministic scheduler — the lane
//! permutation it implies), with the objective taken from the
//! `slp-core` emission prices. The constraints are never tabulated; the
//! search enforces each where it is cheapest:
//!
//! * **mutual statement exclusivity** — selecting a variable *merges* its
//!   two units, so no other variable can claim either again;
//! * **pairwise legality** (§4.1 constraints 1, 3 and 4) — only
//!   isomorphic, mutually independent pairs under the lane cap become
//!   variables ([`legal_merges`]);
//! * **multi-group dependence cycles** — a partition whose groups deadlock
//!   is still a packing: the scheduler splits the stuck group back into
//!   scalars while the partition is evaluated, and the search compares
//!   the cost of what was actually emitted.
//!
//! Selecting a variable merges two units and the next round's variables
//! are found over the coarser [`Partition`] (the §4.2.2 iteration), so a
//! chain of selections reaches any width the datapath admits; excluding
//! one leaves the partition as it is.
//!
//! [`Model::bound`] is the LP-style bound the search prunes with: the
//! optimum of the *assignment relaxation*, in which the constraints are
//! dropped and every statement independently takes its cheapest
//! conceivable formation. Dropping constraints can only lower the
//! optimum, so the bound is admissible; see [`Floors`].
//!
//! [`Model::floor`] bounds what one fixed partition evaluates to, pack
//! traffic included, so the search evaluates only partitions that can
//! beat the incumbent. A singleton adds its scalar price; a group the
//! lesser of its scalar price (a deadlocked group is split) and a
//! superword floor: the SIMD op, the cheapest write-back of any lane
//! order, its constant packs, and per located source pack an equal share
//! of its content's cheapest materialization — 0 for a content some group
//! defines. Both schedules cost at least that: an unsplit group is one
//! superword, and any other content is materialized before it is reused.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::iter::once;
use std::ops::Range;

use slp_analysis::{legal_merges, BlockIndex, Loc, PackPos, Unit};
use slp_core::{
    scalar_stmt_cost, AccessClass, CostContext, CostParams, LaneSink, LayoutView, PackRequest,
    ScalarPackClass,
};
use slp_ir::{pack_is_contiguous, ArrayRef, Dest, StmtId};

use crate::solve::cost_context;

/// The branch-exclusion key of a pairwise merge: the names
/// ([`Model::set_of`]) of the two units' statement sets, smaller first.
/// Excluding it forbids merging *exactly these two sets*, in any round.
type PairKey = (u32, u32);

/// Admissible per-statement cost floors, the terms of the assignment
/// relaxation's optimum, by block position.
///
/// For each statement the floors bound, from below, what *any* valid
/// schedule charges for it:
///
/// * `scalar` — exactly what a `ScheduledItem::Single` costs
///   ([`scalar_stmt_cost`]).
/// * `packed` — the lesser of `scalar` and the cheapest conceivable
///   per-lane charge if the statement joins a pack of any legal width
///   `w ≤ cap`: the SIMD op amortized over the widest pack
///   (`op_factor·simd_op/cap` ≤ the true `op_factor·simd_op/w` share),
///   plus a destination floor: at least an aligned `vector_store/cap`
///   per lane for an array, [`unpack_floor`] for a scalar. Source packs
///   floor at 0 (register reuse can make them free), which keeps the
///   bound admissible.
#[derive(Debug, Default)]
struct Floors {
    scalar: Vec<f64>,
    packed: Vec<f64>,
}

fn floors(req: &PackRequest<'_>, cx: &CostContext<'_>) -> Floors {
    let cost = cx.cost;
    let mut floors = Floors::default();
    for (p, stmt) in req.ix.block().iter().enumerate() {
        let scalar = scalar_stmt_cost(stmt, cx);
        // The §4.1 constraint 4 datapath bound on groups containing `stmt`.
        let lanes = req.ix.lane_cap(p).max(2);
        let cap = lanes as f64;
        let dest_floor = match stmt.dest() {
            Dest::Array(_) => cost.array_store(AccessClass::Aligned, lanes) / cap,
            Dest::Scalar(v) => unpack_floor(cx.exposed[v.index()], cost),
        };
        let vector = cost.vector_op(stmt.expr().shape()) / cap + dest_floor;
        floors.scalar.push(scalar);
        floors.packed.push(scalar.min(vector));
    }
    floors
}

/// The least a superword lane pays to write its result back to a scalar:
/// an extract and a store if the scalar is upward-exposed, else nothing.
fn unpack_floor(exposed: bool, cost: &CostParams) -> f64 {
    let sink = [LaneSink::Free, LaneSink::Memory][usize::from(exposed)];
    cost.scalar_unpack(ScalarPackClass::PerLane, &[sink])
}

/// The least a superword pays, in any lane order, to write back (`dest`)
/// or to materialize the pack of content `keys` (sorted). Only an array
/// pack's class depends on the order: key order ascends by offset where
/// some order is contiguous, any other gathers, and an assumed layout may
/// replicate a gathered load into an aligned one.
fn pack_floor(keys: &[u32], dest: bool, ix: &BlockIndex<'_>, cx: &CostContext<'_>) -> f64 {
    let (cost, n) = (cx.cost, keys.len());
    let assumed = matches!(cx.layout, LayoutView::Assumed);
    let exposed = |k: &u32| matches!(ix.loc(*k), Loc::Scalar(v) if cx.exposed[v.index()]);
    match ix.loc(keys[0]) {
        Loc::Const(_) => f64::min(cost.splat(false), cost.array_load(AccessClass::Aligned, n)),
        Loc::Array(_) => {
            let refs: Vec<&ArrayRef> = keys.iter().filter_map(|&k| ix.loc(k).as_array()).collect();
            let price = |class| match dest {
                true => cost.array_store(class, n),
                false => cost.array_load(class, n),
            };
            let gather = price(AccessClass::Gather);
            if pack_is_contiguous(&refs) || (!dest && assumed) {
                let vector = f64::min(price(AccessClass::Aligned), price(AccessClass::Unaligned));
                return gather.min(vector);
            }
            gather
        }
        Loc::Scalar(_) if dest => keys.iter().map(|k| unpack_floor(exposed(k), cost)).sum(),
        Loc::Scalar(v) if keys[0] == keys[n - 1] => cost.splat(cx.exposed[v.index()]),
        Loc::Scalar(_) if assumed && keys.iter().all(exposed) => {
            cost.scalar_pack(ScalarPackClass::VectorMem, &[])
        }
        Loc::Scalar(_) => (keys.iter())
            .map(|k| cost.scalar_pack(ScalarPackClass::PerLane, &[exposed(k)]))
            .sum(),
    }
}

/// What one unit adds to the [`Model::floor`] of any partition holding it.
#[derive(Debug)]
struct Terms {
    /// The statements' scalar price, which a group pays if it is split.
    scalar: f64,
    /// A group's superword floor but for its located source packs;
    /// infinite for a singleton.
    superword: f64,
    /// A group's destination content.
    dest: u32,
    /// A group's located source packs: content, cheapest materialization.
    sources: Vec<(u32, f64)>,
}

/// One partition of the block's statements into grouping units, with the
/// variables (legal, not yet excluded merges) it offers. A search state
/// is a partition plus a count `skip` of its leading variables excluded
/// since it was built: the state branches on `vars[skip]`, and its
/// exclude child is the same partition with `skip + 1`.
#[derive(Debug)]
pub(crate) struct Partition {
    /// The grouping units, in discovery order.
    pub(crate) units: Vec<Unit>,
    /// The name of each unit's statement set.
    sets: Vec<u32>,
    /// The exclusions in force when the partition was built, sorted.
    excluded: Vec<PairKey>,
    /// The variables as unit index pairs `(a, b)`, `a < b`, in branching
    /// order.
    pub(crate) vars: Vec<(usize, usize)>,
    /// Once expanded: its cost as a complete packing, if it was evaluated.
    pub(crate) cost: OnceCell<Option<f64>>,
}

impl Partition {
    fn pair_key(&self, &(a, b): &(usize, usize)) -> PairKey {
        let (x, y) = (self.sets[a], self.sets[b]);
        (x.min(y), x.max(y))
    }

    /// Every exclusion in force after `skip` of this partition's own
    /// variables were excluded, sorted.
    fn exclusions(&self, skip: usize) -> Vec<PairKey> {
        let own = self.vars[..skip].iter().map(|var| self.pair_key(var));
        let mut all: Vec<PairKey> = self.excluded.iter().copied().chain(own).collect();
        all.sort_unstable();
        all
    }

    /// The canonical signature of the state `(self, skip)`: its units'
    /// statement sets and its exclusions, each sorted.
    fn signature(&self, skip: usize) -> (Vec<u32>, Vec<PairKey>) {
        let mut sets = self.sets.clone();
        sets.sort_unstable();
        (sets, self.exclusions(skip))
    }
}

/// What the states of one block solve are made from and remembered in.
#[derive(Debug)]
pub(crate) struct Model<'a> {
    req: &'a PackRequest<'a>,
    floors: Floors,
    /// The names given so far to (sorted) statement sets.
    sets: HashMap<Vec<usize>, u32>,
    /// The signatures of the states reached so far.
    seen: HashSet<(Vec<u32>, Vec<PairKey>)>,
    /// Per statement set, by name: its unit's terms.
    terms: Vec<Terms>,
    /// The names given so far to pack contents (sorted key vectors).
    contents: HashMap<Vec<u32>, u32>,
    /// Per content, scratch for one floor: how many source packs hold it,
    /// infinitely many if some group defines it.
    tally: Vec<f64>,
}

impl<'a> Model<'a> {
    pub(crate) fn new(req: &'a PackRequest<'a>) -> Self {
        Model {
            req,
            floors: floors(req, &cost_context(req)),
            sets: HashMap::new(),
            seen: HashSet::new(),
            terms: Vec::new(),
            contents: HashMap::new(),
            tally: Vec::new(),
        }
    }

    /// Names `unit`'s statement set (equal sets get equal names), with its
    /// [`Terms`] if new.
    fn set_of(&mut self, unit: &Unit) -> u32 {
        let mut stmts: Vec<usize> = unit.stmts().iter().map(|s| s.index()).collect();
        stmts.sort_unstable();
        let fresh = self.sets.len() as u32;
        let name = *self.sets.entry(stmts).or_insert(fresh);
        if name == fresh {
            let terms = self.terms_of(unit);
            self.terms.push(terms);
        }
        name
    }

    /// The root state's partition: all singletons, nothing excluded.
    pub(crate) fn root(&mut self) -> Partition {
        let block = self.req.ix.block();
        let units: Vec<Unit> = block.iter().map(|s| Unit::singleton(s.id())).collect();
        let sets = units.iter().map(|u| self.set_of(u)).collect();
        self.partition(units, sets, Vec::new())
            .expect("the first state is new")
    }

    /// The include child of the state `(parent, skip)`, or `None` if it
    /// was reached before: the branch variable's two units merged in
    /// place of the first, under the exclusions that can still fire. One
    /// naming a set that is no unit of the merged partition never can
    /// (sets only grow); dropping it keeps the dedup effective.
    pub(crate) fn include(&mut self, parent: &Partition, skip: usize) -> Option<Partition> {
        let (a, b) = parent.vars[skip];
        let merged = Unit::merged(&parent.units[a], &parent.units[b]);
        let (mut units, mut sets) = (parent.units.clone(), parent.sets.clone());
        sets[a] = self.set_of(&merged);
        units[a] = merged;
        units.remove(b);
        sets.remove(b);
        let mut excluded = parent.exclusions(skip);
        excluded.retain(|(x, y)| sets.contains(x) && sets.contains(y));
        self.partition(units, sets, excluded)
    }

    /// Whether the exclude child of the state `(part, skip)` — the state
    /// `(part, skip + 1)` — is reached for the first time.
    pub(crate) fn exclude(&mut self, part: &Partition, skip: usize) -> bool {
        self.seen.insert(part.signature(skip + 1))
    }

    /// Builds the partition `units` (named `sets`) under the inherited,
    /// sorted exclusions `excluded`, unless a state over it was reached
    /// before: finds its variables and puts them in branching order.
    fn partition(
        &mut self,
        units: Vec<Unit>,
        sets: Vec<u32>,
        excluded: Vec<PairKey>,
    ) -> Option<Partition> {
        let mut part = Partition {
            units,
            sets,
            excluded,
            vars: Vec::new(),
            cost: OnceCell::new(),
        };
        if !self.seen.insert(part.signature(0)) {
            return None;
        }
        let (ix, floors) = (self.req.ix, &self.floors);
        // Branching order: the highest-score variable first, where the
        // score is the estimated objective improvement of selecting it
        // (scalar floors minus packed floors over its statements — a
        // heuristic, not part of the bound); ties go to the
        // lexicographically smallest sorted statement-id list (kept one
        // after the other in `ids`), so the search is deterministic.
        let mut ids: Vec<usize> = Vec::new();
        let mut keyed: Vec<(f64, Range<usize>, (usize, usize))> = Vec::new();
        for var in legal_merges(ix, self.req.deps, &part.units) {
            if part.excluded.binary_search(&part.pair_key(&var)).is_ok() {
                continue;
            }
            let (a, b) = var;
            let stmts = || part.units[a].stmts().iter().chain(part.units[b].stmts());
            let gain = |s: &StmtId| {
                let p = ix.position(*s);
                floors.scalar[p] - floors.packed[p]
            };
            let first = ids.len();
            ids.extend(stmts().map(|s| s.index()));
            ids[first..].sort_unstable();
            keyed.push((stmts().map(gain).sum(), first..ids.len(), var));
        }
        let tie = |x: &Range<usize>| &ids[x.clone()];
        keyed.sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then_with(|| tie(&x.1).cmp(tie(&y.1))));
        part.vars = keyed.into_iter().map(|(_, _, var)| var).collect();
        Some(part)
    }

    /// The assignment-relaxation optimum of the state `(part, skip)` — an
    /// admissible lower bound on the cost of every schedule reachable
    /// from it. Statements inside an already-merged unit, and singletons some
    /// remaining variable still touches, are assigned their cheapest
    /// floor; a singleton *no* variable touches can never be packed in
    /// any descendant state (merging only coarsens the partition and
    /// cannot create a partner that does not exist pairwise), so it is
    /// assigned its exact scalar cost.
    pub(crate) fn bound(&self, part: &Partition, skip: usize) -> f64 {
        let mut packable = vec![false; part.units.len()];
        for &(a, b) in &part.vars[skip..] {
            packable[a] = true;
            packable[b] = true;
        }
        let mut bound = 0.0;
        for (unit, packable) in part.units.iter().zip(packable) {
            let floor = if unit.width() > 1 || packable {
                &self.floors.packed
            } else {
                &self.floors.scalar
            };
            for &s in unit.stmts() {
                bound += floor[self.req.ix.position(s)];
            }
        }
        bound
    }

    /// A floor on what `part` evaluates to (see the module doc): one pass
    /// tallies the groups' contents, one sums the units' terms.
    pub(crate) fn floor(&mut self, part: &Partition) -> f64 {
        let (terms, tally) = (&self.terms, &mut self.tally);
        let units = || part.sets.iter().map(|&set| &terms[set as usize]);
        let groups = || units().filter(|t| t.superword.is_finite());
        for t in groups() {
            tally[t.dest as usize] = f64::INFINITY;
            for &(c, _) in &t.sources {
                tally[c as usize] += 1.0;
            }
        }
        let share = |&(c, price): &(u32, f64)| price / tally[c as usize];
        let packs = |t: &Terms| t.sources.iter().map(share).sum::<f64>();
        let floor = units().map(|t| t.scalar.min(t.superword + packs(t))).sum();
        for c in groups().flat_map(|t| once(t.dest).chain(t.sources.iter().map(|s| s.0))) {
            tally[c as usize] = 0.0;
        }
        floor
    }

    /// The [`Terms`] of `unit`.
    fn terms_of(&mut self, unit: &Unit) -> Terms {
        let (ix, cx) = (self.req.ix, &cost_context(self.req));
        let lanes: Vec<usize> = unit.stmts().iter().map(|&s| ix.position(s)).collect();
        let mut terms = Terms {
            scalar: lanes.iter().map(|&p| self.floors.scalar[p]).sum(),
            superword: f64::INFINITY,
            dest: 0,
            sources: Vec::new(),
        };
        if unit.is_singleton() {
            return terms;
        }
        let expr = ix.stmt_at(lanes[0]).expr();
        terms.superword = cx.cost.vector_op(expr.shape());
        for slot in once(PackPos::Dest).chain((0..expr.arity()).map(PackPos::Operand)) {
            let mut keys: Vec<u32> = ix.keys(&lanes, slot).collect();
            keys.sort_unstable();
            let price = pack_floor(&keys, slot == PackPos::Dest, ix, cx);
            // Constant packs never become live: each pays in full.
            if matches!(ix.loc(keys[0]), Loc::Const(_)) {
                terms.superword += price;
                continue;
            }
            let fresh = self.contents.len() as u32;
            let content = *self.contents.entry(keys).or_insert(fresh);
            self.tally.resize(self.contents.len(), 0.0);
            match slot {
                PackPos::Dest => (terms.superword, terms.dest) = (terms.superword + price, content),
                PackPos::Operand(_) => terms.sources.push((content, price)),
            }
        }
        terms
    }
}

#[cfg(test)]
mod tests {
    use slp_core::{MachineConfig, SlpConfig, Strategy};

    use super::*;
    use crate::testutil::each_block;

    /// Walks one root-to-leaf path of the search tree, alternating
    /// exclusions and inclusions, and at every exclusion rebuilds the
    /// exclude child from scratch.
    #[test]
    fn exclude_child_is_the_parent_minus_the_branched_variable() {
        let mut program = slp_suite::kernel("milc", 1);
        slp_ir::unroll_program(&mut program, 2);
        let machine = MachineConfig::intel_dunnington().with_datapath_bits(256);
        let config = SlpConfig::for_machine(machine, Strategy::Optimal);
        let mut rebuilt = 0;
        each_block(&program, &config, |req| {
            let mut model = Model::new(req);
            let mut part = model.root();
            while !part.vars.is_empty() {
                let skips = part.vars.len().min(3);
                for skip in 1..=skips {
                    let scratch = model
                        .partition(part.units.clone(), part.sets.clone(), part.exclusions(skip))
                        .expect("no exclude child was reached yet");
                    assert_eq!(scratch.vars, part.vars[skip..]);
                    assert_eq!(model.bound(&scratch, 0), model.bound(&part, skip));
                    assert_eq!(scratch.signature(0), part.signature(skip));
                    rebuilt += 1;
                }
                part = model
                    .include(&part, skips - 1)
                    .expect("a merge along one path is new");
            }
        });
        assert!(
            rebuilt > 20,
            "only {rebuilt} exclude children were compared"
        );
    }
}
