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
//!   variables ([`mergeable`]);
//! * **multi-group dependence cycles** — a partition whose groups deadlock
//!   is still a packing: the scheduler splits the stuck group back into
//!   scalars while the partition is evaluated, and the search compares
//!   the cost of what was actually emitted.
//!
//! Selecting a variable merges two units into a coarser [`Partition`]
//! (the §4.2.2 iteration), so a chain of selections reaches any width the
//! datapath admits; excluding one leaves the partition as it is. A merge
//! changes only the pairs that touch the merged unit: the coarser
//! partition inherits every other variable, with its score and relative
//! order, and tests, scores and sorts only the merged unit's pairs.
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
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::iter::{empty, once};
use std::ops::Range;
use std::rc::Rc;

use slp_core::{
    mergeable, scalar_stmt_cost, AccessClass, BlockIndex, CostContext, CostParams, LaneSink,
    LayoutView, Loc, PackPos, PackRequest, ScalarPackClass, Unit,
};
use slp_ir::{pack_is_contiguous, ArrayRef, Dest};

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

/// One statement set: its ids, ascending, and what a unit of it adds to
/// the [`Model::floor`] of any partition holding it.
#[derive(Debug)]
struct Terms {
    ids: Rc<[u32]>,
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

/// A variable: a legal merge of the units `a < b` of its partition, and
/// its score — the estimated objective improvement of selecting it, the
/// scalar floors minus the packed floors over its statements (a
/// heuristic, not part of the bound).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Var {
    a: usize,
    b: usize,
    score: f64,
}

/// One partition of the block's statements into grouping units, with the
/// variables (legal, not yet excluded merges) it offers. A search state
/// is a partition plus a count `skip` of its leading variables excluded
/// since it was built: the state branches on `vars[skip]`, and its
/// exclude child is the same partition with `skip + 1`.
#[derive(Debug)]
pub(crate) struct Partition {
    /// The grouping units, in discovery order, as [`Model`] unit ids.
    units: Vec<usize>,
    /// The state's dedup key: its units' set names ascending,
    /// `u32::MAX`, then the exclusions in force when it was built, sorted.
    key: Vec<u32>,
    /// The variables in branching order.
    pub(crate) vars: Vec<Var>,
    /// Per unit: one past the index of the last variable touching it.
    last: Vec<usize>,
    /// Once expanded: its cost as a complete packing, if it was evaluated.
    pub(crate) cost: OnceCell<Option<f64>>,
}

impl Partition {
    fn pair_key(&self, held: &[Held], var: &Var) -> PairKey {
        let (x, y) = (held[self.units[var.a]].set, held[self.units[var.b]].set);
        (x.min(y), x.max(y))
    }

    /// The exclusions in force after `skip` of its variables were
    /// excluded.
    fn exclusions<'s>(
        &'s self,
        held: &'s [Held],
        skip: usize,
    ) -> impl Iterator<Item = PairKey> + 's {
        let built = self.key[self.units.len() + 1..]
            .chunks(2)
            .map(|k| (k[0], k[1]));
        built.chain(self.vars[..skip].iter().map(|v| self.pair_key(held, v)))
    }
}

/// A unit some partition holds: its set's name, and its lanes (block
/// positions, in unit order) in [`Model`]'s `lanes`.
#[derive(Debug)]
struct Held {
    unit: Unit,
    set: u32,
    lanes: Range<usize>,
}

/// The ascending union of two disjoint ascending lists.
fn union<'s>(mut x: &'s [u32], mut y: &'s [u32]) -> impl Iterator<Item = u32> + 's {
    std::iter::from_fn(move || {
        let side = match (x.first(), y.first()) {
            (Some(p), Some(q)) if q < p => &mut y,
            (None, _) => &mut y,
            _ => &mut x,
        };
        let (&head, rest) = side.split_first()?;
        *side = rest;
        Some(head)
    })
}

/// What the states of one block solve are made from and remembered in.
#[derive(Debug)]
pub(crate) struct Model<'a> {
    req: &'a PackRequest<'a>,
    floors: Floors,
    /// The units partitions were built with, by id, and their lanes.
    held: Vec<Held>,
    lanes: Vec<usize>,
    /// The names given so far to sorted statement-id sets.
    sets: HashMap<Rc<[u32]>, u32>,
    /// The keys of the states reached so far.
    seen: HashSet<Box<[u32]>>,
    /// Scratch: a set or a key, and exclusions.
    buf: Vec<u32>,
    pairs: Vec<PairKey>,
    /// Per statement set, by name: its ids and its unit's terms.
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
            held: Vec::new(),
            lanes: Vec::new(),
            sets: HashMap::new(),
            seen: HashSet::new(),
            buf: Vec::new(),
            pairs: Vec::new(),
            terms: Vec::new(),
            contents: HashMap::new(),
            tally: Vec::new(),
        }
    }

    /// Names the statement set in `buf` (equal sets get equal names),
    /// with the [`Terms`] of the unit at `lanes[start..]` if new.
    fn set_of(&mut self, start: usize) -> u32 {
        if let Some(&name) = self.sets.get(&self.buf[..]) {
            return name;
        }
        let terms = self.terms_of(start);
        self.sets
            .insert(Rc::clone(&terms.ids), self.terms.len() as u32);
        self.terms.push(terms);
        self.terms.len() as u32 - 1
    }

    /// `part`'s units, to schedule.
    pub(crate) fn units(&self, part: &Partition) -> Vec<Unit> {
        let unit = |&u: &usize| self.held[u].unit.clone();
        part.units.iter().map(unit).collect()
    }

    /// The root state's partition: all singletons, nothing excluded. No
    /// other state can repeat it, so it is not remembered.
    pub(crate) fn root(&mut self) -> Partition {
        for (p, stmt) in self.req.ix.block().iter().enumerate() {
            self.buf.clear();
            self.buf.push(stmt.id().index() as u32);
            self.lanes.push(p);
            let (unit, set, lanes) = (Unit::singleton(stmt.id()), self.set_of(p), p..p + 1);
            self.held.push(Held { unit, set, lanes });
        }
        let n = self.held.len();
        let mut key: Vec<u32> = self.held.iter().map(|h| h.set).chain([u32::MAX]).collect();
        key[..n].sort_unstable();
        let fresh = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
        self.partition((0..n).collect(), key, empty(), fresh)
    }

    /// The include child of the state `(parent, skip)`, or `None` if it
    /// was reached before: the branch variable's two units merged in
    /// place of the first, under the exclusions that can still fire. One
    /// naming a merged set never can (sets only grow); dropping it keeps
    /// the dedup effective.
    pub(crate) fn include(&mut self, parent: &Partition, skip: usize) -> Option<Partition> {
        let Var { a, b, .. } = parent.vars[skip];
        let (x, y) = (&self.held[parent.units[a]], &self.held[parent.units[b]]);
        let (sx, sy) = (x.set, y.set);
        let live = |&(p, q): &PairKey| ![p, q].iter().any(|&s| s == sx || s == sy);
        self.pairs.clear();
        (self.pairs).extend(parent.exclusions(&self.held, skip).filter(live));
        let start = self.lanes.len();
        self.lanes.extend_from_within(x.lanes.clone());
        self.lanes.extend_from_within(y.lanes.clone());
        let (xs, ys) = (&self.terms[sx as usize].ids, &self.terms[sy as usize].ids);
        self.buf.clear();
        self.buf.extend(union(xs, ys));
        let set = self.set_of(start);
        self.buf.clear();
        let sets = &parent.key[..parent.units.len()];
        (self.buf).extend(sets.iter().filter(|&&s| s != sx && s != sy));
        self.buf.insert(self.buf.partition_point(|&s| s < set), set);
        if !self.first_reached() {
            self.lanes.truncate(start);
            return None;
        }
        let (x, y) = (&self.held[parent.units[a]], &self.held[parent.units[b]]);
        let (unit, lanes) = (Unit::merged(&x.unit, &y.unit), start..self.lanes.len());
        let mut units = parent.units.clone();
        units.remove(b);
        units[a] = self.held.len();
        self.held.push(Held { unit, set, lanes });
        // Every other variable stays legal and keeps its score and
        // relative order: only the merged unit's pairs are new, and none
        // is excluded (each exclusion kept names two other units).
        let shift = |u: usize| u - usize::from(u > b);
        let inherited = (parent.vars[skip + 1..].iter())
            .filter(|v| ![v.a, v.b].iter().any(|&u| u == a || u == b))
            .map(|v| Var {
                a: shift(v.a),
                b: shift(v.b),
                ..*v
            });
        let fresh = (0..units.len())
            .filter(|&u| u != a)
            .map(|u| (u.min(a), u.max(a)));
        Some(self.partition(units, self.buf.clone(), inherited, fresh))
    }

    /// Whether the exclude child of the state `(part, skip)` — the state
    /// `(part, skip + 1)` — is reached for the first time.
    pub(crate) fn exclude(&mut self, part: &Partition, skip: usize) -> bool {
        self.pairs.clear();
        self.pairs.extend(part.exclusions(&self.held, skip + 1));
        self.buf.clear();
        self.buf.extend_from_slice(&part.key[..part.units.len()]);
        self.first_reached()
    }

    /// Whether the state of the sorted set names in `buf` and the
    /// exclusions in `pairs` is reached for the first time: completes
    /// its key in `buf` and remembers it.
    fn first_reached(&mut self) -> bool {
        self.pairs.sort_unstable();
        self.buf.push(u32::MAX);
        (self.buf).extend(self.pairs.iter().flat_map(|&(x, y)| [x, y]));
        !self.seen.contains(&self.buf[..]) && self.seen.insert(self.buf.as_slice().into())
    }

    /// The partition `units` keyed `key`, with the variables `inherited`
    /// (in branching order) and the legal pairs among `fresh`. A stable
    /// sort finds the inherited run in order and merges the new
    /// variables into it.
    fn partition(
        &mut self,
        units: Vec<usize>,
        key: Vec<u32>,
        inherited: impl Iterator<Item = Var>,
        fresh: impl Iterator<Item = (usize, usize)>,
    ) -> Partition {
        let (ix, deps, floors) = (self.req.ix, self.req.deps, &self.floors);
        let lanes = |u: usize| &self.lanes[self.held[units[u]].lanes.clone()];
        let gain = |&p: &usize| floors.scalar[p] - floors.packed[p];
        let mut vars = Vec::with_capacity(inherited.size_hint().1.unwrap_or(0) + units.len());
        vars.extend(inherited);
        for (a, b) in fresh.filter(|&(a, b)| mergeable(ix, deps, lanes(a), lanes(b))) {
            let score = lanes(a).iter().chain(lanes(b)).map(gain).sum();
            vars.push(Var { a, b, score });
        }
        vars.sort_by(|x, y| self.order(&units, x, y));
        let mut last = vec![0; units.len()];
        for (i, var) in vars.iter().enumerate() {
            (last[var.a], last[var.b]) = (i + 1, i + 1);
        }
        let cost = OnceCell::new();
        Partition {
            units,
            key,
            vars,
            last,
            cost,
        }
    }

    /// The branching order of the variables `x` and `y` over `units`:
    /// the higher score first, ties to the lexicographically smaller
    /// sorted statement-id list, so the search is deterministic.
    fn order(&self, units: &[usize], x: &Var, y: &Var) -> Ordering {
        let set = |u: usize| &self.terms[self.held[units[u]].set as usize].ids;
        let ids = |v: &Var| union(set(v.a), set(v.b));
        y.score.total_cmp(&x.score).then_with(|| ids(x).cmp(ids(y)))
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
        let mut bound = 0.0;
        for (&u, &last) in part.units.iter().zip(&part.last) {
            let lanes = &self.lanes[self.held[u].lanes.clone()];
            let floors = &self.floors;
            let floor =
                [&floors.scalar, &floors.packed][usize::from(lanes.len() > 1 || last > skip)];
            for &p in lanes {
                bound += floor[p];
            }
        }
        bound
    }

    /// A floor on what `part` evaluates to (see the module doc): one pass
    /// tallies the groups' contents, one sums the units' terms.
    pub(crate) fn floor(&mut self, part: &Partition) -> f64 {
        let (terms, held, tally) = (&self.terms, &self.held, &mut self.tally);
        let units = || part.units.iter().map(|&u| &terms[held[u].set as usize]);
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

    /// The [`Terms`] of the set in `buf`, of the unit at `lanes[start..]`.
    fn terms_of(&mut self, start: usize) -> Terms {
        let (ix, cx) = (self.req.ix, &cost_context(self.req));
        let lanes = &self.lanes[start..];
        let mut terms = Terms {
            ids: Rc::from(&self.buf[..]),
            scalar: lanes.iter().map(|&p| self.floors.scalar[p]).sum(),
            superword: f64::INFINITY,
            dest: 0,
            sources: Vec::new(),
        };
        if lanes.len() == 1 {
            return terms;
        }
        let expr = ix.stmt_at(lanes[0]).expr();
        terms.superword = cx.cost.vector_op(expr.shape());
        for slot in once(PackPos::Dest).chain((0..expr.operands().len()).map(PackPos::Operand)) {
            let mut keys: Vec<u32> = ix.keys(lanes, slot).collect();
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
    use slp_ir::StmtId;

    use super::*;
    use crate::testutil::{each_block, legal_merges};

    impl Model<'_> {
        /// The state `(part, skip)` as a partition of its own, its
        /// variables found from scratch: every legal merge of its units
        /// not excluded, scored and fully sorted.
        fn rebuilt(&self, part: &Partition, skip: usize) -> Partition {
            let (ix, floors, units) = (self.req.ix, &self.floors, self.units(part));
            let key = |v: &Var| part.pair_key(&self.held, v);
            let mut excluded: Vec<PairKey> = part.exclusions(&self.held, skip).collect();
            excluded.sort_unstable();
            let stmts = |v: &Var| units[v.a].stmts().iter().chain(units[v.b].stmts());
            let gain = |s: &StmtId| {
                let p = ix.position(*s);
                floors.scalar[p] - floors.packed[p]
            };
            let mut vars: Vec<Var> = (legal_merges(ix, self.req.deps, &units).into_iter())
                .map(|(a, b)| Var { a, b, score: 0.0 })
                .filter(|v| excluded.binary_search(&key(v)).is_err())
                .map(|v| Var {
                    score: stmts(&v).map(gain).sum(),
                    ..v
                })
                .collect();
            let ids = |v: &Var| {
                let mut ids: Vec<usize> = stmts(v).map(|s| s.index()).collect();
                ids.sort_unstable();
                ids
            };
            vars.sort_by(|x, y| {
                y.score
                    .total_cmp(&x.score)
                    .then_with(|| ids(x).cmp(&ids(y)))
            });
            let touches = |u: usize| vars.iter().rposition(|v| v.a == u || v.b == u);
            let last = (0..units.len())
                .map(|u| touches(u).map_or(0, |i| i + 1))
                .collect();
            let n = units.len();
            let key = (part.key[..=n].iter().copied())
                .chain(excluded.iter().flat_map(|&(x, y)| [x, y]))
                .collect();
            Partition {
                units: part.units.clone(),
                key,
                vars,
                last,
                cost: OnceCell::new(),
            }
        }

        /// Asserts that the state `(part, skip)` has the variables, score
        /// bits and bound of its [`rebuilt`](Self::rebuilt) partition.
        pub(crate) fn assert_rebuilds(&self, part: &Partition, skip: usize) {
            let scratch = self.rebuilt(part, skip);
            let bits = |vars: &[Var]| -> Vec<_> {
                (vars.iter())
                    .map(|v| (v.a, v.b, v.score.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&part.vars[skip..]), bits(&scratch.vars));
            let bound = self.bound(part, skip);
            assert_eq!(bound.to_bits(), self.bound(&scratch, 0).to_bits());
        }
    }

    /// Walks one root-to-leaf path of the search tree, alternating
    /// exclusions and inclusions, and rebuilds every state on it from
    /// scratch.
    #[test]
    fn states_on_a_path_match_their_rebuilds() {
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
                for skip in 0..=skips {
                    model.assert_rebuilds(&part, skip);
                    rebuilt += 1;
                }
                part = model
                    .include(&part, skips - 1)
                    .expect("a merge along one path is new");
            }
        });
        assert!(rebuilt > 20, "only {rebuilt} states were compared");
    }
}
