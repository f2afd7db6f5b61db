//! The 0-1 ILP view of one packing state (DESIGN.md, "Optimal packing"
//! owns the arguments).
//!
//! Following goSLP's formulation, statement packing is an integer
//! program: one binary variable per *candidate pack formation* (a legal
//! merge of two current grouping units, which fixes both the pack
//! memberships and — through the deterministic scheduler — the lane
//! permutation it implies), with the objective taken from the
//! `slp-core` emission prices. The constraints are never tabulated:
//! selecting a variable *merges* its two units (mutual exclusivity),
//! only isomorphic, independent pairs under the lane cap become
//! variables ([`mergeable`]), and a partition whose groups deadlock is
//! still a packing — the scheduler splits the stuck group while it is
//! evaluated.
//!
//! Selecting a variable merges two units into a coarser [`Partition`]
//! (the §4.2.2 iteration); excluding one leaves the partition as it is.
//! The coarser partition inherits every variable that does not touch the
//! merged unit, and that unit's pairs are legal exactly when the lane cap
//! admits them and both halves' were. States are remembered by key in
//! one arena, probed by a signature summing one share per word of the
//! key: an exclude child's is its parent's plus one pair's.
//!
//! A partition's [`bound`](Partition::bound), the assignment relaxation
//! ([`Model::relaxation`]), holds for every state over it, and
//! [`Model::floor`] bounds what the partition itself evaluates to, pack
//! traffic included, so the search evaluates only partitions that can
//! beat the incumbent.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::iter::once;
use std::ops::Range;

use slp_core::{
    mergeable, scalar_stmt_cost, AccessClass, BlockIndex, CostContext, CostParams, LaneSink,
    LayoutView, Loc, PackPos, PackRequest, ScalarPackClass, Unit,
};
use slp_ir::{pack_is_contiguous, ArrayRef, Dest};

/// The branch-exclusion key of a pairwise merge: the names
/// ([`Model::set_of`]) of the two units' statement sets, smaller first.
/// Excluding it forbids merging *exactly these two sets*, in any round.
type PairKey = (u32, u32);

/// The signature of `list`: the wrapping sum of one share per word
/// (MurmurHash3's finalizer), so it ignores the words' order and changes
/// by one share as a word comes or goes.
fn signature(list: &[u32]) -> u64 {
    let share = |w: &u32| {
        let z = u64::from(*w).wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        let z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        z ^ (z >> 33)
    };
    list.iter().map(share).fold(0, u64::wrapping_add)
}

/// Hashes a [`signature`] to itself: it is already mixed in every bit,
/// and its words are names the arena assigned, never raw input.
#[derive(Default)]
struct SigHasher(u64);

impl Hasher for SigHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only signatures are hashed")
    }
    fn write_u64(&mut self, sig: u64) {
        self.0 = sig;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Lists of words, each named once, end to end in one arena and found by
/// signature: a list whose signature another list holds files under the
/// next free one up, so a collision costs a comparison, never a name.
#[derive(Debug, Default)]
struct Names {
    words: Vec<u32>,
    starts: Vec<usize>,
    by_sig: HashMap<u64, u32, BuildHasherDefault<SigHasher>>,
}

impl Names {
    fn get(&self, name: u32) -> &[u32] {
        let end = self.starts.get(name as usize + 1);
        &self.words[self.starts[name as usize]..*end.unwrap_or(&self.words.len())]
    }

    /// The name of `list`, whose signature is `sig`, and whether it is new.
    fn name(&mut self, mut sig: u64, list: &[u32]) -> (u32, bool) {
        let new = self.starts.len() as u32;
        loop {
            let name = *self.by_sig.entry(sig).or_insert(new);
            if name == new {
                break;
            } else if self.get(name) == list {
                return (name, false);
            }
            sig = sig.wrapping_add(1);
        }
        self.starts.push(self.words.len());
        self.words.extend_from_slice(list);
        (new, true)
    }
}

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

/// What a unit of one statement set adds to the [`Model::floor`] of any
/// partition holding it.
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
    /// The name in [`Model`]'s `seen` of the key of the state `(self, 0)`
    /// — its units' set names ascending, `u32::MAX`, then the exclusions
    /// in force when it was built, sorted — and the key's signature.
    key: u32,
    pub(crate) sig: u64,
    /// The variables in branching order.
    pub(crate) vars: Vec<Var>,
    /// The assignment-relaxation optimum ([`Model::relaxation`]): the
    /// bound of every state over this partition.
    pub(crate) bound: f64,
    /// Once expanded: its cost as a complete packing, if it was evaluated.
    pub(crate) cost: OnceCell<Option<f64>>,
}

impl Partition {
    fn pair_key(&self, held: &[Held], var: &Var) -> PairKey {
        let (x, y) = (held[self.units[var.a]].set, held[self.units[var.b]].set);
        (x.min(y), x.max(y))
    }

    /// The exclusions in force when it was built, ascending.
    fn built<'s>(&self, seen: &'s Names) -> impl Iterator<Item = PairKey> + 's {
        let words = &seen.get(self.key)[self.units.len() + 1..];
        words.chunks_exact(2).map(|k| (k[0], k[1]))
    }
}

/// A unit some partition holds: its [`Unit`] once scheduled, its set's
/// name, and its lanes (block positions, in unit order) in `lanes`.
#[derive(Debug)]
struct Held {
    unit: OnceCell<Unit>,
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
    /// The sorted statement-id sets by name, and their units' terms.
    sets: Names,
    terms: Vec<Terms>,
    /// The keys of the states reached so far.
    seen: Names,
    /// Scratch: a list to name, and exclusions.
    buf: Vec<u32>,
    pairs: Vec<PairKey>,
    /// Scratch per set name: which half of a merged unit may merge with
    /// its unit (bits 1 and 2), or whether an exclusion names it.
    marks: Vec<u8>,
    /// The names given so far to pack contents (sorted key lists).
    contents: Names,
    /// Per content, scratch for one floor: how many source packs hold it,
    /// infinitely many if some group defines it.
    tally: Vec<f64>,
    /// Scratch for one bound: per unit, whether a legal merge touches it.
    touched: Vec<bool>,
    /// Scratch for one cycle test: per block position its unit, the
    /// dependences between units, per unit its unsorted predecessors, and
    /// the units ready to sort.
    unit_of: Vec<usize>,
    edges: Vec<(usize, usize)>,
    preds: Vec<usize>,
    ready: Vec<usize>,
}

impl<'a> Model<'a> {
    pub(crate) fn new(req: &'a PackRequest<'a>) -> Self {
        Model {
            req,
            floors: floors(req, &req.cost_context()),
            held: Vec::new(),
            lanes: Vec::new(),
            sets: Names::default(),
            terms: Vec::new(),
            seen: Names::default(),
            buf: Vec::new(),
            pairs: Vec::new(),
            marks: Vec::new(),
            contents: Names::default(),
            tally: Vec::new(),
            touched: Vec::new(),
            unit_of: Vec::new(),
            edges: Vec::new(),
            preds: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Names the statement set in `buf` (equal sets get equal names),
    /// with the [`Terms`] of the unit at `lanes[start..]` if new.
    fn set_of(&mut self, start: usize) -> u32 {
        let (name, new) = self.sets.name(signature(&self.buf), &self.buf);
        if new {
            let terms = self.terms_of(start);
            self.terms.push(terms);
            self.marks.push(0);
        }
        name
    }

    /// `part`'s units, to schedule, each made when first asked for.
    pub(crate) fn units(&self, part: &Partition) -> Vec<Unit> {
        let stmt = |&p: &usize| Unit::singleton(self.req.ix.stmt_at(p).id());
        let unit = |held: &Held| {
            let lanes = self.lanes[held.lanes.clone()].iter().map(stmt);
            let merged = || lanes.reduce(|x, y| Unit::merged(&x, &y)).expect("a lane");
            held.unit.get_or_init(merged).clone()
        };
        part.units.iter().map(|&u| unit(&self.held[u])).collect()
    }

    /// The root state's partition: all singletons, nothing excluded.
    pub(crate) fn root(&mut self) -> Partition {
        for (p, stmt) in self.req.ix.block().iter().enumerate() {
            self.buf.clear();
            self.buf.push(stmt.id().index() as u32);
            self.lanes.push(p);
            let (unit, set, lanes) = (OnceCell::new(), self.set_of(p), p..p + 1);
            self.held.push(Held { unit, set, lanes });
        }
        let n = self.held.len();
        self.buf.clear();
        self.buf.extend(self.held.iter().map(|h| h.set));
        self.buf.sort_unstable();
        self.buf.push(u32::MAX);
        let sig = signature(&self.buf);
        let (key, units) = (self.seen.name(sig, &self.buf).0, (0..n).collect::<Vec<_>>());
        let (ix, deps) = (self.req.ix, self.req.deps);
        let lanes = |u: usize| &self.lanes[self.held[units[u]].lanes.clone()];
        let gain = |&p: &usize| self.floors.scalar[p] - self.floors.packed[p];
        let mut vars = Vec::new();
        for (a, b) in (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))) {
            if mergeable(ix, deps, lanes(a), lanes(b)) {
                let score = lanes(a).iter().chain(lanes(b)).map(gain).sum();
                vars.push(Var { a, b, score });
            }
        }
        vars.sort_by(|x, y| self.order(&units, x, y));
        self.partition(units, key, sig, vars)
    }

    /// The include child of the state `(parent, skip)`, or `None` if it
    /// was reached before: the branch variable's two units merged in
    /// place of the first, under the exclusions that can still fire. One
    /// naming a merged set never can (sets only grow); dropping it keeps
    /// the dedup effective.
    pub(crate) fn include(&mut self, parent: &Partition, skip: usize) -> Option<Partition> {
        let Var { a, b, .. } = parent.vars[skip];
        let (x, y) = (&self.held[parent.units[a]], &self.held[parent.units[b]]);
        let (sx, sy, start) = (x.set, y.set, self.lanes.len());
        let (xs, ys) = (self.sets.get(sx), self.sets.get(sy));
        self.buf.clear();
        self.buf.extend(union(xs, ys));
        self.lanes.extend_from_within(x.lanes.clone());
        self.lanes.extend_from_within(y.lanes.clone());
        let set = self.set_of(start);

        // The key: the sets with the merged one in place of its halves,
        // then the exclusions that can still fire, ascending.
        let live = |&(p, q): &PairKey| ![p, q].iter().any(|&s| s == sx || s == sy);
        let held = &self.held;
        let excluded = parent.vars[..skip].iter().map(|v| parent.pair_key(held, v));
        self.pairs.clear();
        (self.pairs).extend(parent.built(&self.seen).chain(excluded).filter(live));
        self.pairs.sort_unstable();
        let sets = &self.seen.get(parent.key)[..parent.units.len()];
        self.buf.clear();
        (self.buf).extend(sets.iter().filter(|&&s| s != sx && s != sy));
        self.buf.insert(self.buf.partition_point(|&s| s < set), set);
        self.buf.push(u32::MAX);
        (self.buf).extend(self.pairs.iter().flat_map(|&(x, y)| [x, y]));
        let sig = signature(&self.buf);
        let (key, new) = self.seen.name(sig, &self.buf);
        if !new {
            self.lanes.truncate(start);
            return None;
        }
        let (unit, lanes) = (OnceCell::new(), start..self.lanes.len());
        let mut units = parent.units.clone();
        units.remove(b);
        units[a] = self.held.len();
        self.held.push(Held { unit, set, lanes });

        // `x∪y` may merge with the units both halves may (the parent's
        // variables and exclusions) within their shared lane cap; the other
        // variables stay legal, in order, and no new pair is excluded.
        let held = &self.held;
        let legal = parent.vars.iter().map(|v| parent.pair_key(held, v));
        for (p, q) in legal.chain(parent.built(&self.seen)) {
            self.marks[q as usize] |= u8::from(p == sx) + 2 * u8::from(p == sy);
            self.marks[p as usize] |= u8::from(q == sx) + 2 * u8::from(q == sy);
        }
        let shift = |u: usize| u - usize::from(u > b);
        let mut vars = Vec::with_capacity(parent.vars.len() - skip - 1);
        for v in &parent.vars[skip + 1..] {
            if ![v.a, v.b].iter().any(|&u| u == a || u == b) {
                let (a, b) = (shift(v.a), shift(v.b));
                vars.push(Var { a, b, ..*v });
            }
        }
        let width = self.lanes.len() - start;
        let cap = self.req.ix.lane_cap(self.lanes[start]);
        let lanes = |u: usize| &self.lanes[self.held[units[u]].lanes.clone()];
        let gain = |&p: &usize| self.floors.scalar[p] - self.floors.packed[p];
        let mut fresh = Vec::new();
        for u in (0..units.len()).filter(|&u| u != a) {
            let z = &self.held[units[u]];
            if self.marks[z.set as usize] == 3 && width + z.lanes.len() <= cap {
                let (a, b) = (u.min(a), u.max(a));
                let score = lanes(a).iter().chain(lanes(b)).map(gain).sum();
                fresh.push(Var { a, b, score });
            }
        }
        for &h in &parent.units {
            self.marks[self.held[h].set as usize] = 0;
        }

        // Sort the new variables and insert each into the inherited run.
        fresh.sort_by(|x, y| self.order(&units, x, y));
        let mut from = 0;
        for var in fresh {
            from += vars[from..].partition_point(|v| self.order(&units, v, &var).is_lt());
            vars.insert(from, var);
            from += 1;
        }
        Some(self.partition(units, key, sig, vars))
    }

    /// The signature of the exclude child of the state `(part, skip)` of
    /// signature `sig` — the state `(part, skip + 1)`, whose key holds
    /// the branch variable's pair too — if it is reached for the first
    /// time: `sig` plus that pair's share.
    pub(crate) fn exclude(&mut self, part: &Partition, skip: usize, sig: u64) -> Option<u64> {
        let held = &self.held;
        let excluded = part.vars[..=skip].iter().map(|v| part.pair_key(held, v));
        self.pairs.clear();
        (self.pairs).extend(part.built(&self.seen).chain(excluded));
        self.pairs.sort_unstable();
        self.buf.clear();
        (self.buf).extend_from_slice(&self.seen.get(part.key)[..=part.units.len()]);
        (self.buf).extend(self.pairs.iter().flat_map(|&(x, y)| [x, y]));
        let (x, y) = part.pair_key(held, &part.vars[skip]);
        let sig = sig.wrapping_add(signature(&[x, y]));
        self.seen.name(sig, &self.buf).1.then_some(sig)
    }

    /// The partition `units` keyed `key` (of signature `sig`), with the
    /// variables `vars` in branching order, and its bound.
    fn partition(&mut self, units: Vec<usize>, key: u32, sig: u64, vars: Vec<Var>) -> Partition {
        // The legal merges among `units` are the variables and the
        // exclusions the key holds, each of which names two of the units.
        self.touched.clear();
        self.touched.resize(units.len(), false);
        for var in &vars {
            (self.touched[var.a], self.touched[var.b]) = (true, true);
        }
        let excluded = &self.seen.get(key)[units.len() + 1..];
        excluded.iter().for_each(|&s| self.marks[s as usize] = 1);
        for (u, &h) in units.iter().enumerate() {
            self.touched[u] |= self.marks[self.held[h].set as usize] != 0;
        }
        excluded.iter().for_each(|&s| self.marks[s as usize] = 0);
        let bound = self.relaxation(&units, &self.touched);
        Partition {
            units,
            key,
            sig,
            vars,
            bound,
            cost: OnceCell::new(),
        }
    }

    /// The branching order of the variables `x` and `y` over `units`:
    /// the higher score first, ties to the lexicographically smaller
    /// sorted statement-id list, so the search is deterministic.
    fn order(&self, units: &[usize], x: &Var, y: &Var) -> Ordering {
        let set = |u: usize| self.sets.get(self.held[units[u]].set);
        let ids = |v: &Var| union(set(v.a), set(v.b));
        y.score.total_cmp(&x.score).then_with(|| ids(x).cmp(ids(y)))
    }

    /// The assignment-relaxation optimum of the partition `units`, whose
    /// `touched` units some legal merge among them touches: statements of
    /// a merged or touched unit take their cheapest floor, those of an
    /// untouched singleton, which no descendant can pack, their scalar
    /// cost. A lower bound on every schedule reachable from any state
    /// over the partition, and never below its parent's (DESIGN.md, "The
    /// bounding function").
    fn relaxation(&self, units: &[usize], touched: &[bool]) -> f64 {
        let mut bound = 0.0;
        for (&u, &touched) in units.iter().zip(touched) {
            let lanes = &self.lanes[self.held[u].lanes.clone()];
            let floors = &self.floors;
            let floor = [&floors.scalar, &floors.packed][usize::from(lanes.len() > 1 || touched)];
            for &p in lanes {
                bound += floor[p];
            }
        }
        bound
    }

    /// A floor on what `part` evaluates to (DESIGN.md, "The partition
    /// floor"), strong enough to reach `target` if it can: one pass
    /// tallies the groups' contents, one sums the units' terms both ways,
    /// and the cycle test runs only if the superword sum reaches `target`.
    pub(crate) fn floor(&mut self, part: &Partition, target: f64) -> f64 {
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
        let (mut floor, mut superword) = (0.0, 0.0);
        for t in units() {
            let packed = t.superword + packs(t);
            floor += t.scalar.min(packed);
            superword += [t.scalar, packed][usize::from(packed.is_finite())];
        }
        for c in groups().flat_map(|t| once(t.dest).chain(t.sources.iter().map(|s| s.0))) {
            tally[c as usize] = 0.0;
        }
        if floor < target && superword >= target && self.acyclic(part) {
            return superword;
        }
        floor
    }

    /// Whether `part`'s units form an acyclic graph under the block's
    /// direct dependences, so that neither scheduler splits a group: a
    /// topological sort, in the model's scratch buffers.
    fn acyclic(&mut self, part: &Partition) -> bool {
        let n = part.units.len();
        self.unit_of.resize(self.req.ix.block().len(), 0);
        for (u, &h) in part.units.iter().enumerate() {
            for &p in &self.lanes[self.held[h].lanes.clone()] {
                self.unit_of[p] = u;
            }
        }
        let unit_of = &self.unit_of;
        let between = |&(p, q): &(usize, usize)| (unit_of[p], unit_of[q]);
        self.edges.clear();
        (self.edges).extend(self.req.deps.direct_pairs().iter().map(between));
        self.edges.retain(|(a, b)| a != b);
        self.edges.sort_unstable();
        self.preds.clear();
        self.preds.resize(n, 0);
        for &(_, b) in &self.edges {
            self.preds[b] += 1;
        }
        self.ready.clear();
        self.ready.extend((0..n).filter(|&u| self.preds[u] == 0));
        let mut sorted = 0;
        while let Some(u) = self.ready.pop() {
            sorted += 1;
            let succs = &self.edges[self.edges.partition_point(|&(a, _)| a < u)..];
            for &(_, s) in succs.iter().take_while(|&&(a, _)| a == u) {
                self.preds[s] -= 1;
                if self.preds[s] == 0 {
                    self.ready.push(s);
                }
            }
        }
        sorted == n
    }

    /// The [`Terms`] of the unit at `lanes[start..]`.
    fn terms_of(&mut self, start: usize) -> Terms {
        let (ix, cx) = (self.req.ix, &self.req.cost_context());
        let lanes = &self.lanes[start..];
        let mut terms = Terms {
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
            self.buf.clear();
            self.buf.extend(ix.keys(lanes, slot));
            self.buf.sort_unstable();
            let keys = &self.buf;
            let price = pack_floor(keys, slot == PackPos::Dest, ix, cx);
            // Constant packs never become live: each pays in full.
            if matches!(ix.loc(keys[0]), Loc::Const(_)) {
                terms.superword += price;
                continue;
            }
            let content = self.contents.name(signature(keys), keys).0;
            self.tally.resize(self.contents.starts.len(), 0.0);
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
    use crate::solve::legal_merges;
    use crate::testutil::each_block;

    impl Model<'_> {
        /// The variables and bound of the state `(part, skip)` found from
        /// scratch: every legal merge of its units not excluded, scored
        /// and fully sorted; its bound from every legal merge.
        fn rebuilt(&self, part: &Partition, skip: usize) -> (Vec<Var>, f64) {
            let (ix, floors, units) = (self.req.ix, &self.floors, self.units(part));
            let key = |v: &Var| part.pair_key(&self.held, v);
            let vars = part.vars[..skip].iter().map(key);
            let mut excluded: Vec<PairKey> = part.built(&self.seen).chain(vars).collect();
            excluded.sort_unstable();
            let stmts = |v: &Var| units[v.a].stmts().iter().chain(units[v.b].stmts());
            let gain = |s: &StmtId| {
                let p = ix.position(*s);
                floors.scalar[p] - floors.packed[p]
            };
            let legal = legal_merges(ix, self.req.deps, &units);
            let touched: Vec<bool> = (0..units.len())
                .map(|u| legal.iter().any(|&(a, b)| a == u || b == u))
                .collect();
            let mut vars: Vec<Var> = (legal.into_iter())
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
            (vars, self.relaxation(&part.units, &touched))
        }

        /// Asserts that the state `(part, skip)` has the variables, score
        /// bits and bound of its [`rebuilt`](Self::rebuilt) partition.
        pub(crate) fn assert_rebuilds(&self, part: &Partition, skip: usize) {
            let (vars, bound) = self.rebuilt(part, skip);
            let bits = |vars: &[Var]| -> Vec<_> {
                (vars.iter())
                    .map(|v| (v.a, v.b, v.score.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&part.vars[skip..]), bits(&vars));
            assert_eq!(part.bound.to_bits(), bound.to_bits());
        }
    }

    /// Distinct lists filed under one signature are each named; a list
    /// equal to a named one is found, whatever order its signature was
    /// summed in, also after the arena grew in between.
    #[test]
    fn names_tell_lists_apart_when_their_signatures_collide() {
        let mut names = Names::default();
        let (key, other) = ([1, 4, 7, 9, u32::MAX], [1, 4, 7, 8, u32::MAX]);
        assert_eq!(names.name(5, &key), (0, true));
        assert_eq!(names.name(5, &other), (1, true));
        assert_eq!(names.name(5, &key[..4]), (2, true));
        assert_eq!(names.name(5, &other), (1, false));
        assert_eq!(names.get(1), other);

        // The same words, summed in any order: one signature, one name.
        let sig = signature(&[4, 9]).wrapping_add(signature(&[1, 7]));
        assert_eq!(sig, signature(&[7, 1]).wrapping_add(signature(&[9, 4])));
        let sig = sig.wrapping_add(signature(&[u32::MAX]));
        assert_eq!(sig, signature(&key));
        let (name, new) = names.name(sig, &key);
        assert!(new, "a new signature names anew, though the list is named");
        assert_eq!(
            names.name(signature(&[9, 1, 7, u32::MAX, 4]), &key),
            (name, false)
        );

        // Grow the arena between filing and probing.
        let capacity = names.words.capacity();
        for n in 0..1_000u32 {
            assert!(names.name(u64::from(n % 7), &[n, n + 1]).1);
        }
        assert!(names.words.capacity() > capacity);
        assert_eq!(names.name(5, &key), (0, false));
        assert_eq!(names.name(5, &other), (1, false));
        assert_eq!(names.name(sig, &key), (name, false));
        assert_eq!(names.name(3, &[3, 4]), (3 + 4, false));
        assert_eq!(names.get(name), key);
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
