//! Candidate weights via the auxiliary graph (§4.2.1, step 3; paper
//! Figures 5–7 and pseudo-code Figure 10, lines 21–39).
//!
//! The weight of a candidate group estimates "the potential benefit (in
//! terms of superword reuses) for the entire basic block" of committing to
//! it. It is computed by:
//!
//! 1. extracting from the variable-pack conflicting graph every node whose
//!    content matches a pack of the candidate (or of an already-decided
//!    group) and whose own candidate can coexist with this one,
//! 2. greedily deleting maximum-degree nodes until the extracted subgraph
//!    is conflict free,
//! 3. counting, over the survivors plus the candidate's and the decided
//!    groups' packs, `Σ (N_pack − 1)` reuses, and
//! 4. dividing by the number of distinct pack types among the candidate's
//!    and decided groups' packs (`W = r / Nt`).
//!
//! [`Round`] is the state of one grouping round these steps run on. It
//! names every distinct pack content of the round by its *rank* among
//! them, so the decision loop — which asks for a weight `O(decisions ×
//! candidates)` times — merges, indexes and sums over small integers. A
//! rank, not any number: `r` is a float sum in content order, the
//! auxiliary nodes are listed content-major, and elimination breaks degree
//! ties toward the lowest node index, so every weight keeps its bits only
//! while "ascending id" means "ascending content".

use std::cmp::{Ordering, Reverse};

use slp_ir::{pack_is_contiguous, BlockDeps};

use crate::candidates::{lanes_of, merges, ConflictMatrix};
use crate::index::BlockIndex;
use crate::unit::{PackPos, Unit};

/// One node of the variable-pack conflicting graph `VP = (V, T)` (§4.2.1,
/// step 2; paper Figure 4): a variable pack *tagged with the candidate
/// group it came from* — "there may exist multiple nodes containing the
/// same set of variables, but they are generated from different candidate
/// groups". Edges are implied: packs of conflicting candidates are
/// pairwise connected. Nodes with equal content and no connecting edge
/// witness a superword reuse opportunity.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackNode {
    /// The candidate that generated this pack.
    cand: usize,
    /// The operand position within that candidate.
    pos: PackPos,
    /// The rank of the pack's order-insensitive content among the round's.
    id: usize,
    /// For an all-array pack: whether its elements, sorted by offset, are
    /// contiguous (grouping has not fixed a lane order yet).
    contiguous: Option<bool>,
}

/// Marks an auxiliary node deleted by conflict elimination.
const DELETED: usize = usize::MAX;

/// The relative slack of [`Round::bound`]: far above the rounding error
/// of the float sums a weight and its bound take (DESIGN.md, "What a
/// grouping round keeps and what it recomputes").
const SLACK: f64 = 1e-9;

/// One round of the basic grouping algorithm over a fixed unit set: its
/// candidates, their conflicts, the variable-pack graph over ranked pack
/// contents, and the packs of the groups decided so far.
#[derive(Debug)]
pub struct Round {
    pairs: Vec<(usize, usize)>,
    conflicts: ConflictMatrix,
    /// Per candidate: the rank of its sorted statement ids among the
    /// candidates' (they are distinct: units partition the block).
    tie_rank: Vec<usize>,
    /// Per candidate: whether no decision has killed it yet.
    live: Vec<bool>,
    /// The VP nodes, candidate-major, each candidate's in pack order.
    nodes: Vec<PackNode>,
    /// Per candidate: where its nodes start (and, last, the node count).
    first_node: Vec<usize>,
    /// The node indices by id, and where each id's start. The nodes of
    /// live candidates come first, ascending, and end at `live_end[id]`.
    by_id: Vec<usize>,
    first_of_id: Vec<usize>,
    live_end: Vec<usize>,
    /// Per id: at most how many of its live nodes a weight counts (see
    /// [`Round::recount`]), and, per unit, the last recount that met it.
    cap: Vec<usize>,
    seen: Vec<usize>,
    recounts: usize,
    /// Per id: whether every lane of the content is an array element.
    all_array: Vec<bool>,
    /// The weight profile: the scalar kind weight and, per candidate, the
    /// static contiguity adjustment.
    scalar_reuse_weight: f64,
    adjust: Vec<f64>,
    /// The decided groups' packs, a multiset: the distinct ids ascending,
    /// and per id how many decided packs have it.
    decided: Vec<usize>,
    decided_count: Vec<usize>,
    /// The sum of the decided ids' [`Round::term_bound`]s.
    decided_bound: f64,
    /// Buffers of [`Round::weight`]: its wanted ids, auxiliary nodes, their
    /// candidates' runs and degrees, and — zero between calls — the per-id
    /// counts.
    wanted: Vec<usize>,
    aux: Vec<usize>,
    groups: Vec<(usize, usize, usize)>,
    degree: Vec<usize>,
    count: Vec<usize>,
    /// Buffer of [`Round::best`]: the live candidates by bound, then tie
    /// rank.
    order: Vec<(f64, usize, usize)>,
}

impl Round {
    /// Steps 1–2 for the round over `units`: the candidates (every
    /// [`mergeable`](crate::mergeable) pair), their conflicts and packs,
    /// nothing decided, weights under `params`.
    pub fn new(
        ix: &BlockIndex<'_>,
        deps: &BlockDeps,
        units: &[Unit],
        params: &WeightParams,
    ) -> Self {
        let lanes = lanes_of(ix, units);
        let pairs = merges(ix, deps, &lanes);
        let conflicts = ConflictMatrix::compute(&pairs, &lanes, deps);
        // Buffers sized once: a candidate has a pack per key of its
        // statements at most. Node `n`'s sorted keys are
        // `keys[start[n]..start[n + 1]]`, candidate `c`'s sorted statement
        // ids `tie_ids[tie_start[c]..tie_start[c + 1]]`.
        let width = |&(a, b): &(usize, usize)| lanes[a].len() + lanes[b].len();
        let slots = |&(a, _): &(usize, usize)| ix.keys_at(lanes[a][0]).len();
        let most: usize = pairs.iter().map(slots).sum();
        let (mut nodes, mut start) = (Vec::with_capacity(most), Vec::with_capacity(most + 1));
        let mut keys = Vec::with_capacity(pairs.iter().map(|c| width(c) * slots(c)).sum());
        let mut tie_ids = Vec::with_capacity(pairs.iter().map(width).sum());
        let mut first_node = Vec::with_capacity(pairs.len() + 1);
        let mut tie_start = Vec::with_capacity(pairs.len() + 1);
        let (mut members, mut refs) = (Vec::new(), Vec::new());
        first_node.push(0);
        tie_start.push(0);
        for (cand, &(a, b)) in pairs.iter().enumerate() {
            members.clear();
            members.extend_from_slice(&lanes[a]);
            members.extend_from_slice(&lanes[b]);
            for pos in ix.pack_positions(&members) {
                let from = keys.len();
                keys.extend(members.iter().map(|&p| ix.key(p, pos)));
                refs.clear();
                refs.extend(keys[from..].iter().map_while(|&k| ix.loc(k).as_array()));
                let contiguous = (refs.len() == members.len()).then(|| {
                    refs.sort_by_key(|r| r.access.dims().last().map(|e| e.constant()));
                    pack_is_contiguous(&refs)
                });
                keys[from..].sort_unstable();
                start.push(from);
                nodes.push(PackNode {
                    cand,
                    pos,
                    id: 0,
                    contiguous,
                });
            }
            first_node.push(nodes.len());
            let from = tie_ids.len();
            tie_ids.extend(members.iter().map(|&p| ix.stmt_at(p).id()));
            tie_ids[from..].sort_unstable();
            tie_start.push(tie_ids.len());
        }
        // Rank the contents.
        start.push(keys.len());
        let content = |n: usize| &keys[start[n]..start[n + 1]];
        // A content has two keys at least: comparing those as one number
        // settles most comparisons.
        let first_two = |n: usize| u64::from(keys[start[n]]) << 32 | u64::from(keys[start[n] + 1]);
        let mut sorted: Vec<(u64, usize)> = (0..nodes.len()).map(|n| (first_two(n), n)).collect();
        sorted.sort_unstable_by(|x, y| {
            let rest = || content(x.1).cmp(content(y.1)).then(x.1.cmp(&y.1));
            x.0.cmp(&y.0).then_with(rest)
        });
        let by_id: Vec<usize> = sorted.into_iter().map(|(_, n)| n).collect();
        let mut first_of_id = Vec::with_capacity(nodes.len() + 1);
        let mut all_array = Vec::with_capacity(nodes.len());
        for (at, &n) in by_id.iter().enumerate() {
            if at == 0 || content(n) != content(by_id[at - 1]) {
                first_of_id.push(at);
                all_array.push(nodes[n].contiguous.is_some());
            }
            nodes[n].id = all_array.len() - 1;
        }
        first_of_id.push(by_id.len());
        let tie = |c: usize| &tie_ids[tie_start[c]..tie_start[c + 1]];
        let mut by_tie: Vec<usize> = (0..pairs.len()).collect();
        by_tie.sort_unstable_by(|&x, &y| tie(x).cmp(tie(y)));
        let mut tie_rank = vec![0; pairs.len()];
        for (rank, &cand) in by_tie.iter().enumerate() {
            tie_rank[cand] = rank;
        }
        let (ids, n) = (all_array.len(), nodes.len());
        let mut round = Round {
            conflicts,
            tie_rank,
            live: vec![true; pairs.len()],
            nodes,
            first_node,
            by_id,
            live_end: first_of_id[1..].to_vec(),
            cap: vec![0; ids],
            seen: vec![0; lanes.len()],
            recounts: 0,
            first_of_id,
            scalar_reuse_weight: 0.0,
            adjust: Vec::with_capacity(pairs.len()),
            decided: Vec::with_capacity(ids),
            decided_count: vec![0; ids],
            decided_bound: 0.0,
            wanted: Vec::with_capacity(ids),
            aux: Vec::with_capacity(n),
            groups: Vec::with_capacity(pairs.len()),
            degree: Vec::with_capacity(pairs.len()),
            count: vec![0; ids],
            order: Vec::with_capacity(pairs.len()),
            all_array,
            pairs,
        };
        round.restart(params);
        round
    }

    /// Forgets every decision and switches to the weight profile `params`:
    /// the candidates, conflicts and packs of a round depend on neither.
    pub(crate) fn restart(&mut self, params: &WeightParams) {
        self.scalar_reuse_weight = params.scalar_reuse_weight;
        let (nodes, first_node) = (&self.nodes, &self.first_node);
        self.adjust.clear();
        self.adjust.extend((0..self.pairs.len()).map(|c| {
            // Contiguous array packs earn the bonus, gathers pay the
            // penalty, destinations (stores) times `store_factor`.
            let mut adjust = 0.0;
            for n in &nodes[first_node[c]..first_node[c + 1]] {
                let factor = match n.pos {
                    PackPos::Dest => params.store_factor,
                    PackPos::Operand(_) => 1.0,
                };
                match n.contiguous {
                    Some(true) => adjust += factor * params.contiguous_bonus,
                    Some(false) => adjust -= factor * params.gather_penalty,
                    None => {}
                }
            }
            adjust
        }));
        self.decided.clear();
        self.decided_count.fill(0);
        self.decided_bound = 0.0;
        // Revive every node; a list a decision compacted is back in node
        // order once sorted.
        self.live.fill(true);
        for id in 0..self.cap.len() {
            let list = self.first_of_id[id]..self.first_of_id[id + 1];
            if self.live_end[id] != list.end {
                self.by_id[list.clone()].sort_unstable();
                self.live_end[id] = list.end;
            }
            self.recount(id);
        }
    }

    /// The candidates, as ascending index pairs into the round's units.
    pub fn candidates(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Whether candidates `i` and `j` conflict: they share a unit, or
    /// deciding both would close a dependence cycle between the groups.
    pub(crate) fn conflict(&self, i: usize, j: usize) -> bool {
        self.conflicts.get(i, j)
    }

    /// Orders candidates whose weights tie: lower wins, the candidate with
    /// the lexicographically smaller sorted statement ids.
    fn tie_rank(&self, cand: usize) -> usize {
        self.tie_rank[cand]
    }

    /// The §4.2.1 weight of `cand` given which candidates are still
    /// `alive` (selectable; the packs of dead ones are deleted from `VP`)
    /// and the packs of the groups decided so far. A decision kills its
    /// candidate and their conflicts itself: `alive` can only narrow that
    /// down.
    pub fn weight(&mut self, cand: usize, alive: &[bool]) -> f64 {
        self.weigh(cand, |other| alive[other])
    }

    /// [`Round::weight`] over the live candidates that `alive` accepts.
    fn weigh(&mut self, cand: usize, alive: impl Fn(usize) -> bool) -> f64 {
        let own = self.first_node[cand]..self.first_node[cand + 1];
        self.want(cand);

        // Step 1: auxiliary nodes, content-major, from the live lists.
        self.aux.clear();
        for &id in &self.wanted {
            for &n in &self.by_id[self.first_of_id[id]..self.live_end[id]] {
                let other = self.nodes[n].cand;
                if other != cand && alive(other) && !self.conflicts.get(cand, other) {
                    self.aux.push(n);
                }
            }
        }

        // Step 2: greedy conflict elimination.
        self.eliminate_conflicts();

        // Step 3: kind-weighted reuse counting over the wanted contents.
        for &n in self.aux.iter().filter(|&&n| n != DELETED) {
            self.count[self.nodes[n].id] += 1;
        }
        for n in &self.nodes[own] {
            self.count[n.id] += 1;
        }
        let r: f64 = (self.wanted.iter())
            .map(|&id| (id, self.count[id] + self.decided_count[id]))
            .filter(|&(_, n)| n > 1)
            .map(|(id, n)| (n - 1) as f64 * self.kind_weight(id))
            .sum();
        for &id in &self.wanted {
            self.count[id] = 0;
        }

        (r + self.adjust[cand]) / self.wanted.len() as f64
    }

    /// Sets `wanted` to `cand`'s own ids ∪ the decided ones, distinct and
    /// ascending: both the aux extraction filter and the Nt normalizer of
    /// step 4.
    fn want(&mut self, cand: usize) {
        self.wanted.clone_from(&self.decided);
        for n in &self.nodes[self.first_node[cand]..self.first_node[cand + 1]] {
            if let Err(at) = self.wanted.binary_search(&n.id) {
                self.wanted.insert(at, n.id);
            }
        }
    }

    /// What one reuse of content `id` is worth.
    fn kind_weight(&self, id: usize) -> f64 {
        if self.all_array[id] {
            1.0
        } else {
            self.scalar_reuse_weight
        }
    }

    /// An upper bound on the step 3 term of content `id` in the weight of
    /// any live candidate: `cap[id]` live nodes of `id` counted, with no
    /// conflict filter and no elimination, clamped at 0.
    fn term_bound(&self, id: usize) -> f64 {
        let n = self.cap[id] + self.decided_count[id];
        (n.saturating_sub(1) as f64 * self.kind_weight(id)).max(0.0)
    }

    /// Sets `cap[id]`, at most how many live nodes of `id` a weight
    /// counts: its own and the auxiliary ones that survive elimination.
    /// Their candidates are pairwise conflict free, so share no unit: at
    /// most half as many as the units of the live candidates with nodes
    /// of `id`, each with at most as many of those as any has (a
    /// candidate's nodes are neighbours: nodes are candidate-major).
    fn recount(&mut self, id: usize) {
        self.recounts += 1;
        let list = &self.by_id[self.first_of_id[id]..self.live_end[id]];
        let (mut units, mut most, mut run, mut last) = (0, 0, 0, usize::MAX);
        for &n in list {
            let cand = self.nodes[n].cand;
            run = if cand == last { run + 1 } else { 1 };
            (most, last) = (most.max(run), cand);
            let (a, b) = self.pairs[cand];
            for unit in [a, b] {
                if self.seen[unit] != self.recounts {
                    self.seen[unit] = self.recounts;
                    units += 1;
                }
            }
        }
        self.cap[id] = list.len().min(units / 2 * most);
    }

    /// An upper bound on the weight of the live candidate `cand`, in
    /// O(its own packs): the decided ids' term bounds, one sum kept per
    /// decision, plus those of its own new ids, over the exact `Nt`, plus
    /// [`SLACK`].
    fn bound(&self, cand: usize) -> f64 {
        let own = &self.nodes[self.first_node[cand]..self.first_node[cand + 1]];
        let (mut r, mut nt) = (self.decided_bound, self.decided.len());
        for (k, n) in own.iter().enumerate() {
            if self.decided_count[n.id] == 0 && own[..k].iter().all(|m| m.id != n.id) {
                r += self.term_bound(n.id);
                nt += 1;
            }
        }
        let (adjust, nt) = (self.adjust[cand], nt as f64);
        (r + adjust) / nt + SLACK * (r + adjust.abs()) / nt
    }

    /// An upper bound on the weight of `cand` with no slack, in
    /// O(|decided|): the terms of [`Round::bound`] summed over the ids, in
    /// the order, the weight sums over. Each is at least the exact one (or
    /// 0 where the weight adds none) and float addition and division are
    /// monotone, so the bound is never below the weight.
    fn tight_bound(&mut self, cand: usize) -> f64 {
        self.want(cand);
        let r: f64 = self.wanted.iter().map(|&id| self.term_bound(id)).sum();
        (r + self.adjust[cand]) / self.wanted.len() as f64
    }

    /// Whether candidate `c` at `weight` beats `best`. Ties go to the
    /// lower tie rank, the earliest statements: the paper chooses
    /// randomly, and determinism keeps the evaluation reproducible.
    fn beats(&self, c: usize, weight: f64, best: Option<(usize, f64)>) -> bool {
        match best {
            None => true,
            Some((b, best_weight)) => match weight.partial_cmp(&best_weight) {
                Some(Ordering::Equal) => self.tie_rank(c) < self.tie_rank(b),
                order => order.expect("weights are finite") == Ordering::Greater,
            },
        }
    }

    /// Step 4's choice: the live candidate of largest weight, ties to the
    /// lower tie rank, with its weight; `None` once no candidate lives.
    /// Candidates are weighed in descending [`Round::bound`] order until a
    /// bound falls below the best weight found, skipping those whose
    /// [`Round::tight_bound`] cannot beat it: none of those can win,
    /// whatever the order, so the choice is the full scan's. Debug builds
    /// weigh them too, to check their bounds.
    pub(crate) fn best(&mut self) -> Option<(usize, f64)> {
        self.order.clear();
        for c in 0..self.pairs.len() {
            if self.live[c] {
                let bound = self.bound(c);
                self.order.push((bound, self.tie_rank(c), c));
            }
        }
        self.order
            .sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        let mut best = None;
        for at in 0..self.order.len() {
            let (bound, _, c) = self.order[at];
            if best.is_some_and(|(_, best_weight)| bound < best_weight) {
                break;
            }
            let tight = self.tight_bound(c);
            if !self.beats(c, tight, best) {
                continue;
            }
            #[cfg(test)]
            tests::WEIGHED.with(|n| n.set(n.get() + 1));
            let weight = self.weigh(c, |_| true);
            if self.beats(c, weight, best) {
                best = Some((c, weight));
            }
        }
        if cfg!(debug_assertions) {
            for at in 0..self.order.len() {
                let (bound, _, c) = self.order[at];
                let (weight, tight) = (self.weigh(c, |_| true), self.tight_bound(c));
                assert!(
                    weight <= bound && weight <= tight,
                    "{c}'s bound is below its weight"
                );
                let winner = best.expect("a live candidate");
                assert!(
                    c == winner.0 || !self.beats(c, weight, best),
                    "{c} beats the winner"
                );
            }
        }
        best
    }

    /// Greedily deletes maximum-degree nodes (ties: lowest node index)
    /// from `aux` until the subgraph it induces has no edges. A node's
    /// edges are its candidate's conflicts, so one candidate's nodes share
    /// a degree and are never linked: the loop runs over candidates, and,
    /// nodes being candidate-major, the lowest tied node is the first left
    /// of the lowest tied candidate. Degrees are computed once
    /// (O(candidates²)) and decremented on removal; the loop is skipped
    /// when there is no edge to begin with, the common case.
    fn eliminate_conflicts(&mut self) {
        let Round {
            aux,
            groups,
            degree,
            nodes,
            conflicts,
            ..
        } = self;
        // Per candidate in `aux`, ascending: it, and its nodes left there.
        aux.sort_unstable();
        groups.clear();
        for (at, &n) in aux.iter().enumerate() {
            match groups.last_mut() {
                Some(group) if group.0 == nodes[n].cand => group.2 = at + 1,
                _ => groups.push((nodes[n].cand, at, at + 1)),
            }
        }
        degree.clear();
        degree.resize(groups.len(), 0);
        let mut edges = 0;
        for a in 0..groups.len() {
            for b in a + 1..groups.len() {
                if conflicts.get(groups[a].0, groups[b].0) {
                    let (x, y) = (groups[a].2 - groups[a].1, groups[b].2 - groups[b].1);
                    degree[a] += y;
                    degree[b] += x;
                    edges += x * y;
                }
            }
        }
        while edges > 0 {
            let victim = (0..groups.len())
                .filter(|&g| groups[g].1 < groups[g].2 && degree[g] > 0)
                .max_by_key(|&g| (degree[g], Reverse(g)))
                .expect("an edge has endpoints");
            let (cand, first, _) = groups[victim];
            aux[first] = DELETED;
            groups[victim].1 += 1;
            edges -= degree[victim];
            for (group, degree) in groups.iter().zip(degree.iter_mut()) {
                if conflicts.get(cand, group.0) {
                    *degree -= 1;
                }
            }
        }
    }

    /// Step 4's graph update: keeps the packs of the now decided `cand`
    /// for future weight calculations, and kills `cand` and every
    /// candidate conflicting with it, deleting their packs from `VP`.
    pub(crate) fn decide(&mut self, cand: usize) {
        for n in &self.nodes[self.first_node[cand]..self.first_node[cand + 1]] {
            if let Err(at) = self.decided.binary_search(&n.id) {
                self.decided.insert(at, n.id);
            }
            self.decided_count[n.id] += 1;
        }
        for other in 0..self.pairs.len() {
            if self.live[other] && (other == cand || self.conflict(cand, other)) {
                self.live[other] = false;
                for n in self.first_node[other]..self.first_node[other + 1] {
                    self.compact(self.nodes[n].id);
                }
            }
        }
        self.decided_bound = self.decided.iter().map(|&id| self.term_bound(id)).sum();
    }

    /// Moves the live nodes of `id` to the front of its list, in order.
    fn compact(&mut self, id: usize) {
        let mut end = self.first_of_id[id];
        for at in self.first_of_id[id]..self.live_end[id] {
            if self.live[self.nodes[self.by_id[at]].cand] {
                self.by_id.swap(end, at);
                end += 1;
            }
        }
        self.live_end[id] = end;
        self.recount(id);
    }
}

/// Knobs of the cost-aware weight refinement.
///
/// The paper's weight is the pure average superword reuse `W = r / Nt`.
/// That objective is blind to how much the *mandatory* packing of each
/// variable pack costs, and can prefer a grouping whose packs are strided
/// gathers over an equally-reusable grouping with contiguous vector
/// loads. Since the pre-processing stage already runs alignment analysis
/// (§3, Figure 3), this implementation folds that information into the
/// weight: contiguous array packs earn a bonus (each replaces `w` scalar
/// loads with one vector load — worth about one reuse), non-contiguous
/// array packs pay a penalty (per-lane gather).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightParams {
    /// Added per contiguous array pack of the candidate.
    pub contiguous_bonus: f64,
    /// Subtracted per non-contiguous (gather) array pack of the
    /// candidate.
    pub gather_penalty: f64,
    /// Multiplier applied to reuses of all-scalar packs. Reusing a
    /// register-resident scalar pack only saves insert shuffles, while
    /// reusing (or avoiding) an array pack saves memory operations, so a
    /// scalar reuse is worth a fraction of an array reuse.
    pub scalar_reuse_weight: f64,
    /// Extra multiplier on the contiguity bonus/penalty of *destination*
    /// array packs: stores are mandatory (reuse can never eliminate
    /// them), so their memory class matters more than that of loads.
    pub store_factor: f64,
}

impl Default for WeightParams {
    fn default() -> Self {
        WeightParams {
            contiguous_bonus: 1.0,
            gather_penalty: 0.75,
            scalar_reuse_weight: 0.4,
            store_factor: 2.0,
        }
    }
}

impl WeightParams {
    /// The paper's original reuse-only weight (`W = r / Nt`), with no
    /// contiguity or reuse-kind adjustment.
    pub fn reuse_only() -> Self {
        WeightParams {
            contiguous_bonus: 0.0,
            gather_penalty: 0.0,
            scalar_reuse_weight: 1.0,
            store_factor: 1.0,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::candidates::tests::{figure2, singletons};
    use crate::key::PackContent;
    use slp_ir::{ArrayRef, BasicBlock, Operand, StmtId};
    use std::cell::Cell;

    thread_local! {
        /// Per test thread: how many weights [`Round::best`] took.
        pub(crate) static WEIGHED: Cell<usize> = const { Cell::new(0) };
    }

    fn fixture(params: &WeightParams) -> Round {
        let (p, bb) = figure2();
        let deps = BlockDeps::analyze(&bb);
        let ix = BlockIndex::new(&bb, &p, |_| 4);
        Round::new(&ix, &deps, &singletons(&bb), params)
    }

    #[test]
    fn figure4_structure() {
        let f = fixture(&WeightParams::reuse_only());
        // {S1,S2}: 2 packs; {S1,S3}: 2 packs; {S4,S5}: 3 packs.
        assert_eq!(f.first_node, [0, 2, 4, 7]);
        let pos: Vec<PackPos> = f.nodes[4..].iter().map(|n| n.pos).collect();
        assert_eq!(
            pos,
            [PackPos::Dest, PackPos::Operand(0), PackPos::Operand(1)]
        );
        // The {V1,V2} destination and {V3,V5} source packs of {S1,S2} also
        // appear in {S4,S5}, as does {S1,S3}'s {V1,V5}; {V3,V7} occurs once.
        let occurrences = |n: usize| f.nodes.iter().filter(|m| m.id == f.nodes[n].id).count();
        let counts: Vec<usize> = (0..7).map(occurrences).collect();
        assert_eq!(counts, [2, 2, 2, 1, 2, 2, 2]);
        assert_eq!(f.all_array, [false; 4]);
        // Only candidates 0 and 1 conflict (they share S1): their 2×2
        // pack pairs are the graph's only edges.
        let edges = (0..7)
            .flat_map(|x| (x + 1..7).map(move |y| (x, y)))
            .filter(|&(x, y)| f.conflict(f.nodes[x].cand, f.nodes[y].cand))
            .count();
        assert_eq!(edges, 4);
    }

    #[test]
    fn paper_figure5_weights() {
        // The paper's Figure 5 annotates the statement-grouping-graph
        // edges with weights 1/1 for {S1,S2}, 1/2 for {S1,S3} and 2/3 for
        // {S4,S5}. Verified against the paper's unadjusted formula.
        let mut f = fixture(&WeightParams::reuse_only());
        let mut w = |c: usize| f.weight(c, &[true; 3]);
        assert!((w(0) - 1.0).abs() < 1e-9, "w({{S1,S2}}) = {}", w(0));
        assert!((w(1) - 0.5).abs() < 1e-9, "w({{S1,S3}}) = {}", w(1));
        assert!((w(2) - 2.0 / 3.0).abs() < 1e-9, "w({{S4,S5}}) = {}", w(2));
    }

    #[test]
    fn paper_figure8_weight_after_first_decision() {
        // After deciding {S1,S2}, the updated graph weights {S4,S5} at
        // 2/3, now sourced from the decided packs rather than from VP.
        let mut f = fixture(&WeightParams::reuse_only());
        f.decide(0);
        // Candidate 0 decided; candidate 1 conflicts with it and dies.
        let w = f.weight(2, &[false, false, true]);
        assert!((w - 2.0 / 3.0).abs() < 1e-9, "w = {w}");
        // A restart forgets the decision: Figure 5's snapshot again.
        f.restart(&WeightParams::reuse_only());
        assert!(f.decided.is_empty() && f.decided_count.iter().all(|&n| n == 0));
    }

    #[test]
    fn figure5_order_matches_the_paper_decision_sequence() {
        // Non-increasing weight, ties to the lower tie rank: {S1,S2}
        // first (1.0), then {S4,S5} (2/3), then {S1,S3} (1/2).
        let mut f = fixture(&WeightParams::reuse_only());
        let mut order: Vec<(f64, usize)> = (0..3).map(|c| (f.weight(c, &[true; 3]), c)).collect();
        order.sort_by(|x, y| {
            let rank = |c: usize| f.tie_rank(c);
            y.0.total_cmp(&x.0).then(rank(x.1).cmp(&rank(y.1)))
        });
        let pairs: Vec<(usize, usize)> = order.iter().map(|&(_, c)| f.candidates()[c]).collect();
        assert_eq!(pairs, [(0, 1), (3, 4), (0, 2)]);
    }

    #[test]
    fn weight_is_zero_without_any_reuse() {
        // {S1,S3}'s packs ({V1,V5}, {V3,V7}) match nothing once the other
        // candidates are dead: no reuse, weight 0.
        let mut f = fixture(&WeightParams::reuse_only());
        assert_eq!(f.weight(1, &[false, true, false]), 0.0);
    }

    #[test]
    fn elimination_leaves_a_conflict_free_set() {
        // Feeding the whole VP node set through elimination must yield an
        // independent set, mirroring Figures 6→7.
        let mut f = fixture(&WeightParams::reuse_only());
        f.aux = (0..f.nodes.len()).collect();
        f.eliminate_conflicts();
        let survivors: Vec<usize> = f.aux.iter().copied().filter(|&n| n != DELETED).collect();
        assert!(!survivors.is_empty());
        for (i, &a) in survivors.iter().enumerate() {
            for &b in &survivors[i + 1..] {
                assert!(!f.conflict(f.nodes[a].cand, f.nodes[b].cand));
            }
        }
    }

    #[test]
    fn figure7_elimination_for_s4_s5() {
        // The aux graph for {S4,S5} (candidate 2) holds {V3,V5}@C0,
        // {V1,V2}@C0 and {V1,V5}@C1; C0–C1 conflict gives {V1,V5}@C1
        // degree 2, so it is eliminated and the two C0 packs survive —
        // exactly the paper's Figure 6 → Figure 7 transition.
        let mut f = fixture(&WeightParams::reuse_only());
        f.weight(2, &[true; 3]);
        assert_eq!(f.aux.len(), 3);
        let survivors: Vec<usize> = f.aux.iter().copied().filter(|&n| n != DELETED).collect();
        assert_eq!(survivors.len(), 2);
        assert!(survivors.iter().all(|&n| f.nodes[n].cand == 0));
    }

    /// One candidate as the specification sees it: its statements and its
    /// location packs, in pack order, as plain operand lists with their
    /// [`PackContent`].
    struct SpecCandidate<'a> {
        stmts: Vec<StmtId>,
        packs: Vec<(PackPos, Vec<&'a Operand>, PackContent)>,
    }

    fn spec_candidates<'a>(
        bb: &'a BasicBlock,
        dests: &'a [Operand],
        units: &[Unit],
        pairs: &[(usize, usize)],
    ) -> Vec<SpecCandidate<'a>> {
        let pos = bb.positions();
        let at = |s: &StmtId| pos.of(*s);
        (pairs.iter())
            .map(|&(a, b)| {
                let stmts = [units[a].stmts(), units[b].stmts()].concat();
                let pack = |pos, ops: Vec<&'a Operand>| {
                    let content = PackContent::new(ops.iter().copied());
                    (pos, ops, content)
                };
                let dest = stmts.iter().map(|s| &dests[at(s)]).collect();
                let mut packs = vec![pack(PackPos::Dest, dest)];
                for k in 0..bb.stmts()[at(&stmts[0])].expr().operands().len() {
                    let ops: Vec<&Operand> = (stmts.iter())
                        .map(|s| bb.stmts()[at(s)].expr().operands()[k])
                        .collect();
                    if ops.iter().all(|o| o.is_location()) {
                        packs.push(pack(PackPos::Operand(k), ops));
                    }
                }
                SpecCandidate { stmts, packs }
            })
            .collect()
    }

    /// The four steps of the module doc, naively, over plain
    /// [`PackContent`] values: the specification [`Round::weight`] must
    /// match bit for bit.
    fn reference_weight(
        cand: usize,
        cands: &[SpecCandidate<'_>],
        conflict: &dyn Fn(usize, usize) -> bool,
        alive: &[bool],
        decided: &[PackContent],
        params: &WeightParams,
    ) -> f64 {
        let own = || cands[cand].packs.iter().map(|(_, _, content)| content);
        let mut wanted: Vec<&PackContent> = own().chain(decided).collect();
        wanted.sort();
        wanted.dedup();
        // Step 1, content-major; a node is (content, candidate, pack index).
        let mut aux: Vec<(&PackContent, usize, usize)> = Vec::new();
        for want in &wanted {
            for (c, other) in cands.iter().enumerate() {
                for (k, (_, _, content)) in other.packs.iter().enumerate() {
                    if c != cand && alive[c] && !conflict(cand, c) && content == *want {
                        aux.push((content, c, k));
                    }
                }
            }
        }
        // Step 2: highest degree first, then the earliest (candidate, pack).
        loop {
            let degree = |x: &(&PackContent, usize, usize)| {
                aux.iter().filter(|y| conflict(x.1, y.1)).count()
            };
            let worst = (aux.iter().enumerate())
                .filter(|(_, x)| degree(x) > 0)
                .max_by_key(|(_, x)| (degree(x), Reverse((x.1, x.2))));
            match worst.map(|(at, _)| at) {
                Some(at) => aux.remove(at),
                None => break,
            };
        }
        // Steps 3 and 4.
        let r: f64 = (wanted.iter())
            .map(|want| {
                let n = aux.iter().filter(|x| x.0 == *want).count()
                    + own().chain(decided).filter(|c| c == want).count();
                let kind = if want.is_all_array() {
                    1.0
                } else {
                    params.scalar_reuse_weight
                };
                (n, kind)
            })
            .filter(|&(n, _)| n > 1)
            .map(|(n, kind)| (n - 1) as f64 * kind)
            .sum();
        let mut adjust = 0.0;
        for (pos, ops, _) in &cands[cand].packs {
            let refs: Option<Vec<&ArrayRef>> = ops.iter().map(|o| o.as_array()).collect();
            let Some(mut refs) = refs else { continue };
            refs.sort_by_key(|r| r.access.dims().last().map(|e| e.constant()));
            let factor = if *pos == PackPos::Dest {
                params.store_factor
            } else {
                1.0
            };
            if pack_is_contiguous(&refs) {
                adjust += factor * params.contiguous_bonus;
            } else {
                adjust -= factor * params.gather_penalty;
            }
        }
        (r + adjust) / wanted.len() as f64
    }

    /// Holds every live candidate of the round over `units` to the
    /// specification, under both weight profiles, after 0, 1 and 2
    /// decisions. Returns how many weights were compared, how many of
    /// them needed elimination, and the units after those decisions —
    /// or `None` if the round has no candidates.
    fn check_round(
        bb: &BasicBlock,
        deps: &BlockDeps,
        ix: &BlockIndex<'_>,
        units: &[Unit],
    ) -> Option<(usize, usize, Vec<Unit>)> {
        let default = WeightParams::default();
        let mut round = Round::new(ix, deps, units, &default);
        let pairs = round.candidates().to_vec();
        if pairs.is_empty() {
            return None;
        }
        let dests: Vec<Operand> = bb.iter().map(|s| s.def()).collect();
        let cands = spec_candidates(bb, &dests, units, &pairs);
        // The conflict relation from its definition, statement by statement.
        let path = |from: &[StmtId], to: &[StmtId]| {
            from.iter().any(|&s| to.iter().any(|&t| deps.depends(s, t)))
        };
        let conflicts: Vec<Vec<bool>> = (cands.iter())
            .map(|SpecCandidate { stmts: x, .. }| {
                let with = |SpecCandidate { stmts: y, .. }: &SpecCandidate<'_>| {
                    x != y && (x.iter().any(|s| y.contains(s)) || (path(x, y) && path(y, x)))
                };
                cands.iter().map(with).collect()
            })
            .collect();
        let conflict = |x: usize, y: usize| conflicts[x][y];
        let (mut compared, mut eliminated, mut merged) = (0, 0, Vec::new());
        for params in [default, WeightParams::reuse_only()] {
            round.restart(&params);
            let mut alive = vec![true; pairs.len()];
            let mut decided: Vec<PackContent> = Vec::new();
            merged.clear();
            for _ in 0..3 {
                let live: Vec<usize> = (0..pairs.len()).filter(|&c| alive[c]).collect();
                for &c in &live {
                    let got = round.weight(c, &alive);
                    let want = reference_weight(c, &cands, &conflict, &alive, &decided, &params);
                    assert_eq!(got.to_bits(), want.to_bits(), "candidate {c} of\n{bb}");
                    compared += 1;
                    eliminated += usize::from(round.aux.contains(&DELETED));
                }
                // Decide the middle one: as good as any.
                let Some(&c) = live.get(live.len() / 2) else {
                    break;
                };
                round.decide(c);
                merged.push(pairs[c]);
                decided.extend(cands[c].packs.iter().map(|(_, _, content)| content.clone()));
                for (other, slot) in alive.iter_mut().enumerate() {
                    *slot &= other != c && !conflict(c, other);
                }
            }
        }
        let gone = |u: &usize| merged.iter().any(|&(a, b)| a == *u || b == *u);
        let kept = (0..units.len())
            .filter(|u| !gone(u))
            .map(|u| units[u].clone());
        let wider = merged
            .iter()
            .map(|&(a, b)| Unit::merged(&units[a], &units[b]));
        Some((compared, eliminated, wider.chain(kept).collect()))
    }

    /// The 240 seeded random programs, unrolled by 2 or 4, that the
    /// properties of rounds, the decision loop and the baseline's seeds
    /// run over.
    pub(crate) fn random_programs() -> impl Iterator<Item = slp_ir::Program> {
        use slp_suite::{random_program, GeneratorConfig};
        (0..240u64).map(|seed| {
            let config = GeneratorConfig {
                body_stmts: 3 + (seed % 5) as usize,
                ..GeneratorConfig::default()
            };
            let mut program = random_program(seed, &config);
            slp_ir::unroll_program(&mut program, 2 + (seed % 2) as usize * 2);
            program
        })
    }

    /// A 128-bit datapath's lane cap.
    pub(crate) fn lanes(ty: slp_ir::ScalarType) -> usize {
        16 / ty.size_bytes() as usize
    }

    #[test]
    fn round_weights_match_the_specification_on_random_blocks() {
        let (mut blocks, mut compared, mut eliminated) = (0, 0, 0);
        for program in random_programs() {
            for info in program.blocks() {
                let bb = &info.block;
                let deps = BlockDeps::analyze_in(bb, &info.loops);
                let ix = BlockIndex::new(bb, &program, lanes);
                // Round 0, then the round over what its decisions merged.
                let Some((n, e, units)) = check_round(bb, &deps, &ix, &singletons(bb)) else {
                    continue;
                };
                let (m, f, _) = check_round(bb, &deps, &ix, &units).unwrap_or_default();
                blocks += 1;
                compared += n + m;
                eliminated += e + f;
            }
        }
        assert!(blocks >= 200, "only {blocks} blocks had candidates");
        assert!(
            compared > 5000 && eliminated > 500,
            "{compared} / {eliminated}"
        );
    }
}
