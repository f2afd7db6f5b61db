//! The live superword set of §4.3 (Figure 11): the ordered packs believed
//! resident in vector registers.
//!
//! There is one, and two readers. The scheduler plans on it — which ready
//! group reuses the most, which lane order needs the fewest permutes —
//! and the emission walk, from which both the §4.3 estimate and the
//! generated code come, decides on it what is reused, permuted or packed
//! afresh. Each superword statement goes through the set the same way:
//! [`source`](LivePacks::source) once per operand pack, in operand order,
//! then [`define`](LivePacks::define) for its destination.

use std::ops::Range;

use slp_analysis::{BlockIndex, PackPos};

/// Whether `a` and `b` hold the same keys, each as often: two lane orders
/// of one pack.
fn is_permutation(a: &[u32], b: &[u32]) -> bool {
    let count = |keys: &[u32], x: u32| keys.iter().filter(|&&k| k == x).count();
    a.len() == b.len() && a.iter().all(|&x| count(a, x) == count(b, x))
}

/// How a superword statement comes by a source pack: live in this lane
/// order (nothing to emit), live in another (one permute), or not live
/// (a load, a splat or a pack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reuse {
    Direct,
    Permuted,
    Absent,
}

/// The live superword set: [`BlockIndex`] operand keys in lane order with
/// the register holding each, oldest pack first. `R` names a register: the
/// walk's sink chooses it, the scheduler needs none.
pub(crate) struct LivePacks<R> {
    /// The live packs' keys, pack after pack.
    keys: Vec<u32>,
    /// Per live pack: where its keys are, and its register.
    packs: Vec<(Range<usize>, R)>,
    capacity: usize,
}

impl<R: Copy> LivePacks<R> {
    /// An empty set that holds as many packs as the machine has vector
    /// registers; the oldest is evicted first.
    pub(crate) fn new(vector_regs: usize) -> Self {
        // Room for a register file of packs before either table grows.
        let packs = vector_regs.min(16) + 1;
        LivePacks {
            keys: Vec::with_capacity(4 * packs),
            packs: Vec::with_capacity(packs),
            capacity: vector_regs,
        }
    }

    /// The live packs, oldest first: lane order and register.
    fn packs(&self) -> impl DoubleEndedIterator<Item = (&[u32], R)> {
        (self.packs.iter()).map(|(span, reg)| (&self.keys[span.clone()], *reg))
    }

    /// The register holding exactly `keys`, in this lane order.
    pub(crate) fn exact(&self, keys: &[u32]) -> Option<R> {
        let found = self.packs().find(|&(order, _)| order == keys);
        found.map(|(_, reg)| reg)
    }

    /// The live packs holding `keys` in any lane order, oldest first.
    pub(crate) fn permutations<'a>(
        &'a self,
        keys: &'a [u32],
    ) -> impl DoubleEndedIterator<Item = (&'a [u32], R)> {
        self.packs()
            .filter(move |&(order, _)| is_permutation(order, keys))
    }

    /// The youngest live pack holding `keys` in any lane order.
    pub(crate) fn permuted<'a>(&'a self, keys: &'a [u32]) -> Option<(&'a [u32], R)> {
        self.permutations(keys).next_back()
    }

    /// Makes the `i`-th oldest pack no longer live.
    fn remove(&mut self, i: usize) {
        let (span, _) = self.packs.remove(i);
        for (younger, _) in &mut self.packs[i..] {
            *younger = younger.start - span.len()..younger.end - span.len();
        }
        self.keys.drain(span);
    }

    /// Makes `keys` in `reg` the youngest live pack. Another lane order of
    /// the same content stays live beside it, in its own register.
    pub(crate) fn register(&mut self, keys: impl IntoIterator<Item = u32>, reg: R) {
        let start = self.keys.len();
        self.keys.extend(keys);
        let known = (self.packs()).position(|(order, _)| order == &self.keys[start..]);
        self.packs.push((start..self.keys.len(), reg));
        if let Some(older) = known {
            self.remove(older);
        }
        if self.packs.len() > self.capacity {
            self.remove(0);
        }
    }

    /// Removes every pack holding data a write to the destination key
    /// `written` may change — "those existing superwords that access the
    /// same data".
    pub(crate) fn invalidate(&mut self, ix: &BlockIndex<'_>, written: u32) {
        for i in (0..self.packs.len()).rev() {
            let order = &self.keys[self.packs[i].0.clone()];
            if order.iter().any(|&k| ix.overlaps(written, k)) {
                self.remove(i);
            }
        }
    }

    /// A register holding the non-constant source pack `keys`: the one it
    /// is live in, or else the one `materialize` defines — from the
    /// youngest live pack of the same content if `permuted_reuse` finds
    /// one, from the lanes' homes if handed `None` — which is then live.
    pub(crate) fn source(
        &mut self,
        keys: &[u32],
        permuted_reuse: bool,
        materialize: impl FnOnce(Option<(&[u32], R)>) -> R,
    ) -> (R, Reuse) {
        if let Some(reg) = self.exact(keys) {
            return (reg, Reuse::Direct);
        }
        let from = (permuted_reuse.then(|| self.permuted(keys))).flatten();
        let class = from.map_or(Reuse::Absent, |_| Reuse::Permuted);
        let reg = materialize(from);
        self.register(keys.iter().copied(), reg);
        (reg, class)
    }

    /// The superword statement over the block positions `lanes` wrote its
    /// result, held in `reg`: what the writes may change is no longer
    /// live, and the destination pack is — when its element type is a
    /// float. `reg` holds the lanes as they were before the store coerced
    /// them into memory (integer truncation and wrapping happen exactly
    /// once, at the store), so a later reuse of an integer register would
    /// observe un-truncated values.
    pub(crate) fn define(&mut self, ix: &BlockIndex<'_>, lanes: &[usize], reg: R) {
        for key in ix.keys(lanes, PackPos::Dest) {
            self.invalidate(ix, key);
        }
        if lanes.iter().all(|&p| ix.dest_type(p).is_float()) {
            self.register(ix.keys(lanes, PackPos::Dest), reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane orders that are live, oldest first.
    fn orders<R: Copy>(live: &LivePacks<R>) -> Vec<&[u32]> {
        live.packs().map(|(order, _)| order).collect()
    }

    #[test]
    fn capacity_evicts_the_oldest() {
        let mut live = LivePacks::new(2);
        for k in 0..3 {
            live.register(vec![k], ());
        }
        assert_eq!(orders(&live), [[1], [2]]);
    }

    #[test]
    fn both_lane_orders_of_one_content_stay_live() {
        let mut live = LivePacks::new(2);
        live.register(vec![0, 1], 'a');
        live.register(vec![1, 0], 'b');
        assert_eq!(live.exact(&[0, 1]), Some('a'));
        assert_eq!(live.exact(&[1, 0]), Some('b'));
        // Of the two, the youngest answers for the content.
        assert_eq!(live.permuted(&[0, 1]), Some((&[1, 0][..], 'b')));
        // Registering again refreshes the age: <1,0> is now the oldest.
        live.register(vec![0, 1], 'c');
        live.register(vec![2, 3], 'd');
        assert_eq!(live.exact(&[1, 0]), None);
        assert_eq!(live.exact(&[0, 1]), Some('c'));
        assert_eq!(live.permuted(&[0, 1]), Some((&[0, 1][..], 'c')));
        assert_eq!(live.permuted(&[3, 4]), None);
    }

    #[test]
    fn a_write_invalidates_every_pack_it_may_alias() {
        let p = slp_lang::compile(
            "kernel k { array A: f64[64]; array B: f64[64]; scalar s, t: f64;
             for i in 0..16 { s = A[2*i] + B[2*i]; t = A[2*i+1] + B[2*i+1]; A[i] = s; } }",
        )
        .unwrap();
        let block = &p.blocks()[0].block;
        let ix = BlockIndex::new(block, &p, |_| 2);
        let (a, b) = (PackPos::Operand(0), PackPos::Operand(1));
        let mut live = LivePacks::new(16);
        live.register(ix.keys(&[0, 1], a), ());
        live.register(ix.keys(&[1, 0], a), ());
        live.register(ix.keys(&[0, 1], b), ());
        // A[i] may be A[2i] or A[2i+1]; it is no element of B.
        live.invalidate(&ix, ix.key(2, PackPos::Dest));
        let kept: Vec<u32> = ix.keys(&[0, 1], b).collect();
        assert_eq!(orders(&live), [kept]);
    }

    #[test]
    fn only_a_float_destination_pack_is_live_after_its_superword() {
        for (ty, reusable) in [("f64", true), ("f32", true), ("i64", false), ("i16", false)] {
            let p = slp_lang::compile(&format!(
                "kernel k {{ array A: {ty}[64]; array B: {ty}[64];
                 for i in 0..16 {{ A[2*i] = B[2*i] * 2; A[2*i+1] = B[2*i+1] * 2; }} }}"
            ))
            .unwrap();
            let block = &p.blocks()[0].block;
            let ix = BlockIndex::new(block, &p, |_| 2);
            let dest: Vec<u32> = ix.keys(&[0, 1], PackPos::Dest).collect();
            let mut live = LivePacks::new(16);
            // Live from an earlier load; the superword overwrites it.
            live.register(dest.clone(), 'a');
            live.define(&ix, &[0, 1], 'b');
            assert_eq!(live.exact(&dest), reusable.then_some('b'), "{ty}");
        }
    }
}
