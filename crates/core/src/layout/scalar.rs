//! §5.1 — data layout optimization for scalar superwords.
//!
//! Scalar locals live in memory (the stack frame); packing a scalar
//! superword therefore costs one memory operation per lane unless the
//! lanes happen to sit in consecutive aligned slots. This pass solves the
//! placement problem like the offset-assignment problem of DSP code
//! generation, except the desired adjacencies come from the superword
//! statement generation stage: scalar superwords are processed in
//! decreasing order of occurrence, each assigning its variables
//! consecutive aligned slots in lane order; superwords that share a
//! variable with an already-placed one are skipped (conflicting layout
//! requirements), so the hottest packs win.

use std::collections::BTreeMap;

use slp_ir::{Operand, Program, TypeEnv, VarId};

use super::PackUse;

/// The memory placement of every scalar variable of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarLayout {
    addr: Vec<u64>,
    total_bytes: u64,
    optimized: bool,
}

impl ScalarLayout {
    /// The declaration-order default layout: scalars packed one after
    /// another, each aligned to its own size.
    pub(crate) fn declaration_order(program: &Program) -> Self {
        let mut addr = vec![0u64; program.scalars().len()];
        let mut next = 0u64;
        for v in program.scalar_ids() {
            let size = u64::from(program.scalar_type(v).size_bytes());
            next = next.div_ceil(size) * size;
            addr[v.index()] = next;
            next += size;
        }
        ScalarLayout {
            addr,
            total_bytes: next,
            optimized: false,
        }
    }

    /// Reconstructs a layout from its raw parts — the per-variable byte
    /// addresses (indexed by `VarId`), the frame size, and whether the
    /// layout came out of the §5.1 optimization. Used by the
    /// `slp-driver` compile cache to restore persisted kernels; the
    /// caller is responsible for the parts being mutually consistent.
    pub fn from_raw(addr: Vec<u64>, total_bytes: u64, optimized: bool) -> Self {
        ScalarLayout {
            addr,
            total_bytes,
            optimized,
        }
    }

    /// The per-variable byte addresses backing this layout, indexed by
    /// `VarId` (the inverse of [`ScalarLayout::from_raw`]).
    pub fn addresses(&self) -> &[u64] {
        &self.addr
    }

    /// Whether this layout was produced by the §5.1 optimization. Only
    /// then may the code generator rely on slot adjacency — an
    /// un-optimized stack layout gives no such guarantee once register
    /// allocation and spilling rearrange the frame.
    pub fn is_optimized(&self) -> bool {
        self.optimized
    }

    /// The byte address assigned to scalar `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not covered by this layout.
    pub fn address(&self, v: VarId) -> u64 {
        self.addr[v.index()]
    }

    /// Size of the scalar frame in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Whether the given lanes sit at consecutive, pack-aligned addresses
    /// (so the pack moves with one vector memory operation).
    pub(crate) fn pack_is_contiguous_aligned(&self, lanes: &[VarId], elem_size: u32) -> bool {
        let Some(&first) = lanes.first() else {
            return false;
        };
        let base = self.address(first);
        let width = u64::from(elem_size) * lanes.len() as u64;
        base.is_multiple_of(width)
            && lanes
                .iter()
                .enumerate()
                .all(|(k, &v)| self.address(v) == base + k as u64 * u64::from(elem_size))
    }
}

/// Runs the §5.1 placement over the scalar superwords found in the
/// schedules.
///
/// Returns the optimized layout plus the number of packs it satisfied.
pub(crate) fn optimize_scalar_layout(program: &Program, uses: &[PackUse]) -> (ScalarLayout, usize) {
    // Gather scalar superwords with occurrence counts, keyed by their
    // ordered lanes (the scheduling phase fixed lane order, which is the
    // order the variables must take in memory).
    let mut occurrences: BTreeMap<Vec<VarId>, usize> = BTreeMap::new();
    for u in uses {
        let lanes: Option<Vec<VarId>> = u
            .ops
            .iter()
            .map(|o| match o {
                Operand::Scalar(v) => Some(*v),
                _ => None,
            })
            .collect();
        if let Some(lanes) = lanes {
            // A pack of repeated lanes (a splat like <s,s>) has no layout
            // need: one scalar load feeds a broadcast.
            let mut dedup = lanes.clone();
            dedup.sort();
            dedup.dedup();
            if dedup.len() == lanes.len() {
                *occurrences.entry(lanes).or_insert(0) += 1;
            }
        }
    }

    let mut by_count: Vec<(Vec<VarId>, usize)> = occurrences.into_iter().collect();
    // Decreasing occurrence; deterministic tie-break on the lanes.
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let n = program.scalars().len();
    let mut assigned: Vec<Option<u64>> = vec![None; n];
    let mut next = 0u64;
    let mut satisfied = 0usize;
    for (lanes, _count) in &by_count {
        if lanes.iter().any(|v| assigned[v.index()].is_some()) {
            continue; // conflicting layout requirement: skip (paper, §5.1)
        }
        let elem = u64::from(program.scalar_type(lanes[0]).size_bytes());
        let width = elem * lanes.len() as u64;
        next = next.div_ceil(width) * width; // align to the pack width
        for (k, &v) in lanes.iter().enumerate() {
            assigned[v.index()] = Some(next + k as u64 * elem);
        }
        next += width;
        satisfied += 1;
    }

    // Remaining scalars follow in declaration order.
    let mut addr = vec![0u64; n];
    for v in program.scalar_ids() {
        match assigned[v.index()] {
            Some(a) => addr[v.index()] = a,
            None => {
                let size = u64::from(program.scalar_type(v).size_bytes());
                next = next.div_ceil(size) * size;
                addr[v.index()] = next;
                next += size;
            }
        }
    }
    (
        ScalarLayout {
            addr,
            total_bytes: next,
            optimized: true,
        },
        satisfied,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_analysis::PackPos;
    use slp_ir::{BlockId, ScalarType};

    fn pack_use(lanes: &[VarId]) -> PackUse {
        PackUse {
            block: BlockId(0),
            stmts: vec![],
            pos: PackPos::Dest,
            ops: lanes.iter().map(|&v| Operand::Scalar(v)).collect(),
            loops: vec![],
        }
    }

    fn program_with_scalars(n: u32) -> (Program, Vec<VarId>) {
        let mut p = Program::new("t");
        let vs = (0..n)
            .map(|k| p.add_scalar(format!("s{k}"), ScalarType::F64))
            .collect();
        (p, vs)
    }

    #[test]
    fn declaration_order_is_dense_and_aligned() {
        let (p, vs) = program_with_scalars(3);
        let l = ScalarLayout::declaration_order(&p);
        assert!(!l.is_optimized());
        assert_eq!(l.address(vs[0]), 0);
        assert_eq!(l.address(vs[1]), 8);
        assert_eq!(l.address(vs[2]), 16);
        assert_eq!(l.total_bytes(), 24);
    }

    #[test]
    fn hot_pack_gets_contiguous_aligned_slots() {
        let (p, vs) = program_with_scalars(4);
        // Pack <s2, s0> appears twice, <s1, s3> once.
        let uses = vec![
            pack_use(&[vs[2], vs[0]]),
            pack_use(&[vs[2], vs[0]]),
            pack_use(&[vs[1], vs[3]]),
        ];
        let (l, satisfied) = optimize_scalar_layout(&p, &uses);
        assert!(l.is_optimized());
        assert_eq!(satisfied, 2);
        assert!(l.pack_is_contiguous_aligned(&[vs[2], vs[0]], 8));
        assert!(l.pack_is_contiguous_aligned(&[vs[1], vs[3]], 8));
        // Lane order matters: the reverse is not contiguous-ascending.
        assert!(!l.pack_is_contiguous_aligned(&[vs[0], vs[2]], 8));
    }

    #[test]
    fn conflicting_packs_lose_to_hotter_ones() {
        let (p, vs) = program_with_scalars(3);
        // <s0, s1> twice vs <s1, s2> once: they share s1.
        let uses = vec![
            pack_use(&[vs[0], vs[1]]),
            pack_use(&[vs[0], vs[1]]),
            pack_use(&[vs[1], vs[2]]),
        ];
        let (l, satisfied) = optimize_scalar_layout(&p, &uses);
        assert_eq!(satisfied, 1);
        assert!(l.pack_is_contiguous_aligned(&[vs[0], vs[1]], 8));
        assert!(!l.pack_is_contiguous_aligned(&[vs[1], vs[2]], 8));
    }

    #[test]
    fn splat_packs_are_ignored() {
        let (p, vs) = program_with_scalars(2);
        let uses = vec![pack_use(&[vs[0], vs[0]])];
        let (_, satisfied) = optimize_scalar_layout(&p, &uses);
        assert_eq!(satisfied, 0);
    }

    #[test]
    fn every_scalar_gets_a_unique_address() {
        let (p, vs) = program_with_scalars(5);
        let uses = vec![pack_use(&[vs[3], vs[1]])];
        let (l, _) = optimize_scalar_layout(&p, &uses);
        let mut addrs: Vec<u64> = vs.iter().map(|&v| l.address(v)).collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 5);
        assert!(l.total_bytes() >= 40);
    }

    #[test]
    fn mixed_operand_packs_are_skipped() {
        let (p, vs) = program_with_scalars(2);
        let mut u = pack_use(&[vs[0], vs[1]]);
        u.ops[1] = Operand::Const(1.0);
        let (_, satisfied) = optimize_scalar_layout(&p, &[u]);
        assert_eq!(satisfied, 0);
    }
}
