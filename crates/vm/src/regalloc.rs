//! Vector register allocation — the paper's post-processing stage
//! ("finally, the post-processing module performs register allocation and
//! other low-level optimizations", Figure 3).
//!
//! The code generator emits SSA-like virtual vector registers; this
//! module maps them onto the machine's architectural register file with a
//! classic linear-scan allocator. When pressure exceeds the file size the
//! live range with the furthest next end is spilled: its definition gains
//! a [`VInst::Spill`] store and every later use a [`VInst::Reload`] —
//! real memory traffic that the run statistics account for. Values still
//! flow through the virtual registers in the interpreter (spills are
//! cost/bookkeeping instructions), so allocation can never change a
//! program's results, only its price.

use crate::code::{InstMetrics, VInst, VReg};

/// The result of allocating one block's virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Allocation {
    /// Physical register per virtual register (dense by `VReg` index);
    /// `None` for spilled or unused registers.
    assignments: Vec<Option<u32>>,
    /// Whether each virtual register was spilled.
    spilled: Vec<bool>,
    /// Spill stores inserted.
    pub(crate) spill_stores: usize,
    /// Reloads inserted.
    pub(crate) spill_reloads: usize,
}

impl Allocation {
    /// The physical register assigned to `r`, if it was kept in the file.
    /// Read by the tests only: simultaneously-live registers must differ.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn physical(&self, r: VReg) -> Option<u32> {
        self.assignments.get(r.0 as usize).copied().flatten()
    }

    /// Whether `r` was spilled.
    pub(crate) fn is_spilled(&self, r: VReg) -> bool {
        self.spilled.get(r.0 as usize).copied().unwrap_or(false)
    }

    /// Total spill instructions inserted.
    pub(crate) fn spill_count(&self) -> usize {
        self.spill_stores + self.spill_reloads
    }
}

/// The virtual register an instruction defines, if any.
pub(crate) fn def_of(inst: &VInst) -> Option<VReg> {
    match inst {
        VInst::Load { dst, .. }
        | VInst::PackScalars { dst, .. }
        | VInst::ConstVec { dst, .. }
        | VInst::Splat { dst, .. }
        | VInst::Permute { dst, .. }
        | VInst::Op { dst, .. }
        | VInst::CarriedLoad { dst, .. }
        | VInst::Reload { dst, .. } => Some(*dst),
        VInst::Scalar { .. }
        | VInst::Store { .. }
        | VInst::UnpackScalars { .. }
        | VInst::Spill { .. } => None,
    }
}

/// The virtual registers an instruction reads.
pub(crate) fn uses_of(inst: &VInst) -> Vec<VReg> {
    match inst {
        VInst::Permute { src, .. }
        | VInst::Store { src, .. }
        | VInst::UnpackScalars { src, .. }
        | VInst::Spill { src, .. } => vec![*src],
        VInst::CarriedLoad { carried_from, .. } => vec![*carried_from],
        VInst::Op { srcs, .. } => srcs.clone(),
        VInst::Scalar { .. }
        | VInst::Load { .. }
        | VInst::PackScalars { .. }
        | VInst::ConstVec { .. }
        | VInst::Splat { .. }
        | VInst::Reload { .. } => Vec::new(),
    }
}

/// Live interval of one virtual register: `[def, last_use]` instruction
/// indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    def: usize,
    last_use: usize,
}

fn live_intervals(insts: &[VInst]) -> Vec<Option<Interval>> {
    let max_reg = insts
        .iter()
        .flat_map(|i| def_of(i).into_iter().chain(uses_of(i)))
        .map(|r| r.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut intervals: Vec<Option<Interval>> = vec![None; max_reg];
    for (idx, inst) in insts.iter().enumerate() {
        if let Some(d) = def_of(inst) {
            let e = intervals[d.0 as usize].get_or_insert(Interval {
                def: idx,
                last_use: idx,
            });
            e.def = e.def.min(idx);
        }
        for u in uses_of(inst) {
            if let Some(e) = intervals[u.0 as usize].as_mut() {
                e.last_use = e.last_use.max(idx);
            }
        }
    }
    intervals
}

/// Linear-scan allocation of the block's virtual registers onto
/// `num_regs` physical registers, spilling furthest-ending ranges first.
pub(crate) fn allocate(insts: &[VInst], num_regs: usize) -> Allocation {
    let intervals = live_intervals(insts);
    let n = intervals.len();
    let mut assignments: Vec<Option<u32>> = vec![None; n];
    let mut spilled = vec![false; n];
    // Active set: (end, vreg, phys).
    let mut active: Vec<(usize, usize, u32)> = Vec::new();
    let mut free: Vec<u32> = (0..num_regs as u32).rev().collect();

    let mut order: Vec<usize> = (0..n).filter(|&r| intervals[r].is_some()).collect();
    order.sort_by_key(|&r| intervals[r].expect("filtered").def);

    for r in order {
        let iv = intervals[r].expect("filtered");
        // Expire finished intervals. A range ending exactly at this def's
        // instruction may be recycled: its last use happens in the same
        // instruction that writes the new value (dst == src is fine).
        active.retain(|&(end, _, phys)| {
            if end <= iv.def {
                free.push(phys);
                false
            } else {
                true
            }
        });
        if let Some(phys) = free.pop() {
            assignments[r] = Some(phys);
            active.push((iv.last_use, r, phys));
        } else {
            // Spill the active interval that ends last (or this one).
            let worst = active
                .iter()
                .enumerate()
                .max_by_key(|(_, &(end, _, _))| end)
                .map(|(i, &entry)| (i, entry));
            match worst {
                Some((slot, (end, victim, phys))) if end > iv.last_use => {
                    spilled[victim] = true;
                    assignments[victim] = None;
                    assignments[r] = Some(phys);
                    active[slot] = (iv.last_use, r, phys);
                }
                _ => {
                    spilled[r] = true;
                }
            }
        }
    }

    let mut alloc = Allocation {
        assignments,
        spilled,
        spill_stores: 0,
        spill_reloads: 0,
    };
    for (idx, inst) in insts.iter().enumerate() {
        let _ = idx;
        if let Some(d) = def_of(inst) {
            if alloc.is_spilled(d) {
                alloc.spill_stores += 1;
            }
        }
        for u in uses_of(inst) {
            if alloc.is_spilled(u) {
                alloc.spill_reloads += 1;
            }
        }
    }
    alloc
}

/// Rewrites `insts` with explicit [`VInst::Spill`] / [`VInst::Reload`]
/// instructions for every spilled range. Returns the new sequence and the
/// extra metrics the spill traffic adds per execution.
pub(crate) fn insert_spill_code(
    insts: Vec<VInst>,
    alloc: &Allocation,
    cost: &slp_core::CostParams,
) -> (Vec<VInst>, InstMetrics) {
    if alloc.spill_count() == 0 {
        return (insts, InstMetrics::default());
    }
    let mut out = Vec::with_capacity(insts.len() + alloc.spill_count());
    let mut extra = InstMetrics::default();
    for inst in insts {
        for u in uses_of(&inst) {
            if alloc.is_spilled(u) {
                let reload = VInst::Reload { dst: u };
                extra.add(&reload.metrics(cost));
                out.push(reload);
            }
        }
        let def = def_of(&inst);
        out.push(inst);
        if let Some(d) = def {
            if alloc.is_spilled(d) {
                let spill = VInst::Spill { src: d };
                extra.add(&spill.metrics(cost));
                out.push(spill);
            }
        }
    }
    (out, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::CostParams;
    use slp_ir::{BinOp, ExprShape};

    fn op(dst: u32, a: u32, b: u32) -> VInst {
        VInst::Op {
            dst: VReg(dst),
            shape: ExprShape::Binary(BinOp::Add),
            srcs: vec![VReg(a), VReg(b)],
        }
    }

    fn splat(dst: u32) -> VInst {
        VInst::Splat {
            dst: VReg(dst),
            src: crate::code::SplatSrc::Const(1.0),
            width: 2,
        }
    }

    #[test]
    fn no_spills_when_pressure_fits() {
        let insts = vec![splat(0), splat(1), op(2, 0, 1)];
        let alloc = allocate(&insts, 4);
        assert_eq!(alloc.spill_count(), 0);
        // The simultaneously-live v0 and v1 get distinct registers; v2
        // (defined as they die) may recycle one of them.
        let p0 = alloc.physical(VReg(0)).expect("assigned");
        let p1 = alloc.physical(VReg(1)).expect("assigned");
        assert_ne!(p0, p1);
        assert!(alloc.physical(VReg(2)).is_some());
    }

    #[test]
    fn registers_are_recycled_after_last_use() {
        // v0 dies at inst 2; v3 can reuse its register with only 2 regs.
        let insts = vec![splat(0), splat(1), op(2, 0, 1), splat(3), op(4, 2, 3)];
        let alloc = allocate(&insts, 3);
        assert_eq!(alloc.spill_count(), 0);
    }

    #[test]
    fn excess_pressure_spills_furthest_range() {
        // Three simultaneously-live values on a 2-register machine: the
        // one with the furthest use is spilled.
        let insts = vec![
            splat(0),
            splat(1),
            splat(2),
            op(3, 1, 2),
            op(4, 3, 0), // v0 lives longest
        ];
        let alloc = allocate(&insts, 2);
        assert!(alloc.is_spilled(VReg(0)), "{alloc:?}");
        assert_eq!(alloc.spill_stores, 1);
        assert_eq!(alloc.spill_reloads, 1);
    }

    #[test]
    fn spill_code_brackets_defs_and_uses() {
        let insts = vec![splat(0), splat(1), splat(2), op(3, 1, 2), op(4, 3, 0)];
        let alloc = allocate(&insts, 2);
        let (with_spills, extra) = insert_spill_code(insts, &alloc, &CostParams::intel());
        let spills = with_spills
            .iter()
            .filter(|i| matches!(i, VInst::Spill { .. }))
            .count();
        let reloads = with_spills
            .iter()
            .filter(|i| matches!(i, VInst::Reload { .. }))
            .count();
        assert_eq!(spills, 1);
        assert_eq!(reloads, 1);
        assert!(extra.memory_ops == 2);
        assert!(extra.cycles > 0.0);
        // The reload precedes the use of v0.
        let reload_at = with_spills
            .iter()
            .position(|i| matches!(i, VInst::Reload { .. }))
            .expect("reload");
        let use_at = with_spills
            .iter()
            .position(|i| matches!(i, VInst::Op { dst: VReg(4), .. }))
            .expect("op");
        assert!(reload_at < use_at);
    }

    #[test]
    fn empty_blocks_allocate_trivially() {
        let alloc = allocate(&[], 16);
        assert_eq!(alloc.spill_count(), 0);
    }
}
