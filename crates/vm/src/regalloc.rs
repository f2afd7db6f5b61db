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

use crate::code::{VInst, VReg};

/// The result of allocating one block's virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Allocation {
    /// Whether each virtual register (dense by `VReg` index) was spilled.
    spilled: Vec<bool>,
}

impl Allocation {
    /// Whether `r` was spilled.
    pub(crate) fn is_spilled(&self, r: VReg) -> bool {
        self.spilled.get(r.0 as usize).copied().unwrap_or(false)
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
    let mut spilled = vec![false; n];
    // The ranges holding a register, as (end, vreg), and the registers
    // nothing holds.
    let mut active: Vec<(usize, usize)> = Vec::new();
    let mut free = num_regs;

    let mut order: Vec<usize> = (0..n).filter(|&r| intervals[r].is_some()).collect();
    order.sort_by_key(|&r| intervals[r].expect("filtered").def);

    for r in order {
        let iv = intervals[r].expect("filtered");
        // Expire finished intervals. A range ending exactly at this def's
        // instruction may be recycled: its last use happens in the same
        // instruction that writes the new value (dst == src is fine).
        let held = active.len();
        active.retain(|&(end, _)| end > iv.def);
        free += held - active.len();
        if free > 0 {
            free -= 1;
            active.push((iv.last_use, r));
        } else {
            // Spill the active interval that ends last (or this one); its
            // register passes to `r`.
            match active.iter_mut().max_by_key(|(end, _)| *end) {
                Some(worst) if worst.0 > iv.last_use => {
                    spilled[worst.1] = true;
                    *worst = (iv.last_use, r);
                }
                _ => spilled[r] = true,
            }
        }
    }

    Allocation { spilled }
}

/// Rewrites `insts` with explicit [`VInst::Spill`] / [`VInst::Reload`]
/// instructions for every spilled range.
pub(crate) fn insert_spill_code(insts: Vec<VInst>, alloc: &Allocation) -> Vec<VInst> {
    if !alloc.spilled.contains(&true) {
        return insts;
    }
    let mut out = Vec::with_capacity(insts.len());
    for inst in insts {
        for u in uses_of(&inst) {
            if alloc.is_spilled(u) {
                out.push(VInst::Reload { dst: u });
            }
        }
        let def = def_of(&inst);
        out.push(inst);
        if let Some(d) = def {
            if alloc.is_spilled(d) {
                out.push(VInst::Spill { src: d });
            }
        }
    }
    out
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
        assert!(!allocate(&insts, 4).spilled.contains(&true));
        // v2 is defined as v0 and v1 die and recycles one of theirs.
        assert!(!allocate(&insts, 2).spilled.contains(&true));
        // The simultaneously-live v0 and v1 cannot share the one
        // register of a full file: one of them is spilled.
        let alloc = allocate(&insts, 1);
        assert_ne!(alloc.is_spilled(VReg(0)), alloc.is_spilled(VReg(1)));
    }

    #[test]
    fn registers_are_recycled_after_last_use() {
        // v0 dies at inst 2; v3 can reuse its register with only 2 regs.
        let insts = vec![splat(0), splat(1), op(2, 0, 1), splat(3), op(4, 2, 3)];
        assert!(!allocate(&insts, 3).spilled.contains(&true));
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
        assert_eq!(alloc.spilled, [true, false, false, false, false]);
    }

    #[test]
    fn spill_code_brackets_defs_and_uses() {
        let insts = vec![splat(0), splat(1), splat(2), op(3, 1, 2), op(4, 3, 0)];
        let alloc = allocate(&insts, 2);
        let with_spills = insert_spill_code(insts, &alloc);
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
        // Spill traffic is real traffic: each side is a memory operation
        // that costs cycles.
        for inst in &with_spills {
            if matches!(inst, VInst::Spill { .. } | VInst::Reload { .. }) {
                let metrics = inst.metrics(&CostParams::intel());
                assert_eq!(metrics.memory_ops, 1);
                assert!(metrics.cycles > 0.0);
            }
        }
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
        assert!(allocate(&[], 16).spilled.is_empty());
    }
}
