//! Vector code generation: block schedules → vector instructions.
//!
//! This is the post-processing backend of the framework (paper Figure 3).
//! *What* a schedule emits — pack reuse, permutes, access classes, lane
//! sinks — is decided by `slp-core`'s one emission walk
//! ([`emit_schedule`]), the same walk the §4.3 estimate sums; this module
//! is its second sink, which allocates virtual registers and pushes
//! [`VInst`]s. The passes that follow — loop-invariant hoisting, register
//! allocation and spill code — run on the instructions, and what they
//! change is exactly what the estimate cannot see. Finally the §4.3
//! cost-model gate compares the real static cycles of the vector code
//! against the scalar code and keeps the scalar version when
//! vectorization would not pay ("we skip the current basic block").

use slp_core::{
    emit_schedule, scalar_traffic, AccessClass, BlockIndex, BlockSchedule, CompiledKernel,
    CostContext, EmitSink, LaneSink, LayoutView, MachineConfig, ScalarPackClass,
};
use slp_ir::{ArrayRef, BlockInfo, ExprShape, Statement, VarId};

use crate::code::{InstMetrics, SplatSrc, VInst, VReg};

/// The generated code of one basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCode {
    /// Loop-invariant materializations, executed once per entry of the
    /// enclosing innermost loop (empty for scalar or top-level blocks).
    pub preheader: Vec<VInst>,
    /// Instructions, executed once per block entry (per loop iteration).
    pub insts: Vec<VInst>,
    /// Whether the block kept any vector instructions (false after the
    /// cost gate reverts to scalar).
    pub vectorized: bool,
    /// Static per-execution metrics of `insts` (the loop body only).
    pub static_metrics: InstMetrics,
    /// Static metrics of the preheader (amortized over the loop's trip
    /// count at run time).
    pub preheader_metrics: InstMetrics,
}

impl BlockCode {
    /// The block kept scalar: every statement with its real memory
    /// traffic, in block order.
    fn scalar(block: &slp_ir::BasicBlock, cx: &CostContext<'_>) -> BlockCode {
        let mut sink = VInstSink::default();
        for stmt in block {
            let (loads, stores) = scalar_traffic(stmt, cx.exposed);
            sink.scalar_stmt(stmt, loads, stores);
        }
        BlockCode {
            preheader: Vec::new(),
            static_metrics: total_metrics(&sink.insts, cx),
            insts: sink.insts,
            vectorized: false,
            preheader_metrics: InstMetrics::default(),
        }
    }
}

fn total_metrics(insts: &[VInst], cx: &CostContext<'_>) -> InstMetrics {
    let mut m = InstMetrics::default();
    for i in insts {
        m.add(&i.metrics(cx.cost));
    }
    m
}

/// Lowers one scheduled block to vector code, applying the cost gate when
/// `cost_gate` is set.
pub(crate) fn lower_block(
    ix: &BlockIndex<'_>,
    schedule: &BlockSchedule,
    cx: &CostContext<'_>,
    cost_gate: bool,
) -> BlockCode {
    let scalar = BlockCode::scalar(ix.block(), cx);
    if !schedule.is_vectorized() {
        return scalar;
    }
    let mut sink = VInstSink::default();
    emit_schedule(ix, schedule, cx, &mut sink);
    // Post-processing (paper Figure 3): hoist loop-invariant pack
    // materializations to a preheader, then allocate registers over the
    // combined sequence so hoisted values keep their registers across
    // the body. Spill code lands in whichever segment triggers it, and
    // the cost gate judges the real (amortized) price.
    let innermost = cx.loops.last();
    let (pre_raw, body_raw) =
        crate::hoist::hoist_invariant_packs(sink.insts, cx.program, innermost);
    let combined: Vec<VInst> = pre_raw
        .iter()
        .cloned()
        .chain(body_raw.iter().cloned())
        .collect();
    let alloc = crate::regalloc::allocate(&combined, cx.vector_regs);
    let preheader = crate::regalloc::insert_spill_code(pre_raw, &alloc);
    let insts = crate::regalloc::insert_spill_code(body_raw, &alloc);

    let static_metrics = total_metrics(&insts, cx);
    let preheader_metrics = total_metrics(&preheader, cx);
    // Amortize the preheader over the innermost loop's trip count.
    let trips = innermost.map(|h| h.trip_count().max(1)).unwrap_or(1) as f64;
    let vector_cycles = static_metrics.cycles + preheader_metrics.cycles / trips;
    if cost_gate && vector_cycles >= scalar.static_metrics.cycles {
        return scalar;
    }
    BlockCode {
        preheader,
        insts,
        vectorized: true,
        static_metrics,
        preheader_metrics,
    }
}

/// Lowers every scheduled block of a compiled kernel, keyed by block id.
pub fn lower_kernel(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    cost_gate: bool,
) -> Vec<(slp_ir::BlockId, BlockCode)> {
    let permuted_reuse = kernel.config.strategy.permuted_reuse();
    let infos = kernel.program.blocks();
    lower_kernel_with(kernel, &infos, machine, cost_gate, permuted_reuse)
}

/// [`lower_kernel`] over the kernel's blocks `infos` as already extracted,
/// with an explicit permuted-reuse setting (ablation support: measure what
/// indirect reuse alone is worth).
pub fn lower_kernel_with(
    kernel: &CompiledKernel,
    infos: &[BlockInfo],
    machine: &MachineConfig,
    cost_gate: bool,
    permuted_reuse: bool,
) -> Vec<(slp_ir::BlockId, BlockCode)> {
    let exposed = kernel.program.upward_exposed_scalars();
    infos
        .iter()
        .map(|info| {
            let cx = CostContext {
                program: &kernel.program,
                loops: &info.loops,
                exposed: &exposed,
                cost: &machine.cost,
                vector_regs: machine.vector_regs,
                layout: LayoutView::Placed(&kernel.scalar_layout),
                permuted_reuse,
            };
            let code = match kernel.schedule_of(info.id) {
                Some(sched) => {
                    let lanes = |ty| machine.lanes_for(ty);
                    let ix = BlockIndex::new(&info.block, &kernel.program, lanes);
                    lower_block(&ix, sched, &cx, cost_gate)
                }
                None => BlockCode::scalar(&info.block, &cx),
            };
            (info.id, code)
        })
        .collect()
}

/// The code generator's sink of the emission walk: a fresh virtual
/// register per definition, one [`VInst`] per emission.
#[derive(Default)]
struct VInstSink {
    insts: Vec<VInst>,
    next_reg: u32,
}

impl VInstSink {
    /// Pushes the instruction `inst` builds around a fresh register.
    fn define(&mut self, inst: impl FnOnce(VReg) -> VInst) -> VReg {
        let dst = VReg(self.next_reg);
        self.next_reg += 1;
        self.insts.push(inst(dst));
        dst
    }
}

fn owned(refs: &[&ArrayRef]) -> Vec<ArrayRef> {
    refs.iter().map(|&r| r.clone()).collect()
}

impl EmitSink for VInstSink {
    type Reg = VReg;

    fn scalar_stmt(&mut self, stmt: &Statement, mem_loads: u32, mem_stores: u32) {
        self.insts.push(VInst::Scalar {
            stmt: stmt.clone(),
            mem_loads,
            mem_stores,
        });
    }

    fn const_splat(&mut self, value: f64, width: usize) -> VReg {
        let src = SplatSrc::Const(value);
        self.define(|dst| VInst::Splat { dst, src, width })
    }

    fn const_vector(&mut self, values: impl ExactSizeIterator<Item = f64>) -> VReg {
        let values = values.collect();
        self.define(|dst| VInst::ConstVec { dst, values })
    }

    fn scalar_splat(&mut self, var: VarId, from_memory: bool, width: usize) -> VReg {
        let src = SplatSrc::Scalar { var, from_memory };
        self.define(|dst| VInst::Splat { dst, src, width })
    }

    fn array_load(&mut self, refs: &[&ArrayRef], class: AccessClass) -> VReg {
        let refs = owned(refs);
        self.define(|dst| VInst::Load { dst, refs, class })
    }

    fn scalar_pack(&mut self, vars: &[VarId], lane_mem: &[bool], class: ScalarPackClass) -> VReg {
        let (vars, lane_mem) = (vars.to_vec(), lane_mem.to_vec());
        self.define(|dst| VInst::PackScalars {
            dst,
            vars,
            lane_mem,
            class,
        })
    }

    fn permute(&mut self, src: VReg, from: &[u32], to: &[u32]) -> VReg {
        let perm = permutation_from(from, to);
        self.define(|dst| VInst::Permute { dst, src, perm })
    }

    fn op(&mut self, shape: ExprShape, srcs: &[VReg]) -> VReg {
        let srcs = srcs.to_vec();
        self.define(|dst| VInst::Op { dst, shape, srcs })
    }

    fn array_store(&mut self, src: VReg, refs: &[&ArrayRef], class: AccessClass) {
        let refs = owned(refs);
        self.insts.push(VInst::Store { src, refs, class });
    }

    fn scalar_unpack(
        &mut self,
        src: VReg,
        vars: &[VarId],
        sinks: &[LaneSink],
        class: ScalarPackClass,
    ) {
        self.insts.push(VInst::UnpackScalars {
            src,
            vars: vars.to_vec(),
            sinks: sinks.to_vec(),
            class,
        });
    }
}

/// The permutation `perm` with `target[k] = src[perm[k]]`.
fn permutation_from(src: &[u32], target: &[u32]) -> Vec<usize> {
    let mut used = vec![false; src.len()];
    target
        .iter()
        .map(|t| {
            let j = (0..src.len())
                .find(|&j| !used[j] && src[j] == *t)
                .expect("the walk permutes a pack of the same keys");
            used[j] = true;
            j
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{compile, SlpConfig, Strategy};

    fn compile_one(src: &str, strategy: Strategy) -> (CompiledKernel, MachineConfig) {
        compile_unrolled(src, strategy, 1)
    }

    /// `unroll = 1` keeps handwritten statement counts exact; tests that
    /// rely on unrolling pass the factor explicitly.
    fn compile_unrolled(
        src: &str,
        strategy: Strategy,
        unroll: usize,
    ) -> (CompiledKernel, MachineConfig) {
        let machine = MachineConfig::intel_dunnington();
        let p = slp_lang::compile(src).unwrap();
        let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
        cfg.unroll = unroll;
        let k = compile(&p, &cfg);
        (k, machine)
    }

    const CONTIG: &str = "kernel k {
        array A: f64[64]; array B: f64[64]; scalar s: f64;
        for i in 0..32 { A[i] = B[i] * s; }
    }";

    #[test]
    fn contiguous_kernel_uses_vector_loads() {
        let (k, m) = compile_unrolled(CONTIG, Strategy::Holistic, 2);
        let codes = lower_kernel(&k, &m, true);
        let code = &codes[0].1;
        assert!(code.vectorized);
        let aligned_loads = code
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    VInst::Load {
                        class: AccessClass::Aligned,
                        ..
                    }
                )
            })
            .count();
        assert!(aligned_loads >= 1, "{:#?}", code.insts);
        // One splat for the uniform scalar s (exposed: never written) —
        // hoisted to the preheader since it is loop invariant.
        assert!(code.preheader.iter().any(|i| matches!(
            i,
            VInst::Splat {
                src: SplatSrc::Scalar {
                    from_memory: true,
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn direct_reuse_emits_no_second_load() {
        // Two superword statements both read <B[2i], B[2i+1]>.
        let src = "kernel k {
            array A: f64[64]; array B: f64[64]; array C: f64[64];
            for i in 0..16 {
                A[2*i] = B[2*i] * 2.0;
                A[2*i+1] = B[2*i+1] * 2.0;
                C[2*i] = B[2*i] + 1.0;
                C[2*i+1] = B[2*i+1] + 1.0;
            }
        }";
        let (k, m) = compile_one(src, Strategy::Holistic);
        let codes = lower_kernel(&k, &m, true);
        let code = &codes[0].1;
        let loads = code
            .insts
            .iter()
            .filter(|i| matches!(i, VInst::Load { .. }))
            .count();
        assert_eq!(
            loads, 1,
            "B pack must be loaded exactly once: {:#?}",
            code.insts
        );
    }

    #[test]
    fn permuted_reuse_emits_permute_not_load() {
        let src = "kernel k {
            array A: f64[64]; array B: f64[64]; array C: f64[64];
            for i in 0..16 {
                A[2*i] = B[2*i] * 2.0;
                A[2*i+1] = B[2*i+1] * 2.0;
                C[2*i] = B[2*i+1] + 1.0;
                C[2*i+1] = B[2*i] + 1.0;
            }
        }";
        let (k, m) = compile_one(src, Strategy::Holistic);
        let codes = lower_kernel(&k, &m, true);
        let code = &codes[0].1;
        let loads = code
            .insts
            .iter()
            .filter(|i| matches!(i, VInst::Load { .. }))
            .count();
        let permutes = code
            .insts
            .iter()
            .filter(|i| matches!(i, VInst::Permute { .. }))
            .count();
        assert_eq!(loads, 1, "{:#?}", code.insts);
        assert_eq!(permutes, 1, "{:#?}", code.insts);
    }

    #[test]
    fn temp_dest_lanes_consumed_by_packs_are_free() {
        // t0/t1 are temps consumed only by the next superword: their
        // unpack must be all-Free.
        let src = "kernel k {
            array A: f64[64]; array B: f64[64];
            scalar t0, t1: f64;
            for i in 0..16 {
                t0 = B[2*i] * 2.0;
                t1 = B[2*i+1] * 2.0;
                A[2*i] = t0 + 1.0;
                A[2*i+1] = t1 + 1.0;
            }
        }";
        let (k, m) = compile_one(src, Strategy::Holistic);
        let codes = lower_kernel(&k, &m, false);
        let code = &codes[0].1;
        let unpack = code
            .insts
            .iter()
            .find_map(|i| match i {
                VInst::UnpackScalars { sinks, .. } => Some(sinks.clone()),
                _ => None,
            })
            .expect("scalar dest pack present");
        assert!(unpack.iter().all(|s| *s == LaneSink::Free), "{unpack:?}");
    }

    #[test]
    fn lanes_feeding_singles_cost_a_shuffle() {
        // t0 feeds a later single scalar statement: its lane is charged.
        let src = "kernel k {
            array A: f64[64]; array B: f64[64];
            scalar t0, t1, u: f64;
            for i in 0..16 {
                t0 = B[2*i] * 2.0;
                t1 = B[2*i+1] * 2.0;
                u = sqrt(t0);
                A[2*i] = u + 1.0;
                A[2*i+1] = t1 + 1.0;
            }
        }";
        let (k, m) = compile_one(src, Strategy::Holistic);
        let codes = lower_kernel(&k, &m, false);
        let code = &codes[0].1;
        let has_shuffle_sink = code.insts.iter().any(|i| match i {
            VInst::UnpackScalars { sinks, .. } => sinks.contains(&LaneSink::Shuffle),
            _ => false,
        });
        assert!(has_shuffle_sink, "{:#?}", code.insts);
    }

    #[test]
    fn exposed_dest_lanes_are_stored() {
        // Accumulators are upward-exposed: their lanes sink to memory.
        let src = "kernel k {
            array B: f64[64];
            scalar acc0, acc1: f64;
            for i in 0..16 {
                acc0 = acc0 + B[2*i];
                acc1 = acc1 + B[2*i+1];
            }
        }";
        let (k, m) = compile_one(src, Strategy::Holistic);
        let codes = lower_kernel(&k, &m, false);
        let code = &codes[0].1;
        let has_mem_sink = code.insts.iter().any(|i| match i {
            VInst::UnpackScalars { sinks, .. } => sinks.contains(&LaneSink::Memory),
            _ => false,
        });
        assert!(has_mem_sink, "{:#?}", code.insts);
    }

    #[test]
    fn cost_gate_reverts_unprofitable_blocks() {
        // Adjacent loads feeding exposed accumulators: the baseline
        // seeds the pair, but the exposed scalar pack's loads and
        // memory sinks outweigh the vector op saving, so the gate keeps
        // the scalar block. (The holistic strategy self-gates during
        // proposal arbitration, so the VM gate is exercised through the
        // baseline.)
        let src = "kernel k {
            array A: f64[256]; scalar a, b: f64;
            for i in 0..16 { a = a + A[8*i]; b = b + A[8*i+1]; }
        }";
        let (k, m) = compile_one(src, Strategy::Baseline);
        let codes = lower_kernel(&k, &m, true);
        let gated = &codes[0].1;
        assert!(!gated.vectorized, "{:#?}", gated.insts);
        assert!(gated
            .insts
            .iter()
            .all(|i| matches!(i, VInst::Scalar { .. })));
        // Without the gate the vector code stays.
        let ungated = lower_kernel(&k, &m, false);
        assert!(ungated[0].1.vectorized);
    }

    #[test]
    fn scalar_strategy_lowers_to_scalar_instructions() {
        let (k, m) = compile_unrolled(CONTIG, Strategy::Scalar, 2);
        let codes = lower_kernel(&k, &m, true);
        assert!(codes
            .iter()
            .all(|(_, c)| c.insts.iter().all(|i| matches!(i, VInst::Scalar { .. }))));
    }

    #[test]
    fn scalar_temps_cost_no_memory() {
        let src = "kernel k {
            array A: f64[64];
            scalar t, u: f64;
            for i in 0..16 { t = A[i]; u = t * 2.0; A[i] = u; }
        }";
        let (k, m) = compile_one(src, Strategy::Scalar);
        let codes = lower_kernel(&k, &m, true);
        let code = &codes[0].1;
        // Memory ops: one load (A[i]) and one store (A[i]); the scalar
        // traffic through t and u is free.
        assert_eq!(code.static_metrics.memory_ops, 2, "{:#?}", code.insts);
    }

    #[test]
    fn permutation_helper_is_correct() {
        assert_eq!(permutation_from(&[0, 1, 2], &[2, 0, 1]), vec![2, 0, 1]);
        // Duplicate keys resolve consistently.
        assert_eq!(permutation_from(&[0, 0, 1], &[1, 0, 0]), vec![2, 0, 1]);
    }
}
