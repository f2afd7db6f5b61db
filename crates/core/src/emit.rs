//! The one emission walk: what the backend emits for a block schedule.
//!
//! "We employ a similar cost model used in \[16\] to estimate the potential
//! speed-ups brought by the transformed code, taking into account all the
//! important factors, e.g., the number of SIMD instructions, the number of
//! memory operations and the number of vector register
//! reshuffling/permutation instructions." (§4.3)
//!
//! [`emit_schedule`] walks a schedule once, tracking which ordered packs
//! are resident in vector registers, and tells an [`EmitSink`] what to
//! emit for each item:
//!
//! * nothing, when a needed pack is live in the right lane order (a
//!   *direct* superword reuse),
//! * one permute, when it is live in another order (an *indirect* reuse;
//!   the baselines neglect it, see [`Strategy::permuted_reuse`]),
//! * otherwise a splat, a constant vector, one aligned or unaligned
//!   vector load, a per-lane gather, or a scalar pack,
//!
//! then the SIMD op and the destination write-back, whose scalar lanes are
//! charged only for what they feed. Every such decision is made here and
//! nowhere else. The §4.3 estimate is this walk into a sink that adds
//! cycles ([`estimate_schedule_cost`]; "if we realize that our
//! transformation could potentially degrade the performance, we choose not
//! to apply it"); the generated code is this walk into `slp-vm`'s sink
//! that pushes instructions. Each emission's price is written once, in
//! [`CostParams`], for both sinks' crates.
//!
//! [`Strategy::permuted_reuse`]: crate::Strategy::permuted_reuse

use slp_ir::{
    pack_is_aligned_in, pack_is_contiguous, ArrayRef, BasicBlock, ExprShape, LoopHeader, Program,
    Statement, TypeEnv, VarId,
};

use crate::index::locs_of;
use crate::layout::scalar::ScalarLayout;
use crate::live::LivePacks;
use crate::machine::CostParams;
use crate::superword::{BlockSchedule, ScheduledItem};
use crate::{BlockIndex, Loc, PackPos};

/// The memory-access class of an array pack movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// One aligned vector memory operation.
    Aligned,
    /// One unaligned contiguous vector memory operation.
    Unaligned,
    /// Per-lane scalar memory operations plus register insert/extract.
    Gather,
}

/// How a scalar pack moves between its scalar homes and a vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarPackClass {
    /// All lanes are memory-resident and the §5.1 layout made them
    /// contiguous and aligned: one vector memory operation.
    VectorMem,
    /// Per lane: a register shuffle, plus a memory operation for
    /// memory-resident (upward-exposed) lanes.
    PerLane,
}

/// The write-back obligation of one destination lane of a superword
/// statement with scalar destinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneSink {
    /// The lane is only consumed by later superwords through register
    /// reuse, or not at all: free.
    Free,
    /// The lane feeds a later scalar statement: one extract shuffle moves
    /// it to its scalar register.
    Shuffle,
    /// The lane is upward-exposed (memory-resident): extract plus a
    /// scalar store.
    Memory,
}

/// What the walk knows of the §5 data layout stage.
#[derive(Debug, Clone, Copy)]
pub enum LayoutView<'a> {
    /// No layout: scalar packs move lane by lane, gathers stay gathers.
    /// Also how [`estimate_kernel_cost`](crate::estimate_kernel_cost)
    /// prices a finished kernel.
    None,
    /// The stage will run afterwards. An all-exposed scalar *source* pack
    /// counts as placed contiguously by §5.1 and a read-only strided
    /// array pack as already replicated by §5.2, so the proposal
    /// arbitration does not shy away from the gather-heavy, reuse-rich
    /// groupings the stage is designed to fix. Destination packs get no
    /// such optimism.
    Assumed,
    /// The stage ran: the §5.1 placement decides, and §5.2 has already
    /// rewritten the array references it replicated.
    Placed(&'a ScalarLayout),
}

/// What the emission walk needs to know of one basic block's surroundings.
#[derive(Debug, Clone, Copy)]
pub struct CostContext<'a> {
    /// The program the block belongs to.
    pub program: &'a Program,
    /// The block's enclosing loop nest (for step-aware alignment).
    pub loops: &'a [LoopHeader],
    /// Upward-exposed (memory-resident) scalars.
    pub exposed: &'a [bool],
    /// The machine's cycle costs.
    pub cost: &'a CostParams,
    /// Vector register file size (pack-reuse window).
    pub vector_regs: usize,
    /// The §5 data layout, as far as it is known.
    pub layout: LayoutView<'a>,
    /// Whether a live pack in another lane order is reused through a
    /// permute ([`Strategy::permuted_reuse`](crate::Strategy::permuted_reuse)).
    pub permuted_reuse: bool,
}

/// Receives one call per emission of [`emit_schedule`]. `Reg` names the
/// vector register an emission defines.
pub trait EmitSink {
    /// A vector register.
    type Reg: Copy;
    /// `stmt` executed scalar, with its real memory traffic.
    fn scalar_stmt(&mut self, stmt: &Statement, mem_loads: u32, mem_stores: u32);
    /// One constant broadcast into `width` lanes.
    fn const_splat(&mut self, value: f64, width: usize) -> Self::Reg;
    /// A per-lane constant vector (one constant-pool load).
    fn const_vector(&mut self, values: impl ExactSizeIterator<Item = f64>) -> Self::Reg;
    /// Scalar `var` broadcast into `width` lanes, loaded first when
    /// `from_memory`.
    fn scalar_splat(&mut self, var: VarId, from_memory: bool, width: usize) -> Self::Reg;
    /// The array pack `refs` loaded.
    fn array_load(&mut self, refs: &[&ArrayRef], class: AccessClass) -> Self::Reg;
    /// The scalar pack `vars` assembled; `lane_mem` flags memory-resident
    /// lanes.
    fn scalar_pack(
        &mut self,
        vars: &[VarId],
        lane_mem: &[bool],
        class: ScalarPackClass,
    ) -> Self::Reg;
    /// The live pack `from` in `src`, rearranged into lane order `to`
    /// (both as [`BlockIndex`] keys, one a permutation of the other).
    fn permute(&mut self, src: Self::Reg, from: &[u32], to: &[u32]) -> Self::Reg;
    /// The SIMD operation over `srcs`, in operand order.
    fn op(&mut self, shape: ExprShape, srcs: &[Self::Reg]) -> Self::Reg;
    /// `src` stored to the array pack `refs`.
    fn array_store(&mut self, src: Self::Reg, refs: &[&ArrayRef], class: AccessClass);
    /// The lanes of `src` distributed to the scalars `vars`.
    fn scalar_unpack(
        &mut self,
        src: Self::Reg,
        vars: &[VarId],
        sinks: &[LaneSink],
        class: ScalarPackClass,
    );
}

/// Where the lanes of one pack live.
enum Homes {
    Arrays,
    Scalars,
}

/// Invariant: a superword packs isomorphic statements, so the lanes of a
/// pack are all array elements, all scalars or all constants — and a
/// destination is never a constant.
fn mixed_lanes() -> ! {
    unreachable!("superword lanes are isomorphic")
}

/// The memory loads and stores of a statement executed scalar, from what
/// it names (destination first): array accesses always, scalar accesses
/// only when upward-exposed (register-resident temporaries are free).
fn traffic<'b>(mut locs: impl Iterator<Item = Loc<'b>>, exposed: &[bool]) -> (u32, u32) {
    let in_memory = |loc| match loc {
        Loc::Array(_) => true,
        Loc::Scalar(v) => exposed[v.index()],
        Loc::Const(_) => false,
    };
    let stores = u32::from(locs.next().is_some_and(in_memory));
    (locs.filter(|&loc| in_memory(loc)).count() as u32, stores)
}

/// The memory loads and stores `stmt` performs when executed scalar.
pub fn scalar_traffic(stmt: &Statement, exposed: &[bool]) -> (u32, u32) {
    traffic(locs_of(stmt), exposed)
}

/// The walk's state.
struct Walk<'a, 'b, S: EmitSink> {
    ix: &'a BlockIndex<'b>,
    cx: &'a CostContext<'a>,
    sink: &'a mut S,
    live: LivePacks<S::Reg>,
    /// Scratch, reused across superwords: the pack in hand as keys and as
    /// the array elements or scalars they name, the source registers, and
    /// the per-lane classes.
    keys: Vec<u32>,
    refs: Vec<&'b ArrayRef>,
    vars: Vec<VarId>,
    srcs: Vec<S::Reg>,
    lane_mem: Vec<bool>,
    sinks: Vec<LaneSink>,
}

/// Walks `schedule` for the block indexed by `ix`, emitting into `sink`.
pub fn emit_schedule<S: EmitSink>(
    ix: &BlockIndex<'_>,
    schedule: &BlockSchedule,
    cx: &CostContext<'_>,
    sink: &mut S,
) {
    let mut walk = Walk {
        ix,
        cx,
        sink,
        live: LivePacks::new(cx.vector_regs),
        keys: Vec::new(),
        refs: Vec::new(),
        vars: Vec::new(),
        srcs: Vec::new(),
        lane_mem: Vec::new(),
        sinks: Vec::new(),
    };
    let items = schedule.items();
    let mut lanes = Vec::new();
    for (idx, item) in items.iter().enumerate() {
        match item {
            ScheduledItem::Single(id) => {
                let p = ix.position(*id);
                let locs = ix.keys_at(p).iter().map(|&k| ix.loc(k));
                let (loads, stores) = traffic(locs, cx.exposed);
                walk.sink.scalar_stmt(ix.stmt_at(p), loads, stores);
                walk.live.invalidate(ix, ix.key(p, PackPos::Dest));
            }
            ScheduledItem::Superword(sw) => {
                lanes.clear();
                lanes.extend(sw.lanes().iter().map(|&id| ix.position(id)));
                walk.superword(&lanes, &items[idx + 1..]);
            }
        }
    }
}

impl<S: EmitSink> Walk<'_, '_, S> {
    /// Takes the pack at `slot` of the statements at `lanes` in hand:
    /// `keys`, and `refs` or `vars` when the lanes have homes.
    fn take(&mut self, lanes: &[usize], slot: PackPos) -> Option<Homes> {
        let ix = self.ix;
        self.keys.clear();
        self.keys.extend(ix.keys(lanes, slot));
        self.refs.clear();
        self.vars.clear();
        for &key in &self.keys {
            match ix.loc(key) {
                Loc::Array(r) => self.refs.push(r),
                Loc::Scalar(v) => self.vars.push(v),
                Loc::Const(_) => {}
            }
        }
        match (self.refs.len(), self.vars.len()) {
            (0, 0) => None,
            (lanes, 0) if lanes == self.keys.len() => Some(Homes::Arrays),
            (0, lanes) if lanes == self.keys.len() => Some(Homes::Scalars),
            _ => mixed_lanes(),
        }
    }

    /// The superword statement over the block positions `lanes`; `rest`
    /// is what the schedule runs afterwards.
    fn superword(&mut self, lanes: &[usize], rest: &[ScheduledItem]) {
        let (ix, cx) = (self.ix, self.cx);
        let expr = ix.stmt_at(lanes[0]).expr();
        self.srcs.clear();
        for k in 0..expr.operands().len() {
            let src = self.source_pack(lanes, PackPos::Operand(k));
            self.srcs.push(src);
        }
        let dst = self.sink.op(expr.shape(), &self.srcs);
        match self.take(lanes, PackPos::Dest) {
            Some(Homes::Arrays) => {
                let class = array_class(&self.refs, cx, false);
                self.sink.array_store(dst, &self.refs, class);
            }
            Some(Homes::Scalars) => {
                self.sinks.clear();
                self.sinks
                    .extend(self.vars.iter().zip(&self.keys).map(|(v, &key)| {
                        if cx.exposed[v.index()] {
                            LaneSink::Memory
                        } else if feeds_later_single(key, ix, rest) {
                            LaneSink::Shuffle
                        } else {
                            LaneSink::Free
                        }
                    }));
                let all_mem = self.sinks.iter().all(|s| *s == LaneSink::Memory);
                let class = scalar_class(&self.vars, cx, all_mem, false);
                self.sink.scalar_unpack(dst, &self.vars, &self.sinks, class);
            }
            None => mixed_lanes(),
        }
        self.live.define(ix, lanes, dst);
    }

    /// A register holding the pack at `slot` of the statements at `lanes`,
    /// in lane order, emitting whatever reuse, permutation or packing it
    /// takes.
    fn source_pack(&mut self, lanes: &[usize], slot: PackPos) -> S::Reg {
        let (ix, cx) = (self.ix, self.cx);
        // Constant packs never enter the live set. Uniformity is numeric
        // (`0.0 == -0.0`), not by key.
        let Some(homes) = self.take(lanes, slot) else {
            let value = |&k: &u32| match ix.loc(k) {
                Loc::Const(c) => f64::from_bits(c),
                _ => mixed_lanes(),
            };
            let (keys, first) = (&self.keys, value(&self.keys[0]));
            return if keys.iter().all(|k| value(k) == first) {
                self.sink.const_splat(first, keys.len())
            } else {
                self.sink.const_vector(keys.iter().map(value))
            };
        };
        // A direct reuse emits nothing, an indirect one a permute; the
        // rest is mandatory packing, from the lanes' homes.
        let (keys, refs, vars) = (&self.keys, &self.refs, &self.vars);
        let materialize = |from: Option<(&[u32], S::Reg)>| {
            if let Some((from, src)) = from {
                return self.sink.permute(src, from, keys);
            }
            match homes {
                Homes::Arrays => self.sink.array_load(refs, array_class(refs, cx, true)),
                Homes::Scalars if vars.iter().all(|&v| v == vars[0]) => {
                    let from_memory = cx.exposed[vars[0].index()];
                    self.sink.scalar_splat(vars[0], from_memory, vars.len())
                }
                Homes::Scalars => {
                    self.lane_mem.clear();
                    self.lane_mem
                        .extend(vars.iter().map(|v| cx.exposed[v.index()]));
                    let all_mem = self.lane_mem.iter().all(|&m| m);
                    let class = scalar_class(vars, cx, all_mem, true);
                    self.sink.scalar_pack(vars, &self.lane_mem, class)
                }
            }
        };
        self.live.source(keys, cx.permuted_reuse, materialize).0
    }
}

/// How the array pack `refs` moves: one vector access when contiguous, a
/// gather otherwise — unless the assumed layout stage will have replicated
/// a gathered *load* into an aligned one.
fn array_class(refs: &[&ArrayRef], cx: &CostContext<'_>, is_load: bool) -> AccessClass {
    if pack_is_contiguous(refs) {
        if pack_is_aligned_in(refs, cx.program, cx.loops) {
            AccessClass::Aligned
        } else {
            AccessClass::Unaligned
        }
    } else if is_load && matches!(cx.layout, LayoutView::Assumed) && replicable(refs, cx) {
        AccessClass::Aligned
    } else {
        AccessClass::Gather
    }
}

/// The §5.2 replication gate: profitable only for intra-array read-only
/// packs re-swept by an enclosing loop the subscripts do not use
/// (outer-loop reuse pays for the one-time copy).
fn replicable(refs: &[&ArrayRef], cx: &CostContext<'_>) -> bool {
    refs.iter().all(|r| r.array == refs[0].array)
        && cx.program.array_is_read_only(refs[0].array)
        && cx.loops.iter().any(|h| {
            refs.iter()
                .all(|r| r.access.dims().iter().all(|e| e.coeff(h.var) == 0))
        })
}

/// `VectorMem` when every lane of the scalar pack `vars` is
/// memory-resident (`all_mem`) and the layout has the pack contiguous and
/// aligned.
fn scalar_class(
    vars: &[VarId],
    cx: &CostContext<'_>,
    all_mem: bool,
    is_source: bool,
) -> ScalarPackClass {
    let vector = all_mem
        && match cx.layout {
            LayoutView::None => false,
            LayoutView::Assumed => is_source,
            LayoutView::Placed(layout) => {
                let elem = cx.program.scalar_type(vars[0]).size_bytes();
                layout.is_optimized() && layout.pack_is_contiguous_aligned(vars, elem)
            }
        };
    if vector {
        ScalarPackClass::VectorMem
    } else {
        ScalarPackClass::PerLane
    }
}

/// Whether the scalar that `key` names is read by a later `Single` item of
/// this block's schedule before being redefined (so its lane must be
/// extracted from the superword result).
fn feeds_later_single(key: u32, ix: &BlockIndex<'_>, rest: &[ScheduledItem]) -> bool {
    for item in rest {
        let ScheduledItem::Single(id) = item else {
            continue;
        };
        let (dest, operands) = (ix.keys_at(ix.position(*id)).split_first()).expect("a destination");
        if operands.contains(&key) {
            return true;
        }
        // A redefinition kills the lane before any further read.
        if *dest == key {
            return false;
        }
    }
    false
}

/// The sink of the §4.3 estimate: adds each emission's cycle price.
struct Cycles<'a> {
    cost: &'a CostParams,
    total: f64,
}

impl EmitSink for Cycles<'_> {
    type Reg = ();
    fn scalar_stmt(&mut self, stmt: &Statement, mem_loads: u32, mem_stores: u32) {
        self.total += self
            .cost
            .scalar_stmt(stmt.expr().shape(), mem_loads, mem_stores);
    }
    fn const_splat(&mut self, _: f64, _: usize) {
        self.total += self.cost.splat(false);
    }
    fn const_vector(&mut self, values: impl ExactSizeIterator<Item = f64>) {
        self.total += self.cost.array_load(AccessClass::Aligned, values.len());
    }
    fn scalar_splat(&mut self, _: VarId, from_memory: bool, _: usize) {
        self.total += self.cost.splat(from_memory);
    }
    fn array_load(&mut self, refs: &[&ArrayRef], class: AccessClass) {
        self.total += self.cost.array_load(class, refs.len());
    }
    fn scalar_pack(&mut self, _: &[VarId], lane_mem: &[bool], class: ScalarPackClass) {
        self.total += self.cost.scalar_pack(class, lane_mem);
    }
    fn permute(&mut self, (): (), _: &[u32], _: &[u32]) {
        self.total += self.cost.permute;
    }
    fn op(&mut self, shape: ExprShape, _: &[()]) {
        self.total += self.cost.vector_op(shape);
    }
    fn array_store(&mut self, (): (), refs: &[&ArrayRef], class: AccessClass) {
        self.total += self.cost.array_store(class, refs.len());
    }
    fn scalar_unpack(&mut self, (): (), _: &[VarId], sinks: &[LaneSink], class: ScalarPackClass) {
        self.total += self.cost.scalar_unpack(class, sinks);
    }
}

/// Estimated per-execution cycles of `schedule` for the block indexed by
/// `ix`: the emission walk into a sink that adds cycles.
pub fn estimate_schedule_cost(
    ix: &BlockIndex<'_>,
    schedule: &BlockSchedule,
    cx: &CostContext<'_>,
) -> f64 {
    let mut sink = Cycles {
        cost: cx.cost,
        total: 0.0,
    };
    emit_schedule(ix, schedule, cx, &mut sink);
    sink.total
}

/// Estimated per-execution cycles of the scalar (unvectorized) block.
pub fn estimate_scalar_cost(block: &BasicBlock, cx: &CostContext<'_>) -> f64 {
    block.iter().map(|s| scalar_stmt_cost(s, cx)).sum()
}

/// Estimated cycles of executing one statement as a scalar statement:
/// exposed-operand loads, the (possibly exposed) destination store, and
/// the shape-weighted ALU op. Public so the `slp-opt` branch-and-bound
/// solver can build admissible per-statement lower bounds from the same
/// tables the schedule estimator uses.
pub fn scalar_stmt_cost(stmt: &Statement, cx: &CostContext<'_>) -> f64 {
    let (loads, stores) = scalar_traffic(stmt, cx.exposed);
    cx.cost.scalar_stmt(stmt.expr().shape(), loads, stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_block;
    use crate::schedule::schedule_block;
    use slp_ir::BlockDeps;

    fn context<'a>(
        program: &'a Program,
        loops: &'a [LoopHeader],
        exposed: &'a [bool],
        cost: &'a CostParams,
    ) -> CostContext<'a> {
        CostContext {
            program,
            loops,
            exposed,
            cost,
            vector_regs: 16,
            layout: LayoutView::None,
            permuted_reuse: true,
        }
    }

    fn compile_block(src: &str) -> (Program, slp_ir::BlockInfo, BlockSchedule) {
        let p = slp_lang::compile(src).unwrap();
        let info = p.blocks().into_iter().next().unwrap();
        let deps = BlockDeps::analyze(&info.block);
        let ix = BlockIndex::new(&info.block, &p, |_| 2);
        let g = group_block(&ix, &deps);
        let sched = schedule_block(&ix, &deps, &g.units, 16);
        (p, info, sched)
    }

    #[test]
    fn vector_beats_scalar_on_contiguous_streams() {
        let (p, info, sched) = compile_block(
            "kernel k { array A: f64[64]; array B: f64[64];
             for i in 0..16 { A[2*i] = B[2*i] * 2.0; A[2*i+1] = B[2*i+1] * 2.0; } }",
        );
        let exposed = p.upward_exposed_scalars();
        let cost = CostParams::intel();
        let cx = context(&p, &info.loops, &exposed, &cost);
        let sc = estimate_scalar_cost(&info.block, &cx);
        let vc = estimate_schedule_cost(&BlockIndex::new(&info.block, &p, |_| 2), &sched, &cx);
        assert!(vc < sc, "vector {vc} vs scalar {sc}");
    }

    #[test]
    fn scalar_schedule_costs_equal_scalar_estimate() {
        let (p, info, _) = compile_block(
            "kernel k { array A: f64[64]; scalar t: f64;
             for i in 0..16 { t = A[2*i]; A[2*i+1] = t * 2.0; } }",
        );
        let exposed = p.upward_exposed_scalars();
        let cost = CostParams::intel();
        let cx = context(&p, &info.loops, &exposed, &cost);
        let scalar_sched = BlockSchedule::scalar(&info.block);
        assert_eq!(
            estimate_schedule_cost(&BlockIndex::new(&info.block, &p, |_| 2), &scalar_sched, &cx),
            estimate_scalar_cost(&info.block, &cx)
        );
    }

    #[test]
    fn reuse_makes_second_use_free() {
        // Two groups reading the same B pack: the estimator must charge
        // the load once.
        let (p, info, sched) = compile_block(
            "kernel k { array A: f64[64]; array B: f64[64]; array C: f64[64];
             for i in 0..16 {
                 A[2*i] = B[2*i] * 2.0;
                 A[2*i+1] = B[2*i+1] * 2.0;
                 C[2*i] = B[2*i] + 1.0;
                 C[2*i+1] = B[2*i+1] + 1.0;
             } }",
        );
        let exposed = p.upward_exposed_scalars();
        let cost = CostParams::intel();
        let cx = context(&p, &info.loops, &exposed, &cost);
        let vc = estimate_schedule_cost(&BlockIndex::new(&info.block, &p, |_| 2), &sched, &cx);
        // One B load + two aligned stores + two ops + splat-ish consts.
        // Well under the cost of loading B twice.
        assert!(vc < 2.0 * cost.vector_load + 2.0 * cost.vector_store + 8.0);
    }
}
