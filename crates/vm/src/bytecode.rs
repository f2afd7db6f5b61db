//! The fast-path execution engine: pre-resolved bytecode run directly on
//! the flat memory image.
//!
//! The reference interpreter in [`exec`](crate::exec) resolves every
//! register through a growable `Vec<Vec<f64>>`, every scalar through
//! `VarId` accessors, every array subscript through
//! [`AffineExpr::eval`](slp_ir::AffineExpr::eval)'s linear environment
//! search, and re-computes every instruction's [`InstMetrics`] on every
//! execution. That is the right shape for an oracle, and the wrong shape
//! for throughput.
//!
//! [`BytecodeKernel::compile`] lowers the [`BlockCode`] streams once into
//! a dense [`BOp`] pool, deciding at translation everything that does not
//! depend on the run:
//!
//! * virtual registers become disjoint slots of one flat `f64` arena
//!   (assigned per static definition, so the translator also proves every
//!   use has a reaching definition and rejects malformed code with a
//!   typed [`ExecError`] instead of panicking),
//! * the engine runs on [`MachineState`]'s own allocation — arrays back
//!   to back, scalars in a dense frame indexed by `VarId` position — which
//!   [`BytecodeKernel::run_from`] shape-checks, moves in, and moves back
//!   out as [`Outcome::state`],
//! * an [`ArrayRef`] whose bounds checks the memory-safety certificate
//!   discharged folds — array base, strides and all dimensions — into one
//!   linear form `offset + Σ coeff·loop_vals[depth]` ([`Addr::Linear`]),
//!   one multiply-add for the usual one-variable subscript; vector memory
//!   ops whose certified lanes are one unit-stride run resolve lane 0 and
//!   move the superword as one slice ([`Lanes::run`]). Every other access
//!   keeps per-dimension `constant + Σ coeff·loop_vals[depth]` terms and
//!   its `0 <= v < extent` walk ([`Addr::Checked`]),
//! * every instruction's [`InstMetrics`] is summed per op *range* (a
//!   block's preheader or body), its cycles as integer milli-cycles
//!   ([`Cost`]; a cost that is not a whole number of them is a
//!   `MalformedCode` error from both engines); the run counts executions
//!   of each range and loop iterations, and folds `runs × sum` and
//!   `iterations × loop overhead` into [`RunStats`](crate::RunStats) at
//!   the end, reporting `ticks / 1000`,
//! * a body that is the whole of an innermost loop runs in *strips* when
//!   reordering its iterations cannot be seen — all accesses certified,
//!   no two accesses to one array meeting in an order the strip reverses
//!   ([`Code::strip`]): each op over up to [`STRIP`] iterations before
//!   the next op, as one loop with its operator and element type fixed.
//!   A pair of accesses whose meeting the translator cannot decide
//!   (unequal coefficients) is a [`SOp::Guard`]: a strip in which the
//!   pair's cells overlap runs on the per-iteration loop instead. A
//!   scalar the body reads before it writes it (an accumulator) is a
//!   recurrence: its writes run as one in-order [`SOp::Scan`] inside the
//!   strip, the ops that read it after the scan and every other op
//!   before it. Invariant columns are filled once per loop entry, and a
//!   float scalar's op writes the scalar's column in place. Refused
//!   bodies keep the per-iteration loop, about ×1.65 faster for them
//!   than one-iteration strips (DESIGN.md "Strips").
//!
//! Execution semantics are *bit-identical* to the reference engine —
//! iteration counting, replication population, coercions, truncating
//! zips, per-block cycle attribution and error strings are all
//! preserved — which the differential gate
//! (`verify::differential` and the `engine_differential` test) checks
//! continuously.

use std::collections::HashMap;

use slp_core::{CompiledKernel, MachineConfig, Replication, SafetyCert};
use slp_ir::{
    mul_add, ArrayId, ArrayRef, BinOp, BlockId, BlockInfo, CmpOp, Dest, ExprShape, Item,
    LoopHeader, LoopVarId, Operand, Program, ScalarType, StmtId, TypeEnv, UnOp,
};

use crate::code::{Cost, InstMetrics, Prices, SplatSrc, Ticks, VInst, VReg};
use crate::codegen::{lower_kernel_with, BlockCode};
use crate::exec::{populate_replication, Charged, Outcome};
use crate::memory::MachineState;
use crate::ExecError;

/// A register slot: base index into the flat register arena. Widths are
/// carried by the consuming instruction (lane count, op width).
type RegBase = u32;

/// A `(start, end)` range into one of the side pools.
type Range = (u32, u32);

/// Iterations per strip: a column's length.
const STRIP: usize = 64;

/// One pre-resolved operand of a scalar statement.
#[derive(Debug, Clone, Copy)]
enum RArg {
    /// An immediate.
    Const(f64),
    /// A dense scalar-frame slot.
    Scalar(u32),
    /// An index into the access pool.
    Array(u32),
}

/// The pre-resolved destination of a scalar statement.
#[derive(Debug, Clone, Copy)]
enum RDest {
    /// A scalar-frame slot plus its declared type (for storage coercion).
    Scalar { slot: u32, ty: ScalarType },
    /// An index into the access pool.
    Array(u32),
}

/// One dimension of a checked access: `constant + Σ coeff·loop_vals[d]`
/// checked against `0 <= · < extent` and folded with `stride`.
#[derive(Debug, Clone, Copy)]
struct Dim {
    constant: i64,
    terms: Range,
    extent: i64,
    stride: i64,
}

/// How an access finds its cell.
#[derive(Debug, Clone, Copy)]
enum Addr {
    /// The kernel's memory-safety certificate proved the access in bounds
    /// for every iteration (and check elision was not disabled), so base,
    /// strides and dimensions fold into one linear form over the loop
    /// counters: `offset + coeff·loop_vals[depth] + Σ more`, merged per
    /// loop depth. Wrapping arithmetic throughout — the true value was
    /// proven in range, so the sum is exact mod 2⁶⁴.
    Linear {
        offset: i64,
        depth: u32,
        coeff: i64,
        /// Terms past the first (rank-2 subscripts under nested loops).
        more: Range,
    },
    /// The per-dimension walk: a subscript can be linearly in range and
    /// still out of bounds in one dimension. A rank mismatch
    /// (`!rank_ok`) is unconditionally out of bounds, as in
    /// `ArrayInfo::in_bounds`.
    Checked { dims: Range, rank_ok: bool },
}

/// A fully resolved array reference.
#[derive(Debug, Clone, Copy)]
struct Access {
    array: ArrayId,
    /// The array's first cell in the memory image.
    base: u32,
    /// The array's element type (store coercion).
    ty: ScalarType,
    addr: Addr,
}

/// The lanes of a vector memory op: `width` consecutive entries of the
/// access pool starting at `first`.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    first: u32,
    width: u32,
    /// Every lane is [`Addr::Linear`] on the same array with the same
    /// coefficients and offsets stepping by +1 in lane order: lane 0's
    /// address locates the whole superword, which moves as one slice.
    run: bool,
}

/// A scalar statement; `args` is the first of the shape's arity of
/// consecutive operands in the argument pool.
#[derive(Debug, Clone, Copy)]
struct Stmt {
    shape: ExprShape,
    args: u32,
    dest: RDest,
}

/// A vector load into, or store from, register `reg`.
#[derive(Debug, Clone, Copy)]
struct Mem {
    reg: RegBase,
    acc: Lanes,
}

/// An elementwise operation over `width` lanes.
#[derive(Debug, Clone, Copy)]
struct Alu {
    dst: RegBase,
    width: u32,
    shape: ExprShape,
    srcs: Range,
}

/// One dense, pre-resolved instruction. Costs are not charged per op:
/// they are summed per op range ([`Code::counts`]). Spills and reloads
/// only cost, so they have no op.
#[derive(Debug, Clone, Copy)]
enum BOp {
    Scalar(Stmt),
    Load(Mem),
    Store(Mem),
    Pack {
        dst: RegBase,
        vars: Range,
    },
    Unpack {
        src: RegBase,
        lanes: Range,
    },
    ConstVec {
        dst: RegBase,
        vals: Range,
    },
    /// A broadcast of operand `src` of the argument pool (a constant or a
    /// scalar) into `width` lanes.
    Splat {
        dst: RegBase,
        width: u32,
        src: u32,
    },
    Permute {
        dst: RegBase,
        src: RegBase,
        perm: Range,
    },
    Op(Alu),
}

/// Why a block does not run in strips ([`Code::strip`] has the rule).
/// `Recurrence` is a carried scalar the scan cannot run: one written
/// from a vector lane, or whose write reads what only the scan's
/// consumers compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Refusal {
    NotWholeLoop,
    Unchecked,
    Recurrence,
    Backward,
}

/// What fills an invariant column once per loop entry.
#[derive(Debug, Clone, Copy)]
enum Fill {
    Const(f64),
    Scalar(u32),
    Reg(u32),
}

/// One strip op over columns (arena indices of one slot per iteration;
/// lane `k` of register column `c` is `c + k·STRIP`): `Guard(pairs)`
/// sends the strip to the per-iteration loop when a pair of
/// [`Code::guards`] touches overlapping cells in it; `Mem(reg, lanes,
/// store)` moves lane `k` to or from strip access `lanes.0 + k`
/// ([`Code::saccs`]); `Move(dst, src, ty)` copies a column coerced to
/// `ty`; `Seed(cell, slot)` copies a scalar into one cell; `Scan(links)`
/// runs [`Code::links`] `links` iteration by iteration; `Fold(link)` is a
/// scan of one link that reads its own carried column, its running value
/// kept in a local; `Out(slot, col, ty)` writes the last iteration back
/// to a scalar.
#[derive(Debug, Clone, Copy)]
enum SOp {
    Guard(Range),
    Fill(u32, Fill),
    Mem(u32, Range, bool),
    Move(u32, u32, ScalarType),
    Op(Alu),
    Seed(u32, u32),
    Scan(Range),
    Fold(u32),
    Out(u32, u32, ScalarType),
}

/// One step of a scalar recurrence: `dst[t] = ty.coerce(shape(srcs[0][t],
/// …))`, sources past the shape's arity repeating the first.
#[derive(Debug, Clone, Copy)]
struct Link {
    shape: ExprShape,
    srcs: [u32; 4],
    dst: u32,
    ty: ScalarType,
}

/// The execution tree: op ranges and loops, mirroring the program's item
/// structure. A block's preheader is op range `2·slot` and its body
/// `2·slot + 1`, `slot` being the block's position in
/// [`Program::blocks`] order.
#[derive(Debug, Clone)]
enum Node {
    Block(u32),
    Loop {
        lower: i64,
        upper: i64,
        step: i64,
        /// Preheader ranges of blocks directly inside this loop, run
        /// once per loop entry.
        preheaders: Vec<u32>,
        body: Vec<Node>,
        /// The strip ops of a one-block body that may run in strips:
        /// the invariant fills, run once per loop entry, and the ops of
        /// each strip.
        strip: Result<(Range, Range), Refusal>,
    },
}

/// What translation produces: the execution tree, the op pool, and the
/// dense side pools the ops index into.
#[derive(Debug, Clone, Default)]
struct Code {
    roots: Vec<Node>,
    /// Deepest loop nesting of `roots`: the loop counters a run needs.
    loop_depth: usize,
    ops: Vec<BOp>,
    /// Where each op range lies in `ops`.
    ranges: Vec<Range>,
    /// Per op range, its instructions' metrics summed (only the integer
    /// counters are read) and their cost.
    counts: Vec<(InstMetrics, Cost)>,
    /// Per op range, the register slots its definitions took.
    defs: Vec<Range>,
    accesses: Vec<Access>,
    dims: Vec<Dim>,
    terms: Vec<(u32, i64)>,
    args: Vec<RArg>,
    var_slots: Vec<u32>,
    lanes: Vec<(u32, ScalarType)>,
    consts: Vec<f64>,
    perms: Vec<u32>,
    srcs: Vec<u32>,
    reg_len: u32,
    block_ids: Vec<BlockId>,
    prices: Prices,
    sops: Vec<SOp>,
    /// Strip accesses: an access and its step per iteration.
    saccs: Vec<(u32, i64)>,
    /// Pairs of strip accesses whose meeting is decided per strip.
    guards: Vec<(u32, u32)>,
    links: Vec<Link>,
    /// Columns of the widest strip, placed after the register arena.
    columns: u32,
}

/// A compiled kernel lowered to dense bytecode, reusable across runs.
///
/// Build one with [`BytecodeKernel::compile`] (or
/// [`BytecodeKernel::from_codes`] for pre-lowered streams) and execute it
/// any number of times with [`BytecodeKernel::run`] — translation cost is
/// paid once.
#[derive(Debug, Clone)]
pub struct BytecodeKernel {
    program: Program,
    replications: Vec<Replication>,
    vectorized_blocks: usize,
    code: Code,
}

impl BytecodeKernel {
    /// Lowers `kernel` for `machine` (running the regular
    /// [`lower_kernel`](crate::lower_kernel) code generator, §4.3 cost
    /// gate enabled) and translates the result to bytecode.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ExecError`] when the program is over the VM's
    /// memory budget
    /// ([`ExecErrorKind::ResourceLimit`](crate::ExecErrorKind)), or when
    /// the generated code is malformed: a use of a never-defined register
    /// ([`ExecErrorKind::UndefinedRegister`](crate::ExecErrorKind)),
    /// or structural inconsistencies such as lane-width mismatches and
    /// out-of-range permutation indices, or a cost that is not a whole
    /// number of milli-cycles
    /// ([`ExecErrorKind::MalformedCode`](crate::ExecErrorKind)).
    pub fn compile(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
    ) -> Result<BytecodeKernel, ExecError> {
        BytecodeKernel::lowered(kernel, machine, true)
    }

    /// Like [`BytecodeKernel::compile`], but keeps every per-dimension
    /// bounds check even for accesses the kernel's memory-safety
    /// certificate proved safe: the baseline `tests/safety_suite.rs` and
    /// the `engine_differential` test hold the certified lowering
    /// bit-identical to.
    pub fn compile_checked(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
    ) -> Result<BytecodeKernel, ExecError> {
        BytecodeKernel::lowered(kernel, machine, false)
    }

    /// Lowers and translates `kernel` over one extraction of its blocks.
    fn lowered(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        elide_checks: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        let infos = kernel.program.blocks();
        let permuted_reuse = kernel.config.strategy.permuted_reuse();
        let codes = lower_kernel_with(kernel, &infos, machine, true, permuted_reuse);
        BytecodeKernel::translate(kernel, machine, &infos, &codes, elide_checks)
    }

    /// `(unchecked, total)` array-access counts of this lowering: how
    /// many accesses the kernel's memory-safety certificate let run
    /// without their per-dimension bounds checks. Under
    /// [`BytecodeKernel::compile_checked`] the first count is always 0.
    pub fn unchecked_accesses(&self) -> (usize, usize) {
        let accesses = &self.code.accesses;
        let unchecked = accesses
            .iter()
            .filter(|a| matches!(a.addr, Addr::Linear { .. }))
            .count();
        (unchecked, accesses.len())
    }

    /// Translates pre-lowered `codes` (one per block of
    /// `kernel.program`, in [`Program::blocks`] order) to bytecode.
    ///
    /// # Errors
    ///
    /// See [`BytecodeKernel::compile`].
    pub fn from_codes(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        codes: &[(BlockId, BlockCode)],
    ) -> Result<BytecodeKernel, ExecError> {
        let infos = kernel.program.blocks();
        BytecodeKernel::translate(kernel, machine, &infos, codes, true)
    }

    /// [`BytecodeKernel::from_codes`] over the kernel's blocks `infos` as
    /// already extracted, with explicit control over whether
    /// certificate-proven accesses may drop their bounds checks. Every
    /// constructor comes through here, so this is where the memory
    /// budget and the costs are checked, before any memory is seeded.
    fn translate(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        infos: &[BlockInfo],
        codes: &[(BlockId, BlockCode)],
        elide_checks: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        let program = &kernel.program;
        crate::memory::check_memory_budget(program)?;
        let mut array_base = Vec::with_capacity(program.arrays().len());
        let mut cells = 0u32;
        for a in program.arrays() {
            array_base.push(cells);
            cells += a.len().max(0) as u32;
        }

        let mut tr = Translator {
            program,
            machine,
            array_base,
            safety: &kernel.safety,
            block: BlockId(0),
            elide_checks,
            coeffs: Vec::new(),
            code: Code {
                prices: Prices::new(&machine.cost)?,
                ..Code::default()
            },
        };

        let mut by_first: HashMap<StmtId, u32> = HashMap::new();
        for (slot, (info, (id, code))) in infos.iter().zip(codes).enumerate() {
            debug_assert_eq!(info.id, *id);
            tr.block = info.id;
            let body_stack: Vec<LoopVarId> = info.loops.iter().map(|h| h.var).collect();
            let pre_stack = &body_stack[..body_stack.len().saturating_sub(1)];
            let mut map: HashMap<u32, (u32, u32)> = HashMap::new();
            tr.translate_stream(&code.preheader, pre_stack, &mut map)?;
            tr.translate_stream(&code.insts, &body_stack, &mut map)?;
            tr.code.block_ids.push(*id);
            by_first.insert(info.block.stmts()[0].id(), slot as u32);
        }

        let mut code = tr.code;
        let mut depth = 0;
        let scan = &mut StripScan::default();
        code.roots = build_nodes(&mut code, scan, program.items(), &by_first, 0, &mut depth)?;
        code.loop_depth = depth;
        Ok(BytecodeKernel {
            program: program.clone(),
            replications: kernel.replications.clone(),
            vectorized_blocks: codes.iter().filter(|(_, c)| c.vectorized).count(),
            code,
        })
    }

    /// Executes the bytecode on freshly seeded memory, producing the same
    /// [`Outcome`] the reference engine would.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on out-of-bounds accesses (same error
    /// strings as the reference engine).
    pub fn run(&self) -> Result<Outcome, ExecError> {
        self.run_from(MachineState::seeded(&self.program))
    }

    /// Executes the bytecode from an explicit initial memory image
    /// instead of the deterministic seeds: start from
    /// [`MachineState::seeded`] for this kernel's program and overwrite
    /// the cells of interest. The image is moved through the run, not
    /// copied — [`Outcome::state`] is the same allocation. Replicated
    /// arrays are repopulated from their sources before the kernel's
    /// loops run, exactly as in [`BytecodeKernel::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] before anything runs when `state` was not
    /// allocated for this kernel's program (a different number of arrays
    /// or scalars, or an array of another length:
    /// [`ExecErrorKind::MalformedCode`](crate::ExecErrorKind)), and
    /// on out-of-bounds accesses.
    pub fn run_from(&self, state: MachineState) -> Result<Outcome, ExecError> {
        let code = &self.code;
        let (vm, mut charged) = self.run_vm(state)?;

        // Every counter: what each op range charges per execution times
        // how often it ran, plus loop control's increment + branch.
        let (stats, ticks) = (&mut charged.stats, &mut charged.ticks);
        stats.iterations = vm.iterations;
        stats.metrics.dynamic_instructions += 2 * vm.iterations;
        ticks.cycles += Ticks::from(vm.iterations) * code.prices.loop_overhead;
        let mut blocks = Vec::new();
        for (slot, &id) in code.block_ids.iter().enumerate() {
            let mut block = Cost::default();
            for range in [2 * slot, 2 * slot + 1] {
                let ((per_run, cost), runs) = (&code.counts[range], vm.runs[range]);
                let m = &mut stats.metrics;
                m.dynamic_instructions += runs * per_run.dynamic_instructions;
                m.memory_ops += runs * per_run.memory_ops;
                m.packing_ops += runs * per_run.packing_ops;
                m.permutes += runs * per_run.permutes;
                m.simd_ops += runs * per_run.simd_ops;
                block.add(*cost, runs);
            }
            if vm.runs[2 * slot] + vm.runs[2 * slot + 1] > 0 {
                blocks.push((id, block.cycles));
            }
            ticks.add(block, 1);
        }
        Ok(charged.outcome(vm.state, self.vectorized_blocks, blocks))
    }

    /// Runs the kernel from `state`: the machine as the run left it and
    /// what populating the replications charged.
    fn run_vm(&self, mut state: MachineState) -> Result<(Vm<'_>, Charged), ExecError> {
        state.check_shape(&self.program)?;
        let code = &self.code;
        let mut charged = Charged::default();
        for r in &self.replications {
            populate_replication(&self.program, &code.prices, &mut state, &mut charged, r)?;
        }
        let mut vm = Vm {
            code,
            program: &self.program,
            state,
            regs: vec![0.0f64; code.reg_len as usize + code.columns as usize * STRIP],
            // One spare slot, so a subscript without loop variables
            // (`coeff` 0 at depth 0) evaluates outside any loop too.
            loop_vals: vec![0; code.loop_depth.max(1)],
            iterations: 0,
            runs: vec![0; code.counts.len()],
            guarded: [0; 2],
        };
        vm.run_nodes(&code.roots, 0)?;
        Ok((vm, charged))
    }

    /// Number of dense instructions in the pool.
    pub fn op_count(&self) -> usize {
        self.code.ops.len()
    }

    /// Always 0: the engine fuses no superinstructions. Kept only for the
    /// benchmark's `vm.fused_ops` metric; ROADMAP item 1 retires both.
    pub fn fused_count(&self) -> usize {
        0
    }
}

fn use_reg(map: &HashMap<u32, (u32, u32)>, r: VReg) -> Result<(u32, u32), ExecError> {
    map.get(&r.0)
        .copied()
        .ok_or_else(|| ExecError::undefined_register(format!("read of undefined register {r}")))
}

/// Builds the execution tree of `items`, which sit inside `depth` loops,
/// raising `max_depth` to the deepest nesting met and translating every
/// strip-eligible innermost body with the scratch `scan`.
fn build_nodes(
    code: &mut Code,
    scan: &mut StripScan,
    items: &[Item],
    by_first: &HashMap<StmtId, u32>,
    depth: usize,
    max_depth: &mut usize,
) -> Result<Vec<Node>, ExecError> {
    let mut out = Vec::new();
    let mut idx = 0;
    while idx < items.len() {
        match &items[idx] {
            Item::Stmt(first) => {
                // One static basic block = this maximal statement run.
                let mut end = idx + 1;
                while end < items.len() && matches!(items[end], Item::Stmt(_)) {
                    end += 1;
                }
                let &slot = by_first.get(&first.id()).ok_or_else(|| {
                    ExecError::malformed(format!("no code for block starting at {}", first.id()))
                })?;
                out.push(Node::Block(2 * slot + 1));
                idx = end;
            }
            Item::Loop(l) => {
                let mut preheaders = Vec::new();
                for body_item in &l.body {
                    if let Item::Stmt(first) = body_item {
                        if let Some(&slot) = by_first.get(&first.id()) {
                            preheaders.push(2 * slot);
                        }
                    }
                }
                *max_depth = (*max_depth).max(depth + 1);
                let body = build_nodes(code, scan, &l.body, by_first, depth + 1, max_depth)?;
                let strip = match body.as_slice() {
                    [Node::Block(range)] if l.header.step > 0 => {
                        code.strip(scan, *range, &l.header, depth as u32)
                    }
                    _ => Err(Refusal::NotWholeLoop),
                };
                out.push(Node::Loop {
                    lower: l.header.lower,
                    upper: l.header.upper,
                    step: l.header.step,
                    preheaders,
                    body,
                    strip,
                });
                idx += 1;
            }
        }
    }
    Ok(out)
}

/// One access of a strip body for the legality check, in body order:
/// the strip access, whether it stores and whether it runs after the
/// scan.
type Touch = (u32, bool, bool);

/// When a strip column's values are known: before the scan, from it (a
/// carried scalar's seed cell and writes) or only after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum When {
    Before,
    Scan,
    After,
}

/// A scalar the body writes, of type `ty`: the column a read of it finds
/// now (none before its first write, unless carried), the writes still
/// to come and, when carried, the column its last write fills.
#[derive(Debug, Clone, Copy)]
struct Written {
    slot: u32,
    ty: ScalarType,
    read: Option<u32>,
    left: u32,
    last: Option<u32>,
}

/// The strip translator's scratch, reused for every body. Column 0 is
/// arena index `base`; register slot `s >= defs`, defined by the body,
/// is column `s - defs` (a zero-width definition's base may lie below;
/// it names no lane); `next` is the next free column.
#[derive(Debug, Default)]
struct StripScan {
    base: u32,
    defs: u32,
    next: u32,
    /// Per column, when its values are known.
    when: Vec<When>,
    written: Vec<Written>,
    /// Invariant columns by a constant's bits, a scalar slot or a
    /// preheader register's `(base, width)`.
    filled: Vec<((u8, u64), u32)>,
    touches: Vec<Touch>,
    /// Pairs of strip accesses whose meeting is decided per strip.
    guards: Vec<(u32, u32)>,
    /// The invariant fills, and the strip ops that run before the scan
    /// and after it, in body order.
    fills: Vec<SOp>,
    before: Vec<SOp>,
    after: Vec<SOp>,
}

impl StripScan {
    fn def(&self, slot: u32) -> u32 {
        self.base + slot.saturating_sub(self.defs) * STRIP as u32
    }

    fn fresh(&mut self, width: u32) -> u32 {
        self.next += width;
        self.when.resize(self.next as usize, When::Before);
        self.base + (self.next - width) * STRIP as u32
    }

    /// The column indices of lanes `0..width` of column `col`.
    fn cols(&self, col: u32, width: u32) -> std::ops::Range<usize> {
        let c = ((col - self.base) / STRIP as u32) as usize;
        c..c + width as usize
    }

    /// When all of lanes `0..width` of column `col` are known.
    fn when(&self, col: u32, width: u32) -> When {
        let lanes = &self.when[self.cols(col, width)];
        lanes.iter().copied().max().unwrap_or(When::Before)
    }

    /// Places `op`, whose sources are known `when`, before the scan or,
    /// with lanes `0..width` of its destination `dst`, after it.
    fn place(&mut self, op: SOp, when: When, (dst, width): (u32, u32)) {
        if when == When::Before {
            self.before.push(op);
        } else {
            let cols = self.cols(dst, width);
            self.when[cols].fill(When::After);
            self.after.push(op);
        }
    }

    /// A plain copy of column `src` into lane column `dst`.
    fn move_lane(&mut self, dst: u32, src: u32) {
        let when = self.when(src, 1);
        self.place(SOp::Move(dst, src, ScalarType::F64), when, (dst, 1));
    }

    /// Columns filled with `fill(k)` for `k < width` once per loop
    /// entry, shared by equal keys.
    fn invariant(&mut self, key: (u8, u64), width: u32, fill: impl Fn(u32) -> Fill) -> u32 {
        if let Some(&(_, c)) = self.filled.iter().find(|f| f.0 == key) {
            return c;
        }
        let c = self.fresh(width);
        let fills = (0..width).map(|k| SOp::Fill(c + k * STRIP as u32, fill(k)));
        self.fills.extend(fills);
        self.filled.push((key, c));
        c
    }

    /// Lane 0's column of register `base`, `width` lanes read.
    fn reg_column(&mut self, base: u32, width: u32) -> u32 {
        if base >= self.defs {
            return self.def(base);
        }
        let key = (2, u64::from(base) | u64::from(width) << 32);
        self.invariant(key, width, |k| Fill::Reg(base + k))
    }

    /// The column a read of scalar `slot` finds. A scalar read before
    /// the body writes it is carried: its last write fills the column
    /// after a seed cell, so the read column is that column shifted by
    /// one iteration, and the cell holds the scalar at each strip start.
    fn read_scalar(&mut self, slot: u32) -> u32 {
        let Some(i) = self.written.iter().position(|w| w.slot == slot) else {
            return self.invariant((1, u64::from(slot)), 1, |_| Fill::Scalar(slot));
        };
        if let Some(col) = self.written[i].read {
            return col;
        }
        let c = self.fresh(2);
        let cols = self.cols(c, 2);
        self.when[cols].fill(When::Scan);
        let seed = c + STRIP as u32 - 1;
        self.before.push(SOp::Seed(seed, slot));
        (self.written[i].read, self.written[i].last) = (Some(seed), Some(seed + 1));
        seed
    }

    /// Whether scalar `slot` has been read before the body writes it.
    fn carried(&self, slot: u32) -> bool {
        self.written
            .iter()
            .any(|w| w.slot == slot && w.last.is_some())
    }

    /// The column a write of scalar `slot` goes to: `value`'s own column
    /// when given (a float copy needs no op), a carried scalar's last
    /// write's column, or a fresh one.
    fn write_scalar(&mut self, slot: u32, value: Option<u32>) -> u32 {
        let i = (self.written.iter().position(|w| w.slot == slot))
            .expect("the body's writes are counted before it is translated");
        let Written { left, last, .. } = self.written[i];
        let col = match (value, last) {
            (Some(col), _) => col,
            (_, Some(last)) if left == 1 => last,
            _ => self.fresh(1),
        };
        if last.is_some() {
            let cols = self.cols(col, 1);
            self.when[cols].fill(When::Scan);
        }
        (self.written[i].read, self.written[i].left) = (Some(col), left - 1);
        col
    }

    /// Readies the scratch for a body whose definitions take register
    /// slots `defs.0..defs.1`, its columns after arena index `base`.
    fn reset(&mut self, base: u32, defs: Range) {
        (self.base, self.defs, self.next) = (base, defs.0, 0);
        self.fresh(defs.1 - defs.0);
        self.when.fill(When::Before);
        self.written.clear();
        self.filled.clear();
        self.touches.clear();
        self.guards.clear();
        self.fills.clear();
        self.before.clear();
        self.after.clear();
    }

    /// Counts one write of scalar `slot`, of type `ty`, before the body
    /// is translated.
    fn count_write(&mut self, slot: u32, ty: ScalarType) {
        match self.written.iter_mut().find(|w| w.slot == slot) {
            Some(w) => w.left += 1,
            None => self.written.push(Written {
                slot,
                ty,
                read: None,
                left: 1,
                last: None,
            }),
        }
    }
}

impl Code {
    /// The column of scalar-statement operand `arg`: a constant, a
    /// scalar, or an array read gathered into a fresh column.
    fn operand(&mut self, scan: &mut StripScan, arg: RArg, at: (u32, i64)) -> Result<u32, Refusal> {
        Ok(match arg {
            RArg::Const(c) => scan.invariant((0, c.to_bits()), 1, |_| Fill::Const(c)),
            RArg::Scalar(s) => scan.read_scalar(s),
            RArg::Array(a) => {
                let lanes = self.strip_accesses(scan, false, When::Before, a..a + 1, at)?;
                let dst = scan.fresh(1);
                scan.before.push(SOp::Mem(dst, lanes, false));
                dst
            }
        })
    }

    /// Accesses `accs` as one strip access each, stepping per iteration of
    /// the loop at `depth` by `step`, run `when` their sources are known.
    fn strip_accesses(
        &mut self,
        scan: &mut StripScan,
        store: bool,
        when: When,
        accs: std::ops::Range<u32>,
        (depth, step): (u32, i64),
    ) -> Result<Range, Refusal> {
        let first = self.saccs.len() as u32;
        for a in accs {
            let (_, inner, _) = self.split_terms(a, depth).ok_or(Refusal::Unchecked)?;
            scan.touches
                .push((self.saccs.len() as u32, store, when != When::Before));
            self.saccs.push((a, inner.wrapping_mul(step)));
        }
        Ok((first, self.saccs.len() as u32))
    }

    /// A certified access's offset, inner coefficient and outer terms
    /// for the loop at `depth` (the form merges terms per depth); `None`
    /// for a checked access.
    fn split_terms(
        &self,
        a: u32,
        depth: u32,
    ) -> Option<(i64, i64, impl Iterator<Item = (u32, i64)> + '_)> {
        let Addr::Linear {
            offset,
            depth: d,
            coeff,
            more,
        } = self.accesses[a as usize].addr
        else {
            return None;
        };
        let terms = std::iter::once((d, coeff))
            .chain(self.terms[more.0 as usize..more.1 as usize].iter().copied())
            .filter(|&(_, c)| c != 0);
        let inner = terms.clone().find(|t| t.0 == depth).map_or(0, |t| t.1);
        Some((offset, inner, terms.filter(move |t| t.0 != depth)))
    }

    /// Translates body range `range`, the whole of an innermost loop at
    /// `depth` with header `h`, to strip ops, or refuses it. A body may
    /// run in strips when every access is certified (so a strip cannot
    /// fault) and no two accesses to one array, one a store, meet in an
    /// order the strip reverses (see [`Code::check_touches`]; a pair it
    /// cannot decide is a [`SOp::Guard`] at each strip's start). Each
    /// body-defined register lane and each scalar write is a column (a
    /// float scalar's op writes its column in place, and a float copy
    /// takes its operand's column); preheader lanes, read-only scalars
    /// and constants are columns filled once per loop entry. A scalar
    /// read before its write is carried: its writes are links, which one
    /// [`SOp::Scan`] runs in iteration order. Ops that read a carried
    /// column or such an op's result run after the scan, the rest before
    /// it; a link that reads an op after the scan, or a carried scalar
    /// written from a vector lane, refuses the body. A refused body
    /// leaves unused entries in the pools.
    fn strip(
        &mut self,
        scan: &mut StripScan,
        range: u32,
        h: &LoopHeader,
        depth: u32,
    ) -> Result<(Range, Range), Refusal> {
        let (start, end) = self.ranges[range as usize];
        let ops = start as usize..end as usize;
        scan.reset(self.reg_len, self.defs[range as usize]);
        for op in &self.ops[ops.clone()] {
            match *op {
                BOp::Scalar(Stmt {
                    dest: RDest::Scalar { slot, ty },
                    ..
                }) => scan.count_write(slot, ty),
                BOp::Unpack { lanes, .. } => {
                    let lanes = &self.lanes[lanes.0 as usize..lanes.1 as usize];
                    lanes
                        .iter()
                        .for_each(|&(slot, ty)| scan.count_write(slot, ty));
                }
                _ => {}
            }
        }
        let (at, links) = ((depth, h.step), self.links.len());
        for i in ops {
            match self.ops[i] {
                BOp::Scalar(st) => {
                    let (first, mut when) = (self.srcs.len(), When::Before);
                    for k in st.args..st.args + st.shape.row().arity as u32 {
                        let col = self.operand(scan, self.args[k as usize], at)?;
                        when = when.max(scan.when(col, 1));
                        self.srcs.push(col);
                    }
                    let (srcs, shape) = ((first as u32, self.srcs.len() as u32), st.shape);
                    if let RDest::Scalar { slot, ty } = st.dest {
                        if scan.carried(slot) {
                            if when == When::After {
                                return Err(Refusal::Recurrence);
                            }
                            let s = &self.srcs[first..];
                            let srcs = std::array::from_fn(|k| *s.get(k).unwrap_or(&s[0]));
                            let dst = scan.write_scalar(slot, None);
                            self.links.push(Link {
                                shape,
                                srcs,
                                dst,
                                ty,
                            });
                            continue;
                        }
                    }
                    // A float scalar holds its op's values as computed:
                    // `Out` and every store coerce what leaves the strip.
                    let copy = (shape == ExprShape::Copy).then_some(self.srcs[first]);
                    let value = match (st.dest, copy) {
                        (RDest::Scalar { slot, ty }, _) if ty.is_float() => {
                            scan.write_scalar(slot, copy)
                        }
                        (_, Some(src)) => src,
                        _ => scan.fresh(1),
                    };
                    if copy.is_none() {
                        let op = SOp::Op(Alu {
                            dst: value,
                            width: 1,
                            shape,
                            srcs,
                        });
                        scan.place(op, when, (value, 1));
                    }
                    match st.dest {
                        RDest::Scalar { slot, ty } if !ty.is_float() => {
                            let col = scan.write_scalar(slot, None);
                            scan.place(SOp::Move(col, value, ty), when, (col, 1));
                        }
                        RDest::Scalar { .. } => {}
                        RDest::Array(a) => {
                            let lanes = self.strip_accesses(scan, true, when, a..a + 1, at)?;
                            scan.place(SOp::Mem(value, lanes, true), when, (value, 0));
                        }
                    }
                }
                BOp::Load(Mem { reg, acc }) | BOp::Store(Mem { reg, acc }) => {
                    let store = matches!(self.ops[i], BOp::Store(_));
                    let col = scan.reg_column(reg, acc.width);
                    let when = scan.when(col, acc.width);
                    let accs = acc.first..acc.first + acc.width;
                    let lanes = self.strip_accesses(scan, store, when, accs, at)?;
                    scan.place(SOp::Mem(col, lanes, store), when, (col, 0));
                }
                BOp::Unpack { src, lanes } => {
                    let src = scan.reg_column(src, lanes.1 - lanes.0);
                    for (k, l) in (lanes.0..lanes.1).enumerate() {
                        let (slot, ty) = self.lanes[l as usize];
                        if scan.carried(slot) {
                            return Err(Refusal::Recurrence);
                        }
                        let dst = scan.write_scalar(slot, None);
                        let lane = src + (k * STRIP) as u32;
                        let when = scan.when(lane, 1);
                        scan.place(SOp::Move(dst, lane, ty), when, (dst, 1));
                    }
                }
                BOp::ConstVec { dst, vals } => {
                    for (k, v) in (vals.0..vals.1).enumerate() {
                        let fill = Fill::Const(self.consts[v as usize]);
                        let col = scan.def(dst) + (k * STRIP) as u32;
                        scan.fills.push(SOp::Fill(col, fill));
                    }
                }
                BOp::Op(op) => {
                    let (first, mut when) = (self.srcs.len() as u32, When::Before);
                    for s in op.srcs.0..op.srcs.1 {
                        let col = scan.reg_column(self.srcs[s as usize], op.width);
                        when = when.max(scan.when(col, op.width));
                        self.srcs.push(col);
                    }
                    let (dst, srcs) = (scan.def(op.dst), (first, self.srcs.len() as u32));
                    scan.place(SOp::Op(Alu { dst, srcs, ..op }), when, (dst, op.width));
                }
                BOp::Pack { dst, vars } => {
                    for (k, v) in (vars.0..vars.1).enumerate() {
                        let src = scan.read_scalar(self.var_slots[v as usize]);
                        scan.move_lane(scan.def(dst) + (k * STRIP) as u32, src);
                    }
                }
                BOp::Splat { dst, width, src } => {
                    let src = self.operand(scan, self.args[src as usize], at)?;
                    for k in 0..width {
                        scan.move_lane(scan.def(dst) + k * STRIP as u32, src);
                    }
                }
                BOp::Permute { dst, src, perm } => {
                    let lanes = &self.perms[perm.0 as usize..perm.1 as usize];
                    let width = lanes.iter().max().map_or(0, |&m| m + 1);
                    let src = scan.reg_column(src, width);
                    for (k, &p) in lanes.iter().enumerate() {
                        scan.move_lane(scan.def(dst) + (k * STRIP) as u32, src + p * STRIP as u32);
                    }
                }
            }
        }
        self.check_touches(&scan.touches, h, depth, &mut scan.guards)?;
        self.columns = self.columns.max(scan.next);
        let fills = self.sops.len() as u32;
        self.sops.append(&mut scan.fills);
        let first = self.sops.len() as u32;
        if !scan.guards.is_empty() {
            let pairs = self.guards.len() as u32;
            self.guards.append(&mut scan.guards);
            self.sops
                .push(SOp::Guard((pairs, self.guards.len() as u32)));
        }
        self.sops.append(&mut scan.before);
        let links = (links as u32, self.links.len() as u32);
        if links.0 < links.1 {
            // A lone link's carried read is the cell before its own write.
            let l = &self.links[links.0 as usize];
            let fold = links.1 - links.0 == 1 && l.srcs.contains(&(l.dst - 1));
            self.sops.push(if fold {
                SOp::Fold(links.0)
            } else {
                SOp::Scan(links)
            });
        }
        self.sops.append(&mut scan.after);
        let outs = scan.written.iter();
        let outs = outs.filter_map(|w| w.read.map(|c| SOp::Out(w.slot, c, w.ty)));
        self.sops.extend(outs);
        Ok(((fills, first), (first, self.sops.len() as u32)))
    }

    /// For accesses `p` before `q` in body order (ops in order, a
    /// statement's reads before its store, lanes in order) to one array,
    /// one a store, the strip must keep every meeting's order. When both
    /// run on one side of the scan, `p` must never touch in a later
    /// iteration a cell that `q` touches in an earlier one; when `p`
    /// runs after the scan and `q` before it, they must never meet at
    /// all in the same or a later iteration of `q`. Decided exactly for
    /// equal inner coefficients `c` and outer terms: they meet at
    /// distance `(off_p − off_q)/c` when that is a whole multiple of the
    /// step within the trip span. Every other pair goes to `guards`: a
    /// strip in which its cell ranges are disjoint cannot reorder a
    /// meeting.
    fn check_touches(
        &self,
        touches: &[Touch],
        h: &LoopHeader,
        depth: u32,
        guards: &mut Vec<(u32, u32)>,
    ) -> Result<(), Refusal> {
        let span = i128::from(h.trip_count() - 1) * i128::from(h.step);
        for (i, &(sp, store_p, after_p)) in touches.iter().enumerate() {
            for &(sq, store_q, after_q) in &touches[i + 1..] {
                let (p, q) = (self.saccs[sp as usize].0, self.saccs[sq as usize].0);
                let same_array = self.accesses[p as usize].array == self.accesses[q as usize].array;
                if !same_array || !(store_p || store_q) {
                    continue;
                }
                let (Some((off_p, c, outer_p)), Some((off_q, cq, outer_q))) =
                    (self.split_terms(p, depth), self.split_terms(q, depth))
                else {
                    return Err(Refusal::Unchecked);
                };
                if c != cq || !outer_p.eq(outer_q) {
                    guards.push((sp, sq));
                    continue;
                }
                // `p` at `i_p` meets `q` at `i_q` when `c·(i_q − i_p) =
                // off_p − off_q`: backward when `i_q < i_p`. A swapped
                // pair runs every `q` before every `p` of a strip.
                let swapped = after_p && !after_q;
                let (diff, c) = (i128::from(off_p) - i128::from(off_q), i128::from(c));
                let refused = if c == 0 {
                    diff == 0 && (swapped || span > 0)
                } else {
                    let d = diff / c;
                    let meets = diff % c == 0 && d % i128::from(h.step) == 0 && d.abs() <= span;
                    meets && (d < 0) != swapped
                };
                if refused {
                    return Err(Refusal::Backward);
                }
            }
        }
        Ok(())
    }
}

struct Translator<'a> {
    program: &'a Program,
    machine: &'a MachineConfig,
    array_base: Vec<u32>,
    safety: &'a SafetyCert,
    block: BlockId,
    elide_checks: bool,
    /// Scratch for [`Translator::add_access`]: one coefficient per loop
    /// depth.
    coeffs: Vec<i64>,
    /// The kernel's code, filled in place.
    code: Code,
}

impl<'a> Translator<'a> {
    /// Assigns a fresh arena slot to a register definition. Zero-width
    /// definitions do not define (the reference engine treats an empty
    /// register vector as undefined).
    fn def(&mut self, map: &mut HashMap<u32, (u32, u32)>, r: VReg, width: usize) -> u32 {
        if width == 0 {
            map.remove(&r.0);
            return 0;
        }
        let base = self.code.reg_len;
        self.code.reg_len += width as u32;
        map.insert(r.0, (base, width as u32));
        base
    }
    /// Resolves one array reference against the loop-variable stack at
    /// this nesting depth. Variables outside the stack are dropped — they
    /// contribute zero, exactly like `AffineExpr::eval` on a missing
    /// environment entry.
    fn add_access(&mut self, r: &ArrayRef, stack: &[LoopVarId]) -> u32 {
        let info = self.program.array(r.array);
        let base = self.array_base[r.array.index()];
        let rank_ok = r.access.rank() == info.dims.len();
        let stride = |d: usize| -> i64 { info.dims[d + 1..].iter().product() };
        let depth_of = |v: LoopVarId| stack.iter().position(|&s| s == v);
        // Check elision is licensed only when (a) the certificate proved
        // this reference safe in this block, and (b) every subscript
        // variable is on the current stack: the certificate evaluated
        // the reference under the block's *full* loop environment, so a
        // preheader-hoisted access whose dropped variable would read as
        // zero here is outside what was proven and stays checked.
        let elide = self.elide_checks
            && rank_ok
            && r.access
                .dims()
                .iter()
                .all(|e| e.terms().all(|(v, _)| stack.contains(&v)))
            && self.safety.is_proven_safe(self.block, r);
        let addr = if elide {
            // Fold strides into the subscripts and merge per loop depth.
            let mut offset = i64::from(base);
            self.coeffs.clear();
            self.coeffs.resize(stack.len(), 0);
            for (d, e) in r.access.dims().iter().enumerate() {
                let s = stride(d);
                offset = offset.wrapping_add(e.constant().wrapping_mul(s));
                for (v, c) in e.terms() {
                    if let Some(depth) = depth_of(v) {
                        self.coeffs[depth] = self.coeffs[depth].wrapping_add(c.wrapping_mul(s));
                    }
                }
            }
            let mut terms = (0u32..)
                .zip(self.coeffs.iter().copied())
                .filter(|&(_, c)| c != 0);
            let (depth, coeff) = terms.next().unwrap_or((0, 0));
            let more_start = self.code.terms.len() as u32;
            self.code.terms.extend(terms);
            Addr::Linear {
                offset,
                depth,
                coeff,
                more: (more_start, self.code.terms.len() as u32),
            }
        } else {
            let dim_start = self.code.dims.len() as u32;
            for (d, e) in r.access.dims().iter().enumerate() {
                let term_start = self.code.terms.len() as u32;
                for (v, c) in e.terms() {
                    if let Some(depth) = depth_of(v) {
                        self.code.terms.push((depth as u32, c));
                    }
                }
                let (extent, stride) = if rank_ok {
                    (info.dims[d], stride(d))
                } else {
                    (0, 0)
                };
                self.code.dims.push(Dim {
                    constant: e.constant(),
                    terms: (term_start, self.code.terms.len() as u32),
                    extent,
                    stride,
                });
            }
            Addr::Checked {
                dims: (dim_start, self.code.dims.len() as u32),
                rank_ok,
            }
        };
        self.code.accesses.push(Access {
            array: r.array,
            base,
            ty: info.ty,
            addr,
        });
        (self.code.accesses.len() - 1) as u32
    }

    /// Resolves the lanes of a vector memory op and decides whether they
    /// are one certified unit-stride run.
    fn add_lanes(&mut self, refs: &[ArrayRef], stack: &[LoopVarId]) -> Lanes {
        let first = self.code.accesses.len();
        for r in refs {
            self.add_access(r, stack);
        }
        let code = &self.code;
        let terms = |r: Range| &code.terms[r.0 as usize..r.1 as usize];
        let lanes = &code.accesses[first..];
        let run = lanes.first().is_some_and(|head| {
            let Addr::Linear {
                offset,
                depth,
                coeff,
                more,
            } = head.addr
            else {
                return false;
            };
            (0i64..).zip(lanes).all(|(k, lane)| {
                lane.array == head.array
                    && matches!(lane.addr, Addr::Linear { offset: o, depth: d, coeff: c, more: m }
                        if o == offset.wrapping_add(k)
                            && (d, c) == (depth, coeff)
                            && terms(m) == terms(more))
            })
        });
        Lanes {
            first: first as u32,
            width: refs.len() as u32,
            run,
        }
    }

    /// Translates one instruction stream as the next op range, summing
    /// its instructions' metrics and cost (see [`Code::counts`]).
    fn translate_stream(
        &mut self,
        insts: &[VInst],
        stack: &[LoopVarId],
        map: &mut HashMap<u32, (u32, u32)>,
    ) -> Result<(), ExecError> {
        let (start, defs) = (self.code.ops.len() as u32, self.code.reg_len);
        let mut counts = (InstMetrics::default(), Cost::default());
        for inst in insts {
            let row = inst.metrics(&self.machine.cost);
            counts.1.add(Cost::of(&row)?, 1);
            counts.0.add(&row);
            let op = match inst {
                VInst::Scalar { stmt, .. } => {
                    // `Expr` holds exactly its shape's arity of operands.
                    let start = self.code.args.len() as u32;
                    for o in stmt.expr().operands() {
                        let arg = match o {
                            Operand::Const(c) => RArg::Const(*c),
                            Operand::Scalar(v) => RArg::Scalar(v.index() as u32),
                            Operand::Array(r) => RArg::Array(self.add_access(r, stack)),
                        };
                        self.code.args.push(arg);
                    }
                    let dest = match stmt.dest() {
                        Dest::Scalar(v) => RDest::Scalar {
                            slot: v.index() as u32,
                            ty: TypeEnv::scalar_type(self.program, *v),
                        },
                        Dest::Array(r) => RDest::Array(self.add_access(r, stack)),
                    };
                    BOp::Scalar(Stmt {
                        shape: stmt.expr().shape(),
                        args: start,
                        dest,
                    })
                }
                VInst::Load { dst, refs, .. } => {
                    let acc = self.add_lanes(refs, stack);
                    let reg = self.def(map, *dst, refs.len());
                    BOp::Load(Mem { reg, acc })
                }
                VInst::Store { src, refs, .. } => {
                    let (reg, width) = use_reg(map, *src)?;
                    let n = refs.len().min(width as usize);
                    let acc = self.add_lanes(&refs[..n], stack);
                    BOp::Store(Mem { reg, acc })
                }
                VInst::PackScalars { dst, vars, .. } => {
                    let start = self.code.var_slots.len() as u32;
                    let slots = vars.iter().map(|v| v.index() as u32);
                    self.code.var_slots.extend(slots);
                    let dst = self.def(map, *dst, vars.len());
                    BOp::Pack {
                        dst,
                        vars: (start, self.code.var_slots.len() as u32),
                    }
                }
                VInst::UnpackScalars { src, vars, .. } => {
                    let (base, width) = use_reg(map, *src)?;
                    let n = vars.len().min(width as usize);
                    let start = self.code.lanes.len() as u32;
                    let program = self.program;
                    self.code.lanes.extend(
                        vars[..n]
                            .iter()
                            .map(|&v| (v.index() as u32, TypeEnv::scalar_type(program, v))),
                    );
                    BOp::Unpack {
                        src: base,
                        lanes: (start, self.code.lanes.len() as u32),
                    }
                }
                VInst::ConstVec { dst, values } => {
                    let start = self.code.consts.len() as u32;
                    self.code.consts.extend_from_slice(values);
                    let dst = self.def(map, *dst, values.len());
                    BOp::ConstVec {
                        dst,
                        vals: (start, self.code.consts.len() as u32),
                    }
                }
                VInst::Splat { dst, src, width } => {
                    self.code.args.push(match src {
                        SplatSrc::Const(c) => RArg::Const(*c),
                        SplatSrc::Scalar { var, .. } => RArg::Scalar(var.index() as u32),
                    });
                    let src = self.code.args.len() as u32 - 1;
                    let dst = self.def(map, *dst, *width);
                    BOp::Splat {
                        dst,
                        width: *width as u32,
                        src,
                    }
                }
                VInst::Permute { dst, src, perm } => {
                    let (base, width) = use_reg(map, *src)?;
                    if let Some(&bad) = perm.iter().find(|&&j| j >= width as usize) {
                        return Err(ExecError::malformed(format!(
                            "permute lane {bad} out of range for {width}-lane register {src}"
                        )));
                    }
                    let start = self.code.perms.len() as u32;
                    self.code.perms.extend(perm.iter().map(|&j| j as u32));
                    let dst = self.def(map, *dst, perm.len());
                    BOp::Permute {
                        dst,
                        src: base,
                        perm: (start, self.code.perms.len() as u32),
                    }
                }
                VInst::Spill { .. } | VInst::Reload { .. } => continue,
                VInst::Op { dst, shape, srcs } => {
                    let arity = shape.row().arity;
                    if srcs.len() < arity {
                        return Err(ExecError::malformed(format!(
                            "{shape:?} op has {} source register(s), needs {arity}",
                            srcs.len(),
                        )));
                    }
                    let resolved: Vec<(u32, u32)> = srcs
                        .iter()
                        .map(|&r| use_reg(map, r))
                        .collect::<Result<_, _>>()?;
                    let width = resolved[0].1;
                    if let Some((i, _)) = resolved.iter().enumerate().find(|(_, s)| s.1 < width) {
                        return Err(ExecError::malformed(format!(
                            "operand register {} of a {width}-lane op is narrower ({} lanes)",
                            srcs[i], resolved[i].1
                        )));
                    }
                    let start = self.code.srcs.len() as u32;
                    self.code.srcs.extend(resolved.iter().map(|&(b, _)| b));
                    let dst = self.def(map, *dst, width as usize);
                    BOp::Op(Alu {
                        dst,
                        width,
                        shape: *shape,
                        srcs: (start, self.code.srcs.len() as u32),
                    })
                }
            };
            self.code.ops.push(op);
        }
        let code = &mut self.code;
        code.ranges.push((start, code.ops.len() as u32));
        code.defs.push((defs, code.reg_len));
        code.counts.push(counts);
        Ok(())
    }
}

/// Runs `body` with `x`, a fieldless enum `E`'s value, rebound in each
/// arm to that arm's variant: one copy of `body` per variant, so a lane
/// loop's operator or element type is fixed outside the loop.
macro_rules! fixed {
    ($x:ident: $e:ident[$($v:ident),*] => $body:expr) => {
        match $x {
            $($e::$v => {
                let $x = $e::$v;
                $body
            })*
        }
    };
}

struct Vm<'a> {
    code: &'a Code,
    /// Cold path only: array names and extents for error messages.
    program: &'a Program,
    state: MachineState,
    /// The register arena, then the strip columns.
    regs: Vec<f64>,
    /// The enclosing loops' counters, outermost first.
    loop_vals: Vec<i64>,
    iterations: u64,
    /// Executions of each op range.
    runs: Vec<u64>,
    /// Dynamic ops of guarded strips that ran column-wise and that fell
    /// back to the per-iteration loop.
    guarded: [u64; 2],
}

impl<'a> Vm<'a> {
    /// Runs `nodes`, which sit inside `depth` loops.
    fn run_nodes(&mut self, nodes: &[Node], depth: usize) -> Result<(), ExecError> {
        for node in nodes {
            match node {
                Node::Block(range) => self.run_range(*range)?,
                Node::Loop {
                    lower,
                    upper,
                    step,
                    preheaders,
                    body,
                    strip,
                } => {
                    // Preheaders of blocks directly inside this loop run
                    // once per loop entry (hoisted invariant packs).
                    if lower < upper {
                        for &range in preheaders {
                            self.run_range(range)?;
                        }
                    }
                    let mut v = *lower;
                    if let (&Ok((fills, ops)), &[Node::Block(range)]) = (strip, body.as_slice()) {
                        let (start, end) = self.code.ranges[range as usize];
                        let guard =
                            matches!(self.code.sops.get(ops.0 as usize), Some(SOp::Guard(_)));
                        // Invariant columns hold for the whole loop entry,
                        // and its first strip is its longest.
                        let mut fills = Some(fills);
                        while v < *upper {
                            let left = (upper.abs_diff(v) - 1) / step.unsigned_abs() + 1;
                            let n = left.min(STRIP as u64) as usize;
                            self.loop_vals[depth] = v;
                            if let Some(fills) = fills.take() {
                                self.run_strip(fills, n);
                            }
                            let columns = self.run_strip(ops, n);
                            if guard {
                                self.guarded[usize::from(!columns)] +=
                                    (n as u64) * u64::from(end - start);
                            }
                            if columns {
                                self.runs[range as usize] += n as u64;
                            } else {
                                for t in 0..n as i64 {
                                    self.loop_vals[depth] = v + t * step;
                                    self.run_range(range)?;
                                }
                            }
                            self.iterations += n as u64;
                            v = v.saturating_add((n as i64).saturating_mul(*step));
                        }
                        continue;
                    }
                    while v < *upper {
                        self.loop_vals[depth] = v;
                        match body.as_slice() {
                            // The usual innermost loop: no tree to walk.
                            [Node::Block(range)] => self.run_range(*range)?,
                            _ => self.run_nodes(body, depth + 1)?,
                        }
                        v += step;
                        self.iterations += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one op range and counts the execution.
    fn run_range(&mut self, range: u32) -> Result<(), ExecError> {
        self.run_ops(self.code.ranges[range as usize])?;
        self.runs[range as usize] += 1;
        Ok(())
    }

    fn run_ops(&mut self, (start, end): Range) -> Result<(), ExecError> {
        let code = self.code;
        for op in &code.ops[start as usize..end as usize] {
            match op {
                BOp::Scalar(st) => self.exec_scalar(st)?,
                BOp::Load(ld) => self.exec_load(ld)?,
                BOp::Store(st) => self.exec_store(st)?,
                &BOp::Pack { dst, vars } => {
                    for (j, i) in (vars.0..vars.1).enumerate() {
                        self.regs[dst as usize + j] =
                            self.state.scalars[code.var_slots[i as usize] as usize];
                    }
                }
                &BOp::Unpack { src, lanes } => {
                    for (j, i) in (lanes.0..lanes.1).enumerate() {
                        let (slot, ty) = code.lanes[i as usize];
                        self.state.scalars[slot as usize] = ty.coerce(self.regs[src as usize + j]);
                    }
                }
                &BOp::ConstVec { dst, vals } => {
                    let src = &code.consts[vals.0 as usize..vals.1 as usize];
                    let d = dst as usize;
                    self.regs[d..d + src.len()].copy_from_slice(src);
                }
                &BOp::Splat { dst, width, src } => {
                    let v = self.arg(src as usize)?;
                    self.regs[dst as usize..(dst + width) as usize].fill(v);
                }
                &BOp::Permute { dst, src, perm } => {
                    for (k, p) in (perm.0..perm.1).enumerate() {
                        self.regs[dst as usize + k] =
                            self.regs[src as usize + code.perms[p as usize] as usize];
                    }
                }
                BOp::Op(op) => self.exec_op(op, (1, op.width as usize)),
            }
        }
        Ok(())
    }

    /// The cell index of certified access `offset + coeff·loop_vals[depth] + Σ more`.
    #[inline(always)]
    fn linear(&self, offset: i64, depth: u32, coeff: i64, more: Range) -> usize {
        let mut at = offset.wrapping_add(coeff.wrapping_mul(self.loop_vals[depth as usize]));
        if more.0 < more.1 {
            for &(depth, coeff) in &self.code.terms[more.0 as usize..more.1 as usize] {
                at = at.wrapping_add(coeff.wrapping_mul(self.loop_vals[depth as usize]));
            }
        }
        at as usize
    }

    /// The cell index of access `a` under the current loop counters.
    #[inline(always)]
    fn addr(&self, a: u32) -> Result<usize, ExecError> {
        let acc = &self.code.accesses[a as usize];
        match acc.addr {
            Addr::Linear {
                offset,
                depth,
                coeff,
                more,
            } => Ok(self.linear(offset, depth, coeff, more)),
            Addr::Checked { dims, rank_ok } => self.addr_checked(acc, dims, rank_ok),
        }
    }

    /// Evaluates one subscript, exactly as `AffineExpr::eval` does.
    fn subscript(&self, dim: &Dim) -> i64 {
        let terms = &self.code.terms[dim.terms.0 as usize..dim.terms.1 as usize];
        let v = terms
            .iter()
            .fold(dim.constant as i128, |v, &(depth, coeff)| {
                v.saturating_add(coeff as i128 * self.loop_vals[depth as usize] as i128)
            });
        v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// Bounds-checks a [`Addr::Checked`] access per dimension, exactly
    /// like `ArrayInfo::offset_of`, reconstructing the
    /// reference engine's message when it is out of bounds.
    #[inline(never)]
    fn addr_checked(&self, acc: &Access, dims: Range, rank_ok: bool) -> Result<usize, ExecError> {
        let dims = &self.code.dims[dims.0 as usize..dims.1 as usize];
        let off = dims.iter().try_fold(0i64, |off, dim| {
            let v = self.subscript(dim);
            (0 <= v && v < dim.extent).then(|| off + v * dim.stride)
        });
        if let (true, Some(off)) = (rank_ok, off) {
            return Ok(acc.base as usize + off as usize);
        }
        let info = self.program.array(acc.array);
        let idx: Vec<i64> = dims.iter().map(|dim| self.subscript(dim)).collect();
        Err(ExecError::out_of_bounds(format!(
            "{}{:?} out of bounds (dims {:?})",
            info.name, idx, info.dims
        )))
    }

    fn exec_load(&mut self, &Mem { reg, acc }: &Mem) -> Result<(), ExecError> {
        let (d, w) = (reg as usize, acc.width as usize);
        if acc.run {
            let at = self.addr(acc.first)?;
            self.regs[d..d + w].copy_from_slice(&self.state.cells[at..at + w]);
        } else {
            for (j, a) in (acc.first..acc.first + acc.width).enumerate() {
                self.regs[d + j] = self.state.cells[self.addr(a)?];
            }
        }
        Ok(())
    }

    fn exec_store(&mut self, &Mem { reg, acc }: &Mem) -> Result<(), ExecError> {
        let (s, w) = (reg as usize, acc.width as usize);
        if acc.run {
            let ty = self.code.accesses[acc.first as usize].ty;
            let at = self.addr(acc.first)?;
            let (cells, regs) = (&mut self.state.cells[at..at + w], &self.regs[s..s + w]);
            for (cell, &v) in cells.iter_mut().zip(regs) {
                *cell = ty.coerce(v);
            }
        } else {
            for (j, a) in (acc.first..acc.first + acc.width).enumerate() {
                self.store(a, self.regs[s + j])?;
            }
        }
        Ok(())
    }

    /// Stores `v` through access `a`, coerced to the array's element type.
    #[inline(always)]
    fn store(&mut self, a: u32, v: f64) -> Result<(), ExecError> {
        let at = self.addr(a)?;
        self.state.cells[at] = self.code.accesses[a as usize].ty.coerce(v);
        Ok(())
    }

    /// Elementwise op over pre-resolved source bases, as `blocks` runs of
    /// `len` slots [`STRIP`] apart: the `width` lanes of one iteration
    /// are one run, a strip's lane `k` is run `k` of `n` iterations.
    /// Destination slots are always fresh (one per static definition),
    /// so no source overlaps the run the op writes.
    fn exec_op(&mut self, op: &Alu, (blocks, len): (usize, usize)) {
        let srcs = &self.code.srcs[op.srcs.0 as usize..op.srcs.1 as usize];
        for k in 0..blocks {
            let dst = op.dst as usize + k * STRIP;
            let (below, rest) = self.regs.split_at_mut(dst);
            let (out, above) = rest.split_at_mut(len);
            let at = |i: usize| srcs.get(i).map(|&c| c as usize + k * STRIP);
            let ins: [&[f64]; 4] = std::array::from_fn(|i| match at(i) {
                Some(c) if c < dst => &below[c..][..len],
                Some(c) => &above[c - dst - len..][..len],
                None => &[],
            });
            apply_columns(op.shape, ins, out);
        }
    }

    /// Reads operand `i` of the argument pool.
    #[inline(always)]
    fn arg(&self, i: usize) -> Result<f64, ExecError> {
        Ok(match self.code.args[i] {
            RArg::Const(c) => c,
            RArg::Scalar(s) => self.state.scalars[s as usize],
            RArg::Array(a) => self.state.cells[self.addr(a)?],
        })
    }

    /// A scalar statement, each operand fetched where the operator needs
    /// it — in positional order, all of them, so the first out-of-bounds
    /// operand is the reference engine's.
    fn exec_scalar(&mut self, st: &Stmt) -> Result<(), ExecError> {
        let a = st.args as usize;
        let result = match st.shape {
            ExprShape::Copy => self.arg(a)?,
            ExprShape::Unary(op) => op.apply(self.arg(a)?),
            ExprShape::Binary(op) => op.apply(self.arg(a)?, self.arg(a + 1)?),
            ExprShape::MulAdd => mul_add(self.arg(a)?, self.arg(a + 1)?, self.arg(a + 2)?),
            ExprShape::Select(op) => {
                let (x, y) = (self.arg(a)?, self.arg(a + 1)?);
                let (t, e) = (self.arg(a + 2)?, self.arg(a + 3)?);
                if op.apply(x, y) {
                    t
                } else {
                    e
                }
            }
        };
        match st.dest {
            RDest::Scalar { slot, ty } => self.state.scalars[slot as usize] = ty.coerce(result),
            RDest::Array(a) => self.store(a, result)?,
        }
        Ok(())
    }

    /// Runs strip ops `ops` over `n` iterations from the current loop
    /// counters: each op over all `n` before the next op, a scan's links
    /// iteration by iteration. Every access is certified, so nothing can
    /// fault. Returns `false`, having run nothing, when a guard finds a
    /// pair whose cells overlap in this strip.
    fn run_strip(&mut self, ops: Range, n: usize) -> bool {
        let code = self.code;
        for op in &code.sops[ops.0 as usize..ops.1 as usize] {
            match *op {
                SOp::Guard((from, to)) => {
                    let cells = |j: u32| {
                        let (a, delta) = code.saccs[j as usize];
                        let first = self.addr(a).unwrap_or_default() as i64;
                        let last = first.wrapping_add((n as i64 - 1).wrapping_mul(delta));
                        (first.min(last), first.max(last))
                    };
                    let meet = |&(p, q): &(u32, u32)| {
                        let ((p0, p1), (q0, q1)) = (cells(p), cells(q));
                        p0 <= q1 && q0 <= p1
                    };
                    if code.guards[from as usize..to as usize].iter().any(meet) {
                        return false;
                    }
                }
                SOp::Fill(col, fill) => {
                    let v = match fill {
                        Fill::Const(c) => c,
                        Fill::Scalar(s) => self.state.scalars[s as usize],
                        Fill::Reg(r) => self.regs[r as usize],
                    };
                    self.regs[col as usize..col as usize + n].fill(v);
                }
                SOp::Mem(reg, lanes, store) => {
                    for (k, j) in (lanes.0..lanes.1).enumerate() {
                        let (a, delta) = code.saccs[j as usize];
                        let first = self.addr(a).unwrap_or_default();
                        let col = &mut self.regs[reg as usize + k * STRIP..][..n];
                        if store {
                            let ty = code.accesses[a as usize].ty;
                            scatter(&mut self.state.cells, first, delta, col, ty);
                        } else {
                            gather(&self.state.cells, first, delta, col);
                        }
                    }
                }
                SOp::Move(dst, src, ty) => {
                    let (d, s) = (dst as usize, src as usize);
                    self.regs.copy_within(s..s + n, d);
                    let col = &mut self.regs[d..d + n];
                    fixed!(ty: ScalarType[F32, F64, I8, I16, I32, I64] => {
                        col.iter_mut().for_each(|v| *v = ty.coerce(*v));
                    });
                }
                SOp::Op(op) => self.exec_op(&op, (op.width as usize, n)),
                SOp::Seed(cell, slot) => {
                    self.regs[cell as usize] = self.state.scalars[slot as usize];
                }
                SOp::Scan((from, to)) => {
                    let regs = &mut self.regs;
                    for t in 0..n {
                        for l in &code.links[from as usize..to as usize] {
                            let v = l.shape.apply(&l.srcs.map(|s| regs[s as usize + t]));
                            regs[l.dst as usize + t] = l.ty.coerce(v);
                        }
                    }
                }
                SOp::Fold(link) => {
                    let Link {
                        shape,
                        srcs,
                        dst,
                        ty,
                    } = code.links[link as usize];
                    let (own, regs) = (dst - 1, &mut self.regs);
                    let mut acc = regs[own as usize];
                    for t in 0..n {
                        let ins = srcs.map(|s| if s == own { acc } else { regs[s as usize + t] });
                        acc = ty.coerce(shape.apply(&ins));
                        regs[dst as usize + t] = acc;
                    }
                }
                SOp::Out(slot, col, ty) => {
                    self.state.scalars[slot as usize] = ty.coerce(self.regs[col as usize + n - 1]);
                }
            }
        }
        true
    }
}

/// `out[t] = cells[first + t·delta]`.
fn gather(cells: &[f64], first: usize, delta: i64, out: &mut [f64]) {
    match usize::try_from(delta) {
        Ok(1) => out.copy_from_slice(&cells[first..first + out.len()]),
        Ok(d) if d > 0 => {
            for (o, &c) in out.iter_mut().zip(cells[first..].iter().step_by(d)) {
                *o = c;
            }
        }
        _ => {
            for (t, o) in out.iter_mut().enumerate() {
                *o = cells[(first as i64).wrapping_add(t as i64 * delta) as usize];
            }
        }
    }
}

/// `cells[first + t·delta] = ty.coerce(vals[t])`, in order of `t`.
fn scatter(cells: &mut [f64], first: usize, delta: i64, vals: &[f64], ty: ScalarType) {
    fixed!(ty: ScalarType[F32, F64, I8, I16, I32, I64] => match usize::try_from(delta) {
        Ok(1) => {
            for (c, &v) in cells[first..first + vals.len()].iter_mut().zip(vals) {
                *c = ty.coerce(v);
            }
        }
        Ok(d) if d > 0 => {
            for (c, &v) in cells[first..].iter_mut().step_by(d).zip(vals) {
                *c = ty.coerce(v);
            }
        }
        _ => {
            for (t, &v) in vals.iter().enumerate() {
                cells[(first as i64).wrapping_add(t as i64 * delta) as usize] = ty.coerce(v);
            }
        }
    })
}

/// `out[t] = shape(ins[0][t], ins[1][t], …)` for every `t`: the strip's
/// lane loops, one per operator.
fn apply_columns(shape: ExprShape, ins: [&[f64]; 4], out: &mut [f64]) {
    let [a, b, c, d] = ins;
    match shape {
        ExprShape::Copy => out.copy_from_slice(a),
        ExprShape::Unary(op) => fixed!(op: UnOp[Neg, Abs, Sqrt] => {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = op.apply(x);
            }
        }),
        ExprShape::Binary(op) => fixed!(op: BinOp[Add, Sub, Mul, Div, Min, Max] => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = op.apply(x, y);
            }
        }),
        ExprShape::MulAdd => {
            for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
                *o = mul_add(x, y, z);
            }
        }
        ExprShape::Select(op) => fixed!(op: CmpOp[Lt, Le, Gt, Ge, Eq, Ne] => {
            for ((((o, &x), &y), &t), &e) in out.iter_mut().zip(a).zip(b).zip(c).zip(d) {
                *o = if op.apply(x, y) { t } else { e };
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_reference};
    use slp_core::{compile, ExecErrorKind, SlpConfig, Strategy};
    use std::collections::BTreeMap;

    fn machine() -> MachineConfig {
        MachineConfig::intel_dunnington()
    }

    const KERNEL: &str = "kernel k {
        const N = 32;
        array A: f64[2*N+2]; array B: f64[4*N+8];
        scalar a, b: f64;
        for i in 0..N {
            a = A[2*i];
            b = A[2*i+1];
            A[2*i] = a + B[4*i] * a;
            A[2*i+1] = b + B[4*i+2] * b;
        }
    }";

    fn assert_outcomes_identical(src: &str, strategy: Strategy, layout: bool) {
        let p = slp_lang::compile(src).unwrap();
        let mut cfg = SlpConfig::for_machine(machine(), strategy);
        if layout {
            cfg = cfg.with_layout();
        }
        let k = compile(&p, &cfg);
        let fast = execute(&k, &machine()).unwrap();
        let slow = execute_reference(&k, &machine()).unwrap();
        assert!(
            fast.state.bitwise_eq(&slow.state),
            "{strategy:?} memory image diverged"
        );
        assert_eq!(fast.stats, slow.stats, "{strategy:?} stats diverged");
        assert_eq!(fast.vectorized_blocks, slow.vectorized_blocks);
        assert_eq!(fast.block_cycles, slow.block_cycles);
    }

    /// Per strip decision, `(blocks, dynamic ops)` of one kernel's
    /// lowering: every body range is `Ok` (runs in strips) or refused.
    fn tally(bc: &BytecodeKernel, out: &mut BTreeMap<Result<(), Refusal>, (u64, u64)>) {
        fn walk(
            code: &Code,
            nodes: &[Node],
            times: u64,
            decision: Result<(), Refusal>,
            out: &mut BTreeMap<Result<(), Refusal>, (u64, u64)>,
        ) {
            for node in nodes {
                match node {
                    Node::Block(range) => {
                        let (s, e) = code.ranges[*range as usize];
                        let entry = out.entry(decision).or_default();
                        entry.0 += 1;
                        entry.1 += times * u64::from(e - s);
                    }
                    Node::Loop {
                        lower,
                        upper,
                        step,
                        body,
                        strip,
                        ..
                    } => {
                        let trips = LoopHeader {
                            var: LoopVarId::new(0),
                            lower: *lower,
                            upper: *upper,
                            step: *step,
                        }
                        .trip_count() as u64;
                        let decision = match strip {
                            Ok(_) => Ok(()),
                            Err(r) => Err(*r),
                        };
                        walk(code, body, times * trips, decision, out);
                    }
                }
            }
        }
        walk(&bc.code, &bc.code.roots, 1, Err(Refusal::NotWholeLoop), out);
    }

    /// The 20 suite and branchy kernels under the five schemes on both
    /// machines, lowered.
    fn suite_lowerings(scale: usize) -> Vec<BytecodeKernel> {
        let mut programs: Vec<Program> =
            slp_suite::all(scale).into_iter().map(|(_, p)| p).collect();
        programs.extend(
            slp_suite::branchy_catalog()
                .into_iter()
                .map(|name| slp_suite::branchy_kernel(name, scale)),
        );
        let mut out = Vec::new();
        for machine in [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ] {
            for p in &programs {
                for (strategy, layout) in [
                    (Strategy::Scalar, false),
                    (Strategy::Native, false),
                    (Strategy::Baseline, false),
                    (Strategy::Holistic, false),
                    (Strategy::Holistic, true),
                ] {
                    let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
                    if layout {
                        cfg = cfg.with_layout();
                    }
                    let k = compile(p, &cfg);
                    out.push(BytecodeKernel::compile(&k, &machine).unwrap());
                }
            }
        }
        out
    }

    /// Blocks and dynamic ops per strip decision over the suite at
    /// `scale`.
    fn suite_tally(scale: usize) -> BTreeMap<Result<(), Refusal>, (u64, u64)> {
        let mut out = BTreeMap::new();
        for bc in suite_lowerings(scale) {
            tally(&bc, &mut out);
        }
        out
    }

    #[test]
    fn the_strip_decision_over_the_suite_is_pinned() {
        // A change that silently sends fewer bodies through strips moves
        // this table.
        let want = BTreeMap::from([
            (Ok(()), (359, 392_020)),
            (Err(Refusal::Backward), (17, 20_416)),
        ]);
        assert_eq!(suite_tally(1), want);
    }

    #[test]
    fn the_strip_decision_over_the_execute_hot_lowerings_is_pinned() {
        // The 200 lowerings the benchmark's `execute_hot` runs a round of:
        // the dynamic ops DESIGN.md "Strips" counts, and how many ops of
        // guarded strips ran column-wise and fell back.
        let want = BTreeMap::from([
            (Ok(()), (359, 12_555_924)),
            (Err(Refusal::Backward), (17, 665_216)),
        ]);
        let (mut tallied, mut guarded) = (BTreeMap::new(), [0; 2]);
        for bc in suite_lowerings(32) {
            tally(&bc, &mut tallied);
            let (vm, _) = bc.run_vm(MachineState::seeded(&bc.program)).unwrap();
            guarded = [0, 1].map(|k| guarded[k] + vm.guarded[k]);
        }
        assert_eq!(tallied, want);
        assert_eq!(guarded, [253_492, 16_896]);
    }

    /// The strip decisions of `src`'s blocks under `strategy`, after
    /// checking that both engines give the same outcome or error.
    fn decisions(src: &str, strategy: Strategy, checked: bool) -> Vec<Result<(), Refusal>> {
        let p = slp_lang::compile(src).unwrap();
        let k = compile(&p, &SlpConfig::for_machine(machine(), strategy));
        let bc = if checked {
            BytecodeKernel::compile_checked(&k, &machine()).unwrap()
        } else {
            BytecodeKernel::compile(&k, &machine()).unwrap()
        };
        match (bc.run(), execute_reference(&k, &machine())) {
            (Ok(fast), Ok(slow)) => {
                assert!(fast.state.bitwise_eq(&slow.state), "{src}");
                assert_eq!(fast.stats, slow.stats, "{src}");
                assert_eq!(fast.block_cycles, slow.block_cycles, "{src}");
            }
            (fast, slow) => assert_eq!(fast.unwrap_err(), slow.unwrap_err(), "{src}"),
        }
        let mut t = BTreeMap::new();
        tally(&bc, &mut t);
        t.into_keys().collect()
    }

    /// The final state of `src` under Scalar, and the dynamic ops of its
    /// guarded strips that ran column-wise and that fell back.
    fn guarded(src: &str) -> (MachineState, [u64; 2]) {
        let p = slp_lang::compile(src).unwrap();
        let k = compile(&p, &SlpConfig::for_machine(machine(), Strategy::Scalar));
        let bc = BytecodeKernel::compile(&k, &machine()).unwrap();
        let (vm, _) = bc.run_vm(MachineState::seeded(&bc.program)).unwrap();
        (vm.state, vm.guarded)
    }

    // Each refused kernel below would leave a different image if its body
    // ran in strips.

    #[test]
    fn a_backward_distance_across_two_ops_is_refused() {
        // Iteration i reads the A[i] iteration i − 1 wrote.
        let src = "kernel k { array A: f64[17]; array B: f64[16];
                   for i in 0..16 { B[i] = A[i]; A[i+1] = B[i] + 1.0; } }";
        assert_eq!(
            decisions(src, Strategy::Scalar, false),
            [Err(Refusal::Backward)]
        );
        // Reading one cell ahead instead is a forward distance.
        let src = "kernel k { array A: f64[17]; array B: f64[16];
                   for i in 0..16 { B[i] = A[i+1]; A[i] = B[i] + 1.0; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
    }

    #[test]
    fn an_accumulator_runs_in_a_scan() {
        let src = "kernel k { array A: f64[16]; array B: f64[16]; scalar s: f64;
                   for i in 0..16 { s = s + A[i]; B[i] = s * 2.0; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
    }

    #[test]
    fn the_suite_epilogue_strips_unrolled() {
        // The serial section every suite kernel ends with; Holistic
        // unrolls it ×2, so the store of SERIAL_[s_] runs after the scan
        // and past the gather of SERIAL_[s_+1].
        let src = "kernel k { array SERIAL_: f64[16]; scalar serial_acc: f64;
                   for s_ in 0..16 { serial_acc = serial_acc + SERIAL_[s_] * 0.97;
                                     SERIAL_[s_] = serial_acc; } }";
        for strategy in [Strategy::Scalar, Strategy::Holistic] {
            assert_eq!(decisions(src, strategy, false), [Ok(())], "{strategy:?}");
        }
    }

    #[test]
    fn a_read_of_a_carried_scalar_runs_after_the_scan() {
        // Fuzz seed 2792, minimized: `s0` reads the `s2` of the previous
        // iteration, which only the scan computes.
        let src = "kernel k { array A: f64[8]; scalar s0, s2: f64;
                   for i in 0..8 { s0 = 1.5 - s2; s2 = 1.0; A[i] = s0; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
    }

    #[test]
    fn each_write_of_a_scalar_is_its_own_column() {
        // `s0 = s2 + 1.0` runs after the scan, `s0 = 2.0` before it: with
        // one column for `s0`, the loop would leave `s0 = s2 + 1.0`.
        let src = "kernel k { array A: f64[8]; scalar s0, s2: f64;
                   for i in 0..8 { s0 = s2 + 1.0; s0 = 2.0; s2 = A[i] * 3.0; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
    }

    #[test]
    fn a_recurrence_through_memory_is_refused() {
        // Iteration i reads the A[i] iteration i − 1 stored after the scan.
        let src = "kernel k { array A: f64[17]; scalar s: f64;
                   for i in 0..16 { s = s + A[i]; A[i+1] = s; } }";
        assert_eq!(
            decisions(src, Strategy::Scalar, false),
            [Err(Refusal::Backward)]
        );
        // The store of A[i] runs after the scan and the gather for B[i]
        // before it, so this pair swaps; they meet in one iteration.
        let src = "kernel k { array A: f64[16]; array B: f64[16]; scalar s: f64;
                   for i in 0..16 { s = s + A[i]; A[i] = s; B[i] = A[i]; } }";
        assert_eq!(
            decisions(src, Strategy::Scalar, false),
            [Err(Refusal::Backward)]
        );
    }

    #[test]
    fn a_recurrence_the_scan_cannot_run_is_refused() {
        // Holistic packs the two products and unpacks them into `x` and
        // `y`, which the first statement reads before the body writes them.
        let src = "kernel k { array A: f64[16]; array B: f64[16]; scalar x, y: f64;
                   for i in 0..8 { B[2*i] = x + y; x = A[2*i] * 2.0; y = A[2*i+1] * 2.0; } }";
        assert_eq!(
            decisions(src, Strategy::Holistic, false),
            [Err(Refusal::Recurrence)]
        );
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
        // The second write of `s` reads `t`, which reads the first one:
        // the scan would need an op that runs after it.
        let src = "kernel k { array A: f64[8]; scalar s, t: f64;
                   for i in 0..8 { s = s + A[i]; t = s * 2.0; s = t + 1.0; } }";
        assert_eq!(
            decisions(src, Strategy::Scalar, false),
            [Err(Refusal::Recurrence)]
        );
    }

    #[test]
    fn unequal_coefficients_run_behind_a_guard() {
        // Iteration 2i reads the A[2i] iteration i wrote. In the first
        // strip (i < 64) the cells read and written overlap, so it runs
        // iteration by iteration; later strips read A[64..) below the
        // cells they write and run column-wise.
        let src = "kernel k { array A: f64[400];
                   for i in 0..200 { A[2*i] = A[i] + 1.0; } }";
        for strategy in [Strategy::Scalar, Strategy::Holistic] {
            assert_eq!(decisions(src, strategy, false), [Ok(())], "{strategy:?}");
        }
        let [columns, fell] = guarded(src).1;
        assert_eq!(fell * 200, (columns + fell) * 64, "{columns} {fell}");
        // Iteration i reads the A[i+64] iteration (i+64)/2 wrote, inside
        // both strips: every strip keeps iteration order.
        let src = "kernel k { array A: f64[240];
                   for i in 0..120 { A[2*i] = A[i+64] + 1.0; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
        let [columns, fell] = guarded(src).1;
        assert_eq!((columns, fell > 0), (0, true));
    }

    #[test]
    fn a_nan_leaves_the_strip_canonical() {
        // x86 computes `sqrt` of a negative as a NaN with its sign bit
        // set; the columns keep it, `Out` stores the one `f64::NAN`.
        let src = "kernel k { array A: f64[16]; scalar t, x, y: f64;
                   for i in 0..16 { t = A[i] - 100.0; x = sqrt(t); y = neg(x); } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
        let state = guarded(src).0;
        let bits: Vec<u64> = state.scalars.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits[1..], [f64::NAN.to_bits(); 2]);
    }

    #[test]
    fn a_copy_of_a_carried_scalar_reads_the_seed_in_a_one_iteration_strip() {
        // 65 iterations: the last strip has one, so `t`'s column there is
        // the seed cell, the scalar as the previous strip left it.
        let src = "kernel k { array A: f64[65]; array B: f64[65]; scalar s, t: f64;
                   for i in 0..65 { t = s; s = s + A[i]; B[i] = t; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
    }

    #[test]
    fn invariant_columns_are_refilled_on_every_loop_entry() {
        // The outer body rewrites `s`, which the inner strips read as an
        // invariant column.
        let src = "kernel k { array A: f64[24]; array B: f64[3]; scalar s: f64;
                   for j in 0..3 { s = B[j] * 2.0;
                                   for i in 0..8 { A[8*j+i] = A[8*j+i] + s; } } }";
        assert_eq!(
            decisions(src, Strategy::Scalar, false),
            [Ok(()), Err(Refusal::NotWholeLoop)]
        );
    }

    #[test]
    fn an_uncertified_access_is_refused() {
        // A[i] faults at i = 7: in strips, B would be written through
        // before the fault.
        let src = "kernel k { array A: f64[7]; array B: f64[8];
                   for i in 0..8 { B[i] = 1.0; A[i] = B[i]; } }";
        assert_eq!(
            decisions(src, Strategy::Scalar, false),
            [Err(Refusal::Unchecked)]
        );
        // The checked lowering keeps every bounds check, so it never
        // strips.
        let src = "kernel k { array A: f64[8]; array B: f64[8];
                   for i in 0..8 { B[i] = 1.0; A[i] = B[i]; } }";
        assert_eq!(decisions(src, Strategy::Scalar, false), [Ok(())]);
        assert_eq!(
            decisions(src, Strategy::Scalar, true),
            [Err(Refusal::Unchecked)]
        );
    }

    #[test]
    fn matches_reference_across_strategies() {
        for strategy in [
            Strategy::Scalar,
            Strategy::Native,
            Strategy::Baseline,
            Strategy::Holistic,
        ] {
            assert_outcomes_identical(KERNEL, strategy, false);
        }
        assert_outcomes_identical(KERNEL, Strategy::Holistic, true);
    }

    #[test]
    fn an_over_budget_program_is_refused_before_memory_is_seeded() {
        // 2^40 cells: seeding them would abort the process, so an `Err`
        // here shows every entry checked the budget first.
        let p = slp_lang::compile(
            "kernel big { array A: f64[1099511627776];
             for i in 0..4 { A[i] = A[i] + 1.0; } }",
        )
        .unwrap();
        let k = compile(&p, &SlpConfig::for_machine(machine(), Strategy::Holistic));
        let codes = crate::lower_kernel(&k, &machine(), true);
        for err in [
            BytecodeKernel::from_codes(&k, &machine(), &codes).unwrap_err(),
            BytecodeKernel::compile(&k, &machine()).unwrap_err(),
            BytecodeKernel::compile_checked(&k, &machine()).unwrap_err(),
            execute(&k, &machine()).unwrap_err(),
            execute_reference(&k, &machine()).unwrap_err(),
        ] {
            assert_eq!(err.kind(), ExecErrorKind::ResourceLimit, "{err}");
        }
    }

    #[test]
    fn runs_are_repeatable() {
        let p = slp_lang::compile(KERNEL).unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Holistic);
        let k = compile(&p, &cfg);
        let bc = BytecodeKernel::compile(&k, &machine()).unwrap();
        let a = bc.run().unwrap();
        let b = bc.run().unwrap();
        assert!(a.state.bitwise_eq(&b.state));
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn out_of_bounds_keeps_the_reference_message() {
        let src = "kernel bad { array A: f64[4]; scalar x: f64;
                    for i in 0..8 { x = A[i]; A[i] = x; } }";
        let p = slp_lang::compile(src).unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Scalar);
        let k = compile(&p, &cfg);
        // A proven-faulting access never loses its runtime check, so the
        // certificate machinery cannot swallow the trap.
        assert!(k.safety.proven_faulting() > 0);
        let bc = BytecodeKernel::compile(&k, &machine()).unwrap();
        assert_eq!(bc.unchecked_accesses().0, 0);
        let fast = execute(&k, &machine()).unwrap_err();
        let slow = execute_reference(&k, &machine()).unwrap_err();
        assert_eq!(fast, slow);
        assert_eq!(fast.kind(), ExecErrorKind::OutOfBounds);
    }

    #[test]
    fn certified_accesses_run_unchecked_and_match_the_checked_engine() {
        let p = slp_lang::compile(
            "kernel c { array A: f64[64]; array B: f64[64];
             for i in 0..64 { A[i] = B[i] * 2.0; } }",
        )
        .unwrap();
        for strategy in [Strategy::Scalar, Strategy::Holistic] {
            let cfg = SlpConfig::for_machine(machine(), strategy);
            let k = compile(&p, &cfg);
            assert!(k.safety.all_proven_safe());
            let fast = BytecodeKernel::compile(&k, &machine()).unwrap();
            let (unchecked, total) = fast.unchecked_accesses();
            assert_eq!(
                unchecked, total,
                "{strategy:?}: every certified access should drop its check"
            );
            let checked = BytecodeKernel::compile_checked(&k, &machine()).unwrap();
            assert_eq!(
                checked.unchecked_accesses().0,
                0,
                "{strategy:?}: compile_checked must keep every check"
            );
            let a = fast.run().unwrap();
            let b = checked.run().unwrap();
            let r = execute_reference(&k, &machine()).unwrap();
            assert!(a.state.bitwise_eq(&b.state), "{strategy:?}");
            assert!(a.state.bitwise_eq(&r.state), "{strategy:?}");
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.stats, r.stats);
        }
    }

    #[test]
    fn undefined_register_is_a_typed_translation_error() {
        // A block whose only instruction consumes a register nothing
        // defines: the reference engine would fail at run time; the
        // translator rejects it up front with a typed error.
        let p =
            slp_lang::compile("kernel m { array A: f64[4]; for i in 0..4 { A[i] = A[i] + 1.0; } }")
                .unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Scalar);
        let k = compile(&p, &cfg);
        let infos = k.program.blocks();
        let codes: Vec<(BlockId, BlockCode)> = infos
            .iter()
            .map(|info| {
                (
                    info.id,
                    BlockCode {
                        preheader: Vec::new(),
                        insts: vec![VInst::Store {
                            src: VReg(7),
                            refs: Vec::new(),
                            class: slp_core::AccessClass::Aligned,
                        }],
                        vectorized: false,
                        static_metrics: InstMetrics::default(),
                        preheader_metrics: InstMetrics::default(),
                    },
                )
            })
            .collect();
        let err = BytecodeKernel::from_codes(&k, &machine(), &codes).unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::UndefinedRegister);
        assert!(err.to_string().contains("undefined register x7"));
    }

    #[test]
    fn malformed_permute_is_a_typed_translation_error() {
        let p =
            slp_lang::compile("kernel m { array A: f64[4]; for i in 0..4 { A[i] = A[i] + 1.0; } }")
                .unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Scalar);
        let k = compile(&p, &cfg);
        let infos = k.program.blocks();
        let codes: Vec<(BlockId, BlockCode)> = infos
            .iter()
            .map(|info| {
                (
                    info.id,
                    BlockCode {
                        preheader: Vec::new(),
                        insts: vec![
                            VInst::ConstVec {
                                dst: VReg(0),
                                values: vec![1.0, 2.0],
                            },
                            VInst::Permute {
                                dst: VReg(1),
                                src: VReg(0),
                                perm: vec![0, 5],
                            },
                        ],
                        vectorized: false,
                        static_metrics: InstMetrics::default(),
                        preheader_metrics: InstMetrics::default(),
                    },
                )
            })
            .collect();
        let err = BytecodeKernel::from_codes(&k, &machine(), &codes).unwrap_err();
        assert_eq!(err.kind(), ExecErrorKind::MalformedCode);
    }

    #[test]
    fn lane_runs_and_the_preheader_guard_are_decided_at_translation() {
        use slp_core::AccessClass::Gather;
        // The statements only supply certified references to build lanes
        // from: three reads of `A` and two `i32` stores.
        let p = slp_lang::compile(
            "kernel m { array A: f64[16]; array B: i32[16]; scalar x: f64;
             for i in 0..4 { x = A[i]; x = A[i+1]; x = A[2*i+2];
                             B[2*i] = x * 1.5; B[2*i+1] = x * 2.5; } }",
        )
        .unwrap();
        let k = compile(&p, &SlpConfig::for_machine(machine(), Strategy::Scalar));
        let info = &k.program.blocks()[0];
        let refs: Vec<ArrayRef> = info
            .block
            .stmts()
            .iter()
            .map(|s| match (s.dest(), s.expr().operands()[0]) {
                (Dest::Array(r), _) | (_, Operand::Array(r)) => r.clone(),
                _ => panic!("every statement touches an array"),
            })
            .collect();
        let [a0, a1, a2, b0, b1] = <[ArrayRef; 5]>::try_from(refs).unwrap();

        // `(loaded lanes, hoisted?)` → `(is one run, accesses unchecked)`.
        let cases = [
            (vec![a0.clone(), a1.clone()], false, true, 4),
            (vec![a1.clone(), a0.clone()], false, false, 4), // reversed
            (vec![a0.clone(), a0.clone()], false, false, 4), // repeated
            (vec![a0.clone(), a2.clone()], false, false, 4), // other coefficient
            // Hoisted above the loop its subscripts use: `i` reads as 0,
            // which the certificate never judged, so both lanes stay
            // checked.
            (vec![a0.clone(), a1.clone()], true, false, 2),
        ];
        for (lanes, hoisted, run, unchecked) in cases {
            let load = VInst::Load {
                dst: VReg(0),
                refs: lanes.clone(),
                class: Gather,
            };
            let store = VInst::Store {
                src: VReg(0),
                refs: vec![b0.clone(), b1.clone()],
                class: Gather,
            };
            let (preheader, insts) = if hoisted {
                (vec![load], vec![store])
            } else {
                (Vec::new(), vec![load, store])
            };
            let codes = vec![(
                info.id,
                BlockCode {
                    preheader,
                    insts,
                    vectorized: true,
                    static_metrics: InstMetrics::default(),
                    preheader_metrics: InstMetrics::default(),
                },
            )];
            let certified = BytecodeKernel::from_codes(&k, &machine(), &codes).unwrap();
            let infos = k.program.blocks();
            let checked = BytecodeKernel::translate(&k, &machine(), &infos, &codes, false).unwrap();
            let load_runs = |bc: &BytecodeKernel| {
                let mut loads = bc.code.ops.iter().filter_map(|op| match op {
                    BOp::Load(ld) => Some(ld.acc.run),
                    _ => None,
                });
                loads.next().expect("one load")
            };
            assert_eq!(load_runs(&certified), run, "{lanes:?} hoisted {hoisted}");
            assert!(
                !load_runs(&checked),
                "a checked lowering moves lane by lane"
            );
            assert_eq!(certified.unchecked_accesses(), (unchecked, 4));
            let (x, y) = (certified.run().unwrap(), checked.run().unwrap());
            assert!(x.state.bitwise_eq(&y.state), "{lanes:?} hoisted {hoisted}");
            assert_eq!(x.stats, y.stats);
            // The `i32` store truncates each lane: the last iteration
            // leaves B[6] = trunc(lane 0 at i = 3, or at 0 when hoisted).
            let i = if hoisted { 0 } else { 3 };
            let lane0 = lanes[0].access.eval(&[(info.loops[0].var, i)])[0] as usize;
            let seeded = MachineState::seeded(&k.program);
            assert_eq!(
                x.state.load_array(b0.array, 6),
                seeded.load_array(lanes[0].array, lane0).map(f64::trunc)
            );
        }
    }
}
