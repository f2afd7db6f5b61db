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
//! * of an instruction's [`InstMetrics`] only the two `f64` sums
//!   (`cycles`, `memory_cycles`) are order-sensitive and are added per
//!   op; the five integer counters are summed per op *range* (a block's
//!   preheader or body) at translation, the run only counts executions of
//!   each range, and `runs × sum` is folded into [`RunStats`] at the end,
//! * common adjacent pairs (load+op, splat+op, op+store) are fused into
//!   superinstructions, halving dispatch for the dominant patterns.
//!
//! Execution semantics are *bit-identical* to the reference engine —
//! cycle accumulation order, iteration counting, replication
//! population, coercions, truncating zips, per-block cycle attribution
//! and error strings are all preserved — which the
//! differential gate (`verify::differential` and the
//! `engine_differential` test) checks continuously.

use std::collections::HashMap;

use slp_core::{CompiledKernel, CostParams, MachineConfig, Replication, SafetyCert};
use slp_ir::{
    ArrayId, ArrayRef, BlockId, BlockInfo, Dest, ExprShape, Item, LoopVarId, Operand, Program,
    ScalarType, StmtId, TypeEnv,
};

use crate::code::{InstMetrics, SplatSrc, VInst, VReg};
use crate::codegen::{lower_kernel_with, BlockCode};
use crate::exec::{populate_replication, Outcome, RunStats};
use crate::memory::MachineState;
use crate::ExecError;

/// A register slot: base index into the flat register arena. Widths are
/// carried by the consuming instruction (lane count, op width).
type RegBase = u32;

/// A `(start, end)` range into one of the side pools.
type Range = (u32, u32);

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

/// The splat source with its scalar slot pre-resolved (the `from_memory`
/// flag only affects the precomputed metrics).
#[derive(Debug, Clone, Copy)]
enum SplatVal {
    Const(f64),
    Var(u32),
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

/// The order-sensitive part of an instruction's [`InstMetrics`]: the two
/// `f64` sums the run adds per op, in the reference engine's order.
#[derive(Debug, Clone, Copy)]
struct Cost {
    cycles: f64,
    memory_cycles: f64,
}

/// A scalar statement; `args` is the first of `arity(shape)` consecutive
/// operands in the argument pool.
#[derive(Debug, Clone, Copy)]
struct Stmt {
    m: u32,
    shape: ExprShape,
    args: u32,
    dest: RDest,
}

/// A vector load into, or store from, register `reg`.
#[derive(Debug, Clone, Copy)]
struct Mem {
    m: u32,
    reg: RegBase,
    acc: Lanes,
}

/// A broadcast of `src` into `width` lanes.
#[derive(Debug, Clone, Copy)]
struct Splat {
    m: u32,
    dst: RegBase,
    width: u32,
    src: SplatVal,
}

/// An elementwise operation over `width` lanes.
#[derive(Debug, Clone, Copy)]
struct Alu {
    m: u32,
    dst: RegBase,
    width: u32,
    shape: ExprShape,
    srcs: Range,
}

/// One dense, pre-resolved instruction. `m*` fields index the cost pool;
/// cost accumulation happens *before* the value effect, exactly like the
/// reference engine, and fused pairs interleave
/// (m₁, effect₁, m₂, effect₂) so the non-associative `f64` cycle sums
/// stay bit-identical.
#[derive(Debug, Clone, Copy)]
enum BOp {
    Scalar(Stmt),
    Load(Mem),
    Store(Mem),
    Pack {
        m: u32,
        dst: RegBase,
        vars: Range,
    },
    Unpack {
        m: u32,
        src: RegBase,
        lanes: Range,
    },
    ConstVec {
        m: u32,
        dst: RegBase,
        vals: Range,
    },
    Splat(Splat),
    Permute {
        m: u32,
        dst: RegBase,
        src: RegBase,
        perm: Range,
    },
    /// Spill/Reload: cost-only bookkeeping, values stay in their slots.
    Nop {
        m: u32,
    },
    Op(Alu),
    /// Superinstruction: a load immediately feeding an op.
    LoadOp(Mem, Alu),
    /// Superinstruction: a splat immediately feeding an op.
    SplatOp(Splat, Alu),
    /// Superinstruction: an op whose result is immediately stored.
    OpStore(Alu, Mem),
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
    costs: Vec<Cost>,
    /// Per op range, its instructions' metrics summed (only the integer
    /// counters are read).
    counts: Vec<InstMetrics>,
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
    cost: CostParams,
    replications: Vec<Replication>,
    vectorized_blocks: usize,
    code: Code,
}

impl BytecodeKernel {
    /// Lowers `kernel` for `machine` (running the regular
    /// [`lower_kernel`](crate::lower_kernel) code generator, cost gate as
    /// given) and translates the result to bytecode.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ExecError`] when the generated code is
    /// malformed: a use of a never-defined register
    /// ([`ExecErrorKind::UndefinedRegister`](crate::ExecErrorKind)),
    /// or structural inconsistencies such as lane-width mismatches and
    /// out-of-range permutation indices
    /// ([`ExecErrorKind::MalformedCode`](crate::ExecErrorKind)).
    pub fn compile(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        cost_gate: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        BytecodeKernel::lowered(kernel, machine, cost_gate, true)
    }

    /// Like [`BytecodeKernel::compile`], but keeps every per-dimension
    /// bounds check even for accesses the kernel's memory-safety
    /// certificate proved safe. This is the `--no-unchecked` escape
    /// hatch and the baseline `tests/safety_suite.rs` holds the
    /// certified lowering bit-identical to.
    pub fn compile_checked(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        cost_gate: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        BytecodeKernel::lowered(kernel, machine, cost_gate, false)
    }

    /// Lowers and translates `kernel` over one extraction of its blocks.
    fn lowered(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        cost_gate: bool,
        elide_checks: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        let infos = kernel.program.blocks();
        let permuted_reuse = kernel.config.strategy.permuted_reuse();
        let codes = lower_kernel_with(kernel, &infos, machine, cost_gate, permuted_reuse);
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
    /// certificate-proven accesses may drop their bounds checks.
    fn translate(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        infos: &[BlockInfo],
        codes: &[(BlockId, BlockCode)],
        elide_checks: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        let program = &kernel.program;
        let mut array_base = Vec::with_capacity(program.arrays().len());
        let mut cells = 0u32;
        for a in program.arrays() {
            array_base.push(cells);
            cells += a.len().max(0) as u32;
        }

        let mut tr = Translator {
            program,
            cost: &machine.cost,
            array_base,
            safety: &kernel.safety,
            block: BlockId(0),
            elide_checks,
            coeffs: Vec::new(),
            code: Code::default(),
        };

        let mut by_first: HashMap<StmtId, u32> = HashMap::new();
        for (slot, (info, (id, code))) in infos.iter().zip(codes).enumerate() {
            debug_assert_eq!(info.id, *id);
            tr.block = info.id;
            let body_stack: Vec<LoopVarId> = info.loops.iter().map(|h| h.var).collect();
            let pre_stack = &body_stack[..body_stack.len().saturating_sub(1)];
            let mut map: HashMap<u32, (u32, u32)> = HashMap::new();
            let (pre, pre_counts) = tr.translate_stream(&code.preheader, pre_stack, &mut map)?;
            let (body, body_counts) = tr.translate_stream(&code.insts, &body_stack, &mut map)?;
            let pre = tr.fuse_stream(pre);
            let body = tr.fuse_stream(body);
            tr.append(pre, pre_counts);
            tr.append(body, body_counts);
            tr.code.block_ids.push(*id);
            by_first.insert(info.block.stmts()[0].id(), slot as u32);
        }

        let mut code = tr.code;
        code.roots = build_nodes(program.items(), &by_first, 0, &mut code.loop_depth)?;
        Ok(BytecodeKernel {
            program: program.clone(),
            cost: machine.cost,
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
    pub fn run_from(&self, mut state: MachineState) -> Result<Outcome, ExecError> {
        state.check_shape(&self.program)?;
        let mut stats = RunStats::default();
        for r in &self.replications {
            populate_replication(&self.program, &self.cost, &mut state, &mut stats, r)?;
        }

        let code = &self.code;
        let mut vm = Vm {
            code,
            program: &self.program,
            loop_overhead: self.cost.loop_overhead,
            state,
            regs: vec![0.0f64; code.reg_len as usize],
            // One spare slot, so a subscript without loop variables
            // (`coeff` 0 at depth 0) evaluates outside any loop too.
            loop_vals: vec![0; code.loop_depth.max(1)],
            stats,
            block_cycles: vec![0.0; code.block_ids.len()],
            runs: vec![0; code.counts.len()],
        };
        vm.run_nodes(&code.roots, 0)?;

        // The integer counters: what each op range charges per execution
        // times how often it ran, plus loop control's increment + branch.
        let mut stats = vm.stats;
        stats.metrics.dynamic_instructions += 2 * stats.iterations;
        let mut block_cycles = Vec::new();
        for (slot, &id) in code.block_ids.iter().enumerate() {
            let mut seen = false;
            for range in [2 * slot, 2 * slot + 1] {
                let (per_run, runs) = (&code.counts[range], vm.runs[range]);
                let m = &mut stats.metrics;
                m.dynamic_instructions += runs * per_run.dynamic_instructions;
                m.memory_ops += runs * per_run.memory_ops;
                m.packing_ops += runs * per_run.packing_ops;
                m.permutes += runs * per_run.permutes;
                m.simd_ops += runs * per_run.simd_ops;
                seen |= runs > 0;
            }
            if seen {
                block_cycles.push((id, vm.block_cycles[slot]));
            }
        }
        block_cycles.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(Outcome {
            state: vm.state,
            stats,
            vectorized_blocks: self.vectorized_blocks,
            block_cycles,
        })
    }

    /// Number of dense instructions in the pool (after fusion).
    pub fn op_count(&self) -> usize {
        self.code.ops.len()
    }

    /// Number of fused superinstructions in the pool.
    pub fn fused_count(&self) -> usize {
        self.code
            .ops
            .iter()
            .filter(|op| matches!(op, BOp::LoadOp(..) | BOp::SplatOp(..) | BOp::OpStore(..)))
            .count()
    }
}

/// Positional operand count of an operator shape.
fn arity(shape: ExprShape) -> usize {
    match shape {
        ExprShape::Copy | ExprShape::Unary(_) => 1,
        ExprShape::Binary(_) => 2,
        ExprShape::MulAdd => 3,
        ExprShape::Select(_) => 4,
    }
}

fn use_reg(map: &HashMap<u32, (u32, u32)>, r: VReg) -> Result<(u32, u32), ExecError> {
    map.get(&r.0)
        .copied()
        .ok_or_else(|| ExecError::undefined_register(format!("read of undefined register {r}")))
}

/// Builds the execution tree of `items`, which sit inside `depth` loops,
/// raising `max_depth` to the deepest nesting met.
fn build_nodes(
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
                let body = build_nodes(&l.body, by_first, depth + 1, max_depth)?;
                out.push(Node::Loop {
                    lower: l.header.lower,
                    upper: l.header.upper,
                    step: l.header.step,
                    preheaders,
                    body,
                });
                idx += 1;
            }
        }
    }
    Ok(out)
}

struct Translator<'a> {
    program: &'a Program,
    cost: &'a CostParams,
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
    fn cost_row(&mut self, row: &InstMetrics) -> u32 {
        self.code.costs.push(Cost {
            cycles: row.cycles,
            memory_cycles: row.memory_cycles,
        });
        (self.code.costs.len() - 1) as u32
    }

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

    /// Translates one instruction stream. Besides the ops, returns the
    /// stream's summed metrics (see [`Code::counts`]).
    fn translate_stream(
        &mut self,
        insts: &[VInst],
        stack: &[LoopVarId],
        map: &mut HashMap<u32, (u32, u32)>,
    ) -> Result<(Vec<BOp>, InstMetrics), ExecError> {
        let mut out = Vec::with_capacity(insts.len());
        let mut counts = InstMetrics::default();
        for inst in insts {
            let row = inst.metrics(self.cost);
            let m = self.cost_row(&row);
            let op = match inst {
                VInst::Scalar { stmt, .. } => {
                    // `Expr` holds exactly `arity(shape)` operands.
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
                        m,
                        shape: stmt.expr().shape(),
                        args: start,
                        dest,
                    })
                }
                VInst::Load { dst, refs, .. } => {
                    let acc = self.add_lanes(refs, stack);
                    let reg = self.def(map, *dst, refs.len());
                    BOp::Load(Mem { m, reg, acc })
                }
                VInst::Store { src, refs, .. } => {
                    let (reg, width) = use_reg(map, *src)?;
                    let n = refs.len().min(width as usize);
                    let acc = self.add_lanes(&refs[..n], stack);
                    BOp::Store(Mem { m, reg, acc })
                }
                VInst::PackScalars { dst, vars, .. } => {
                    let start = self.code.var_slots.len() as u32;
                    let slots = vars.iter().map(|v| v.index() as u32);
                    self.code.var_slots.extend(slots);
                    let dst = self.def(map, *dst, vars.len());
                    BOp::Pack {
                        m,
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
                        m,
                        src: base,
                        lanes: (start, self.code.lanes.len() as u32),
                    }
                }
                VInst::ConstVec { dst, values } => {
                    let start = self.code.consts.len() as u32;
                    self.code.consts.extend_from_slice(values);
                    let dst = self.def(map, *dst, values.len());
                    BOp::ConstVec {
                        m,
                        dst,
                        vals: (start, self.code.consts.len() as u32),
                    }
                }
                VInst::Splat { dst, src, width } => {
                    let src = match src {
                        SplatSrc::Const(c) => SplatVal::Const(*c),
                        SplatSrc::Scalar { var, .. } => SplatVal::Var(var.index() as u32),
                    };
                    let dst = self.def(map, *dst, *width);
                    BOp::Splat(Splat {
                        m,
                        dst,
                        width: *width as u32,
                        src,
                    })
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
                        m,
                        dst,
                        src: base,
                        perm: (start, self.code.perms.len() as u32),
                    }
                }
                VInst::Spill { .. } | VInst::Reload { .. } => BOp::Nop { m },
                VInst::Op { dst, shape, srcs } => {
                    if srcs.len() < arity(*shape) {
                        return Err(ExecError::malformed(format!(
                            "{:?} op has {} source register(s), needs {}",
                            shape,
                            srcs.len(),
                            arity(*shape)
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
                        m,
                        dst,
                        width,
                        shape: *shape,
                        srcs: (start, self.code.srcs.len() as u32),
                    })
                }
            };
            out.push(op);
            counts.add(&row);
        }
        Ok((out, counts))
    }

    /// Greedy peephole fusion of adjacent pairs within one stream (never
    /// across the preheader/body boundary — the streams execute at
    /// different times).
    fn fuse_stream(&self, ops: Vec<BOp>) -> Vec<BOp> {
        let uses = |srcs: Range, base: RegBase| {
            self.code.srcs[srcs.0 as usize..srcs.1 as usize].contains(&base)
        };
        let mut out = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let fused = match (ops[i], ops.get(i + 1)) {
                (BOp::Load(ld), Some(&BOp::Op(op))) if uses(op.srcs, ld.reg) => {
                    Some(BOp::LoadOp(ld, op))
                }
                (BOp::Splat(sp), Some(&BOp::Op(op))) if uses(op.srcs, sp.dst) => {
                    Some(BOp::SplatOp(sp, op))
                }
                (BOp::Op(op), Some(&BOp::Store(st))) if st.reg == op.dst => {
                    Some(BOp::OpStore(op, st))
                }
                _ => None,
            };
            match fused {
                Some(f) => {
                    out.push(f);
                    i += 2;
                }
                None => {
                    out.push(ops[i]);
                    i += 1;
                }
            }
        }
        out
    }

    /// Appends one finished stream as the next op range.
    fn append(&mut self, ops: Vec<BOp>, counts: InstMetrics) {
        let start = self.code.ops.len() as u32;
        self.code.ops.extend(ops);
        self.code.ranges.push((start, self.code.ops.len() as u32));
        self.code.counts.push(counts);
    }
}

struct Vm<'a> {
    code: &'a Code,
    /// Cold path only: array names and extents for error messages.
    program: &'a Program,
    loop_overhead: f64,
    state: MachineState,
    regs: Vec<f64>,
    /// The enclosing loops' counters, outermost first.
    loop_vals: Vec<i64>,
    /// `cycles` and `memory_cycles` accumulate here op by op; the integer
    /// counters hold only what replication charged until the run is over.
    stats: RunStats,
    block_cycles: Vec<f64>,
    /// Executions of each op range.
    runs: Vec<u64>,
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
                } => {
                    // Preheaders of blocks directly inside this loop run
                    // once per loop entry (hoisted invariant packs).
                    if lower < upper {
                        for &range in preheaders {
                            self.run_range(range)?;
                        }
                    }
                    let mut v = *lower;
                    while v < *upper {
                        self.loop_vals[depth] = v;
                        match body.as_slice() {
                            // The usual innermost loop: no tree to walk.
                            [Node::Block(range)] => self.run_range(*range)?,
                            _ => self.run_nodes(body, depth + 1)?,
                        }
                        v += step;
                        // Loop control: increment + branch.
                        self.stats.iterations += 1;
                        self.stats.metrics.cycles += self.loop_overhead;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one op range, attributing its cycles to its block and
    /// counting the execution.
    fn run_range(&mut self, range: u32) -> Result<(), ExecError> {
        let range = range as usize;
        let before = self.stats.metrics.cycles;
        self.run_ops(self.code.ranges[range])?;
        self.block_cycles[range / 2] += self.stats.metrics.cycles - before;
        self.runs[range] += 1;
        Ok(())
    }

    fn run_ops(&mut self, (start, end): Range) -> Result<(), ExecError> {
        let code = self.code;
        for op in &code.ops[start as usize..end as usize] {
            match op {
                BOp::Scalar(st) => self.exec_scalar(st)?,
                BOp::Load(ld) => self.exec_load(ld)?,
                BOp::Store(st) => self.exec_store(st)?,
                &BOp::Pack { m, dst, vars } => {
                    self.charge(m);
                    for (j, i) in (vars.0..vars.1).enumerate() {
                        self.regs[dst as usize + j] =
                            self.state.scalars[code.var_slots[i as usize] as usize];
                    }
                }
                &BOp::Unpack { m, src, lanes } => {
                    self.charge(m);
                    for (j, i) in (lanes.0..lanes.1).enumerate() {
                        let (slot, ty) = code.lanes[i as usize];
                        self.state.scalars[slot as usize] = ty.coerce(self.regs[src as usize + j]);
                    }
                }
                &BOp::ConstVec { m, dst, vals } => {
                    self.charge(m);
                    let src = &code.consts[vals.0 as usize..vals.1 as usize];
                    let d = dst as usize;
                    self.regs[d..d + src.len()].copy_from_slice(src);
                }
                BOp::Splat(sp) => self.exec_splat(sp),
                &BOp::Permute { m, dst, src, perm } => {
                    self.charge(m);
                    for (k, p) in (perm.0..perm.1).enumerate() {
                        self.regs[dst as usize + k] =
                            self.regs[src as usize + code.perms[p as usize] as usize];
                    }
                }
                &BOp::Nop { m } => self.charge(m),
                BOp::Op(op) => self.exec_op(op),
                BOp::LoadOp(ld, op) => {
                    self.exec_load(ld)?;
                    self.exec_op(op);
                }
                BOp::SplatOp(sp, op) => {
                    self.exec_splat(sp);
                    self.exec_op(op);
                }
                BOp::OpStore(op, st) => {
                    self.exec_op(op);
                    self.exec_store(st)?;
                }
            }
        }
        Ok(())
    }

    /// Adds cost row `m` to the two order-sensitive sums.
    #[inline(always)]
    fn charge(&mut self, m: u32) {
        let cost = &self.code.costs[m as usize];
        self.stats.metrics.cycles += cost.cycles;
        self.stats.metrics.memory_cycles += cost.memory_cycles;
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
            } => {
                let mut at =
                    offset.wrapping_add(coeff.wrapping_mul(self.loop_vals[depth as usize]));
                if more.0 < more.1 {
                    for &(depth, coeff) in &self.code.terms[more.0 as usize..more.1 as usize] {
                        at = at.wrapping_add(coeff.wrapping_mul(self.loop_vals[depth as usize]));
                    }
                }
                Ok(at as usize)
            }
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

    fn exec_load(&mut self, &Mem { m, reg, acc }: &Mem) -> Result<(), ExecError> {
        self.charge(m);
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

    fn exec_store(&mut self, &Mem { m, reg, acc }: &Mem) -> Result<(), ExecError> {
        self.charge(m);
        let (s, w) = (reg as usize, acc.width as usize);
        if acc.run {
            let ty = self.code.accesses[acc.first as usize].ty;
            let at = self.addr(acc.first)?;
            let (cells, regs) = (&mut self.state.cells[at..at + w], &self.regs[s..s + w]);
            if ty.is_float() {
                cells.copy_from_slice(regs);
            } else {
                for (cell, &v) in cells.iter_mut().zip(regs) {
                    *cell = ty.coerce(v);
                }
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

    fn exec_splat(&mut self, sp: &Splat) {
        self.charge(sp.m);
        let v = match sp.src {
            SplatVal::Const(c) => c,
            SplatVal::Var(s) => self.state.scalars[s as usize],
        };
        let d = sp.dst as usize;
        self.regs[d..d + sp.width as usize].fill(v);
    }

    /// Elementwise op over pre-resolved source bases. Destination slots
    /// are always fresh (one per static definition), so there is no
    /// aliasing with sources.
    fn exec_op(&mut self, op: &Alu) {
        self.charge(op.m);
        let s = &self.code.srcs[op.srcs.0 as usize..op.srcs.1 as usize];
        let (d, w) = (op.dst as usize, op.width as usize);
        match op.shape {
            ExprShape::Copy => {
                let a = s[0] as usize;
                self.regs.copy_within(a..a + w, d);
            }
            ExprShape::Unary(op) => {
                let a = s[0] as usize;
                for k in 0..w {
                    self.regs[d + k] = op.apply(self.regs[a + k]);
                }
            }
            ExprShape::Binary(op) => {
                let (a, b) = (s[0] as usize, s[1] as usize);
                for k in 0..w {
                    self.regs[d + k] = op.apply(self.regs[a + k], self.regs[b + k]);
                }
            }
            ExprShape::MulAdd => {
                let (a, b, c) = (s[0] as usize, s[1] as usize, s[2] as usize);
                for k in 0..w {
                    self.regs[d + k] = self.regs[a + k] + self.regs[b + k] * self.regs[c + k];
                }
            }
            ExprShape::Select(op) => {
                let (a, b, t, e) = (s[0] as usize, s[1] as usize, s[2] as usize, s[3] as usize);
                for k in 0..w {
                    self.regs[d + k] = if op.apply(self.regs[a + k], self.regs[b + k]) {
                        self.regs[t + k]
                    } else {
                        self.regs[e + k]
                    };
                }
            }
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
        self.charge(st.m);
        let a = st.args as usize;
        let result = match st.shape {
            ExprShape::Copy => self.arg(a)?,
            ExprShape::Unary(op) => op.apply(self.arg(a)?),
            ExprShape::Binary(op) => op.apply(self.arg(a)?, self.arg(a + 1)?),
            ExprShape::MulAdd => self.arg(a)? + self.arg(a + 1)? * self.arg(a + 2)?,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_gated, execute_gated_reference};
    use slp_core::{compile, ExecErrorKind, SlpConfig, Strategy};

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
        let fast = execute_gated(&k, &machine(), true).unwrap();
        let slow = execute_gated_reference(&k, &machine(), true).unwrap();
        assert!(
            fast.state.bitwise_eq(&slow.state),
            "{strategy:?} memory image diverged"
        );
        assert_eq!(fast.stats, slow.stats, "{strategy:?} stats diverged");
        assert_eq!(fast.vectorized_blocks, slow.vectorized_blocks);
        assert_eq!(fast.block_cycles, slow.block_cycles);
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
    fn fusion_fires_on_vectorized_code() {
        let p = slp_lang::compile(
            "kernel f { array A: f64[64]; array B: f64[64];
             for i in 0..64 { A[i] = B[i] * 2.0; } }",
        )
        .unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Holistic);
        let k = compile(&p, &cfg);
        let bc = BytecodeKernel::compile(&k, &machine(), true).unwrap();
        assert!(bc.fused_count() > 0, "expected superinstructions");
        assert!(bc.op_count() > 0);
    }

    #[test]
    fn runs_are_repeatable() {
        let p = slp_lang::compile(KERNEL).unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Holistic);
        let k = compile(&p, &cfg);
        let bc = BytecodeKernel::compile(&k, &machine(), true).unwrap();
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
        let bc = BytecodeKernel::compile(&k, &machine(), true).unwrap();
        assert_eq!(bc.unchecked_accesses().0, 0);
        let fast = execute_gated(&k, &machine(), true).unwrap_err();
        let slow = execute_gated_reference(&k, &machine(), true).unwrap_err();
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
            let fast = BytecodeKernel::compile(&k, &machine(), true).unwrap();
            let (unchecked, total) = fast.unchecked_accesses();
            assert_eq!(
                unchecked, total,
                "{strategy:?}: every certified access should drop its check"
            );
            let checked = BytecodeKernel::compile_checked(&k, &machine(), true).unwrap();
            assert_eq!(
                checked.unchecked_accesses().0,
                0,
                "{strategy:?}: compile_checked must keep every check"
            );
            let a = fast.run().unwrap();
            let b = checked.run().unwrap();
            let r = execute_gated_reference(&k, &machine(), true).unwrap();
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
