//! The fast-path execution engine: pre-resolved bytecode over flat
//! arenas.
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
//! a dense [`BOp`] pool in which *everything is a pre-resolved numeric
//! index*:
//!
//! * virtual registers become disjoint slots of one flat `f64` arena
//!   (assigned per static definition, so the translator also proves every
//!   use has a reaching definition and rejects malformed code with a
//!   typed [`ExecError`] instead of panicking),
//! * arrays are concatenated into one flat memory arena with per-array
//!   bases; each [`ArrayRef`] becomes per-dimension
//!   `constant + Σ coeff·loop_slot` terms over loop-*depth* indices, so a
//!   subscript evaluation is a few adds and multiplies with no
//!   environment search,
//! * scalars live in a dense `f64` frame indexed by `VarId` position,
//! * per-instruction [`InstMetrics`] are computed once at translation and
//!   accumulated by pool index at run time,
//! * common adjacent pairs (load+op, splat+op, op+store) are fused into
//!   superinstructions, halving dispatch for the dominant patterns.
//!
//! Execution semantics are *bit-identical* to the reference engine —
//! metric accumulation order, iteration/first-iteration protocol,
//! replication population, coercions, truncating zips, per-block cycle
//! attribution and error strings are all preserved — which the
//! differential gate (`verify::differential` and the
//! `engine_differential` test) checks continuously.

use std::collections::HashMap;

use slp_core::{CompiledKernel, CostParams, MachineConfig, Replication, SafetyCert};
use slp_ir::{
    ArrayId, ArrayRef, BinOp, BlockId, Dest, ExprShape, Item, LoopVarId, Operand, Program,
    ScalarType, StmtId, TypeEnv, UnOp,
};

use crate::code::{InstMetrics, SplatSrc, VInst, VReg};
use crate::codegen::{lower_kernel, BlockCode};
use crate::exec::{apply_shape, populate_replication, ExecError, Outcome, RunStats};
use crate::memory::MachineState;

/// A register slot: base index into the flat register arena. Widths are
/// carried by the consuming instruction (access count, op width).
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

/// One dimension of a resolved access: `constant + Σ coeff·loop_vals[d]`
/// checked against `0 <= · < extent` and folded with `stride`.
#[derive(Debug, Clone, Copy)]
struct Dim {
    constant: i64,
    terms: Range,
    extent: i64,
    stride: i64,
}

/// A fully resolved array reference.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// The referenced array (cold-path error rendering only).
    array: ArrayId,
    /// The array's base in the flat memory arena.
    base: u32,
    /// The array's element type (store coercion).
    ty: ScalarType,
    /// The per-dimension index expressions.
    dims: Range,
    /// Whether the access rank matches the array rank; a mismatch is
    /// unconditionally out of bounds (as in `ArrayInfo::in_bounds`).
    rank_ok: bool,
    /// Whether the per-dimension bounds checks must run. `false` only
    /// when the kernel's memory-safety certificate proved the access in
    /// bounds for every iteration (and check elision was not disabled),
    /// licensing the fast unchecked resolve path.
    checked: bool,
}

/// One dense, pre-resolved instruction. `m*` fields index the metrics
/// pool; metric accumulation happens *before* the value effect, exactly
/// like the reference engine, and fused pairs interleave
/// (m₁, effect₁, m₂, effect₂) so the non-associative `f64` cycle sums
/// stay bit-identical.
#[derive(Debug, Clone, Copy)]
enum BOp {
    Scalar {
        m: u32,
        shape: ExprShape,
        args: Range,
        dest: RDest,
    },
    Load {
        m: u32,
        dst: RegBase,
        acc: Range,
    },
    Store {
        m: u32,
        src: RegBase,
        acc: Range,
    },
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
    Splat {
        m: u32,
        dst: RegBase,
        width: u32,
        src: SplatVal,
    },
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
    Carried {
        m_first: u32,
        m_steady: u32,
        dst: RegBase,
        from: RegBase,
        acc: Range,
    },
    Op {
        m: u32,
        dst: RegBase,
        width: u32,
        shape: ExprShape,
        srcs: Range,
    },
    /// Superinstruction: `Load` immediately feeding an `Op`.
    LoadOp {
        m1: u32,
        ld_dst: RegBase,
        acc: Range,
        m2: u32,
        dst: RegBase,
        width: u32,
        shape: ExprShape,
        srcs: Range,
    },
    /// Superinstruction: `Splat` immediately feeding an `Op`.
    SplatOp {
        m1: u32,
        sp_dst: RegBase,
        sp_width: u32,
        sp_src: SplatVal,
        m2: u32,
        dst: RegBase,
        width: u32,
        shape: ExprShape,
        srcs: Range,
    },
    /// Superinstruction: an `Op` whose result is immediately stored.
    OpStore {
        m1: u32,
        dst: RegBase,
        width: u32,
        shape: ExprShape,
        srcs: Range,
        m2: u32,
        acc: Range,
    },
}

/// The execution tree: blocks (op ranges) and loops, mirroring the
/// program's item structure with all ids pre-resolved to block slots.
#[derive(Debug, Clone)]
enum Node {
    Block {
        slot: u32,
        ops: Range,
    },
    Loop {
        lower: i64,
        upper: i64,
        step: i64,
        /// Preheader op ranges of blocks directly inside this loop, run
        /// once per loop entry.
        preheaders: Vec<(u32, Range)>,
        body: Vec<Node>,
    },
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
    roots: Vec<Node>,
    ops: Vec<BOp>,
    metrics: Vec<InstMetrics>,
    accesses: Vec<Access>,
    dims: Vec<Dim>,
    terms: Vec<(u32, i64)>,
    args: Vec<RArg>,
    var_slots: Vec<u32>,
    lanes: Vec<(u32, ScalarType)>,
    consts: Vec<f64>,
    perms: Vec<u32>,
    srcs: Vec<u32>,
    array_base: Vec<u32>,
    array_len: Vec<u32>,
    arena_len: usize,
    reg_len: usize,
    block_ids: Vec<BlockId>,
    vectorized_blocks: usize,
    loop_metrics: InstMetrics,
}

impl BytecodeKernel {
    /// Lowers `kernel` for `machine` (running the regular
    /// [`lower_kernel`] code generator, cost gate as given) and
    /// translates the result to bytecode.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ExecError`] when the generated code is
    /// malformed: a use of a never-defined register
    /// ([`ExecErrorKind::UndefinedRegister`](crate::exec::ExecErrorKind)),
    /// or structural inconsistencies such as lane-width mismatches and
    /// out-of-range permutation indices
    /// ([`ExecErrorKind::MalformedCode`](crate::exec::ExecErrorKind)).
    pub fn compile(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        cost_gate: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        let codes = lower_kernel(kernel, machine, cost_gate);
        BytecodeKernel::from_codes(kernel, machine, &codes)
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
        let codes = lower_kernel(kernel, machine, cost_gate);
        BytecodeKernel::from_codes_with(kernel, machine, &codes, false)
    }

    /// `(unchecked, total)` array-access counts of this lowering: how
    /// many accesses the kernel's memory-safety certificate let run
    /// without their per-dimension bounds checks. Under
    /// [`BytecodeKernel::compile_checked`] the first count is always 0.
    pub fn unchecked_accesses(&self) -> (usize, usize) {
        let unchecked = self.accesses.iter().filter(|a| !a.checked).count();
        (unchecked, self.accesses.len())
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
        BytecodeKernel::from_codes_with(kernel, machine, codes, true)
    }

    /// [`BytecodeKernel::from_codes`] with explicit control over whether
    /// certificate-proven accesses may drop their bounds checks.
    fn from_codes_with(
        kernel: &CompiledKernel,
        machine: &MachineConfig,
        codes: &[(BlockId, BlockCode)],
        elide_checks: bool,
    ) -> Result<BytecodeKernel, ExecError> {
        let program = &kernel.program;
        let mut array_base = Vec::new();
        let mut array_len = Vec::new();
        let mut arena_len = 0u32;
        for a in program.array_ids() {
            let len = program.array(a).len().max(0) as u32;
            array_base.push(arena_len);
            array_len.push(len);
            arena_len += len;
        }

        let mut tr = Translator {
            program,
            cost: &machine.cost,
            ops: Vec::new(),
            metrics: Vec::new(),
            accesses: Vec::new(),
            dims: Vec::new(),
            terms: Vec::new(),
            args: Vec::new(),
            var_slots: Vec::new(),
            lanes: Vec::new(),
            consts: Vec::new(),
            perms: Vec::new(),
            srcs: Vec::new(),
            array_base: &array_base,
            reg_len: 0,
            safety: &kernel.safety,
            block: BlockId(0),
            elide_checks,
        };

        let infos = program.blocks();
        let mut pre_ranges = Vec::with_capacity(codes.len());
        let mut body_ranges = Vec::with_capacity(codes.len());
        let mut block_ids = Vec::with_capacity(codes.len());
        let mut by_first: HashMap<StmtId, u32> = HashMap::new();
        for (slot, (info, (id, code))) in infos.iter().zip(codes).enumerate() {
            debug_assert_eq!(info.id, *id);
            tr.block = info.id;
            let body_stack: Vec<LoopVarId> = info.loops.iter().map(|h| h.var).collect();
            let pre_stack = &body_stack[..body_stack.len().saturating_sub(1)];
            let mut map: HashMap<u32, (u32, u32)> = HashMap::new();
            let mut pend_pre = Vec::new();
            let mut pend_body = Vec::new();
            let mut pre =
                tr.translate_stream(&code.preheader, pre_stack, &mut map, &mut pend_pre)?;
            let mut body =
                tr.translate_stream(&code.insts, &body_stack, &mut map, &mut pend_body)?;
            resolve_pending(&mut pre, &pend_pre, &map)?;
            resolve_pending(&mut body, &pend_body, &map)?;
            let pre = tr.fuse_stream(pre);
            let body = tr.fuse_stream(body);
            pre_ranges.push(tr.append(pre));
            body_ranges.push(tr.append(body));
            block_ids.push(*id);
            by_first.insert(info.block.stmts()[0].id(), slot as u32);
        }

        let roots = build_nodes(program.items(), &by_first, &pre_ranges, &body_ranges)?;

        let Translator {
            ops,
            metrics,
            accesses,
            dims,
            terms,
            args,
            var_slots,
            lanes,
            consts,
            perms,
            srcs,
            reg_len,
            ..
        } = tr;
        Ok(BytecodeKernel {
            program: program.clone(),
            cost: machine.cost,
            replications: kernel.replications.clone(),
            roots,
            ops,
            metrics,
            accesses,
            dims,
            terms,
            args,
            var_slots,
            lanes,
            consts,
            perms,
            srcs,
            array_base,
            array_len,
            arena_len: arena_len as usize,
            reg_len: reg_len as usize,
            block_ids,
            vectorized_blocks: codes.iter().filter(|(_, c)| c.vectorized).count(),
            loop_metrics: InstMetrics {
                cycles: machine.cost.loop_overhead,
                dynamic_instructions: 2,
                ..InstMetrics::default()
            },
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
    /// instead of the deterministic seeds. The state must have been
    /// allocated for this kernel's program (same arrays, same lengths) —
    /// start from [`MachineState::seeded`] and overwrite the cells of
    /// interest. Replicated arrays are repopulated from their sources
    /// before the kernel's loops run, exactly as in [`BytecodeKernel::run`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on out-of-bounds accesses.
    pub fn run_from(&self, state: MachineState) -> Result<Outcome, ExecError> {
        let mut stats = RunStats::default();
        let mut state = state;
        for r in &self.replications {
            populate_replication(&self.program, &self.cost, &mut state, &mut stats, r)?;
        }
        let (arrays, scalars) = state.into_parts();
        let mut arena = vec![0.0f64; self.arena_len];
        for (i, arr) in arrays.iter().enumerate() {
            let b = self.array_base[i] as usize;
            arena[b..b + arr.len()].copy_from_slice(arr);
        }

        let blocks = self.block_ids.len();
        let mut vm = Vm {
            bc: self,
            arena,
            scalars,
            regs: vec![0.0f64; self.reg_len],
            loop_vals: Vec::new(),
            stats,
            first: true,
            block_cycles: vec![0.0; blocks],
            block_seen: vec![false; blocks],
        };
        vm.run_nodes(&self.roots)?;

        let arrays = self
            .array_base
            .iter()
            .zip(&self.array_len)
            .map(|(&b, &n)| vm.arena[b as usize..b as usize + n as usize].to_vec())
            .collect();
        let mut block_cycles: Vec<(BlockId, f64)> = self
            .block_ids
            .iter()
            .enumerate()
            .filter(|&(s, _)| vm.block_seen[s])
            .map(|(s, &id)| (id, vm.block_cycles[s]))
            .collect();
        block_cycles.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        Ok(Outcome {
            state: MachineState::from_parts(arrays, vm.scalars),
            stats: vm.stats,
            vectorized_blocks: self.vectorized_blocks,
            block_cycles,
        })
    }

    /// Number of dense instructions in the pool (after fusion).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of fused superinstructions in the pool.
    pub fn fused_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    BOp::LoadOp { .. } | BOp::SplatOp { .. } | BOp::OpStore { .. }
                )
            })
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

/// Patches forward `carried_from` references once a block's full stream
/// has been translated (the carried source is defined *later* in the
/// body, by construction of the cross-iteration-reuse pass).
fn resolve_pending(
    ops: &mut [BOp],
    pending: &[(usize, VReg)],
    map: &HashMap<u32, (u32, u32)>,
) -> Result<(), ExecError> {
    for &(i, r) in pending {
        let (base, width) = use_reg(map, r)?;
        if let BOp::Carried { from, acc, .. } = &mut ops[i] {
            let need = acc.1 - acc.0;
            if width != need {
                return Err(ExecError::malformed(format!(
                    "carried load expects {need} lane(s) from {r}, register has {width}"
                )));
            }
            *from = base;
        }
    }
    Ok(())
}

fn build_nodes(
    items: &[Item],
    by_first: &HashMap<StmtId, u32>,
    pre_ranges: &[Range],
    body_ranges: &[Range],
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
                out.push(Node::Block {
                    slot,
                    ops: body_ranges[slot as usize],
                });
                idx = end;
            }
            Item::Loop(l) => {
                let mut preheaders = Vec::new();
                for body_item in &l.body {
                    if let Item::Stmt(first) = body_item {
                        if let Some(&slot) = by_first.get(&first.id()) {
                            preheaders.push((slot, pre_ranges[slot as usize]));
                        }
                    }
                }
                let body = build_nodes(&l.body, by_first, pre_ranges, body_ranges)?;
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
    ops: Vec<BOp>,
    metrics: Vec<InstMetrics>,
    accesses: Vec<Access>,
    dims: Vec<Dim>,
    terms: Vec<(u32, i64)>,
    args: Vec<RArg>,
    var_slots: Vec<u32>,
    lanes: Vec<(u32, ScalarType)>,
    consts: Vec<f64>,
    perms: Vec<u32>,
    srcs: Vec<u32>,
    array_base: &'a [u32],
    reg_len: u32,
    safety: &'a SafetyCert,
    block: BlockId,
    elide_checks: bool,
}

impl<'a> Translator<'a> {
    fn metric(&mut self, inst: &VInst) -> u32 {
        self.metrics.push(inst.metrics(self.cost));
        (self.metrics.len() - 1) as u32
    }

    /// Assigns a fresh arena slot to a register definition. Zero-width
    /// definitions do not define (the reference engine treats an empty
    /// register vector as undefined).
    fn def(&mut self, map: &mut HashMap<u32, (u32, u32)>, r: VReg, width: usize) -> u32 {
        if width == 0 {
            map.remove(&r.0);
            return 0;
        }
        let base = self.reg_len;
        self.reg_len += width as u32;
        map.insert(r.0, (base, width as u32));
        base
    }

    /// Resolves one array reference against the loop-variable stack at
    /// this nesting depth. Variables outside the stack are dropped — they
    /// contribute zero, exactly like `AffineExpr::eval` on a missing
    /// environment entry.
    fn add_access(&mut self, r: &ArrayRef, stack: &[LoopVarId]) -> u32 {
        let info = self.program.array(r.array);
        let rank_ok = r.access.rank() == info.dims.len();
        // Check elision is licensed only when (a) the certificate proved
        // this reference safe in this block, and (b) every subscript
        // variable is on the current stack: the certificate evaluated
        // the reference under the block's *full* loop environment, so a
        // preheader-hoisted access whose dropped variable would read as
        // zero here is outside what was proven and stays checked.
        let checked = !(self.elide_checks
            && rank_ok
            && r.access
                .dims()
                .iter()
                .all(|e| e.terms().all(|(v, _)| stack.contains(&v)))
            && self.safety.is_proven_safe(self.block, r));
        let dim_start = self.dims.len() as u32;
        for (d, e) in r.access.dims().iter().enumerate() {
            let term_start = self.terms.len() as u32;
            for (v, c) in e.terms() {
                if let Some(pos) = stack.iter().position(|&s| s == v) {
                    self.terms.push((pos as u32, c));
                }
            }
            let (extent, stride) = if rank_ok {
                (info.dims[d], info.dims[d + 1..].iter().product())
            } else {
                (0, 0)
            };
            self.dims.push(Dim {
                constant: e.constant(),
                terms: (term_start, self.terms.len() as u32),
                extent,
                stride,
            });
        }
        self.accesses.push(Access {
            array: r.array,
            base: self.array_base[r.array.index()],
            ty: info.ty,
            dims: (dim_start, self.dims.len() as u32),
            rank_ok,
            checked,
        });
        (self.accesses.len() - 1) as u32
    }

    fn add_accesses(&mut self, refs: &[ArrayRef], stack: &[LoopVarId]) -> Range {
        let start = self.accesses.len() as u32;
        for r in refs {
            self.add_access(r, stack);
        }
        (start, self.accesses.len() as u32)
    }

    fn translate_stream(
        &mut self,
        insts: &[VInst],
        stack: &[LoopVarId],
        map: &mut HashMap<u32, (u32, u32)>,
        pending: &mut Vec<(usize, VReg)>,
    ) -> Result<Vec<BOp>, ExecError> {
        let mut out = Vec::with_capacity(insts.len());
        for inst in insts {
            let m = self.metric(inst);
            let op = match inst {
                VInst::Scalar { stmt, .. } => {
                    let operands = stmt.expr().operands();
                    if operands.len() > 4 {
                        return Err(ExecError::malformed(format!(
                            "statement {} has {} operands (max 4)",
                            stmt.id(),
                            operands.len()
                        )));
                    }
                    let start = self.args.len() as u32;
                    for o in operands {
                        let arg = match o {
                            Operand::Const(c) => RArg::Const(*c),
                            Operand::Scalar(v) => RArg::Scalar(v.index() as u32),
                            Operand::Array(r) => RArg::Array(self.add_access(r, stack)),
                        };
                        self.args.push(arg);
                    }
                    let dest = match stmt.dest() {
                        Dest::Scalar(v) => RDest::Scalar {
                            slot: v.index() as u32,
                            ty: TypeEnv::scalar_type(self.program, *v),
                        },
                        Dest::Array(r) => RDest::Array(self.add_access(r, stack)),
                    };
                    BOp::Scalar {
                        m,
                        shape: stmt.expr().shape(),
                        args: (start, self.args.len() as u32),
                        dest,
                    }
                }
                VInst::Load { dst, refs, .. } => {
                    let acc = self.add_accesses(refs, stack);
                    let dst = self.def(map, *dst, refs.len());
                    BOp::Load { m, dst, acc }
                }
                VInst::Store { src, refs, .. } => {
                    let (base, width) = use_reg(map, *src)?;
                    let n = refs.len().min(width as usize);
                    let acc = self.add_accesses(&refs[..n], stack);
                    BOp::Store { m, src: base, acc }
                }
                VInst::PackScalars { dst, vars, .. } => {
                    let start = self.var_slots.len() as u32;
                    self.var_slots.extend(vars.iter().map(|v| v.index() as u32));
                    let dst = self.def(map, *dst, vars.len());
                    BOp::Pack {
                        m,
                        dst,
                        vars: (start, self.var_slots.len() as u32),
                    }
                }
                VInst::UnpackScalars { src, vars, .. } => {
                    let (base, width) = use_reg(map, *src)?;
                    let n = vars.len().min(width as usize);
                    let start = self.lanes.len() as u32;
                    self.lanes.extend(
                        vars[..n]
                            .iter()
                            .map(|&v| (v.index() as u32, TypeEnv::scalar_type(self.program, v))),
                    );
                    BOp::Unpack {
                        m,
                        src: base,
                        lanes: (start, self.lanes.len() as u32),
                    }
                }
                VInst::ConstVec { dst, values } => {
                    let start = self.consts.len() as u32;
                    self.consts.extend_from_slice(values);
                    let dst = self.def(map, *dst, values.len());
                    BOp::ConstVec {
                        m,
                        dst,
                        vals: (start, self.consts.len() as u32),
                    }
                }
                VInst::Splat { dst, src, width } => {
                    let src = match src {
                        SplatSrc::Const(c) => SplatVal::Const(*c),
                        SplatSrc::Scalar { var, .. } => SplatVal::Var(var.index() as u32),
                    };
                    let dst = self.def(map, *dst, *width);
                    BOp::Splat {
                        m,
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
                    let start = self.perms.len() as u32;
                    self.perms.extend(perm.iter().map(|&j| j as u32));
                    let dst = self.def(map, *dst, perm.len());
                    BOp::Permute {
                        m,
                        dst,
                        src: base,
                        perm: (start, self.perms.len() as u32),
                    }
                }
                VInst::Spill { .. } | VInst::Reload { .. } => BOp::Nop { m },
                VInst::CarriedLoad {
                    dst,
                    refs,
                    class,
                    carried_from,
                } => {
                    let as_load = VInst::Load {
                        dst: VReg(0), // cost lookup only
                        refs: refs.clone(),
                        class: *class,
                    };
                    let m_first = self.metric(&as_load);
                    let acc = self.add_accesses(refs, stack);
                    let dst = self.def(map, *dst, refs.len());
                    pending.push((out.len(), *carried_from));
                    BOp::Carried {
                        m_first,
                        m_steady: m,
                        dst,
                        from: 0, // patched by resolve_pending
                        acc,
                    }
                }
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
                    let start = self.srcs.len() as u32;
                    self.srcs.extend(resolved.iter().map(|&(b, _)| b));
                    let dst = self.def(map, *dst, width as usize);
                    BOp::Op {
                        m,
                        dst,
                        width,
                        shape: *shape,
                        srcs: (start, self.srcs.len() as u32),
                    }
                }
            };
            out.push(op);
        }
        Ok(out)
    }

    /// Greedy peephole fusion of adjacent pairs within one stream (never
    /// across the preheader/body boundary — the streams execute at
    /// different times).
    fn fuse_stream(&self, ops: Vec<BOp>) -> Vec<BOp> {
        let uses = |srcs: Range, base: RegBase| {
            self.srcs[srcs.0 as usize..srcs.1 as usize].contains(&base)
        };
        let mut out = Vec::with_capacity(ops.len());
        let mut i = 0;
        while i < ops.len() {
            let fused = if i + 1 < ops.len() {
                match (&ops[i], &ops[i + 1]) {
                    (
                        &BOp::Load {
                            m,
                            dst: ld_dst,
                            acc,
                        },
                        &BOp::Op {
                            m: m2,
                            dst,
                            width,
                            shape,
                            srcs,
                        },
                    ) if uses(srcs, ld_dst) => Some(BOp::LoadOp {
                        m1: m,
                        ld_dst,
                        acc,
                        m2,
                        dst,
                        width,
                        shape,
                        srcs,
                    }),
                    (
                        &BOp::Splat {
                            m,
                            dst: sp_dst,
                            width: sp_width,
                            src: sp_src,
                        },
                        &BOp::Op {
                            m: m2,
                            dst,
                            width,
                            shape,
                            srcs,
                        },
                    ) if uses(srcs, sp_dst) => Some(BOp::SplatOp {
                        m1: m,
                        sp_dst,
                        sp_width,
                        sp_src,
                        m2,
                        dst,
                        width,
                        shape,
                        srcs,
                    }),
                    (
                        &BOp::Op {
                            m,
                            dst,
                            width,
                            shape,
                            srcs,
                        },
                        &BOp::Store { m: m2, src, acc },
                    ) if src == dst => Some(BOp::OpStore {
                        m1: m,
                        dst,
                        width,
                        shape,
                        srcs,
                        m2,
                        acc,
                    }),
                    _ => None,
                }
            } else {
                None
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

    fn append(&mut self, ops: Vec<BOp>) -> Range {
        let start = self.ops.len() as u32;
        self.ops.extend(ops);
        (start, self.ops.len() as u32)
    }
}

struct Vm<'a> {
    bc: &'a BytecodeKernel,
    arena: Vec<f64>,
    scalars: Vec<f64>,
    regs: Vec<f64>,
    loop_vals: Vec<i64>,
    stats: RunStats,
    first: bool,
    block_cycles: Vec<f64>,
    block_seen: Vec<bool>,
}

impl<'a> Vm<'a> {
    fn run_nodes(&mut self, nodes: &[Node]) -> Result<(), ExecError> {
        for node in nodes {
            match node {
                Node::Block { slot, ops } => {
                    let before = self.stats.metrics.cycles;
                    self.run_ops(*ops)?;
                    self.charge(*slot, before);
                }
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
                        for &(slot, range) in preheaders {
                            let before = self.stats.metrics.cycles;
                            self.run_ops(range)?;
                            self.charge(slot, before);
                        }
                    }
                    let saved_first = self.first;
                    let mut v = *lower;
                    while v < *upper {
                        self.first = v == *lower;
                        self.loop_vals.push(v);
                        self.run_nodes(body)?;
                        self.loop_vals.pop();
                        v += step;
                        // Loop control: increment + branch.
                        self.stats.iterations += 1;
                        self.stats.metrics.add(&self.bc.loop_metrics);
                    }
                    self.first = saved_first;
                }
            }
        }
        Ok(())
    }

    fn charge(&mut self, slot: u32, before: f64) {
        self.block_cycles[slot as usize] += self.stats.metrics.cycles - before;
        self.block_seen[slot as usize] = true;
    }

    fn run_ops(&mut self, range: Range) -> Result<(), ExecError> {
        let bc = self.bc;
        for op in &bc.ops[range.0 as usize..range.1 as usize] {
            match *op {
                BOp::Scalar {
                    m,
                    shape,
                    args,
                    dest,
                } => {
                    self.add_metric(m);
                    self.exec_scalar(shape, args, dest)?;
                }
                BOp::Load { m, dst, acc } => {
                    self.add_metric(m);
                    self.exec_load(dst, acc)?;
                }
                BOp::Store { m, src, acc } => {
                    self.add_metric(m);
                    self.exec_store(src, acc)?;
                }
                BOp::Pack { m, dst, vars } => {
                    self.add_metric(m);
                    for (j, i) in (vars.0..vars.1).enumerate() {
                        self.regs[dst as usize + j] =
                            self.scalars[bc.var_slots[i as usize] as usize];
                    }
                }
                BOp::Unpack { m, src, lanes } => {
                    self.add_metric(m);
                    for (j, i) in (lanes.0..lanes.1).enumerate() {
                        let (slot, ty) = bc.lanes[i as usize];
                        self.scalars[slot as usize] = ty.coerce(self.regs[src as usize + j]);
                    }
                }
                BOp::ConstVec { m, dst, vals } => {
                    self.add_metric(m);
                    let src = &bc.consts[vals.0 as usize..vals.1 as usize];
                    let d = dst as usize;
                    self.regs[d..d + src.len()].copy_from_slice(src);
                }
                BOp::Splat { m, dst, width, src } => {
                    self.add_metric(m);
                    self.exec_splat(dst, width, src);
                }
                BOp::Permute { m, dst, src, perm } => {
                    self.add_metric(m);
                    for (k, p) in (perm.0..perm.1).enumerate() {
                        self.regs[dst as usize + k] =
                            self.regs[src as usize + bc.perms[p as usize] as usize];
                    }
                }
                BOp::Nop { m } => self.add_metric(m),
                BOp::Carried {
                    m_first,
                    m_steady,
                    dst,
                    from,
                    acc,
                } => {
                    // A real load on the first iteration, a register move
                    // after.
                    if self.first {
                        self.add_metric(m_first);
                        self.exec_load(dst, acc)?;
                    } else {
                        self.add_metric(m_steady);
                        let w = (acc.1 - acc.0) as usize;
                        let (d, f) = (dst as usize, from as usize);
                        for j in 0..w {
                            self.regs[d + j] = self.regs[f + j];
                        }
                    }
                }
                BOp::Op {
                    m,
                    dst,
                    width,
                    shape,
                    srcs,
                } => {
                    self.add_metric(m);
                    self.exec_op(dst, width, shape, srcs);
                }
                BOp::LoadOp {
                    m1,
                    ld_dst,
                    acc,
                    m2,
                    dst,
                    width,
                    shape,
                    srcs,
                } => {
                    self.add_metric(m1);
                    self.exec_load(ld_dst, acc)?;
                    self.add_metric(m2);
                    self.exec_op(dst, width, shape, srcs);
                }
                BOp::SplatOp {
                    m1,
                    sp_dst,
                    sp_width,
                    sp_src,
                    m2,
                    dst,
                    width,
                    shape,
                    srcs,
                } => {
                    self.add_metric(m1);
                    self.exec_splat(sp_dst, sp_width, sp_src);
                    self.add_metric(m2);
                    self.exec_op(dst, width, shape, srcs);
                }
                BOp::OpStore {
                    m1,
                    dst,
                    width,
                    shape,
                    srcs,
                    m2,
                    acc,
                } => {
                    self.add_metric(m1);
                    self.exec_op(dst, width, shape, srcs);
                    self.add_metric(m2);
                    self.exec_store(dst, acc)?;
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn add_metric(&mut self, m: u32) {
        self.stats.metrics.add(&self.bc.metrics[m as usize]);
    }

    /// Evaluates access `a` to a flat arena index, bounds-checked per
    /// dimension exactly like `ArrayInfo::in_bounds` + `linearize`.
    #[inline]
    fn resolve(&self, a: u32) -> Result<usize, ExecError> {
        let bc = self.bc;
        let acc = &bc.accesses[a as usize];
        if !acc.checked {
            // Certificate-proven access: the per-dimension range checks
            // were discharged statically, only the address math remains.
            let mut off = 0i64;
            for dim in &bc.dims[acc.dims.0 as usize..acc.dims.1 as usize] {
                let mut v = dim.constant;
                for &(depth, coeff) in &bc.terms[dim.terms.0 as usize..dim.terms.1 as usize] {
                    v += coeff * self.loop_vals[depth as usize];
                }
                off += v * dim.stride;
            }
            return Ok(acc.base as usize + off as usize);
        }
        if !acc.rank_ok {
            return Err(self.oob(acc));
        }
        let mut off = 0i64;
        for dim in &bc.dims[acc.dims.0 as usize..acc.dims.1 as usize] {
            let mut v = dim.constant;
            for &(depth, coeff) in &bc.terms[dim.terms.0 as usize..dim.terms.1 as usize] {
                v += coeff * self.loop_vals[depth as usize];
            }
            if v < 0 || v >= dim.extent {
                return Err(self.oob(acc));
            }
            off += v * dim.stride;
        }
        Ok(acc.base as usize + off as usize)
    }

    /// Cold path: reconstructs the reference engine's out-of-bounds
    /// message from the resolved access.
    #[cold]
    fn oob(&self, acc: &Access) -> ExecError {
        let bc = self.bc;
        let info = bc.program.array(acc.array);
        let idx: Vec<i64> = bc.dims[acc.dims.0 as usize..acc.dims.1 as usize]
            .iter()
            .map(|dim| {
                let mut v = dim.constant;
                for &(depth, coeff) in &bc.terms[dim.terms.0 as usize..dim.terms.1 as usize] {
                    v += coeff * self.loop_vals[depth as usize];
                }
                v
            })
            .collect();
        ExecError::out_of_bounds(format!(
            "{}{:?} out of bounds (dims {:?})",
            info.name, idx, info.dims
        ))
    }

    fn exec_load(&mut self, dst: RegBase, acc: Range) -> Result<(), ExecError> {
        for (j, a) in (acc.0..acc.1).enumerate() {
            let idx = self.resolve(a)?;
            self.regs[dst as usize + j] = self.arena[idx];
        }
        Ok(())
    }

    fn exec_store(&mut self, src: RegBase, acc: Range) -> Result<(), ExecError> {
        let bc = self.bc;
        for (j, a) in (acc.0..acc.1).enumerate() {
            let idx = self.resolve(a)?;
            let ty = bc.accesses[a as usize].ty;
            self.arena[idx] = ty.coerce(self.regs[src as usize + j]);
        }
        Ok(())
    }

    fn exec_splat(&mut self, dst: RegBase, width: u32, src: SplatVal) {
        let v = match src {
            SplatVal::Const(c) => c,
            SplatVal::Var(s) => self.scalars[s as usize],
        };
        let d = dst as usize;
        for slot in &mut self.regs[d..d + width as usize] {
            *slot = v;
        }
    }

    /// Elementwise op over pre-resolved source bases. Destination slots
    /// are always fresh (one per static definition), so there is no
    /// aliasing with sources.
    fn exec_op(&mut self, dst: RegBase, width: u32, shape: ExprShape, srcs: Range) {
        let bc = self.bc;
        let s = &bc.srcs[srcs.0 as usize..srcs.1 as usize];
        let d = dst as usize;
        let w = width as usize;
        match shape {
            ExprShape::Copy => {
                let a = s[0] as usize;
                for k in 0..w {
                    self.regs[d + k] = self.regs[a + k];
                }
            }
            ExprShape::Unary(op) => {
                let a = s[0] as usize;
                for k in 0..w {
                    let x = self.regs[a + k];
                    self.regs[d + k] = match op {
                        UnOp::Neg => -x,
                        UnOp::Abs => x.abs(),
                        UnOp::Sqrt => x.sqrt(),
                    };
                }
            }
            ExprShape::Binary(op) => {
                let (a, b) = (s[0] as usize, s[1] as usize);
                for k in 0..w {
                    let (x, y) = (self.regs[a + k], self.regs[b + k]);
                    self.regs[d + k] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                    };
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

    fn exec_scalar(&mut self, shape: ExprShape, args: Range, dest: RDest) -> Result<(), ExecError> {
        let bc = self.bc;
        let a = &bc.args[args.0 as usize..args.1 as usize];
        let mut vals = [0.0f64; 4];
        for (i, arg) in a.iter().enumerate() {
            vals[i] = match *arg {
                RArg::Const(c) => c,
                RArg::Scalar(s) => self.scalars[s as usize],
                RArg::Array(acc) => self.arena[self.resolve(acc)?],
            };
        }
        let result = apply_shape(shape, &vals[..a.len()]);
        match dest {
            RDest::Scalar { slot, ty } => {
                self.scalars[slot as usize] = ty.coerce(result);
            }
            RDest::Array(acc) => {
                let idx = self.resolve(acc)?;
                let ty = bc.accesses[acc as usize].ty;
                self.arena[idx] = ty.coerce(result);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::BlockCode;
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

    fn assert_outcomes_identical(src: &str, strategy: Strategy, layout: bool, reuse: bool) {
        let p = slp_lang::compile(src).unwrap();
        let mut cfg = SlpConfig::for_machine(machine(), strategy);
        if layout {
            cfg = cfg.with_layout();
        }
        cfg.cross_iteration_reuse = reuse;
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
            assert_outcomes_identical(KERNEL, strategy, false, false);
        }
        assert_outcomes_identical(KERNEL, Strategy::Holistic, true, false);
        assert_outcomes_identical(KERNEL, Strategy::Holistic, false, true);
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
        assert!(bc.accesses.iter().all(|a| a.checked));
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
            assert!(
                fast.accesses.iter().all(|a| !a.checked),
                "{strategy:?}: every certified access should drop its check"
            );
            let checked = BytecodeKernel::compile_checked(&k, &machine(), true).unwrap();
            assert!(
                checked.accesses.iter().all(|a| a.checked),
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
                            class: crate::code::AccessClass::Aligned,
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
}
