//! The interpreter: runs a compiled kernel on the simulated machine,
//! producing the final memory image and the §7 counters.
//!
//! Values always flow through the architectural state (`MachineState`),
//! while *costs* come from each instruction's static classification — a
//! lane whose [`LaneSink`](crate::code::LaneSink) is `Free` still updates
//! the scalar's value (so later consumers observe it) but charges
//! nothing, exactly like a register-allocated temporary.

use std::collections::HashMap;

use slp_core::{CompiledKernel, CostParams, MachineConfig, Replication};
use slp_ir::{ArrayRef, BinOp, Dest, ExprShape, Item, LoopVarId, Operand, Program, StmtId, UnOp};

use crate::code::{InstMetrics, SplatSrc, VInst};
use crate::codegen::{lower_kernel, BlockCode};
use crate::memory::MachineState;

use slp_core::ExecError;

/// Counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunStats {
    /// Accumulated instruction metrics.
    pub metrics: InstMetrics,
    /// Loop iterations executed.
    pub iterations: u64,
}

impl RunStats {
    /// Simulated wall-clock seconds on `machine`.
    pub fn seconds(&self, machine: &MachineConfig) -> f64 {
        self.metrics.cycles / (machine.clock_ghz * 1e9)
    }
}

/// The result of executing a kernel.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Final memory image.
    pub state: MachineState,
    /// Accumulated counters.
    pub stats: RunStats,
    /// How many blocks kept vector code after the cost gate.
    pub vectorized_blocks: usize,
    /// Per-block cycle totals (body + preheader executions), hottest
    /// first — a simple profile for `slpc --run`.
    pub block_cycles: Vec<(slp_ir::BlockId, f64)>,
}

/// Executes `kernel` on `machine` with the §4.3 cost gate enabled.
///
/// Runs on the pre-resolved bytecode engine
/// ([`BytecodeKernel`](crate::bytecode::BytecodeKernel)); semantics are
/// bit-identical to [`execute_reference`], which the differential gate
/// proves on every suite kernel.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses or malformed code.
pub fn execute(kernel: &CompiledKernel, machine: &MachineConfig) -> Result<Outcome, ExecError> {
    execute_gated(kernel, machine, true)
}

/// Executes `kernel` with an explicit cost-gate setting, on the bytecode
/// engine.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses or malformed code.
pub fn execute_gated(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    cost_gate: bool,
) -> Result<Outcome, ExecError> {
    crate::memory::check_memory_budget(&kernel.program)?;
    crate::bytecode::BytecodeKernel::compile(kernel, machine, cost_gate)?.run()
}

/// Executes `kernel` on the bytecode engine with every bounds check kept,
/// even for accesses the memory-safety certificate proved safe (cost gate
/// enabled). This is what `slpc --run --no-unchecked` uses.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses or malformed code.
pub fn execute_fully_checked(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
) -> Result<Outcome, ExecError> {
    crate::memory::check_memory_budget(&kernel.program)?;
    crate::bytecode::BytecodeKernel::compile_checked(kernel, machine, true)?.run()
}

/// Executes `kernel` on the bytecode engine from an explicit initial
/// memory image instead of the deterministic seeds (cost gate enabled).
///
/// The state must have been allocated for `kernel.program` — start from
/// [`MachineState::seeded`] and overwrite the cells of interest. Used by
/// the symbolic translation validator to replay extracted counterexample
/// inputs.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses, malformed code, or a
/// state allocated for another program (before anything runs).
pub fn execute_with_state(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    state: MachineState,
) -> Result<Outcome, ExecError> {
    crate::memory::check_memory_budget(&kernel.program)?;
    crate::bytecode::BytecodeKernel::compile(kernel, machine, true)?.run_from(state)
}

/// Executes `kernel` on the original tree-walking interpreter (the
/// reference engine), cost gate enabled.
///
/// Kept as the oracle the bytecode engine is differentially validated
/// against; new code should call [`execute`].
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses.
pub fn execute_reference(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
) -> Result<Outcome, ExecError> {
    execute_gated_reference(kernel, machine, true)
}

/// Executes `kernel` on the reference engine with an explicit cost-gate
/// setting. See [`execute_reference`].
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses.
pub fn execute_gated_reference(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    cost_gate: bool,
) -> Result<Outcome, ExecError> {
    let state = MachineState::seeded(&kernel.program);
    execute_reference_with_state_gated(kernel, machine, cost_gate, state)
}

/// Executes `kernel` on the reference engine from an explicit initial
/// memory image (cost gate enabled) — the tree-walking counterpart of
/// [`execute_with_state`].
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses.
pub fn execute_reference_with_state(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    state: MachineState,
) -> Result<Outcome, ExecError> {
    execute_reference_with_state_gated(kernel, machine, true, state)
}

fn execute_reference_with_state_gated(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    cost_gate: bool,
    state: MachineState,
) -> Result<Outcome, ExecError> {
    crate::memory::check_memory_budget(&kernel.program)?;
    let codes = lower_kernel(kernel, machine, cost_gate);
    let vectorized_blocks = codes.iter().filter(|(_, c)| c.vectorized).count();
    // Map each block's first statement id to its code, for dispatch while
    // walking the item tree.
    let mut by_first_stmt: HashMap<StmtId, (slp_ir::BlockId, &BlockCode)> = HashMap::new();
    for (info, (id, code)) in kernel.program.blocks().iter().zip(&codes) {
        debug_assert_eq!(info.id, *id);
        by_first_stmt.insert(info.block.stmts()[0].id(), (*id, code));
    }

    let mut ex = Executor {
        program: &kernel.program,
        machine,
        state,
        stats: RunStats::default(),
        regs: Vec::new(),
        env: Vec::new(),
        block_cycles: HashMap::new(),
    };

    for r in &kernel.replications {
        ex.populate(r)?;
    }
    ex.run_items(kernel.program.items(), &by_first_stmt)?;

    let mut block_cycles: Vec<(slp_ir::BlockId, f64)> = ex.block_cycles.into_iter().collect();
    block_cycles.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(Outcome {
        state: ex.state,
        stats: ex.stats,
        vectorized_blocks,
        block_cycles,
    })
}

struct Executor<'a> {
    program: &'a Program,
    machine: &'a MachineConfig,
    state: MachineState,
    stats: RunStats,
    regs: Vec<Vec<f64>>,
    env: Vec<(LoopVarId, i64)>,
    /// Accumulated cycles per block.
    block_cycles: HashMap<slp_ir::BlockId, f64>,
}

/// Performs one replication's population pass (§5.2) on `state`, charging
/// copy costs into `stats`. Shared verbatim by the reference and bytecode
/// engines so replication semantics (including error strings and the
/// single bulk metric) cannot diverge.
pub(crate) fn populate_replication(
    program: &Program,
    cost: &CostParams,
    state: &mut MachineState,
    stats: &mut RunStats,
    r: &Replication,
) -> Result<(), ExecError> {
    let mut env: Vec<(LoopVarId, i64)> = Vec::new();
    populate_dims(program, state, r, 0, &mut env)?;
    let copies = r.copy_count() as f64;
    stats.metrics.add(&InstMetrics {
        cycles: copies * (cost.scalar_load + cost.scalar_store),
        dynamic_instructions: 2 * copies as u64,
        memory_ops: 2 * copies as u64,
        memory_cycles: copies * (cost.scalar_load + cost.scalar_store),
        ..InstMetrics::default()
    });
    Ok(())
}

fn populate_dims(
    program: &Program,
    state: &mut MachineState,
    r: &Replication,
    dim: usize,
    env: &mut Vec<(LoopVarId, i64)>,
) -> Result<(), ExecError> {
    if dim == r.loops.len() {
        for (p, lane) in r.lanes.iter().enumerate() {
            let src_info = program.array(r.source);
            let off = src_info.offset_of(lane, env).ok_or_else(|| {
                ExecError::out_of_bounds(format!(
                    "replication read {}{:?} out of bounds",
                    src_info.name,
                    lane.eval(env)
                ))
            })?;
            let value = state
                .load_array(r.source, off as usize)
                .ok_or_else(|| ExecError::out_of_bounds("replication source out of bounds"))?;
            let dst_off = r.dest_exprs[p].eval(env);
            if dst_off < 0 || !state.store_array(r.dest, dst_off as usize, value) {
                return Err(ExecError::out_of_bounds(format!(
                    "replication write {dst_off} out of bounds"
                )));
            }
        }
        return Ok(());
    }
    let h = r.loops[dim];
    let mut v = h.lower;
    while v < h.upper {
        env.push((h.var, v));
        populate_dims(program, state, r, dim + 1, env)?;
        env.pop();
        v += h.step;
    }
    Ok(())
}

impl<'a> Executor<'a> {
    /// Performs one replication's population pass (§5.2), charging copy
    /// costs.
    fn populate(&mut self, r: &Replication) -> Result<(), ExecError> {
        populate_replication(
            self.program,
            &self.machine.cost,
            &mut self.state,
            &mut self.stats,
            r,
        )
    }

    fn run_items(
        &mut self,
        items: &[Item],
        codes: &HashMap<StmtId, (slp_ir::BlockId, &BlockCode)>,
    ) -> Result<(), ExecError> {
        let mut idx = 0;
        while idx < items.len() {
            match &items[idx] {
                Item::Stmt(first) => {
                    // One static basic block = this maximal statement run.
                    let mut end = idx + 1;
                    while end < items.len() && matches!(items[end], Item::Stmt(_)) {
                        end += 1;
                    }
                    let &(bid, code) = codes.get(&first.id()).ok_or_else(|| {
                        ExecError::malformed(format!(
                            "no code for block starting at {}",
                            first.id()
                        ))
                    })?;
                    let before = self.stats.metrics.cycles;
                    self.run_block(code)?;
                    *self.block_cycles.entry(bid).or_insert(0.0) +=
                        self.stats.metrics.cycles - before;
                    idx = end;
                }
                Item::Loop(l) => {
                    // Preheaders of blocks directly inside this loop run
                    // once per loop entry (hoisted invariant packs). Only
                    // the first statement of each maximal run keys a
                    // block, so the lookup naturally skips the rest.
                    if l.header.lower < l.header.upper {
                        for body_item in &l.body {
                            if let Item::Stmt(first) = body_item {
                                if let Some(&(bid, code)) = codes.get(&first.id()) {
                                    let before = self.stats.metrics.cycles;
                                    self.run_insts(&code.preheader)?;
                                    *self.block_cycles.entry(bid).or_insert(0.0) +=
                                        self.stats.metrics.cycles - before;
                                }
                            }
                        }
                    }
                    let mut v = l.header.lower;
                    while v < l.header.upper {
                        self.env.push((l.header.var, v));
                        self.run_items(&l.body, codes)?;
                        self.env.pop();
                        v += l.header.step;
                        // Loop control: increment + branch.
                        self.stats.iterations += 1;
                        self.stats.metrics.add(&InstMetrics {
                            cycles: self.machine.cost.loop_overhead,
                            dynamic_instructions: 2,
                            ..InstMetrics::default()
                        });
                    }
                    idx += 1;
                }
            }
        }
        Ok(())
    }

    fn run_block(&mut self, code: &BlockCode) -> Result<(), ExecError> {
        self.run_insts(&code.insts)
    }

    fn run_insts(&mut self, insts: &[VInst]) -> Result<(), ExecError> {
        for inst in insts {
            self.stats.metrics.add(&inst.metrics(&self.machine.cost));
            self.step(inst)?;
        }
        Ok(())
    }

    fn reg_mut(&mut self, r: crate::code::VReg) -> &mut Vec<f64> {
        let i = r.0 as usize;
        if self.regs.len() <= i {
            self.regs.resize(i + 1, Vec::new());
        }
        &mut self.regs[i]
    }

    fn reg(&self, r: crate::code::VReg) -> Result<&Vec<f64>, ExecError> {
        self.regs
            .get(r.0 as usize)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| ExecError::undefined_register(format!("read of undefined register {r}")))
    }

    fn step(&mut self, inst: &VInst) -> Result<(), ExecError> {
        match inst {
            VInst::Scalar { stmt, .. } => self.scalar_stmt(stmt),
            VInst::Load { dst, refs, .. } => {
                let values = refs
                    .iter()
                    .map(|r| self.read_operand(&Operand::Array(r.clone())))
                    .collect::<Result<Vec<f64>, _>>()?;
                *self.reg_mut(*dst) = values;
                Ok(())
            }
            VInst::Store { src, refs, .. } => {
                let values = self.reg(*src)?.clone();
                for (r, &v) in refs.iter().zip(&values) {
                    self.write_array(r, v)?;
                }
                Ok(())
            }
            VInst::PackScalars { dst, vars, .. } => {
                let values: Vec<f64> = vars.iter().map(|&v| self.state.scalar(v)).collect();
                *self.reg_mut(*dst) = values;
                Ok(())
            }
            VInst::UnpackScalars { src, vars, .. } => {
                let values = self.reg(*src)?.clone();
                for (&v, &x) in vars.iter().zip(&values) {
                    let ty = slp_ir::TypeEnv::scalar_type(self.program, v);
                    self.state.set_scalar(v, ty.coerce(x));
                }
                Ok(())
            }
            VInst::ConstVec { dst, values } => {
                *self.reg_mut(*dst) = values.clone();
                Ok(())
            }
            VInst::Splat { dst, src, width } => {
                let v = match src {
                    SplatSrc::Const(c) => *c,
                    SplatSrc::Scalar { var, .. } => self.state.scalar(*var),
                };
                *self.reg_mut(*dst) = vec![v; *width];
                Ok(())
            }
            VInst::Permute { dst, src, perm } => {
                let src_vals = self.reg(*src)?.clone();
                let out: Vec<f64> = perm.iter().map(|&j| src_vals[j]).collect();
                *self.reg_mut(*dst) = out;
                Ok(())
            }
            // Spill traffic is bookkeeping: values stay in the virtual
            // registers, only the cycle/memory accounting changes.
            VInst::Spill { .. } | VInst::Reload { .. } => Ok(()),
            VInst::Op { dst, shape, srcs } => {
                let lanes = self.reg(srcs[0])?.len();
                let mut out = Vec::with_capacity(lanes);
                for k in 0..lanes {
                    let vals: Vec<f64> = srcs
                        .iter()
                        .map(|&r| Ok(self.reg(r)?[k]))
                        .collect::<Result<_, ExecError>>()?;
                    out.push(apply_shape(*shape, &vals));
                }
                *self.reg_mut(*dst) = out;
                Ok(())
            }
        }
    }

    fn scalar_stmt(&mut self, stmt: &slp_ir::Statement) -> Result<(), ExecError> {
        let vals: Vec<f64> = stmt
            .expr()
            .operands()
            .iter()
            .map(|o| self.read_operand(o))
            .collect::<Result<_, _>>()?;
        let result = apply_shape(stmt.expr().shape(), &vals);
        match stmt.dest() {
            Dest::Scalar(v) => {
                let ty = slp_ir::TypeEnv::scalar_type(self.program, *v);
                self.state.set_scalar(*v, ty.coerce(result));
                Ok(())
            }
            Dest::Array(r) => self.write_array(r, result),
        }
    }

    fn array_offset(&self, r: &ArrayRef) -> Result<usize, ExecError> {
        let info = self.program.array(r.array);
        match info.offset_of(&r.access, &self.env) {
            Some(off) => Ok(off as usize),
            None => Err(ExecError::out_of_bounds(format!(
                "{}{:?} out of bounds (dims {:?})",
                info.name,
                r.access.eval(&self.env),
                info.dims
            ))),
        }
    }

    fn read_operand(&self, op: &Operand) -> Result<f64, ExecError> {
        match op {
            Operand::Const(c) => Ok(*c),
            Operand::Scalar(v) => Ok(self.state.scalar(*v)),
            Operand::Array(r) => {
                let off = self.array_offset(r)?;
                self.state
                    .load_array(r.array, off)
                    .ok_or_else(|| ExecError::out_of_bounds("array load out of bounds"))
            }
        }
    }

    fn write_array(&mut self, r: &ArrayRef, value: f64) -> Result<(), ExecError> {
        let off = self.array_offset(r)?;
        let value = self.program.array(r.array).ty.coerce(value);
        if self.state.store_array(r.array, off, value) {
            Ok(())
        } else {
            Err(ExecError::out_of_bounds("array store out of bounds"))
        }
    }
}

/// Applies an operator shape to positional operand values. Shared by the
/// reference and bytecode engines, and by the symbolic translation
/// validator's concrete counterexample evaluation — a single definition
/// so operator semantics cannot drift between prover and executor.
pub fn apply_shape(shape: ExprShape, vals: &[f64]) -> f64 {
    match shape {
        ExprShape::Copy => vals[0],
        ExprShape::Unary(op) => match op {
            UnOp::Neg => -vals[0],
            UnOp::Abs => vals[0].abs(),
            UnOp::Sqrt => vals[0].sqrt(),
        },
        ExprShape::Binary(op) => match op {
            BinOp::Add => vals[0] + vals[1],
            BinOp::Sub => vals[0] - vals[1],
            BinOp::Mul => vals[0] * vals[1],
            BinOp::Div => vals[0] / vals[1],
            BinOp::Min => vals[0].min(vals[1]),
            BinOp::Max => vals[0].max(vals[1]),
        },
        ExprShape::MulAdd => vals[0] + vals[1] * vals[2],
        ExprShape::Select(op) => {
            if op.apply(vals[0], vals[1]) {
                vals[2]
            } else {
                vals[3]
            }
        }
    }
}

/// Convenience: compiles `program` with [`slp_core::Strategy::Scalar`]
/// semantics on `machine` and runs it — the baseline every figure
/// normalizes to.
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses.
pub fn run_scalar(program: &Program, machine: &MachineConfig) -> Result<Outcome, ExecError> {
    let cfg = slp_core::SlpConfig::for_machine(machine.clone(), slp_core::Strategy::Scalar);
    let kernel = slp_core::compile(program, &cfg);
    execute(&kernel, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{compile, SlpConfig, Strategy};

    fn machine() -> MachineConfig {
        MachineConfig::intel_dunnington()
    }

    fn run(src: &str, strategy: Strategy, layout: bool) -> Outcome {
        let p = slp_lang::compile(src).unwrap();
        let mut cfg = SlpConfig::for_machine(machine(), strategy);
        if layout {
            cfg = cfg.with_layout();
        }
        let k = compile(&p, &cfg);
        execute(&k, &machine()).unwrap()
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

    #[test]
    fn vectorized_run_matches_scalar_run() {
        let scalar = run(KERNEL, Strategy::Scalar, false);
        for strategy in [Strategy::Native, Strategy::Baseline, Strategy::Holistic] {
            let vectorized = run(KERNEL, strategy, false);
            assert!(
                vectorized.state.arrays_bitwise_eq(&scalar.state, 2),
                "{strategy:?} diverged from scalar execution"
            );
        }
    }

    #[test]
    fn layout_run_matches_scalar_run() {
        let scalar = run(KERNEL, Strategy::Scalar, false);
        let laid_out = run(KERNEL, Strategy::Holistic, true);
        assert!(laid_out.state.arrays_bitwise_eq(&scalar.state, 2));
    }

    #[test]
    fn holistic_is_faster_than_scalar() {
        let scalar = run(KERNEL, Strategy::Scalar, false);
        let global = run(KERNEL, Strategy::Holistic, false);
        assert!(
            global.stats.metrics.cycles < scalar.stats.metrics.cycles,
            "global {} vs scalar {}",
            global.stats.metrics.cycles,
            scalar.stats.metrics.cycles
        );
        assert!(global.vectorized_blocks > 0);
    }

    #[test]
    fn iteration_and_instruction_counters_accumulate() {
        let scalar = run(KERNEL, Strategy::Scalar, false);
        assert_eq!(scalar.stats.iterations, 32);
        // 4 statements × 32 iterations, ≥ 1 instruction each, plus loop
        // control.
        assert!(scalar.stats.metrics.dynamic_instructions > 32 * 4);
        assert!(scalar.stats.metrics.packing_ops == 0);
        assert!(scalar.stats.seconds(&machine()) > 0.0);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let src = "kernel bad { array A: f64[4]; scalar x: f64;
                    for i in 0..8 { x = A[i]; A[i] = x; } }";
        let p = slp_lang::compile(src).unwrap();
        let cfg = SlpConfig::for_machine(machine(), Strategy::Scalar);
        let k = compile(&p, &cfg);
        let err = execute(&k, &machine()).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn apply_shape_covers_all_operators() {
        use slp_ir::{BinOp, ExprShape, UnOp};
        let t = apply_shape;
        assert_eq!(t(ExprShape::Copy, &[2.0]), 2.0);
        assert_eq!(t(ExprShape::Unary(UnOp::Neg), &[2.0]), -2.0);
        assert_eq!(t(ExprShape::Unary(UnOp::Sqrt), &[16.0]), 4.0);
        assert_eq!(t(ExprShape::Binary(BinOp::Sub), &[5.0, 3.0]), 2.0);
        assert_eq!(t(ExprShape::Binary(BinOp::Max), &[5.0, 3.0]), 5.0);
        assert_eq!(t(ExprShape::MulAdd, &[1.0, 2.0, 3.0]), 7.0);
        use slp_ir::CmpOp;
        assert_eq!(t(ExprShape::Select(CmpOp::Lt), &[1.0, 2.0, 8.0, 9.0]), 8.0);
        assert_eq!(t(ExprShape::Select(CmpOp::Lt), &[2.0, 2.0, 8.0, 9.0]), 9.0);
        assert_eq!(t(ExprShape::Select(CmpOp::Ne), &[2.0, 2.0, 8.0, 9.0]), 9.0);
        // NaN condition: ordered comparisons fall through to the else arm.
        assert_eq!(
            t(ExprShape::Select(CmpOp::Ge), &[f64::NAN, 0.0, 8.0, 9.0]),
            9.0
        );
    }

    #[test]
    fn replication_preserves_semantics_and_charges_cost() {
        // Strided reads re-swept by an outer loop: the layout stage
        // replicates, and results must stay identical.
        let src = "kernel strided {
            const N = 64;
            array A: f64[4*N+4]; array OUT: f64[2*N];
            scalar c, d: f64;
            for t in 0..8 {
                for i in 0..N {
                    c = A[4*i] * 2.0;
                    d = A[4*i+3] * 2.0;
                    OUT[2*i] = c + 1.0;
                    OUT[2*i+1] = d + 1.0;
                }
            }
        }";
        let p = slp_lang::compile(src).unwrap();
        let m = machine();
        let scalar = {
            let cfg = SlpConfig::for_machine(m.clone(), Strategy::Scalar);
            execute(&compile(&p, &cfg), &m).unwrap()
        };
        let mut cfg = SlpConfig::for_machine(m.clone(), Strategy::Holistic).with_layout();
        cfg.unroll = 1;
        let k = compile(&p, &cfg);
        assert!(!k.replications.is_empty(), "expected a replication");
        let out = execute(&k, &m).unwrap();
        assert!(out.state.arrays_bitwise_eq(&scalar.state, 2));
    }

    #[test]
    fn temps_do_not_round_trip_through_memory_costs() {
        // Same computation, one with temps (free) and one with an
        // exposed accumulator chain (memory): the temp version must be
        // cheaper under the scalar strategy.
        let temps = run(
            "kernel a { array A: f64[32]; scalar t: f64;
             for i in 0..32 { t = A[i]; A[i] = t * 2.0; } }",
            Strategy::Scalar,
            false,
        );
        let exposed = run(
            "kernel b { array A: f64[32]; scalar t: f64;
             for i in 0..32 { A[i] = t * 2.0; t = A[i]; } }",
            Strategy::Scalar,
            false,
        );
        assert!(temps.stats.metrics.cycles < exposed.stats.metrics.cycles);
    }
}
