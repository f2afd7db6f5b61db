//! The interpreter: runs a compiled kernel on the simulated machine,
//! producing the final memory image and the §7 counters.
//!
//! Values always flow through the architectural state (`MachineState`),
//! while *costs* come from each instruction's static classification — a
//! lane whose [`LaneSink`](slp_core::LaneSink) is `Free` still updates
//! the scalar's value (so later consumers observe it) but charges
//! nothing, exactly like a register-allocated temporary.

use std::collections::HashMap;

use slp_core::{CompiledKernel, MachineConfig, Replication};
use slp_ir::{ArrayRef, Dest, Item, LoopVarId, Operand, Program, StmtId};

use crate::code::{cycles, Cost, InstMetrics, Prices, SplatSrc, Ticks, VInst};
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
/// Returns [`ExecError`] on out-of-bounds accesses, malformed code, or a
/// program over the VM's memory budget.
pub fn execute(kernel: &CompiledKernel, machine: &MachineConfig) -> Result<Outcome, ExecError> {
    crate::bytecode::BytecodeKernel::compile(kernel, machine)?.run()
}

/// Executes `kernel` on the original tree-walking interpreter (the
/// reference engine), cost gate enabled.
///
/// Kept as the oracle the bytecode engine is differentially validated
/// against; new code should call [`execute`].
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses, or before any memory
/// is seeded when the program is over the VM's memory budget or a cost
/// is not a whole number of milli-cycles (the bytecode engine's error).
pub fn execute_reference(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
) -> Result<Outcome, ExecError> {
    crate::memory::check_memory_budget(&kernel.program)?;
    let lowered = Lowered::new(kernel, machine)?;
    lowered.run(MachineState::seeded(&kernel.program))
}

/// Executes `kernel` on the reference engine from an explicit initial
/// memory image (cost gate enabled) — the tree-walking counterpart of
/// [`BytecodeKernel::run_from`](crate::bytecode::BytecodeKernel::run_from).
///
/// # Errors
///
/// Returns [`ExecError`] on out-of-bounds accesses, and before anything
/// runs when `state` was not allocated for `kernel.program` or a cost is
/// not a whole number of milli-cycles.
pub fn execute_reference_with_state(
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    state: MachineState,
) -> Result<Outcome, ExecError> {
    state.check_shape(&kernel.program)?;
    Lowered::new(kernel, machine)?.run(state)
}

/// One instruction's integer counters (cycle fields zero) and its cost.
type Row = (InstMetrics, Cost);

/// The kernel's code with every instruction's cost converted to ticks —
/// the reference engine's translation, done before memory is seeded.
struct Lowered<'a> {
    kernel: &'a CompiledKernel,
    prices: Prices,
    vectorized_blocks: usize,
    /// Each block's code and rows (preheader, body), keyed by the block's
    /// first statement for dispatch while walking the item tree.
    blocks: HashMap<StmtId, (slp_ir::BlockId, BlockCode, Vec<Row>, Vec<Row>)>,
}

impl<'a> Lowered<'a> {
    fn new(kernel: &'a CompiledKernel, machine: &MachineConfig) -> Result<Lowered<'a>, ExecError> {
        let prices = Prices::new(&machine.cost)?;
        let codes = lower_kernel(kernel, machine, true);
        let vectorized_blocks = codes.iter().filter(|(_, c)| c.vectorized).count();
        let rows = |insts: &[VInst]| -> Result<Vec<Row>, ExecError> {
            insts
                .iter()
                .map(|inst| {
                    let mut row = inst.metrics(&machine.cost);
                    let cost = Cost::of(&row)?;
                    (row.cycles, row.memory_cycles) = (0.0, 0.0);
                    Ok((row, cost))
                })
                .collect()
        };
        let mut blocks = HashMap::new();
        for (info, (id, code)) in kernel.program.blocks().iter().zip(codes) {
            debug_assert_eq!(info.id, id);
            let (pre, body) = (rows(&code.preheader)?, rows(&code.insts)?);
            blocks.insert(info.block.stmts()[0].id(), (id, code, pre, body));
        }
        Ok(Lowered {
            kernel,
            prices,
            vectorized_blocks,
            blocks,
        })
    }

    fn run(&self, state: MachineState) -> Result<Outcome, ExecError> {
        let mut ex = Executor {
            program: &self.kernel.program,
            state,
            charged: Charged::default(),
            regs: Vec::new(),
            env: Vec::new(),
            block_ticks: HashMap::new(),
        };
        for r in &self.kernel.replications {
            populate_replication(ex.program, &self.prices, &mut ex.state, &mut ex.charged, r)?;
        }
        ex.run_items(self.kernel.program.items(), self)?;
        let blocks = ex.block_ticks.into_iter().collect();
        Ok(ex.charged.outcome(ex.state, self.vectorized_blocks, blocks))
    }
}

/// What a run charged: the integer counters, and both cycle sums in ticks.
#[derive(Default)]
pub(crate) struct Charged {
    pub(crate) stats: RunStats,
    pub(crate) ticks: Cost,
}

impl Charged {
    /// The run's outcome, `blocks` holding the ticks of each block that ran.
    pub(crate) fn outcome(
        mut self,
        state: MachineState,
        vectorized_blocks: usize,
        mut blocks: Vec<(slp_ir::BlockId, Ticks)>,
    ) -> Outcome {
        self.stats.metrics.cycles = cycles(self.ticks.cycles);
        self.stats.metrics.memory_cycles = cycles(self.ticks.memory);
        blocks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let block_cycles = blocks.iter().map(|&(id, t)| (id, cycles(t))).collect();
        Outcome {
            state,
            stats: self.stats,
            vectorized_blocks,
            block_cycles,
        }
    }
}

struct Executor<'a> {
    program: &'a Program,
    state: MachineState,
    charged: Charged,
    regs: Vec<Vec<f64>>,
    env: Vec<(LoopVarId, i64)>,
    /// Accumulated ticks per block.
    block_ticks: HashMap<slp_ir::BlockId, Ticks>,
}

/// Performs one replication's population pass (§5.2) on `state`, charging
/// one copy per element. Shared verbatim by the reference and bytecode
/// engines so replication semantics (including error strings and the
/// single bulk charge) cannot diverge.
pub(crate) fn populate_replication(
    program: &Program,
    prices: &Prices,
    state: &mut MachineState,
    charged: &mut Charged,
    r: &Replication,
) -> Result<(), ExecError> {
    let mut env: Vec<(LoopVarId, i64)> = Vec::new();
    populate_dims(program, state, r, 0, &mut env)?;
    let copies = r.copy_count() as u64;
    charged.stats.metrics.dynamic_instructions += 2 * copies;
    charged.stats.metrics.memory_ops += 2 * copies;
    charged.ticks.add(prices.copy, copies);
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
    fn run_items(&mut self, items: &[Item], code: &Lowered<'_>) -> Result<(), ExecError> {
        let mut idx = 0;
        while idx < items.len() {
            match &items[idx] {
                Item::Stmt(first) => {
                    // One static basic block = this maximal statement run.
                    let mut end = idx + 1;
                    while end < items.len() && matches!(items[end], Item::Stmt(_)) {
                        end += 1;
                    }
                    let (bid, block, _, rows) = code.blocks.get(&first.id()).ok_or_else(|| {
                        ExecError::malformed(format!(
                            "no code for block starting at {}",
                            first.id()
                        ))
                    })?;
                    self.run_insts(*bid, &block.insts, rows)?;
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
                                if let Some((bid, block, rows, _)) = code.blocks.get(&first.id()) {
                                    self.run_insts(*bid, &block.preheader, rows)?;
                                }
                            }
                        }
                    }
                    let mut v = l.header.lower;
                    while v < l.header.upper {
                        self.env.push((l.header.var, v));
                        self.run_items(&l.body, code)?;
                        self.env.pop();
                        v += l.header.step;
                        // Loop control: increment + branch.
                        self.charged.stats.iterations += 1;
                        self.charged.stats.metrics.dynamic_instructions += 2;
                        self.charged.ticks.cycles += code.prices.loop_overhead;
                    }
                    idx += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs `insts` of block `bid`, charging each its row.
    fn run_insts(
        &mut self,
        bid: slp_ir::BlockId,
        insts: &[VInst],
        rows: &[Row],
    ) -> Result<(), ExecError> {
        // A block that runs is reported, even at zero cost.
        *self.block_ticks.entry(bid).or_insert(0) += rows.iter().map(|r| r.1.cycles).sum::<Ticks>();
        for (inst, (row, cost)) in insts.iter().zip(rows) {
            self.charged.stats.metrics.add(row);
            self.charged.ticks.add(*cost, 1);
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
                    out.push(shape.apply(&vals));
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
        let result = stmt.expr().shape().apply(&vals);
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
