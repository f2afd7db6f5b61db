//! The symbolic evaluator: abstract execution of a kernel over the term
//! arena. Each array cell and scalar holds a
//! [`TermId`] for its value as a function of the
//! inputs; the result is a [`SymbolicState`]. The scalar side runs
//! statements in program order; the kernel side replays layout
//! replications, then runs each block's schedule, resolved to statements
//! once: a superword reads every lane's operands before it writes any
//! destination, and commits in lane order.
//!
//! [`eval_block`] runs one block for the block-wise proof, its cells
//! named by symbolic [`Forms`]. [`eval_scalar_program`] and
//! [`eval_compiled_kernel`] are the concrete walk, which decides what the
//! block-wise proof cannot: every loop iteration is walked, induction
//! variables take real `i64` values and each subscript is an exact linear
//! offset. A pre-pass over `slp-analyze`'s strided intervals first bounds
//! the dynamic statement count and rejects accesses out of bounds on
//! every execution. Operands go to a stack buffer, cell terms sit in one
//! word-hashed map and written cells are logged, then sorted and
//! deduplicated once; an item naming a statement outside its block fails
//! only when the walk reaches it.

use std::collections::hash_map::Entry;
use std::convert::Infallible;

use slp_analyze::{eval_affine, loop_env};
use slp_core::{CompiledKernel, Replication, ScheduledItem};
use slp_ir::{
    ArrayId, ArrayRef, Dest, Item, Loop, LoopVarId, Operand, Program, Statement, StmtId, TypeEnv,
};

use crate::blockwise::Forms;
use crate::layout::walk;
use crate::term::{Arena, TermId, WordMap};

/// Resource limits for one validation run.
#[derive(Debug, Clone, Copy)]
pub struct Budgets {
    /// Maximum distinct terms in the arena (shared by both sides).
    pub max_terms: usize,
    /// Maximum dynamic statement executions per side (superword lanes and
    /// replication copies each count as one).
    pub max_steps: u64,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            max_terms: 1 << 20,
            max_steps: 1 << 20,
        }
    }
}

/// Why symbolic evaluation stopped short of a final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EvalError {
    /// A resource budget was exhausted; the validator degrades to the
    /// differential check.
    Budget(String),
    /// The program does something the symbolic semantics cannot model
    /// soundly (out-of-bounds access, non-terminating loop shape, or a
    /// malformed schedule).
    Unsupported(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Budget(m) => write!(f, "budget exhausted: {m}"),
            EvalError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

/// The final symbolic memory image of one side.
#[derive(Debug)]
pub(crate) struct SymbolicState {
    /// Current term of every touched cell, keyed by array and linear
    /// offset (reads memoize the input leaf; writes overwrite).
    cells: WordMap<(ArrayId, i64), TermId>,
    /// The cells actually *written*, sorted and deduplicated.
    pub dirty: Vec<(ArrayId, i64)>,
    /// Current term of every scalar, indexed by [`VarId::index`](slp_ir::VarId::index).
    pub scalars: Vec<TermId>,
    /// Dynamic statements executed.
    pub steps: u64,
}

impl SymbolicState {
    /// The current term of cell `(a, off)`, interning the input leaf if
    /// the cell was never touched.
    pub(crate) fn cell_term(
        &self,
        arena: &mut Arena,
        a: ArrayId,
        off: i64,
    ) -> Result<TermId, EvalError> {
        match self.cells.get(&(a, off)) {
            Some(&t) => Ok(t),
            None => arena.cell(a, off),
        }
    }
}

/// Symbolically evaluates `program` with plain statement-order semantics.
///
/// # Errors
///
/// Returns [`EvalError`] when a budget is exhausted or the program leaves
/// the supported fragment (see [`EvalError::Unsupported`]).
pub(crate) fn eval_scalar_program(
    program: &Program,
    arena: &mut Arena,
    budgets: &Budgets,
) -> Result<SymbolicState, EvalError> {
    prepass(program, 0, budgets)?;
    let unscheduled = WordMap::default();
    let mut ev = Eval::new(program, &unscheduled, arena, budgets)?;
    ev.run_items(program.items())?;
    Ok(ev.finish())
}

/// Symbolically evaluates a compiled kernel: replications populate first,
/// then the transformed program runs under its block schedules.
///
/// # Errors
///
/// Returns [`EvalError`] when a budget is exhausted or the kernel leaves
/// the supported fragment.
pub(crate) fn eval_compiled_kernel(
    kernel: &CompiledKernel,
    arena: &mut Arena,
    budgets: &Budgets,
) -> Result<SymbolicState, EvalError> {
    let replication_copies: u64 = kernel
        .replications
        .iter()
        .map(|r| r.copy_count() as u64)
        .sum();
    prepass(&kernel.program, replication_copies, budgets)?;
    let plans = plans(kernel);
    let mut ev = Eval::new(&kernel.program, &plans, arena, budgets)?;
    for r in &kernel.replications {
        ev.populate(r)?;
    }
    ev.run_items(kernel.program.items())?;
    Ok(ev.finish())
}

/// Symbolically evaluates the block `run` of `program` `copies` times
/// from the entry state, copy `k` shifted by `k` innermost iterations,
/// naming cells by `forms`.
pub(crate) fn eval_block<'a>(
    program: &'a Program,
    plans: &'a WordMap<StmtId, Plan<'a>>,
    arena: &'a mut Arena,
    budgets: &Budgets,
    forms: &'a mut Forms,
    run: &'a [Item],
    copies: i64,
) -> Result<SymbolicState, EvalError> {
    let mut ev = Eval::new(program, plans, arena, budgets)?;
    ev.forms = Some(forms);
    // A statement touches at most five cells and writes one.
    ev.st.cells.reserve(5 * run.len() * copies as usize);
    ev.st.dirty.reserve(run.len() * copies as usize);
    for k in 0..copies {
        if let Some(forms) = ev.forms.as_deref_mut() {
            forms.shift = k;
        }
        ev.run_block(run)?;
    }
    Ok(ev.finish())
}

/// A scheduled block's items, each resolved to its lanes' statements, or
/// to the first lane id its block does not contain.
pub(crate) type Plan<'a> = Vec<Result<Vec<&'a Statement>, StmtId>>;

/// Every scheduled block's plan, keyed by the block's first statement
/// id: the same dispatch the VM interpreter uses while walking the item
/// tree.
pub(crate) fn plans(kernel: &CompiledKernel) -> WordMap<StmtId, Plan<'_>> {
    let mut plans = WordMap::default();
    let _: Result<(), Infallible> = kernel.program.try_for_each_block(|id, run, _| {
        let stmts = run.iter().filter_map(|item| match item {
            Item::Stmt(s) => Some(s),
            Item::Loop(_) => None,
        });
        let find = |id| stmts.clone().find(|s| s.id() == id).ok_or(id);
        let (Some(first), Some(schedule)) = (stmts.clone().next(), kernel.schedule_of(id)) else {
            return Ok(());
        };
        let plan = schedule.items().iter().map(|item| match item {
            ScheduledItem::Single(id) => find(*id).map(|s| vec![s]),
            ScheduledItem::Superword(sw) => sw.lanes().iter().map(|&id| find(id)).collect(),
        });
        plans.insert(first.id(), plan.collect());
        Ok(())
    });
    plans
}

/// Static feasibility screen, run before any symbolic work: bounds the
/// total dynamic statement count using exact trip counts, and uses
/// `slp-analyze`'s strided-interval ranges to reject subscripts that are
/// provably out of bounds on *every* execution.
fn prepass(program: &Program, extra: u64, budgets: &Budgets) -> Result<(), EvalError> {
    let mut dynamic: u128 = extra as u128;
    program.try_for_each_block(|_, run, loops| {
        let Some(env) = loop_env(loops) else {
            // Some enclosing loop never executes: the block is dead.
            return Ok(());
        };
        let mut trips: u128 = 1;
        for h in loops {
            trips = trips.saturating_mul(h.trip_count().max(0) as u128);
        }
        dynamic = dynamic.saturating_add(trips.saturating_mul(run.len() as u128));
        for item in run {
            let Item::Stmt(stmt) = item else { continue };
            let check = |r: &ArrayRef| -> Result<(), EvalError> {
                let dims = &program.array(r.array).dims;
                for (d, expr) in r.access.dims().iter().enumerate() {
                    if let Some(si) = eval_affine(expr, &env) {
                        if si.hi() < 0 || si.lo() >= dims[d] as i128 {
                            return Err(EvalError::Unsupported(format!(
                                "{}[dim {d}] is out of bounds on every execution",
                                program.array(r.array).name
                            )));
                        }
                    }
                }
                Ok(())
            };
            for op in stmt.expr().operands() {
                if let Operand::Array(r) = op {
                    check(r)?;
                }
            }
            if let Dest::Array(r) = stmt.dest() {
                check(r)?;
            }
        }
        Ok(())
    })?;
    if dynamic > budgets.max_steps as u128 {
        return Err(EvalError::Budget(format!(
            "{dynamic} dynamic statements exceed the {}-step budget",
            budgets.max_steps
        )));
    }
    Ok(())
}

struct Eval<'a> {
    program: &'a Program,
    /// Resolved schedule per block, keyed by the block's first statement
    /// id; empty means plain statement-order (scalar) semantics.
    plans: &'a WordMap<StmtId, Plan<'a>>,
    arena: &'a mut Arena,
    st: SymbolicState,
    /// The terms a superword's lanes compute, before any is written.
    lane_terms: Vec<TermId>,
    env: Vec<(LoopVarId, i64)>,
    /// Names cells by affine form instead of by offset under `env`.
    forms: Option<&'a mut Forms>,
    max_steps: u64,
}

impl<'a> Eval<'a> {
    fn new(
        program: &'a Program,
        plans: &'a WordMap<StmtId, Plan<'a>>,
        arena: &'a mut Arena,
        budgets: &Budgets,
    ) -> Result<Self, EvalError> {
        let scalars = program
            .scalar_ids()
            .map(|v| arena.scalar(v))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Eval {
            program,
            plans,
            arena,
            st: SymbolicState {
                cells: WordMap::default(),
                dirty: Vec::new(),
                scalars,
                steps: 0,
            },
            lane_terms: Vec::new(),
            env: Vec::new(),
            forms: None,
            max_steps: budgets.max_steps,
        })
    }

    fn finish(mut self) -> SymbolicState {
        self.st.dirty.sort_unstable();
        self.st.dirty.dedup();
        self.st
    }

    fn step(&mut self) -> Result<(), EvalError> {
        self.st.steps += 1;
        if self.st.steps > self.max_steps {
            return Err(EvalError::Budget(format!(
                "exceeded {} dynamic statements",
                self.max_steps
            )));
        }
        Ok(())
    }

    /// Resolves an array reference to its exact linear offset under the
    /// current loop environment, or to the index of its form.
    fn offset(&mut self, r: &ArrayRef) -> Result<i64, EvalError> {
        if let Some(forms) = self.forms.as_deref_mut() {
            let form = forms.name(self.program, r);
            return form.ok_or(EvalError::Unsupported(String::new()));
        }
        let info = self.program.array(r.array);
        info.offset_of(&r.access, &self.env).ok_or_else(|| {
            EvalError::Unsupported(format!(
                "{}{:?} out of bounds (dims {:?})",
                info.name,
                r.access.eval(&self.env),
                info.dims
            ))
        })
    }

    fn read_cell(&mut self, a: ArrayId, off: i64) -> Result<TermId, EvalError> {
        match self.st.cells.entry((a, off)) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(slot) => Ok(*slot.insert(self.arena.cell(a, off)?)),
        }
    }

    fn write_cell(&mut self, a: ArrayId, off: i64, t: TermId) {
        self.st.cells.insert((a, off), t);
        self.st.dirty.push((a, off));
    }

    fn read_operand(&mut self, op: &Operand) -> Result<TermId, EvalError> {
        match op {
            Operand::Const(c) => self.arena.constant(*c),
            Operand::Scalar(v) => Ok(self.st.scalars[v.index()]),
            Operand::Array(r) => {
                let off = self.offset(r)?;
                self.read_cell(r.array, off)
            }
        }
    }

    /// Commits `t` to `dest`, applying the same storage coercion the VM
    /// applies: scalar destinations coerce via the scalar's type, array
    /// destinations via the array's element type.
    fn write_dest(&mut self, dest: &Dest, t: TermId) -> Result<(), EvalError> {
        match dest {
            Dest::Scalar(v) => {
                let ty = TypeEnv::scalar_type(self.program, *v);
                self.st.scalars[v.index()] = self.arena.coerce(ty, t)?;
            }
            Dest::Array(r) => {
                let off = self.offset(r)?;
                let ty = self.program.array(r.array).ty;
                let t = self.arena.coerce(ty, t)?;
                self.write_cell(r.array, off, t);
            }
        }
        Ok(())
    }

    /// Counts one dynamic statement and returns the term its expression
    /// computes, reading operands in positional order.
    fn apply(&mut self, stmt: &Statement) -> Result<TermId, EvalError> {
        self.step()?;
        let ops = stmt.expr().operands();
        let mut args = [self.read_operand(ops[0])?; 4];
        for (arg, op) in args.iter_mut().zip(ops.iter()).skip(1) {
            *arg = self.read_operand(op)?;
        }
        self.arena.op(stmt.expr().shape(), &args[..ops.len()])
    }

    /// Executes one superword (a scalar item is a one-lane superword):
    /// every lane's operands are read before any lane's destination is
    /// written, then destinations commit in lane order — the semantics the
    /// vector lowering implements with packed loads before packed stores.
    fn exec_superword(&mut self, lanes: &[&Statement]) -> Result<(), EvalError> {
        self.lane_terms.clear();
        for stmt in lanes {
            let t = self.apply(stmt)?;
            self.lane_terms.push(t);
        }
        for (k, stmt) in lanes.iter().enumerate() {
            self.write_dest(stmt.dest(), self.lane_terms[k])?;
        }
        Ok(())
    }

    /// Executes one maximal statement run (= one static basic block),
    /// under its schedule when one is registered.
    fn run_block(&mut self, run: &'a [Item]) -> Result<(), EvalError> {
        let plans = self.plans;
        let plan = match run.first() {
            Some(Item::Stmt(first)) => plans.get(&first.id()),
            _ => None,
        };
        let Some(plan) = plan else {
            for item in run {
                if let Item::Stmt(s) = item {
                    let t = self.apply(s)?;
                    self.write_dest(s.dest(), t)?;
                }
            }
            return Ok(());
        };
        for lanes in plan {
            let lanes = lanes.as_ref().map_err(|id| {
                EvalError::Unsupported(format!("schedule references {id} outside its block"))
            })?;
            self.exec_superword(lanes)?;
        }
        Ok(())
    }

    fn run_loop(&mut self, l: &'a Loop) -> Result<(), EvalError> {
        let h = l.header;
        if h.step <= 0 {
            if h.lower < h.upper {
                return Err(EvalError::Unsupported(format!(
                    "loop over {} has non-positive step {}",
                    h.var, h.step
                )));
            }
            return Ok(());
        }
        let mut v = h.lower;
        while v < h.upper {
            self.env.push((h.var, v));
            self.run_items(&l.body)?;
            self.env.pop();
            v += h.step;
        }
        Ok(())
    }

    /// Runs `items` in order: each maximal statement run as one block,
    /// each loop in between.
    fn run_items(&mut self, items: &'a [Item]) -> Result<(), EvalError> {
        let mut loops = items.iter().filter_map(|it| match it {
            Item::Loop(l) => Some(l),
            Item::Stmt(_) => None,
        });
        for run in items.split(|it| matches!(it, Item::Loop(_))) {
            if !run.is_empty() {
                self.run_block(run)?;
            }
            if let Some(l) = loops.next() {
                self.run_loop(l)?;
            }
        }
        Ok(())
    }

    /// Replays one layout replication (§5.2): concrete enumeration of the
    /// replication loops, copying cell *terms* from source to destination.
    /// Population is a raw memory copy, so no coercion is applied.
    fn populate(&mut self, r: &Replication) -> Result<(), EvalError> {
        // The first loop without an iteration ends the copy, unless its
        // step would never end the loop.
        let stuck = r.loops.iter().find(|h| h.step <= 0 || h.lower >= h.upper);
        if let Some(h) = stuck.filter(|h| h.lower < h.upper) {
            return Err(EvalError::Unsupported(format!(
                "replication loop over {} has non-positive step {}",
                h.var, h.step
            )));
        }
        let mut copied = Ok(());
        walk(&r.loops, usize::MAX, |_, env| {
            if copied.is_ok() {
                copied = self.copy_lanes(r, env);
            }
        });
        copied
    }

    /// Copies every lane of replication `r` at iteration `env`.
    fn copy_lanes(&mut self, r: &Replication, env: &[(LoopVarId, i64)]) -> Result<(), EvalError> {
        for (p, lane) in r.lanes.iter().enumerate() {
            self.step()?;
            let src_info = self.program.array(r.source);
            let off = src_info.offset_of(lane, env).ok_or_else(|| {
                EvalError::Unsupported(format!(
                    "replication read {}{:?} out of bounds",
                    src_info.name,
                    lane.eval(env)
                ))
            })?;
            let t = self.read_cell(r.source, off)?;
            let dst_off = r.dest_exprs[p].eval(env);
            let dst_len = self.program.array(r.dest).len();
            if dst_off < 0 || dst_off >= dst_len {
                return Err(EvalError::Unsupported(format!(
                    "replication write {dst_off} out of bounds"
                )));
            }
            self.write_cell(r.dest, dst_off, t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
    use slp_core::{BlockSchedule, ScheduledItem};

    fn program(src: &str) -> Program {
        slp_lang::compile(src).unwrap()
    }

    #[test]
    fn scalar_and_vectorized_states_agree_on_saxpy() {
        let p = program(
            "kernel saxpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
             for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }",
        );
        let m = MachineConfig::intel_dunnington();
        let k = compile(&p, &SlpConfig::for_machine(m, Strategy::Holistic));
        let mut arena = Arena::new(1 << 20);
        let b = Budgets::default();
        let s = eval_scalar_program(&p, &mut arena, &b).unwrap();
        let v = eval_compiled_kernel(&k, &mut arena, &b).unwrap();
        assert!(!s.dirty.is_empty());
        assert!(
            s.dirty.windows(2).all(|w| w[0] < w[1]),
            "sorted, deduplicated"
        );
        for &(a, off) in s.dirty.iter().chain(&v.dirty) {
            let ts = s.cell_term(&mut arena, a, off);
            let tv = v.cell_term(&mut arena, a, off);
            assert_eq!(ts, tv, "cell ({a}, {off}) diverged");
        }
    }

    /// A loop, then four statements that Holistic packs into superwords:
    /// the last block runs last, and the loop's statement lies outside it.
    const TAIL: &str = "kernel tail { array A: f64[8]; array B: f64[8];
         for i in 0..8 { B[i] = A[i] * 2.0; }
         A[0] = B[0] + 1.0; A[1] = B[1] + 1.0; A[2] = B[2] + 1.0; A[3] = B[3] + 1.0; }";

    fn last_schedule(k: &CompiledKernel) -> usize {
        let last = k.program.blocks().last().unwrap().id;
        k.schedules.iter().position(|(b, _)| *b == last).unwrap()
    }

    /// `TAIL` compiled, with its last block's schedule extended by `extra`.
    fn tampered(extra: impl Fn(&CompiledKernel) -> Vec<ScheduledItem>) -> CompiledKernel {
        let m = MachineConfig::intel_dunnington();
        let mut k = compile(
            &program(TAIL),
            &SlpConfig::for_machine(m, Strategy::Holistic),
        );
        let at = last_schedule(&k);
        let (bid, sched) = k.schedules[at].clone();
        assert!(sched.is_vectorized(), "{sched:?}");
        let mut items = sched.items().to_vec();
        items.extend(extra(&k));
        k.schedules[at] = (bid, BlockSchedule::new(items));
        k
    }

    fn first_superword(k: &CompiledKernel) -> ScheduledItem {
        let items = k.schedules[last_schedule(k)].1.items();
        let sw = items
            .iter()
            .find(|it| matches!(it, ScheduledItem::Superword(_)));
        sw.expect("a superword").clone()
    }

    fn steps_of(k: &CompiledKernel) -> u64 {
        let mut arena = Arena::new(1 << 20);
        eval_compiled_kernel(k, &mut arena, &Budgets::default())
            .unwrap()
            .steps
    }

    #[test]
    fn step_budget_runs_out_inside_a_superword() {
        // Re-running a superword after the kernel's last item passes the
        // static screen (which counts each statement once) and overshoots
        // at the superword's second lane.
        let plain = steps_of(&tampered(|_| Vec::new()));
        let k = tampered(|k| vec![first_superword(k)]);
        let b = Budgets {
            max_terms: 1 << 20,
            max_steps: plain + 1,
        };
        let mut arena = Arena::new(b.max_terms);
        let got = eval_compiled_kernel(&k, &mut arena, &b).unwrap_err();
        let want = format!("exceeded {} dynamic statements", plain + 1);
        assert_eq!(got, EvalError::Budget(want));
    }

    #[test]
    fn term_budget_runs_out_on_a_constant_fold() {
        // Terms: the input of `s`, 2.0, 3.0, then the folded 6.0.
        let p = program(
            "kernel fold { array A: f64[1]; scalar s: f64;
             s = 2.0; A[0] = s * 3.0; }",
        );
        let mut arena = Arena::new(3);
        let got = eval_scalar_program(&p, &mut arena, &Budgets::default()).unwrap_err();
        let want = "term arena exceeded 3 distinct terms".to_string();
        assert_eq!(got, EvalError::Budget(want));
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn foreign_statement_is_reported_when_its_item_is_reached() {
        let foreign = |k: &CompiledKernel| {
            vec![ScheduledItem::Single(
                k.program.blocks()[0].block.stmts()[0].id(),
            )]
        };
        let k = tampered(foreign);
        let id = k.program.blocks()[0].block.stmts()[0].id();
        let mut arena = Arena::new(1 << 20);
        let got = eval_compiled_kernel(&k, &mut arena, &Budgets::default()).unwrap_err();
        let want = format!("schedule references {id} outside its block");
        assert_eq!(got, EvalError::Unsupported(want));

        // The items before it run first: when they exhaust the step
        // budget, that is the error.
        let plain = steps_of(&tampered(|_| Vec::new()));
        let k = tampered(|k| [vec![first_superword(k)], foreign(k)].concat());
        let b = Budgets {
            max_terms: 1 << 20,
            max_steps: plain + 1,
        };
        let mut arena = Arena::new(b.max_terms);
        let got = eval_compiled_kernel(&k, &mut arena, &b).unwrap_err();
        let want = format!("exceeded {} dynamic statements", plain + 1);
        assert_eq!(got, EvalError::Budget(want));
    }

    #[test]
    fn step_budget_degrades() {
        let p = program(
            "kernel big { array A: f64[16]; scalar t: f64;
             for i in 0..16 { t = A[i]; A[i] = t * 2.0; } }",
        );
        let mut arena = Arena::new(1 << 20);
        let b = Budgets {
            max_terms: 1 << 20,
            max_steps: 4,
        };
        match eval_scalar_program(&p, &mut arena, &b) {
            Err(EvalError::Budget(_)) => {}
            other => panic!("expected budget degrade, got {other:?}"),
        }
    }

    #[test]
    fn oob_is_unsupported() {
        let p = program(
            "kernel bad { array A: f64[4]; scalar x: f64;
             for i in 0..8 { x = A[i]; A[i] = x; } }",
        );
        let mut arena = Arena::new(1 << 20);
        match eval_scalar_program(&p, &mut arena, &Budgets::default()) {
            Err(EvalError::Unsupported(_)) => {}
            other => panic!("expected unsupported, got {other:?}"),
        }
    }

    #[test]
    fn dead_loop_body_never_runs() {
        let p = program(
            "kernel dead { array A: f64[4]; scalar x: f64;
             for i in 4..4 { x = A[i]; A[i] = x + 1.0; } }",
        );
        let mut arena = Arena::new(1 << 20);
        let s = eval_scalar_program(&p, &mut arena, &Budgets::default()).unwrap();
        assert!(s.dirty.is_empty());
        assert_eq!(s.steps, 0);
    }
}
