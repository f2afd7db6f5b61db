//! The end-to-end compilation pipeline (paper Figure 3).
//!
//! Pre-processing (loop unrolling, alignment analysis) → holistic SLP
//! optimizer (statement grouping + statement scheduling) → data layout
//! optimization. The output is a [`CompiledKernel`]: the transformed
//! program plus a per-block schedule, a scalar memory layout and the array
//! replications, ready for the `slp-vm` code generator and interpreter.

use std::sync::Arc;

use slp_analyze::SafetyCert;
use slp_ir::{
    unroll_program, BlockDeps, BlockId, BlockInfo, Dest, LoopHeader, Program, StmtId, TypeEnv,
};

use crate::baseline::{baseline_block, baseline_groups};
use crate::deadline::{Deadline, Expired};
use crate::emit::{estimate_scalar_cost, estimate_schedule_cost, CostContext, LayoutView};
use crate::group::group_block_under;
use crate::layout::array::{optimize_array_layout, Replication};
use crate::layout::collect_pack_uses;
use crate::layout::scalar::{optimize_scalar_layout, ScalarLayout};
use crate::machine::MachineConfig;
use crate::native::native_block;
use crate::schedule::{schedule_block, schedule_in_program_order};
use crate::superword::{validate_schedule, BlockSchedule};
use crate::telemetry::{Phase, PhaseTimings};
use crate::{BlockIndex, Unit, WeightParams};

/// Which SLP strategy to compile with — the four schemes compared in §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// No SLP at all: the scalar code the speedups are normalized to.
    Scalar,
    /// The native compiler's simple vectorizer ("Native").
    Native,
    /// Larsen & Amarasinghe's algorithm ("SLP").
    Baseline,
    /// This paper's holistic optimizer ("Global"); add layout for
    /// "Global+Layout" via [`SlpConfig::layout`].
    Holistic,
    /// Exact statement packing: the holistic heuristic's result is the
    /// warm-start incumbent of a 0-1 ILP branch-and-bound search (the
    /// goSLP formulation) run by the installed [`Packer`] under the
    /// anytime budgets in [`SlpConfig::opt`]. Degrades to the heuristic
    /// when the budget expires, recorded in
    /// [`CompileStats::opt_degraded`].
    Optimal,
}

impl Strategy {
    /// The figure-legend name of the strategy.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Scalar => "scalar",
            Strategy::Native => "Native",
            Strategy::Baseline => "SLP",
            Strategy::Holistic => "Global",
            Strategy::Optimal => "Optimal",
        }
    }

    /// The CLI name of the strategy (`scalar`, `native`, `slp`,
    /// `global`, `optimal`), as parsed by
    /// [`FromStr`](std::str::FromStr) and rendered by
    /// [`Display`](std::fmt::Display). The parser additionally accepts
    /// `auto-adjacent` as an alias for `native`; rendering always uses
    /// the canonical spelling. Distinct from [`Strategy::label`], which
    /// follows the figure legends.
    pub fn cli_name(self) -> &'static str {
        match self {
            Strategy::Scalar => "scalar",
            Strategy::Native => "native",
            Strategy::Baseline => "slp",
            Strategy::Holistic => "global",
            Strategy::Optimal => "optimal",
        }
    }

    /// Whether the strategy's backend reuses a live pack in another lane
    /// order through a permute. Indirect superword reuse is this paper's
    /// contribution; the baseline algorithms neglect it (§4.3: "... which
    /// is neglected in the original SLP algorithm"), so their code — and
    /// their estimate — only gets direct reuse. The Optimal solver prices
    /// permutes with the tables the holistic optimizer uses.
    pub fn permuted_reuse(self) -> bool {
        matches!(self, Strategy::Holistic | Strategy::Optimal)
    }

    /// All strategies, in figure order (the solver-backed `Optimal`
    /// scheme last).
    pub const ALL: [Strategy; 5] = [
        Strategy::Scalar,
        Strategy::Native,
        Strategy::Baseline,
        Strategy::Holistic,
        Strategy::Optimal,
    ];
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.cli_name())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Strategy::Scalar),
            // `auto-adjacent` names what the native vectorizer actually
            // does — pack only adjacent statements — and is kept as an
            // accepted alias so scripts can use either spelling.
            "native" | "auto-adjacent" => Ok(Strategy::Native),
            "slp" => Ok(Strategy::Baseline),
            "global" => Ok(Strategy::Holistic),
            "optimal" => Ok(Strategy::Optimal),
            other => Err(format!(
                "unknown strategy '{other}' (expected scalar, native (alias auto-adjacent), \
                 slp, global or optimal)"
            )),
        }
    }
}

/// Anytime budgets for the [`Strategy::Optimal`] packing solver.
///
/// Both budgets are disabled-at-zero: `deadline_ms == 0` means no wall
/// deadline, `max_nodes == 0` means no node cap. Tests that need
/// deterministic behaviour across machines should budget by nodes only
/// (a wall deadline makes the point of interruption timing-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptParams {
    /// Wall-clock deadline in milliseconds of *one block solve*; `0`
    /// disables it. The clock restarts for every block and for each
    /// pass of the Global+Layout dual arbitration, so a kernel of `b`
    /// blocks may solve for up to `2·b·deadline_ms`; a compile's own
    /// [`Deadline`], when it has one, caps every solve as well.
    pub deadline_ms: u64,
    /// Maximum branch-and-bound nodes expanded per block; `0` means
    /// unlimited.
    pub max_nodes: u64,
}

impl Default for OptParams {
    fn default() -> Self {
        OptParams {
            deadline_ms: 500,
            max_nodes: 1 << 20,
        }
    }
}

/// Everything a [`Packer`] needs to (re)pack one basic block: the block
/// and its dependence graph, the surrounding program context the cost
/// model reads, and the heuristic's schedule as a warm-start incumbent.
#[derive(Debug)]
pub struct PackRequest<'a> {
    /// The block to pack ([`BlockIndex::block`]), indexed: positions,
    /// operand keys, isomorphism classes and lane caps.
    pub ix: &'a BlockIndex<'a>,
    /// The block's dependence graph.
    pub deps: &'a BlockDeps,
    /// The unrolled program the block belongs to.
    pub program: &'a Program,
    /// The block's enclosing loop nest.
    pub loops: &'a [LoopHeader],
    /// Upward-exposed (memory-resident) scalars of `program`.
    pub exposed: &'a [bool],
    /// The full pipeline configuration (machine, weights, budgets).
    pub config: &'a SlpConfig,
    /// Whether the cost model should assume the §5 layout stage runs
    /// afterwards (the optimistic half of the dual arbitration).
    pub optimism: bool,
    /// The heuristic's schedule for this block — the warm-start
    /// incumbent the solver must never return worse than.
    pub incumbent: &'a BlockSchedule,
    /// `incumbent`'s estimated cost under this request's cost context.
    pub incumbent_cost: f64,
    /// The compile's own [`Deadline`] as an instant, if it has one: a
    /// packer stops searching there and returns its best so far (the
    /// pipeline's next checkpoint then abandons the compile).
    pub stop_at: Option<std::time::Instant>,
}

impl<'a> PackRequest<'a> {
    /// The cost-model context of the request's block: what every
    /// schedule of it is priced with.
    pub fn cost_context(&self) -> CostContext<'a> {
        CostContext {
            program: self.program,
            loops: self.loops,
            exposed: self.exposed,
            cost: &self.config.machine.cost,
            vector_regs: self.config.machine.vector_regs,
            layout: [LayoutView::None, LayoutView::Assumed][usize::from(self.optimism)],
            permuted_reuse: self.config.strategy.permuted_reuse(),
        }
    }
}

/// What a [`Packer`] proved about one block.
#[derive(Debug, Clone)]
pub struct PackOutcome {
    /// The chosen schedule (never costlier than the incumbent).
    pub schedule: BlockSchedule,
    /// The chosen schedule's estimated cost.
    pub cost: f64,
    /// The proven lower bound on any valid packing's cost. Equal to
    /// `cost` when the search ran to completion (gap 0); `0.0` when
    /// nothing was proven.
    pub lower_bound: f64,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// Whether a budget expired before the search completed (the
    /// result is still valid, just not proven optimal).
    pub degraded: bool,
}

/// A statement-packing engine for one basic block, pluggable behind
/// [`Strategy::Optimal`].
///
/// The pipeline hands every packer the holistic heuristic's schedule as
/// a warm-start incumbent; a correct implementation returns either that
/// incumbent or something it costed strictly cheaper, so `Optimal` can
/// never regress the heuristic. The `slp-opt` crate provides the real
/// branch-and-bound implementation; with none installed, `Optimal` ships
/// the incumbent unchanged.
pub trait Packer: Send + Sync {
    /// Packs one block, improving on (or keeping) the incumbent.
    fn pack(&self, req: &PackRequest<'_>) -> PackOutcome;

    /// A short display name for diagnostics.
    fn name(&self) -> &str {
        "packer"
    }
}

impl std::fmt::Debug for dyn Packer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Packer({})", self.name())
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct SlpConfig {
    /// The target machine (datapath width, costs).
    pub machine: MachineConfig,
    /// Which optimizer runs.
    pub strategy: Strategy,
    /// Unroll factor for innermost loops; `0` chooses the factor that
    /// fills the datapath with the program's dominant element type.
    pub unroll: usize,
    /// Whether the data layout stage runs (Global+Layout).
    pub layout: bool,
    /// Grouping weight knobs.
    pub weights: WeightParams,
    /// Anytime budgets for the [`Strategy::Optimal`] solver. Ignored by
    /// every other strategy.
    pub opt: OptParams,
    /// The packing engine [`Strategy::Optimal`] runs; `None` (the
    /// default) ships the holistic heuristic's schedule, proving nothing.
    /// The `slp-driver` front-ends install the `slp-opt` branch-and-bound
    /// solver here.
    pub packer: Option<Arc<dyn Packer>>,
}

impl SlpConfig {
    /// The configuration used throughout §7 for a given machine and
    /// strategy: auto unroll, layout off.
    pub fn for_machine(machine: MachineConfig, strategy: Strategy) -> Self {
        SlpConfig {
            machine,
            strategy,
            unroll: 0,
            layout: false,
            weights: WeightParams::default(),
            opt: OptParams::default(),
            packer: None,
        }
    }

    /// Enables the data layout stage (the paper's Global+Layout scheme).
    pub fn with_layout(mut self) -> Self {
        self.layout = true;
        self
    }

    /// Installs a packing engine for [`Strategy::Optimal`].
    pub fn with_packer(mut self, packer: impl Packer + 'static) -> Self {
        self.packer = Some(Arc::new(packer));
        self
    }

    /// Sets the [`Strategy::Optimal`] anytime budgets (`0` disables the
    /// corresponding budget).
    pub fn with_opt_budget(mut self, deadline_ms: u64, max_nodes: u64) -> Self {
        self.opt = OptParams {
            deadline_ms,
            max_nodes,
        };
        self
    }
}

/// Aggregate statistics of one compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Statements after unrolling.
    pub stmts: usize,
    /// Basic blocks processed.
    pub blocks: usize,
    /// Superword statements emitted.
    pub superwords: usize,
    /// Statements covered by superword statements.
    pub vectorized_stmts: usize,
    /// Scalar superwords the layout stage satisfied.
    pub scalar_packs_laid_out: usize,
    /// Array replications committed.
    pub replications: usize,
    /// Branch-and-bound nodes the [`Strategy::Optimal`] solver expanded
    /// across all blocks (0 for every other strategy).
    pub opt_nodes: u64,
    /// The proven optimality gap of the [`Strategy::Optimal`] result in
    /// parts per million: `(cost − lower_bound) / cost · 10⁶` summed
    /// over blocks. `0` means the packing was proven optimal;
    /// `1_000_000` means nothing was proven (no solver installed).
    pub opt_gap_ppm: u64,
    /// Whether any [`Strategy::Optimal`] block solve hit its anytime
    /// budget and degraded to the (still-valid) best-known packing.
    pub opt_degraded: bool,
    /// Array accesses the safety certificate proved in bounds for every
    /// iteration (candidates for unchecked bytecode execution).
    pub accesses_proven_safe: usize,
    /// Array accesses the certificate could not classify (executed with
    /// full bounds checks).
    pub accesses_unknown: usize,
    /// Array accesses proven to fault on some attained iteration.
    /// Non-zero means `slp-verify` reports a V505 error.
    pub accesses_proven_faulting: usize,
}

/// The result of compiling one kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The transformed program (unrolled; references rewritten when the
    /// layout stage replicated arrays).
    pub program: Program,
    /// Per-block schedules, keyed by the block's stable id.
    pub schedules: Vec<(BlockId, BlockSchedule)>,
    /// Memory placement of scalar variables.
    pub scalar_layout: ScalarLayout,
    /// Array replications the runtime performs before the kernel's loops.
    pub replications: Vec<Replication>,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Per-access memory-safety certificate over the *transformed*
    /// program: the bytecode engine elides bounds checks for accesses
    /// proven safe; `slp-verify` turns faulting/unknown verdicts into
    /// V505/V506 diagnostics.
    pub safety: SafetyCert,
    /// The configuration the kernel was compiled with.
    pub config: SlpConfig,
}

impl CompiledKernel {
    /// The schedule of block `id`, if any.
    pub fn schedule_of(&self, id: BlockId) -> Option<&BlockSchedule> {
        self.schedules
            .iter()
            .find(|(b, _)| *b == id)
            .map(|(_, s)| s)
    }
}

/// Compiles `program` under `config`.
///
/// For the Global+Layout scheme stage 1 arbitrates every block's grouping
/// proposals twice — once under the assumption that the layout stage will
/// repair strided read-only packs, once without — and, where the two
/// passes disagree, the pipeline keeps the variant with the lower
/// end-to-end cost estimate. This implements the paper's rule that the
/// layout stage is skipped when it does not pay ("the benefit of layout
/// optimization has to outweigh the cost").
///
/// # Panics
///
/// Panics if an optimizer produces a schedule violating the §4.1 validity
/// constraints — an internal invariant, exercised heavily by the test
/// suite. Checking the finished kernel is the caller's step
/// (`slp_verify::verify_kernel`, or the driver's `VerifyLevel`).
pub fn compile(program: &Program, config: &SlpConfig) -> CompiledKernel {
    compile_timed(program, config).0
}

/// Compiles `program` under `config`, additionally returning the wall
/// time each pipeline [`Phase`] consumed.
///
/// The timings of the Global+Layout dual arbitration cover both passes —
/// they answer "where did this compilation spend its time", not "how long
/// would a single pass take". Semantics and panics are identical to
/// [`compile`].
pub fn compile_timed(program: &Program, config: &SlpConfig) -> (CompiledKernel, PhaseTimings) {
    compile_within(program, config, Deadline::default()).expect("no deadline was set")
}

/// [`compile_timed`] under a cooperative [`Deadline`]: the pipeline
/// checks it at the top of every block, between a block's grouping
/// proposals, once per §4.2.2 grouping round, per solver node (through
/// [`PackRequest::stop_at`]) and before stage 2, and gives up with
/// [`Expired`] at the first checkpoint past it. With no deadline this
/// *is* [`compile_timed`], panics included.
pub fn compile_within(
    program: &Program,
    config: &SlpConfig,
    deadline: Deadline,
) -> Result<(CompiledKernel, PhaseTimings), Expired> {
    let mut timings = PhaseTimings::new();
    let dual = matches!(config.strategy, Strategy::Holistic | Strategy::Optimal);
    // The optimistic pass first: it ships when the estimates tie.
    let passes: &[bool] = if dual && config.layout {
        &[true, false]
    } else {
        &[false]
    };
    let kernel = compile_passes(program, config, passes, deadline, &mut timings)?;
    Ok((kernel, timings))
}

/// Total estimated cycles of a compiled kernel: per-block schedule cost
/// times dynamic trip count, plus the one-time replication copies.
///
/// This is the arbiter of the Global+Layout dual compile; it is public
/// so callers (`tests/opt_suite.rs`, `benchmark/`) can compare kernels
/// compiled under different strategies through the same estimator the
/// pipeline uses.
pub fn estimate_kernel_cost(kernel: &CompiledKernel) -> f64 {
    let exposed = kernel.program.upward_exposed_scalars();
    let mut total = 0.0;
    for info in kernel.program.blocks() {
        let cx = CostContext {
            program: &kernel.program,
            loops: &info.loops,
            exposed: &exposed,
            cost: &kernel.config.machine.cost,
            vector_regs: kernel.config.machine.vector_regs,
            layout: LayoutView::None,
            permuted_reuse: kernel.config.strategy.permuted_reuse(),
        };
        let per_exec = match kernel.schedule_of(info.id) {
            Some(sched) => {
                let lanes = |ty| kernel.config.machine.lanes_for(ty);
                let ix = BlockIndex::new(&info.block, &kernel.program, lanes);
                estimate_schedule_cost(&ix, sched, &cx)
            }
            None => estimate_scalar_cost(&info.block, &cx),
        };
        // Saturating: a pathological nest can overflow the product long
        // before the VM would ever run it.
        let trips: i64 = info
            .loops
            .iter()
            .fold(1i64, |acc, h| acc.saturating_mul(h.trip_count()));
        total += per_exec * trips.max(1) as f64;
    }
    let c = &kernel.config.machine.cost;
    for r in &kernel.replications {
        total += r.copy_count() as f64 * (c.scalar_load + c.scalar_store);
    }
    total
}

/// What one stage-1 pass chose: a schedule per block and, under
/// [`Strategy::Optimal`], the solver's tallies — the per-block costs and
/// proven lower bounds summed, so the whole-kernel optimality gap can be
/// reported in parts per million.
#[derive(Default)]
struct Stage1 {
    schedules: Vec<BlockSchedule>,
    opt_nodes: u64,
    opt_degraded: bool,
    opt_cost: f64,
    opt_bound: f64,
}

/// The pipeline behind [`compile_within`], with one stage-1 pass per entry
/// of `passes` (one or two), each arbitrating under that `optimism`:
/// whether the cost model assumes the §5 layout stage runs afterwards.
/// Pre-processing runs once, and so does everything of stage 1 that
/// `optimism` does not reach; where two passes chose the same schedules
/// the kernels are the same and one is finished, otherwise the one
/// estimated cheaper ships (the first on ties). Public for the test that
/// holds the dual compile to two independent single passes.
#[doc(hidden)]
pub fn compile_passes(
    program: &Program,
    config: &SlpConfig,
    passes: &[bool],
    deadline: Deadline,
    timings: &mut PhaseTimings,
) -> Result<CompiledKernel, Expired> {
    let mut program = program.clone();

    // Pre-processing: unroll innermost loops to expose SLP.
    let unroll = if config.unroll == 0 {
        config.machine.lanes_for(dominant_type(&program))
    } else {
        config.unroll
    };
    if config.strategy != Strategy::Scalar {
        timings.time(Phase::Unroll, || unroll_program(&mut program, unroll));
    }

    // Stage 1: superword statement generation, block by block.
    let exposed = program.upward_exposed_scalars();
    let infos = program.blocks();
    let stats = CompileStats {
        stmts: program.stmt_count(),
        blocks: infos.len(),
        ..CompileStats::default()
    };
    let mut chosen: Vec<Stage1> = passes.iter().map(|_| Stage1::default()).collect();
    for info in &infos {
        deadline.check()?;
        let deps = timings.time(Phase::Alignment, || {
            BlockDeps::analyze_in(&info.block, &info.loops)
        });
        let ix = BlockIndex::new(&info.block, &program, |ty| config.machine.lanes_for(ty));
        let sole = |sched| vec![(sched, false)];
        let proposals = match config.strategy {
            Strategy::Scalar => sole(BlockSchedule::scalar(&info.block)),
            Strategy::Native => sole(timings.time(Phase::Grouping, || native_block(&ix, &deps))),
            Strategy::Baseline => {
                sole(timings.time(Phase::Grouping, || baseline_block(&ix, &deps)))
            }
            Strategy::Holistic | Strategy::Optimal => {
                holistic_proposals(&ix, &deps, config, passes, deadline, timings)?
            }
        };
        for (k, &optimism) in passes.iter().enumerate() {
            let (earlier, pass) = chosen.split_at_mut(k);
            let pass = &mut pass[0];
            let sched = 'pass: {
                if let [(only, _)] = proposals.as_slice() {
                    break 'pass only.clone();
                }
                let cx = CostContext {
                    program: &program,
                    loops: &info.loops,
                    exposed: &exposed,
                    cost: &config.machine.cost,
                    vector_regs: config.machine.vector_regs,
                    layout: if optimism {
                        LayoutView::Assumed
                    } else {
                        LayoutView::None
                    },
                    permuted_reuse: config.strategy.permuted_reuse(),
                };
                let (incumbent, incumbent_cost) = cheapest_proposal(&ix, &proposals, &cx);
                if config.strategy == Strategy::Holistic {
                    break 'pass incumbent;
                }
                // Warm start: the full holistic arbitration provides the
                // incumbent the branch-and-bound solver must beat (or
                // keep), so `Optimal` can never regress `Holistic`.
                let req = PackRequest {
                    ix: &ix,
                    deps: &deps,
                    program: &program,
                    loops: &info.loops,
                    exposed: &exposed,
                    config,
                    optimism,
                    incumbent: &incumbent,
                    incumbent_cost,
                    stop_at: deadline.0,
                };
                let outcome = timings.time(Phase::Solve, || match &config.packer {
                    Some(p) => p.pack(&req),
                    // No solver installed: the incumbent ships, proving nothing.
                    None => PackOutcome {
                        schedule: incumbent.clone(),
                        cost: incumbent_cost,
                        lower_bound: 0.0,
                        nodes: 0,
                        degraded: true,
                    },
                });
                pass.opt_nodes += outcome.nodes;
                pass.opt_degraded |= outcome.degraded;
                pass.opt_cost += outcome.cost.max(0.0);
                pass.opt_bound += outcome.lower_bound.clamp(0.0, outcome.cost.max(0.0));
                outcome.schedule
            };
            // Translation-validation backstop: every scheduler must produce a
            // §4.1-valid schedule. This *has* fired on fuzzed inputs — grouping
            // once combined pairwise-independent chains whose non-adjacent lanes
            // were dependent (independence is not transitive) — so it stays an
            // `expect`: an invalid schedule is a miscompile and must not ship.
            // (What an earlier pass chose for this block passed already.)
            if !earlier.iter().any(|p| p.schedules.last() == Some(&sched)) {
                let lane_cap = |s: StmtId| ix.lane_cap(ix.position(s));
                validate_schedule(&info.block, &deps, &sched, &program, lane_cap)
                    .expect("optimizer produced an invalid schedule");
            }
            pass.schedules.push(sched);
        }
    }

    let mut chosen = chosen.into_iter();
    let first = chosen.next().expect("at least one pass");
    deadline.check()?;
    let Some(second) = chosen.next().filter(|p| p.schedules != first.schedules) else {
        return Ok(finish(program, infos, first, stats, config, timings));
    };
    let first = finish(
        program.clone(),
        infos.clone(),
        first,
        stats,
        config,
        timings,
    );
    deadline.check()?;
    let second = finish(program, infos, second, stats, config, timings);
    let first_ships = estimate_kernel_cost(&first) <= estimate_kernel_cost(&second);
    Ok(if first_ships { first } else { second })
}

/// Stage 2 and assembly: lays out, certifies and packages what the
/// stage-1 pass `chosen` scheduled for the unrolled `program`.
fn finish(
    mut program: Program,
    infos: Vec<BlockInfo>,
    chosen: Stage1,
    mut stats: CompileStats,
    config: &SlpConfig,
    timings: &mut PhaseTimings,
) -> CompiledKernel {
    for sched in &chosen.schedules {
        stats.superwords += sched.superword_count();
        stats.vectorized_stmts += sched
            .items()
            .iter()
            .filter(|i| i.stmts().len() > 1)
            .map(|i| i.stmts().len())
            .sum::<usize>();
    }
    if config.strategy == Strategy::Optimal {
        stats.opt_nodes = chosen.opt_nodes;
        stats.opt_degraded = chosen.opt_degraded;
        stats.opt_gap_ppm = if chosen.opt_cost > 0.0 {
            let gap = (chosen.opt_cost - chosen.opt_bound).max(0.0) / chosen.opt_cost;
            (gap * 1e6).round() as u64
        } else {
            0
        };
    }
    let schedules: Vec<(BlockInfo, BlockSchedule)> =
        infos.into_iter().zip(chosen.schedules).collect();

    // Stage 2: data layout optimization.
    let layout_start = std::time::Instant::now();
    let uses = collect_pack_uses(&schedules);
    let (scalar_layout, satisfied) = if config.layout {
        optimize_scalar_layout(&program, &uses)
    } else {
        (ScalarLayout::declaration_order(&program), 0)
    };
    stats.scalar_packs_laid_out = satisfied;
    let replications = if config.layout {
        optimize_array_layout(&mut program, &uses, &config.machine.cost)
    } else {
        Vec::new()
    };
    stats.replications = replications.len();
    timings.add(Phase::Layout, layout_start.elapsed());

    // Certify the final transformed program — replication rewrites and
    // unrolling are already applied, so the certificate describes exactly
    // the accesses the VM will execute.
    let safety = timings.time(Phase::Safety, || SafetyCert::certify(&program));
    stats.accesses_proven_safe = safety.proven_safe();
    stats.accesses_unknown = safety.unknown();
    stats.accesses_proven_faulting = safety.proven_faulting();

    CompiledKernel {
        program,
        schedules: schedules
            .into_iter()
            .map(|(info, s)| (info.id, s))
            .collect(),
        scalar_layout,
        replications,
        stats,
        safety,
        config: config.clone(),
    }
}

/// The holistic optimizer's grouping proposals for one block, each
/// scheduled and flagged if only a layout-aware (optimistic) pass weighs
/// it: the holistic grouping under the configured and the paper's
/// pure-reuse weight profiles, then the adjacency-seeded grouping under
/// both this framework's scheduler and the original program order. The
/// pure-reuse weights surface the gather-heavy, reuse-rich groupings that
/// replication repairs, so they are built only if a pass is optimistic (and not
/// twice if they are the configured ones). None depends on a pass.
/// `deadline` is checked between proposals and inside the grouping.
fn holistic_proposals(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    config: &SlpConfig,
    passes: &[bool],
    deadline: Deadline,
    timings: &mut PhaseTimings,
) -> Result<Vec<(BlockSchedule, bool)>, Expired> {
    let mut profiles = vec![config.weights];
    if passes.contains(&true) && config.weights != WeightParams::reuse_only() {
        profiles.push(WeightParams::reuse_only());
    }
    let groupings = timings.time(Phase::Grouping, || {
        group_block_under(ix, deps, &profiles, deadline)
    })?;
    // A unit list equal to an earlier grouping's schedules the same: the
    // schedule of the first such, from `proposals` (one per grouping).
    let same_units = |units: &[Unit], proposals: &[(BlockSchedule, bool)]| {
        let mut earlier = groupings.iter().zip(proposals);
        earlier
            .find(|(g, _)| g.units == units)
            .map(|(_, (s, _))| s.clone())
    };
    let regs = config.machine.vector_regs;
    let mut proposals = Vec::with_capacity(4);
    for (k, g) in groupings.iter().enumerate() {
        deadline.check()?;
        let sched = same_units(&g.units, &proposals).unwrap_or_else(|| {
            timings.time(Phase::Scheduling, || {
                schedule_block(ix, deps, &g.units, regs)
            })
        });
        proposals.push((sched, k > 0));
    }
    deadline.check()?;
    let bg = timings.time(Phase::Grouping, || baseline_groups(ix, deps));
    let sched = same_units(&bg, &proposals)
        .unwrap_or_else(|| timings.time(Phase::Scheduling, || schedule_block(ix, deps, &bg, regs)));
    proposals.push((sched, false));
    let sched = timings.time(Phase::Scheduling, || {
        schedule_in_program_order(ix, deps, &bg)
    });
    proposals.push((sched, false));
    Ok(proposals)
}

/// The §4.3 cost model's arbitration between the [`holistic_proposals`]:
/// the cheapest under `cx` — the first of equals — and its estimated
/// cost. Keeping the cheapest implements the paper's "if we realize that
/// our transformation could potentially degrade the performance, we
/// choose not to apply it" at proposal granularity. `Strategy::Optimal`
/// reuses this as the solver's warm-start incumbent. A schedule equal to
/// an earlier proposal's is priced once.
fn cheapest_proposal(
    ix: &BlockIndex<'_>,
    proposals: &[(BlockSchedule, bool)],
    cx: &CostContext<'_>,
) -> (BlockSchedule, f64) {
    let mut priced: Vec<(f64, &BlockSchedule)> = Vec::with_capacity(proposals.len());
    for (s, optimistic) in proposals {
        if matches!(cx.layout, LayoutView::Assumed) || !optimistic {
            let earlier = priced.iter().find(|(_, e)| *e == s).map(|&(cost, _)| cost);
            priced.push((
                earlier.unwrap_or_else(|| estimate_schedule_cost(ix, s, cx)),
                s,
            ));
        }
    }
    (priced.into_iter())
        // Invariant: cost estimates are finite sums/products of finite
        // machine parameters, and `proposals` always holds at least the
        // program-order schedule.
        .min_by(|(a, _), (b, _)| a.partial_cmp(b).expect("finite costs"))
        .map(|(c, s)| (s.clone(), c))
        .expect("at least one proposal")
}

/// The most frequent destination element type, which the auto unroll
/// factor fills the datapath with.
fn dominant_type(program: &Program) -> slp_ir::ScalarType {
    let mut counts = std::collections::BTreeMap::new();
    program.for_each_stmt(|s| {
        let ty = match s.dest() {
            Dest::Scalar(_) | Dest::Array(_) => program.dest_type(s.dest()),
        };
        *counts.entry(ty).or_insert(0usize) += 1;
    });
    counts
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(t, _)| t)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "kernel k {
        const N = 32;
        array A: f64[2*N];
        array B: f64[4*N];
        scalar a, b: f64;
        for i in 0..N {
            a = A[2*i];
            b = A[2*i+1];
            A[2*i] = a + B[4*i] * a;
            A[2*i+1] = b + B[4*i+2] * b;
        }
    }";

    fn program() -> Program {
        slp_lang::compile(SRC).unwrap()
    }

    #[test]
    fn holistic_pipeline_vectorizes() {
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
        let k = compile(&program(), &cfg);
        assert!(k.stats.superwords > 0);
        assert!(k.stats.vectorized_stmts >= 4);
        // f64 on 128 bits: unrolled by 2, so the body has 8 statements.
        assert_eq!(k.stats.stmts, 8);
    }

    #[test]
    fn scalar_strategy_is_identity() {
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Scalar);
        let k = compile(&program(), &cfg);
        assert_eq!(k.stats.superwords, 0);
        assert_eq!(k.stats.stmts, 4, "scalar build does not unroll");
    }

    #[test]
    fn all_strategies_produce_valid_output() {
        for strategy in [Strategy::Native, Strategy::Baseline, Strategy::Holistic] {
            let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), strategy);
            let k = compile(&program(), &cfg); // validity asserted inside
            assert_eq!(k.schedules.len(), k.stats.blocks);
        }
    }

    /// A budget of zero expires at the first checkpoint of any strategy,
    /// and no deadline is no change.
    #[test]
    fn an_expired_deadline_is_an_error_not_a_kernel() {
        for strategy in Strategy::ALL {
            let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), strategy);
            let expired = compile_within(&program(), &cfg, Deadline::after_ms(Some(0)));
            assert_eq!(expired.err(), Some(Expired), "{strategy}");
            let (kernel, _) = compile_within(&program(), &cfg, Deadline::after_ms(None))
                .expect("no deadline, nothing to expire");
            assert_eq!(kernel.schedules, compile(&program(), &cfg).schedules);
        }
    }

    #[test]
    fn layout_stage_reports_work() {
        let cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic)
            .with_layout();
        let k = compile(&program(), &cfg);
        // The <a,b> dest pack gives the scalar layout something to place.
        assert!(k.stats.scalar_packs_laid_out > 0);
    }

    #[test]
    fn wider_datapath_unrolls_further() {
        let machine = MachineConfig::intel_dunnington().with_datapath_bits(512);
        let cfg = SlpConfig::for_machine(machine, Strategy::Holistic);
        let k = compile(&program(), &cfg);
        assert_eq!(k.stats.stmts, 32, "f64 at 512 bits unrolls 8x");
    }

    /// With no packer installed, `Optimal` ships the heuristic's
    /// incumbent and proves nothing about it.
    #[test]
    fn optimal_without_a_packer_ships_the_heuristic_unproven() {
        for layout in [false, true] {
            let cfg = |strategy| SlpConfig {
                layout,
                ..SlpConfig::for_machine(MachineConfig::intel_dunnington(), strategy)
            };
            let optimal = compile(&program(), &cfg(Strategy::Optimal));
            let holistic = compile(&program(), &cfg(Strategy::Holistic));
            assert!(estimate_kernel_cost(&optimal) > 0.0);
            assert_eq!(optimal.schedules, holistic.schedules, "layout {layout}");
            assert_eq!(optimal.stats.opt_nodes, 0);
            assert!(optimal.stats.opt_degraded);
            assert_eq!(optimal.stats.opt_gap_ppm, 1_000_000);
        }
    }
}

#[cfg(test)]
mod arbitration_tests {
    use super::*;

    /// A block where the adjacency-seeded baseline is optimal (pure
    /// contiguous streams): the arbitration must cost Global at or below
    /// the baseline — it can pick the baseline's own proposal.
    #[test]
    fn global_matches_baseline_when_baseline_is_optimal() {
        let p = slp_lang::compile(
            "kernel k { array A: f64[64]; array B: f64[64];
             for i in 0..32 { A[i] = B[i] * 2.0; } }",
        )
        .expect("compiles");
        let machine = MachineConfig::intel_dunnington();
        let global = compile(
            &p,
            &SlpConfig::for_machine(machine.clone(), Strategy::Holistic),
        );
        let baseline = compile(
            &p,
            &SlpConfig::for_machine(machine.clone(), Strategy::Baseline),
        );
        let exposed = global.program.upward_exposed_scalars();
        let cost_of = |k: &CompiledKernel| -> f64 {
            k.program
                .blocks()
                .iter()
                .map(|info| {
                    let cx = CostContext {
                        program: &k.program,
                        loops: &info.loops,
                        exposed: &exposed,
                        cost: &machine.cost,
                        vector_regs: machine.vector_regs,
                        layout: LayoutView::None,
                        permuted_reuse: Strategy::Holistic.permuted_reuse(),
                    };
                    estimate_schedule_cost(
                        &BlockIndex::new(&info.block, &k.program, |ty| machine.lanes_for(ty)),
                        k.schedule_of(info.id).expect("scheduled"),
                        &cx,
                    )
                })
                .sum()
        };
        assert!(cost_of(&global) <= cost_of(&baseline) + 1e-9);
    }

    /// The dual-arbitration Global+Layout path never estimates worse than
    /// plain Global on any suite kernel.
    #[test]
    fn layout_arbitration_never_regresses_estimates() {
        let machine = MachineConfig::intel_dunnington();
        for (spec, p) in slp_suite::all(1) {
            let g = compile(
                &p,
                &SlpConfig::for_machine(machine.clone(), Strategy::Holistic),
            );
            let gl = compile(
                &p,
                &SlpConfig::for_machine(machine.clone(), Strategy::Holistic).with_layout(),
            );
            // Compare through the estimator used for arbitration.
            let eg = super::estimate_kernel_cost(&g);
            let egl = super::estimate_kernel_cost(&gl);
            assert!(
                egl <= eg * 1.001,
                "{}: layout arbitration regressed ({egl} > {eg})",
                spec.name
            );
        }
    }

    #[test]
    fn strategy_labels_match_the_figures() {
        assert_eq!(Strategy::Scalar.label(), "scalar");
        assert_eq!(Strategy::Native.label(), "Native");
        assert_eq!(Strategy::Baseline.label(), "SLP");
        assert_eq!(Strategy::Holistic.label(), "Global");
    }

    #[test]
    fn strategy_cli_names_roundtrip() {
        for s in Strategy::ALL {
            assert_eq!(s.cli_name().parse::<Strategy>(), Ok(s));
            assert_eq!(s.to_string(), s.cli_name());
        }
        assert!("bogus".parse::<Strategy>().is_err());
    }
}
