//! Best-first branch-and-bound over packing states.
//!
//! A *state* is a [`Partition`] of the block's statements into grouping
//! units plus a set of excluded merges. The root is the all-singleton
//! partition with nothing excluded; branching picks the state's most
//! promising remaining variable and splits the state into the *include*
//! child (the two units merged, stale exclusions dropped) and the
//! *exclude* child (that exact merge forbidden forever). Any valid
//! partition is reachable through pairwise merges, so together the two
//! children cover every completion of the parent. An exclude child keeps
//! its parent's partition: one `Rc<Partition>` serves the whole chain.
//!
//! Each partition — not only leaves — may be the best packing, so the
//! first state over it to be expanded schedules and costs it with the
//! estimator the holistic optimizer arbitrates with: the incumbent
//! improves as soon as a better packing is *seen*, which makes the search
//! anytime. A partition whose [`Model::floor`] is not below the incumbent
//! is not evaluated: it cannot beat the incumbent, which only improves.
//! An evaluation is whole, never a delta on the parent's: a child keeps a
//! third of its parent's schedule as a prefix, and what a superword pays
//! to unpack depends on the items after it. States are expanded
//! best-first by [`Model::bound`] (FIFO among ties), deduplicated on
//! their canonical `(units, exclusions)` signature, and pruned when
//! their bound cannot beat the incumbent.
//!
//! On completion the incumbent is *optimal over statement packings
//! modulo the deterministic scheduler's lane ordering and
//! linearization*, and `lower_bound == cost`. When a budget expires
//! first, the incumbent (never worse than the heuristic warm start) ships
//! with the proven bound `min(incumbent, open-node bounds)`, `degraded`.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use slp_analysis::Unit;
use slp_core::{
    estimate_schedule_cost, schedule_block, schedule_in_program_order, BlockSchedule, CostContext,
    LayoutView, PackOutcome, PackRequest, Packer,
};

use crate::model::{Model, Partition};

/// Cost comparisons treat differences below this as ties, mirroring the
/// pipeline's own arbitration tolerance.
const EPS: f64 = 1e-9;

/// Exact statement packing: the [`Packer`] the driver installs for
/// [`slp_core::Strategy::Optimal`]. It solves each block to proven
/// optimality, or until a budget of the request's
/// [`slp_core::OptParams`] expires (`0` disables either) or the compile's
/// own [`PackRequest::stop_at`] passes, warm-started from the request's
/// incumbent. The wall budget is per call: every block, and each pass of
/// a dual compile, gets a fresh `deadline_ms`. Stateless, so a shared
/// instance is safe across threads and deterministic whenever the node
/// cap, not the clock, is binding.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalPacker;

impl Packer for OptimalPacker {
    fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
        search(req, |_, _, _, _| {}, |_, _, _, _, _| {})
    }

    fn name(&self) -> &str {
        "bnb-ilp"
    }
}

/// The cost-model context of a request's block.
pub(crate) fn cost_context<'a>(req: &PackRequest<'a>) -> CostContext<'a> {
    CostContext {
        program: req.program,
        loops: req.loops,
        exposed: req.exposed,
        cost: &req.config.machine.cost,
        vector_regs: req.config.machine.vector_regs,
        layout: [LayoutView::None, LayoutView::Assumed][usize::from(req.optimism)],
        permuted_reuse: req.config.strategy.permuted_reuse(),
    }
}

/// The search behind [`OptimalPacker`], reporting to tests: `expanded`
/// gets each partition with its floor, and whether the floor ruled out
/// its evaluation; `child` gets each child state `(part, skip)` with its
/// bound after its parent's.
fn search(
    req: &PackRequest<'_>,
    mut expanded: impl FnMut(&Model, &Partition, f64, bool),
    mut child: impl FnMut(&Model, &Partition, usize, f64, f64),
) -> PackOutcome {
    let opt = req.config.opt;
    let own =
        (opt.deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(opt.deadline_ms));
    let deadline = own.into_iter().chain(req.stop_at).min();
    let expired = |nodes: u64| {
        (opt.max_nodes > 0 && nodes >= opt.max_nodes)
            || deadline.is_some_and(|d| Instant::now() >= d)
    };
    let mut model = Model::new(req);

    let mut best_sched = req.incumbent.clone();
    let mut best_cost = req.incumbent_cost;
    let (mut nodes, mut seq) = (0u64, 0u64);
    // The minimum bound over the open states, if a budget expired.
    let mut frontier = None;

    // The open states by bound, FIFO among ties: bounds are sums of
    // prices, never negative, and such floats order as their bits do.
    let root = Rc::new(model.root());
    let mut open = BTreeMap::from([((model.bound(&root, 0).to_bits(), seq), (root, 0))]);

    while let Some(((bits, _), (part, skip))) = open.pop_first() {
        // Best-first invariant: every open state's bound is ≥ this
        // one's, so once the top cannot beat the incumbent the
        // incumbent is proven optimal.
        let bound = f64::from_bits(bits);
        if bound >= best_cost - EPS {
            break;
        }
        if expired(nodes) {
            // The tightest bound provable now, the least open one: child
            // bounds are monotone over their parents, so the unexpanded
            // frontier covers every unexplored completion.
            frontier = Some(bound);
            break;
        }
        nodes += 1;

        // Evaluate this state's partition, a complete packing (unmerged
        // units schedule as scalars), unless its floor rules it out. Debug
        // builds evaluate it anyway, to check the floor.
        let cost = *part.cost.get_or_init(|| {
            let floor = model.floor(&part);
            let hopeless = floor >= best_cost + EPS;
            expanded(&model, &part, floor, hopeless);
            (!hopeless || cfg!(debug_assertions)).then(|| {
                let (sched, cost) = evaluate(&model.units(&part), req);
                debug_assert!(floor <= cost + EPS, "floor {floor} > cost {cost}");
                if !hopeless && cost < best_cost - EPS {
                    (best_cost, best_sched) = (cost, sched);
                }
                cost
            })
        });
        if let (true, Some(cost)) = (cfg!(test), cost) {
            assert!(bound <= cost + EPS, "a state's bound exceeds its cost");
        }
        if skip == part.vars.len() {
            continue; // no candidate left: a leaf partition
        }

        // Include child: the branch variable's two units merged. Exclude
        // child: same partition, this exact merge forbidden.
        let include = model.include(&part, skip).map(|child| (Rc::new(child), 0));
        let exclude = model.exclude(&part, skip).then(|| (part, skip + 1));
        for (part, skip) in include.into_iter().chain(exclude) {
            let child_bound = model.bound(&part, skip);
            child(&model, &part, skip, bound, child_bound);
            if child_bound >= best_cost - EPS {
                continue; // pruned: cannot beat the incumbent
            }
            seq += 1;
            open.insert((child_bound.to_bits(), seq), (part, skip));
        }
    }

    // Otherwise the frontier was exhausted (or its top bound met the
    // incumbent): every completion was either visited or pruned against a
    // bound no lower than the final incumbent, so the incumbent is optimal
    // over packings modulo the scheduler and the proven bound meets it.
    PackOutcome {
        schedule: best_sched,
        cost: best_cost,
        lower_bound: frontier.unwrap_or(best_cost).clamp(0.0, best_cost),
        nodes,
        degraded: frontier.is_some(),
    }
}

/// Schedules a partition (framework scheduler and program order, keeping
/// the cheaper — ties favor the framework scheduler) and costs it with
/// the arbitration estimator: one walk when the two schedules coincide.
fn evaluate(units: &[Unit], req: &PackRequest<'_>) -> (BlockSchedule, f64) {
    let (ix, cx) = (req.ix, &cost_context(req));
    let a = schedule_block(ix, req.deps, units, req.config.machine.vector_regs);
    let ca = estimate_schedule_cost(ix, &a, cx);
    let b = schedule_in_program_order(ix, req.deps, units);
    if b == a {
        return (a, ca);
    }
    let cb = estimate_schedule_cost(ix, &b, cx);
    if cb < ca - EPS {
        (b, cb)
    } else {
        (a, ca)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    use slp_core::{compile, BlockIndex, MachineConfig, SlpConfig, Strategy};
    use slp_ir::Program;
    use slp_suite::{random_program, GeneratorConfig};

    use super::*;
    use crate::testutil::{each_block, legal_merges};

    /// The random program of generator seed `seed`: small bodies are
    /// unrolled twice so that isomorphic, independent statements are
    /// certain to exist.
    fn generated(seed: u64) -> Program {
        let body_stmts = 2 + (seed % 6) as usize;
        let mut program = random_program(
            seed,
            &GeneratorConfig {
                body_stmts,
                ..GeneratorConfig::default()
            },
        );
        if body_stmts <= 3 {
            slp_ir::unroll_program(&mut program, 2);
        }
        program
    }

    /// The suite and branchy kernels.
    fn suite() -> Vec<Program> {
        let mut programs: Vec<Program> = slp_suite::all(1)
            .into_iter()
            .map(|(_, program)| program)
            .collect();
        for name in slp_suite::branchy_catalog() {
            programs.push(slp_suite::branchy_kernel(name, 1));
        }
        assert_eq!(programs.len(), 20);
        programs
    }

    /// How many partitions an [`Audited`] search expanded, and how many
    /// of those the floor kept from evaluation.
    #[derive(Debug, Default)]
    struct Audit {
        expanded: usize,
        skipped: usize,
    }

    /// The search [`OptimalPacker`] runs, evaluating every partition it
    /// expands to check the partition's floor against its cost.
    #[derive(Debug, Clone, Default)]
    struct Audited(Arc<Mutex<Audit>>);

    impl Packer for Audited {
        fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
            let mut audit = self.0.lock().unwrap();
            let expanded = |model: &Model, part: &Partition, floor: f64, skipped: bool| {
                let cost = evaluate(&model.units(part), req).1;
                assert!(floor <= cost + EPS, "floor {floor} above the cost {cost}");
                audit.expanded += 1;
                audit.skipped += usize::from(skipped);
            };
            search(req, expanded, |_, _, _, _, _| {})
        }
    }

    /// The search [`OptimalPacker`] runs, rebuilding each child state
    /// from scratch — an include child (`skip` 0) to check the variables
    /// it inherited, an exclude child its parent's minus the branched
    /// one; counts the include children.
    #[derive(Debug, Clone, Default)]
    struct Inherited(Arc<Mutex<usize>>);

    impl Packer for Inherited {
        fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
            let mut included = self.0.lock().unwrap();
            let rebuild = |model: &Model, part: &Partition, skip: usize, _, _| {
                model.assert_rebuilds(part, skip);
                *included += usize::from(skip == 0);
            };
            search(req, |_, _, _, _| {}, rebuild)
        }
    }

    /// The search [`OptimalPacker`] runs, checking that a child's bound
    /// is never below its parent's. That holds on the suite, not always:
    /// see the test that relies on it.
    #[derive(Debug, Clone, Copy)]
    struct Monotone;

    impl Packer for Monotone {
        fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
            let monotone = |_: &Model, _: &Partition, _, parent: f64, child: f64| {
                assert!(
                    child >= parent - EPS,
                    "a child's bound is below its parent's"
                );
            };
            search(req, |_, _, _, _| {}, monotone)
        }
    }

    /// The reference search: the whole include/exclude tree, depth first,
    /// with no bound, no incumbent cut, no dedup and no shared state —
    /// exclusions are kept as the sorted statement-id lists themselves.
    /// Returns the cheapest cost any state's partition evaluates to.
    fn enumerate(
        units: &[Unit],
        excluded: &mut BTreeSet<[Vec<usize>; 2]>,
        req: &PackRequest<'_>,
        ix: &BlockIndex<'_>,
    ) -> f64 {
        let sorted_ids = |u: &Unit| {
            let mut ids: Vec<usize> = u.stmts().iter().map(|s| s.index()).collect();
            ids.sort_unstable();
            ids
        };
        let key = |&(a, b): &(usize, usize)| {
            let mut key = [sorted_ids(&units[a]), sorted_ids(&units[b])];
            key.sort();
            key
        };
        let mut best = evaluate(units, req).1;
        let var = legal_merges(ix, req.deps, units)
            .into_iter()
            .find(|var| !excluded.contains(&key(var)));
        if let Some((a, b)) = var {
            let mut merged = units.to_vec();
            merged[a] = Unit::merged(&units[a], &units[b]);
            merged.remove(b);
            best = best.min(enumerate(&merged, excluded, req, ix));
            excluded.insert(key(&(a, b)));
            best = best.min(enumerate(units, excluded, req, ix));
            excluded.remove(&key(&(a, b)));
        }
        best
    }

    /// The unrolled `namd` kernel on Intel, and the one partition of its
    /// 24-statement block this test names: twelve pairs, in unit order.
    const NAMD_PAIRS: [[u32; 2]; 12] = [
        [14, 15],
        [16, 26],
        [17, 27],
        [18, 30],
        [19, 31],
        [20, 21],
        [22, 23],
        [24, 35],
        [25, 34],
        [28, 29],
        [32, 33],
        [36, 37],
    ];

    #[test]
    fn evaluate_keeps_the_framework_schedule_unless_program_order_is_cheaper() {
        let config = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Optimal);
        let program = compile(&slp_suite::kernel("namd", 1), &config).program;
        let mut blocks = 0;
        each_block(&program, &config, |req| {
            let (ix, cx) = (req.ix, cost_context(req));
            let schedules = |units: &[Unit]| {
                let framework = schedule_block(ix, req.deps, units, cx.vector_regs);
                (framework, schedule_in_program_order(ix, req.deps, units))
            };
            // All singletons: both schedulers emit program order, and the
            // pair returned is the framework's.
            let singletons: Vec<Unit> = (ix.block().iter())
                .map(|s| Unit::singleton(s.id()))
                .collect();
            let (framework, order) = schedules(&singletons);
            assert_eq!(framework, order);
            let cost = estimate_schedule_cost(ix, &framework, &cx);
            assert_eq!(evaluate(&singletons, req), (framework, cost));

            // The search visits `NAMD_PAIRS` at node cap 500 (one of five
            // partitions of the suite, all of this block, that do this):
            // the live-set scheduler's order costs 1.6 cycles more than
            // plain program order, which is what ships.
            if ix.block().len() != 24 {
                return;
            }
            let unit = |&[a, b]: &[u32; 2]| {
                let single = |s| Unit::singleton(slp_ir::StmtId::new(s));
                Unit::merged(&single(a), &single(b))
            };
            let pairs: Vec<Unit> = NAMD_PAIRS.iter().map(unit).collect();
            let (framework, order) = schedules(&pairs);
            assert_ne!(framework, order);
            let cost = estimate_schedule_cost(ix, &order, &cx);
            assert!(cost < estimate_schedule_cost(ix, &framework, &cx) - 1.0);
            assert_eq!(evaluate(&pairs, req), (order, cost));
            blocks += 1;
        });
        assert_eq!(blocks, 1, "the block of NAMD_PAIRS");
    }

    #[test]
    fn exhausted_solves_find_the_enumerated_minimum() {
        let intel = MachineConfig::intel_dunnington();
        let machines = [intel.clone(), intel.with_datapath_bits(256)];
        let (mut blocks, mut improved) = (0, 0);
        for seed in 0..60u64 {
            let program = generated(seed);
            for machine in &machines {
                let config = SlpConfig::for_machine(machine.clone(), Strategy::Optimal)
                    .with_opt_budget(0, 0);
                each_block(&program, &config, |req| {
                    let block = req.ix.block();
                    assert!(block.len() <= 7);
                    let out = Monotone.pack(req);
                    assert!(!out.degraded, "no budget was set");
                    assert_eq!(out.lower_bound, out.cost, "an exhausted solve has no gap");

                    let singletons: Vec<Unit> =
                        block.iter().map(|s| Unit::singleton(s.id())).collect();
                    let minimum = enumerate(&singletons, &mut BTreeSet::new(), req, req.ix);
                    assert!(
                        (out.cost - minimum).abs() <= EPS,
                        "seed {seed} on {}: solver {} vs enumerated {minimum}\n{}",
                        machine.name,
                        out.cost,
                        block
                    );
                    blocks += 1;
                    improved += usize::from(out.cost < req.incumbent_cost - EPS);
                });
            }
        }
        assert!(
            improved >= 20,
            "only {improved} of {blocks} random blocks had a packing worth finding"
        );
    }

    /// In this crate's tests every solve asserts, state by state, that a
    /// bound never exceeds its partition's own cost (see `search`), and a
    /// solve watched by [`Monotone`] that it never falls below its
    /// parent's; this drives both over the real blocks. Monotonicity is
    /// *not* a theorem: an exclusion `{x}+{a}` does not stop `x` joining
    /// `{a,b}` later, so a singleton the bound charged as unpackable can
    /// become packable again below an include. Two blocks of the fuzz
    /// corpus (`panic-ir-1860-17`, `state-divergence-ir-1946-19`) do that,
    /// which is why neither check is a debug assertion; ROADMAP item 2
    /// has the story.
    #[test]
    fn bounds_are_admissible_and_monotone_over_the_suite() {
        for machine in [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ] {
            for program in &suite() {
                let config = SlpConfig::for_machine(machine.clone(), Strategy::Optimal)
                    .with_packer(Monotone)
                    .with_opt_budget(0, 400);
                let stats = compile(program, &config).stats;
                assert!(stats.opt_nodes > 0, "{}: the solver ran", program.name());
            }
        }
    }

    /// Solves with `suite` the suite and branchy kernels at the
    /// benchmark's node cap, layout off and on, on both machines; and with
    /// `others` the fuzz corpus the same way and the generator seeds
    /// solved to the end.
    fn solve_everything<P: Packer + Clone + 'static>(suite_packer: &P, others: &P) {
        let machines = [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ];
        let compile_all = |programs: &[Program], packer: &P| {
            for (machine, layout) in machines.iter().flat_map(|m| [(m, false), (m, true)]) {
                let config = SlpConfig::for_machine(machine.clone(), Strategy::Optimal)
                    .with_packer(packer.clone())
                    .with_opt_budget(0, 500);
                let config = if layout { config.with_layout() } else { config };
                for program in programs {
                    compile(program, &config);
                }
            }
        };
        compile_all(&suite(), suite_packer);

        let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
        let mut reproducers = Vec::new();
        for entry in std::fs::read_dir(corpus).expect("the fuzz corpus") {
            let source = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            let parsed = slp_lang::compile(&source).ok();
            reproducers.extend(parsed.filter(|program| program.validate().is_ok()));
        }
        assert!(reproducers.len() >= 20, "{} reproducers", reproducers.len());
        compile_all(&reproducers, others);
        for seed in 0..60u64 {
            let program = generated(seed);
            for machine in &machines {
                let config = SlpConfig::for_machine(machine.clone(), Strategy::Optimal)
                    .with_opt_budget(0, 0);
                each_block(&program, &config, |req| {
                    others.pack(req);
                });
            }
        }
    }

    /// Every partition the search expands costs at least its floor, over
    /// everything [`solve_everything`] solves. Most of the suite's
    /// evaluations are skipped.
    #[test]
    fn floors_are_admissible_and_skip_most_evaluations() {
        let suite_audit = Audited::default();
        solve_everything(&suite_audit, &Audited::default());
        let Audit { expanded, skipped } = *suite_audit.0.lock().unwrap();
        let share = skipped as f64 / expanded as f64;
        println!("suite: {skipped} of {expanded} evaluations skipped ({share:.3})");
        assert!(
            share >= 0.75,
            "only {skipped} of {expanded} evaluations skipped"
        );
    }

    /// Every child state the search builds, over everything
    /// [`solve_everything`] solves, has exactly the variables, score bits
    /// and bound a from-scratch rebuild finds: an include child inherits
    /// them correctly.
    #[test]
    fn include_children_inherit_what_a_rebuild_finds() {
        let inherited = Inherited::default();
        solve_everything(&inherited, &inherited);
        let included = *inherited.0.lock().unwrap();
        println!("{included} include children compared");
        assert!(
            included >= 40_000,
            "only {included} include children compared"
        );
    }
}
