//! Best-first branch-and-bound over packing states (DESIGN.md, "The
//! search").
//!
//! A *state* is a [`Partition`] of the block's statements into grouping
//! units plus a set of excluded merges. The root is the all-singleton
//! partition with nothing excluded; branching picks the state's most
//! promising remaining variable and splits the state into the *include*
//! child (the two units merged, stale exclusions dropped) and the
//! *exclude* child (that exact merge forbidden forever), which takes over
//! the parent's partition. Together they cover every completion of the
//! parent.
//!
//! The first state over each partition to be expanded schedules and
//! costs it, unless its [`Model::floor`] shows it cannot beat the
//! incumbent (a tie cannot either), so the search is anytime. States are
//! expanded best-first by their partition's [`bound`](Partition::bound)
//! (FIFO among ties), deduplicated on their canonical
//! `(units, exclusions)` key, and pruned when their bound cannot beat the
//! incumbent. Debug builds assert, state by state, that the bound is at
//! most the partition's cost and at least the parent's.
//!
//! On completion the incumbent is *optimal over statement packings
//! modulo the deterministic scheduler's lane ordering and
//! linearization*, and `lower_bound == cost`. When a budget expires
//! first, the incumbent (never worse than the heuristic warm start) ships
//! with the proven bound `min(incumbent, open-node bounds)`, `degraded`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::time::{Duration, Instant};

use slp_core::{
    estimate_schedule_cost, mergeable, schedule_block, schedule_in_program_order, BlockIndex,
    BlockSchedule, PackOutcome, PackRequest, Packer, Unit,
};
use slp_ir::BlockDeps;

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
        search(req, |_, _, _, _| {}, |_, _| {})
    }

    fn name(&self) -> &str {
        "bnb-ilp"
    }
}

/// The search behind [`OptimalPacker`], reporting to tests: `expanded`
/// gets each partition with its floor, and whether the floor ruled out
/// its evaluation; `child` gets each child state `(part, skip)` built,
/// and `None` for each one rejected as reached before. Debug builds
/// assert that every bound is admissible against its own partition's
/// cost and never below its parent's.
fn search(
    req: &PackRequest<'_>,
    mut expanded: impl FnMut(&Model, &Partition, f64, bool),
    mut child: impl FnMut(&Model, Option<(&Partition, usize)>),
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
    let mut nodes = 0u64;
    // The minimum bound over the open states, if a budget expired.
    let mut frontier = None;

    // The open states by bound, FIFO among ties: bounds are sums of
    // prices, never negative, and such floats order as their bits do.
    // Each state waits under its sequence number, unique in the heap.
    let root = model.root();
    let mut open = BinaryHeap::from([Reverse((root.bound.to_bits(), 0))]);
    let mut states = vec![Some((root.sig, root, 0))];

    while let Some(Reverse((bits, seq))) = open.pop() {
        let (sig, part, skip) = states[seq].take().expect("a state is popped once");
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
            let floor = model.floor(&part, best_cost);
            let hopeless = floor >= best_cost;
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
        if let Some(cost) = cost {
            debug_assert!(bound <= cost + EPS, "bound {bound} > cost {cost}");
        }
        if skip == part.vars.len() {
            continue; // no candidate left: a leaf partition
        }

        // Include child: the branch variable's two units merged. Exclude
        // child: same partition, this exact merge forbidden.
        let include = model.include(&part, skip).map(|part| (part.sig, part, 0));
        let exclude = model
            .exclude(&part, skip, sig)
            .map(|sig| (sig, part, skip + 1));
        for state in [include, exclude] {
            let Some((sig, part, skip)) = state else {
                child(&model, None);
                continue;
            };
            let child_bound = part.bound;
            debug_assert!(
                child_bound >= bound - EPS,
                "child {child_bound} < parent {bound}"
            );
            child(&model, Some((&part, skip)));
            if child_bound >= best_cost - EPS {
                continue; // pruned: cannot beat the incumbent
            }
            open.push(Reverse((child_bound.to_bits(), states.len())));
            states.push(Some((sig, part, skip)));
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
    let (ix, cx) = (req.ix, &req.cost_context());
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

/// The cheapest cost any partition of `req`'s block evaluates to: the
/// reference an exhausted [`OptimalPacker`] solve is held to (it costs
/// the lesser of this and the incumbent's cost). It walks the whole
/// include/exclude tree depth first, with no bound, no incumbent cut, no
/// dedup and no shared state; exclusions are kept as the sorted
/// statement-id lists themselves. Exponential in the block's size, so
/// for blocks of a few statements.
pub fn enumerated_minimum(req: &PackRequest<'_>) -> f64 {
    let singletons: Vec<Unit> = (req.ix.block().iter())
        .map(|s| Unit::singleton(s.id()))
        .collect();
    enumerate(&singletons, &mut BTreeSet::new(), req)
}

/// The cheapest cost a partition evaluates to at or below the state of
/// `units` under `excluded`.
fn enumerate(
    units: &[Unit],
    excluded: &mut BTreeSet<[Vec<usize>; 2]>,
    req: &PackRequest<'_>,
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
    let var = legal_merges(req.ix, req.deps, units)
        .into_iter()
        .find(|var| !excluded.contains(&key(var)));
    if let Some((a, b)) = var {
        let mut merged = units.to_vec();
        merged[a] = Unit::merged(&units[a], &units[b]);
        merged.remove(b);
        best = best.min(enumerate(&merged, excluded, req));
        excluded.insert(key(&(a, b)));
        best = best.min(enumerate(units, excluded, req));
        excluded.remove(&key(&(a, b)));
    }
    best
}

/// The legal pairwise merges among `units`, as ascending index pairs.
pub(crate) fn legal_merges(
    ix: &BlockIndex<'_>,
    deps: &BlockDeps,
    units: &[Unit],
) -> Vec<(usize, usize)> {
    let lanes: Vec<Vec<usize>> = (units.iter())
        .map(|u| u.stmts().iter().map(|&s| ix.position(s)).collect())
        .collect();
    let pairs = (0..units.len()).flat_map(|a| (a + 1..units.len()).map(move |b| (a, b)));
    pairs
        .filter(|&(a, b)| mergeable(ix, deps, &lanes[a], &lanes[b]))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
    use slp_ir::Program;
    use slp_suite::{random_program, GeneratorConfig};

    use super::*;
    use crate::testutil::each_block;

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

    /// How many partitions an [`Audited`] search expanded, how many of
    /// those the floor kept from evaluation, and how many include and
    /// exclude children it built and child states it rejected as reached
    /// before.
    #[derive(Debug, Default)]
    struct Audit {
        expanded: usize,
        skipped: usize,
        included: usize,
        excluded: usize,
        seen: usize,
    }

    impl Audit {
        /// The counts that pin the search tree: partitions expanded and
        /// evaluated, include and exclude children built, states seen.
        fn tree(&self) -> [usize; 5] {
            let evaluated = self.expanded - self.skipped;
            [
                self.expanded,
                evaluated,
                self.included,
                self.excluded,
                self.seen,
            ]
        }
    }

    /// The search [`OptimalPacker`] runs, evaluating every partition it
    /// expands to check the partition's floor against its cost.
    #[derive(Debug, Clone, Default)]
    struct Audited(Arc<Mutex<Audit>>);

    impl Packer for Audited {
        fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
            let audit = &self.0;
            let expanded = |model: &Model, part: &Partition, floor: f64, skipped: bool| {
                let cost = evaluate(&model.units(part), req).1;
                assert!(floor <= cost + EPS, "floor {floor} above the cost {cost}");
                let mut audit = audit.lock().unwrap();
                audit.expanded += 1;
                audit.skipped += usize::from(skipped);
            };
            let child = |_: &Model, state: Option<(&Partition, usize)>| {
                let mut audit = audit.lock().unwrap();
                match state {
                    Some((_, 0)) => audit.included += 1,
                    Some(_) => audit.excluded += 1,
                    None => audit.seen += 1,
                }
            };
            search(req, expanded, child)
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
            let rebuild = |model: &Model, state: Option<(&Partition, usize)>| {
                if let Some((part, skip)) = state {
                    model.assert_rebuilds(part, skip);
                    *included += usize::from(skip == 0);
                }
            };
            search(req, |_, _, _, _| {}, rebuild)
        }
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
            let (ix, cx) = (req.ix, req.cost_context());
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
                    let out = OptimalPacker.pack(req);
                    assert!(!out.degraded, "no budget was set");
                    assert_eq!(out.lower_bound, out.cost, "an exhausted solve has no gap");

                    let minimum = enumerated_minimum(req);
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
    /// everything [`solve_everything`] solves. Both of its search trees
    /// are counted exactly: the partitions expanded and evaluated, the
    /// include and exclude children built and the child states rejected
    /// as reached before. The counts are the same in debug and release
    /// builds, which differ only in whether a skipped partition is
    /// evaluated anyway.
    #[test]
    fn floors_are_admissible_and_skip_most_evaluations() {
        let (suite, others) = (Audited::default(), Audited::default());
        solve_everything(&suite, &others);
        let trees = [&suite, &others].map(|audit| audit.0.lock().unwrap().tree());
        for (name, [expanded, evaluated, included, excluded, seen]) in
            ["suite", "others"].iter().zip(trees)
        {
            println!(
                "{name}: {evaluated} of {expanded} partitions evaluated; \
                 {included} include and {excluded} exclude children built, {seen} seen before"
            );
        }
        assert_eq!(trees, [SUITE_TREE, OTHERS_TREE]);
    }

    /// The suite audit's tree, in [`Audit::tree`]'s order: 17 070
    /// partitions expanded (22 040 before the bound was sound), 763 of
    /// them evaluated (3 049 before ties and acyclic partitions were
    /// ruled out, then 826), and its children, none of them a state
    /// reached before.
    const SUITE_TREE: [usize; 5] = [17_070, 763, 26_865, 26_865, 0];
    /// The tree of the fuzz corpus at the same cap and the generator seeds
    /// solved to the end, where the dedup does reject states.
    const OTHERS_TREE: [usize; 5] = [11_823, 2_328, 17_078, 25_271, 8_217];

    /// The work of the benchmark's `solve_prove` workload, counted: its
    /// forty compiles (the suite and branchy kernels on both machines,
    /// node cap 500, no layout) expand `NODES` nodes and build the tree
    /// `SOLVE_PROVE_TREE` (as [`Audit::tree`] counts it), the partitions
    /// not evaluated being skipped on their floors. The counts are the
    /// same in debug and release builds.
    #[test]
    fn solve_prove_shaped_compiles_do_the_recorded_work() {
        let audit = Audited::default();
        let mut nodes = 0;
        for machine in [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ] {
            let config = SlpConfig::for_machine(machine, Strategy::Optimal)
                .with_packer(audit.clone())
                .with_opt_budget(0, 500);
            for program in &suite() {
                nodes += compile(program, &config).stats.opt_nodes;
            }
        }
        let audit = audit.0.lock().unwrap();
        let [expanded, evaluated, included, excluded, seen] = audit.tree();
        println!(
            "{nodes} nodes, {evaluated} of {expanded} partitions evaluated; \
             {included} include and {excluded} exclude children built, {seen} seen before"
        );
        assert_eq!((nodes, audit.tree()), (NODES, SOLVE_PROVE_TREE));
    }

    /// The nodes of the forty `solve_prove`-shaped compiles (11 680
    /// before the bound was sound).
    const NODES: u64 = 11_960;
    /// Their tree, in [`Audit::tree`]'s order: the partitions expanded,
    /// the 228 evaluated (1 241 before ties and acyclic partitions were
    /// ruled out, then 272), and the children built; none is a state
    /// reached before.
    const SOLVE_PROVE_TREE: [usize; 5] = [5_690, 228, 8_955, 8_955, 0];

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
