//! An allocation ratchet over the `compile_cold`-shaped jobs.
//!
//! Counts heap allocations (calls to `alloc` and `realloc`) over the 200
//! jobs of the benchmark's `compile_cold` workload — twenty kernels at
//! scale 1 on two machines under Scalar, Native, SLP, Global and
//! Global + layout, each `compile_source` with static verification and no
//! cache, then `execute` — and holds the total to a ceiling. A change that
//! allocates more per job fails here; one that allocates less lowers the
//! constant. It also holds the static checks of the Global + layout
//! compiles to the same count at scale 1 and at scale 32: the layout
//! check walks each §5.2 replication pair by pair, and no pair allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use slp::prelude::*;

/// The system allocator, counting the blocks it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per job the 200 jobs may make: the measured 1 243 rounded
/// up to the next hundred (3 030 before the IR was read in place, 1 357
/// before a grouping round sized its buffers once and the baseline seeded
/// from the block index, 1 292 before the layout check stopped allocating
/// per pair).
const CEILING_PER_JOB: u64 = 1_300;

/// Allocations the static checks make over `kernels`.
fn verify_allocations(kernels: &[CompiledKernel]) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for kernel in kernels {
        assert!(slp::verify::verify_kernel(kernel).passes());
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The twenty kernels at `scale` on two machines, compiled Global + layout.
fn global_layout_kernels(scale: usize) -> Vec<CompiledKernel> {
    let mut programs: Vec<Program> = (slp::suite::catalog().into_iter())
        .map(|spec| slp::suite::kernel(spec.name, scale))
        .collect();
    for name in slp::suite::branchy_catalog() {
        programs.push(slp::suite::branchy_kernel(name, scale));
    }
    let mut kernels = Vec::new();
    for program in &programs {
        for machine in ["intel", "amd"] {
            let machine = parse_machine(machine).expect("a machine");
            let config = SlpConfig::for_machine(machine, Strategy::Holistic).with_layout();
            kernels.push(compile(program, &config));
        }
    }
    kernels
}

/// Allocations made by the jobs of `requests`.
fn count(requests: &[CompileRequest]) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for req in requests {
        let out = compile_source(req, None).expect("compiles");
        assert!(
            out.report.as_ref().is_some_and(|r| r.passes()),
            "{}",
            req.name
        );
        execute(&out.kernel, &out.kernel.config.machine).expect("runs");
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// The only test of this file: the counter is process-wide, and nothing
// else may allocate while it is read.
#[test]
fn compile_cold_shaped_jobs_stay_under_the_allocation_ceiling() {
    let mut kernels: Vec<(String, String)> = (slp::suite::catalog().into_iter())
        .map(|spec| (spec.name.to_string(), slp::suite::source(spec.name, 1)))
        .collect();
    for name in slp::suite::branchy_catalog() {
        kernels.push((name.to_string(), slp::suite::branchy_source(name, 1)));
    }
    let mut requests = Vec::new();
    for (name, source) in &kernels {
        for machine in ["intel", "amd"] {
            let machine = parse_machine(machine).expect("a machine");
            let of = |strategy| SlpConfig::for_machine(machine.clone(), strategy);
            for config in [
                of(Strategy::Scalar),
                of(Strategy::Native),
                of(Strategy::Baseline),
                of(Strategy::Holistic),
                of(Strategy::Holistic).with_layout(),
            ] {
                requests.push(CompileRequest {
                    name: name.clone(),
                    source: source.clone(),
                    config,
                    verify: VerifyLevel::Static,
                });
            }
        }
    }
    let jobs = requests.len() as u64;
    assert_eq!(jobs, 200);

    // The first pass also fills the VM's process-wide seed table, once
    // per process; the ceiling holds the passes after it.
    let first = count(&requests);
    let total = count(&requests);
    assert_eq!(total, count(&requests), "the count repeats");
    assert!(
        (total..total + 64).contains(&first),
        "the first pass fills the seed table with a few allocations: {first} against {total}"
    );
    println!("{total} allocations, {} per job", total / jobs);
    assert!(
        total <= CEILING_PER_JOB * jobs,
        "{total} allocations over {jobs} jobs: {} per job, ceiling {CEILING_PER_JOB}",
        total / jobs
    );

    let (small, large) = (global_layout_kernels(1), global_layout_kernels(32));
    let replications =
        |ks: &[CompiledKernel]| ks.iter().map(|k| k.replications.len()).sum::<usize>();
    assert!(
        replications(&large) >= 30,
        "the suite replicates under Global + layout"
    );
    let (at_1, at_32) = (verify_allocations(&small), verify_allocations(&large));
    println!("static checks of the Global + layout compiles: {at_1} allocations at scale 1, {at_32} at scale 32");
    assert_eq!(at_1, at_32, "the static checks allocate by the trip counts");
}
