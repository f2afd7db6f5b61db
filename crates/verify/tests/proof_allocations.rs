//! An allocation ratchet over the `solve_prove`-shaped proofs.
//!
//! A proof walks every dynamic statement of both sides, so what one
//! statement allocates is multiplied by the kernel's trip counts. This
//! counts heap allocations (calls to `alloc` and `realloc`) made by
//! [`validate`] over the forty kernels the benchmark's `solve_prove`
//! workload proves — twenty kernels at scale 1 on two machines, compiled
//! with `Strategy::Optimal` under a 500-node cap and no clock — and holds
//! the total to a ceiling. The compiles happen before counting starts. A
//! change that allocates more per statement fails here; one that
//! allocates less lowers the constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use slp_core::{compile, CompiledKernel, MachineConfig, SlpConfig, Strategy};
use slp_ir::Program;
use slp_opt::OptimalPacker;
use slp_verify::{validate, Budgets, Verdict};

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

/// Allocations per proof the forty validations may make: the measured
/// 153 rounded up (11 019 while every statement collected its operands,
/// cloned its interning key and rebuilt its block's statement map).
const CEILING_PER_JOB: u64 = 160;

/// Allocations made by proving every job.
fn count(jobs: &[(&Program, CompiledKernel, MachineConfig)]) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (program, kernel, machine) in jobs {
        let verdict = validate(program, kernel, machine, &Budgets::default());
        assert!(
            matches!(verdict, Verdict::Proved(_)),
            "{}: {verdict:?}",
            program.name()
        );
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// The only test of this file: the counter is process-wide, and nothing
// else may allocate while it is read.
#[test]
fn solve_prove_shaped_proofs_stay_under_the_allocation_ceiling() {
    let mut programs: Vec<Program> = slp_suite::all(1).into_iter().map(|(_, p)| p).collect();
    for name in slp_suite::branchy_catalog() {
        programs.push(slp_suite::branchy_kernel(name, 1));
    }
    let machines = [
        MachineConfig::intel_dunnington(),
        MachineConfig::amd_phenom_ii(),
    ];
    let mut jobs = Vec::new();
    for program in &programs {
        for machine in &machines {
            let config = SlpConfig::for_machine(machine.clone(), Strategy::Optimal)
                .with_packer(OptimalPacker)
                .with_opt_budget(0, 500);
            jobs.push((program, compile(program, &config), machine.clone()));
        }
    }
    assert_eq!(jobs.len(), 40);

    let total = count(&jobs);
    assert_eq!(total, count(&jobs), "the count repeats");
    let per_job = total / jobs.len() as u64;
    println!("{total} allocations, {per_job} per proof");
    assert!(
        total <= CEILING_PER_JOB * jobs.len() as u64,
        "{total} allocations over {} proofs: {per_job} per proof, ceiling {CEILING_PER_JOB}",
        jobs.len()
    );
}
