//! The paper's §6 running example (Figures 2 and 15), end to end.
//!
//! The example basic block has eight statements with three superword
//! reuse opportunities (<d,g>, <c,h>, <a,r>) that the original SLP
//! algorithm's greedy seed-and-extend misses but the holistic grouping
//! captures. This walkthrough shows each framework stage: the grouping
//! decisions with their reuse weights, the final schedules, and the
//! measured cycle difference.
//!
//! ```text
//! cargo run --example figure15
//! ```

use slp::core::{baseline_block, group_block, schedule_block, BlockIndex};
use slp::ir::BlockDeps;
use slp::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 15 (a): the original input code, one unrolled iteration.
    let source = "kernel fig15 {
        const N = 64;
        array A: f64[2*N+6];
        array B: f64[4*N+8];
        scalar a, b, c, d, g, h, q, r: f64;
        for i in 1..N {
            a = A[i];
            b = A[i+1];
            c = a * B[4*i];
            d = b * B[4*i+4];
            g = q * B[4*i-2];
            h = r * B[4*i+2];
            A[2*i] = d + a * c;
            A[2*i+2] = g + r * h;
        }
    }";
    let program = slp::lang::compile(source)?;
    let machine = MachineConfig::intel_dunnington();

    // Work on the loop body block directly (no unrolling, to match the
    // paper's presentation).
    let info = &program.blocks()[0];
    let deps = BlockDeps::analyze(&info.block);
    // Two f64 lanes on the 128-bit datapath.
    let ix = BlockIndex::new(&info.block, &program, |ty| machine.lanes_for(ty));

    println!("== input basic block (Figure 15 a) ==");
    for s in info.block.iter() {
        println!("  {}", program.show_stmt(s));
    }

    // The baseline SLP algorithm (Figure 15 b).
    let slp_sched = baseline_block(&ix, &deps);
    println!("\n== baseline SLP schedule (Figure 15 b) ==");
    for item in slp_sched.items() {
        println!("  {item}");
    }

    // The holistic grouping (Figure 15 c) with its decision trace.
    let grouping = group_block(&ix, &deps);
    println!("\n== holistic grouping decisions ==");
    for d in &grouping.decisions {
        let names: Vec<String> = d
            .stmts
            .iter()
            .map(|s| program.show_stmt(info.block.stmt(*s).expect("stmt")))
            .collect();
        println!(
            "  w={:.2} round {}: {{{}}}",
            d.weight,
            d.round,
            names.join(" | ")
        );
    }
    let global_sched = schedule_block(&ix, &deps, &grouping.units, machine.vector_regs);
    println!("\n== holistic schedule (Figure 15 c) ==");
    for item in global_sched.items() {
        println!("  {item}");
    }

    // Measured end-to-end (with the full pipeline, unrolling included).
    println!("\n== measured (whole kernel, Intel machine) ==");
    let scalar = execute(
        &compile(
            &program,
            &SlpConfig::for_machine(machine.clone(), Strategy::Scalar),
        ),
        &machine,
    )?;
    for (label, strategy, layout) in [
        ("SLP", Strategy::Baseline, false),
        ("Global", Strategy::Holistic, false),
        ("Global+Layout (Figure 15 d)", Strategy::Holistic, true),
    ] {
        let mut cfg = SlpConfig::for_machine(machine.clone(), strategy);
        if layout {
            cfg = cfg.with_layout();
        }
        let out = execute(&compile(&program, &cfg), &machine)?;
        assert!(out.state.arrays_bitwise_eq(&scalar.state, 2));
        println!(
            "  {:<28} {:>9.0} cycles ({:+.1}% vs scalar)",
            label,
            out.stats.metrics.cycles,
            (out.stats.metrics.cycles / scalar.stats.metrics.cycles - 1.0) * 100.0,
        );
    }
    Ok(())
}
