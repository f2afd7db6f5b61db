//! Developer tool: inspect one benchmark's compilation under each scheme.
//!
//! ```text
//! inspect <kernel> [schedules|code|layout|weights]
//! ```

use slp::analysis::{Round, Unit, WeightParams};
use slp::core::BlockIndex;
use slp::ir::BlockDeps;
use slp::prelude::*;
use slp::vm::lower_kernel;
use slp_bench::{measure, Scheme};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().cloned().unwrap_or_else(|| "wrf".into());
    let what = args.get(1).map(String::as_str).unwrap_or("schedules");
    let machine = MachineConfig::intel_dunnington();
    let program = slp::suite::kernel(&name, 1);

    match what {
        "schedules" | "code" => {
            for scheme in [Scheme::Slp, Scheme::Global, Scheme::GlobalLayout] {
                let m = measure(&program, &machine, scheme);
                println!(
                    "==== {} ({:.0} cycles, {} replications) ====",
                    scheme.label(),
                    m.cycles(),
                    m.kernel.replications.len()
                );
                for (bid, sched) in &m.kernel.schedules {
                    if sched.is_vectorized() {
                        println!("-- schedule of {bid}:");
                        for item in sched.items() {
                            println!("   {item}");
                        }
                    }
                }
                if what == "code" {
                    for (bid, code) in lower_kernel(&m.kernel, &machine, true) {
                        println!("-- code of {bid} (vectorized={}):", code.vectorized);
                        for inst in code.preheader.iter() {
                            println!("   [pre] {inst}");
                        }
                        for inst in &code.insts {
                            println!("   {inst}");
                        }
                    }
                }
            }
        }
        "layout" => {
            let m = measure(&program, &machine, Scheme::GlobalLayout);
            println!("stats: {:?}", m.kernel.stats);
            for r in &m.kernel.replications {
                println!(
                    "replication: {} -> {} ({} lanes, {} copies)",
                    m.kernel.program.array(r.source).name,
                    m.kernel.program.array(r.dest).name,
                    r.lanes.len(),
                    r.copy_count()
                );
            }
        }
        "weights" => {
            // The paper's Figure 5 view: the first round's candidates,
            // heaviest first (ties in candidate order), annotated with
            // their reuse weights.
            let mut p = program.clone();
            slp::ir::unroll_program(&mut p, 2);
            let infos = p.blocks();
            let info = infos
                .iter()
                .max_by_key(|b| b.block.len())
                .expect("kernel has blocks");
            let deps = BlockDeps::analyze_in(&info.block, &info.loops);
            let ix = BlockIndex::new(&info.block, &p, |ty| machine.lanes_for(ty));
            let units: Vec<Unit> = info.block.iter().map(|s| Unit::singleton(s.id())).collect();
            let mut round = Round::new(&ix, &deps, &units, &WeightParams::default());
            let alive = vec![true; round.candidates().len()];
            let mut edges: Vec<(f64, usize)> = (0..alive.len())
                .map(|c| (round.weight(c, &alive), c))
                .collect();
            edges.sort_by(|x, y| y.0.total_cmp(&x.0));
            for &(weight, c) in edges.iter().take(30) {
                let (a, b) = round.candidates()[c];
                let stmts: Vec<String> = [a, b]
                    .iter()
                    .flat_map(|&u| units[u].stmts())
                    .map(|&s| p.show_stmt(ix.stmt_at(ix.position(s))))
                    .collect();
                println!("{weight:7.3}  {{{}}}", stmts.join(" | "));
            }
        }
        other => {
            eprintln!("unknown mode '{other}'; known: schedules code layout weights");
            std::process::exit(2);
        }
    }
}
