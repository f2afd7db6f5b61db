//! Regenerates the paper's tables and figures on the simulated machines.
//!
//! ```text
//! figures <exhibit> [scale]
//!
//! exhibits: table1 table2 table3 fig16 fig17 fig18 fig19 fig20 fig21
//!           overhead ablations all
//! scale:    problem-size multiplier (default 4; tests use 1)
//! ```

use slp::prelude::MachineConfig;
use slp_bench::figures::{
    compile_overhead, fig18_series, fig21, measure_suite, render_ablations, render_fig16,
    render_fig17, render_fig18, render_fig19, render_fig20, render_fig21, render_machine_table,
    render_table3,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exhibit = args.first().map(String::as_str).unwrap_or("all");
    let scale: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(4);

    let intel = MachineConfig::intel_dunnington();
    let amd = MachineConfig::amd_phenom_ii();

    let wants = |name: &str| exhibit == name || exhibit == "all";

    if wants("table1") {
        println!("== Table 1: Intel Dunnington based machine ==");
        println!("{}", render_machine_table(&intel));
    }
    if wants("table2") {
        println!("== Table 2: AMD Phenom II based machine ==");
        println!("{}", render_machine_table(&amd));
    }
    if wants("table3") {
        println!("== Table 3: benchmark description ==");
        println!("{}", render_table3());
    }

    let needs_intel_suite = ["fig16", "fig17", "fig19", "fig20"]
        .iter()
        .any(|e| wants(e));
    let intel_results = if needs_intel_suite {
        Some(measure_suite(&intel, scale))
    } else {
        None
    };

    if wants("fig16") {
        println!("== Figure 16: execution-time reductions over scalar (Intel) ==");
        println!(
            "{}",
            render_fig16(intel_results.as_ref().expect("measured"))
        );
    }
    if wants("fig17") {
        println!("== Figure 17: Global-over-SLP reductions in dynamic instructions and packing/unpacking ==");
        println!(
            "{}",
            render_fig17(intel_results.as_ref().expect("measured"))
        );
    }
    if wants("fig18") {
        println!("== Figure 18: dynamic instructions eliminated vs datapath width ==");
        // Wide datapaths unroll 8-16x; candidate counts grow
        // quadratically with block size, so the sweep caps its scale.
        let series = fig18_series(&intel, scale.min(2), &[128, 256, 512, 1024]);
        println!("{}", render_fig18(&series));
    }
    if wants("fig19") {
        println!("== Figure 19: Global vs Global+Layout (Intel) ==");
        println!(
            "{}",
            render_fig19(intel_results.as_ref().expect("measured"))
        );
    }
    if wants("fig20") {
        println!("== Figure 20: reductions on the AMD machine ==");
        let amd_results = measure_suite(&amd, scale);
        println!(
            "{}",
            render_fig20(&amd_results, intel_results.as_ref().expect("measured"))
        );
    }
    if wants("fig21") {
        println!("== Figure 21: multicore execution-time reductions (NAS, Intel) ==");
        let fig = fig21(&intel, scale.max(8));
        println!("{}", render_fig21(&fig));
    }
    if wants("overhead") {
        println!("== §7.1: compile-time overhead of Global over SLP ==");
        let [q1, median, q3] = compile_overhead(&intel, scale);
        println!(
            "Global compilation time: {median:+.1}% vs SLP, median of 11 interleaved sweep \
             pairs (quartiles {q1:+.1}% and {q3:+.1}%; paper: +27% on average)\n"
        );
    }

    if wants("ablations") {
        println!(
            "== Ablations: cycle impact of each design choice (suite total, Intel, scale 1) =="
        );
        println!("{}", render_ablations(&intel));
    }

    let known = [
        "table1",
        "table2",
        "table3",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "overhead",
        "ablations",
        "all",
    ];
    if !known.contains(&exhibit) {
        eprintln!("unknown exhibit '{exhibit}'; known: {}", known.join(" "));
        std::process::exit(2);
    }
}
