//! Regeneration of every table and figure in the paper's evaluation (§7).
//!
//! Each `figNN`/`tableN` function produces the structured data behind the
//! corresponding exhibit plus a plain-text rendering with the same rows
//! and series the paper reports. Absolute numbers come from the simulated
//! machines, so they are not expected to match the paper's hardware — the
//! *shape* (which scheme wins, by roughly what factor, where the
//! crossovers are) is the reproduction target, recorded exhibit by
//! exhibit in `EXPERIMENTS.md`.

use std::fmt::Write as _;

use slp_core::{compile, MachineConfig, SlpConfig, Strategy, WeightParams};
use slp_suite::{catalog, BenchmarkSpec};
use slp_vm::{execute_gated, lower_kernel_with, reduction_percent, MulticoreModel};

use crate::harness::{assert_equivalent, measure_all, of, Measurement, Scheme};

/// Renders Table 1 (the Intel machine) or Table 2 (the AMD machine).
pub fn render_machine_table(machine: &MachineConfig) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Machine: {}", machine.name);
    let _ = writeln!(s, "  Cores            {}", machine.cores);
    let _ = writeln!(s, "  Clock            {:.2} GHz", machine.clock_ghz);
    let _ = writeln!(s, "  SIMD datapath    {} bits", machine.datapath_bits);
    let _ = writeln!(s, "  Vector registers {}", machine.vector_regs);
    let _ = writeln!(s, "  L1 data          {} KB/core", machine.l1_data_kb);
    let _ = writeln!(s, "  L2 total         {} KB", machine.l2_total_kb);
    let _ = writeln!(s, "  L3 total         {} KB", machine.l3_total_kb);
    s
}

/// Renders Table 3: the benchmark catalog.
pub fn render_table3() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{:<12} {:<10} description", "benchmark", "suite");
    for spec in catalog() {
        let _ = writeln!(
            s,
            "{:<12} {:<10} {}",
            spec.name,
            spec.suite.to_string(),
            spec.description
        );
    }
    s
}

/// One benchmark's measurements across all five schemes.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Benchmark metadata.
    pub spec: BenchmarkSpec,
    /// All five scheme measurements (ordered as [`Scheme::all`]).
    pub measurements: Vec<Measurement>,
}

impl BenchmarkResult {
    /// Execution-time reduction of `scheme` over the scalar baseline, in
    /// percent.
    pub(crate) fn reduction(&self, scheme: Scheme) -> f64 {
        of(&self.measurements, scheme).reduction_over(of(&self.measurements, Scheme::Scalar))
    }

    /// The measurement of one scheme.
    pub fn of(&self, scheme: Scheme) -> &Measurement {
        of(&self.measurements, scheme)
    }
}

/// Measures every benchmark under every scheme on `machine`, asserting
/// semantic equivalence of all schemes first.
///
/// The benchmarks are independent, so they are fanned out across the
/// driver's worker pool ([`slp_driver::parallel_map`]); results come
/// back in catalog order regardless of scheduling, and each kernel's
/// measurements stay serial so its numbers are undisturbed by siblings.
///
/// This is the data source shared by Figures 16, 17, 19 and 20.
pub fn measure_suite(machine: &MachineConfig, scale: usize) -> Vec<BenchmarkResult> {
    let kernels = slp_suite::all(scale);
    slp_driver::parallel_map(&kernels, 0, |_, (spec, program)| {
        let measurements = measure_all(program, machine);
        assert_equivalent(program, &measurements);
        BenchmarkResult {
            spec: spec.clone(),
            measurements,
        }
    })
}

/// Sorts results the way Figure 16 orders its x-axis: by the Global
/// scheme's improvement, ascending.
pub(crate) fn sort_fig16(results: &mut [BenchmarkResult]) {
    results.sort_by(|a, b| {
        a.reduction(Scheme::Global)
            .partial_cmp(&b.reduction(Scheme::Global))
            .expect("finite reductions")
    });
}

/// Renders Figure 16: execution-time reductions of Native / SLP / Global
/// over scalar code on the Intel machine, benchmarks sorted by Global.
pub fn render_fig16(results: &[BenchmarkResult]) -> String {
    let mut sorted = results.to_vec();
    sort_fig16(&mut sorted);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>8} {:>8}",
        "benchmark", "Native", "SLP", "Global"
    );
    for r in &sorted {
        let _ = writeln!(
            s,
            "{:<12} {:>7.1}% {:>7.1}% {:>7.1}%",
            r.spec.name,
            r.reduction(Scheme::Native),
            r.reduction(Scheme::Slp),
            r.reduction(Scheme::Global),
        );
    }
    let avg = |scheme: Scheme| {
        sorted.iter().map(|r| r.reduction(scheme)).sum::<f64>() / sorted.len() as f64
    };
    let _ = writeln!(
        s,
        "{:<12} {:>7.1}% {:>7.1}% {:>7.1}%",
        "average",
        avg(Scheme::Native),
        avg(Scheme::Slp),
        avg(Scheme::Global)
    );
    let ties = sorted
        .iter()
        .filter(|r| (r.reduction(Scheme::Global) - r.reduction(Scheme::Slp)).abs() < 0.05)
        .count();
    let native_ties = sorted
        .iter()
        .filter(|r| (r.reduction(Scheme::Slp) - r.reduction(Scheme::Native)).abs() < 0.05)
        .count();
    let _ = writeln!(
        s,
        "Global == SLP on {ties} benchmarks; SLP == Native on {native_ties}."
    );
    s
}

/// The Figure 17 series for one benchmark: reductions brought by Global
/// over SLP in dynamic instructions (excluding packing/unpacking) and in
/// packing/unpacking operations, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fig17Row {
    /// Reduction of dynamic instructions excluding packing.
    pub dynamic_reduction: f64,
    /// Reduction of packing/unpacking operations.
    pub packing_reduction: f64,
}

/// Computes the Figure 17 rows from suite measurements.
pub(crate) fn fig17_rows(results: &[BenchmarkResult]) -> Vec<(String, Fig17Row)> {
    results
        .iter()
        .map(|r| {
            let slp = &r.of(Scheme::Slp).outcome.stats.metrics;
            let global = &r.of(Scheme::Global).outcome.stats.metrics;
            let dynr = reduction(
                slp.dynamic_excluding_packing() as f64,
                global.dynamic_excluding_packing() as f64,
            );
            let packr = reduction(slp.packing_ops as f64, global.packing_ops as f64);
            (
                r.spec.name.to_string(),
                Fig17Row {
                    dynamic_reduction: dynr,
                    packing_reduction: packr,
                },
            )
        })
        .collect()
}

fn reduction(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (1.0 - new / base) * 100.0
    }
}

/// Renders Figure 17.
pub fn render_fig17(results: &[BenchmarkResult]) -> String {
    let rows = fig17_rows(results);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>12}",
        "benchmark", "dyn insts", "pack/unpack"
    );
    for (name, row) in &rows {
        let _ = writeln!(
            s,
            "{:<12} {:>9.1}% {:>11.1}%",
            name, row.dynamic_reduction, row.packing_reduction
        );
    }
    let n = rows.len() as f64;
    let _ = writeln!(
        s,
        "{:<12} {:>9.1}% {:>11.1}%",
        "average",
        rows.iter().map(|(_, r)| r.dynamic_reduction).sum::<f64>() / n,
        rows.iter().map(|(_, r)| r.packing_reduction).sum::<f64>() / n
    );
    let _ = writeln!(
        s,
        "{:<12} {:>9.1}% {:>11.1}%",
        "median",
        median(rows.iter().map(|(_, r)| r.dynamic_reduction)),
        median(rows.iter().map(|(_, r)| r.packing_reduction))
    );
    s
}

/// The median of a series (0 for an empty one).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The Figure 18 sweep: for each hypothetical datapath width, the average
/// percentage of scalar-code dynamic instructions eliminated by Global.
pub fn fig18_series(machine: &MachineConfig, scale: usize, widths: &[u32]) -> Vec<(u32, f64)> {
    widths
        .iter()
        .map(|&bits| {
            let m = machine.with_datapath_bits(bits);
            let mut acc = 0.0;
            let mut n = 0usize;
            for (_, program) in slp_suite::all(scale) {
                let scalar = crate::harness::measure(&program, &m, Scheme::Scalar);
                let global = crate::harness::measure(&program, &m, Scheme::Global);
                acc += reduction(
                    scalar.outcome.stats.metrics.dynamic_instructions as f64,
                    global.outcome.stats.metrics.dynamic_instructions as f64,
                );
                n += 1;
            }
            (bits, acc / n as f64)
        })
        .collect()
}

/// Renders Figure 18.
pub fn render_fig18(series: &[(u32, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{:<16} {:>12}", "datapath width", "dyn insts eliminated");
    for (bits, pct) in series {
        let _ = writeln!(s, "{bits:<16} {pct:>11.1}%");
    }
    s
}

/// Renders Figure 19: Global vs Global+Layout reductions on the Intel
/// machine, with the layout-winning benchmarks marked.
pub fn render_fig19(results: &[BenchmarkResult]) -> String {
    let mut sorted = results.to_vec();
    sort_fig16(&mut sorted);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>14} {:>6}",
        "benchmark", "Global", "Global+Layout", "gain"
    );
    let mut winners = 0;
    for r in &sorted {
        let g = r.reduction(Scheme::Global);
        let gl = r.reduction(Scheme::GlobalLayout);
        let marker = if gl > g + 0.05 {
            winners += 1;
            " *"
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "{:<12} {:>7.1}% {:>13.1}% {:>5.1}{}",
            r.spec.name,
            g,
            gl,
            gl - g,
            marker
        );
    }
    let n = sorted.len() as f64;
    let _ = writeln!(
        s,
        "{:<12} {:>7.1}% {:>13.1}%",
        "average",
        sorted
            .iter()
            .map(|r| r.reduction(Scheme::Global))
            .sum::<f64>()
            / n,
        sorted
            .iter()
            .map(|r| r.reduction(Scheme::GlobalLayout))
            .sum::<f64>()
            / n
    );
    let best = sorted
        .iter()
        .map(|r| r.reduction(Scheme::GlobalLayout) - r.reduction(Scheme::Slp))
        .fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(
        s,
        "Layout benefits {winners} benchmarks (*); best Global+Layout over SLP: {best:.1}%."
    );
    s
}

/// Renders Figure 20: reductions on the AMD machine, with the Intel
/// averages for comparison.
pub fn render_fig20(amd: &[BenchmarkResult], intel: &[BenchmarkResult]) -> String {
    let mut sorted = amd.to_vec();
    sort_fig16(&mut sorted);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>14}",
        "benchmark", "Global", "Global+Layout"
    );
    for r in &sorted {
        let _ = writeln!(
            s,
            "{:<12} {:>7.1}% {:>13.1}%",
            r.spec.name,
            r.reduction(Scheme::Global),
            r.reduction(Scheme::GlobalLayout)
        );
    }
    let avg = |rs: &[BenchmarkResult], scheme: Scheme| {
        rs.iter().map(|r| r.reduction(scheme)).sum::<f64>() / rs.len() as f64
    };
    let _ = writeln!(
        s,
        "AMD averages:   Global {:>5.1}%  Global+Layout {:>5.1}%",
        avg(amd, Scheme::Global),
        avg(amd, Scheme::GlobalLayout)
    );
    let _ = writeln!(
        s,
        "Intel averages: Global {:>5.1}%  Global+Layout {:>5.1}%",
        avg(intel, Scheme::Global),
        avg(intel, Scheme::GlobalLayout)
    );
    s
}

/// The Figure 21 data: for each NAS benchmark and core count, the
/// execution-time reduction of Global and Global+Layout over the scalar
/// original running on the same core count.
#[derive(Debug, Clone)]
pub struct Fig21 {
    /// Core counts of the x-axis.
    pub cores: Vec<usize>,
    /// Per benchmark: name and reductions per core count for (Global,
    /// Global+Layout).
    pub rows: Vec<(String, Vec<(f64, f64)>)>,
}

/// Computes Figure 21 on the Intel machine (1–12 cores).
pub fn fig21(machine: &MachineConfig, scale: usize) -> Fig21 {
    let cores = vec![1, 2, 4, 6, 8, 10, 12];
    let mut rows = Vec::new();
    for (spec, program) in slp_suite::nas(scale) {
        let ms = measure_all(&program, machine);
        assert_equivalent(&program, &ms);
        let model = MulticoreModel::with_serial_fraction(spec.serial_fraction);
        let scalar = &of(&ms, Scheme::Scalar).outcome.stats;
        let global = &of(&ms, Scheme::Global).outcome.stats;
        let layout = &of(&ms, Scheme::GlobalLayout).outcome.stats;
        let series = cores
            .iter()
            .map(|&c| {
                (
                    reduction_percent(scalar, global, c, &model),
                    reduction_percent(scalar, layout, c, &model),
                )
            })
            .collect();
        rows.push((spec.name.to_string(), series));
    }
    Fig21 { cores, rows }
}

/// Renders Figure 21 as two sub-tables (a: Global, b: Global+Layout).
pub fn render_fig21(fig: &Fig21) -> String {
    let mut s = String::new();
    for (label, pick) in [("(a) Global", 0usize), ("(b) Global+Layout", 1usize)] {
        let _ = writeln!(s, "{label}");
        let mut header = format!("{:<8}", "cores");
        for c in &fig.cores {
            let _ = write!(header, "{c:>8}");
        }
        let _ = writeln!(s, "{header}");
        for (name, series) in &fig.rows {
            let mut line = format!("{name:<8}");
            for v in series {
                let r = if pick == 0 { v.0 } else { v.1 };
                let _ = write!(line, "{r:>7.1}%");
            }
            let _ = writeln!(s, "{line}");
        }
    }
    s
}

/// Measures the compile-time overhead of Global over SLP (the §7.1
/// "increased compilation time by 27% on average" statement), in percent:
/// the first quartile, the median and the third quartile of eleven
/// interleaved sweep pairs, each pair's Global sweep over its SLP sweep.
/// One unmeasured sweep of each scheme comes first, and the pairs
/// alternate which scheme sweeps first, so that neither side pays the
/// cold caches or a drift of the machine alone.
pub fn compile_overhead(machine: &MachineConfig, scale: usize) -> [f64; 3] {
    use std::time::Instant;
    let kernels = slp_suite::all(scale);
    let sweep = |scheme: Scheme| {
        let start = Instant::now();
        for (_, p) in &kernels {
            let _ = slp_core::compile(p, &scheme.config(machine));
        }
        start.elapsed().as_secs_f64()
    };
    sweep(Scheme::Slp);
    sweep(Scheme::Global);
    let pair = |k: usize| {
        let (slp, global) = if k.is_multiple_of(2) {
            let slp = sweep(Scheme::Slp);
            (slp, sweep(Scheme::Global))
        } else {
            let global = sweep(Scheme::Global);
            (sweep(Scheme::Slp), global)
        };
        (global / slp - 1.0) * 100.0
    };
    let mut overheads: Vec<f64> = (0..11).map(pair).collect();
    overheads.sort_by(f64::total_cmp);
    let n = overheads.len();
    [
        median(overheads[..n / 2].iter().copied()),
        median(overheads.iter().copied()),
        median(overheads[n.div_ceil(2)..].iter().copied()),
    ]
}

/// The simulated-cycle impact of each design choice DESIGN.md calls out
/// (no analogue in the paper): contiguity-aware vs the paper's
/// pure-reuse grouping weights, vector register file size (the live
/// superword set's capacity) and permuted superword reuse. Suite totals
/// at scale 1.
pub fn render_ablations(machine: &MachineConfig) -> String {
    let suite_cycles = |tweak: &dyn Fn(&mut SlpConfig)| -> f64 {
        slp_suite::all(1)
            .iter()
            .map(|(_, program)| {
                let mut cfg = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
                tweak(&mut cfg);
                let kernel = compile(program, &cfg);
                execute_gated(&kernel, machine, true)
                    .expect("suite kernels run")
                    .stats
                    .metrics
                    .cycles
            })
            .sum()
    };
    // Static cycles with codegen's permuted reuse toggled (schedules
    // fixed; only emission changes).
    let static_cycles = |permuted_reuse: bool| -> f64 {
        let cfg = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
        slp_suite::all(1)
            .iter()
            .flat_map(|(_, program)| {
                let k = compile(program, &cfg);
                lower_kernel_with(&k, &k.program.blocks(), machine, true, permuted_reuse)
            })
            .map(|(_, code)| code.static_metrics.cycles)
            .sum()
    };

    let base = suite_cycles(&|_| {});
    let mut s = String::new();
    for (label, cycles) in [
        (
            "pure-reuse weights (paper formula)",
            suite_cycles(&|cfg| cfg.weights = WeightParams::reuse_only()),
        ),
        (
            "vector register file = 4",
            suite_cycles(&|cfg| cfg.machine.vector_regs = 4),
        ),
    ] {
        let _ = writeln!(
            s,
            "{label:<38} {:+6.2}% cycles vs default",
            (cycles / base - 1.0) * 100.0
        );
    }
    let _ = writeln!(
        s,
        "{:<38} {:+6.2}% static cycles when disabled",
        "permuted (indirect) superword reuse",
        (static_cycles(false) / static_cycles(true) - 1.0) * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intel() -> MachineConfig {
        MachineConfig::intel_dunnington()
    }

    #[test]
    fn fig16_shape_holds() {
        let results = measure_suite(&intel(), 1);
        assert_eq!(results.len(), 16);
        for r in &results {
            let (native, slp, global) = (
                r.reduction(Scheme::Native),
                r.reduction(Scheme::Slp),
                r.reduction(Scheme::Global),
            );
            // Global never loses to SLP, SLP never loses to Native
            // (beyond noise), and nothing is slower than scalar.
            assert!(global >= slp - 0.05, "{}: {global} < {slp}", r.spec.name);
            assert!(slp >= native - 0.05, "{}: {slp} < {native}", r.spec.name);
            assert!(native >= -0.05, "{}", r.spec.name);
        }
        // Global strictly beats SLP somewhere, and ties somewhere.
        assert!(results
            .iter()
            .any(|r| r.reduction(Scheme::Global) > r.reduction(Scheme::Slp) + 1.0));
        assert!(results
            .iter()
            .any(|r| (r.reduction(Scheme::Global) - r.reduction(Scheme::Slp)).abs() < 0.05));
    }

    #[test]
    fn fig17_global_reduces_packing() {
        let results = measure_suite(&intel(), 1);
        let rows = fig17_rows(&results);
        // The paper reports a 43.5% average packing/unpacking reduction.
        // Benchmarks where Global and SLP emit identical code contribute
        // zeros, and coverage mismatches (SLP leaving a block scalar)
        // can make a row negative, so the robust shape statement is on
        // the median and on the winners.
        let med = median(rows.iter().map(|(_, r)| r.packing_reduction));
        assert!(med > 5.0, "median packing reduction {med}");
        let big_winners = rows
            .iter()
            .filter(|(_, r)| r.packing_reduction > 20.0)
            .count();
        assert!(big_winners >= 4, "winners: {big_winners}");
    }

    #[test]
    fn fig19_layout_only_helps() {
        let results = measure_suite(&intel(), 1);
        let mut winners = 0;
        for r in &results {
            let g = r.reduction(Scheme::Global);
            let gl = r.reduction(Scheme::GlobalLayout);
            assert!(
                gl >= g - 0.6,
                "{}: layout degraded {g} -> {gl}",
                r.spec.name
            );
            if gl > g + 0.05 {
                winners += 1;
            }
        }
        assert!(winners >= 3, "layout should benefit several benchmarks");
    }

    #[test]
    fn fig21_reductions_are_consistent_across_cores() {
        let fig = fig21(&intel(), 8);
        assert_eq!(fig.rows.len(), 6);
        let mut improved = 0;
        for (name, series) in &fig.rows {
            for (g, _) in series {
                // Consistent improvements at every core count.
                assert!(*g > 5.0, "{name}: Global reduction {g}");
            }
            let first = series.first().expect("cores");
            let last = series.last().expect("cores");
            // No collapse at high core counts...
            assert!(
                last.0 >= first.0 * 0.7,
                "{name}: reduction collapsed with cores ({} -> {})",
                first.0,
                last.0
            );
            // ...and several benchmarks get slightly better, as the
            // bandwidth floor binds the scalar original harder.
            if last.0 >= first.0 {
                improved += 1;
            }
        }
        assert!(improved >= 2, "only {improved} series improved with cores");
    }
}
