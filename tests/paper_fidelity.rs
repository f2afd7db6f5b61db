//! Tests pinning the reproduction to the paper's own worked numbers: the
//! Figure 2 running example (candidate set, weights, decision order), the
//! §6 / Figure 15 example (grouping structure), and the Tables 1–3
//! configurations — and pinning every strategy's schedules on the suite
//! to the lanes recorded before the scheduler was rebuilt for speed.

mod common;

use slp::analysis::{
    candidate_weight_with, find_candidates, ConflictMatrix, PackGraph, Unit, WeightParams,
};
use slp::core::{group_block, schedule_block, BlockIndex, MachineConfig, ScheduleConfig};
use slp::ir::{BasicBlock, BinOp, BlockDeps, Expr, Program, ScalarType};

/// The paper's Figure 2 block:
/// S1: V1 = V3;  S2: V2 = V5;  S3: V5 = V7;
/// S4: V1 = V3 * V1;  S5: V5 = V5 * V2;
fn figure2() -> (Program, BasicBlock) {
    let mut p = Program::new("fig2");
    let v: Vec<_> = (0..8)
        .map(|k| p.add_scalar(format!("V{k}"), ScalarType::F32))
        .collect();
    let stmts = [
        p.make_stmt(v[1].into(), Expr::Copy(v[3].into())),
        p.make_stmt(v[2].into(), Expr::Copy(v[5].into())),
        p.make_stmt(v[5].into(), Expr::Copy(v[7].into())),
        p.make_stmt(
            v[1].into(),
            Expr::Binary(BinOp::Mul, v[3].into(), v[1].into()),
        ),
        p.make_stmt(
            v[5].into(),
            Expr::Binary(BinOp::Mul, v[5].into(), v[2].into()),
        ),
    ];
    let bb: BasicBlock = stmts.into_iter().collect();
    (p, bb)
}

#[test]
fn figure2_candidates_and_figure5_weights() {
    let (p, bb) = figure2();
    let deps = BlockDeps::analyze(&bb);
    let units: Vec<Unit> = bb.iter().map(|s| Unit::singleton(s.id())).collect();
    let cands = find_candidates(&units, &bb, &deps, &p, |_| 4);
    // §4.2.1: "the candidate group set for the code shown in Figure 2 is
    // C = {{S1,S2}, {S1,S3}, {S4,S5}}".
    let pairs: Vec<(usize, usize)> = cands.iter().map(|c| (c.a, c.b)).collect();
    assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 4)]);

    // Figure 5's edge weights: 1/1, 1/2, 2/3.
    let conflicts = ConflictMatrix::compute(&cands, &deps);
    let vp = PackGraph::build(&cands);
    let alive = vec![true; cands.len()];
    let w = |c: usize| {
        candidate_weight_with(
            c,
            &cands,
            &vp,
            &conflicts,
            &alive,
            &[],
            &WeightParams::reuse_only(),
        )
    };
    assert!((w(0) - 1.0).abs() < 1e-9);
    assert!((w(1) - 0.5).abs() < 1e-9);
    assert!((w(2) - 2.0 / 3.0).abs() < 1e-9);
}

#[test]
fn figure15_grouping_structure() {
    // The §6 running example: Global must group {a,b}, {c,h}, {d,g} and
    // the two stores — capturing the <d,g>, <c,h>, <a,r> reuses that the
    // baseline misses (Figure 15 c).
    let program = slp::lang::compile(
        "kernel fig15 {
            const N = 64;
            array A: f64[2*N+6]; array B: f64[4*N+8];
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
        }",
    )
    .expect("figure 15 compiles");
    let info = &program.blocks()[0];
    let deps = BlockDeps::analyze(&info.block);
    let grouping = group_block(&info.block, &deps, &program, |_| 2);
    let mut groups: Vec<Vec<usize>> = grouping
        .groups()
        .map(|u| {
            let mut v: Vec<usize> = u.stmts().iter().map(|s| s.index()).collect();
            v.sort();
            v
        })
        .collect();
    groups.sort();
    // Statement positions: a=0 b=1 c=2 d=3 g=4 h=5 store1=6 store2=7.
    assert_eq!(
        groups,
        vec![vec![0, 1], vec![2, 5], vec![3, 4], vec![6, 7]],
        "expected the Figure 15(c) grouping {{a,b}} {{c,h}} {{d,g}} {{stores}}"
    );
    // And the schedule keeps every reuse possible (4 superwords).
    let sched = schedule_block(
        &BlockIndex::new(&info.block),
        &deps,
        &grouping.units,
        &ScheduleConfig::default(),
    );
    assert_eq!(sched.superword_count(), 4);
}

#[test]
fn tables_1_and_2_reproduce_machine_configs() {
    let intel = MachineConfig::intel_dunnington();
    assert_eq!(
        (
            intel.cores,
            intel.clock_ghz,
            intel.l1_data_kb,
            intel.l2_total_kb,
            intel.l3_total_kb
        ),
        (12, 2.40, 32, 18 * 1024, 24 * 1024)
    );
    let amd = MachineConfig::amd_phenom_ii();
    assert_eq!(
        (
            amd.cores,
            amd.clock_ghz,
            amd.l1_data_kb,
            amd.l2_total_kb,
            amd.l3_total_kb
        ),
        (4, 3.00, 64, 2 * 1024, 6 * 1024)
    );
    // Both are 128-bit SSE2-class machines.
    assert_eq!(intel.datapath_bits, 128);
    assert_eq!(amd.datapath_bits, 128);
}

#[test]
fn table3_catalog_matches_the_paper() {
    let specs = slp::suite::catalog();
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "cactusADM",
            "soplex",
            "lbm",
            "milc",
            "povray",
            "gromacs",
            "calculix",
            "dealII",
            "wrf",
            "namd",
            "ua",
            "ft",
            "bt",
            "sp",
            "mg",
            "cg"
        ]
    );
}

/// Per kernel (the sixteen of the suite, then the four branchy ones): the
/// FNV-1a hash of the `{:?}`-printed block schedules under native, slp,
/// global and global+layout on intel, then the same four on amd.
/// Recorded at PR 15 (commit c5e04d7), before the scheduler and the cost
/// estimator moved onto the per-block index of interned operand keys;
/// that move may not reorder a statement or a lane under any strategy.
#[rustfmt::skip]
const SCHEDULES: [(&str, [u64; 8]); 20] = [
    ("cactusADM", [0x0353aa42385e5718, 0x3bb5773bd472cd02, 0x3bb5773bd472cd02, 0x3bb5773bd472cd02, 0x0353aa42385e5718, 0x3bb5773bd472cd02, 0x3bb5773bd472cd02, 0x3bb5773bd472cd02]),
    ("soplex", [0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6]),
    ("lbm", [0x0353aa42385e5718, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e, 0x0353aa42385e5718, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e]),
    ("milc", [0x2b9b6f5d28030dc5, 0xb057ffaa6f897d55, 0x70c03233d30dec23, 0x70c03233d30dec23, 0x2b9b6f5d28030dc5, 0xb057ffaa6f897d55, 0x70c03233d30dec23, 0x70c03233d30dec23]),
    ("povray", [0x9ac823195cfdc092, 0x8a50141e3ed6126c, 0x99d392e446e88926, 0x99d392e446e88926, 0x9ac823195cfdc092, 0x8a50141e3ed6126c, 0x99d392e446e88926, 0xdc758912f56f229e]),
    ("gromacs", [0x63a47e976fa0741e, 0xe3c3a36bd711db3a, 0xe3c3a36bd711db3a, 0xa396eedbd88d7836, 0x63a47e976fa0741e, 0xe3c3a36bd711db3a, 0xe3c3a36bd711db3a, 0xa396eedbd88d7836]),
    ("calculix", [0xc966edb00c3e5bbe, 0x577cf137b8d4132a, 0x577cf137b8d4132a, 0x577cf137b8d4132a, 0xc966edb00c3e5bbe, 0x577cf137b8d4132a, 0x577cf137b8d4132a, 0x577cf137b8d4132a]),
    ("dealII", [0x509840b897e65a65, 0x509840b897e65a65, 0x509840b897e65a65, 0x509840b897e65a65, 0x509840b897e65a65, 0x509840b897e65a65, 0x509840b897e65a65, 0x509840b897e65a65]),
    ("wrf", [0x245041e9a9407f96, 0x95f7a75d9daf8f66, 0x70fbe2bed5115704, 0x70fbe2bed5115704, 0x245041e9a9407f96, 0x95f7a75d9daf8f66, 0x87de53c51e03ad68, 0x70fbe2bed5115704]),
    ("namd", [0x9ac823195cfdc092, 0x9f5d0e0c9a4b23ba, 0x9f5d0e0c9a4b23ba, 0x9f5d0e0c9a4b23ba, 0x9ac823195cfdc092, 0x9f5d0e0c9a4b23ba, 0x9f5d0e0c9a4b23ba, 0x9f5d0e0c9a4b23ba]),
    ("ua", [0x0353aa42385e5718, 0x25a94a8939ba8f8c, 0x25a94a8939ba8f8c, 0x2d4d4031e786f21e, 0x0353aa42385e5718, 0x25a94a8939ba8f8c, 0x25a94a8939ba8f8c, 0x2d4d4031e786f21e]),
    ("ft", [0x63a47e976fa0741e, 0xa396eedbd88d7836, 0xa396eedbd88d7836, 0xa396eedbd88d7836, 0x63a47e976fa0741e, 0xa396eedbd88d7836, 0xa396eedbd88d7836, 0xa396eedbd88d7836]),
    ("bt", [0x63a47e976fa0741e, 0xa396eedbd88d7836, 0xa396eedbd88d7836, 0xa396eedbd88d7836, 0x63a47e976fa0741e, 0xa396eedbd88d7836, 0xa396eedbd88d7836, 0xa396eedbd88d7836]),
    ("sp", [0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6, 0xc69eb054571d1bf6]),
    ("mg", [0x0353aa42385e5718, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e, 0x0353aa42385e5718, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e, 0x2d4d4031e786f21e]),
    ("cg", [0x41dd5606452af780, 0x41dd5606452af780, 0x41dd5606452af780, 0x41dd5606452af780, 0x41dd5606452af780, 0x41dd5606452af780, 0x41dd5606452af780, 0x41dd5606452af780]),
    ("abs", [0xb51520837e0b1344, 0x62636d2c4821df1c, 0x62636d2c4821df1c, 0x62636d2c4821df1c, 0xb51520837e0b1344, 0x62636d2c4821df1c, 0x62636d2c4821df1c, 0x62636d2c4821df1c]),
    ("clamp", [0x2eb6eb324d8f18a9, 0xbe1ada61e190490d, 0xbe1ada61e190490d, 0xbe1ada61e190490d, 0x2eb6eb324d8f18a9, 0xbe1ada61e190490d, 0xbe1ada61e190490d, 0xbe1ada61e190490d]),
    ("threshold", [0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f]),
    ("masked_stencil", [0x38d787904ca006f1, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0x38d787904ca006f1, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f, 0xedcc1077d63aba6f]),
];

#[test]
fn every_strategy_ships_the_recorded_schedules() {
    use slp::prelude::{parse_machine, parse_strategy, SlpConfig};

    let programs = common::suite_and_branchy();
    for (program, (name, recorded)) in programs.iter().zip(SCHEDULES) {
        let mut column = 0;
        for machine in ["intel", "amd"] {
            for (strategy, layout) in [
                ("native", false),
                ("slp", false),
                ("global", false),
                ("global", true),
            ] {
                let mut cfg = SlpConfig::for_machine(
                    parse_machine(machine).unwrap(),
                    parse_strategy(strategy).unwrap(),
                );
                if layout {
                    cfg = cfg.with_layout();
                }
                let kernel = slp::core::compile(program, &cfg);
                assert_eq!(
                    common::fnv64(&format!("{:?}", kernel.schedules)),
                    recorded[column],
                    "{name} on {machine} under {strategy} (layout: {layout})"
                );
                column += 1;
            }
        }
    }
}
