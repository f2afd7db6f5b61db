//! Tests pinning the reproduction to the paper's own worked numbers: the
//! Figure 2 running example (candidate set, weights, decision order), the
//! §6 / Figure 15 example (grouping structure), and the Tables 1–3
//! configurations — and pinning every strategy's schedules on the suite
//! to the lanes recorded before the scheduler was rebuilt for speed.

mod common;

use slp::core::{
    group_block, group_block_with, schedule_block, BlockIndex, MachineConfig, Round, Unit,
    WeightParams,
};
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
    let ix = BlockIndex::new(&bb, &p, |_| 4);
    let mut round = Round::new(&ix, &deps, &units, &WeightParams::reuse_only());
    // §4.2.1: "the candidate group set for the code shown in Figure 2 is
    // C = {{S1,S2}, {S1,S3}, {S4,S5}}".
    assert_eq!(round.candidates(), [(0, 1), (0, 2), (3, 4)]);

    // Figure 5's edge weights: 1/1, 1/2, 2/3.
    let mut w = |c: usize| round.weight(c, &[true; 3]);
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
    let ix = BlockIndex::new(&info.block, &program, |_| 2);
    let grouping = group_block(&ix, &deps);
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
    let sched = schedule_block(&ix, &deps, &grouping.units, 16);
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
    use slp::prelude::{parse_machine, SlpConfig};

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
                    strategy.parse().unwrap(),
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

/// The FNV-1a hash of every block's grouping decisions — `round`, `stmts`
/// and the weight's bits — for `program` unrolled as the pipeline unrolls
/// it for `machine`.
fn decision_trace(program: &Program, machine: &MachineConfig, weights: &WeightParams) -> u64 {
    use slp::prelude::{SlpConfig, Strategy};
    use std::fmt::Write;

    let cfg = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
    let unrolled = slp::core::compile(program, &cfg).program;
    let mut text = String::new();
    for info in unrolled.blocks() {
        let deps = BlockDeps::analyze_in(&info.block, &info.loops);
        let ix = BlockIndex::new(&info.block, &unrolled, |ty| machine.lanes_for(ty));
        for d in &group_block_with(&ix, &deps, weights).decisions {
            let bits = d.weight.to_bits();
            write!(text, "{} {:?} {bits:016x};", d.round, d.stmts).unwrap();
        }
        text.push('|');
    }
    common::fnv64(&text)
}

/// Per kernel (as in [`SCHEDULES`]): the [`decision_trace`] under the
/// default and the reuse-only weight profile. One pair serves intel and
/// amd: the grouping sees a machine only through its datapath width, 128
/// bits on both, and the throw-away generator printed equal pairs.
/// Recorded at PR 17 (commit 5fb3257), before the weights moved from deep
/// `PackContent` comparisons onto ranked pack ids: the schedule hashes pin
/// what ships, these pin the weights that chose it.
#[rustfmt::skip]
const DECISIONS: [(&str, [u64; 2]); 20] = [
    ("cactusADM", [0x21ce1e8a1d38e39a, 0x856ffbd49427d5f6]),
    ("soplex", [0xfebdd0667e736c98, 0x458bd7ff90814a6a]),
    ("lbm", [0x9066940e19d54f22, 0x2decd8dbd91a056b]),
    ("milc", [0x54a51af49876ac70, 0xabce3c8d9e121a1c]),
    ("povray", [0xb61ab995002d834d, 0x85877f62af4eb38c]),
    ("gromacs", [0xdac1e4ee0f38a175, 0x8eb315f257cf01f7]),
    ("calculix", [0xf5c9aebb57fe9908, 0xc3a444ae89d46994]),
    ("dealII", [0x962f3bb4a22c3505, 0x584bc797e60b5af9]),
    ("wrf", [0x5ba1bac08fd27c97, 0x3d3e97b7e5e99be5]),
    ("namd", [0x070a2249e853448e, 0x12dc15d7ed6ed634]),
    ("ua", [0x9eb77e5cb52ea005, 0xee75c385e9b9db00]),
    ("ft", [0xbabe49bdfcc20105, 0xa65725edb0323ab8]),
    ("bt", [0x329ad1243f03bb6c, 0xba9a7b960ca655e2]),
    ("sp", [0xbb466e67edc8c0e6, 0x7b0d05fafe358c44]),
    ("mg", [0xd2c07c17e5d8dfad, 0x76a161330430afa5]),
    ("cg", [0xc45aab168b2880e0, 0xb24d4ecb74567bfc]),
    ("abs", [0x789a3b22d1cc229b, 0x70974bb44ad3859f]),
    ("clamp", [0xa7c539cd59853e5e, 0x862c6d6a67629613]),
    ("threshold", [0x0f518d5c11f0e3f9, 0x1a1422d8aeed1f1d]),
    ("masked_stencil", [0xa5542ca3d9528b1c, 0xfafde58453919b24]),
];

/// The same for every `crates/fuzz/corpus/*.slp` reproducer that parses
/// and validates (`panic-branchy-2-22` does not parse): selects,
/// dependence chains and non-transitive independence the suite lacks.
#[rustfmt::skip]
const CORPUS_DECISIONS: [(&str, [u64; 2]); 22] = [
    ("panic-ir-1081-8", [0x6f0ba451efae8bdc, 0x6a43434e1aeb6961]),
    ("panic-ir-1178-9", [0x3280e5405ee2ea2e, 0x4394693d07e12e0f]),
    ("panic-ir-1212-10", [0xea1f57b8af4e1c28, 0xd64e790ef59c0d85]),
    ("panic-ir-129-3", [0x83015f2a90138f79, 0xcfd7025a538dc195]),
    ("panic-ir-1298-12", [0x119db5ced2896bb5, 0x8addc7873719073f]),
    ("panic-ir-1442-15", [0xcf6656e4d1af4aa6, 0x99a61a85ca2aa30d]),
    ("panic-ir-1860-17", [0x0027523d7c636a55, 0x3566d59f774a133d]),
    ("panic-ir-1889-18", [0xcf6656e4d1af4aa6, 0x99a61a85ca2aa30d]),
    ("panic-ir-232-4", [0x5e01fce35dd040cf, 0x96022d9dfc50259d]),
    ("panic-ir-385-5", [0x0f23dbef778236f2, 0xb3846dec38475741]),
    ("panic-ir-705-7", [0x7f6802aa5ba0842e, 0xc567e1e57fd3c8d9]),
    ("round-trip-src-179-0", [0x5bd66acb48eb4463, 0x70cafe48314ed94d]),
    ("round-trip-src-413-1", [0xee63fefddd649062, 0x7d69c48900fa2801]),
    ("state-divergence-branchy-0-20", [0xd9e01dc76c2663de, 0x1a1422d8aeed1f1d]),
    ("state-divergence-branchy-1-21", [0x2a2607aeb23de869, 0xc4df06652458eef9]),
    ("state-divergence-ir-103-2", [0x1790cf1e8c415ba5, 0x58d6c04db1c209e1]),
    ("state-divergence-ir-1259-11", [0x1790cf1e8c415ba5, 0x58d6c04db1c209e1]),
    ("state-divergence-ir-1315-13", [0x1790cf1e8c415ba5, 0x58d6c04db1c209e1]),
    ("state-divergence-ir-1345-14", [0x6b8678ff9e1de9c3, 0x584bc797e60b5af9]),
    ("state-divergence-ir-1680-16", [0x9f9e5ea578cff54c, 0xb1cc1d935559699f]),
    ("state-divergence-ir-1946-19", [0xf3816bc244506ed2, 0x02cb4540e64ba57f]),
    ("state-divergence-ir-562-6", [0x9be30a196b51e8bb, 0x9be30a196b51e8bb]),
];

#[test]
fn grouping_decisions_and_their_weights_are_the_recorded_ones() {
    let corpus = CORPUS_DECISIONS.iter().map(|&(name, recorded)| {
        let path = slp_fuzz::default_corpus_dir().join(format!("{name}.slp"));
        let source = std::fs::read_to_string(path).expect("a corpus file");
        let program = slp::lang::compile(&source).expect("it parses");
        assert!(program.validate().is_ok(), "{name} validates");
        (program, name, recorded)
    });
    let recorded_or_unusable = |entry: std::io::Result<std::fs::DirEntry>| {
        let path = entry.expect("a corpus entry").path();
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        !path.extension().is_some_and(|x| x == "slp")
            || CORPUS_DECISIONS.iter().any(|(name, _)| *name == stem)
            || !std::fs::read_to_string(&path)
                .is_ok_and(|src| slp::lang::compile(&src).is_ok_and(|p| p.validate().is_ok()))
    };
    let mut dir = std::fs::read_dir(slp_fuzz::default_corpus_dir()).expect("the corpus");
    assert!(dir.all(recorded_or_unusable), "record the new reproducer");
    let suite = common::suite_and_branchy().into_iter().zip(DECISIONS);
    for (program, name, recorded) in suite.map(|(p, (n, r))| (p, n, r)).chain(corpus) {
        for machine in [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ] {
            let profiles = [WeightParams::default(), WeightParams::reuse_only()];
            for (weights, recorded) in profiles.iter().zip(recorded) {
                assert_eq!(
                    decision_trace(&program, &machine, weights),
                    recorded,
                    "{name} on {} under {weights:?}",
                    machine.name
                );
            }
        }
    }
}
