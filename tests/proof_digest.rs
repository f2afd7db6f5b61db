//! Bit-identity pin of the symbolic translation validator.
//!
//! One digest per program × machine × configuration of the `Debug`
//! rendering of [`validate`]'s verdict: a proof's `ProofStats` (distinct
//! terms, dynamic steps, cells and scalars compared), a degraded
//! verdict's reason, a refutation's counterexample. Term counts follow
//! interning order and step counts follow evaluation order, so a faster
//! evaluator that changes either, not only one that changes a verdict,
//! fails here. The programs are the twenty suite kernels and every
//! reproducer of the fuzz corpus the frontend accepts; three tampered
//! kernels pin the refutation path.
//!
//! The table was recorded before interning keys became `Copy`,
//! subscripts stopped allocating, block plans were resolved once and
//! cell terms moved to a word-hashed map. On a mismatch the test prints the table it
//! computed.

mod common;

use std::fmt::Write as _;

use slp::core::{compile, BlockSchedule, CompiledKernel, ScheduledItem};
use slp::prelude::*;
use slp::verify::{validate, Budgets};

/// The five configurations, in column order.
fn configs(machine: &MachineConfig) -> [SlpConfig; 5] {
    let of = |strategy| SlpConfig::for_machine(machine.clone(), strategy);
    [
        of(Strategy::Native),
        of(Strategy::Baseline),
        of(Strategy::Holistic),
        of(Strategy::Holistic).with_layout(),
        of(Strategy::Optimal)
            .with_packer(OptimalPacker)
            .with_opt_budget(0, 500),
    ]
}

fn verdict_digest(original: &Program, kernel: &CompiledKernel, machine: &MachineConfig) -> u64 {
    let verdict = validate(original, kernel, machine, &Budgets::default());
    common::fnv64(&format!("{verdict:?}"))
}

/// The suite programs by name, then the corpus reproducers by file name.
/// A reproducer the frontend rejects is one the pipeline never sees.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = common::suite_and_branchy()
        .into_iter()
        .map(|p| (p.name().to_string(), p))
        .collect();
    let mut paths: Vec<_> = std::fs::read_dir(slp_fuzz::default_corpus_dir())
        .expect("the corpus directory")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "slp"))
        .collect();
    paths.sort();
    for path in paths {
        let source = std::fs::read_to_string(&path).expect("a readable reproducer");
        let Ok(program) = slp::lang::compile(&source) else {
            continue;
        };
        if program.validate().is_err() {
            continue;
        }
        let name = path.file_stem().expect("a file name").to_string_lossy();
        out.push((name.into_owned(), program));
    }
    out
}

/// Per program: intel's digests under Native, Baseline, Holistic,
/// Holistic + layout and Optimal at node cap 500, then amd's.
#[rustfmt::skip]
const DIGESTS: [(&str, [[u64; 5]; 2]); 42] = [
    ("cactusADM", [[0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345], [0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345, 0x28f0bc6bc5f4d345]]),
    ("soplex", [[0xb3dc5907fd704391, 0xb3dc5907fd704391, 0xb3dc5907fd704391, 0xb3dc5907fd704391, 0xb3dc5907fd704391], [0xb3dc5907fd704391, 0xb3dc5907fd704391, 0xb3dc5907fd704391, 0xb3dc5907fd704391, 0xb3dc5907fd704391]]),
    ("lbm", [[0x07313127d1d06564, 0x07313127d1d06564, 0x07313127d1d06564, 0x07313127d1d06564, 0x07313127d1d06564], [0x07313127d1d06564, 0x07313127d1d06564, 0x07313127d1d06564, 0x07313127d1d06564, 0x07313127d1d06564]]),
    ("milc", [[0x1873c9017fee50eb, 0x1873c9017fee50eb, 0x1873c9017fee50eb, 0x1873c9017fee50eb, 0x1873c9017fee50eb], [0x1873c9017fee50eb, 0x1873c9017fee50eb, 0x1873c9017fee50eb, 0x1873c9017fee50eb, 0x1873c9017fee50eb]]),
    ("povray", [[0xdc14d3980181d8d2, 0xdc14d3980181d8d2, 0xdc14d3980181d8d2, 0xadf8a289008e522c, 0xdc14d3980181d8d2], [0xdc14d3980181d8d2, 0xdc14d3980181d8d2, 0xdc14d3980181d8d2, 0x7043494efbbdf588, 0xdc14d3980181d8d2]]),
    ("gromacs", [[0x5f00faad06034968, 0x5f00faad06034968, 0x5f00faad06034968, 0xca50502b44486578, 0x5f00faad06034968], [0x5f00faad06034968, 0x5f00faad06034968, 0x5f00faad06034968, 0xca50502b44486578, 0x5f00faad06034968]]),
    ("calculix", [[0x6ca4fa44676792b2, 0x6ca4fa44676792b2, 0x6ca4fa44676792b2, 0xa264325dd0af4bc4, 0x6ca4fa44676792b2], [0x6ca4fa44676792b2, 0x6ca4fa44676792b2, 0x6ca4fa44676792b2, 0xa264325dd0af4bc4, 0x6ca4fa44676792b2]]),
    ("dealII", [[0x0497e0d57850b003, 0x0497e0d57850b003, 0x0497e0d57850b003, 0x0497e0d57850b003, 0x0497e0d57850b003], [0x0497e0d57850b003, 0x0497e0d57850b003, 0x0497e0d57850b003, 0x0497e0d57850b003, 0x0497e0d57850b003]]),
    ("wrf", [[0xe2f24359bcc80d80, 0xe2f24359bcc80d80, 0xe2f24359bcc80d80, 0x91837737c1c2277c, 0xe2f24359bcc80d80], [0xe2f24359bcc80d80, 0xe2f24359bcc80d80, 0xe2f24359bcc80d80, 0x91837737c1c2277c, 0xe2f24359bcc80d80]]),
    ("namd", [[0x82643d9201c3e576, 0x82643d9201c3e576, 0x82643d9201c3e576, 0x82643d9201c3e576, 0x82643d9201c3e576], [0x82643d9201c3e576, 0x82643d9201c3e576, 0x82643d9201c3e576, 0x82643d9201c3e576, 0x82643d9201c3e576]]),
    ("ua", [[0xb677667ce89983c3, 0xb677667ce89983c3, 0xb677667ce89983c3, 0x722b57cb15129d5b, 0xb677667ce89983c3], [0xb677667ce89983c3, 0xb677667ce89983c3, 0xb677667ce89983c3, 0x722b57cb15129d5b, 0xb677667ce89983c3]]),
    ("ft", [[0x306868a966b5bda3, 0x306868a966b5bda3, 0x306868a966b5bda3, 0x80452b3725f9a539, 0x306868a966b5bda3], [0x306868a966b5bda3, 0x306868a966b5bda3, 0x306868a966b5bda3, 0x80452b3725f9a539, 0x306868a966b5bda3]]),
    ("bt", [[0xfefb7f79ca26e645, 0xfefb7f79ca26e645, 0xfefb7f79ca26e645, 0xfefb7f79ca26e645, 0xfefb7f79ca26e645], [0xfefb7f79ca26e645, 0xfefb7f79ca26e645, 0xfefb7f79ca26e645, 0xfefb7f79ca26e645, 0xfefb7f79ca26e645]]),
    ("sp", [[0x47ea40c21fb925c0, 0x47ea40c21fb925c0, 0x47ea40c21fb925c0, 0x47ea40c21fb925c0, 0x47ea40c21fb925c0], [0x47ea40c21fb925c0, 0x47ea40c21fb925c0, 0x47ea40c21fb925c0, 0x47ea40c21fb925c0, 0x47ea40c21fb925c0]]),
    ("mg", [[0x8cd027276a71aae4, 0x8cd027276a71aae4, 0x8cd027276a71aae4, 0x8cd027276a71aae4, 0x8cd027276a71aae4], [0x8cd027276a71aae4, 0x8cd027276a71aae4, 0x8cd027276a71aae4, 0x8cd027276a71aae4, 0x8cd027276a71aae4]]),
    ("cg", [[0x9c789304cd475609, 0x9c789304cd475609, 0x9c789304cd475609, 0x9c789304cd475609, 0x9c789304cd475609], [0x9c789304cd475609, 0x9c789304cd475609, 0x9c789304cd475609, 0x9c789304cd475609, 0x9c789304cd475609]]),
    ("abs", [[0xef9a6187bd11284c, 0xef9a6187bd11284c, 0xef9a6187bd11284c, 0xef9a6187bd11284c, 0xef9a6187bd11284c], [0xef9a6187bd11284c, 0xef9a6187bd11284c, 0xef9a6187bd11284c, 0xef9a6187bd11284c, 0xef9a6187bd11284c]]),
    ("clamp", [[0x7fef0d49831e85f0, 0x7fef0d49831e85f0, 0x7fef0d49831e85f0, 0x7fef0d49831e85f0, 0x7fef0d49831e85f0], [0x7fef0d49831e85f0, 0x7fef0d49831e85f0, 0x7fef0d49831e85f0, 0x7fef0d49831e85f0, 0x7fef0d49831e85f0]]),
    ("threshold", [[0xbce81e611659861e, 0xbce81e611659861e, 0xbce81e611659861e, 0xbce81e611659861e, 0xbce81e611659861e], [0xbce81e611659861e, 0xbce81e611659861e, 0xbce81e611659861e, 0xbce81e611659861e, 0xbce81e611659861e]]),
    ("masked_stencil", [[0x7bbe443fe82aceba, 0x7bbe443fe82aceba, 0x7bbe443fe82aceba, 0x7bbe443fe82aceba, 0x7bbe443fe82aceba], [0x7bbe443fe82aceba, 0x7bbe443fe82aceba, 0x7bbe443fe82aceba, 0x7bbe443fe82aceba, 0x7bbe443fe82aceba]]),
    ("panic-ir-1081-8", [[0xa10e5c1a8072d573, 0xa10e5c1a8072d573, 0xa10e5c1a8072d573, 0xa10e5c1a8072d573, 0xa10e5c1a8072d573], [0xa10e5c1a8072d573, 0xa10e5c1a8072d573, 0xa10e5c1a8072d573, 0xa10e5c1a8072d573, 0xa10e5c1a8072d573]]),
    ("panic-ir-1178-9", [[0x993855d17192fa0e, 0x993855d17192fa0e, 0x993855d17192fa0e, 0x993855d17192fa0e, 0x993855d17192fa0e], [0x993855d17192fa0e, 0x993855d17192fa0e, 0x993855d17192fa0e, 0x993855d17192fa0e, 0x993855d17192fa0e]]),
    ("panic-ir-1212-10", [[0xf56675ed577b2fe3, 0xf56675ed577b2fe3, 0xf56675ed577b2fe3, 0xf56675ed577b2fe3, 0xf56675ed577b2fe3], [0xf56675ed577b2fe3, 0xf56675ed577b2fe3, 0xf56675ed577b2fe3, 0xf56675ed577b2fe3, 0xf56675ed577b2fe3]]),
    ("panic-ir-129-3", [[0xe1faf18dc534eb48, 0xe1faf18dc534eb48, 0xe1faf18dc534eb48, 0xe1faf18dc534eb48, 0xe1faf18dc534eb48], [0xe1faf18dc534eb48, 0xe1faf18dc534eb48, 0xe1faf18dc534eb48, 0xe1faf18dc534eb48, 0xe1faf18dc534eb48]]),
    ("panic-ir-1298-12", [[0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae], [0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae, 0x2f0ac6eb6db41aae]]),
    ("panic-ir-1442-15", [[0x264e8756ed3fa066, 0x264e8756ed3fa066, 0x264e8756ed3fa066, 0x264e8756ed3fa066, 0x264e8756ed3fa066], [0x264e8756ed3fa066, 0x264e8756ed3fa066, 0x264e8756ed3fa066, 0x264e8756ed3fa066, 0x264e8756ed3fa066]]),
    ("panic-ir-1860-17", [[0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57], [0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57, 0xe2bc49019ab0ac57]]),
    ("panic-ir-1889-18", [[0xc697f52a60732fe8, 0xc697f52a60732fe8, 0xc697f52a60732fe8, 0xc697f52a60732fe8, 0xc697f52a60732fe8], [0xc697f52a60732fe8, 0xc697f52a60732fe8, 0xc697f52a60732fe8, 0xc697f52a60732fe8, 0xc697f52a60732fe8]]),
    ("panic-ir-232-4", [[0x9b699446df122ec7, 0x9b699446df122ec7, 0x9b699446df122ec7, 0x9b699446df122ec7, 0x9b699446df122ec7], [0x9b699446df122ec7, 0x9b699446df122ec7, 0x9b699446df122ec7, 0x9b699446df122ec7, 0x9b699446df122ec7]]),
    ("panic-ir-385-5", [[0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5], [0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5, 0xf79de5d4b6369ef5]]),
    ("panic-ir-705-7", [[0x0009a043c8739f8f, 0x0009a043c8739f8f, 0x0009a043c8739f8f, 0x0009a043c8739f8f, 0x0009a043c8739f8f], [0x0009a043c8739f8f, 0x0009a043c8739f8f, 0x0009a043c8739f8f, 0x0009a043c8739f8f, 0x0009a043c8739f8f]]),
    ("round-trip-src-179-0", [[0xe12583001add00f3, 0xe12583001add00f3, 0xe12583001add00f3, 0xe12583001add00f3, 0xe12583001add00f3], [0xe12583001add00f3, 0xe12583001add00f3, 0xe12583001add00f3, 0xe12583001add00f3, 0xe12583001add00f3]]),
    ("round-trip-src-413-1", [[0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66], [0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66, 0xe463fa8c03f4fb66]]),
    ("state-divergence-branchy-0-20", [[0xfff8fb25f89ef017, 0xfff8fb25f89ef017, 0xfff8fb25f89ef017, 0xfff8fb25f89ef017, 0xfff8fb25f89ef017], [0xfff8fb25f89ef017, 0xfff8fb25f89ef017, 0xfff8fb25f89ef017, 0xfff8fb25f89ef017, 0xfff8fb25f89ef017]]),
    ("state-divergence-branchy-1-21", [[0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea], [0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea, 0x49ab1c96fd5369ea]]),
    ("state-divergence-ir-103-2", [[0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a], [0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a]]),
    ("state-divergence-ir-1259-11", [[0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e], [0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e]]),
    ("state-divergence-ir-1315-13", [[0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850], [0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850]]),
    ("state-divergence-ir-1345-14", [[0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67], [0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67]]),
    ("state-divergence-ir-1680-16", [[0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78], [0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78]]),
    ("state-divergence-ir-1946-19", [[0x45545be75944c713, 0x45545be75944c713, 0x45545be75944c713, 0x45545be75944c713, 0x45545be75944c713], [0x45545be75944c713, 0x45545be75944c713, 0x45545be75944c713, 0x45545be75944c713, 0x45545be75944c713]]),
    ("state-divergence-ir-562-6", [[0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0], [0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0]]),
];

#[test]
fn verdicts_and_proof_stats_are_bit_identical() {
    let machines = [
        parse_machine("intel").unwrap(),
        parse_machine("amd").unwrap(),
    ];
    let mut table = String::new();
    let mut differing = Vec::new();
    let programs = programs();
    for (row, (name, program)) in programs.iter().enumerate() {
        let digests = machines.each_ref().map(|machine| {
            configs(machine)
                .each_ref()
                .map(|config| verdict_digest(program, &compile(program, config), machine))
        });
        if DIGESTS.get(row) != Some(&(name.as_str(), digests)) {
            differing.push(name.as_str());
        }
        let hex = |d: [u64; 5]| d.map(|x| format!("{x:#018x}")).join(", ");
        let [intel, amd] = digests.map(hex);
        writeln!(table, "    ({name:?}, [[{intel}], [{amd}]]),").unwrap();
    }
    assert!(
        differing.is_empty() && programs.len() == DIGESTS.len(),
        "digests differ for {differing:?}; computed {} rows:\n{table}",
        programs.len()
    );
}

/// The three injected miscompiles of `tests/prove_suite.rs`, in order:
/// reordered dependent stores, a dropped remainder iteration, a wrong
/// lane permutation. Each verdict is a refutation whose counterexample
/// (input, location, both values) is pinned.
const TAMPERED: [u64; 3] = [0xc6e722acf931ae62, 0x405b985affbd3d5b, 0xd36c441586819dd0];

#[test]
fn refutations_are_bit_identical() {
    let machine = parse_machine("intel").unwrap();
    let config = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
    let program = |src: &str| parse_kernel(src).expect("kernel compiles");

    let dep = program(
        "kernel dep { array A: f64[8];
         for i in 0..8 { A[i] = A[i] * 2.0; A[i] = A[i] + 1.0; } }",
    );
    let mut reordered = compile(&dep, &config);
    let (bid, sched) = reordered.schedules[0].clone();
    let mut items: Vec<ScheduledItem> = sched.items().to_vec();
    items.swap(0, 1);
    reordered.schedules[0] = (bid, BlockSchedule::new(items));

    let tail = program(
        "kernel tail { array A: f64[10];
         for i in 0..10 { A[i] = 1.0 + A[i] * 3.0; } }",
    );
    let truncated = program(
        "kernel tail { array A: f64[10];
         for i in 0..8 { A[i] = 1.0 + A[i] * 3.0; } }",
    );

    let perm = program(
        "kernel perm { array A: f64[16]; array B: f64[16];
         for i in 0..8 {
             B[2*i] = A[2*i] + 1.0;
             B[2*i+1] = A[2*i+1] + 2.0;
         } }",
    );
    let permuted = program(
        "kernel perm { array A: f64[16]; array B: f64[16];
         for i in 0..8 {
             B[2*i] = A[2*i+1] + 1.0;
             B[2*i+1] = A[2*i] + 2.0;
         } }",
    );

    let digests = [
        verdict_digest(&dep, &reordered, &machine),
        verdict_digest(&tail, &compile(&truncated, &config), &machine),
        verdict_digest(&perm, &compile(&permuted, &config), &machine),
    ];
    assert_eq!(digests, TAMPERED, "computed {digests:#018x?}");
}
