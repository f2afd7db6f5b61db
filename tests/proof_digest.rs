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
//! cell terms moved to a word-hashed map, and re-recorded when each loop
//! body came to be proven once instead of walked iteration by iteration:
//! every cell that proof covers changed its term and step counts, while
//! the cells it leaves to the concrete walk (layout replications and
//! unroll copy-backs) kept theirs.
//! On a mismatch the test prints the table it computed.
//!
//! `VERDICTS` pins the same cells without the proof statistics: each
//! verdict's name, plus the digest of the whole `Debug` rendering of
//! every verdict that is not a proof (its reason or counterexample). A
//! change to how a proof is found moves `DIGESTS` only; a change to what
//! the validator concludes moves `VERDICTS`.

mod common;

use std::fmt::Write as _;
use std::sync::OnceLock;

use slp::core::{compile, BlockSchedule, CompiledKernel, ScheduledItem};
use slp::prelude::*;
use slp::verify::{validate, Budgets, Verdict};

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

/// A `VERDICTS` cell: `proved`, or the verdict's name and its digest.
fn verdict_cell(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Proved(_) => verdict.name().to_string(),
        _ => format!(
            "{} {:#018x}",
            verdict.name(),
            common::fnv64(&format!("{verdict:?}"))
        ),
    }
}

/// Every program's verdicts, intel's five configurations then amd's,
/// computed once for both tables.
fn verdicts() -> &'static [(String, [[Verdict; 5]; 2])] {
    static VERDICTS: OnceLock<Vec<(String, [[Verdict; 5]; 2])>> = OnceLock::new();
    VERDICTS.get_or_init(|| {
        let machines = [
            parse_machine("intel").unwrap(),
            parse_machine("amd").unwrap(),
        ];
        programs()
            .into_iter()
            .map(|(name, program)| {
                let verdicts = machines.clone().map(|machine| {
                    configs(&machine).map(|config| {
                        let kernel = compile(&program, &config);
                        validate(&program, &kernel, &machine, &Budgets::default())
                    })
                });
                (name, verdicts)
            })
            .collect()
    })
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
    ("cactusADM", [[0x9a881e0e1afe2888, 0x9a881e0e1afe2888, 0x9a881e0e1afe2888, 0x9a881e0e1afe2888, 0x9a881e0e1afe2888], [0x9a881e0e1afe2888, 0x9a881e0e1afe2888, 0x9a881e0e1afe2888, 0x9a881e0e1afe2888, 0x9a881e0e1afe2888]]),
    ("soplex", [[0x118a83743e2caecc, 0x118a83743e2caecc, 0x118a83743e2caecc, 0x118a83743e2caecc, 0x118a83743e2caecc], [0x118a83743e2caecc, 0x118a83743e2caecc, 0x118a83743e2caecc, 0x118a83743e2caecc, 0x118a83743e2caecc]]),
    ("lbm", [[0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3], [0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3, 0x8b77af1dc632e1d3]]),
    ("milc", [[0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0], [0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0, 0xe8f6f3accd3f3ac0]]),
    ("povray", [[0x807c6fc1fb84f2ae, 0x807c6fc1fb84f2ae, 0x807c6fc1fb84f2ae, 0xadf8a289008e522c, 0x807c6fc1fb84f2ae], [0x807c6fc1fb84f2ae, 0x807c6fc1fb84f2ae, 0x807c6fc1fb84f2ae, 0x7043494efbbdf588, 0x807c6fc1fb84f2ae]]),
    ("gromacs", [[0x11bc8de9da37d3d2, 0x11bc8de9da37d3d2, 0x11bc8de9da37d3d2, 0xca50502b44486578, 0x11bc8de9da37d3d2], [0x11bc8de9da37d3d2, 0x11bc8de9da37d3d2, 0x11bc8de9da37d3d2, 0xca50502b44486578, 0x11bc8de9da37d3d2]]),
    ("calculix", [[0xa8dd399a7df2d845, 0xa8dd399a7df2d845, 0xa8dd399a7df2d845, 0xa264325dd0af4bc4, 0xa8dd399a7df2d845], [0xa8dd399a7df2d845, 0xa8dd399a7df2d845, 0xa8dd399a7df2d845, 0xa264325dd0af4bc4, 0xa8dd399a7df2d845]]),
    ("dealII", [[0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b], [0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b, 0xb4538eae7e59cb5b]]),
    ("wrf", [[0xaf0af3300c1dd1cd, 0xaf0af3300c1dd1cd, 0xaf0af3300c1dd1cd, 0x91837737c1c2277c, 0xaf0af3300c1dd1cd], [0xaf0af3300c1dd1cd, 0xaf0af3300c1dd1cd, 0xaf0af3300c1dd1cd, 0x91837737c1c2277c, 0xaf0af3300c1dd1cd]]),
    ("namd", [[0x49a09c928359f9e4, 0x49a09c928359f9e4, 0x49a09c928359f9e4, 0x49a09c928359f9e4, 0x49a09c928359f9e4], [0x49a09c928359f9e4, 0x49a09c928359f9e4, 0x49a09c928359f9e4, 0x49a09c928359f9e4, 0x49a09c928359f9e4]]),
    ("ua", [[0xa2e31e9749d1322f, 0xa2e31e9749d1322f, 0xa2e31e9749d1322f, 0x722b57cb15129d5b, 0xa2e31e9749d1322f], [0xa2e31e9749d1322f, 0xa2e31e9749d1322f, 0xa2e31e9749d1322f, 0x722b57cb15129d5b, 0xa2e31e9749d1322f]]),
    ("ft", [[0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x80452b3725f9a539, 0x3da2e06c3915edc0], [0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x80452b3725f9a539, 0x3da2e06c3915edc0]]),
    ("bt", [[0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0], [0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0, 0x3da2e06c3915edc0]]),
    ("sp", [[0x4ca9d322a1e44521, 0x4ca9d322a1e44521, 0x4ca9d322a1e44521, 0x4ca9d322a1e44521, 0x4ca9d322a1e44521], [0x4ca9d322a1e44521, 0x4ca9d322a1e44521, 0x4ca9d322a1e44521, 0x4ca9d322a1e44521, 0x4ca9d322a1e44521]]),
    ("mg", [[0x0107b7a95a670122, 0x0107b7a95a670122, 0x0107b7a95a670122, 0x0107b7a95a670122, 0x0107b7a95a670122], [0x0107b7a95a670122, 0x0107b7a95a670122, 0x0107b7a95a670122, 0x0107b7a95a670122, 0x0107b7a95a670122]]),
    ("cg", [[0x438d8e70819b1052, 0x438d8e70819b1052, 0x438d8e70819b1052, 0x438d8e70819b1052, 0x438d8e70819b1052], [0x438d8e70819b1052, 0x438d8e70819b1052, 0x438d8e70819b1052, 0x438d8e70819b1052, 0x438d8e70819b1052]]),
    ("abs", [[0xcb07df5363026ad4, 0xcb07df5363026ad4, 0xcb07df5363026ad4, 0xcb07df5363026ad4, 0xcb07df5363026ad4], [0xcb07df5363026ad4, 0xcb07df5363026ad4, 0xcb07df5363026ad4, 0xcb07df5363026ad4, 0xcb07df5363026ad4]]),
    ("clamp", [[0xc008c08da6f33ad5, 0xc008c08da6f33ad5, 0xc008c08da6f33ad5, 0xc008c08da6f33ad5, 0xc008c08da6f33ad5], [0xc008c08da6f33ad5, 0xc008c08da6f33ad5, 0xc008c08da6f33ad5, 0xc008c08da6f33ad5, 0xc008c08da6f33ad5]]),
    ("threshold", [[0xe04af42cce8105c1, 0xe04af42cce8105c1, 0xe04af42cce8105c1, 0xe04af42cce8105c1, 0xe04af42cce8105c1], [0xe04af42cce8105c1, 0xe04af42cce8105c1, 0xe04af42cce8105c1, 0xe04af42cce8105c1, 0xe04af42cce8105c1]]),
    ("masked_stencil", [[0x59230f52489cafa5, 0x59230f52489cafa5, 0x59230f52489cafa5, 0x59230f52489cafa5, 0x59230f52489cafa5], [0x59230f52489cafa5, 0x59230f52489cafa5, 0x59230f52489cafa5, 0x59230f52489cafa5, 0x59230f52489cafa5]]),
    ("panic-ir-1081-8", [[0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027], [0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027]]),
    ("panic-ir-1178-9", [[0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027], [0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027, 0x0f34a47d09228027]]),
    ("panic-ir-1212-10", [[0x7088fd5a979a2165, 0x7088fd5a979a2165, 0x7088fd5a979a2165, 0x7088fd5a979a2165, 0x7088fd5a979a2165], [0x7088fd5a979a2165, 0x7088fd5a979a2165, 0x7088fd5a979a2165, 0x7088fd5a979a2165, 0x7088fd5a979a2165]]),
    ("panic-ir-129-3", [[0x43099b856fe0d55b, 0x43099b856fe0d55b, 0x43099b856fe0d55b, 0x43099b856fe0d55b, 0x43099b856fe0d55b], [0x43099b856fe0d55b, 0x43099b856fe0d55b, 0x43099b856fe0d55b, 0x43099b856fe0d55b, 0x43099b856fe0d55b]]),
    ("panic-ir-1298-12", [[0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781], [0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781, 0xb1c9b071ed7d8781]]),
    ("panic-ir-1442-15", [[0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa], [0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa, 0x5bfdc1cbe704aeaa]]),
    ("panic-ir-1860-17", [[0xf95a23d60f56e336, 0xf95a23d60f56e336, 0xf95a23d60f56e336, 0xf95a23d60f56e336, 0xf95a23d60f56e336], [0xf95a23d60f56e336, 0xf95a23d60f56e336, 0xf95a23d60f56e336, 0xf95a23d60f56e336, 0xf95a23d60f56e336]]),
    ("panic-ir-1889-18", [[0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3], [0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3, 0x2c2325d4c8db3eb3]]),
    ("panic-ir-232-4", [[0x2866075476579f6b, 0x2866075476579f6b, 0x2866075476579f6b, 0x2866075476579f6b, 0x2866075476579f6b], [0x2866075476579f6b, 0x2866075476579f6b, 0x2866075476579f6b, 0x2866075476579f6b, 0x2866075476579f6b]]),
    ("panic-ir-385-5", [[0x28ae08e878061447, 0x28ae08e878061447, 0x28ae08e878061447, 0x28ae08e878061447, 0x28ae08e878061447], [0x28ae08e878061447, 0x28ae08e878061447, 0x28ae08e878061447, 0x28ae08e878061447, 0x28ae08e878061447]]),
    ("panic-ir-705-7", [[0x91993f3aa0d2f105, 0x91993f3aa0d2f105, 0x91993f3aa0d2f105, 0x91993f3aa0d2f105, 0x91993f3aa0d2f105], [0x91993f3aa0d2f105, 0x91993f3aa0d2f105, 0x91993f3aa0d2f105, 0x91993f3aa0d2f105, 0x91993f3aa0d2f105]]),
    ("round-trip-src-179-0", [[0x4ce62405a60d84cf, 0x4ce62405a60d84cf, 0x4ce62405a60d84cf, 0x4ce62405a60d84cf, 0x4ce62405a60d84cf], [0x4ce62405a60d84cf, 0x4ce62405a60d84cf, 0x4ce62405a60d84cf, 0x4ce62405a60d84cf, 0x4ce62405a60d84cf]]),
    ("round-trip-src-413-1", [[0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a], [0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a, 0xd6adf1fe8952b96a]]),
    ("state-divergence-branchy-0-20", [[0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca], [0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca]]),
    ("state-divergence-branchy-1-21", [[0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca], [0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca, 0xe088d68a25d93fca]]),
    ("state-divergence-ir-103-2", [[0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a], [0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a, 0xd86cfd01e154f78a]]),
    ("state-divergence-ir-1259-11", [[0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e], [0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e, 0x3cbbdfc05ae0d39e]]),
    ("state-divergence-ir-1315-13", [[0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850], [0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850, 0x5b8a43a03460a850]]),
    ("state-divergence-ir-1345-14", [[0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67], [0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67, 0xae9d8498d7986e67]]),
    ("state-divergence-ir-1680-16", [[0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78], [0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78, 0xb872e605deff9d78]]),
    ("state-divergence-ir-1946-19", [[0xb966d34f6a69e12d, 0xb966d34f6a69e12d, 0xb966d34f6a69e12d, 0xb966d34f6a69e12d, 0xb966d34f6a69e12d], [0xb966d34f6a69e12d, 0xb966d34f6a69e12d, 0xb966d34f6a69e12d, 0xb966d34f6a69e12d, 0xb966d34f6a69e12d]]),
    ("state-divergence-ir-562-6", [[0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0], [0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0, 0x106dfe75753960e0]]),
];

#[test]
fn verdicts_and_proof_stats_are_bit_identical() {
    let mut table = String::new();
    let mut differing = Vec::new();
    let programs = verdicts();
    for (row, (name, verdicts)) in programs.iter().enumerate() {
        let digests = verdicts.each_ref().map(|row| {
            row.each_ref()
                .map(|verdict| common::fnv64(&format!("{verdict:?}")))
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

/// Per program, in `DIGESTS`' layout: what each validation concluded.
#[rustfmt::skip]
const VERDICTS: [(&str, [[&str; 5]; 2]); 42] = [
    ("cactusADM", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("soplex", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("lbm", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("milc", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("povray", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("gromacs", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("calculix", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("dealII", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("wrf", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("namd", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("ua", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("ft", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("bt", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("sp", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("mg", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("cg", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("abs", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("clamp", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("threshold", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("masked_stencil", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1081-8", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1178-9", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1212-10", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-129-3", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1298-12", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1442-15", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1860-17", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-1889-18", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-232-4", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-385-5", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("panic-ir-705-7", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("round-trip-src-179-0", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("round-trip-src-413-1", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-branchy-0-20", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-branchy-1-21", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-103-2", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-1259-11", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-1315-13", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-1345-14", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-1680-16", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-1946-19", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
    ("state-divergence-ir-562-6", [["proved", "proved", "proved", "proved", "proved"], ["proved", "proved", "proved", "proved", "proved"]]),
];

#[test]
fn verdicts_are_unchanged() {
    let mut table = String::new();
    let mut differing = Vec::new();
    let programs = verdicts();
    for (row, (name, verdicts)) in programs.iter().enumerate() {
        let cells = verdicts
            .each_ref()
            .map(|row| row.each_ref().map(verdict_cell));
        let recorded = VERDICTS
            .get(row)
            .is_some_and(|(n, c)| *n == name && c.iter().flatten().eq(cells.iter().flatten()));
        if !recorded {
            differing.push(name.as_str());
        }
        let quoted = |r: &[String; 5]| r.each_ref().map(|c| format!("{c:?}")).join(", ");
        let [intel, amd] = cells.each_ref().map(quoted);
        writeln!(table, "    ({name:?}, [[{intel}], [{amd}]]),").unwrap();
    }
    assert!(
        differing.is_empty() && programs.len() == VERDICTS.len(),
        "verdicts differ for {differing:?}; computed {} rows:\n{table}",
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
