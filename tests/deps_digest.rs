//! Bit-identity pin of the dependence graph.
//!
//! One digest per program over everything [`BlockDeps`] reports of each
//! block: the direct dependences (kinds, in order), their position pairs,
//! the transitive reach bits and the exclusive-merge pairs (as the
//! `reorderable` answers of the pairs that are not independent). The
//! programs are the twenty suite kernels unrolled 1, 2, 4 and 8 times,
//! every corpus reproducer the frontend accepts (unrolled the same way)
//! and 240 generated programs.
//!
//! The table was recorded at PR 24 (commit d9b117d), before dependences
//! were tested without building operands or differences. On a mismatch
//! the test prints the table it computed.

mod common;

use std::fmt::Write as _;

use slp::ir::{unroll_program, BlockDeps, Program};
use slp::suite::{random_program, GeneratorConfig};

/// Everything pinned of every block of `program` as text.
fn transcript(program: &Program, text: &mut String) {
    for info in program.blocks() {
        let deps = BlockDeps::analyze_in(&info.block, &info.loops);
        for d in deps.direct() {
            write!(text, "{} {} {};", d.kind, d.src.index(), d.dst.index()).unwrap();
        }
        for (p, q) in deps.direct_pairs() {
            write!(text, "{p}-{q},").unwrap();
        }
        let stmts = info.block.stmts();
        for (p, a) in stmts.iter().enumerate() {
            text.push('|');
            for (q, b) in stmts.iter().enumerate() {
                text.push(if deps.reaches(p, q) { '1' } else { '0' });
                if !deps.independent(a.id(), b.id()) && deps.reorderable(a.id(), b.id()) {
                    write!(text, "x{q}").unwrap();
                }
            }
        }
        text.push('\n');
    }
}

/// The digest of `program` unrolled by each factor of `unrolls`.
fn digest(program: &Program, unrolls: &[usize]) -> u64 {
    let mut text = String::new();
    for &factor in unrolls {
        let mut p = program.clone();
        unroll_program(&mut p, factor);
        transcript(&p, &mut text);
    }
    common::fnv64(&text)
}

/// The suite programs by name, the corpus reproducers by file name, then
/// the generated programs in eight groups of thirty seeds.
fn rows() -> Vec<(String, u64)> {
    let unrolls = [1, 2, 4, 8];
    let mut out: Vec<(String, u64)> = common::suite_and_branchy()
        .iter()
        .map(|p| (p.name().to_string(), digest(p, &unrolls)))
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
        let name = path.file_stem().expect("a file name").to_string_lossy();
        out.push((name.into_owned(), digest(&program, &unrolls)));
    }
    for group in 0..8u64 {
        let mut text = String::new();
        for seed in group * 30..group * 30 + 30 {
            let config = GeneratorConfig {
                max_stride: 1 + (seed % 4) as i64,
                outer_sweeps: (seed % 3) as i64,
                ..GeneratorConfig::default()
            };
            let d = digest(&random_program(seed, &config), &[1, 1 << (seed % 3)]);
            write!(text, "{d:x};").unwrap();
        }
        out.push((format!("generated {group}"), common::fnv64(&text)));
    }
    out
}

/// Per program: the digest of its dependence graphs.
#[rustfmt::skip]
const DIGESTS: [(&str, u64); 50] = [
    ("cactusADM", 0x7b3b437258547c49),
    ("soplex", 0x774ae38e70d74a6f),
    ("lbm", 0xf4aa088a9490b181),
    ("milc", 0x10ccb36a93d0b820),
    ("povray", 0x601372882f928517),
    ("gromacs", 0x6cd9e9070d6a61c7),
    ("calculix", 0xae8f92b575dd21fd),
    ("dealII", 0xa71486fd3d01ce19),
    ("wrf", 0x864db80283fb7385),
    ("namd", 0x0a2fc72c6c55218a),
    ("ua", 0xf4aa088a9490b181),
    ("ft", 0x458d14573f505dc9),
    ("bt", 0x0376ed671949188d),
    ("sp", 0x774ae38e70d74a6f),
    ("mg", 0xf4aa088a9490b181),
    ("cg", 0x6e64dfa754cfa0ab),
    ("abs", 0xe0d12c2993c3d54f),
    ("clamp", 0x8860b9cc93303b42),
    ("threshold", 0x6fb17f17922a2200),
    ("masked_stencil", 0x6eb1ae4e11cae000),
    ("panic-ir-1081-8", 0xec8c4c8486779297),
    ("panic-ir-1178-9", 0x1c1c313855ad45f1),
    ("panic-ir-1212-10", 0xc214bc27dbbf29b1),
    ("panic-ir-129-3", 0xb03a39a50d0d9f8d),
    ("panic-ir-1298-12", 0x2ea97dcef00712c5),
    ("panic-ir-1442-15", 0x7360310c676ca7c9),
    ("panic-ir-1860-17", 0xa736857342ed7347),
    ("panic-ir-1889-18", 0x2d36c86fd8a06825),
    ("panic-ir-232-4", 0x127a43030052b7d5),
    ("panic-ir-385-5", 0x9a4b65b2d4024ee5),
    ("panic-ir-705-7", 0x1565084de9bda211),
    ("round-trip-src-179-0", 0xd9a1d07f8b03e0ce),
    ("round-trip-src-413-1", 0xa15973583cfd64eb),
    ("state-divergence-branchy-0-20", 0xc745b033c6982d52),
    ("state-divergence-branchy-1-21", 0x6fb17f17922a2200),
    ("state-divergence-ir-103-2", 0x1bf17f79b5ab20cd),
    ("state-divergence-ir-1259-11", 0x1fa0830d7f2f8719),
    ("state-divergence-ir-1315-13", 0xa100b917de1f8fed),
    ("state-divergence-ir-1345-14", 0x9a12cc210d69f0f9),
    ("state-divergence-ir-1680-16", 0x258f294d2a40d462),
    ("state-divergence-ir-1946-19", 0xc35f61fb80fa816d),
    ("state-divergence-ir-562-6", 0xa0f588ef10e6ff86),
    ("generated 0", 0x052442b966fdf246),
    ("generated 1", 0x1be9cdb2c2de8b9f),
    ("generated 2", 0xc67e465f37143fa2),
    ("generated 3", 0x28d1de619feda139),
    ("generated 4", 0x78fcf6571a949df0),
    ("generated 5", 0x02d5f895c849423a),
    ("generated 6", 0xcbaf46f21b6d32ea),
    ("generated 7", 0x83ac56b5a5252d0f),
];

#[test]
fn dependence_graphs_are_bit_identical() {
    let mut table = String::new();
    let mut differing = Vec::new();
    let rows = rows();
    for (row, (name, digest)) in rows.iter().enumerate() {
        if DIGESTS.get(row) != Some(&(name.as_str(), *digest)) {
            differing.push(name.as_str());
        }
        writeln!(table, "    ({name:?}, {digest:#018x}),").unwrap();
    }
    assert!(
        differing.is_empty() && rows.len() == DIGESTS.len(),
        "digests differ for {differing:?}; computed {} rows:\n{table}",
        rows.len()
    );
}
