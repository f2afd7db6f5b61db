//! Bit-identity pin of the scheduler, the emission walk and the solver.
//!
//! One digest per program × machine × configuration over everything a
//! faster scheduler or walk could silently change: each block's schedule
//! items in order (lane order included), each block's §4.3 estimate and
//! the kernel's as `f64::to_bits`, and for `Strategy::Optimal` every block
//! solve's node count, cost, proven lower bound and `degraded` flag. The
//! programs are the twenty suite kernels and every reproducer of the fuzz
//! corpus — adversarial IR the suite never has: duplicate operand keys in
//! one slot, aliasing stores, integer packs.
//!
//! The table was recorded at PR 23 (commit 33b2124), before lane orders
//! were searched only against matching live packs, access vectors were
//! compared without a `Vec`, and equal schedules were walked once. On a
//! mismatch the test prints the table it computed.

mod common;

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use slp::core::{
    compile, estimate_kernel_cost, estimate_schedule_cost, BlockIndex, CostContext, LayoutView,
    PackOutcome, PackRequest, Packer, ScheduledItem,
};
use slp::prelude::*;

/// [`OptimalPacker`], keeping what each block solve returned.
struct Recording(Arc<Mutex<String>>);

impl Packer for Recording {
    fn pack(&self, req: &PackRequest<'_>) -> PackOutcome {
        let out = OptimalPacker.pack(req);
        let mut log = self.0.lock().expect("no solve panicked");
        let (cost, bound) = (out.cost.to_bits(), out.lower_bound.to_bits());
        write!(
            log,
            "solve {} {cost:x} {bound:x} {};",
            out.nodes, out.degraded
        )
        .unwrap();
        out
    }
}

/// The five configurations, in column order.
fn configs(machine: &MachineConfig, solves: &Arc<Mutex<String>>) -> [SlpConfig; 5] {
    let of = |strategy| SlpConfig::for_machine(machine.clone(), strategy);
    [
        of(Strategy::Native),
        of(Strategy::Baseline),
        of(Strategy::Holistic),
        of(Strategy::Holistic).with_layout(),
        of(Strategy::Optimal)
            .with_packer(Recording(Arc::clone(solves)))
            .with_opt_budget(0, 500),
    ]
}

/// Everything pinned of one compile, as text.
fn transcript(program: &Program, config: &SlpConfig, solves: &Mutex<String>) -> String {
    solves.lock().unwrap().clear();
    let kernel = compile(program, config);
    let mut text = std::mem::take(&mut *solves.lock().unwrap());
    let exposed = kernel.program.upward_exposed_scalars();
    for info in kernel.program.blocks() {
        let Some(sched) = kernel.schedule_of(info.id) else {
            continue;
        };
        for item in sched.items() {
            let mark = match item {
                ScheduledItem::Single(_) => 's',
                ScheduledItem::Superword(_) => 'w',
            };
            text.push(mark);
            for stmt in item.stmts() {
                write!(text, " {}", stmt.index()).unwrap();
            }
            text.push(';');
        }
        let cx = CostContext {
            program: &kernel.program,
            loops: &info.loops,
            exposed: &exposed,
            cost: &config.machine.cost,
            vector_regs: config.machine.vector_regs,
            layout: LayoutView::None,
            permuted_reuse: config.strategy.permuted_reuse(),
        };
        let ix = BlockIndex::new(&info.block, &kernel.program, |ty| {
            config.machine.lanes_for(ty)
        });
        let estimate = estimate_schedule_cost(&ix, sched, &cx);
        write!(text, "block {:x};", estimate.to_bits()).unwrap();
    }
    let stats = &kernel.stats;
    write!(
        text,
        "kernel {:x} {} {} {}",
        estimate_kernel_cost(&kernel).to_bits(),
        stats.opt_nodes,
        stats.opt_gap_ppm,
        stats.opt_degraded
    )
    .unwrap();
    text
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
    ("cactusADM", [[0x094543e46039ffe3, 0x9de4862a26eb5e41, 0x9de4862a26eb5e41, 0x9de4862a26eb5e41, 0x5f55dd37114e7422], [0x094543e46039ffe3, 0x22cf0dbfbcc91826, 0x22cf0dbfbcc91826, 0x22cf0dbfbcc91826, 0x1974b0fd12b973bf]]),
    ("soplex", [[0xc0b7fd2fbb6b4b69, 0xc0b7fd2fbb6b4b69, 0xc0b7fd2fbb6b4b69, 0xc0b7fd2fbb6b4b69, 0xcda32502455a301b], [0xb3fc2334aba42ac4, 0xb3fc2334aba42ac4, 0xb3fc2334aba42ac4, 0xb3fc2334aba42ac4, 0x6ddd18a02a1ae390]]),
    ("lbm", [[0xf462a7fbde76ffe4, 0xadb9379a6fda319c, 0x5bdae7146e777c12, 0x5bdae7146e777c12, 0xee2665b68fa13999], [0xf462a7fbde76ffe4, 0xde9e9772c56a70e3, 0x2c62183180ff34ee, 0x2c62183180ff34ee, 0x04504594e1848636]]),
    ("milc", [[0x3319594f48afeafd, 0xd696994ba42f35ae, 0xfb02be9cb9ae9635, 0xfb02be9cb9ae9635, 0xa60dc3c7441e262c], [0x3319594f48afeafd, 0x259837dc54962d0a, 0xb56e98b6382e308e, 0xb56e98b6382e308e, 0x71b31cbb68851412]]),
    ("povray", [[0xe701f2a1ccc784b7, 0x1596e8192ca34631, 0xf847907254250dec, 0x7caa39e0087060f2, 0x4193719c35a066de], [0xe701f2a1ccc784b7, 0x8a8e108831b395ee, 0xcb96cdf553d24a0f, 0x4b1e4f879062cd7e, 0xc26d88ef0fd2eb02]]),
    ("gromacs", [[0x9e34124a65089879, 0x726e13a9e5c279f7, 0x3cd53d93b42b25a7, 0x576f4c0756570e40, 0xc4bbe884294eb82a], [0x9e34124a65089879, 0xb4d2d0d8b35afbcc, 0x1487ac4a5dbb4dcf, 0x7d560de39dbf5ffb, 0x98424697f9b604b9]]),
    ("calculix", [[0x0fe782124461b43a, 0xe666f2b7b3d299d5, 0xcdf305f992e5882f, 0x0972ef2c2bde1d7f, 0x46fb91c14c98ac59], [0x0fe782124461b43a, 0x7594e670af4574a7, 0xc3f7656caa3da2d1, 0x956ada13da3657ef, 0xc4109c1dacf6441b]]),
    ("dealII", [[0xac3669648f04587c, 0xac3669648f04587c, 0xac3669648f04587c, 0xac3669648f04587c, 0xde5ef87f06adcee9], [0x4488a0fb4b8ebc70, 0x4488a0fb4b8ebc70, 0x4488a0fb4b8ebc70, 0x4488a0fb4b8ebc70, 0x8c794eb6de3ad2b7]]),
    ("wrf", [[0xbdeb1ac1d78c0a8c, 0x0dea53bb63436240, 0x054bfb6c9d46f5b9, 0xa75b5ce135064ab8, 0x5c0cdec4db6e54ae], [0xbdeb1ac1d78c0a8c, 0xbfc97eb2ee296b17, 0xdfda534343c3dbc1, 0x73313e5c6d09ab27, 0x4b0c489792f6d9fb]]),
    ("namd", [[0x295c6acd7999ebf4, 0xa1feebca9d2780e8, 0x2a0a80cc3da52df8, 0x2a0a80cc3da52df8, 0xa2cf341784d09150], [0x295c6acd7999ebf4, 0x4106f469c0c66d97, 0x42b1ffa4f6ab36d8, 0x42b1ffa4f6ab36d8, 0x5e75b643a4177c20]]),
    ("ua", [[0x6dad5f77813ad5d3, 0xd6e923bdeaf3d67a, 0x5467f535efaa3852, 0x8c01eccf6bc832d0, 0x478fd0002947cd13], [0x6dad5f77813ad5d3, 0xa32c381ec3a4fc21, 0x083a42ff5c353d66, 0xb9efd64cdcf5a9b7, 0x5574132a135ae814]]),
    ("ft", [[0x513f13316cd92616, 0xa0255f5de39234d1, 0x2bfd794dc5799647, 0x03df5280b6a49aec, 0x57adbc9148bfe21b], [0x513f13316cd92616, 0x4587857e0c9294c9, 0xa2024f575c2a0903, 0xcc5cd2f99e04e9ab, 0xd12fc043b1a3dda0]]),
    ("bt", [[0xb9a3109ebb257aff, 0xc4839cfe228a9a75, 0xc467fee13a5babf2, 0xc467fee13a5babf2, 0x7d057dd780550f89], [0xb9a3109ebb257aff, 0xc59cfb9e0ffa7ee0, 0xdf1b6eae7d7414c5, 0xdf1b6eae7d7414c5, 0x04b6bcd72cb6a5e8]]),
    ("sp", [[0xe79f6a7681ce28d2, 0xe79f6a7681ce28d2, 0xe79f6a7681ce28d2, 0xe79f6a7681ce28d2, 0x79c9540ad14e425c], [0x14f597a4aeec4f9a, 0x14f597a4aeec4f9a, 0x14f597a4aeec4f9a, 0x14f597a4aeec4f9a, 0x0c4a99af9a893b32]]),
    ("mg", [[0x4d6c72d7deb3edba, 0xced2179495a751c0, 0xf8072162237d1dae, 0xf8072162237d1dae, 0xc0e1bb63119cf660], [0x4d6c72d7deb3edba, 0x4091550df214faaf, 0x55c7edbd914b796f, 0x55c7edbd914b796f, 0xc018ece7222a7c81]]),
    ("cg", [[0x1c276e3ee03cdb65, 0x1c276e3ee03cdb65, 0x1c276e3ee03cdb65, 0x1c276e3ee03cdb65, 0x50e4ecebe4e933b3], [0x87513f3b4b1a0324, 0x87513f3b4b1a0324, 0x87513f3b4b1a0324, 0x87513f3b4b1a0324, 0xea75df597741cefc]]),
    ("abs", [[0x13b1a93ef85fcaa3, 0xa74a13b1bf527b81, 0xa74a13b1bf527b81, 0xa74a13b1bf527b81, 0xf066937bd0eb7432], [0x05e067f94ab27ee1, 0x56c15d1be1cbe44f, 0x56c15d1be1cbe44f, 0x56c15d1be1cbe44f, 0xc2c25abe916b5272]]),
    ("clamp", [[0x2b4d9915649b5067, 0xc1de2715951324d8, 0xc1de2715951324d8, 0xc1de2715951324d8, 0x39366eb9a142cfcd], [0x677f251d8ea443bf, 0x540494f44b77beda, 0x540494f44b77beda, 0x540494f44b77beda, 0xf4540eac2df08bab]]),
    ("threshold", [[0xe7a1f792f04065aa, 0xe7a1f792f04065aa, 0xe7a1f792f04065aa, 0xe7a1f792f04065aa, 0xf255d3a19d1d9373], [0xecab7f05e106bf12, 0xecab7f05e106bf12, 0xecab7f05e106bf12, 0xecab7f05e106bf12, 0x5ffd0654ccd1c2db]]),
    ("masked_stencil", [[0x6b363eaa8ef7b336, 0xb89ba0ac5d1b24ca, 0xb89ba0ac5d1b24ca, 0xb89ba0ac5d1b24ca, 0xccead7cd486a59e7], [0x6b363eaa8ef7b336, 0xecab7f05e106bf12, 0xecab7f05e106bf12, 0xecab7f05e106bf12, 0xefd73bac8da63a85]]),
    ("panic-ir-1081-8", [[0x69d62e431a669ff1, 0x2a69c393b079b793, 0xe2e810b82211611d, 0xe2e810b82211611d, 0x8c204908dc34108f], [0x69d62e431a669ff1, 0xd2dc348c17688865, 0xe141a55bd9703736, 0xe141a55bd9703736, 0xc6d8d2bfa20ef0de]]),
    ("panic-ir-1178-9", [[0xc875c63db9f5e9e4, 0x2bbd3202bc9e28a1, 0xc875c63db9f5e9e4, 0xc875c63db9f5e9e4, 0x5c072783cc7cb825], [0x18496225803442eb, 0x8621a2ddb544457d, 0x18496225803442eb, 0x18496225803442eb, 0x627e85f921996d44]]),
    ("panic-ir-1212-10", [[0x846413b8a952c417, 0x5c1f17e3d721db0e, 0x5c1f17e3d721db0e, 0x5c1f17e3d721db0e, 0x096f278cb3580414], [0x846413b8a952c417, 0x9628f60272da62cc, 0x9628f60272da62cc, 0x9628f60272da62cc, 0x9bd126ea36614058]]),
    ("panic-ir-129-3", [[0x42a7d584fd6ca3c1, 0x1a7cc9439df59925, 0x6e66875c84d513ef, 0x6e66875c84d513ef, 0x7e8b28f279e17ee9], [0x42a7d584fd6ca3c1, 0x70df8ef7e67b3e3d, 0x51b682d2f49c8b47, 0x51b682d2f49c8b47, 0x4822c144ff74a10e]]),
    ("panic-ir-1298-12", [[0x9cfc5810814dbeea, 0x9cfc5810814dbeea, 0x9cfc5810814dbeea, 0x9cfc5810814dbeea, 0x4808d983dda30c00], [0x3f00bdc5639c318a, 0x3f00bdc5639c318a, 0x3f00bdc5639c318a, 0x3f00bdc5639c318a, 0x1a6f9a6ba65bc340]]),
    ("panic-ir-1442-15", [[0x846413b8a952c417, 0x8965d72307904d2c, 0x8965d72307904d2c, 0x8965d72307904d2c, 0x4507d517ac99d1f4], [0x846413b8a952c417, 0xf3c8f6cdf36d3a3a, 0x74b7f29a476fad5e, 0x74b7f29a476fad5e, 0x9bd126ea36614058]]),
    ("panic-ir-1860-17", [[0x846413b8a952c417, 0x008b0db477c954e5, 0x01c772f170e20296, 0x01c772f170e20296, 0x35c2e21124f9aa2a], [0x846413b8a952c417, 0x5711f7935a8dac5f, 0xb7d768a0ff8399e7, 0xb7d768a0ff8399e7, 0xe890e9cc10e28917]]),
    ("panic-ir-1889-18", [[0xc1fcfb035d4d719e, 0x5844b942deadd278, 0x5844b942deadd278, 0x5844b942deadd278, 0x72de0251a835fb2f], [0xc1fcfb035d4d719e, 0xc39e62fe6a547c05, 0x45ab1236a59d58e4, 0x45ab1236a59d58e4, 0x7c1a8cfa1ae37495]]),
    ("panic-ir-232-4", [[0xad49ccdeda49f169, 0x6c27e1480e57c2ad, 0x7f985904c998326c, 0x7f985904c998326c, 0xdfb2ce9b9de4f3a3], [0xad49ccdeda49f169, 0x1f6762c1b3313d5d, 0xe1ee89914a1a7d09, 0xe1ee89914a1a7d09, 0x8c25469e64a92ea1]]),
    ("panic-ir-385-5", [[0xe5a8de1429171465, 0x81a2496296b23467, 0x81a2496296b23467, 0x81a2496296b23467, 0x9a80722a9c209b19], [0xe5a8de1429171465, 0x58403b332b29edf2, 0x58403b332b29edf2, 0x58403b332b29edf2, 0xdefca5bfbf0551e2]]),
    ("panic-ir-705-7", [[0xfccad69b4b349462, 0xf16cca9eeb95c3ee, 0xf16cca9eeb95c3ee, 0xf16cca9eeb95c3ee, 0x39dbd396a00e734c], [0xfccad69b4b349462, 0x9dfbd510a586cad4, 0x9dfbd510a586cad4, 0x9dfbd510a586cad4, 0xe53908dd3ce1208e]]),
    ("round-trip-src-179-0", [[0xba728b05f52725e5, 0xba728b05f52725e5, 0xba728b05f52725e5, 0xba728b05f52725e5, 0x0010826300e7931e], [0xe3dfc4b55003dae5, 0xe3dfc4b55003dae5, 0xe3dfc4b55003dae5, 0xe3dfc4b55003dae5, 0xea8d4428fb1f4910]]),
    ("round-trip-src-413-1", [[0x45ccf30950455027, 0x45ccf30950455027, 0x45ccf30950455027, 0x45ccf30950455027, 0x9f69b92603699358], [0x42392de76a563bdf, 0x42392de76a563bdf, 0x42392de76a563bdf, 0x42392de76a563bdf, 0xa3b7a38b670d4f18]]),
    ("state-divergence-branchy-0-20", [[0xc2b2c01e1791de7f, 0x3fb21c8fe59a90af, 0x3fb21c8fe59a90af, 0x3fb21c8fe59a90af, 0x5f1b306cd5b8f0dc], [0xc2b2c01e1791de7f, 0xe92d866e5a90bfef, 0xe92d866e5a90bfef, 0xe92d866e5a90bfef, 0x0643a28c9ef9475a]]),
    ("state-divergence-branchy-1-21", [[0x5294fad387ef179f, 0x5294fad387ef179f, 0x5294fad387ef179f, 0x5294fad387ef179f, 0x9193bc6a21353244], [0x7a96634fac0d0ac3, 0x7a96634fac0d0ac3, 0x7a96634fac0d0ac3, 0x7a96634fac0d0ac3, 0x7de0d1864dc819dc]]),
    ("state-divergence-ir-103-2", [[0x552d342a3df44ce0, 0x552d342a3df44ce0, 0x552d342a3df44ce0, 0x552d342a3df44ce0, 0xc510a6e5c841adb5], [0x552d342a3df44ce0, 0x552d342a3df44ce0, 0x552d342a3df44ce0, 0x552d342a3df44ce0, 0xc510a6e5c841adb5]]),
    ("state-divergence-ir-1259-11", [[0x12a3a0c3f279088a, 0x12a3a0c3f279088a, 0x12a3a0c3f279088a, 0x12a3a0c3f279088a, 0x94e70a4daa478121], [0x12a3a0c3f279088a, 0x12a3a0c3f279088a, 0x12a3a0c3f279088a, 0x12a3a0c3f279088a, 0x94e70a4daa478121]]),
    ("state-divergence-ir-1315-13", [[0x2d1a51bee000d3ba, 0x2d1a51bee000d3ba, 0x2d1a51bee000d3ba, 0x2d1a51bee000d3ba, 0x18c41305dd5b7211], [0x2d1a51bee000d3ba, 0x2d1a51bee000d3ba, 0x2d1a51bee000d3ba, 0x2d1a51bee000d3ba, 0x18c41305dd5b7211]]),
    ("state-divergence-ir-1345-14", [[0x27ed09398bf75f06, 0x57b937dba8162c5e, 0x57b937dba8162c5e, 0x57b937dba8162c5e, 0xca0052aa06d324f3], [0x27ed09398bf75f06, 0xddbc263888515169, 0xddbc263888515169, 0xddbc263888515169, 0x649e1bd1e9a5902e]]),
    ("state-divergence-ir-1680-16", [[0xf56d323f4b68b85c, 0x91044ca6d99f2812, 0x91044ca6d99f2812, 0x91044ca6d99f2812, 0xd716b80e5a3e6b3b], [0xf56d323f4b68b85c, 0x15d91e98a370df12, 0x15d91e98a370df12, 0x15d91e98a370df12, 0x999b8b48eaf0555f]]),
    ("state-divergence-ir-1946-19", [[0x1d0131c81fa83c0c, 0x1e9548894e52f9dc, 0x1e9548894e52f9dc, 0x1e9548894e52f9dc, 0x145a91951f689c28], [0x1d0131c81fa83c0c, 0xbc585c2d7d293d5d, 0xbc585c2d7d293d5d, 0xbc585c2d7d293d5d, 0xd02e7cff1ab02e34]]),
    ("state-divergence-ir-562-6", [[0x8c4a213933ead764, 0x8c4a213933ead764, 0x8c4a213933ead764, 0x8c4a213933ead764, 0x6259d4b90320229f], [0x8c4a213933ead764, 0x8c4a213933ead764, 0x8c4a213933ead764, 0x8c4a213933ead764, 0x6259d4b90320229f]]),
];

#[test]
fn schedules_estimates_and_solves_are_bit_identical() {
    let machines = [
        parse_machine("intel").unwrap(),
        parse_machine("amd").unwrap(),
    ];
    let solves = Arc::new(Mutex::new(String::new()));
    let mut table = String::new();
    let mut differing = Vec::new();
    let programs = programs();
    for (row, (name, program)) in programs.iter().enumerate() {
        let digests = machines.each_ref().map(|machine| {
            configs(machine, &solves)
                .each_ref()
                .map(|config| common::fnv64(&transcript(program, config, &solves)))
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

/// [`BlockIndex::overlaps`] answers from per-key alias classes built with
/// the index. Over every pair of locations of every unrolled block it
/// must equal the rule spelled out here from the per-dimension
/// [`slp::ir::AffineExpr::constant_difference`]: a rank mismatch or any
/// dimension without one may alias, all-zero differences do, any
/// non-zero one does not.
#[test]
fn overlaps_is_the_alias_rule_on_every_pair_of_references() {
    use slp::core::Loc;
    let may_alias = |a: &slp::ir::ArrayRef, b: &slp::ir::ArrayRef| {
        if a.array != b.array {
            return false;
        }
        if a.access.rank() != b.access.rank() {
            return true;
        }
        let dims = a.access.dims().iter().zip(b.access.dims());
        let diffs: Vec<Option<i64>> = dims.map(|(x, y)| x.constant_difference(y)).collect();
        diffs.contains(&None) || diffs.iter().all(|d| *d == Some(0))
    };
    let machine = parse_machine("intel").unwrap();
    let config = SlpConfig::for_machine(machine.clone(), Strategy::Holistic);
    let (mut pairs, mut aliasing) = (0u64, 0u64);
    for (name, program) in programs() {
        let program = compile(&program, &config).program;
        for info in program.blocks() {
            let ix = BlockIndex::new(&info.block, &program, |ty| machine.lanes_for(ty));
            let mut keys: Vec<u32> = (0..info.block.len())
                .flat_map(|p| ix.keys_at(p).to_vec())
                .collect();
            keys.sort_unstable();
            keys.dedup();
            for &w in &keys {
                for &k in &keys {
                    let expected = w == k
                        || match (ix.loc(w), ix.loc(k)) {
                            (Loc::Array(a), Loc::Array(b)) => may_alias(a, b),
                            _ => false,
                        };
                    assert_eq!(ix.overlaps(w, k), expected, "{name}: {w} vs {k}");
                    pairs += 1;
                    aliasing += u64::from(expected && w != k);
                }
            }
        }
    }
    assert!(pairs > 10_000 && aliasing > 100, "{aliasing} of {pairs}");
}
