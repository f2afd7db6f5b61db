//! Hand-built §5.2 replications: every layout-soundness fixture, shared
//! by `tests/fixtures.rs` (which asserts the codes each trips) and the
//! layout checker's unit tests (which hold the checker to its reference
//! enumerator on each). Codes are named by their stable `Vnnn` text so
//! the module compiles in both crates.

use slp_core::{compile, CompiledKernel, MachineConfig, Replication, SlpConfig, Strategy};
use slp_ir::{AccessVector, AffineExpr, ArrayId, ScalarType};

/// Every layout fixture: its name, the codes its layout check must
/// report, and the kernel.
pub(crate) fn cases() -> Vec<(&'static str, &'static [&'static str], CompiledKernel)> {
    vec![
        ("non-injective", &["V301"], non_injective()),
        ("out-of-bounds dest", &["V302"], out_of_bounds_dest()),
        ("written source", &["V303"], written_source()),
        ("unpopulated read", &["V304"], unpopulated_read()),
        (
            "oob lane rewrite",
            &["V301", "V302"],
            oob_lane_rewrites_filled_slot(),
        ),
        ("reads outside replica", &["V304"], reads_outside_replica()),
        ("rank-2 dest", &["V302"], rank_2_dest()),
        ("long dest", &[], long_dest()),
        ("far slots", &["V301", "V304"], far_slots()),
        ("truncated", &["V305"], truncated()),
    ]
}

/// The scalar-strategy kernel of `src`, with a replication of its first
/// array into `dest` (its second array when `None`, else a fresh `R` of
/// those dims) over its first block's loop nest. `lanes` maps the loop
/// variable to each lane's `[source subscript, replica subscript]`.
fn replicated(
    src: &str,
    dest: Option<Vec<i64>>,
    lanes: impl Fn(&AffineExpr) -> Vec<[AffineExpr; 2]>,
) -> CompiledKernel {
    let program = slp_lang::compile(src).expect("fixture source compiles");
    let machine = MachineConfig::intel_dunnington();
    let mut kernel = compile(&program, &SlpConfig::for_machine(machine, Strategy::Scalar));
    let arrays: Vec<ArrayId> = kernel.program.array_ids().collect();
    let dest = match dest {
        None => arrays[1],
        Some(dims) => kernel
            .program
            .add_array("R".to_string(), ScalarType::F64, dims, false),
    };
    let header = kernel.program.blocks()[0].loops[0];
    let (lanes, dest_exprs) = lanes(&AffineExpr::var(header.var))
        .into_iter()
        .map(|[s, d]| (AccessVector::new(vec![s]), d))
        .unzip();
    kernel.replications.push(Replication {
        source: arrays[0],
        dest,
        lanes,
        dest_exprs,
        loops: vec![header],
    });
    kernel
}

const COPY: &str = "kernel lay { array A: f64[16]; array B: f64[16];
     for i in 0..8 { B[i] = A[i] * 2.0; } }";

/// Both lanes map to the replica element 2i but copy the different
/// source elements A[i] and A[i+1]: lane 1 clobbers lane 0.
pub(crate) fn non_injective() -> CompiledKernel {
    replicated(COPY, Some(vec![32]), |i| {
        vec![[i.clone(), i.scaled(2)], [i.offset(1), i.scaled(2)]]
    })
}

/// 4i runs to 28, past the 16-element replica.
pub(crate) fn out_of_bounds_dest() -> CompiledKernel {
    replicated(COPY, Some(vec![16]), |i| vec![[i.clone(), i.scaled(4)]])
}

/// A is written inside the loop, so a pre-loop copy of it goes stale.
pub(crate) fn written_source() -> CompiledKernel {
    let src = "kernel wr { array A: f64[16]; array B: f64[16];
         for i in 0..8 { A[i] = A[i] * 2.0; B[i] = A[i] + 1.0; } }";
    replicated(src, Some(vec![16]), |i| vec![[i.clone(), i.clone()]])
}

/// The program reads R[2i+1] but the population writes R[2i].
pub(crate) fn unpopulated_read() -> CompiledKernel {
    let src = "kernel pop { array A: f64[16]; array R: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = R[2*i+1]; } }";
    replicated(src, None, |i| vec![[i.clone(), i.scaled(2)]])
}

/// Lane 0 fills R[2i] from A[i]; lane 1 then rewrites the same slot
/// from A[i+16], outside the 16-element source, every iteration.
pub(crate) fn oob_lane_rewrites_filled_slot() -> CompiledKernel {
    replicated(COPY, Some(vec![16]), |i| {
        vec![[i.clone(), i.scaled(2)], [i.offset(16), i.scaled(2)]]
    })
}

/// The population fills all of R; the program reads R[i-1], below 0
/// at i = 0, and R[2i+9], past the end from i = 4 on.
pub(crate) fn reads_outside_replica() -> CompiledKernel {
    let src = "kernel pop { array A: f64[16]; array R: f64[16]; array B: f64[16];
         for i in 0..8 { B[i] = R[i-1]; B[i+8] = R[2*i+9]; } }";
    replicated(src, None, |i| {
        vec![
            [i.clone(), i.scaled(2)],
            [i.offset(8), i.scaled(2).offset(1)],
        ]
    })
}

/// A replica of rank 2: no one-dimensional subscript lands inside it.
pub(crate) fn rank_2_dest() -> CompiledKernel {
    replicated(COPY, Some(vec![4, 8]), |i| vec![[i.clone(), i.clone()]])
}

/// Sixteen pairs into a replica declared with 2^26 elements, the most a
/// program may declare.
pub(crate) fn long_dest() -> CompiledKernel {
    replicated(COPY, Some(vec![1 << 26]), |i| {
        vec![
            [i.clone(), i.scaled(2)],
            [i.offset(8), i.scaled(2).offset(1)],
        ]
    })
}

/// Slots far past the table's 16 a pair, in a replica of 2^26 elements:
/// lane 1 rewrites lane 0's slot from another source element, and the
/// program reads one slot the population filled and one it did not.
pub(crate) fn far_slots() -> CompiledKernel {
    let src = "kernel far { array A: f64[16]; array R: f64[67108864]; array B: f64[16];
         for i in 0..8 { B[i] = R[1000*i+5000]; B[i+8] = R[1000*i+5001]; } }";
    replicated(src, None, |i| {
        let slot = i.scaled(1000).offset(5000);
        vec![[i.clone(), slot.clone()], [i.offset(8), slot]]
    })
}

/// 2^22 iterations × 2 lanes: twice the pairs the check enumerates.
pub(crate) fn truncated() -> CompiledKernel {
    let src = "kernel big { array A: f64[8388608]; array B: f64[4194304];
         for i in 0..4194304 { B[i] = A[2*i] * 2.0; } }";
    replicated(src, Some(vec![1 << 23]), |i| {
        let two_i = i.scaled(2);
        vec![
            [two_i.clone(), two_i.clone()],
            [two_i.offset(1), two_i.offset(1)],
        ]
    })
}
