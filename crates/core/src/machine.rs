//! Machine descriptions: the two evaluation platforms of §7 (Tables 1–2).
//!
//! The paper measures on an Intel Dunnington (2× hexa-core Xeon E7450,
//! 2.40 GHz) and an AMD Phenom II X4 945 (3.00 GHz), both with 128-bit
//! SSE/SSE2 datapaths. Since no real hardware is driven here, each machine
//! is described by its datapath width, register file, core count, cache
//! sizes (documentation of Tables 1–2) and a per-instruction cycle cost
//! table that the `slp-vm` interpreter charges. The AMD table charges more
//! for packing/unpacking-related operations, which the paper names as the
//! main reason its savings are lower there.

use slp_ir::ExprShape;

use crate::emit::{AccessClass, LaneSink, ScalarPackClass};

/// Per-instruction-class cycle costs charged by the SIMD virtual machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// A scalar ALU operation (baseline: add).
    pub scalar_op: f64,
    /// A vector ALU operation over a full superword.
    pub simd_op: f64,
    /// A scalar load from memory.
    pub scalar_load: f64,
    /// A scalar store to memory.
    pub scalar_store: f64,
    /// An aligned, contiguous vector load.
    pub vector_load: f64,
    /// An unaligned contiguous vector load.
    pub unaligned_load: f64,
    /// An aligned, contiguous vector store.
    pub vector_store: f64,
    /// An unaligned contiguous vector store.
    pub unaligned_store: f64,
    /// Inserting one scalar element into a vector register (packing).
    pub insert: f64,
    /// Extracting one scalar element from a vector register (unpacking).
    pub extract: f64,
    /// A register shuffle/permutation over one superword.
    pub permute: f64,
    /// A plain vector register-to-register move. No instruction the code
    /// generator emits charges it; it stays a machine parameter of the
    /// cost table (and of the codec's machine record).
    pub reg_move: f64,
    /// Loop-control overhead charged per executed iteration.
    pub loop_overhead: f64,
}

impl CostParams {
    /// SSE2-era costs used for the Intel machine. Inserts, extracts and
    /// shuffles are cheap single-uop register operations (`movhpd`,
    /// `unpcklpd`, `shufpd`), which is what makes SLP profitable even for
    /// packs that must be gathered.
    pub fn intel() -> Self {
        CostParams {
            scalar_op: 1.0,
            simd_op: 1.1,
            scalar_load: 2.0,
            scalar_store: 2.0,
            vector_load: 2.2,
            unaligned_load: 3.2,
            vector_store: 2.2,
            unaligned_store: 3.2,
            insert: 0.8,
            extract: 0.8,
            permute: 0.9,
            reg_move: 0.4,
            loop_overhead: 1.5,
        }
    }

    /// Costs for the AMD machine: noticeably more expensive
    /// packing/unpacking and shuffles (§7.2: "the main factor is the
    /// higher packing/unpacking costs").
    pub(crate) fn amd() -> Self {
        CostParams {
            scalar_op: 1.0,
            simd_op: 1.1,
            scalar_load: 2.0,
            scalar_store: 2.0,
            vector_load: 2.4,
            unaligned_load: 4.0,
            vector_store: 2.4,
            unaligned_store: 4.0,
            insert: 1.5,
            extract: 1.5,
            permute: 1.6,
            reg_move: 0.6,
            loop_overhead: 1.5,
        }
    }
}

/// The cycle price of each emission of the
/// [`emit_schedule`](crate::emit_schedule) walk — written here once, for
/// the §4.3 estimate and for `slp-vm`'s instruction metrics alike. (A
/// permute's price is the `permute` field itself.)
impl CostParams {
    /// The memory share of a scalar statement's price.
    pub fn scalar_memory(&self, loads: u32, stores: u32) -> f64 {
        f64::from(loads) * self.scalar_load + f64::from(stores) * self.scalar_store
    }

    /// A statement executed scalar: its memory traffic plus the
    /// shape-weighted ALU op.
    pub fn scalar_stmt(&self, shape: ExprShape, loads: u32, stores: u32) -> f64 {
        self.scalar_memory(loads, stores) + shape.row().cost * self.scalar_op
    }

    /// One broadcast shuffle, after a scalar load when `from_memory`.
    pub fn splat(&self, from_memory: bool) -> f64 {
        self.insert + if from_memory { self.scalar_load } else { 0.0 }
    }

    /// An array pack of `width` lanes loaded (a per-lane constant vector
    /// is an aligned load from the constant pool).
    pub fn array_load(&self, class: AccessClass, width: usize) -> f64 {
        match class {
            AccessClass::Aligned => self.vector_load,
            AccessClass::Unaligned => self.unaligned_load,
            AccessClass::Gather => width as f64 * (self.scalar_load + self.insert),
        }
    }

    /// An array pack of `width` lanes stored.
    pub fn array_store(&self, class: AccessClass, width: usize) -> f64 {
        match class {
            AccessClass::Aligned => self.vector_store,
            AccessClass::Unaligned => self.unaligned_store,
            AccessClass::Gather => width as f64 * (self.extract + self.scalar_store),
        }
    }

    /// A scalar pack assembled: one vector load, or an insert per lane
    /// plus a scalar load per memory-resident lane.
    pub fn scalar_pack(&self, class: ScalarPackClass, lane_mem: &[bool]) -> f64 {
        match class {
            ScalarPackClass::VectorMem => self.vector_load,
            ScalarPackClass::PerLane => {
                let mem = lane_mem.iter().filter(|&&m| m).count();
                lane_mem.len() as f64 * self.insert + mem as f64 * self.scalar_load
            }
        }
    }

    /// A superword's lanes distributed to scalars: one vector store, or
    /// what each lane's sink takes.
    pub fn scalar_unpack(&self, class: ScalarPackClass, sinks: &[LaneSink]) -> f64 {
        match class {
            ScalarPackClass::VectorMem => self.vector_store,
            ScalarPackClass::PerLane => sinks.iter().fold(0.0, |cycles, sink| match sink {
                LaneSink::Free => cycles,
                LaneSink::Shuffle => cycles + self.extract,
                LaneSink::Memory => cycles + (self.extract + self.scalar_store),
            }),
        }
    }

    /// One SIMD ALU operation.
    pub fn vector_op(&self, shape: ExprShape) -> f64 {
        shape.row().cost * self.simd_op
    }
}

/// A description of one evaluation machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name.
    pub name: String,
    /// SIMD datapath width in bits (128 for SSE2; Figure 18 sweeps this).
    pub datapath_bits: u32,
    /// Number of architectural vector registers.
    pub vector_regs: usize,
    /// Number of cores (Figure 21 scales over these).
    pub cores: usize,
    /// L1 data cache per core, in KiB (Tables 1–2, documentation).
    pub l1_data_kb: u32,
    /// Total L2, in KiB.
    pub l2_total_kb: u32,
    /// Total L3, in KiB.
    pub l3_total_kb: u32,
    /// Clock frequency in GHz (used to convert cycles to time).
    pub clock_ghz: f64,
    /// The cycle cost table.
    pub cost: CostParams,
}

impl MachineConfig {
    /// Table 1: the Intel Dunnington based machine — 12 cores (2 sockets)
    /// of Xeon E7450 at 2.40 GHz, 32 KB L1D/core, 18 MB L2, 24 MB L3.
    pub fn intel_dunnington() -> Self {
        MachineConfig {
            name: "Intel Dunnington (Xeon E7450)".to_string(),
            datapath_bits: 128,
            vector_regs: 16,
            cores: 12,
            l1_data_kb: 32,
            l2_total_kb: 18 * 1024,
            l3_total_kb: 24 * 1024,
            clock_ghz: 2.40,
            cost: CostParams::intel(),
        }
    }

    /// Table 2: the AMD Phenom II based machine — 4 cores of Phenom II X4
    /// 945 at 3.00 GHz, 64 KB L1D/core, 2 MB L2, 6 MB L3.
    pub fn amd_phenom_ii() -> Self {
        MachineConfig {
            name: "AMD Phenom II X4 945".to_string(),
            datapath_bits: 128,
            vector_regs: 16,
            cores: 4,
            l1_data_kb: 64,
            l2_total_kb: 2 * 1024,
            l3_total_kb: 6 * 1024,
            clock_ghz: 3.00,
            cost: CostParams::amd(),
        }
    }

    /// A copy of this machine with a hypothetical datapath width (the
    /// Figure 18 sweep: 128 → 1024 bits).
    pub fn with_datapath_bits(&self, bits: u32) -> Self {
        let mut m = self.clone();
        m.datapath_bits = bits;
        m
    }

    /// Lane capacity for elements of `ty` on this datapath.
    pub fn lanes_for(&self, ty: slp_ir::ScalarType) -> usize {
        ty.lanes_for_datapath(self.datapath_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::ScalarType;

    #[test]
    fn table1_and_table2_match_the_paper() {
        let intel = MachineConfig::intel_dunnington();
        assert_eq!(intel.cores, 12);
        assert_eq!(intel.clock_ghz, 2.40);
        assert_eq!(intel.l1_data_kb, 32);
        assert_eq!(intel.datapath_bits, 128);
        let amd = MachineConfig::amd_phenom_ii();
        assert_eq!(amd.cores, 4);
        assert_eq!(amd.clock_ghz, 3.00);
        assert_eq!(amd.l1_data_kb, 64);
    }

    #[test]
    fn amd_packing_is_costlier_than_intel() {
        let (i, a) = (CostParams::intel(), CostParams::amd());
        assert!(a.insert > i.insert);
        assert!(a.extract > i.extract);
        assert!(a.permute > i.permute);
    }

    #[test]
    fn lane_counts_follow_datapath() {
        let m = MachineConfig::intel_dunnington();
        assert_eq!(m.lanes_for(ScalarType::F64), 2);
        assert_eq!(m.lanes_for(ScalarType::F32), 4);
        let wide = m.with_datapath_bits(1024);
        assert_eq!(wide.lanes_for(ScalarType::F64), 16);
        assert_eq!(wide.name, m.name);
    }

    #[test]
    fn expensive_ops_cost_more() {
        use slp_ir::{BinOp, ExprShape};
        let cost = CostParams::intel();
        let add = cost.vector_op(ExprShape::Binary(BinOp::Add));
        assert!(cost.vector_op(ExprShape::Binary(BinOp::Div)) > add);
        assert!(cost.vector_op(ExprShape::MulAdd) > add);
    }
}
