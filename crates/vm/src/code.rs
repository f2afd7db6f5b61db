//! The vector instruction set the code generator targets.
//!
//! Each instruction knows its own [`InstMetrics`]: cycle cost under a
//! [`CostParams`] table plus its contribution to the §7 counters (dynamic
//! instructions, memory operations, packing/unpacking operations, register
//! permutations).
//!
//! The accounting follows the paper's §7.1 setup: "we map the register
//! reshuffling/permutation operations to native shuffling instruction set
//! supported by the underlying architecture, rather than loading/storing
//! from/to physical memory". Concretely:
//!
//! * block-local scalar temporaries are register-resident — moving them
//!   between scalar and vector registers costs insert/extract *shuffles*
//!   (packing/unpacking operations), never memory traffic;
//! * *upward-exposed* scalars (parameters, accumulators) are
//!   memory-resident, so packing them costs real loads — unless the §5.1
//!   scalar layout placed the pack contiguously, in which case the whole
//!   pack moves with one vector memory operation;
//! * arrays are always memory: one vector operation for an aligned
//!   contiguous pack, an unaligned access for a contiguous misaligned
//!   pack, or a per-lane gather/scatter otherwise.

use std::fmt;

use slp_core::{AccessClass, CostParams, ExecError, LaneSink, ScalarPackClass};
use slp_ir::{ArrayRef, ExprShape, Statement, VarId};

/// A virtual vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// One vector-machine instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum VInst {
    /// A statement executed scalar. `mem_loads`/`mem_stores` count its
    /// real memory traffic (array accesses plus upward-exposed scalar
    /// accesses; register-resident temporaries are free).
    Scalar {
        /// The statement.
        stmt: Statement,
        /// Memory loads this statement performs.
        mem_loads: u32,
        /// Memory stores this statement performs.
        mem_stores: u32,
    },
    /// Load an array pack into `dst`.
    Load {
        /// Destination register.
        dst: VReg,
        /// Lane references.
        refs: Vec<ArrayRef>,
        /// Access classification (fixed at compile time).
        class: AccessClass,
    },
    /// Store `src` to an array pack.
    Store {
        /// Source register.
        src: VReg,
        /// Lane references.
        refs: Vec<ArrayRef>,
        /// Access classification.
        class: AccessClass,
    },
    /// Assemble a vector register from scalar variables.
    PackScalars {
        /// Destination register.
        dst: VReg,
        /// Lane variables.
        vars: Vec<VarId>,
        /// Per lane: whether the scalar is memory-resident (costs a load).
        lane_mem: Vec<bool>,
        /// Whole-pack classification.
        class: ScalarPackClass,
    },
    /// Distribute a superword's lanes to their scalar destinations.
    UnpackScalars {
        /// Source register.
        src: VReg,
        /// Lane variables.
        vars: Vec<VarId>,
        /// Per-lane write-back obligation.
        sinks: Vec<LaneSink>,
        /// Whole-pack classification (`VectorMem` when the §5.1 layout
        /// lets one vector store cover every memory-resident lane).
        class: ScalarPackClass,
    },
    /// Materialize a per-lane constant vector (constant pool load).
    ConstVec {
        /// Destination register.
        dst: VReg,
        /// Per-lane values.
        values: Vec<f64>,
    },
    /// Broadcast one value into every lane of `dst`.
    Splat {
        /// Destination register.
        dst: VReg,
        /// The value source.
        src: SplatSrc,
        /// Lane count.
        width: usize,
    },
    /// Rearrange lanes: `dst[k] = src[perm[k]]`.
    Permute {
        /// Destination register.
        dst: VReg,
        /// Source register.
        src: VReg,
        /// Lane permutation.
        perm: Vec<usize>,
    },
    /// A SIMD ALU operation over full registers.
    Op {
        /// Destination register.
        dst: VReg,
        /// Operator shape.
        shape: ExprShape,
        /// Source registers, in operand order.
        srcs: Vec<VReg>,
    },
    /// Spill a register to its stack slot (inserted by register
    /// allocation when pressure exceeds the file; cost/bookkeeping only —
    /// values keep flowing through the virtual register).
    Spill {
        /// The spilled register.
        src: VReg,
    },
    /// Reload a spilled register from its stack slot.
    Reload {
        /// The reloaded register.
        dst: VReg,
    },
}

/// The value source of a [`VInst::Splat`].
#[derive(Debug, Clone, PartialEq)]
pub enum SplatSrc {
    /// An immediate constant.
    Const(f64),
    /// A scalar variable; `from_memory` marks upward-exposed scalars that
    /// must be loaded before broadcasting.
    Scalar {
        /// The broadcast variable.
        var: VarId,
        /// Whether a memory load precedes the broadcast.
        from_memory: bool,
    },
}

/// Per-instruction contribution to the evaluation counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InstMetrics {
    /// Estimated cycles.
    pub cycles: f64,
    /// Dynamic instructions (total, including packing).
    pub dynamic_instructions: u64,
    /// Memory operations.
    pub memory_ops: u64,
    /// Cycles spent in memory operations (used by the multicore
    /// contention model).
    pub memory_cycles: f64,
    /// Packing/unpacking operations (gather/scatter element moves,
    /// inserts, extracts, broadcasts, shuffles).
    pub packing_ops: u64,
    /// Register permutation instructions (subset of packing ops).
    pub permutes: u64,
    /// SIMD ALU operations.
    pub simd_ops: u64,
}

impl InstMetrics {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &InstMetrics) {
        self.cycles += other.cycles;
        self.dynamic_instructions += other.dynamic_instructions;
        self.memory_ops += other.memory_ops;
        self.memory_cycles += other.memory_cycles;
        self.packing_ops += other.packing_ops;
        self.permutes += other.permutes;
        self.simd_ops += other.simd_ops;
    }

    /// Scales every counter by `n` occurrences.
    pub fn scaled(&self, n: f64) -> InstMetrics {
        InstMetrics {
            cycles: self.cycles * n,
            dynamic_instructions: (self.dynamic_instructions as f64 * n).round() as u64,
            memory_ops: (self.memory_ops as f64 * n).round() as u64,
            memory_cycles: self.memory_cycles * n,
            packing_ops: (self.packing_ops as f64 * n).round() as u64,
            permutes: (self.permutes as f64 * n).round() as u64,
            simd_ops: (self.simd_ops as f64 * n).round() as u64,
        }
    }

    /// Dynamic instructions excluding packing/unpacking — the Figure 17
    /// "dynamic instructions" series.
    pub fn dynamic_excluding_packing(&self) -> u64 {
        self.dynamic_instructions.saturating_sub(self.packing_ops)
    }

    /// One vector memory instruction of `cycles`.
    fn vector_memory_op(cycles: f64) -> InstMetrics {
        InstMetrics {
            cycles,
            dynamic_instructions: 1,
            memory_ops: 1,
            memory_cycles: cycles,
            ..InstMetrics::default()
        }
    }

    /// Lane-by-lane packing work: `shuffles` register inserts, extracts
    /// or broadcasts and `mem` scalar memory operations.
    fn lane_moves(cycles: f64, shuffles: usize, mem: usize, memory_cycles: f64) -> InstMetrics {
        let (shuffles, mem) = (shuffles as u64, mem as u64);
        InstMetrics {
            cycles,
            dynamic_instructions: shuffles + mem,
            memory_ops: mem,
            memory_cycles,
            packing_ops: shuffles + mem,
            ..InstMetrics::default()
        }
    }
}

/// Cycles as integer milli-cycles, so that both engines' sums do not
/// depend on their order; reported as `ticks / 1000` ([`cycles`]).
pub(crate) type Ticks = i128;

/// A cost row's `cycles` and `memory_cycles` in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cost {
    pub(crate) cycles: Ticks,
    pub(crate) memory: Ticks,
}

impl Cost {
    /// # Errors
    ///
    /// A `MalformedCode` error when a sum is not finite or not a whole
    /// number of milli-cycles. Every shipped parameter times every
    /// op-table factor is a multiple of 0.05 cycles; the tolerance
    /// absorbs the `f64` product's last bit, and the 2^53 bound keeps
    /// every sum of rows in range.
    pub(crate) fn of(row: &InstMetrics) -> Result<Cost, ExecError> {
        let ticks = |cycles: f64| {
            let (milli, t) = (cycles * 1000.0, (cycles * 1000.0).round());
            let whole = t.abs() < 2f64.powi(53) && (milli - t).abs() <= 1e-9 * t.abs().max(1.0);
            whole.then_some(t as Ticks).ok_or_else(|| {
                ExecError::malformed(format!(
                    "cycle cost {cycles} is not a whole number of milli-cycles"
                ))
            })
        };
        Ok(Cost {
            cycles: ticks(row.cycles)?,
            memory: ticks(row.memory_cycles)?,
        })
    }

    /// Adds `times` executions of `other`.
    pub(crate) fn add(&mut self, other: Cost, times: u64) {
        self.cycles += other.cycles * Ticks::from(times);
        self.memory += other.memory * Ticks::from(times);
    }
}

/// Ticks reported as cycles.
pub(crate) fn cycles(t: Ticks) -> f64 {
    t as f64 / 1000.0
}

/// The costs outside any instruction, converted once per kernel: an
/// iteration's loop control and a §5.2 replication copy.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Prices {
    pub(crate) loop_overhead: Ticks,
    pub(crate) copy: Cost,
}

impl Prices {
    pub(crate) fn new(params: &CostParams) -> Result<Prices, ExecError> {
        let copy = params.scalar_load + params.scalar_store;
        let row = |cycles, memory_cycles| InstMetrics {
            cycles,
            memory_cycles,
            ..InstMetrics::default()
        };
        Ok(Prices {
            loop_overhead: Cost::of(&row(params.loop_overhead, 0.0))?.cycles,
            copy: Cost::of(&row(copy, copy))?,
        })
    }
}

impl VInst {
    /// The metrics this instruction contributes per execution. Cycle
    /// prices are the [`CostParams`] methods the §4.3 estimate sums.
    pub fn metrics(&self, params: &CostParams) -> InstMetrics {
        match self {
            VInst::Scalar {
                stmt,
                mem_loads,
                mem_stores,
            } => {
                let mem = u64::from(mem_loads + mem_stores);
                InstMetrics {
                    cycles: params.scalar_stmt(stmt.expr().shape(), *mem_loads, *mem_stores),
                    dynamic_instructions: mem + 1,
                    memory_ops: mem,
                    memory_cycles: params.scalar_memory(*mem_loads, *mem_stores),
                    ..InstMetrics::default()
                }
            }
            VInst::Load { refs, class, .. } => {
                array_access_metrics(refs.len(), *class, params, true)
            }
            VInst::Store { refs, class, .. } => {
                array_access_metrics(refs.len(), *class, params, false)
            }
            VInst::PackScalars {
                lane_mem, class, ..
            } => {
                let cycles = params.scalar_pack(*class, lane_mem);
                match class {
                    ScalarPackClass::VectorMem => InstMetrics::vector_memory_op(cycles),
                    ScalarPackClass::PerLane => {
                        let mem = lane_mem.iter().filter(|&&m| m).count();
                        let memory_cycles = params.scalar_memory(mem as u32, 0);
                        InstMetrics::lane_moves(cycles, lane_mem.len(), mem, memory_cycles)
                    }
                }
            }
            VInst::UnpackScalars { sinks, class, .. } => {
                let cycles = params.scalar_unpack(*class, sinks);
                match class {
                    ScalarPackClass::VectorMem => InstMetrics::vector_memory_op(cycles),
                    ScalarPackClass::PerLane => {
                        let count = |s: LaneSink| sinks.iter().filter(|&&x| x == s).count();
                        let mem = count(LaneSink::Memory);
                        let memory_cycles = params.scalar_memory(0, mem as u32);
                        let shuffles = count(LaneSink::Shuffle) + mem;
                        InstMetrics::lane_moves(cycles, shuffles, mem, memory_cycles)
                    }
                }
            }
            // One constant-pool vector load.
            VInst::ConstVec { values, .. } => {
                array_access_metrics(values.len(), AccessClass::Aligned, params, true)
            }
            VInst::Splat { src, .. } => {
                let from_memory = matches!(
                    src,
                    SplatSrc::Scalar {
                        from_memory: true,
                        ..
                    }
                );
                let mem = u32::from(from_memory);
                let memory_cycles = params.scalar_memory(mem, 0);
                InstMetrics::lane_moves(params.splat(from_memory), 1, mem as usize, memory_cycles)
            }
            VInst::Permute { .. } => InstMetrics {
                cycles: params.permute,
                dynamic_instructions: 1,
                packing_ops: 1,
                permutes: 1,
                ..InstMetrics::default()
            },
            VInst::Op { shape, .. } => InstMetrics {
                cycles: params.vector_op(*shape),
                dynamic_instructions: 1,
                simd_ops: 1,
                ..InstMetrics::default()
            },
            // Register allocation's own instructions: the walk never
            // emits them.
            VInst::Spill { .. } => InstMetrics::vector_memory_op(params.vector_store),
            VInst::Reload { .. } => InstMetrics::vector_memory_op(params.vector_load),
        }
    }
}

impl fmt::Display for VInst {
    /// Assembly-style rendering, e.g. `vload.a x0, A[2*i0 .. +2]` or
    /// `shuf x3, x1, [1,0]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn refs_str(refs: &[ArrayRef]) -> String {
            match refs.first() {
                Some(first) => format!("{first} ..x{}", refs.len()),
                None => "<empty>".to_string(),
            }
        }
        fn class_suffix(class: &AccessClass) -> &'static str {
            match class {
                AccessClass::Aligned => "a",
                AccessClass::Unaligned => "u",
                AccessClass::Gather => "g",
            }
        }
        match self {
            VInst::Scalar { stmt, .. } => write!(f, "scalar  {stmt}"),
            VInst::Load { dst, refs, class } => {
                write!(f, "vload.{} {dst}, {}", class_suffix(class), refs_str(refs))
            }
            VInst::Store { src, refs, class } => {
                write!(
                    f,
                    "vstore.{} {}, {src}",
                    class_suffix(class),
                    refs_str(refs)
                )
            }
            VInst::PackScalars {
                dst, vars, class, ..
            } => {
                let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                let m = if *class == ScalarPackClass::VectorMem {
                    ".m"
                } else {
                    ""
                };
                write!(f, "pack{m}   {dst}, [{}]", names.join(","))
            }
            VInst::UnpackScalars {
                src, vars, class, ..
            } => {
                let names: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                let m = if *class == ScalarPackClass::VectorMem {
                    ".m"
                } else {
                    ""
                };
                write!(f, "unpack{m} [{}], {src}", names.join(","))
            }
            VInst::ConstVec { dst, values } => {
                let vs: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                write!(f, "vconst  {dst}, [{}]", vs.join(","))
            }
            VInst::Splat { dst, src, width } => match src {
                SplatSrc::Const(c) => write!(f, "splat   {dst}, {c} x{width}"),
                SplatSrc::Scalar { var, from_memory } => {
                    let m = if *from_memory { ".m" } else { "" };
                    write!(f, "splat{m} {dst}, {var} x{width}")
                }
            },
            VInst::Permute { dst, src, perm } => {
                let ps: Vec<String> = perm.iter().map(|p| p.to_string()).collect();
                write!(f, "shuf    {dst}, {src}, [{}]", ps.join(","))
            }
            VInst::Op { dst, shape, srcs } => {
                let ss: Vec<String> = srcs.iter().map(|s| s.to_string()).collect();
                write!(f, "{:<7} {dst}, {}", shape.row().mnemonic, ss.join(", "))
            }
            VInst::Spill { src } => write!(f, "spill   [slot], {src}"),
            VInst::Reload { dst } => write!(f, "reload  {dst}, [slot]"),
        }
    }
}

fn array_access_metrics(
    width: usize,
    class: AccessClass,
    params: &CostParams,
    is_load: bool,
) -> InstMetrics {
    let w = width as u32;
    let (cycles, lane_memory_cycles) = if is_load {
        (params.array_load(class, width), params.scalar_memory(w, 0))
    } else {
        (params.array_store(class, width), params.scalar_memory(0, w))
    };
    match class {
        AccessClass::Aligned => InstMetrics::vector_memory_op(cycles),
        AccessClass::Unaligned => InstMetrics {
            // An unaligned access is charged as one packing event:
            // the hardware splits and merges cache lines.
            packing_ops: 1,
            ..InstMetrics::vector_memory_op(cycles)
        },
        AccessClass::Gather => InstMetrics::lane_moves(cycles, width, width, lane_memory_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{BinOp, Expr, Operand, StmtId};

    fn params() -> CostParams {
        CostParams::intel()
    }

    fn scalar_inst(mem_loads: u32, mem_stores: u32) -> VInst {
        VInst::Scalar {
            stmt: Statement::new(
                StmtId::new(0),
                VarId::new(0).into(),
                Expr::Binary(BinOp::Add, VarId::new(1).into(), Operand::Const(1.0)),
            ),
            mem_loads,
            mem_stores,
        }
    }

    #[test]
    fn scalar_statement_charges_only_real_memory() {
        // A temp-to-temp statement: just the ALU op.
        let free = scalar_inst(0, 0).metrics(&params());
        assert_eq!(free.dynamic_instructions, 1);
        assert_eq!(free.memory_ops, 0);
        // One array load and one array store.
        let heavy = scalar_inst(1, 1).metrics(&params());
        assert_eq!(heavy.dynamic_instructions, 3);
        assert_eq!(heavy.memory_ops, 2);
        assert!(heavy.cycles > free.cycles);
    }

    #[test]
    fn aligned_access_is_one_memory_op() {
        let m = array_access_metrics(4, AccessClass::Aligned, &params(), true);
        assert_eq!(m.dynamic_instructions, 1);
        assert_eq!(m.memory_ops, 1);
        assert_eq!(m.packing_ops, 0);
    }

    #[test]
    fn gather_scales_with_width() {
        let m2 = array_access_metrics(2, AccessClass::Gather, &params(), true);
        let m4 = array_access_metrics(4, AccessClass::Gather, &params(), true);
        assert_eq!(m2.packing_ops, 4);
        assert_eq!(m4.packing_ops, 8);
        assert!(m4.cycles > m2.cycles);
        let s4 = array_access_metrics(4, AccessClass::Gather, &params(), false);
        assert_eq!(s4.memory_ops, 4);
    }

    #[test]
    fn scalar_pack_costs_shuffles_and_exposed_loads() {
        let temps = VInst::PackScalars {
            dst: VReg(0),
            vars: vec![VarId::new(0), VarId::new(1)],
            lane_mem: vec![false, false],
            class: ScalarPackClass::PerLane,
        }
        .metrics(&params());
        assert_eq!(temps.memory_ops, 0);
        assert_eq!(temps.packing_ops, 2);
        let mixed = VInst::PackScalars {
            dst: VReg(0),
            vars: vec![VarId::new(0), VarId::new(1)],
            lane_mem: vec![false, true],
            class: ScalarPackClass::PerLane,
        }
        .metrics(&params());
        assert_eq!(mixed.memory_ops, 1);
        assert!(mixed.cycles > temps.cycles);
        // §5.1 layout success: one vector load regardless of width.
        let vectored = VInst::PackScalars {
            dst: VReg(0),
            vars: vec![VarId::new(0), VarId::new(1)],
            lane_mem: vec![true, true],
            class: ScalarPackClass::VectorMem,
        }
        .metrics(&params());
        assert_eq!(vectored.memory_ops, 1);
        assert_eq!(vectored.dynamic_instructions, 1);
        let per_lane_exposed = VInst::PackScalars {
            dst: VReg(0),
            vars: vec![VarId::new(0), VarId::new(1)],
            lane_mem: vec![true, true],
            class: ScalarPackClass::PerLane,
        }
        .metrics(&params());
        assert!(vectored.cycles < per_lane_exposed.cycles);
    }

    #[test]
    fn unpack_charges_per_sink() {
        let m = VInst::UnpackScalars {
            src: VReg(0),
            vars: vec![VarId::new(0), VarId::new(1), VarId::new(2)],
            sinks: vec![LaneSink::Free, LaneSink::Shuffle, LaneSink::Memory],
            class: ScalarPackClass::PerLane,
        }
        .metrics(&params());
        assert_eq!(m.dynamic_instructions, 3); // 0 + 1 + 2
        assert_eq!(m.memory_ops, 1);
        assert_eq!(m.packing_ops, 3);
    }

    #[test]
    fn permute_counts_once() {
        let m = VInst::Permute {
            dst: VReg(0),
            src: VReg(1),
            perm: vec![1, 0],
        }
        .metrics(&params());
        assert_eq!(m.permutes, 1);
        assert_eq!(m.packing_ops, 1);
        assert_eq!(m.dynamic_instructions, 1);
    }

    #[test]
    fn metrics_accumulate_and_scale() {
        let mut acc = InstMetrics::default();
        let m = array_access_metrics(2, AccessClass::Gather, &params(), true);
        acc.add(&m);
        acc.add(&m);
        assert_eq!(acc.packing_ops, 8);
        let scaled = m.scaled(3.0);
        assert_eq!(scaled.packing_ops, 12);
        assert_eq!(
            scaled.dynamic_excluding_packing(),
            scaled.dynamic_instructions - scaled.packing_ops
        );
    }

    #[test]
    fn splat_from_memory_costs_a_load() {
        let reg = VInst::Splat {
            dst: VReg(0),
            src: SplatSrc::Scalar {
                var: VarId::new(0),
                from_memory: false,
            },
            width: 2,
        }
        .metrics(&params());
        let mem = VInst::Splat {
            dst: VReg(0),
            src: SplatSrc::Scalar {
                var: VarId::new(0),
                from_memory: true,
            },
            width: 2,
        }
        .metrics(&params());
        assert_eq!(reg.memory_ops, 0);
        assert_eq!(mem.memory_ops, 1);
        assert!(mem.cycles > reg.cycles);
    }

    #[test]
    fn display_renders_assembly_style() {
        let splat = VInst::Splat {
            dst: VReg(1),
            src: SplatSrc::Scalar {
                var: VarId::new(0),
                from_memory: true,
            },
            width: 2,
        };
        assert_eq!(splat.to_string(), "splat.m x1, v0 x2");
        let op = VInst::Op {
            dst: VReg(2),
            shape: ExprShape::Binary(BinOp::Mul),
            srcs: vec![VReg(0), VReg(1)],
        };
        assert_eq!(op.to_string(), "vmul    x2, x0, x1");
        let perm = VInst::Permute {
            dst: VReg(3),
            src: VReg(2),
            perm: vec![1, 0],
        };
        assert_eq!(perm.to_string(), "shuf    x3, x2, [1,0]");
        let spill = VInst::Spill { src: VReg(4) };
        assert_eq!(spill.to_string(), "spill   [slot], x4");
    }

    #[test]
    fn div_vector_op_costs_more_than_add() {
        let add = VInst::Op {
            dst: VReg(0),
            shape: ExprShape::Binary(BinOp::Add),
            srcs: vec![],
        };
        let div = VInst::Op {
            dst: VReg(0),
            shape: ExprShape::Binary(BinOp::Div),
            srcs: vec![],
        };
        assert!(div.metrics(&params()).cycles > add.metrics(&params()).cycles);
    }
}
