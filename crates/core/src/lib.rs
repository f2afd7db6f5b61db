//! # slp-core — the holistic SLP optimizer (placeholder docs; extended later)
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod deadline;
mod emit;
mod error;
mod group;
mod layout;
mod live;
mod machine;
mod native;
mod pipeline;
mod schedule;
mod superword;
mod telemetry;

pub use baseline::baseline_block;
pub use deadline::{Deadline, Expired};
pub use emit::{
    emit_schedule, estimate_scalar_cost, estimate_schedule_cost, scalar_stmt_cost, scalar_traffic,
    AccessClass, CostContext, EmitSink, LaneSink, LayoutView, ScalarPackClass,
};
pub use error::{ExecError, ExecErrorKind};
pub use group::{group_block, group_block_with, Grouping, GroupingDecision};
pub use layout::array::{eq4_map, Replication};
pub use layout::scalar::ScalarLayout;
pub use machine::{CostParams, MachineConfig};
pub use pipeline::{
    compile, compile_passes, compile_timed, compile_within, estimate_kernel_cost, CompileStats,
    CompiledKernel, OptParams, PackOutcome, PackRequest, Packer, SlpConfig, Strategy,
};
pub use schedule::{schedule_block, schedule_in_program_order};
pub use telemetry::{Phase, PhaseTimings};

// `SlpConfig::weights` is part of this crate's public configuration
// surface; re-export its type so config-building crates (slp-driver)
// need not depend on slp-analysis directly. The per-block index the
// grouping, the scheduler and the emission walk take lives there too.
pub use slp_analysis::{BlockIndex, WeightParams};
// `CompiledKernel::safety` likewise: consumers of compiled kernels
// (slp-vm's check elision, slp-driver's codec and `DriverError::Unsafe`)
// can name the certificate types without a slp-analyze edge.
pub use slp_analyze::{AccessCert, AccessVerdict, SafetyCert};
pub use superword::{BlockSchedule, ScheduledItem, SuperwordStmt};
