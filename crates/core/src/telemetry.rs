//! Per-phase compile-time telemetry.
//!
//! Global SLP formulations are compile-time-expensive by construction —
//! the holistic optimizer arbitrates several grouping/scheduling
//! proposals per block, and the Global+Layout scheme compiles every
//! kernel twice. [`PhaseTimings`] makes that cost observable: the
//! pipeline charges the wall time of each [`Phase`] into an accumulator
//! that [`compile_timed`](crate::compile_timed) returns alongside the
//! kernel, and the `slp-driver` batch/serve front-ends aggregate the
//! accumulators into machine-readable reports.
//!
//! The accumulator is deliberately tiny (one `u64` per phase, no
//! allocation) so timing is cheap enough to leave on for every compile.

use std::fmt;
use std::time::{Duration, Instant};

/// The pipeline phases whose wall time is tracked individually.
///
/// The phases mirror the paper's Figure 3 structure plus post-compile
/// verification: pre-processing (loop unrolling, then
/// the dependence/alignment analysis), the holistic optimizer
/// (statement grouping, statement scheduling), the §5 data layout
/// stage, and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Innermost-loop unrolling (pre-processing).
    Unroll,
    /// Dependence and alignment analysis over each basic block.
    Alignment,
    /// Statement grouping — candidate/reuse graph construction and the
    /// grouping heuristic (for the Native/SLP strategies, the whole
    /// pack-discovery pass is charged here).
    Grouping,
    /// Statement scheduling — linearization and lane-order selection.
    Scheduling,
    /// The branch-and-bound packing solver (`Strategy::Optimal` only).
    /// The heuristic warm-start it consumes is still charged to
    /// [`Phase::Grouping`]/[`Phase::Scheduling`]; this phase is the
    /// solver's own search time.
    Solve,
    /// The §5 data layout stage (scalar placement + array replication).
    Layout,
    /// Memory-safety certification of the transformed program's array
    /// accesses (the V505/V506 evidence and the bytecode engine's
    /// license to elide bounds checks).
    Safety,
    /// Post-compile verification of the finished kernel, timed by the
    /// driver when its verify level asks for one.
    Verify,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 8] = [
        Phase::Unroll,
        Phase::Alignment,
        Phase::Grouping,
        Phase::Scheduling,
        Phase::Solve,
        Phase::Layout,
        Phase::Safety,
        Phase::Verify,
    ];

    /// The stable lower-case name used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Unroll => "unroll",
            Phase::Alignment => "alignment",
            Phase::Grouping => "grouping",
            Phase::Scheduling => "scheduling",
            Phase::Solve => "solve",
            Phase::Layout => "layout",
            Phase::Safety => "safety",
            Phase::Verify => "verify",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Unroll => 0,
            Phase::Alignment => 1,
            Phase::Grouping => 2,
            Phase::Scheduling => 3,
            Phase::Solve => 4,
            Phase::Layout => 5,
            Phase::Safety => 6,
            Phase::Verify => 7,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated per-phase wall time of one (or many) compilations.
///
/// Timings add: the dual-arbitration Global+Layout path charges both of
/// its inner compiles into the same accumulator, and batch drivers can
/// [`merge`](PhaseTimings::merge) the accumulators of many kernels into
/// corpus-wide totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    nanos: [u64; 8],
}

impl PhaseTimings {
    /// An empty accumulator.
    pub fn new() -> Self {
        PhaseTimings::default()
    }

    /// Charges `elapsed` to `phase`.
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[phase.index()] = self.nanos[phase.index()].saturating_add(ns);
    }

    /// Runs `f`, charging its wall time to `phase`, and returns its
    /// result.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }

    /// Nanoseconds accumulated for `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Overwrites the accumulated nanoseconds of `phase` (used when
    /// restoring persisted timings).
    pub fn set_nanos(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] = nanos;
    }

    /// Adds every phase of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTimings) {
        for p in Phase::ALL {
            self.nanos[p.index()] = self.nanos[p.index()].saturating_add(other.nanos(p));
        }
    }

    /// `(phase, nanos)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().map(|p| (p, self.nanos(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_accumulate_and_merge() {
        let mut a = PhaseTimings::new();
        a.add(Phase::Grouping, Duration::from_nanos(50));
        a.add(Phase::Grouping, Duration::from_nanos(25));
        assert_eq!(a.nanos(Phase::Grouping), 75);
        let mut b = PhaseTimings::new();
        b.add(Phase::Grouping, Duration::from_nanos(5));
        b.add(Phase::Layout, Duration::from_nanos(7));
        a.merge(&b);
        assert_eq!(a.nanos(Phase::Grouping), 80);
        assert_eq!(a.nanos(Phase::Layout), 7);
    }

    #[test]
    fn time_charges_the_closure() {
        let mut t = PhaseTimings::new();
        let v = t.time(Phase::Unroll, || 42);
        assert_eq!(v, 42);
        // The closure is trivial but the clock is monotonic; just assert
        // the remaining phases stayed untouched.
        assert_eq!(t.nanos(Phase::Layout), 0);
        assert_eq!(t.nanos(Phase::Verify), 0);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "unroll",
                "alignment",
                "grouping",
                "scheduling",
                "solve",
                "layout",
                "safety",
                "verify"
            ]
        );
    }
}
