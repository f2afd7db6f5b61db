//! Structured diagnostics: lint codes, severities, spans, and the report
//! the checkers accumulate into.
//!
//! Every check in this crate reports through [`Diagnostic`] rather than
//! panicking, so a caller (the `slpc check` subcommand, the bench
//! harness, the driver's verify levels) can decide what a finding means for it:
//! errors are soundness violations, warnings are legal-but-suspect
//! constructs the cost model should have avoided.

use std::fmt;

use slp_ir::{BlockId, StmtId};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal code, but a construct the optimizer normally avoids (for
    /// example a contiguous pack that needs an unaligned memory
    /// operation).
    Warning,
    /// A soundness violation: the compiled kernel does not implement the
    /// scalar program.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The lint catalogue. Codes are grouped by checker family:
///
/// * `V1xx` — dependence preservation
/// * `V2xx` — pack legality
/// * `V3xx` — data-layout soundness
/// * `V4xx` — differential translation validation
///   ([`crate::check_differential`])
/// * `V5xx` — whole-program dataflow lints from `slp-analyze`
///   ([`crate::lint_program`])
/// * `V6xx` — symbolic translation validation
///   ([`crate::prove_kernel`])
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// The schedule is not a permutation of the block's statements
    /// (missing, duplicated, or foreign statement ids).
    ScheduleNotPermutation,
    /// A dependence's source is scheduled after its target.
    DependenceOrderViolated,
    /// Two lanes of one superword statement depend on each other.
    IntraPackDependence,
    /// Two superword statements are cyclically dependent.
    PackCycle,
    /// Pack lanes are not isomorphic (operation shape, operand kinds, or
    /// element types differ).
    LaneTypeMismatch,
    /// A pack is wider than the machine's datapath.
    PackTooWide,
    /// Two lanes of one pack may write the same location in the same
    /// iteration.
    OverlappingLaneDests,
    /// A contiguous pack whose base address is not provably aligned to
    /// the pack width, forcing an unaligned vector memory operation.
    MisalignedPack,
    /// An array subscript references a loop variable that no enclosing
    /// loop defines.
    UnknownLoopVar,
    /// The Eq. (4) remapping sends two distinct (lane, iteration) pairs
    /// to the same element of the replicated array.
    NonInjectiveLayoutMap,
    /// A replication reads or writes outside its source or destination
    /// array.
    ReplicationOutOfBounds,
    /// The source or destination of a replication is written by the
    /// program, invalidating the copied data.
    ReplicatedArrayWritten,
    /// The rewritten program reads a replica element the population loop
    /// never wrote.
    UnpopulatedReplicaRead,
    /// The layout check stopped at its pair cap: the rest of the nest is
    /// unchecked.
    LayoutCheckTruncated,
    /// Scalar and vectorized executions left different final memory.
    DifferentialMismatch,
    /// One of the two executions of the differential check failed.
    ExecutionFailed,
    /// A scalar is read before its first write: the read observes
    /// whatever the runtime seeded, which is rarely what the kernel
    /// author meant.
    UseBeforeDef,
    /// A store whose value no later read can observe.
    DeadStore,
    /// An array subscript provably evaluates outside the declared extent
    /// on some iteration.
    OutOfBoundsSubscript,
    /// Consecutive isomorphic stores form a contiguous pack candidate
    /// whose base alignment cannot be proven, so vectorizing it costs
    /// unaligned memory operations.
    MisalignmentRisk,
    /// A loop whose constant bounds prove a zero trip count: its body is
    /// dead code.
    LoopNeverExecutes,
    /// The memory-safety certificate proved an array access faults on
    /// some attained iteration (interval endpoints over the iteration
    /// box are attained, so this is a proof, not a may-fault estimate).
    ProvenFaultingAccess,
    /// The memory-safety certificate could not classify an array access:
    /// it executes with full bounds checks and its safety rests on the
    /// runtime check, not on a proof.
    UnprovenAccess,
    /// A store into an array cell that no statement ever reads and that a
    /// later store provably overwrites in full: nothing the store writes
    /// survives to the kernel outputs.
    DeadArrayStore,
    /// The symbolic validator found (and execution confirmed) an input on
    /// which the vectorized kernel and the scalar program diverge.
    SymbolicMismatch,
    /// The symbolic validator exhausted a resource budget and degraded to
    /// the differential check.
    SymbolicBudgetExceeded,
    /// The kernel leaves the fragment the symbolic validator models (or a
    /// symbolic mismatch could not be confirmed concretely), so the
    /// validator degraded to the differential check.
    SymbolicUnsupported,
}

impl LintCode {
    /// The stable `Vnnn` code printed in reports and asserted by tests.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::ScheduleNotPermutation => "V100",
            LintCode::DependenceOrderViolated => "V101",
            LintCode::IntraPackDependence => "V102",
            LintCode::PackCycle => "V103",
            LintCode::LaneTypeMismatch => "V201",
            LintCode::PackTooWide => "V202",
            LintCode::OverlappingLaneDests => "V203",
            LintCode::MisalignedPack => "V204",
            LintCode::UnknownLoopVar => "V205",
            LintCode::NonInjectiveLayoutMap => "V301",
            LintCode::ReplicationOutOfBounds => "V302",
            LintCode::ReplicatedArrayWritten => "V303",
            LintCode::UnpopulatedReplicaRead => "V304",
            LintCode::LayoutCheckTruncated => "V305",
            LintCode::DifferentialMismatch => "V401",
            LintCode::ExecutionFailed => "V402",
            LintCode::UseBeforeDef => "V500",
            LintCode::DeadStore => "V501",
            LintCode::OutOfBoundsSubscript => "V502",
            LintCode::MisalignmentRisk => "V503",
            LintCode::LoopNeverExecutes => "V504",
            LintCode::ProvenFaultingAccess => "V505",
            LintCode::UnprovenAccess => "V506",
            LintCode::DeadArrayStore => "V507",
            LintCode::SymbolicMismatch => "V600",
            LintCode::SymbolicBudgetExceeded => "V601",
            LintCode::SymbolicUnsupported => "V602",
        }
    }

    /// Every lint code in the catalogue, in `Vnnn` order.
    pub const ALL: [LintCode; 27] = [
        LintCode::ScheduleNotPermutation,
        LintCode::DependenceOrderViolated,
        LintCode::IntraPackDependence,
        LintCode::PackCycle,
        LintCode::LaneTypeMismatch,
        LintCode::PackTooWide,
        LintCode::OverlappingLaneDests,
        LintCode::MisalignedPack,
        LintCode::UnknownLoopVar,
        LintCode::NonInjectiveLayoutMap,
        LintCode::ReplicationOutOfBounds,
        LintCode::ReplicatedArrayWritten,
        LintCode::UnpopulatedReplicaRead,
        LintCode::LayoutCheckTruncated,
        LintCode::DifferentialMismatch,
        LintCode::ExecutionFailed,
        LintCode::UseBeforeDef,
        LintCode::DeadStore,
        LintCode::OutOfBoundsSubscript,
        LintCode::MisalignmentRisk,
        LintCode::LoopNeverExecutes,
        LintCode::ProvenFaultingAccess,
        LintCode::UnprovenAccess,
        LintCode::DeadArrayStore,
        LintCode::SymbolicMismatch,
        LintCode::SymbolicBudgetExceeded,
        LintCode::SymbolicUnsupported,
    ];

    /// The severity a finding of this code carries.
    ///
    /// Among the V1xx–V4xx kernel checks only [`LintCode::MisalignedPack`]
    /// and [`LintCode::LayoutCheckTruncated`] are warnings: unaligned
    /// packs execute correctly (the VM charges the unaligned-access cost)
    /// and a truncated check found nothing, all other findings mean the
    /// kernel is wrong. The V5xx source lints are warnings except
    /// [`LintCode::OutOfBoundsSubscript`] and
    /// [`LintCode::ProvenFaultingAccess`]: strided-interval endpoints
    /// over the iteration box are attained, so a flagged subscript
    /// really does escape the array on some iteration. Among the V6xx
    /// symbolic-validation codes only [`LintCode::SymbolicMismatch`] is an
    /// error (a confirmed miscompile); the two degrade codes record that
    /// the proof fell back to the differential check, which is legal.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::MisalignedPack
            | LintCode::LayoutCheckTruncated
            | LintCode::UseBeforeDef
            | LintCode::DeadStore
            | LintCode::MisalignmentRisk
            | LintCode::LoopNeverExecutes
            | LintCode::UnprovenAccess
            | LintCode::DeadArrayStore
            | LintCode::SymbolicBudgetExceeded
            | LintCode::SymbolicUnsupported => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Where a finding points: a block and the statements involved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// The block the finding is in, if block-local.
    pub block: Option<BlockId>,
    /// The statements involved, in the order relevant to the finding.
    pub stmts: Vec<StmtId>,
}

impl Span {
    /// A span covering `stmts` of `block`.
    pub fn stmts(block: BlockId, stmts: Vec<StmtId>) -> Self {
        Span {
            block: Some(block),
            stmts,
        }
    }

    /// A span naming only a block.
    pub fn block(block: BlockId) -> Self {
        Span {
            block: Some(block),
            stmts: Vec::new(),
        }
    }

    /// A program-wide span (used by layout and differential findings).
    pub fn program() -> Self {
        Span::default()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.block, self.stmts.is_empty()) {
            (None, true) => f.write_str("program"),
            (None, false) => write_stmts(f, &self.stmts),
            (Some(b), true) => write!(f, "{b}"),
            (Some(b), false) => {
                write!(f, "{b} ")?;
                write_stmts(f, &self.stmts)
            }
        }
    }
}

fn write_stmts(f: &mut fmt::Formatter<'_>, stmts: &[StmtId]) -> fmt::Result {
    for (i, s) in stmts.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        write!(f, "{s}")?;
    }
    Ok(())
}

/// One finding of one checker.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Its severity (the code's default; carried so reports can be
    /// filtered without consulting the catalogue).
    pub severity: Severity,
    /// Where it points.
    pub span: Span,
    /// Human-readable explanation with the concrete values involved.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: LintCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.span
        )
    }
}

/// The combined result of running checkers over one compiled kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Findings in the order produced (dependences, packs, layout,
    /// differential).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Whether no checker found anything at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the kernel is sound: no error-severity finding.
    pub fn passes(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether some finding carries `code`.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return f.write_str("no diagnostics");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(LintCode::DependenceOrderViolated.code(), "V101");
        assert_eq!(LintCode::MisalignedPack.code(), "V204");
        assert_eq!(LintCode::NonInjectiveLayoutMap.code(), "V301");
        assert_eq!(LintCode::LayoutCheckTruncated.code(), "V305");
        assert_eq!(LintCode::DifferentialMismatch.code(), "V401");
        assert_eq!(LintCode::LoopNeverExecutes.code(), "V504");
        assert_eq!(LintCode::ProvenFaultingAccess.code(), "V505");
        assert_eq!(LintCode::UnprovenAccess.code(), "V506");
        assert_eq!(LintCode::DeadArrayStore.code(), "V507");
        assert_eq!(LintCode::SymbolicMismatch.code(), "V600");
        assert_eq!(LintCode::SymbolicBudgetExceeded.code(), "V601");
        assert_eq!(LintCode::SymbolicUnsupported.code(), "V602");
    }

    #[test]
    fn only_misalignment_is_a_warning() {
        for code in [
            LintCode::ScheduleNotPermutation,
            LintCode::DependenceOrderViolated,
            LintCode::IntraPackDependence,
            LintCode::PackCycle,
            LintCode::LaneTypeMismatch,
            LintCode::PackTooWide,
            LintCode::OverlappingLaneDests,
            LintCode::UnknownLoopVar,
            LintCode::NonInjectiveLayoutMap,
            LintCode::ReplicationOutOfBounds,
            LintCode::ReplicatedArrayWritten,
            LintCode::UnpopulatedReplicaRead,
            LintCode::DifferentialMismatch,
            LintCode::ExecutionFailed,
            LintCode::OutOfBoundsSubscript,
            LintCode::ProvenFaultingAccess,
            LintCode::SymbolicMismatch,
        ] {
            assert_eq!(code.severity(), Severity::Error, "{code}");
        }
        for code in [
            LintCode::MisalignedPack,
            LintCode::LayoutCheckTruncated,
            LintCode::UseBeforeDef,
            LintCode::DeadStore,
            LintCode::MisalignmentRisk,
            LintCode::LoopNeverExecutes,
            LintCode::UnprovenAccess,
            LintCode::DeadArrayStore,
            LintCode::SymbolicBudgetExceeded,
            LintCode::SymbolicUnsupported,
        ] {
            assert_eq!(code.severity(), Severity::Warning, "{code}");
        }
    }

    #[test]
    fn report_tallies_and_renders() {
        let mut r = Report::new();
        assert!(r.is_clean() && r.passes());
        r.push(Diagnostic::new(
            LintCode::MisalignedPack,
            Span::block(slp_ir::BlockId(0)),
            "pack base at offset 1",
        ));
        assert!(!r.is_clean() && r.passes());
        r.push(Diagnostic::new(
            LintCode::DependenceOrderViolated,
            Span::stmts(slp_ir::BlockId(0), vec![StmtId::new(1), StmtId::new(0)]),
            "RAW S0 -> S1 reversed",
        ));
        assert!(!r.passes());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has(LintCode::MisalignedPack));
        let text = r.to_string();
        assert!(text.contains("error[V101]"), "{text}");
        assert!(text.contains("warning[V204]"), "{text}");
    }
}
