//! The typed error of the layers below the driver: [`ExecError`] for
//! the VM. The front-end error enum — parse, validation, safety, panic, budget —
//! is `slp_driver::DriverError`.

use std::error::Error;
use std::fmt;

/// The classification of a runtime failure in the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecErrorKind {
    /// An array or replication access fell outside the declared bounds.
    OutOfBounds,
    /// An instruction read a vector register that no earlier instruction
    /// defined.
    UndefinedRegister,
    /// The instruction stream is structurally invalid (missing block
    /// code, lane-width mismatches, out-of-range permutation indices).
    MalformedCode,
    /// Executing the program would exceed a VM resource budget (total
    /// array storage); the program is legal but too large to simulate.
    ResourceLimit,
}

impl ExecErrorKind {
    /// The stable lower-case name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            ExecErrorKind::OutOfBounds => "out-of-bounds",
            ExecErrorKind::UndefinedRegister => "undefined-register",
            ExecErrorKind::MalformedCode => "malformed-code",
            ExecErrorKind::ResourceLimit => "resource-limit",
        }
    }
}

impl fmt::Display for ExecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed runtime failure of the VM: a [`kind`](ExecError::kind) for
/// programmatic dispatch plus a human-readable context string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    kind: ExecErrorKind,
    context: String,
}

impl ExecError {
    /// Builds an error of the given kind.
    pub fn new(kind: ExecErrorKind, context: impl Into<String>) -> Self {
        ExecError {
            kind,
            context: context.into(),
        }
    }

    /// An out-of-bounds memory access.
    pub fn out_of_bounds(context: impl Into<String>) -> Self {
        ExecError::new(ExecErrorKind::OutOfBounds, context)
    }

    /// A read of a never-defined vector register.
    pub fn undefined_register(context: impl Into<String>) -> Self {
        ExecError::new(ExecErrorKind::UndefinedRegister, context)
    }

    /// A structurally invalid instruction stream.
    pub fn malformed(context: impl Into<String>) -> Self {
        ExecError::new(ExecErrorKind::MalformedCode, context)
    }

    /// A program too large for the VM's resource budgets.
    pub fn resource_limit(context: impl Into<String>) -> Self {
        ExecError::new(ExecErrorKind::ResourceLimit, context)
    }

    /// The failure classification.
    pub fn kind(&self) -> ExecErrorKind {
        self.kind
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Kept identical to the historical rendering so messages (and
        // substring assertions on them) are stable across the engine
        // rewrite.
        write!(f, "execution error: {}", self.context)
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_error_display_is_stable() {
        let e = ExecError::out_of_bounds("A[9] out of bounds (dims [4])");
        assert_eq!(
            e.to_string(),
            "execution error: A[9] out of bounds (dims [4])"
        );
        assert_eq!(e.kind(), ExecErrorKind::OutOfBounds);
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn kinds_have_stable_names() {
        assert_eq!(ExecErrorKind::OutOfBounds.name(), "out-of-bounds");
        assert_eq!(
            ExecErrorKind::UndefinedRegister.name(),
            "undefined-register"
        );
        assert_eq!(ExecErrorKind::MalformedCode.name(), "malformed-code");
    }
}
