//! The cooperative compile deadline: a budgeted compile is not
//! pre-empted, it asks its [`Deadline`] at the boundaries the pipeline
//! already has ([`compile_within`](crate::compile_within) lists them) and
//! past it returns [`Expired`] as an ordinary `Err`.

use std::time::{Duration, Instant};

/// The instant a compile must stop by, if any. Without one,
/// [`Deadline::check`] is a branch that never reads the clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline(pub(crate) Option<Instant>);

/// A [`Deadline`] passed before the compile finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired;

impl Deadline {
    /// `budget_ms` from now; `None` — or a budget too large for the
    /// clock to represent — is no deadline. A budget of `0` expires at
    /// the first checkpoint.
    pub fn after_ms(budget_ms: Option<u64>) -> Deadline {
        Deadline(budget_ms.and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms))))
    }

    /// A checkpoint: `Err` once the deadline has passed.
    pub fn check(self) -> Result<(), Expired> {
        match self.0 {
            Some(at) if Instant::now() >= at => Err(Expired),
            _ => Ok(()),
        }
    }
}
