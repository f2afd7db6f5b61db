//! # slp-bench — the evaluation harness
//!
//! Reproduces every table and figure of the paper's §7 on the simulated
//! machines:
//!
//! * [`measure`] — compiles and runs a kernel under one of the five
//!   [`Scheme`]s (scalar / Native / SLP / Global / Global+Layout); every
//!   suite measurement also passes a bit-exact semantic-equivalence
//!   oracle,
//! * [`figures`] — the per-exhibit data generators and text renderers
//!   (Tables 1–3, Figures 16–21, the compile-time overhead statement).
//!
//! The `figures` binary prints any exhibit (`figures fig16`, `figures
//! all`); `inspect` is the debugging view of the same harness.
//! Everything here reports *simulated* cycles; wall-clock timing lives
//! in the repository's `benchmark/` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
mod harness;

pub use harness::{measure, Measurement, Scheme};
