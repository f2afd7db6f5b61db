//! # slp-lang — the kernel mini-language frontend
//!
//! A small C-like language for writing the benchmark kernels the SLP
//! framework is evaluated on, playing the role of the SUIF frontend in the
//! original system. Source text is lexed ([`lex`]), parsed ([`parse`]) and
//! lowered ([`lower()`]) into an [`slp_ir::Program`]; [`compile`] does all
//! three.
//!
//! # Grammar sketch
//!
//! ```text
//! kernel lbm {
//!     const N = 64;
//!     array A: f64[2*N];
//!     array B: f64[4*N+8];
//!     scalar a, b: f64;
//!     for i in 0..N {
//!         a = A[2*i];
//!         A[2*i+1] = a * B[4*i] + b;   // muladd form
//!         b = min(a, b);
//!         b = select(a < 0.0, 0.0, b); // predicated blend
//!         if b >= 1.0 {                // if-converted into selects
//!             B[4*i] = b;
//!         } else {
//!             B[4*i] = 1.0;
//!         }
//!     }
//! }
//! ```
//!
//! `if`/`else` bodies are flattened before lowering by the
//! `if_convert` pass, so the IR the packer sees is always a
//! straight-line block of (possibly predicated) assignments.
//!
//! # Examples
//!
//! ```
//! let program = slp_lang::compile(
//!     "kernel k { array A: f64[16]; scalar s: f64;
//!      for i in 0..16 { s = A[i] * 2.0; A[i] = s + 1.0; } }",
//! ).unwrap();
//! assert_eq!(program.name(), "k");
//! assert_eq!(program.blocks().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ast;
mod error;
mod if_convert;
mod lexer;
mod lower;
mod parser;
mod token;

pub use ast::{AstAffine, AstCond, AstItem, AstLValue, AstRhs, AstTerm, KernelAst};
pub use error::{ParseError, Result};
pub use lexer::lex;
pub use lower::{compile, lower};
pub use parser::parse;
pub use token::{Spanned, Token};
