//! Static validation of whole programs.
//!
//! [`Program::validate`] checks the structural invariants every pass
//! relies on — unique statement ids, declared and in-scope names,
//! positive array extents — and performs an interval-arithmetic bounds
//! check: every affine subscript, evaluated over the full range of its
//! enclosing loops, must stay inside its array. The kernel suite, the
//! random-program generator and the unrolling pass are all held to this
//! contract in tests.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::expr::{ArrayRef, Dest, Operand};
use crate::ids::{LoopVarId, StmtId};
use crate::numeric::interval_in;
use crate::program::Program;

/// A violation found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Two statements share an id.
    DuplicateStmtId(StmtId),
    /// An array is declared with a non-positive dimension.
    BadArrayExtent(String),
    /// A loop has a non-positive step.
    BadLoopStep(String),
    /// A subscript references a loop variable that is not in scope.
    LoopVarOutOfScope(StmtId, LoopVarId),
    /// A subscript can leave its array's bounds for some iteration.
    OutOfBounds {
        /// The offending statement.
        stmt: StmtId,
        /// The array accessed.
        array: String,
        /// The dimension that overflows.
        dim: usize,
        /// The provable index range.
        range: (i64, i64),
        /// The dimension's extent.
        extent: i64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DuplicateStmtId(s) => write!(f, "duplicate statement id {s}"),
            ValidationError::BadArrayExtent(a) => {
                write!(f, "array '{a}' has a non-positive extent")
            }
            ValidationError::BadLoopStep(v) => write!(f, "loop over '{v}' has a bad step"),
            ValidationError::LoopVarOutOfScope(s, v) => {
                write!(f, "{s} uses loop variable {v} outside its loop")
            }
            ValidationError::OutOfBounds {
                stmt,
                array,
                dim,
                range,
                extent,
            } => write!(
                f,
                "{stmt} indexes '{array}' dimension {dim} over [{}, {}] but the extent is {extent}",
                range.0, range.1
            ),
        }
    }
}

impl Error for ValidationError {}

impl Program {
    /// Validates the program's structural invariants and statically
    /// provable bounds.
    ///
    /// # Errors
    ///
    /// Returns every violation found (empty programs are valid).
    pub fn validate(&self) -> Result<(), Vec<ValidationError>> {
        let mut errors = Vec::new();

        for a in self.arrays() {
            if a.dims.iter().any(|&d| d <= 0) {
                errors.push(ValidationError::BadArrayExtent(a.name.clone()));
            }
        }

        let mut seen: HashSet<StmtId> = HashSet::new();
        self.for_each_stmt(|s| {
            if !seen.insert(s.id()) {
                errors.push(ValidationError::DuplicateStmtId(s.id()));
            }
        });

        for info in self.blocks() {
            for h in &info.loops {
                if h.step <= 0 {
                    errors.push(ValidationError::BadLoopStep(
                        self.loop_var_name(h.var).to_string(),
                    ));
                }
            }
            let in_scope: HashSet<LoopVarId> = info.loops.iter().map(|h| h.var).collect();
            for s in info.block.iter() {
                let mut refs: Vec<&ArrayRef> = s
                    .uses()
                    .iter()
                    .filter_map(|o| match o {
                        Operand::Array(r) => Some(r),
                        _ => None,
                    })
                    .collect();
                if let Dest::Array(r) = s.dest() {
                    refs.push(r);
                }
                for r in refs {
                    let info_a = self.array(r.array);
                    for (dim, e) in r.access.dims().iter().enumerate() {
                        if let Some(v) = e.vars().find(|v| !in_scope.contains(v)) {
                            errors.push(ValidationError::LoopVarOutOfScope(s.id(), v));
                            continue;
                        }
                        let interval = interval_in(e.terms(), e.constant(), &info.loops);
                        let Some((lo, hi)) = interval else {
                            continue; // zero-trip loop: never executed
                        };
                        let extent = info_a.dims[dim];
                        if lo < 0 || hi >= extent {
                            errors.push(ValidationError::OutOfBounds {
                                stmt: s.id(),
                                array: info_a.name.clone(),
                                dim,
                                range: (lo, hi),
                                extent,
                            });
                        }
                    }
                }
            }
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::{AccessVector, AffineExpr};
    use crate::expr::Expr;
    use crate::program::{Item, Loop, LoopHeader};
    use crate::types::ScalarType;

    fn looped(upper: i64, coeff: i64, offset: i64, extent: i64) -> Program {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![extent], true);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(
            a,
            AccessVector::new(vec![AffineExpr::var(i).scaled(coeff).offset(offset)]),
        );
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper,
                step: 1,
            },
            body: vec![Item::Stmt(s)],
        }));
        p
    }

    #[test]
    fn in_bounds_program_is_valid() {
        // A[2i+1] for i in 0..8 touches 1..=15 of a 16-element array.
        assert_eq!(looped(8, 2, 1, 16).validate(), Ok(()));
    }

    #[test]
    fn overflow_is_reported_with_the_range() {
        // A[2i+1] for i in 0..8 overflows a 15-element array.
        let errs = looped(8, 2, 1, 15).validate().unwrap_err();
        assert!(matches!(
            errs[0],
            ValidationError::OutOfBounds {
                range: (1, 15),
                extent: 15,
                ..
            }
        ));
        let msg = errs[0].to_string();
        assert!(msg.contains("[1, 15]"), "{msg}");
    }

    #[test]
    fn negative_indices_are_reported() {
        // A[2i-1] at i = 0 is -1.
        let errs = looped(8, 2, -1, 16).validate().unwrap_err();
        assert!(matches!(
            errs[0],
            ValidationError::OutOfBounds {
                range: (-1, 13),
                ..
            }
        ));
    }

    #[test]
    fn negative_coefficients_use_the_loop_extremes() {
        // A[15-2i] for i in 0..8 touches 1..=15: fine in 16, negative
        // coefficient handled by the interval arithmetic.
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![16], true);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(
            a,
            AccessVector::new(vec![AffineExpr::var(i).scaled(-2).offset(15)]),
        );
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(s)],
        }));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn huge_coefficients_are_rejected_without_overflow() {
        // coeff near i64::MAX over several iterations: certainly out of
        // bounds, and must be reported instead of panicking in debug.
        let errs = looped(8, i64::MAX / 2, 0, 16).validate().unwrap_err();
        assert!(matches!(errs[0], ValidationError::OutOfBounds { .. }));
    }

    #[test]
    fn near_max_constants_validate_exactly() {
        // A[j - i + (MAX-6)] with j in 0..8 and i in MAX-16..MAX-12 has
        // the exact range [7, 17]: in bounds of 18 elements, even though
        // the partial sum (MAX-6) + j overflows i64 at j = 7. The i128
        // interval arithmetic must accept this program exactly, and still
        // reject it for a one-smaller extent.
        fn build(extent: i64) -> Program {
            let mut p = Program::new("t");
            let a = p.add_array("A", ScalarType::F64, vec![extent], true);
            let j = p.add_loop_var("j");
            let i = p.add_loop_var("i");
            let e = AffineExpr::var(j)
                .add(&AffineExpr::var(i).scaled(-1))
                .offset(i64::MAX - 6);
            let s = p.make_stmt(
                ArrayRef::new(a, AccessVector::new(vec![e])).into(),
                Expr::Copy(1.0.into()),
            );
            let inner = Loop {
                header: LoopHeader {
                    var: i,
                    lower: i64::MAX - 16,
                    upper: i64::MAX - 12,
                    step: 1,
                },
                body: vec![Item::Stmt(s)],
            };
            p.push_item(Item::Loop(Loop {
                header: LoopHeader {
                    var: j,
                    lower: 0,
                    upper: 8,
                    step: 1,
                },
                body: vec![Item::Loop(inner)],
            }));
            p
        }
        assert_eq!(build(18).validate(), Ok(()));
        let errs = build(17).validate().unwrap_err();
        assert!(matches!(
            errs[0],
            ValidationError::OutOfBounds {
                range: (7, 17),
                extent: 17,
                ..
            }
        ));
    }

    #[test]
    fn bad_extent_and_duplicate_ids_are_reported() {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![0], true);
        let _ = a;
        let x = p.add_scalar("x", ScalarType::F64);
        let s = crate::stmt::Statement::new(StmtId::new(7), x.into(), Expr::Copy(1.0.into()));
        p.push_item(Item::Stmt(s.clone()));
        p.push_item(Item::Stmt(s));
        let errs = p.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::BadArrayExtent(_))));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::DuplicateStmtId(s) if *s == StmtId::new(7))));
    }

    #[test]
    fn steps_respect_the_actual_last_iteration() {
        // for i in 0..10 step 4 visits 0,4,8: A[2i] max is 16, fits 17.
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![17], true);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i).scaled(2)]));
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 0,
                upper: 10,
                step: 4,
            },
            body: vec![Item::Stmt(s)],
        }));
        assert_eq!(p.validate(), Ok(()));
    }
}
