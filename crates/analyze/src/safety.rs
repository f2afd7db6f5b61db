//! Memory-safety certificates (the analysis behind V505/V506).
//!
//! For every array access of a program, the pass evaluates the access's
//! affine subscripts over the strided-interval loop environment and
//! checks the resulting value set against the declared [`slp_ir::ArrayInfo`]
//! extents, classifying the access on a three-point lattice:
//!
//! * [`AccessVerdict::ProvenSafe`] — every concrete iteration stays in
//!   bounds in every dimension. Over affine subscripts and box iteration
//!   domains the abstract interval hull is exact (each variable
//!   independently attains its extremes), so this is a proof, not a
//!   heuristic: downstream engines may elide the per-dimension bounds
//!   check for such accesses.
//! * [`AccessVerdict::ProvenFaulting`] — some dimension's exact value
//!   set leaves `[0, extent)`. The abstract endpoints are attained by
//!   concrete iterations, so executing the access *will* trap in the
//!   reference engine — this is a hard error (V505), caught before any
//!   compile or execution work is spent on the kernel.
//! * [`AccessVerdict::Unknown`] — the range arithmetic widened to ⊤
//!   (i128 overflow), so no exact verdict exists; the access keeps its
//!   runtime check (V506, warning).
//!
//! Two semantic details keep the classification exact:
//!
//! * A subscript variable not bound by the block's enclosing loops
//!   contributes **zero** at runtime (`AffineExpr::eval` drops missing
//!   variables, in both engines), so it is modeled as the constant 0
//!   rather than as ⊤.
//! * Select-predicated accesses (`select` merges from if-conversion)
//!   evaluate **all** operands in both engines regardless of which arm
//!   is taken, so every arm's reference is certified under the full
//!   loop environment — the arm-union range, never just the taken arm.
//!
//! Accesses inside loops that provably never execute are `ProvenSafe`:
//! there is no runtime behavior to fault (the dead loop itself is V504).
//!
//! The certificate is keyed by `(block, reference)` for consumers that
//! have lost statement identity (bytecode superword lanes carry only
//! their `ArrayRef`s): a reference's verdict is a pure function of the
//! reference and its block's loop environment, so the key is unambiguous.

use std::fmt;

use slp_ir::{ArrayRef, BlockId, Dest, Program, Statement, StmtId};

use crate::domain::StridedInterval;
use crate::ranges::loop_env;

/// The three-point classification lattice of one array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessVerdict {
    /// Every iteration is in bounds in every dimension: the runtime
    /// check may be elided.
    ProvenSafe,
    /// Some iteration is out of bounds: executing the access traps.
    ProvenFaulting,
    /// Range arithmetic widened to ⊤: keep the runtime check.
    Unknown,
}

impl AccessVerdict {
    /// Stable lower-case name (used by the cache codec and reports).
    pub fn name(self) -> &'static str {
        match self {
            AccessVerdict::ProvenSafe => "proven-safe",
            AccessVerdict::ProvenFaulting => "proven-faulting",
            AccessVerdict::Unknown => "unknown",
        }
    }

    /// Every verdict: the tag table the cache codec draws on.
    pub const ALL: [AccessVerdict; 3] = [
        AccessVerdict::ProvenSafe,
        AccessVerdict::ProvenFaulting,
        AccessVerdict::Unknown,
    ];

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        AccessVerdict::ALL.into_iter().find(|v| v.name() == name)
    }
}

impl fmt::Display for AccessVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The certificate of one array access.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessCert {
    /// The block the access executes in.
    pub block: BlockId,
    /// The statement the access belongs to.
    pub stmt: StmtId,
    /// The access itself.
    pub reference: ArrayRef,
    /// Whether the access is the statement's store destination.
    pub is_write: bool,
    /// The classification.
    pub verdict: AccessVerdict,
    /// Human-readable justification for non-safe verdicts (empty for
    /// `ProvenSafe`).
    pub detail: String,
}

/// The per-kernel memory-safety certificate: one [`AccessCert`] per
/// array access, in program order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SafetyCert {
    /// All access certificates, in program order.
    pub accesses: Vec<AccessCert>,
}

// `AccessCert` has no Eq because `ArrayRef` coefficients are exact
// integers — derive it manually via PartialEq above.
impl Eq for AccessCert {}

impl SafetyCert {
    /// Certifies every array access of `program`.
    ///
    /// # Examples
    ///
    /// ```
    /// use slp_ir::{AccessVector, AffineExpr, ArrayRef, Expr, Item, Loop, LoopHeader,
    ///     Program, ScalarType};
    /// use slp_analyze::SafetyCert;
    ///
    /// // for i in 0..8 { A[i] = 1.0 } over A[8]: provably safe.
    /// let mut p = Program::new("t");
    /// let a = p.add_array("A", ScalarType::F64, vec![8], false);
    /// let i = p.add_loop_var("i");
    /// let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
    /// let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
    /// p.push_item(Item::Loop(Loop {
    ///     header: LoopHeader { var: i, lower: 0, upper: 8, step: 1 },
    ///     body: vec![Item::Stmt(s)],
    /// }));
    /// let cert = SafetyCert::certify(&p);
    /// assert!(cert.all_proven_safe());
    /// ```
    pub fn certify(program: &Program) -> SafetyCert {
        let mut accesses = Vec::new();
        for info in program.blocks() {
            let env = loop_env(&info.loops);
            for s in info.block.iter() {
                for (is_write, r) in stmt_refs(s) {
                    let (verdict, detail) = match &env {
                        // A dead enclosing loop means the access never
                        // executes: nothing can fault (V504 reports the
                        // dead loop itself).
                        None => (AccessVerdict::ProvenSafe, String::new()),
                        Some(env) => classify(program, r, env),
                    };
                    accesses.push(AccessCert {
                        block: info.id,
                        stmt: s.id(),
                        reference: r.clone(),
                        is_write,
                        verdict,
                        detail,
                    });
                }
            }
        }
        SafetyCert { accesses }
    }

    /// Number of accesses proven in bounds.
    pub fn proven_safe(&self) -> usize {
        self.count(AccessVerdict::ProvenSafe)
    }

    /// Number of accesses proven to fault.
    pub fn proven_faulting(&self) -> usize {
        self.count(AccessVerdict::ProvenFaulting)
    }

    /// Number of accesses with no exact verdict.
    pub fn unknown(&self) -> usize {
        self.count(AccessVerdict::Unknown)
    }

    fn count(&self, v: AccessVerdict) -> usize {
        self.accesses.iter().filter(|a| a.verdict == v).count()
    }

    /// Whether every access of the kernel is `ProvenSafe`.
    pub fn all_proven_safe(&self) -> bool {
        self.accesses
            .iter()
            .all(|a| a.verdict == AccessVerdict::ProvenSafe)
    }

    /// Whether `r`, executing in `block`, is proven in bounds.
    ///
    /// This is the consumer-side lookup for translators that have lost
    /// statement identity (e.g. superword lanes): a reference's verdict
    /// is a pure function of `(block, reference)`, so any matching
    /// certificate answers for all occurrences.
    pub fn is_proven_safe(&self, block: BlockId, r: &ArrayRef) -> bool {
        self.accesses.iter().any(|a| {
            a.block == block && a.verdict == AccessVerdict::ProvenSafe && a.reference == *r
        })
    }
}

/// All array references of `s`: reads from the operand list (including
/// every `select` arm and condition operand — all of them execute), then
/// the store destination.
fn stmt_refs(s: &Statement) -> Vec<(bool, &ArrayRef)> {
    let mut refs: Vec<(bool, &ArrayRef)> = s
        .uses()
        .iter()
        .filter_map(|o| o.as_array())
        .map(|r| (false, r))
        .collect();
    if let Dest::Array(r) = s.dest() {
        refs.push((true, r));
    }
    refs
}

/// Classifies one reference under a live loop environment.
fn classify(
    program: &Program,
    r: &ArrayRef,
    env: &[(slp_ir::LoopVarId, StridedInterval)],
) -> (AccessVerdict, String) {
    let arr = program.array(r.array);
    if r.access.dims().len() != arr.dims.len() {
        // Rank mismatch is unconditionally rejected by both engines.
        return (
            AccessVerdict::ProvenFaulting,
            format!(
                "rank-{} access on '{}' which has rank {}",
                r.access.dims().len(),
                arr.name,
                arr.dims.len()
            ),
        );
    }
    let mut unknown: Option<String> = None;
    for (dim, e) in r.access.dims().iter().enumerate() {
        // Variables absent from the enclosing loops contribute zero at
        // runtime (`AffineExpr::eval` drops them in both engines), so
        // they are modeled as 0, keeping the evaluation exact.
        let mut si = StridedInterval::constant(e.constant());
        for (v, c) in e.terms() {
            if let Some((_, vi)) = env.iter().find(|(ev, _)| *ev == v) {
                si = si.add(&vi.scale(c));
            }
        }
        if si.is_top() {
            unknown.get_or_insert_with(|| {
                format!(
                    "dimension {dim} of '{}' overflows the range domain",
                    arr.name
                )
            });
            continue;
        }
        let extent = arr.dims[dim] as i128;
        if si.lo() < 0 || si.hi() >= extent {
            // Over a box iteration domain the interval endpoints are
            // attained: some concrete iteration faults.
            return (
                AccessVerdict::ProvenFaulting,
                format!(
                    "'{}' dimension {dim} ranges over {} but the extent is {}",
                    arr.name, si, arr.dims[dim]
                ),
            );
        }
    }
    match unknown {
        Some(detail) => (AccessVerdict::Unknown, detail),
        None => (AccessVerdict::ProvenSafe, String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{AccessVector, AffineExpr, CmpOp, Expr, Item, Loop, LoopHeader, ScalarType};

    fn simple_loop(p: &mut Program, var: slp_ir::LoopVarId, upper: i64, body: Vec<Statement>) {
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var,
                lower: 0,
                upper,
                step: 1,
            },
            body: body.into_iter().map(Item::Stmt).collect(),
        }));
    }

    #[test]
    fn in_bounds_loop_certifies_safe_and_lookup_matches() {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![16], true);
        let b = p.add_array("B", ScalarType::F64, vec![16], false);
        let i = p.add_loop_var("i");
        let ra = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let rb = ArrayRef::new(b, AccessVector::new(vec![AffineExpr::var(i)]));
        let s = p.make_stmt(rb.clone().into(), Expr::Copy(ra.clone().into()));
        simple_loop(&mut p, i, 16, vec![s]);
        let cert = SafetyCert::certify(&p);
        assert_eq!(cert.accesses.len(), 2);
        assert!(cert.all_proven_safe());
        assert_eq!(
            (cert.proven_safe(), cert.proven_faulting(), cert.unknown()),
            (2, 0, 0)
        );
        let block = cert.accesses[0].block;
        assert!(cert.is_proven_safe(block, &ra));
        assert!(cert.is_proven_safe(block, &rb));
        // A reference never certified in that block is not safe.
        let other = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i).offset(1)]));
        assert!(!cert.is_proven_safe(block, &other));
    }

    #[test]
    fn attained_overrun_is_proven_faulting() {
        // A[2i+1] for i in 0..8 reaches index 15 of a 15-element array.
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![15], false);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(
            a,
            AccessVector::new(vec![AffineExpr::var(i).scaled(2).offset(1)]),
        );
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        simple_loop(&mut p, i, 8, vec![s]);
        let cert = SafetyCert::certify(&p);
        assert_eq!(cert.proven_faulting(), 1);
        assert!(!cert.all_proven_safe());
        let c = &cert.accesses[0];
        assert_eq!(c.verdict, AccessVerdict::ProvenFaulting);
        assert!(c.is_write);
        assert!(c.detail.contains("extent is 15"), "{}", c.detail);
    }

    #[test]
    fn negative_index_is_proven_faulting() {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![8], false);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i).offset(-1)]));
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        simple_loop(&mut p, i, 8, vec![s]);
        assert_eq!(SafetyCert::certify(&p).proven_faulting(), 1);
    }

    #[test]
    fn dead_loop_accesses_are_safe() {
        // for i in 8..8 { A[99] = 1.0 }: never executes, nothing faults.
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![8], false);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::constant_expr(99)]));
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        p.push_item(Item::Loop(Loop {
            header: LoopHeader {
                var: i,
                lower: 8,
                upper: 8,
                step: 1,
            },
            body: vec![Item::Stmt(s)],
        }));
        let cert = SafetyCert::certify(&p);
        assert!(cert.all_proven_safe());
    }

    #[test]
    fn select_arms_use_the_union_range() {
        // y = select(x < 0, A[i+8], A[i]): the untaken-looking arm still
        // evaluates in both engines, so its out-of-range access faults.
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![8], true);
        let x = p.add_scalar("x", ScalarType::F64);
        let y = p.add_scalar("y", ScalarType::F64);
        let i = p.add_loop_var("i");
        let far = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i).offset(8)]));
        let near = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s = p.make_stmt(
            y.into(),
            Expr::Select(CmpOp::Lt, x.into(), 0.0.into(), far.into(), near.into()),
        );
        simple_loop(&mut p, i, 8, vec![s]);
        let cert = SafetyCert::certify(&p);
        assert_eq!(
            cert.proven_faulting(),
            1,
            "arm-union range catches the far arm"
        );
        assert_eq!(cert.proven_safe(), 1);
    }

    #[test]
    fn rank_mismatch_is_proven_faulting() {
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![4, 4], false);
        let i = p.add_loop_var("i");
        let r = ArrayRef::new(a, AccessVector::new(vec![AffineExpr::var(i)]));
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        simple_loop(&mut p, i, 4, vec![s]);
        let cert = SafetyCert::certify(&p);
        assert_eq!(cert.proven_faulting(), 1);
        assert!(
            cert.accesses[0].detail.contains("rank"),
            "{}",
            cert.accesses[0].detail
        );
    }

    #[test]
    fn overflowing_range_arithmetic_is_unknown() {
        // Three nested near-i64::MAX loops with i64::MIN coefficients push
        // the abstract sum past i128: no exact verdict either way.
        let mut p = Program::new("t");
        let a = p.add_array("A", ScalarType::F64, vec![8], false);
        let i = p.add_loop_var("i");
        let j = p.add_loop_var("j");
        let k = p.add_loop_var("k");
        let e = AffineExpr::var(i)
            .scaled(i64::MIN)
            .add(&AffineExpr::var(j).scaled(i64::MIN))
            .add(&AffineExpr::var(k).scaled(i64::MIN));
        let r = ArrayRef::new(a, AccessVector::new(vec![e]));
        let s = p.make_stmt(r.into(), Expr::Copy(1.0.into()));
        let mut body = vec![Item::Stmt(s)];
        for var in [k, j, i] {
            body = vec![Item::Loop(Loop {
                header: LoopHeader {
                    var,
                    lower: 0,
                    upper: i64::MAX,
                    step: 1,
                },
                body,
            })];
        }
        p.push_item(body.pop().unwrap());
        let cert = SafetyCert::certify(&p);
        assert_eq!(cert.unknown(), 1, "{:?}", cert.accesses);
        assert!(!cert.all_proven_safe());
        assert!(
            cert.accesses[0].detail.contains("overflows"),
            "{}",
            cert.accesses[0].detail
        );
    }
}
