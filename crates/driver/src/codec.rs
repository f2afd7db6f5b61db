//! Persistence codec: [`CompiledKernel`], verify [`Report`]s and
//! [`PhaseTimings`] to/from the driver's JSON value type.
//!
//! The on-disk cache tier stores whole compilations; this module defines
//! the stable encoding. Two properties matter more than compactness:
//!
//! * **Bit-exactness** — constants, cost parameters and scalar addresses
//!   must survive a round trip unchanged (floats use shortest-roundtrip
//!   rendering, see [`crate::json`]), and statement/block ids must be
//!   preserved verbatim because schedules reference them.
//! * **Determinism** — encoding the same kernel twice yields identical
//!   bytes, so the batch determinism tests can compare outputs across
//!   thread counts, and cache files are reproducible.
//!
//! Every flat record of the payload is declared exactly once, below,
//! with [`record!`]; the encoder, the decoder, the cache key's field
//! stream (`keyed` records) and the format stamp all derive from those
//! declarations (see [`crate::record`]). The recursive IR pieces —
//! expressions, operands, items, schedules — have constructors rather
//! than public fields and implement [`Field`] by hand, schema text
//! included.
//!
//! The one lossy spot is [`SlpConfig::packer`]: a trait object has no
//! serialized form, so decoded configs carry `None`. The driver never
//! relies on the packer of a cached kernel — its schedule already
//! embodies whatever the packer decided (the solver's anytime budgets,
//! which *are* semantic inputs, round-trip as plain numbers).

use std::sync::OnceLock;

use slp_core::{
    AccessCert, AccessVerdict, BlockSchedule, CompileStats, CompiledKernel, CostParams,
    MachineConfig, OptParams, Phase, PhaseTimings, Replication, SafetyCert, ScalarLayout,
    ScheduledItem, SlpConfig, Strategy, SuperwordStmt, WeightParams,
};
use slp_ir::{
    AccessVector, AffineExpr, ArrayId, ArrayInfo, ArrayRef, BlockId, Dest, Expr, ExprShape, Item,
    Loop, LoopHeader, LoopVarId, Operand, Program, ScalarInfo, ScalarType, Statement, StmtId,
    VarId,
};
use slp_verify::{Diagnostic, LintCode, Report, Span};

use crate::cache::CachedCompile;
use crate::json::Json;
use crate::record::{arr, field, keys, record, stamp_of, tags, Field, Record, Result};
use crate::ProveVerdict;

/// A decode failure: the payload was syntactically valid JSON but not a
/// valid kernel encoding (truncated, corrupted, or written under a
/// different format stamp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(CodecError(msg.into()))
}

// ---- the record declarations --------------------------------------------------
//
// To persist (and, for `keyed` records, key) a new field: add its line
// here. Nothing else changes — the stamp moves by itself.

record!(keyed CostParams {
    "scalar_op" = scalar_op: f64,
    "simd_op" = simd_op: f64,
    "scalar_load" = scalar_load: f64,
    "scalar_store" = scalar_store: f64,
    "vector_load" = vector_load: f64,
    "unaligned_load" = unaligned_load: f64,
    "vector_store" = vector_store: f64,
    "unaligned_store" = unaligned_store: f64,
    "insert" = insert: f64,
    "extract" = extract: f64,
    "permute" = permute: f64,
    "reg_move" = reg_move: f64,
    "loop_overhead" = loop_overhead: f64,
});

record!(keyed MachineConfig {
    "name" = name: String,
    "datapath_bits" = datapath_bits: u32,
    "vector_regs" = vector_regs: usize,
    "cores" = cores: usize,
    "l1_data_kb" = l1_data_kb: u32,
    "l2_total_kb" = l2_total_kb: u32,
    "l3_total_kb" = l3_total_kb: u32,
    "clock_ghz" = clock_ghz: f64,
    "cost" = cost: CostParams,
});

record!(keyed WeightParams {
    "contiguous_bonus" = contiguous_bonus: f64,
    "gather_penalty" = gather_penalty: f64,
    "scalar_reuse_weight" = scalar_reuse_weight: f64,
    "store_factor" = store_factor: f64,
});

// The solver's anytime budgets are semantic inputs: a different budget
// can yield a different (still valid) packing.
record!(keyed OptParams { "deadline_ms" = deadline_ms: u64, "max_nodes" = max_nodes: u64 });

record!(keyed SlpConfig {
    "machine" = machine: MachineConfig,
    "strategy" = strategy: Strategy,
    "unroll" = unroll: usize,
    "layout" = layout: bool,
    "weights" = weights: WeightParams,
    "opt" = opt: OptParams,
} with {
    // A trait object has no serialized form; see module docs.
    packer: None,
});

// The order is the order `slpc batch --json` rows have always listed
// these counters in; the report splices this record into each row.
record!(CompileStats {
    "stmts" = stmts: usize,
    "blocks" = blocks: usize,
    "superwords" = superwords: usize,
    "vectorized_stmts" = vectorized_stmts: usize,
    "scalar_packs_laid_out" = scalar_packs_laid_out: usize,
    "replications" = replications: usize,
    "accesses_proven_safe" = accesses_proven_safe: usize,
    "accesses_unknown" = accesses_unknown: usize,
    "accesses_proven_faulting" = accesses_proven_faulting: usize,
    "opt_nodes" = opt_nodes: u64,
    "opt_gap_ppm" = opt_gap_ppm: u64,
    "opt_degraded" = opt_degraded: bool,
});

record!(LoopHeader {
    "v" = var: LoopVarId,
    "lo" = lower: i64,
    "hi" = upper: i64,
    "st" = step: i64,
});

record!(ArrayRef { "a" = array: ArrayId, "x" = access: AccessVector });

record!(ScalarInfo { "n" = name: String, "t" = ty: ScalarType });

record!(ArrayInfo {
    "n" = name: String,
    "t" = ty: ScalarType,
    "d" = dims: Vec<i64>,
    "in" = is_input: bool,
});

record!(AccessCert {
    "b" = block: BlockId,
    "s" = stmt: StmtId,
    "r" = reference: ArrayRef,
    "w" = is_write: bool,
    "v" = verdict: AccessVerdict,
    "d" = detail: String,
});

record!(SafetyCert { "accesses" = accesses: Vec<AccessCert> });

record!(Replication {
    "src" = source: ArrayId,
    "dst" = dest: ArrayId,
    "lanes" = lanes: Vec<AccessVector>,
    "dest_exprs" = dest_exprs: Vec<AffineExpr>,
    "loops" = loops: Vec<LoopHeader>,
});

record!(CompiledKernel {
    "program" = program: Program,
    "schedules" = schedules: Vec<(BlockId, BlockSchedule)>,
    "scalar_layout" = scalar_layout: ScalarLayout,
    "replications" = replications: Vec<Replication>,
    "stats" = stats: CompileStats,
    "safety" = safety: SafetyCert,
    "config" = config: SlpConfig,
});

record!(Span { "block" = block: Option<BlockId>, "stmts" = stmts: Vec<StmtId> });

record!(Diagnostic {
    "code" = code: LintCode,
    "span" = span: Span,
    "message" = message: String,
} with {
    // The lint catalogue is the source of truth for severities.
    severity: code.severity(),
});

record!(Report { "diagnostics" = diagnostics: Vec<Diagnostic> });

record!(CachedCompile {
    "kernel" = kernel: CompiledKernel,
    "report" = report: Option<Report>,
    "prove" = prove: Option<ProveVerdict>,
    "timings" = timings: PhaseTimings,
});

// ---- enum tags: the tables the types already own -------------------------------

tags!(Strategy, Strategy::ALL, Strategy::cli_name);
tags!(AccessVerdict, AccessVerdict::ALL, AccessVerdict::name);
tags!(ProveVerdict, ProveVerdict::ALL, ProveVerdict::name);
tags!(LintCode, LintCode::ALL, LintCode::code);
tags!(ScalarType, ScalarType::all(), |t: ScalarType| t.to_string());

keys! { Strategy: |s, h| h.write(s.cli_name().as_bytes()); }

// ---- ids ------------------------------------------------------------------------

macro_rules! ids {
    ($($ty:ident: $new:expr, $get:expr;)*) => {$(
        impl Field for $ty {
            fn schema(out: &mut String) {
                out.push_str("id");
            }
            fn to_json(&self) -> Json {
                Json::num($get(self))
            }
            fn from_json(v: &Json) -> Result<Self> {
                u32::from_json(v).map($new)
            }
        }
    )*};
}

ids! {
    LoopVarId: LoopVarId::new, |v: &LoopVarId| v.index() as u64;
    ArrayId: ArrayId::new, |v: &ArrayId| v.index() as u64;
    StmtId: StmtId::new, |v: &StmtId| v.index() as u64;
    VarId: VarId::new, |v: &VarId| v.index() as u64;
    BlockId: BlockId, |v: &BlockId| u64::from(v.0);
}

/// Declares an enum of one-payload variants, stored as the one-key
/// object `{"key": payload}`.
macro_rules! choice {
    ($ty:ident { $($key:literal = $variant:ident($pty:ty)),* $(,)? }) => {
        impl Field for $ty {
            fn schema(out: &mut String) {
                out.push('(');
                $(
                    out.push_str($key);
                    out.push(':');
                    <$pty>::schema(out);
                    out.push('|');
                )*
                out.push(')');
            }
            fn to_json(&self) -> Json {
                match self {
                    $($ty::$variant(x) => Json::obj([($key, x.to_json())]),)*
                }
            }
            fn from_json(v: &Json) -> Result<Self> {
                $(if v.get($key).is_some() {
                    return field(v, $key).map($ty::$variant);
                })*
                err(concat!(stringify!($ty), " has none of its keys"))
            }
        }
    };
}

// ---- affine expressions and references ----------------------------------------

impl Field for AffineExpr {
    fn schema(out: &mut String) {
        out.push_str("affine{c:i64,t:[(id,i64)]}");
    }
    fn to_json(&self) -> Json {
        let terms: Vec<(LoopVarId, i64)> = self.terms().collect();
        Json::obj([("c", self.constant().to_json()), ("t", terms.to_json())])
    }
    fn from_json(v: &Json) -> Result<Self> {
        let terms: Vec<(LoopVarId, i64)> = field(v, "t")?;
        Ok(AffineExpr::from_terms(terms, field(v, "c")?))
    }
}

impl Field for AccessVector {
    fn schema(out: &mut String) {
        Vec::<AffineExpr>::schema(out);
    }
    fn to_json(&self) -> Json {
        arr(self.dims())
    }
    fn from_json(v: &Json) -> Result<Self> {
        let dims = Vec::<AffineExpr>::from_json(v)?;
        if dims.is_empty() {
            return err("access vector without dimensions");
        }
        Ok(AccessVector::new(dims))
    }
}

// ---- operands, destinations, expressions, statements ---------------------------

choice!(Operand { "s" = Scalar(VarId), "a" = Array(ArrayRef), "k" = Const(f64) });

choice!(Dest { "s" = Scalar(VarId), "a" = Array(ArrayRef) });

/// An operator is its [`ExprShape::TABLE`] tag: the encoder reads the
/// shape's row, the decoder searches the rows by tag, and the schema
/// lists the tags.
impl Field for Expr {
    fn schema(out: &mut String) {
        out.push_str("expr{o:tag(");
        for row in ExprShape::TABLE {
            out.push_str(row.tag);
            out.push('|');
        }
        out.push_str("),v:[");
        Operand::schema(out);
        out.push_str("]}");
    }
    fn to_json(&self) -> Json {
        let tag = self.shape().row().tag;
        Json::obj([("o", Json::str(tag)), ("v", arr(self.operands()))])
    }
    fn from_json(v: &Json) -> Result<Self> {
        let tag: String = field(v, "o")?;
        let Some(row) = ExprShape::TABLE.iter().find(|r| r.tag == tag) else {
            return err(format!("unknown operator '{tag}'"));
        };
        Expr::from_shape(row.shape, field(v, "v")?)
            .ok_or_else(|| CodecError(format!("operator '{tag}' has wrong arity")))
    }
}

impl Field for Statement {
    fn schema(out: &mut String) {
        out.push_str("stmt{i:id,d:");
        Dest::schema(out);
        out.push_str(",e:");
        Expr::schema(out);
        out.push('}');
    }
    fn to_json(&self) -> Json {
        Json::obj([
            ("i", self.id().to_json()),
            ("d", self.dest().to_json()),
            ("e", self.expr().to_json()),
        ])
    }
    fn from_json(v: &Json) -> Result<Self> {
        Ok(Statement::new(
            field(v, "i")?,
            field(v, "d")?,
            field(v, "e")?,
        ))
    }
}

// ---- loop structure and programs -------------------------------------------------

choice!(Item { "stmt" = Stmt(Statement), "loop" = Loop(Loop) });

impl Field for Loop {
    fn schema(out: &mut String) {
        // `body` recurses into items; the text names it instead.
        out.push_str("{h:");
        LoopHeader::schema(out);
        out.push_str(",body:[item]}");
    }
    fn to_json(&self) -> Json {
        Json::obj([("h", self.header.to_json()), ("body", self.body.to_json())])
    }
    fn from_json(v: &Json) -> Result<Self> {
        Ok(Loop {
            header: field(v, "h")?,
            body: field(v, "body")?,
        })
    }
}

impl Field for Program {
    fn schema(out: &mut String) {
        out.push_str("program{name:str,scalars:");
        Vec::<ScalarInfo>::schema(out);
        out.push_str(",arrays:");
        Vec::<ArrayInfo>::schema(out);
        out.push_str(",loop_vars:[str],items:[");
        Item::schema(out);
        out.push_str("]}");
    }
    /// Encodes a whole program, ids included.
    fn to_json(&self) -> Json {
        let loop_vars = (0..self.loop_var_count())
            .map(|i| Json::str(self.loop_var_name(LoopVarId::new(i as u32))))
            .collect();
        Json::obj([
            ("name", Json::str(self.name())),
            ("scalars", arr(self.scalars())),
            ("arrays", arr(self.arrays())),
            ("loop_vars", Json::Arr(loop_vars)),
            ("items", arr(self.items())),
        ])
    }
    /// Decodes a program, restoring all ids.
    fn from_json(v: &Json) -> Result<Self> {
        let mut p = Program::new(field::<String>(v, "name")?);
        for s in field::<Vec<ScalarInfo>>(v, "scalars")? {
            p.add_scalar(s.name, s.ty);
        }
        for a in field::<Vec<ArrayInfo>>(v, "arrays")? {
            p.add_array(a.name, a.ty, a.dims, a.is_input);
        }
        for name in field::<Vec<String>>(v, "loop_vars")? {
            p.add_loop_var(name);
        }
        for item in field::<Vec<Item>>(v, "items")? {
            p.push_item(item);
        }
        let mut max_id = 0;
        p.for_each_stmt(|s| max_id = max_id.max(s.id().index() as u32));
        p.ensure_stmt_ids(max_id.saturating_add(1));
        Ok(p)
    }
}

// ---- schedules, layouts, timings ---------------------------------------------------

choice!(ScheduledItem { "1" = Single(StmtId), "w" = Superword(SuperwordStmt) });

impl Field for SuperwordStmt {
    fn schema(out: &mut String) {
        Vec::<StmtId>::schema(out);
    }
    fn to_json(&self) -> Json {
        arr(self.lanes())
    }
    fn from_json(v: &Json) -> Result<Self> {
        let lanes = Vec::from_json(v)?;
        if lanes.len() < 2 {
            return err("superword with fewer than two lanes");
        }
        Ok(SuperwordStmt::new(lanes))
    }
}

impl Field for BlockSchedule {
    fn schema(out: &mut String) {
        Vec::<ScheduledItem>::schema(out);
    }
    fn to_json(&self) -> Json {
        arr(self.items())
    }
    fn from_json(v: &Json) -> Result<Self> {
        Vec::from_json(v).map(BlockSchedule::new)
    }
}

impl Field for ScalarLayout {
    fn schema(out: &mut String) {
        out.push_str("scalar_layout{addr:[u64],total:u64,optimized:bool}");
    }
    fn to_json(&self) -> Json {
        Json::obj([
            ("addr", arr(self.addresses())),
            ("total", self.total_bytes().to_json()),
            ("optimized", self.is_optimized().to_json()),
        ])
    }
    fn from_json(v: &Json) -> Result<Self> {
        Ok(ScalarLayout::from_raw(
            field(v, "addr")?,
            field(v, "total")?,
            field(v, "optimized")?,
        ))
    }
}

impl Field for PhaseTimings {
    fn schema(out: &mut String) {
        out.push_str("phases(");
        for p in Phase::ALL {
            out.push_str(p.name());
            out.push('|');
        }
        out.push(')');
    }
    fn to_json(&self) -> Json {
        Json::obj(Phase::ALL.map(|p| (p.name(), Json::num(self.nanos(p)))))
    }
    fn from_json(v: &Json) -> Result<Self> {
        let mut t = PhaseTimings::new();
        for p in Phase::ALL {
            t.set_nanos(p, field(v, p.name())?);
        }
        Ok(t)
    }
}

// ---- the stamped payloads ----------------------------------------------------------

/// The format stamp of everything this module persists: the hash of
/// [`CachedCompile`]'s schema, which reaches every declaration above.
fn stamp() -> &'static str {
    static STAMP: OnceLock<String> = OnceLock::new();
    STAMP.get_or_init(stamp_of::<CachedCompile>)
}

/// Prefixes a record's pairs with the format stamp.
pub(crate) fn stamped(head: Vec<(&'static str, Json)>, record: &impl Record) -> Json {
    let mut pairs = vec![("format", Json::str(stamp()))];
    pairs.extend(head);
    pairs.extend(record.pairs());
    Json::obj(pairs)
}

/// Decodes a payload written by [`stamped`]; one written under any
/// other stamp (or by a pre-stamp build) is an error, which the cache
/// treats as a miss.
pub(crate) fn unstamped<T: Field>(v: &Json) -> Result<T> {
    match v.get("format") {
        Some(Json::Str(s)) if s == stamp() => T::from_json(v),
        other => err(format!(
            "format stamp {:?} (this build reads {:?})",
            other.map(Json::to_compact),
            stamp()
        )),
    }
}

/// Encodes a compiled kernel. Deterministic: equal kernels give equal
/// bytes through [`Json::to_compact`].
pub fn encode_kernel(k: &CompiledKernel) -> Json {
    stamped(Vec::new(), k)
}

/// Decodes a kernel encoded by [`encode_kernel`].
pub fn decode_kernel(v: &Json) -> Result<CompiledKernel> {
    unstamped(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str, layout: bool) -> CompiledKernel {
        let p = slp_lang::compile(src).expect("compiles");
        let mut cfg = SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic);
        if layout {
            cfg = cfg.with_layout();
        }
        slp_core::compile(&p, &cfg)
    }

    const GATHER: &str = "kernel g {
        const N = 16;
        array A: f64[8*N];
        array B: f64[2*N];
        for i in 0..N {
            B[2*i] = A[4*i] + 1.0;
            B[2*i+1] = A[4*i+3] + 1.0;
        }
    }";

    /// A cache entry naming one loop variable repeatedly in a subscript
    /// decodes to the saturated sum `AffineExpr::add` would give, instead
    /// of overflowing (a debug-build panic, a wrapped coefficient in
    /// release). The wire carries integers up to 2^53, so it takes 1 025
    /// repeats to pass `i64::MAX`.
    #[test]
    fn repeated_subscript_terms_decode_saturated() {
        let i = LoopVarId::new(0);
        let terms = vec![(i, 1i64 << 53); 1025];
        let entry = Json::obj([("c", 0i64.to_json()), ("t", terms.to_json())]);
        let e = AffineExpr::from_json(&entry).expect("decodes");
        assert_eq!(e.terms().collect::<Vec<_>>(), [(i, i64::MAX)]);
    }

    /// Decoding an operator takes exactly its arity of operands: a
    /// surplus operand is an error, not silently dropped.
    #[test]
    fn expr_decoding_rejects_every_other_operand_count() {
        let k = |c: f64| Operand::Const(c).to_json();
        for (tag, n) in [
            ("neg", 2),
            ("neg", 0),
            ("add", 3),
            ("muladd", 4),
            ("sel.lt", 5),
        ] {
            let e = Json::obj([("o", Json::str(tag)), ("v", Json::Arr(vec![k(1.0); n]))]);
            let err = Expr::from_json(&e).expect_err(tag);
            assert!(err.to_string().contains("wrong arity"), "{tag}/{n}: {err}");
        }
        let e = Json::obj([("o", Json::str("neg")), ("v", Json::Arr(vec![k(2.0)]))]);
        assert_eq!(
            Expr::from_json(&e).ok(),
            Some(Expr::Unary(slp_ir::UnOp::Neg, 2.0.into()))
        );
    }

    #[test]
    fn kernel_roundtrips_through_text() {
        for layout in [false, true] {
            let k = compiled(GATHER, layout);
            let text = encode_kernel(&k).to_compact();
            let back = decode_kernel(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back.program, k.program);
            assert_eq!(back.schedules, k.schedules);
            assert_eq!(back.scalar_layout, k.scalar_layout);
            assert_eq!(back.replications, k.replications);
            assert_eq!(back.stats, k.stats);
            assert_eq!(back.safety, k.safety);
            // Re-encoding the decoded kernel is byte-identical.
            assert_eq!(encode_kernel(&back).to_compact(), text);
        }
    }

    /// The memory-safety certificate is part of the payload: it must
    /// survive the round trip verbatim, including verdicts and details,
    /// so a cache hit can elide bounds checks exactly like a cold
    /// compile.
    #[test]
    fn safety_certificate_roundtrips_with_every_verdict_field() {
        let k = compiled(GATHER, false);
        assert!(
            k.safety.proven_safe() > 0,
            "the gather kernel certifies its accesses"
        );
        let text = encode_kernel(&k).to_compact();
        let back = decode_kernel(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back.safety, k.safety);
        assert_eq!(
            (
                back.safety.proven_safe(),
                back.safety.unknown(),
                back.safety.proven_faulting()
            ),
            (
                k.safety.proven_safe(),
                k.safety.unknown(),
                k.safety.proven_faulting()
            )
        );
        assert_eq!(
            back.stats.accesses_proven_safe,
            k.stats.accesses_proven_safe
        );
    }

    /// An if-converted kernel: the merge selects must survive the
    /// `sel.*` codec rows bit-for-bit in both directions.
    const BRANCHY: &str = "kernel branchy {
        const N = 16;
        array A: f64[N];
        array B: f64[N];
        for i in 0..N {
            if A[i] < 0.0 {
                B[i] = 0.0;
            } else {
                B[i] = A[i];
            }
        }
    }";

    #[test]
    fn branchy_kernel_roundtrips_and_keeps_its_selects() {
        for layout in [false, true] {
            let k = compiled(BRANCHY, layout);
            let mut selects = 0usize;
            k.program
                .for_each_stmt(|s| selects += matches!(s.expr(), Expr::Select(..)) as usize);
            assert!(selects >= 1, "if-conversion must leave a select behind");
            let text = encode_kernel(&k).to_compact();
            let back = decode_kernel(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back.program, k.program);
            assert_eq!(back.schedules, k.schedules);
            assert_eq!(encode_kernel(&back).to_compact(), text);
        }
    }

    #[test]
    fn decoded_program_allocates_fresh_ids_above_existing() {
        let k = compiled(GATHER, false);
        let text = encode_kernel(&k).to_compact();
        let mut back = decode_kernel(&Json::parse(&text).expect("parses")).expect("decodes");
        let max = {
            let mut m = 0;
            back.program.for_each_stmt(|s| m = m.max(s.id().index()));
            m
        };
        assert!(back.program.fresh_stmt_id().index() > max);
    }

    /// A payload written under any other stamp — an older build's
    /// (whose stamp was a number), a newer one's, none at all — is a
    /// decode error, and on disk a miss that costs one `disk_errors`
    /// tick and is then replaced.
    #[test]
    fn any_other_format_stamp_is_an_error_and_a_disk_miss() {
        let k = compiled(GATHER, false);
        let restamp = |v: &Json, stamp: Option<Json>| match v {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .filter(|(key, _)| key != "format")
                    .cloned()
                    .chain(stamp.map(|s| ("format".to_string(), s)))
                    .collect(),
            ),
            other => other.clone(),
        };
        let good = encode_kernel(&k);
        assert!(decode_kernel(&good).is_ok());
        for other in [
            Some(Json::num(6)),
            Some(Json::str("0123456789abcdef")),
            Some(Json::str(format!("{}0", stamp()))),
            None,
        ] {
            let err = decode_kernel(&restamp(&good, other.clone())).expect_err("must not decode");
            assert!(err.0.contains("format"), "{other:?} rejected as: {}", err.0);
        }

        let dir = std::env::temp_dir().join(format!("slp-codec-stamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let req = crate::CompileRequest {
            name: "g".to_string(),
            source: GATHER.to_string(),
            config: k.config.clone(),
            verify: crate::VerifyLevel::Static,
        };
        let cache = crate::CompileCache::with_disk(4, &dir);
        let cold = crate::compile_source(&req, Some(&cache)).expect("compiles");
        let path = dir.join(format!("{}.json", cold.fingerprint.to_hex()));
        let entry = Json::parse(&std::fs::read_to_string(&path).expect("entry")).expect("parses");
        let stale = restamp(&entry, Some(Json::num(6)));
        std::fs::write(&path, stale.to_compact()).expect("rewrite entry");

        let cache = crate::CompileCache::with_disk(4, &dir);
        let again = crate::compile_source(&req, Some(&cache)).expect("compiles");
        assert_eq!(again.cache, crate::CacheDisposition::Compiled);
        assert_eq!(cache.stats().disk_errors, 1);
        assert_eq!(cache.stats().misses, 1);
        let cache = crate::CompileCache::with_disk(4, &dir);
        let warm = crate::compile_source(&req, Some(&cache)).expect("compiles");
        assert_eq!(warm.cache, crate::CacheDisposition::DiskHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every leaf of `encoded`, as the key path from the root.
    fn leaf_paths(encoded: &Json, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        match encoded {
            Json::Obj(pairs) => {
                for (key, value) in pairs {
                    prefix.push(key.clone());
                    leaf_paths(value, prefix, out);
                    prefix.pop();
                }
            }
            _ => out.push(prefix.clone()),
        }
    }

    fn leaf_mut<'a>(v: &'a mut Json, path: &[String]) -> &'a mut Json {
        let Some((key, rest)) = path.split_first() else {
            return v;
        };
        let Json::Obj(pairs) = v else {
            panic!("path {path:?} leaves the tree");
        };
        let (_, child) = pairs.iter_mut().find(|(k, _)| k == key).expect("key");
        leaf_mut(child, rest)
    }

    /// The drift the hand-kept lists had: the codec persisted
    /// `machine.{l1_data,l2_total,l3_total}_kb` but the fingerprint did
    /// not key them. Walk every declared leaf of the config — machine
    /// and its cost table included — and perturb each in turn: the
    /// cache key must move, and the perturbed value must survive the
    /// kernel round trip. One declaration feeds both, so this holds for
    /// any field added later.
    #[test]
    fn every_declared_config_field_is_keyed_and_persisted() {
        let k = compiled(GATHER, false);
        let base = k.config.to_json();
        let base_fp = crate::fingerprint_with_tag(GATHER, &k.config, "");
        let mut paths = Vec::new();
        leaf_paths(&base, &mut Vec::new(), &mut paths);
        // machine (8 + its 13 costs), weights 4, opt 2, and 3 top-level
        // knobs.
        assert_eq!(paths.len(), (8 + 13) + 4 + 2 + 3, "{paths:?}");
        for name in ["l1_data_kb", "l2_total_kb", "l3_total_kb"] {
            assert!(paths.contains(&vec!["machine".to_string(), name.to_string()]));
        }

        for path in &paths {
            let mut perturbed = base.clone();
            let leaf = leaf_mut(&mut perturbed, path);
            *leaf = match &*leaf {
                Json::Num(x) => Json::Num(x + 1.0),
                Json::Bool(b) => Json::Bool(!b),
                // The base strategy is `global`; any other tag is a
                // different valid value, and so is any machine name.
                Json::Str(_) => Json::str("scalar"),
                other => panic!("unexpected leaf {other:?} at {path:?}"),
            };
            assert_ne!(perturbed, base, "{path:?} not perturbed");
            let config = SlpConfig::from_json(&perturbed).expect("perturbed config decodes");
            assert_ne!(
                crate::fingerprint_with_tag(GATHER, &config, ""),
                base_fp,
                "{path:?} is persisted but not part of the cache key"
            );
            let mut kernel = k.clone();
            kernel.config = config;
            let text = encode_kernel(&kernel).to_compact();
            let back = decode_kernel(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(
                back.config.to_json(),
                perturbed,
                "{path:?} does not survive the round trip"
            );
        }
    }

    #[test]
    fn report_roundtrips() {
        use slp_ir::BlockId;
        let mut r = Report::new();
        r.push(Diagnostic::new(
            LintCode::MisalignedPack,
            Span::stmts(BlockId(1), vec![StmtId::new(3), StmtId::new(4)]),
            "pack base at odd offset",
        ));
        r.push(Diagnostic::new(
            LintCode::DifferentialMismatch,
            Span::program(),
            "array A differs at [2]",
        ));
        let text = r.to_json().to_compact();
        let back = Report::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, r);
    }

    #[test]
    fn timings_roundtrip() {
        let mut t = PhaseTimings::new();
        t.set_nanos(Phase::Grouping, 123_456);
        t.set_nanos(Phase::Verify, 789);
        let text = t.to_json().to_compact();
        let back = PhaseTimings::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, t);
    }
}
