//! # slp-driver — the concurrent compilation driver
//!
//! The layer between front-ends and `slp-core`. Where the core pipeline
//! answers "compile this one program", this crate answers the questions
//! a production service has to: *don't compile it again if nothing
//! changed* (content-addressed caching), *compile many at once*
//! (parallel batch with panic isolation, time budgets and graceful
//! degradation), *keep answering requests* (the `slpd` serve loop) and
//! *say where the time went* (per-phase telemetry).
//!
//! The pieces:
//!
//! * [`compile_source`] — the single read→parse→validate→compile entry
//!   point every front-end shares, with an optional [`CompileCache`],
//! * [`Fingerprint`] — stable content-addressed cache keys over
//!   (source, config, compiler version),
//! * [`CompileCache`] — in-memory LRU + on-disk tier under
//!   `.slp-cache/`,
//! * [`compile_batch`] — shards a corpus across a scoped worker pool
//!   with deterministic output order; a panicking or over-budget kernel
//!   degrades to [`Strategy::Scalar`] instead of sinking the batch,
//! * [`DriverReport`] — machine-readable per-kernel and corpus-wide
//!   phase timings, cache counters, degradation records and (for
//!   serving sessions) the [`ServeSummary`] counters.
//!
//! The request/response *serving* layer itself — the versioned wire
//! protocol, the transport-agnostic handler with admission control,
//! request coalescing and per-tenant quotas, and the stdio/TCP
//! adapters — lives in the `slp-serve` crate (re-exported as
//! `slp::driver::{serve_handler, serve_tcp}` by the facade); this crate
//! provides the pieces it is built from.
//!
//! ```
//! use slp_core::{MachineConfig, SlpConfig, Strategy};
//! use slp_driver::{compile_source, CompileCache, CompileRequest, VerifyLevel};
//!
//! let cache = CompileCache::in_memory(16);
//! let req = CompileRequest {
//!     name: "axpy".to_string(),
//!     source: "kernel axpy { array X: f64[64]; array Y: f64[64]; scalar a: f64;
//!              for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }"
//!         .to_string(),
//!     config: SlpConfig::for_machine(MachineConfig::intel_dunnington(), Strategy::Holistic),
//!     verify: VerifyLevel::Static,
//! };
//! let cold = compile_source(&req, Some(&cache))?;
//! assert!(cold.kernel.stats.superwords > 0);
//! assert!(cold.report.as_ref().expect("verified").passes());
//! let warm = compile_source(&req, Some(&cache))?;
//! assert!(warm.cache_hit());
//! # Ok::<(), slp_driver::DriverError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod cache;
mod codec;
mod fingerprint;
pub mod json;
mod record;
mod report;

pub use batch::{
    compile_batch, compile_guarded, compile_keyed, parallel_map, BatchConfig, KernelOutcome,
};
pub use cache::{
    CacheStats, CacheTier, CachedCompile, CompileCache, DEFAULT_DISK_DIR, DEFAULT_MEMORY_CAPACITY,
};
pub use codec::{decode_kernel, encode_kernel, CodecError};
use fingerprint::fingerprint_with_tag;
pub use fingerprint::Fingerprint;
pub use report::{stats_json, timings_json, DriverReport, KernelRow, RowStatus, ServeSummary};
pub use slp_verify::Report;

use std::sync::Arc;
use std::time::Instant;

use slp_core::{
    compile_within, CompiledKernel, Deadline, Expired, MachineConfig, Phase, PhaseTimings,
    SlpConfig, Strategy,
};

/// How much verification a compile request asks the driver to run over
/// the finished kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyLevel {
    /// No verification; `report` stays `None`.
    None,
    /// The static checkers (`slp_verify::verify_kernel`).
    Static,
    /// Static checkers plus differential translation validation
    /// (`slp_verify::verify_with_execution`). Executes the kernel twice;
    /// meant for checks and tests, not hot serving paths.
    Differential,
    /// Static checkers plus symbolic translation validation
    /// (`slp_verify::prove_kernel`): prove scalar ≡ vectorized over all
    /// inputs, degrading to the differential check when the proof
    /// attempt exhausts its budget. The outcome carries a
    /// [`ProveVerdict`] beside the report.
    Prove,
}

impl VerifyLevel {
    /// The stable name used in cache keys, CLI flags and the serve
    /// protocol.
    pub fn name(self) -> &'static str {
        match self {
            VerifyLevel::None => "none",
            VerifyLevel::Static => "static",
            VerifyLevel::Differential => "full",
            VerifyLevel::Prove => "prove",
        }
    }

    /// Parses [`VerifyLevel::name`] output.
    pub fn from_name(name: &str) -> Option<VerifyLevel> {
        match name {
            "none" => Some(VerifyLevel::None),
            "static" => Some(VerifyLevel::Static),
            "full" => Some(VerifyLevel::Differential),
            "prove" => Some(VerifyLevel::Prove),
            _ => None,
        }
    }
}

/// One unit of driver work: a named kernel source plus how to compile
/// and verify it.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Display name (usually the file stem or the kernel name).
    pub name: String,
    /// The `slp-lang` source text.
    pub source: String,
    /// The pipeline configuration.
    pub config: SlpConfig,
    /// How much verification to run on the result.
    pub verify: VerifyLevel,
}

impl CompileRequest {
    /// The request's content-addressed cache key.
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint_with_tag(&self.source, &self.config, self.verify.name())
    }
}

/// The driver's digest of a [`VerifyLevel::Prove`] proof attempt.
///
/// A three-way verdict, not `slp_verify::Verdict`'s four: the driver folds
/// the validator's `Unsupported` degradation into [`ProveVerdict::Budget`]
/// because both mean the same thing to a batch consumer — the kernel was
/// *not* proved for all inputs, but the differential check it degraded to
/// found nothing either (any differential finding shows up in the verify
/// report's error count as usual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProveVerdict {
    /// The symbolic validator proved scalar ≡ vectorized over all inputs.
    Proved,
    /// The proof attempt ran out of budget (or hit an unsupported
    /// construct) and degraded to the differential check.
    Budget,
    /// The validator refuted equivalence with an execution-confirmed
    /// concrete counterexample; the V600 diagnostic carries it.
    Refuted,
}

impl ProveVerdict {
    /// The stable name used in reports and cache entries
    /// (`"proved"`, `"budget"`, `"refuted"`).
    pub fn name(self) -> &'static str {
        match self {
            ProveVerdict::Proved => "proved",
            ProveVerdict::Budget => "budget",
            ProveVerdict::Refuted => "refuted",
        }
    }

    /// Every verdict: the tag table reports and cache entries draw on.
    pub(crate) const ALL: [ProveVerdict; 3] = [
        ProveVerdict::Proved,
        ProveVerdict::Budget,
        ProveVerdict::Refuted,
    ];

    /// Parses [`ProveVerdict::name`] output.
    pub fn from_name(name: &str) -> Option<ProveVerdict> {
        ProveVerdict::ALL.into_iter().find(|v| v.name() == name)
    }

    fn from_tv(verdict: &slp_verify::Verdict) -> ProveVerdict {
        match verdict {
            slp_verify::Verdict::Proved(_) => ProveVerdict::Proved,
            slp_verify::Verdict::Budget { .. } | slp_verify::Verdict::Unsupported { .. } => {
                ProveVerdict::Budget
            }
            slp_verify::Verdict::Refuted(_) => ProveVerdict::Refuted,
        }
    }
}

/// Where a compilation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Compiled from scratch this call.
    Compiled,
    /// Served from the in-memory tier.
    MemoryHit,
    /// Served from the on-disk tier.
    DiskHit,
}

impl CacheDisposition {
    /// The stable name used in reports (`"compiled"`, `"memory"`,
    /// `"disk"`).
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Compiled => "compiled",
            CacheDisposition::MemoryHit => "memory",
            CacheDisposition::DiskHit => "disk",
        }
    }
}

/// The result of one successful driver compilation.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// The compiled kernel.
    pub kernel: CompiledKernel,
    /// The verify report ([`None`] iff the request's level was
    /// [`VerifyLevel::None`]). On a cache hit this is the *original*
    /// compile's report — verification is as cacheable as compilation.
    pub report: Option<Report>,
    /// The symbolic proof verdict ([`Some`] iff the request's level was
    /// [`VerifyLevel::Prove`]). Cached alongside the report.
    pub prove: Option<ProveVerdict>,
    /// Per-phase timings of the compile that produced the kernel (the
    /// cold compile's timings on a cache hit).
    pub timings: PhaseTimings,
    /// The request's cache key.
    pub fingerprint: Fingerprint,
    /// Where the kernel came from.
    pub cache: CacheDisposition,
    /// Wall nanoseconds this call spent (lookup + parse + compile +
    /// verify as applicable) — near zero on a memory hit.
    pub wall_nanos: u64,
}

impl CompileOutcome {
    /// Whether either cache tier answered.
    pub fn cache_hit(&self) -> bool {
        self.cache != CacheDisposition::Compiled
    }
}

/// [`CompileOutcome`] with the compilation shared instead of by value —
/// what [`compile_keyed`] answers, so a hit, a served miss and every
/// coalesced follower read the one allocation the memory tier holds.
#[derive(Debug, Clone)]
pub struct SharedOutcome {
    /// The compilation (the cold compile's report and timings on a hit).
    pub entry: Arc<CachedCompile>,
    /// The request's cache key.
    pub fingerprint: Fingerprint,
    /// Where the kernel came from.
    pub cache: CacheDisposition,
    /// As [`CompileOutcome::wall_nanos`].
    pub wall_nanos: u64,
}

impl SharedOutcome {
    /// The by-value form: the entry is moved out, or copied if the cache
    /// (after a store or a hit) holds it too.
    pub(crate) fn into_owned(self) -> CompileOutcome {
        let entry = Arc::try_unwrap(self.entry).unwrap_or_else(|shared| (*shared).clone());
        CompileOutcome {
            kernel: entry.kernel,
            report: entry.report,
            prove: entry.prove,
            timings: entry.timings,
            fingerprint: self.fingerprint,
            cache: self.cache,
            wall_nanos: self.wall_nanos,
        }
    }
}

/// Why a driver compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The source did not parse; the payload is the rendered diagnostic.
    Parse(String),
    /// The program parsed but failed semantic validation.
    Invalid(Vec<String>),
    /// Every validation error is a bounds violation the memory-safety
    /// certificate proves ([`slp_core::AccessVerdict::ProvenFaulting`]):
    /// the kernel is rejected before any packing, scheduling or
    /// verification work. The payload is the proven-faulting accesses,
    /// never empty. `slpd` answers `S114`, `slpc` renders `error[V505]`.
    Unsafe(Vec<slp_core::AccessCert>),
    /// The pipeline panicked (optimizer invariant violation or a
    /// panicking installed packer); the payload is the panic message.
    Panic(String),
    /// The compile exceeded its time budget (milliseconds carried).
    Timeout(u64),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Parse(msg) => write!(f, "parse error: {msg}"),
            DriverError::Invalid(errors) => {
                write!(f, "invalid program: {}", errors.join("; "))
            }
            DriverError::Unsafe(accesses) => {
                let details: Vec<&str> = accesses.iter().map(|a| a.detail.as_str()).collect();
                write!(f, "proven memory-unsafe: {}", details.join("; "))
            }
            DriverError::Panic(msg) => write!(f, "compiler panic: {msg}"),
            DriverError::Timeout(ms) => write!(f, "compile exceeded {ms} ms budget"),
        }
    }
}

impl std::error::Error for DriverError {}

/// The shared read→parse→validate→compile(→verify) entry point.
///
/// With a cache, the request's [`Fingerprint`] is looked up first and
/// the full outcome (kernel, report, cold-compile timings) is returned
/// on a hit — the source is not even parsed; on a miss the result is
/// stored in both tiers before returning. Without a cache it always
/// compiles.
///
/// This function does not isolate panics and carries no deadline — it is
/// the trusted single-kernel path (`slpc`'s default and `check`
/// subcommands). The batch and serve layers use [`compile_guarded`]: the
/// same code on the same thread, under `catch_unwind` and a budget.
///
/// # Panics
///
/// Propagates pipeline panics (invalid schedules, a panicking installed
/// [`SlpConfig::packer`]).
pub fn compile_source(
    req: &CompileRequest,
    cache: Option<&CompileCache>,
) -> Result<CompileOutcome, DriverError> {
    cached(req.fingerprint(), cache, || compile_uncached(req, None)).map(SharedOutcome::into_owned)
}

/// The one request path under every entry point: look `fp` up, otherwise
/// run `compile` and store what it produced — the same allocation the
/// caller gets. A failed compile stores nothing.
pub(crate) fn cached(
    fp: Fingerprint,
    cache: Option<&CompileCache>,
    compile: impl FnOnce() -> Result<CachedCompile, DriverError>,
) -> Result<SharedOutcome, DriverError> {
    let start = Instant::now();
    let (entry, disposition) = match cache.and_then(|c| c.get(fp)) {
        Some((entry, CacheTier::Memory)) => (entry, CacheDisposition::MemoryHit),
        Some((entry, CacheTier::Disk)) => (entry, CacheDisposition::DiskHit),
        None => {
            let entry = Arc::new(compile()?);
            if let Some(cache) = cache {
                cache.put_shared(fp, Arc::clone(&entry));
            }
            (entry, CacheDisposition::Compiled)
        }
    };
    Ok(SharedOutcome {
        entry,
        fingerprint: fp,
        cache: disposition,
        wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

/// The memory-tier half of [`compile_keyed`]'s lookup: `fp`'s entry as a
/// memory hit. A miss is left uncounted in [`CacheStats`]: the caller goes
/// on to [`compile_keyed`], whose lookup (disk tier included) counts the
/// request. The serve handler answers a hit this way before it takes a
/// dedup slot.
pub fn lookup(fp: Fingerprint, cache: &CompileCache) -> Option<SharedOutcome> {
    let start = Instant::now();
    let entry = cache.memory_get(fp)?;
    Some(SharedOutcome {
        entry,
        fingerprint: fp,
        cache: CacheDisposition::MemoryHit,
        wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

/// The one frontend run of a compiled request: lex → parse → if-convert
/// → lower → validate, plus the rule that a program whose *only*
/// validation errors are bounds violations the certificate proves is
/// [`DriverError::Unsafe`], not [`DriverError::Invalid`]. (Validation
/// flags every access whose index hull leaves the array; the certificate
/// proves the subset that really faults, so a bounds-only failure it
/// cannot prove stays `Invalid`.)
fn frontend(source: &str) -> Result<slp_ir::Program, DriverError> {
    let program = slp_lang::compile(source).map_err(|e| DriverError::Parse(e.render(source)))?;
    let Err(errors) = program.validate() else {
        return Ok(program);
    };
    if errors
        .iter()
        .all(|e| matches!(e, slp_ir::ValidationError::OutOfBounds { .. }))
    {
        let mut faulting = slp_core::SafetyCert::certify(&program).accesses;
        faulting.retain(|a| a.verdict == slp_core::AccessVerdict::ProvenFaulting);
        if !faulting.is_empty() {
            return Err(DriverError::Unsafe(faulting));
        }
    }
    Err(DriverError::Invalid(
        errors.iter().map(|e| e.to_string()).collect(),
    ))
}

/// Frontend, pipeline and the requested verification: everything a cache
/// miss pays, on the calling thread. A `budget_ms` becomes a [`Deadline`]
/// for the pipeline, checked here after each stage as well; the first
/// checkpoint past it answers [`DriverError::Timeout`].
pub(crate) fn compile_uncached(
    req: &CompileRequest,
    budget_ms: Option<u64>,
) -> Result<CachedCompile, DriverError> {
    let deadline = Deadline::after_ms(budget_ms);
    let timeout = |Expired| DriverError::Timeout(budget_ms.unwrap_or_default());
    let check = || deadline.check().map_err(timeout);

    let program = frontend(&req.source)?;
    check()?;

    // `Strategy::Optimal` needs a solver behind the `Packer` trait; the
    // driver installs `slp-opt`'s branch-and-bound unless the caller
    // already supplied one. The packer is excluded from the fingerprint
    // (the budgets, which do change the packing, are keyed as fields),
    // so installing it here cannot fork the cache key.
    let config;
    let config = if req.config.strategy == Strategy::Optimal && req.config.packer.is_none() {
        config = req.config.clone().with_packer(slp_opt::OptimalPacker);
        &config
    } else {
        &req.config
    };

    let (kernel, mut timings) = compile_within(&program, config, deadline).map_err(timeout)?;
    check()?;
    let mut prove = None;
    let report = match req.verify {
        VerifyLevel::None => None,
        level => Some(timings.time(Phase::Verify, || {
            let mut report = slp_verify::verify_kernel(&kernel);
            check()?;
            match level {
                VerifyLevel::None | VerifyLevel::Static => {}
                VerifyLevel::Differential => {
                    report.extend(slp_verify::check_differential(&program, &kernel));
                }
                VerifyLevel::Prove => {
                    let (symbolic, verdict) = slp_verify::prove_kernel(&program, &kernel);
                    report.extend(symbolic.diagnostics);
                    prove = Some(ProveVerdict::from_tv(&verdict));
                }
            }
            check().map(|()| report)
        })?),
    };
    Ok(CachedCompile {
        kernel,
        report,
        prove,
        timings,
    })
}

/// The frontend's safety verdict on `source` without compiling it: the
/// certificate of a program that validates, the proven-faulting accesses
/// of one [`compile_source`] would reject as [`DriverError::Unsafe`], and
/// `None` for every source it would reject as [`DriverError::Parse`] or
/// [`DriverError::Invalid`]. No compile path calls this — they get the
/// same classification from their one frontend run; it is kept for
/// tools that want the verdict alone.
pub fn certify_source(source: &str) -> Option<slp_core::SafetyCert> {
    match frontend(source) {
        Ok(program) => Some(slp_core::SafetyCert::certify(&program)),
        Err(DriverError::Unsafe(accesses)) => Some(slp_core::SafetyCert { accesses }),
        Err(_) => None,
    }
}

/// Parses the CLI machine names shared by the front-ends (`intel`,
/// `amd`).
pub fn parse_machine(name: &str) -> Option<MachineConfig> {
    match name {
        "intel" => Some(MachineConfig::intel_dunnington()),
        "amd" => Some(MachineConfig::amd_phenom_ii()),
        _ => None,
    }
}
