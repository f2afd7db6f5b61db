//! The `slpd` wire protocol: the versioned v1 envelope, the legacy
//! bare form, and the `S100`-series machine-readable error codes.
//!
//! # The v1 envelope
//!
//! A request is one line of JSON carrying `"v": 1`:
//!
//! ```json
//! {"v":1,"id":"req-7","tenant":"team-a","cmd":"compile","source":"kernel k { … }"}
//! ```
//!
//! * `v` — protocol version, must be the number `1`;
//! * `id` — optional request correlator (string or number), echoed
//!   verbatim in the response so clients may pipeline;
//! * `tenant` — optional tenant key for quota accounting (defaults to
//!   the anonymous tenant `""`);
//! * `cmd` — the verb: `compile`, `stats`, `ping`, `shutdown`.
//!
//! Every v1 response echoes `v` and `id` and carries `ok`. Failures
//! add a stable `code` from the table below plus a human-readable
//! `error`:
//!
//! | code   | meaning                                             |
//! |--------|-----------------------------------------------------|
//! | `S100` | malformed request (bad JSON, missing/invalid field) |
//! | `S101` | unknown `cmd`                                       |
//! | `S102` | unsupported protocol version                        |
//! | `S103` | request line exceeded the server's byte cap         |
//! | `S110` | kernel source did not parse                         |
//! | `S111` | kernel parsed but failed semantic validation        |
//! | `S112` | compiler panic (caught; the server survives)        |
//! | `S113` | compile exceeded its time budget                    |
//! | `S114` | kernel proven memory-unsafe before compilation      |
//! | `S120` | overloaded: in-flight admission cap reached         |
//! | `S121` | tenant quota exhausted (token bucket empty)         |
//! | `S122` | server is draining; request not admitted            |
//!
//! # The legacy bare form
//!
//! A request without a `"v"` field is a legacy request (the protocol
//! `slpd` spoke before versioning). It is answered in the legacy
//! response shape: no `v`, no `id`, errors carry the historical `kind`
//! strings (`request`/`parse`/`invalid`/`panic`/`timeout`) instead of
//! codes. Conditions that postdate the legacy protocol (admission,
//! quotas, drain) get descriptive kinds of their own (`overloaded`,
//! `quota`, `draining`). The compat test suite pins both shapes.

use std::borrow::Cow;

use slp_core::{CompileStats, PhaseTimings, SlpConfig, Strategy};
use slp_driver::json::{self, Json, ParseError, Parser};
use slp_driver::{
    parse_machine, CacheDisposition, CompileOutcome, CompileRequest, DriverError, Fingerprint,
    ProveVerdict, Report, VerifyLevel,
};

/// The stable machine-readable error codes of the v1 protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// `S100`: malformed request — invalid JSON, missing or ill-typed
    /// field.
    BadRequest,
    /// `S101`: the `cmd` verb is not one the server knows.
    UnknownCommand,
    /// `S102`: the request carried a `v` other than `1`.
    BadVersion,
    /// `S103`: the request line exceeded
    /// [`ServeConfig::max_line_bytes`](crate::ServeConfig::max_line_bytes)
    /// and was discarded unread.
    LineTooLong,
    /// `S110`: the kernel source did not parse.
    ParseError,
    /// `S111`: the kernel parsed but failed semantic validation.
    InvalidProgram,
    /// `S112`: the compiler panicked (caught by the `catch_unwind` around
    /// the compile).
    CompilerPanic,
    /// `S113`: the compile exceeded its time budget.
    BudgetExceeded,
    /// `S114`: the memory-safety certificate proved an array access out
    /// of bounds (V505) in the driver's frontend run, so the kernel was
    /// rejected before any compile work was spent on it.
    ProvenUnsafe,
    /// `S120`: the in-flight admission cap was reached.
    Overloaded,
    /// `S121`: the tenant's token-bucket quota is exhausted.
    QuotaExhausted,
    /// `S122`: the server is draining and admits no new compiles.
    Draining,
}

impl ErrorCode {
    /// The stable wire code (`"S100"`…`"S122"`).
    pub fn code(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "S100",
            ErrorCode::UnknownCommand => "S101",
            ErrorCode::BadVersion => "S102",
            ErrorCode::LineTooLong => "S103",
            ErrorCode::ParseError => "S110",
            ErrorCode::InvalidProgram => "S111",
            ErrorCode::CompilerPanic => "S112",
            ErrorCode::BudgetExceeded => "S113",
            ErrorCode::ProvenUnsafe => "S114",
            ErrorCode::Overloaded => "S120",
            ErrorCode::QuotaExhausted => "S121",
            ErrorCode::Draining => "S122",
        }
    }

    /// The `kind` string used when answering a *legacy* request. The
    /// first five mirror the historical serve loop exactly; the
    /// admission-era conditions get descriptive names (the legacy
    /// protocol never produced them).
    pub(crate) fn legacy_kind(self) -> &'static str {
        match self {
            ErrorCode::BadRequest
            | ErrorCode::UnknownCommand
            | ErrorCode::BadVersion
            | ErrorCode::LineTooLong => "request",
            ErrorCode::ParseError => "parse",
            ErrorCode::InvalidProgram => "invalid",
            ErrorCode::CompilerPanic => "panic",
            ErrorCode::BudgetExceeded => "timeout",
            ErrorCode::ProvenUnsafe => "unsafe",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::QuotaExhausted => "quota",
            ErrorCode::Draining => "draining",
        }
    }

    /// Maps a driver failure onto its wire code.
    pub(crate) fn from_driver(err: &DriverError) -> ErrorCode {
        match err {
            DriverError::Parse(_) => ErrorCode::ParseError,
            DriverError::Invalid(_) => ErrorCode::InvalidProgram,
            DriverError::Unsafe(_) => ErrorCode::ProvenUnsafe,
            DriverError::Panic(_) => ErrorCode::CompilerPanic,
            DriverError::Timeout(_) => ErrorCode::BudgetExceeded,
        }
    }
}

/// Which protocol shape a request arrived in, plus its envelope fields.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// `false` for legacy bare-form requests.
    pub v1: bool,
    /// The request's `id`, echoed verbatim in v1 responses
    /// ([`Json::Null`] when absent).
    pub id: Json,
    /// The quota tenant (`""` when absent — the anonymous tenant).
    pub tenant: String,
}

impl Envelope {
    /// The legacy envelope (bare-form request, anonymous tenant).
    pub(crate) fn legacy() -> Envelope {
        Envelope {
            v1: false,
            id: Json::Null,
            tenant: String::new(),
        }
    }

    /// A response in this envelope's shape: `v` and `id` under v1, then
    /// `ok`, then `fields` — one vector, allocated once.
    fn response(
        &self,
        ok: bool,
        fields: impl ExactSizeIterator<Item = (&'static str, Json)>,
    ) -> Json {
        let mut pairs = Vec::with_capacity(3 + fields.len());
        if self.v1 {
            pairs.push(("v".to_string(), Json::num(1)));
            pairs.push(("id".to_string(), self.id.clone()));
        }
        pairs.push(("ok".to_string(), Json::Bool(ok)));
        pairs.extend(fields.map(|(key, value)| (key.to_string(), value)));
        Json::Obj(pairs)
    }

    /// An `ok:false` response in this envelope's shape.
    pub fn error(&self, code: ErrorCode, message: &str) -> Json {
        let (key, value) = if self.v1 {
            ("code", code.code())
        } else {
            ("kind", code.legacy_kind())
        };
        let fields = [(key, Json::str(value)), ("error", Json::str(message))];
        self.response(false, fields.into_iter())
    }

    /// An `ok:true` response wrapping `fields` in this envelope's
    /// shape.
    pub fn ok(&self, fields: Vec<(&'static str, Json)>) -> Json {
        self.response(true, fields.into_iter())
    }
}

/// A parsed request line: the envelope plus the verb and its body.
#[derive(Debug)]
pub enum Request {
    /// `cmd: "compile"` with its parsed [`CompileRequest`] and optional
    /// per-request budget.
    Compile {
        /// The envelope the response must use.
        envelope: Envelope,
        /// The driver request.
        request: Box<CompileRequest>,
        /// `budget_ms` field, if present.
        budget_ms: Option<u64>,
    },
    /// `cmd: "stats"`.
    Stats(Envelope),
    /// `cmd: "ping"` (v1 only; legacy never had it but accepting it
    /// everywhere is harmless).
    Ping(Envelope),
    /// `cmd: "shutdown"`.
    Shutdown(Envelope),
    /// The line could not be turned into a request; the payload is the
    /// ready-to-send error response.
    Malformed(Json),
}

/// A member the protocol reads as a string: `Some(None)` when the member
/// is there but is not a string.
type Text<'a> = Option<Option<Cow<'a, str>>>;

/// The first member of each key a request line is read for, as
/// [`Json::get`] finds it.
#[derive(Default)]
struct Fields<'a> {
    v: Option<Json>,
    id: Option<Json>,
    unroll: Option<Json>,
    layout: Option<Json>,
    budget_ms: Option<Json>,
    tenant: Text<'a>,
    cmd: Text<'a>,
    source: Text<'a>,
    name: Text<'a>,
    strategy: Text<'a>,
    machine: Text<'a>,
    verify: Text<'a>,
}

impl<'a> Fields<'a> {
    /// Reads the value of the member named `key`.
    fn read(&mut self, p: &mut Parser<'a>, key: &str) -> Result<(), ParseError> {
        let text = match key {
            "tenant" => &mut self.tenant,
            "cmd" => &mut self.cmd,
            "source" => &mut self.source,
            "name" => &mut self.name,
            "strategy" => &mut self.strategy,
            "machine" => &mut self.machine,
            "verify" => &mut self.verify,
            _ => {
                let value = p.value()?;
                match key {
                    "v" => self.v.get_or_insert(value),
                    "id" => self.id.get_or_insert(value),
                    "unroll" => self.unroll.get_or_insert(value),
                    "layout" => self.layout.get_or_insert(value),
                    "budget_ms" => self.budget_ms.get_or_insert(value),
                    _ => return Ok(()),
                };
                return Ok(());
            }
        };
        let value = match p.peek() {
            Some(b'"') => Some(p.string()?),
            _ => p.value().map(|_| None)?,
        };
        text.get_or_insert(value);
        Ok(())
    }
}

/// Parses one request line into a [`Request`], with every failure
/// already rendered as the correctly-shaped error response.
///
/// The line is read in place by the grammar of [`Json::parse`], so it is
/// refused, with the same error, exactly when a parse would refuse it.
/// Strings stay borrowed from the line until `source` and `name` are
/// copied, once, into the [`CompileRequest`].
pub fn parse_request(line: &str) -> Request {
    let mut fields = Fields::default();
    let read = json::scan(line, |p| match p.peek() {
        Some(b'{') => p.members(|p, key| fields.read(p, &key)),
        _ => p.value().map(drop),
    });
    if let Err(e) = read {
        // Unparseable lines cannot name a protocol version; answer in
        // the legacy shape, which is also what v1 clients must expect
        // for garbage (the `kind` key is absent there — `code` is not —
        // so the shapes stay distinguishable).
        return Request::Malformed(
            Envelope::legacy().error(ErrorCode::BadRequest, &format!("invalid request JSON: {e}")),
        );
    }

    let envelope = match fields.v.take() {
        None => Envelope::legacy(),
        Some(v) => {
            let envelope = Envelope {
                v1: true,
                id: fields.id.take().unwrap_or(Json::Null),
                tenant: fields.tenant.take().flatten().unwrap_or_default().into(),
            };
            if v.u64() != Some(1) {
                return Request::Malformed(envelope.error(
                    ErrorCode::BadVersion,
                    &format!(
                        "unsupported protocol version {} (this server speaks v1)",
                        v.to_compact()
                    ),
                ));
            }
            envelope
        }
    };

    let Some(cmd) = fields.cmd.take().flatten() else {
        return Request::Malformed(
            envelope.error(ErrorCode::BadRequest, "missing string field \"cmd\""),
        );
    };
    match &*cmd {
        "compile" => match parse_compile_body(fields) {
            Ok((request, budget_ms)) => Request::Compile {
                envelope,
                request: Box::new(request),
                budget_ms,
            },
            Err(msg) => Request::Malformed(envelope.error(ErrorCode::BadRequest, &msg)),
        },
        "stats" => Request::Stats(envelope),
        "ping" => Request::Ping(envelope),
        "shutdown" => Request::Shutdown(envelope),
        other => Request::Malformed(
            envelope.error(ErrorCode::UnknownCommand, &format!("unknown cmd {other:?}")),
        ),
    }
}

/// Builds a [`CompileRequest`] (plus budget) from a `compile` verb's
/// fields, or an error message naming the offending field.
fn parse_compile_body(fields: Fields<'_>) -> Result<(CompileRequest, Option<u64>), String> {
    let source = (fields.source.flatten())
        .ok_or("missing string field \"source\"")?
        .into_owned();
    let name = (fields.name.flatten())
        .unwrap_or("<anonymous>".into())
        .into_owned();

    let strategy_name = fields.strategy.flatten().unwrap_or("global".into());
    let strategy: Strategy = strategy_name
        .parse()
        .map_err(|_| format!("unknown strategy {strategy_name:?}"))?;
    let machine_name = fields.machine.flatten().unwrap_or("intel".into());
    let machine =
        parse_machine(&machine_name).ok_or_else(|| format!("unknown machine {machine_name:?}"))?;
    let verify_name = fields.verify.flatten().unwrap_or("static".into());
    let verify = VerifyLevel::from_name(&verify_name)
        .ok_or_else(|| format!("unknown verify level {verify_name:?}"))?;

    let mut config = SlpConfig::for_machine(machine, strategy);
    if let Some(unroll) = fields.unroll {
        config.unroll = usize::try_from(unroll.u64().ok_or("field \"unroll\" must be an integer")?)
            .map_err(|_| "field \"unroll\" out of range")?;
    }
    if let Some(layout) = fields.layout {
        if layout.bool().ok_or("field \"layout\" must be a boolean")? {
            config = config.with_layout();
        }
    }
    let budget_ms = match fields.budget_ms {
        Some(b) => Some(b.u64().ok_or("field \"budget_ms\" must be an integer")?),
        None => None,
    };

    Ok((
        CompileRequest {
            name,
            source,
            config,
            verify,
        },
        budget_ms,
    ))
}

/// The success-response body of a compile (shared by both envelope
/// shapes; the envelope wraps it). `via_coalesce` marks a request that
/// piggy-backed on an identical in-flight compile — its `cache` field
/// reads `"coalesced"` since neither tier nor a fresh compile answered
/// *this* request.
pub fn outcome_fields(
    name: &str,
    outcome: &CompileOutcome,
    via_coalesce: bool,
) -> Vec<(&'static str, Json)> {
    compile_fields(
        name,
        if via_coalesce {
            None
        } else {
            Some(outcome.cache)
        },
        outcome.fingerprint,
        outcome.wall_nanos,
        &outcome.kernel.stats,
        outcome.report.as_ref(),
        outcome.prove,
        &outcome.timings,
    )
}

/// The one encoder of a compile result, over the parts both forms the
/// driver answers in carry; `cache` is `None` for a coalesced request.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compile_fields(
    name: &str,
    cache: Option<CacheDisposition>,
    fingerprint: Fingerprint,
    wall_nanos: u64,
    stats: &CompileStats,
    report: Option<&Report>,
    prove: Option<ProveVerdict>,
    timings: &PhaseTimings,
) -> Vec<(&'static str, Json)> {
    let cache = cache.map_or("coalesced", CacheDisposition::name);
    let count = |n: usize| Json::num(n as u64);
    let (errors, warnings, diagnostics) = match report {
        Some(report) => (
            count(report.error_count()),
            count(report.warning_count()),
            (report.diagnostics.iter())
                .map(|d| Json::str(d.to_string()))
                .collect(),
        ),
        None => (Json::Null, Json::Null, Vec::new()),
    };
    vec![
        ("name", Json::str(name)),
        ("cache", Json::str(cache)),
        ("fingerprint", Json::str(fingerprint.to_hex())),
        ("stmts", count(stats.stmts)),
        ("superwords", count(stats.superwords)),
        ("vectorized_stmts", count(stats.vectorized_stmts)),
        ("verify_errors", errors),
        ("verify_warnings", warnings),
        ("diagnostics", Json::Arr(diagnostics)),
        ("prove", prove.map_or(Json::Null, |v| Json::str(v.name()))),
        ("phase_nanos", slp_driver::timings_json(timings)),
        ("wall_nanos", Json::num(wall_nanos)),
    ]
}
