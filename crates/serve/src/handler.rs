//! The transport-agnostic request handler: one request line in, one
//! response out.
//!
//! [`Handler`] owns everything a serving session shares across
//! connections — the compile cache, the in-flight deduplication table,
//! the per-tenant token buckets, the admission gauge and the serve
//! counters — so the stdio loop, the TCP server and the tests all
//! drive the *same* object and observe the same semantics.
//!
//! A `compile` request passes through four gates, in order:
//!
//! 1. **drain** — a draining handler admits no new compiles
//!    ([`ErrorCode::Draining`]); in-flight ones run to completion;
//! 2. **quota** — the request's tenant takes one token from its bucket
//!    ([`ErrorCode::QuotaExhausted`] when empty). Rejections touch
//!    nothing shared — in particular they can never poison the cache;
//! 3. **admission** — the global in-flight gauge is bumped; past
//!    [`ServeConfig::max_in_flight`] the request is rejected with
//!    [`ErrorCode::Overloaded`] instead of queueing unboundedly;
//! 4. **cache, then dedup** — the request is fingerprinted, once; a
//!    memory hit is answered at once, without touching the in-flight
//!    table. Anything else joins an identical compile in flight,
//!    answering from its entry as `"cache":"coalesced"`, or leads one.
//!
//! The leader hands its key to [`slp_driver::compile_keyed`]: the lookup
//! once more, disk tier included (a compile that finished meanwhile is a
//! hit, not a second compile), and only on a miss one frontend run and
//! the compile — on this thread, under `catch_unwind` and the request's
//! budget as a cooperative deadline. A request counts one lookup: the
//! first counts only a hit, a follower none. A disk entry is read once,
//! by the leader. The handler never copies a kernel: it answers from the
//! entry the cache holds. A kernel with a proven out-of-bounds access
//! (V505) comes back from the frontend run as [`DriverError::Unsafe`]
//! before any packing or scheduling work is spent on it, and is answered
//! with [`ErrorCode::ProvenUnsafe`] — to the leader and every follower
//! alike; nothing is stored for it.
//!
//! Every counter is atomic; a [`ServeSummary`] snapshot is exact once
//! the writers are quiescent, which the concurrency tests pin.
//!
//! The handler is panic-hardened: transports enter through
//! [`Handler::handle_line_guarded`], a dedup leader that unwinds still
//! publishes an error to its followers (so they never hang), and every
//! internal lock tolerates poisoning — a panicked compile degrades
//! that one request to an `S112` response instead of wedging the pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use slp_core::PhaseTimings;
use slp_driver::json::Json;
use slp_driver::{
    compile_keyed, lookup, stats_json, CacheDisposition, CompileCache, CompileRequest, DriverError,
    Fingerprint, ServeSummary, SharedOutcome,
};

use crate::protocol::{compile_fields, parse_request, Envelope, ErrorCode, Request};

/// A per-tenant token bucket: `capacity` tokens, refilled continuously
/// at `refill_per_sec`. One compile request costs one token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Maximum (and initial) token balance.
    pub capacity: f64,
    /// Tokens restored per second (0 = a fixed allowance, never
    /// refilled).
    pub refill_per_sec: f64,
}

/// Handler knobs. All fields are public; start from `..Default::default()`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission cap: compile requests in flight at once (leaders and
    /// coalesced followers alike). `0` disables the cap.
    pub max_in_flight: usize,
    /// The default per-tenant quota; `None` serves every tenant
    /// unmetered (tenants named in `quota_overrides` are still
    /// metered).
    pub quota: Option<QuotaConfig>,
    /// Per-tenant quota overrides, consulted before `quota`.
    pub quota_overrides: Vec<(String, QuotaConfig)>,
    /// Budget applied to compile requests that do not carry their own
    /// `budget_ms`: a cooperative deadline the compile checks at its own
    /// boundaries ([`slp_driver::compile_guarded`] says which), answered
    /// `S113` at the first one past it.
    pub default_budget_ms: Option<u64>,
    /// Test instrumentation: artificial delay (milliseconds) inserted
    /// while a leader holds its dedup slot, before compiling. Makes
    /// coalescing and drain windows deterministic in the concurrency
    /// tests; leave `0` in production.
    pub compile_hold_ms: u64,
    /// Longest request line (bytes, newline excluded) the transports
    /// will buffer. Past the cap the line is discarded in constant
    /// memory and answered with [`ErrorCode::LineTooLong`] (`S103`);
    /// the session keeps serving. `0` disables the cap.
    pub max_line_bytes: usize,
    /// Test instrumentation: a compile whose request `name` matches
    /// panics deliberately *while holding the in-flight table lock* —
    /// the worst place a compiler bug could fire. The panic-isolation
    /// tests use it to pin that a poisoned lock degrades one request,
    /// not the server. Leave `None` in production.
    pub panic_on_name: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 256,
            quota: None,
            quota_overrides: Vec::new(),
            default_budget_ms: None,
            compile_hold_ms: 0,
            max_line_bytes: 1 << 20,
            panic_on_name: None,
        }
    }
}

/// Locks `mutex`, tolerating poisoning: a thread that panicked while
/// holding a handler lock must degrade *its* request to an error
/// response, not wedge every request that comes after it. All handler
/// state stays consistent under `into_inner` because every critical
/// section leaves the data valid before any operation that can panic
/// (the compile itself runs outside the locks).
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison tolerance as
/// [`lock_unpoisoned`].
pub(crate) fn wait_unpoisoned<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// One handled request: the response document plus whether the request
/// asked the session to shut down.
#[derive(Debug, Clone)]
pub struct Response {
    /// The response, ready to be written as one line.
    pub json: Json,
    /// `true` for an acknowledged `shutdown` verb — the transport
    /// should drain and close.
    pub shutdown: bool,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    accepted: AtomicU64,
    compiled: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_unsafe: AtomicU64,
    errors: AtomicU64,
    /// Gauge: compile requests currently inside the admission gate.
    active: AtomicU64,
}

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// The dedup slot an in-flight compile publishes its result through.
struct InflightSlot {
    result: Mutex<Option<Result<SharedOutcome, DriverError>>>,
    done: Condvar,
}

/// Guarantees a dedup leader always publishes: if the leader unwinds
/// before the normal publish path, the guard retires the slot and
/// publishes a [`DriverError::Panic`] so blocked followers wake with
/// an `S112` answer instead of hanging forever.
struct SlotPublishGuard<'a> {
    handler: &'a Handler,
    fp: Fingerprint,
    slot: &'a Arc<InflightSlot>,
    armed: bool,
}

impl Drop for SlotPublishGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        lock_unpoisoned(&self.handler.inflight).remove(&self.fp);
        *lock_unpoisoned(&self.slot.result) = Some(Err(DriverError::Panic(
            "compile leader panicked before publishing a result".into(),
        )));
        self.slot.done.notify_all();
    }
}

/// Decrements the active gauge even on unwind paths.
struct ActiveGuard<'a>(&'a AtomicU64);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The shared serving core. See the module docs for the gate order.
pub struct Handler {
    cache: Arc<CompileCache>,
    config: ServeConfig,
    counters: Counters,
    inflight: Mutex<HashMap<Fingerprint, Arc<InflightSlot>>>,
    buckets: Mutex<HashMap<String, Bucket>>,
    phase_totals: Mutex<PhaseTimings>,
    draining: AtomicBool,
}

impl std::fmt::Debug for Handler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handler")
            .field("config", &self.config)
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .field("active", &self.active())
            .finish()
    }
}

impl Handler {
    /// A handler serving from (and filling) `cache` under `config`.
    pub fn new(cache: Arc<CompileCache>, config: ServeConfig) -> Handler {
        Handler {
            cache,
            config,
            counters: Counters::default(),
            inflight: Mutex::new(HashMap::new()),
            buckets: Mutex::new(HashMap::new()),
            phase_totals: Mutex::new(PhaseTimings::new()),
            draining: AtomicBool::new(false),
        }
    }

    /// Convenience: a defaulted handler around a fresh cache.
    pub fn with_cache(cache: CompileCache) -> Handler {
        Handler::new(Arc::new(cache), ServeConfig::default())
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Compile requests currently inside the admission gate.
    pub fn active(&self) -> u64 {
        self.counters.active.load(Ordering::Relaxed)
    }

    /// Stops admitting new compiles; in-flight ones run to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`Handler::begin_drain`] was called.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Records a connection-level overload rejection (e.g. the TCP
    /// accept queue was full — the handler never saw a request line).
    pub(crate) fn note_connection_rejected(&self) {
        self.counters
            .rejected_overload
            .fetch_add(1, Ordering::Relaxed);
    }

    /// An exact snapshot of the serve counters (exact once writers are
    /// quiescent).
    pub fn summary(&self) -> ServeSummary {
        let c = &self.counters;
        ServeSummary {
            requests: c.requests.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            compiled: c.compiled.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            rejected_unsafe: c.rejected_unsafe.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    /// The transports' line cap (see [`ServeConfig::max_line_bytes`]).
    pub fn max_line_bytes(&self) -> usize {
        self.config.max_line_bytes
    }

    /// The response for a request line the transport discarded at the
    /// [`ServeConfig::max_line_bytes`] cap. Counted as a request and an
    /// error; answered in the legacy shape since an unread line cannot
    /// name a protocol version (the same convention as unparseable
    /// JSON).
    pub fn reject_oversized_line(&self) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        Response {
            json: Envelope::legacy().error(
                ErrorCode::LineTooLong,
                &format!(
                    "request line exceeds the {}-byte cap and was discarded",
                    self.config.max_line_bytes
                ),
            ),
            shutdown: false,
        }
    }

    /// [`Handler::handle_line`] behind a panic guard: a panic escaping
    /// the handler — a compiler invariant violation outside the compile
    /// guard's own net, or a bug in the serve layer itself — is caught
    /// here and degraded to an `S112` error response, so the serving
    /// thread (stdio loop or TCP worker) survives and keeps answering.
    /// The transports call this, never `handle_line` directly.
    pub fn handle_line_guarded(&self, line: &str) -> Response {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle_line(line))) {
            Ok(response) => response,
            Err(_) => {
                // `handle_line` already counted the request; the panic
                // skipped its error accounting.
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                let envelope = match parse_request(line) {
                    Request::Compile { envelope, .. }
                    | Request::Stats(envelope)
                    | Request::Ping(envelope)
                    | Request::Shutdown(envelope) => envelope,
                    Request::Malformed(_) => Envelope::legacy(),
                };
                Response {
                    json: envelope.error(
                        ErrorCode::CompilerPanic,
                        "request handling panicked; the request was abandoned and the server \
                         kept serving",
                    ),
                    shutdown: false,
                }
            }
        }
    }

    /// Handles one request line and returns the response to write.
    pub fn handle_line(&self, line: &str) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (json, shutdown) = match parse_request(line) {
            Request::Malformed(response) => (response, false),
            Request::Compile {
                envelope,
                request,
                budget_ms,
            } => (self.handle_compile(&envelope, &request, budget_ms), false),
            Request::Stats(envelope) => (self.handle_stats(&envelope), false),
            Request::Ping(envelope) => (envelope.ok(vec![("pong", Json::Bool(true))]), false),
            Request::Shutdown(envelope) => {
                (envelope.ok(vec![("shutdown", Json::Bool(true))]), true)
            }
        };
        if !matches!(json.get("ok"), Some(Json::Bool(true))) {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        Response { json, shutdown }
    }

    fn handle_stats(&self, envelope: &Envelope) -> Json {
        let summary = self.summary();
        if envelope.v1 {
            envelope.ok(vec![
                ("cache", stats_json(&self.cache.stats())),
                ("serve", summary.to_json()),
                ("active", Json::num(self.active())),
                ("draining", Json::Bool(self.draining())),
            ])
        } else {
            // The legacy stats shape, pinned by the compat tests.
            envelope.ok(vec![
                ("cache", stats_json(&self.cache.stats())),
                ("requests", Json::num(summary.requests)),
                ("compiled", Json::num(summary.compiled)),
            ])
        }
    }

    fn handle_compile(
        &self,
        envelope: &Envelope,
        request: &CompileRequest,
        budget_ms: Option<u64>,
    ) -> Json {
        // Gate 1: drain.
        if self.draining() {
            return envelope.error(
                ErrorCode::Draining,
                "server is draining and admits no new compiles",
            );
        }
        // Gate 2: tenant quota.
        if !self.take_token(&envelope.tenant) {
            self.counters.rejected_quota.fetch_add(1, Ordering::Relaxed);
            return envelope.error(
                ErrorCode::QuotaExhausted,
                &format!(
                    "tenant {:?} has exhausted its request quota",
                    envelope.tenant
                ),
            );
        }
        // Gate 3: admission.
        let cap = self.config.max_in_flight;
        let active = self.counters.active.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = ActiveGuard(&self.counters.active);
        if cap != 0 && active as usize > cap {
            self.counters
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            return envelope.error(
                ErrorCode::Overloaded,
                &format!("server at its in-flight cap ({cap}); retry later"),
            );
        }
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);

        // Gate 4: the cache, then dedup and (on a miss) the compile.
        let budget = budget_ms.or(self.config.default_budget_ms);
        let (result, coalesced) = self.compile_deduped(request, budget);
        match result {
            Ok(outcome) => {
                self.counters.compiled.fetch_add(1, Ordering::Relaxed);
                if coalesced {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                } else if outcome.cache == CacheDisposition::Compiled {
                    // Telemetry counts work actually performed, so
                    // cached (re-served) timings are not re-merged.
                    lock_unpoisoned(&self.phase_totals).merge(&outcome.entry.timings);
                } else {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
                envelope.ok(compile_fields(
                    &request.name,
                    (!coalesced).then_some(outcome.cache),
                    outcome.fingerprint,
                    outcome.wall_nanos,
                    &outcome.entry.kernel.stats,
                    outcome.entry.report.as_ref(),
                    outcome.entry.prove,
                    &outcome.entry.timings,
                ))
            }
            Err(DriverError::Unsafe(accesses)) => {
                self.counters
                    .rejected_unsafe
                    .fetch_add(1, Ordering::Relaxed);
                let detail = accesses.first().map_or("", |a| a.detail.as_str());
                envelope.error(
                    ErrorCode::ProvenUnsafe,
                    &format!(
                        "kernel {:?} is proven memory-unsafe and was rejected before \
                         compilation: {detail}",
                        request.name
                    ),
                )
            }
            Err(err) => envelope.error(ErrorCode::from_driver(&err), &err.to_string()),
        }
    }

    /// Answers a memory hit at once, and runs anything else under the
    /// dedup table: the first request for a fingerprint becomes the
    /// leader and compiles; concurrent duplicates block on the slot and
    /// reuse the leader's result. Returns the result plus whether it was
    /// coalesced.
    fn compile_deduped(
        &self,
        request: &CompileRequest,
        budget_ms: Option<u64>,
    ) -> (Result<SharedOutcome, DriverError>, bool) {
        let fp = request.fingerprint();
        if let Some(hit) = lookup(fp, &self.cache) {
            return (Ok(hit), false);
        }
        let slot = {
            let mut inflight = lock_unpoisoned(&self.inflight);
            match inflight.get(&fp) {
                Some(slot) => {
                    // Follower: wait for the leader's published result.
                    // The publish guard below guarantees one arrives
                    // even if the leader panics.
                    let slot = Arc::clone(slot);
                    drop(inflight);
                    let mut result = lock_unpoisoned(&slot.result);
                    while result.is_none() {
                        result = wait_unpoisoned(&slot.done, result);
                    }
                    return (result.clone().expect("published result"), true);
                }
                None => {
                    let slot = Arc::new(InflightSlot {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inflight.insert(fp, Arc::clone(&slot));
                    slot
                }
            }
        };

        // Leader: look the key up once more, compile on a miss, publish
        // and retire the slot. From here to the publish the guard is
        // armed: any unwind still retires the slot and answers the
        // followers. The hold is test-only (`ServeConfig::compile_hold_ms`).
        let mut publish = SlotPublishGuard {
            handler: self,
            fp,
            slot: &slot,
            armed: true,
        };
        if self.config.compile_hold_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                self.config.compile_hold_ms,
            ));
        }
        if self.config.panic_on_name.as_deref() == Some(request.name.as_str()) {
            // Test instrumentation (`ServeConfig::panic_on_name`):
            // panic while holding the in-flight table lock, poisoning
            // it, to pin that poisoning never outlives the request.
            let _poisoner = lock_unpoisoned(&self.inflight);
            panic!("injected compile panic for {:?}", request.name);
        }
        let result = compile_keyed(request, fp, Some(&self.cache), budget_ms);
        publish.armed = false;
        lock_unpoisoned(&self.inflight).remove(&fp);
        *lock_unpoisoned(&slot.result) = Some(result.clone());
        slot.done.notify_all();
        (result, false)
    }

    /// Takes one token from `tenant`'s bucket; `true` when the request
    /// may proceed (including when the tenant is unmetered).
    fn take_token(&self, tenant: &str) -> bool {
        let quota = self
            .config
            .quota_overrides
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, q)| *q)
            .or(self.config.quota);
        let Some(quota) = quota else { return true };
        let now = Instant::now();
        let mut buckets = lock_unpoisoned(&self.buckets);
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: quota.capacity,
            last_refill: now,
        });
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * quota.refill_per_sec).min(quota.capacity);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// The `/metrics`-style text exposition: serve counters, cache
    /// counters and accumulated per-phase compile telemetry, one
    /// `name value` line each (Prometheus text format, counters only).
    pub fn metrics_text(&self) -> String {
        let phases = *lock_unpoisoned(&self.phase_totals);
        // One `<prefix>_<key>_total` line per counter of the record;
        // `hit_rate` is a derived ratio, not a counter.
        let counters = |prefix: &str, record: Json| {
            let Json::Obj(pairs) = record else {
                return String::new();
            };
            pairs
                .iter()
                .filter(|(key, _)| key != "hit_rate")
                .map(|(key, value)| format!("{prefix}_{key}_total {}\n", value.to_compact()))
                .collect()
        };
        let mut out: String = counters("slp_serve", self.summary().to_json());
        out.push_str(&format!("slp_serve_active {}\n", self.active()));
        out.push_str(&format!(
            "slp_serve_draining {}\n",
            u64::from(self.draining())
        ));
        out.push_str(&counters("slp_cache", stats_json(&self.cache.stats())));
        for (phase, nanos) in phases.iter() {
            out.push_str(&format!(
                "slp_phase_nanos_total{{phase=\"{}\"}} {nanos}\n",
                phase.name()
            ));
        }
        out
    }
}
