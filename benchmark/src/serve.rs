//! The two service workloads: `serve_warm` (every request a cache hit)
//! and `serve_cold` (every request unique, one in ten an error).
//!
//! The server runs in this process on a loopback port with two workers;
//! two client threads each drive one connection in a closed loop — the
//! next request goes out when the previous response is in — so at most
//! two requests are in flight, and on the one CPU the process is
//! confined to (see `run_workload`) their work interleaves. A job is one
//! request: its timer covers writing the line and reading the response
//! line.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use slp_core::SafetyCert;
use slp_driver::json::Json;
use slp_driver::{CacheStats, CachedCompile, CompileCache, VerifyLevel};
use slp_serve::protocol::{self, outcome_fields};
use slp_serve::{Handler, TcpOptions, TcpServer};

use crate::inputs::{
    compile_request, kernels, machine, ColdStream, Digest, Expect, Kernel, Pool, Request, Rng,
    Triple, WarmStream, MACHINES,
};
use crate::layers;
use crate::measure::{Fastest, Latencies, Pass, Summary};
use crate::metrics::{RunResult, Values};
use crate::oracle::Oracle;
use crate::os::cpu_nanos;
use crate::stats::Geomean;
use crate::trace::{self, Recorder, Span, Totals, JOB};
use crate::{write_trace, Plan};

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seeded draws from a pool the cache already holds.
    Warm,
    /// Unique requests: compile, store, evict — and the error paths.
    Cold,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Warm => "serve_warm",
            Kind::Cold => "serve_cold",
        }
    }

    /// Length of a pass, seconds: a few rounds of each connection's
    /// stream, so that every pass has the same mix of jobs, and no
    /// longer, so that many passes fit between two disturbances. A
    /// round of `serve_warm` is 160 requests of about 0.1 ms, a round
    /// of `serve_cold` 178 of about 1 ms.
    fn window_s(self) -> f64 {
        match self {
            Kind::Warm => 0.1,
            Kind::Cold => 0.25,
        }
    }

    /// Memory-tier capacity: the warm pool fits, the cold stream
    /// overflows it.
    fn cache_capacity(self) -> usize {
        match self {
            Kind::Warm => 1024,
            Kind::Cold => 256,
        }
    }

    fn stream<'a>(
        self,
        pool: &'a Pool,
        seed: u64,
        conn: usize,
    ) -> Box<dyn Iterator<Item = Request> + Send + 'a> {
        match self {
            Kind::Warm => Box::new(WarmStream::new(pool, seed, conn)),
            Kind::Cold => Box::new(ColdStream::new(pool, seed, conn)),
        }
    }
}

/// Client connections, each served by one of as many workers.
const CONNECTIONS: usize = 2;
/// One response in this many is kept, parsed and compared with an
/// offline compile after the phase.
const SAMPLE_ONE_IN: u64 = 64;
/// Traced jobs between two `ping` round trips on a connection.
const PING_EVERY: u32 = 16;
/// `driver.cache_evictions` counts the evictions that the first
/// this-many rounds of the first connection's traced stream cause in a
/// cache of the workload's capacity: a fixed, seeded sequence, so the
/// count repeats whatever the machine's speed.
const EVICTION_ROUNDS: usize = 2;
/// Lines per connection that enter `input_digest`.
const DIGEST_LINES: usize = 256;

/// What an offline compile says a response must carry.
#[derive(Debug, Clone, PartialEq)]
struct Truth {
    fingerprint: String,
    stmts: u64,
    superwords: u64,
    vectorized_stmts: u64,
}

/// Compiles `kernel` as `triple` says through the library, without any
/// of the wire, the handler or the cache.
fn offline(kernel: &Kernel, triple: Triple) -> Result<(Truth, slp_core::CompiledKernel), String> {
    let req = compile_request(&kernel.name, &kernel.source, triple, VerifyLevel::Static);
    let out = slp_driver::compile_source(&req, None).map_err(|e| e.to_string())?;
    let s = out.kernel.stats;
    let truth = Truth {
        fingerprint: out.fingerprint.to_hex(),
        stmts: s.stmts as u64,
        superwords: s.superwords as u64,
        vectorized_stmts: s.vectorized_stmts as u64,
    };
    Ok((truth, out.kernel))
}

/// Substring check made on every response: `ok`, the expected code or
/// cache disposition, and the echoed id.
fn check(response: &str, req: &Request) -> Result<(), String> {
    let has = |needle: &str| response.contains(needle);
    let id_echo = format!("\"id\":\"{}\"", req.id);
    let ok = match req.expect {
        Expect::Hit => {
            has("\"ok\":true")
                && (has("\"cache\":\"memory\"") || has("\"cache\":\"coalesced\""))
                && has(&id_echo)
        }
        Expect::Compiled => has("\"ok\":true") && has("\"cache\":\"compiled\"") && has(&id_echo),
        Expect::Code(code) => {
            has("\"ok\":false") && has(&format!("\"code\":\"{code}\"")) && has(&id_echo)
        }
        Expect::BadLine => has("\"ok\":false") && has("\"kind\":\"request\""),
    };
    if ok {
        Ok(())
    } else {
        let head: String = response.chars().take(160).collect();
        Err(format!(
            "request {} expected {:?}, got {head}",
            req.id, req.expect
        ))
    }
}

/// A sampled response whose full check needs an offline compile, which
/// waits until the phase is over.
struct Deferred {
    id: String,
    kernel: Kernel,
    entry: usize,
    got: Truth,
}

impl Deferred {
    fn verify(&self, pool: &Pool) -> Result<(), String> {
        let expected = offline(&self.kernel, pool.triples[self.entry])?.0;
        agree(&self.id, &self.got, &expected)
    }
}

fn agree(id: &str, got: &Truth, expected: &Truth) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "request {id}: response says {got:?}, an offline compile {expected:?}"
        ))
    }
}

/// Full check of a sampled response: parse it and compare it with an
/// offline compile of what the request sent — at once against the
/// pool's, later (the returned [`Deferred`]) for a unique kernel.
fn verify_sample(
    req: &Request,
    response: &str,
    truths: &[Truth],
) -> Result<Option<Deferred>, String> {
    let json = Json::parse(response).map_err(|e| format!("response does not parse: {e:?}"))?;
    let code = match req.expect {
        Expect::Hit | Expect::Compiled => None,
        Expect::Code(code) => Some(code),
        Expect::BadLine => return Ok(None),
    };
    if json.get("id").and_then(Json::string) != Some(req.id.as_str()) {
        return Err(format!("request {}: id not echoed", req.id));
    }
    if let Some(code) = code {
        return match json.get("code").and_then(Json::string) {
            Some(c) if c == code && json.get("ok") == Some(&Json::Bool(false)) => Ok(None),
            _ => Err(format!("request {} expected code {code}", req.id)),
        };
    }
    let field = |name: &str| json.get(name).and_then(Json::u64).unwrap_or(u64::MAX);
    let got = Truth {
        fingerprint: json
            .get("fingerprint")
            .and_then(Json::string)
            .unwrap_or_default()
            .to_string(),
        stmts: field("stmts"),
        superwords: field("superwords"),
        vectorized_stmts: field("vectorized_stmts"),
    };
    match (&req.kernel, req.expect) {
        (Some(kernel), Expect::Compiled) => Ok(Some(Deferred {
            id: req.id.clone(),
            kernel: kernel.clone(),
            entry: req.entry,
            got,
        })),
        _ => agree(&req.id, &got, &truths[req.entry]).map(|()| None),
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    response: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark's own server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone the client socket"));
        Conn {
            stream,
            reader,
            out: Vec::new(),
            response: String::new(),
        }
    }

    /// Sends `line` and waits for the response line.
    fn round_trip(&mut self, line: &str) -> &str {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out).expect("write a request");
        self.response.clear();
        let n = self
            .reader
            .read_line(&mut self.response)
            .expect("read a response");
        assert!(n > 0, "the server closed the connection");
        self.response.trim_end()
    }
}

/// What the client threads of a phase share.
#[derive(Default)]
struct Phase {
    /// Set when the phase is over.
    stop: AtomicBool,
    /// Jobs completed so far on all connections; read at the pass
    /// boundaries together with the clocks.
    completed: AtomicU64,
}

/// What one client thread brings back from a phase.
struct ClientResult {
    fastest: Fastest,
    all: Latencies,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Sampled responses whose full check is still due.
    deferred: Vec<Deferred>,
    spans: Vec<Span>,
    values: Values,
    /// Evictions after [`EVICTION_ROUNDS`] rounds of traced jobs.
    evictions: Option<u64>,
}

impl ClientResult {
    fn new(kinds: usize) -> ClientResult {
        ClientResult {
            fastest: Fastest::new(kinds),
            all: Latencies::default(),
            attempted: 0,
            failed: 0,
            first_error: None,
            deferred: Vec::new(),
            spans: Vec::new(),
            values: Values::default(),
            evictions: None,
        }
    }

    fn judge(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// The substring check of every response, and the full check of
    /// one in [`SAMPLE_ONE_IN`].
    fn check(&mut self, req: &Request, response: &str, sample: bool, truths: &[Truth]) {
        self.attempted += 1;
        self.judge(check(response, req));
        if sample {
            match verify_sample(req, response, truths) {
                Ok(deferred) => self.deferred.extend(deferred),
                Err(e) => self.judge(Err(e)),
            }
        }
    }
}

/// What every client thread of a workload is given.
struct ClientSetup<'a> {
    addr: SocketAddr,
    pool: &'a Pool,
    truths: &'a [Truth],
}

/// The untraced closed loop of one connection.
fn client(
    setup: &ClientSetup<'_>,
    requests: impl Iterator<Item = Request>,
    phase: &Phase,
    mut sample_rng: Rng,
) -> ClientResult {
    let mut conn = Conn::open(setup.addr);
    let mut out = ClientResult::new(setup.pool.kinds());
    for req in requests {
        if phase.stop.load(Ordering::Relaxed) {
            break;
        }
        let start = Instant::now();
        let response = conn.round_trip(&req.line);
        let nanos = start.elapsed().as_nanos() as u64;
        phase.completed.fetch_add(1, Ordering::Relaxed);
        out.fastest.record(req.kind, nanos, 0);
        out.all.record(nanos);
        let sample = sample_rng.below(SAMPLE_ONE_IN) == 0;
        out.check(&req, response, sample, setup.truths);
    }
    out
}

/// The handler-side pieces of one request, each replayed as its own
/// span on a private handler and cache beside the real round trip.
struct Replay {
    handler: Handler,
    /// Takes the `put`s of replayed compiles; same capacity as the
    /// server's cache, so it evicts the same way.
    scratch: CompileCache,
}

impl Replay {
    fn new(kind: Kind, pool: &Pool) -> Replay {
        let replay = Replay {
            handler: Handler::with_cache(CompileCache::in_memory(kind.cache_capacity())),
            scratch: CompileCache::in_memory(kind.cache_capacity()),
        };
        if kind == Kind::Warm {
            for entry in 0..pool.len() {
                replay
                    .handler
                    .handle_line(&pool.request(entry, "warm".to_string()).line);
            }
        }
        replay
    }

    fn run(&self, req: &Request, rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
        self.pieces(req, rec, v)?;
        let name = match req.expect {
            Expect::Hit => "serve.handle_line_hit",
            Expect::Compiled => "serve.handle_line_miss",
            Expect::Code(_) | Expect::BadLine => "serve.handle_line_error",
        };
        let response = rec.time(name, || self.handler.handle_line(&req.line));
        check(&response.json.to_compact(), req).map_err(|e| format!("replayed: {e}"))
    }

    /// What `handle_line` does for a compile request, piece by piece.
    fn pieces(&self, req: &Request, rec: &mut Recorder, v: &mut Values) -> Result<(), String> {
        let parsed = rec.time("serve.parse_request", || protocol::parse_request(&req.line));
        let protocol::Request::Compile {
            envelope, request, ..
        } = parsed
        else {
            return match req.expect {
                Expect::BadLine => Ok(()),
                _ => Err(format!("request {} does not parse as a compile", req.id)),
            };
        };
        // Gate 4, as the handler calls it and then call by call.
        let cert = rec.time("serve.certify_source", || {
            slp_driver::certify_source(&request.source)
        });
        frontend(&request.source, rec, v);
        if cert.is_some_and(|c| c.proven_faulting() > 0) {
            return Ok(());
        }
        // The dedup table's key; `compile_guarded` computes its own.
        let fp = rec.time("driver.fingerprint", || request.fingerprint());
        let hit = req.expect == Expect::Hit;
        // A hit reads the private handler's warmed cache; a compile
        // stores into the scratch cache, which is where the evictions
        // are counted.
        let cache = if hit {
            self.handler.cache()
        } else {
            &self.scratch
        };
        let guarded = rec.time("driver.compile_guarded", || {
            slp_driver::compile_guarded(&request, Some(cache), None)
        });

        // Beside the pieces that add up to `handle_line`: the cache and
        // compile calls `compile_guarded` makes, on their own.
        let get = if hit {
            "driver.cache_get_hit"
        } else {
            "driver.cache_get_miss"
        };
        let cached = rec.time(get, || self.handler.cache().get(fp));
        if cached.is_some() != hit {
            return Err(format!("request {}: private cache hit = {}", req.id, !hit));
        }
        let Ok(outcome) = guarded else {
            return Ok(());
        };
        if outcome.cache_hit() != hit {
            return Err(format!("request {}: guarded cache hit = {}", req.id, !hit));
        }
        if !hit {
            let direct = rec.time("driver.compile_source", || {
                slp_driver::compile_source(&request, None)
            });
            if let Ok(out) = direct {
                let entry = CachedCompile {
                    kernel: out.kernel,
                    report: out.report,
                    prove: out.prove,
                    timings: out.timings,
                };
                // The key is already stored: the count of evictions
                // stays that of the request sequence.
                rec.time("driver.cache_put", || self.scratch.put(fp, &entry));
                layers::add_compile(
                    v,
                    request.config.strategy,
                    &entry.kernel.stats,
                    &entry.timings,
                );
                v.add(
                    "verify.static_us",
                    entry.timings.nanos(slp_core::Phase::Verify) as f64 / 1e3,
                );
            }
        }
        rec.time("serve.encode", || {
            envelope
                .ok(outcome_fields(&request.name, &outcome, false))
                .to_compact()
        });
        Ok(())
    }
}

/// `certify_source` call by call: the frontend every request pays.
fn frontend(source: &str, rec: &mut Recorder, v: &mut Values) {
    if let Ok(tokens) = rec.time("lang.lex", || slp_lang::lex(source)) {
        v.add("lang.tokens", tokens.len() as f64);
    }
    let Ok(ast) = rec.time("lang.parse", || slp_lang::parse(source)) else {
        return;
    };
    let Ok(program) = rec.time("lang.lower", || slp_lang::lower(&ast)) else {
        return;
    };
    let _ = rec.time("ir.validate", || program.validate());
    v.add("ir.stmts", program.stmt_count() as f64);
    rec.time("analyze.certify", || SafetyCert::certify(&program));
}

/// The calls `handle_line` makes for a compile request: their spans
/// should add up to the replayed `handle_line`.
const HANDLER_PIECES: [&str; 5] = [
    "serve.parse_request",
    "serve.certify_source",
    "driver.fingerprint",
    "driver.compile_guarded",
    "serve.encode",
];

/// The traced closed loop of one connection: each round trip is a job
/// span, followed by the replay of its pieces.
fn client_traced(
    setup: &ClientSetup<'_>,
    requests: impl Iterator<Item = Request>,
    phase: &Phase,
    epoch: Instant,
    mut sample_rng: Rng,
    replay: &Replay,
    eviction_window: u32,
) -> ClientResult {
    let mut conn = Conn::open(setup.addr);
    let mut out = ClientResult::new(setup.pool.kinds());
    let mut rec = Recorder::new(epoch);
    let mut jobs = 0u32;
    for req in requests {
        // The eviction window is part of the pass however slow the
        // machine.
        if phase.stop.load(Ordering::Relaxed) && jobs >= eviction_window {
            break;
        }
        rec.set_job(jobs);
        let root = rec.enter(JOB);
        let response = conn.round_trip(&req.line);
        rec.exit(root);
        phase.completed.fetch_add(1, Ordering::Relaxed);
        out.values.add("serve.request_bytes", req.line.len() as f64);
        out.values
            .add("serve.response_bytes", response.len() as f64);
        let sample = sample_rng.below(SAMPLE_ONE_IN) == 0;
        out.check(&req, response, sample, setup.truths);
        let replayed = replay.run(&req, &mut rec, &mut out.values);
        out.judge(replayed);
        jobs += 1;
        if jobs == eviction_window {
            out.evictions = Some(replay.scratch.stats().evictions);
        }
        if jobs.is_multiple_of(PING_EVERY) {
            let pong = rec.time("serve.ping_rtt", || {
                conn.round_trip("{\"v\":1,\"id\":\"ping\",\"cmd\":\"ping\"}")
                    .contains("\"pong\":true")
            });
            if !pong {
                out.judge(Err("ping was not answered with pong".to_string()));
            }
        }
    }
    out.spans = rec.into_spans();
    out
}

/// A running server and the handle on its state.
struct Server {
    tcp: TcpServer,
    handler: Arc<Handler>,
}

impl Server {
    /// Starts the service and sends every pool entry once through the
    /// wire: after this, `serve_warm`'s cache holds the whole pool.
    fn start(kind: Kind, pool: &Pool, errors: &mut Vec<String>) -> Server {
        let cache = Arc::new(CompileCache::in_memory(kind.cache_capacity()));
        let handler = Arc::new(Handler::new(cache, slp_serve::ServeConfig::default()));
        let options = TcpOptions {
            workers: CONNECTIONS,
            ..TcpOptions::default()
        };
        let tcp = slp_serve::serve_tcp("127.0.0.1:0", Arc::clone(&handler), options)
            .expect("bind a loopback port");
        let mut conn = Conn::open(tcp.local_addr());
        for entry in 0..pool.len() {
            let mut req = pool.request(entry, format!("setup-{entry}"));
            req.expect = Expect::Compiled;
            let response = conn.round_trip(&req.line);
            if let Err(e) = check(response, &req) {
                errors.push(format!("set-up: {e}"));
            }
        }
        Server { tcp, handler }
    }
}

/// Runs the client threads for `seconds` and returns their results and
/// the passes: the phase is cut by the clock into windows of about
/// `window_s`, and at each boundary the wall clock, the CPU clock and
/// the count of completed jobs are read together.
fn drive<F>(
    connections: usize,
    seconds: f64,
    window_s: f64,
    client: F,
) -> (Vec<ClientResult>, Vec<Pass>)
where
    F: Fn(usize, &Phase) -> ClientResult + Sync,
{
    let windows = (seconds / window_s).round().max(1.0) as u32;
    let phase = Phase::default();
    let epoch = Instant::now();
    let mark = || {
        (
            epoch.elapsed().as_secs_f64(),
            cpu_nanos(),
            phase.completed.load(Ordering::Relaxed),
        )
    };
    thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let (client, phase) = (&client, &phase);
                s.spawn(move || client(conn, phase))
            })
            .collect();
        let mut marks = vec![mark()];
        for window in 1..=windows {
            let due = Duration::from_secs_f64(seconds * f64::from(window) / f64::from(windows));
            thread::sleep(due.saturating_sub(epoch.elapsed()));
            marks.push(mark());
        }
        phase.stop.store(true, Ordering::Relaxed);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        let passes = marks
            .windows(2)
            .map(|m| Pass {
                jobs: m[1].2 - m[0].2,
                busy_s: m[1].0 - m[0].0,
                cpu_s: (m[1].1 - m[0].1) as f64 / 1e9,
            })
            .collect();
        (results, passes)
    })
}

/// Runs one service workload as `plan` says.
pub fn run(kind: Kind, plan: &Plan) -> RunResult {
    let mut errors = Vec::new();

    // Oracle: every pool entry compiled and executed offline.
    let oracle_start = Instant::now();
    let kernel_set = kernels(1, plan.smoke);
    let oracle = Oracle::prepare(&kernel_set);
    let pool = Pool::new(kernel_set);
    let mut truths = Vec::with_capacity(pool.len());
    let mut speedup = Geomean::default();
    for (entry, &t) in pool.triples.iter().enumerate() {
        let (truth, kernel) = offline(pool.kernel(entry), t)
            .unwrap_or_else(|e| panic!("pool entry {entry} does not compile offline: {e}"));
        let mc = machine(MACHINES[t.machine]);
        match slp_vm::execute(&kernel, &mc) {
            Ok(run) if oracle.matches(t.kernel, &run.state) => {
                speedup.add(oracle.scalar_cycles(t.kernel, t.machine) / run.stats.metrics.cycles);
            }
            _ => errors.push(format!("pool entry {entry} fails the memory oracle")),
        }
        truths.push(truth);
    }
    let oracle_s = oracle_start.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    for conn in 0..CONNECTIONS {
        for req in kind.stream(&pool, plan.seed, conn).take(DIGEST_LINES) {
            digest.add(req.line.as_bytes());
        }
    }

    // Set-up: start the service and warm it through the wire.
    let mut setup_s = Vec::new();
    let mut server = None;
    while plan.set_up_again(&setup_s) {
        if let Some(Server { tcp, .. }) = server.take() {
            tcp.shutdown();
        }
        let start = Instant::now();
        server = Some(Server::start(kind, &pool, &mut errors));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran");
    let after_setup = server.handler.cache().stats();

    let setup = ClientSetup {
        addr: server.tcp.local_addr(),
        pool: &pool,
        truths: &truths,
    };

    // The traced pass drives one connection in both its phases: with
    // two, a span on this one CPU would include the time its thread
    // waited for the other connection's work, and would not be a cost.
    let connections = if plan.trace { 1 } else { CONNECTIONS };

    // Untraced phase.
    let window_s = kind.window_s();
    let (results, windows) = drive(
        connections,
        plan.untraced_seconds(),
        window_s,
        |conn, phase| {
            let requests = kind.stream(&pool, plan.seed, conn);
            let sample_rng = Rng::new(plan.seed, 0x300 + conn as u64);
            client(&setup, requests, phase, sample_rng)
        },
    );
    let mut fastest = Fastest::new(pool.kinds());
    let mut all = Latencies::default();
    for r in &results {
        fastest.merge(&r.fastest);
        all.merge(&r.all);
    }
    let summary = Summary::service(&fastest, &windows, &all);

    // Traced phase: fresh connections and the streams of two further
    // connection numbers, so that unique names stay unique.
    let mut traced = Vec::new();
    if plan.trace {
        let replays: Vec<Replay> = (0..connections).map(|_| Replay::new(kind, &pool)).collect();
        let window = (EVICTION_ROUNDS * ColdStream::round_len(&pool)) as u32;
        let epoch = Instant::now();
        let seconds = plan.traced_seconds();
        (traced, _) = drive(connections, seconds, seconds, |conn, phase| {
            let requests = kind.stream(&pool, plan.seed, CONNECTIONS + conn);
            let sample_rng = Rng::new(plan.seed, 0x400 + conn as u64);
            client_traced(
                &setup,
                requests,
                phase,
                epoch,
                sample_rng,
                &replays[conn],
                window,
            )
        });
    }

    // Every client connection is closed; the counters are quiescent.
    let summary_counters = server.tcp.shutdown();
    let cache = server.handler.cache().stats();
    if summary_counters.compiled
        != cache.stores + summary_counters.cache_hits + summary_counters.coalesced
    {
        errors.push(format!(
            "serve counters: compiled {} != stores {} + cache_hits {} + coalesced {}",
            summary_counters.compiled,
            cache.stores,
            summary_counters.cache_hits,
            summary_counters.coalesced
        ));
    }

    let mut attempted = 0;
    let mut failed = 0;
    let evictions = traced.first().and_then(|r| r.evictions);
    let mut values = Values::default();
    let mut span_lists = Vec::new();
    for mut r in results.into_iter().chain(traced) {
        attempted += r.attempted;
        failed += r.failed;
        for deferred in &r.deferred {
            if let Err(e) = deferred.verify(&pool) {
                failed += 1;
                r.first_error.get_or_insert(e);
            }
        }
        if let (Some(e), true) = (r.first_error, errors.is_empty()) {
            errors.push(e);
        }
        values.merge(&r.values);
        span_lists.push(r.spans);
    }

    let metrics = if plan.trace {
        let spans = trace::merge(span_lists);
        let totals = Totals::of(&spans);
        write_trace(kind.name(), &spans);
        per_layer(
            &totals,
            values,
            Counters {
                cache_delta: delta(&after_setup, &cache),
                serve: summary_counters,
                evictions: evictions.unwrap_or(0),
            },
            &summary,
            oracle_s,
            failed as f64 / attempted as f64,
            &mut errors,
        )
    } else {
        summary.end_to_end(&setup_s, speedup.value())
    };

    RunResult {
        workload: kind.name(),
        input_digest: digest.value(),
        attempted,
        failed,
        errors,
        metrics,
        phase: summary.describe(),
    }
}

/// Cache counters since the end of set-up.
fn delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        memory_hits: after.memory_hits - before.memory_hits,
        disk_hits: after.disk_hits - before.disk_hits,
        misses: after.misses - before.misses,
        stores: after.stores - before.stores,
        evictions: after.evictions - before.evictions,
        disk_errors: after.disk_errors - before.disk_errors,
    }
}

/// The server-side counters a traced pass reports.
struct Counters {
    cache_delta: CacheStats,
    serve: slp_driver::ServeSummary,
    evictions: u64,
}

fn per_layer(
    totals: &Totals,
    mut v: Values,
    counters: Counters,
    untraced: &crate::measure::Summary,
    oracle_s: f64,
    failed_share: f64,
    errors: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let jobs = totals.jobs() as f64;
    // The handler does not hand out a span for `compile_timed`; its
    // phase timings come back in the outcome, and `core.compile_us` is
    // their sum.
    v.set("core.compile_us", layers::core_phase_sum_us(&v) / jobs);
    v.set("verify.static_us", v.get("verify.static_us") / jobs);
    v.set("driver.cache_hit_share", counters.cache_delta.hit_rate());
    v.set("driver.cache_evictions", counters.evictions as f64);
    let s = &counters.serve;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    v.set("serve.coalesced_share", share(s.coalesced, s.compiled));
    v.set(
        "serve.rejected_share",
        share(
            s.rejected_overload + s.rejected_quota + s.rejected_unsafe,
            s.requests,
        ),
    );
    let handled: f64 = [
        "serve.handle_line_hit",
        "serve.handle_line_miss",
        "serve.handle_line_error",
    ]
    .iter()
    .map(|span| totals.micros(span))
    .sum();
    let round_trips = totals.job_nanos as f64 / 1e3;
    // A round trip has no child spans: the server's side of it runs on
    // another thread, behind the socket. It is split into the replayed
    // `handle_line` and the rest — the wire: socket, line framing,
    // thread hand-offs and waiting for a core — and `handle_line` is
    // reconciled with the replayed pieces.
    v.set("serve.wire_us", (round_trips - handled) / jobs);
    let pieces: f64 = HANDLER_PIECES.iter().map(|span| totals.micros(span)).sum();
    let unaccounted = (handled - pieces) / round_trips;
    v.set("trace.unaccounted_share", unaccounted);
    if unaccounted > crate::MAX_UNACCOUNTED_SHARE {
        errors.push(format!(
            "the replayed pieces leave {:.1} % of the round trip unaccounted",
            unaccounted * 100.0
        ));
    }
    layers::finish(totals, &mut v, untraced, oracle_s, failed_share);
    layers::assemble(totals, &v)
}
