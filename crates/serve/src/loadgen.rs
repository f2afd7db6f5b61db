//! Deterministic load generation against a running TCP server.
//!
//! The generator opens `connections` concurrent TCP sessions and
//! drives a seeded mix of request classes through each:
//!
//! * **warm** — one of a small fixed set of kernels, so after the first
//!   round every request is a cache hit (or coalesces onto an in-flight
//!   compile);
//! * **cold** — a kernel whose source is unique to the (seed,
//!   connection, sequence) triple, so it always misses the cache;
//! * **malformed** — an unparseable line or an unknown v1 command,
//!   expecting an `S100`/`S101` rejection;
//! * **over-quota** — a well-formed compile under a designated tenant
//!   the server meters tightly, expecting success or `S121`.
//!
//! Everything derives from [`LoadConfig::seed`] via xorshift, so two
//! runs with one seed issue byte-identical request streams — the
//! `tests/tcp.rs` protocol gate and the CI smoke job rely on that for
//! reproducible failures.
//!
//! Every response is validated (parses, echoes the request `id`,
//! carries an expected code for its class); violations count into
//! [`LoadReport::protocol_errors`], which a healthy server keeps at 0.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

use slp_driver::json::Json;

/// Relative weights of the request classes (all zero is rejected by
/// [`run`]).
#[derive(Debug, Clone, Copy)]
pub struct LoadMix {
    /// Repeated fixed kernels (cache hits after warm-up).
    pub warm: u32,
    /// Unique-source kernels (always compile).
    pub cold: u32,
    /// Unparseable or unknown-command lines.
    pub malformed: u32,
    /// Compiles under [`LoadConfig::quota_tenant`].
    pub over_quota: u32,
}

impl Default for LoadMix {
    fn default() -> Self {
        LoadMix {
            warm: 6,
            cold: 2,
            malformed: 1,
            over_quota: 1,
        }
    }
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_connection: usize,
    /// Seed for the deterministic request stream.
    pub seed: u64,
    /// Request class mix.
    pub mix: LoadMix,
    /// Tenant name the over-quota class sends under (the server is
    /// expected to meter it tightly).
    pub quota_tenant: String,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 8,
            requests_per_connection: 50,
            seed: 0x5eed_51b0,
            mix: LoadMix::default(),
            quota_tenant: "hog".to_string(),
        }
    }
}

/// What one run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests written.
    pub sent: u64,
    /// `ok:true` responses.
    pub ok: u64,
    /// `ok:false` responses whose code matched the request class
    /// (e.g. `S121` for over-quota, `S100`/`S101` for malformed).
    pub expected_errors: u64,
    /// Responses that violated the protocol: unparseable, wrong `id`
    /// echo, or an error code the request class does not explain.
    pub protocol_errors: u64,
    /// Per-request wall latency, nanoseconds, unsorted.
    pub latencies_nanos: Vec<u64>,
    /// Wall time of the whole run.
    pub wall_nanos: u64,
}

impl LoadReport {
    /// Requests per second over the whole run.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.sent as f64 / (self.wall_nanos as f64 / 1e9)
    }

    /// The `p`-th latency percentile in nanoseconds (nearest-rank;
    /// `p` in 0..=100). Zero when nothing was measured.
    pub fn percentile_nanos(&self, p: f64) -> u64 {
        if self.latencies_nanos.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_nanos.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn absorb(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.expected_errors += other.expected_errors;
        self.protocol_errors += other.protocol_errors;
        self.latencies_nanos.extend(other.latencies_nanos);
    }
}

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Warm,
    Cold,
    Malformed,
    OverQuota,
}

fn pick_class(rng: &mut Rng, mix: &LoadMix) -> Class {
    let total = u64::from(mix.warm + mix.cold + mix.malformed + mix.over_quota);
    let mut roll = rng.pick(total);
    for (weight, class) in [
        (u64::from(mix.warm), Class::Warm),
        (u64::from(mix.cold), Class::Cold),
        (u64::from(mix.malformed), Class::Malformed),
        (u64::from(mix.over_quota), Class::OverQuota),
    ] {
        if roll < weight {
            return class;
        }
        roll -= weight;
    }
    Class::Warm
}

/// The shared warm-set kernel sources.
fn warm_source(slot: u64) -> String {
    format!(
        "kernel warm{slot} {{ array A: f64[64]; array B: f64[64]; \
         for i in 0..32 {{ A[i] = A[i] + B[i] * {slot}.0; }} }}"
    )
}

/// A kernel source unique to `tag` — guaranteed cold for a fresh
/// cache (the tag is part of the kernel name, so the fingerprint of
/// the source text is unique even when the constant collides). A
/// deliberately non-trivial kernel: cold requests should cost what a
/// real compile costs, which is what the cache tier is measured
/// against.
fn cold_source(tag: u64) -> String {
    let k = tag % 1000;
    format!(
        "kernel cold{tag} {{ \
         array A: f64[64]; array B: f64[64]; array C: f64[64]; array D: f64[64]; \
         for i in 0..64 {{ \
         A[i] = A[i] + B[i] * {k}.0; \
         B[i] = B[i] + C[i] * 2.0; \
         C[i] = C[i] + D[i] * 3.0; \
         D[i] = D[i] + A[i] * 4.0; \
         }} }}"
    )
}

fn compile_line(id: u64, tenant: &str, name: &str, source: &str) -> String {
    Json::obj(vec![
        ("v", Json::num(1u64)),
        ("id", Json::num(id)),
        ("tenant", Json::str(tenant)),
        ("cmd", Json::str("compile")),
        ("name", Json::str(name)),
        ("source", Json::str(source)),
    ])
    .to_compact()
}

struct Planned {
    line: String,
    class: Class,
    id: Option<u64>,
}

fn plan_request(rng: &mut Rng, config: &LoadConfig, conn: usize, seq: usize) -> Planned {
    let class = pick_class(rng, &config.mix);
    let id = (conn as u64) << 32 | seq as u64;
    let line = match class {
        Class::Warm | Class::OverQuota => {
            let slot = rng.pick(4);
            let tenant = match class {
                Class::Warm => "bench",
                _ => &config.quota_tenant,
            };
            compile_line(id, tenant, &format!("warm{slot}"), &warm_source(slot))
        }
        Class::Cold => {
            let tag = rng.next();
            compile_line(id, "bench", &format!("cold{tag}"), &cold_source(tag))
        }
        Class::Malformed if rng.pick(2) == 0 => {
            let line = "{this is not json".to_string();
            return Planned {
                line,
                class,
                id: None,
            };
        }
        Class::Malformed => Json::obj(vec![
            ("v", Json::num(1u64)),
            ("id", Json::num(id)),
            ("cmd", Json::str("frobnicate")),
        ])
        .to_compact(),
    };
    Planned {
        line,
        class,
        id: Some(id),
    }
}

/// Checks one response line against its request; returns `(is_ok,
/// is_expected_error)` — both `false` marks a protocol error.
fn judge(planned: &Planned, response: &str) -> (bool, bool) {
    let Ok(doc) = Json::parse(response) else {
        return (false, false);
    };
    // v1 requests must have their id echoed back verbatim.
    if let Some(id) = planned.id {
        if doc.get("id").and_then(Json::u64) != Some(id) {
            return (false, false);
        }
    }
    match doc.get("ok") {
        Some(Json::Bool(true)) => (true, false),
        Some(Json::Bool(false)) => {
            let code = doc
                .get("code")
                .and_then(Json::string)
                .or_else(|| doc.get("kind").and_then(Json::string))
                .unwrap_or_default();
            let expected = match planned.class {
                Class::Malformed => code == "S100" || code == "S101" || code == "request",
                // A metered tenant may be rejected or may have tokens.
                Class::OverQuota => code == "S121",
                // Warm/cold requests are valid: any rejection except a
                // transient overload is a protocol error.
                Class::Warm | Class::Cold => code == "S120" || code == "S122",
            };
            (false, expected)
        }
        _ => (false, false),
    }
}

fn drive_connection(addr: SocketAddr, config: &LoadConfig, conn: usize) -> io::Result<LoadReport> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = &stream;
    let mut rng = Rng::new(config.seed ^ (conn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut report = LoadReport::default();
    let mut response = String::new();
    for seq in 0..config.requests_per_connection {
        let planned = plan_request(&mut rng, config, conn, seq);
        let start = Instant::now();
        writeln!(writer, "{}", planned.line)?;
        writer.flush()?;
        response.clear();
        if reader.read_line(&mut response)? == 0 {
            report.protocol_errors += 1;
            break;
        }
        report.sent += 1;
        report
            .latencies_nanos
            .push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match judge(&planned, response.trim_end()) {
            (true, _) => report.ok += 1,
            (false, true) => report.expected_errors += 1,
            (false, false) => report.protocol_errors += 1,
        }
    }
    Ok(report)
}

/// Runs the configured load against `addr` and aggregates every
/// connection's observations.
pub fn run(addr: SocketAddr, config: &LoadConfig) -> io::Result<LoadReport> {
    let mix = &config.mix;
    if mix.warm + mix.cold + mix.malformed + mix.over_quota == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "load mix has zero total weight",
        ));
    }
    let start = Instant::now();
    let mut report = LoadReport::default();
    thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::with_capacity(config.connections);
        for conn in 0..config.connections.max(1) {
            handles.push(scope.spawn(move || drive_connection(addr, config, conn)));
        }
        for handle in handles {
            match handle.join() {
                Ok(Ok(part)) => report.absorb(part),
                Ok(Err(e)) => return Err(e),
                Err(_) => {
                    return Err(io::Error::other("load connection thread panicked"));
                }
            }
        }
        Ok(())
    })?;
    report.wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Ok(report)
}
