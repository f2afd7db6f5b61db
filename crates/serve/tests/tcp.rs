//! TCP adapter integration: real sockets against a real server —
//! envelope round-trips, coalescing and quota rejection over the wire,
//! the metrics endpoint, graceful drain, and a deterministic loadgen
//! run with zero protocol errors.

use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use slp_driver::json::Json;
use slp_driver::CompileCache;
use slp_serve::loadgen::{self, LoadConfig, LoadMix};
use slp_serve::{
    serve_handler, serve_tcp, Handler, QuotaConfig, ServeConfig, TcpOptions, TcpServer,
};

const SRC: &str = "kernel k { array A: f64[16]; array B: f64[16]; \
                   for i in 0..16 { A[i] = A[i] + B[i]; } }";

fn start(config: ServeConfig) -> TcpServer {
    let handler = Handler::new(Arc::new(CompileCache::in_memory(256)), config);
    serve_tcp("127.0.0.1:0", Arc::new(handler), TcpOptions::default()).expect("bind loopback")
}

/// A server whose pool is one worker: whoever holds a connection open
/// holds the pool.
fn start_single_worker() -> TcpServer {
    let handler = Handler::new(
        Arc::new(CompileCache::in_memory(256)),
        ServeConfig::default(),
    );
    let options = TcpOptions {
        workers: 1,
        ..TcpOptions::default()
    };
    serve_tcp("127.0.0.1:0", Arc::new(handler), options).expect("bind loopback")
}

fn ping_line(id: u64) -> String {
    format!("{{\"v\":1,\"id\":{id},\"cmd\":\"ping\"}}")
}

fn compile_line(id: u64, tenant: &str, source: &str) -> String {
    Json::obj(vec![
        ("v", Json::num(1)),
        ("id", Json::num(id)),
        ("tenant", Json::str(tenant)),
        ("cmd", Json::str("compile")),
        ("source", Json::str(source)),
    ])
    .to_compact()
}

/// Sends one line, reads one line.
fn round_trip(stream: &TcpStream, reader: &mut impl BufRead, line: &str) -> Json {
    writeln!(&mut { stream }, "{line}").expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    Json::parse(response.trim_end()).expect("response parses")
}

fn connect(server: &TcpServer) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

#[test]
fn v1_and_legacy_round_trip_over_tcp() {
    let server = start(ServeConfig::default());
    let (stream, mut reader) = connect(&server);

    let r = round_trip(&stream, &mut reader, &compile_line(11, "team", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(r.get("id").and_then(Json::u64), Some(11));
    assert_eq!(r.get("cache").and_then(Json::string), Some("compiled"));

    // A legacy bare request over the same connection.
    let legacy = format!("{{\"cmd\":\"compile\",\"source\":{SRC:?}}}");
    let r = round_trip(&stream, &mut reader, &legacy);
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(r.get("v"), None);
    assert_eq!(r.get("cache").and_then(Json::string), Some("memory"));

    drop((stream, reader));
    let summary = server.shutdown();
    assert_eq!(summary.compiled, 2);
    assert_eq!(summary.cache_hits, 1);
}

/// Acceptance pin: concurrent identical requests over distinct TCP
/// connections coalesce onto one compile.
#[test]
fn coalescing_over_tcp_compiles_once() {
    const CONNS: usize = 4;
    let server = start(ServeConfig {
        compile_hold_ms: 100,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut clients = Vec::new();
    for id in 0..CONNS as u64 {
        clients.push(thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            round_trip(&stream, &mut reader, &compile_line(id, "", SRC))
        }));
    }
    let responses: Vec<Json> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    for r in &responses {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{}", r.to_compact());
    }
    let summary = server.shutdown();
    assert_eq!(summary.compiled, CONNS as u64);
    assert_eq!(
        summary.coalesced + summary.cache_hits,
        CONNS as u64 - 1,
        "one compile, everyone else reuses it: {summary:?}"
    );
    assert!(summary.coalesced >= 1);
    // The wire marks coalesced responses distinctly.
    let coalesced_on_wire = responses
        .iter()
        .filter(|r| r.get("cache").and_then(Json::string) == Some("coalesced"))
        .count() as u64;
    assert_eq!(coalesced_on_wire, summary.coalesced);
}

/// Acceptance pin: quota exhaustion is a typed `S121` over the wire.
#[test]
fn quota_rejection_over_tcp() {
    let server = start(ServeConfig {
        quota_overrides: vec![(
            "hog".to_string(),
            QuotaConfig {
                capacity: 1.0,
                refill_per_sec: 0.0,
            },
        )],
        ..ServeConfig::default()
    });
    let (stream, mut reader) = connect(&server);
    let r = round_trip(&stream, &mut reader, &compile_line(1, "hog", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    let r = round_trip(&stream, &mut reader, &compile_line(2, "hog", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(r.get("code").and_then(Json::string), Some("S121"));
    assert_eq!(r.get("id").and_then(Json::u64), Some(2));
    // Other tenants are unaffected on the same connection.
    let r = round_trip(&stream, &mut reader, &compile_line(3, "polite", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    drop((stream, reader));
    let summary = server.shutdown();
    assert_eq!(summary.rejected_quota, 1);
}

/// An oversized request line over the wire — even as the very first
/// line of the connection — is answered with the typed rejection and
/// the connection keeps serving in order.
#[test]
fn oversized_lines_over_tcp_are_rejected_and_the_connection_survives() {
    let server = start(ServeConfig {
        max_line_bytes: 512,
        ..ServeConfig::default()
    });
    let (stream, mut reader) = connect(&server);

    // First line oversized: the reader must resynchronize on it.
    let huge = compile_line(1, "", &format!("kernel k {{ {} }}", "x".repeat(4096)));
    let r = round_trip(&stream, &mut reader, &huge);
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(r.get("kind").and_then(Json::string), Some("request"));
    assert!(
        r.get("error")
            .and_then(Json::string)
            .is_some_and(|e| e.contains("512-byte cap")),
        "{}",
        r.to_compact()
    );

    // The same connection then pipelines normally, including another
    // oversized line mid-stream.
    let r = round_trip(&stream, &mut reader, &compile_line(2, "", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(r.get("id").and_then(Json::u64), Some(2));
    let r = round_trip(&stream, &mut reader, &huge);
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    let r = round_trip(&stream, &mut reader, "{\"v\":1,\"id\":3,\"cmd\":\"ping\"}");
    assert_eq!(r.get("pong"), Some(&Json::Bool(true)));

    drop((stream, reader));
    let summary = server.shutdown();
    assert_eq!(summary.errors, 2);
    assert_eq!(summary.compiled, 1);
}

/// Panic isolation over the wire: a compile that panics inside the
/// handler answers `S112` on its own connection while other
/// connections (and later requests on the same one) are unaffected.
#[test]
fn panicked_compile_over_tcp_answers_s112_and_the_pool_survives() {
    let server = start(ServeConfig {
        panic_on_name: Some("boom".to_string()),
        ..ServeConfig::default()
    });
    let (stream, mut reader) = connect(&server);

    let boom = Json::obj(vec![
        ("v", Json::num(1)),
        ("id", Json::num(1)),
        ("cmd", Json::str("compile")),
        ("name", Json::str("boom")),
        ("source", Json::str(SRC)),
    ])
    .to_compact();
    let r = round_trip(&stream, &mut reader, &boom);
    assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(r.get("code").and_then(Json::string), Some("S112"));
    assert_eq!(r.get("id").and_then(Json::u64), Some(1));

    // Same connection still answers...
    let r = round_trip(&stream, &mut reader, &compile_line(2, "", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
    // ...and so does a fresh one.
    let (stream2, mut reader2) = connect(&server);
    let r = round_trip(&stream2, &mut reader2, &compile_line(3, "", SRC));
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)));

    drop((stream, reader));
    drop((stream2, reader2));
    let summary = server.shutdown();
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.compiled, 2);
}

#[test]
fn metrics_endpoint_speaks_http() {
    let server = start(ServeConfig::default());
    // Prime a counter so the exposition is non-trivial.
    let (stream, mut reader) = connect(&server);
    round_trip(&stream, &mut reader, &compile_line(1, "", SRC));
    drop((stream, reader));

    let mut http = TcpStream::connect(server.local_addr()).expect("connect");
    write!(http, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send request");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain"), "{response}");
    assert!(
        response.contains("slp_serve_compiled_total 1\n"),
        "{response}"
    );
    assert!(
        response.contains("slp_cache_stores_total 1\n"),
        "{response}"
    );
    server.shutdown();
}

/// A `shutdown` request over TCP ends the whole server via `wait()`,
/// and the drain answers everything already admitted.
#[test]
fn shutdown_request_drains_the_server() {
    let server = start(ServeConfig {
        compile_hold_ms: 150,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // A slow compile in flight on one connection...
    let slow = thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        round_trip(&stream, &mut reader, &compile_line(1, "", SRC))
    });
    while server.handler().active() == 0 {
        thread::sleep(Duration::from_millis(1));
    }
    // ...while another connection asks the server to shut down.
    let (stream, mut reader) = connect(&server);
    let r = round_trip(
        &stream,
        &mut reader,
        "{\"v\":1,\"id\":9,\"cmd\":\"shutdown\"}",
    );
    assert_eq!(r.get("shutdown"), Some(&Json::Bool(true)));

    let summary = server.wait();
    let slow_response = slow.join().expect("slow client");
    assert_eq!(
        slow_response.get("ok"),
        Some(&Json::Bool(true)),
        "the admitted compile must be answered before the server dies"
    );
    assert_eq!(summary.compiled, 1);

    // The listener is really gone.
    thread::sleep(Duration::from_millis(20));
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Some kernels accept briefly after close; a dead server
            // must at least not answer.
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_millis(100))).ok();
            let mut buf = [0u8; 1];
            writeln!(&mut (&s), "{{\"cmd\":\"stats\"}}").ok();
            matches!((&s).read(&mut buf), Ok(0) | Err(_))
        }
    );
}

/// Pipelining: many requests written before any response is read still
/// produce in-order, id-matched responses.
#[test]
fn pipelined_requests_answer_in_order() {
    const N: u64 = 10;
    let server = start(ServeConfig::default());
    let (stream, mut reader) = connect(&server);
    let mut batch = String::new();
    for id in 0..N {
        batch.push_str(&compile_line(id, "", SRC));
        batch.push('\n');
    }
    (&stream).write_all(batch.as_bytes()).expect("write batch");
    for id in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let r = Json::parse(line.trim_end()).expect("parses");
        assert_eq!(r.get("id").and_then(Json::u64), Some(id), "order preserved");
    }
    drop((stream, reader));
    server.shutdown();
}

/// Pipelining is bounded by the socket, not by a queue of the server's:
/// far more lines than any per-connection queue ever held, all written
/// before the first read, are answered in order.
#[test]
fn two_hundred_pipelined_pings_answer_in_order() {
    const N: u64 = 200;
    let server = start(ServeConfig::default());
    let (stream, mut reader) = connect(&server);
    let batch: String = (0..N).map(|id| ping_line(id) + "\n").collect();
    (&stream).write_all(batch.as_bytes()).expect("write batch");
    for id in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        let r = Json::parse(line.trim_end()).expect("parses");
        assert_eq!(r.get("pong"), Some(&Json::Bool(true)));
        assert_eq!(r.get("id").and_then(Json::u64), Some(id), "order preserved");
    }
    drop((stream, reader));
    assert_eq!(server.shutdown().requests, N);
}

/// A client that sends its requests, half-closes and only then reads
/// gets every answer and then EOF: the session ends on the read side's
/// EOF, after the last response went out.
#[test]
fn a_half_closed_client_reads_every_response_then_eof() {
    let server = start(ServeConfig::default());
    let (stream, mut reader) = connect(&server);
    let batch: String = (0..5).map(|id| compile_line(id, "", SRC) + "\n").collect();
    (&stream).write_all(batch.as_bytes()).expect("write batch");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    let ids: Vec<Option<u64>> = rest
        .lines()
        .map(|l| {
            Json::parse(l)
                .expect("parses")
                .get("id")
                .and_then(Json::u64)
        })
        .collect();
    assert_eq!(ids, [Some(0), Some(1), Some(2), Some(3), Some(4)]);
    assert_eq!(server.shutdown().compiled, 5);
}

/// A peer that vanishes mid-line costs the pool nothing: the one worker
/// comes back and serves the next connection.
#[test]
fn a_client_that_disconnects_mid_line_does_not_cost_a_worker() {
    let server = start_single_worker();
    let (stream, reader) = connect(&server);
    let line = compile_line(1, "", SRC);
    (&stream)
        .write_all(&line.as_bytes()[..line.len() / 2])
        .expect("write half a line");
    drop((stream, reader));

    let (stream, mut reader) = connect(&server);
    let r = round_trip(&stream, &mut reader, &ping_line(2));
    assert_eq!(r.get("pong"), Some(&Json::Bool(true)));
    assert_eq!(server.handler().active(), 0);
    drop((stream, reader));
    let summary = server.shutdown();
    // The half line was answered as the malformed request it is.
    assert_eq!((summary.requests, summary.errors), (2, 1));
}

/// Regression: a connection accepted and queued, but not yet claimed by
/// a worker when the drain closed the registered read halves, used to be
/// claimed afterwards and read forever — `shutdown()` never returned.
#[test]
fn a_connection_still_queued_at_shutdown_does_not_wedge_finish() {
    let server = start_single_worker();
    // A owns the worker; B is accepted into the backlog and stays silent.
    let (a, mut a_reader) = connect(&server);
    let r = round_trip(&a, &mut a_reader, &ping_line(1));
    assert_eq!(r.get("pong"), Some(&Json::Bool(true)));
    let _b = connect(&server);
    thread::sleep(Duration::from_millis(100));

    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || done_tx.send(server.shutdown()));
    let summary = done_rx
        .recv_timeout(Duration::from_secs(3))
        .expect("shutdown() returns with a silent connection still queued");
    assert_eq!(summary.requests, 1);
}

/// A `Write` that counts how it is called.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The session loop hands the transport a whole response line, newline
/// included, in one `write` — on a `TCP_NODELAY` socket that is one
/// segment per response, whatever the response is.
#[test]
fn every_response_line_is_one_write() {
    let handler = Handler::new(
        Arc::new(CompileCache::in_memory(16)),
        ServeConfig {
            max_line_bytes: 512,
            ..ServeConfig::default()
        },
    );
    let oversized = compile_line(3, "", &"x".repeat(600));
    let input = [
        compile_line(1, "", SRC),
        compile_line(2, "", SRC),
        oversized,
        ping_line(4),
    ]
    .join("\n");
    let mut out = CountingWriter::default();
    serve_handler(Cursor::new(input), &mut out, &handler).expect("serve I/O");

    let text = String::from_utf8(out.bytes).expect("utf-8");
    assert!(text.ends_with('\n'));
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("parses"))
        .collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(lines[1].get("cache").and_then(Json::string), Some("memory"));
    assert_eq!(lines[2].get("kind").and_then(Json::string), Some("request"));
    assert_eq!(lines[3].get("pong"), Some(&Json::Bool(true)));
    assert_eq!(out.writes, lines.len());
}

/// The deterministic load generator against a real server: valid
/// traffic must produce zero protocol errors, and the same seed must
/// reproduce the same request stream.
#[test]
fn loadgen_sees_zero_protocol_errors() {
    let server = start(ServeConfig {
        quota_overrides: vec![(
            "hog".to_string(),
            QuotaConfig {
                capacity: 2.0,
                refill_per_sec: 0.0,
            },
        )],
        ..ServeConfig::default()
    });
    let config = LoadConfig {
        connections: 4,
        requests_per_connection: 15,
        seed: 42,
        mix: LoadMix::default(),
        quota_tenant: "hog".to_string(),
    };
    let report = loadgen::run(server.local_addr(), &config).expect("loadgen run");
    assert_eq!(report.sent, 4 * 15);
    assert_eq!(
        report.protocol_errors, 0,
        "a healthy server never violates its own protocol"
    );
    assert!(report.ok > 0);
    assert_eq!(report.latencies_nanos.len() as u64, report.sent);
    assert!(report.throughput_rps() > 0.0);
    let summary = server.shutdown();
    assert_eq!(summary.requests, report.sent);
}
