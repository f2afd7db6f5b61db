//! The TCP transport: an accept thread and a worker pool; a session runs
//! whole on the worker that claimed its connection.
//!
//! ```text
//!            accept thread                worker pool (N threads)
//!  clients ──► TcpListener ──► sync_channel(backlog) ──► session:
//!                │ full? write S120 line, drop           read a line,
//!                ▼                                       handle it,
//!            (admission)                                 write the line
//! ```
//!
//! Each accepted connection is driven by one worker, start to finish.
//! The worker looks at the first line: one starting with `GET ` is
//! answered as a one-shot HTTP request with the handler's
//! [`metrics_text`](Handler::metrics_text) exposition (so `curl
//! http://host:port/metrics` works against the same port); anything
//! else enters the line protocol — the loop the stdio transport runs,
//! on this one thread, each response one `write` and so one segment.
//! Clients may pipeline: what they send ahead waits in the `BufReader`
//! and the kernel's receive buffer, and past those TCP backpressure
//! applies; the server queues nothing. Every line is read under the
//! handler's `max_line_bytes` cap: an oversized line is discarded in
//! constant memory and answered with one `S103` error line, in order.
//!
//! Shutdown is graceful in both directions: a `shutdown` request (or
//! [`TcpServer::shutdown`]) puts the handler in drain mode — in-flight
//! compiles finish and are answered, new ones get `S122` — then closes
//! the read half of every live connection, which ends a session blocked
//! in `read`, joins the pool and returns the final [`ServeSummary`].

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use slp_driver::ServeSummary;

use crate::handler::{lock_unpoisoned, wait_unpoisoned, Handler};
use crate::line::{read_line_capped, LineRead};
use crate::protocol::{Envelope, ErrorCode};
use crate::stdio::session;

/// TCP adapter knobs. All fields are public; start from
/// `..Default::default()`.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Worker threads driving connection sessions.
    pub workers: usize,
    /// Accepted-but-unclaimed connection queue depth; past it new
    /// connections are answered with one `S120` line and dropped.
    pub backlog: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            workers: 4,
            backlog: 64,
        }
    }
}

struct Shared {
    handler: Arc<Handler>,
    stop: AtomicBool,
    /// Signalled when some connection receives a `shutdown` request.
    done: (Mutex<bool>, Condvar),
    /// Read-half handles of live connections by peer, closed on drain.
    conns: Mutex<HashMap<SocketAddr, TcpStream>>,
}

impl Shared {
    fn signal_done(&self) {
        let (flag, cv) = &self.done;
        *lock_unpoisoned(flag) = true;
        cv.notify_all();
    }
}

/// A running TCP server; join it with [`wait`](TcpServer::wait) or end
/// it with [`shutdown`](TcpServer::shutdown).
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl TcpServer {
    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared handler (live counters, metrics, drain control).
    pub fn handler(&self) -> &Arc<Handler> {
        &self.shared.handler
    }

    /// Blocks until some connection sends a `shutdown` request, then
    /// drains and returns the final summary.
    pub fn wait(self) -> ServeSummary {
        {
            let (flag, cv) = &self.shared.done;
            let mut done = lock_unpoisoned(flag);
            while !*done {
                done = wait_unpoisoned(cv, done);
            }
        }
        self.finish()
    }

    /// Initiates a graceful drain from the owning thread and returns
    /// the final summary once every in-flight request is answered.
    pub fn shutdown(self) -> ServeSummary {
        self.shared.signal_done();
        self.finish()
    }

    fn finish(self) -> ServeSummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.handler.begin_drain();
        // Wake the blocking accept() so the thread observes `stop`;
        // joining it drops the connection sender, which lets idle
        // workers exit.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept.join();
        for (_, conn) in lock_unpoisoned(&self.shared.conns).drain() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared.handler.summary()
    }
}

/// Binds `addr` and serves the line protocol (plus `GET /metrics`)
/// through `handler` until shut down.
pub fn serve_tcp(
    addr: impl ToSocketAddrs,
    handler: Arc<Handler>,
    options: TcpOptions,
) -> io::Result<TcpServer> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        handler,
        stop: AtomicBool::new(false),
        done: (Mutex::new(false), Condvar::new()),
        conns: Mutex::new(HashMap::new()),
    });

    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(options.backlog.max(1));
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let accept = thread::Builder::new()
        .name("slp-serve-accept".into())
        .spawn({
            let shared = Arc::clone(&shared);
            move || {
                for conn in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    match conn_tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            shared.handler.note_connection_rejected();
                            let line = Envelope::legacy()
                                .error(ErrorCode::Overloaded, "connection queue full; retry later")
                                .to_compact();
                            let _ = writeln!(&stream, "{line}");
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            }
        })?;

    let mut workers = Vec::with_capacity(options.workers.max(1));
    for i in 0..options.workers.max(1) {
        let shared = Arc::clone(&shared);
        let conn_rx = Arc::clone(&conn_rx);
        workers.push(
            thread::Builder::new()
                .name(format!("slp-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &conn_rx))?,
        );
    }

    Ok(TcpServer {
        local_addr,
        shared,
        accept,
        workers,
    })
}

fn worker_loop(shared: &Arc<Shared>, conn_rx: &Mutex<Receiver<TcpStream>>) {
    // The lock is held only to receive — a session runs with the pool
    // free to claim the next connection. No sender: the server is finishing.
    let claim = || lock_unpoisoned(conn_rx).recv().ok();
    while let Some(stream) = claim() {
        let _ = handle_connection(shared, stream);
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    // Responses are single small lines: never let Nagle hold one back
    // against a delayed ACK.
    stream.set_nodelay(true)?;
    let peer = stream.peer_addr()?;
    lock_unpoisoned(&shared.conns).insert(peer, stream.try_clone()?);
    // `finish` closes the read halves it finds registered; a connection
    // claimed from the backlog after that sweep closes its own, or this
    // worker would sit in `read` on a silent peer and never be joined.
    if shared.stop.load(Ordering::SeqCst) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    let result = drive_connection(shared, &stream);
    lock_unpoisoned(&shared.conns).remove(&peer);
    result
}

fn drive_connection(shared: &Arc<Shared>, stream: &TcpStream) -> io::Result<()> {
    let handler = &shared.handler;
    let mut reader = BufReader::new(stream);
    let first = read_line_capped(&mut reader, handler.max_line_bytes())?;
    if matches!(&first, LineRead::Line(line) if line.starts_with("GET ")) {
        return write_metrics_http(stream, handler);
    }
    if session(first, reader, stream, handler)? {
        shared.signal_done();
    }
    Ok(())
}

fn write_metrics_http(mut stream: &TcpStream, handler: &Handler) -> io::Result<()> {
    let body = handler.metrics_text();
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}
