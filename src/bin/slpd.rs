//! `slpd` — the SLP compile server.
//!
//! ```text
//! slpd serve [options]
//!
//! transport:
//!   (default)            line-delimited JSON over stdin/stdout
//!   --tcp ADDR           serve TCP on ADDR (e.g. 127.0.0.1:7474);
//!                        the same port answers `GET /metrics`
//!
//! cache:
//!   --cache-dir DIR      disk cache location (default: .slp-cache)
//!   --no-cache           in-memory caching only, no disk tier
//!   --memory N           in-memory LRU capacity (default: 256)
//!
//! serving:
//!   --max-in-flight N    admission cap on concurrent compiles
//!                        (default: 256, 0 = unlimited)
//!   --quota CAP:REFILL   per-tenant token bucket: capacity and
//!                        tokens-per-second (default: unmetered)
//!   --budget-ms N        default compile deadline, checked between stages
//!   --workers N          TCP worker threads (default: 4)
//! ```
//!
//! One request per input line, one response per output line, flushed
//! immediately. Requests use the versioned v1 envelope
//! (`{"v":1,"id":…,"tenant":…,"cmd":…}`) or the legacy bare form;
//! see `slp::driver` (the `slp-serve` protocol module) for the full
//! schema and the `S100`-series error codes.
//!
//! The `compile` verb accepts a `strategy` field naming any pipeline
//! strategy: `scalar`, `native` (alias `auto-adjacent`), `slp`,
//! `global` (the default) or `optimal`.
//!
//! All requests share one content-addressed compile cache (in-memory
//! sharded LRU plus a disk tier under `.slp-cache/` by default), so
//! repeated sources are answered without recompiling — across requests,
//! across connections and, via the disk tier, across server restarts.
//! Identical requests in flight at the same time are coalesced onto a
//! single compile.
//!
//! The stdio loop ends on EOF or a `{"cmd":"shutdown"}` request; a TCP
//! server drains gracefully on `shutdown`. A summary line goes to
//! stderr. Exit codes: 0 success, 1 I/O error, 2 usage error.

use std::process::ExitCode;
use std::sync::Arc;

use slp::driver::{
    serve_handler, serve_tcp, Handler, QuotaConfig, ServeConfig, TcpOptions, DEFAULT_DISK_DIR,
    DEFAULT_MEMORY_CAPACITY,
};
use slp::prelude::{CompileCache, ServeSummary};

struct Options {
    cache_dir: Option<String>,
    no_cache: bool,
    memory: usize,
    tcp: Option<String>,
    workers: usize,
    serve: ServeConfig,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: slpd serve [--tcp ADDR] [--cache-dir DIR] [--no-cache] [--memory N] \
         [--max-in-flight N] [--quota CAP:REFILL] [--budget-ms N] [--workers N]"
    );
    ExitCode::from(2)
}

fn parse_quota(text: &str) -> Option<QuotaConfig> {
    let (cap, refill) = text.split_once(':')?;
    Some(QuotaConfig {
        capacity: cap.trim().parse().ok().filter(|c: &f64| *c >= 0.0)?,
        refill_per_sec: refill.trim().parse().ok().filter(|r: &f64| *r >= 0.0)?,
    })
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1).peekable();
    // The verb is optional — `slpd` alone serves too.
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
    }
    let mut opts = Options {
        cache_dir: None,
        no_cache: false,
        memory: DEFAULT_MEMORY_CAPACITY,
        tcp: None,
        workers: 4,
        serve: ServeConfig::default(),
    };
    let text = |s: &str| Some(s.to_string());
    let positive = |s: &str| s.parse().ok().filter(|&n: &usize| n > 0);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => opts.cache_dir = Some(flag(&mut args, text)?),
            "--no-cache" => opts.no_cache = true,
            "--memory" => opts.memory = flag(&mut args, positive)?,
            "--tcp" => opts.tcp = Some(flag(&mut args, text)?),
            "--max-in-flight" => opts.serve.max_in_flight = flag(&mut args, |s| s.parse().ok())?,
            "--quota" => opts.serve.quota = Some(flag(&mut args, parse_quota)?),
            "--budget-ms" => {
                opts.serve.default_budget_ms = Some(flag(&mut args, |s| s.parse().ok())?)
            }
            "--workers" => opts.workers = flag(&mut args, positive)?,
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

/// The value after a flag, through `parse`; a missing or unparsable one
/// is a usage error.
fn flag<T>(
    args: &mut impl Iterator<Item = String>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ExitCode> {
    args.next().as_deref().and_then(parse).ok_or_else(usage)
}

fn report(summary: &ServeSummary, cache: &CompileCache) {
    let stats = cache.stats();
    eprintln!(
        "slpd: {} request(s), {} accepted, {} compiled, {} cache hit(s), {} coalesced, \
         {} overload + {} quota rejection(s), {} error(s); cache hit rate {:.1}%",
        summary.requests,
        summary.accepted,
        summary.compiled,
        summary.cache_hits,
        summary.coalesced,
        summary.rejected_overload,
        summary.rejected_quota,
        summary.errors,
        stats.hit_rate() * 100.0
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let cache = Arc::new(if opts.no_cache {
        CompileCache::in_memory(opts.memory)
    } else {
        let dir = opts
            .cache_dir
            .as_deref()
            .unwrap_or(DEFAULT_DISK_DIR)
            .to_string();
        CompileCache::with_disk(opts.memory, dir)
    });
    let handler = Arc::new(Handler::new(Arc::clone(&cache), opts.serve));

    if let Some(addr) = opts.tcp {
        let server = match serve_tcp(
            addr.as_str(),
            Arc::clone(&handler),
            TcpOptions {
                workers: opts.workers,
                ..TcpOptions::default()
            },
        ) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("slpd: cannot serve on {addr}: {e}");
                return ExitCode::from(1);
            }
        };
        eprintln!("slpd: serving TCP on {}", server.local_addr());
        let summary = server.wait();
        report(&summary, &cache);
        return ExitCode::SUCCESS;
    }

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve_handler(stdin.lock(), stdout.lock(), &handler) {
        Ok(summary) => {
            report(&summary, &cache);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("slpd: I/O error: {e}");
            ExitCode::from(1)
        }
    }
}
