//! `slp-serve` — the concurrent, multi-tenant compile-serving layer.
//!
//! The crate splits serving into three pieces:
//!
//! * [`protocol`] — the versioned line-delimited JSON wire protocol:
//!   the v1 envelope (`{"v":1,"id":…,"tenant":…,"cmd":…}`), the legacy
//!   bare form it remains compatible with, and the stable `S1xx` error
//!   codes;
//! * `handler` — the transport-agnostic [`Handler`]: one request
//!   line in, one response line out, owning the compile cache, the
//!   in-flight deduplication table, the per-tenant token buckets, the
//!   admission gate and the serve counters;
//! * adapters — [`serve_handler`] (line loop over any
//!   `BufRead`/`Write` pair, what `slpd` runs by default) and
//!   [`serve_tcp`] (accept thread, worker pool, bounded backlog,
//!   `GET /metrics`), both thin: every semantic lives in the handler and
//!   both run one session loop, so the transports cannot drift apart.
//!
//! [`loadgen`] is the deterministic load generator the `loadgen`
//! binary (CI's live-`slpd` smoke step) and the `tests/tcp.rs`
//! protocol gate share.
//!
//! The crate is re-exported as part of `slp::driver`, so callers write
//! `slp::driver::{serve_handler, serve_tcp}`.

mod handler;
mod line;
pub mod loadgen;
pub mod protocol;
mod stdio;
mod tcp;

pub use handler::{Handler, QuotaConfig, Response, ServeConfig};
pub use stdio::serve_handler;
pub use tcp::{serve_tcp, TcpOptions, TcpServer};
