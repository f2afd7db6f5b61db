//! The stdio transport: line-delimited JSON over any
//! `BufRead`/`Write` pair.
//!
//! This is the adapter `slpd` (without `--tcp`) runs: one request per
//! input line, one response per output line, flushed immediately. The
//! protocol — both the v1 envelope and the legacy bare form — is
//! documented in [`crate::protocol`]; all semantics (caching, quotas,
//! dedup, counters) live in [`Handler`], and the session loop itself is
//! the one a TCP worker runs over its socket.

use std::io::{self, BufRead, Write};

use slp_driver::ServeSummary;

use crate::handler::Handler;
use crate::line::{read_line_capped, LineRead};

/// Serves requests from `input` to `output` through `handler` until EOF
/// or a `shutdown` request. Blank lines are ignored; every other line
/// gets exactly one response line, written with its newline in one
/// `write_all` and flushed. Lines past the handler's `max_line_bytes` are
/// discarded in constant memory and answered with `S103`; a request that
/// panics the handler is answered with `S112` — in both cases the loop
/// keeps serving.
pub fn serve_handler<R: BufRead, W: Write>(
    mut input: R,
    output: W,
    handler: &Handler,
) -> io::Result<ServeSummary> {
    let first = read_line_capped(&mut input, handler.max_line_bytes())?;
    session(first, input, output, handler)?;
    Ok(handler.summary())
}

/// The one loop that turns request lines into response lines, for every
/// transport: `read` is the first line (the TCP adapter has looked at it
/// already), the rest come from `input`. `Ok(true)`: the session ended on
/// an acknowledged `shutdown`; `Ok(false)`: on EOF.
pub(crate) fn session<R: BufRead, W: Write>(
    mut read: LineRead,
    mut input: R,
    mut output: W,
    handler: &Handler,
) -> io::Result<bool> {
    let cap = handler.max_line_bytes();
    // Every response of the session is encoded into this one buffer,
    // newline included, and leaves in one write: on a socket that is one
    // segment.
    let mut encoded = String::new();
    loop {
        let response = match read {
            LineRead::Eof => return Ok(false),
            LineRead::TooLong => Some(handler.reject_oversized_line()),
            LineRead::Line(line) if line.trim().is_empty() => None,
            LineRead::Line(line) => Some(handler.handle_line_guarded(&line)),
        };
        if let Some(response) = response {
            encoded.clear();
            response.json.write_compact(&mut encoded);
            encoded.push('\n');
            output.write_all(encoded.as_bytes())?;
            output.flush()?;
            if response.shutdown {
                return Ok(true);
            }
        }
        read = read_line_capped(&mut input, cap)?;
    }
}
