//! Bounded line reading for the wire transports.
//!
//! Both adapters read newline-delimited requests from an untrusted
//! peer. The standard [`BufRead::lines`] iterator buffers until it
//! sees a `\n` — a client (or a port scanner) that never sends one
//! grows the buffer without bound. [`read_line_capped`] holds at most
//! `cap + 1` bytes of a line; past the cap it *streams* the rest
//! of the oversized line to the bit bucket (constant memory), reports
//! [`LineRead::TooLong`], and leaves the reader positioned at the next
//! line so the session can keep serving.

use std::io::{self, BufRead, ErrorKind, Read};

/// One bounded read: a complete line, an oversized one (already
/// discarded through its terminating newline), or end of input.
#[derive(Debug)]
pub(crate) enum LineRead {
    /// A complete line within the cap, `\n`/`\r\n` stripped.
    Line(String),
    /// The line exceeded the cap and was dropped whole. The reader is
    /// positioned after the line's `\n`.
    TooLong,
    /// End of input (a final unterminated line within the cap is still
    /// returned as [`LineRead::Line`] first).
    Eof,
}

/// Reads the next `\n`-terminated line from `reader`, holding at most
/// `cap + 1` bytes in memory (`cap == 0` means unlimited, the historical
/// behavior). Invalid UTF-8 is an [`ErrorKind::InvalidData`] error,
/// matching [`BufRead::lines`].
pub(crate) fn read_line_capped<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<LineRead> {
    // The byte past the cap tells a line at the cap from a longer one.
    let limit = if cap == 0 { u64::MAX } else { cap as u64 + 1 };
    let mut buf = Vec::new();
    reader.by_ref().take(limit).read_until(b'\n', &mut buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() as u64 == limit {
        discard_to_newline(reader)?;
        return Ok(LineRead::TooLong);
    } else if buf.is_empty() {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(LineRead::Line)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8"))
}

/// Consumes input up to and including the next `\n` (or EOF) without
/// buffering it.
fn discard_to_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                reader.consume(newline + 1);
                return Ok(());
            }
            None => {
                let taken = chunk.len();
                reader.consume(taken);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &str, cap: usize) -> Vec<String> {
        let mut reader = Cursor::new(input);
        let mut out = Vec::new();
        loop {
            match read_line_capped(&mut reader, cap).expect("read") {
                LineRead::Line(l) => out.push(l),
                LineRead::TooLong => out.push("<toolong>".into()),
                LineRead::Eof => return out,
            }
        }
    }

    #[test]
    fn splits_lines_like_the_std_iterator() {
        assert_eq!(read_all("a\nbb\r\n\nccc", 0), ["a", "bb", "", "ccc"]);
        assert_eq!(read_all("", 0), Vec::<String>::new());
        assert_eq!(read_all("\n", 0), [""]);
    }

    #[test]
    fn cap_zero_is_unlimited() {
        let long = "x".repeat(100_000);
        assert_eq!(read_all(&format!("{long}\n"), 0), [long]);
    }

    #[test]
    fn line_exactly_at_the_cap_passes() {
        let line = "y".repeat(16);
        assert_eq!(read_all(&format!("{line}\nok"), 16), [line, "ok".into()]);
    }

    #[test]
    fn oversized_line_is_discarded_and_the_stream_resynchronizes() {
        let long = "z".repeat(50);
        let got = read_all(&format!("{long}\nafter\n"), 16);
        assert_eq!(got, ["<toolong>", "after"]);
    }

    #[test]
    fn oversized_unterminated_tail_still_reports() {
        // A peer that sends an endless line and hangs up mid-way.
        let got = read_all(&"q".repeat(40).to_string(), 8);
        assert_eq!(got, ["<toolong>"]);
    }

    #[test]
    fn cap_applies_per_line_not_per_stream() {
        let input = format!(
            "{}\n{}\n{}\n",
            "a".repeat(10),
            "b".repeat(30),
            "c".repeat(10)
        );
        let got = read_all(&input, 16);
        assert_eq!(got, ["a".repeat(10), "<toolong>".into(), "c".repeat(10)]);
    }

    #[test]
    fn invalid_utf8_is_an_io_error() {
        let mut reader = Cursor::new(&[0xffu8, 0xfe, b'\n'][..]);
        let err = read_line_capped(&mut reader, 0).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
