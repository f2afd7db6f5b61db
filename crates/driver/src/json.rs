//! A minimal JSON value type, writer and parser.
//!
//! The driver speaks JSON in three places — the on-disk cache tier, the
//! `--json` reports of `slpc batch`/`slpc check`, and the line-delimited
//! `slpd serve` protocol — and the build environment has no crates.io
//! access, so this module provides the small self-contained subset the
//! driver needs instead of pulling in `serde`.
//!
//! Design notes:
//!
//! * Objects preserve insertion order (a `Vec` of pairs, not a map), so
//!   serialized output is deterministic — the batch determinism tests
//!   compare encoded kernels byte for byte.
//! * Numbers are `f64`. Every integer the driver serializes (ids, counts,
//!   nanosecond timings) fits `f64` exactly below 2^53; [`Json::u64`]
//!   checks the conversion on the way out.
//! * Floats are written with Rust's shortest-roundtrip formatting, so a
//!   parse of the output restores the exact bit pattern. Non-finite
//!   values are written as the strings `"NaN"`, `"inf"` and `"-inf"`
//!   (plain JSON has no spelling for them); [`Json::f64`] converts them
//!   back.
//! * One grammar, [`Parser`], reads the `&str` it is given in place:
//!   [`Json::parse`] builds the owned tree with it, and [`scan`] lets a
//!   caller read members without one, strings borrowed where unescaped.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Wraps a string slice.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses a JSON document.
    ///
    /// Accepts exactly one value; trailing content (other than whitespace)
    /// is an error. Errors carry the byte offset where parsing failed.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        scan(text, Parser::value)
    }

    /// Wraps an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 2^53 (not representable exactly in an
    /// `f64`); driver quantities never do.
    pub fn num(n: u64) -> Json {
        assert!(n <= (1u64 << 53), "{n} loses precision as f64");
        Json::Num(n as f64)
    }

    /// Wraps a float, spelling out non-finite values as strings.
    pub fn float(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else if x.is_nan() {
            Json::Str("NaN".to_string())
        } else if x > 0.0 {
            Json::Str("inf".to_string())
        } else {
            Json::Str("-inf".to_string())
        }
    }

    /// Looks up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn string(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a float, converting the non-finite spellings back.
    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractional or
    /// out-of-range numbers.
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && *x <= (1u64 << 53) as f64 && x.fract() == 0.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, rejecting fractional or out-of-range
    /// numbers.
    pub(crate) fn i64(&self) -> Option<i64> {
        match self {
            Json::Num(x)
                if x.fract() == 0.0 && *x >= -(1i64 << 53) as f64 && *x <= (1i64 << 53) as f64 =>
            {
                Some(*x as i64)
            }
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the [`Json::to_compact`] bytes to `out`, for a caller that
    /// writes many documents through one buffer.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 => {
                // Integral values (counts, ids, nanos) print without the
                // ".0". The sign bit is written too: "-0" reparses to
                // -0.0 bit-exactly.
                if x.is_sign_negative() {
                    out.push('-');
                }
                push_digits(out, x.abs() as u64);
            }
            // {:?} is Rust's shortest representation that reparses to the
            // same f64 — exactly what a cache format needs.
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Appends the decimal digits of `n`.
fn push_digits(out: &mut String, n: u64) {
    if n >= 10 {
        push_digits(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// Appends the low `digits` hexadecimal digits of `n`, in lower case.
pub(crate) fn push_hex(out: &mut String, n: u64, digits: u32) {
    let digit = |i: u32| char::from(b"0123456789abcdef"[(n >> (4 * i) & 0xf) as usize]);
    out.extend((0..digits).rev().map(digit));
}

/// Writes `s` as a string literal, copying each run that needs no escape
/// in one piece.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `at` is a character boundary.
        out.push_str(&s[run..at]);
        out.push_str(escape);
        if escape == "\\u00" {
            push_hex(out, u64::from(b), 2);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses `text` as one JSON document, read by `value` through the
/// parser: whitespace around the document is skipped, anything after it
/// is an error. [`Json::parse`] is `scan(text, Parser::value)`.
pub fn scan<'a, T>(
    text: &'a str,
    value: impl FnOnce(&mut Parser<'a>) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = value(&mut p)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// The JSON grammar, reading the text of a [`scan`] from a cursor.
#[derive(Debug)]
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// The byte under the cursor.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    /// Reads any value into its owned tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads `open`, then `item`s separated by commas, then `close`.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Parser<'a>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        let mut items = Vec::new();
        self.list(b'[', b']', |p| p.value().map(|item| items.push(item)))?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        let mut pairs = Vec::new();
        self.members(|p, key| p.value().map(|value| pairs.push((key.into_owned(), value))))?;
        Ok(Json::Obj(pairs))
    }

    /// Reads an object, handing each key to `member`, which reads the
    /// value: the object grammar of [`Json::parse`], errors and all.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&mut Parser<'a>, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.list(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            member(p, key)
        })
    }

    /// Reads a string: borrowed from the text when it holds no escape,
    /// owned when it does.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // The longest run without a quote or backslash. Both are
            // ASCII, so a run never splits a character, and the text is
            // UTF-8 already: a run is not validated again, and without an
            // escape it is not copied either.
            let start = self.pos;
            let rest = &self.text.as_bytes()[start..];
            self.pos = (rest.iter().position(|&b| b == b'"' || b == b'\\'))
                .map_or(self.text.len(), |n| start + n);
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(owned.map_or(Cow::Borrowed(run), |s| Cow::Owned(s + run)));
                }
                _ => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(self.escape()?);
                }
            }
        }
    }

    /// Reads the escape at the backslash under the cursor.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let Some(esc) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = (self.text.get(self.pos..self.pos + 4))
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                let mut cp =
                    u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
                self.pos += 4;
                // A character outside the BMP comes as a UTF-16 surrogate
                // pair, the way `json.dumps` writes one by default. A lone
                // or reversed surrogate is no character.
                if (0xd800..0xdc00).contains(&cp) {
                    let low = (self.text.get(self.pos..self.pos + 6))
                        .and_then(|t| t.strip_prefix("\\u"))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .filter(|low| (0xdc00..0xe000).contains(low));
                    if let Some(low) = low {
                        cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                        self.pos += 6;
                    }
                }
                char::from_u32(cp).ok_or_else(|| self.error("non-scalar \\u escape"))?
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let v = Json::obj([
            ("name", Json::str("kernel \"x\"\n")),
            ("n", Json::num(42)),
            (
                "xs",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-1.5)]),
            ),
            ("empty", Json::Arr(vec![])),
            ("eobj", Json::Obj(vec![])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).expect("parses"), v, "{text}");
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.2250738585072014e-308,
            1e300,
            -0.0,
        ] {
            let text = Json::Num(x).to_compact();
            let back = Json::parse(&text).expect("parses").f64().expect("a number");
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        assert!(Json::float(f64::NAN).f64().expect("NaN").is_nan());
        assert_eq!(Json::float(f64::INFINITY).f64(), Some(f64::INFINITY));
        assert_eq!(
            Json::float(f64::NEG_INFINITY).f64(),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"\\q\"", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn large_strings_parse_in_linear_time() {
        // Regression: the string scanner once validated the whole
        // remaining input per character, so this 2 MiB payload took
        // minutes; linear scanning finishes instantly. Mixed escapes
        // keep the fast path honest about resuming after them.
        let s = format!("{}\"quoted\"\n{}", "x".repeat(1 << 20), "é".repeat(1 << 19));
        let text = Json::str(&s).to_compact();
        let v = Json::parse(&text).expect("parses");
        assert_eq!(v.string(), Some(s.as_str()));
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let text = "{\"plain\":\"kernel é\",\"escaped\":\"a\\tb\"}";
        let mut seen = Vec::new();
        scan(text, |p| {
            p.members(|p, key| {
                seen.push((key, p.string()?));
                Ok(())
            })
        })
        .expect("parses");
        assert!(matches!(
            seen[0],
            (Cow::Borrowed("plain"), Cow::Borrowed("kernel é"))
        ));
        assert!(matches!(&seen[1].1, Cow::Owned(s) if s == "a\tb"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_refused() {
        for (text, decoded) in [
            ("\"\\ud83d\\ude00\"", "\u{1f600}"),
            ("\"a\\uD834\\uDD1Eb\"", "a\u{1d11e}b"),
        ] {
            let v = Json::parse(text).expect("a surrogate pair is one character");
            assert_eq!(v.string(), Some(decoded), "{text}");
        }
        for lone in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83dx\"",
        ] {
            let err = Json::parse(lone).expect_err("a lone surrogate is no character");
            assert_eq!(err.message, "non-scalar \\u escape", "{lone}");
        }
    }

    #[test]
    fn control_characters_and_integers_are_written_as_before() {
        let s = Json::str("\u{1}\u{1f}é\"\\/");
        assert_eq!(s.to_compact(), "\"\\u0001\\u001fé\\\"\\\\/\"");
        for (x, text) in [(0.0, "0"), (-0.0, "-0"), (-300.0, "-300"), (1.5, "1.5")] {
            assert_eq!(Json::Num(x).to_compact(), text);
        }
        let max = (1u64 << 53) as f64;
        assert_eq!(Json::Num(max).to_compact(), "9007199254740992");
        assert_eq!(Json::Num(max * 2.0).to_compact(), "1.8014398509481984e16");
    }

    #[test]
    fn object_order_is_preserved() {
        let text = "{\"b\":1,\"a\":2}";
        let v = Json::parse(text).expect("parses");
        assert_eq!(v.to_compact(), text);
    }

    #[test]
    fn integer_accessors_reject_lossy_values() {
        assert_eq!(Json::Num(1.5).u64(), None);
        assert_eq!(Json::Num(-1.0).u64(), None);
        assert_eq!(Json::Num(-3.0).i64(), Some(-3));
        assert_eq!(Json::Num(7.0).u64(), Some(7));
    }
}
