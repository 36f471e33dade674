//! A minimal JSON value model, writer, and parser.
//!
//! The workspace builds with zero external dependencies, so the metrics
//! snapshot and the JSONL trace sink carry their own JSON layer. The
//! dialect is deliberately narrow: numbers are unsigned 64-bit integers
//! (everything we serialize — counters, byte offsets, nanosecond
//! durations — is a `u64`), which keeps round-trips exact where `f64`
//! would silently lose precision past 2^53.

use std::fmt::Write as _;

/// A JSON value. Object member order is preserved (insertion order on
/// construction, source order on parse) so serialization is stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integer — the only number form this dialect admits.
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, indent, level, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (level + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse or schema error, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting the decoder follows before reporting an
/// error instead of risking a stack overflow: every level costs a
/// `value` → `array`/`object` frame pair, so one request line of
/// nested `[` would otherwise abort the process. The documents this
/// workspace exchanges nest a handful of levels.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the integer-only dialect described on
/// [`Json`]).
///
/// # Errors
///
/// Malformed input, trailing garbage, floats, negative numbers, or
/// arrays/objects nested deeper than `MAX_DEPTH` (128) levels.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting depth.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Bumps the nesting depth, failing with a [`JsonError`] (not a stack
    /// overflow) on pathologically nested input. Paired with a decrement
    /// in [`Parser::value`]; an error abandons the whole parse, so the
    /// counter need not survive failure.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(&format!("nesting exceeds the supported depth ({MAX_DEPTH})")));
        }
        Ok(())
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                self.enter()?;
                let nested = if open == b'[' { self.array() } else { self.object() }?;
                self.depth -= 1;
                Ok(nested)
            }
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.err("negative numbers are not part of this dialect")),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not part of this dialect"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<u64>().map(Json::Num).map_err(|_| self.err("integer overflows u64"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next `"` or `\` as
            // one slice, so decoding stays linear in the string's length.
            // Both delimiters are ASCII, so the run ends on a character
            // boundary of the `&str` input.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid utf-8"))?);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                // The run stopped at the end of the input.
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate object key `{key}`")));
            }
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(42)),
            ("b".into(), Json::Arr(vec![Json::Null, Json::Bool(true), Json::Str("hi".into())])),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::Num(0))])),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f → unicode".into());
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn multi_byte_utf8_next_to_escapes_round_trips() {
        let v = Json::Str("é\"ü\\ñ\n日本\u{1}語→\t€".into());
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
        // Escapes the writer never emits decode in place, between
        // multi-byte runs.
        let parsed = parse(r#""ß\u00e9→\/😀\b""#).unwrap();
        assert_eq!(parsed, Json::Str("ßé→/😀\u{8}".into()));
        assert!(parse("\"日本").is_err(), "unterminated after a multi-byte run");
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("depth"), "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err(), "objects count toward the same bound");
        // Far past the bound, the guard answers instead of overflowing
        // the stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn preserves_member_order() {
        let parsed = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let Json::Obj(members) = &parsed else { panic!("object") };
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
    }

    #[test]
    fn rejects_dialect_violations() {
        assert!(parse("-1").is_err(), "negative");
        assert!(parse("1.5").is_err(), "float");
        assert!(parse("1e3").is_err(), "exponent");
        assert!(parse("{} garbage").is_err(), "trailing");
        assert!(parse(r#"{"a":1,"a":2}"#).is_err(), "duplicate key");
        assert!(parse("18446744073709551616").is_err(), "u64 overflow");
    }

    #[test]
    fn u64_boundary_is_exact() {
        let v = Json::Num(u64::MAX);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }
}
