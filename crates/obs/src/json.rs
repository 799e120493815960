//! The workspace's JSON document model (the workspace is hermetic —
//! DESIGN.md §2, §9c): every schema this repository emits — `pluto-profile/3`,
//! `pluto-explain/1`, `trace_event/1`, `pluto-stats/1`, `pluto-rpc/1`,
//! `pluto-log/1`, `pluto-bench-pipeline/3`, `pluto-bench-kernels/3` and
//! the `--analyze-json` array (PERFORMANCE.md §5) — is built as a [`Json`]
//! value from the constructors here ([`obj`], [`arr`], [`num`],
//! [`nums`], [`string`], [`ratio`]) and becomes text through exactly two serializers,
//! [`Json::to_compact`] and [`Json::to_pretty`]. [`parse`] reads strict
//! RFC 8259 JSON (no comments, no trailing commas, numbers as `f64`,
//! nesting capped at [`MAX_DEPTH`]) for input that arrives from outside
//! the process: a `pluto-rpc/1` request line, a `BENCH_*.json` baseline.
//!
//! ```
//! use pluto_obs::json::{self, num, obj, string};
//! let doc = obj([("schema", string("pluto-profile/3")), ("n", num(3u64))]);
//! assert_eq!(doc.to_compact(), r#"{"schema": "pluto-profile/3", "n": 3}"#);
//! let v = json::parse(&doc.to_compact()).unwrap();
//! assert_eq!(v.get("schema").unwrap().as_str(), Some("pluto-profile/3"));
//! assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
//! ```

use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Deepest container nesting [`parse`] accepts (the deepest document this
/// workspace emits is 5 levels). Deeper input is a [`ParseError`], not a
/// stack overflow: `plutod` parses request lines from untrusted clients.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects preserve key order and allow duplicate keys
/// ([`get`](Json::get) returns the first match).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (exact for integers up to 2^53 —
    /// ample for nanosecond wall times and counter values in practice).
    /// Non-finite values serialize as `null`.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as ordered key/value pairs.
    Object(Vec<(String, Json)>),
    /// Text that is already [`to_compact`](Json::to_compact) output,
    /// spliced verbatim by both serializers. Built only by `plutod`'s
    /// schedule cache, which keeps each `pluto-explain/1` document as
    /// compact text (a tree is ≈ 5.5× the size) and serves it on a hit
    /// without parsing it back. Accessors see an opaque value.
    Raw(Arc<str>),
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An array from its items.
pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Array(items.into_iter().collect())
}

/// A string value.
pub fn string(s: impl Into<String>) -> Json {
    Json::String(s.into())
}

/// A number from any of the numeric types the documents carry.
pub fn num(n: impl Into<Json>) -> Json {
    n.into()
}

/// An array of numbers.
pub fn nums<N: Copy + Into<Json>>(items: &[N]) -> Json {
    arr(items.iter().map(|&n| num(n)))
}

/// A ratio or rate, rounded to four decimals so that it does not carry
/// sixteen digits of float noise onto the wire.
pub fn ratio(x: f64) -> Json {
    Json::Number((x * 1e4).round() / 1e4)
}

macro_rules! number_from {
    ($($t:ty)*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Number(n as f64)
            }
        }
    )*};
}
number_from!(u8 u32 u64 u128 usize i64 i128 f64);

impl Json {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `Some(&str)` for strings, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(f64)` for numbers, else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` if it is one exactly (integral, in range).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// `Some(bool)` for `true`/`false`, else `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `Some(&[Json])` for arrays, else `None`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `true` only for JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes this value as single-line JSON, with `", "` between
    /// items and `": "` after keys (the separators `ci.sh`'s `grep` gates
    /// and the benchmark's line scanner match on). This is the wire form
    /// of every `pluto-rpc/1` response and `pluto-log/1` record. Integral
    /// numbers print without a fraction; non-finite numbers print as
    /// `null`, so the output is always JSON.
    ///
    /// ```
    /// use pluto_obs::json::{arr, num, obj, Json};
    /// let v = obj([("a", arr([num(1u64), num(2.5)])), ("b", Json::Null)]);
    /// assert_eq!(v.to_compact(), r#"{"a": [1, 2.5], "b": null}"#);
    /// ```
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes this value for files and terminals. One layout rule: a
    /// value is written on one line, in [`to_compact`](Json::to_compact)'s
    /// form, unless it is the document root or contains an array of
    /// objects; such a value puts each of its items on a line of its own,
    /// indented two spaces per level. Same separators as `to_compact`, no
    /// trailing newline.
    ///
    /// ```
    /// use pluto_obs::json::{arr, num, obj};
    /// let v = obj([
    ///     ("meta", obj([("tile", num(8u64))])),
    ///     ("rows", arr([obj([("i", num(0u64))]), obj([("i", num(1u64))])])),
    /// ]);
    /// assert_eq!(
    ///     v.to_pretty(),
    ///     "{\n  \"meta\": {\"tile\": 8},\n  \"rows\": [\n    {\"i\": 0},\n    {\"i\": 1}\n  ]\n}"
    /// );
    /// ```
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// The one writer behind both serializers, so they cannot disagree on
    /// a separator. `level` is `None` under `to_compact`; under
    /// `to_pretty` it is how many containers enclose this value.
    fn write(&self, out: &mut String, level: Option<usize>) {
        // `Some(n)`: this value spreads — each item on a line of its own
        // at level `n + 1`. `None`: it is written on one line.
        let spread = level.filter(|&n| n == 0 || self.holds_object_array());
        let newline = |out: &mut String, level: usize| {
            out.push('\n');
            for _ in 0..level {
                out.push_str("  ");
            }
        };
        let before_item = |out: &mut String, index: usize| {
            if index > 0 {
                out.push(',');
            }
            match spread {
                Some(n) => newline(out, n + 1),
                None if index > 0 => out.push(' '),
                None => {}
            }
        };
        let after_items = |out: &mut String, len: usize| {
            if let (Some(n), true) = (spread, len > 0) {
                newline(out, n);
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(n) if !n.is_finite() => out.push_str("null"),
            Json::Number(n) => {
                // Integers in f64's exact range print as integers.
                let _ = if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(out, "{}", *n as i64)
                } else {
                    write!(out, "{n}")
                };
            }
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    before_item(out, i);
                    v.write(out, spread.map(|n| n + 1));
                }
                after_items(out, items.len());
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    before_item(out, i);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, spread.map(|n| n + 1));
                }
                after_items(out, fields.len());
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }

    /// Whether this value is, or contains, an array with an object in it
    /// — the values [`to_pretty`](Json::to_pretty) spreads over lines.
    fn holds_object_array(&self) -> bool {
        match self {
            Json::Array(items) => items
                .iter()
                .any(|v| matches!(v, Json::Object(_)) || v.holds_object_array()),
            Json::Object(fields) => fields.iter().any(|(_, v)| v.holds_object_array()),
            _ => false,
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.find(|c: char| c == '"' || c == '\\' || (c as u32) < 0x20) {
        out.push_str(&rest[..at]);
        let c = rest[at..]
            .chars()
            .next()
            .expect("find returned a char index");
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document; trailing content (other than
/// whitespace) is an error, as is nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: &str) -> ParseError {
    ParseError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// `depth` is the number of containers already open around this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "unexpected character")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after object key"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    *pos += 1; // consume opening '"'
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogates are rejected rather than paired: the
                        // in-tree emitters never produce them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(err(*pos, "control character in string")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so slicing
                // at char boundaries is safe).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("input was UTF-8"));
            }
        }
    }
}

/// RFC 8259 §6: `[-] (0 | [1-9][0-9]*) [. [0-9]+] [(e|E) [+|-] [0-9]+]`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let leading_zero = bytes.get(*pos) == Some(&b'0');
    let int_digits = digits(pos);
    if int_digits == 0 || (leading_zero && int_digits > 1) {
        return Err(err(start, "invalid number"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(err(start, "invalid number"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(err(start, "invalid number"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Number(n)),
        Ok(_) => Err(err(start, "number out of range")),
        Err(_) => Err(err(start, "invalid number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_document() {
        let v = parse(r#" {"a": [1, -2.5, true, null], "b": {"c": "x\ny"}} "#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2], Json::Bool(true));
        assert!(a[3].is_null());
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn strings_round_trip_through_to_compact() {
        for original in [
            "quote \" slash \\ newline \n tab \t bell \u{7} unicode µ",
            "a\"b\\c\u{0007}d\né",
            "",
            "\r\u{1f}😀",
        ] {
            let text = string(original).to_compact();
            assert!(!text.contains('\n'), "raw newline in {text:?}");
            assert_eq!(parse(&text).unwrap().as_str(), Some(original));
            // Keys take the same path.
            let doc = obj([(original, Json::Null)]).to_compact();
            assert_eq!(parse(&doc).unwrap().get(original), Some(&Json::Null));
        }
        assert_eq!(string("a\u{7}\"").to_compact(), r#""a\u0007\"""#);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""µ""#).unwrap().as_str(), Some("µ"));
        assert!(parse(r#""\ud800""#).is_err()); // lone surrogate
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"abc",
            "{,}",
            "nul",
            "\u{1}",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn number_edge_cases() {
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("0.5e-1").unwrap().as_f64(), Some(0.05));
        // RFC 8259 grammar: no leading zeros, digits on both sides of the
        // point, digits after the exponent marker, no bare sign.
        for bad in [
            "012", "-012", "1.", ".5", "1.e3", "1e", "1e+", "-", "+1", "0x10", "1.5.2",
        ] {
            assert!(parse(bad).is_err(), "accepted non-RFC number {bad:?}");
        }
        // Overflow to ±∞ is rejected, never stored.
        for huge in ["1e999", "-1e999"] {
            let e = parse(huge).unwrap_err();
            assert_eq!(e.message, "number out of range", "{huge}");
        }
        // Underflow rounds to zero, which is a finite number.
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
        // The serializers never write a non-finite number.
        let v = arr([num(f64::INFINITY), num(f64::NEG_INFINITY), num(f64::NAN)]);
        assert_eq!(v.to_compact(), "[null, null, null]");
        assert_eq!(v.to_pretty(), "[\n  null,\n  null,\n  null\n]");
    }

    #[test]
    fn nesting_is_capped() {
        let nested =
            |open: &str, close: &str, n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"x\":", "}", MAX_DEPTH)).is_ok());
        for text in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"x\":", "}", MAX_DEPTH + 1),
            // Unclosed: what a hostile client sends. An error, not a
            // stack overflow.
            "[".repeat(200_000),
        ] {
            let e = parse(&text).unwrap_err();
            assert!(e.message.contains("nesting deeper"), "{e}");
        }
    }

    #[test]
    fn duplicate_keys_first_wins() {
        let v = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn compact_round_trips() {
        let text = "{\n  \"s\": \"a\\n\\\"b\\\"\",\n  \"n\": [0, -3, 2.5, 1e3],\n  \
                    \"o\": {\"empty\": [], \"none\": null, \"t\": true}\n}";
        let v = parse(text).unwrap();
        let compact = v.to_compact();
        assert!(!compact.contains('\n'), "compact output has newlines");
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(
            compact,
            r#"{"s": "a\n\"b\"", "n": [0, -3, 2.5, 1000], "o": {"empty": [], "none": null, "t": true}}"#
        );
    }

    #[test]
    fn pretty_spreads_only_the_root_and_object_arrays() {
        let doc = obj([
            ("schema", string("t/1")),
            (
                "meta",
                obj([("tile", num(8u64)), ("dims", arr([num(1u64), num(2u64)]))]),
            ),
            ("none", arr([])),
            (
                "kernels",
                arr([obj([
                    ("kernel", string("k")),
                    ("params", arr([arr([num(1u64)]), arr([])])),
                    (
                        "phases",
                        arr([obj([("path", string("a")), ("calls", num(1u64))])]),
                    ),
                ])]),
            ),
        ]);
        let want = r#"{
  "schema": "t/1",
  "meta": {"tile": 8, "dims": [1, 2]},
  "none": [],
  "kernels": [
    {
      "kernel": "k",
      "params": [[1], []],
      "phases": [
        {"path": "a", "calls": 1}
      ]
    }
  ]
}"#;
        assert_eq!(doc.to_pretty(), want);
        assert_eq!(parse(want).unwrap(), doc);
        // A root that holds no object array still gets a line per item;
        // empty roots and scalars stay as they are.
        assert_eq!(arr([num(1u64), num(2u64)]).to_pretty(), "[\n  1,\n  2\n]");
        assert_eq!(obj([]).to_pretty(), "{}");
        assert_eq!(Json::Null.to_pretty(), "null");
    }

    #[test]
    fn raw_is_spliced_verbatim() {
        let inner = obj([("rows", arr([obj([("i", num(0u64))])]))]);
        let raw = Json::Raw(inner.to_compact().into());
        let doc = obj([("id", num(1u64)), ("explain", raw.clone())]);
        assert_eq!(
            doc.to_compact(),
            r#"{"id": 1, "explain": {"rows": [{"i": 0}]}}"#
        );
        assert_eq!(
            parse(&doc.to_compact()).unwrap().get("explain"),
            Some(&inner)
        );
        // One line under to_pretty too, and opaque to the accessors.
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"id\": 1,\n  \"explain\": {\"rows\": [{\"i\": 0}]}\n}"
        );
        assert!(raw.get("rows").is_none());
    }
}
