//! A minimal, dependency-free JSON tree: deterministic writer and a
//! strict parser.
//!
//! The workspace builds offline (no `serde_json`), yet the measurement
//! pipeline needs machine-readable artifacts: the committed
//! `BENCH_runtime.json` the CI regression guard re-reads, and the
//! result lines of the end-to-end benchmark. This module supplies
//! exactly that — nothing more.
//!
//! **Determinism contract**: objects are [`std::collections::BTreeMap`]s
//! (key-sorted), integers are emitted as integers (never through `f64`,
//! so no 2^53 precision loss), floats are emitted via Rust's shortest
//! round-trip formatting, and the writer inserts no machine-dependent
//! whitespace. Identical trees therefore serialize to byte-identical
//! text.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (u64-exact, never via f64).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float (non-finite values serialize as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, key-sorted by construction.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn object() -> Self {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts into an object (panics when `self` is not one — a
    /// construction bug, not a data error).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value);
            }
            other => panic!("set({key}) on non-object {other:?}"),
        }
        self
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen; `None` otherwise).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Json::U64(v) => Some(*v as f64),
            #[allow(clippy::cast_precision_loss)]
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64 (`None` for anything else).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the committed-artifact format (diff-friendly, byte-deterministic).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    // Shortest round-trip formatting: deterministic and
                    // re-parses to the identical bits.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (strict: trailing garbage is an
    /// error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at(pos, "trailing characters"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
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

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError::at(*pos, format!("expected `{token}`")))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(JsonError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(JsonError::at(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at(*pos, "unterminated string")),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| JsonError::at(*pos, "bad \\u escape"))?;
                        // Surrogates are rejected rather than paired:
                        // the writer never emits them.
                        let c = char::from_u32(hex)
                            .ok_or_else(|| JsonError::at(*pos, "bad \\u code point"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&byte) => {
                // Copy the full UTF-8 sequence starting here.
                let start = *pos;
                let len = match byte {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(start..start + len)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or_else(|| JsonError::at(start, "invalid UTF-8"))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(JsonError::at(start, "expected value"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| JsonError::at(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_is_sorted_and_roundtrips() {
        let mut obj = Json::object();
        obj.set("zeta", Json::U64(u64::MAX))
            .set("alpha", Json::F64(0.1))
            .set("mid", Json::Arr(vec![Json::Bool(true), Json::Null]))
            .set("name", Json::Str("a \"quoted\"\nline".into()));
        let text = obj.pretty();
        assert!(text.find("\"alpha\"").unwrap() < text.find("\"zeta\"").unwrap());
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn u64_values_survive_exactly() {
        let big = u64::MAX - 1;
        let parsed = Json::parse(&format!("{big}")).unwrap();
        assert_eq!(parsed.as_u64(), Some(big));
    }

    #[test]
    fn identical_trees_serialize_identically() {
        let build = || {
            let mut obj = Json::object();
            obj.set("b", Json::F64(1.5)).set("a", Json::I64(-3));
            obj
        };
        assert_eq!(build().pretty(), build().pretty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn floats_roundtrip_via_shortest_form() {
        for v in [0.1f64, 1e-9, 12345.6789, f64::MAX] {
            let text = Json::F64(v).pretty();
            let Json::F64(back) = Json::parse(text.trim()).unwrap() else {
                panic!("not a float: {text}");
            };
            assert!((back - v).abs() <= f64::EPSILON * v.abs());
        }
        assert_eq!(Json::F64(f64::NAN).pretty().trim(), "null");
    }

    #[test]
    fn nested_structures_parse() {
        let text = r#"{"metrics": {"tput": 123.5, "ok": 10}, "tags": ["a", "b"]}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("ok"))
                .and_then(Json::as_u64),
            Some(10)
        );
        assert_eq!(
            parsed.get("tags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
