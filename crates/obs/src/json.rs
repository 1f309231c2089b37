//! A minimal JSON value, writer, and parser.
//!
//! The workspace deliberately carries no JSON dependency, and the run
//! report only needs a small, predictable subset: objects with sorted
//! string keys, unsigned integers, and strings. This module provides a
//! [`Json`] tree that **preserves object key order** (so schema
//! validation can assert the report's sorted-key guarantee), a compact
//! and a pretty writer, and a recursive-descent parser for the documents
//! this crate itself emits plus general JSON (floats, arrays, escapes).

use std::fmt::Write as _;

/// A parsed or constructed JSON value. Object keys keep insertion /
/// document order — sortedness is the *writer's* contract, and keeping
/// the parse order is what lets validators check it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the report schema's only number shape).
    UInt(u64),
    /// Any other number (floats, negatives).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object entries, if this value is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The value of an object key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The unsigned-integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), keys in stored order.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, keys in stored order.
    pub fn to_pretty(&self) -> String {
        self.to_pretty_at(0)
    }

    /// Serializes with two-space indentation as if the value sat `depth`
    /// levels deep in an enclosing pretty document: the first line is
    /// not indented, and every later line carries `depth` extra levels.
    /// Splicing the result in as a member value of that document gives
    /// the same bytes as pretty-printing the whole document.
    pub fn to_pretty_at(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), depth);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
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
                    break_line(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                break_line(out, indent, depth);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    break_line(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                break_line(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// In pretty mode, starts a new line indented `depth` levels; in
/// compact mode, writes nothing.
fn break_line(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a short run
/// of `[` from an untrusted body overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document. Errors carry a byte offset and a short
/// description.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut parser = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or("\\u escape outside the BMP scalar range")?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid; advance to the next one).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] & 0b1100_0000) == 0b1000_0000
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let value = Json::Obj(vec![
            ("a".to_string(), Json::UInt(7)),
            (
                "b".to_string(),
                Json::Obj(vec![
                    ("inner".to_string(), Json::Str("x \"quoted\"\n".to_string())),
                    (
                        "list".to_string(),
                        Json::Arr(vec![Json::UInt(1), Json::Null]),
                    ),
                ]),
            ),
            ("c".to_string(), Json::Bool(true)),
        ]);
        for text in [value.to_compact(), value.to_pretty()] {
            assert_eq!(parse(&text).expect("parses"), value);
        }
        assert_eq!(
            value.to_compact(),
            r#"{"a":7,"b":{"inner":"x \"quoted\"\n","list":[1,null]},"c":true}"#
        );
    }

    #[test]
    fn pretty_at_depth_splices_into_the_enclosing_document() {
        let inner = Json::Obj(vec![
            ("empty".to_string(), Json::Arr(Vec::new())),
            (
                "list".to_string(),
                Json::Arr(vec![Json::UInt(1), Json::Obj(Vec::new()), Json::Null]),
            ),
            ("x".to_string(), Json::Num(0.5)),
        ]);
        let outer = Json::Arr(vec![Json::Obj(vec![("k".to_string(), inner.clone())])]);
        let spliced = format!("[\n  {{\n    \"k\": {}\n  }}\n]", inner.to_pretty_at(2));
        assert_eq!(outer.to_pretty(), spliced);
        assert_eq!(inner.to_pretty_at(0), inner.to_pretty());
        assert_eq!(
            inner.to_pretty(),
            "{\n  \"empty\": [],\n  \"list\": [\n    1,\n    {},\n    null\n  ],\n  \"x\": 0.5\n}"
        );
    }

    #[test]
    fn parser_handles_numbers_and_ws() {
        let doc = " { \"big\" : 18446744073709551615 , \"neg\" : -1.5e3 , \"z\" : 0 } ";
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("neg"), Some(&Json::Num(-1_500.0)));
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn parser_preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2}"#).expect("parses");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", r#"{"a"}"#, "[1,]", "tru", "\"open", "{} extra"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        let err = parse(&format!("{}1", r#"{"a":"#.repeat(MAX_DEPTH + 1))).unwrap_err();
        assert!(err.starts_with("nesting deeper"), "{err}");
    }

    #[test]
    fn unicode_escapes_and_multibyte_round_trip() {
        let v = parse(r#"{"s":"café ✓"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("café ✓"));
        let mut out = String::new();
        write_escaped(&mut out, "control\u{0001}");
        assert_eq!(out, "\"control\\u0001\"");
    }
}
