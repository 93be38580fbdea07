//! A minimal JSON document builder and parser.
//!
//! The workspace is built in an offline environment without `serde`, so the
//! machine-readable benchmark artifacts (`BENCH_hotpath.json`) are rendered
//! through this small value type instead. It supports exactly what the
//! artifacts need: objects with ordered keys, arrays, strings, integers,
//! and finite floats. [`Json::parse`] reads the same documents back — a
//! crafty-bench test uses it to hold a fresh run's counts to the committed
//! artifact.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (u64 covers every counter the artifacts emit).
    UInt(u64),
    /// A float; non-finite values render as `null` (JSON has no NaN).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object whose keys keep insertion order, so rendered artifacts
    /// diff cleanly between runs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds (or appends — keys are not deduplicated) a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Json {
        match self {
            Json::Object(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: &str, value: Json) -> Json {
        self.set(key, value);
        self
    }

    /// Looks up a field of an object (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for non-arrays).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    /// The value as an `f64` ([`Json::UInt`] widens losslessly enough for
    /// the artifacts' counters).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this builder renders, which is
    /// all the workspace's artifacts use: objects, arrays, strings without
    /// `\u` surrogate pairs, integers, floats, booleans, and `null`).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(value)
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    /// Renders the value with two-space indentation (for committed
    /// artifacts that humans also read).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_sequence(out, depth, pretty, '[', ']', items.len(), |out, i| {
                    items[i].write(out, depth + 1, pretty);
                });
            }
            Json::Object(fields) => {
                write_sequence(out, depth, pretty, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, depth + 1, pretty);
                });
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

fn write_sequence(
    out: &mut String,
    depth: usize,
    pretty: bool,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if pretty {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str("  ");
            }
        }
        item(out, i);
    }
    if pretty && len > 0 {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    out.push(close);
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.at
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.at,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.at,
                        other.map(|c| c as char)
                    ))
                }
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
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.at += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                Some(b) => {
                    // Consume one UTF-8 scalar. The input came in as a
                    // &str, so the byte stream is valid UTF-8 and the
                    // leading byte determines the scalar's width — no need
                    // to re-validate the remainder of the document (which
                    // would make string parsing quadratic).
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let scalar = self
                        .bytes
                        .get(self.at..self.at + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or("truncated UTF-8 scalar")?;
                    out.push_str(scalar);
                    self.at += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|e| format!("invalid number {text:?}: {e}"))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Float(1.5).render(), "1.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::from("a\"b\n").render(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::object()
            .with("z", Json::from(1u64))
            .with("a", Json::Array(vec![Json::from(2u64), Json::Null]));
        assert_eq!(j.render(), "{\"z\":1,\"a\":[2,null]}");
    }

    #[test]
    fn pretty_rendering_indents() {
        let j = Json::object().with("k", Json::Array(vec![Json::from(1u64)]));
        assert_eq!(j.render_pretty(), "{\n  \"k\": [\n    1\n  ]\n}\n");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_on_non_object_panics() {
        Json::Null.set("k", Json::Null);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::object()
            .with("engine", Json::from("Crafty"))
            .with("threads", Json::from(4u64))
            .with("ops_per_sec", Json::Float(123456.78))
            .with(
                "points",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::from("a\"b\n")]),
            );
        for rendered in [doc.render(), doc.render_pretty()] {
            let parsed = Json::parse(&rendered).expect("parse");
            assert_eq!(parsed, doc);
        }
    }

    #[test]
    fn parse_accessors_navigate_documents() {
        let parsed = Json::parse(
            r#"{"config": {"seed": 42}, "points": [{"engine": "Crafty", "ops_per_sec": 1.5e3}]}"#,
        )
        .expect("parse");
        assert_eq!(
            parsed
                .get("config")
                .and_then(|c| c.get("seed"))
                .and_then(Json::as_u64),
            Some(42)
        );
        let point = &parsed.get("points").expect("points").items()[0];
        assert_eq!(point.get("engine").and_then(Json::as_str), Some("Crafty"));
        assert_eq!(
            point.get("ops_per_sec").and_then(Json::as_f64),
            Some(1500.0)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_handles_negative_and_unicode() {
        let parsed = Json::parse(r#"[-2.5, "A\t"]"#).expect("parse");
        assert_eq!(parsed.items()[0].as_f64(), Some(-2.5));
        assert_eq!(parsed.items()[1].as_str(), Some("A\t"));
    }
}
