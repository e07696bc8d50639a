//! Minimal JSON values: deterministic emission and a strict parser.
//!
//! The sweep engine and `SystemReport` serialise results as JSON so that
//! `BENCH_*.json` trajectories can be produced and diffed. The build
//! environment has no registry access, so rather than depending on `serde`
//! this module provides a tiny self-contained value type. Emission is
//! **deterministic**: object keys keep insertion order and numbers use
//! Rust's shortest round-trip formatting, so identical data always yields
//! byte-identical text.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact — counts can exceed 2^53).
    Uint(u64),
    /// Any other number. Non-finite values emit as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved on emission.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: `value.map(f).unwrap_or(Json::Null)`.
    pub fn option<T>(value: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
        value.map(f).unwrap_or(Json::Null)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a complete JSON document (no trailing input allowed).
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message for malformed input, including
    /// arrays and objects nested more than [`MAX_DEPTH`] levels deep.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Uint(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_str(c.encode_utf8(&mut [0u8; 4]))?,
        }
    }
    f.write_str("\"")
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the cap bounds its stack use whatever the
/// input; committed artifacts nest about a dozen levels at most.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or(self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or(self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not paired here; the emitter
                            // never produces them.
                            out.push(char::from_u32(code).ok_or(self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => unreachable!("scan stops only at quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let mut fractional = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !fractional && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_is_deterministic_and_ordered() {
        let v = Json::obj(vec![
            ("b", Json::Uint(2)),
            ("a", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::Str("he\"llo\n".into())),
            ("x", Json::Num(2.5)),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"b":2,"a":[null,true],"s":"he\"llo\n","x":2.5}"#);
        assert_eq!(text, v.to_string(), "repeat emission identical");
    }

    #[test]
    fn parse_round_trips_emitted_text() {
        let v = Json::obj(vec![
            (
                "counts",
                Json::Arr(vec![Json::Uint(0), Json::Uint(u64::MAX)]),
            ),
            ("f", Json::Num(-0.125)),
            ("tiny", Json::Num(3.2e-7)),
            ("none", Json::Null),
            ("tag", Json::Str("π → \"quoted\"\t".into())),
        ]);
        let text = v.to_string();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed.to_string(), text, "byte-identical round trip");
        assert_eq!(parsed, v);
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn get_walks_objects() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let inner = v.get("a").and_then(|a| a.get("b"));
        assert_eq!(
            inner,
            Some(&Json::Arr(vec![
                Json::Uint(1),
                Json::Num(2.5),
                Json::Str("x".into())
            ]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn malformed_input_reports_offset() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.at, 6);
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert_eq!(e.message, "nesting deeper than MAX_DEPTH");
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
    }
}
