//! Minimal hand-rolled JSON: the workspace builds without registry
//! access, so there is no serde. One shared parser/escaper serves both
//! consumers — the conformance golden tables
//! ([`crate::conformance`]) and the `commloc serve` request protocol —
//! instead of each growing its own dialect.
//!
//! Supported subset: objects (field order preserved), arrays, strings,
//! finite numbers (a digit-only literal within `u64` exactly, as
//! [`Json::Integer`]), and booleans. `null` is deliberately absent — every
//! producer in this repo omits unknown/absent fields rather than writing
//! `null`, and every consumer (the CI output-sanity gates, served-result
//! clients) is promised that any present field is a real value.
//!
//! Objects and arrays nest at most [`MAX_DEPTH`] deep: the parser
//! recurses once per level, so an unbounded line could overflow the
//! stack of whichever thread reads it (a serve request arrives on one).

use std::fmt;

/// The deepest nesting of objects and arrays [`Json::parse`] accepts.
/// Serve requests nest two deep and the golden tables four.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Fields in document order.
    Object(Vec<(String, Json)>),
    /// Items in document order.
    Array(Vec<Json>),
    /// A string value.
    String(String),
    /// A finite numeric value.
    Number(f64),
    /// A non-negative integer literal, held exactly.
    Integer(u64),
    /// `true` or `false`.
    Bool(bool),
}

impl Json {
    /// Parses a complete document (rejects trailing garbage).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::new(text).parse_document()
    }

    /// The value as an owned string.
    ///
    /// # Errors
    ///
    /// Errors unless the value is a JSON string.
    pub fn as_string(&self) -> Result<String, String> {
        match self {
            Json::String(s) => Ok(s.clone()),
            _ => Err("expected a string".into()),
        }
    }

    /// The value as a number.
    ///
    /// # Errors
    ///
    /// Errors unless the value is a JSON number.
    pub fn as_number(&self) -> Result<f64, String> {
        match self {
            Json::Number(n) => Ok(*n),
            Json::Integer(n) => Ok(*n as f64),
            _ => Err("expected a number".into()),
        }
    }

    /// The value as a non-negative integer (a JSON number with no
    /// fractional part).
    ///
    /// # Errors
    ///
    /// Errors unless the value is a whole number in `u64` range.
    pub fn as_u64(&self) -> Result<u64, String> {
        if let Json::Integer(n) = self {
            return Ok(*n);
        }
        // `u64::MAX as f64` is 2^64, one past the range.
        let n = self.as_number()?;
        if n.fract() == 0.0 && (0.0..u64::MAX as f64).contains(&n) {
            Ok(n as u64)
        } else {
            Err(format!("expected a non-negative integer, got {n}"))
        }
    }

    /// The value as a boolean.
    ///
    /// # Errors
    ///
    /// Errors unless the value is `true` or `false`.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".into()),
        }
    }

    /// Looks up a field of an object (`None` when absent).
    ///
    /// # Errors
    ///
    /// Errors when the value is not an object.
    pub fn field(&self, name: &str) -> Result<Option<&Json>, String> {
        match self {
            Json::Object(fields) => Ok(fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)),
            _ => Err(format!("expected an object around `{name}`")),
        }
    }

    /// The object's fields in document order.
    ///
    /// # Errors
    ///
    /// Errors unless the value is an object.
    pub fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(fields) => Ok(fields),
            _ => Err("expected an object".into()),
        }
    }

    /// The array's items.
    ///
    /// # Errors
    ///
    /// Errors unless the value is an array.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            _ => Err("expected an array".into()),
        }
    }
}

impl fmt::Display for Json {
    /// Compact single-line rendering; numbers print with `{:?}` (shortest
    /// representation that round-trips the exact `f64` bits).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Object(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", json_string(k))?;
                }
                write!(f, "}}")
            }
            Json::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::String(s) => write!(f, "{}", json_string(s)),
            Json::Number(n) => write!(f, "{n:?}"),
            Json::Integer(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal recursive-descent parser for the supported subset.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Json, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? != byte {
            return Err(format!("expected `{}` at byte {}", byte as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Json::String(self.parse_string()?)),
            b't' | b'f' => self.parse_bool(),
            _ => self.parse_number(),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found `{}`", other as char)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected `,` or `]`, found `{}`", other as char)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        // `\uXXXX`, as [`json_string`] writes control
                        // characters (no surrogate pairs).
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            out.push(code.and_then(char::from_u32).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("unsupported escape {other:?}"));
                        }
                    }
                    self.pos += 1;
                }
                Some(byte) => {
                    // Multi-byte UTF-8 passes through untouched.
                    let start = self.pos;
                    let len = utf8_len(byte);
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Json, String> {
        for (text, value) in [("true", true), ("false", false)] {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                return Ok(Json::Bool(value));
            }
        }
        Err(format!("unrecognized literal at byte {}", self.pos))
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes")?;
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Integer(n));
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("`{text}` is not a number (byte {start})"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let doc = r#"{"a":1.5,"b":[true,false,"x"],"c":{"d":-2e3}}"#;
        let parsed = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
    }

    #[test]
    fn escaped_control_characters_round_trip() {
        let text = "a\u{1}b\u{1f}\"\\\n\t";
        let doc = Json::parse(&json_string(text)).unwrap();
        assert_eq!(doc, Json::String(text.to_owned()));
        assert!(Json::parse(r#""\u00zz""#).is_err());
        assert!(
            Json::parse(r#""\ud800""#).is_err(),
            "a lone surrogate is no char"
        );
    }

    #[test]
    fn bools_parse_and_render() {
        let v = Json::parse("{\"on\": true, \"off\": false}").unwrap();
        assert_eq!(v.field("on").unwrap().unwrap().as_bool(), Ok(true));
        assert_eq!(v.field("off").unwrap().unwrap().as_bool(), Ok(false));
        assert!(Json::parse("truthy").is_err());
        assert!(Json::parse("null").is_err(), "null is outside the subset");
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Number(42.0).as_u64(), Ok(42));
        assert!(Json::Number(1.5).as_u64().is_err());
        assert!(Json::Number(-1.0).as_u64().is_err());
    }

    #[test]
    fn integer_literals_are_exact_over_u64() {
        for n in [0, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let v = Json::parse(&n.to_string()).unwrap();
            assert_eq!(v, Json::Integer(n));
            assert_eq!(v.as_u64(), Ok(n));
            assert_eq!(v.to_string(), n.to_string());
        }
        // Past `u64`, a digit literal is a float, which no integer field
        // takes: 2^64 no longer saturates to `u64::MAX`.
        assert!(Json::parse("18446744073709551616")
            .unwrap()
            .as_u64()
            .is_err());
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Ok(1_000));
        assert_eq!(Json::parse("7").unwrap().as_number(), Ok(7.0));
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok(), "at the limit");
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("deeper than 64 levels"), "{e}");
        // Objects count alike, and an unclosed flood fails at the limit
        // instead of recursing through it.
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects)
            .unwrap_err()
            .contains("deeper than 64"));
        let flood = "[".repeat(100_000);
        assert!(Json::parse(&flood).unwrap_err().contains("deeper than 64"));
    }

    #[test]
    fn field_lookup_and_missing() {
        let v = Json::parse("{\"x\": 1}").unwrap();
        assert!(v.field("x").unwrap().is_some());
        assert!(v.field("y").unwrap().is_none());
        assert!(Json::Number(1.0).field("x").is_err());
    }
}
