//! A strict JSON parser producing [`JsonValue`] trees, plus read
//! accessors.
//!
//! The serve daemon accepts job requests as JSON bodies and replies with
//! the artifacts [`JsonValue::render`] produces, so the parser lives next
//! to the renderer and round-trips its output exactly: insertion order is
//! preserved, integers stay integers ([`JsonValue::U64`]/[`JsonValue::I64`])
//! and only fractional or exponent forms become [`JsonValue::F64`].
//! Malformed input yields a positioned [`JsonParseError`], never a panic —
//! the daemon's hostile-input guarantee starts here.

use crate::telemetry::JsonValue;

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum nesting depth the parser accepts; hostile bodies cannot force
/// unbounded recursion.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected character '{}'", b as char)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                            let hex =
                                self.bytes.get(self.pos + 1..self.pos + 5).ok_or_else(|| {
                                    JsonParseError {
                                        offset: self.pos,
                                        message: "truncated \\u escape".into(),
                                    }
                                })?;
                            let hex = std::str::from_utf8(hex).map_err(|_| JsonParseError {
                                offset: self.pos,
                                message: "non-ascii \\u escape".into(),
                            })?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| JsonParseError {
                                    offset: self.pos,
                                    message: "bad \\u escape".into(),
                                })?;
                            // Surrogates are rejected rather than paired:
                            // the renderer never emits them.
                            let c = char::from_u32(code).ok_or_else(|| JsonParseError {
                                offset: self.pos,
                                message: "invalid \\u code point".into(),
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is validated UTF-8).
                    let s = &self.as_str()[self.pos..];
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn as_str(&self) -> &'a str {
        // `parse` only constructs the parser from a validated &str.
        std::str::from_utf8(self.bytes).expect("input was a str")
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.as_str()[start..self.pos];
        if !fractional {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(JsonValue::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::F64(v)),
            _ => Err(JsonParseError {
                offset: start,
                message: format!("bad number '{text}'"),
            }),
        }
    }
}

impl JsonValue {
    /// Parses a complete JSON document. Trailing non-whitespace input is
    /// an error.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`JsonParseError`] on any syntax violation;
    /// never panics on hostile input.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after document");
        }
        Ok(value)
    }

    /// Looks up a field of an object (`None` for missing keys or
    /// non-objects). Duplicate keys resolve to the first occurrence, the
    /// one [`JsonValue::render`] would emit first.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`JsonValue::U64`], or an
    /// [`JsonValue::I64`]/integral [`JsonValue::F64`] that fits).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(v) => Some(v),
            JsonValue::I64(v) => u64::try_from(v).ok(),
            JsonValue::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::F64(v) => Some(v),
            JsonValue::U64(v) => Some(v as f64),
            JsonValue::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_rendered_artifacts() {
        let mut doc = JsonValue::object();
        doc.set("schema_version", 1u32)
            .set("name", "two\"lf\n")
            .set("ipc", 1.25)
            .set("count", 42u64)
            .set("neg", -7i64)
            .set("flag", true)
            .set("nothing", JsonValue::Null)
            .set(
                "rows",
                vec![
                    JsonValue::U64(1),
                    JsonValue::F64(0.5),
                    JsonValue::Str("x".into()),
                ],
            );
        let text = doc.render();
        let parsed = JsonValue::parse(&text).expect("parse");
        assert_eq!(parsed, doc);
        // Round-trip is byte-exact: parse(render(x)).render() == render(x).
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn integers_keep_their_type() {
        assert_eq!(JsonValue::parse("7").unwrap(), JsonValue::U64(7));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::I64(-7));
        assert_eq!(JsonValue::parse("7.5").unwrap(), JsonValue::F64(7.5));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::F64(1000.0));
    }

    #[test]
    fn hostile_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "nul",
            "01x",
            "1 2",
            "{\"a\":1,}",
            "[1 2]",
            "\u{1}",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nan",
            "1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must fail");
        }
        // A deeply nested array must hit the depth guard, not the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn accessors_read_fields() {
        let doc = JsonValue::parse(
            "{\"job\": \"campaign\", \"seed\": 2026, \"hw\": 0.5, \"on\": true, \"xs\": [1]}",
        )
        .unwrap();
        assert_eq!(doc.get("job").and_then(JsonValue::as_str), Some("campaign"));
        assert_eq!(doc.get("seed").and_then(JsonValue::as_u64), Some(2026));
        assert_eq!(doc.get("hw").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(doc.get("on").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            doc.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(doc.get("missing").is_none());
        assert!(JsonValue::U64(1).get("x").is_none());
    }

    #[test]
    fn whitespace_and_nesting_parse() {
        let v = JsonValue::parse(" { \"a\" : [ { } , [ ] , null ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
    }
}
