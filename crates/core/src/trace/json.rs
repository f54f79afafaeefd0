//! The crate's JSON: a minimal writer and a recursive-descent parser.
//!
//! The workspace has no JSON dependency. `JsonWriter` renders the run
//! report, the JSONL trace events and the serve slow log; the trace
//! reader ([`super::sink`]) and the `trace-summary` renderer *parse*
//! those events back with [`parse`]. The parser accepts standard JSON
//! (RFC 8259) with two deliberate simplifications: numbers are parsed as
//! `f64` (every number this crate emits round-trips — span nanos are far
//! below 2^53 in practice, and exact integer identity is checked by the
//! tests through `as_u64`), and `\uXXXX` escapes outside the basic
//! multilingual plane are accepted pairwise as surrogates.

use std::fmt;

/// Minimal JSON emitter: tracks whether a comma is due at each nesting
/// level; values are written through typed helpers so escaping and float
/// formatting live in one place.
pub(crate) struct JsonWriter {
    buf: String,
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    pub(crate) fn new() -> Self {
        Self {
            buf: String::new(),
            needs_comma: vec![false],
        }
    }

    pub(crate) fn prep(&mut self) {
        if let Some(due) = self.needs_comma.last_mut() {
            if *due {
                self.buf.push(',');
            }
            *due = true;
        }
    }

    pub(crate) fn begin_obj(&mut self) {
        self.prep();
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    pub(crate) fn end_obj(&mut self) {
        self.needs_comma.pop();
        self.buf.push('}');
    }

    pub(crate) fn begin_arr(&mut self) {
        self.prep();
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    pub(crate) fn end_arr(&mut self) {
        self.needs_comma.pop();
        self.buf.push(']');
    }

    /// Writes `"key":` and suppresses the comma bookkeeping for the value
    /// that follows (the value belongs to this key, not the sequence).
    pub(crate) fn key(&mut self, key: &str) {
        self.prep();
        self.buf.push('"');
        self.buf.push_str(key); // keys are in-tree identifiers, no escaping
        self.buf.push_str("\":");
        if let Some(due) = self.needs_comma.last_mut() {
            *due = false;
        }
    }

    pub(crate) fn raw_value(&mut self, v: &str) {
        self.prep();
        self.buf.push_str(v);
    }

    pub(crate) fn field_usize(&mut self, key: &str, v: usize) {
        self.key(key);
        self.raw_value(&v.to_string());
    }

    pub(crate) fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.raw_value(&v.to_string());
    }

    pub(crate) fn field_bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.raw_value(if v { "true" } else { "false" });
    }

    pub(crate) fn field_f64(&mut self, key: &str, v: f64) {
        self.key(key);
        self.push_f64(v);
    }

    pub(crate) fn field_null(&mut self, key: &str) {
        self.key(key);
        self.raw_value("null");
    }

    pub(crate) fn field_str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.prep();
        self.buf.push('"');
        for ch in v.chars() {
            match ch {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    pub(crate) fn arr_u64(&mut self, v: u64) {
        self.raw_value(&v.to_string());
    }

    pub(crate) fn push_f64(&mut self, v: f64) {
        if v.is_finite() {
            // `{:?}` is Rust's shortest round-trip float formatting; it
            // always contains a '.' or an 'e', so the output is a valid
            // JSON number that parses back to the same bits.
            self.raw_value(&format!("{v:?}"));
        } else {
            self.raw_value("null");
        }
    }

    pub(crate) fn finish(self) -> String {
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value of `key` when `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an exact non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
    }

    /// The boolean when `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements when `self` is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields when `self` is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Why a parse failed, with the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses `input` as a single JSON document (trailing whitespace allowed,
/// anything else after the value is an error).
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\n\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\"\\Aé"));
        // Surrogate pair for U+1F600.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Raw UTF-8 passes through.
        let v = parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "\"\\q\"",
            "\"\\ud83d\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn exact_integers_round_trip() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }
}
