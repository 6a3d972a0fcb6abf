//! Hand-rolled JSON (the crate is dependency-free, so no serde): string
//! escaping for every exporter, and a minimal recursive-descent parser.
//!
//! Numbers are written with `Display`, which already produces valid JSON
//! for the integer types used. The parser reads the HTTP API's request
//! bodies, the committed `BENCH_eval.json` baseline and exported traces.
//! It covers RFC 8259 minus the exotica nobody writes into those: numbers
//! parse via `f64`, and `\uXXXX` escapes decode the BMP only (unpaired
//! surrogates become the replacement character). Nesting deeper than
//! [`MAX_DEPTH`] is rejected, so an untrusted body cannot exhaust the
//! stack.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. BTreeMap: key order is not significant in our inputs.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug)]
pub struct ParseError {
    /// What the parser expected or rejected.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // copy the whole run up to the next quote, backslash or
                    // control byte: it starts and stops next to ASCII bytes
                    // (or at the end), so it is a valid `str` slice
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Append `s` to `out` as a JSON string literal, including the quotes.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc(s: &str) -> String {
        let mut out = String::new();
        push_json_str(&mut out, s);
        out
    }

    #[test]
    fn escapes_quotes_backslashes_and_control() {
        assert_eq!(esc("plain"), r#""plain""#);
        assert_eq!(esc("a\"b"), r#""a\"b""#);
        assert_eq!(esc("a\\b"), r#""a\\b""#);
        assert_eq!(esc("a\tb\nc"), r#""a\tb\nc""#);
        assert_eq!(esc("\u{1}"), r#""\u0001""#);
        assert_eq!(esc("雪→🦀"), "\"雪→🦀\"");
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"nested": true}, "c": null, "d": "x"}"#;
        let v = Json::parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("nested"), Some(&Json::Bool(true)));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#""tab\there \"q\" é \n""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there \"q\" é \n"));
    }

    #[test]
    fn runs_meet_escapes_and_multibyte_text() {
        for (doc, want) in [
            (r#""abc\"def""#, "abc\"def"),
            (r#""\"abc""#, "\"abc"),
            (r#""abc\\""#, "abc\\"),
            (r#""a\u00e9b\u96eac""#, "a\u{e9}b\u{96ea}c"),
            (r#""é\né""#, "é\né"),
            (r#""雪🦀\t→""#, "雪🦀\t→"),
            (r#""""#, ""),
        ] {
            assert_eq!(Json::parse(doc).unwrap().as_str(), Some(want), "{doc}");
        }
        let v = Json::parse(r#"{"ké\"y":["vé","🦀\\"]}"#).unwrap();
        let items = v.get("ké\"y").and_then(Json::as_array).unwrap();
        assert_eq!(items[0].as_str(), Some("vé"));
        assert_eq!(items[1].as_str(), Some("🦀\\"));
    }

    #[test]
    fn runs_stop_at_raw_control_characters_and_unterminated_ends() {
        for (doc, at) in [("\"abc\u{1}def\"", 4), ("\"é\tx\"", 3), ("\"ab\ncd\"", 3)] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(err.message, "raw control character in string", "{doc:?}");
            assert_eq!(err.at, at, "{doc:?}");
        }
        for doc in ["\"abc", "\"雪🦀", "\"a\\\"", "[\"x\",\"yz"] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(err.message, "unterminated string", "{doc:?}");
            assert_eq!(err.at, doc.len(), "{doc:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn round_trips_the_committed_baseline_shape() {
        let doc = r#"{
  "bench": "eval_scaling",
  "results": [
    {"workload": "selective", "size": 1000, "engine": "seed", "threads": 1, "mean_ns": 6404looser, "iters": 47, "assignments": 1000}
  ]
}"#;
        // deliberately corrupted number → error, not panic
        assert!(Json::parse(doc).is_err());
        let good = doc.replace("6404looser", "6404000");
        let v = Json::parse(&good).unwrap();
        let cell = &v.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(cell.get("mean_ns").unwrap().as_f64(), Some(6_404_000.0));
    }

    #[test]
    fn rejects_nesting_past_the_limit_without_overflowing() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("too deep"), "{err}");
        assert_eq!(err.at, MAX_DEPTH);
        // far past the limit: an error, not a stack overflow
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(200_000)).is_err());
    }
}
