//! Hand-rolled JSON (the crate is dependency-free, so no serde): string
//! escaping for every exporter, a pull [`Reader`], and the [`Json`] tree
//! that [`Json::parse`] builds on top of it.
//!
//! Numbers are written with `Display`, which already produces valid JSON
//! for the integer types used. The reader has two consumers that share its
//! one lexer. [`Json::parse`] builds a tree for small documents: the HTTP
//! API's answer bodies and exported traces. A streaming decoder, such as
//! the session-spec decoder in `qoco-core`, walks a large document value by value instead: it
//! borrows escape-free strings straight from the input and [`Reader::skip`]s
//! what it does not need. The lexer covers RFC 8259 minus the exotica
//! nobody writes into those: numbers parse via `f64`, and `\uXXXX` escapes
//! decode the BMP only (unpaired surrogates become the replacement
//! character). Nesting deeper than [`MAX_DEPTH`] is rejected by every entry
//! point, `skip` included, so an untrusted body cannot exhaust the stack.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting a [`Reader`] accepts.
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
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
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

/// A pull reader over one JSON document.
///
/// The caller drives it by the shape it expects: [`Reader::peek`] at the
/// next value, then read it with [`string`](Reader::string),
/// [`number`](Reader::number), [`value`](Reader::value) or
/// [`skip`](Reader::skip), or open it with
/// [`begin_array`](Reader::begin_array) / [`begin_object`](Reader::begin_object)
/// and step through it with [`next_item`](Reader::next_item) /
/// [`next_key`](Reader::next_key) until they report the end. Every method
/// skips leading whitespace. [`finish`](Reader::finish) rejects trailing
/// characters after the document.
#[derive(Clone)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
    /// The innermost open container has not been asked for an element yet
    /// (set by `begin_*`, cleared by the first `next_item`/`next_key`).
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// An error at the current byte offset.
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    /// The first byte of the next value, after whitespace; `None` at the
    /// end of the input.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte()
    }

    /// Open the array the reader is at.
    pub fn begin_array(&mut self) -> Result<(), ParseError> {
        self.open(b'[')
    }

    /// Step to the next element of the innermost open array: `true` when
    /// one follows (read it next), `false` once the array is closed.
    pub fn next_item(&mut self) -> Result<bool, ParseError> {
        self.next_member(b']')
    }

    /// Open the object the reader is at.
    pub fn begin_object(&mut self) -> Result<(), ParseError> {
        self.open(b'{')
    }

    /// Step to the next member of the innermost open object: its key (read
    /// the value next), or `None` once the object is closed. An escape-free
    /// key is borrowed from the input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.colon()?;
        Ok(Some(key))
    }

    /// Read a string. An escape-free string is borrowed from the input;
    /// only one with escapes allocates.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Read a number.
    pub fn number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.error("malformed number"))
    }

    /// Read the next value, whatever it is, as a tree.
    pub fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut map = BTreeMap::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    map.insert(key.into_owned(), value);
                }
                Ok(Json::Object(map))
            }
            Some(b'"') => Ok(Json::String(self.string()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Validate the next value without building it or allocating, and
    /// return its raw text. Nesting is held to [`MAX_DEPTH`] as everywhere.
    pub fn skip(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        match self.byte() {
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_member(b'}')? {
                    self.skip_string()?;
                    self.colon()?;
                    self.skip()?;
                }
            }
            Some(b'"') => self.skip_string()?,
            _ => {
                self.scalar()?;
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// End of the document: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after the document"))
        }
    }

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn colon(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b':')
    }

    /// Open an array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.byte() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Consume the `,` before the next element, or the `close` bracket
    /// after the last one.
    fn next_member(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            // the first element needs no comma; value readers reject junk
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error(&format!("expected ',' or '{}'", close as char))),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    /// A `null`, `true`, `false` or number.
    fn scalar(&mut self) -> Result<Json, ParseError> {
        match self.byte() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Number),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Advance over a run of string bytes that are not `"`, `\` or a
    /// control byte. A run starts and stops next to ASCII bytes (or at the
    /// end), so it is a valid `str` slice.
    fn run(&mut self) {
        while self
            .byte()
            .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            self.pos += 1;
        }
    }

    fn skip_string(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        self.string_tail(None)
    }

    /// The rest of a string after its opening quote, unescaped into `out`
    /// when one is given.
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), ParseError> {
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    let c = self.escape()?;
                    if let Some(out) = out.as_mut() {
                        out.push(c);
                    }
                }
                Some(b) if b < 0x20 => return Err(self.error("raw control character in string")),
                Some(_) => {
                    let start = self.pos;
                    self.run();
                    if let Some(out) = out.as_mut() {
                        out.push_str(&self.text[start..self.pos]);
                    }
                }
            }
        }
    }

    /// Decode the escape sequence at the reader's backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let esc = self.byte().ok_or_else(|| self.error("dangling escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => char::from_u32(self.hex4()?).unwrap_or('\u{FFFD}'),
            _ => return Err(self.error("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("non-ASCII in \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
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
    fn parses_a_results_document_and_rejects_a_corrupt_number() {
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
    fn reader_pulls_members_and_borrows_escape_free_strings() {
        let doc = r#" {"rows": {"T": [["a", -2], ["b\"c", 1e3]]}, "k": [1, {"x": null}]} "#;
        let mut r = Reader::new(doc);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("rows"));
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("T"));
        r.begin_array().unwrap();
        let mut cells = Vec::new();
        while r.next_item().unwrap() {
            r.begin_array().unwrap();
            assert!(r.next_item().unwrap());
            cells.push(r.string().unwrap());
            assert!(r.next_item().unwrap());
            assert_eq!(r.peek(), Some(if cells.len() == 1 { b'-' } else { b'1' }));
            r.number().unwrap();
            assert!(!r.next_item().unwrap());
        }
        assert!(
            matches!(cells[0], Cow::Borrowed("a")),
            "no escape: borrowed"
        );
        assert!(
            matches!(&cells[1], Cow::Owned(s) if s == "b\"c"),
            "escape: owned"
        );
        assert_eq!(r.next_key().unwrap(), None);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("k"));
        assert_eq!(r.skip().unwrap(), r#"[1, {"x": null}]"#);
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn skip_validates_what_it_passes_over() {
        for (doc, span) in [
            (r#""a\u00e9\n""#, r#""a\u00e9\n""#),
            (" [1, [true, false], {}] ", "[1, [true, false], {}]"),
            (r#"{"a": {"b": []}}"#, r#"{"a": {"b": []}}"#),
            ("-0.5e3", "-0.5e3"),
        ] {
            assert_eq!(Reader::new(doc).skip().unwrap(), span, "{doc:?}");
        }
        for (bad, message) in [
            ("[1,]", "expected a JSON value"),
            ("{\"a\" 1}", "expected ':'"),
            ("[1 2]", "expected ',' or ']'"),
            ("{\"a\":1,}", "expected '\"'"),
            ("\"\\q\"", "unknown escape"),
            ("\"a\tb\"", "raw control character in string"),
            ("nul", "expected 'null'"),
        ] {
            let err = Reader::new(bad).skip().unwrap_err();
            assert_eq!(err.message, message, "{bad:?}");
        }
        // a value followed by junk is caught by finish, not skip
        let mut r = Reader::new("[] x");
        assert_eq!(r.skip().unwrap(), "[]");
        assert!(r.finish().is_err());
    }

    #[test]
    fn skip_holds_the_depth_limit() {
        let err = Reader::new(&"[".repeat(10_000)).skip().unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
        let err = Reader::new(&r#"{"a":"#.repeat(10_000)).skip().unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Reader::new(&ok).skip().unwrap(), ok);
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
