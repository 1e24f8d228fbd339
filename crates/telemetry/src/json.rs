//! The workspace's one JSON codec.
//!
//! The vendored `serde` stand-in provides only the trait markers — no
//! serializers (see `vendor/README.md`) — so every JSON document the
//! workspace persists goes through this module: the journal, the
//! controller snapshots, the registry dump and the bench report. It has
//! four parts:
//!
//! * [`Json`], a value tree whose numbers keep their text, so a `u64`
//!   round-trips exactly and a writer picks its own float precision;
//! * [`Json::parse`], a recursive-descent parser that reports malformed
//!   input as a [`JsonError`] and never panics;
//! * one writer with two renderings: compact ([`Json::to_compact`], and
//!   the streaming [`JsonObject`] for flat journal lines) and pretty
//!   ([`Json::to_pretty`], the `BENCH_pipeline.json` layout);
//! * [`Fields`], a typed reader over one object that records which keys
//!   it read, so refusing unknown fields needs no second name list.
//!
//! Floats are written with Rust's shortest-round-trip formatting, so a
//! decoded `f64` is bit-identical to the encoded one; non-finite values
//! (which plain JSON cannot carry) are written as the strings `"inf"`,
//! `"-inf"` and `"nan"`.

use std::fmt::Write as _;

/// A JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text (`7`, `-0.5`, `1e-9`).
    Number(String),
    /// A (decoded) string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's `(key, value)` fields in document order.
    Object(Vec<(String, Json)>),
}

/// Objects and arrays nested deeper than this are refused, so hostile
/// input cannot exhaust the parser's stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// An unsigned integer, exact.
    #[must_use]
    pub fn u64(value: u64) -> Self {
        Self::Number(value.to_string())
    }

    /// A float with shortest-round-trip formatting; non-finite values
    /// become the strings `"inf"`, `"-inf"`, `"nan"`.
    #[must_use]
    pub fn f64(value: f64) -> Self {
        Self::float(value, || value.to_string())
    }

    /// A float with a fixed number of decimals (non-finite values are
    /// tagged as in [`f64`](Self::f64)).
    #[must_use]
    pub fn fixed(value: f64, decimals: usize) -> Self {
        Self::float(value, || format!("{value:.decimals$}"))
    }

    fn float(value: f64, text: impl FnOnce() -> String) -> Self {
        match value {
            v if v.is_finite() => Self::Number(text()),
            v if v.is_nan() => Self::String("nan".to_owned()),
            v if v > 0.0 => Self::String("inf".to_owned()),
            _ => Self::String("-inf".to_owned()),
        }
    }

    /// An object from `(key, value)` pairs, in order.
    #[must_use]
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Self {
        Self::Object(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// Parses one complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] describing the first malformed byte.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.parse_value(0)?;
        parser.skip_ws();
        if parser.pos == text.len() {
            Ok(value)
        } else {
            Err(parser.error("trailing content after the document"))
        }
    }

    /// A reader over this value's fields.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] when the value is not an object.
    pub fn fields(&self) -> Result<Fields<'_>, JsonError> {
        match self {
            Self::Object(fields) => Ok(Fields::new(fields)),
            _ => Err(JsonError::Syntax {
                message: "expected an object",
                at: 0,
            }),
        }
    }

    /// The compact rendering: no whitespace at all (the journal lines).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Compact);
        out
    }

    /// The pretty rendering, newline-terminated: objects one field per
    /// line at a 2-space indent, array elements one per line, each
    /// rendered inline with `", "` and `": "` separators.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Layout::Pretty(0));
        out + "\n"
    }

    fn write(&self, out: &mut String, layout: Layout) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Number(text) => out.push_str(text),
            Self::String(s) => push_json_str(out, s),
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    layout.before_item(out, i);
                    item.write(out, layout.child(false));
                }
                layout.before_close(out);
                out.push(']');
            }
            Self::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    layout.before_item(out, i);
                    push_json_str(out, key);
                    out.push_str(if let Layout::Compact = layout {
                        ":"
                    } else {
                        ": "
                    });
                    value.write(out, layout.child(true));
                }
                layout.before_close(out);
                out.push('}');
            }
        }
    }
}

/// How [`Json::write`] lays a value out.
#[derive(Clone, Copy)]
enum Layout {
    /// No whitespace.
    Compact,
    /// One line with `", "` and `": "` separators.
    Inline,
    /// Object fields one per line at this indent plus two; array
    /// elements likewise, each rendered [`Inline`](Self::Inline).
    Pretty(usize),
}

impl Layout {
    /// The layout of an object field's value (`field`) or an array
    /// element inside a value laid out as `self`.
    fn child(self, field: bool) -> Self {
        match self {
            Self::Pretty(indent) if field => Self::Pretty(indent + 2),
            Self::Pretty(_) => Self::Inline,
            other => other,
        }
    }

    /// Writes what precedes item `i` of an array or object.
    fn before_item(self, out: &mut String, i: usize) {
        match self {
            Self::Compact if i > 0 => out.push(','),
            Self::Inline if i > 0 => out.push_str(", "),
            Self::Compact | Self::Inline => {}
            Self::Pretty(indent) => {
                out.push_str(if i > 0 { ",\n" } else { "\n" });
                pad(out, indent + 2);
            }
        }
    }

    /// Writes what precedes an array's or object's closing bracket.
    fn before_close(self, out: &mut String) {
        if let Self::Pretty(indent) = self {
            out.push('\n');
            pad(out, indent);
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
fn push_json_str(out: &mut String, s: &str) {
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

/// Streaming builder for one flat JSON object in the compact rendering —
/// the journal's line writer, which skips building a [`Json`] tree.
///
/// # Examples
///
/// ```
/// use nfv_telemetry::json::JsonObject;
/// let mut obj = JsonObject::new();
/// obj.field_str("event", "Admit").field_u64("request", 7);
/// assert_eq!(obj.finish(), r#"{"event":"Admit","request":7}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: String::new() }
    }

    fn key(&mut self, key: &str) -> &mut String {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    fn field(&mut self, key: &str, value: &Json) -> &mut Self {
        value.write(self.key(key), Layout::Compact);
        self
    }

    /// Appends a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        push_json_str(self.key(key), value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.field(key, &Json::u64(value))
    }

    /// Appends a float field with shortest-round-trip formatting.
    /// Non-finite values become the strings `"inf"`, `"-inf"`, `"nan"`.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, &Json::f64(value))
    }

    /// Closes the object and returns the rendered text.
    #[must_use]
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        if buf.is_empty() {
            buf.push('{');
        }
        buf.push('}');
        buf
    }
}

/// Why a document could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON (or not the shape the entry point accepts).
    Syntax {
        /// What the parser objected to.
        message: &'static str,
        /// Byte offset of the objection.
        at: usize,
    },
    /// A field is missing, has the wrong type or value, or is unknown.
    Field {
        /// The field's dotted path (`recovery.byte_identical`,
        /// `fleet[2].tenants`).
        key: String,
        /// What the reader objected to.
        message: &'static str,
    },
}

impl JsonError {
    /// What the decoder objected to, without the position.
    #[must_use]
    pub fn message(&self) -> &'static str {
        match self {
            Self::Syntax { message, .. } | Self::Field { message, .. } => message,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Syntax { message, at } => write!(f, "invalid JSON at byte {at}: {message}"),
            Self::Field { key, message } => write!(f, "field `{key}`: {message}"),
        }
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError::Syntax {
            message,
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => self.parse_string().map(Json::String),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, kept as text.
    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut valid = if self.peek() == Some(b'0') {
            self.pos += 1;
            true
        } else {
            self.digits() > 0
        };
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        if valid {
            // Every byte consumed above is ASCII, so the slice is on
            // character boundaries.
            Ok(Json::Number(self.text[start..self.pos].to_owned()))
        } else {
            Err(JsonError::Syntax {
                message: "invalid number",
                at: start,
            })
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let start = self.pos;
        let mut out = String::new();
        let mut chars = self.text[start..].char_indices();
        while let Some((i, c)) = chars.next() {
            let at = start + i;
            let bad = |message| JsonError::Syntax { message, at };
            match c {
                '"' => {
                    self.pos = at + 1;
                    return Ok(out);
                }
                '\\' => out.push(match chars.next() {
                    Some((_, '"')) => '"',
                    Some((_, '\\')) => '\\',
                    Some((_, '/')) => '/',
                    Some((_, 'n')) => '\n',
                    Some((_, 'r')) => '\r',
                    Some((_, 't')) => '\t',
                    Some((_, 'b')) => '\u{8}',
                    Some((_, 'f')) => '\u{c}',
                    Some((_, 'u')) => {
                        let hex = self
                            .text
                            .get(at + 2..at + 6)
                            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                            .ok_or(bad("bad \\u escape"))?;
                        for _ in 0..4 {
                            chars.next();
                        }
                        // Surrogate pairs never occur in what this
                        // workspace writes; refuse rather than mis-decode.
                        u32::from_str_radix(hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or(bad("bad \\u code point"))?
                    }
                    _ => return Err(bad("bad escape")),
                }),
                c if (c as u32) < 0x20 => return Err(bad("unescaped control character")),
                c => out.push(c),
            }
        }
        Err(JsonError::Syntax {
            message: "unterminated string",
            at: start - 1,
        })
    }

    /// Parses `open item (, item)* close`, each item through `item`. The
    /// caller has peeked `open`.
    fn parse_seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or a closing bracket")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.parse_seq(b']', |p| {
            items.push(p.parse_value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.parse_seq(b'}', |p| {
            let key = p.parse_string()?;
            p.eat(b':', "expected ':'")?;
            fields.push((key, p.parse_value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Object(fields))
    }
}

/// Parses one flat JSON object — a journal or snapshot line — into its
/// `(key, value)` fields in document order. A nested object or array is
/// refused: those lines never carry one.
///
/// # Errors
///
/// [`JsonError::Syntax`] for malformed text, a non-object, or a nested
/// value.
///
/// # Examples
///
/// ```
/// use nfv_telemetry::json::{parse_object, Fields, Json};
/// let fields = parse_object(r#"{"event":"Admit","request":7}"#).unwrap();
/// assert_eq!(fields[0].1, Json::String("Admit".into()));
/// assert_eq!(Fields::new(&fields).uint::<u32>("request"), Ok(7));
/// assert!(parse_object(r#"{"nested":{"request":7}}"#).is_err());
/// ```
pub fn parse_object(line: &str) -> Result<Vec<(String, Json)>, JsonError> {
    match Json::parse(line)? {
        Json::Object(fields)
            if !fields
                .iter()
                .any(|(_, value)| matches!(value, Json::Array(_) | Json::Object(_))) =>
        {
            Ok(fields)
        }
        _ => Err(JsonError::Syntax {
            message: "expected an object without nested values",
            at: 0,
        }),
    }
}

/// A typed reader over one object's fields. Every getter marks its key
/// as read; [`finish`](Self::finish) then refuses any field no getter
/// asked for, so a decoder's getters are its schema. A getter fails with
/// a [`JsonError::Field`] naming the key's path when the key is missing
/// or its value has the wrong type.
#[derive(Debug)]
pub struct Fields<'a> {
    path: String,
    fields: &'a [(String, Json)],
    read: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// A reader over a top-level object's fields.
    #[must_use]
    pub fn new(fields: &'a [(String, Json)]) -> Self {
        Self::at(String::new(), fields)
    }

    fn at(path: String, fields: &'a [(String, Json)]) -> Self {
        Self {
            path,
            read: vec![false; fields.len()],
            fields,
        }
    }

    fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// An error naming `key`, for checks beyond the JSON type (ranges,
    /// enumerations, sub-encodings).
    #[must_use]
    pub fn invalid(&self, key: &str, message: &'static str) -> JsonError {
        JsonError::Field {
            key: self.path_of(key),
            message,
        }
    }

    /// Whether the object has `key` (does not mark it read).
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.fields.iter().any(|(k, _)| k == key)
    }

    /// Marks `key` read and converts its value, refusing it with
    /// `expected` when `convert` returns `None`.
    fn typed<T>(
        &mut self,
        key: &str,
        expected: &'static str,
        convert: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, JsonError> {
        let fields = self.fields;
        let Some(at) = fields.iter().position(|(k, _)| k == key) else {
            return Err(self.invalid(key, "missing"));
        };
        self.read[at] = true;
        convert(&fields[at].1).ok_or_else(|| self.invalid(key, expected))
    }

    /// An unsigned integer, parsed exactly from its text (never through
    /// `f64`) and narrowed to `T`.
    pub fn uint<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, JsonError> {
        self.typed(
            key,
            "not an unsigned integer in range",
            |value| match value {
                Json::Number(text) => T::try_from(text.parse::<u64>().ok()?).ok(),
                _ => None,
            },
        )
    }

    /// A float; the strings `"inf"`, `"-inf"` and `"nan"` decode to the
    /// corresponding non-finite values.
    pub fn f64(&mut self, key: &str) -> Result<f64, JsonError> {
        self.typed(key, "not a number", number)
    }

    /// A float or `null`.
    pub fn nullable_f64(&mut self, key: &str) -> Result<Option<f64>, JsonError> {
        self.typed(key, "not a number or null", |value| match value {
            Json::Null => Some(None),
            value => number(value).map(Some),
        })
    }

    /// A string.
    pub fn str(&mut self, key: &str) -> Result<&'a str, JsonError> {
        self.typed(key, "not a string", |value| match value {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// A boolean.
    pub fn bool(&mut self, key: &str) -> Result<bool, JsonError> {
        self.typed(key, "not a boolean", |value| match value {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// A reader over a nested object; its errors name `key` in the path.
    pub fn child(&mut self, key: &str) -> Result<Fields<'a>, JsonError> {
        let path = self.path_of(key);
        self.typed(key, "not an object", |value| match value {
            Json::Object(fields) => Some(Self::at(path, fields)),
            _ => None,
        })
    }

    /// Readers over an array of objects, in order; element `i`'s errors
    /// name `key[i]`.
    pub fn array(&mut self, key: &str) -> Result<Vec<Fields<'a>>, JsonError> {
        let path = self.path_of(key);
        let items = self.typed(key, "not an array", |value| match value {
            Json::Array(items) => Some(items),
            _ => None,
        })?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let path = format!("{path}[{i}]");
                match item {
                    Json::Object(fields) => Ok(Self::at(path, fields)),
                    _ => Err(JsonError::Field {
                        key: path,
                        message: "not an object",
                    }),
                }
            })
            .collect()
    }

    /// Runs `body` over this reader, then [`finish`](Self::finish)es it:
    /// `body`'s getters are the object's whole schema.
    ///
    /// # Errors
    ///
    /// The first [`JsonError`] of `body` or of `finish`.
    pub fn decode<T>(
        mut self,
        body: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let value = body(&mut self)?;
        self.finish()?;
        Ok(value)
    }

    /// Ends the read, refusing the first field no getter asked for.
    ///
    /// # Errors
    ///
    /// [`JsonError::Field`] naming the unknown field.
    pub fn finish(self) -> Result<(), JsonError> {
        match self.read.iter().position(|read| !read) {
            Some(at) => Err(self.invalid(&self.fields[at].0, "unknown field")),
            None => Ok(()),
        }
    }
}

fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Number(text) => text.parse().ok(),
        Json::String(tag) => match tag.as_str() {
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            "nan" => Some(f64::NAN),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_f64(text: &str, key: &str) -> f64 {
        let fields = parse_object(text).unwrap();
        Fields::new(&fields).f64(key).unwrap()
    }

    #[test]
    fn builder_renders_flat_objects() {
        let mut obj = JsonObject::new();
        obj.field_str("a", "x\"y\\z\n")
            .field_u64("b", u64::MAX)
            .field_f64("c", 0.1);
        assert_eq!(
            obj.finish(),
            r#"{"a":"x\"y\\z\n","b":18446744073709551615,"c":0.1}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            1e-300,
            123_456.789_012_345,
            f64::MIN_POSITIVE,
        ] {
            let mut obj = JsonObject::new();
            obj.field_f64("x", x);
            assert_eq!(read_f64(&obj.finish(), "x").to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_become_tagged_strings() {
        let mut obj = JsonObject::new();
        obj.field_f64("a", f64::INFINITY)
            .field_f64("b", f64::NEG_INFINITY)
            .field_f64("c", f64::NAN);
        let text = obj.finish();
        assert_eq!(text, r#"{"a":"inf","b":"-inf","c":"nan"}"#);
        assert_eq!(read_f64(&text, "a"), f64::INFINITY);
        assert_eq!(read_f64(&text, "b"), f64::NEG_INFINITY);
        assert!(read_f64(&text, "c").is_nan());
    }

    #[test]
    fn parser_round_trips_escapes_and_integers() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "line1\nline2\ttab \"quoted\" \\slash")
            .field_u64("n", 9_007_199_254_740_993); // above 2^53: lossy via f64
        let fields = parse_object(&obj.finish()).unwrap();
        let mut reader = Fields::new(&fields);
        assert_eq!(reader.str("s"), Ok("line1\nline2\ttab \"quoted\" \\slash"));
        assert_eq!(reader.uint::<u64>("n"), Ok(9_007_199_254_740_993));
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn parser_handles_unicode_escapes_and_whitespace() {
        let fields = parse_object(" { \"k\" : \"a\\u0007b\" , \"n\" : 3 } ").unwrap();
        let mut reader = Fields::new(&fields);
        assert_eq!(reader.str("k"), Ok("a\u{7}b"));
        assert_eq!(reader.uint::<u64>("n"), Ok(3));
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "[1]",
            "{\"a\":}",
            "{\"a\":1",
            "{\"a\" 1}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":1}x",
            "{\"a\":\"unterminated}",
            "{\"a\":01}",
            "{\"a\":1.}",
            "{\"a\":-}",
            "{\"a\":tru}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"raw\ncontrol\"}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn renderings_share_one_tree() {
        let tree = Json::object([
            ("n", Json::u64(3)),
            ("s", Json::String("a\"b".into())),
            (
                "rows",
                Json::Array(vec![
                    Json::object([("x", Json::fixed(0.5, 3)), ("y", Json::Null)]),
                    Json::object([("x", Json::f64(f64::NAN)), ("y", Json::Bool(true))]),
                ]),
            ),
            ("inner", Json::object([("k", Json::Array(Vec::new()))])),
        ]);
        assert_eq!(
            tree.to_compact(),
            r#"{"n":3,"s":"a\"b","rows":[{"x":0.500,"y":null},{"x":"nan","y":true}],"inner":{"k":[]}}"#
        );
        assert_eq!(
            tree.to_pretty(),
            "{\n  \"n\": 3,\n  \"s\": \"a\\\"b\",\n  \"rows\": [\n    \
             {\"x\": 0.500, \"y\": null},\n    {\"x\": \"nan\", \"y\": true}\n  ],\n  \
             \"inner\": {\n    \"k\": [\n    ]\n  }\n}\n"
        );
        assert_eq!(Json::parse(&tree.to_pretty()), Ok(tree.clone()));
        assert_eq!(Json::parse(&tree.to_compact()), Ok(tree));
    }

    #[test]
    fn reader_names_missing_mistyped_and_unknown_fields() {
        let tree =
            Json::parse(r#"{"a": 1, "b": {"c": true, "d": [{"e": 2}]}, "z": null}"#).unwrap();
        let mut root = tree.fields().unwrap();
        assert_eq!(root.uint::<u64>("a"), Ok(1));
        let error = |key: &str, message| JsonError::Field {
            key: key.to_owned(),
            message,
        };
        assert_eq!(root.f64("missing"), Err(error("missing", "missing")));
        assert_eq!(root.nullable_f64("z"), Ok(None));
        let mut b = root.child("b").unwrap();
        assert_eq!(
            b.uint::<u64>("c"),
            Err(error("b.c", "not an unsigned integer in range"))
        );
        let mut d = b.array("d").unwrap();
        assert_eq!(d[0].uint::<u8>("e"), Ok(2));
        assert_eq!(d.pop().unwrap().finish(), Ok(()));
        assert_eq!(b.finish(), Ok(()));
        assert_eq!(root.finish(), Ok(()));
        let mut partial = tree.fields().unwrap();
        assert_eq!(partial.uint::<u64>("a"), Ok(1));
        assert_eq!(partial.finish(), Err(error("b", "unknown field")));
        let big = parse_object(r#"{"n":256}"#).unwrap();
        assert!(Fields::new(&big).uint::<u8>("n").is_err());
    }
}
