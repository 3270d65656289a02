//! The workspace's one JSON grammar: a borrowed scanner, the owned DOM
//! built on it, and typed field readers.
//!
//! The workspace carries no `serde_json`. Every JSON document it reads
//! — serve requests and responses, checkpoints, traces, benchmark files
//! — goes through [`scan`], one validating pass over the borrowed text
//! that hands each value to a [`Sink`]. [`parse`] is the sink that
//! builds the owned [`Json`] DOM; the serve protocol's request reader is
//! one that records a few top-level fields and builds nothing else. The
//! grammar, written once:
//!
//! - whitespace is space, tab, CR and LF, and only whitespace may follow
//!   the document;
//! - a number is the run of `[0-9.eE+-]` after a leading digit or `-`,
//!   and the run must parse as an `f64`: `01`, `1.` and `1e400` are
//!   numbers, `-`, `1e` and `1.2.3` are errors. Only runs other than
//!   `-?[0-9]+` pay for the float parse. Numbers keep their literal
//!   text, so integer fields round-trip exactly — raw
//!   [`dbp_core::Size`] values are `u64` and must not pass through `f64`;
//! - strings may use the JSON escapes; a `\u` escape takes the next four
//!   bytes as a hexadecimal `u32` (so `\u+041` is `A`) and a surrogate
//!   is refused. Raw control characters are accepted. A string stays
//!   borrowed until it is read, and is unescaped only if it holds a `\`;
//! - arrays and objects nest at most [`MAX_DEPTH`] deep. Object keys may
//!   repeat; the DOM keeps every pair and [`Json::get`] finds the first.
//!
//! Decoders read an object's fields with [`Json::field`], typed by the
//! [`FieldValue`] they ask for; its errors name the key.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value. Numbers keep their literal text (see module doc).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants or missing
    /// keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is any number. Only for fields that
    /// are genuinely real-valued (rates, seconds) — integer ids and raw
    /// sizes must go through [`Json::as_u64`] / [`Json::as_i64`] to keep
    /// full 64-bit precision.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Reads field `key` of an object as a `T`; the error names the key.
    /// A missing key is an error whatever `T` is.
    pub fn field<'a, T: FieldValue<'a>>(&'a self, key: &str) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        T::read(value).map_err(|what| format!("field {key:?} {what}"))
    }
}

/// A type [`Json::field`] reads a value as.
pub trait FieldValue<'a>: Sized {
    /// The value as `Self`, or what is wrong with it, worded to follow
    /// the field's name (`is not a string`).
    fn read(value: &'a Json) -> Result<Self, String>;
}

impl<'a> FieldValue<'a> for &'a Json {
    fn read(value: &'a Json) -> Result<Self, String> {
        Ok(value)
    }
}

impl<'a> FieldValue<'a> for &'a str {
    fn read(value: &'a Json) -> Result<Self, String> {
        value.as_str().ok_or_else(|| "is not a string".into())
    }
}

impl FieldValue<'_> for String {
    fn read(value: &Json) -> Result<Self, String> {
        <&str>::read(value).map(str::to_string)
    }
}

impl FieldValue<'_> for bool {
    fn read(value: &Json) -> Result<Self, String> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err("is not a boolean".into()),
        }
    }
}

impl<'a> FieldValue<'a> for &'a [Json] {
    fn read(value: &'a Json) -> Result<Self, String> {
        value.as_array().ok_or_else(|| "is not an array".into())
    }
}

/// The number's literal text parsed as `T`.
fn number<T: std::str::FromStr>(value: &Json, what: &str) -> Result<T, String> {
    match value {
        Json::Num(text) => text.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| format!("is not {what}"))
}

impl FieldValue<'_> for i64 {
    fn read(value: &Json) -> Result<Self, String> {
        number(value, "an integer")
    }
}

impl FieldValue<'_> for u64 {
    fn read(value: &Json) -> Result<Self, String> {
        number(value, "an unsigned integer")
    }
}

impl FieldValue<'_> for u128 {
    fn read(value: &Json) -> Result<Self, String> {
        number(value, "an unsigned integer")
    }
}

/// Only for genuinely real-valued fields (see [`Json::as_f64`]).
impl FieldValue<'_> for f64 {
    fn read(value: &Json) -> Result<Self, String> {
        number(value, "a number")
    }
}

/// Ids: a value past `u32::MAX` is refused, not truncated, so
/// `"id":4294967296` is an error rather than item 0.
impl FieldValue<'_> for u32 {
    fn read(value: &Json) -> Result<Self, String> {
        let n = u64::read(value)?;
        u32::try_from(n).map_err(|_| format!("= {n} exceeds u32"))
    }
}

/// Counts, refusing values that do not fit.
impl FieldValue<'_> for usize {
    fn read(value: &Json) -> Result<Self, String> {
        let n = u64::read(value)?;
        usize::try_from(n).map_err(|_| format!("= {n} exceeds usize"))
    }
}

/// A present `null` reads as `None`.
impl<'a, T: FieldValue<'a>> FieldValue<'a> for Option<T> {
    fn read(value: &'a Json) -> Result<Self, String> {
        if value.is_null() {
            Ok(None)
        } else {
            T::read(value).map(Some)
        }
    }
}

/// Escapes `s` as the *contents* of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s`, escaped as the contents of a JSON string literal, to
/// `out` — [`escape`] without the intermediate `String`.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// The deepest nesting of arrays and objects [`scan`] accepts. The
/// scanner recurses once per level, so without a cap one hostile line of
/// `[`s exhausts the thread's stack and aborts the process. The repo's
/// own documents nest far less (a serve checkpoint about 7 levels).
pub const MAX_DEPTH: usize = 128;

/// A scalar value, borrowed from the scanned text.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's literal text.
    Num(&'a str),
    /// A string.
    Str(RawStr<'a>),
}

/// A string's contents between its quotes, borrowed from the scanned
/// text with its escapes still in place; the scanner checked each one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RawStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> RawStr<'a> {
    /// The string's text: borrowed, unless it holds escapes to decode.
    #[inline]
    pub fn text(self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(unescape(self.raw))
        } else {
            Cow::Borrowed(self.raw)
        }
    }
}

/// What one [`scan`] of a document hands its values to. The scanner
/// validates everything before a sink sees it, so a sink only builds.
pub trait Sink<'a> {
    /// What a value becomes.
    type Value;
    /// An array under construction.
    type Array: Default;
    /// An object under construction.
    type Object: Default;
    /// A scalar value.
    fn scalar(&mut self, scalar: Scalar<'a>) -> Self::Value;
    /// Appends an element to `array`.
    fn push(&mut self, array: &mut Self::Array, value: Self::Value);
    /// Adds a member to `object`, which sits inside `depth` arrays and
    /// objects (0 for the document itself). Keys may repeat.
    fn member(
        &mut self,
        object: &mut Self::Object,
        depth: usize,
        key: RawStr<'a>,
        value: Self::Value,
    );
    /// A finished array.
    fn array(&mut self, array: Self::Array) -> Self::Value;
    /// A finished object.
    fn object(&mut self, object: Self::Object) -> Self::Value;
}

/// Scans `text` as one JSON document, requiring nothing but whitespace
/// to follow it, and returns what `sink` made of it. Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn scan<'a, S: Sink<'a>>(text: &'a str, sink: &mut S) -> Result<S::Value, String> {
    let mut sc = Scanner { text, pos: 0 };
    let value = sc.value(0, sink)?;
    sc.skip_ws();
    if sc.pos != text.len() {
        return Err(format!("trailing data at byte {}", sc.pos));
    }
    Ok(value)
}

/// Parses one JSON document from `text` into the owned DOM (see
/// [`scan`]).
pub fn parse(text: &str) -> Result<Json, String> {
    scan(text, &mut Dom)
}

/// The sink that builds [`Json`].
struct Dom;

impl<'a> Sink<'a> for Dom {
    type Value = Json;
    type Array = Vec<Json>;
    type Object = Vec<(String, Json)>;

    fn scalar(&mut self, scalar: Scalar<'a>) -> Json {
        match scalar {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            Scalar::Num(text) => Json::Num(text.to_string()),
            Scalar::Str(s) => Json::Str(s.text().into_owned()),
        }
    }

    fn push(&mut self, array: &mut Vec<Json>, value: Json) {
        array.push(value);
    }

    fn member(&mut self, object: &mut Vec<(String, Json)>, _: usize, key: RawStr<'a>, value: Json) {
        object.push((key.text().into_owned(), value));
    }

    fn array(&mut self, array: Vec<Json>) -> Json {
        Json::Arr(array)
    }

    fn object(&mut self, object: Vec<(String, Json)>) -> Json {
        Json::Obj(object)
    }
}

/// A one-pass validating scanner over borrowed text; it allocates only
/// to report an error.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Scans the value at `pos`, which sits inside `depth` arrays and
    /// objects.
    fn value<S: Sink<'a>>(&mut self, depth: usize, sink: &mut S) -> Result<S::Value, String> {
        self.skip_ws();
        let scalar = match self.peek() {
            Some(b'[' | b'{') if depth >= MAX_DEPTH => {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ))
            }
            None => return Err("unexpected end of input".into()),
            Some(b'[') => return self.array(depth, sink),
            Some(b'{') => return self.object(depth, sink),
            Some(b'n') => self.literal("null", Scalar::Null)?,
            Some(b't') => self.literal("true", Scalar::Bool(true))?,
            Some(b'f') => self.literal("false", Scalar::Bool(false))?,
            Some(b'"') => Scalar::Str(self.string()?),
            Some(c) if c.is_ascii_digit() || c == b'-' => Scalar::Num(self.number()?),
            Some(c) => return Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        };
        Ok(sink.scalar(scalar))
    }

    fn literal(&mut self, lit: &str, scalar: Scalar<'a>) -> Result<Scalar<'a>, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(scalar)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The run of `[0-9.eE+-]` after a leading digit or `-`; the run must
    /// parse as `f64`, so `01`, `1.` and `1e400` pass and `-`, `1e` and
    /// `1.2.3` do not. `always`, as for [`Scanner::string`].
    #[inline(always)]
    fn number(&mut self) -> Result<&'a str, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start + 1;
        // An optional '-' and then only digits always parses as f64, so
        // only other shapes pay for the float parse.
        let mut plain = bytes[start] != b'-' || bytes.get(at).is_some_and(u8::is_ascii_digit);
        while let Some(&b) = bytes.get(at) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
                _ => break,
            }
            at += 1;
        }
        self.pos = at;
        let text = &self.text[start..at];
        if !plain && text.parse::<f64>().is_err() {
            return Err(format!("bad number {text:?} at byte {start}"));
        }
        Ok(text)
    }

    /// Scans the string at `pos`, checking every escape. `always`: the
    /// walk is generic, so it is compiled in the caller's crate, where a
    /// plain `#[inline]` left this a call and `parse_request` ~25% slower.
    #[inline(always)]
    fn string(&mut self) -> Result<RawStr<'a>, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected '\"' at byte {}", self.pos));
        }
        let bytes = self.text.as_bytes();
        let start = self.pos + 1;
        let mut at = start;
        let mut escaped = false;
        loop {
            match bytes.get(at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    at += escape_at(bytes, at)?.1;
                }
                // Raw control characters are accepted.
                Some(_) => at += 1,
            }
        }
        self.pos = at + 1;
        // Escapes span ASCII only, so `at` sits on a char boundary.
        let raw = self
            .text
            .get(start..at)
            .ok_or("string splits a character")?;
        Ok(RawStr { raw, escaped })
    }

    fn array<S: Sink<'a>>(&mut self, depth: usize, sink: &mut S) -> Result<S::Value, String> {
        self.pos += 1;
        let mut array = S::Array::default();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(sink.array(array));
        }
        loop {
            let value = self.value(depth + 1, sink)?;
            sink.push(&mut array, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(sink.array(array));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object<S: Sink<'a>>(&mut self, depth: usize, sink: &mut S) -> Result<S::Value, String> {
        self.pos += 1;
        let mut object = S::Object::default();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(sink.object(object));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            let value = self.value(depth + 1, sink)?;
            sink.member(&mut object, depth, key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(sink.object(object));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Decodes the escape whose backslash is `bytes[at]`: `\u` takes the
/// next four bytes through `u32::from_str_radix` (so `\u+041` is `A`)
/// and refuses surrogates. Returns the character and the escape's
/// length in bytes.
fn escape_at(bytes: &[u8], at: usize) -> Result<(char, usize), String> {
    let c = match bytes.get(at + 1) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'u') => {
            let hex = bytes.get(at + 2..at + 6).ok_or("truncated \\u escape")?;
            return std::str::from_utf8(hex)
                .ok()
                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                .and_then(char::from_u32)
                .map(|c| (c, 6))
                .ok_or_else(|| format!("bad \\u escape at byte {at}"));
        }
        _ => return Err(format!("bad escape at byte {}", at + 1)),
    };
    Ok((c, 2))
}

/// A scanned string's contents with their escapes decoded.
fn unescape(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut copied = 0;
    while let Some(i) = bytes[copied..].iter().position(|&b| b == b'\\') {
        let at = copied + i;
        out.push_str(&raw[copied..at]);
        let (c, len) = escape_at(bytes, at).expect("the scanner checked every escape");
        out.push(c);
        copied = at + len;
    }
    out.push_str(&raw[copied..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_object() {
        let v = parse(r#"{"type":"bin_opened","bin":3,"at":-7,"tag":12}"#).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("bin_opened"));
        assert_eq!(v.get("bin").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("at").unwrap().as_i64(), Some(-7));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_round_trips_exactly() {
        // 2^63 + 3 is not representable in f64; the literal text must
        // survive parsing untouched.
        let big = (1u64 << 63) + 3;
        let v = parse(&format!("{{\"raw\":{big}}}")).unwrap();
        assert_eq!(v.get("raw").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn null_and_bool_and_nesting() {
        let v = parse(r#"{"a":null,"b":[true,false,{"c":"x"}]}"#).unwrap();
        assert!(v.get("a").unwrap().is_null());
        match v.get("b").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Bool(true));
                assert_eq!(items[2].get("c").unwrap().as_str(), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn field_readers_name_the_key() {
        let v = parse(
            r#"{"id":4294967296,"n":null,"big":340282366920938463463374607431768211455,"s":"x"}"#,
        )
        .unwrap();
        assert_eq!(v.field::<u64>("id"), Ok(1 << 32));
        assert_eq!(
            v.field::<u32>("id").unwrap_err(),
            "field \"id\" = 4294967296 exceeds u32"
        );
        assert_eq!(v.field::<u128>("big"), Ok(u128::MAX));
        assert_eq!(v.field::<Option<i64>>("n"), Ok(None));
        assert_eq!(v.field::<Option<&str>>("s"), Ok(Some("x")));
        assert_eq!(
            v.field::<i64>("s").unwrap_err(),
            "field \"s\" is not an integer"
        );
        assert_eq!(
            v.field::<Option<i64>>("gone").unwrap_err(),
            "missing field \"gone\""
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"s\":\"{}\"}}", escape(raw));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(raw));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Objects count too, and an unterminated hostile line far past
        // the cap fails the same way instead of recursing into it.
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nesting deeper than"));
        assert!(parse(&"[".repeat(60_000))
            .unwrap_err()
            .contains("nesting deeper than"));
    }
}
