//! The workspace's one JSON grammar: a top-down reader, the owned DOM
//! built on it, and typed value readers.
//!
//! The workspace carries no `serde_json`. Every JSON document it reads
//! — serve requests and responses, checkpoints, traces, benchmark files
//! — is walked by a [`Reader`]: one validating pass over the borrowed
//! text that the caller steers. [`Reader::object`] calls back once per
//! member with the reader standing at its value, [`Reader::array`] once
//! per element, [`Reader::scalar`] and [`Reader::read`] read a scalar,
//! and [`Reader::skip`] validates a value and builds nothing. A decoder
//! reads the fields it wants as they are scanned and keeps nothing else
//! — the serve request reader and the snapshot decoder do; [`parse`]
//! reads every value into the owned [`Json`] DOM. The grammar, written
//! once:
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
//! - arrays and objects nest at most [`MAX_DEPTH`] deep, read or skipped.
//!   Object keys may repeat; the DOM keeps every pair and [`Json::get`]
//!   finds the first, as the field-by-field decoders do.
//!
//! A scalar converts to a typed value through [`FromScalar`], one set of
//! conversions that [`Reader::read`] and [`Json::field`] (through
//! [`FieldValue`]) share; a `Json::field` error names the key.

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

    /// The value as a [`Scalar`]; `None` for an array or an object. A
    /// string's text is already unescaped, so it reads as it is.
    fn scalar(&self) -> Option<Scalar<'_>> {
        Some(match self {
            Json::Null => Scalar::Null,
            Json::Bool(b) => Scalar::Bool(*b),
            Json::Num(text) => Scalar::Num(text),
            Json::Str(s) => Scalar::Str(RawStr {
                raw: s,
                escaped: false,
            }),
            Json::Arr(_) | Json::Obj(_) => return None,
        })
    }

    /// Reads field `key` of an object as a `T`; the error names the key.
    /// A missing key is an error whatever `T` is.
    pub fn field<'a, T: FieldValue<'a>>(&'a self, key: &str) -> Result<T, String> {
        named(key, T::read(required(self.get(key), key)?))
    }
}

/// Names field `key` in what went wrong reading it.
pub fn named<T>(key: &str, read: Result<T, String>) -> Result<T, String> {
    read.map_err(|what| format!("field {key:?} {what}"))
}

/// The value read for field `key`, or the error that it is missing.
pub fn required<T>(value: Option<T>, key: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("missing field {key:?}"))
}

/// A type a scalar converts to, for [`Reader::read`] and, through
/// [`FieldValue`], [`Json::field`]. `None` stands for an array or an
/// object, which no scalar type accepts.
pub trait FromScalar<'a>: Sized {
    /// The value as `Self`, or what is wrong with it, worded to follow
    /// the field's name (`is not a string`).
    fn from_scalar(value: Option<Scalar<'a>>) -> Result<Self, String>;
}

impl<'a> FromScalar<'a> for Cow<'a, str> {
    fn from_scalar(value: Option<Scalar<'a>>) -> Result<Self, String> {
        match value {
            Some(Scalar::Str(s)) => Ok(s.text()),
            _ => Err("is not a string".into()),
        }
    }
}

impl FromScalar<'_> for String {
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        Cow::from_scalar(value).map(Cow::into_owned)
    }
}

impl FromScalar<'_> for bool {
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        match value {
            Some(Scalar::Bool(b)) => Ok(b),
            _ => Err("is not a boolean".into()),
        }
    }
}

/// The number's literal text parsed as `T`.
#[inline]
fn number<T: std::str::FromStr>(value: Option<Scalar<'_>>, what: &str) -> Result<T, String> {
    match value {
        Some(Scalar::Num(text)) => text.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| format!("is not {what}"))
}

impl FromScalar<'_> for i64 {
    #[inline]
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        number(value, "an integer")
    }
}

impl FromScalar<'_> for u64 {
    #[inline]
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        number(value, "an unsigned integer")
    }
}

impl FromScalar<'_> for u128 {
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        number(value, "an unsigned integer")
    }
}

/// Only for genuinely real-valued fields (see [`Json::as_f64`]).
impl FromScalar<'_> for f64 {
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        number(value, "a number")
    }
}

/// Ids: a value past `u32::MAX` is refused, not truncated, so
/// `"id":4294967296` is an error rather than item 0.
impl FromScalar<'_> for u32 {
    #[inline]
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        let n = u64::from_scalar(value)?;
        u32::try_from(n).map_err(|_| format!("= {n} exceeds u32"))
    }
}

/// Counts, refusing values that do not fit.
impl FromScalar<'_> for usize {
    fn from_scalar(value: Option<Scalar<'_>>) -> Result<Self, String> {
        let n = u64::from_scalar(value)?;
        usize::try_from(n).map_err(|_| format!("= {n} exceeds usize"))
    }
}

/// A `null` reads as `None`.
impl<'a, T: FromScalar<'a>> FromScalar<'a> for Option<T> {
    #[inline]
    fn from_scalar(value: Option<Scalar<'a>>) -> Result<Self, String> {
        match value {
            Some(Scalar::Null) => Ok(None),
            value => T::from_scalar(value).map(Some),
        }
    }
}

/// A type [`Json::field`] reads a value as: any [`FromScalar`] type, or
/// a borrow of the DOM.
pub trait FieldValue<'a>: Sized {
    /// The value as `Self`, or what is wrong with it, worded to follow
    /// the field's name (`is not a string`).
    fn read(value: &'a Json) -> Result<Self, String>;
}

impl<'a, T: FromScalar<'a>> FieldValue<'a> for T {
    fn read(value: &'a Json) -> Result<Self, String> {
        T::from_scalar(value.scalar())
    }
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

impl<'a> FieldValue<'a> for &'a [Json] {
    fn read(value: &'a Json) -> Result<Self, String> {
        value.as_array().ok_or_else(|| "is not an array".into())
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

/// The deepest nesting of arrays and objects a [`Reader`] accepts. The
/// reader recurses once per level, so without a cap one hostile line of
/// `[`s exhausts the thread's stack and aborts the process. The repo's
/// own documents nest far less (a serve checkpoint about 7 levels).
pub const MAX_DEPTH: usize = 128;

/// A scalar value, borrowed from the read text.
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

/// A string's contents between its quotes, borrowed from the read text
/// with its escapes still in place; the reader checked each one.
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

/// Parses one JSON document from `text` into the owned DOM.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let doc = r.json()?;
    r.finish()?;
    Ok(doc)
}

/// A top-down reader over one JSON document, the workspace's one way to
/// walk JSON (see the module doc for the grammar).
///
/// The caller says what it expects next and the reader validates that
/// value as it reads it; it allocates only to report an error, and after
/// an error it is spent. A value of another kind than the one asked for
/// is validated first, so a malformed value reports its own error, and
/// then refused. A member or element that a callback of
/// [`Reader::object`] or [`Reader::array`] leaves unread is validated
/// and skipped, so a decoder ignores a key by not reading it. Call
/// [`Reader::finish`] after the document's one value.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// The arrays and objects the reader stands inside.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Reads an object, calling `member` with each key (unescaped) in
    /// document order, duplicates included, and the reader standing at
    /// the member's value.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.items(b'{', b'}', "an object", |r| {
            let key = r.string()?.text();
            r.skip_ws();
            if r.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", r.pos));
            }
            r.pos += 1;
            r.read_by(|r| member(r, &key))
        })
    }

    /// Reads an array, calling `element` with the reader standing at
    /// each element in turn.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.items(b'[', b']', "an array", |r| r.read_by(&mut element))
    }

    /// Reads a scalar. An array or an object is validated and skipped,
    /// and reads as `None`.
    #[inline]
    pub fn scalar(&mut self) -> Result<Option<Scalar<'a>>, String> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'[' | b'{')) {
            self.skip()?;
            return Ok(None);
        }
        self.token().map(Some)
    }

    /// Reads a scalar as a `T`.
    #[inline]
    pub fn read<T: FromScalar<'a>>(&mut self) -> Result<T, String> {
        T::from_scalar(self.scalar()?)
    }

    /// Validates the next value and builds nothing; returns its text, so
    /// a decoder can read it again once it knows how.
    pub fn skip(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(b'{') => self.object(|_, _| Ok(()))?,
            Some(b'[') => self.array(|_| Ok(()))?,
            _ => {
                self.token()?;
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// Fills `slot` with `read` unless it is filled already: the first
    /// occurrence of a key wins, and a later one is left unread (so it
    /// is validated and skipped, not type-checked).
    #[inline]
    pub fn first<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
    ) -> Result<(), String> {
        if slot.is_none() {
            *slot = Some(read(self)?);
        }
        Ok(())
    }

    /// Requires nothing but whitespace after the value read.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads the next value into the owned DOM.
    fn json(&mut self) -> Result<Json, String> {
        self.skip_ws();
        Ok(match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    let value = r.json()?;
                    pairs.push((key.to_string(), value));
                    Ok(())
                })?;
                Json::Obj(pairs)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.json()?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            _ => match self.token()? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Num(text) => Json::Num(text.to_string()),
                Scalar::Str(s) => Json::Str(s.text().into_owned()),
            },
        })
    }

    /// Reads the `,`-separated items between `open` and `close`, each
    /// with `item`, under the depth cap; a value of another kind is
    /// validated, then refused.
    fn items(
        &mut self,
        open: u8,
        close: u8,
        what: &str,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        let at = self.pos;
        if self.peek() != Some(open) {
            self.skip()?;
            return Err(format!("expected {what} at byte {at}"));
        }
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {at}"
            ));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            return self.leave();
        }
        loop {
            self.skip_ws();
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => return self.leave(),
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    /// Lets `read` read the value at `pos`, skips it if `read` did not,
    /// and stops at the next non-whitespace byte.
    #[inline]
    fn read_by(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        let at = self.pos;
        read(self)?;
        if self.pos == at {
            self.skip()?;
        }
        self.skip_ws();
        Ok(())
    }

    /// Steps past the closing bracket at `pos`.
    #[inline]
    fn leave(&mut self) -> Result<(), String> {
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

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

    /// Reads the scalar at `pos`.
    #[inline]
    fn token(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number().map(Scalar::Num),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
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
    /// `1.2.3` do not. `always`, as for [`Reader::string`].
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

    /// Reads the string at `pos`, checking every escape. `always`: a
    /// plain `#[inline]` left this a call from the callers' crates, and
    /// `parse_request` ~25% slower.
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
        let (c, len) = escape_at(bytes, at).expect("the reader checked every escape");
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
        assert_eq!(v.field::<Option<String>>("s"), Ok(Some("x".into())));
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
    fn the_reader_reads_what_it_is_asked_for_and_skips_the_rest() {
        let text = r#"{"a":1,"x":{"y":[1,{"z":null}]},"b":[true,"s\n",[2]],"a":"dup"} "#;
        let mut r = Reader::new(text);
        let (mut a, mut b, mut keys) = (None, Vec::new(), Vec::new());
        r.object(|r, key| {
            keys.push(key.to_string());
            match key {
                // The first "a" wins; the later one is not type-checked.
                "a" => r.first(&mut a, Reader::read::<u64>),
                "b" => r.array(|r| {
                    b.push(r.scalar()?);
                    Ok(())
                }),
                _ => Ok(()),
            }
        })
        .unwrap();
        r.finish().unwrap();
        assert_eq!(a, Some(1));
        assert_eq!(keys, ["a", "x", "b", "a"]);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], Some(Scalar::Bool(true)));
        assert_eq!(
            b[1].map(|s| match s {
                Scalar::Str(s) => s.text().into_owned(),
                _ => String::new(),
            }),
            Some("s\n".to_string())
        );
        assert_eq!(b[2], None, "an array reads as no scalar");
        // An unread value is still validated.
        let bad = r#"{"a":1,"x":[1,]}"#;
        assert!(Reader::new(bad).object(|_, _| Ok(())).is_err());
    }

    #[test]
    fn skip_validates_a_value_and_returns_its_text() {
        let mut r = Reader::new(r#" [1, {"k": "v"}] "#);
        assert_eq!(r.skip(), Ok(r#"[1, {"k": "v"}]"#));
        r.finish().unwrap();
        assert!(Reader::new("[1,]").skip().is_err());
        let mut r = Reader::new("1 2");
        r.skip().unwrap();
        assert_eq!(r.finish().unwrap_err(), "trailing data at byte 2");
    }

    #[test]
    fn a_value_of_another_kind_reports_its_own_error_first() {
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Reader::new(&deep).object(|_, _| Ok(())).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert_eq!(
            Reader::new(" [1]").object(|_, _| Ok(())).unwrap_err(),
            "expected an object at byte 1"
        );
        assert_eq!(
            Reader::new("{}").read::<u64>().unwrap_err(),
            "is not an unsigned integer"
        );
        assert_eq!(
            Reader::new("[").scalar().unwrap_err(),
            "unexpected end of input"
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
