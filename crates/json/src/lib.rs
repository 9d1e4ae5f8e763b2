//! Zero-dependency JSON serialization for mbcr artifacts.
//!
//! The build environment is offline, so `serde`/`serde_json` cannot be
//! fetched; this crate provides the small subset the workspace needs:
//!
//! * [`Json`] — an ordered JSON value tree (numbers keep their integer
//!   width, so `u64` seeds round-trip exactly);
//! * [`Serialize`] — the trait report types implement, with
//!   [`impl_serialize_struct!`] generating field-exhaustive impls (the
//!   destructuring pattern fails to compile if a struct gains or loses a
//!   field, the same drift protection a derive gives);
//! * [`parse`] — a strict recursive-descent parser for reading manifests
//!   and artifacts back;
//! * [`csv_field`] — CSV quoting for the artifact store's tabular outputs.
//!
//! # Examples
//!
//! ```
//! use mbcr_json::{parse, Json, Serialize};
//!
//! let v = Json::Obj(vec![
//!     ("name".into(), "bs".into()),
//!     ("runs".into(), Json::UInt(300)),
//! ]);
//! let text = v.to_string();
//! let back = parse(&text).unwrap();
//! assert_eq!(back.get("runs").and_then(Json::as_u64), Some(300));
//! assert_eq!(300u64.to_json(), Json::UInt(300));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (kept exact; `u64` seeds round-trip).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` on other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (any numeric variant).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::UInt(v) => i64::try_from(v).ok(),
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `usize` if it is a non-negative integer in range.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The string payload.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The array payload.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact rendering (`Display` renders compact as well).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0)
            .expect("writing to a String cannot fail");
        out
    }

    /// Two-space-indented rendering.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)
            .expect("writing to a String cannot fail");
        out
    }

    /// Streams the [`to_pretty`](Json::to_pretty) rendering into `out`,
    /// byte for byte, without building the string first — large artifacts
    /// go to disk without a second in-memory copy. The rendering issues
    /// many small writes, so hand it a buffered writer.
    ///
    /// # Errors
    ///
    /// The first error `out` reports.
    pub fn write_pretty(&self, out: &mut impl io::Write) -> io::Result<()> {
        let mut sink = IoSink { out, error: None };
        match self.write(&mut sink, Some(2), 0) {
            Ok(()) => Ok(()),
            Err(fmt::Error) => Err(sink
                .error
                .unwrap_or_else(|| io::Error::other("JSON rendering failed"))),
        }
    }

    fn write<W: fmt::Write>(
        &self,
        out: &mut W,
        indent: Option<usize>,
        depth: usize,
    ) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let mut buf = itoa_buffer();
                out.write_str(write_u64(&mut buf, *v))
            }
            Json::Int(v) => {
                if *v < 0 {
                    out.write_char('-')?;
                }
                let mut buf = itoa_buffer();
                out.write_str(write_u64(&mut buf, v.unsigned_abs()))
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let text = format!("{v}");
                    out.write_str(&text)?;
                    // Distinguish 2.0 from the integer 2 so floats stay
                    // floats across a round-trip.
                    if !text.contains(['.', 'e', 'E']) {
                        out.write_str(".0")?;
                    }
                    Ok(())
                } else {
                    out.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_sequence(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1)
                })
            }
            Json::Obj(members) => {
                write_sequence(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (key, value) = &members[i];
                    write_escaped(out, key)?;
                    out.write_char(':')?;
                    if indent.is_some() {
                        out.write_char(' ')?;
                    }
                    value.write(out, indent, depth + 1)
                })
            }
        }
    }
}

/// Adapts an [`io::Write`] to the [`fmt::Write`] the renderer drives,
/// keeping the I/O error that `fmt::Error` cannot carry.
struct IoSink<'w, W> {
    out: &'w mut W,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoSink<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

fn itoa_buffer() -> [u8; 20] {
    [0; 20]
}

fn write_u64(buf: &mut [u8; 20], mut v: u64) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ascii digits")
}

fn write_sequence<W: fmt::Write>(
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(width) = indent {
            write_newline_indent(out, width * (depth + 1))?;
        }
        item(out, i)?;
    }
    if len > 0 {
        if let Some(width) = indent {
            write_newline_indent(out, width * depth)?;
        }
    }
    out.write_char(close)
}

fn write_newline_indent<W: fmt::Write>(out: &mut W, spaces: usize) -> fmt::Result {
    const SPACES: &str = "                                ";
    out.write_char('\n')?;
    let mut left = spaces;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.write_str(&SPACES[..n])?;
        left -= n;
    }
    Ok(())
}

/// Writes `s` as a quoted JSON string, copying each run of characters
/// that need no escape in one write.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    // Every byte that needs an escape is ASCII, so the runs between them
    // split `s` on character boundaries.
    for (at, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.write_str(&s[plain..at])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        plain = at + 1;
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait Serialize {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

impl Serialize for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Serialize for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl Serialize for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::UInt(u64::from(*self))
            }
        }
    )*};
}

impl_serialize_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                let v = i64::from(*self);
                if v >= 0 { Json::UInt(v as u64) } else { Json::Int(v) }
            }
        }
    )*};
}

impl_serialize_int!(i8, i16, i32, i64);

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Generates a field-exhaustive [`Serialize`] impl for a struct with named
/// fields, in the listed order. Fields named in an optional trailing
/// `skip { .. }` list are left out of the JSON. The destructuring pattern
/// names every field either way (skipped ones as `field: _`), so adding or
/// removing a field without updating the call site is a compile error,
/// giving the same drift protection as a derive.
///
/// ```
/// struct Fit { runs: usize, sample: Vec<u64> }
/// mbcr_json::impl_serialize_struct!(Fit { runs } skip { sample });
/// let json = mbcr_json::Serialize::to_json(&Fit { runs: 2, sample: vec![7, 9] });
/// assert_eq!(json.to_compact(), r#"{"runs":2}"#);
/// ```
#[macro_export]
macro_rules! impl_serialize_struct {
    ($ty:ty { $($field:ident),+ $(,)? } $(skip { $($skip:ident),+ $(,)? })?) => {
        impl $crate::Serialize for $ty {
            fn to_json(&self) -> $crate::Json {
                let Self { $($field,)+ $($($skip: _,)+)? } = self;
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::Serialize::to_json($field)),)+
                ])
            }
        }
    };
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the error.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (strict: one value, no trailing garbage).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first offending character.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    if self.peek() == Some(b'u') {
                        self.at += 1;
                        let first = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: a `\uXXXX` low surrogate must
                            // follow.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let second = self.hex4()?;
                            let low = second
                                .checked_sub(0xDC00)
                                .filter(|&d| d < 0x400)
                                .ok_or_else(|| self.err("invalid low surrogate"))?;
                            char::from_u32(0x10000 + ((first - 0xD800) << 10) + low)
                        } else {
                            char::from_u32(first)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        continue;
                    }
                    let replacement = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    out.push(replacement);
                    self.at += 1;
                }
                Some(_) => {
                    // Take the whole run of plain bytes up to the next quote
                    // or backslash in one step. Both delimiters are ASCII, so
                    // the run ends on a character boundary of the (already
                    // valid) input and needs no re-validation.
                    let start = self.at;
                    let rest = &self.bytes[start..];
                    self.at += rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[start..self.at]);
                }
            }
        }
    }

    /// Consumes exactly 4 hex digits at `self.at`.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for i in 0..4 {
            let d = self
                .bytes
                .get(self.at + i)
                .and_then(|b| (*b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
        }
        self.at += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are ASCII");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            message: "invalid number".into(),
            offset: start,
        })
    }
}

/// FNV-1a, 64-bit: the workspace's one content-hash primitive (job keys,
/// config digests). `seed` is the running hash state — start from
/// [`FNV_OFFSET`] (or any prior `fnv1a` output, to chain).
#[must_use]
pub fn fnv1a(seed: u64, text: &str) -> u64 {
    fnv1a_bytes(seed, text.as_bytes())
}

/// [`fnv1a`] over raw bytes (sample checksums, binary artifacts).
#[must_use]
pub fn fnv1a_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Quotes a value for CSV output (RFC 4180): fields containing commas,
/// quotes or newlines are wrapped and inner quotes doubled.
#[must_use]
pub fn csv_field(value: &str) -> String {
    if value.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Json::Obj(vec![
            ("name".into(), "bs / \"quoted\"\n".into()),
            ("seed".into(), Json::UInt(u64::MAX)),
            ("delta".into(), Json::Int(-42)),
            ("pwcet".into(), Json::Num(1234.5)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "failed on: {text}");
        }
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        for seed in [0u64, 1 << 53, u64::MAX, 0x6D62_6372] {
            let text = Json::UInt(seed).to_compact();
            assert_eq!(parse(&text).unwrap().as_u64(), Some(seed));
        }
    }

    #[test]
    fn float_integers_stay_floats() {
        let text = Json::Num(2.0).to_compact();
        assert_eq!(text, "2.0");
        assert_eq!(parse(&text).unwrap(), Json::Num(2.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"\\x\"", "01a"] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\u00e9\n\t\" \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("aé\n\t\" 😀"));
    }

    #[test]
    fn parser_keeps_raw_multibyte_characters() {
        // 2-, 3- and 4-byte UTF-8 characters at both ends of a string and
        // next to escapes, on either side.
        for (text, want) in [
            ("\"é\"", "é"),
            ("\"€\"", "€"),
            ("\"😀\"", "😀"),
            ("\"é plain 😀\"", "é plain 😀"),
            ("\"€\\n\"", "€\n"),
            ("\"\\t😀\"", "\t😀"),
            ("\"\\\"é\\\"\"", "\"é\""),
            ("\"😀\\\\€\"", "😀\\€"),
            ("\"é\\u00e9€\\ud83d\\ude00😀\"", "éé€😀😀"),
            ("\"a\\/é\"", "a/é"),
        ] {
            assert_eq!(parse(text).unwrap().as_str(), Some(want), "parsing {text}");
        }
        let v = Json::Obj(vec![("é€😀".into(), "😀\"€\n\\é\u{1}".into())]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "round-trip of {text}");
        }
    }

    #[test]
    fn truncated_documents_are_errors_not_panics() {
        let doc = "{\"kinds\": \"fr\\\"é€😀\\u00e9\\ud83d\\ude00w\", \
                   \"xs\": [1, -2, 3.5e1, true, null], \"o\": {\"k\": \"😀\"}}";
        assert!(parse(doc).is_ok());
        for cut in (0..doc.len()).filter(|&at| doc.is_char_boundary(at)) {
            assert!(parse(&doc[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        let bare = "\"é\\\"€😀\\\\\"";
        assert_eq!(parse(bare).unwrap().as_str(), Some("é\"€😀\\"));
        for cut in (0..bare.len()).filter(|&at| bare.is_char_boundary(at)) {
            assert!(parse(&bare[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }

    #[test]
    fn trace_shaped_documents_parse_in_linear_time() {
        // A trace artifact stores one kind character per access next to
        // an equally long number array; a parser that rescans the rest of
        // the input per string character is quadratic in this shape.
        let n = 200_000;
        let kinds: String = (0..n).map(|i| ['f', 'r', 'w'][i % 3]).collect();
        let doc = Json::Obj(vec![
            ("kinds".into(), Json::Str(kinds.clone())),
            (
                "addrs".into(),
                Json::Arr((0..n as u64).map(|i| Json::UInt(i * 4)).collect()),
            ),
        ]);
        let text = doc.to_pretty();
        let start = std::time::Instant::now();
        let back = parse(&text).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            back.get("kinds").and_then(Json::as_str),
            Some(kinds.as_str())
        );
        assert_eq!(
            back.get("addrs")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(n)
        );
        assert!(secs < 2.0, "parsing took {secs:.2} s");
    }

    #[test]
    fn streamed_rendering_matches_to_pretty() {
        let v = Json::Obj(vec![
            ("name".into(), "bs / \"quoted\"\n\u{1f}é".into()),
            ("seed".into(), Json::UInt(u64::MAX)),
            ("delta".into(), Json::Int(-42)),
            ("pwcet".into(), Json::Num(1234.5)),
            ("whole".into(), Json::Num(2.0)),
            ("nan".into(), Json::Num(f64::NAN)),
            (
                "deep".into(),
                (0..40).fold(Json::Arr(vec![Json::Null]), |inner, _| {
                    Json::Arr(vec![inner, Json::Bool(false)])
                }),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        let mut streamed = Vec::new();
        v.write_pretty(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), v.to_pretty());
    }

    #[test]
    fn streamed_rendering_reports_writer_errors() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = Json::Arr(vec![Json::UInt(1)])
            .write_pretty(&mut Full)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn parser_handles_numbers() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1.5e3").unwrap(), Json::Num(1500.0));
        assert_eq!(parse("-0.25").unwrap(), Json::Num(-0.25));
    }

    #[test]
    fn accessors_navigate() {
        let v = parse(r#"{"jobs": [{"key": "abc", "runs": 300}]}"#).unwrap();
        let job = &v.get("jobs").unwrap().as_array().unwrap()[0];
        assert_eq!(job.get("key").unwrap().as_str(), Some("abc"));
        assert_eq!(job.get("runs").unwrap().as_usize(), Some(300));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn serialize_primitives() {
        assert_eq!((-3i32).to_json(), Json::Int(-3));
        assert_eq!(3i32.to_json(), Json::UInt(3));
        assert_eq!("x".to_json(), Json::Str("x".into()));
        assert_eq!(Some(1u8).to_json(), Json::UInt(1));
        assert_eq!(None::<u8>.to_json(), Json::Null);
        assert_eq!(
            vec![("a".to_string(), 1u32)].to_json(),
            Json::Arr(vec![Json::Arr(vec![Json::Str("a".into()), Json::UInt(1)])])
        );
    }

    #[test]
    fn struct_macro_serializes_all_fields() {
        struct Demo {
            runs: usize,
            pwcet: f64,
            name: String,
        }
        impl_serialize_struct!(Demo { runs, pwcet, name });
        let d = Demo {
            runs: 5,
            pwcet: 1.5,
            name: "bs".into(),
        };
        let j = d.to_json();
        assert_eq!(j.get("runs").unwrap().as_usize(), Some(5));
        assert_eq!(j.get("pwcet").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.get("name").unwrap().as_str(), Some("bs"));
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
