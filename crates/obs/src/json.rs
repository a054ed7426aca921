//! Minimal serde-free JSON: one writer, one parser and a value tree.
//! Enough for run reports, the daemon's frames and the Chrome trace
//! exporter — not a general-purpose library.
//!
//! [`TextWriter`] is the only code that writes JSON text. A section
//! ([`ToJson`]) says its fields once, as begin/end, key and scalar
//! calls on it; the daemon streams every reply frame's payload straight
//! into the frame this way. A section says each object's members in
//! key order, once each, so its text is canonical: the text a `Json`
//! tree of it prints. The writer writes members as they come and does
//! not check or repair their order; the tests hold every section's
//! text as a write→parse→write fixpoint. A [`Json`] tree prints through
//! the same writer (`Display`), and a section becomes a tree by parsing
//! its text (`ToJson::to_json`).
//!
//! Every reply the client reads is parsed here. The parser copies each
//! string out of the input once, reads integers as their digits go by,
//! builds each array once at its final size and each object by
//! inserting its members as they arrive.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects use a `BTreeMap` so output key order is
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Appends `s` as a JSON string literal, quotes included. Runs with
/// nothing to escape are copied whole; only `"`, `\\` and the control
/// characters are rewritten.
fn write_string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push(b'"');
    let mut run = 0;
    while let Some(skip) = bytes[run..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        let at = run + skip;
        out.extend_from_slice(&bytes[run..at]);
        let b = bytes[at];
        match b {
            b'"' | b'\\' => out.extend_from_slice(&[b'\\', b]),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hi, lo]);
            }
        }
        run = at + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Appends `n` in decimal, digit by digit from a stack buffer: an
/// integer never goes through the `fmt` machinery.
fn write_int(out: &mut Vec<u8>, n: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push(b'-');
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a float: the shortest text that reads back as the same
/// value, with `.0` on an integral one (so it stays a float on
/// re-parse) and `null` for a non-finite one.
fn write_float(out: &mut Vec<u8>, x: f64) {
    use std::io::Write;
    if !x.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    // `{}` prints an integral float without a dot and never with an
    // exponent.
    write!(out, "{x}").expect("writing to a Vec cannot fail");
    if x.fract() == 0.0 {
        out.extend_from_slice(b".0");
    }
}

impl Json {
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    // -- accessors ----------------------------------------------------

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Removes the value at a dotted object path (`"dispatch.compile_ns"`)
    /// and returns it; `None` when any segment is missing or not an
    /// object.
    pub fn remove_path(&mut self, path: &str) -> Option<Json> {
        let mut node = self;
        let mut keys = path.split('.').peekable();
        while let Some(key) = keys.next() {
            let Json::Obj(map) = node else { return None };
            if keys.peek().is_none() {
                return map.remove(key);
            }
            node = map.get_mut(key)?;
        }
        None
    }

    // -- parsing ------------------------------------------------------

    /// Parses one document. Nesting deeper than [`MAX_DEPTH`] is an
    /// error, not a stack overflow.
    ///
    /// # Errors
    ///
    /// Malformed input, with the byte offset where it went wrong.
    pub fn parse(s: &str) -> Result<Json, ParseError> {
        let mut p = Parser::new(s);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Writes through [`TextWriter`] into a byte buffer, then hands the
    /// formatter one string. A `BTreeMap` holds its keys in key order,
    /// once each, so a tree's text is canonical.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Vec::new();
        self.write_json(&mut text);
        f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)
    }
}

impl From<u64> for Json {
    /// Saturates at `i64::MAX`: a counter past the `Int` range reads as
    /// "huge", never as a negative number.
    fn from(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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

/// A value that writes itself as JSON: the one definition of a report
/// section's fields, said through a [`TextWriter`]. Each object's
/// members are said in key order (byte order, a `BTreeMap`'s), once
/// each, so that `parse(text).to_string() == text`.
pub trait ToJson {
    fn emit(&self, out: &mut TextWriter<'_>);

    /// Appends the value's text to `out`.
    fn write_json(&self, out: &mut Vec<u8>) {
        self.emit(&mut TextWriter::new(out));
    }

    /// The value as a [`Json`] tree: its text, parsed. The tree holds
    /// what the wire carries, so a non-finite float reads back as
    /// [`Json::Null`], the `null` it was written as. The parse cannot
    /// fail: the writer's text is well-formed, and only nesting past
    /// [`MAX_DEPTH`] is refused, where no section comes near (the
    /// deepest nests six levels).
    fn to_json(&self) -> Json {
        let mut text = Vec::new();
        self.write_json(&mut text);
        let text = std::str::from_utf8(&text).expect("the writer writes UTF-8");
        Json::parse(text).expect("the writer's text parses")
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn emit(&self, out: &mut TextWriter<'_>) {
        (**self).emit(out);
    }
}

impl ToJson for bool {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.bool(*self);
    }
}

impl ToJson for u64 {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.uint(*self);
    }
}

impl ToJson for usize {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.uint(*self as u64);
    }
}

impl ToJson for f64 {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.float(*self);
    }
}

impl ToJson for str {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.str(self);
    }
}

impl ToJson for String {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.str(self);
    }
}

impl ToJson for Json {
    fn emit(&self, out: &mut TextWriter<'_>) {
        match self {
            Json::Null => out.null(),
            Json::Bool(b) => out.bool(*b),
            Json::Int(n) => out.int(*n),
            Json::Float(x) => out.float(*x),
            Json::Str(s) => out.str(s),
            Json::Arr(items) => out.arr(items),
            Json::Obj(members) => {
                out.begin_obj();
                for (k, v) in members {
                    out.field(k, v);
                }
                out.end_obj();
            }
        }
    }
}

/// A container open in a [`TextWriter`], and whether it has a member
/// yet.
enum Open {
    Arr { empty: bool },
    Obj { empty: bool },
}

/// The JSON writer: appends a document's text to a byte buffer. The
/// daemon streams each reply frame's payload through it, straight
/// after the header.
///
/// A document is one value; a value is a scalar or a container; inside
/// an object every value follows its [`key`](TextWriter::key). Members
/// go out as they are said: a section says its members in key order,
/// once each, and the writer neither checks nor repairs that order.
pub struct TextWriter<'a> {
    out: &'a mut Vec<u8>,
    open: Vec<Open>,
}

impl<'a> TextWriter<'a> {
    /// Sized so that writing a run report never regrows the stack.
    pub fn new(out: &'a mut Vec<u8>) -> TextWriter<'a> {
        TextWriter {
            out,
            open: Vec::with_capacity(8),
        }
    }

    pub fn begin_obj(&mut self) {
        self.value();
        self.open.push(Open::Obj { empty: true });
        self.out.push(b'{');
    }

    pub fn end_obj(&mut self) {
        let Some(Open::Obj { .. }) = self.open.pop() else {
            panic!("end_obj closes an object");
        };
        self.out.push(b'}');
    }

    pub fn begin_arr(&mut self) {
        self.value();
        self.open.push(Open::Arr { empty: true });
        self.out.push(b'[');
    }

    pub fn end_arr(&mut self) {
        let Some(Open::Arr { .. }) = self.open.pop() else {
            panic!("end_arr closes an array");
        };
        self.out.push(b']');
    }

    /// The key of the object member whose value comes next, after the
    /// comma between members.
    pub fn key(&mut self, key: &str) {
        let Some(Open::Obj { empty }) = self.open.last_mut() else {
            panic!("a key belongs inside an object");
        };
        if !*empty {
            self.out.push(b',');
        }
        *empty = false;
        write_string(self.out, key);
        self.out.push(b':');
    }

    pub fn null(&mut self) {
        self.value();
        self.out.extend_from_slice(b"null");
    }

    pub fn bool(&mut self, b: bool) {
        self.value();
        self.out
            .extend_from_slice(if b { b"true" as &[u8] } else { b"false" });
    }

    pub fn int(&mut self, n: i64) {
        self.value();
        write_int(self.out, n);
    }

    /// Saturates at `i64::MAX`, like `Json::from(u64)`.
    pub fn uint(&mut self, n: u64) {
        self.int(i64::try_from(n).unwrap_or(i64::MAX));
    }

    /// A non-finite float is written as `null`.
    pub fn float(&mut self, x: f64) {
        self.value();
        write_float(self.out, x);
    }

    pub fn str(&mut self, s: &str) {
        self.value();
        write_string(self.out, s);
    }

    /// One object member: the key, then the value.
    pub fn field<V: ToJson + ?Sized>(&mut self, key: &str, value: &V) {
        self.key(key);
        value.emit(self);
    }

    /// An array of `items`, in order.
    pub fn arr<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::Item: ToJson,
    {
        self.begin_arr();
        for item in items {
            item.emit(self);
        }
        self.end_arr();
    }

    /// Before a value: the comma between array elements.
    fn value(&mut self) {
        if let Some(Open::Arr { empty }) = self.open.last_mut() {
            if !*empty {
                self.out.push(b',');
            }
            *empty = false;
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub pos: usize,
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so without a bound a payload of
/// `[`s overflows the stack, an abort no caller can catch. The deepest
/// document this tool writes, a RESULT, nests six levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Elements of the open arrays, innermost last: an array takes its
    /// run off the top when it closes, so its `Vec` is allocated once,
    /// at its final length.
    items: Vec<Json>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src,
            pos: 0,
            depth: 0,
            items: Vec::new(),
        }
    }

    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
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
            Err(self.err("unexpected byte"))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected value")),
        }
    }

    /// An object, its members inserted into its map as they arrive, so
    /// a repeated key keeps its last value.
    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let base = self.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        loop {
            self.skip_ws();
            let v = self.value()?;
            self.items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string token, copied out of the input once. Runs between
    /// escapes end at ASCII bytes, so every slice is on char boundaries.
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let src = self.src;
        let mut run = self.pos;
        let mut owned = String::new();
        loop {
            let rest = &src.as_bytes()[self.pos..];
            let Some(n) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = src.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += n;
            if rest[n] == b'"' {
                let tail = &src[run..self.pos];
                self.pos += 1;
                if owned.is_empty() {
                    return Ok(tail.to_owned());
                }
                owned.push_str(tail);
                return Ok(owned);
            }
            owned.push_str(&src[run..self.pos]);
            self.pos += 1;
            owned.push(self.escape()?);
            run = self.pos;
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => return self.unicode_escape(),
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `\uXXXX`, with `pos` at the `u`. A high surrogate followed by a
    /// low one in the next escape is one character — how JSON writers
    /// (Python's `json.dumps`, for one) spell anything past U+FFFF. A
    /// surrogate without its partner reads as U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let high = self
            .hex4(self.pos)
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 5;
        let mut code = high;
        if (0xd800..0xdc00).contains(&high) && self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
            if let Some(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 1) {
                code = 0x1_0000 + ((high - 0xd800) << 10) + (low - 0xdc00);
                self.pos += 6;
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits after the `u` at `at`, if they are there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.src.get(at + 1..at + 5)?;
        digits
            .chars()
            .try_fold(0, |code, c| Some(code << 4 | c.to_digit(16)?))
    }

    /// A number token. An integer is read as its digits go by; a token
    /// with a fraction or an exponent is handed to `f64`'s parser.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        // The magnitude, or `None` once it passes `u64`.
        let mut magnitude = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if float {
            // Every byte the token spans is ASCII.
            return self.src[start..self.pos]
                .parse()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"));
        }
        let n = match magnitude.filter(|_| self.pos > digits) {
            Some(m) if negative => 0i64.checked_sub_unsigned(m),
            Some(m) => i64::try_from(m).ok(),
            None => None,
        };
        n.map(Json::Int).ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Json::obj([
            (
                "metrics",
                Json::obj([("guest_retired", Json::from(12345u64))]),
            ),
            (
                "rules",
                Json::arr([Json::obj([
                    ("label", Json::str("add reg reg imm /00")),
                    ("covered", Json::from(99u64)),
                ])]),
            ),
            ("ratio", Json::from(0.875)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(
            back.get("metrics")
                .and_then(|m| m.get("guest_retired"))
                .and_then(|v| v.as_u64()),
            Some(12345)
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::str("a\"b\\c\nd\te\u{1}");
        let text = doc.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn numbers_parse_with_sign_and_exponent() {
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("2.0").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn integral_floats_stay_floats_on_roundtrip() {
        let text = Json::Float(2.0).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(2.0));
    }

    #[test]
    fn u64_past_the_int_range_saturates() {
        assert_eq!(Json::from(u64::MAX), Json::Int(i64::MAX));
        assert_eq!(Json::from(7u64), Json::Int(7));
    }

    #[test]
    fn remove_path_walks_dotted_object_keys() {
        let mut doc = Json::parse(r#"{"a":{"b":{"c":1,"d":2}},"e":3}"#).unwrap();
        assert_eq!(doc.remove_path("a.b.c"), Some(Json::Int(1)));
        assert_eq!(doc.remove_path("e"), Some(Json::Int(3)));
        assert_eq!(doc.remove_path("a.x.c"), None);
        assert_eq!(doc.remove_path("a.b.d.z"), None);
        assert_eq!(doc.to_string(), r#"{"a":{"b":{"d":2}}}"#);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\"}", "01x", "tru", "{}extra"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn nesting_is_bounded() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nest = |n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
            assert!(
                Json::parse(&nest(MAX_DEPTH)).is_ok(),
                "{open}: the bound parses"
            );
            let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.msg, "nesting too deep", "{open}: bound + 1 errors");
        }
        // Depth is nesting, not the number of containers seen.
        let siblings = "[[]]".repeat(1_000);
        assert!(Json::parse(&format!("[{}]", siblings.replace("][", "],["))).is_ok());
        // What once overflowed the stack is one error.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // Python's `json.dumps("😀")`.
        assert_eq!(Json::parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        assert_eq!(
            Json::parse(r#""a\uD834\uDD1Eb""#).unwrap(),
            Json::str("a𝄞b")
        );
        // A surrogate without its partner is U+FFFD; whatever follows a
        // lone high surrogate is read on its own.
        for (text, want) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::str(want), "{text}");
        }
        for bad in [r#""\ud83d\u""#, r#""\u12""#, r#""\u+123""#, r#""\u12é4""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integers_spell_as_fmt_does() {
        for n in [0, 1, -1, 9, 10, -10, 1234567890, i64::MIN, i64::MAX] {
            let mut s = Vec::new();
            write_int(&mut s, n);
            assert_eq!(s, n.to_string().as_bytes());
        }
    }

    #[test]
    fn strings_with_and_without_escapes_parse_alike() {
        for text in ["plain", "ünï\u{1f600}", "", "tab\there", "end\\"] {
            let doc = Json::str(text);
            assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        }
    }
}
