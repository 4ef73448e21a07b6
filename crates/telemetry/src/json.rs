//! A minimal JSON writer, document model and parser.
//!
//! The build environment has no registry access, so instead of
//! `serde_json` this module carries its own JSON. [`JsonWriter`] is the
//! one formatter: exporters write their fields straight into it, and a
//! [`Value`] tree renders through it too. [`Document`] renders any
//! [`WriteJson`] type into an exactly sized `String` or streams it into
//! an [`io::Write`] sink, so a report never exists as a tree. The
//! parser builds [`Value`]s, so tests and the CLI can read documents
//! back.
//!
//! Scope: exactly RFC 8259 documents the exporters emit — objects keep
//! insertion order, numbers are `f64`, non-finite numbers serialize as
//! `null`.

#![cfg_attr(not(test), warn(clippy::expect_used))]

use std::borrow::Cow;
use std::fmt;
use std::io;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write. Keys are
    /// borrowed when they are literals, so a built document does not
    /// allocate a string per field.
    Obj(Vec<(Cow<'static, str>, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&'static str, Value)>) -> Value {
        Value::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// A number value (non-finite inputs become `null` on write).
    pub fn num(n: f64) -> Value {
        Value::Num(n)
    }

    /// Looks up `key` in an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_json(&self) -> String {
        Document(self).to_json()
    }

    /// Serializes with 2-space indentation, for human-inspected output.
    pub fn to_json_pretty(&self) -> String {
        Document(self).to_json_pretty()
    }
}

impl WriteJson for Value {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        w.value(self);
    }
}

/// A type that writes itself as one JSON value into a [`JsonWriter`].
pub trait WriteJson {
    /// Writes `self` as the writer's next value.
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>);
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json<W: Sink>(&self, w: &mut JsonWriter<W>) {
        (**self).write_json(w);
    }
}

/// A document ready to render: compact or pretty, into a `String` or
/// an [`io::Write`] sink.
///
/// Rendering into a `String` writes the document twice with the same
/// code, once counting its bytes and once into a buffer of exactly that
/// capacity, so the text is the only allocation. Writing into a sink
/// allocates nothing.
#[derive(Debug)]
pub struct Document<T>(pub T);

impl<T: WriteJson> Document<T> {
    /// Serializes compactly (no whitespace).
    pub fn to_json(&self) -> String {
        self.render(false)
    }

    /// Serializes with 2-space indentation and a trailing newline, for
    /// human-inspected output.
    pub fn to_json_pretty(&self) -> String {
        self.render(true)
    }

    /// Streams the compact text into `out`.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` returns.
    pub fn write_compact(&self, out: impl io::Write) -> io::Result<()> {
        self.stream(out, false)
    }

    /// Streams the pretty text (what [`Document::to_json_pretty`]
    /// returns) into `out`.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` returns.
    pub fn write_pretty(&self, out: impl io::Write) -> io::Result<()> {
        self.stream(out, true)
    }

    fn render(&self, pretty: bool) -> String {
        let len = self.emit(ByteCount(0), pretty).0;
        let bytes = self.emit(Vec::with_capacity(len), pretty);
        debug_assert_eq!(bytes.len(), len, "both passes write the same bytes");
        // The writer copies whole `&str`s and ASCII only, so this never
        // fails; the lossy branch keeps it panic-free.
        String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    fn stream(&self, out: impl io::Write, pretty: bool) -> io::Result<()> {
        match self.emit(IoSink { out, error: None }, pretty).error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn emit<W: Sink>(&self, out: W, pretty: bool) -> W {
        let mut w = JsonWriter::new(out, pretty);
        self.0.write_json(&mut w);
        if pretty {
            w.put(b"\n");
        }
        w.out
    }
}

/// Where a [`JsonWriter`] puts its text: whole UTF-8 strings or ASCII
/// runs, so a byte buffer it fills is valid UTF-8.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends `n` in decimal, as `{}` formats it.
    #[inline]
    fn put_int(&mut self, n: i64) {
        let mut digits = [0; 20];
        let at = decimal(n, &mut digits);
        self.put(digits.get(at..).unwrap_or_default());
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that only counts the bytes written into it.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    #[inline]
    fn put_int(&mut self, n: i64) {
        let digits = n
            .unsigned_abs()
            .checked_ilog10()
            .map_or(1, |d| d as usize + 1);
        self.0 += digits + usize::from(n < 0);
    }
}

/// An [`io::Write`] seen as a sink. The first error is kept, and every
/// later write is skipped.
struct IoSink<W> {
    out: W,
    error: Option<io::Error>,
}

impl<W: io::Write> Sink for IoSink<W> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }
}

/// A [`Sink`] seen as a [`fmt::Write`], for the few values the
/// formatting machinery writes.
struct Fmt<'a, W>(&'a mut W);

impl<W: Sink> fmt::Write for Fmt<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put(s.as_bytes());
        Ok(())
    }
}

/// `"00"` to `"99"`, for writing integers two digits at a time.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `n` in decimal into the tail of `out` and returns where it
/// starts.
#[inline]
fn decimal(n: i64, out: &mut [u8; 20]) -> usize {
    let mut at = out.len();
    let mut rest = n.unsigned_abs();
    let pair = |out: &mut [u8; 20], at: usize, two: u64| {
        let from = 2 * two as usize;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[from..from + 2]);
    };
    while rest >= 100 {
        at -= 2;
        pair(out, at, rest % 100);
        rest /= 100;
    }
    if rest >= 10 {
        at -= 2;
        pair(out, at, rest);
    } else {
        at -= 1;
        out[at] = b'0' + rest as u8;
    }
    if n < 0 {
        at -= 1;
        out[at] = b'-';
    }
    at
}

/// Levels deep enough for every document the exporters write; deeper
/// lines are written a level at a time.
const LINE_DEPTHS: usize = 16;

/// For each depth `d` below [`LINE_DEPTHS`], at offset `d * (d + 2)`: a
/// member separator, a newline, `2 * d` spaces and a key's opening
/// quote. A member's line in pretty output is one slice of this.
const LINES: [u8; LINE_DEPTHS * (LINE_DEPTHS + 2)] = {
    let mut lines = [b' '; LINE_DEPTHS * (LINE_DEPTHS + 2)];
    let mut d = 0;
    while d < LINE_DEPTHS {
        let at = d * (d + 2);
        lines[at] = b',';
        lines[at + 1] = b'\n';
        lines[at + 2 + 2 * d] = b'"';
        d += 1;
    }
    lines
};

/// The line opening a member at depth `d` in pretty output: `,` unless
/// it is the first, a newline, the indentation, and a key's opening
/// quote when `quote`. `None` from [`LINE_DEPTHS`] on.
fn pretty_line(d: usize, first: bool, quote: bool) -> Option<&'static [u8]> {
    let at = d * (d + 2);
    LINES.get(at + usize::from(first)..at + 2 + 2 * d + usize::from(quote))
}

/// A streaming JSON writer: the one formatter every document goes
/// through.
///
/// Values are written in document order. Inside an object, each value
/// follows its [`JsonWriter::key`]; containers are written by
/// [`JsonWriter::obj`] and [`JsonWriter::arr`], whose closures write the
/// members. Separators, newlines and indentation are placed by the
/// writer, so compact and pretty output come from the same calls.
/// [`Document`] reports the errors of an [`io::Write`] sink.
#[derive(Debug)]
pub struct JsonWriter<W> {
    out: W,
    pretty: bool,
    /// Open arrays and objects.
    depth: usize,
    /// Whether the open container has no member yet.
    first: bool,
    /// Whether a key was just written, so the next value follows it
    /// on the same line.
    after_key: bool,
}

impl<W: Sink> JsonWriter<W> {
    /// A writer into `out`: compact, or pretty with 2-space indentation.
    fn new(out: W, pretty: bool) -> Self {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.out.put(bytes);
    }

    /// Writes `,` unless `first`, then in pretty output a newline
    /// indented to `depth`.
    fn line(&mut self, first: bool, depth: usize) {
        if !self.pretty {
            if !first {
                self.put(b",");
            }
        } else if let Some(line) = pretty_line(depth, first, false) {
            self.put(line);
        } else {
            self.put(pretty_line(0, first, false).unwrap_or_default());
            for _ in 0..depth {
                self.put(b"  ");
            }
        }
    }

    /// Starts the next value: after a key, nothing; inside a container,
    /// the separator and the member's line.
    fn member(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.line(self.first, self.depth);
            self.first = false;
        }
    }

    fn container(&mut self, open: u8, close: u8, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.member();
        self.put(&[open]);
        self.depth += 1;
        self.first = true;
        members(self);
        self.depth -= 1;
        if !self.first {
            self.line(true, self.depth);
        }
        self.first = false;
        self.put(&[close]);
        self
    }

    /// Writes an object whose members `members` writes, each a
    /// [`JsonWriter::key`] and its value.
    pub fn obj(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'{', b'}', members)
    }

    /// Writes an array whose items `items` writes.
    pub fn arr(&mut self, items: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'[', b']', items)
    }

    /// Writes an object member's key; its value is written next.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let bytes = key.as_bytes();
        match pretty_line(self.depth, self.first, true) {
            // The common case in one write each: the key's line with its
            // opening quote, the key, and what follows it.
            Some(line)
                if self.pretty && self.depth > 0 && !self.after_key && !needs_escape(bytes) =>
            {
                self.first = false;
                self.put(line);
                self.put(bytes);
                self.put(b"\": ");
            }
            _ => {
                self.member();
                self.quoted(key, if self.pretty { b"\": " } else { b"\":" });
            }
        }
        self.after_key = true;
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.member();
        self.put(b"null");
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.member();
        self.put(if b { b"true" } else { b"false" });
        self
    }

    /// Writes a number: integral values below 9e15 without a fraction,
    /// others in Rust's shortest round-trip form, non-finite ones as
    /// `null`.
    pub fn num(&mut self, n: f64) -> &mut Self {
        self.member();
        if !n.is_finite() {
            self.put(b"null");
        } else if n == n.trunc() && n.abs() < 9e15 {
            // `i64` is exact here.
            self.out.put_int(n as i64);
        } else {
            let _ = fmt::Write::write_fmt(&mut Fmt(&mut self.out), format_args!("{n}"));
        }
        self
    }

    /// Writes a number, or `null` for `None`.
    pub fn opt_num(&mut self, n: Option<f64>) -> &mut Self {
        match n {
            Some(n) => self.num(n),
            None => self.null(),
        }
    }

    /// Writes a string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.member();
        self.quoted(s, b"\"");
        self
    }

    /// Writes any [`WriteJson`] value.
    pub fn json(&mut self, v: &impl WriteJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// Writes a [`Value`] tree (its [`WriteJson`] impl).
    fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Num(n) => self.num(*n),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => self.arr(|w| {
                for item in items {
                    w.value(item);
                }
            }),
            Value::Obj(pairs) => self.obj(|w| {
                for (k, v) in pairs {
                    w.key(k).value(v);
                }
            }),
        }
    }

    /// Writes `"`, `s` escaped, then `close` (the closing quote and
    /// whatever follows it). Runs of characters that need no escape are
    /// written as one slice: the escaped bytes are all ASCII, so every
    /// cut falls on a character boundary.
    fn quoted(&mut self, s: &str, close: &[u8]) {
        self.put(b"\"");
        let bytes = s.as_bytes();
        if !needs_escape(bytes) {
            self.put(bytes);
            self.put(close);
            return;
        }
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                b if b < 0x20 => b"",
                _ => continue,
            };
            self.put(bytes.get(run..i).unwrap_or_default());
            if escape.is_empty() {
                let _ = fmt::Write::write_fmt(&mut Fmt(&mut self.out), format_args!("\\u{b:04x}"));
            } else {
                self.put(escape);
            }
            run = i + 1;
        }
        self.put(bytes.get(run..).unwrap_or_default());
        self.put(close);
    }
}

/// Whether a byte of `bytes` must be escaped in a JSON string: a control
/// character, `"` or `\`. Tests eight bytes at a time, since nearly
/// every string a document holds is a key or label that needs none.
#[inline]
fn needs_escape(bytes: &[u8]) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Nonzero when a byte of `w` is below `n` (exact for n <= 0x80).
    let below = |w: u64, n: u64| w.wrapping_sub(n * ONES) & !w & HIGHS;
    let dirty = |w: u64| {
        below(w, 0x20)
            | below(w ^ (u64::from(b'"') * ONES), 1)
            | below(w ^ (u64::from(b'\\') * ONES), 1)
            != 0
    };
    let mut chunks = bytes.chunks_exact(8);
    let mut found = false;
    for chunk in &mut chunks {
        let mut word = [0; 8];
        word.copy_from_slice(chunk);
        found |= dirty(u64::from_le_bytes(word));
    }
    // The tail, padded with spaces above its bytes.
    let tail = chunks
        .remainder()
        .iter()
        .rev()
        .fold(u64::from_le_bytes([b' '; 8]), |w, &b| {
            (w << 8) | u64::from(b)
        });
    found | dirty(tail)
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable description (with byte offset) of the first
/// syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the limit bounds its stack use on hostile input;
/// every document the exporters emit nests a handful of levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The error for input that ends where more was required.
    fn end_of_input(&self) -> String {
        format!("unexpected end of input at byte {}", self.pos)
    }

    /// Opens one array/object level, refusing to nest past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(format!("expected '{}' at byte {}", b as char, self.pos)),
            None => Err(self.end_of_input()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            )),
            None => Err(self.end_of_input()),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                Some(_) => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                None => return Err(self.end_of_input()),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key.into(), v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                Some(_) => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                None => return Err(self.end_of_input()),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.end_of_input()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed for the BMP
                            // identifiers the exporters emit.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let v = Value::obj(vec![
            ("name", Value::str("gemm \"x\"\n")),
            ("ts", Value::num(12.375)),
            ("n", Value::num(-3.0)),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            (
                "arr",
                Value::Arr(vec![Value::num(1.0), Value::str("two"), Value::Null]),
            ),
        ]);
        for text in [v.to_json(), v.to_json_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn parses_hand_written_json() {
        let v = parse(r#" { "a" : [ 1, 2.5e1, -0.5 ] , "b" : {} , "c": [] } "#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(25.0));
        assert_eq!(v.get("b"), Some(&Value::Obj(vec![])));
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::num(5.0).to_json(), "5");
        assert_eq!(Value::num(5.25).to_json(), "5.25");
        assert_eq!(Value::num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse(r#""aA\t""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "nul", "\"abc", "{\"a\" 1}", "1 2"] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn empty_and_truncated_input_report_end_of_input() {
        for (text, at) in [
            ("", 0),
            ("   ", 3),
            ("{\"a\": [1, 2", 11),
            ("[1, {\"k\"", 8),
            ("{\"ab", 4),
            ("[", 1),
        ] {
            assert_eq!(
                parse(text).unwrap_err(),
                format!("unexpected end of input at byte {at}"),
                "{text:?}"
            );
        }
        assert_eq!(parse("[x]").unwrap_err(), "unexpected 'x' at byte 1");
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let hostile = "[".repeat(200_000);
        let err = parse(&hostile).unwrap_err();
        assert_eq!(
            err,
            format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                MAX_DEPTH + 1
            )
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().starts_with("nesting deeper"));
        // The limit itself parses, and closing a level frees it again.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let siblings = format!("[{}]", vec!["[[]]"; 2 * MAX_DEPTH].join(","));
        assert!(parse(&siblings).is_ok());
    }
}
