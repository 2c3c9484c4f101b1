//! A minimal JSON writer and two readers for cache payloads.
//!
//! Payloads are written by [`Writer`] and read back by [`Reader`], a
//! typed pull cursor: it reads members in the order the writer wrote
//! them and parses each number once, straight from the input, without
//! allocating. Every `f64` travels as its IEEE-754 bit pattern, so it
//! round-trips bit-exactly by construction — NaN payloads, infinities,
//! `-0.0` and subnormals included. That is what lets a cache hit
//! reproduce a cold run byte-for-byte through every renderer. A scalar
//! `f64` is written as its pattern's decimal `u64` ([`Writer::f64`],
//! [`Reader::f64`]). A bulk array of them is packed into one string of
//! fixed-width base64url digits ([`Writer::packed_f64s`]): eleven bytes
//! per value instead of up to twenty-one, and eleven table lookups to
//! decode one instead of a decimal parse.
//!
//! A packed string has one acceptance rule, [`Reader::packed`]: the
//! closing quote sits where the count puts it, every byte is in the
//! alphabet (checked in one branch-free pass the compiler vectorises),
//! and every value's first digit is at most 15. The [`PackedF64s`] view
//! it returns then decodes one value by index or all of them in order,
//! and cannot fail; [`Reader::packed_f64s`] is that view, collected. So
//! a reader that needs two values of an array still rejects every byte
//! the full decode would.
//!
//! [`Value`] parses any JSON document into a tree whose numbers keep
//! their **raw token** (a `u64` parses back exactly, with no 2^53 loss).
//! It serves small ad-hoc documents, such as the `--record` JSONL lines
//! `obs summarize` folds, and opens a payload for debugging. Both
//! readers share one lexer (whitespace, strings, number tokens).
//!
//! Both readers are strict-enough-and-no-more: they return `None` on
//! anything malformed, and [`Reader`] also on any deviation from the
//! layout it expects. Every read is bounds-checked and every number
//! overflow-checked, so a damaged entry degrades to a cache miss
//! instead of a panic.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.
/// No payload or record nests more than a few levels; the cap keeps a
/// hostile document from overflowing the recursive parser's stack.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parses a complete JSON document; `None` on any syntax error,
    /// trailing garbage, or nesting deeper than 128 arrays and objects.
    #[must_use]
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    /// Object member lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64` (exact — parses the raw token).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (bit-exact for tokens written by
    /// [`num_f64`], which uses shortest round-trip formatting).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// `self[key]` as `u64`.
    #[must_use]
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// `self[key]` as `f64`.
    #[must_use]
    pub fn f64_of(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// `self[key]` as a string.
    #[must_use]
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// `self[key]` as an array.
    #[must_use]
    pub fn arr_of(&self, key: &str) -> Option<&[Value]> {
        self.get(key)?.as_arr()
    }
}

/// An `f64` as its shortest round-trip decimal token, for documents a
/// person reads. Finite values only — non-finite values render as
/// `null`. Cache payloads use [`Writer::f64`] instead.
#[must_use]
pub fn num_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The most bytes one number takes in a [`Writer`]'s output: the 20
/// digits of a `u64` (or of an `f64`'s bit pattern) and a comma. Sizes
/// the writer's buffer.
pub const NUMBER_BYTES: usize = 21;

/// The bytes one `f64` takes inside a [`Writer::packed_f64s`] string:
/// its 64-bit pattern as eleven base64url digits (6 bits each, the
/// first carrying the top 4).
pub const PACKED_F64_BYTES: usize = 11;

/// The base64url alphabet (RFC 4648 §5): a digit's value is its index.
const DIGITS: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Each byte's digit value; `0xff` for a byte outside the alphabet.
const DIGIT_OF: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < DIGITS.len() {
        table[DIGITS[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Writes a compact JSON payload into one pre-sized `String`: no
/// whitespace, commas placed by the writer, numbers as bare `u64`
/// tokens. [`Reader`] reads it back call for call.
#[derive(Debug)]
pub struct Writer {
    out: String,
    comma: bool,
}

impl Writer {
    /// An empty writer with room for `bytes` bytes of output.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// `{`.
    pub fn begin_obj(&mut self) {
        self.open('{');
    }

    /// `}`.
    pub fn end_obj(&mut self) {
        self.close('}');
    }

    /// `[`.
    pub fn begin_arr(&mut self) {
        self.open('[');
    }

    /// `]`.
    pub fn end_arr(&mut self) {
        self.close(']');
    }

    /// An object member's name and its `:`; the member's value comes
    /// next (`w.key("n").u64(n)`).
    pub fn key(&mut self, name: &str) -> &mut Writer {
        self.name(name);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A `u64` as its decimal token.
    pub fn u64(&mut self, v: u64) {
        self.sep();
        let _ = write!(self.out, "{v}");
        self.comma = true;
    }

    /// An `f64` as its IEEE-754 bit pattern ([`f64::to_bits`]).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `f64`s packed into one string: each value's bit pattern as
    /// [`PACKED_F64_BYTES`] base64url digits, most significant first,
    /// with no separators. [`Reader::packed_f64s`] needs the count, so
    /// the caller writes it first, as a member of its own.
    pub fn packed_f64s(&mut self, values: impl IntoIterator<Item = f64>) {
        self.sep();
        self.out.push('"');
        for v in values {
            let bits = v.to_bits();
            for k in (0..PACKED_F64_BYTES).rev() {
                self.out
                    .push(char::from(DIGITS[(bits >> (6 * k)) as usize & 63]));
            }
        }
        self.out.push('"');
        self.comma = true;
    }

    /// A string that needs no escaping: the identifiers a payload
    /// carries (policy, role, relation and channel names).
    pub fn name(&mut self, s: &str) {
        debug_assert!(
            !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20),
            "payload names need no escaping: {s:?}"
        );
        self.sep();
        self.out.push('"');
        self.out.push_str(s);
        self.out.push('"');
        self.comma = true;
    }

    /// The finished payload.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// A typed pull reader over a payload [`Writer`] wrote. Each method
/// reads the next token and returns `None` when it is not the one
/// asked for, so the caller's sequence of reads *is* the layout.
/// Whitespace between tokens is skipped.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    comma: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            comma: false,
        }
    }

    fn punct(&mut self, byte: u8) -> Option<()> {
        skip_ws(self.bytes, &mut self.pos);
        (self.bytes.get(self.pos) == Some(&byte)).then(|| self.pos += 1)
    }

    fn sep(&mut self) -> Option<()> {
        if self.comma {
            self.punct(b',')?;
        }
        skip_ws(self.bytes, &mut self.pos);
        Some(())
    }

    fn open(&mut self, bracket: u8) -> Option<()> {
        self.sep()?;
        self.punct(bracket)?;
        self.comma = false;
        Some(())
    }

    fn close(&mut self, bracket: u8) -> Option<()> {
        self.punct(bracket)?;
        self.comma = true;
        Some(())
    }

    /// `{`.
    pub fn begin_obj(&mut self) -> Option<()> {
        self.open(b'{')
    }

    /// `}`.
    pub fn end_obj(&mut self) -> Option<()> {
        self.close(b'}')
    }

    /// `[`.
    pub fn begin_arr(&mut self) -> Option<()> {
        self.open(b'[')
    }

    /// `]`.
    pub fn end_arr(&mut self) -> Option<()> {
        self.close(b']')
    }

    /// The member named `name` and its `:`; any other name is `None`.
    /// The member's value comes next (`r.key("n")?.u64()`).
    pub fn key(&mut self, name: &str) -> Option<&mut Reader<'a>> {
        (self.name()? == name).then_some(())?;
        self.punct(b':')?;
        self.comma = false;
        Some(self)
    }

    /// A `u64` token: ASCII digits with no sign, fraction, exponent or
    /// leading zero. `None` when the value overflows `u64` — checked
    /// explicitly, so release builds reject it just as debug builds do.
    pub fn u64(&mut self) -> Option<u64> {
        self.sep()?;
        let start = self.pos;
        let v = digit_run(self.bytes, &mut self.pos);
        let len = self.pos - start;
        if len == 0 || (len > 1 && self.bytes[start] == b'0') {
            return None;
        }
        self.comma = true;
        v
    }

    /// A `usize` written as [`Writer::u64`].
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// An `f64` written as its bit pattern by [`Writer::f64`].
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// The `count` values [`Writer::packed_f64s`] wrote, validated but
    /// not decoded. The count fixes where the string ends, so the reader
    /// scans nothing past it and allocates nothing. `None` when the
    /// closing quote is not where the count puts it, on any byte outside
    /// the alphabet, and on a first digit above 15 (a pattern wider than
    /// 64 bits). This is the one acceptance rule for a packed string:
    /// once it holds, no value of the view can fail to decode.
    pub fn packed(&mut self, count: usize) -> Option<PackedF64s<'a>> {
        self.sep()?;
        let start = self.pos.checked_add(1)?;
        let end = count.checked_mul(PACKED_F64_BYTES)?.checked_add(start)?;
        if self.bytes.get(self.pos) != Some(&b'"') || self.bytes.get(end) != Some(&b'"') {
            return None;
        }
        let digits = &self.bytes[start..end];
        if !packed_digits_are_valid(digits) {
            return None;
        }
        self.pos = end + 1;
        self.comma = true;
        Some(PackedF64s { digits })
    }

    /// The `count` values [`Writer::packed_f64s`] wrote: [`Reader::packed`],
    /// then every value decoded. The one allocation is the output.
    pub fn packed_f64s(&mut self, count: usize) -> Option<Vec<f64>> {
        Some(self.packed(count)?.iter().collect())
    }

    /// A string without escapes, borrowed from the input.
    pub fn name(&mut self) -> Option<&'a str> {
        self.sep()?;
        let body = string_body(self.bytes, &mut self.pos)?;
        if body.contains(&b'\\') {
            return None;
        }
        self.comma = true;
        std::str::from_utf8(body).ok()
    }

    /// An array whose every element `item` reads.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.begin_arr()?;
        let mut items = Vec::new();
        loop {
            skip_ws(self.bytes, &mut self.pos);
            if self.bytes.get(self.pos) == Some(&b']') {
                break;
            }
            items.push(item(self)?);
        }
        self.end_arr()?;
        Some(items)
    }

    /// The end of the input; `None` when anything but whitespace
    /// follows.
    pub fn finish(mut self) -> Option<()> {
        skip_ws(self.bytes, &mut self.pos);
        (self.pos == self.bytes.len()).then_some(())
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

/// A packed string [`Reader::packed`] has validated: a view of its
/// digits that decodes one value by index, or all of them in order.
#[derive(Debug, Clone, Copy)]
pub struct PackedF64s<'a> {
    /// [`PACKED_F64_BYTES`] valid digits per value.
    digits: &'a [u8],
}

impl<'a> PackedF64s<'a> {
    /// The number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.digits.len() / PACKED_F64_BYTES
    }

    /// Whether the string holds no value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Value `i`, decoded alone; `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<f64> {
        let start = i.checked_mul(PACKED_F64_BYTES)?;
        let digits = self
            .digits
            .get(start..start.checked_add(PACKED_F64_BYTES)?)?;
        Some(f64::from_bits(unpack(digits)))
    }

    /// Every value, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.digits
            .chunks_exact(PACKED_F64_BYTES)
            .map(|digits| f64::from_bits(unpack(digits)))
    }
}

/// Whether `digits` is a run of whole packed values: every byte in the
/// base64url alphabet, and every value's first digit at most 15. Both
/// checks fold every byte without a branch, so the compiler can
/// vectorise them.
fn packed_digits_are_valid(digits: &[u8]) -> bool {
    let in_alphabet = |b: u8| {
        (b.wrapping_sub(b'A') < 26)
            | (b.wrapping_sub(b'a') < 26)
            | (b.wrapping_sub(b'0') < 10)
            | (b == b'-')
            | (b == b'_')
    };
    // A first digit at most 15 is one of `A` to `P`.
    let narrow = |b: u8| b.wrapping_sub(b'A') < 16;
    digits.iter().fold(true, |ok, &b| ok & in_alphabet(b))
        && digits
            .iter()
            .step_by(PACKED_F64_BYTES)
            .fold(true, |ok, &b| ok & narrow(b))
}

/// The bit pattern one validated value's digits spell: eleven
/// independent table lookups, combined by shifts.
fn unpack(digits: &[u8]) -> u64 {
    digits.iter().fold(0, |bits, &b| {
        bits << 6 | u64::from(DIGIT_OF[usize::from(b)])
    })
}

/// Moves `*pos` past the run of ASCII digits there, reading them
/// eight at a time where it can, and returns their value; `None` when
/// it overflows `u64` (checked explicitly, so release builds reject it
/// just as debug builds do).
fn digit_run(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = Some(0u64);
    while let Some(x) = bytes.get(*pos..*pos + 8).and_then(eight_digits) {
        v = v.and_then(|v| v.checked_mul(100_000_000)?.checked_add(x));
        *pos += 8;
    }
    while let Some(digit) = bytes.get(*pos).map(|b| b.wrapping_sub(b'0')) {
        if digit > 9 {
            break;
        }
        v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(digit)));
        *pos += 1;
    }
    v
}

/// The longest run of number characters at `*pos` (not empty); the
/// caller checks its grammar.
fn number_token<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let start = *pos;
    // Integer digits first, eight at a time, then whatever else the
    // token holds (sign, fraction, exponent).
    let _ = digit_run(bytes, pos);
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' => *pos += 1,
            _ => break,
        }
    }
    (*pos > start).then(|| &bytes[start..*pos])
}

/// The value of eight ASCII digits, combined pairwise in three
/// word-wide steps (the first digit lands in the lowest byte); `None`
/// unless every byte is a digit.
fn eight_digits(chunk: &[u8]) -> Option<u64> {
    let word = u64::from_le_bytes(chunk.try_into().ok()?);
    let d = word.wrapping_sub(0x3030_3030_3030_3030);
    // A byte below `0` sets its top bit in `d`, a byte above `9` in
    // `word + 0x46..`. Borrows and carries start only at such a byte, so
    // the lowest non-digit byte is always caught.
    if (d | word.wrapping_add(0x4646_4646_4646_4646)) & 0x8080_8080_8080_8080 != 0 {
        return None;
    }
    let d = (d * 10 + (d >> 8)) & 0x00ff_00ff_00ff_00ff;
    let d = (d * 100 + (d >> 16)) & 0x0000_ffff_0000_ffff;
    Some((d * 10_000 + (d >> 32)) & 0xffff_ffff)
}

/// The body of the string token at `*pos`, escapes still in place,
/// moving past its closing quote.
fn string_body<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    if bytes.get(*pos)? != &b'"' {
        return None;
    }
    let start = *pos + 1;
    let mut end = start;
    loop {
        match bytes.get(end)? {
            b'"' => break,
            b'\\' => end += 2,
            _ => end += 1,
        }
    }
    *pos = end + 1;
    Some(&bytes[start..end])
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_obj(bytes, pos, depth + 1),
        b'[' => parse_arr(bytes, pos, depth + 1),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b't' => parse_literal(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Value::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null", Value::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Option<Value> {
    let end = *pos + lit.len();
    if bytes.get(*pos..end)? == lit.as_bytes() {
        *pos = end;
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let token = std::str::from_utf8(number_token(bytes, pos)?).ok()?;
    // Validate the token is numeric at all; exactness is the caller's
    // accessor's job.
    token.parse::<f64>().ok()?;
    Some(Value::Num(token.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    let body = string_body(bytes, pos)?;
    let mut out: Vec<u8> = Vec::with_capacity(body.len());
    let mut i = 0;
    while let Some(&b) = body.get(i) {
        i += 1;
        if b != b'\\' {
            out.push(b);
            continue;
        }
        match body.get(i)? {
            b'"' => out.push(b'"'),
            b'\\' => out.push(b'\\'),
            b'/' => out.push(b'/'),
            b'b' => out.push(0x08),
            b'f' => out.push(0x0c),
            b'n' => out.push(b'\n'),
            b'r' => out.push(b'\r'),
            b't' => out.push(b'\t'),
            b'u' => {
                let hex = std::str::from_utf8(body.get(i + 1..i + 5)?).ok()?;
                let code = u32::from_str_radix(hex, 16).ok()?;
                // BMP only — all this workspace ever escapes.
                let c = char::from_u32(code)?;
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                i += 4;
            }
            _ => return None,
        }
        i += 1;
    }
    String::from_utf8(out).ok()
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos)? == &b']' {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos)? == &b'}' {
        *pos += 1;
        return Some(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos)? != &b':' {
            return None;
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(members));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null}}"#).unwrap();
        assert_eq!(v.arr_of("a").unwrap().len(), 3);
        assert_eq!(v.arr_of("a").unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.arr_of("a").unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.arr_of("a").unwrap()[2].as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn nesting_is_capped_before_it_can_overflow_the_stack() {
        // At the cap a document parses; one level past it, or 100,000
        // levels, it is rejected, on a stack far smaller than a
        // worker's 2 MiB.
        let small_stack = std::thread::Builder::new().stack_size(256 * 1024);
        small_stack
            .spawn(|| {
                let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
                let objects =
                    |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
                assert!(Value::parse(&arrays(MAX_DEPTH)).is_some());
                assert!(Value::parse(&objects(MAX_DEPTH)).is_some());
                assert!(Value::parse(&arrays(MAX_DEPTH + 1)).is_none());
                assert!(Value::parse(&objects(MAX_DEPTH + 1)).is_none());
                assert!(Value::parse(&"[".repeat(100_000)).is_none());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn u64_round_trips_exactly_beyond_2_53() {
        let big = u64::MAX - 3;
        let v = Value::parse(&format!("{{\"n\":{big}}}")).unwrap();
        assert_eq!(v.u64_of("n"), Some(big));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 2.5e-7, 123_456.789_012_345, -0.0, 1e300] {
            let tok = num_f64(x);
            let v = Value::parse(&format!("{{\"x\":{tok}}}")).unwrap();
            assert_eq!(v.f64_of("x").unwrap().to_bits(), x.to_bits(), "{tok}");
        }
    }

    #[test]
    fn strings_unescape() {
        let doc = r#"{"s":"a \"quoted\" back\\slash\nnewline\ttab \u0001 control \/ \u00e9"}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(
            v.str_of("s"),
            Some("a \"quoted\" back\\slash\nnewline\ttab \u{1} control / \u{e9}")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "\"\\u00\"",
            "{'single':1}",
            "nul",
        ] {
            assert!(Value::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_writes_as_null() {
        assert_eq!(num_f64(f64::NAN), "null");
        assert_eq!(num_f64(f64::INFINITY), "null");
    }

    /// The sample document's floats: NaN, signed zero, an infinity and
    /// a subnormal among them.
    const XS: [f64; 5] = [
        1.5,
        -0.0,
        f64::NAN,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 2.0,
    ];

    /// The writer's sample document, and the reads that take it apart.
    fn sample() -> String {
        let mut w = Writer::with_capacity(64);
        w.begin_obj();
        w.key("n").u64(u64::MAX);
        w.key("xs").begin_arr();
        for x in XS {
            w.f64(x);
        }
        w.end_arr();
        w.key("role").name("rx");
        w.key("empty").begin_arr();
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    fn read_sample(text: &str) -> Option<(u64, Vec<u64>, String, usize)> {
        let mut r = Reader::new(text);
        r.begin_obj()?;
        let n = r.key("n")?.u64()?;
        let xs = r.key("xs")?.list(|r| r.f64().map(f64::to_bits))?;
        let role = r.key("role")?.name()?.to_owned();
        let empty = r.key("empty")?.list(Reader::u64)?.len();
        r.end_obj()?;
        r.finish()?;
        Some((n, xs, role, empty))
    }

    #[test]
    fn reader_reads_what_the_writer_wrote() {
        let text = sample();
        let (n, xs, role, empty) = read_sample(&text).expect("sample decodes");
        assert_eq!(n, u64::MAX);
        let expected: Vec<u64> = XS.iter().map(|x| x.to_bits()).collect();
        assert_eq!(xs, expected);
        assert_eq!((role.as_str(), empty), ("rx", 0));
        // Still plain JSON.
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.str_of("role"), Some("rx"));
        assert_eq!(v.arr_of("xs").unwrap().len(), 5);
        // Whitespace between tokens is fine.
        let spaced = text.replace(',', " , ").replace(':', " :\n");
        assert_eq!(read_sample(&spaced), read_sample(&text));
    }

    #[test]
    fn reader_rejects_every_deviation() {
        let text = sample();
        for prefix in 0..text.len() {
            assert!(read_sample(&text[..prefix]).is_none(), "prefix {prefix}");
        }
        for bad in [
            text.replace("\"n\"", "\"m\""),
            text.replace("\"rx\"", "\"r\\u0078\""),
            text.replace("[]", "[\"x\"]"),
            text.replace("[]", "[,]"),
            text.replace(",\"role\"", "\"role\""),
            text.replace(":18446744073709551615", ":+1"),
            text.replace(":18446744073709551615", ":01"),
            text.replace(":18446744073709551615", ":1.5"),
            text.replace(":18446744073709551615", ":-1"),
            format!("{text}x"),
        ] {
            assert!(read_sample(&bad).is_none(), "accepted {bad}");
        }
    }

    /// A document holding `values` as a count member, then their packed
    /// string.
    fn packed_doc(values: &[f64]) -> String {
        let mut w = Writer::with_capacity(0);
        w.begin_obj();
        w.key("n").u64(values.len() as u64);
        w.key("xs").packed_f64s(values.iter().copied());
        w.end_obj();
        w.finish()
    }

    /// The bit patterns [`packed_doc`] holds, read back.
    fn read_packed_doc(text: &str) -> Option<Vec<u64>> {
        let mut r = Reader::new(text);
        r.begin_obj()?;
        let n = r.key("n")?.usize()?;
        let xs = r.key("xs")?.packed_f64s(n)?;
        r.end_obj()?;
        r.finish()?;
        Some(xs.into_iter().map(f64::to_bits).collect())
    }

    /// SplitMix64: the arbitrary bit patterns the packed tests draw.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn packed_f64s_round_trip_any_bit_pattern() {
        let specials: Vec<u64> = [
            0.0,
            -0.0,
            1.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            f64::MAX,
        ]
        .iter()
        .map(|x| x.to_bits())
        .chain([
            0x7ff8_0000_dead_beef,
            0xfff0_0000_0000_0001,
            0x000f_ffff_ffff_ffff,
            u64::MAX,
        ])
        .collect();
        // Every digit value in every position.
        let digits = (0..PACKED_F64_BYTES).flat_map(|k| {
            let top = if k == PACKED_F64_BYTES - 1 { 16 } else { 64 };
            (0..top).map(move |d| d << (6 * k))
        });
        let mut state = 0x5eed;
        let mut cases: Vec<Vec<u64>> = vec![Vec::new(), specials.clone(), digits.collect()];
        for len in 1..200 {
            cases.push(
                (0..len)
                    .map(|i| match i % 4 {
                        0 => specials[i % specials.len()],
                        _ => splitmix(&mut state),
                    })
                    .collect(),
            );
        }
        for bits in cases {
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let text = packed_doc(&values);
            assert_eq!(read_packed_doc(&text).as_ref(), Some(&bits), "{text}");
            // Still plain JSON: one string of eleven digits per value.
            let doc = Value::parse(&text).expect("valid JSON");
            assert_eq!(doc.str_of("xs").map(str::len), Some(11 * bits.len()));
        }
    }

    #[test]
    fn packed_digits_are_base64url_most_significant_first() {
        let packed = |x: f64| {
            let doc = packed_doc(&[x]);
            let at = doc.find("\"xs\":").unwrap() + 5;
            doc[at..at + 13].to_owned()
        };
        assert_eq!(packed(0.0), "\"AAAAAAAAAAA\"");
        // 0x3ff0_0000_0000_0000: 0011 | 111111 | 110000 | 0…
        assert_eq!(packed(1.0), "\"D_wAAAAAAAA\"");
        assert_eq!(packed(f64::from_bits(u64::MAX)), "\"P__________\"");
        assert_eq!(packed(f64::from_bits(62 << 6 | 61)), "\"AAAAAAAAA-9\"");
    }

    #[test]
    fn packed_reader_rejects_bad_strings() {
        // Damaged counts and digits outside the alphabet are covered,
        // with their allocations, in `tests/packed_bounds.rs`.
        let text = packed_doc(&[1.5, -0.0, f64::NAN]);
        assert!(read_packed_doc(&text).is_some());
        let body = text.find("\"xs\":\"").unwrap() + 6;
        let with = |at: usize, byte: &str| {
            format!("{}{byte}{}", &text[..body + at], &text[body + at + 1..])
        };
        for bad in [
            // JSON's string syntax inside the string: none of it is a digit.
            with(7, " "),
            with(9, "\\"),
            with(20, "\""),
            // The value must be a string.
            text.replacen(":\"", ":", 1),
        ] {
            assert_eq!(read_packed_doc(&bad), None, "accepted {bad}");
        }
        for end in 0..text.len() {
            assert_eq!(read_packed_doc(&text[..end]), None, "prefix {end}");
        }
    }

    #[test]
    fn u64_overflow_is_rejected_not_wrapped() {
        let read = |tok: &str| {
            let doc = format!("[{tok}]");
            let mut r = Reader::new(&doc);
            r.list(Reader::u64)
        };
        assert_eq!(read("18446744073709551615"), Some(vec![u64::MAX]));
        assert_eq!(read("18446744073709551616"), None);
        assert_eq!(read("99999999999999999999"), None);
        assert_eq!(read("1234567890123456789012345"), None);
        assert_eq!(read("0"), Some(vec![0]));
    }

    #[test]
    fn numbers_of_every_length_read_back() {
        let mut values = vec![0, 1, 9, u64::MAX];
        for k in 1..20 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1, p / 3 * 2]);
        }
        let mut w = Writer::with_capacity(0);
        w.begin_arr();
        for &v in &values {
            w.u64(v);
        }
        w.end_arr();
        let text = w.finish();
        assert_eq!(Reader::new(&text).list(Reader::u64), Some(values));
        // Leading zeros are not JSON, however many digits follow.
        for bad in ["[00]", "[012345678]", "[0123456789012345]"] {
            assert_eq!(Reader::new(bad).list(Reader::u64), None, "{bad}");
        }
        // The tree parser lexes the same digits inside any number token.
        let v = Value::parse("[-1234567890123.25e-3,12345678901234567890123]").unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_f64(), Some(-1_234_567_890.123_25));
        assert_eq!(v.as_arr().unwrap()[1].as_u64(), None);
    }
}
