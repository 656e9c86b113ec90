//! JSON, decided once: the [`JVal`] value type with its parser and its two
//! renderings, and the streaming [`ObjWriter`] / [`ArrWriter`] every
//! exporter writes through.
//!
//! The workspace builds offline with no serialization crate. How a key or
//! a string is escaped and how a number prints is written here and
//! nowhere else:
//!
//! * [`JVal::render`] — 2-space indentation and a trailing newline: the
//!   chaos corpus files, diff-friendly.
//! * [`JVal::compact`] and the writers — one line, no spaces: the trace,
//!   metrics and time-series exports. `compact` renders its objects and
//!   arrays through the writers, so the two cannot disagree.
//!
//! The exporters stream: a writer appends `{` when opened, `"key":value`
//! per member, and `}` (or `]`) when it ends or is dropped, so writing
//! 65 536 trace records builds no tree.
//!
//! ```
//! use an2_sim::json::{JVal, ObjWriter, Text};
//!
//! let mut out = String::new();
//! let mut o = ObjWriter::new(&mut out);
//! o.field("slot", 40_000u64).field("up", false);
//! o.arr("hops").item("wire").item(3u32);
//! o.field(Text(format_args!("link{}", 7)), 0.5);
//! o.end();
//! assert_eq!(out, r#"{"slot":40000,"up":false,"hops":["wire",3],"link7":0.5}"#);
//! assert_eq!(JVal::parse(&out).unwrap().compact(), out);
//! ```

use std::fmt::{self, Write as _};

/// A JSON value. Integers keep their own variants so 64-bit slot counts
/// and seeds survive the round trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer token.
    UInt(u64),
    /// A negative integer token.
    Int(i64),
    /// A fractional or exponent-bearing number, or an integer token too
    /// wide for 64 bits.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JVal>),
    /// An object, field order preserved.
    Obj(Vec<(String, JVal)>),
}

/// A JSON error: a parse failure, a schema mismatch or an I/O failure,
/// with context.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl From<std::io::Error> for JsonError {
    fn from(e: std::io::Error) -> Self {
        JsonError(format!("io: {e}"))
    }
}

type Res<T> = Result<T, JsonError>;

fn err<T>(msg: impl Into<String>) -> Res<T> {
    Err(JsonError(msg.into()))
}

/// The deepest nesting [`JVal::parse`] accepts. The deepest document any
/// caller writes is about six levels; the bound keeps a hostile input from
/// exhausting the stack.
const MAX_DEPTH: usize = 128;

/// An object from `(key, value)` pairs, order kept.
pub fn obj(fields: Vec<(&str, JVal)>) -> JVal {
    JVal::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl JVal {
    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Field lookup on an object; a missing field is an error.
    pub fn want(&self, key: &str) -> Res<&JVal> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The value as an unsigned integer (an integral `Num` counts).
    pub fn as_u64(&self) -> Res<u64> {
        match *self {
            JVal::UInt(x) => Ok(x),
            JVal::Num(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as u64),
            ref other => err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// The value as a `u32`.
    pub fn as_u32(&self) -> Res<u32> {
        let x = self.as_u64()?;
        u32::try_from(x).map_err(|_| JsonError(format!("{x} overflows u32")))
    }

    /// The value as a float (any number counts).
    pub fn as_f64(&self) -> Res<f64> {
        match *self {
            JVal::UInt(x) => Ok(x as f64),
            JVal::Int(x) => Ok(x as f64),
            JVal::Num(x) => Ok(x),
            ref other => err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Res<&str> {
        match self {
            JVal::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array.
    pub fn as_arr(&self) -> Res<&[JVal]> {
        match self {
            JVal::Arr(v) => Ok(v),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Renders with 2-space indentation and a trailing newline —
    /// deterministic, diff-friendly corpus files. An integral `Num` keeps a
    /// `.0` so it reads back as a `Num`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on one line with no spaces, through the same writers the
    /// exporters use. Numbers print with every digit `f64` holds.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JVal::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => {
                let _ = write!(out, "{x:.1}");
            }
            JVal::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    v.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JVal::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    k.as_str().write_key(out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            // Scalars render the same at any indentation.
            scalar => scalar.write_json(out),
        }
    }

    /// Parses one JSON document (trailing whitespace allowed). Never
    /// panics: malformed input, and nesting deeper than 128 levels, is an
    /// error.
    pub fn parse(text: &str) -> Res<JVal> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Res<JVal> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return err("unexpected end of input");
    };
    if matches!(c, b'{' | b'[') && depth == MAX_DEPTH {
        return err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match c {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JVal::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    JVal::Str(s) => s,
                    other => return err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(JVal::Obj(fields));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(JVal::Arr(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                let Some(&c) = b.get(*pos) else {
                    return err("unterminated string");
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(JVal::Str(s)),
                    b'\\' => {
                        let Some(&e) = b.get(*pos) else {
                            return err("unterminated escape");
                        };
                        *pos += 1;
                        match e {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b't' => s.push('\t'),
                            b'r' => s.push('\r'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                let hex = b.get(*pos..*pos + 4).unwrap_or_default();
                                if hex.len() != 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                                    return err(format!(
                                        "bad \\u escape at byte {pos}",
                                        pos = *pos
                                    ));
                                }
                                let code = hex.iter().fold(0, |acc, &h| {
                                    acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
                                });
                                *pos += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return err(format!("bad escape \\{}", e as char)),
                        }
                    }
                    c => {
                        // Re-decode multi-byte UTF-8 runs from the source.
                        if c < 0x80 {
                            s.push(c as char);
                        } else {
                            let start = *pos - 1;
                            let mut end = *pos;
                            while end < b.len() && (b[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            let chunk = std::str::from_utf8(&b[start..end])
                                .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                            s.push_str(chunk);
                            *pos = end;
                        }
                    }
                }
            }
        }
        b't' => {
            expect_word(b, pos, "true")?;
            Ok(JVal::Bool(true))
        }
        b'f' => {
            expect_word(b, pos, "false")?;
            Ok(JVal::Bool(false))
        }
        b'n' => {
            expect_word(b, pos, "null")?;
            Ok(JVal::Null)
        }
        _ => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            let mut fractional = false;
            while *pos < b.len() {
                match b[*pos] {
                    b'0'..=b'9' => *pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        fractional = true;
                        *pos += 1;
                    }
                    _ => break,
                }
            }
            let tok =
                std::str::from_utf8(&b[start..*pos]).map_err(|_| JsonError("bad number".into()))?;
            if tok.is_empty() || tok == "-" {
                return err(format!("expected a value at byte {start}"));
            }
            // An integer token keeps its own variant when it fits 64 bits
            // and falls back to a float when it does not.
            let int = match (fractional, tok.starts_with('-')) {
                (true, _) => None,
                (false, true) => tok.parse::<i64>().ok().map(JVal::Int),
                (false, false) => tok.parse::<u64>().ok().map(JVal::UInt),
            };
            match int {
                Some(v) => Ok(v),
                None => tok
                    .parse::<f64>()
                    .map(JVal::Num)
                    .map_err(|_| JsonError(format!("bad number `{tok}`"))),
            }
        }
    }
}

fn expect_word(b: &[u8], pos: &mut usize, word: &str) -> Res<()> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

/// A value the writers can put in a value position, written compact.
pub trait ToJson {
    /// Appends `self` as one JSON value.
    fn write_json(&self, out: &mut String);
}

/// A string the writers can put in a key position, written escaped.
pub trait Key {
    /// Appends `self` as one quoted, escaped JSON string.
    fn write_key(&self, out: &mut String);
}

/// A [`fmt::Display`] value written as a JSON string — escaped, and with
/// no intermediate `String`. Usable as a value and as a key:
/// `Text(format_args!("{name} {entity}"))`.
#[derive(Debug, Clone, Copy)]
pub struct Text<T>(pub T);

/// Escapes what JSON requires inside a string: the quote, the backslash
/// and control characters.
fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A `fmt::Write` that escapes everything written through it.
struct Escape<'a>(&'a mut String);

impl fmt::Write for Escape<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

impl Key for str {
    fn write_key(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl<T: fmt::Display> Key for Text<T> {
    fn write_key(&self, out: &mut String) {
        out.push('"');
        let _ = write!(Escape(out), "{}", self.0);
        out.push('"');
    }
}

impl<K: Key + ?Sized> Key for &K {
    fn write_key(&self, out: &mut String) {
        (**self).write_key(out);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        self.write_key(out);
    }
}

impl<T: fmt::Display> ToJson for Text<T> {
    fn write_json(&self, out: &mut String) {
        self.write_key(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

/// Decimal digits of `x`, without going through `fmt`.
fn write_u64(out: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

macro_rules! unsigned_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(out, *self as u64);
            }
        }
    )*};
}
unsigned_to_json!(u16, u32, u64, usize);

macro_rules! signed_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                if *self < 0 {
                    out.push('-');
                }
                write_u64(out, self.unsigned_abs() as u64);
            }
        }
    )*};
}
signed_to_json!(i32, i64);

impl ToJson for f64 {
    /// Every digit `f64` holds, never an exponent; JSON has no NaN or
    /// infinity, so those (an undefined metric) are `null`.
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for JVal {
    fn write_json(&self, out: &mut String) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => b.write_json(out),
            JVal::UInt(x) => x.write_json(out),
            JVal::Int(x) => x.write_json(out),
            JVal::Num(x) => x.write_json(out),
            JVal::Str(s) => s.write_json(out),
            JVal::Arr(items) => {
                let mut a = ArrWriter::new(out);
                for v in items {
                    a.item(v);
                }
            }
            JVal::Obj(fields) => {
                let mut o = ObjWriter::new(out);
                for (k, v) in fields {
                    o.field(k.as_str(), v);
                }
            }
        }
    }
}

/// What an object and an array writer share: the comma between members,
/// and the closing bracket when the writer ends or is dropped.
#[derive(Debug)]
struct Seq<'a> {
    out: &'a mut String,
    first: bool,
    close: char,
}

impl<'a> Seq<'a> {
    fn open(out: &'a mut String, open: char, close: char) -> Self {
        out.push(open);
        Seq {
            out,
            first: true,
            close,
        }
    }

    /// The output, positioned for the next member.
    fn next(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }
}

impl Drop for Seq<'_> {
    fn drop(&mut self) {
        self.out.push(self.close);
    }
}

/// A JSON object being written: `{` when opened, `"key":value` per
/// member, `}` when it [ends](ObjWriter::end) or is dropped.
#[derive(Debug)]
pub struct ObjWriter<'a>(Seq<'a>);

impl<'a> ObjWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        ObjWriter(Seq::open(out, '{', '}'))
    }

    fn key(&mut self, key: impl Key) -> &mut String {
        let out = self.0.next();
        key.write_key(out);
        out.push(':');
        out
    }

    /// Writes one `"key":value` member.
    pub fn field(&mut self, key: impl Key, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Opens an object-valued member.
    pub fn obj(&mut self, key: impl Key) -> ObjWriter<'_> {
        ObjWriter::new(self.key(key))
    }

    /// Opens an array-valued member.
    pub fn arr(&mut self, key: impl Key) -> ArrWriter<'_> {
        ArrWriter::new(self.key(key))
    }

    /// Closes the object (as dropping it does).
    pub fn end(self) {}
}

/// A JSON array being written: `[` when opened, `value` per item, `]`
/// when it [ends](ArrWriter::end) or is dropped.
#[derive(Debug)]
pub struct ArrWriter<'a>(Seq<'a>);

impl<'a> ArrWriter<'a> {
    /// Opens an array at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        ArrWriter(Seq::open(out, '[', ']'))
    }

    /// Writes one item.
    pub fn item(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self.0.next());
        self
    }

    /// Opens an object item.
    pub fn obj(&mut self) -> ObjWriter<'_> {
        ObjWriter::new(self.0.next())
    }

    /// Closes the array (as dropping it does).
    pub fn end(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trips() {
        let text =
            r#"{"a": [1, -2, 3.5, "x\ny"], "b": {"c": true, "d": null}, "big": 1099511627776}"#;
        let v = JVal::parse(text).unwrap();
        let rendered = v.render();
        let v2 = JVal::parse(&rendered).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v.get("big").unwrap().as_u64().unwrap(), 1 << 40);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        let v = JVal::Arr(vec![JVal::Num(f64::NAN), JVal::Num(f64::INFINITY)]);
        let back = JVal::parse(&v.render()).unwrap();
        assert_eq!(back, JVal::Arr(vec![JVal::Null, JVal::Null]));
        assert_eq!(v.compact(), "[null,null]");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JVal::parse("{").is_err());
        assert!(JVal::parse("[1, 2").is_err());
        assert!(JVal::parse("{\"a\": }").is_err());
        assert!(JVal::parse("nulle").is_err());
        assert!(JVal::parse("").is_err());
        assert!(JVal::parse("\"\\u+0ab\"").is_err());
    }

    #[test]
    fn object_keys_are_escaped() {
        let v = obj(vec![("a\"b\\c\n", JVal::UInt(1))]);
        for text in [v.render(), v.compact()] {
            assert_eq!(JVal::parse(&text).unwrap(), v, "{text}");
        }
        assert_eq!(v.compact(), r#"{"a\"b\\c\n":1}"#);
    }

    #[test]
    fn the_most_negative_integer_reads_back() {
        let v = JVal::Int(i64::MIN);
        assert_eq!(v.compact(), "-9223372036854775808");
        assert_eq!(JVal::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn an_integer_token_too_wide_for_64_bits_reads_back_as_a_float() {
        for x in [1e20, -1e20] {
            let v = JVal::Num(x);
            assert_eq!(v.render().trim_end(), format!("{x}"));
            assert_eq!(JVal::parse(&v.render()).unwrap(), v);
        }
        assert_eq!(
            JVal::parse("18446744073709551616").unwrap(),
            JVal::Num(18446744073709551616.0)
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let at_bound = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(JVal::parse(&at_bound).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(JVal::parse(&over).is_err());
        assert!(JVal::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack of an unbounded parser.
        assert!(JVal::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn a_grid_of_values_round_trips_through_both_renderings() {
        let scalars = vec![
            JVal::UInt(0),
            JVal::UInt(u64::MAX),
            JVal::Int(i64::MIN),
            JVal::Int(-1),
            JVal::Num(0.1),
            JVal::Num(1e20),
            JVal::Num(-1e20),
            JVal::Num(5e-324),
            JVal::Str(String::new()),
            JVal::Str("\"\\\n\u{1}é😀".into()),
            JVal::Bool(true),
            JVal::Null,
        ];
        let nested = vec![
            JVal::Arr(vec![]),
            JVal::Obj(vec![]),
            JVal::Arr(scalars.clone()),
            obj(vec![
                ("xs", JVal::Arr(scalars.clone())),
                ("inner", obj(vec![("", JVal::Arr(vec![JVal::Arr(vec![])]))])),
            ]),
        ];
        for v in scalars.iter().chain(&nested) {
            for (how, text) in [("render", v.render()), ("compact", v.compact())] {
                let back = JVal::parse(&text).unwrap_or_else(|e| panic!("{how} {v:?}: {e}"));
                assert_eq!(&back, v, "{how}: {text}");
            }
        }
        // NaN has no JSON spelling: it renders as null.
        for text in [JVal::Num(f64::NAN).render(), JVal::Num(f64::NAN).compact()] {
            assert_eq!(JVal::parse(&text).unwrap(), JVal::Null);
        }
    }

    #[test]
    fn writers_close_on_drop_and_separate_members() {
        let mut out = String::new();
        {
            let mut o = ObjWriter::new(&mut out);
            o.field("a", 1u16).field("b", -2i64).field("c", "x");
            {
                let mut a = o.arr("d");
                a.item(0.5).item(true);
                a.obj().field("e", JVal::Null);
                a.item(JVal::Arr(vec![]));
            }
            o.obj(Text(format_args!("k{}", 7)));
        }
        assert_eq!(
            out,
            r#"{"a":1,"b":-2,"c":"x","d":[0.5,true,{"e":null},[]],"k7":{}}"#
        );
    }

    #[test]
    fn integers_print_every_digit() {
        for x in [0u64, 7, 10, 99, 100, 12_345, u64::MAX] {
            assert_eq!(JVal::UInt(x).compact(), x.to_string());
        }
        for x in [-1i64, -10, i64::MIN, i64::MAX] {
            assert_eq!(x.to_string(), {
                let mut s = String::new();
                x.write_json(&mut s);
                s
            });
        }
    }
}
