//! Offline, API-compatible subset of `serde_json`, built on the vendored
//! serde shim's [`Value`] model.
//!
//! Provides the calls the workspace makes — `to_string[_pretty]`,
//! `to_writer[_pretty]`, `from_str`, `from_reader` — with a conforming JSON
//! parser and printer. Numbers round-trip exactly: integers stay integers,
//! floats print via Rust's shortest-roundtrip `Display` so
//! `parse(print(x)) == x` bit-for-bit for every finite `f64`.

pub use serde::Value;

use serde::{Deserialize, Serialize};

#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// --- serialization ---------------------------------------------------------

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer.write_all(to_string(value)?.as_bytes())?;
    Ok(())
}

pub fn to_writer_pretty<W: std::io::Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<()> {
    writer.write_all(to_string_pretty(value)?.as_bytes())?;
    Ok(())
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `f` the way [`to_string`] prints a float: shortest round-trip
/// digits, a trailing `.0` on integral values, `null` for NaN/±inf. For
/// callers that write a long number array without a [`Value`] per entry.
pub fn write_f64(out: &mut String, f: f64) {
    use std::fmt::Write as _;
    if !f.is_finite() {
        // JSON has no NaN/Infinity; real serde_json errors here. A null is
        // the friendliest lossy encoding for diagnostics output.
        out.push_str("null");
    } else {
        let start = out.len();
        write!(out, "{f}").expect("writing to a String cannot fail");
        // Keep a float marker so integral floats parse back as numbers with
        // the same semantic type class ("3.0" rather than "3").
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (k, (key, item)) in pairs.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
}

// --- deserialization -------------------------------------------------------

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value_str(s)?;
    Ok(T::from_value(&value)?)
}

pub fn from_reader<R: std::io::Read, T: Deserialize>(mut reader: R) -> Result<T> {
    let mut buf = String::new();
    reader.read_to_string(&mut buf)?;
    from_str(&buf)
}

/// Parse a complete JSON document (surrounding whitespace allowed).
pub fn parse_value_str(s: &str) -> Result<Value> {
    let mut reader = Reader::new(s);
    let v = reader.value()?;
    reader.end()?;
    Ok(v)
}

/// Pull reader over one JSON document, for callers that decode a large
/// document straight into their own types instead of through a [`Value`]
/// tree. The caller walks the containers it cares about with
/// [`Reader::object`] / [`Reader::array`] and takes everything else —
/// scalars, small sub-documents, members to ignore — as a [`Value`] from
/// [`Reader::value`] (a number is a `Value` without an allocation). Every
/// byte goes through the functions [`parse_value_str`] is made of, so a
/// document is well-formed to one exactly when it is to the other, with
/// the same error at the same byte.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

/// Deepest container nesting a document may have. The reader recurses once
/// per open `[` / `{`, and a stack overflow is an abort, not an error a
/// caller can catch — so input from strangers must hit this bound first.
const MAX_DEPTH: usize = 128;

impl<'a> Reader<'a> {
    /// Start reading `s`; leading whitespace is skipped.
    pub fn new(s: &'a str) -> Self {
        let mut reader = Reader {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        skip_ws(reader.bytes, &mut reader.pos);
        reader
    }

    /// First byte of the next value (`None` at end of input). Only
    /// meaningful where a value is due: at the start of the document and
    /// inside an [`Reader::object`] / [`Reader::array`] callback.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Read the next value, whatever it is, as a tree.
    pub fn value(&mut self) -> Result<Value> {
        let (bytes, pos) = (self.bytes, &mut self.pos);
        match bytes.get(*pos) {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
            Some(&c) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, *pos
            ))),
        }
    }

    /// Walk the object that is due: `member` is called with each key in
    /// document order (duplicates included) and must read exactly one
    /// value.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<()>,
    ) -> Result<()> {
        let bytes = self.bytes;
        self.open(b'{')?;
        skip_ws(bytes, &mut self.pos);
        if bytes.get(self.pos) == Some(&b'}') {
            return self.close();
        }
        loop {
            skip_ws(bytes, &mut self.pos);
            let key = parse_string(bytes, &mut self.pos)?;
            skip_ws(bytes, &mut self.pos);
            expect(bytes, &mut self.pos, b':')?;
            skip_ws(bytes, &mut self.pos);
            member(self, key)?;
            skip_ws(bytes, &mut self.pos);
            match bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => return self.close(),
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Walk the array that is due: `item` is called once per element and
    /// must read exactly one value.
    pub fn array(&mut self, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        let bytes = self.bytes;
        self.open(b'[')?;
        skip_ws(bytes, &mut self.pos);
        if bytes.get(self.pos) == Some(&b']') {
            return self.close();
        }
        loop {
            skip_ws(bytes, &mut self.pos);
            item(self)?;
            skip_ws(bytes, &mut self.pos);
            match bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.close(),
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Consume the container's opening byte, one level deeper.
    fn open(&mut self, bracket: u8) -> Result<()> {
        expect(self.bytes, &mut self.pos, bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos - 1
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Consume the container's closing byte, one level back up.
    fn close(&mut self) -> Result<()> {
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// The document is over: only whitespace may follow.
    pub fn end(mut self) -> Result<()> {
        skip_ws(self.bytes, &mut self.pos);
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<()> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::new(format!(
            "expected `{}` at byte {}, found {:?}",
            c as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        )))
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, kw: &str, value: Value) -> Result<Value> {
    if bytes[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        // Surrogate pairs: \uD800-\uDBFF followed by \uDC00-\uDFFF.
                        if (0xd800..0xdc00).contains(&code) {
                            let lo_hex = bytes
                                .get(*pos + 7..*pos + 11)
                                .ok_or_else(|| Error::new("truncated surrogate pair"))?;
                            let lo_hex = std::str::from_utf8(lo_hex)
                                .map_err(|_| Error::new("invalid surrogate pair"))?;
                            let lo = u32::from_str_radix(lo_hex, 16)
                                .map_err(|_| Error::new("invalid surrogate pair"))?;
                            let combined = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                            out.push(
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?,
                            );
                            *pos += 10;
                        } else {
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                            *pos += 4;
                        }
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape. Both are
                // ASCII, so they never fall inside a multi-byte scalar.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    if !is_float {
        if text.starts_with('-') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::new(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\\u00e9\"").unwrap(), "a\nbé");
    }

    #[test]
    fn roundtrip_float_exact() {
        for &x in &[0.1f64, 1.0 / 3.0, 6.02214076e23, -1e-300, 3.0, 0.0] {
            let s = to_string(&x).unwrap();
            let y: f64 = from_str(&s).unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{s}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v: Vec<(usize, Vec<f64>)> = vec![(1, vec![1.0, 2.5]), (2, vec![])];
        let s = to_string(&v).unwrap();
        let w: Vec<(usize, Vec<f64>)> = from_str(&s).unwrap();
        assert_eq!(v, w);
    }

    #[test]
    fn roundtrip_option() {
        let v: Vec<Option<f64>> = vec![Some(2.0), None];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[2.0,null]");
        let w: Vec<Option<f64>> = from_str(&s).unwrap();
        assert_eq!(v, w);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::UInt(1), Value::Bool(false)]),
            ),
            ("b".into(), Value::Str("x \"y\"".into())),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let w: Value = parse_value_str(&s).unwrap();
        assert_eq!(v, w);
    }

    #[test]
    fn strings_keep_multibyte_runs_between_escapes() {
        let s: String = from_str("\"é✓\\n𝄞 \\\"q\\\" \\ud834\\udd1e\"").unwrap();
        assert_eq!(s, "é✓\n𝄞 \"q\" 𝄞");
        assert!(from_str::<String>("\"open é").is_err());
    }

    #[test]
    fn reader_walks_what_the_tree_parser_builds() {
        let doc = r#" { "skip" : {"deep":[1,{"x":null}]}, "xs":[1, -2, 3.5e0 ,1e999], "xs":[9], "s":"a\"b" } "#;
        let (mut xs, mut keys) = (Vec::new(), Vec::new());
        let mut r = Reader::new(doc);
        assert_eq!(r.peek(), Some(b'{'));
        r.object(|r, key| {
            if key == "xs" && xs.is_empty() {
                r.array(|r| {
                    xs.push(r.value()?.as_f64().unwrap());
                    Ok(())
                })?;
            } else {
                r.value()?;
            }
            keys.push(key);
            Ok(())
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!(keys, ["skip", "xs", "xs", "s"]);
        assert_eq!(xs, [1.0, -2.0, 3.5, f64::INFINITY]);

        // Malformed input fails in the walker with the tree parser's error.
        for bad in [
            "{\"a\":[1,2",
            "{\"a\":[1 2]}",
            "{\"a\" 1}",
            "{\"a\":1}x",
            "[1,]",
        ] {
            let tree = parse_value_str(bad).unwrap_err().to_string();
            let mut r = Reader::new(bad);
            let items = |r: &mut Reader<'_>| match r.peek() {
                Some(b'[') => r.array(|r| r.value().map(drop)),
                _ => r.value().map(drop),
            };
            let walk = |r: &mut Reader<'_>| match r.peek() {
                Some(b'{') => r.object(|r, _| items(r)),
                _ => items(r),
            };
            let walked = walk(&mut r).and_then(|()| r.end()).unwrap_err().to_string();
            assert_eq!(walked, tree, "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_value_str(&nested(MAX_DEPTH)).is_ok());
        let err = parse_value_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Objects count too, and siblings do not accumulate.
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_value_str(&objects).is_err());
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 4].join(","));
        assert!(parse_value_str(&wide).is_ok());
        // Used to overflow the stack and abort the process.
        assert!(parse_value_str(&"[".repeat(1_000_000)).is_err());
        assert!(from_str::<Value>(&"{\"k\":[".repeat(500_000)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<f64>("1.5x").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
        assert!(parse_value_str("{\"a\":}").is_err());
    }
}
