//! The workspace's JSON value, parser and writer.
//!
//! The workspace has no serde (offline build), and `obs` sits below every
//! other crate, so this one module serves the `triad-serve` wire protocol,
//! the trace exporters and their validation, and the evalbed result files.
//! It covers objects, arrays, strings, finite numbers, booleans and null.
//! Object key order is preserved on parse and emit, so a value serialized
//! twice is byte-identical — the registry evict/reload test relies on that.
//!
//! The parser is a single linear pass over the bytes. It rejects trailing
//! garbage, non-finite numbers (`1e999`), truncated `\u` escapes and more
//! than 64 nested containers. Lone surrogates in `\u` escapes are replaced
//! by U+FFFD; nothing in the workspace emits them.

use std::fmt::{self, Write};

/// A JSON document node. Object entries keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object entries in document order.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Interpret an array of numbers as a series.
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Value::as_f64).collect()
    }

    /// Build an object value from key/value pairs.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build a numeric array from a float slice.
    pub fn num_arr(xs: &[f64]) -> Value {
        Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

// ------------------------------------------------------------------ writer

/// Write `s` with JSON string escaping, without the surrounding quotes:
/// `"`, `\`, `\n`, `\r` and `\t` get their short escapes, every other
/// control character `\u00XX`, and everything else is copied as is. Every
/// JSON writer in the workspace escapes through this function.
pub fn escape<W: Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        // All escaped bytes are ASCII, so `i` is always a char boundary.
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        match short {
            Some(e) => out.write_str(e)?,
            None => write!(out, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// Compact, order-preserving output. Numbers use Rust's shortest
/// round-tripping float form; non-finite numbers are written as `null`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => write!(f, "{n}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => quoted(s, f),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    fmt::Display::fmt(item, f)?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    quoted(key, f)?;
                    f.write_char(':')?;
                    fmt::Display::fmt(val, f)?;
                }
                f.write_char('}')
            }
        }
    }
}

fn quoted(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    escape(s, f)?;
    f.write_char('"')
}

// ------------------------------------------------------------------ parser

/// Most containers one document may nest. Every document the workspace
/// emits nests at most 5 deep; the bound keeps hostile input from
/// overflowing the recursive-descent stack.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        b: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                c as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    /// One value; `depth` counts the containers already open around it.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, out: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(out)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so this slice is on char boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            Ok(_) => Err(format!("non-finite number {text:?} at byte {start}")),
            Err(_) => Err(format!("bad number {text:?} at byte {start}")),
        }
    }

    /// A string literal. Unescaped runs are copied whole: the scan stops
    /// only at `"` and `\`, both ASCII, so every run is valid UTF-8.
    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bump() == Some(b'"') {
                return Ok(out);
            }
            match self.bump() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'b') => out.push('\u{0008}'),
                Some(b'f') => out.push('\u{000C}'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let code = self.hex4()?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => {
                    return Err(format!("bad escape {:?}", other.map(|c| c as char)));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| "truncated \\u escape".to_string())?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad hex digit {:?}", c as char))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                other => {
                    return Err(format!(
                        "expected ',' or ']' got {:?}",
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(fields)),
                other => {
                    return Err(format!(
                        "expected ',' or '}}' got {:?}",
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let cases = [
            r#"{"verb":"detect","model":"m1","series":[1,2.5,-3e2],"flag":true,"x":null}"#,
            r#"[[],{},"a\"b\\c",0.125,-0]"#,
            r#""hé\nllo""#,
        ];
        for c in cases {
            let v = parse(c).expect(c);
            let s = v.to_string();
            assert_eq!(parse(&s).unwrap(), v, "{c}");
        }
    }

    #[test]
    fn emit_is_deterministic_and_ordered() {
        let v = Value::obj(vec![
            ("b", Value::Num(1.0)),
            ("a", Value::num_arr(&[0.1, 0.2])),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[0.1,0.2]}"#);
        assert_eq!(v.to_string(), v.clone().to_string());
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e308,
            -0.000123456789,
            123456789.123456789,
        ] {
            let s = Value::Num(x).to_string();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} vs {back} via {s}");
        }
    }

    #[test]
    fn non_finite_numbers_are_written_as_null_and_rejected_on_parse() {
        let v = Value::num_arr(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5]);
        assert_eq!(v.to_string(), "[null,null,null,1.5]");
        for bad in ["1e999", "-1e999", "[1,1e400]", r#"{"x":1e999}"#] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn escaper_writes_short_and_unicode_escapes() {
        let mut out = String::new();
        escape("a\"b\\c\nd\re\tf\u{1}\u{1f}\u{7f}é", &mut out).unwrap();
        assert_eq!(out, "a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f\u{7f}é");
        assert_eq!(
            Value::from("x\u{8}y").to_string(),
            "\"x\\u0008y\"",
            "the writer quotes and escapes through the same function"
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "nan",
            "inf",
            "\"\\u12",
            "\"\\u12\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n":3,"s":"x","b":false,"a":[1,2],"z":null}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_f64_vec(), Some(vec![1.0, 2.0]));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("n").unwrap().as_str(), None);
        assert_eq!(v.get("z"), Some(&Value::Null));
    }

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e1}}"#).expect("parse");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let arr = v.get("b").and_then(Value::as_arr).expect("arr");
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        let d = v.get("c").and_then(|c| c.get("d")).and_then(Value::as_f64);
        assert_eq!(d, Some(-25.0));
    }

    #[test]
    fn preserves_object_key_order() {
        let v = parse(r#"{"z":1,"a":2,"m":3}"#).expect("parse");
        let keys: Vec<&str> = v
            .entries()
            .expect("obj")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        let v = parse(r#""café — ok""#).expect("parse");
        assert_eq!(v.as_str(), Some("café — ok"));
        let v = parse(r#""\u00e9\u2014\ud800""#).expect("parse");
        assert_eq!(v.as_str(), Some("é—\u{FFFD}"));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        assert!(parse(&arrays(300)).is_err());
    }

    #[test]
    fn u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("1.5").expect("ok").as_u64(), None);
        assert_eq!(parse("-3").expect("ok").as_u64(), None);
        assert_eq!(parse("42").expect("ok").as_u64(), Some(42));
    }
}
