//! Offline stand-in for `serde_json`.
//!
//! Renders the shim `serde`'s [`Value`] tree as JSON text and parses JSON text back
//! into it. Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, `null`); integers round-trip at full 64-bit precision and
//! floats through Rust's shortest-round-trip formatting.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

use serde::{Deserialize, Serialize};

/// Converts any serializable type into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs a type from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest representation that round-trips.
                out.push_str(&format!("{x:?}"));
            } else {
                // JSON has no Infinity/NaN; encode as null like serde_json does.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            write_sequence(out, indent, level, items.iter(), write_value, '[', ']')
        }
        Value::Object(fields) => write_sequence(
            out,
            indent,
            level,
            fields.iter(),
            |(key, value), out, indent, level| {
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(value, out, indent, level);
            },
            '{',
            '}',
        ),
    }
}

fn write_sequence<T>(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(T, &mut String, Option<usize>, usize),
    open: char,
    close: char,
) {
    out.push(open);
    let count = items.len();
    for (index, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (level + 1)));
        }
        write_item(item, out, indent, level + 1);
        if index + 1 < count {
            out.push(',');
        }
    }
    if count > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
    }
    out.push(close);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    /// The input, and the same input as bytes (`pos` indexes both).
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}, found {:?}",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            )))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` in array, found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` in object, found {:?}",
                        other.map(|b| b as char)
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::msg("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::msg("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "invalid escape {:?}",
                                other.map(|b| b as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape. Both are
                    // ASCII, so the run starts and ends on character boundaries of
                    // the (already valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(byte) = self.peek() {
            match byte {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() || text.parse::<i64>().is_ok() {
                    return text
                        .parse::<i64>()
                        .map(Value::I64)
                        .map_err(|_| Error::msg(format!("integer out of range: {text}")));
                }
            } else if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::U64(x));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number: {text}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (value, text) in [
            (Value::Null, "null"),
            (Value::Bool(true), "true"),
            (Value::U64(18446744073709551615), "18446744073709551615"),
            (Value::I64(-42), "-42"),
            (Value::Str("a\"b\\c\nd".into()), r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(to_string(&value).unwrap(), text);
            assert_eq!(from_str::<Value>(text).unwrap(), value);
        }
    }

    #[test]
    fn floats_round_trip() {
        let text = to_string(&Value::F64(0.1)).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), Value::F64(0.1));
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = Value::Object(vec![
            (
                "list".into(),
                Value::Array(vec![Value::U64(1), Value::Null, Value::Bool(false)]),
            ),
            ("empty".into(), Value::Array(vec![])),
            (
                "nested".into(),
                Value::Object(vec![("k".into(), Value::Str("v".into()))]),
            ),
        ]);
        let compact = to_string(&value).unwrap();
        assert_eq!(from_str::<Value>(&compact).unwrap(), value);
        let pretty = to_string_pretty(&value).unwrap();
        assert_eq!(from_str::<Value>(&pretty).unwrap(), value);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn typed_round_trip_through_text() {
        let xs = vec![(1u64, "one".to_string()), (2, "two".to_string())];
        let text = to_string(&xs).unwrap();
        let back: Vec<(u64, String)> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn multibyte_and_escaped_strings_round_trip() {
        let tricky = "é→𝄞 \"quoted\" back\\slash\ttab\nnewline \u{1}\u{1f} ünï";
        let value = Value::Array(vec![
            Value::Str(tricky.into()),
            Value::Object(vec![(tricky.into(), Value::Str(String::new()))]),
        ]);
        let text = to_string(&value).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), value);
        // Escapes the writer never emits still parse, next to raw multi-byte text.
        assert_eq!(
            from_str::<Value>(r#""\u00e9é\/\b\f""#).unwrap(),
            Value::Str("éé/\u{8}\u{c}".into())
        );
    }

    #[test]
    fn string_parsing_is_linear_in_the_document() {
        // The parser used to re-validate the whole remaining buffer for every
        // character of every string: quadratic, 8 s for an 831 KB report.
        fn document(bytes: usize) -> String {
            let item = r#"{"name":"a string with some length to it","note":"ünïcödé \" escape"}"#;
            let items = vec![item; bytes / item.len()];
            format!("[{}]", items.join(","))
        }
        fn parse_time(text: &str) -> std::time::Duration {
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    assert!(matches!(from_str::<Value>(text), Ok(Value::Array(_))));
                    started.elapsed()
                })
                .min()
                .expect("three samples")
        }
        let small = parse_time(&document(1 << 20));
        let large = parse_time(&document(4 << 20));
        assert!(
            large < small * 8,
            "4 MB took {large:?}, 1 MB took {small:?}: more than 8x for 4x the input"
        );
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("\"open").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
