//! Offline stand-in for `serde_json`.
//!
//! Renders the shim `serde`'s [`Value`] tree as JSON text and parses JSON text back
//! into it. Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, `null`); integers round-trip at full 64-bit precision and
//! floats through Rust's shortest-round-trip formatting.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

use std::fmt;

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

/// Formats straight into the output buffer: a number costs no `String` of its own.
fn format_into(out: &mut String, args: fmt::Arguments<'_>) {
    fmt::Write::write_fmt(out, args).expect("writing to a String cannot fail");
}

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => format_into(out, format_args!("{x}")),
        Value::I64(x) => format_into(out, format_args!("{x}")),
        // `{:?}` is Rust's shortest representation that round-trips.
        Value::F64(x) if x.is_finite() => format_into(out, format_args!("{x:?}")),
        // JSON has no Infinity/NaN; encode as null like serde_json does.
        Value::F64(_) => out.push_str("null"),
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
    let new_line = |out: &mut String, level: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * level));
        }
    };
    out.push(open);
    let count = items.len();
    for (index, item) in items.enumerate() {
        new_line(out, level + 1);
        write_item(item, out, indent, level + 1);
        if index + 1 < count {
            out.push(',');
        }
    }
    if count > 0 {
        new_line(out, level);
    }
    out.push(close);
}

/// Writes a quoted string, copying each run of characters that need no escape
/// in one piece. Everything JSON requires escaped is a single ASCII byte, so a
/// run starts and ends on character boundaries whatever lies inside it.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = first_escape(rest.as_bytes()) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => format_into(out, format_args!("\\u{control:04x}")),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// The position of the first byte JSON requires escaped: `"`, `\` or a control
/// character. Blocks are tested whole — a test without an early exit is one the
/// compiler turns into vector compares, a ninth of the time of a byte-by-byte
/// search on a megabyte string — and only the block that has one is searched.
fn first_escape(bytes: &[u8]) -> Option<usize> {
    const BLOCK: usize = 32;
    let escaped = |byte: &u8| *byte < 0x20 || *byte == b'"' || *byte == b'\\';
    let clean = bytes
        .chunks_exact(BLOCK)
        .take_while(|block| !block.iter().fold(false, |any, byte| any | escaped(byte)))
        .count()
        * BLOCK;
    bytes[clean..].iter().position(escaped).map(|at| clean + at)
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

    /// The writer this crate had before strings were copied in runs and numbers
    /// formatted in place: one `match` per `char`, one `String` per number. Kept
    /// as the oracle the writer above is checked against.
    mod reference {
        use super::Value;

        pub fn to_string(value: &Value, indent: Option<usize>) -> String {
            let mut out = String::new();
            write_value(value, &mut out, indent, 0);
            out
        }

        fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
            match value {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::U64(x) => out.push_str(&x.to_string()),
                Value::I64(x) => out.push_str(&x.to_string()),
                Value::F64(x) => {
                    if x.is_finite() {
                        out.push_str(&format!("{x:?}"));
                    } else {
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

        pub fn write_string(s: &str, out: &mut String) {
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
    }

    /// Both writers on one value, compact and pretty; returns the compact text.
    fn assert_writers_agree(value: &Value) -> String {
        let compact = to_string(value).unwrap();
        assert_eq!(compact, reference::to_string(value, None));
        assert_eq!(
            to_string_pretty(value).unwrap(),
            reference::to_string(value, Some(2))
        );
        compact
    }

    #[test]
    fn strings_are_written_as_the_per_char_writer_wrote_them() {
        // Everything the writer escapes, what it must not (0x7f, multi-byte text
        // of every width) and filler long enough to cross the scanner's blocks.
        let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
        alphabet.extend(['"', '\\', '\u{7f}', 'a', 'Z', ' ', '/', 'é', '→', '𝄞']);
        // splitmix64: the sweep repeats exactly and needs no dependency.
        let mut state = 0x5EED_u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut cases = vec![String::new()];
        for &escaped in &alphabet[..0x22] {
            // An escape alone, first, last, adjacent to another, and either side
            // of a block boundary.
            let plain = "x".repeat(31 + next(3));
            cases.push(escaped.to_string());
            cases.push(format!("{escaped}{plain}"));
            cases.push(format!("{plain}{escaped}"));
            cases.push(format!("{plain}{escaped}{escaped}é{escaped}"));
        }
        for _ in 0..2_000 {
            let len = next(100);
            // Mostly filler, so that runs of every length up to a few blocks occur.
            let filler = next(4) > 0;
            cases.push(
                (0..len)
                    .map(|_| match filler && next(8) > 0 {
                        true => 'k',
                        false => alphabet[next(alphabet.len())],
                    })
                    .collect(),
            );
        }
        for case in cases {
            let mut expected = String::new();
            reference::write_string(&case, &mut expected);
            let text = to_string(&Value::Str(case.clone())).unwrap();
            assert_eq!(text, expected, "{case:?}");
            assert_eq!(from_str::<String>(&text).unwrap(), case);
        }
    }

    #[test]
    fn numbers_are_written_as_to_string_wrote_them() {
        let numbers = Value::Array(vec![
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(i64::MIN),
            Value::I64(-1),
            Value::F64(0.1),
            Value::F64(-0.0),
            Value::F64(1e300),
            Value::F64(f64::NAN),
            Value::F64(f64::NEG_INFINITY),
        ]);
        assert_eq!(
            assert_writers_agree(&numbers),
            "[0,18446744073709551615,-9223372036854775808,-1,0.1,-0.0,1e300,null,null]"
        );
    }

    #[test]
    fn the_committed_baseline_is_written_as_the_per_char_writer_wrote_it() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path).expect("the baseline is committed");
        let value: Value = from_str(&text).expect("the baseline parses");
        let compact = assert_writers_agree(&value);
        assert_eq!(from_str::<Value>(&compact).unwrap(), value);
        // The file is this crate's own pretty rendering.
        assert!(to_string_pretty(&value).unwrap() == text);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("\"open").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
