//! A minimal, dependency-free JSON value type with a deterministic writer
//! and a strict parser.
//!
//! The offline serde shim has no serializer backend, so the campaign
//! results format (`BENCH_<id>.json`) is emitted and validated through this
//! module instead. Object keys keep insertion order and numbers render via
//! Rust's shortest-round-trip `Display`, so the same [`Json`] value always
//! renders to the same bytes — the property the campaign determinism
//! guarantee ("same master seed ⇒ byte-identical results file") rests on.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order (no map reordering, for
/// byte-stable output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without a decimal point.
    UInt(u64),
    /// A float, rendered via shortest-round-trip `Display`. Non-finite
    /// values render as `null` (JSON has no NaN/inf).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset where parsing failed.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience: an object from key–value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a `UInt` (or an integral `Num`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The numeric payload as a float, if this is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to a compact JSON string (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset on malformed input, trailing
    /// garbage, or arrays and objects nested more than 128 levels deep.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { msg: "trailing characters after value".into(), at: pos });
        }
        Ok(value)
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so unbounded input nesting would
/// overflow the stack; results files nest a handful of levels.
const MAX_DEPTH: usize = 128;

fn render_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn err(msg: impl Into<String>, at: usize) -> JsonError {
    JsonError { msg: msg.into(), at }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(format!("expected {:?}", b as char), *pos))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(err("unexpected end of input", *pos));
    };
    if matches!(b, b'{' | b'[') && depth == MAX_DEPTH {
        return Err(err(format!("nesting deeper than {MAX_DEPTH} levels"), *pos));
    }
    match b {
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_literal(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(err(format!("unexpected character {:?}", other as char), *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(format!("expected {lit:?}"), *pos))
    }
}

/// Parses a number of JSON's grammar, `-? (0 | [1-9][0-9]*) (.[0-9]+)?
/// ([eE][+-]?[0-9]+)?`: no leading zeros, and digits on both sides of a
/// decimal point and after an exponent mark.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let invalid = |why: &str| err(format!("invalid number: {why}"), start);
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match digits(pos) {
        0 => return Err(invalid("no integer digits")),
        len if len > 1 && bytes[*pos - len] == b'0' => return Err(invalid("leading zero")),
        _ => {}
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        is_float = true;
        if digits(pos) == 0 {
            return Err(invalid("no digits after the decimal point"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        is_float = true;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid("no exponent digits"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    if !is_float && !text.starts_with('-') {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>().map(Json::Num).map_err(|_| err(format!("invalid number {text:?}"), start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(err("unterminated string", *pos));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(err("unterminated escape", *pos));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        // Exactly four hex digits, digit by digit:
                        // `u32::from_str_radix` would also take a sign.
                        let code = hex
                            .iter()
                            .try_fold(0, |code, &h| Some(code * 16 + char::from(h).to_digit(16)?))
                            .ok_or_else(|| {
                                let hex = String::from_utf8_lossy(hex);
                                err(format!("bad \\u escape {hex:?}"), *pos)
                            })?;
                        *pos += 4;
                        // Surrogates are not paired here; results files only
                        // ever contain BMP scalar values.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(err(format!("bad escape \\{}", other as char), *pos - 1)),
                }
            }
            0x00..=0x1f => {
                return Err(err(format!("raw control character {b:#04x} in string"), *pos - 1));
            }
            _ => {
                // Copy the whole run up to the next quote, backslash or
                // control character at once. All are ASCII, so the run ends
                // on a char boundary of the (valid UTF-8) input and decodes
                // in linear time.
                let start = *pos - 1;
                let len = bytes[start..].iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
                *pos = len.map_or(bytes.len(), |len| start + len);
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err("invalid UTF-8 in string", start))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => {
                *pos += 1;
            }
            Some(&b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => {
                *pos += 1;
            }
            Some(&b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let v = Json::obj(vec![
            ("schema", Json::Str("rn-bench-results/v1".into())),
            ("seed", Json::UInt(20170725)),
            ("mean", Json::Num(123.456)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "cells",
                Json::Arr(vec![Json::obj(vec![
                    ("topology", Json::Str("torus(32x32)".into())),
                    ("rounds", Json::Num(0.05)),
                ])]),
            ),
        ]);
        let s = v.render();
        let back = Json::parse(&s).expect("own output parses");
        assert_eq!(back, v);
        assert_eq!(back.render(), s, "render is a fixed point");
    }

    #[test]
    fn renders_compact_and_ordered() {
        let v = Json::obj(vec![("b", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(v.render(), r#"{"b":1,"a":2}"#, "insertion order, no sorting");
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}π".into());
        let s = v.render();
        assert_eq!(Json::parse(&s).expect("parses"), v);
    }

    #[test]
    fn string_runs_escapes_and_multibyte_characters_round_trip() {
        // Plain runs between every escape form, `\u` escapes (one a lone
        // surrogate, which decodes to U+FFFD) and 2-, 3- and 4-byte UTF-8.
        let doc = r#"{"plain é":"a\"b\\c\/d\ne\rf\tg\bh\fi\u0041\u00e9中\ud800 π中😀 end","":"","😀":"\u0001"}"#;
        let v = Json::parse(doc).expect("parses");
        let want = Json::obj(vec![
            ("plain é", Json::Str("a\"b\\c/d\ne\rf\tg\u{8}h\u{c}iAé中\u{fffd} π中😀 end".into())),
            ("", Json::Str(String::new())),
            ("😀", Json::Str("\u{1}".into())),
        ]);
        assert_eq!(v, want);
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).expect("own output parses"), v);
        assert!(Json::parse(r#""unterminated é"#).is_err());
    }

    #[test]
    fn parses_standard_forms() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("[1, 2]").unwrap(), Json::Arr(vec![Json::UInt(1), Json::UInt(2)]));
        assert_eq!(Json::parse(r#"{"k": "A"}"#).unwrap().get("k").unwrap().as_str(), Some("A"));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "1 2", r#"{"a"}"#, "nan", "01x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn rejects_a_u_escape_without_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004""#, r#""\u00G1""#] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(e.msg.contains("\\u escape"), "{bad}: {}", e.msg);
        }
        assert_eq!(Json::parse(r#""\u00aF""#).unwrap(), Json::Str("\u{af}".into()));
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for c in ['\u{0}', '\t', '\n', '\r', '\u{1f}'] {
            for doc in [format!("\"{c}\""), format!("\"ab{c}cd\""), format!("{{\"k{c}\":1}}")] {
                let e = Json::parse(&doc).expect_err(&doc);
                assert!(e.msg.contains("control character"), "{doc:?}: {}", e.msg);
            }
        }
        assert_eq!(Json::parse("\"a\u{7f}b\"").unwrap(), Json::Str("a\u{7f}b".into()));
    }

    #[test]
    fn rejects_numbers_outside_the_json_grammar() {
        for bad in ["01", "-01", "00.5", "1.", "-.5", "1.e5", "-", "1e", "1e+", "[1.]", "[01]"] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(e.msg.contains("invalid number"), "{bad}: {}", e.msg);
        }
    }

    #[test]
    fn accepts_every_form_of_the_json_number_grammar() {
        for (doc, want) in [
            ("0", Json::UInt(0)),
            ("10", Json::UInt(10)),
            ("-0", Json::Num(-0.0)),
            ("0.5", Json::Num(0.5)),
            ("-10.25", Json::Num(-10.25)),
            ("1e5", Json::Num(1e5)),
            ("1E+5", Json::Num(1e5)),
            ("-1.5e-3", Json::Num(-1.5e-3)),
            ("0e0", Json::Num(0.0)),
        ] {
            assert_eq!(Json::parse(doc).expect(doc), want, "{doc}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}0{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), (r#"{"k":"#, "}")] {
            assert!(Json::parse(&nested(open, close, MAX_DEPTH)).is_ok(), "{open} at the limit");
            let e = Json::parse(&nested(open, close, MAX_DEPTH + 1)).expect_err("one level deeper");
            assert_eq!(
                e.at,
                open.len() * MAX_DEPTH,
                "{open}: reported at the first level too deep"
            );
            assert!(e.msg.contains("nesting"), "{}", e.msg);
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n": 1024, "r": 1.5, "xs": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(1024));
        assert_eq!(v.get("r").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
