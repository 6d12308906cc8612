//! A minimal JSON value, parser, and serializer for the wire protocol.
//!
//! The build environment is fully offline, so there is no serde; the
//! protocol needs exactly one self-describing tree type with a strict
//! parser (reject trailing garbage, bound recursion depth) and a
//! serializer whose output re-parses to the same tree. Numbers keep the
//! integer/float distinction: `Value::Int` answers must round-trip
//! bit-exactly over the wire, so integers never detour through `f64`.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that lexes as a pure integer and fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is the shortest representation that parses
                    // back to the same bits, and always carries a `.` or
                    // exponent so it re-lexes as a float.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no NaN/Inf; the protocol encodes engine
                    // doubles as tagged strings instead (see protocol.rs),
                    // so a bare non-finite float only arises from misuse.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialization (no whitespace, one line); `to_string()` on a
/// [`Json`] re-parses to the same tree.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte 0x{b:02x} at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key `{key}`"));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 consumed its digits
                        }
                        _ => return Err("bad escape".to_string()),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err("unescaped control byte in string".to_string()),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. All three are ASCII, and no
                    // byte of a multi-byte UTF-8 character is, so the run
                    // ends on a character boundary of the `&str` input.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.input[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err("truncated \\u escape".to_string());
        };
        let s = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape digits".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, want) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-42", Json::Int(-42)),
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("1.5", Json::Float(1.5)),
            ("-2e3", Json::Float(-2000.0)),
            ("\"hi\"", Json::Str("hi".to_string())),
        ] {
            let parsed = parse(text).unwrap();
            assert_eq!(parsed, want, "parsing {text}");
            assert_eq!(parse(&parsed.to_string()).unwrap(), want);
        }
    }

    #[test]
    fn containers_round_trip() {
        let text = r#"{"id":7,"sql":"SELECT 1","tags":[1,-2,"x",null,true]}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_int), Some(7));
        assert_eq!(v.get("sql").and_then(Json::as_str), Some("SELECT 1"));
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash \u{1}ctl caf\u{e9} \u{1f600}";
        let v = Json::Str(original.to_string());
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        // Surrogate-pair escapes parse too.
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
    }

    /// 2-, 3- and 4-byte characters decode at the very end of the input,
    /// beside escapes, and in a run of their own.
    #[test]
    fn multibyte_characters_round_trip_next_to_escapes_and_the_end() {
        for c in ['\u{e9}', '\u{20ac}', '\u{1f600}'] {
            for text in [
                format!("{c}"),
                format!("a{c}"),
                format!("{c}\n"),
                format!("\t{c}"),
                format!("\"{c}\\{c}\"{c}"),
                format!("{c}{c}\u{1}{c}"),
            ] {
                let v = Json::Str(text.clone());
                let wire = v.to_string();
                assert_eq!(parse(&wire).unwrap(), v, "{wire:?}");
            }
            // The character is the last byte run of the whole document.
            assert_eq!(
                parse(&format!("\"{c}\"")).unwrap(),
                Json::Str(c.to_string())
            );
            assert_eq!(
                parse(&format!("[\"\\u0041{c}\"]")).unwrap(),
                Json::Arr(vec![Json::Str(format!("A{c}"))])
            );
        }
        assert!(
            parse("\"caf\u{e9}").is_err(),
            "unterminated after a 2-byte char"
        );
        assert!(
            parse("\"\u{20ac}\u{1}\"").is_err(),
            "control byte after a 3-byte char"
        );
    }

    /// One string of 2 MB (mixed ASCII, multi-byte characters and
    /// escapes) parses; decoding is linear in the input.
    #[test]
    fn a_two_megabyte_string_parses() {
        let unit = "abc\u{e9}\u{20ac}\u{1f600} \"q\"\n";
        let text: String = unit.repeat((2 << 20) / unit.len());
        let wire = Json::Arr(vec![Json::Str(text.clone()), Json::Int(1)]).to_string();
        assert!(wire.len() >= 2 << 20);
        let parsed = parse(&wire).unwrap();
        assert_eq!(parsed.as_arr().unwrap()[0], Json::Str(text));
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "nul",
            "tru",
            "01x",
            "1.2.3",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "[1] []",
            "{\"a\":1}}",
        ] {
            assert!(parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn floats_keep_bits() {
        for x in [0.1, 1e300, -0.0, f64::MIN_POSITIVE, 123456.789] {
            let text = Json::Float(x).to_string();
            match parse(&text).unwrap() {
                Json::Float(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
                Json::Int(y) => assert_eq!(x, y as f64),
                other => panic!("parsed {other:?}"),
            }
        }
    }
}
