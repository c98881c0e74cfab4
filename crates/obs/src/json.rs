//! The workspace's flat-JSON codec.
//!
//! Every line the workspace reads or writes — job specs and reports, daemon
//! frames, traces, progress streams, the run ledger, metrics snapshots — is
//! one flat JSON object: string keys, scalar values, no arrays or
//! sub-objects. [`parse_object`] covers exactly that shape and is strict
//! about it (the daemon checks every wire frame with it), so the tools need
//! no external JSON dependency. The value writer ([`push_escaped`] /
//! [`push_f64`]) lives in `placer-telemetry` so its sink shares it;
//! [`escape`] / [`number`] are the `String`-returning forms.

pub use placer_telemetry::{push_escaped, push_f64};

/// A scalar value in one flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string, unescaped.
    Str(String),
    /// A number (parsed as `f64`; the writers emit non-finite values as
    /// `null`).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err("lone high surrogate".into());
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape `\\{}`", char::from(other))),
                    }
                }
                _ => {
                    // Re-borrow the slice to copy a full UTF-8 scalar.
                    let rest = &self.bytes[self.pos - 1..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = s.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos += c.len_utf8() - 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err("truncated \\u escape".into());
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| "non-hex digit in \\u escape".to_string())?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'{') | Some(b'[') => Err("nested containers are not supported".into()),
            Some(_) => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII slice");
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}`"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }
}

/// Parses one flat JSON object into its key/value pairs, in source order.
/// Whitespace is allowed around every token (job report rows use
/// `"key": value`, the sinks write `"key":value`).
///
/// # Errors
///
/// Returns a human-readable message on malformed input, nested containers,
/// or trailing garbage.
pub fn parse_object(line: &str) -> Result<Vec<(String, Json)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.ws();
    p.expect(b'{')?;
    let mut out = Vec::new();
    p.ws();
    if !p.eat(b'}') {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            let val = p.value()?;
            out.push((key, val));
            p.ws();
            if p.eat(b',') {
                continue;
            }
            p.expect(b'}')?;
            break;
        }
    }
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(out)
}

/// The value of `key` in parsed `pairs` (the first, if repeated).
pub fn field<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// JSON-escapes a string (without the surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Formats a number for JSON output (`null` when non-finite).
pub fn number(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let kv =
            parse_object(r#"{"id": "j1", "deadline_ms": 250.5, "ok": true, "x": null}"#).unwrap();
        assert_eq!(kv[0], ("id".into(), Json::Str("j1".into())));
        assert_eq!(kv[1], ("deadline_ms".into(), Json::Num(250.5)));
        assert_eq!(kv[2], ("ok".into(), Json::Bool(true)));
        assert_eq!(kv[3], ("x".into(), Json::Null));
        assert!(parse_object("{}").unwrap().is_empty());
        assert_eq!(field(&kv, "deadline_ms"), Some(&Json::Num(250.5)));
        assert_eq!(field(&kv, "missing"), None);
    }

    #[test]
    fn parses_event_line() {
        let kv =
            parse_object(r#"{"type":"event","kind":"gp_iter","t_us":42,"overflow":0.75}"#).unwrap();
        assert_eq!(kv[0], ("type".into(), Json::Str("event".into())));
        assert_eq!(kv[1], ("kind".into(), Json::Str("gp_iter".into())));
        assert_eq!(kv[2].1.as_num(), Some(42.0));
        assert_eq!(kv[3].1.as_num(), Some(0.75));
    }

    #[test]
    fn parses_literals_and_escapes() {
        let kv =
            parse_object(r#"{"ok":true,"off":false,"cost":null,"name":"a\"b\\c","neg":-1.5e-3}"#)
                .unwrap();
        assert_eq!(kv[0].1.as_bool(), Some(true));
        assert_eq!(kv[1].1.as_bool(), Some(false));
        assert_eq!(kv[2].1, Json::Null);
        assert_eq!(kv[3].1.as_str(), Some("a\"b\\c"));
        assert_eq!(kv[4].1.as_num(), Some(-1.5e-3));
        assert_eq!(kv[4].1.as_str(), None);
        assert_eq!(kv[3].1.as_bool(), None);
    }

    // Job report rows (`JobReport::to_line`) space their separators; the
    // sinks do not. The parser must accept both shapes.
    #[test]
    fn parses_spaced_report_row() {
        let kv = parse_object(
            r#"{"id": "a1", "status": "complete", "wall_ms": 13.05, "legal": true, "fom": null}"#,
        )
        .unwrap();
        assert_eq!(kv[0].1.as_str(), Some("a1"));
        assert_eq!(kv[1].1.as_str(), Some("complete"));
        assert_eq!(kv[2].1.as_num(), Some(13.05));
        assert_eq!(kv[3].1, Json::Bool(true));
        assert_eq!(kv[4].1, Json::Null);
    }

    #[test]
    fn handles_escapes_and_unicode() {
        let kv = parse_object(r#"{"s": "a\"b\\c\ndµ😀"}"#).unwrap();
        assert_eq!(kv[0].1, Json::Str("a\"b\\c\ndµ😀".into()));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    // Every escape valid JSON allows is accepted, not only the ones the
    // writer emits.
    #[test]
    fn accepts_every_json_escape() {
        for (line, want) in [
            (r#"{"s": "x\/y"}"#, "x/y"),
            (r#"{"s": "x\by"}"#, "x\u{8}y"),
            (r#"{"s": "x\fy"}"#, "x\u{c}y"),
        ] {
            let kv = parse_object(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(kv[0].1.as_str(), Some(want), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for line in [
            "not json",
            r#"{"k":}"#,
            r#"{"k":nope}"#,
            r#"{"unterminated"#,
            r#"{"a": 1"#,
            r#"{"a": [1]}"#,
            r#"{"a": {"b": 1}}"#,
            r#"{"a": bogus}"#,
            // Trailing bytes after the object.
            r#"{"a":1} trailing"#,
            r#"{"a":1}}"#,
            // A missing separator between two pairs.
            r#"{"a":1 "b":2}"#,
            // Stray commas.
            r#"{"a":1,}"#,
            r#"{,"a":1}"#,
            // Surrogates that do not form a pair.
            r#"{"s": "\ud83d"}"#,
            r#"{"s": "\ud83dx"}"#,
            r#"{"s": "\ude00"}"#,
        ] {
            assert!(parse_object(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn escape_round_trip() {
        let mut line = String::from("{\"k\":\"");
        push_escaped(&mut line, "a\"b\\c\nd\te\r\u{1}");
        line.push_str("\"}");
        assert_eq!(line, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"}");
        let kv = parse_object(&line).unwrap();
        assert_eq!(kv[0].1.as_str(), Some("a\"b\\c\nd\te\r\u{1}"));
    }

    #[test]
    fn numbers_roundtrip() {
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        let kv = parse_object(&format!(r#"{{"v": {}}}"#, number(1e-9))).unwrap();
        assert_eq!(kv[0].1, Json::Num(1e-9));
    }
}
