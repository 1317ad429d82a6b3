//! Minimal JSON value parser (no external crates; see DESIGN.md §4.6).
//!
//! Exists so the metrics/record emitters can be *round-tripped* in tests
//! and validated by `validate_metrics` without pulling in serde. It
//! accepts exactly the JSON this workspace emits (objects, arrays,
//! strings with the escapes `gm_obs::report::escape_into` produces plus
//! `\/`, `\b`, `\f` and `\uXXXX`, numbers, booleans, null) and rejects
//! everything else with a byte-offset error message.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source order (duplicate keys are kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Unpaired surrogates are rejected; this
                            // workspace only escapes control characters.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one piece. Those bytes are ASCII and
                    // the input is a &str, so the run is valid UTF-8.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("char boundary"),
                    );
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number '{text}' at {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".to_owned()));
    }

    #[test]
    fn parses_nested_and_escapes() {
        let v = parse(r#"{"a": [1, {"b": "x\nyA"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x\nyA"));
    }

    #[test]
    fn u64_conversion_guards() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn strings_keep_multibyte_escapes_and_error_offsets() {
        let v = parse("\"a\u{e9}\u{4e2d}\u{1f600}\\n\\u00e9\\\"z\"").unwrap();
        assert_eq!(v, Json::Str("a\u{e9}\u{4e2d}\u{1f600}\n\u{e9}\"z".to_owned()));
        // 'é' is two bytes, so the control character sits at byte 3.
        assert_eq!(parse("\"\u{e9}\u{1}\"").unwrap_err(), "raw control character at byte 3");
        assert_eq!(parse("\"\u{1}\"").unwrap_err(), "raw control character at byte 1");
        // The 4-byte emoji ends at byte 4, its backslash at 5.
        assert_eq!(parse("\"\u{1f600}\\q\"").unwrap_err(), "bad escape at byte 6");
        assert_eq!(parse("\"\u{4e2d}").unwrap_err(), "unterminated string");
    }

    #[test]
    fn round_trips_report_json() {
        let mut r = gm_obs::Report::new();
        r.set("sim.events", 123);
        r.set("pool.wall_ns", 456);
        r.set("weird\"key", 1);
        let parsed = parse(&r.to_json()).unwrap();
        assert_eq!(parsed.get("sim.events").unwrap().as_u64(), Some(123));
        assert_eq!(parsed.get("weird\"key").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.as_obj().unwrap().len(), 3);
    }
}
