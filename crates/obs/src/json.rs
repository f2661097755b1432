//! A minimal JSON value tree, writer, and parser.
//!
//! The workspace depends on no serialization crate, so every tool in
//! it emits machine-readable output by hand (see
//! `ahs-lint::diag` for the same idiom). This module centralizes the
//! escaping and rendering rules so manifests, metrics snapshots, and
//! progress events all produce valid RFC 8259 documents — and, since
//! checkpoint/resume needs to read its own artifacts back, a small
//! recursive-descent parser ([`Json::parse`]) that round-trips
//! everything the writer emits.

/// A JSON value.
///
/// # Example
///
/// ```
/// use ahs_obs::Json;
///
/// let v = Json::obj(vec![
///     ("seed", Json::UInt(2009)),
///     ("lambda", Json::Num(1e-5)),
///     ("tags", Json::Arr(vec![Json::str("is"), Json::str("des")])),
/// ]);
/// assert_eq!(
///     v.render(),
///     r#"{"seed":2009,"lambda":0.00001,"tags":["is","des"]}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (seeds and counters need all 64 bits).
    UInt(u64),
    /// A floating-point number; non-finite values render as `null`
    /// (JSON has no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an object from `(&str, Json)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document.
    ///
    /// Integers without a fraction or exponent parse as [`Json::UInt`]
    /// (or [`Json::Int`] when negative); everything else numeric parses
    /// as [`Json::Num`]. Trailing non-whitespace after the top-level
    /// value is an error.
    ///
    /// # Example
    ///
    /// ```
    /// use ahs_obs::Json;
    ///
    /// let v = Json::parse(r#"{"seed":2009,"ok":true}"#).unwrap();
    /// assert_eq!(v.get("seed").and_then(Json::as_u64), Some(2009));
    /// assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after top-level value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for other variants or a
    /// missing key; first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts any numeric variant; `null`
    /// yields `None`, not NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The string slice, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The element slice, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field slice, if this is an `Obj`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => push_json_string(out, s),
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
                    push_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// Appends `value` to `out` as a quoted, RFC 8259-escaped JSON string.
pub fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure from [`Json::parse`], with the byte offset of the
/// offending input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (unescaped) bytes at once.
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect `\uXXXX` low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            _ => return Err(self.err(format!("invalid escape `\\{}`", c as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-ASCII \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !fractional {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(v) = rest.parse::<u64>() {
                    if let Ok(i) = i64::try_from(v) {
                        return Ok(Json::Int(-i));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Int(-3).render(), "-3");
        assert_eq!(Json::UInt(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nested_structures_render_compactly() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::UInt(1), Json::Null])),
            ("b", Json::obj(vec![("c", Json::Bool(false))])),
        ]);
        assert_eq!(v.render(), r#"{"a":[1,null],"b":{"c":false}}"#);
    }

    #[test]
    fn float_rendering_round_trips_typical_rates() {
        for v in [1e-5, 1e-13, 0.1, 12.0, 6.02e23] {
            let rendered = Json::Num(v).render();
            let back: f64 = rendered.parse().expect("parses as f64");
            assert_eq!(back, v, "{rendered}");
        }
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj(vec![
            ("seed", Json::UInt(u64::MAX)),
            ("offset", Json::Int(-42)),
            ("rate", Json::Num(1e-5)),
            ("label", Json::str("a\"b\\c\nd\u{1}")),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("x", Json::Num(0.5))])),
        ]);
        let back = Json::parse(&v.render()).expect("round-trips");
        assert_eq!(back, v);
    }

    #[test]
    fn parse_accepts_whitespace_and_accessors_work() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : false } ").unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        // `\u` escapes, including a surrogate pair, and raw UTF-8.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::str("Aé\u{1F600}")
        );
        assert_eq!(Json::parse("\"é😀\"").unwrap(), Json::str("é😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "1 2",
            "nul",
            "{\"a\" 1}",
            r#""\q""#,
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_preserves_integer_width() {
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn numeric_accessors_convert_between_widths() {
        assert_eq!(Json::UInt(7).as_f64(), Some(7.0));
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Int(-7).as_u64(), None);
        assert_eq!(Json::UInt(7).as_i64(), Some(7));
        assert_eq!(Json::Null.as_f64(), None);
    }
}
