//! A minimal JSON value codec for the wire protocol — the workspace
//! takes no dependencies, so request bodies are parsed by this
//! recursive-descent reader and responses are rendered by hand with
//! [`escape_into`]. Coverage is deliberately the JSON the protocol
//! actually speaks: objects, arrays, strings (with the standard escapes
//! and `\uXXXX`), finite numbers, booleans and null. Parse depth is
//! bounded so hostile nesting cannot overflow the stack.
//!
//! Decoding is linear in the document size: a string's runs of ordinary
//! bytes are copied with one slice each and never re-validated as UTF-8
//! (the input is already a `&str`). A fit envelope carries its training
//! CSV as one string field of up to megabytes, so this is the daemon's
//! largest single parse.

/// Maximum nesting depth accepted from untrusted request bodies.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order (duplicate keys rejected).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset into the document plus what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing content rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for absent fields and non-objects.
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer, if this is
    /// a number holding one (rejects fractions, negatives, and
    /// magnitudes beyond 2^53 where `f64` loses integer exactness).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if v.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&v) {
            Some(v as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(JsonError {
                offset: start,
                reason: format!("invalid number `{text}`"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary bytes up to the next `"`, `\` or
            // control byte as one slice. Both ends of the run are ASCII
            // positions or the end of the text, hence char boundaries.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// Decodes the escape after a consumed `\` onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                // Exactly four hex digits: `u32::from_str_radix` would
                // also take a sign (`\u+041`).
                let code = hex
                    .iter()
                    .try_fold(0u32, |acc, &h| Some(acc * 16 + char::from(h).to_digit(16)?))
                    .ok_or_else(|| self.err("non-hex \\u escape"))?;
                self.pos += 4;
                // Surrogates are rejected rather than paired: the
                // protocol's strings are ids and CSV text, all inside
                // the BMP.
                let c = char::from_u32(code)
                    .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                out.push(c);
            }
            other => return Err(self.err(format!("unknown escape `\\{}`", other as char))),
        }
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
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
}

/// Appends `s` to `out` as a JSON string body (no surrounding quotes),
/// escaping everything the grammar requires.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
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
}

/// `s` as a quoted, escaped JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obskit::Stopwatch;
    use rngkit::rngs::StdRng;
    use rngkit::Rng;
    use testkit::prop::{vec, Gen};
    use testkit::{prop_assert, prop_assert_eq, property_tests};

    #[test]
    fn parses_the_protocol_shapes() {
        let v = Json::parse(
            r#"{"model":"census","rows":1000,"offset":0,"profile":"fast","flag":true,"x":null,"arr":[1,2.5,-3e2]}"#,
        )
        .unwrap();
        assert_eq!(v.get("model").and_then(Json::as_str), Some("census"));
        assert_eq!(v.get("rows").and_then(Json::as_u64), Some(1000));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        match v.get("arr") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\u{1}";
        let doc = format!("{{\"s\":{}}}", quote(original));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(original));
        let v = Json::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1} trailing",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
            "nul",
            "1e999",
            "NaN",
            "{\"a\"}",
            "\"bad \\q escape\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.reason.contains("nesting"), "{err}");
    }

    #[test]
    fn u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(1e18).as_u64(), None, "beyond exact range");
    }

    /// The char-at-a-time string decoder that the run-copying
    /// [`Parser::string`] replaced, kept as its reference: one scalar
    /// per step, the same escapes and errors.
    fn reference_string(p: &mut Parser) -> Result<String, JsonError> {
        p.expect(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    p.escape(&mut out)?;
                }
                Some(c) if c < 0x20 => return Err(p.err("raw control byte in string")),
                Some(_) => {
                    let c = p.text[p.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    p.pos += c.len_utf8();
                }
            }
        }
    }

    /// One scalar value, weighted toward what stresses the decoder:
    /// quotes, backslashes, control characters and 2-, 3- and 4-byte
    /// UTF-8 sequences besides plain ASCII.
    fn any_char(rng: &mut StdRng) -> char {
        let code = match rng.gen_range(0..6u32) {
            0 => rng.gen_range(0x20..0x7fu32),
            1 => rng.gen_range(0..0x20u32),
            2 => u32::from([b'"', b'\\', b'/', b'u'][rng.gen_range(0..4usize)]),
            3 => rng.gen_range(0x80..0x800u32),
            4 => rng.gen_range(0x800..0x1_0000u32),
            _ => rng.gen_range(0x1_0000..0x11_0000u32),
        };
        // Surrogate code points are not scalars; fall back to ASCII.
        char::from_u32(code).unwrap_or('s')
    }

    fn unicode_string() -> Gen<String> {
        vec(Gen::new(any_char, |_| Vec::new()), 0..48).map(|cs| cs.into_iter().collect())
    }

    /// Bytes a mutation may write: JSON structure, escape material and
    /// a control byte.
    const MUTANTS: [u8; 12] = [
        b'"', b'\\', b'u', b'+', b'0', b'f', b'{', b'}', b'[', b',', b':', 0x01,
    ];

    /// `doc` with one byte replaced, re-encoded as valid UTF-8 (a
    /// `&str` is what the parser takes).
    fn mutate(doc: &str, at: usize, with: u8) -> String {
        let mut bytes = doc.as_bytes().to_vec();
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] = with;
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// `doc` cut at the char boundary at or below `at`.
    fn truncate(doc: &str, at: usize) -> &str {
        let mut at = at % (doc.len() + 1);
        while !doc.is_char_boundary(at) {
            at -= 1;
        }
        &doc[..at]
    }

    fn envelope(s: &str) -> String {
        format!(
            "{{\"id\":\"fit-0\",\"epsilon\":1.0,\"seed\":7,\"csv\":{},\"k\":[1,2.5,null,true]}}",
            quote(s)
        )
    }

    property_tests! {
        fn quoted_strings_round_trip(s in unicode_string()) {
            prop_assert_eq!(Json::parse(&quote(&s)), Ok(Json::Str(s.clone())));
            let v = Json::parse(&envelope(&s)).map_err(|e| e.to_string())?;
            prop_assert_eq!(v.get("csv").and_then(Json::as_str), Some(s.as_str()));
        }

        fn string_decoder_matches_the_reference(
            s in unicode_string(),
            at in 0usize..4096,
            with in 0usize..MUTANTS.len(),
            cut in 0usize..4096,
        ) {
            let quoted = quote(&s);
            let mutated = mutate(&quoted, at, MUTANTS[with]);
            for doc in [quoted.as_str(), mutated.as_str(), truncate(&quoted, cut)] {
                let mut fast = Parser::new(doc);
                let mut reference = Parser::new(doc);
                prop_assert_eq!(fast.string(), reference_string(&mut reference));
                prop_assert_eq!(fast.pos, reference.pos);
            }
        }

        fn damaged_documents_fail_cleanly(
            s in unicode_string(),
            at in 0usize..4096,
            with in 0usize..MUTANTS.len(),
            cut in 0usize..4096,
        ) {
            let doc = envelope(&s);
            let mutated = mutate(&doc, at, MUTANTS[with]);
            for damaged in [mutated.as_str(), truncate(&doc, cut)] {
                if let Err(e) = Json::parse(damaged) {
                    prop_assert!(
                        e.offset <= damaged.len(),
                        "offset {} past a {}-byte document",
                        e.offset,
                        damaged.len()
                    );
                }
            }
        }
    }

    #[test]
    fn megabyte_string_parses_in_linear_time() {
        // Mixed content so every decoder branch runs: plain runs,
        // escapes and multibyte scalars.
        let unit = "12,0,3,45\n\"q\"\\ é€😀\t";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        let doc = envelope(&big);
        assert!(doc.len() > 1 << 20);
        let watch = Stopwatch::start();
        let v = Json::parse(&doc).expect("well-formed envelope");
        let elapsed_ms = watch.elapsed_ns() / 1_000_000;
        assert_eq!(v.get("csv").and_then(Json::as_str), Some(big.as_str()));
        // Linear decoding takes milliseconds even unoptimized; the
        // quadratic decoder it replaced took minutes on this input.
        assert!(elapsed_ms < 2_000, "1 MiB string took {elapsed_ms} ms");
    }
}
