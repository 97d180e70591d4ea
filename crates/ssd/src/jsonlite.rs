//! Minimal JSON, both directions, without pulling a serialization
//! dependency into the workspace.
//!
//! **Reading** ([`Json::parse`]) supports the full value grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null). Integer-valued
//! numbers without a fraction or exponent are kept exactly as
//! [`Json::Uint`]/[`Json::Int`] (fleet-aggregated op/byte totals exceed
//! 2^53, where `f64` starts dropping low bits); everything else is kept
//! as `f64`.
//!
//! **Writing** ([`Obj`]) is how every `BENCH_*.json` artifact is emitted:
//! an object keeps insertion order, every string goes through [`escape`],
//! a non-finite number is written as `null` and named by
//! [`Obj::non_finite`], and there is one layout ([`Obj::render`]).
//! [`drift`] compares two written documents leaf by leaf.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written with a fraction or exponent (kept as `f64`).
    Num(f64),
    /// A non-negative integer literal, exact up to `u64::MAX`.
    Uint(u64),
    /// A negative integer literal, exact down to `i64::MIN`.
    Int(i64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic for tests.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field access; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements, or `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, or `None` for non-objects.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string payload, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, or `None` for non-numbers. Integer
    /// literals above 2^53 lose precision in this view; use
    /// [`Json::as_u64`]/[`Json::as_i64`] where exactness matters.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Uint(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact unsigned-integer payload: integer literals that fit
    /// `u64`, or `None` (fractional/exponent forms included — they were
    /// already rounded through `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The exact signed-integer payload: integer literals that fit
    /// `i64`, or `None`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Uint(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// A one-word name for the value's type (for validation messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) | Json::Uint(_) | Json::Int(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Deepest container nesting [`Json::parse`] follows; a document nested
/// deeper is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') | Some(b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte '{}' at {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
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
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the trace
                            // writer; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(b) if b < 0x80 => {
                    // Bulk-copy the plain-ASCII run (the overwhelmingly
                    // common case — validating from the cursor to the end
                    // of input per character would make parsing O(n²)).
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b >= 0x80 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
                Some(_) => {
                    // One multi-byte UTF-8 scalar: decode from at most the
                    // next four bytes.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let rest = &self.bytes[self.pos..end];
                    let ch = match std::str::from_utf8(rest) {
                        Ok(s) => s.chars().next().unwrap(),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&rest[..e.valid_up_to()])
                                .unwrap()
                                .chars()
                                .next()
                                .unwrap()
                        }
                        Err(_) => return Err("invalid utf-8".into()),
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            // Exact fast path: `f64` would silently drop low bits above
            // 2^53 (a real magnitude for fleet-aggregated counters).
            if negative {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Int(n));
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
            // Out-of-range integers fall back to the rounded f64 view.
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A value of a document under construction (see [`Obj`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, written exactly.
    Uint(u64),
    /// A signed integer, written exactly.
    Int(i64),
    /// A measured quantity, written `{:.4}` (what `From<f64>` builds).
    Fixed(f64),
    /// A configured quantity, written in its shortest round-trip form
    /// (`0.05` stays `0.05`).
    Exact(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Obj),
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from($v: $t) -> Self {
                $e
            }
        })*
    };
}
value_from! {
    bool => |v| Value::Bool(v),
    u64 => |v| Value::Uint(v),
    usize => |v| Value::Uint(v as u64),
    f64 => |v| Value::Fixed(v),
    &str => |v| Value::Str(v.to_string()),
    &String => |v| Value::Str(v.clone()),
    String => |v| Value::Str(v),
    Obj => |v| Value::Obj(v),
}

/// An object under construction: members keep insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one member.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends an array member built from `items`.
    pub fn array<T: Into<Value>>(self, key: &str, items: impl IntoIterator<Item = T>) -> Self {
        self.field(key, Value::Arr(items.into_iter().map(Into::into).collect()))
    }

    /// The document text. One layout for every artifact: root members one
    /// per line, the elements of a root-level array one per line,
    /// everything deeper inline.
    pub fn render(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| match value {
                Value::Arr(items) if !items.is_empty() => {
                    let lines: Vec<String> =
                        items.iter().map(|item| format!("    {}", item.inline())).collect();
                    format!("  \"{}\": [\n{}\n  ]", escape(key), lines.join(",\n"))
                }
                other => format!("  {}", member(key, other)),
            })
            .collect();
        format!("{{\n{}\n}}\n", members.join(",\n"))
    }

    /// One message per non-finite number in the document, naming its
    /// dotted path (`points.3.iops`). Such a number is written as `null`;
    /// a gate that reports these cannot read a NaN as a healthy zero.
    pub fn non_finite(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (key, value) in &self.0 {
            value.non_finite_into(key, &mut out);
        }
        out
    }
}

impl Value {
    fn inline(&self) -> String {
        match self {
            Value::Bool(b) => b.to_string(),
            Value::Uint(n) => n.to_string(),
            Value::Int(n) => n.to_string(),
            Value::Fixed(v) if v.is_finite() => format!("{v:.4}"),
            Value::Exact(v) if v.is_finite() => format!("{v:?}"),
            Value::Fixed(_) | Value::Exact(_) => "null".to_string(),
            Value::Str(s) => format!("\"{}\"", escape(s)),
            Value::Arr(items) => {
                format!("[{}]", items.iter().map(Value::inline).collect::<Vec<_>>().join(", "))
            }
            Value::Obj(obj) => {
                let members: Vec<String> = obj.0.iter().map(|(k, v)| member(k, v)).collect();
                format!("{{{}}}", members.join(", "))
            }
        }
    }

    fn non_finite_into(&self, path: &str, out: &mut Vec<String>) {
        match self {
            Value::Fixed(v) | Value::Exact(v) if !v.is_finite() => {
                out.push(format!("'{path}' is not finite (written as null)"));
            }
            Value::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    item.non_finite_into(&format!("{path}.{i}"), out);
                }
            }
            Value::Obj(obj) => {
                for (key, value) in &obj.0 {
                    value.non_finite_into(&format!("{path}.{key}"), out);
                }
            }
            _ => {}
        }
    }
}

fn member(key: &str, value: &Value) -> String {
    format!("\"{}\": {}", escape(key), value.inline())
}

/// One drift rule: every numeric leaf at `path` (dotted; `*` stands for
/// each element of an array or member of an object) may differ from the
/// baseline by `tol` relative to the larger magnitude. Differences up to
/// `floor` are ignored outright, so near-zero pairs don't explode.
#[derive(Debug, Clone, Copy)]
pub struct DriftRule {
    /// Dotted path of the gated leaves.
    pub path: &'static str,
    /// Relative tolerance.
    pub tol: f64,
    /// Absolute difference below which nothing is reported.
    pub floor: f64,
}

/// Numeric drift of the `current` document against a previously written
/// `baseline`, under `rules`. An unparseable document, a rule's leaf
/// missing on either side and a moved number are each one message; a
/// baseline from a different `"scale"` is skipped (empty result), since
/// its magnitudes aren't comparable.
pub fn drift(baseline: &str, current: &str, rules: &[DriftRule]) -> Vec<String> {
    let (base, cur) = match (Json::parse(baseline), Json::parse(current)) {
        (Ok(base), Ok(cur)) => (base, cur),
        (Err(e), _) => return vec![format!("unparseable baseline: {e}")],
        (_, Err(e)) => return vec![format!("unparseable artifact: {e}")],
    };
    if base.get("scale") != cur.get("scale") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for rule in rules {
        let segments: Vec<&str> = rule.path.split('.').collect();
        drift_walk(&base, Some(&cur), &segments, String::new(), rule, &mut out);
    }
    out
}

fn drift_walk(
    base: &Json,
    cur: Option<&Json>,
    segments: &[&str],
    path: String,
    rule: &DriftRule,
    out: &mut Vec<String>,
) {
    let Some((&segment, rest)) = segments.split_first() else {
        match (base.as_num(), cur.and_then(Json::as_num)) {
            (None, _) => out.push(format!("baseline field '{path}' is not a number")),
            (_, None) => out.push(format!("'{path}' is missing from this run")),
            (Some(b), Some(c)) => {
                let diff = (c - b).abs();
                if diff > rule.floor && diff > rule.tol * b.abs().max(c.abs()) {
                    out.push(format!(
                        "'{path}' drifted: {c:.4} vs baseline {b:.4} (tol {:.0}%)",
                        rule.tol * 100.0
                    ));
                }
            }
        }
        return;
    };
    let keys: Vec<String> = match (segment, base) {
        ("*", Json::Arr(items)) => (0..items.len()).map(|i| i.to_string()).collect(),
        ("*", Json::Obj(members)) => members.keys().cloned().collect(),
        _ => vec![segment.to_string()],
    };
    for key in keys {
        let at = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
        match child(base, &key) {
            Some(b) => drift_walk(b, cur.and_then(|c| child(c, &key)), rest, at, rule, out),
            None => out.push(format!("baseline missing field '{at}'")),
        }
    }
}

fn child<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Arr(items) => items.get(key.parse::<usize>().ok()?),
        _ => v.get(key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(a[2], Json::Null);
        assert!(v.get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_multibyte_strings() {
        assert_eq!(Json::parse("\"héllo ✓ 你好\"").unwrap(), Json::Str("héllo ✓ 你好".into()));
        assert_eq!(Json::parse("\"mixé\"").unwrap(), Json::Str("mixé".into()));
        assert!(Json::parse("\"\u{10348}\"").is_ok(), "4-byte scalars decode");
        assert!(Json::parse(std::str::from_utf8(b"\"ab\"").unwrap()).is_ok());
    }

    #[test]
    fn large_documents_parse_in_linear_time() {
        // Regression: the string fast path must not re-validate the rest
        // of the input per character (a 5 MB export took minutes).
        let big = format!("[{}]", vec!["\"0123456789abcdef\""; 100_000].join(","));
        let t = std::time::Instant::now();
        let v = Json::parse(&big).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 100_000);
        assert!(t.elapsed().as_secs() < 10, "parse took {:?}", t.elapsed());
    }

    #[test]
    fn integer_literals_round_trip_exactly_at_u64_max() {
        // Regression: the all-f64 parser rounded 2^53+1 to 2^53 and
        // u64::MAX to 2^64, silently corrupting drift-gate comparisons.
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v, Json::Uint(u64::MAX));
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let odd = Json::parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(odd.as_u64(), Some(9_007_199_254_740_993));
        let min = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(min.as_i64(), Some(i64::MIN));
        assert_eq!(min.as_u64(), None, "negative literals have no u64 view");
    }

    #[test]
    fn fractional_and_exponent_forms_stay_floats() {
        assert_eq!(Json::parse("1.0").unwrap(), Json::Num(1.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("1.0").unwrap().as_u64(), None);
        // Integers beyond both u64 and i64 degrade to the rounded f64
        // view instead of failing the parse.
        let big = Json::parse("18446744073709551616").unwrap(); // 2^64
        assert_eq!(big.as_u64(), None);
        assert_eq!(big.as_num(), Some(2f64.powi(64)));
        assert_eq!(big.type_name(), "number");
    }

    #[test]
    fn escape_round_trips() {
        let s = "line1\nline2\t\"quoted\" \\slash\u{0001}";
        let parsed = Json::parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(parsed, Json::Str(s.into()));
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(Json::parse(&"[".repeat(100_000)).unwrap_err().contains("nested deeper"));
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep).is_ok());
    }

    fn sample() -> Obj {
        Obj::new()
            .field("name", "quo\"te\n\u{1}")
            .field("gate", Obj::new().field("speedup", 2.5).field("rate", Value::Exact(0.05)))
            .array("points", [Obj::new().field("qd", 1u64).array("util", [0.25, f64::NAN])])
            .array("none", Vec::<u64>::new())
            .field("last", Value::Int(-3))
    }

    #[test]
    fn one_layout_root_members_and_root_array_elements_per_line() {
        let expected = concat!(
            "{\n",
            "  \"name\": \"quo\\\"te\\n\\u0001\",\n",
            "  \"gate\": {\"speedup\": 2.5000, \"rate\": 0.05},\n",
            "  \"points\": [\n",
            "    {\"qd\": 1, \"util\": [0.2500, null]}\n",
            "  ],\n",
            "  \"none\": [],\n",
            "  \"last\": -3\n",
            "}\n",
        );
        assert_eq!(sample().render(), expected);
        let parsed = Json::parse(expected).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("quo\"te\n\u{1}"));
    }

    #[test]
    fn a_non_finite_number_is_null_and_named() {
        assert_eq!(sample().non_finite(), ["'points.0.util.1' is not finite (written as null)"]);
    }

    #[test]
    fn drift_compares_the_ruled_leaves_only() {
        let doc = |scale: &str, speedup: f64, vaf: f64, noise: u64| {
            Obj::new()
                .field("scale", scale)
                .field("gate", Obj::new().field("speedup", speedup))
                .array("rows", [Obj::new().field("vaf", 1.0), Obj::new().field("vaf", vaf)])
                .field("noise", noise)
                .render()
        };
        let rules = [
            DriftRule { path: "gate.speedup", tol: 0.1, floor: 0.05 },
            DriftRule { path: "rows.*.vaf", tol: 0.0, floor: 0.01 },
        ];
        let base = doc("smoke", 2.0, 0.5, 1);
        assert_eq!(drift(&base, &doc("smoke", 2.1, 0.505, 99), &rules), Vec::<String>::new());
        let moved = drift(&base, &doc("smoke", 3.0, 0.6, 1), &rules);
        assert_eq!(moved.len(), 2, "{moved:?}");
        assert!(moved[0].contains("'gate.speedup' drifted") && moved[1].contains("'rows.1.vaf'"));
        // Another scale's baseline is skipped; a corrupt one is a violation.
        assert!(drift(&base, &doc("full", 3.0, 0.6, 1), &rules).is_empty());
        assert_eq!(drift("{not json", &base, &rules).len(), 1);
        // A ruled leaf missing on either side is reported, not skipped.
        let bare = Obj::new().field("scale", "smoke").render();
        assert!(drift(&base, &bare, &rules).iter().all(|m| m.contains("missing from this run")));
        assert!(drift(&bare, &base, &rules)[0].contains("baseline missing field 'gate'"));
    }

    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn arbitrary_string(rng: &mut Xorshift) -> String {
        const PALETTE: [char; 12] =
            ['a', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '你', '\u{10348}'];
        (0..rng.below(6)).map(|_| PALETTE[rng.below(12) as usize]).collect()
    }

    /// An object drawn from `rng`, and what parsing its rendering must
    /// yield (a repeated key keeps its last value; a `Fixed` float comes
    /// back at the four decimals it was written with).
    fn arbitrary_object(rng: &mut Xorshift, depth: u32) -> (Obj, Json) {
        let (mut obj, mut parsed) = (Obj::new(), BTreeMap::new());
        for _ in 0..rng.below(5) {
            let key = arbitrary_string(rng);
            let (value, json) = arbitrary_value(rng, depth);
            obj = obj.field(&key, value);
            parsed.insert(key, json);
        }
        (obj, Json::Obj(parsed))
    }

    fn arbitrary_value(rng: &mut Xorshift, depth: u32) -> (Value, Json) {
        match rng.below(if depth == 0 { 7 } else { 9 }) {
            0 => (Value::Exact(f64::NAN), Json::Null),
            1 => (Value::Bool(true), Json::Bool(true)),
            2 => {
                let n = [0, 1 << 53, u64::MAX, rng.below(u64::MAX)][rng.below(4) as usize];
                (Value::Uint(n), Json::Uint(n))
            }
            3 => {
                let n =
                    [i64::MIN, -1, rng.below(u64::MAX) as i64 | i64::MIN][rng.below(3) as usize];
                (Value::Int(n), Json::Int(n))
            }
            4 | 5 => {
                let v = f64::from_bits(rng.below(u64::MAX));
                let v = if v.is_finite() { v } else { 0.5 };
                if rng.below(2) == 0 {
                    (Value::Exact(v), Json::Num(v))
                } else {
                    (Value::Fixed(v), Json::Num(format!("{v:.4}").parse().unwrap()))
                }
            }
            6 => {
                let s = arbitrary_string(rng);
                (Value::Str(s.clone()), Json::Str(s))
            }
            7 => {
                let n = rng.below(4);
                let (values, parsed) = (0..n).map(|_| arbitrary_value(rng, depth - 1)).unzip();
                (Value::Arr(values), Json::Arr(parsed))
            }
            _ => {
                let (obj, parsed) = arbitrary_object(rng, depth - 1);
                (Value::Obj(obj), parsed)
            }
        }
    }

    proptest! {
        #[test]
        fn what_is_written_parses_back_to_itself(seed in any::<u64>()) {
            let (doc, expected) = arbitrary_object(&mut Xorshift(seed | 1), 3);
            prop_assert_eq!(Json::parse(&doc.render()), Ok(expected));
        }

        #[test]
        fn parse_never_panics_on_hostile_text(
            seed in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            cut in any::<usize>(),
            at in any::<usize>(),
            with in any::<u8>(),
        ) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            // A written document, truncated, then with one byte replaced.
            let mut text = arbitrary_object(&mut Xorshift(seed | 1), 3).0.render().into_bytes();
            let _ = Json::parse(&String::from_utf8_lossy(&text[..cut % text.len()]));
            let at = at % text.len();
            text[at] = with;
            let _ = Json::parse(&String::from_utf8_lossy(&text));
        }
    }
}
