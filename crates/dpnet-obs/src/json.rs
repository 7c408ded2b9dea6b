//! A deliberately tiny JSON layer: an object writer for event/report
//! serialization and one parser, [`parse_value`], for reading back what
//! the workspace writes (JSONL audit lines, run reports, traces, explain
//! reports). Not a general JSON implementation, and not trying to be one;
//! the point is zero dependencies and a surface small enough to audit by
//! eye.

use std::collections::BTreeMap;

/// Escape `s` into a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render an `f64` the way the audit format expects: finite values via
/// Rust's shortest-roundtrip `Display`, non-finite as `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Guarantee a numeric token that parses back as f64 (Display prints
        // integers without a fractional part, which is still valid JSON).
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental writer for one flat JSON object.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, name: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&escape(name));
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn field_str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(&escape(value));
        self
    }

    /// Add a string field only when `value` is `Some`.
    pub fn field_opt_str(&mut self, name: &str, value: Option<&str>) -> &mut Self {
        if let Some(v) = value {
            self.field_str(name, v);
        }
        self
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Add a float field (`null` when non-finite).
    pub fn field_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&number(value));
        self
    }

    /// Add a float field only when `value` is `Some`.
    pub fn field_opt_f64(&mut self, name: &str, value: Option<f64>) -> &mut Self {
        if let Some(v) = value {
            self.field_f64(name, v);
        }
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(&mut self) -> String {
        format!("{{{}}}", self.buf)
    }
}

type CharStream<'a> = std::iter::Peekable<std::str::Chars<'a>>;

fn skip_ws(chars: &mut CharStream<'_>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut CharStream<'_>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut s = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                '"' => s.push('"'),
                '\\' => s.push('\\'),
                '/' => s.push('/'),
                'n' => s.push('\n'),
                'r' => s.push('\r'),
                't' => s.push('\t'),
                'u' => {
                    let hex: String = (0..4).map_while(|_| chars.next()).collect();
                    if hex.len() != 4 {
                        return None;
                    }
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    s.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => s.push(c),
        }
    }
}

/// Any JSON value, nesting included. Returned by [`parse_value`]; used to
/// read back documents the workspace *emits* (audit lines, run reports,
/// Chrome traces, explain reports) without an external JSON library.
///
/// Indexing an object by key yields the member, or [`JsonValue::Null`]
/// when the key is absent or the value is not an object:
///
/// ```
/// use dpnet_obs::json::parse_value;
///
/// let v = parse_value(r#"{"type":"summary","spent":0.25}"#).unwrap();
/// assert_eq!(v["type"].as_str(), Some("summary"));
/// assert_eq!(v["spent"].as_f64(), Some(0.25));
/// assert_eq!(v["absent"].as_f64(), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string (unescaped).
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
    /// An array of values.
    Arr(Vec<JsonValue>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn items(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;

    fn index(&self, key: &str) -> &JsonValue {
        self.get(key).unwrap_or(&JsonValue::Null)
    }
}

/// Nesting cap for [`parse_value`]: plenty for anything this workspace
/// emits, small enough that hostile input cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document of arbitrary (bounded) nesting.
/// Returns `None` on malformed input, trailing garbage, or nesting deeper
/// than `MAX_DEPTH` (64).
pub fn parse_value(text: &str) -> Option<JsonValue> {
    let mut chars = text.trim().chars().peekable();
    let v = parse_value_inner(&mut chars, 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None;
    }
    Some(v)
}

fn parse_value_inner(chars: &mut CharStream<'_>, depth: usize) -> Option<JsonValue> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(chars);
    match chars.peek()? {
        '"' => Some(JsonValue::Str(parse_string(chars)?)),
        '{' => {
            chars.next();
            let mut out = BTreeMap::new();
            skip_ws(chars);
            if chars.peek() == Some(&'}') {
                chars.next();
                return Some(JsonValue::Obj(out));
            }
            loop {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                let value = parse_value_inner(chars, depth + 1)?;
                out.insert(key, value);
                skip_ws(chars);
                match chars.next()? {
                    ',' => continue,
                    '}' => return Some(JsonValue::Obj(out)),
                    _ => return None,
                }
            }
        }
        '[' => {
            chars.next();
            let mut out = Vec::new();
            skip_ws(chars);
            if chars.peek() == Some(&']') {
                chars.next();
                return Some(JsonValue::Arr(out));
            }
            loop {
                out.push(parse_value_inner(chars, depth + 1)?);
                skip_ws(chars);
                match chars.next()? {
                    ',' => continue,
                    ']' => return Some(JsonValue::Arr(out)),
                    _ => return None,
                }
            }
        }
        't' | 'f' | 'n' => {
            let word: String =
                std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
            match word.as_str() {
                "true" => Some(JsonValue::Bool(true)),
                "false" => Some(JsonValue::Bool(false)),
                "null" => Some(JsonValue::Null),
                _ => None,
            }
        }
        _ => {
            let tok: String = std::iter::from_fn(|| {
                chars.next_if(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            })
            .collect();
            Some(JsonValue::Num(tok.parse().ok()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_flat_objects() {
        let mut o = JsonObj::new();
        o.field_str("type", "spend")
            .field_f64("eps", 0.25)
            .field_u64("seq", 7)
            .field_bool("ok", true)
            .field_opt_str("label", None)
            .field_f64("bad", f64::NAN);
        let s = o.finish();
        assert_eq!(
            s,
            r#"{"type":"spend","eps":0.25,"seq":7,"ok":true,"bad":null}"#
        );
    }

    #[test]
    fn escaping_roundtrips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let mut o = JsonObj::new();
        o.field_str("k", nasty);
        let parsed = parse_value(&o.finish()).expect("parses");
        assert_eq!(parsed["k"].as_str(), Some(nasty));
    }

    #[test]
    fn writer_output_parses_back() {
        let mut o = JsonObj::new();
        o.field_str("op", "noisy_count")
            .field_f64("eps", 1e-9)
            .field_f64("neg", -2.5)
            .field_u64("n", u64::MAX);
        let m = parse_value(&o.finish()).expect("parses");
        assert_eq!(m["op"].as_str(), Some("noisy_count"));
        assert_eq!(m["eps"].as_f64(), Some(1e-9));
        assert_eq!(m["neg"].as_f64(), Some(-2.5));
        assert_eq!(m["n"].as_f64(), Some(u64::MAX as f64));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in ["", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":1} trailing"] {
            assert!(parse_value(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_object_is_fine() {
        assert_eq!(parse_value("{}"), Some(JsonValue::Obj(BTreeMap::new())));
        assert_eq!(parse_value("{}").unwrap()["any"], JsonValue::Null);
    }

    #[test]
    fn parse_value_handles_nesting() {
        let v = parse_value(r#"{"a":[1,{"b":"x\n"},[]],"c":{"d":null,"e":true}}"#).expect("parses");
        let a = v.get("a").and_then(JsonValue::items).expect("array");
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b").and_then(JsonValue::as_str), Some("x\n"));
        assert_eq!(a[2].items(), Some(&[][..]));
        assert_eq!(v.get("c").and_then(|c| c.get("d")), Some(&JsonValue::Null));
        assert_eq!(
            v.get("c").and_then(|c| c.get("e")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn parse_value_rejects_malformed_and_deep_input() {
        for bad in ["", "{", "[1,", "{\"a\":1} x", "[1 2]", "{\"a\" 1}"] {
            assert!(parse_value(bad).is_none(), "accepted {bad:?}");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_value(&deep).is_none(), "accepted 100-deep nesting");
        let fine = format!("{}1{}", "[".repeat(10), "]".repeat(10));
        assert!(parse_value(&fine).is_some());
    }
}
