//! # impatience-json
//!
//! A small, dependency-free JSON library: a [`Json`] value model, a
//! recursive-descent parser, and a compact writer.
//!
//! The workspace builds in hermetic environments with no access to a
//! crates registry, so the trace I/O ([`impatience-traces`]) and the
//! observability layer ([`impatience-obs`]: JSONL event streams, run
//! manifests) serialize through this crate instead of serde. The
//! supported surface is deliberately plain: UTF-8 text, `i64`/`f64`
//! numbers, objects with insertion-ordered keys (deterministic output —
//! important for manifest diffing and golden tests).
//!
//! ```
//! use impatience_json::Json;
//!
//! let v = Json::obj([
//!     ("name", Json::from("fig4")),
//!     ("trials", Json::from(15u64)),
//!     ("rate", Json::from(0.7321)),
//! ]);
//! let text = v.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("trials").and_then(Json::as_u64), Some(15));
//! ```
//!
//! [`impatience-traces`]: ../impatience_traces/index.html
//! [`impatience-obs`]: ../impatience_obs/index.html

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod parse;

pub use parse::{JsonParseError, MAX_DEPTH};

use std::fmt;

/// A JSON value.
///
/// Numbers keep their integer-ness: values written as integers parse back
/// as [`Json::Int`], everything else as [`Json::Float`]. Object keys keep
/// insertion order so output is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (no fraction or exponent, fits `i64`).
    Int(i64),
    /// Any other number. Non-finite floats serialize as `null` (JSON has
    /// no representation for them).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: insertion-ordered `(key, value)` pairs.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parse a JSON document (must be a single value with only trailing
    /// whitespace after it).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        parse::parse(text)
    }

    /// Member lookup on an object (first match wins); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize compactly into `out` (no trailing newline).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                if *n < 0 {
                    out.push('-');
                }
                write_digits(n.unsigned_abs(), out);
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{}` on f64 is shortest-roundtrip in Rust.
                    use fmt::Write as _;
                    let start = out.len();
                    let _ = write!(out, "{x}");
                    // Keep floats recognizably non-integer on re-parse.
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize with `indent`-space indentation (no trailing newline).
    /// Scalars render exactly as [`Json::write`] does, so a re-parse is
    /// value-identical; only whitespace differs. Used for the committed
    /// human-diffed documents (the performance ledger's output, API
    /// examples).
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
        self.write_pretty_at(out, indent, 0);
    }

    fn write_pretty_at(&self, out: &mut String, indent: usize, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&" ".repeat(indent * (depth + 1)));
                    v.write_pretty_at(out, indent, depth + 1);
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent * depth));
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&" ".repeat(indent * (depth + 1)));
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty_at(out, indent, depth + 1);
                }
                out.push('\n');
                out.push_str(&" ".repeat(indent * depth));
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Write `x` exactly as [`Json::Float`] serializes it: shortest
/// round-trip via `{}`, a `.0` suffix when the text would otherwise look
/// integral, `null` for non-finite values. Exposed so callers building
/// JSON text directly (e.g. the JSONL event fast path in
/// `impatience-obs`) stay byte-identical with tree serialization.
pub fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        use fmt::Write as _;
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Write `n` exactly as `Json::from(u64)` serializes it (integer text,
/// falling back to the float path above `i64::MAX`).
pub fn write_u64(n: u64, out: &mut String) {
    match i64::try_from(n) {
        Ok(_) => write_digits(n, out),
        Err(_) => write_f64(n as f64, out),
    }
}

/// `"00" "01" … "99"`: the two ASCII digits of each value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append the decimal digits of `n`, byte-identical to `{n}`, two at a
/// time from [`DIGIT_PAIRS`] instead of through `core::fmt`.
fn write_digits(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // The leading digit of an odd-length number, or the 0 of zero.
    if n > 0 || start == buf.len() {
        start -= 1;
        buf[start] = b'0' + n as u8;
    }
    out.extend(buf[start..].iter().map(|&b| char::from(b)));
}

/// Write `s` as a quoted, escaped JSON string exactly as [`Json::Str`]
/// serializes it.
pub fn write_str(s: &str, out: &mut String) {
    write_escaped(s, out);
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n)
            .map(Json::Int)
            .unwrap_or(Json::Float(n as f64))
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pretty_print_reparses_identically() {
        let v = Json::obj([
            ("name", Json::from("bench")),
            ("empty_obj", Json::obj::<&str, _>([])),
            ("empty_arr", Json::Array(vec![])),
            (
                "rows",
                Json::Array(vec![Json::from(1i64), Json::from(2.5), Json::Null]),
            ),
            ("nested", Json::obj([("p99", Json::from(3.25))])),
        ]);
        let mut pretty = String::new();
        v.write_pretty(&mut pretty, 2);
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert!(pretty.contains("{\n  \"name\": \"bench\""));
        assert!(pretty.contains("\"empty_obj\": {}"));
        assert!(pretty.contains("\"nested\": {\n    \"p99\": 3.25\n  }"));
    }

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "1e-3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::from(42u64).to_string(), "42");
        let x = Json::parse("42.0").unwrap();
        assert_eq!(x, Json::Float(42.0));
        // A float that happens to be integral still re-parses as a float.
        assert_eq!(Json::parse(&x.to_string()).unwrap(), Json::Float(42.0));
    }

    /// `Json::Int(n)` and `write_u64(n)` as text.
    fn int_text(n: i64) -> String {
        Json::Int(n).to_string()
    }

    fn u64_text(n: u64) -> String {
        let mut out = String::new();
        write_u64(n, &mut out);
        out
    }

    #[test]
    fn integer_text_matches_display() {
        let mut values = vec![0, 9, 10, 99, 100, i64::MIN, i64::MAX, i64::MIN + 1];
        let mut power = 1i64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, power + 1, next - 1]);
            power = next;
        }
        values.push(power);
        for n in values.clone() {
            values.push(n.wrapping_neg());
        }
        for n in values {
            assert_eq!(int_text(n), format!("{n}"));
            if let Ok(u) = u64::try_from(n) {
                assert_eq!(u64_text(u), format!("{n}"));
            }
        }
        for n in 0..10_000 {
            assert_eq!(int_text(n), format!("{n}"));
            assert_eq!(int_text(-n), format!("{}", -n));
        }
    }

    #[test]
    fn u64_above_i64_max_takes_the_float_path() {
        for n in [i64::MAX as u64 + 1, u64::MAX] {
            assert_eq!(u64_text(n), Json::Float(n as f64).to_string());
            assert_eq!(u64_text(n), Json::from(n).to_string());
        }
        assert_eq!(u64_text(i64::MAX as u64), "9223372036854775807");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Random integers of every length: a full-width draw shifted
        /// right by a random amount.
        #[test]
        fn random_integers_match_display(raw in 0u64..u64::MAX, shift in 0u32..64) {
            let u = raw >> shift;
            let i = u as i64;
            prop_assert_eq!(int_text(i), format!("{i}"));
            prop_assert_eq!(u64_text(u), Json::from(u).to_string());
            if i >= 0 {
                prop_assert_eq!(u64_text(u), format!("{u}"));
            }
        }
    }

    #[test]
    fn float_roundtrip_is_lossless() {
        for x in [0.1, -2.5e-300, 1.0 / 3.0, 6.02e23, f64::MIN_POSITIVE] {
            let text = Json::Float(x).to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{text}");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn object_helpers_and_order() {
        let v = Json::obj([("b", Json::from(1u64)), ("a", Json::from("x"))]);
        assert_eq!(v.to_string(), "{\"b\":1,\"a\":\"x\"}");
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let nasty = "a\"b\\c\nd\te\u{1}é→";
        let text = Json::from(nasty).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn nested_roundtrip() {
        let text = r#"{"a":[1,2.5,{"b":null},"s"],"c":{"d":[true,false]}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1].as_f64(), Some(2.5));
    }

    #[test]
    fn parse_errors_carry_positions() {
        for bad in [
            "", "{", "[1,]", "{\"a\"1}", "tru", "1 2", "\"\\q\"", "{\"a\":}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.to_string().contains("offset"), "{bad}: {err}");
        }
    }
}
