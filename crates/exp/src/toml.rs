//! A minimal TOML subset parser for experiment specs.
//!
//! The build environment is hermetic (no crates registry), so the spec
//! files are parsed by this small hand-rolled reader instead of a TOML
//! dependency. The supported subset is exactly what `experiments/*.toml`
//! uses:
//!
//! * `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`);
//! * `[table]` headers and `[[array-of-tables]]` headers (one level);
//! * basic strings with `\"`, `\\`, `\n`, `\t` escapes;
//! * integers (optional sign, `_` separators), floats (decimal point
//!   and/or exponent), booleans;
//! * arrays `[v, v, ...]`, possibly spanning lines, with trailing commas,
//!   nested at most [`MAX_DEPTH`] deep (the JSON parser's limit);
//! * `#` comments.
//!
//! Floats are parsed with Rust's `str::parse::<f64>` (correctly rounded),
//! so a value written as `0.25` in a spec is bit-identical to the literal
//! `0.25` in code — the foundation of the pipeline's bit-for-bit
//! reproducibility guarantee.

use impatience_json::MAX_DEPTH;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered array of values.
    Array(Vec<Value>),
    /// A nested table (from `[name]` or `[[name]]` headers).
    Table(Table),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers convert losslessly for the
    /// magnitudes specs use).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The table payload, if this is a table.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// A short name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// An ordered table of key/value pairs (insertion order preserved).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    entries: Vec<(String, Value)>,
}

impl Table {
    /// Look a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterate entries in file order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn insert(&mut self, key: String, value: Value) -> Result<(), String> {
        if self.get(&key).is_some() {
            return Err(format!("duplicate key `{key}`"));
        }
        self.entries.push((key, value));
        Ok(())
    }
}

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct TomlError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skip spaces/tabs and comments, but stop at newlines.
    fn skip_inline_ws(&mut self) {
        while let Some(c) = self.peek() {
            match c {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while self.peek().is_some_and(|c| c != b'\n') {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Skip all whitespace, newlines, and comments.
    fn skip_ws(&mut self) {
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'\n') {
                self.bump();
            } else {
                break;
            }
        }
    }

    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(self.err(format!("expected end of line, found `{}`", char::from(c)))),
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a bare key"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn parse_string(&mut self) -> Result<Value, TomlError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.bump();
        let mut out = String::new();
        loop {
            // Peek before consuming so an unterminated string reports the
            // line it started on, not the one after the stray newline.
            if matches!(self.peek(), None | Some(b'\n')) {
                return Err(self.err("unterminated string"));
            }
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Value::Str(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => {
                        return Err(self.err(format!(
                            "unsupported escape `\\{}`",
                            other.map(char::from).unwrap_or(' ')
                        )))
                    }
                },
                Some(c) => out.push(char::from(c)),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || matches!(c, b'+' | b'-' | b'.' | b'e' | b'E' | b'_')
        }) {
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.src[start..self.pos]).replace('_', "");
        if raw.is_empty() {
            return Err(self.err("expected a value"));
        }
        let is_float = raw.contains(['.', 'e', 'E']);
        if is_float {
            raw.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("cannot parse `{raw}` as a float")))
        } else {
            raw.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("cannot parse `{raw}` as an integer")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.bump();
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err("unterminated array")),
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                _ => {}
            }
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {}
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        self.skip_inline_ws();
        match self.peek() {
            Some(b'"') => self.parse_string(),
            Some(b'[') => {
                // The parser recurses per array: a hostile spec must hit
                // an error, not the end of the stack.
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("arrays nested deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let array = self.parse_array();
                self.depth -= 1;
                array
            }
            Some(b't') | Some(b'f') => {
                let word_start = self.pos;
                while self.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
                    self.pos += 1;
                }
                match &self.src[word_start..self.pos] {
                    b"true" => Ok(Value::Bool(true)),
                    b"false" => Ok(Value::Bool(false)),
                    other => Err(self.err(format!(
                        "unknown literal `{}`",
                        String::from_utf8_lossy(other)
                    ))),
                }
            }
            _ => self.parse_number(),
        }
    }

    fn parse_header(&mut self) -> Result<(String, bool), TomlError> {
        debug_assert_eq!(self.peek(), Some(b'['));
        self.bump();
        let is_array = self.peek() == Some(b'[');
        if is_array {
            self.bump();
        }
        self.skip_inline_ws();
        let name = self.parse_key()?;
        self.skip_inline_ws();
        for _ in 0..(if is_array { 2 } else { 1 }) {
            if self.bump() != Some(b']') {
                return Err(self.err(format!("unterminated table header `[{name}`")));
            }
        }
        self.expect_line_end()?;
        Ok((name, is_array))
    }
}

/// Where key/value pairs currently land while parsing a document.
enum Target {
    Root,
    Table(String),
    ArrayTable(String),
}

/// Parse a spec document into its root table.
pub fn parse(text: &str) -> Result<Table, TomlError> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = Table::default();
    let mut target = Target::Root;
    loop {
        p.skip_ws();
        let Some(c) = p.peek() else { break };
        if c == b'[' {
            let (name, is_array) = p.parse_header()?;
            if is_array {
                match root.entries.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, Value::Array(items))) => items.push(Value::Table(Table::default())),
                    Some(_) => return Err(p.err(format!("`{name}` is not an array of tables"))),
                    None => {
                        root.entries.push((
                            name.clone(),
                            Value::Array(vec![Value::Table(Table::default())]),
                        ));
                    }
                }
                target = Target::ArrayTable(name);
            } else {
                if root.get(&name).is_some() {
                    return Err(p.err(format!("duplicate table `{name}`")));
                }
                root.entries
                    .push((name.clone(), Value::Table(Table::default())));
                target = Target::Table(name);
            }
            continue;
        }
        let key = p.parse_key()?;
        p.skip_inline_ws();
        if p.bump() != Some(b'=') {
            return Err(p.err(format!("expected `=` after key `{key}`")));
        }
        let value = p.parse_value()?;
        p.expect_line_end()?;
        let dest: &mut Table = match &target {
            Target::Root => &mut root,
            Target::Table(name) => match root.entries.iter_mut().find(|(k, _)| k == name) {
                Some((_, Value::Table(t))) => t,
                _ => unreachable!("table target always exists"),
            },
            Target::ArrayTable(name) => match root.entries.iter_mut().find(|(k, _)| k == name) {
                Some((_, Value::Array(items))) => match items.last_mut() {
                    Some(Value::Table(t)) => t,
                    _ => unreachable!("array-of-tables target always ends with a table"),
                },
                _ => unreachable!("array-of-tables target always exists"),
            },
        };
        dest.insert(key, value).map_err(|m| p.err(m))?;
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
            # a spec
            name = "fig4"
            figure = 4
            exact = 0.25
            deep = true

            [setting]
            mu = 0.05
            trials = 15
            values = [
                -2.0, -1.5, # comment inside
                1_000.0,
            ]

            [[sweep]]
            file = "a"

            [[sweep]]
            file = "b"
            synthesized = false
        "#;
        let t = parse(doc).unwrap();
        assert_eq!(t.get("name").unwrap().as_str(), Some("fig4"));
        assert_eq!(t.get("figure").unwrap().as_int(), Some(4));
        assert_eq!(t.get("exact").unwrap().as_f64(), Some(0.25));
        assert_eq!(t.get("deep").unwrap().as_bool(), Some(true));
        let setting = t.get("setting").unwrap().as_table().unwrap();
        assert_eq!(setting.get("mu").unwrap().as_f64(), Some(0.05));
        let values = setting.get("values").unwrap().as_array().unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(values[2].as_f64(), Some(1000.0));
        let sweeps = t.get("sweep").unwrap().as_array().unwrap();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(
            sweeps[1].as_table().unwrap().get("file").unwrap().as_str(),
            Some("b")
        );
        assert_eq!(
            sweeps[1]
                .as_table()
                .unwrap()
                .get("synthesized")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }

    #[test]
    fn floats_parse_bit_identical_to_literals() {
        let t = parse("a = 0.05\nb = -1.5\nc = 0.25\n").unwrap();
        assert_eq!(t.get("a").unwrap().as_f64(), Some(0.05));
        assert_eq!(t.get("b").unwrap().as_f64(), Some(-1.5));
        assert_eq!(t.get("c").unwrap().as_f64(), Some(0.25));
        // Display round-trips through the shortest representation.
        assert_eq!(format!("{}", t.get("a").unwrap().as_f64().unwrap()), "0.05");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbad =\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse("x = \"unterminated\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse("x = 1\nx = 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("ok = 1\nx = {}", "[".repeat(100_000));
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nested deeper than 128"), "{e}");
        // The limit itself still parses.
        let at_limit = format!("x = {}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse(&at_limit).unwrap();
    }

    #[test]
    fn strings_support_escapes() {
        let t = parse(r#"s = "a\"b\\c\nd""#).unwrap();
        assert_eq!(t.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
    }
}
