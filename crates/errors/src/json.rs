//! A small dependency-free JSON emitter and parser.
//!
//! The offline build environment has no access to `serde`/`serde_json`,
//! so the checkpoint format (JSONL) and config round-trips are built on
//! this module instead. It supports the full JSON data model with two
//! deliberate restrictions:
//!
//! * Numbers are `f64` (ample for every quantity in this workspace; u32
//!   sweep parameters round-trip exactly through f64).
//! * Object key order is preserved as written, keeping emitted
//!   checkpoints byte-deterministic.
//!
//! Non-finite numbers are not representable in JSON; [`Value::from_f64`]
//! refuses them with a typed error rather than emitting `NaN` tokens.
//!
//! Hot emitters can skip the tree: [`write_str`] and [`write_f64`] append
//! a string literal or a number in exactly the bytes [`Value::to_json`]
//! would write (it uses them itself), and [`Value::write_to`] splices a
//! tree fragment into the same buffer.

use crate::AcsError;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Wrap a finite `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] for NaN or infinite input: JSON cannot
    /// represent them, and silently mangling a checkpoint is worse than
    /// failing the write.
    pub fn from_f64(v: f64) -> Result<Self, AcsError> {
        if v.is_finite() {
            Ok(Value::Number(v))
        } else {
            Err(non_finite(v))
        }
    }

    /// Object member lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric accessor.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned-integer accessor (rejects fractional and out-of-range).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which `u64` cannot
            // hold: the bound is exclusive.
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String accessor.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean accessor.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Required-member accessor with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] when `self` is not an object or lacks
    /// `key`.
    pub fn require(&self, key: &str) -> Result<&Value, AcsError> {
        self.get(key)
            .ok_or_else(|| AcsError::Json { reason: format!("missing object member {key:?}") })
    }

    /// Required finite-number member.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] when absent or not a number.
    pub fn require_f64(&self, key: &str) -> Result<f64, AcsError> {
        self.require(key)?
            .as_f64()
            .ok_or_else(|| AcsError::Json { reason: format!("member {key:?} is not a number") })
    }

    /// Required unsigned-integer member.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] when absent or not a non-negative
    /// integer.
    pub fn require_u64(&self, key: &str) -> Result<u64, AcsError> {
        self.require(key)?
            .as_u64()
            .ok_or_else(|| AcsError::Json { reason: format!("member {key:?} is not an integer") })
    }

    /// Required string member.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] when absent or not a string.
    pub fn require_str(&self, key: &str) -> Result<&str, AcsError> {
        self.require(key)?
            .as_str()
            .ok_or_else(|| AcsError::Json { reason: format!("member {key:?} is not a string") })
    }

    /// Required boolean member.
    ///
    /// # Errors
    ///
    /// Returns [`AcsError::Json`] when absent or not a boolean.
    pub fn require_bool(&self, key: &str) -> Result<bool, AcsError> {
        self.require(key)?
            .as_bool()
            .ok_or_else(|| AcsError::Json { reason: format!("member {key:?} is not a boolean") })
    }

    /// Serialise to compact JSON (no whitespace, keys in insertion
    /// order — byte-deterministic for identical values).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Append the compact JSON form to `out`: exactly the bytes
    /// [`Value::to_json`] returns, so a tree fragment can be spliced into
    /// a document written with [`write_str`] and [`write_f64`].
    pub fn write_to(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(out, *n),
            Value::String(s) => write_str(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

fn non_finite(v: f64) -> AcsError {
    AcsError::Json { reason: format!("cannot serialise non-finite number {v}") }
}

/// Append `s` as a JSON string literal: quoted, with `"`, `\` and the
/// control characters escaped, every other character copied as is.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of characters that need no escape in one go. Every
    // byte that does is ASCII, so each run ends on a character boundary.
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..at]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append a finite number in Rust's shortest round-trip form, the form
/// [`Value::to_json`] writes: integers print without a trailing `.0`.
///
/// # Errors
///
/// Returns the [`AcsError::Json`] that [`Value::from_f64`] returns for
/// NaN or infinite input, and appends nothing.
pub fn write_f64(out: &mut String, x: f64) -> Result<(), AcsError> {
    if !x.is_finite() {
        return Err(non_finite(x));
    }
    write_number(out, x);
    Ok(())
}

/// The one number routine. A `Value::Number` built directly with a
/// non-finite value, not through [`Value::from_f64`], prints as Rust
/// formats it, as it always has.
fn write_number(out: &mut String, x: f64) {
    let _ = write!(out, "{x}");
}

/// Build an object from key/value pairs (helper for emitters).
#[must_use]
pub fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Parse a JSON document.
///
/// # Errors
///
/// Returns [`AcsError::Json`] with a byte offset on malformed input or
/// trailing garbage.
pub fn parse(input: &str) -> Result<Value, AcsError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Maximum container nesting [`parse`] accepts. The parser recurses per
/// nesting level, so without a ceiling a tiny hostile input ( `"["`
/// repeated ~50k times) overflows the thread stack — an abort, not a
/// catchable panic. Every document this codebase emits is a handful of
/// levels deep; 128 is generous headroom, not a constraint.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> AcsError {
        AcsError::Json { reason: format!("{msg} at byte {}", self.pos) }
    }

    fn descend(&mut self) -> Result<(), AcsError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("containers nested deeper than 128 levels"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), AcsError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, AcsError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, AcsError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<Value, AcsError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Value::Number(n))
    }

    fn string(&mut self) -> Result<String, AcsError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not paired: this parser reads
                            // its own emitter's output, which never emits
                            // them. Reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of unescaped bytes up to the next quote
                    // or backslash in one go. Both are ASCII, so the run
                    // ends on a character boundary of the input `&str`.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let unescaped =
                        self.text.get(self.pos..run).ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(unescaped);
                    self.pos = run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, AcsError> {
        self.descend()?;
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
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
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, AcsError> {
        self.descend()?;
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Fuzzer-found: the recursive-descent parser had no depth limit,
        // so a kilobyte of '[' aborted the process. The limit must trip
        // as a typed error, and legitimate depth must still parse.
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        let hostile = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(parse(&hostile).is_err(), "201 levels exceeds the ceiling");
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&fine).is_ok(), "100 levels is within the ceiling");
        let mixed = format!("{}{}", "{\"k\":[".repeat(200), "x");
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1.5", "1e300", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_round_trip_preserves_order_and_bytes() {
        let v = object(vec![
            ("b", Value::Number(2.0)),
            ("a", Value::Number(1.5)),
            ("s", Value::String("x\n\"y\"".into())),
            ("arr", Value::Array(vec![Value::Null, Value::Bool(true)])),
        ]);
        let s = v.to_json();
        assert_eq!(s, "{\"b\":2,\"a\":1.5,\"s\":\"x\\n\\\"y\\\"\",\"arr\":[null,true]}");
        let back = parse(&s).unwrap();
        assert_eq!(back, v);
        // Emission is byte-deterministic.
        assert_eq!(back.to_json(), s);
    }

    #[test]
    fn f64_round_trips_exactly() {
        // Rust's float formatting is shortest-round-trip; checkpoints rely
        // on results surviving a write/read cycle bit-for-bit.
        for x in [0.1, 1.0 / 3.0, 2.039e3, f64::MIN_POSITIVE, 826.0, 6.043583, 1e-300] {
            let v = Value::from_f64(x).unwrap();
            let back = parse(&v.to_json()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn as_u64_refuses_two_to_the_64() {
        // `u64::MAX as f64` is 2^64; it must not saturate to u64::MAX.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Value::Number(2f64.powi(64)).as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    /// SplitMix64, local because this crate has no dependencies.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A finite number from the shapes the formatter treats differently.
    fn number(rng: &mut SplitMix64) -> f64 {
        let sign = if rng.next() & 1 == 1 { -1.0 } else { 1.0 };
        match rng.below(6) {
            0 => loop {
                let x = f64::from_bits(rng.next());
                if x.is_finite() {
                    break x;
                }
            },
            1 => sign * f64::from_bits(rng.below(1 << 52).max(1)),
            2 => [-0.0, 0.0, 1e21, 1e-7, 1e300, f64::MAX, f64::MIN_POSITIVE][rng.below(7) as usize],
            #[allow(clippy::cast_precision_loss)]
            3 => sign * rng.below((1 << 53) + 1) as f64,
            #[allow(clippy::cast_precision_loss)]
            4 => rng.below(1 << 32) as f64,
            #[allow(clippy::cast_precision_loss)]
            _ => sign * (rng.next() >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    /// A string with quotes, backslashes, control and non-ASCII text.
    fn text(rng: &mut SplitMix64) -> String {
        const PIECES: [&str; 12] =
            ["a", "dse-16x16", "\"", "\\", "\n", "\r\t", "\u{0}", "\u{1f}", "é", "✓", "😀", " "];
        (0..rng.below(8)).map(|_| PIECES[rng.below(PIECES.len() as u64) as usize]).collect()
    }

    /// The escape routine `write_str` replaced, one character at a time.
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from('"');
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

    /// Build a random document as a tree and, in the same walk, write it
    /// straight to `out` with the helpers, as a hot emitter does.
    fn document(rng: &mut SplitMix64, depth: u32, out: &mut String) -> Value {
        let string = |rng: &mut SplitMix64, out: &mut String| {
            let s = text(rng);
            let at = out.len();
            write_str(out, &s);
            assert_eq!(out[at..], escaped_per_char(&s), "{s:?}");
            s
        };
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => {
                out.push_str("null");
                Value::Null
            }
            1 => {
                let b = rng.next() & 1 == 1;
                out.push_str(if b { "true" } else { "false" });
                Value::Bool(b)
            }
            2 => {
                let x = number(rng);
                write_f64(out, x).unwrap();
                Value::Number(x)
            }
            3 => Value::String(string(rng, out)),
            4 => {
                out.push('[');
                let items = (0..rng.below(5))
                    .map(|i| {
                        if i > 0 {
                            out.push(',');
                        }
                        document(rng, depth - 1, out)
                    })
                    .collect();
                out.push(']');
                Value::Array(items)
            }
            _ => {
                out.push('{');
                let members = (0..rng.below(5))
                    .map(|i| {
                        if i > 0 {
                            out.push(',');
                        }
                        let key = string(rng, out);
                        out.push(':');
                        (key, document(rng, depth - 1, out))
                    })
                    .collect();
                out.push('}');
                Value::Object(members)
            }
        }
    }

    #[test]
    fn helpers_write_exactly_the_tree_encoding() {
        let mut rng = SplitMix64(0x5EED_0001);
        for _ in 0..2000 {
            let mut direct = String::new();
            let tree = document(&mut rng, 4, &mut direct);
            assert_eq!(direct, tree.to_json());
            let mut spliced = String::from("[");
            tree.write_to(&mut spliced);
            assert_eq!(spliced[1..], direct);
            assert_eq!(parse(&direct).unwrap().to_json(), direct);
        }
        for _ in 0..20_000 {
            let x = number(&mut rng);
            let mut direct = String::new();
            write_f64(&mut direct, x).unwrap();
            assert_eq!(direct, Value::from_f64(x).unwrap().to_json());
            assert_eq!(parse(&direct).unwrap().as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::from("[");
            assert_eq!(write_f64(&mut out, x).unwrap_err(), Value::from_f64(x).unwrap_err());
            assert_eq!(out, "[", "a refused number appends nothing");
        }
    }

    #[test]
    fn non_finite_numbers_are_refused() {
        assert!(Value::from_f64(f64::NAN).is_err());
        assert!(Value::from_f64(f64::INFINITY).is_err());
        assert!(parse("NaN").is_err());
        assert!(parse("1e999").is_err());
    }

    #[test]
    fn malformed_documents_error_with_position() {
        for bad in ["{", "[1,", "{\"a\"}", "\"unterminated", "tru", "1 2", "{'a':1}"] {
            let e = parse(bad).unwrap_err();
            assert!(matches!(e, AcsError::Json { .. }), "{bad}");
            assert!(e.to_string().contains("byte"), "{bad}: {e}");
        }
    }

    #[test]
    fn accessors_type_check() {
        let v = parse("{\"n\":3,\"s\":\"x\",\"b\":false,\"f\":1.5}").unwrap();
        assert_eq!(v.require_u64("n").unwrap(), 3);
        assert_eq!(v.require_str("s").unwrap(), "x");
        assert!(!v.require_bool("b").unwrap());
        assert_eq!(v.require_f64("f").unwrap(), 1.5);
        assert!(v.require_u64("f").is_err());
        assert!(v.require("missing").is_err());
        assert_eq!(v.get("missing"), None);
        assert!(Value::Null.get("x").is_none());
    }

    #[test]
    fn unicode_and_control_characters_survive() {
        let s = "héllo \u{1} – ✓";
        let v = Value::String(s.into());
        assert_eq!(parse(&v.to_json()).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn jsonl_lines_parse_independently() {
        let lines = "{\"i\":0}\n{\"i\":1}\n";
        let parsed: Vec<Value> = lines.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].require_u64("i").unwrap(), 1);
    }
}
