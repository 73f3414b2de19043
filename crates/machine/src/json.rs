//! The document layer every JSON file of the repository goes through: one
//! value type ([`Json`]), one parser ([`parse_json`]), one canonical writer
//! ([`write_json`]), and one atomic file write ([`write_atomic`]).
//!
//! A type with a JSON form implements [`Codec`]: `to_json` is its writer
//! and `from_json` its reader, and the reader *is* the validator — a value
//! is well-formed exactly when it reads back. Plain records get both halves
//! from one field list ([`json_record!`]), so a document's schema is stated
//! once. Each document kind (run artifact, inject spec, frontier, SLO
//! sweep, bench summary) carries a `schema` tag and accepts exactly one
//! `version` ([`check_header`]).
//!
//! The writer has a single fixed layout — top-level members one per line,
//! nested values compact, no spaces — so byte-determinism follows from the
//! tree alone. Unsigned integers are kept exact ([`Json::Int`]): a `u64`
//! such as an infinite checkpoint interval (`u64::MAX`) must not round
//! through an `f64`. Floats print in Rust's shortest round-trip form;
//! non-finite floats print as `0`.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use revive_sim::time::Ns;
use revive_sim::trace::escape_json;

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range (the parser
    /// produces it for every plain digit string that fits).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value of either number variant.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
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

    /// The member `key` (errors name the key).
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key '{key}'"))
    }

    /// Runs `read` on the member `key`, prefixing any error with the key so
    /// a reader's messages carry the path to the offending field.
    pub fn section<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.field(key)?).map_err(|e| format!("{key}: {e}"))
    }

    /// The typed getter: reads the member `key` as a `T`, naming the key in
    /// any error.
    pub fn read<T: Codec>(&self, key: &str) -> Result<T, String> {
        self.section(key, T::from_json)
    }

    /// Appends the compact rendering (no whitespace) of this value.
    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push('0'),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_seq(out, ["[", ",", "]"], items, Json::write_compact),
            Json::Obj(members) => write_seq(out, ["{", ",", "}"], members, write_member),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    [open, sep, close]: [&str; 3],
    items: &[T],
    f: fn(&T, &mut String),
) {
    out.push_str(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        f(item, out);
    }
    out.push_str(close);
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

fn write_member((key, v): &(String, Json), out: &mut String) {
    write_str(key, out);
    out.push(':');
    v.write_compact(out);
}

/// Renders a document in the canonical layout: a top-level object puts
/// each member on its own line, every nested value is compact, and the
/// text ends with a newline.
pub fn write_json(doc: &Json) -> String {
    let mut out = String::with_capacity(16 * 1024);
    match doc {
        Json::Obj(members) if !members.is_empty() => {
            write_seq(&mut out, ["{\n", ",\n", "\n}"], members, write_member)
        }
        v => v.write_compact(&mut out),
    }
    out.push('\n');
    out
}

/// A value with exactly one JSON form: [`Codec::from_json`] reads back
/// what [`Codec::to_json`] writes and rejects everything else.
pub trait Codec: Sized {
    /// The value's JSON form.
    fn to_json(&self) -> Json;

    /// Reads the value back.
    ///
    /// # Errors
    ///
    /// Describes why `v` is not this value's JSON form.
    fn from_json(v: &Json) -> Result<Self, String>;
}

impl Codec for u64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
    fn from_json(v: &Json) -> Result<u64, String> {
        match v {
            Json::Int(n) => Ok(*n),
            _ => Err("not an unsigned integer".into()),
        }
    }
}

impl Codec for usize {
    fn to_json(&self) -> Json {
        Json::Int(*self as u64)
    }
    fn from_json(v: &Json) -> Result<usize, String> {
        usize::try_from(u64::from_json(v)?).map_err(|e| e.to_string())
    }
}

impl Codec for u32 {
    fn to_json(&self) -> Json {
        Json::Int(u64::from(*self))
    }
    fn from_json(v: &Json) -> Result<u32, String> {
        u32::try_from(u64::from_json(v)?).map_err(|e| e.to_string())
    }
}

impl Codec for Ns {
    fn to_json(&self) -> Json {
        Json::Int(self.0)
    }
    fn from_json(v: &Json) -> Result<Ns, String> {
        u64::from_json(v).map(Ns)
    }
}

impl Codec for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Result<f64, String> {
        v.as_num().ok_or_else(|| "not a number".into())
    }
}

impl Codec for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err("not a boolean".into()),
        }
    }
}

impl Codec for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(v: &Json) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "not a string".into())
    }
}

/// Any value, read as is (for readers that inspect it further).
impl Codec for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
    fn from_json(v: &Json) -> Result<Json, String> {
        Ok(v.clone())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(v: &Json) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or("not an array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Result<[T; N], String> {
        Vec::from_json(v)?
            .try_into()
            .map_err(|v: Vec<T>| format!("{} entries, not {N}", v.len()))
    }
}

/// Implements [`Codec`] for a struct as a JSON object with one member per
/// listed field, in the listed order (`field: "key"` renames a member).
/// The list names every field, so it is the schema, stated once for the
/// writer and the reader. Given a whole struct definition instead of a
/// field list, the macro also emits the struct. A `document(SCHEMA,
/// VERSION)` prefix adds the `schema`/`version` header ([`check_header`]),
/// and a trailing `check(f)` runs `f(&value)` on every value read, for
/// invariants that span fields.
#[macro_export]
macro_rules! json_record {
    (document($schema:expr, $version:expr) $($rest:tt)*) => {
        $crate::json_record!(@def [$schema, $version] $($rest)*);
    };
    (@def $hdr:tt $(#[$m:meta])* $vis:vis struct $name:ident {
        $($(#[$fm:meta])* $fvis:vis $field:ident : $ty:ty),+ $(,)?
    } $($rest:tt)*) => {
        $(#[$m])* $vis struct $name { $($(#[$fm])* $fvis $field: $ty),+ }
        $crate::json_record!(@impl $hdr $name { $($field),+ } $($rest)*);
    };
    (@def $hdr:tt $($rest:tt)*) => { $crate::json_record!(@impl $hdr $($rest)*); };
    (@impl [$($schema:expr, $version:expr)?] $ty:ty {
        $($field:ident $(: $key:literal)?),+ $(,)?
    } $(,)? $(check($check:expr))? $(,)?) => {
        impl $crate::json::Codec for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $(
                        ("schema", $crate::json::Json::str($schema)),
                        ("version", $crate::json::Json::Int($version)),
                    )?
                    $(($crate::json_record!(@key $field $($key)?),
                       $crate::json::Codec::to_json(&self.$field)),)+
                ])
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                $($crate::json::check_header(v, $schema, $version)?;)?
                let value = Self {
                    $($field: v.read($crate::json_record!(@key $field $($key)?))?,)+
                };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@ $($rest:tt)*) => { compile_error!("json_record!: expected a struct or a field list"); };
    ($($rest:tt)*) => { $crate::json_record!(@def [] $($rest)*); };
}

/// Checks a document's `schema` tag and its `version`, which must equal
/// the one version this build reads.
///
/// # Errors
///
/// Names the mismatch.
pub fn check_header(doc: &Json, schema: &str, version: u64) -> Result<(), String> {
    let found: String = doc.read("schema")?;
    if found != schema {
        return Err(format!("schema is '{found}', not '{schema}'"));
    }
    let v: u64 = doc.read("version")?;
    if v != version {
        return Err(format!("{schema} version {v} (this build reads {version})"));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.seq(b'{', b'}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                Ok((key, p.value()?))
            })?)),
            Some(b'[') => Ok(Json::Arr(self.seq(b'[', b']', Parser::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A bracketed, comma-separated sequence of `item`s.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // Plain digit strings stay exact; everything else is a float.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
        text.parse()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("eof"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Reads the document at `path` as a `T`.
///
/// # Errors
///
/// Describes a failed read, malformed JSON, or a document `T` rejects.
pub fn read_document<T: Codec>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    T::from_json(&parse_json(&text)?)
}

/// Writes `text` to `path` atomically: the bytes land in a unique sibling
/// temp file (`<name>.tmp.<pid>.<seq>`) which is then renamed over the
/// target. Readers — and concurrent writers targeting the same path from
/// other threads or processes — observe either the old complete file or
/// the new complete file, never interleaved or truncated bytes.
///
/// # Errors
///
/// Propagates the underlying filesystem errors; on a rename failure the
/// temp file is removed (best effort).
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let _ = write!(name, ".tmp.{}.{seq}", std::process::id());
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basic_values() {
        let doc = parse_json(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e1}}"#).unwrap();
        assert_eq!(doc.get("a"), Some(&Json::Int(1)));
        let b = doc.field("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\n"));
        assert_eq!(doc.field("c").unwrap().read::<f64>("d"), Ok(-25.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("nulll").is_err());
    }

    #[test]
    fn integers_keep_their_exact_text() {
        let text = "{\n\"max\":18446744073709551615,\n\"f\":[0.25,1e-7,-3,0]\n}\n";
        let doc = parse_json(text).unwrap();
        assert_eq!(doc.read::<u64>("max"), Ok(u64::MAX));
        assert_eq!(write_json(&doc), text.replace("1e-7", "0.0000001"));
        // Non-finite floats have no JSON spelling.
        assert_eq!(write_json(&Json::Num(f64::NAN)), "0\n");
    }

    #[test]
    fn writer_uses_one_line_per_top_level_member() {
        let doc = Json::obj([
            ("a", Json::str("x\"y")),
            (
                "b",
                Json::obj([("c", vec![1u64, 2].to_json()), ("d", Json::Null)]),
            ),
        ]);
        assert_eq!(
            write_json(&doc),
            "{\n\"a\":\"x\\\"y\",\n\"b\":{\"c\":[1,2],\"d\":null}\n}\n"
        );
        assert_eq!(write_json(&Json::Obj(Vec::new())), "{}\n");
    }

    #[test]
    fn getters_name_the_key() {
        let doc = parse_json(r#"{"n":1.5,"s":"x","a":[1,2]}"#).unwrap();
        assert!(doc
            .read::<u64>("missing")
            .unwrap_err()
            .contains("'missing'"));
        assert!(doc.read::<u64>("n").unwrap_err().starts_with("n: "));
        assert!(doc.read::<String>("n").is_err());
        assert_eq!(doc.read::<[u64; 2]>("a"), Ok([1, 2]));
        assert!(doc.read::<[u64; 3]>("a").is_err());
        assert_eq!(
            doc.read::<Option<u64>>("n").unwrap_err(),
            "n: not an unsigned integer"
        );
        assert_eq!(doc.read::<f64>("n"), Ok(1.5));
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u64,
        label: String,
    }

    json_record!(document("point", 2) Point { x, label: "name" } check(|p: &Point| {
        if p.x > 9 {
            Err("x too large".to_string())
        } else {
            Ok(())
        }
    }));

    #[test]
    fn records_state_their_schema_once() {
        let p = Point {
            x: 3,
            label: "a".into(),
        };
        let text = write_json(&p.to_json());
        assert_eq!(
            text,
            "{\n\"schema\":\"point\",\n\"version\":2,\n\"x\":3,\n\"name\":\"a\"\n}\n"
        );
        assert_eq!(Point::from_json(&parse_json(&text).unwrap()), Ok(p));
        // Exactly one version is read, and the check runs on every read.
        let v3 = text.replace("\"version\":2", "\"version\":3");
        assert!(Point::from_json(&parse_json(&v3).unwrap()).is_err());
        let big = text.replace("\"x\":3", "\"x\":10");
        assert_eq!(
            Point::from_json(&parse_json(&big).unwrap()),
            Err("x too large".to_string())
        );
    }
}
