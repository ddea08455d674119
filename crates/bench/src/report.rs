//! Result reporting: every table this crate prints or writes is a list of
//! rows, and a row is its list of named, typed [`Cell`]s — the one place
//! a table's columns are defined. From that definition
//! [`markdown_table`] renders the console table and [`write_results`]
//! writes `results/<name>.{csv,json}`, so a column carries the same name
//! in all three.
//!
//! JSON handling is hand-rolled (no external serializer): [`Json`]
//! renders pretty-printed standards-compliant JSON (non-finite floats
//! become `null`), and [`Json::parse`] reads it back, so the bench
//! regression check can diff a fresh run against the committed
//! `BENCH_sssp.json`.

use std::path::Path;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point number (`null` if not finite).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&"  ".repeat(indent + 1));
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Render as pretty-printed JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Parse JSON text into a [`Json`] tree. Accepts everything
    /// [`Json::render`] emits (and standard JSON generally); numbers with
    /// a fraction or exponent become [`Json::Float`], negative integers
    /// [`Json::Int`], the rest [`Json::UInt`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Recursive-descent JSON reader over raw bytes (all structural
/// characters are ASCII; string payloads are re-validated as UTF-8).
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
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
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
                other => return Err(format!("expected ',' or ']' but found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
                other => return Err(format!("expected ',' or '}}' but found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our
                            // renderer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                None => return Err("unterminated string".to_string()),
                _ => unreachable!("loop stops only on quote or backslash"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if fractional {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number '{text}'"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number '{text}'"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number '{text}'"))
        }
    }
}


/// One typed value of a result row. A [`Value::Real`] carries the digits
/// it shows in the markdown table and the CSV; its JSON value is exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text: graph, family and implementation names.
    Text(String),
    /// A count or a size.
    Count(u64),
    /// A real number shown with `.1` digits after the point.
    Real(f64, usize),
}

impl Value {
    fn display(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Count(n) => n.to_string(),
            Value::Real(x, digits) => format!("{x:.digits$}"),
        }
    }

    fn json(&self) -> Json {
        match self {
            Value::Text(s) => Json::Str(s.clone()),
            Value::Count(n) => Json::UInt(*n),
            Value::Real(x, _) => Json::Float(*x),
        }
    }
}

/// One named column of a row.
pub type Cell = (String, Value);

/// A text column.
pub fn text(name: &str, value: impl Into<String>) -> Cell {
    (name.to_string(), Value::Text(value.into()))
}

/// A count column.
pub fn count(name: &str, value: u64) -> Cell {
    (name.to_string(), Value::Count(value))
}

/// A real column shown with `digits` after the point.
pub fn real(name: &str, value: f64, digits: usize) -> Cell {
    (name.to_string(), Value::Real(value, digits))
}

/// A row as a JSON object keyed by its column names, in column order.
pub fn json_object(row: &[Cell]) -> Json {
    Json::Obj(row.iter().map(|(name, value)| (name.clone(), value.json())).collect())
}

/// The column names every row shares. Panics when two rows disagree:
/// a table has one schema.
fn header(rows: &[Vec<Cell>]) -> Vec<&str> {
    fn names(row: &[Cell]) -> Vec<&str> {
        row.iter().map(|(name, _)| name.as_str()).collect()
    }
    let header = rows.first().map(|row| names(row)).unwrap_or_default();
    for row in rows {
        assert_eq!(names(row), header, "every row of a table has the same columns");
    }
    header
}

/// Render rows as a GitHub-flavoured markdown table (also readable on a
/// terminal), headed by their column names.
pub fn markdown_table(rows: &[Vec<Cell>]) -> String {
    let header: Vec<String> = header(rows).into_iter().map(String::from).collect();
    let cells: Vec<Vec<String>> =
        rows.iter().map(|row| row.iter().map(|(_, v)| v.display()).collect()).collect();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = line(&header) + &format!("|-{}-|\n", dashes.join("-|-"));
    for row in &cells {
        out.push_str(&line(row));
    }
    out
}

/// The one writer of result artifacts: `<dir>/<name>.csv` (header and
/// displayed values) and `<dir>/<name>.json` (an array of row objects)
/// from the rows' one column definition, creating `dir`. Returns the
/// same rows as a [`markdown_table`].
pub fn write_results(dir: &Path, name: &str, rows: &[Vec<Cell>]) -> std::io::Result<String> {
    let mut csv = header(rows).join(",") + "\n";
    for row in rows {
        let values: Vec<String> = row.iter().map(|(_, v)| v.display()).collect();
        csv.push_str(&(values.join(",") + "\n"));
    }
    let json = Json::Arr(rows.iter().map(|row| json_object(row)).collect());
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.csv")), csv)?;
    std::fs::write(dir.join(format!("{name}.json")), json.render() + "\n")?;
    Ok(markdown_table(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Cell>> {
        vec![
            vec![text("graph", "grid"), count("nv", 1024), real("ms", 0.5, 3)],
            vec![text("graph", "rmat-13"), count("nv", 8192), real("ms", 12.25, 3)],
        ]
    }

    #[test]
    fn table_alignment() {
        let t = markdown_table(&rows());
        assert!(t.starts_with("| graph   | nv   | ms     |\n"), "{t}");
        assert!(t.contains("| grid    | 1024 | 0.500  |"), "{t}");
        assert!(t.contains("| rmat-13 | 8192 | 12.250 |"), "{t}");
        assert!(t.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "same columns")]
    fn table_rejects_ragged_rows() {
        markdown_table(&[rows()[0].clone(), vec![text("graph", "only-one")]]);
    }

    #[test]
    fn csv_and_json_share_one_schema() {
        let dir = std::env::temp_dir().join(format!("ssspbench-{}", std::process::id()));
        let table = write_results(&dir, "t", &rows()).unwrap();
        assert_eq!(table, markdown_table(&rows()));
        let csv = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(csv, "graph,nv,ms\ngrid,1024,0.500\nrmat-13,8192,12.250\n");
        let json = Json::parse(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
        let first = &json.as_arr().unwrap()[0];
        assert_eq!(first, &json_object(&rows()[0]));
        assert_eq!(first.get("ms"), Some(&Json::Float(0.5)));
        assert_eq!(first.get("nv").and_then(Json::as_u64), Some(1024));
        let _ = std::fs::remove_dir_all(&dir);
    }


    #[test]
    fn json_rendering_escapes_and_structures() {
        let j = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\n".into())),
            ("n", Json::Float(1.5)),
            ("bad", Json::Float(f64::NAN)),
            ("v", Json::Arr(vec![Json::UInt(1), Json::Int(-2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = j.render();
        assert!(text.contains("\"a\\\"b\\\\c\\n\""));
        assert!(text.contains("\"bad\": null"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn parse_round_trips_render() {
        let j = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd\te".into())),
            ("f", Json::Float(1.5)),
            ("u", Json::UInt(42)),
            ("i", Json::Int(-7)),
            ("t", Json::Bool(true)),
            ("nil", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::UInt(1), Json::Obj(vec![("k".into(), Json::Float(0.25))])]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_numbers_and_accessors() {
        let j = Json::parse(r#"{"a": 1e3, "b": -2.5, "c": 10, "d": -3, "s": "hi"}"#).unwrap();
        assert_eq!(j.get("a"), Some(&Json::Float(1000.0)));
        assert_eq!(j.get("b"), Some(&Json::Float(-2.5)));
        assert_eq!(j.get("c"), Some(&Json::UInt(10)));
        assert_eq!(j.get("c").and_then(Json::as_u64), Some(10));
        assert_eq!(j.get("d"), Some(&Json::Int(-3)));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn parse_unicode_escapes() {
        let raw = Json::parse(r#""café""#).unwrap();
        assert_eq!(raw.as_str(), Some("café"));
        let escaped = Json::parse(r#""caf\u00e9""#).unwrap();
        assert_eq!(escaped.as_str(), Some("café"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"k\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
    }
}
