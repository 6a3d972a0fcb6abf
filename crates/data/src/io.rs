//! Plain-text persistence: one TSV file per relation.
//!
//! A database saves to a directory with `<relation>.tsv` files. The first
//! line is the header (attribute names); each following line is one tuple.
//! Values round-trip exactly: integers are written as `#<digits>` and text
//! escapes tab, newline, carriage return, backslash and a leading `#`.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

use crate::database::Database;
use crate::error::DataError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{TextInterner, Value};

/// Errors from loading/saving databases.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file's contents do not fit the schema.
    Format {
        /// The offending file.
        file: String,
        /// Line number (1-based).
        line: usize,
        /// Description.
        message: String,
    },
    /// Data-layer failure while rebuilding the database.
    Data(DataError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format {
                file,
                line,
                message,
            } => {
                write!(f, "{file}:{line}: {message}")
            }
            IoError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<DataError> for IoError {
    fn from(e: DataError) -> Self {
        IoError::Data(e)
    }
}

/// Append the TSV encoding of `v` to `out`.
fn encode_into(out: &mut String, v: &Value) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "#{i}");
        }
        // an empty cell in an arity-1 relation would read as an empty
        // (skipped) line; use an explicit marker
        Value::Text(s) if s.is_empty() => out.push_str("\\e"),
        Value::Text(s) => {
            if s.starts_with('#') {
                out.push('\\');
            }
            // copy the runs between escaped bytes whole; every escaped
            // byte is ASCII, so each run is a valid `str` slice
            let mut run = 0;
            for (i, b) in s.bytes().enumerate() {
                let escaped = match b {
                    b'\t' => "\\t",
                    b'\n' => "\\n",
                    b'\r' => "\\r",
                    b'\\' => "\\\\",
                    _ => continue,
                };
                out.push_str(&s[run..i]);
                out.push_str(escaped);
                run = i + 1;
            }
            out.push_str(&s[run..]);
        }
    }
}

fn decode(cell: &str, interner: &mut TextInterner) -> Result<Value, String> {
    if let Some(num) = cell.strip_prefix('#') {
        return num
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| format!("bad integer literal `{cell}`"));
    }
    if cell == "\\e" {
        return Ok(interner.text(""));
    }
    if !cell.contains('\\') {
        return Ok(interner.text(cell));
    }
    let mut out = String::with_capacity(cell.len());
    let mut chars = cell.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some('#') => out.push('#'),
                Some(other) => {
                    // a leading `\#` guard writes `\` + `#…`; other escapes
                    // are errors
                    if out.is_empty() && other == '#' {
                        out.push('#');
                    } else {
                        return Err(format!("bad escape `\\{other}`"));
                    }
                }
                None => return Err("dangling backslash".to_string()),
            }
        } else {
            out.push(ch);
        }
    }
    Ok(interner.text(&out))
}

/// Save `db` into `dir` (created if absent), one `<relation>.tsv` each.
pub fn save_dir(db: &Database, dir: &Path) -> Result<(), IoError> {
    fs::create_dir_all(dir)?;
    let mut line = String::new();
    for (rel, decl) in db.schema().iter() {
        let path = dir.join(format!("{}.tsv", decl.name()));
        let mut file = BufWriter::new(fs::File::create(&path)?);
        writeln!(file, "{}", decl.attrs().join("\t"))?;
        let relation = db.relation(rel);
        for &id in relation.sorted_ids() {
            line.clear();
            for (i, v) in relation.tuple(id).values().iter().enumerate() {
                if i > 0 {
                    line.push('\t');
                }
                encode_into(&mut line, v);
            }
            line.push('\n');
            file.write_all(line.as_bytes())?;
        }
        // dropping a BufWriter would swallow a failed final write
        file.flush()?;
    }
    Ok(())
}

/// Load a database over `schema` from a directory written by [`save_dir`].
/// Missing relation files load as empty relations.
pub fn load_dir(schema: std::sync::Arc<Schema>, dir: &Path) -> Result<Database, IoError> {
    let mut db = Database::empty(schema.clone());
    let mut interner = TextInterner::new();
    for (rel, decl) in schema.iter() {
        let path = dir.join(format!("{}.tsv", decl.name()));
        if !path.exists() {
            continue;
        }
        let file_label = path.display().to_string();
        let content = fs::read_to_string(&path)?;
        let mut lines = content.lines().enumerate();
        // header (validated loosely: column count must match)
        if let Some((_, header)) = lines.next() {
            let cols = header.split('\t').count();
            if cols != decl.arity() {
                return Err(IoError::Format {
                    file: file_label,
                    line: 1,
                    message: format!(
                        "header has {cols} columns, schema arity is {}",
                        decl.arity()
                    ),
                });
            }
        }
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split('\t').collect();
            if cells.len() != decl.arity() {
                return Err(IoError::Format {
                    file: file_label,
                    line: idx + 1,
                    message: format!(
                        "row has {} cells, schema arity is {}",
                        cells.len(),
                        decl.arity()
                    ),
                });
            }
            let mut values = Vec::with_capacity(cells.len());
            for cell in cells {
                values.push(
                    decode(cell, &mut interner).map_err(|message| IoError::Format {
                        file: file_label.clone(),
                        line: idx + 1,
                        message,
                    })?,
                );
            }
            db.insert(crate::tuple::Fact::new(rel, Tuple::new(values)))?;
        }
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .build()
            .unwrap()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qoco-io-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_facts() {
        let s = schema();
        let mut db = Database::empty(s.clone());
        db.insert_named("Teams", tup!["GER", "EU"]).unwrap();
        db.insert_named("Teams", tup!["BRA", "SA"]).unwrap();
        db.insert_named("Players", tup!["Mario Götze", "GER", 1992, "GER"])
            .unwrap();
        let dir = tmpdir("roundtrip");
        save_dir(&db, &dir).unwrap();
        let loaded = load_dir(s, &dir).unwrap();
        assert_eq!(db.sorted_facts(), loaded.sorted_facts());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tricky_values_round_trip() {
        let s = Schema::builder().relation("T", &["v"]).build().unwrap();
        let mut db = Database::empty(s.clone());
        for v in [
            Value::text("tab\there"),
            Value::text("new\nline"),
            Value::text("back\\slash"),
            Value::text("#leading-hash"),
            Value::text("carriage\rreturn"),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::text(""),
        ] {
            db.insert(crate::tuple::Fact::new(
                s.rel_id("T").unwrap(),
                Tuple::new(vec![v]),
            ))
            .unwrap();
        }
        let dir = tmpdir("tricky");
        save_dir(&db, &dir).unwrap();
        let loaded = load_dir(s, &dir).unwrap();
        assert_eq!(db.sorted_facts(), loaded.sorted_facts());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_load_empty() {
        let s = schema();
        let dir = tmpdir("missing");
        fs::create_dir_all(&dir).unwrap();
        let loaded = load_dir(s, &dir).unwrap();
        assert!(loaded.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arity_mismatch_is_reported_with_position() {
        let s = schema();
        let dir = tmpdir("badrow");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("Teams.tsv"), "country\tcontinent\nGER\n").unwrap();
        let err = load_dir(s, &dir).unwrap_err();
        match err {
            IoError::Format { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_is_reported() {
        let s = schema();
        let dir = tmpdir("badheader");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("Teams.tsv"), "only-one-column\n").unwrap();
        assert!(matches!(
            load_dir(s, &dir),
            Err(IoError::Format { line: 1, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_integer_is_reported() {
        let s = Schema::builder().relation("T", &["v"]).build().unwrap();
        let dir = tmpdir("badint");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("T.tsv"), "v\n#not-a-number\n").unwrap();
        assert!(matches!(
            load_dir(s, &dir),
            Err(IoError::Format { line: 2, .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The exact bytes on disk: existing session stores and qoco-cli output
    /// directories must stay readable, so the encoding is pinned here.
    #[test]
    fn save_dir_writes_the_pinned_tsv_bytes() {
        let s = Schema::builder()
            .relation("T", &["k", "v"])
            .relation("E", &["only"])
            .relation("Empty", &["a", "b"])
            .build()
            .unwrap();
        let mut db = Database::empty(s.clone());
        for (k, v) in [
            (Value::Int(-7), Value::Int(0)),
            (Value::Int(i64::MAX), Value::text("")),
            (Value::text("#hash"), Value::text("a#b")),
            (Value::text("tab\there"), Value::text("nl\ncr\r")),
            (Value::text("back\\slash"), Value::text("\\")),
            (Value::text("Götze"), Value::text("雪🦀")),
        ] {
            db.insert_named("T", Tuple::new(vec![k, v])).unwrap();
        }
        db.insert_named("E", Tuple::new(vec![Value::text("")]))
            .unwrap();
        db.insert_named("E", Tuple::new(vec![Value::text("#")]))
            .unwrap();
        let dir = tmpdir("golden");
        save_dir(&db, &dir).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join("T.tsv")).unwrap(),
            "k\tv\n\
             #-7\t#0\n\
             #9223372036854775807\t\\e\n\
             \\#hash\ta#b\n\
             Götze\t雪🦀\n\
             back\\\\slash\t\\\\\n\
             tab\\there\tnl\\ncr\\r\n"
        );
        assert_eq!(
            fs::read_to_string(dir.join("E.tsv")).unwrap(),
            "only\n\\e\n\\#\n"
        );
        assert_eq!(fs::read_to_string(dir.join("Empty.tsv")).unwrap(), "a\tb\n");
        assert_eq!(load_dir(s, &dir).unwrap().sorted_facts(), db.sorted_facts());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_decode_unit() {
        let encode = |v: &Value| {
            let mut out = String::new();
            encode_into(&mut out, v);
            out
        };
        let decode = |cell: &str| decode(cell, &mut TextInterner::new());
        assert_eq!(encode(&Value::Int(5)), "#5");
        assert_eq!(decode("#5").unwrap(), Value::Int(5));
        assert_eq!(
            decode(&encode(&Value::text("#x"))).unwrap(),
            Value::text("#x")
        );
        assert!(decode("\\q").is_err());
        assert!(decode("x\\").is_err());
    }
}
