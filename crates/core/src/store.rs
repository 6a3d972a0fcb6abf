//! Durable backing for parked sessions, and the session-spec JSON format
//! that both the `POST /sessions` API and the store speak.
//!
//! A [`SessionStore`] keeps one directory per session under its root:
//!
//! ```text
//! <root>/<id>/spec.json         the spec as a `POST /sessions` body (spec_json)
//! <root>/<id>/session.journal   consumed-answer log (PR 4 wire format)
//! <root>/<id>/epoch             rehydration counter, from the first restart on
//! <root>/.<id>.staging/         the same files while a create is writing them
//! ```
//!
//! One format serves the wire and the disk: [`decode_spec`] reads an API
//! body and a stored `spec.json` alike, and [`spec_json`] is its inverse.
//! The decoder streams the body through the telemetry crate's JSON
//! [`Reader`]: the small members (schema, query, strategies) become JSON
//! trees, while `rows` is read cell by cell straight into the database, with
//! no tree and no `String` for an escape-free text cell. A spec the API
//! cannot express (an integer cell outside ±9e15, a non-default insertion
//! or iteration budget, a deadline that is not a positive integer `f64`
//! holds exactly) is refused by [`SessionStore::create`] with
//! `InvalidInput`, so a stored session always loads back to the spec it
//! was created from.
//!
//! [`SessionStore::create`] is atomic with respect to a crash of this
//! process: it writes `spec.json` and the empty journal under a staging
//! name, `<root>/.<id>.staging`, and renames the directory to `<root>/<id>`
//! only once both are in place. [`SessionStore::valid_id`] rejects the
//! staging name, so [`SessionStore::list`] never sees a half-created
//! session, and [`SessionStore::open`] deletes any staging directory a
//! crash left behind. Durability across power loss is out of scope: the
//! created files and the root directory are not fsynced, so the OS may
//! still lose a fresh session that the serve API acknowledged. A session
//! directory in the retired `spec.txt` + `db/` layout makes `open` and
//! `list` fail with an error naming it; no reader for that layout remains.
//!
//! The write discipline is write-ahead: [`SessionStore::append_answer`]
//! persists (append + flush + fsync) the answer record *before* the
//! in-memory machine applies it. A crash therefore loses at most answers
//! the submitter was never acknowledged for, and
//! [`SessionStore::load`] + `SessionMachine::rehydrate` reconstruct every
//! in-flight session bit-identically — including a torn final journal
//! line, which `Journal::parse` drops.
//!
//! The epoch counts rehydrations. Every restart bumps it, and the serve API
//! echoes the current epoch in every response: an answer submitted under
//! an older epoch is *stale* — it raced a crash, and its question may have
//! been re-issued — so it is acknowledged without being applied (the
//! journal already holds whatever the dead process accepted). A session
//! that was never rehydrated has no epoch file and is at epoch 1.
//!
//! For fault-injection tests, [`SessionStore::fail_appends`] makes every
//! subsequent journal append fail like a full disk, letting callers assert
//! the degrade path (count `journal.write_errors`, expire to a PARTIAL
//! REPORT) without a real ENOSPC.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qoco_crowd::JournalRecord;
use qoco_data::{Database, Fact, Schema, TextInterner, Tuple, Value};
use qoco_query::parse_query;
use qoco_telemetry::json::{push_json_str, Json, ParseError, Reader};

use crate::cleaner::CleaningConfig;
use crate::deletion::DeletionStrategy;
use crate::figure1::figure1_spec;
use crate::machine::SessionSpec;
use crate::split::SplitStrategyKind;

/// Render a [`DeletionStrategy`] in the CLI's flag format.
pub fn deletion_to_str(d: DeletionStrategy) -> String {
    match d {
        DeletionStrategy::Qoco => "qoco".to_string(),
        DeletionStrategy::QocoMinus => "qoco-".to_string(),
        DeletionStrategy::Random(seed) => format!("random:{seed}"),
    }
}

/// Parse the CLI's deletion-strategy format (`qoco`, `qoco-`,
/// `random[:seed]`).
pub fn deletion_from_str(s: &str) -> Result<DeletionStrategy, String> {
    match s {
        "qoco" => Ok(DeletionStrategy::Qoco),
        "qoco-" => Ok(DeletionStrategy::QocoMinus),
        "random" => Ok(DeletionStrategy::Random(1)),
        other => match other.strip_prefix("random:") {
            Some(seed) => seed
                .parse()
                .map(DeletionStrategy::Random)
                .map_err(|_| format!("bad deletion seed in {s:?}")),
            None => Err(format!("unknown deletion strategy {s:?}")),
        },
    }
}

/// Render a [`SplitStrategyKind`] in the CLI's flag format.
pub fn split_to_str(s: SplitStrategyKind) -> String {
    match s {
        SplitStrategyKind::Naive => "naive".to_string(),
        SplitStrategyKind::MinCut => "mincut".to_string(),
        SplitStrategyKind::Provenance => "provenance".to_string(),
        SplitStrategyKind::Random(seed) => format!("random:{seed}"),
    }
}

/// Parse the CLI's split-strategy format (`naive`, `mincut`,
/// `provenance`, `random[:seed]`).
pub fn split_from_str(s: &str) -> Result<SplitStrategyKind, String> {
    match s {
        "naive" => Ok(SplitStrategyKind::Naive),
        "mincut" => Ok(SplitStrategyKind::MinCut),
        "provenance" => Ok(SplitStrategyKind::Provenance),
        "random" => Ok(SplitStrategyKind::Random(1)),
        other => match other.strip_prefix("random:") {
            Some(seed) => seed
                .parse()
                .map(SplitStrategyKind::Random)
                .map_err(|_| format!("bad split seed in {s:?}")),
            None => Err(format!("unknown split strategy {s:?}")),
        },
    }
}

/// Integer cells must stay below this magnitude: every such integer
/// survives the `f64` that JSON numbers decode through.
const MAX_INT_CELL: u64 = 9_000_000_000_000_000;

/// Why a body is not a spec: its JSON is malformed, or it is JSON that
/// does not describe a spec.
enum SpecError {
    Json(ParseError),
    Spec(String),
}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Json(e)
    }
}

impl From<String> for SpecError {
    fn from(message: String) -> Self {
        SpecError::Spec(message)
    }
}

impl From<&str> for SpecError {
    fn from(message: &str) -> Self {
        SpecError::Spec(message.to_string())
    }
}

/// Decode a session spec: a `POST /sessions` body or a stored `spec.json`.
/// It is either a named example, `{"example":"figure1"}`, or an inline
/// `schema` + `rows` + `query`; both may set `deletion`, `split` and
/// `deadline_ms`. Members may come in any order, and a member may appear
/// only once.
pub fn decode_spec(body: &str) -> Result<SessionSpec, String> {
    decode(body).map_err(|e| match e {
        SpecError::Json(e) => format!("bad JSON: {e}"),
        SpecError::Spec(message) => message,
    })
}

fn decode(body: &str) -> Result<SessionSpec, SpecError> {
    let mut r = Reader::new(body);
    if r.peek() != Some(b'{') {
        // not an object: still report malformed JSON as such
        r.skip()?;
        r.finish()?;
        return Err("a session spec must be a JSON object".into());
    }
    r.begin_object()?;
    // Every member but `rows` is small and kept as a tree. `rows` streams
    // into `dirty` once the schema is known; rows sent before the schema
    // are validated, kept as a span, and decoded at the end. A content
    // error in streamed rows is held in `dirty`, as a bad schema is, and
    // surfaces only if no `example` makes the rows moot: the answer does
    // not depend on member order.
    let mut members = BTreeMap::new();
    let mut seen: BTreeSet<Cow<str>> = BTreeSet::new();
    let mut dirty: Option<Result<Database, String>> = None;
    let mut rows_span = None;
    let mut interner = TextInterner::new();
    while let Some(key) = r.next_key()? {
        if seen.contains(&key) {
            return Err(format!("member `{key}` appears twice").into());
        }
        match &*key {
            "rows" => match dirty.as_mut() {
                Some(Ok(db)) => {
                    let start = r.clone();
                    if let Err(e) = decode_rows(&mut r, db, &mut interner) {
                        let SpecError::Spec(message) = e else {
                            return Err(e);
                        };
                        r = start;
                        r.skip()?;
                        dirty = Some(Err(message));
                    }
                }
                _ => rows_span = Some(r.skip()?),
            },
            "schema" => dirty = Some(decode_schema(&r.value()?).map(Database::empty)),
            _ => {
                members.insert(key.to_string(), r.value()?);
            }
        }
        seen.insert(key);
    }
    r.finish()?;
    let body = Json::Object(members);
    let mut spec = if let Some(example) = body.get("example") {
        match example.as_str() {
            Some("figure1") => figure1_spec(),
            Some(other) => {
                return Err(format!("unknown example {other:?} (try \"figure1\")").into())
            }
            None => return Err("`example` must be a string".into()),
        }
    } else {
        let mut dirty = dirty.unwrap_or_else(|| {
            Err("`schema` must be an array of {name, attrs} relations".into())
        })?;
        if let Some(rows) = rows_span {
            decode_rows(&mut Reader::new(rows), &mut dirty, &mut interner)?;
        }
        let query_text = body
            .get("query")
            .and_then(Json::as_str)
            .ok_or("`query` must be a datalog string")?;
        let query = parse_query(dirty.schema(), query_text).map_err(|e| e.to_string())?;
        SessionSpec {
            query,
            dirty,
            config: CleaningConfig::default(),
            deadline_ms: None,
        }
    };
    if let Some(d) = body.get("deletion") {
        let tag = d.as_str().ok_or("`deletion` must be a string")?;
        spec.config.deletion = deletion_from_str(tag)?;
    }
    if let Some(s) = body.get("split") {
        let tag = s.as_str().ok_or("`split` must be a string")?;
        spec.config.split = split_from_str(tag)?;
    }
    if let Some(ms) = body.get("deadline_ms") {
        let ms = ms
            .as_f64()
            .filter(|v| v.fract() == 0.0 && *v > 0.0)
            .ok_or("`deadline_ms` must be a positive integer")?;
        spec.deadline_ms = Some(ms as u64);
    }
    Ok(spec)
}

fn decode_schema(json: &Json) -> Result<Arc<Schema>, String> {
    let rels = json
        .as_array()
        .ok_or("`schema` must be an array of {name, attrs} relations")?;
    let mut builder = Schema::builder();
    for rel in rels {
        let name = rel
            .get("name")
            .and_then(Json::as_str)
            .ok_or("each relation needs a string `name`")?;
        let attrs: Vec<&str> = rel
            .get("attrs")
            .and_then(Json::as_array)
            .ok_or("each relation needs an `attrs` array")?
            .iter()
            .map(|a| a.as_str().ok_or("attrs must be strings"))
            .collect::<Result<_, _>>()?;
        builder = builder.relation(name, &attrs);
    }
    builder.build().map_err(|e| e.to_string())
}

/// Read the `rows` object, `{"Rel":[[cell, …], …], …}`, into `dirty`
/// without building JSON values. A relation's rows are collected first so
/// that the relation can reserve room for all of them at once.
fn decode_rows(
    r: &mut Reader,
    dirty: &mut Database,
    interner: &mut TextInterner,
) -> Result<(), SpecError> {
    if r.peek() != Some(b'{') {
        return Err("`rows` must be an object of row arrays by relation name".into());
    }
    r.begin_object()?;
    let schema = dirty.schema().clone();
    let mut named: BTreeSet<Cow<str>> = BTreeSet::new();
    let mut tuples = Vec::new();
    while let Some(name) = r.next_key()? {
        if named.contains(&name) {
            return Err(format!("rows for {name} appear twice").into());
        }
        if r.peek() != Some(b'[') {
            return Err(format!("rows for {name} must be an array").into());
        }
        r.begin_array()?;
        let mut rel = None;
        while r.next_item()? {
            let id = match rel {
                Some(id) => id,
                None => *rel.insert(schema.rel_id(&name).map_err(|e| e.to_string())?),
            };
            if r.peek() != Some(b'[') {
                return Err("each row must be an array of cells".into());
            }
            r.begin_array()?;
            let mut cells = Vec::with_capacity(schema.arity(id));
            while r.next_item()? {
                cells.push(decode_cell(r, interner)?);
            }
            tuples.push(Tuple::new(cells));
        }
        if let Some(rel) = rel {
            dirty.relation_mut(rel).reserve(tuples.len());
            for t in tuples.drain(..) {
                dirty.insert(Fact::new(rel, t)).map_err(|e| e.to_string())?;
            }
        }
        named.insert(name);
    }
    Ok(())
}

/// One cell: a string (interned; borrowed from the body when it has no
/// escapes) or an integer below ±9e15.
fn decode_cell(r: &mut Reader, interner: &mut TextInterner) -> Result<Value, SpecError> {
    let n = match r.peek() {
        Some(b'"') => return Ok(interner.text(&r.string()?)),
        Some(b'-' | b'0'..=b'9') => r.number()?,
        _ => {
            let other = r.value()?;
            return Err(format!("expected a string or integer cell, got {other:?}").into());
        }
    };
    if n.fract() == 0.0 && n.abs() < MAX_INT_CELL as f64 {
        Ok(Value::int(n as i64))
    } else {
        Err(format!(
            "expected a string or integer cell, got {:?}",
            Json::Number(n)
        )
        .into())
    }
}

/// Render `spec` as an inline `POST /sessions` body, rows in arena order:
/// [`decode_spec`] reads it back to the same spec. Fails, naming the
/// value, for a spec the API cannot express.
pub fn spec_json(spec: &SessionSpec) -> Result<String, String> {
    let defaults = CleaningConfig::default();
    let max_assignments = spec.config.insertion.max_assignments_per_subquery;
    if max_assignments != defaults.insertion.max_assignments_per_subquery {
        return Err(format!(
            "max_assignments {max_assignments} is not the default {}; a session spec \
             cannot carry it",
            defaults.insertion.max_assignments_per_subquery
        ));
    }
    if spec.config.max_iterations != defaults.max_iterations {
        return Err(format!(
            "max_iterations {} is not the default {}; a session spec cannot carry it",
            spec.config.max_iterations, defaults.max_iterations
        ));
    }
    if let Some(ms) = spec.deadline_ms {
        if ms == 0 || ms as f64 as u64 != ms {
            return Err(format!(
                "deadline_ms {ms} is not a positive integer a JSON number holds exactly"
            ));
        }
    }
    let schema = spec.dirty.schema();
    let mut out = String::from("{\"schema\":[");
    for (i, (_, rel)) in schema.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, rel.name());
        out.push_str(",\"attrs\":[");
        for (j, attr) in rel.attrs().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_str(&mut out, attr);
        }
        out.push_str("]}");
    }
    out.push_str("],\"rows\":{");
    for (i, (id, rel)) in schema.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, rel.name());
        out.push_str(":[");
        for (j, t) in spec.dirty.relation(id).iter().enumerate() {
            out.push_str(if j > 0 { ",[" } else { "[" });
            for (k, v) in t.values().iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match v {
                    Value::Int(n) if n.unsigned_abs() < MAX_INT_CELL => {
                        let _ = write!(out, "{n}");
                    }
                    Value::Int(n) => {
                        return Err(format!(
                            "integer cell {n} in {} is outside ±9e15; a session spec \
                             cannot carry it",
                            rel.name()
                        ))
                    }
                    Value::Text(s) => push_json_str(&mut out, s),
                }
            }
            out.push(']');
        }
        out.push(']');
    }
    out.push_str("},\"query\":");
    push_json_str(&mut out, &spec.query.display());
    out.push_str(",\"deletion\":");
    push_json_str(&mut out, &deletion_to_str(spec.config.deletion));
    out.push_str(",\"split\":");
    push_json_str(&mut out, &split_to_str(spec.config.split));
    if let Some(ms) = spec.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    out.push('}');
    Ok(out)
}

fn bad_data(e: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.into())
}

/// A session directory in the retired `spec.txt` + `db/` layout is an
/// error, never skipped: its session would vanish silently.
fn refuse_retired_layout(dir: &Path) -> io::Result<()> {
    if dir.join("spec.txt").exists() && !dir.join("spec.json").exists() {
        return Err(bad_data(format!(
            "{}: session stored in the retired spec.txt layout, which this version \
             cannot read",
            dir.display()
        )));
    }
    Ok(())
}

/// The on-disk session store; see the module docs.
pub struct SessionStore {
    root: PathBuf,
    fail_appends: AtomicBool,
}

impl SessionStore {
    /// Open (creating if needed) a store rooted at `root`, deleting the
    /// staging directories of creates that a crash interrupted.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<SessionStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        for entry in fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name();
            let stale = name
                .to_str()
                .is_some_and(|n| n.starts_with('.') && n.ends_with(".staging"));
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if stale {
                fs::remove_dir_all(entry.path())?;
            } else {
                refuse_retired_layout(&entry.path())?;
            }
        }
        Ok(SessionStore {
            root,
            fail_appends: AtomicBool::new(false),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Fault injection: when `true`, every subsequent
    /// [`SessionStore::append_answer`] fails like a full disk.
    pub fn fail_appends(&self, fail: bool) {
        self.fail_appends.store(fail, Ordering::SeqCst);
    }

    fn dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Is `id` safe as a directory name? (The serve layer generates ids,
    /// but the store revalidates: defense against path traversal if an id
    /// ever arrives from the network.)
    pub fn valid_id(id: &str) -> bool {
        !id.is_empty()
            && id.len() <= 64
            && id
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    }

    /// Persist a fresh session: `spec.json` + empty journal, staged under
    /// `.<id>.staging` and renamed into place, so a crash leaves either the
    /// whole session or none of it. Fails if the id already exists, and
    /// with `InvalidInput` if `spec_json` cannot express the spec.
    pub fn create(&self, id: &str, spec: &SessionSpec) -> io::Result<()> {
        let _span = qoco_telemetry::span("store.create");
        if !SessionStore::valid_id(id) {
            return Err(bad_data(format!("invalid session id {id:?}")));
        }
        let body = spec_json(spec).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot store session {id}: {e}"),
            )
        })?;
        let dir = self.dir(id);
        if dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("session {id} already exists"),
            ));
        }
        let staging = self.root.join(format!(".{id}.staging"));
        fs::create_dir(&staging)?;
        let staged = fs::write(staging.join("spec.json"), body)
            .and_then(|()| fs::write(staging.join("session.journal"), ""))
            .and_then(|()| fs::rename(&staging, &dir));
        if staged.is_err() {
            // best-effort: leave no half-written stage behind
            let _ = fs::remove_dir_all(&staging);
        }
        staged
    }

    /// Load a session's spec and consumed-answer log. A torn final journal
    /// line (crash mid-append) is dropped, exactly as `--resume` does.
    pub fn load(&self, id: &str) -> io::Result<(SessionSpec, Vec<JournalRecord>)> {
        let path = self.dir(id).join("spec.json");
        let spec = decode_spec(&fs::read_to_string(&path)?)
            .map_err(|e| bad_data(format!("{}: {e}", path.display())))?;
        let journal_text = fs::read_to_string(self.dir(id).join("session.journal"))?;
        let log = qoco_crowd::Journal::parse(&journal_text).map_err(bad_data)?;
        Ok((spec, log))
    }

    /// Write-ahead append of one answer record: append + flush + fsync
    /// *before* the caller applies the record to the in-memory machine.
    pub fn append_answer(&self, id: &str, record: &JournalRecord) -> io::Result<()> {
        if self.fail_appends.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "no space left on device (injected)",
            ));
        }
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(self.dir(id).join("session.journal"))?;
        file.write_all(record.to_line().as_bytes())?;
        file.flush()?;
        file.sync_data()
    }

    /// All session ids present in the store, sorted.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if !SessionStore::valid_id(name) {
                    continue;
                }
                let dir = entry.path();
                refuse_retired_layout(&dir)?;
                if dir.join("spec.json").exists() {
                    out.push(name.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The session's current epoch (1 = never rehydrated, so no epoch
    /// file yet).
    pub fn epoch(&self, id: &str) -> io::Result<u64> {
        let dir = self.dir(id);
        match fs::read_to_string(dir.join("epoch")) {
            Ok(text) => text
                .trim()
                .parse()
                .map_err(|_| bad_data(format!("bad epoch file for session {id}"))),
            Err(e) if e.kind() == io::ErrorKind::NotFound && dir.is_dir() => Ok(1),
            Err(e) => Err(e),
        }
    }

    /// Bump and return the session's epoch — called once per rehydration,
    /// so answers addressed to the pre-crash incarnation are detectably
    /// stale.
    pub fn bump_epoch(&self, id: &str) -> io::Result<u64> {
        let next = self.epoch(id)? + 1;
        fs::write(self.dir(id).join("epoch"), format!("{next}\n"))?;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::InsertionOptions;
    use crate::machine::{SessionMachine, SubmitOutcome};
    use qoco_crowd::{Answer, Oracle, OracleError, PerfectOracle};
    use qoco_data::{tup, Fact};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qoco-store-{tag}-{}-{}",
            std::process::id(),
            qoco_telemetry::now_ns()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fig1_spec() -> SessionSpec {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap();
        let mut dirty = Database::empty(schema.clone());
        for row in [
            tup!["13.07.14", "GER", "ARG", "Final", "1:0"],
            tup!["11.07.10", "ESP", "NED", "Final", "1:0"],
            tup!["12.07.98", "ESP", "NED", "Final", "4:2"],
            tup!["12.07.98", "FRA", "BRA", "Final", "3:0"],
        ] {
            dirty.insert_named("Games", row).unwrap();
        }
        for row in [tup!["GER", "EU"], tup!["ESP", "EU"]] {
            dirty.insert_named("Teams", row).unwrap();
        }
        let query = parse_query(
            &schema,
            "Q1(x) :- Games(d1, x, y, \"Final\", u1), Games(d2, x, z, \"Final\", u2), \
             Teams(x, \"EU\"), d1 != d2",
        )
        .unwrap();
        SessionSpec {
            query,
            dirty,
            config: CleaningConfig::default(),
            deadline_ms: Some(120_000),
        }
    }

    fn fig1_ground() -> Database {
        let spec = fig1_spec();
        let mut g = spec.dirty.clone();
        let games = g.schema().rel_id("Games").unwrap();
        g.remove(&Fact::new(
            games,
            tup!["12.07.98", "ESP", "NED", "Final", "4:2"],
        ))
        .unwrap();
        g
    }

    #[test]
    fn strategy_strings_round_trip() {
        for d in [
            DeletionStrategy::Qoco,
            DeletionStrategy::QocoMinus,
            DeletionStrategy::Random(7),
        ] {
            assert_eq!(deletion_from_str(&deletion_to_str(d)).unwrap(), d);
        }
        for s in [
            SplitStrategyKind::Naive,
            SplitStrategyKind::MinCut,
            SplitStrategyKind::Provenance,
            SplitStrategyKind::Random(9),
        ] {
            assert_eq!(split_from_str(&split_to_str(s)).unwrap(), s);
        }
        assert!(deletion_from_str("frobnicate").is_err());
        assert!(split_from_str("random:x").is_err());
    }

    #[test]
    fn spec_round_trips_through_disk() {
        let dir = tmpdir("spec");
        let store = SessionStore::open(&dir).unwrap();
        let spec = fig1_spec();
        store.create("s1", &spec).unwrap();
        let (loaded, log) = store.load("s1").unwrap();
        assert!(log.is_empty());
        assert_eq!(loaded.query.display(), spec.query.display());
        assert_eq!(loaded.config.deletion, spec.config.deletion);
        assert_eq!(loaded.config.split, spec.config.split);
        assert_eq!(loaded.config.max_iterations, spec.config.max_iterations);
        assert_eq!(loaded.deadline_ms, spec.deadline_ms);
        assert_eq!(loaded.dirty.schema().len(), 2);
        assert_eq!(store.epoch("s1").unwrap(), 1);
        assert_eq!(store.list().unwrap(), vec!["s1".to_string()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn constants_needing_escapes_survive_create_and_load() {
        use qoco_query::{Atom, ConjunctiveQuery, Inequality, Term, Var};
        let dir = tmpdir("escapes");
        let store = SessionStore::open(&dir).unwrap();
        let mut spec = fig1_spec();
        let schema = spec.dirty.schema().clone();
        let games = schema.rel_id("Games").unwrap();
        let teams = schema.rel_id("Teams").unwrap();
        spec.query = ConjunctiveQuery::new(
            schema,
            "Q",
            vec![Term::var("x")],
            vec![
                Atom::new(teams, vec![Term::var("x"), Term::cons("C:\\eu")]),
                Atom::new(
                    games,
                    vec![
                        Term::var("d"),
                        Term::var("x"),
                        Term::var("y"),
                        Term::cons("E\tU"),
                        Term::var("u"),
                    ],
                ),
            ],
            vec![
                Inequality::new(Var::new("y"), Term::cons("E\u{200b}U")),
                Inequality::new(Var::new("u"), Term::cons("say \"hi\"\n")),
            ],
        )
        .unwrap();
        store.create("s1", &spec).unwrap();
        let (loaded, _) = store.load("s1").unwrap();
        assert_eq!(loaded.query.head(), spec.query.head());
        assert_eq!(loaded.query.atoms(), spec.query.atoms());
        assert_eq!(loaded.query.inequalities(), spec.query.inequalities());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_crashed_create_leaves_only_a_staging_dir_that_open_removes() {
        let dir = tmpdir("staging");
        let store = SessionStore::open(&dir).unwrap();
        store.create("s1", &fig1_spec()).unwrap();
        assert!(
            !dir.join(".s1.staging").exists(),
            "create renames its stage away"
        );
        // a create that died after spec.json but before the journal
        let torn = dir.join(".s2.staging");
        fs::create_dir_all(&torn).unwrap();
        fs::write(torn.join("spec.json"), spec_json(&fig1_spec()).unwrap()).unwrap();
        assert!(!SessionStore::valid_id(".s2.staging"));
        assert_eq!(store.list().unwrap(), vec!["s1".to_string()]);
        drop(store);
        let store = SessionStore::open(&dir).unwrap();
        assert!(!torn.exists(), "open deletes stale staging dirs");
        assert_eq!(store.list().unwrap(), vec!["s1".to_string()]);
        store.load("s1").unwrap();
        // the interrupted id is free to be created again
        store.create("s2", &fig1_spec()).unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec!["s1".to_string(), "s2".to_string()]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_writes_one_spec_json_and_an_empty_journal() {
        let dir = tmpdir("layout");
        let store = SessionStore::open(&dir).unwrap();
        let spec = fig1_spec();
        store.create("s1", &spec).unwrap();
        let mut files: Vec<String> = fs::read_dir(dir.join("s1"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["session.journal", "spec.json"]);
        let body = fs::read_to_string(dir.join("s1").join("spec.json")).unwrap();
        assert_eq!(body, spec_json(&spec).unwrap(), "a POST /sessions body");
        // no epoch file until the first restart
        assert_eq!(store.epoch("s1").unwrap(), 1);
        assert_eq!(store.bump_epoch("s1").unwrap(), 2);
        assert_eq!(store.epoch("s1").unwrap(), 2);
        assert!(
            store.epoch("s9").is_err(),
            "an unknown session has no epoch"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_specs_the_api_cannot_express() {
        let dir = tmpdir("inexpressible");
        let store = SessionStore::open(&dir).unwrap();
        let teams = fig1_spec().dirty.schema().rel_id("Teams").unwrap();
        let mut big_int = fig1_spec();
        big_int
            .dirty
            .insert(Fact::new(teams, tup![9_000_000_000_000_000i64, "EU"]))
            .unwrap();
        let mut assignments = fig1_spec();
        assignments.config.insertion = InsertionOptions {
            max_assignments_per_subquery: 10,
        };
        let mut iterations = fig1_spec();
        iterations.config.max_iterations = 100;
        for (spec, names) in [
            (big_int, "9000000000000000"),
            (assignments, "max_assignments"),
            (iterations, "max_iterations"),
        ] {
            let err = store.create("s1", &spec).expect_err("inexpressible");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(names), "{err}");
        }
        assert!(
            fs::read_dir(&dir).unwrap().next().is_none(),
            "nothing written"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_spec_txt_session_dir_fails_open_and_list_by_name() {
        let dir = tmpdir("retired");
        let store = SessionStore::open(&dir).unwrap();
        store.create("s1", &fig1_spec()).unwrap();
        let old = dir.join("s2");
        fs::create_dir_all(old.join("db")).unwrap();
        fs::write(old.join("spec.txt"), "qoco-session-spec\tv1\n").unwrap();
        fs::write(old.join("session.journal"), "").unwrap();
        for err in [
            store.list().expect_err("list refuses"),
            SessionStore::open(&dir).err().expect("open refuses"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains(&old.display().to_string()),
                "{err}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_ids_are_rejected() {
        let dir = tmpdir("ids");
        let store = SessionStore::open(&dir).unwrap();
        for id in ["", "..", "a/b", "x\\y", "a b", &"z".repeat(65)] {
            assert!(!SessionStore::valid_id(id), "{id:?} must be invalid");
            assert!(store.create(id, &fig1_spec()).is_err());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_session_rehydrates_bit_identically_from_the_store() {
        let dir = tmpdir("rehydrate");
        let store = SessionStore::open(&dir).unwrap();
        store.create("s1", &fig1_spec()).unwrap();

        // the reference run: never interrupted
        let mut reference = SessionMachine::new(fig1_spec());
        let mut oracle = PerfectOracle::new(fig1_ground());
        while let Some(p) = reference.pending().cloned() {
            let a = oracle.answer(&p.question).unwrap();
            reference.submit(p.seq, Ok(a)).unwrap();
        }
        let ref_report = format!("{}", reference.finished().unwrap().report);
        let total = reference.log().len();

        // the served run: WAL each answer, "crash" after the 2nd, reload
        let mut oracle = PerfectOracle::new(fig1_ground());
        let (spec, log) = store.load("s1").unwrap();
        let mut m = SessionMachine::rehydrate(spec, log);
        for _ in 0..2 {
            let p = m.pending().unwrap().clone();
            let a = oracle.answer(&p.question).unwrap();
            let rec = m.record_for(Ok(a.clone())).unwrap();
            store.append_answer("s1", &rec).unwrap();
            m.submit(p.seq, Ok(a)).unwrap();
        }
        drop(m); // the process dies here

        let epoch = store.bump_epoch("s1").unwrap();
        assert_eq!(epoch, 2);
        let (spec, log) = store.load("s1").unwrap();
        assert_eq!(log.len(), 2, "both WAL'd answers survived");
        let mut m = SessionMachine::rehydrate(spec, log);
        while let Some(p) = m.pending().cloned() {
            let a = oracle.answer(&p.question).unwrap();
            let rec = m.record_for(Ok(a.clone())).unwrap();
            store.append_answer("s1", &rec).unwrap();
            assert_eq!(m.submit(p.seq, Ok(a)), Ok(SubmitOutcome::Applied));
        }
        assert_eq!(m.log().len(), total);
        assert_eq!(
            format!("{}", m.finished().unwrap().report),
            ref_report,
            "rehydrated report byte-identical to the uninterrupted run"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_tail_is_dropped_on_load() {
        let dir = tmpdir("torn");
        let store = SessionStore::open(&dir).unwrap();
        store.create("s1", &fig1_spec()).unwrap();
        let mut m = SessionMachine::new(fig1_spec());
        let rec = m.record_for(Ok(Answer::Bool(true))).unwrap();
        store.append_answer("s1", &rec).unwrap();
        m.submit(rec.seq, rec.outcome.clone()).unwrap();
        // crash mid-append of the second record
        let path = dir.join("s1").join("session.journal");
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"2\tverify_fact\tok:bo").unwrap();
        drop(f);
        let (_, log) = store.load("s1").unwrap();
        assert_eq!(log.len(), 1, "torn tail dropped");
        assert_eq!(log[0], rec);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_append_failure_degrades_to_partial_report() {
        let dir = tmpdir("enospc");
        let store = SessionStore::open(&dir).unwrap();
        store.create("s1", &fig1_spec()).unwrap();
        let (spec, log) = store.load("s1").unwrap();
        let mut m = SessionMachine::rehydrate(spec, log);
        store.fail_appends(true);
        let p = m.pending().unwrap().clone();
        let rec = m.record_for(Ok(Answer::Bool(true))).unwrap();
        let err = store.append_answer("s1", &rec).expect_err("disk is full");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // the serve layer's degrade path: the un-persistable answer is
        // not applied; the session is expired in memory instead
        let dropped = m.record_for(Err(OracleError::Dropped)).unwrap();
        m.submit(p.seq, dropped.outcome.clone()).unwrap();
        let f = m.finished().expect("dead session terminates");
        assert!(f.report.is_partial());
        fs::remove_dir_all(&dir).ok();
    }
}
