//! Durable backing for parked sessions.
//!
//! A [`SessionStore`] keeps one directory per session under its root:
//!
//! ```text
//! <root>/<id>/spec.txt          schema + query + strategy config
//! <root>/<id>/db/<rel>.tsv      the dirty database (qoco_data::save_dir)
//! <root>/<id>/session.journal   consumed-answer log (PR 4 wire format)
//! <root>/<id>/epoch             rehydration counter (see below)
//! <root>/.<id>.staging/         the same files while a create is writing them
//! ```
//!
//! [`SessionStore::create`] is atomic with respect to a crash of this
//! process: it writes the whole directory under a staging name,
//! `<root>/.<id>.staging`, and renames it to `<root>/<id>` only once every
//! file is in place. [`SessionStore::valid_id`] rejects the staging name,
//! so [`SessionStore::list`] never sees a half-created session, and
//! [`SessionStore::open`] deletes any staging directory a crash left
//! behind. Durability across power loss is out of scope: the created files
//! and the root directory are not fsynced, so the OS may still lose a
//! fresh session that the serve API acknowledged.
//!
//! The write discipline is write-ahead: [`SessionStore::append_answer`]
//! persists (append + flush + fsync) the answer record *before* the
//! in-memory machine applies it. A crash therefore loses at most answers
//! the submitter was never acknowledged for, and
//! [`SessionStore::load`] + `SessionMachine::rehydrate` reconstruct every
//! in-flight session bit-identically — including a torn final journal
//! line, which `Journal::parse` drops.
//!
//! The epoch file counts rehydrations. Every restart bumps it, and the
//! serve API echoes the current epoch in every response: an answer
//! submitted under an older epoch is *stale* — it raced a crash, and its
//! question may have been re-issued — so it is acknowledged without being
//! applied (the journal already holds whatever the dead process accepted).
//!
//! For fault-injection tests, [`SessionStore::fail_appends`] makes every
//! subsequent journal append fail like a full disk, letting callers assert
//! the degrade path (count `journal.write_errors`, expire to a PARTIAL
//! REPORT) without a real ENOSPC.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use qoco_crowd::JournalRecord;
use qoco_data::{load_dir, save_dir, Database, Schema};
use qoco_query::parse_query;

use crate::cleaner::CleaningConfig;
use crate::deletion::DeletionStrategy;
use crate::insertion::InsertionOptions;
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

fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b'\t' | b'\n' | b'\r' => {
                let _ = write!(out, "%{b:02X}");
            }
            _ => out.push(b as char),
        }
    }
    out
}

fn unescape_line(s: &str) -> Result<String, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("non-utf8 payload in {s:?}"))
}

fn bad_data(e: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.into())
}

/// Serialize a spec's scalar half (everything but the database) to the
/// `spec.txt` key–value format.
fn spec_text(spec: &SessionSpec) -> String {
    let mut out = String::from("qoco-session-spec\tv1\n");
    for (_, decl) in spec.dirty.schema().iter() {
        let _ = write!(out, "relation\t{}", escape_line(decl.name()));
        for attr in decl.attrs() {
            let _ = write!(out, "\t{}", escape_line(attr));
        }
        out.push('\n');
    }
    let _ = writeln!(out, "query\t{}", escape_line(&spec.query.display()));
    let _ = writeln!(out, "deletion\t{}", deletion_to_str(spec.config.deletion));
    let _ = writeln!(out, "split\t{}", split_to_str(spec.config.split));
    let _ = writeln!(
        out,
        "max_assignments\t{}",
        spec.config.insertion.max_assignments_per_subquery
    );
    let _ = writeln!(out, "max_iterations\t{}", spec.config.max_iterations);
    if let Some(ms) = spec.deadline_ms {
        let _ = writeln!(out, "deadline_ms\t{ms}");
    }
    out
}

/// Parse `spec.txt` back into a spec with an *empty* database of the
/// recorded schema; the caller fills the database from `db/`.
fn parse_spec_text(text: &str) -> io::Result<SessionSpec> {
    let mut lines = text.lines();
    if lines.next() != Some("qoco-session-spec\tv1") {
        return Err(bad_data("spec.txt: missing v1 header"));
    }
    let mut builder = Schema::builder();
    let mut query_text: Option<String> = None;
    let mut config = CleaningConfig::default();
    let mut deadline_ms = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let key = parts.next().unwrap_or("");
        match key {
            "relation" => {
                let fields: Vec<String> = parts
                    .map(unescape_line)
                    .collect::<Result<_, _>>()
                    .map_err(bad_data)?;
                let (name, attrs) = fields
                    .split_first()
                    .ok_or_else(|| bad_data("spec.txt: relation line without a name"))?;
                let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                builder = builder.relation(name, &attr_refs);
            }
            "query" => {
                let raw = parts
                    .next()
                    .ok_or_else(|| bad_data("spec.txt: empty query line"))?;
                query_text = Some(unescape_line(raw).map_err(bad_data)?);
            }
            "deletion" => {
                config.deletion =
                    deletion_from_str(parts.next().unwrap_or("")).map_err(bad_data)?;
            }
            "split" => {
                config.split = split_from_str(parts.next().unwrap_or("")).map_err(bad_data)?;
            }
            "max_assignments" => {
                config.insertion = InsertionOptions {
                    max_assignments_per_subquery: parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad_data("spec.txt: bad max_assignments"))?,
                };
            }
            "max_iterations" => {
                config.max_iterations = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad_data("spec.txt: bad max_iterations"))?;
            }
            "deadline_ms" => {
                deadline_ms = Some(
                    parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad_data("spec.txt: bad deadline_ms"))?,
                );
            }
            other => return Err(bad_data(format!("spec.txt: unknown key {other:?}"))),
        }
    }
    let schema = builder.build().map_err(|e| bad_data(e.to_string()))?;
    let query_text = query_text.ok_or_else(|| bad_data("spec.txt: no query line"))?;
    let query = parse_query(&schema, &query_text)
        .map_err(|e| bad_data(format!("spec.txt: query does not parse: {e}")))?;
    Ok(SessionSpec {
        query,
        dirty: Database::empty(schema),
        config,
        deadline_ms,
    })
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
            if stale && entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
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

    /// Persist a fresh session: spec + dirty database + empty journal +
    /// epoch 1, staged under `.<id>.staging` and renamed into place, so a
    /// crash leaves either the whole session or none of it. Fails if the
    /// id already exists.
    pub fn create(&self, id: &str, spec: &SessionSpec) -> io::Result<()> {
        if !SessionStore::valid_id(id) {
            return Err(bad_data(format!("invalid session id {id:?}")));
        }
        let dir = self.dir(id);
        if dir.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("session {id} already exists"),
            ));
        }
        let staging = self.root.join(format!(".{id}.staging"));
        fs::create_dir(&staging)?;
        let staged = save_dir(&spec.dirty, &staging.join("db"))
            .map_err(|e| bad_data(e.to_string()))
            .and_then(|()| fs::write(staging.join("spec.txt"), spec_text(spec)))
            .and_then(|()| fs::write(staging.join("session.journal"), ""))
            .and_then(|()| fs::write(staging.join("epoch"), "1\n"))
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
        let dir = self.dir(id);
        let mut spec = parse_spec_text(&fs::read_to_string(dir.join("spec.txt"))?)?;
        let schema = spec.dirty.schema().clone();
        spec.dirty = load_dir(schema, &dir.join("db")).map_err(|e| bad_data(e.to_string()))?;
        let journal_text = fs::read_to_string(dir.join("session.journal"))?;
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
                if SessionStore::valid_id(name) && entry.path().join("spec.txt").exists() {
                    out.push(name.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The session's current epoch (1 = never rehydrated).
    pub fn epoch(&self, id: &str) -> io::Result<u64> {
        let text = fs::read_to_string(self.dir(id).join("epoch"))?;
        text.trim()
            .parse()
            .map_err(|_| bad_data(format!("bad epoch file for session {id}")))
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
    fn a_crashed_create_leaves_only_a_staging_dir_that_open_removes() {
        let dir = tmpdir("staging");
        let store = SessionStore::open(&dir).unwrap();
        store.create("s1", &fig1_spec()).unwrap();
        assert!(
            !dir.join(".s1.staging").exists(),
            "create renames its stage away"
        );
        // a create that died after spec.txt but before the journal
        let torn = dir.join(".s2.staging");
        fs::create_dir_all(&torn).unwrap();
        fs::write(torn.join("spec.txt"), spec_text(&fig1_spec())).unwrap();
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
