//! A write-ahead answer journal for crash-resumable cleaning sessions.
//!
//! [`JournalOracle`] decorates any [`Oracle`] and logs every outcome —
//! delivered answers *and* faults — **before** the caller sees it. If the
//! process dies at any question boundary, the journal on disk holds exactly
//! the outcomes the session consumed, so a resumed run can replay them and
//! continue at the next question.
//!
//! ## Replay is lockstep
//!
//! During replay the inner oracle is *still asked* every question, and the
//! journaled outcome is returned instead of the live one (after comparing
//! the two — mismatches are counted as divergences, and the journal wins,
//! because the journal is what the original session consumed). Lockstep
//! matters for stateful oracles: [`crate::ImperfectOracle`] and
//! [`crate::SamplingOracle`] advance a seeded RNG stream per answer, so
//! replaying *through* them leaves the stream exactly where the original
//! run left it — the first live question after the journal runs dry gets a
//! bit-identical answer to the one the uninterrupted run would have
//! produced. The cleaning algorithms are deterministic functions of the
//! answer sequence, so the final edits are bit-identical too.
//!
//! ## Format
//!
//! One record per line, `seq \t kind \t outcome` (tab-separated), flushed
//! per answer:
//!
//! ```text
//! 1 <TAB> verify_fact     <TAB> ok:bool:true
//! 2 <TAB> complete        <TAB> ok:completion:x=s:GER,k=s:EU
//! 3 <TAB> complete        <TAB> ok:completion:-
//! 4 <TAB> complete_result <TAB> ok:missing:s:ITA|i:1990
//! 5 <TAB> verify_fact     <TAB> err:timeout
//! ```
//!
//! Values carry an `s:`/`i:` type tag; names and values are percent-escaped
//! so tabs, newlines and the separator characters cannot corrupt a record.
//! When telemetry is on, a fourth tab-separated field `d=<id>` tags the
//! record with the decision id that caused the question — older readers
//! split on the first three tabs and never see it, and replay ignores it
//! when checking for divergence, so journals written with and without
//! provenance interoperate. A fifth field `r=<request-id>` (percent-escaped)
//! tags the record with the HTTP request that drove the machine step, under
//! the same rules: optional, ignored by older readers, excluded from the
//! divergence comparison.
//! A truncated final line (the crash happened mid-write) is ignored on
//! load. The journal records one oracle's global answer sequence — wrap
//! each panel member of a session with [`Journal::wrap`] so they share one
//! sequence.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use qoco_data::{Tuple, Value};
use qoco_engine::Assignment;
use qoco_query::Var;

use crate::fault::OracleError;
use crate::oracle::Oracle;
use crate::question::{Answer, Question, QuestionKind};

/// One journaled outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// 1-based global sequence number.
    pub seq: u64,
    /// The kind of question that was asked.
    pub kind: QuestionKind,
    /// What the oracle produced: an answer or a fault.
    pub outcome: Result<Answer, OracleError>,
    /// The telemetry decision id active when the question was asked (an
    /// optional fourth `d=<id>` field on the wire — absent when telemetry
    /// was off, ignored by older readers, and *excluded* from the lockstep
    /// divergence comparison so journals with and without provenance
    /// interoperate).
    pub decision: Option<u64>,
    /// The HTTP request id active when the question was asked (an optional
    /// fifth `r=<id>` field on the wire, percent-escaped; same rules as
    /// `decision`: absent outside the serve layer, ignored by older
    /// readers, excluded from divergence).
    pub request: Option<String>,
}

impl JournalRecord {
    /// Serialize this record as one journal line (newline-terminated, the
    /// exact bytes [`JournalOracle`] writes). Exposed so external writers
    /// — the serve session store appends answer records outside any
    /// oracle — produce journals [`Journal::parse`] reads back.
    pub fn to_line(&self) -> String {
        serialize_record(self)
    }

    /// Parse one journal line (without its trailing newline).
    pub fn parse_line(line: &str) -> Result<JournalRecord, String> {
        parse_record(line)
    }
}

struct JournalInner {
    /// Where appended records go (`None` for a purely in-memory journal).
    writer: Option<Box<dyn Write + Send>>,
    /// Records still to be replayed before going live.
    replay: VecDeque<JournalRecord>,
    /// Every outcome seen so far (replayed and live), in order.
    log: Vec<JournalRecord>,
    seq: u64,
    replayed: u64,
    divergences: u64,
    write_errors: u64,
}

/// A shared handle to one session journal. Clone it freely: all clones
/// (and all oracles wrapped through [`Journal::wrap`]) share one global
/// sequence, one replay queue and one writer.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<JournalInner>>,
}

impl Journal {
    fn build(writer: Option<Box<dyn Write + Send>>, replay: Vec<JournalRecord>) -> Journal {
        Journal {
            inner: Arc::new(Mutex::new(JournalInner {
                writer,
                replay: replay.into(),
                log: Vec::new(),
                seq: 0,
                replayed: 0,
                divergences: 0,
                write_errors: 0,
            })),
        }
    }

    /// A fresh in-memory journal (no file): records accumulate in
    /// [`Journal::records`]. Used by tests and crash simulations.
    pub fn recording() -> Journal {
        Journal::build(None, Vec::new())
    }

    /// A fresh journal appending to `writer`.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Journal {
        Journal::build(Some(writer), Vec::new())
    }

    /// A fresh journal writing to a new file at `path` (truncates).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let file = std::fs::File::create(path)?;
        Ok(Journal::to_writer(Box::new(file)))
    }

    /// Resume from in-memory records: the queue is replayed first, then the
    /// journal goes live (appending to `writer` if one is given).
    pub fn replaying(records: Vec<JournalRecord>) -> Journal {
        Journal::build(None, records)
    }

    /// Resume from a journal file: replay its records, then continue the
    /// session appending to the same file. A torn final line (crash
    /// mid-write) is truncated away so new records start on a clean line.
    pub fn resume(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        use std::io::Seek;
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let records = Journal::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let keep = text.rfind('\n').map(|p| p + 1).unwrap_or(0);
        let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Journal::build(Some(Box::new(file)), records))
    }

    /// Parse a journal file. A truncated final line (crash mid-write) is
    /// dropped; a corrupt line anywhere else is an error.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Vec<JournalRecord>> {
        let text = std::fs::read_to_string(path)?;
        Journal::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Parse journal text; see [`Journal::load`].
    pub fn parse(text: &str) -> Result<Vec<JournalRecord>, String> {
        let complete = match text.rfind('\n') {
            Some(pos) => &text[..pos],
            // no terminated line at all: everything is a crash artifact
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::new();
        for (i, line) in complete.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            out.push(parse_record(line).map_err(|e| format!("journal line {}: {e}", i + 1))?);
        }
        Ok(out)
    }

    /// Wrap an oracle so its every outcome flows through this journal.
    pub fn wrap<O: Oracle>(&self, oracle: O) -> JournalOracle<O> {
        JournalOracle {
            inner: oracle,
            journal: self.clone(),
        }
    }

    /// All outcomes seen so far (replayed and live), in sequence order.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.lock().log.clone()
    }

    /// The global sequence counter (total questions that flowed through).
    pub fn seq(&self) -> u64 {
        self.lock().seq
    }

    /// How many records were served from the replay queue.
    pub fn replayed(&self) -> u64 {
        self.lock().replayed
    }

    /// Replayed outcomes that did not match what the inner oracle produced
    /// in lockstep. Zero on a faithful resume; anything else means the
    /// inputs (database, seeds, fault plan) changed between runs.
    pub fn divergences(&self) -> u64 {
        self.lock().divergences
    }

    /// Records still queued for replay.
    pub fn pending_replay(&self) -> usize {
        self.lock().replay.len()
    }

    /// Journal appends that failed at the I/O layer (short write, full
    /// disk). Each one was surfaced to the session as
    /// [`OracleError::Dropped`] — the write-ahead invariant (nothing is
    /// consumed that is not on disk) is kept by *failing the answer*, so
    /// the session degrades to a PARTIAL REPORT instead of silently
    /// consuming an unjournaled outcome.
    pub fn write_errors(&self) -> u64 {
        self.lock().write_errors
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        // a poisoned journal is still readable; the data is plain
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The journaling oracle decorator; see the module docs.
pub struct JournalOracle<O: Oracle> {
    inner: O,
    journal: Journal,
}

impl<O: Oracle> JournalOracle<O> {
    /// The journal handle this oracle writes through.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

impl<O: Oracle> Oracle for JournalOracle<O> {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        // Lockstep: always ask the inner oracle, even during replay, so
        // stateful oracles advance exactly as in the original run.
        let live = self.inner.answer(q);
        // Provenance: the core algorithms open a decision before asking,
        // so the thread-local id is still set here. Replay re-tags with
        // the *current* decision id (the resumed run re-derives identical
        // ids), keeping the in-memory log consistent with a fresh run.
        let decision = qoco_telemetry::current_decision_id();
        // Same contract for the serve layer's request id: the replaying
        // run re-tags with whatever request is driving *this* step.
        let request = qoco_telemetry::current_request_id();
        let mut inner = self.journal.lock();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(rec) = inner.replay.pop_front() {
            inner.replayed += 1;
            // decision and request ids are provenance metadata, not part
            // of lockstep
            if rec.kind != q.kind() || rec.outcome != live {
                inner.divergences += 1;
                qoco_telemetry::counter_add("journal.divergences", 1);
            }
            // The journal wins: these outcomes are what the original
            // session consumed.
            let outcome = rec.outcome.clone();
            inner.log.push(JournalRecord {
                seq,
                kind: rec.kind,
                outcome: outcome.clone(),
                decision,
                request,
            });
            return outcome;
        }
        let record = JournalRecord {
            seq,
            kind: q.kind(),
            outcome: live.clone(),
            decision,
            request,
        };
        // Write-ahead: append + flush before the caller consumes the
        // outcome, so a crash at any question boundary leaves the journal
        // covering everything the session saw. If the append itself fails
        // (short write, full disk) the outcome must NOT be consumed — a
        // later resume could not replay it — so the answer is dropped:
        // the caller sees `Err(Dropped)` and the session degrades to a
        // PARTIAL REPORT through the ordinary fault machinery.
        if let Some(w) = inner.writer.as_mut() {
            let line = serialize_record(&record);
            let wrote = w.write_all(line.as_bytes()).and_then(|_| w.flush());
            if wrote.is_err() {
                inner.write_errors += 1;
                qoco_telemetry::counter_add("journal.write_errors", 1);
                let failed = JournalRecord {
                    outcome: Err(OracleError::Dropped),
                    ..record
                };
                inner.log.push(failed);
                return Err(OracleError::Dropped);
            }
        }
        inner.log.push(record);
        live
    }

    fn label(&self) -> String {
        format!("journal({})", self.inner.label())
    }
}

// ---------------------------------------------------------------------------
// wire format

/// Percent-escape the characters that have structural meaning in a record.
fn escape(s: &str, out: &mut String) {
    for b in s.bytes() {
        match b {
            b'%' | b'\t' | b'\n' | b'\r' | b',' | b'=' | b'|' | b':' => {
                let _ = write!(out, "%{b:02X}");
            }
            _ => out.push(b as char),
        }
    }
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|_| format!("bad escape in {s:?}"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("non-utf8 payload in {s:?}"))
}

fn push_value(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "i:{i}");
        }
        Value::Text(s) => {
            out.push_str("s:");
            escape(s, out);
        }
    }
}

fn parse_value(s: &str) -> Result<Value, String> {
    if let Some(i) = s.strip_prefix("i:") {
        i.parse::<i64>()
            .map(Value::int)
            .map_err(|_| format!("bad int value {s:?}"))
    } else if let Some(t) = s.strip_prefix("s:") {
        Ok(Value::text(unescape(t)?))
    } else {
        Err(format!("value {s:?} is missing its type tag"))
    }
}

fn serialize_record(r: &JournalRecord) -> String {
    let mut out = format!("{}\t{}\t", r.seq, r.kind.as_str());
    match &r.outcome {
        Err(e) => {
            let _ = write!(out, "err:{}", e.as_str());
        }
        Ok(Answer::Bool(b)) => {
            let _ = write!(out, "ok:bool:{b}");
        }
        Ok(Answer::Completion(None)) => out.push_str("ok:completion:-"),
        Ok(Answer::Completion(Some(a))) => {
            out.push_str("ok:completion:");
            // BTreeMap-backed: iteration order is canonical
            for (i, (var, value)) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape(var.name(), &mut out);
                out.push('=');
                push_value(value, &mut out);
            }
        }
        Ok(Answer::MissingAnswer(None)) => out.push_str("ok:missing:-"),
        Ok(Answer::MissingAnswer(Some(t))) => {
            out.push_str("ok:missing:");
            for (i, value) in t.values().iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                push_value(value, &mut out);
            }
        }
    }
    if let Some(d) = r.decision {
        let _ = write!(out, "\td={d}");
    }
    if let Some(rid) = r.request.as_deref().filter(|r| !r.is_empty()) {
        out.push_str("\tr=");
        escape(rid, &mut out);
    }
    out.push('\n');
    out
}

fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let mut parts = line.splitn(4, '\t');
    let seq: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad sequence number in {line:?}"))?;
    let kind = parts
        .next()
        .and_then(QuestionKind::parse)
        .ok_or_else(|| format!("bad question kind in {line:?}"))?;
    let outcome = parts
        .next()
        .ok_or_else(|| format!("missing outcome in {line:?}"))?;
    let outcome = if let Some(err) = outcome.strip_prefix("err:") {
        Err(OracleError::parse(err).ok_or_else(|| format!("bad error tag {err:?}"))?)
    } else if let Some(b) = outcome.strip_prefix("ok:bool:") {
        Ok(Answer::Bool(
            b.parse().map_err(|_| format!("bad bool payload {b:?}"))?,
        ))
    } else if let Some(payload) = outcome.strip_prefix("ok:completion:") {
        if payload == "-" {
            Ok(Answer::Completion(None))
        } else {
            let mut a = Assignment::new();
            for pair in payload.split(',').filter(|p| !p.is_empty()) {
                let (var, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad binding {pair:?}"))?;
                a.bind(Var::new(unescape(var)?), parse_value(value)?);
            }
            Ok(Answer::Completion(Some(a)))
        }
    } else if let Some(payload) = outcome.strip_prefix("ok:missing:") {
        if payload == "-" {
            Ok(Answer::MissingAnswer(None))
        } else {
            let values: Result<Vec<Value>, String> = payload.split('|').map(parse_value).collect();
            Ok(Answer::MissingAnswer(Some(Tuple::new(values?))))
        }
    } else {
        return Err(format!("unknown outcome {outcome:?}"));
    };
    // The provenance tail: optional `d=<id>`, then optional `r=<id>`, in
    // that order, nothing else. (`splitn(4)` leaves the whole tail in one
    // chunk, so split it on tabs here.)
    let mut decision = None;
    let mut request: Option<String> = None;
    if let Some(tail) = parts.next() {
        for field in tail.split('\t') {
            if let Some(d) = field.strip_prefix("d=") {
                if decision.is_some() || request.is_some() {
                    return Err(format!("misordered provenance field {field:?} in {line:?}"));
                }
                decision = Some(
                    d.parse::<u64>()
                        .map_err(|_| format!("bad decision field {field:?}"))?,
                );
            } else if let Some(rid) = field.strip_prefix("r=") {
                if request.is_some() {
                    return Err(format!("duplicate request field {field:?} in {line:?}"));
                }
                if rid.is_empty() {
                    return Err(format!("empty request field in {line:?}"));
                }
                request = Some(unescape(rid)?);
            } else {
                return Err(format!("bad decision field {field:?}"));
            }
        }
    }
    Ok(JournalRecord {
        seq,
        kind,
        outcome,
        decision,
        request,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyOracle};
    use crate::imperfect::ImperfectOracle;
    use crate::perfect::PerfectOracle;
    use qoco_data::{tup, Database, Fact, Schema};
    use qoco_query::parse_query;

    fn ground() -> Database {
        let s = Schema::builder()
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap();
        let mut g = Database::empty(s);
        for (c, k) in [("GER", "EU"), ("ITA", "EU"), ("BRA", "SA")] {
            g.insert_named("Teams", tup![c, k]).unwrap();
        }
        g
    }

    fn sample_records() -> Vec<JournalRecord> {
        let q = parse_query(ground().schema(), "(x, k) :- Teams(x, k)").unwrap();
        let mut oracle = Journal::recording().wrap(PerfectOracle::new(ground()));
        let teams = ground().schema().rel_id("Teams").unwrap();
        oracle
            .answer(&Question::VerifyFact(Fact::new(teams, tup!["GER", "EU"])))
            .unwrap();
        oracle
            .answer(&Question::Complete {
                query: q.clone(),
                partial: Assignment::new(),
            })
            .unwrap();
        oracle
            .answer(&Question::CompleteResult {
                query: q,
                known: vec![],
            })
            .unwrap();
        oracle.journal().records()
    }

    #[test]
    fn every_outcome_shape_round_trips_through_text() {
        let mut records = sample_records();
        records.push(JournalRecord {
            seq: 4,
            kind: QuestionKind::Complete,
            outcome: Ok(Answer::Completion(None)),
            decision: None,
            request: None,
        });
        records.push(JournalRecord {
            seq: 5,
            kind: QuestionKind::CompleteResult,
            outcome: Ok(Answer::MissingAnswer(None)),
            decision: None,
            request: None,
        });
        records.push(JournalRecord {
            seq: 6,
            kind: QuestionKind::VerifyFact,
            outcome: Err(OracleError::Timeout),
            decision: None,
            request: None,
        });
        records.push(JournalRecord {
            seq: 7,
            kind: QuestionKind::VerifyAnswer,
            outcome: Ok(Answer::Bool(false)),
            decision: Some(42),
            request: None,
        });
        // request provenance alone, and together with a decision id
        records.push(JournalRecord {
            seq: 8,
            kind: QuestionKind::VerifyFact,
            outcome: Ok(Answer::Bool(true)),
            decision: None,
            request: Some("qr-3".to_string()),
        });
        records.push(JournalRecord {
            seq: 9,
            kind: QuestionKind::VerifyFact,
            outcome: Ok(Answer::Bool(true)),
            decision: Some(7),
            request: Some("trace me=hostile\tid".to_string()),
        });
        let text: String = records.iter().map(serialize_record).collect();
        let parsed = Journal::parse(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn hostile_values_survive_escaping() {
        let rec = JournalRecord {
            seq: 1,
            kind: QuestionKind::CompleteResult,
            outcome: Ok(Answer::MissingAnswer(Some(Tuple::new(vec![
                Value::text("a|b,c=d:e\tf\ng%h"),
                Value::int(-7),
            ])))),
            decision: None,
            request: Some("id%with|every:bad,char=\n".to_string()),
        };
        let text = serialize_record(&rec);
        assert_eq!(text.matches('\n').count(), 1, "payload newline escaped");
        let parsed = Journal::parse(&text).unwrap();
        assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn truncated_final_line_is_ignored() {
        let records = sample_records();
        let mut text: String = records.iter().map(serialize_record).collect();
        // simulate a crash mid-write of the next record
        text.push_str("4\tverify_fact\tok:bo");
        let parsed = Journal::parse(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        assert!(Journal::parse("1\tverify_fact\tok:nonsense\n").is_err());
        assert!(Journal::parse("x\tverify_fact\tok:bool:true\n").is_err());
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\td=\n").is_err());
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\tjunk\n").is_err());
        // request-field strictness: empty, duplicated, or misordered
        // provenance fields are corruption, not extensions
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\tr=\n").is_err());
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\tr=a\tr=b\n").is_err());
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\tr=a\td=1\n").is_err());
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\td=1\tr=a\tx\n").is_err());
        // and the well-formed shapes parse
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\td=1\tr=a\n").is_ok());
        assert!(Journal::parse("1\tverify_fact\tok:bool:true\tr=qr-9\n").is_ok());
    }

    #[test]
    fn replay_returns_journaled_outcomes_and_counts_divergences() {
        let records = sample_records();
        let journal = Journal::replaying(records.clone());
        let mut oracle = journal.wrap(PerfectOracle::new(ground()));
        let teams = ground().schema().rel_id("Teams").unwrap();
        let q = parse_query(ground().schema(), "(x, k) :- Teams(x, k)").unwrap();
        // same questions in the same order → same outcomes, no divergence
        assert_eq!(
            oracle.answer(&Question::VerifyFact(Fact::new(teams, tup!["GER", "EU"]))),
            records[0].outcome
        );
        assert_eq!(
            oracle.answer(&Question::Complete {
                query: q.clone(),
                partial: Assignment::new(),
            }),
            records[1].outcome
        );
        assert_eq!(
            oracle.answer(&Question::CompleteResult {
                query: q.clone(),
                known: vec![],
            }),
            records[2].outcome
        );
        assert_eq!(journal.replayed(), 3);
        assert_eq!(journal.divergences(), 0);
        assert_eq!(journal.pending_replay(), 0);
        // the journal has run dry: the next answer is live
        assert!(oracle
            .answer(&Question::VerifyFact(Fact::new(teams, tup!["BRA", "SA"])))
            .is_ok());
        assert_eq!(journal.seq(), 4);
    }

    #[test]
    fn divergent_replay_is_detected_but_journal_wins() {
        let records = vec![JournalRecord {
            seq: 1,
            kind: QuestionKind::VerifyFact,
            outcome: Ok(Answer::Bool(false)), // the live oracle will say true
            decision: None,
            request: None,
        }];
        let journal = Journal::replaying(records);
        let mut oracle = journal.wrap(PerfectOracle::new(ground()));
        let teams = ground().schema().rel_id("Teams").unwrap();
        let out = oracle
            .answer(&Question::VerifyFact(Fact::new(teams, tup!["GER", "EU"])))
            .unwrap();
        assert_eq!(out, Answer::Bool(false), "the journal's outcome is served");
        assert_eq!(journal.divergences(), 1);
    }

    #[test]
    fn faults_are_journaled_and_replayed() {
        let plan: FaultPlan = "fail@2=timeout".parse().unwrap();
        let teams = ground().schema().rel_id("Teams").unwrap();
        let f = Fact::new(teams, tup!["GER", "EU"]);
        let journal = Journal::recording();
        let mut oracle = journal.wrap(FaultyOracle::new(
            PerfectOracle::new(ground()),
            plan.clone(),
        ));
        assert!(oracle.answer(&Question::VerifyFact(f.clone())).is_ok());
        assert_eq!(
            oracle.answer(&Question::VerifyFact(f.clone())),
            Err(OracleError::Timeout)
        );
        let records = journal.records();
        assert_eq!(records[1].outcome, Err(OracleError::Timeout));
        // replay through a fresh identical stack: lockstep, no divergence
        let journal2 = Journal::replaying(records);
        let mut oracle2 = journal2.wrap(FaultyOracle::new(PerfectOracle::new(ground()), plan));
        assert!(oracle2.answer(&Question::VerifyFact(f.clone())).is_ok());
        assert_eq!(
            oracle2.answer(&Question::VerifyFact(f)),
            Err(OracleError::Timeout)
        );
        assert_eq!(journal2.divergences(), 0);
    }

    #[test]
    fn lockstep_replay_leaves_stateful_oracles_in_position() {
        // drive an imperfect oracle (stream RNG) for 20 questions, journal
        // them, then resume after 10: answers 11..20 must be identical
        let teams = ground().schema().rel_id("Teams").unwrap();
        let f = Fact::new(teams, tup!["GER", "EU"]);
        let q = Question::VerifyFact(f);
        let full_journal = Journal::recording();
        let mut full = full_journal.wrap(ImperfectOracle::new(ground(), 0.5, 42));
        let full_answers: Vec<_> = (0..20).map(|_| full.answer(&q)).collect();
        let records = full_journal.records();
        let resumed_journal = Journal::replaying(records[..10].to_vec());
        let mut resumed = resumed_journal.wrap(ImperfectOracle::new(ground(), 0.5, 42));
        let resumed_answers: Vec<_> = (0..20).map(|_| resumed.answer(&q)).collect();
        assert_eq!(full_answers, resumed_answers);
        assert_eq!(resumed_journal.divergences(), 0);
        assert_eq!(resumed_journal.replayed(), 10);
    }

    /// Succeeds for the first `good` appends, then fails every write —
    /// an ENOSPC-style mid-session I/O fault.
    struct FailingWriter {
        good: usize,
        written: Vec<u8>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.good == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "no space left on device (simulated)",
                ));
            }
            self.good -= 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_append_drops_the_answer_instead_of_consuming_it() {
        let teams = ground().schema().rel_id("Teams").unwrap();
        let q = Question::VerifyFact(Fact::new(teams, tup!["GER", "EU"]));
        let journal = Journal::to_writer(Box::new(FailingWriter {
            good: 2,
            written: Vec::new(),
        }));
        let mut oracle = journal.wrap(PerfectOracle::new(ground()));
        assert_eq!(oracle.answer(&q), Ok(Answer::Bool(true)));
        assert_eq!(oracle.answer(&q), Ok(Answer::Bool(true)));
        // the disk is now full: the live answer exists but must not be
        // consumed, because a resume could never replay it
        assert_eq!(oracle.answer(&q), Err(OracleError::Dropped));
        assert_eq!(oracle.answer(&q), Err(OracleError::Dropped));
        assert_eq!(journal.write_errors(), 2);
        // the in-memory log records the drops, keeping it consistent with
        // what the session consumed
        let records = journal.records();
        assert_eq!(records.len(), 4);
        assert_eq!(records[2].outcome, Err(OracleError::Dropped));
    }

    #[test]
    fn record_lines_round_trip_through_the_public_api() {
        for rec in sample_records() {
            let line = rec.to_line();
            assert!(line.ends_with('\n'));
            assert_eq!(JournalRecord::parse_line(line.trim_end()).unwrap(), rec);
        }
    }

    #[test]
    fn file_journal_survives_a_simulated_crash_and_resume() {
        let dir = std::env::temp_dir().join(format!(
            "qoco-journal-test-{}-{}",
            std::process::id(),
            qoco_telemetry::now_ns()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.journal");
        let teams = ground().schema().rel_id("Teams").unwrap();
        let f = Fact::new(teams, tup!["GER", "EU"]);
        let q = Question::VerifyFact(f);
        {
            let journal = Journal::create(&path).unwrap();
            let mut oracle = journal.wrap(ImperfectOracle::new(ground(), 0.5, 7));
            for _ in 0..5 {
                let _ = oracle.answer(&q);
            }
            // the process "crashes" here: the file is already flushed
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        // simulate a torn write of record 6
        text.push_str("6\tverify_fact\tok:b");
        std::fs::write(&path, &text).unwrap();
        let journal = Journal::resume(&path).unwrap();
        assert_eq!(journal.pending_replay(), 5);
        let mut oracle = journal.wrap(ImperfectOracle::new(ground(), 0.5, 7));
        for _ in 0..8 {
            let _ = oracle.answer(&q);
        }
        assert_eq!(journal.divergences(), 0);
        assert_eq!(journal.seq(), 8);
        // the resumed file holds the full 8-question history (the torn
        // 6th line was overwritten by nothing — appends follow it, so the
        // loadable prefix is what matters)
        let reloaded = Journal::load(&path).unwrap();
        assert_eq!(reloaded.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }
}
