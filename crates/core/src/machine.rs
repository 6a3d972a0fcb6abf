//! The resumable cleaning session: an explicit state machine over the
//! (deterministic) Algorithm 3 loop.
//!
//! A [`SessionMachine`] owns a [`SessionSpec`] (the immutable inputs: dirty
//! database, query, strategy configuration), the *consumed-answer log* —
//! the same record stream the write-ahead journal persists — and, while
//! the session is live, the thread its cleaner runs on. Its three states:
//!
//! ```text
//!             new()                        submit(answer)
//!  [spec] ───────────▶ AwaitingAnswers ◀───────────────┐
//!                        │        │                    │
//!                        │        └────────────────────┘
//!                        │   (more questions to come)
//!                        ▼
//!                 Finished(report)     — or Failed(reason) on a
//!                                        cleaner-level error
//! ```
//!
//! The cleaner is the unchanged `clean_view`, run once per session on its
//! own thread against a [`SuspendingOracle`]: at each unanswered question
//! the thread parks, handing the question over to the machine (see
//! `qoco_crowd::suspend`). `submit` sends the answer's journal record and
//! waits until the cleaner parks again or ends, so a session of *n*
//! answers costs one cleaner run, and the cleaner's telemetry counters
//! count each question once. Because every cleaning algorithm in this repo
//! is a deterministic function of the answer sequence, *rehydration* —
//! queueing a journal read off disk after a crash before the cleaner
//! starts — replays the log once and lands in exactly the state the dead
//! process was in.
//!
//! Answer submission is strictly ordered (`seq == log.len() + 1`) and
//! idempotent at this layer: re-submitting an already-consumed `seq` is
//! acknowledged as a duplicate without touching the log. Sessions are
//! expired by [`SessionMachine::expire`], which appends a `dropped` fault:
//! the expert dead-latch then fails every later question fast and the
//! cleaner terminates with a PARTIAL REPORT through the ordinary
//! `unresolved` machinery — expiry needs no new code path in the cleaner.
//! Dropping a live machine hangs up on its cleaner the same way and joins
//! the thread, so no cleaner work outlives its machine.
//!
//! A parked session holds one waiting thread and its working database;
//! the serve layer's session cap bounds how many are parked at once.

use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use qoco_crowd::{
    Answer, JournalRecord, OracleError, PendingQuestion, SingleExpert, SuspendingOracle,
};
use qoco_data::Database;
use qoco_query::ConjunctiveQuery;

use crate::cleaner::{clean_view, CleaningConfig, CleaningReport};
use crate::error::CleanError;

/// The immutable inputs of a cleaning session. Everything else — the
/// machine's whole mutable state — is the answer log.
#[derive(Clone)]
pub struct SessionSpec {
    /// The query whose view is being cleaned.
    pub query: ConjunctiveQuery,
    /// The dirty database, as submitted. Never mutated in place: the
    /// cleaner works on a clone.
    pub dirty: Database,
    /// Cleaning strategy configuration.
    pub config: CleaningConfig,
    /// Idle allowance in milliseconds before the reaper may expire the
    /// session (`None`: never). Interpreted by the serve layer; carried
    /// in the spec so it survives restarts.
    pub deadline_ms: Option<u64>,
}

/// Where a stepped session stands.
pub enum SessionState {
    /// Parked: the cleaner needs this answer before it can continue.
    AwaitingAnswers(PendingQuestion),
    /// The cleaner ran to completion (the report may still be partial if
    /// faults were absorbed along the way).
    Finished(Box<FinishedSession>),
    /// The cleaner itself errored (e.g. iteration budget exhausted).
    Failed(String),
}

/// The terminal product of a session.
pub struct FinishedSession {
    /// The cleaning report (check [`CleaningReport::is_partial`]).
    pub report: CleaningReport,
    /// The cleaned database.
    pub cleaned: Database,
}

/// Accepted submission outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The answer was consumed and the machine stepped forward.
    Applied,
    /// `seq` was already consumed — acknowledged, nothing re-applied.
    Duplicate,
}

/// Rejected submissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The session is finished or failed; nothing is awaited.
    NotAwaiting,
    /// `seq` is ahead of the question currently awaited.
    OutOfOrder {
        /// The sequence number the machine will accept next.
        expected: u64,
    },
    /// The answer's shape does not fit the pending question's kind.
    WrongShape,
    /// Only `abstain`/`dropped` faults may be submitted; timeouts are a
    /// transport concern the API never records.
    BadFault,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NotAwaiting => write!(f, "session is not awaiting answers"),
            SubmitError::OutOfOrder { expected } => {
                write!(f, "out-of-order submission; expected seq {expected}")
            }
            SubmitError::WrongShape => {
                write!(f, "answer shape does not match the pending question")
            }
            SubmitError::BadFault => write!(f, "only abstain/dropped faults can be submitted"),
        }
    }
}

/// The resumable session state machine; see the module docs.
pub struct SessionMachine {
    spec: SessionSpec,
    log: Vec<JournalRecord>,
    state: SessionState,
    /// Answer records for the parked cleaner; dropping it hangs up.
    answers: Option<Sender<JournalRecord>>,
    /// The questions the cleaner parks on; closes when the cleaner ends.
    parked: Receiver<PendingQuestion>,
    /// The cleaner's thread, until it is joined.
    cleaner: Option<JoinHandle<(Result<CleaningReport, CleanError>, Database)>>,
}

impl SessionMachine {
    /// Start a fresh session: runs the cleaner to the first question (or
    /// straight to `Finished` for a query whose view needs no crowd).
    pub fn new(spec: SessionSpec) -> SessionMachine {
        SessionMachine::rehydrate(spec, Vec::new())
    }

    /// Rebuild a session from its persisted spec + consumed-answer log —
    /// the crash-recovery path. The replayed machine is bit-identical to
    /// the one the dead process held: same state, same pending question,
    /// and ultimately the same report.
    pub fn rehydrate(spec: SessionSpec, log: Vec<JournalRecord>) -> SessionMachine {
        let (answers, answer_rx) = mpsc::channel();
        let (park_tx, parked) = mpsc::channel();
        for record in &log {
            answers
                .send(record.clone())
                .expect("the receiver is held below");
        }
        let (query, mut db, config) = (spec.query.clone(), spec.dirty.clone(), spec.config);
        let cleaner = std::thread::spawn(move || {
            let mut crowd = SingleExpert::new(SuspendingOracle::new(answer_rx, park_tx));
            let report = clean_view(&query, &mut db, &mut crowd, config);
            (report, db)
        });
        let mut m = SessionMachine {
            spec,
            log,
            state: SessionState::Failed(String::new()), // replaced by wait()
            answers: Some(answers),
            parked,
            cleaner: Some(cleaner),
        };
        m.wait();
        m
    }

    /// Block until the cleaner parks on its next question or ends. A
    /// cleaner panic is re-raised here.
    fn wait(&mut self) {
        // Surface the wait in the serve layer's in-flight inspector (no-op
        // outside a request).
        qoco_telemetry::set_request_phase("machine.step");
        if let Ok(pending) = self.parked.recv() {
            self.state = SessionState::AwaitingAnswers(pending);
            return;
        }
        let cleaner = self.cleaner.take().expect("only a live cleaner is awaited");
        self.state = match cleaner.join() {
            Ok((Ok(report), cleaned)) => {
                SessionState::Finished(Box::new(FinishedSession { report, cleaned }))
            }
            Ok((Err(e), _)) => SessionState::Failed(e.to_string()),
            Err(panic) => resume_unwind(panic),
        };
    }

    /// Append `record` to the log, hand it to the parked cleaner, and wait
    /// for the cleaner's next move.
    fn apply(&mut self, record: JournalRecord) {
        self.log.push(record.clone());
        if let Some(answers) = &self.answers {
            // Fails only if the cleaner already ended; wait() reports that.
            let _ = answers.send(record);
        }
        self.wait();
    }

    /// The session's immutable inputs.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The consumed-answer log (what the write-ahead journal persists).
    pub fn log(&self) -> &[JournalRecord] {
        &self.log
    }

    /// Current state.
    pub fn state(&self) -> &SessionState {
        &self.state
    }

    /// The question the session is parked on, if any.
    pub fn pending(&self) -> Option<&PendingQuestion> {
        match &self.state {
            SessionState::AwaitingAnswers(p) => Some(p),
            _ => None,
        }
    }

    /// The finished session, if the cleaner has completed.
    pub fn finished(&self) -> Option<&FinishedSession> {
        match &self.state {
            SessionState::Finished(f) => Some(f),
            _ => None,
        }
    }

    /// Validate a submission for question `seq` without applying it.
    /// Distinguishes the idempotent-duplicate case (`Ok(Duplicate)`) from
    /// the four rejection reasons.
    pub fn check_submission(
        &self,
        seq: u64,
        outcome: &Result<Answer, OracleError>,
    ) -> Result<SubmitOutcome, SubmitError> {
        if seq >= 1 && seq <= self.log.len() as u64 {
            // already consumed: a retry of an acknowledged POST
            return Ok(SubmitOutcome::Duplicate);
        }
        let pending = match &self.state {
            SessionState::AwaitingAnswers(p) => p,
            _ => return Err(SubmitError::NotAwaiting),
        };
        if seq != pending.seq {
            return Err(SubmitError::OutOfOrder {
                expected: pending.seq,
            });
        }
        match outcome {
            Ok(answer) if !pending.accepts(answer) => Err(SubmitError::WrongShape),
            Err(OracleError::Timeout) => Err(SubmitError::BadFault),
            _ => Ok(SubmitOutcome::Applied),
        }
    }

    /// Consume an answer (or a sticky fault) for question `seq` and step
    /// the machine forward. Duplicates are acknowledged, not re-applied.
    ///
    /// The serve layer persists the record *before* calling this (write-
    /// ahead); use [`SessionMachine::record_for`] to build the exact
    /// record that will be applied.
    pub fn submit(
        &mut self,
        seq: u64,
        outcome: Result<Answer, OracleError>,
    ) -> Result<SubmitOutcome, SubmitError> {
        match self.check_submission(seq, &outcome)? {
            SubmitOutcome::Duplicate => Ok(SubmitOutcome::Duplicate),
            SubmitOutcome::Applied => {
                let record = self.record_for(outcome).expect("checked: awaiting");
                self.apply(record);
                Ok(SubmitOutcome::Applied)
            }
        }
    }

    /// The journal record that [`SessionMachine::submit`] would append for
    /// `outcome` on the currently pending question (`None` if the session
    /// is not awaiting answers).
    pub fn record_for(&self, outcome: Result<Answer, OracleError>) -> Option<JournalRecord> {
        let pending = self.pending()?;
        Some(JournalRecord {
            seq: pending.seq,
            kind: pending.kind,
            outcome,
            decision: pending.decision,
            // Which HTTP request supplied this answer: the serve layer
            // marks its connection thread before dispatching into us.
            request: qoco_telemetry::current_request_id(),
        })
    }

    /// Expire the session: record a `dropped` fault for the pending
    /// question. The dead-expert latch then fails every later question
    /// fast, so the cleaner terminates with a PARTIAL REPORT through the
    /// existing unresolved machinery. No-op if the session already ended.
    pub fn expire(&mut self) -> Option<JournalRecord> {
        let record = self.record_for(Err(OracleError::Dropped))?;
        self.apply(record.clone());
        Some(record)
    }
}

impl Drop for SessionMachine {
    /// Hang up on a live cleaner — its oracle answers `dropped`, so it ends
    /// with a partial report — and join its thread.
    fn drop(&mut self) {
        self.answers = None;
        if let Some(cleaner) = self.cleaner.take() {
            let _ = cleaner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_engine::answer_set;

    /// The Figure 1 fixture: ESP's false `12.07.98` final makes `(ESP)` a
    /// wrong answer of Q1; the ground truth has no missing answers.
    fn fig1_spec() -> SessionSpec {
        crate::figure1::figure1_spec()
    }

    /// Answer the pending question the way a perfect Figure 1 oracle
    /// would, driving the machine until it finishes. Returns the answers
    /// consumed.
    fn drive_to_completion(m: &mut SessionMachine) -> Vec<Answer> {
        use qoco_crowd::Oracle;
        let mut oracle = qoco_crowd::PerfectOracle::new(crate::figure1::figure1_ground());
        let mut consumed = Vec::new();
        for _ in 0..100 {
            let Some(p) = m.pending().cloned() else { break };
            let answer = oracle.answer(&p.question).expect("perfect oracle");
            consumed.push(answer.clone());
            assert_eq!(m.submit(p.seq, Ok(answer)), Ok(SubmitOutcome::Applied));
        }
        consumed
    }

    #[test]
    fn fresh_machine_parks_on_the_first_question() {
        let m = SessionMachine::new(fig1_spec());
        let p = m.pending().expect("Figure 1 needs the crowd");
        assert_eq!(p.seq, 1);
        assert_eq!(m.log().len(), 0);
    }

    #[test]
    fn driven_machine_cleans_figure1() {
        let mut m = SessionMachine::new(fig1_spec());
        let answers = drive_to_completion(&mut m);
        assert!(!answers.is_empty());
        let f = m.finished().expect("session finished");
        assert!(!f.report.is_partial());
        assert_eq!(f.report.wrong_answers, 1, "(ESP) was wrong");
        // the cleaned view equals the ground-truth view: only (GER), (FRA)
        // can win twice... actually only teams with two finals remain
        let spec = fig1_spec();
        let view = answer_set(&spec.query, &f.cleaned);
        assert!(!view
            .iter()
            .any(|t| t.values().first() == Some(&qoco_data::Value::text("ESP"))));
    }

    #[test]
    fn rehydration_is_bit_identical_at_every_prefix() {
        // run a session to completion, journal in hand; then for every
        // prefix of the log, rehydrate a fresh machine and check it parks
        // on the same question, then finishes with the same report
        let mut reference = SessionMachine::new(fig1_spec());
        drive_to_completion(&mut reference);
        let ref_report = format!("{}", reference.finished().unwrap().report);
        let full_log = reference.log().to_vec();
        for cut in 0..=full_log.len() {
            let mut m = SessionMachine::rehydrate(fig1_spec(), full_log[..cut].to_vec());
            if cut < full_log.len() {
                let p = m.pending().expect("mid-session prefix must park");
                assert_eq!(p.seq as usize, cut + 1);
                assert_eq!(p.kind, full_log[cut].kind, "same question at cut {cut}");
                // feed the remaining journal records straight back
                for rec in &full_log[cut..] {
                    assert_eq!(
                        m.submit(rec.seq, rec.outcome.clone()),
                        Ok(SubmitOutcome::Applied)
                    );
                }
            }
            let report = format!("{}", m.finished().expect("finished").report);
            assert_eq!(report, ref_report, "report identical from cut {cut}");
        }
    }

    #[test]
    fn duplicate_and_out_of_order_submissions() {
        let mut m = SessionMachine::new(fig1_spec());
        let p = m.pending().unwrap().clone();
        assert_eq!(
            m.submit(p.seq, Ok(Answer::Bool(true))),
            Ok(SubmitOutcome::Applied)
        );
        // duplicate of seq 1: acknowledged, log untouched, state unchanged
        let len = m.log().len();
        let next = m.pending().map(|p| p.seq);
        assert_eq!(
            m.submit(1, Ok(Answer::Bool(false))),
            Ok(SubmitOutcome::Duplicate)
        );
        assert_eq!(m.log().len(), len);
        assert_eq!(m.pending().map(|p| p.seq), next);
        // far-future seq: rejected with the expected seq
        let expected = m.pending().unwrap().seq;
        assert_eq!(
            m.submit(99, Ok(Answer::Bool(true))),
            Err(SubmitError::OutOfOrder { expected })
        );
    }

    #[test]
    fn wrong_shape_and_timeouts_are_rejected() {
        let mut m = SessionMachine::new(fig1_spec());
        let seq = m.pending().unwrap().seq;
        // Figure 1's first question is a boolean verification
        assert_eq!(
            m.submit(seq, Ok(Answer::Completion(None))),
            Err(SubmitError::WrongShape)
        );
        assert_eq!(
            m.submit(seq, Err(OracleError::Timeout)),
            Err(SubmitError::BadFault)
        );
        assert!(m.pending().is_some(), "rejections do not advance the log");
    }

    #[test]
    fn expiry_yields_a_partial_report() {
        let mut m = SessionMachine::new(fig1_spec());
        let rec = m.expire().expect("was awaiting");
        assert_eq!(rec.outcome, Err(OracleError::Dropped));
        let f = m.finished().expect("dead crowd terminates the session");
        assert!(f.report.is_partial());
        assert!(!f.report.unresolved.is_empty());
        // expiring a finished session is a no-op
        assert!(m.expire().is_none());
    }

    #[test]
    fn abstain_skips_one_question_but_the_session_continues() {
        let mut m = SessionMachine::new(fig1_spec());
        let seq = m.pending().unwrap().seq;
        assert_eq!(
            m.submit(seq, Err(OracleError::Abstain)),
            Ok(SubmitOutcome::Applied)
        );
        // the session moved past the abstained question
        match m.state() {
            SessionState::AwaitingAnswers(p) => assert!(p.seq > seq),
            SessionState::Finished(f) => assert!(f.report.is_partial()),
            SessionState::Failed(e) => panic!("abstain must not fail the session: {e}"),
        }
    }
}
