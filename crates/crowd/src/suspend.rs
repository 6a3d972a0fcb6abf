//! Suspension points: the oracle that inverts the control flow.
//!
//! Every cleaning algorithm in `qoco-core` drives a [`crate::CrowdAccess`]
//! synchronously — it *calls* the crowd and blocks on the reply. A served
//! session inverts that: the crowd is an HTTP client that answers whenever
//! it pleases (late, twice, or never), so the session must **suspend** at
//! the question boundary.
//!
//! [`SuspendingOracle`] makes any question boundary a suspension point
//! without rewriting the (deeply recursive) cleaner loops: the cleaner runs
//! on its own thread, and the oracle answers each question with the next
//! [`JournalRecord`] on its answer channel. Records already queued — the
//! journal prefix of a rehydrated session — are served in lockstep; at the
//! first question past them the oracle sends a [`PendingQuestion`] to the
//! session machine (see `qoco_core::SessionMachine`) and blocks until the
//! answer arrives. If the machine goes away, both channels close and the
//! oracle answers `dropped`, so the expert dead-latch ends the cleaner with
//! a partial report.

use std::sync::mpsc::{Receiver, Sender, TryRecvError};

use qoco_data::Value;

use crate::fault::OracleError;
use crate::journal::JournalRecord;
use crate::oracle::Oracle;
use crate::question::{Answer, Question, QuestionKind};

/// A question the session is parked on, in a form that can be shipped to a
/// remote crowd member and answered without access to the process that
/// asked it.
#[derive(Debug, Clone)]
pub struct PendingQuestion {
    /// 1-based question id — the sequence number the answer's journal
    /// record will carry. Doubles as the idempotency key of answer
    /// submission (together with the session epoch).
    pub seq: u64,
    /// The question-variant tag.
    pub kind: QuestionKind,
    /// Human-readable rendering (`TRUE(Q1, (ESP))?`).
    pub prompt: String,
    /// The full typed question, for in-process answering helpers
    /// (simulated oracles, tests, the `qoco-serve oracle` command).
    pub question: Question,
    /// The telemetry decision id that caused the question, when decision
    /// provenance is enabled — every API response carries it.
    pub decision: Option<u64>,
}

impl PendingQuestion {
    /// Does `answer` have the shape this question requires? (Booleans for
    /// the closed questions, a completion for `COMPL(α,Q)`, a missing
    /// tuple for `COMPL(Q(D))`.) Shape mismatches are rejected at the API
    /// boundary so [`Answer::expect_bool`] & friends can never panic
    /// inside a resumed cleaner.
    pub fn accepts(&self, answer: &Answer) -> bool {
        matches!(
            (self.kind, answer),
            (
                QuestionKind::VerifyFact
                    | QuestionKind::VerifyAllFacts
                    | QuestionKind::VerifyAnswer
                    | QuestionKind::VerifySatisfiable,
                Answer::Bool(_)
            ) | (QuestionKind::Complete, Answer::Completion(_))
                | (QuestionKind::CompleteResult, Answer::MissingAnswer(_))
        )
    }
}

/// Serialize a [`Value`] with the journal's type tag (`s:GER`, `i:1990`)
/// so API payloads round-trip text/int values losslessly.
pub fn tagged_value(v: &Value) -> String {
    match v {
        Value::Int(i) => format!("i:{i}"),
        Value::Text(s) => format!("s:{s}"),
    }
}

/// Parse a [`tagged_value`] rendering back.
pub fn parse_tagged_value(s: &str) -> Result<Value, String> {
    if let Some(i) = s.strip_prefix("i:") {
        i.parse::<i64>()
            .map(Value::int)
            .map_err(|_| format!("bad int value {s:?}"))
    } else if let Some(t) = s.strip_prefix("s:") {
        Ok(Value::text(t))
    } else {
        Err(format!("value {s:?} is missing its `s:`/`i:` type tag"))
    }
}

/// The oracle behind a served session: serves the queued answer records in
/// lockstep, then parks on each unanswered question until its record
/// arrives. See the module docs for the full protocol.
pub struct SuspendingOracle {
    answers: Receiver<JournalRecord>,
    parked: Sender<PendingQuestion>,
    served: u64,
    /// Served records whose question kind did not match the question the
    /// cleaner actually asked — always 0 unless the persisted spec and
    /// journal went out of sync (e.g. a hand-edited session directory).
    desyncs: u64,
}

impl SuspendingOracle {
    /// An oracle that answers from `answers` and announces each question it
    /// has no queued record for on `parked`.
    pub fn new(answers: Receiver<JournalRecord>, parked: Sender<PendingQuestion>) -> Self {
        SuspendingOracle {
            answers,
            parked,
            served: 0,
            desyncs: 0,
        }
    }

    /// Questions answered so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Kind mismatches between the records and the questions actually asked.
    pub fn desyncs(&self) -> u64 {
        self.desyncs
    }

    /// The next answer record: a queued one, else park on `q` and wait.
    /// `None` once the machine has hung up.
    fn next_record(&mut self, q: &Question) -> Option<JournalRecord> {
        match self.answers.try_recv() {
            Ok(rec) => return Some(rec),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {}
        }
        let pending = PendingQuestion {
            seq: self.served + 1,
            kind: q.kind(),
            prompt: format!("{q:?}"),
            question: q.clone(),
            decision: qoco_telemetry::current_decision_id(),
        };
        self.parked.send(pending).ok()?;
        self.answers.recv().ok()
    }
}

impl Oracle for SuspendingOracle {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        let Some(rec) = self.next_record(q) else {
            return Err(OracleError::Dropped);
        };
        self.served += 1;
        if rec.kind != q.kind() {
            self.desyncs += 1;
            qoco_telemetry::counter_add("serve.replay_desyncs", 1);
        }
        // The decisions this answer causes belong to the request that
        // supplied it.
        qoco_telemetry::adopt_request(rec.request);
        rec.outcome
    }

    fn label(&self) -> String {
        "suspending".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::{tup, Fact, RelId};

    fn verify_q() -> Question {
        Question::VerifyFact(Fact::new(RelId::from_index(0), tup!["GER", "EU"]))
    }

    fn bool_record(seq: u64, b: bool) -> JournalRecord {
        JournalRecord {
            seq,
            kind: QuestionKind::VerifyFact,
            outcome: Ok(Answer::Bool(b)),
            decision: None,
            request: None,
        }
    }

    /// An oracle with `log` already queued, plus the machine's ends of
    /// its two channels.
    fn queued(
        log: Vec<JournalRecord>,
    ) -> (
        SuspendingOracle,
        Sender<JournalRecord>,
        Receiver<PendingQuestion>,
    ) {
        let (answers, answer_rx) = std::sync::mpsc::channel();
        let (park_tx, parked) = std::sync::mpsc::channel();
        for rec in log {
            answers.send(rec).unwrap();
        }
        (SuspendingOracle::new(answer_rx, park_tx), answers, parked)
    }

    #[test]
    fn replays_the_log_then_waits_for_the_next_seq() {
        let (mut oracle, answers, parked) =
            queued(vec![bool_record(1, true), bool_record(2, false)]);
        assert_eq!(oracle.answer(&verify_q()), Ok(Answer::Bool(true)));
        assert_eq!(oracle.answer(&verify_q()), Ok(Answer::Bool(false)));
        assert_eq!(oracle.served(), 2);
        assert!(parked.try_recv().is_err(), "a replayed prefix never parks");
        let asker = std::thread::spawn(move || {
            let answer = oracle.answer(&verify_q());
            (answer, oracle)
        });
        let pending = parked.recv().expect("the dry oracle parks");
        assert_eq!(pending.seq, 3);
        assert_eq!(pending.kind, QuestionKind::VerifyFact);
        assert!(pending.prompt.starts_with("TRUE("), "{}", pending.prompt);
        answers.send(bool_record(3, true)).unwrap();
        let (answer, mut oracle) = asker.join().unwrap();
        assert_eq!(answer, Ok(Answer::Bool(true)));
        // a hung-up machine reads as a dropped expert, never a hang
        drop(answers);
        assert_eq!(oracle.answer(&verify_q()), Err(OracleError::Dropped));
        assert_eq!(oracle.served(), 3);
    }

    #[test]
    fn faulted_outcomes_replay_as_faults() {
        let (mut oracle, _answers, _parked) = queued(vec![JournalRecord {
            seq: 1,
            kind: QuestionKind::VerifyFact,
            outcome: Err(OracleError::Abstain),
            decision: None,
            request: None,
        }]);
        assert_eq!(oracle.answer(&verify_q()), Err(OracleError::Abstain));
    }

    #[test]
    fn kind_mismatches_are_counted_not_fatal() {
        let (mut oracle, _answers, _parked) = queued(vec![JournalRecord {
            seq: 1,
            kind: QuestionKind::VerifyAnswer,
            outcome: Ok(Answer::Bool(true)),
            decision: None,
            request: None,
        }]);
        assert_eq!(oracle.answer(&verify_q()), Ok(Answer::Bool(true)));
        assert_eq!(oracle.desyncs(), 1);
    }

    #[test]
    fn shape_acceptance_follows_the_kind() {
        let p = PendingQuestion {
            seq: 1,
            kind: QuestionKind::Complete,
            prompt: String::new(),
            question: verify_q(),
            decision: None,
        };
        assert!(p.accepts(&Answer::Completion(None)));
        assert!(!p.accepts(&Answer::Bool(true)));
        assert!(!p.accepts(&Answer::MissingAnswer(None)));
    }

    #[test]
    fn tagged_values_round_trip() {
        for v in [Value::text("GER"), Value::text("i:x"), Value::int(-7)] {
            assert_eq!(parse_tagged_value(&tagged_value(&v)).unwrap(), v);
        }
        assert!(parse_tagged_value("GER").is_err());
        assert!(parse_tagged_value("i:notanint").is_err());
    }
}
