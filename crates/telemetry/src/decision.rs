//! Decision provenance: *why* each oracle question was asked.
//!
//! The cleaning algorithms' whole contribution is question selection — the
//! greedy most-frequent witness tuple of Algorithm 1, the Theorem 4.5
//! unique-minimal-hitting-set early stop, the split/embed recursion of
//! Algorithm 2, the retry/escalation policy of a faulty crowd. A
//! [`DecisionRecord`] captures the algorithmic evidence behind one such
//! choice: the question posed, the structured evidence that selected it,
//! and the outcome once the crowd answered.
//!
//! Decisions follow the same zero-cost contract as spans and events: every
//! entry point returns after a single relaxed atomic load when telemetry is
//! disabled, and the deferred `detail` closure is only invoked when a
//! collector is installed.
//!
//! Ids are session-scoped: [`crate::install`] resets the counter to 1, so a
//! resumed session that replays the same questions in the same order
//! reproduces the same decision ids. The id of the decision currently being
//! acted on is exported through a thread-local ([`begin_decision`] /
//! [`current_decision_id`]) so downstream layers — the crowd transcript,
//! the write-ahead journal — can tag their own records with it without any
//! API coupling to the algorithm layer.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Session-scoped decision id counter; reset to 1 on every
/// [`crate::install`] so fresh and resumed runs of the same session agree.
pub(crate) static NEXT_DECISION_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The decision currently being acted on by this thread (0 = none).
    static CURRENT_DECISION: Cell<u64> = const { Cell::new(0) };
}

/// One recorded decision: a question (or question-free shortcut) together
/// with the evidence that selected it and the outcome it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Session-scoped id (1, 2, 3, … in decision order).
    pub id: u64,
    /// Session-relative timestamp, ns (when the decision was finished).
    pub at_ns: u64,
    /// Innermost live span on the recording thread, if any.
    pub span: Option<u64>,
    /// Thread ordinal of the recording thread.
    pub thread: u64,
    /// Decision kind, dotted (e.g. `deletion.verify_fact`,
    /// `insertion.complete`, `crowd.retry`).
    pub kind: &'static str,
    /// The question posed (or the action taken, for question-free
    /// decisions like a Theorem 4.5 certificate deletion).
    pub question: String,
    /// What came of it: the crowd's answer, the edit applied, or the error.
    pub outcome: String,
    /// Structured cause, as ordered key/value pairs (witness sets,
    /// frequency rankings, split paths, fault + policy steps, …).
    pub evidence: Vec<(&'static str, String)>,
    /// The HTTP request id current on the recording thread, if the
    /// decision was made while serving one (see [`crate::begin_request`]).
    pub request: Option<String>,
}

impl DecisionRecord {
    /// The first evidence value stored under `key`.
    pub fn evidence(&self, key: &str) -> Option<&str> {
        self.evidence
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One `"type":"decision"` line of a JSONL export (see
/// [`crate::JsonlCollector`]), decoded into owned fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionLine {
    /// Session-scoped id, a positive integer.
    pub id: u64,
    /// Decision kind, non-empty.
    pub kind: String,
    /// The question posed (or action taken).
    pub question: String,
    /// What came of it.
    pub outcome: String,
    /// Evidence pairs, sorted by key (a JSON object has no order).
    pub evidence: Vec<(String, String)>,
    /// The HTTP request the decision was made under, if any.
    pub request: Option<String>,
}

impl DecisionLine {
    /// Decode one parsed JSONL line: `Ok(None)` when it is not a decision
    /// (spans, events, metrics and samples share the stream), an error when
    /// it is a decision without a positive integer id, a non-empty kind,
    /// string question and outcome, and a string-valued evidence object.
    /// Duplicate ids span lines, so checking them is the caller's job.
    pub fn from_json(v: &Json) -> Result<Option<DecisionLine>, String> {
        if v.get("type").and_then(Json::as_str) != Some("decision") {
            return Ok(None);
        }
        let id = v
            .get("id")
            .and_then(Json::as_f64)
            .filter(|n| *n >= 1.0 && n.fract() == 0.0)
            .ok_or("decision id must be a positive integer")? as u64;
        let text = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("decision is missing string `{key}`"))
        };
        let kind = text("kind")?;
        if kind.is_empty() {
            return Err("empty decision kind".to_string());
        }
        let Some(Json::Object(map)) = v.get("evidence") else {
            return Err("decision is missing its evidence object".to_string());
        };
        let evidence = map
            .iter()
            .map(|(k, val)| match val.as_str() {
                Some(s) => Ok((k.clone(), s.to_string())),
                None => Err(format!("evidence `{k}` is not a string")),
            })
            .collect::<Result<_, _>>()?;
        let request = match v.get("request") {
            None => None,
            Some(r) => Some(
                r.as_str()
                    .ok_or("decision `request` is not a string")?
                    .to_string(),
            ),
        };
        Ok(Some(DecisionLine {
            id,
            kind,
            question: text("question")?,
            outcome: text("outcome")?,
            evidence,
            request,
        }))
    }
}

/// The deferred payload of a decision, built inside the `detail` closure of
/// [`finish_decision`] / [`record_decision`] only when telemetry is enabled.
pub struct DecisionDetail {
    /// The question posed (or action taken).
    pub question: String,
    /// The outcome observed.
    pub outcome: String,
    /// Structured evidence, as ordered key/value pairs.
    pub evidence: Vec<(&'static str, String)>,
}

/// Allocate a decision id and mark it current on this thread, so the layers
/// underneath the imminent crowd call (journal, transcript) can tag their
/// records with it. Returns 0 — and touches nothing — when telemetry is
/// disabled. Pair with [`finish_decision`] once the outcome is known.
pub fn begin_decision() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    let id = NEXT_DECISION_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT_DECISION.with(|c| c.set(id));
    id
}

/// The decision currently being acted on by this thread, if any.
pub fn current_decision_id() -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    let id = CURRENT_DECISION.with(|c| c.get());
    (id != 0).then_some(id)
}

/// Finish the decision opened by [`begin_decision`]: clear the thread's
/// current-decision marker and report the full record. `detail` is only
/// invoked when telemetry is enabled; with `id == 0` (a disabled
/// [`begin_decision`]) the call is inert.
pub fn finish_decision(id: u64, kind: &'static str, detail: impl FnOnce() -> DecisionDetail) {
    if !crate::enabled() {
        return;
    }
    CURRENT_DECISION.with(|c| {
        if c.get() == id {
            c.set(0);
        }
    });
    if id == 0 {
        return;
    }
    dispatch(id, kind, detail());
}

/// Record a self-contained decision (no surrounding crowd call to tag):
/// allocates an id, reports the record, and returns the id — 0 when
/// telemetry is disabled, without invoking `detail`.
pub fn record_decision(kind: &'static str, detail: impl FnOnce() -> DecisionDetail) -> u64 {
    if !crate::enabled() {
        return 0;
    }
    let id = NEXT_DECISION_ID.fetch_add(1, Ordering::Relaxed);
    dispatch(id, kind, detail());
    id
}

fn dispatch(id: u64, kind: &'static str, detail: DecisionDetail) {
    let record = DecisionRecord {
        id,
        at_ns: crate::now_ns(),
        span: crate::current_span_id(),
        thread: crate::thread_ordinal(),
        kind,
        question: detail.question,
        outcome: detail.outcome,
        evidence: detail.evidence,
        request: crate::current_request_id(),
    };
    crate::with_collector(|c| c.record_decision(&record));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryCollector;
    use std::sync::Arc;

    #[test]
    fn disabled_decisions_are_inert() {
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        assert!(!crate::enabled());
        assert_eq!(begin_decision(), 0);
        assert_eq!(current_decision_id(), None);
        finish_decision(0, "never", || unreachable!("detail must not run"));
        assert_eq!(
            record_decision("never", || unreachable!("detail must not run")),
            0
        );
    }

    #[test]
    fn decision_ids_restart_per_session_and_tag_the_current_thread() {
        for round in 0..2 {
            let collector = Arc::new(InMemoryCollector::new());
            let session = crate::session(collector.clone());
            let id = begin_decision();
            assert_eq!(id, 1, "round {round}: ids restart at 1 per install");
            assert_eq!(current_decision_id(), Some(id));
            finish_decision(id, "test.decision", || DecisionDetail {
                question: "TRUE(f)?".into(),
                outcome: "false".into(),
                evidence: vec![("selector", "most-frequent".into())],
            });
            assert_eq!(current_decision_id(), None, "finish clears the marker");
            let one_shot = record_decision("test.shortcut", || DecisionDetail {
                question: "delete f".into(),
                outcome: "deleted".into(),
                evidence: vec![],
            });
            assert_eq!(one_shot, 2);
            drop(session);
            let decisions = collector.decisions();
            assert_eq!(decisions.len(), 2);
            assert_eq!(decisions[0].id, 1);
            assert_eq!(decisions[0].kind, "test.decision");
            assert_eq!(decisions[0].evidence("selector"), Some("most-frequent"));
            assert_eq!(decisions[1].id, 2);
        }
    }
}
