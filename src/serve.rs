//! The `qoco-serve` session service: parked cleaning sessions over HTTP.
//!
//! This module turns the resumable [`SessionMachine`] into a multi-session
//! JSON API served by the telemetry crate's [`MetricsServer`] listener:
//!
//! | route | effect |
//! |-------|--------|
//! | `POST /sessions` | create a session (inline spec or `{"example":"figure1"}`), park on its first question |
//! | `GET /sessions` | list sessions with state and epoch |
//! | `GET /sessions/{id}/pending` | the question batch the session is parked on |
//! | `POST /sessions/{id}/answers` | submit answers (idempotent; see below) |
//! | `GET /sessions/{id}/report` | the final cleaning report once finished |
//!
//! ## Robustness model
//!
//! Every accepted answer is persisted to the session's write-ahead journal
//! (`SessionStore::append_answer`) *before* it is applied in memory, so a
//! `kill -9` at any point loses nothing that was acknowledged. On restart
//! the registry rehydrates every session directory it finds — spec +
//! journal → [`SessionMachine::rehydrate`] — and, because cleaning is a
//! deterministic function of the answer sequence, each session parks on
//! exactly the question it was parked on, and its eventual report is
//! byte-identical to an uninterrupted run's.
//!
//! Submission is idempotent, keyed by question id (`seq`) + session
//! *epoch*. The epoch counts rehydrations: answers addressed to an older
//! epoch raced a crash and are acknowledged as `stale` without being
//! applied; re-submitting an already-consumed `seq` under the current
//! epoch is acknowledged as `duplicate`. Only the answer for the exact
//! pending `seq` is applied.
//!
//! Sessions carry an idle deadline; [`SessionRegistry::reap_idle`]
//! (driven by the binary's reaper thread) expires sessions that outlive
//! it by recording a `dropped` fault — the cleaner then terminates with a
//! PARTIAL REPORT through the ordinary unresolved machinery, and the
//! report stays fetchable. The registry also bounds the number of live
//! parked sessions, shedding creation with `429` beyond the cap.
//!
//! ## The create path
//!
//! `POST /sessions` does each job once. [`decode_spec`] (in `qoco-core`,
//! next to the store) streams the body into a
//! [`SessionSpec`](qoco_core::SessionSpec): inline rows go cell by cell
//! into the database, with no JSON tree. The store then writes the spec
//! back out with `spec_json` as the session's `spec.json`, a valid
//! `POST /sessions` body, so the wire and the disk share one format and
//! one decoder. Last, [`SessionMachine::new`] starts the cleaner. The
//! `serve.decode_spec` (fields `bytes`, `rows`) and `store.create` spans
//! split a traced create into those steps.
//!
//! `sessions.active` / `sessions.parked` gauges and the
//! `sessions.reaped` / `serve.rejected` / `journal.write_errors` counters
//! make all of the above observable on `/metrics` and `/health`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qoco_core::{
    decode_spec, SessionMachine, SessionState, SessionStore, SubmitError, SubmitOutcome,
};
use qoco_crowd::{
    parse_tagged_value, tagged_value, Answer, OracleError, PendingQuestion, Question,
};
use qoco_data::{Fact, Schema, Tuple, Value};
use qoco_engine::Assignment;
use qoco_query::Var;
use qoco_telemetry::json::{push_json_str, Json};
use qoco_telemetry::{HttpRequest, HttpResponse, RouteHandler};

// ---------------------------------------------------------------------------
// JSON rendering

fn push_tuple(out: &mut String, t: &Tuple) {
    out.push('[');
    for (i, v) in t.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, &tagged_value(v));
    }
    out.push(']');
}

fn push_fact(out: &mut String, schema: &Schema, f: &Fact) {
    out.push_str("{\"rel\":");
    push_json_str(out, schema.rel_name(f.rel));
    out.push_str(",\"tuple\":");
    push_tuple(out, &f.tuple);
    out.push('}');
}

fn push_assignment(out: &mut String, a: &Assignment) {
    out.push('{');
    for (i, (var, value)) in a.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, var.name());
        out.push(':');
        push_json_str(out, &tagged_value(value));
    }
    out.push('}');
}

/// Render a pending question for the API: the flat envelope (seq, kind,
/// prompt, decision) plus a kind-specific payload rich enough for a
/// remote answerer to answer without access to this process.
fn push_pending(out: &mut String, schema: &Schema, p: &PendingQuestion) {
    out.push_str(&format!("{{\"seq\":{},\"kind\":", p.seq));
    push_json_str(out, p.kind.as_str());
    out.push_str(",\"prompt\":");
    push_json_str(out, &p.prompt);
    out.push_str(",\"decision\":");
    match p.decision {
        Some(d) => out.push_str(&d.to_string()),
        None => out.push_str("null"),
    }
    match &p.question {
        Question::VerifyFact(f) => {
            out.push_str(",\"fact\":");
            push_fact(out, schema, f);
        }
        Question::VerifyAllFacts(facts) => {
            out.push_str(",\"facts\":[");
            for (i, f) in facts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_fact(out, schema, f);
            }
            out.push(']');
        }
        Question::VerifyAnswer { query, answer } => {
            out.push_str(",\"query\":");
            push_json_str(out, query.name());
            out.push_str(",\"answer\":");
            push_tuple(out, answer);
        }
        Question::VerifySatisfiable { query, partial } => {
            out.push_str(",\"query\":");
            push_json_str(out, query.name());
            out.push_str(",\"query_display\":");
            push_json_str(out, &query.display());
            out.push_str(",\"partial\":");
            push_assignment(out, partial);
        }
        Question::Complete { query, partial } => {
            out.push_str(",\"query\":");
            push_json_str(out, query.name());
            out.push_str(",\"query_display\":");
            push_json_str(out, &query.display());
            out.push_str(",\"partial\":");
            push_assignment(out, partial);
        }
        Question::CompleteResult { query, known } => {
            out.push_str(",\"query\":");
            push_json_str(out, query.name());
            out.push_str(",\"known\":[");
            for (i, t) in known.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_tuple(out, t);
            }
            out.push(']');
        }
    }
    out.push('}');
}

fn state_name(state: &SessionState) -> &'static str {
    match state {
        SessionState::AwaitingAnswers(_) => "awaiting",
        SessionState::Finished(_) => "finished",
        SessionState::Failed(_) => "failed",
    }
}

fn error_body(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    push_json_str(&mut out, message);
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------------------
// JSON request decoding

/// Parse a `["s:GER","i:1990"]` tagged-value array into a tuple.
fn tagged_tuple(v: &Json) -> Result<Tuple, String> {
    let items = v.as_array().ok_or("expected a tuple array")?;
    let values: Result<Vec<Value>, String> = items
        .iter()
        .map(|item| {
            let s = item.as_str().ok_or("tuple cells must be tagged strings")?;
            parse_tagged_value(s)
        })
        .collect();
    Ok(Tuple::new(values?))
}

/// Decode one answer item from `POST /answers`. Shapes:
/// `{"seq":1,"bool":true}`, `{"seq":2,"completion":{"x":"s:GER"}|null}`,
/// `{"seq":3,"missing":["s:ITA"]|null}`, `{"seq":4,"fault":"abstain"}`.
fn decode_answer(item: &Json) -> Result<(u64, Result<Answer, OracleError>), String> {
    let seq = item
        .get("seq")
        .and_then(Json::as_f64)
        .filter(|s| s.fract() == 0.0 && *s >= 1.0)
        .ok_or("answer item needs a positive integer `seq`")? as u64;
    if let Some(fault) = item.get("fault") {
        let tag = fault.as_str().ok_or("`fault` must be a string")?;
        let err = OracleError::parse(tag).ok_or_else(|| format!("unknown fault {tag:?}"))?;
        return Ok((seq, Err(err)));
    }
    if let Some(b) = item.get("bool") {
        return match b {
            Json::Bool(b) => Ok((seq, Ok(Answer::Bool(*b)))),
            _ => Err("`bool` must be true or false".to_string()),
        };
    }
    if let Some(completion) = item.get("completion") {
        return match completion {
            Json::Null => Ok((seq, Ok(Answer::Completion(None)))),
            Json::Object(map) => {
                let mut a = Assignment::new();
                for (var, value) in map {
                    let s = value
                        .as_str()
                        .ok_or("completion bindings must be tagged strings")?;
                    a.bind(Var::new(var.clone()), parse_tagged_value(s)?);
                }
                Ok((seq, Ok(Answer::Completion(Some(a)))))
            }
            _ => Err("`completion` must be an object or null".to_string()),
        };
    }
    if let Some(missing) = item.get("missing") {
        return match missing {
            Json::Null => Ok((seq, Ok(Answer::MissingAnswer(None)))),
            arr => Ok((seq, Ok(Answer::MissingAnswer(Some(tagged_tuple(arr)?))))),
        };
    }
    Err("answer item needs one of `bool`, `completion`, `missing`, `fault`".to_string())
}

/// Render one answer as a `POST /answers` item, the shape
/// [`decode_answer`] reads back.
pub fn encode_answer(seq: u64, answer: &Answer) -> String {
    let mut out = format!("{{\"seq\":{seq},");
    match answer {
        Answer::Bool(b) => out.push_str(&format!("\"bool\":{b}")),
        Answer::Completion(None) => out.push_str("\"completion\":null"),
        Answer::Completion(Some(a)) => {
            out.push_str("\"completion\":");
            push_assignment(&mut out, a);
        }
        Answer::MissingAnswer(None) => out.push_str("\"missing\":null"),
        Answer::MissingAnswer(Some(t)) => {
            out.push_str("\"missing\":");
            push_tuple(&mut out, t);
        }
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// the built-in example

/// The paper's Figure 1 fixture (the session created by
/// `{"example":"figure1"}`); canonical definition in [`qoco_core::figure1`].
pub use qoco_core::{figure1_ground, figure1_spec};

// ---------------------------------------------------------------------------
// the registry

/// Tunables for [`SessionRegistry`].
pub struct ServeOptions {
    /// Live (unfinished) session cap; creation beyond it is shed with
    /// `429` and counted into `serve.rejected`.
    pub max_sessions: usize,
    /// Idle deadline applied to sessions whose spec carries none.
    pub default_deadline_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_sessions: 256,
            default_deadline_ms: 600_000,
        }
    }
}

struct LiveSession {
    machine: SessionMachine,
    epoch: u64,
    last_activity: Instant,
}

/// The multi-session registry behind the `/sessions` routes; see the
/// module docs for the protocol.
pub struct SessionRegistry {
    store: SessionStore,
    options: ServeOptions,
    inner: Mutex<BTreeMap<String, LiveSession>>,
}

impl SessionRegistry {
    /// Open the registry over `store`, rehydrating (and epoch-bumping)
    /// every session directory already present — the crash-recovery path.
    pub fn open(store: SessionStore, options: ServeOptions) -> std::io::Result<SessionRegistry> {
        let mut sessions = BTreeMap::new();
        for id in store.list()? {
            let (spec, log) = store.load(&id)?;
            let epoch = store.bump_epoch(&id)?;
            let machine = SessionMachine::rehydrate(spec, log);
            sessions.insert(
                id,
                LiveSession {
                    machine,
                    epoch,
                    last_activity: Instant::now(),
                },
            );
        }
        let registry = SessionRegistry {
            store,
            options,
            inner: Mutex::new(sessions),
        };
        registry.publish_gauges(&registry.lock());
        Ok(registry)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, LiveSession>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sessions currently parked on a question.
    pub fn parked(&self) -> usize {
        self.lock()
            .values()
            .filter(|s| matches!(s.machine.state(), SessionState::AwaitingAnswers(_)))
            .count()
    }

    /// Sessions in the registry (any state).
    pub fn active(&self) -> usize {
        self.lock().len()
    }

    fn publish_gauges(&self, sessions: &BTreeMap<String, LiveSession>) {
        let parked = sessions
            .values()
            .filter(|s| matches!(s.machine.state(), SessionState::AwaitingAnswers(_)))
            .count();
        qoco_telemetry::gauge_set("sessions.active", sessions.len() as f64);
        qoco_telemetry::gauge_set("sessions.parked", parked as f64);
    }

    /// Expire sessions idle past their deadline: record a `dropped` fault
    /// (write-ahead, best-effort on a failing disk) so the cleaner
    /// terminates with a PARTIAL REPORT. Returns the ids reaped.
    pub fn reap_idle(&self) -> Vec<String> {
        let mut sessions = self.lock();
        let mut reaped = Vec::new();
        for (id, live) in sessions.iter_mut() {
            if !matches!(live.machine.state(), SessionState::AwaitingAnswers(_)) {
                continue;
            }
            let deadline = Duration::from_millis(
                live.machine
                    .spec()
                    .deadline_ms
                    .unwrap_or(self.options.default_deadline_ms),
            );
            if live.last_activity.elapsed() < deadline {
                continue;
            }
            if let Some(record) = live.machine.expire() {
                // Best-effort: if the journal is unwritable the in-memory
                // expiry still stands; the record is regenerated on the
                // next rehydration's expiry pass.
                if self.store.append_answer(id, &record).is_err() {
                    qoco_telemetry::counter_add("journal.write_errors", 1);
                }
            }
            qoco_telemetry::counter_add("sessions.reaped", 1);
            reaped.push(id.clone());
        }
        if !reaped.is_empty() {
            self.publish_gauges(&sessions);
        }
        reaped
    }

    /// Direct (non-HTTP) handle to one session's pending question — for
    /// in-process drivers and tests.
    pub fn with_session<T>(
        &self,
        id: &str,
        f: impl FnOnce(&SessionMachine, u64) -> T,
    ) -> Option<T> {
        let sessions = self.lock();
        sessions.get(id).map(|live| f(&live.machine, live.epoch))
    }

    // -- route bodies -------------------------------------------------------

    fn create_session(&self, body: &[u8]) -> HttpResponse {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => {
                return HttpResponse::json("400 Bad Request", error_body("body is not UTF-8"))
            }
        };
        let mut span = qoco_telemetry::span("serve.decode_spec").field("bytes", text.len());
        let spec = match decode_spec(text) {
            Ok(s) => s,
            Err(e) => return HttpResponse::json("400 Bad Request", error_body(&e)),
        };
        span.record("rows", spec.dirty.len());
        span.finish();
        let mut sessions = self.lock();
        let live_count = sessions
            .values()
            .filter(|s| matches!(s.machine.state(), SessionState::AwaitingAnswers(_)))
            .count();
        if live_count >= self.options.max_sessions {
            qoco_telemetry::counter_add("serve.rejected", 1);
            qoco_telemetry::counter_add("serve.rejected.cap", 1);
            return HttpResponse::json(
                "429 Too Many Requests",
                error_body("session limit reached, retry later"),
            );
        }
        let next = sessions
            .keys()
            .filter_map(|id| id.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()))
            .max()
            .unwrap_or(0)
            + 1;
        let id = format!("s{next}");
        qoco_telemetry::set_request_session(&id);
        if let Err(e) = self.store.create(&id, &spec) {
            return HttpResponse::json(
                "500 Internal Server Error",
                error_body(&format!("cannot persist session: {e}")),
            );
        }
        let machine = SessionMachine::new(spec);
        sessions.insert(
            id.clone(),
            LiveSession {
                machine,
                epoch: 1,
                last_activity: Instant::now(),
            },
        );
        self.publish_gauges(&sessions);
        let live = sessions.get(&id).expect("just inserted");
        let body = session_status_body(&id, live);
        HttpResponse::json("201 Created", body)
    }

    fn list_sessions(&self) -> HttpResponse {
        let sessions = self.lock();
        let mut out = String::from("{\"sessions\":[");
        for (i, (id, live)) in sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_json_str(&mut out, id);
            out.push_str(&format!(
                ",\"state\":\"{}\",\"epoch\":{},\"answers\":{}}}",
                state_name(live.machine.state()),
                live.epoch,
                live.machine.log().len()
            ));
        }
        out.push_str("]}\n");
        HttpResponse::json("200 OK", out)
    }

    fn pending_body(&self, id: &str) -> HttpResponse {
        let sessions = self.lock();
        let Some(live) = sessions.get(id) else {
            return HttpResponse::json("404 Not Found", error_body(&format!("no session {id}")));
        };
        HttpResponse::json("200 OK", session_status_body(id, live))
    }

    fn submit_answers(&self, id: &str, body: &[u8]) -> HttpResponse {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => {
                return HttpResponse::json("400 Bad Request", error_body("body is not UTF-8"))
            }
        };
        let json = match Json::parse(text) {
            Ok(j) => j,
            Err(e) => {
                return HttpResponse::json("400 Bad Request", error_body(&format!("bad JSON: {e}")))
            }
        };
        let items = match json.get("answers").and_then(Json::as_array) {
            Some(items) => items,
            None => {
                return HttpResponse::json(
                    "400 Bad Request",
                    error_body("body needs an `answers` array"),
                )
            }
        };
        let mut sessions = self.lock();
        let Some(live) = sessions.get_mut(id) else {
            return HttpResponse::json("404 Not Found", error_body(&format!("no session {id}")));
        };
        // Epoch check: absent means "current"; older is stale (acked, not
        // applied); newer is the client's error.
        let epoch = match json.get("epoch") {
            None => live.epoch,
            Some(e) => match e.as_f64().filter(|v| v.fract() == 0.0 && *v >= 1.0) {
                Some(v) => v as u64,
                None => {
                    return HttpResponse::json(
                        "400 Bad Request",
                        error_body("`epoch` must be a positive integer"),
                    )
                }
            },
        };
        if epoch > live.epoch {
            return HttpResponse::json(
                "409 Conflict",
                error_body(&format!(
                    "epoch {epoch} is ahead of the session epoch {}",
                    live.epoch
                )),
            );
        }
        let stale = epoch < live.epoch;
        let mut status = "200 OK";
        let mut results = String::from("{\"results\":[");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            let (seq, outcome) = match decode_answer(item) {
                Ok(pair) => pair,
                Err(e) => {
                    status = "400 Bad Request";
                    results.push_str("{\"status\":\"malformed\",\"error\":");
                    push_json_str(&mut results, &e);
                    results.push('}');
                    continue;
                }
            };
            results.push_str(&format!("{{\"seq\":{seq},\"status\":"));
            if stale {
                // A pre-crash submitter: everything it could say about
                // this epoch is already in (or lost from) the journal.
                results.push_str("\"stale\"}");
                continue;
            }
            match live.machine.check_submission(seq, &outcome) {
                Ok(SubmitOutcome::Duplicate) => results.push_str("\"duplicate\"}"),
                Ok(SubmitOutcome::Applied) => {
                    // Write-ahead: persist, then apply. An unwritable
                    // journal must not let an unjournaled answer into the
                    // machine — the session is expired in memory instead.
                    let record = live
                        .machine
                        .record_for(outcome.clone())
                        .expect("checked: awaiting");
                    if self.store.append_answer(id, &record).is_err() {
                        qoco_telemetry::counter_add("journal.write_errors", 1);
                        live.machine.expire();
                        live.last_activity = Instant::now();
                        status = "503 Service Unavailable";
                        results.push_str(
                            "\"journal_error\",\"error\":\"journal unwritable; session expired \
                             into a partial report\"}",
                        );
                        continue;
                    }
                    live.machine
                        .submit(seq, outcome)
                        .expect("validated submission");
                    live.last_activity = Instant::now();
                    results.push_str("\"applied\"}");
                }
                Err(e) => {
                    status = match e {
                        SubmitError::NotAwaiting | SubmitError::OutOfOrder { .. } => "409 Conflict",
                        SubmitError::WrongShape | SubmitError::BadFault => "400 Bad Request",
                    };
                    results.push_str("\"rejected\",\"error\":");
                    push_json_str(&mut results, &e.to_string());
                    results.push('}');
                }
            }
        }
        results.push_str("],");
        let live = sessions.get(id).expect("still present");
        let tail = session_status_body(id, live);
        results.push_str(tail.trim_start_matches('{'));
        self.publish_gauges(&sessions);
        HttpResponse::json(status, results)
    }

    fn report_body(&self, id: &str) -> HttpResponse {
        let sessions = self.lock();
        let Some(live) = sessions.get(id) else {
            return HttpResponse::json("404 Not Found", error_body(&format!("no session {id}")));
        };
        match live.machine.state() {
            SessionState::AwaitingAnswers(_) => HttpResponse::json(
                "409 Conflict",
                error_body("session is still awaiting answers"),
            ),
            SessionState::Failed(e) => {
                let mut out = String::from("{\"state\":\"failed\",\"error\":");
                push_json_str(&mut out, e);
                out.push_str("}\n");
                HttpResponse::json("200 OK", out)
            }
            SessionState::Finished(f) => {
                let schema = live.machine.spec().dirty.schema().clone();
                let r = &f.report;
                let mut out = String::from("{\"session\":");
                push_json_str(&mut out, id);
                out.push_str(&format!(
                    ",\"epoch\":{},\"state\":\"finished\",\"partial\":{},\
                     \"iterations\":{},\"wrong_answers\":{},\"missing_answers\":{},\
                     \"questions\":{},\"unresolved\":{},\"edits\":[",
                    live.epoch,
                    r.is_partial(),
                    r.iterations,
                    r.wrong_answers,
                    r.missing_answers,
                    live.machine.log().len(),
                    r.unresolved.len(),
                ));
                for (i, e) in r.edits.edits().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"op\":");
                    push_json_str(
                        &mut out,
                        match e.kind {
                            qoco_data::EditKind::Insert => "insert",
                            qoco_data::EditKind::Delete => "delete",
                        },
                    );
                    out.push_str(",\"fact\":");
                    push_fact(&mut out, &schema, &e.fact);
                    out.push('}');
                }
                out.push_str("],\"report_text\":");
                push_json_str(&mut out, &format!("{r}"));
                out.push_str("}\n");
                HttpResponse::json("200 OK", out)
            }
        }
    }
}

/// The common `{session, epoch, state, pending:[…]}` status object.
fn session_status_body(id: &str, live: &LiveSession) -> String {
    let mut out = String::from("{\"session\":");
    push_json_str(&mut out, id);
    out.push_str(&format!(
        ",\"epoch\":{},\"state\":\"{}\",\"pending\":[",
        live.epoch,
        state_name(live.machine.state())
    ));
    if let Some(p) = live.machine.pending() {
        push_pending(&mut out, live.machine.spec().dirty.schema(), p);
    }
    out.push_str("]}\n");
    out
}

impl RouteHandler for SessionRegistry {
    fn handle(&self, req: &HttpRequest) -> Option<HttpResponse> {
        let route = req.route.as_str();
        match (req.method.as_str(), route) {
            ("POST", "/sessions") => return Some(self.create_session(&req.body)),
            ("GET", "/sessions") => return Some(self.list_sessions()),
            _ => {}
        }
        let rest = route.strip_prefix("/sessions/")?;
        let (id, action) = rest.split_once('/')?;
        if !SessionStore::valid_id(id) {
            return Some(HttpResponse::json(
                "400 Bad Request",
                error_body("malformed session id"),
            ));
        }
        // Tag the in-flight request with the session it touches, for the
        // access log and the /api/requests inspector.
        qoco_telemetry::set_request_session(id);
        match (req.method.as_str(), action) {
            ("GET", "pending") => Some(self.pending_body(id)),
            ("POST", "answers") => Some(self.submit_answers(id, &req.body)),
            ("GET", "report") => Some(self.report_body(id)),
            _ => None,
        }
    }

    fn route_summaries(&self) -> Vec<String> {
        vec![
            "POST /sessions".to_string(),
            "GET /sessions".to_string(),
            "GET /sessions/{id}/pending".to_string(),
            "POST /sessions/{id}/answers".to_string(),
            "GET /sessions/{id}/report".to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_crowd::{Oracle, PerfectOracle};

    #[test]
    fn encoded_answers_decode_to_the_same_answer() {
        let awkward = "back\\slash \"quoted\"\ttab";
        let mut a = Assignment::new();
        a.bind(Var::new("x"), Value::text(awkward));
        a.bind(Var::new(awkward), Value::int(-3));
        let answers = [
            Answer::Bool(true),
            Answer::Bool(false),
            Answer::Completion(Some(a)),
            Answer::Completion(None),
            Answer::MissingAnswer(Some(Tuple::new(vec![
                Value::text(awkward),
                Value::int(1990),
            ]))),
            Answer::MissingAnswer(None),
        ];
        for (i, answer) in answers.iter().enumerate() {
            let seq = i as u64 + 1;
            let item = encode_answer(seq, answer);
            let json = Json::parse(&item).unwrap_or_else(|e| panic!("{item}: {e}"));
            let (got_seq, got) = decode_answer(&json).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(got.as_ref(), Ok(answer), "{item}");
        }
    }

    fn tmp_store(tag: &str) -> SessionStore {
        let dir = std::env::temp_dir().join(format!(
            "qoco-serve-{tag}-{}-{}",
            std::process::id(),
            qoco_telemetry::now_ns()
        ));
        SessionStore::open(dir).unwrap()
    }

    fn post(reg: &SessionRegistry, route: &str, body: &str) -> HttpResponse {
        reg.handle(&HttpRequest {
            method: "POST".to_string(),
            route: route.to_string(),
            query: String::new(),
            body: body.as_bytes().to_vec(),
            request_id: "qr-test".to_string(),
        })
        .expect("route handled")
    }

    fn get(reg: &SessionRegistry, route: &str) -> HttpResponse {
        reg.handle(&HttpRequest {
            method: "GET".to_string(),
            route: route.to_string(),
            query: String::new(),
            body: Vec::new(),
            request_id: "qr-test".to_string(),
        })
        .expect("route handled")
    }

    /// Answer s1's pending questions with the Figure 1 perfect oracle
    /// until the session leaves the awaiting state. Returns request count.
    fn drive(reg: &SessionRegistry, id: &str) -> usize {
        let mut oracle = PerfectOracle::new(figure1_ground());
        let mut rounds = 0;
        while let Some(Some((seq, question))) =
            reg.with_session(id, |m, _| m.pending().map(|p| (p.seq, p.question.clone())))
        {
            let answer = oracle.answer(&question).unwrap();
            let payload = match answer {
                Answer::Bool(b) => format!("{{\"answers\":[{{\"seq\":{seq},\"bool\":{b}}}]}}"),
                Answer::MissingAnswer(None) => {
                    format!("{{\"answers\":[{{\"seq\":{seq},\"missing\":null}}]}}")
                }
                other => panic!("figure1 never asks for {other:?}"),
            };
            let resp = post(reg, &format!("/sessions/{id}/answers"), &payload);
            assert_eq!(resp.status, "200 OK", "{}", resp.body);
            rounds += 1;
            assert!(rounds < 100, "session must converge");
        }
        rounds
    }

    #[test]
    fn create_drive_and_report_a_figure1_session() {
        let reg = SessionRegistry::open(tmp_store("lifecycle"), ServeOptions::default()).unwrap();
        let resp = post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        assert_eq!(resp.status, "201 Created", "{}", resp.body);
        assert!(resp.body.contains("\"session\":\"s1\""), "{}", resp.body);
        assert!(
            resp.body.contains("\"state\":\"awaiting\""),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"seq\":1"), "{}", resp.body);
        // the report is not available while parked
        let resp = get(&reg, "/sessions/s1/report");
        assert_eq!(resp.status, "409 Conflict", "{}", resp.body);
        drive(&reg, "s1");
        let resp = get(&reg, "/sessions/s1/report");
        assert_eq!(resp.status, "200 OK", "{}", resp.body);
        assert!(resp.body.contains("\"partial\":false"), "{}", resp.body);
        assert!(resp.body.contains("\"wrong_answers\":1"), "{}", resp.body);
        assert!(
            resp.body.contains("\"op\":\"delete\""),
            "the false final must be deleted: {}",
            resp.body
        );
        assert!(resp.body.contains("12.07.98"), "{}", resp.body);
        // listing shows the finished session
        let resp = get(&reg, "/sessions");
        assert!(
            resp.body.contains("\"state\":\"finished\""),
            "{}",
            resp.body
        );
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn unknown_sessions_and_bad_bodies_are_client_errors() {
        let reg = SessionRegistry::open(tmp_store("errors"), ServeOptions::default()).unwrap();
        assert_eq!(get(&reg, "/sessions/s9/pending").status, "404 Not Found");
        assert_eq!(get(&reg, "/sessions/s9/report").status, "404 Not Found");
        let resp = post(&reg, "/sessions", "not json");
        assert_eq!(resp.status, "400 Bad Request");
        let resp = post(&reg, "/sessions", "{\"example\":\"figure9\"}");
        assert_eq!(resp.status, "400 Bad Request");
        let resp = post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        assert_eq!(resp.status, "201 Created");
        let resp = post(&reg, "/sessions/s1/answers", "{\"answers\":\"nope\"}");
        assert_eq!(resp.status, "400 Bad Request");
        // wrong shape for a boolean question
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"answers\":[{\"seq\":1,\"missing\":null}]}",
        );
        assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
        // timeouts cannot be recorded
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"answers\":[{\"seq\":1,\"fault\":\"timeout\"}]}",
        );
        assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
        // out-of-order future seq
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"answers\":[{\"seq\":40,\"bool\":true}]}",
        );
        assert_eq!(resp.status, "409 Conflict", "{}", resp.body);
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn duplicates_and_stale_epochs_are_acknowledged_not_applied() {
        let reg = SessionRegistry::open(tmp_store("idem"), ServeOptions::default()).unwrap();
        post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":1,\"answers\":[{\"seq\":1,\"bool\":true}]}",
        );
        assert!(
            resp.body.contains("\"status\":\"applied\""),
            "{}",
            resp.body
        );
        let log_len = reg.with_session("s1", |m, _| m.log().len()).unwrap();
        // exact duplicate: acknowledged, log unchanged
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":1,\"answers\":[{\"seq\":1,\"bool\":true}]}",
        );
        assert_eq!(resp.status, "200 OK", "{}", resp.body);
        assert!(
            resp.body.contains("\"status\":\"duplicate\""),
            "{}",
            resp.body
        );
        assert_eq!(
            reg.with_session("s1", |m, _| m.log().len()).unwrap(),
            log_len
        );
        // a conflicting duplicate is also just acknowledged: the journal
        // already holds what the session consumed
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":1,\"answers\":[{\"seq\":1,\"bool\":false}]}",
        );
        assert!(
            resp.body.contains("\"status\":\"duplicate\""),
            "{}",
            resp.body
        );
        // stale epoch: acknowledged, not applied
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":0,\"answers\":[{\"seq\":2,\"bool\":true}]}",
        );
        assert_eq!(resp.status, "400 Bad Request", "{}", resp.body); // epoch 0 invalid
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":9,\"answers\":[{\"seq\":2,\"bool\":true}]}",
        );
        assert_eq!(resp.status, "409 Conflict", "{}", resp.body);
        assert_eq!(
            reg.with_session("s1", |m, _| m.log().len()).unwrap(),
            log_len
        );
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn restart_rehydrates_and_stales_the_old_epoch() {
        let store = tmp_store("restart");
        let root = store.root().to_path_buf();
        let reg = SessionRegistry::open(store, ServeOptions::default()).unwrap();
        post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":1,\"answers\":[{\"seq\":1,\"bool\":true}]}",
        );
        let pending_before = reg
            .with_session("s1", |m, _| m.pending().map(|p| (p.seq, p.prompt.clone())))
            .unwrap();
        drop(reg); // kill -9

        let reg =
            SessionRegistry::open(SessionStore::open(&root).unwrap(), ServeOptions::default())
                .unwrap();
        let (epoch, pending_after) = reg
            .with_session("s1", |m, e| {
                (e, m.pending().map(|p| (p.seq, p.prompt.clone())))
            })
            .unwrap();
        assert_eq!(epoch, 2, "restart bumps the epoch");
        assert_eq!(pending_after, pending_before, "parked on the same question");
        // an answer from before the crash is stale now
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"epoch\":1,\"answers\":[{\"seq\":2,\"bool\":true}]}",
        );
        assert_eq!(resp.status, "200 OK", "{}", resp.body);
        assert!(resp.body.contains("\"status\":\"stale\""), "{}", resp.body);
        assert_eq!(reg.with_session("s1", |m, _| m.log().len()).unwrap(), 1);
        // the current epoch still works and the session completes
        drive(&reg, "s1");
        let resp = get(&reg, "/sessions/s1/report");
        assert!(resp.body.contains("\"partial\":false"), "{}", resp.body);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_torn_create_does_not_block_restart() {
        let store = tmp_store("torn-create");
        let root = store.root().to_path_buf();
        let reg = SessionRegistry::open(store, ServeOptions::default()).unwrap();
        post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        drop(reg);
        // a create killed after writing spec.json, before the journal
        let torn = root.join(".s2.staging");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::copy(root.join("s1").join("spec.json"), torn.join("spec.json")).unwrap();

        let reg =
            SessionRegistry::open(SessionStore::open(&root).unwrap(), ServeOptions::default())
                .unwrap();
        assert_eq!(reg.active(), 1, "exactly the one real session rehydrates");
        assert_eq!(reg.with_session("s1", |_, epoch| epoch), Some(2));
        assert!(!torn.exists(), "the staging dir is cleaned up");
        let resp = post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        assert_eq!(resp.status, "201 Created", "{}", resp.body);
        assert!(resp.body.contains("\"s2\""), "{}", resp.body);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn session_cap_sheds_creation_with_429() {
        let reg = SessionRegistry::open(
            tmp_store("cap"),
            ServeOptions {
                max_sessions: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            post(&reg, "/sessions", "{\"example\":\"figure1\"}").status,
            "201 Created"
        );
        let resp = post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        assert_eq!(resp.status, "429 Too Many Requests", "{}", resp.body);
        // finishing the parked session frees the slot
        drive(&reg, "s1");
        assert_eq!(
            post(&reg, "/sessions", "{\"example\":\"figure1\"}").status,
            "201 Created"
        );
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn reaper_expires_idle_sessions_into_partial_reports() {
        let reg = SessionRegistry::open(tmp_store("reap"), ServeOptions::default()).unwrap();
        post(
            &reg,
            "/sessions",
            "{\"example\":\"figure1\",\"deadline_ms\":1}",
        );
        assert_eq!(reg.parked(), 1);
        std::thread::sleep(Duration::from_millis(10));
        let reaped = reg.reap_idle();
        assert_eq!(reaped, vec!["s1".to_string()]);
        assert_eq!(reg.parked(), 0);
        let resp = get(&reg, "/sessions/s1/report");
        assert_eq!(resp.status, "200 OK", "{}", resp.body);
        assert!(resp.body.contains("\"partial\":true"), "{}", resp.body);
        assert!(resp.body.contains("PARTIAL REPORT"), "{}", resp.body);
        // a second pass finds nothing left to reap
        assert!(reg.reap_idle().is_empty());
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn journal_write_failure_degrades_to_partial_not_panic() {
        let reg = SessionRegistry::open(tmp_store("wal-fail"), ServeOptions::default()).unwrap();
        post(&reg, "/sessions", "{\"example\":\"figure1\"}");
        reg.store.fail_appends(true);
        let resp = post(
            &reg,
            "/sessions/s1/answers",
            "{\"answers\":[{\"seq\":1,\"bool\":true}]}",
        );
        assert_eq!(resp.status, "503 Service Unavailable", "{}", resp.body);
        assert!(
            resp.body.contains("\"status\":\"journal_error\""),
            "{}",
            resp.body
        );
        let resp = get(&reg, "/sessions/s1/report");
        assert_eq!(resp.status, "200 OK", "{}", resp.body);
        assert!(resp.body.contains("\"partial\":true"), "{}", resp.body);
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    const TEAMS_SCHEMA: &str = r#""schema":[{"name":"Teams","attrs":["country","continent"]}],
        "query":"Q(x) :- Teams(x, \"EU\")""#;

    #[test]
    fn a_relation_named_twice_in_rows_is_rejected_not_truncated() {
        let reg = SessionRegistry::open(tmp_store("dup-rows"), ServeOptions::default()).unwrap();
        let body = format!(
            r#"{{{TEAMS_SCHEMA},"rows":{{"Teams":[["BRA","EU"]],"Teams":[["ITA","EU"]]}}}}"#
        );
        let resp = post(&reg, "/sessions", &body);
        assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
        assert!(
            resp.body.contains("rows for Teams appear twice"),
            "{}",
            resp.body
        );
        assert_eq!(reg.active(), 0);
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn rows_nested_past_the_depth_limit_get_a_400() {
        let reg = SessionRegistry::open(tmp_store("deep-rows"), ServeOptions::default()).unwrap();
        let deep = "[".repeat(10_000);
        for body in [
            format!(r#"{{"rows":{deep}"#),
            format!(r#"{{{TEAMS_SCHEMA},"rows":{{"Teams":{deep}"#),
        ] {
            let resp = post(&reg, "/sessions", &body);
            assert_eq!(resp.status, "400 Bad Request", "{}", resp.body);
            assert!(resp.body.contains("nesting too deep"), "{}", resp.body);
        }
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn a_traced_create_records_decode_and_store_spans_once() {
        use qoco_telemetry::InMemoryCollector;
        let reg = SessionRegistry::open(tmp_store("spans"), ServeOptions::default()).unwrap();
        let body = format!(r#"{{{TEAMS_SCHEMA},"rows":{{"Teams":[["BRA","EU"],["ITA","EU"]]}}}}"#);
        let collector = std::sync::Arc::new(InMemoryCollector::new());
        let guard = qoco_telemetry::session(collector.clone());
        // other tests may create sessions meanwhile: count only the spans
        // opened under this one
        let root = qoco_telemetry::span("test.create");
        let root_id = qoco_telemetry::current_span_id().expect("tracing is on");
        let resp = post(&reg, "/sessions", &body);
        drop(root);
        drop(guard);
        assert_eq!(resp.status, "201 Created", "{}", resp.body);
        let spans: Vec<_> = collector
            .spans()
            .into_iter()
            .filter(|s| s.parent == Some(root_id))
            .collect();
        let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let decode = named("serve.decode_spec");
        assert_eq!(decode.len(), 1, "{spans:?}");
        assert_eq!(
            decode[0].field("bytes"),
            Some(body.len().to_string().as_str())
        );
        assert_eq!(decode[0].field("rows"), Some("2"));
        assert_eq!(named("store.create").len(), 1, "{spans:?}");
        std::fs::remove_dir_all(reg.store.root()).ok();
    }

    #[test]
    fn inline_specs_round_trip_through_the_api() {
        let reg = SessionRegistry::open(tmp_store("inline"), ServeOptions::default()).unwrap();
        let resp = post(
            &reg,
            "/sessions",
            r#"{"schema":[{"name":"Teams","attrs":["country","continent"]}],
                "rows":{"Teams":[["BRA","EU"],["ITA","EU"]]},
                "query":"Q(x) :- Teams(x, \"EU\")",
                "deletion":"qoco-","split":"naive","deadline_ms":60000}"#,
        );
        assert_eq!(resp.status, "201 Created", "{}", resp.body);
        assert!(
            resp.body.contains("\"state\":\"awaiting\""),
            "{}",
            resp.body
        );
        std::fs::remove_dir_all(reg.store.root()).ok();
    }
}
