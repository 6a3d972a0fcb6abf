//! `validate-requests` — the request-provenance correctness gate.
//!
//! PR 10 threads a request id from the HTTP edge down to the journal:
//! the serve layer stamps it on the `serve.request` span, the access-log
//! line, every [`DecisionRecord`] made while the request is in flight,
//! and the `r=` field of every journal line the request caused. This
//! gate replays the three artifacts of a serve run — access log,
//! `--telemetry` JSONL export, session journals — and cross-checks them:
//!
//! 1. **strict access-log parse** — every line must be a complete
//!    `{"type":"access",…}` object with a non-empty request id and the
//!    full field set. A torn or corrupted line fails the gate (the
//!    access *writer* is lossy by design, but what reaches disk must be
//!    whole).
//! 2. **spans ⊆ access** — every `serve.request` span's request id must
//!    appear in the access log: a span without a logged request means a
//!    request finished without being accounted for.
//! 3. **access ⊆ spans** — every logged request that got past the
//!    request-line/body rejects (those never reach the span-wrapped
//!    dispatch) must have a matching `serve.request` span.
//! 4. **journal ⊆ access** — every `r=` provenance field in a journal
//!    must name a logged request: an unlogged id on a durable journal
//!    line means provenance was invented or the log lost a line it
//!    should not have.
//! 5. **decisions ⊆ access** — same containment for the `"request"` key
//!    of decision JSONL lines.
//!
//! Because a rehydrated session's replayed decisions carry the request
//! ids its journal recorded, the gate holds across a `kill -9` + resume
//! as long as the artifacts of both incarnations are passed in together.
//!
//! [`DecisionRecord`]: qoco_telemetry::DecisionRecord

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use qoco_crowd::Journal;
use qoco_telemetry::DecisionLine;

/// Reject statuses produced before the span-wrapped dispatch runs: the
/// request-line/header/body limits (408, 413, 414, 431) and load
/// shedding (429). Their access-log lines legitimately have no
/// `serve.request` span.
const PRE_DISPATCH_STATUSES: [u64; 5] = [408, 413, 414, 429, 431];

/// What [`validate_requests`] verified, for the success banner.
#[derive(Debug)]
pub struct RequestCheckSummary {
    /// Access-log lines parsed (across all files).
    pub access_lines: usize,
    /// Distinct request ids seen in the access log.
    pub distinct_ids: usize,
    /// `serve.request` spans matched against the log.
    pub spans: usize,
    /// Journal records carrying an `r=` provenance field.
    pub journal_tagged: usize,
    /// Decision records carrying a request id.
    pub decisions_tagged: usize,
}

/// One parsed access-log line, in file order.
struct AccessEntry {
    request: String,
    status: u64,
}

fn parse_access_line(line: &str, lineno: usize, file: &str) -> Result<AccessEntry, String> {
    let at = |msg: &str| format!("{file}:{lineno}: {msg}: {line:?}");
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err(at("torn or truncated access-log line"));
    }
    let json = Json::parse(line).map_err(|e| at(&format!("bad JSON ({e})")))?;
    match json.get("type").and_then(Json::as_str) {
        Some("access") => {}
        _ => return Err(at("line is not an access record")),
    }
    let request = json
        .get("request")
        .and_then(Json::as_str)
        .filter(|r| !r.is_empty())
        .ok_or_else(|| at("missing or empty request id"))?
        .to_string();
    for key in ["method", "route"] {
        if json.get(key).and_then(Json::as_str).is_none() {
            return Err(at(&format!("missing string field `{key}`")));
        }
    }
    let mut numbers = [0u64; 3];
    for (slot, key) in numbers.iter_mut().zip(["status", "bytes", "latency_ns"]) {
        *slot = json
            .get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .ok_or_else(|| at(&format!("missing numeric field `{key}`")))? as u64;
    }
    Ok(AccessEntry {
        request,
        status: numbers[0],
    })
}

/// Request ids found in a `--telemetry` JSONL export, split by record
/// kind. Lines that are not spans/decisions are ignored (metrics,
/// events, samples all share the stream).
struct TelemetryIds {
    /// Request id of every `serve.request` span.
    span_ids: Vec<String>,
    /// Request id of every decision line that carries one.
    decision_ids: Vec<String>,
}

fn scan_telemetry(text: &str, file: &str) -> Result<TelemetryIds, String> {
    let mut ids = TelemetryIds {
        span_ids: Vec::new(),
        decision_ids: Vec::new(),
    };
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let json = Json::parse(line)
            .map_err(|e| format!("{file}:{}: bad telemetry JSON ({e}): {line:?}", i + 1))?;
        match json.get("type").and_then(Json::as_str) {
            Some("span") if json.get("name").and_then(Json::as_str) == Some("serve.request") => {
                let request = json
                    .get("fields")
                    .and_then(|f| f.get("request"))
                    .and_then(Json::as_str)
                    .filter(|r| !r.is_empty())
                    .ok_or_else(|| {
                        format!(
                            "{file}:{}: serve.request span without a request field: {line:?}",
                            i + 1
                        )
                    })?;
                ids.span_ids.push(request.to_string());
            }
            Some("decision") => {
                let decision = DecisionLine::from_json(&json)
                    .map_err(|e| format!("{file}:{}: {e}: {line:?}", i + 1))?;
                ids.decision_ids.extend(decision.and_then(|d| d.request));
            }
            _ => {}
        }
    }
    Ok(ids)
}

/// Run the request-provenance gate over the artifacts of one (possibly
/// killed-and-resumed) serve run. Each argument is `(file name, file
/// contents)`; `require` lists request ids that must additionally appear
/// in the access log, on a span, *and* on a journal line.
pub fn validate_requests(
    access_logs: &[(String, String)],
    telemetry: &[(String, String)],
    journals: &[(String, String)],
    require: &[String],
) -> Result<RequestCheckSummary, String> {
    if access_logs.is_empty() {
        return Err("no access log given (--access-log FILE)".to_string());
    }

    // 1. strict parse; remember how often each id was logged.
    let mut entries: Vec<AccessEntry> = Vec::new();
    for (file, text) in access_logs {
        for (i, line) in text.lines().enumerate() {
            entries.push(parse_access_line(line, i + 1, file)?);
        }
    }
    if entries.is_empty() {
        return Err("access log is empty — the run logged nothing".to_string());
    }
    let mut logged: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &entries {
        *logged.entry(e.request.as_str()).or_insert(0) += 1;
    }

    // 2 + 3. spans ⊆ access and access ⊆ spans (past the pre-dispatch
    // rejects).
    let mut span_ids: BTreeSet<String> = BTreeSet::new();
    let mut decision_ids: Vec<String> = Vec::new();
    let mut spans = 0usize;
    for (file, text) in telemetry {
        let ids = scan_telemetry(text, file)?;
        for id in &ids.span_ids {
            if !logged.contains_key(id.as_str()) {
                return Err(format!(
                    "{file}: serve.request span for {id:?} has no access-log line"
                ));
            }
        }
        spans += ids.span_ids.len();
        span_ids.extend(ids.span_ids);
        decision_ids.extend(ids.decision_ids);
    }
    if !telemetry.is_empty() {
        for e in &entries {
            if PRE_DISPATCH_STATUSES.contains(&e.status) {
                continue;
            }
            if !span_ids.contains(&e.request) {
                return Err(format!(
                    "request {:?} (status {}) was logged but produced no serve.request span",
                    e.request, e.status
                ));
            }
        }
    }

    // 4. journal r= fields ⊆ access.
    let mut journal_tagged = 0usize;
    for (file, text) in journals {
        let log = Journal::parse(text).map_err(|e| format!("{file}: bad journal: {e}"))?;
        for record in &log {
            if let Some(rid) = &record.request {
                if !logged.contains_key(rid.as_str()) {
                    return Err(format!(
                        "{file}: journal seq {} names request {rid:?}, which the access log \
                         never saw",
                        record.seq
                    ));
                }
                journal_tagged += 1;
            }
        }
    }

    // 5. decision request ids ⊆ access.
    for id in &decision_ids {
        if !logged.contains_key(id.as_str()) {
            return Err(format!(
                "decision record names request {id:?}, which the access log never saw"
            ));
        }
    }

    // Named ids must have made it all the way down.
    for id in require {
        if !logged.contains_key(id.as_str()) {
            return Err(format!("required request {id:?} is not in the access log"));
        }
        if !telemetry.is_empty() && !span_ids.contains(id) {
            return Err(format!("required request {id:?} has no serve.request span"));
        }
        if !journals.is_empty() && journal_tagged == 0 {
            return Err(format!(
                "required request {id:?}: no journal line carries any r= provenance"
            ));
        }
    }

    Ok(RequestCheckSummary {
        access_lines: entries.len(),
        distinct_ids: logged.len(),
        spans,
        journal_tagged,
        decisions_tagged: decision_ids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(id: &str, status: u64) -> String {
        format!(
            "{{\"type\":\"access\",\"at_ns\":1,\"request\":\"{id}\",\"method\":\"GET\",\
             \"route\":\"/health\",\"status\":{status},\"bytes\":3,\"latency_ns\":900}}"
        )
    }

    fn span(id: &str) -> String {
        format!(
            "{{\"type\":\"span\",\"id\":1,\"name\":\"serve.request\",\"tid\":0,\
             \"start_ns\":0,\"dur_ns\":5,\"fields\":{{\"request\":\"{id}\",\
             \"method\":\"GET\",\"route\":\"/health\"}}}}"
        )
    }

    fn files(name: &str, lines: &[String]) -> Vec<(String, String)> {
        // Trailing newline: Journal::parse treats an unterminated final
        // line as a crash artifact and drops it.
        vec![(name.to_string(), lines.join("\n") + "\n")]
    }

    #[test]
    fn a_consistent_run_passes() {
        let summary = validate_requests(
            &files("a.jsonl", &[access("qr-1", 200), access("qr-2", 404)]),
            &files("t.jsonl", &[span("qr-1"), span("qr-2")]),
            &files(
                "session.journal",
                &["1\tverify_fact\tok:bool:true\td=1\tr=qr-1".to_string()],
            ),
            &["qr-1".to_string()],
        )
        .expect("consistent artifacts");
        assert_eq!(summary.access_lines, 2);
        assert_eq!(summary.distinct_ids, 2);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.journal_tagged, 1);
    }

    #[test]
    fn a_corrupted_access_line_fails_the_strict_parse() {
        let torn = access("qr-1", 200);
        let torn = &torn[..torn.len() - 4]; // chop mid-field
        let err =
            validate_requests(&files("a.jsonl", &[torn.to_string()]), &[], &[], &[]).unwrap_err();
        assert!(err.contains("torn or truncated"), "{err}");
        let err =
            validate_requests(&files("a.jsonl", &[access("", 200)]), &[], &[], &[]).unwrap_err();
        assert!(err.contains("missing or empty request id"), "{err}");
    }

    #[test]
    fn an_unlogged_span_or_journal_id_fails() {
        let err = validate_requests(
            &files("a.jsonl", &[access("qr-1", 200)]),
            &files("t.jsonl", &[span("qr-1"), span("ghost")]),
            &[],
            &[],
        )
        .unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        let err = validate_requests(
            &files("a.jsonl", &[access("qr-1", 200)]),
            &files("t.jsonl", &[span("qr-1")]),
            &files(
                "session.journal",
                &["1\tverify_fact\tok:bool:true\tr=phantom".to_string()],
            ),
            &[],
        )
        .unwrap_err();
        assert!(err.contains("phantom"), "{err}");
    }

    #[test]
    fn a_spanless_dispatched_request_fails_but_rejects_are_exempt() {
        // 413 never reaches dispatch: no span required.
        validate_requests(
            &files("a.jsonl", &[access("qr-1", 200), access("qr-2", 413)]),
            &files("t.jsonl", &[span("qr-1")]),
            &[],
            &[],
        )
        .expect("pre-dispatch reject needs no span");
        // ...but a 200 with no span is a hole in the trace.
        let err = validate_requests(
            &files("a.jsonl", &[access("qr-1", 200), access("qr-2", 200)]),
            &files("t.jsonl", &[span("qr-1")]),
            &[],
            &[],
        )
        .unwrap_err();
        assert!(err.contains("no serve.request span"), "{err}");
    }

    #[test]
    fn required_ids_must_reach_every_layer() {
        let err = validate_requests(
            &files("a.jsonl", &[access("qr-1", 200)]),
            &files("t.jsonl", &[span("qr-1")]),
            &[],
            &["absent".to_string()],
        )
        .unwrap_err();
        assert!(err.contains("not in the access log"), "{err}");
        let err = validate_requests(
            &files("a.jsonl", &[access("qr-1", 200)]),
            &files("t.jsonl", &[span("qr-1")]),
            &files(
                "session.journal",
                &["1\tverify_fact\tok:bool:true".to_string()],
            ),
            &["qr-1".to_string()],
        )
        .unwrap_err();
        assert!(err.contains("no journal line"), "{err}");
    }
}
