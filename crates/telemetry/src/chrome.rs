//! Chrome trace-event exporter.
//!
//! Serializes collected [`SpanRecord`]s and [`EventRecord`]s into the
//! [Chrome trace-event format], the JSON dialect understood by
//! `chrome://tracing` and [Perfetto] (ui.perfetto.dev → "Open trace
//! file"). Spans become `"ph":"X"` complete events and point events become
//! `"ph":"i"` instants; each telemetry thread ordinal (see
//! [`crate::thread_ordinal`]) maps to its own track, so spans opened on
//! qoco-serve's threads (connection workers, parked session cleaners) get
//! lanes of their own.
//!
//! The output uses the *object* form (`{"traceEvents":[…]}`), which both
//! viewers accept and which leaves room for top-level metadata. Timestamps
//! are microseconds (the format's unit) with nanosecond precision kept in
//! the fractional part.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [Perfetto]: https://perfetto.dev

use std::collections::BTreeSet;

use crate::decision::DecisionRecord;
use crate::json::push_json_str;
use crate::span::{EventRecord, SpanRecord};

/// Microseconds with the sub-µs remainder preserved (trace-event `ts`/`dur`
/// are µs doubles).
fn push_us(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

fn push_common(out: &mut String, name: &str, ph: char, tid: u64, ts_ns: u64) {
    // Alert lifecycle instants get their own category so Perfetto's
    // category filter can isolate the SLO story from the span soup.
    let cat = if name.starts_with("alert.") {
        "alert"
    } else {
        "qoco"
    };
    out.push_str("{\"name\":");
    push_json_str(out, name);
    out.push_str(&format!(
        ",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":"
    ));
    push_us(out, ts_ns);
}

/// Render `spans` and `events` as one Chrome trace-event JSON document
/// (object form). Includes `thread_name` metadata so viewers label each
/// track `thread N`.
pub fn chrome_trace_json(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    chrome_trace_json_full(spans, events, &[])
}

/// [`chrome_trace_json`] plus decision provenance: each [`DecisionRecord`]
/// becomes a `"ph":"i"` instant whose `args` carry the full structured
/// cause (decision id, question, outcome, and every evidence pair), so the
/// "why was this question asked" answer is one click away in Perfetto.
pub fn chrome_trace_json_full(
    spans: &[SpanRecord],
    events: &[EventRecord],
    decisions: &[DecisionRecord],
) -> String {
    let mut out = String::with_capacity(256 + 160 * (spans.len() + events.len() + decisions.len()));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
    };

    // One process_name + one thread_name metadata record per track.
    sep(&mut out);
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"qoco\"}}");
    let tids: BTreeSet<u64> = spans
        .iter()
        .map(|s| s.thread)
        .chain(events.iter().map(|e| e.thread))
        .chain(decisions.iter().map(|d| d.thread))
        .collect();
    for &tid in &tids {
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"thread {tid}\"}}}},\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}"));
    }

    for s in spans {
        sep(&mut out);
        push_common(&mut out, s.name, 'X', s.thread, s.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, s.duration_ns);
        out.push_str(&format!(",\"args\":{{\"span_id\":\"{}\"", s.id));
        if let Some(p) = s.parent {
            out.push_str(&format!(",\"parent\":\"{p}\""));
        }
        for (k, v) in &s.fields {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            push_json_str(&mut out, v);
        }
        out.push_str("}}");
    }

    for e in events {
        sep(&mut out);
        push_common(&mut out, e.name, 'i', e.thread, e.at_ns);
        // "t": thread-scoped instant (a tick on the emitting track)
        out.push_str(",\"s\":\"t\",\"args\":{\"detail\":");
        push_json_str(&mut out, &e.detail);
        if let Some(span) = e.span {
            out.push_str(&format!(",\"span_id\":\"{span}\""));
        }
        out.push_str("}}");
    }

    for d in decisions {
        sep(&mut out);
        push_common(&mut out, d.kind, 'i', d.thread, d.at_ns);
        out.push_str(&format!(
            ",\"s\":\"t\",\"args\":{{\"decision_id\":\"{}\",\"question\":",
            d.id
        ));
        push_json_str(&mut out, &d.question);
        out.push_str(",\"outcome\":");
        push_json_str(&mut out, &d.outcome);
        if let Some(span) = d.span {
            out.push_str(&format!(",\"span_id\":\"{span}\""));
        }
        if let Some(request) = &d.request {
            out.push_str(",\"request\":");
            push_json_str(&mut out, request);
        }
        for (k, v) in &d.evidence {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            push_json_str(&mut out, v);
        }
        out.push_str("}}");
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, thread: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: if id > 1 { Some(1) } else { None },
            name,
            thread,
            start_ns: start,
            duration_ns: dur,
            fields: vec![("k", "v\"q".to_string())],
        }
    }

    #[test]
    fn object_form_with_spans_and_instants() {
        let spans = vec![
            span(1, "clean.session", 0, 0, 2_500),
            span(2, "serve.request", 1, 500, 1_000),
        ];
        let events = vec![EventRecord {
            at_ns: 700,
            span: Some(1),
            thread: 0,
            name: "crowd.verify_fact",
            detail: "Teams(BRA, EU)".to_string(),
        }];
        let json = chrome_trace_json(&spans, &events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""ts":0.500,"dur":1.000"#));
        assert!(json.contains(r#""tid":1"#));
        assert!(json.contains(r#""name":"thread 1""#));
        assert!(json.contains(r#""name":"thread 0""#));
        assert!(json.contains(r#""parent":"1""#));
        assert!(json.contains(r#""k":"v\"q""#));
    }

    #[test]
    fn alert_instants_carry_their_own_category() {
        let events = vec![EventRecord {
            at_ns: 42,
            span: None,
            thread: 0,
            name: "alert.firing",
            detail: "crowd_errors -> firing (value 6.000)".to_string(),
        }];
        let json = chrome_trace_json(&[], &events);
        assert!(
            json.contains(r#""name":"alert.firing","cat":"alert""#),
            "{json}"
        );
        assert!(json.contains(r#""ph":"i""#));
    }

    #[test]
    fn empty_input_is_still_valid() {
        let json = chrome_trace_json(&[], &[]);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn decisions_become_instants_with_structured_args() {
        let decisions = vec![DecisionRecord {
            id: 4,
            at_ns: 900,
            span: Some(1),
            thread: 0,
            kind: "deletion.verify_fact",
            question: "TRUE(g98)?".to_string(),
            outcome: "false".to_string(),
            evidence: vec![("ranking", "g98=2 > g10=2".to_string())],
            request: None,
        }];
        let json =
            chrome_trace_json_full(&[span(1, "clean.session", 0, 0, 2_000)], &[], &decisions);
        assert!(json.contains(r#""name":"deletion.verify_fact""#));
        assert!(json.contains(r#""decision_id":"4""#));
        assert!(json.contains(r#""question":"TRUE(g98)?""#));
        assert!(json.contains(r#""outcome":"false""#));
        assert!(json.contains(r#""ranking":"g98=2 > g10=2""#));
    }

    #[test]
    fn sub_microsecond_precision_is_kept() {
        let mut s = String::new();
        push_us(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        let mut s = String::new();
        push_us(&mut s, 7);
        assert_eq!(s, "0.007");
    }
}
