//! Structural validation of exported Chrome trace files.
//!
//! `scripts/ci.sh` exports a trace from the smoke-run and needs to know it
//! is actually loadable — without shelling out to python or a browser. The
//! checks here mirror what Perfetto requires of the trace-event format:
//! valid JSON in array or object form and complete (`ph: "X"`) events
//! with numeric timestamps.

use std::collections::BTreeSet;

use crate::json::Json;

/// Summary of a structurally valid trace.
#[derive(Debug)]
pub struct TraceSummary {
    /// Number of `ph: "X"` complete events.
    pub complete_events: usize,
    /// Distinct `tid` values among the complete events.
    pub thread_tracks: usize,
    /// Distinct span names among the complete events.
    pub span_names: BTreeSet<String>,
}

/// Validate `text` as a Chrome trace-event document. `require_spans`
/// lists span names that must each appear at least once.
pub fn validate_trace(text: &str, require_spans: &[String]) -> Result<TraceSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    // Both documented forms: a bare event array, or an object whose
    // "traceEvents" key holds one.
    let events = match &doc {
        Json::Array(items) => items.as_slice(),
        Json::Object(_) => doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or("object-form trace has no \"traceEvents\" array")?,
        _ => return Err("trace document is neither an array nor an object".to_string()),
    };

    let mut complete_events = 0usize;
    let mut tids = BTreeSet::new();
    let mut span_names = BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] has no \"ph\""))?;
        if ph != "X" {
            continue;
        }
        for field in ["ts", "dur", "pid", "tid"] {
            ev.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("traceEvents[{i}] ({ph}) missing numeric \"{field}\""))?;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing \"name\""))?;
        complete_events += 1;
        tids.insert(ev.get("tid").unwrap().as_f64().unwrap() as u64);
        span_names.insert(name.to_string());
    }

    if complete_events == 0 {
        return Err("trace contains no complete (ph=X) events".to_string());
    }
    for want in require_spans {
        if !span_names.contains(want) {
            return Err(format!(
                "required span \"{want}\" not found (trace has: {span_names:?})"
            ));
        }
    }
    Ok(TraceSummary {
        complete_events,
        thread_tracks: tids.len(),
        span_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u64) -> String {
        format!(r#"{{"name": "{name}", "ph": "X", "ts": 1.5, "dur": 2.0, "pid": 1, "tid": {tid}}}"#)
    }

    #[test]
    fn accepts_array_and_object_forms() {
        let body = format!("[{},{}]", event("a", 0), event("b", 1));
        let s = validate_trace(&body, &[]).unwrap();
        assert_eq!(s.complete_events, 2);
        assert_eq!(s.thread_tracks, 2);
        let wrapped = format!("{{\"traceEvents\": {body}}}");
        assert!(validate_trace(&wrapped, &[]).is_ok());
    }

    #[test]
    fn rejects_missing_spans() {
        let body = format!("[{},{}]", event("a", 0), event("b", 0));
        let err = validate_trace(&body, &["missing.span".to_string()]).unwrap_err();
        assert!(err.contains("missing.span"), "{err}");
        assert!(validate_trace(&body, &["a".to_string()]).is_ok());
    }

    #[test]
    fn rejects_empty_and_malformed_traces() {
        assert!(validate_trace("[]", &[]).is_err());
        assert!(validate_trace("{\"traceEvents\": []}", &[]).is_err());
        assert!(validate_trace("{}", &[]).is_err());
        assert!(validate_trace("not json", &[]).is_err());
        // metadata-only traces have no complete events
        let meta = r#"[{"name": "process_name", "ph": "M", "pid": 1}]"#;
        assert!(validate_trace(meta, &[]).is_err());
    }
}
