//! Collector backends: where finished spans and events go.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::decision::DecisionRecord;
use crate::json::push_json_str;
use crate::metrics::MetricsSnapshot;
use crate::span::{EventRecord, SpanRecord};
use crate::timeline::{SessionTimeline, TimelineEvent};

/// A sink for telemetry records. Implementations must be thread-safe: the
/// cleaner's parallel crowd finishes spans from worker threads.
pub trait Collector: Send + Sync {
    /// Accept a finished span.
    fn record_span(&self, span: &SpanRecord);
    /// Accept a point event.
    fn record_event(&self, event: &EventRecord);
    /// Accept a finished decision. Defaulted to a no-op so collectors that
    /// predate decision provenance keep compiling unchanged.
    fn record_decision(&self, decision: &DecisionRecord) {
        let _ = decision;
    }
}

fn unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Thread-safe in-memory collector; the backing store for
/// [`SessionTimeline`] assembly and for tests.
#[derive(Default)]
pub struct InMemoryCollector {
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    decisions: Mutex<Vec<DecisionRecord>>,
}

impl InMemoryCollector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all spans recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        unpoisoned(&self.spans).clone()
    }

    /// Snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<EventRecord> {
        unpoisoned(&self.events).clone()
    }

    /// Snapshot of all decisions recorded so far.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        unpoisoned(&self.decisions).clone()
    }

    /// Drop everything recorded so far.
    pub fn clear(&self) {
        unpoisoned(&self.spans).clear();
        unpoisoned(&self.events).clear();
        unpoisoned(&self.decisions).clear();
    }

    /// Assemble a [`SessionTimeline`] from the recorded spans and events,
    /// a metrics snapshot, and any additional caller-supplied events (for
    /// example a crowd transcript bridged to [`TimelineEvent`]s).
    pub fn timeline(
        &self,
        extra_events: Vec<TimelineEvent>,
        metrics: MetricsSnapshot,
    ) -> SessionTimeline {
        let mut events: Vec<TimelineEvent> = self
            .events()
            .into_iter()
            .map(TimelineEvent::from_record)
            .collect();
        events.extend(extra_events);
        SessionTimeline::new(self.spans(), events, metrics)
    }

    /// Render everything recorded so far as a Chrome trace-event JSON
    /// document (see [`crate::chrome_trace_json`]).
    pub fn chrome_trace(&self) -> String {
        crate::chrome_trace_json_full(&self.spans(), &self.events(), &self.decisions())
    }

    /// Write the Chrome trace to `path` (Perfetto / `chrome://tracing`
    /// loadable).
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }
}

/// Fan records out to several collectors — e.g. an [`InMemoryCollector`]
/// (for the Chrome trace and timeline) and a [`JsonlCollector`] (for the
/// streaming export) in one session.
pub struct FanoutCollector {
    sinks: Vec<Arc<dyn Collector>>,
}

impl FanoutCollector {
    /// A collector forwarding every record to each of `sinks`, in order.
    pub fn new(sinks: Vec<Arc<dyn Collector>>) -> Self {
        FanoutCollector { sinks }
    }
}

impl Collector for FanoutCollector {
    fn record_span(&self, span: &SpanRecord) {
        for sink in &self.sinks {
            sink.record_span(span);
        }
    }

    fn record_event(&self, event: &EventRecord) {
        for sink in &self.sinks {
            sink.record_event(event);
        }
    }

    fn record_decision(&self, decision: &DecisionRecord) {
        for sink in &self.sinks {
            sink.record_decision(decision);
        }
    }
}

impl Collector for InMemoryCollector {
    fn record_span(&self, span: &SpanRecord) {
        unpoisoned(&self.spans).push(span.clone());
    }

    fn record_event(&self, event: &EventRecord) {
        unpoisoned(&self.events).push(event.clone());
    }

    fn record_decision(&self, decision: &DecisionRecord) {
        unpoisoned(&self.decisions).push(decision.clone());
    }
}

/// Streaming JSON-lines exporter: one JSON object per span/event/metric,
/// one per line, suitable for `jq` and for replaying sessions offline.
pub struct JsonlCollector {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlCollector {
    /// Create (truncate) `path` and stream records to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Create (truncate) `path` and stream records to it **write-through**:
    /// no userspace buffer, one `write` per line. The serve layer uses this
    /// — its export is an input to the `validate-requests` gate, which
    /// replays the artifacts of deliberately `kill -9`ed runs, so every
    /// line handed to the collector must already be on disk.
    pub fn create_write_through(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Stream records to an arbitrary writer.
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlCollector {
            out: Mutex::new(writer),
        }
    }

    fn write_line(&self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        let mut out = unpoisoned(&self.out);
        // One write call per line so a write-through export never tears a
        // line mid-record, and telemetry must never take the session down:
        // I/O errors are swallowed (the exporter is best-effort by design).
        let _ = out.write_all(buf.as_bytes());
    }

    /// Append every metric in `snapshot` as a `"metric"` line; call once
    /// at session end.
    pub fn write_metrics(&self, snapshot: &MetricsSnapshot) {
        for line in snapshot.to_jsonl_lines() {
            self.write_line(&line);
        }
    }

    /// Append pre-rendered JSONL lines verbatim — how the qoco-watch
    /// sample series (`SeriesStore::to_jsonl_lines`) rides in the same
    /// export as spans/events/metrics.
    pub fn write_raw_lines<'a>(&self, lines: impl IntoIterator<Item = &'a str>) {
        for line in lines {
            self.write_line(line);
        }
    }

    /// Flush buffered output.
    pub fn flush(&self) {
        let _ = unpoisoned(&self.out).flush();
    }
}

impl Drop for JsonlCollector {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Collector for JsonlCollector {
    fn record_span(&self, span: &SpanRecord) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"span\",\"id\":");
        line.push_str(&span.id.to_string());
        if let Some(parent) = span.parent {
            line.push_str(",\"parent\":");
            line.push_str(&parent.to_string());
        }
        line.push_str(",\"name\":");
        push_json_str(&mut line, span.name);
        line.push_str(",\"tid\":");
        line.push_str(&span.thread.to_string());
        line.push_str(",\"start_ns\":");
        line.push_str(&span.start_ns.to_string());
        line.push_str(",\"dur_ns\":");
        line.push_str(&span.duration_ns.to_string());
        if !span.fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in span.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_json_str(&mut line, k);
                line.push(':');
                push_json_str(&mut line, v);
            }
            line.push('}');
        }
        line.push('}');
        self.write_line(&line);
    }

    fn record_event(&self, event: &EventRecord) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"type\":\"event\",\"at_ns\":");
        line.push_str(&event.at_ns.to_string());
        if let Some(span) = event.span {
            line.push_str(",\"span\":");
            line.push_str(&span.to_string());
        }
        line.push_str(",\"name\":");
        push_json_str(&mut line, event.name);
        line.push_str(",\"tid\":");
        line.push_str(&event.thread.to_string());
        line.push_str(",\"detail\":");
        push_json_str(&mut line, &event.detail);
        line.push('}');
        self.write_line(&line);
    }

    fn record_decision(&self, decision: &DecisionRecord) {
        let mut line = String::with_capacity(192);
        line.push_str("{\"type\":\"decision\",\"id\":");
        line.push_str(&decision.id.to_string());
        line.push_str(",\"at_ns\":");
        line.push_str(&decision.at_ns.to_string());
        if let Some(span) = decision.span {
            line.push_str(",\"span\":");
            line.push_str(&span.to_string());
        }
        line.push_str(",\"tid\":");
        line.push_str(&decision.thread.to_string());
        line.push_str(",\"kind\":");
        push_json_str(&mut line, decision.kind);
        line.push_str(",\"question\":");
        push_json_str(&mut line, &decision.question);
        line.push_str(",\"outcome\":");
        push_json_str(&mut line, &decision.outcome);
        line.push_str(",\"evidence\":{");
        for (i, (k, v)) in decision.evidence.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            push_json_str(&mut line, k);
            line.push(':');
            push_json_str(&mut line, v);
        }
        line.push('}');
        // emitted only when present, so serve-less exports stay byte-stable
        if let Some(request) = &decision.request {
            line.push_str(",\"request\":");
            push_json_str(&mut line, request);
        }
        line.push('}');
        self.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DecisionLine;
    use std::sync::Arc;

    #[derive(Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            unpoisoned(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_span() -> SpanRecord {
        SpanRecord {
            id: 2,
            parent: Some(1),
            name: "clean.deletion_phase",
            thread: 0,
            start_ns: 100,
            duration_ns: 250,
            fields: vec![("answer", "(\"BRA\")".to_string())],
        }
    }

    #[test]
    fn in_memory_collects_and_clears() {
        let c = InMemoryCollector::new();
        c.record_span(&sample_span());
        c.record_event(&EventRecord {
            at_ns: 120,
            span: Some(2),
            thread: 0,
            name: "crowd.verify_fact",
            detail: "Teams(BRA, EU)".to_string(),
        });
        assert_eq!(c.spans().len(), 1);
        assert_eq!(c.events().len(), 1);
        c.clear();
        assert!(c.spans().is_empty());
        assert!(c.events().is_empty());
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let c = JsonlCollector::from_writer(Box::new(SharedBuf(buf.clone())));
        c.record_span(&sample_span());
        c.record_event(&EventRecord {
            at_ns: 120,
            span: None,
            thread: 3,
            name: "crowd.complete",
            detail: "tab\there".to_string(),
        });
        c.flush();
        let text = String::from_utf8(unpoisoned(&buf).clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"type":"span","id":2,"parent":1,"name":"clean.deletion_phase","tid":0,"start_ns":100,"dur_ns":250,"fields":{"answer":"(\"BRA\")"}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"type":"event","at_ns":120,"name":"crowd.complete","tid":3,"detail":"tab\there"}"#
        );
    }

    #[test]
    fn fanout_forwards_to_every_sink() {
        let a = Arc::new(InMemoryCollector::new());
        let b = Arc::new(InMemoryCollector::new());
        let fanout = FanoutCollector::new(vec![a.clone(), b.clone()]);
        fanout.record_span(&sample_span());
        fanout.record_decision(&sample_decision());
        assert_eq!(a.spans().len(), 1);
        assert_eq!(b.spans().len(), 1);
        assert_eq!(a.decisions().len(), 1);
        assert_eq!(b.decisions().len(), 1);
    }

    fn sample_decision() -> DecisionRecord {
        DecisionRecord {
            id: 3,
            at_ns: 140,
            span: Some(2),
            thread: 0,
            kind: "deletion.verify_fact",
            question: "TRUE(Games(\"12.07.98\"))?".to_string(),
            outcome: "false".to_string(),
            evidence: vec![
                ("selector", "most-frequent".to_string()),
                ("ranking", "g98=2 > g10=2".to_string()),
            ],
            request: None,
        }
    }

    #[test]
    fn jsonl_decision_lines_are_well_formed() {
        let plain = sample_decision();
        let served = DecisionRecord {
            request: Some("qr-5".to_string()),
            ..sample_decision()
        };
        let buf = Arc::new(Mutex::new(Vec::new()));
        let c = JsonlCollector::from_writer(Box::new(SharedBuf(buf.clone())));
        c.record_decision(&plain);
        c.record_decision(&served);
        c.flush();
        let text = String::from_utf8(unpoisoned(&buf).clone()).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"type":"decision","id":3,"at_ns":140,"span":2,"tid":0,"kind":"deletion.verify_fact","question":"TRUE(Games(\"12.07.98\"))?","outcome":"false","evidence":{"selector":"most-frequent","ranking":"g98=2 > g10=2"}}"#
        );
        assert_eq!(
            lines.next().unwrap(),
            r#"{"type":"decision","id":3,"at_ns":140,"span":2,"tid":0,"kind":"deletion.verify_fact","question":"TRUE(Games(\"12.07.98\"))?","outcome":"false","evidence":{"selector":"most-frequent","ranking":"g98=2 > g10=2"},"request":"qr-5"}"#
        );
        // the shared reader decodes each line back to the recorded fields
        for (line, record) in text.lines().zip([&plain, &served]) {
            let json = crate::json::Json::parse(line).unwrap();
            let decoded = DecisionLine::from_json(&json).unwrap().unwrap();
            let mut evidence: Vec<(String, String)> = record
                .evidence
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            evidence.sort();
            assert_eq!(
                decoded,
                DecisionLine {
                    id: record.id,
                    kind: record.kind.to_string(),
                    question: record.question.clone(),
                    outcome: record.outcome.clone(),
                    evidence,
                    request: record.request.clone(),
                }
            );
        }
    }

    #[test]
    fn in_memory_chrome_trace_covers_recorded_spans() {
        let c = InMemoryCollector::new();
        c.record_span(&sample_span());
        let trace = c.chrome_trace();
        assert!(trace.contains("clean.deletion_phase"));
        assert!(trace.contains("\"traceEvents\""));
    }
}
