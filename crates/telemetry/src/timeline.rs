//! Session timelines: spans + events + metrics in one renderable report.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::MetricsSnapshot;
use crate::span::{EventRecord, SpanRecord};

/// A timeline entry that happened at a point in time. Collector events map
/// directly; other sources (e.g. crowd transcripts) are bridged into this
/// shape by their own crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Offset in nanoseconds since the session epoch.
    pub at_ns: u64,
    /// The span live when the event fired, if known (collector events
    /// carry it; bridged sources like crowd transcripts usually don't).
    pub span: Option<u64>,
    /// Short category label, e.g. `crowd.verify_fact`.
    pub label: String,
    /// Human-readable payload.
    pub detail: String,
}

impl TimelineEvent {
    /// Bridge a collector [`EventRecord`] into a timeline event.
    pub fn from_record(e: EventRecord) -> Self {
        TimelineEvent {
            at_ns: e.at_ns,
            span: e.span,
            label: e.name.to_string(),
            detail: e.detail,
        }
    }
}

/// Aggregate duration/count of all spans sharing a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotal {
    /// Number of spans with this name.
    pub count: usize,
    /// Summed duration across them, in nanoseconds.
    pub total_ns: u64,
}

/// Wall/self-time and question/event attribution for all spans sharing a
/// name; see [`SessionTimeline::attribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAttribution {
    /// Number of spans with this name.
    pub count: usize,
    /// Summed span durations (wall time), in nanoseconds.
    pub wall_ns: u64,
    /// Wall time not covered by direct child spans, in nanoseconds.
    pub self_ns: u64,
    /// Crowd questions charged to these spans (their `questions=` fields).
    pub questions: u64,
    /// Index probe hits charged to these spans (their `probes=` fields).
    pub probes: u64,
    /// Collector events emitted while a span of this name was innermost.
    pub events: usize,
}

/// An ordered, renderable record of one cleaning session: the span tree,
/// the merged event stream, and a metrics snapshot.
#[derive(Debug, Clone, Default)]
pub struct SessionTimeline {
    spans: Vec<SpanRecord>,
    events: Vec<TimelineEvent>,
    metrics: MetricsSnapshot,
}

impl SessionTimeline {
    /// Build a timeline; spans and events are sorted chronologically.
    pub fn new(
        mut spans: Vec<SpanRecord>,
        mut events: Vec<TimelineEvent>,
        metrics: MetricsSnapshot,
    ) -> Self {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        events.sort_by(|a, b| a.at_ns.cmp(&b.at_ns).then(a.label.cmp(&b.label)));
        SessionTimeline {
            spans,
            events,
            metrics,
        }
    }

    /// All spans, ordered by start time.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All events, ordered by time.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// The metrics snapshot taken at session end.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// Spans with no parent (session roots), in start order.
    pub fn roots(&self) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of span `id`, in start order.
    pub fn children_of(&self, id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// Aggregate span durations by span name.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, PhaseTotal> {
        let mut out: BTreeMap<&'static str, PhaseTotal> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.duration_ns;
        }
        out
    }

    /// Per-phase attribution: for every span name, the wall time (summed
    /// durations), **self time** (wall minus the time covered by direct
    /// child spans — where the phase itself burned CPU rather than
    /// delegating), crowd questions and index probe hits (summed from the
    /// `questions=` / `probes=` span fields) and collector events
    /// attributed to spans of that name.
    ///
    /// Spans assembled by hand or read back from a trace need not nest, so
    /// a parent's summed child time can exceed its own duration; self time
    /// saturates at zero there.
    pub fn attribution(&self) -> BTreeMap<&'static str, PhaseAttribution> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut name_of: BTreeMap<u64, &'static str> = BTreeMap::new();
        for s in &self.spans {
            name_of.insert(s.id, s.name);
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.duration_ns;
            }
        }
        let mut out: BTreeMap<&'static str, PhaseAttribution> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.wall_ns += s.duration_ns;
            e.self_ns += s
                .duration_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            if let Some(q) = s.field("questions").and_then(|v| v.parse::<u64>().ok()) {
                e.questions += q;
            }
            if let Some(p) = s.field("probes").and_then(|v| v.parse::<u64>().ok()) {
                e.probes += p;
            }
        }
        for ev in &self.events {
            if let Some(name) = ev.span.and_then(|id| name_of.get(&id)) {
                out.entry(name).or_default().events += 1;
            }
        }
        out
    }

    /// Render [`SessionTimeline::attribution`] as an aligned text table,
    /// phases sorted by descending self time.
    pub fn render_attribution(&self) -> String {
        let attribution = self.attribution();
        let mut rows: Vec<(&str, PhaseAttribution)> = attribution.into_iter().collect();
        rows.sort_by_key(|(name, a)| (Reverse(a.self_ns), *name));
        let mut out = String::from(
            "phase                          count        wall        self   questions     probes   events\n",
        );
        for (name, a) in rows {
            out.push_str(&format!(
                "{name:<30} {:>5} {:>11} {:>11} {:>11} {:>10} {:>8}\n",
                a.count,
                fmt_ns(a.wall_ns),
                fmt_ns(a.self_ns),
                a.questions,
                a.probes,
                a.events
            ));
        }
        out
    }

    /// Wall-clock extent covered by the recorded spans and events, in
    /// nanoseconds.
    pub fn total_ns(&self) -> u64 {
        let start = self
            .spans
            .iter()
            .map(|s| s.start_ns)
            .chain(self.events.iter().map(|e| e.at_ns))
            .min()
            .unwrap_or(0);
        let end = self
            .spans
            .iter()
            .map(|s| s.end_ns())
            .chain(self.events.iter().map(|e| e.at_ns))
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }

    fn render_span(&self, s: &SpanRecord, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!("{indent}- {} {}", s.name, fmt_ns(s.duration_ns)));
        if !s.fields.is_empty() {
            let fields: Vec<String> = s.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(" [{}]", fields.join(", ")));
        }
        out.push('\n');
        for child in self.children_of(s.id) {
            self.render_span(child, depth + 1, out);
        }
    }

    /// Render the whole session as indented text: span tree, event stream,
    /// metrics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "session timeline: {} spans, {} events, {} total\n",
            self.spans.len(),
            self.events.len(),
            fmt_ns(self.total_ns())
        ));
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for root in self.roots() {
                self.render_span(root, 1, &mut out);
            }
        }
        if !self.events.is_empty() {
            out.push_str("events:\n");
            for e in &self.events {
                out.push_str(&format!(
                    "  +{:<12} {:<24} {}\n",
                    fmt_ns(e.at_ns),
                    e.label,
                    e.detail
                ));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("metrics:\n");
            out.push_str(&self.metrics.to_string());
        }
        out
    }
}

impl fmt::Display for SessionTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a nanosecond quantity at a human scale (ns/µs/ms/s).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 0,
            start_ns: start,
            duration_ns: dur,
            fields: Vec::new(),
        }
    }

    fn sample() -> SessionTimeline {
        SessionTimeline::new(
            vec![
                span(2, Some(1), "clean.deletion_phase", 100, 400),
                span(1, None, "clean.session", 0, 1_000),
                span(3, Some(1), "clean.insertion_phase", 600, 300),
            ],
            vec![TimelineEvent {
                at_ns: 150,
                span: Some(2),
                label: "crowd.verify_fact".to_string(),
                detail: "Goals(...)".to_string(),
            }],
            MetricsSnapshot::default(),
        )
    }

    #[test]
    fn nesting_is_reconstructed_from_parent_links() {
        let t = sample();
        let roots = t.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "clean.session");
        let kids = t.children_of(1);
        assert_eq!(kids.len(), 2);
        // chronological order within the parent
        assert_eq!(kids[0].name, "clean.deletion_phase");
        assert_eq!(kids[1].name, "clean.insertion_phase");
    }

    #[test]
    fn phase_totals_aggregate_by_name() {
        let t = sample();
        let totals = t.phase_totals();
        assert_eq!(totals["clean.session"].count, 1);
        assert_eq!(totals["clean.deletion_phase"].total_ns, 400);
        assert_eq!(t.total_ns(), 1_000);
    }

    #[test]
    fn render_shows_tree_events_and_durations() {
        let t = sample();
        let text = t.render();
        assert!(text.contains("3 spans, 1 events"));
        // child indented under root
        assert!(text.contains("\n  - clean.session"));
        assert!(text.contains("\n    - clean.deletion_phase"));
        assert!(text.contains("crowd.verify_fact"));
    }

    #[test]
    fn attribution_computes_self_time_questions_and_events() {
        let mut remove = span(2, Some(1), "deletion.remove_answer", 100, 400);
        remove.fields.push(("questions", "3".to_string()));
        let mut remove2 = span(4, Some(1), "deletion.remove_answer", 700, 100);
        remove2.fields.push(("questions", "2".to_string()));
        let mut eval = span(3, Some(2), "eval.assignments", 150, 250);
        eval.fields.push(("probes", "17".to_string()));
        let t = SessionTimeline::new(
            vec![
                span(1, None, "clean.session", 0, 1_000),
                remove,
                eval,
                remove2,
            ],
            vec![
                TimelineEvent {
                    at_ns: 160,
                    span: Some(2),
                    label: "crowd.verify_fact".to_string(),
                    detail: String::new(),
                },
                TimelineEvent {
                    at_ns: 170,
                    span: None, // bridged event with no span attribution
                    label: "crowd.complete".to_string(),
                    detail: String::new(),
                },
            ],
            MetricsSnapshot::default(),
        );
        let a = t.attribution();
        // session: 1000 wall, children (400 + 100) → 500 self
        assert_eq!(a["clean.session"].wall_ns, 1_000);
        assert_eq!(a["clean.session"].self_ns, 500);
        // remove_answer: 500 wall across 2 spans, eval child takes 250
        let removal = a["deletion.remove_answer"];
        assert_eq!(removal.count, 2);
        assert_eq!(removal.wall_ns, 500);
        assert_eq!(removal.self_ns, 250);
        assert_eq!(removal.questions, 5);
        assert_eq!(removal.events, 1);
        // leaf: self == wall, probe hits summed from its `probes=` field
        assert_eq!(a["eval.assignments"].self_ns, 250);
        assert_eq!(a["eval.assignments"].probes, 17);
        assert_eq!(removal.probes, 0);
        let rendered = t.render_attribution();
        assert!(rendered.contains("deletion.remove_answer"), "{rendered}");
        assert!(rendered.lines().count() >= 4);
    }

    #[test]
    fn overlapping_children_saturate_self_time() {
        // two overlapping children: summed child time (800) exceeds the
        // parent duration (500)
        let t = SessionTimeline::new(
            vec![
                span(1, None, "eval.assignments", 0, 500),
                span(2, Some(1), "eval.chunk", 50, 400),
                span(3, Some(1), "eval.chunk", 60, 400),
            ],
            Vec::new(),
            MetricsSnapshot::default(),
        );
        let a = t.attribution();
        assert_eq!(a["eval.assignments"].self_ns, 0);
        assert_eq!(a["eval.chunk"].wall_ns, 800);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
