//! # qoco-telemetry — spans, counters, and session timelines
//!
//! A dependency-free instrumentation substrate for the QOCO cleaning
//! pipeline. The paper's evaluation is entirely about *cost* (crowd
//! questions per algorithm); this crate makes the other costs visible too:
//! where wall-clock time goes (witness enumeration, hitting-set detection,
//! query splitting, delta maintenance) and how the question budget is
//! spent per phase.
//!
//! Three pieces:
//!
//! 1. **Spans** — [`span`] opens a named interval with `key=value` fields
//!    and parent linkage (per-thread stack); dropping the guard reports a
//!    [`SpanRecord`] to the installed [`Collector`]. Backends:
//!    [`InMemoryCollector`] (thread-safe, feeds timelines and tests) and
//!    [`JsonlCollector`] (streaming JSON-lines file exporter).
//! 2. **Metrics** — a global [`MetricsRegistry`] of named counters, gauges
//!    and histograms ([`counter_add`], [`gauge_set`],
//!    [`histogram_record`]), snapshotted at session end.
//! 3. **Timelines** — [`SessionTimeline`] merges spans, bridged events
//!    (e.g. crowd transcripts), and a metrics snapshot into one ordered,
//!    renderable report.
//!
//! ## Zero-cost when disabled
//!
//! No collector is installed by default. In that state [`span`] returns an
//! inert guard and every metric call returns after a single relaxed atomic
//! load — no allocation, no locking, no clock read. `qoco-bench`'s
//! `telemetry_noop_guard` test asserts this stays cheap.
//!
//! ## Sessions
//!
//! [`session`] installs a collector, resets the global metrics, and holds
//! a process-wide lock so concurrent tests cannot interleave their
//! telemetry; dropping the [`SessionGuard`] uninstalls the collector.
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(qoco_telemetry::InMemoryCollector::new());
//! let session = qoco_telemetry::session(collector.clone());
//! {
//!     let _outer = qoco_telemetry::span("clean.session").field("query", "Q1");
//!     let _inner = qoco_telemetry::span("clean.deletion_phase");
//!     qoco_telemetry::counter_add("crowd.questions_asked", 3);
//! }
//! let timeline = collector.timeline(Vec::new(), qoco_telemetry::metrics().snapshot());
//! drop(session);
//! assert_eq!(timeline.spans().len(), 2);
//! assert_eq!(timeline.metrics().counter("crowd.questions_asked"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accesslog;
mod alerts;
mod chrome;
mod collector;
mod decision;
mod flame;
pub mod json;
mod metrics;
mod profiler;
mod prometheus;
mod request;
mod server;
mod span;
mod timeline;
mod timeseries;

pub use accesslog::{
    rotation_path, AccessLog, AccessLogEntry, DEFAULT_ACCESS_LOG_CAPACITY,
    DEFAULT_ACCESS_LOG_MAX_BYTES,
};
pub use alerts::{
    parse_rule, parse_rules, AlertEngine, AlertStateView, Cmp, EvalOutcome, Expr, Rule, Severity,
    Transition,
};
pub use chrome::{chrome_trace_json, chrome_trace_json_full};
pub use collector::{Collector, FanoutCollector, InMemoryCollector, JsonlCollector};
pub use decision::{
    begin_decision, current_decision_id, finish_decision, record_decision, DecisionDetail,
    DecisionLine, DecisionRecord,
};
pub use flame::flamegraph_svg;
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot, BUCKET_BOUNDS};
pub use profiler::{diff_profiles, FrameDelta, Profile};
pub use request::{
    adopt_request, begin_request, current_request_id, end_request, inflight_requests,
    intern_metric_name, set_request_phase, set_request_session, InflightRequest,
};
pub use server::{HttpRequest, HttpResponse, MetricsServer, RouteHandler, ServerOptions};
pub use span::{EventRecord, SpanGuard, SpanRecord};
pub use timeline::{fmt_ns, PhaseAttribution, PhaseTotal, SessionTimeline, TimelineEvent};
pub use timeseries::{
    dashboard_html, histogram_quantile, start_watch, watch, watch_tick, Sample, SeriesStore, Watch,
    WatchGuard, WatchTick, WindowStats, DEFAULT_SERIES_CAPACITY, LOGICAL_TICK_NS,
};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use span::ActiveSpan;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);
static GLOBAL_METRICS: MetricsRegistry = MetricsRegistry::new();
static SESSION_LOCK: Mutex<()> = Mutex::new(());
/// Nanoseconds between the process epoch and the most recent install;
/// subtracting it makes every record session-relative, so a second
/// `session()` in the same process starts again from (near) zero.
static SESSION_EPOCH_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

/// Monotonic process epoch, pinned on first use. Record timestamps subtract
/// the per-session offset ([`SESSION_EPOCH_NS`]) from time measured against
/// this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Convert a process-epoch offset into a session-relative offset.
fn session_ns(since_process_epoch_ns: u64) -> u64 {
    since_process_epoch_ns.saturating_sub(SESSION_EPOCH_NS.load(Ordering::Relaxed))
}

/// A small dense ordinal identifying the current OS thread (0, 1, 2, … in
/// first-use order). Stable for the thread's lifetime; stamped on every
/// span and event so exporters can reconstruct per-thread tracks.
pub fn thread_ordinal() -> u64 {
    THREAD_ORD.with(|t| *t)
}

/// Whether a collector is currently installed. One relaxed atomic load:
/// this is the disabled fast path's entire cost.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the current session's epoch (0 before any install).
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    session_ns(epoch().elapsed().as_nanos() as u64)
}

/// Install `collector` as the process-global sink and enable telemetry.
/// Re-bases the session epoch so timestamps start from zero for this
/// install. Prefer [`session`], which also resets metrics and serializes
/// sessions.
pub fn install(collector: Arc<dyn Collector>) {
    let offset = epoch().elapsed().as_nanos() as u64;
    SESSION_EPOCH_NS.store(offset, Ordering::Relaxed);
    // Decision ids are session-scoped so a resumed session replaying the
    // same questions reproduces the same ids.
    decision::NEXT_DECISION_ID.store(1, Ordering::Relaxed);
    // A request leaked across sessions must not haunt the in-flight
    // inspector.
    request::clear_registry();
    let mut slot = COLLECTOR.write().unwrap_or_else(|p| p.into_inner());
    *slot = Some(collector);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable telemetry and return the previously installed collector.
pub fn uninstall() -> Option<Arc<dyn Collector>> {
    ENABLED.store(false, Ordering::Relaxed);
    let mut slot = COLLECTOR.write().unwrap_or_else(|p| p.into_inner());
    slot.take()
}

fn with_collector(f: impl FnOnce(&dyn Collector)) {
    let slot = COLLECTOR.read().unwrap_or_else(|p| p.into_inner());
    if let Some(c) = slot.as_ref() {
        f(c.as_ref());
    }
}

/// Guard for one exclusive telemetry session; see [`session`].
pub struct SessionGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

/// Start an exclusive telemetry session: takes the process-wide session
/// lock (so parallel tests cannot mix their records), resets the global
/// metrics, and installs `collector`. Dropping the guard uninstalls it.
pub fn session(collector: Arc<dyn Collector>) -> SessionGuard {
    let lock = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    GLOBAL_METRICS.reset();
    install(collector);
    SessionGuard { _lock: lock }
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Guard for a nested collector scope; see [`nested_session`].
pub struct NestedSessionGuard {
    prev: Option<Arc<dyn Collector>>,
}

/// Also send the record stream to `collector` *inside* an already-active
/// session. [`session`] self-deadlocks when called while its guard is
/// alive on the same thread — the session lock is not reentrant — so a
/// harness that owns the outer session (e.g. `figures --profile`, whose
/// `phases` target captures its own timeline) nests with this instead.
/// The outer collector keeps receiving every record (the two are teed
/// through a [`FanoutCollector`]); the inner one sees only what happens
/// while the guard lives. The session lock, epoch and metrics are
/// untouched. Dropping the guard restores the outer collector (and the
/// disabled state, if there was no outer session).
pub fn nested_session(collector: Arc<dyn Collector>) -> NestedSessionGuard {
    let mut slot = COLLECTOR.write().unwrap_or_else(|p| p.into_inner());
    let prev = slot.take();
    *slot = Some(match &prev {
        Some(outer) => Arc::new(FanoutCollector::new(vec![outer.clone(), collector])),
        None => collector,
    });
    ENABLED.store(true, Ordering::Relaxed);
    NestedSessionGuard { prev }
}

impl Drop for NestedSessionGuard {
    fn drop(&mut self) {
        let mut slot = COLLECTOR.write().unwrap_or_else(|p| p.into_inner());
        *slot = self.prev.take();
        ENABLED.store(slot.is_some(), Ordering::Relaxed);
    }
}

/// Open a span named `name`. Returns an inert guard when telemetry is
/// disabled; otherwise the guard records a [`SpanRecord`] on drop, parented
/// to the innermost live span on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    let thread = thread_ordinal();
    let start = Instant::now();
    SpanGuard {
        inner: Some(ActiveSpan {
            id,
            parent,
            name,
            thread,
            start,
            start_ns: session_ns(start.duration_since(epoch()).as_nanos() as u64),
            fields: Vec::new(),
        }),
    }
}

/// The id of the innermost live span on this thread (`None` when telemetry
/// is disabled or no span is open).
pub fn current_span_id() -> Option<u64> {
    if !enabled() {
        return None;
    }
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

pub(crate) fn finish_span(active: ActiveSpan) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|id| *id == active.id) {
            stack.remove(pos);
        }
    });
    let record = SpanRecord {
        id: active.id,
        parent: active.parent,
        name: active.name,
        thread: active.thread,
        start_ns: active.start_ns,
        duration_ns: active.start.elapsed().as_nanos() as u64,
        fields: active.fields,
    };
    with_collector(|c| c.record_span(&record));
}

/// Emit a point event. `detail` is only invoked when telemetry is enabled,
/// so callers may format freely inside the closure.
pub fn event(name: &'static str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        at_ns: now_ns(),
        span: SPAN_STACK.with(|s| s.borrow().last().copied()),
        thread: thread_ordinal(),
        name,
        detail: detail(),
    };
    with_collector(|c| c.record_event(&record));
}

/// The global metrics registry (live values; snapshot to read them out).
pub fn metrics() -> &'static MetricsRegistry {
    &GLOBAL_METRICS
}

/// Identity of this build, attached to metrics exposition and trajectory
/// lines so dashboards and bench history are attributable to a binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// `qoco-telemetry` crate version (the workspace moves in lockstep).
    pub version: &'static str,
    /// Short git hash baked in via `QOCO_GIT_HASH` at compile time,
    /// `"unknown"` for builds outside the repo scripts.
    pub git: &'static str,
    /// `std::thread::available_parallelism()` on this host.
    pub host_parallelism: usize,
}

/// The running build's identity; see [`BuildInfo`]. Always available —
/// not gated on [`enabled`], since it never touches session state.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION"),
        git: option_env!("QOCO_GIT_HASH").unwrap_or("unknown"),
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Add to a global counter; no-op while telemetry is disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        GLOBAL_METRICS.counter_add(name, delta);
    }
}

/// Set a global gauge; no-op while telemetry is disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        GLOBAL_METRICS.gauge_set(name, value);
    }
}

/// Add to a global gauge; no-op while telemetry is disabled.
#[inline]
pub fn gauge_add(name: &'static str, delta: f64) {
    if enabled() {
        GLOBAL_METRICS.gauge_add(name, delta);
    }
}

/// Record a histogram observation; no-op while telemetry is disabled.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if enabled() {
        GLOBAL_METRICS.histogram_record(name, value);
    }
}

/// Time `f` and record its duration (ns) into histogram `name`. When
/// disabled, runs `f` with no clock reads.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    GLOBAL_METRICS.histogram_record(name, start.elapsed().as_nanos() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_are_inert() {
        let _serial = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!enabled());
        let g = span("should.not.record");
        assert!(!g.is_live());
        drop(g);
        counter_add("never", 1);
        event("never", || {
            unreachable!("detail must not run when disabled")
        });
        assert_eq!(metrics().snapshot().counter("never"), 0);
    }

    #[test]
    fn session_records_nested_spans_fields_events_and_counters() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = session(collector.clone());
        {
            let mut outer = span("clean.session").field("query", "Q1");
            {
                let _inner = span("clean.deletion_phase").field("answer", "(BRA)");
                counter_add("crowd.questions_asked", 2);
                event("crowd.verify_fact", || "Teams(BRA, EU)".to_string());
            }
            outer.record("iterations", 1);
        }
        let snapshot = metrics().snapshot();
        drop(session);

        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        // inner finishes first; parent link points at the outer span
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "clean.deletion_phase");
        assert_eq!(outer.name, "clean.session");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.field("answer"), Some("(BRA)"));
        assert_eq!(outer.field("query"), Some("Q1"));
        assert_eq!(outer.field("iterations"), Some("1"));
        assert!(outer.duration_ns >= inner.duration_ns);

        let events = collector.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span, Some(inner.id));

        assert_eq!(snapshot.counter("crowd.questions_asked"), 2);
        // the session guard reset metrics on entry and uninstalled on drop
        assert!(!enabled());
    }

    #[test]
    fn nested_session_tees_records_and_restores_the_outer_collector() {
        let outer = Arc::new(InMemoryCollector::new());
        let session = session(outer.clone());
        span("before.nest").finish();
        let inners: Vec<_> = (0..3).map(|_| Arc::new(InMemoryCollector::new())).collect();
        for inner in &inners {
            // `session()` here would deadlock on the non-reentrant session
            // lock — the exact figures `--profile phases` shape.
            let _nested = nested_session(inner.clone());
            assert!(enabled(), "nesting keeps telemetry enabled");
            let root = span("inside.nest");
            std::thread::scope(|scope| {
                scope.spawn(|| span("inside.worker").finish());
            });
            root.finish();
        }
        span("after.nest").finish();
        drop(session);
        assert!(!enabled(), "outer guard drop still uninstalls");
        for inner in &inners {
            let inner_names: Vec<_> = inner.spans().iter().map(|s| s.name).collect();
            assert_eq!(
                inner_names,
                ["inside.worker", "inside.nest"],
                "an inner collector sees only its own scope"
            );
        }
        let outer_names: Vec<_> = outer.spans().iter().map(|s| s.name).collect();
        let mut expected = vec!["before.nest"];
        for _round in 0..3 {
            expected.extend(["inside.worker", "inside.nest"]);
        }
        expected.push("after.nest");
        assert_eq!(outer_names, expected, "the outer collector sees every span");
    }

    #[test]
    fn nested_session_without_an_outer_one_disables_on_drop() {
        let _serial = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        assert!(!enabled());
        let inner = Arc::new(InMemoryCollector::new());
        {
            let _nested = nested_session(inner.clone());
            assert!(enabled());
            span("nested.solo").finish();
        }
        assert!(!enabled(), "no outer session to restore → disabled");
        assert_eq!(inner.spans().len(), 1);
    }

    #[test]
    fn timeline_assembles_from_collector_and_metrics() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = session(collector.clone());
        {
            let _s = span("eval.evaluate");
            counter_add("eval.assignments_tried", 7);
        }
        let timeline = collector.timeline(Vec::new(), metrics().snapshot());
        drop(session);
        assert_eq!(timeline.spans().len(), 1);
        assert_eq!(timeline.metrics().counter("eval.assignments_tried"), 7);
        assert!(timeline.render().contains("eval.evaluate"));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = session(collector.clone());
        {
            let _root = span("root");
            span("a").finish();
            span("b").finish();
        }
        drop(session);
        let spans = collector.spans();
        assert_eq!(spans.len(), 3);
        let root_id = spans.iter().find(|s| s.name == "root").unwrap().id;
        for name in ["a", "b"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, Some(root_id), "span {name} parented to root");
        }
    }

    #[test]
    fn second_session_restarts_the_epoch() {
        // First session: do a little work so wall time passes.
        let first = Arc::new(InMemoryCollector::new());
        {
            let _session = session(first.clone());
            span("first.work").finish();
        }
        // Dead time between the sessions: without a per-session epoch this
        // gap (plus the whole first session) would leak into the second
        // session's offsets.
        let gap = std::time::Duration::from_millis(60);
        std::thread::sleep(gap);
        let second = Arc::new(InMemoryCollector::new());
        let started = Instant::now();
        {
            let _session = session(second.clone());
            span("second.work").finish();
        }
        let session_len = started.elapsed().as_nanos() as u64;
        let spans = second.spans();
        assert_eq!(spans.len(), 1);
        // Session-relative: the span started within the second session's
        // own extent, not `gap` (or more) after it.
        assert!(
            spans[0].start_ns <= session_len,
            "second session span starts at {}ns but the session only ran {}ns — \
             the epoch leaked from the first install",
            spans[0].start_ns,
            session_len
        );
        assert!(spans[0].start_ns < gap.as_nanos() as u64);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        // Eight workers hammer the same counter and histogram
        // simultaneously; every increment must land.
        const WORKERS: usize = 8;
        const OPS: u64 = 10_000;
        let collector = Arc::new(InMemoryCollector::new());
        let session = session(collector);
        std::thread::scope(|scope| {
            for w in 0..WORKERS as u64 {
                scope.spawn(move || {
                    for i in 0..OPS {
                        counter_add("stress.counter", 1);
                        histogram_record("stress.histo", w * OPS + i);
                    }
                });
            }
        });
        let snap = metrics().snapshot();
        drop(session);
        assert_eq!(snap.counter("stress.counter"), WORKERS as u64 * OPS);
        let h = snap.histograms["stress.histo"];
        assert_eq!(h.count, WORKERS as u64 * OPS);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, WORKERS as u64 * OPS - 1);
        // sum of 0..WORKERS*OPS
        let n = WORKERS as u64 * OPS;
        assert_eq!(h.sum, n * (n - 1) / 2);
    }

    #[test]
    fn cross_thread_spans_carry_distinct_thread_ordinals() {
        // qoco-serve's connection workers and parked session cleaners open
        // spans on threads of their own; each thread gets its own ordinal
        // (its trace track)
        let collector = Arc::new(InMemoryCollector::new());
        let session = session(collector.clone());
        {
            let root = span("fanout.root");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| span("fanout.worker").finish());
                }
            });
            drop(root);
        }
        drop(session);
        let spans = collector.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "fanout.root").unwrap();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "fanout.worker").collect();
        assert_eq!(workers.len(), 2);
        for w in &workers {
            assert_eq!(w.parent, None, "a span on another thread starts a root");
            assert_ne!(w.thread, root.thread, "worker has its own thread track");
        }
        assert_ne!(workers[0].thread, workers[1].thread);
    }

    #[test]
    fn timed_records_histogram_only_when_enabled() {
        {
            let _serial = SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            assert_eq!(timed("t.ns", || 5), 5);
        }
        let collector = Arc::new(InMemoryCollector::new());
        let session = session(collector);
        assert_eq!(timed("t.ns", || 6), 6);
        let snap = metrics().snapshot();
        drop(session);
        assert_eq!(snap.histograms["t.ns"].count, 1);
    }
}
