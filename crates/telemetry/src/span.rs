//! Spans: named, field-carrying intervals with parent linkage.
//!
//! A [`SpanGuard`] is obtained from [`crate::span`]; it measures the
//! interval from creation to drop on the monotonic clock and reports a
//! [`SpanRecord`] to the installed collector. Parent linkage comes from a
//! per-thread stack: the innermost live span on the current thread is the
//! parent of the next one opened there. Spans opened on worker threads
//! therefore start new roots — cross-thread parenting is out of scope.

use std::fmt;
use std::time::Instant;

/// A finished span as delivered to collectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (monotonically increasing from 1).
    pub id: u64,
    /// Id of the enclosing span, if any: the innermost live span on the
    /// opening thread.
    pub parent: Option<u64>,
    /// Static span name, e.g. `"clean.deletion_phase"`.
    pub name: &'static str,
    /// Ordinal of the OS thread that opened the span (see
    /// [`crate::thread_ordinal`]); the Chrome trace exporter maps each
    /// ordinal to its own track.
    pub thread: u64,
    /// Start offset in nanoseconds since the session epoch.
    pub start_ns: u64,
    /// Measured duration in nanoseconds.
    pub duration_ns: u64,
    /// Ordered `key=value` annotations attached while the span was live.
    pub fields: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// End offset (start + duration) in nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.duration_ns
    }

    /// The value of field `key`, if recorded.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A point-in-time occurrence as delivered to collectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Offset in nanoseconds since the session epoch.
    pub at_ns: u64,
    /// The span live on the emitting thread, if any.
    pub span: Option<u64>,
    /// Ordinal of the OS thread that emitted the event.
    pub thread: u64,
    /// Static event name, e.g. `"crowd.verify_fact"`.
    pub name: &'static str,
    /// Free-form payload rendered by the emitter.
    pub detail: String,
}

pub(crate) struct ActiveSpan {
    pub(crate) id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) name: &'static str,
    pub(crate) thread: u64,
    pub(crate) start: Instant,
    pub(crate) start_ns: u64,
    pub(crate) fields: Vec<(&'static str, String)>,
}

/// RAII handle for a live span. When no collector is installed the guard is
/// inert: construction, field recording, and drop all reduce to a null
/// check.
pub struct SpanGuard {
    pub(crate) inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A guard that records nothing (the disabled fast path).
    pub(crate) fn noop() -> Self {
        SpanGuard { inner: None }
    }

    /// Whether this guard will produce a record.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a `key=value` field (builder style).
    pub fn field(mut self, key: &'static str, value: impl fmt::Display) -> Self {
        self.record(key, value);
        self
    }

    /// Attach a `key=value` field through a borrow (for mid-span updates).
    pub fn record(&mut self, key: &'static str, value: impl fmt::Display) {
        if let Some(active) = &mut self.inner {
            active.fields.push((key, value.to_string()));
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.inner.take() {
            crate::finish_span(active);
        }
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(a) => f
                .debug_struct("SpanGuard")
                .field("id", &a.id)
                .field("name", &a.name)
                .finish_non_exhaustive(),
            None => f.write_str("SpanGuard(noop)"),
        }
    }
}
