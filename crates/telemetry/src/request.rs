//! Request provenance: *which HTTP request* caused each downstream record.
//!
//! The serve layer (PR 9) turned cleaning into a multi-session HTTP
//! service, which broke the audit chain at the HTTP boundary: a crowd
//! question's [`crate::DecisionRecord`] and journal line said *why* the
//! algorithm asked, but not *which request* made it ask. This module closes
//! that gap with the same thread-local pattern as decision provenance
//! ([`crate::begin_decision`]): the connection thread marks the request it
//! is serving, and every layer underneath — the machine step, the journal,
//! the decision dispatcher — reads the marker with no API coupling.
//!
//! Two pieces:
//!
//! 1. **The current-request marker** — [`begin_request`] stamps this
//!    thread with a request id (an inbound `X-Request-Id`, a `traceparent`
//!    trace id, or a listener-generated `qr-N`); [`current_request_id`]
//!    reads it back; [`end_request`] clears it. Ids are caller-provided
//!    strings, not session-scoped counters, because the whole point is to
//!    honor ids minted *outside* this process.
//! 2. **The in-flight registry** — while a request is between
//!    [`begin_request`] and [`end_request`] it is visible in
//!    [`inflight_requests`], together with its route, session, start time
//!    and current machine phase ([`set_request_phase`]). `GET
//!    /api/requests` serves this snapshot live.
//!
//! Everything follows the zero-cost contract: with no collector installed
//! every entry point returns after one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic token distinguishing registry entries even when two requests
/// carry the same (client-chosen) id. 0 is the "no request" sentinel.
static NEXT_REQUEST_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Live requests, keyed by token; see [`inflight_requests`].
static INFLIGHT: Mutex<BTreeMap<u64, InflightRequest>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The request this thread is currently serving (None = none).
    static CURRENT_REQUEST: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Registry token of the request this thread is serving (0 = none).
    static CURRENT_TOKEN: Cell<u64> = const { Cell::new(0) };
}

/// One request currently being served, as reported by
/// [`inflight_requests`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InflightRequest {
    /// The request id (inbound or listener-generated).
    pub id: String,
    /// HTTP method.
    pub method: String,
    /// Request path (no query string).
    pub route: String,
    /// Cleaning session the request touched, once known.
    pub session: Option<String>,
    /// What the request is doing right now (`"read"`, `"handler"`,
    /// `"machine.step"`, …); see [`set_request_phase`].
    pub phase: &'static str,
    /// Session-relative start time, ns.
    pub started_ns: u64,
}

fn inflight_map() -> std::sync::MutexGuard<'static, BTreeMap<u64, InflightRequest>> {
    INFLIGHT.lock().unwrap_or_else(|p| p.into_inner())
}

/// Mark this thread as serving request `id`: sets the thread-local marker
/// read by [`current_request_id`] and registers the request in the
/// in-flight registry. Returns a registry token for [`end_request`] — 0,
/// touching nothing, when telemetry is disabled.
pub fn begin_request(id: &str, method: &str, route: &str) -> u64 {
    if !crate::enabled() {
        return 0;
    }
    let token = NEXT_REQUEST_TOKEN.fetch_add(1, Ordering::Relaxed);
    CURRENT_REQUEST.with(|c| *c.borrow_mut() = Some(id.to_string()));
    CURRENT_TOKEN.with(|c| c.set(token));
    inflight_map().insert(
        token,
        InflightRequest {
            id: id.to_string(),
            method: method.to_string(),
            route: route.to_string(),
            session: None,
            phase: "read",
            started_ns: crate::now_ns(),
        },
    );
    token
}

/// The id of the request this thread is currently serving, if any. The
/// journal and the decision dispatcher stamp their records with this.
pub fn current_request_id() -> Option<String> {
    if !crate::enabled() {
        return None;
    }
    CURRENT_REQUEST.with(|c| c.borrow().clone())
}

/// Update the in-flight phase of this thread's current request (shown by
/// `GET /api/requests`). No-op with telemetry disabled or no live request.
pub fn set_request_phase(phase: &'static str) {
    if !crate::enabled() {
        return;
    }
    let token = CURRENT_TOKEN.with(|c| c.get());
    if token == 0 {
        return;
    }
    if let Some(entry) = inflight_map().get_mut(&token) {
        entry.phase = phase;
    }
}

/// Attach a cleaning-session id to this thread's current request, once the
/// handler has resolved which session the request touches.
pub fn set_request_session(session: &str) {
    if !crate::enabled() {
        return;
    }
    let token = CURRENT_TOKEN.with(|c| c.get());
    if token == 0 {
        return;
    }
    if let Some(entry) = inflight_map().get_mut(&token) {
        entry.session = Some(session.to_string());
    }
}

/// Finish the request opened by [`begin_request`]: remove it from the
/// in-flight registry, clear this thread's marker, and return the final
/// registry entry (so the caller can read the session the handler tagged
/// via [`set_request_session`]). With token 0 and telemetry disabled this
/// is one relaxed load.
pub fn end_request(token: u64) -> Option<InflightRequest> {
    if token == 0 && !crate::enabled() {
        return None;
    }
    clear_current_request();
    if token == 0 {
        return None;
    }
    inflight_map().remove(&token)
}

/// Make `id` this thread's current request without registering it in the
/// in-flight registry. A served session's cleaner thread adopts the id of
/// each answer it consumes, so the records that answer causes name the
/// HTTP request that supplied it. No-op with telemetry disabled.
pub fn adopt_request(id: Option<String>) {
    if crate::enabled() {
        CURRENT_REQUEST.with(|c| *c.borrow_mut() = id);
    }
}

/// Unconditionally clear this thread's current-request marker, so a stale
/// id cannot leak onto whatever runs on this thread next.
fn clear_current_request() {
    CURRENT_REQUEST.with(|c| c.borrow_mut().take());
    CURRENT_TOKEN.with(|c| c.set(0));
}

/// Snapshot of every request currently between [`begin_request`] and
/// [`end_request`], in start order. Empty when telemetry is disabled.
pub fn inflight_requests() -> Vec<InflightRequest> {
    if !crate::enabled() {
        return Vec::new();
    }
    inflight_map().values().cloned().collect()
}

/// Clear the in-flight registry; called by [`crate::install`] so a leaked
/// request from a previous session cannot haunt the next one's inspector.
pub(crate) fn clear_registry() {
    inflight_map().clear();
}

/// Intern a dynamically-built metric name to the `&'static str` the
/// registry requires. Each distinct name is leaked exactly once and then
/// memoized, which is safe precisely because the serve layer only ever
/// builds names from a *fixed* route/status vocabulary — the set is bounded
/// by construction. Never call this with unbounded user input.
pub fn intern_metric_name(name: &str) -> &'static str {
    static INTERNED: Mutex<BTreeMap<&'static str, ()>> = Mutex::new(BTreeMap::new());
    let mut map = INTERNED.lock().unwrap_or_else(|p| p.into_inner());
    if let Some((interned, ())) = map.get_key_value(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(leaked, ());
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryCollector;
    use std::sync::Arc;

    #[test]
    fn disabled_request_marking_is_inert() {
        let _serial = crate::SESSION_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        assert!(!crate::enabled());
        assert_eq!(begin_request("qr-1", "GET", "/health"), 0);
        assert_eq!(current_request_id(), None);
        set_request_phase("handler");
        set_request_session("s1");
        end_request(0);
        assert!(inflight_requests().is_empty());
    }

    #[test]
    fn request_marker_tags_the_thread_and_the_inflight_registry() {
        let collector = Arc::new(InMemoryCollector::new());
        let session = crate::session(collector);
        let token = begin_request("req-abc", "POST", "/sessions/s1/answers");
        assert_ne!(token, 0);
        assert_eq!(current_request_id().as_deref(), Some("req-abc"));
        set_request_phase("machine.step");
        set_request_session("s1");
        let live = inflight_requests();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, "req-abc");
        assert_eq!(live[0].method, "POST");
        assert_eq!(live[0].route, "/sessions/s1/answers");
        assert_eq!(live[0].phase, "machine.step");
        assert_eq!(live[0].session.as_deref(), Some("s1"));
        end_request(token);
        assert_eq!(current_request_id(), None);
        assert!(inflight_requests().is_empty());
        drop(session);
    }

    #[test]
    fn install_clears_a_leaked_inflight_entry() {
        let session = crate::session(Arc::new(InMemoryCollector::new()));
        let _leaked = begin_request("leak", "GET", "/health");
        drop(session);
        let session = crate::session(Arc::new(InMemoryCollector::new()));
        assert!(
            inflight_requests().is_empty(),
            "a new install must not inherit stale in-flight entries"
        );
        clear_current_request();
        drop(session);
    }

    #[test]
    fn interning_is_memoized_and_stable() {
        let a = intern_metric_name("serve.requests.report.2xx");
        let b = intern_metric_name("serve.requests.report.2xx");
        assert!(std::ptr::eq(a, b), "same name must intern to one leak");
        assert_eq!(a, "serve.requests.report.2xx");
    }
}
