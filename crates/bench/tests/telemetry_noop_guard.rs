//! The benchmark guard for the telemetry fast path: with no collector
//! installed, spans, counters and events must be branch-cheap. The bound is
//! deliberately loose (debug builds, loaded CI machines) — it exists to
//! catch a regression that puts allocation, locking or clock reads on the
//! disabled path, which would show up as a >100× slowdown, not a 2× one.
//!
//! Lives in its own integration-test binary so no sibling test can have a
//! telemetry session installed while it runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERATIONS: u64 = 1_000_000;
// ~10M cheap ops/sec even under a debug build on a busy machine; the
// disabled path is two relaxed atomic loads per op.
const BUDGET: Duration = Duration::from_millis(1_500);

#[test]
fn disabled_telemetry_is_a_noop_fast_path() {
    assert!(
        !qoco_telemetry::enabled(),
        "no collector must be installed in this process"
    );
    let start = Instant::now();
    for i in 0..ITERATIONS {
        let span = qoco_telemetry::span(black_box("guard.noop"));
        qoco_telemetry::counter_add("guard.noop", black_box(i));
        qoco_telemetry::gauge_add("guard.noop_gauge", black_box(1.0));
        qoco_telemetry::event("guard.noop", || unreachable!("lazy detail must not run"));
        // decision provenance: begin must return the disabled sentinel and
        // the detail closures must never run
        let decision = qoco_telemetry::begin_decision();
        assert_eq!(decision, 0, "disabled begin_decision must return 0");
        qoco_telemetry::finish_decision(decision, "guard.noop", || {
            unreachable!("lazy decision detail must not run")
        });
        qoco_telemetry::record_decision("guard.noop", || {
            unreachable!("lazy decision detail must not run")
        });
        // qoco-watch: with no watch installed this is one relaxed load
        qoco_telemetry::watch_tick();
        // request provenance (PR 10): disabled begin must return the 0
        // sentinel and neither mark the thread nor touch the registry
        let token = qoco_telemetry::begin_request(black_box("qr-noop"), "GET", "/health");
        assert_eq!(token, 0, "disabled begin_request must return 0");
        qoco_telemetry::set_request_phase("handler");
        qoco_telemetry::set_request_session(black_box("s1"));
        assert_eq!(qoco_telemetry::current_request_id(), None);
        assert!(qoco_telemetry::end_request(token).is_none());
        span.finish();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "{ITERATIONS} disabled span+counter+event+decision ops took {elapsed:?} \
         (budget {BUDGET:?}) — something expensive crept onto the disabled path"
    );
    // and the disabled ops must leave no trace
    assert_eq!(qoco_telemetry::now_ns(), 0);
    assert_eq!(qoco_telemetry::current_decision_id(), None);
    assert_eq!(
        qoco_telemetry::metrics().snapshot().counter("guard.noop"),
        0
    );
    assert!(
        qoco_telemetry::inflight_requests().is_empty(),
        "disabled request marking must leave the in-flight registry empty"
    );
}

/// With telemetry disabled, starting a watch must be inert: no sampler
/// thread, no global installation, and `watch_tick` stays the bare
/// relaxed-load fast path (exercised above inside the hot loop).
#[test]
fn disabled_watch_spawns_nothing_and_installs_nothing() {
    assert!(
        !qoco_telemetry::enabled(),
        "no collector must be installed in this process"
    );
    let rules = vec![
        qoco_telemetry::parse_rule("rule guard: rate(guard.noop, 5s) > 1/s => warn")
            .expect("valid rule"),
    ];
    let guard = qoco_telemetry::start_watch(
        rules,
        qoco_telemetry::WatchTick::Wall(Duration::from_millis(1)),
    );
    assert!(!guard.is_live(), "a disabled watch must not start");
    assert!(guard.watch().is_none(), "inert guard must hold no watch");
    assert!(
        qoco_telemetry::watch().is_none(),
        "a disabled watch must not install globally"
    );
    // Give a hypothetical runaway sampler thread time to tick, then make
    // sure ticking by hand is still a no-op.
    std::thread::sleep(Duration::from_millis(5));
    qoco_telemetry::watch_tick();
    let dropped_at = Instant::now();
    drop(guard);
    assert!(
        dropped_at.elapsed() < Duration::from_millis(50),
        "dropping an inert watch guard must not block on a thread join"
    );
}
