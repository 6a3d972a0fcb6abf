//! The enabled-telemetry overhead budget.
//!
//! DESIGN.md §9 documents the budget: telemetry must cost **zero when
//! disabled** (covered by `telemetry_noop_guard`) and **under 5% of
//! end-to-end evaluation wall clock when enabled**. This test enforces the
//! enabled half against a real workload. The assertion threshold is looser
//! than the documented budget (1.20× vs 1.05×) because tier-1 tests run on
//! loaded, single-core CI machines under debug builds, where run-to-run
//! noise alone exceeds 5%; a telemetry path that regressed to per-span
//! locking or allocation storms shows up as 2–10×, which this still
//! catches. Min-of-N with interleaved measurement order keeps a one-off
//! scheduler stall on either side from deciding the verdict.
//!
//! Lives in its own integration-test binary: sessions are process-global.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qoco_data::{tup, Database, Schema};
use qoco_engine::{all_assignments, Assignment, EvalOptions};
use qoco_query::{parse_query, ConjunctiveQuery};
use qoco_telemetry::InMemoryCollector;

const ROUNDS: usize = 7;
const NOISE_HEADROOM: f64 = 1.20;

/// Serializes the two tests: the budget test measures with telemetry
/// *disabled* part of the time, which the sibling test's session would
/// corrupt (the telemetry session lock only serializes sessions).
static SERIAL: Mutex<()> = Mutex::new(());

/// The *dense* workload: `n` tuples per relation, `n / 10` join groups of
/// 10 tuples each, so `Q(x, y) :- A(x, g), B(y, g)` has `10 n` valid
/// assignments. Output-bound: every candidate survives, so the run is
/// dominated by the enumeration that spans and counters instrument.
fn dense_workload(n: usize) -> (Database, ConjunctiveQuery) {
    let schema = Schema::builder()
        .relation("A", &["x", "g"])
        .relation("B", &["y", "g"])
        .build()
        .unwrap();
    let mut db = Database::empty(schema.clone());
    let groups = (n / 10).max(1);
    for i in 0..n {
        db.insert_named("A", tup![format!("a{i:06}"), format!("g{:06}", i % groups)])
            .unwrap();
        db.insert_named("B", tup![format!("b{i:06}"), format!("g{:06}", i % groups)])
            .unwrap();
    }
    let q = parse_query(&schema, "Q(x, y) :- A(x, g), B(y, g).").unwrap();
    (db, q)
}

fn eval_once(db: &Database, q: &ConjunctiveQuery) -> usize {
    all_assignments(q, db, &Assignment::new(), EvalOptions::default())
        .assignments
        .len()
}

fn time_ns(mut f: impl FnMut() -> usize) -> u64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as u64
}

#[test]
fn enabled_telemetry_stays_within_the_documented_overhead_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (db, q) = dense_workload(500);
    // warm lazy indexes and page in both paths before any measurement
    assert!(eval_once(&db, &q) > 0);

    let mut disabled_min = u64::MAX;
    let mut enabled_min = u64::MAX;
    for _ in 0..ROUNDS {
        assert!(
            !qoco_telemetry::enabled(),
            "no session may be active in this binary"
        );
        disabled_min = disabled_min.min(time_ns(|| eval_once(&db, &q)));

        let collector = Arc::new(InMemoryCollector::new());
        let session = qoco_telemetry::session(collector);
        enabled_min = enabled_min.min(time_ns(|| eval_once(&db, &q)));
        drop(session);
    }

    let ratio = enabled_min as f64 / disabled_min as f64;
    assert!(
        ratio < NOISE_HEADROOM,
        "enabled telemetry costs {ratio:.2}× over disabled \
         (min-of-{ROUNDS}: {enabled_min}ns vs {disabled_min}ns) — \
         the documented budget is <5%; something expensive is on the enabled path"
    );
}

#[test]
fn per_span_enabled_cost_is_bounded() {
    // The enabled per-span cost is one atomic id, a thread-local stack
    // push/pop, two clock reads and one collector call. Budget: 4µs/op
    // average even on a loaded debug-build CI machine (release is ~100×
    // under this); a mutex-contended or allocating hot path blows through.
    const OPS: u64 = 100_000;
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector.clone());
    let start = Instant::now();
    for i in 0..OPS {
        let span = qoco_telemetry::span(black_box("budget.op"));
        qoco_telemetry::counter_add("budget.ops", black_box(i) & 1);
        span.finish();
    }
    let elapsed = start.elapsed();
    drop(session);
    assert_eq!(collector.spans().len(), OPS as usize);
    let per_op_ns = elapsed.as_nanos() as f64 / OPS as f64;
    assert!(
        per_op_ns < 4_000.0,
        "enabled span+counter op costs {per_op_ns:.0}ns on average (budget 4000ns)"
    );
}

/// The serve layer's request-provenance path (PR 10) runs once per HTTP
/// request: mark the thread, register the in-flight entry, bump the RED
/// counters, unregister. That is a registry-mutex round trip and a few
/// string allocations — fine per request, fatal if it ever crept into a
/// per-span or per-tuple path. Budget: 10µs/op average under a loaded
/// debug build (release is far under 1µs).
#[test]
fn per_request_enabled_cost_is_bounded() {
    const OPS: u64 = 50_000;
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector);
    let start = Instant::now();
    for i in 0..OPS {
        let token = qoco_telemetry::begin_request(black_box("qr-budget"), "GET", "/health");
        qoco_telemetry::set_request_phase("handler");
        qoco_telemetry::counter_add("serve.requests", black_box(i) & 1);
        assert!(qoco_telemetry::end_request(token).is_some());
    }
    let elapsed = start.elapsed();
    drop(session);
    let per_op_ns = elapsed.as_nanos() as f64 / OPS as f64;
    assert!(
        per_op_ns < 10_000.0,
        "request begin/phase/end costs {per_op_ns:.0}ns on average (budget 10000ns)"
    );
}

/// A running qoco-watch must not slow the mutators it observes. Each wall
/// tick snapshots the metrics registry and evaluates rules off the mutator
/// threads; mutators only pay the registry's existing sharded counter path
/// plus the `watch_tick` relaxed load. Same min-of-N interleaved scheme and
/// loose bound as the enabled-telemetry test above: a watch that put
/// locking or evaluation onto the mutator path would show up as multiples.
#[test]
fn watch_sampler_overhead_stays_within_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (db, q) = dense_workload(500);
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector);
    assert!(eval_once(&db, &q) > 0); // warm-up under the session

    let rules = qoco_telemetry::parse_rules(
        "rule budget_assignments: rate(eval.assignments_tried, 1s) > 1/s => info\n\
         rule budget_p95: p95(eval.assignments) > 10000000000 => warn\n",
    )
    .expect("valid budget rules");

    let mut plain_min = u64::MAX;
    let mut watched_min = u64::MAX;
    let mut ticks = 0u64;
    for _ in 0..ROUNDS {
        plain_min = plain_min.min(time_ns(|| eval_once(&db, &q)));

        let guard = qoco_telemetry::start_watch(
            rules.clone(),
            qoco_telemetry::WatchTick::Wall(Duration::from_millis(1)),
        );
        assert!(guard.is_live(), "watch must run under a live session");
        watched_min = watched_min.min(time_ns(|| eval_once(&db, &q)));
        let watch = guard.watch().expect("live guard holds a watch");
        drop(guard);
        ticks += watch.ticks();
    }
    drop(session);
    assert!(
        ticks > 0,
        "across {ROUNDS} rounds the watch sampler never ticked — it was not running"
    );

    let ratio = watched_min as f64 / plain_min as f64;
    assert!(
        ratio < NOISE_HEADROOM,
        "a 1ms watch sampler costs {ratio:.2}× over unwatched eval \
         (min-of-{ROUNDS}: {watched_min}ns vs {plain_min}ns) — \
         sampling and rule evaluation must stay off the mutator path"
    );
}
