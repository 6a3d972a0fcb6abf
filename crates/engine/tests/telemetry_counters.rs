//! Telemetry correctness of evaluation: pinned search counters and span
//! placement.
//!
//! These live in their own integration-test binary: a telemetry session is
//! process-global, and unit tests running concurrently in another binary
//! would bleed counter increments into an active session.

use std::sync::Arc;

use qoco_data::Value;
use qoco_data::{tup, Database, Schema};
use qoco_engine::{all_assignments, Assignment, EvalOptions};
use qoco_query::{parse_query, ConjunctiveQuery, Var};
use qoco_telemetry::InMemoryCollector;

/// A 60 × 60 join in 3 groups: 60 root candidates and 1,200 valid
/// assignments.
fn wide_workload() -> (Database, ConjunctiveQuery) {
    let s = Schema::builder()
        .relation("A", &["a", "g"])
        .relation("B", &["b", "g"])
        .build()
        .unwrap();
    let mut db = Database::empty(s.clone());
    for i in 0..60i64 {
        db.insert_named("A", tup![i, i % 3]).unwrap();
        db.insert_named("B", tup![i, i % 3]).unwrap();
    }
    let q = parse_query(&s, "(x, y) :- A(x, g), B(y, g)").unwrap();
    (db, q)
}

/// The Figure 1 World Cup instance (Games and Teams) and Q1.
fn figure1() -> (Database, ConjunctiveQuery) {
    let s = Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .relation("Teams", &["country", "continent"])
        .build()
        .unwrap();
    let mut db = Database::empty(s.clone());
    for (d, w, r, u) in [
        ("13.07.14", "GER", "ARG", "1:0"),
        ("11.07.10", "ESP", "NED", "1:0"),
        ("09.07.06", "ITA", "FRA", "5:3"),
        ("30.06.02", "BRA", "GER", "2:0"),
        ("12.07.98", "ESP", "NED", "4:2"),
        ("17.07.94", "ESP", "NED", "3:1"),
        ("08.07.90", "GER", "ARG", "1:0"),
        ("11.07.82", "ITA", "GER", "4:1"),
        ("25.06.78", "ESP", "NED", "1:0"),
    ] {
        db.insert_named("Games", tup![d, w, r, "Final", u]).unwrap();
    }
    for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("BRA", "EU"), ("NED", "SA")] {
        db.insert_named("Teams", tup![c, k]).unwrap();
    }
    let q = parse_query(
        &s,
        r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
    )
    .unwrap();
    (db, q)
}

/// One evaluation under a fresh session: (`eval.assignments_tried`,
/// `eval.probe_hits`, valid assignments).
fn search_counters(db: &Database, q: &ConjunctiveQuery, seed: &Assignment) -> (u64, u64, usize) {
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector);
    let result = all_assignments(q, db, seed, EvalOptions::default());
    let metrics = qoco_telemetry::metrics().snapshot();
    drop(session);
    (
        metrics.counter("eval.assignments_tried"),
        metrics.counter("eval.probe_hits"),
        result.assignments.len(),
    )
}

/// The search itself is pinned: candidates examined and non-empty index
/// probes are the counts the engine produced before evaluations were
/// compiled into a slot-based kernel. A change to atom order, probe-column
/// choice or pruning moves them.
#[test]
fn search_counters_are_pinned() {
    let (db, q) = wide_workload();
    assert_eq!(
        search_counters(&db, &q, &Assignment::new()),
        (1260, 60, 1200),
        "wide workload"
    );
    let (db, q) = figure1();
    let esp = Assignment::from_pairs([(Var::new("x"), Value::text("ESP"))]);
    assert_eq!(
        search_counters(&db, &q, &esp),
        (21, 6, 12),
        "Figure 1 Q1 seeded with x = ESP"
    );
}

/// Evaluation never leaves the calling thread: every span the wide
/// workload records, the evaluation span included, carries this thread's
/// ordinal.
#[test]
fn evaluation_records_every_span_on_the_calling_thread() {
    let (db, q) = wide_workload();
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector.clone());
    let result = all_assignments(&q, &db, &Assignment::new(), EvalOptions::default());
    drop(session);
    assert_eq!(result.assignments.len(), 1200);
    let spans = collector.spans();
    assert!(
        spans.iter().any(|s| s.name == "eval.assignments"),
        "eval.assignments span recorded"
    );
    let here = qoco_telemetry::thread_ordinal();
    for s in &spans {
        assert_eq!(s.thread, here, "span {} left the calling thread", s.name);
    }
}
