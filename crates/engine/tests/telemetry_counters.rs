//! Telemetry correctness under the parallel eval path.
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

/// A join whose top-level candidate list clears the engine's parallel
/// threshold, so `threads > 1` actually fans out.
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

fn opts(threads: usize) -> EvalOptions {
    EvalOptions {
        threads: Some(threads),
        ..EvalOptions::default()
    }
}

/// Run the workload under a fresh session, returning (assignments_tried,
/// answer count, recorded spans).
fn run_session(threads: usize) -> (u64, usize, Vec<qoco_telemetry::SpanRecord>) {
    let (db, q) = wide_workload();
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector.clone());
    let result = all_assignments(&q, &db, &Assignment::new(), opts(threads));
    let tried = qoco_telemetry::metrics()
        .snapshot()
        .counter("eval.assignments_tried");
    drop(session);
    (tried, result.assignments.len(), collector.spans())
}

/// One evaluation under a fresh session: (`eval.assignments_tried`,
/// `eval.probe_hits`, valid assignments).
fn search_counters(
    db: &Database,
    q: &ConjunctiveQuery,
    seed: &Assignment,
    threads: usize,
) -> (u64, u64, usize) {
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector);
    let result = all_assignments(q, db, seed, opts(threads));
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
/// choice, pruning or the parallel split moves them.
#[test]
fn search_counters_are_pinned() {
    let (db, q) = wide_workload();
    for threads in [1, 8] {
        assert_eq!(
            search_counters(&db, &q, &Assignment::new(), threads),
            (1260, 60, 1200),
            "wide workload, threads={threads}"
        );
    }
    let (db, q) = figure1();
    let esp = Assignment::from_pairs([(Var::new("x"), Value::text("ESP"))]);
    assert_eq!(
        search_counters(&db, &q, &esp, 1),
        (21, 6, 12),
        "Figure 1 Q1 seeded with x = ESP"
    );
}

#[test]
fn no_counter_increments_lost_with_eight_parallel_workers() {
    let (tried_seq, n_seq, _) = run_session(1);
    let (tried_par, n_par, _) = run_session(8);
    assert_eq!(n_seq, n_par, "parallel eval changed the answer set");
    assert!(tried_seq > 0, "workload exercised the counter");
    // Every worker's `tried` tally is merged and added exactly once; a racy
    // accumulation would drop increments at threads=8.
    assert_eq!(
        tried_par, tried_seq,
        "assignments_tried diverged between threads=1 and threads=8"
    );
}

#[test]
fn parallel_chunks_land_on_distinct_tracks_under_the_eval_span() {
    let (_, _, spans) = run_session(4);
    let eval = spans
        .iter()
        .find(|s| s.name == "eval.assignments")
        .expect("eval.assignments span recorded");
    let chunks: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "eval.par_chunk")
        .collect();
    assert!(
        chunks.len() >= 2,
        "expected a fan-out, got {} chunk spans",
        chunks.len()
    );
    let mut threads: Vec<u64> = chunks.iter().map(|c| c.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    assert!(
        threads.len() >= 2,
        "chunk spans all landed on one thread track: {threads:?}"
    );
    for c in &chunks {
        assert_eq!(c.parent, Some(eval.id), "chunk linked to the eval span");
        assert!(c.field("candidates").is_some());
        assert!(c.field("valid").is_some());
        let probes: u64 = c.field("probes").and_then(|v| v.parse().ok()).unwrap();
        assert!(probes > 0, "each chunk issues index probes on the join");
    }
    // the eval span carries the session-wide probe tally for attribution
    let eval_probes: u64 = eval.field("probes").and_then(|v| v.parse().ok()).unwrap();
    let chunk_probes: u64 = chunks
        .iter()
        .map(|c| {
            c.field("probes")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap()
        })
        .sum();
    assert!(eval_probes >= chunk_probes, "parent tally includes chunks");
}
