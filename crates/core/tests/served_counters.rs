//! A served session counts exactly: driving the Figure 1 session through
//! `SessionMachine` must leave the same crowd telemetry as one `clean_view`
//! call, and every decision an answer causes must name the HTTP request
//! that submitted it.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global telemetry session; no other cleaner may run alongside.

use std::collections::BTreeMap;
use std::sync::Arc;

use qoco_core::{clean_view, figure1_ground, figure1_spec, SessionMachine};
use qoco_crowd::{Oracle, PerfectOracle, SingleExpert};
use qoco_telemetry::InMemoryCollector;

/// `crowd.questions_asked` plus a count of every `crowd.*` event, by name.
fn crowd_tally(collector: &InMemoryCollector) -> (u64, BTreeMap<&'static str, usize>) {
    let asked = qoco_telemetry::metrics()
        .snapshot()
        .counter("crowd.questions_asked");
    let mut events = BTreeMap::new();
    for e in collector.events() {
        if e.name.starts_with("crowd.") {
            *events.entry(e.name).or_insert(0) += 1;
        }
    }
    (asked, events)
}

#[test]
fn served_counters_match_a_one_shot_run_and_name_the_answering_request() {
    let spec = figure1_spec();
    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector.clone());
    let mut db = spec.dirty.clone();
    let mut crowd = SingleExpert::new(PerfectOracle::new(figure1_ground()));
    let reference = clean_view(&spec.query, &mut db, &mut crowd, spec.config).unwrap();
    let expected = crowd_tally(&collector);
    drop(session);
    assert!(expected.0 > 1, "Figure 1 needs several questions");

    let collector = Arc::new(InMemoryCollector::new());
    let session = qoco_telemetry::session(collector.clone());
    let mut m = SessionMachine::new(spec);
    let mut oracle = PerfectOracle::new(figure1_ground());
    while let Some(p) = m.pending().cloned() {
        let request = format!("answer-{}", p.seq);
        let token = qoco_telemetry::begin_request(&request, "POST", "/sessions/s1/answers");
        let answer = oracle.answer(&p.question).unwrap();
        m.submit(p.seq, Ok(answer)).unwrap();
        qoco_telemetry::end_request(token);
    }
    let report = &m.finished().expect("Figure 1 converges").report;
    assert_eq!(crowd_tally(&collector), expected, "served run over-counts");
    assert_eq!(report.total_stats, reference.total_stats);

    // The decision behind each question is finished once its answer is in,
    // so it names the request that supplied the answer.
    let decisions = collector.decisions();
    let mut tagged = 0;
    for record in m.log() {
        let request = format!("answer-{}", record.seq);
        assert_eq!(record.request.as_deref(), Some(request.as_str()));
        let Some(id) = record.decision else { continue };
        let decision = decisions
            .iter()
            .find(|d| d.id == id)
            .expect("the question's decision was recorded");
        assert_eq!(decision.request.as_deref(), Some(request.as_str()));
        tagged += 1;
    }
    assert!(tagged > 0, "decision provenance tags the served questions");
    drop(session);
}
