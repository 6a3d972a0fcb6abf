//! Chaos-engineering integration tests: deterministic fault injection
//! across the full cleaning pipeline.
//!
//! Every fault here is scripted through a [`FaultPlan`], so each scenario
//! is exactly reproducible: a dropped expert (or a whole dropped panel) must
//! degrade the session to a clean *partial* report (never a panic), a
//! majority panel must degrade its quorum or outvote a liar and still
//! converge, a no-fault plan must be question-for-question identical to no
//! fault injection at all, and the fault counters must surface in the
//! Prometheus exposition.

use std::collections::BTreeSet;
use std::sync::Arc;

use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{
    CrowdAccess, FaultPlan, FaultyOracle, ImperfectOracle, MajorityCrowd, Oracle, PerfectOracle,
    SingleExpert,
};
use qoco::data::{tup, Database, Schema};
use qoco::engine::answer_set;
use qoco::query::{parse_query, ConjunctiveQuery};

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .relation("Teams", &["country", "continent"])
        .build()
        .unwrap()
}

/// The Figure 1 fixture: ESP's 1998 final is a false fact, so (ESP) is a
/// wrong answer of the two-finals query while (GER) is a true one.
fn fixtures() -> (Database, Database) {
    let s = schema();
    let mut dirty = Database::empty(s.clone());
    for (dt, w, r, st, u) in [
        ("11.07.10", "ESP", "NED", "Final", "1:0"),
        ("12.07.98", "ESP", "NED", "Final", "4:2"), // false
        ("13.07.14", "GER", "ARG", "Final", "1:0"),
        ("08.07.90", "GER", "ARG", "Final", "1:0"),
    ] {
        dirty.insert_named("Games", tup![dt, w, r, st, u]).unwrap();
    }
    dirty.insert_named("Teams", tup!["ESP", "EU"]).unwrap();
    dirty.insert_named("Teams", tup!["GER", "EU"]).unwrap();
    let mut ground = dirty.clone();
    let games = s.rel_id("Games").unwrap();
    ground
        .apply(&qoco::data::Edit::delete(qoco::data::Fact::new(
            games,
            tup!["12.07.98", "ESP", "NED", "Final", "4:2"],
        )))
        .unwrap();
    (dirty, ground)
}

fn fig1_query(s: &Arc<Schema>) -> ConjunctiveQuery {
    parse_query(
        s,
        r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2"#,
    )
    .unwrap()
}

fn faulty(ground: &Database, spec: &str) -> FaultyOracle<PerfectOracle> {
    FaultyOracle::new(PerfectOracle::new(ground.clone()), spec.parse().unwrap())
}

#[test]
fn a_dropped_expert_yields_a_clean_partial_report() {
    let (mut dirty, ground) = fixtures();
    let q = fig1_query(&schema());
    // the sole expert drops out at its second question: the session must
    // finish without panicking and account for everything it had to skip
    let mut crowd = SingleExpert::new(faulty(&ground, "drop@2"));
    let report = clean_view(&q, &mut dirty, &mut crowd, CleaningConfig::default())
        .expect("a crowd failure is a partial report, not an error");
    assert!(report.is_partial());
    assert!(!report.unresolved.is_empty());
    // the session dies mid-deletion of (ESP), so all three phases have
    // something to confess: the aborted delete, the unverifiable (GER),
    // and the unreachable completeness probe
    let phases: BTreeSet<String> = report
        .unresolved
        .iter()
        .map(|u| u.phase.to_string())
        .collect();
    for phase in ["delete", "verify", "insert"] {
        assert!(phases.contains(phase), "missing {phase} in {phases:?}");
    }
    assert!(crowd.stats().faults >= 1);

    // a whole majority panel that drops before its first answer confirms
    // nothing: every answer is unverifiable, the completeness probe is
    // unreachable, and nothing is edited
    let (mut dirty, ground) = fixtures();
    let mut panel = MajorityCrowd::new(vec![
        faulty(&ground, "drop@0"),
        faulty(&ground, "drop@0"),
        faulty(&ground, "drop@0"),
    ]);
    let report = clean_view(&q, &mut dirty, &mut panel, CleaningConfig::default())
        .expect("a dead panel is a partial report, not an error");
    assert!(report.is_partial());
    let phases: BTreeSet<String> = report
        .unresolved
        .iter()
        .map(|u| u.phase.to_string())
        .collect();
    for phase in ["verify", "insert"] {
        assert!(phases.contains(phase), "missing {phase} in {phases:?}");
    }
    assert_eq!(panel.alive(), 0);
    assert!(report.edits.is_empty(), "nothing confirmed, nothing edited");
}

#[test]
fn majority_crowd_degrades_quorum_and_still_converges() {
    let (mut dirty, ground) = fixtures();
    let q = fig1_query(&schema());
    // one of three panelists drops out immediately; the survivors carry
    // the vote with a degraded quorum and the session fully converges
    let mut crowd = MajorityCrowd::new(vec![
        faulty(&ground, "drop@1"),
        faulty(&ground, ""),
        faulty(&ground, ""),
    ]);
    let report = clean_view(&q, &mut dirty, &mut crowd, CleaningConfig::default()).unwrap();
    assert!(!report.is_partial(), "{report}");
    assert_eq!(crowd.alive(), 2);
    assert!(crowd.stats().faults >= 1);
    assert_eq!(answer_set(&q, &dirty), answer_set(&q, &ground.clone()));

    // an expert who lies on every answer is outvoted by the other two
    let (mut dirty, ground) = fixtures();
    let experts: Vec<Box<dyn Oracle>> = vec![
        Box::new(ImperfectOracle::new(ground.clone(), 1.0, 99)),
        Box::new(PerfectOracle::new(ground.clone())),
        Box::new(PerfectOracle::new(ground.clone())),
    ];
    let mut crowd = MajorityCrowd::new(experts);
    let report = clean_view(&q, &mut dirty, &mut crowd, CleaningConfig::default()).unwrap();
    assert!(!report.is_partial(), "{report}");
    assert_eq!(report.anomalies, 0);
    assert_eq!(answer_set(&q, &dirty), answer_set(&q, &ground.clone()));
}

#[test]
fn an_empty_fault_plan_is_question_for_question_identical() {
    let (dirty, ground) = fixtures();
    let q = fig1_query(&schema());
    let mut plain_db = dirty.clone();
    let mut plain = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let plain_report =
        clean_view(&q, &mut plain_db, &mut plain, CleaningConfig::default()).unwrap();
    let mut chaos_db = dirty;
    let mut chaos = SingleExpert::new(FaultyOracle::new(
        PerfectOracle::new(ground),
        FaultPlan::none(),
    ));
    let chaos_report =
        clean_view(&q, &mut chaos_db, &mut chaos, CleaningConfig::default()).unwrap();
    assert_eq!(
        plain.stats(),
        chaos.stats(),
        "fault machinery must be free when off"
    );
    assert_eq!(plain_report.edits.edits(), chaos_report.edits.edits());
    assert_eq!(plain_db.sorted_facts(), chaos_db.sorted_facts());
    assert!(!chaos_report.is_partial());
}

#[test]
fn fault_counters_are_visible_in_prometheus_exposition() {
    let collector = Arc::new(qoco::telemetry::InMemoryCollector::new());
    let session = qoco::telemetry::session(collector);
    let (dirty, ground) = fixtures();
    let q = fig1_query(&schema());
    // a transient timeout on question 2 exercises the retry path…
    let mut d1 = dirty.clone();
    let mut retrying = SingleExpert::new(faulty(&ground, "fail@2=timeout"));
    clean_view(&q, &mut d1, &mut retrying, CleaningConfig::default()).unwrap();
    assert!(retrying.stats().retries >= 1);
    // …and a dropped panelist exercises escalation within the majority vote
    let mut d2 = dirty;
    let mut panel = MajorityCrowd::new(vec![
        faulty(&ground, "drop@1"),
        faulty(&ground, ""),
        faulty(&ground, ""),
    ]);
    clean_view(&q, &mut d2, &mut panel, CleaningConfig::default()).unwrap();
    assert!(panel.stats().escalations >= 1);
    let text = qoco::telemetry::metrics().snapshot().to_prometheus_text();
    for metric in [
        "qoco_crowd_faults_total",
        "qoco_crowd_retries_total",
        "qoco_crowd_escalations_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
    drop(session);
}
