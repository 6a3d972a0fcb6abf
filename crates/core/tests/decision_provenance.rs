//! Decision-provenance integration tests: the recorded evidence must match
//! the live algorithm state it claims to describe, and a killed+resumed
//! session must produce the *identical* decision log to an uninterrupted
//! run.
//!
//! Lives in its own integration-test binary because it installs the
//! process-global telemetry session; tests serialize on a local lock so
//! they never overlap.

use std::sync::{Arc, Mutex, OnceLock};

use qoco_core::{clean_view, CleaningConfig};
use qoco_crowd::{Journal, PerfectOracle, SingleExpert};
use qoco_data::{tup, Database, Schema};
use qoco_query::{parse_query, UnionQuery};
use qoco_telemetry::{DecisionRecord, InMemoryCollector};

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Dirty DB where (ESP) is a wrong answer with three overlapping witness
/// sets — the frequency ranking is non-trivial: Teams(ESP, EU) backs every
/// witness (frequency 3) while each Games fact backs two.
fn setup() -> (Database, Database, qoco_query::ConjunctiveQuery) {
    let schema = Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .relation("Teams", &["country", "continent"])
        .build()
        .unwrap();
    let mut dirty = Database::empty(schema.clone());
    for (d, w, r) in [
        ("11.07.10", "ESP", "NED"),
        ("12.07.98", "ESP", "BRA"),
        ("13.07.02", "ESP", "GER"),
    ] {
        dirty
            .insert_named("Games", tup![d, w, r, "Final", "1:0"])
            .unwrap();
    }
    dirty.insert_named("Teams", tup!["ESP", "EU"]).unwrap();

    // ground truth: ESP won exactly one final, so the two-distinct-finals
    // query has no answers — (ESP) must be cleaned away
    let mut ground = Database::empty(schema.clone());
    ground
        .insert_named("Games", tup!["11.07.10", "ESP", "NED", "Final", "1:0"])
        .unwrap();
    ground.insert_named("Teams", tup!["ESP", "EU"]).unwrap();

    let q = parse_query(
        &schema,
        r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2"#,
    )
    .unwrap();
    (dirty, ground, q)
}

/// Split a `{f1, f2, …}` rendering into fact strings, honouring nested
/// parentheses inside each fact's tuple.
fn parse_fact_set(s: &str) -> Vec<String> {
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not a fact set: {s:?}"));
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let bytes = inner.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b',' if depth == 0 => {
                out.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if !inner[start..].trim().is_empty() {
        out.push(inner[start..].trim().to_string());
    }
    out
}

fn evidence<'a>(d: &'a DecisionRecord, key: &str) -> &'a str {
    d.evidence
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("decision {} has no `{key}` evidence: {d:?}", d.id))
}

fn run_clean(dirty: &Database, ground: &Database, q: &qoco_query::ConjunctiveQuery) -> Database {
    let mut db = dirty.clone();
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    clean_view(q, &mut db, &mut crowd, CleaningConfig::default()).unwrap();
    db
}

#[test]
fn deletion_ranking_matches_a_recount_of_the_witness_sets() {
    let _guard = session_lock().lock().unwrap_or_else(|p| p.into_inner());
    let (dirty, ground, q) = setup();
    let collector = Arc::new(InMemoryCollector::new());
    let decisions = {
        let _session = qoco_telemetry::session(collector.clone());
        run_clean(&dirty, &ground, &q);
        collector.decisions()
    };

    let verify_facts: Vec<&DecisionRecord> = decisions
        .iter()
        .filter(|d| d.kind == "deletion.verify_fact")
        .collect();
    assert!(
        !verify_facts.is_empty(),
        "the scenario must ask at least one deletion question"
    );
    assert!(
        decisions.iter().any(|d| d.kind == "deletion.plan"),
        "every deletion run opens with a plan record"
    );

    for d in &verify_facts {
        // recount frequencies from the recorded live witness-set state
        let sets: Vec<Vec<String>> = evidence(d, "witnesses")
            .split(" | ")
            .map(parse_fact_set)
            .collect();
        let count = |fact: &str| sets.iter().filter(|s| s.iter().any(|f| f == fact)).count();

        let asked = d
            .question
            .strip_prefix("TRUE(")
            .and_then(|s| s.strip_suffix(")?"))
            .unwrap_or_else(|| panic!("unexpected question shape: {}", d.question));
        assert_eq!(
            evidence(d, "frequency").parse::<usize>().unwrap(),
            count(asked),
            "claimed frequency of the asked fact must match the recount"
        );

        // the ranking must cover the whole universe, claim the recounted
        // frequency for every candidate, be sorted, and lead with the
        // asked (greedy-best) fact
        let ranking: Vec<(String, usize)> = evidence(d, "ranking")
            .split(" > ")
            .map(|entry| {
                let (fact, n) = entry.rsplit_once('=').expect("entry is fact=count");
                (fact.to_string(), n.parse().unwrap())
            })
            .collect();
        let universe: std::collections::BTreeSet<&String> = sets.iter().flatten().collect();
        assert_eq!(ranking.len(), universe.len(), "ranking covers the universe");
        assert_eq!(ranking[0].0, asked, "greedy-best fact leads the ranking");
        for (fact, claimed) in &ranking {
            assert_eq!(*claimed, count(fact), "recount mismatch for {fact}");
        }
        for pair in ranking.windows(2) {
            assert!(
                pair[0].1 >= pair[1].1,
                "ranking must be sorted by frequency: {ranking:?}"
            );
        }
    }
}

#[test]
fn killed_and_resumed_session_replays_an_identical_decision_log() {
    let _guard = session_lock().lock().unwrap_or_else(|p| p.into_inner());
    let (dirty, ground, q) = setup();

    // uninterrupted run, journaling every outcome
    let full_journal = Journal::recording();
    let collector = Arc::new(InMemoryCollector::new());
    let full_db = {
        let _session = qoco_telemetry::session(collector.clone());
        let mut db = dirty.clone();
        let mut crowd = SingleExpert::new(full_journal.wrap(PerfectOracle::new(ground.clone())));
        clean_view(&q, &mut db, &mut crowd, CleaningConfig::default()).unwrap();
        db
    };
    let full_decisions = collector.decisions();
    let records = full_journal.records();
    assert!(records.len() >= 3, "scenario too small to interrupt");
    assert!(
        records.iter().all(|r| r.decision.is_some()),
        "every journaled question must carry its decision id"
    );

    // "crash" after the 2nd answer, then resume: replay the prefix and
    // finish live — the decision stream must be indistinguishable
    let resumed_journal = Journal::replaying(records[..2].to_vec());
    let collector2 = Arc::new(InMemoryCollector::new());
    let resumed_db = {
        let _session = qoco_telemetry::session(collector2.clone());
        let mut db = dirty.clone();
        let mut crowd = SingleExpert::new(resumed_journal.wrap(PerfectOracle::new(ground.clone())));
        clean_view(&q, &mut db, &mut crowd, CleaningConfig::default()).unwrap();
        db
    };
    assert_eq!(resumed_journal.divergences(), 0);
    assert_eq!(
        qoco_data::diff(&resumed_db, &full_db).unwrap().distance(),
        0,
        "resumed database must match the uninterrupted run"
    );

    // identical modulo wall-clock fields (timestamps, span ids, threads)
    type Stripped = (
        u64,
        &'static str,
        String,
        String,
        Vec<(&'static str, String)>,
    );
    let strip = |ds: &[DecisionRecord]| -> Vec<Stripped> {
        ds.iter()
            .map(|d| {
                (
                    d.id,
                    d.kind,
                    d.question.clone(),
                    d.outcome.clone(),
                    d.evidence.clone(),
                )
            })
            .collect()
    };
    assert_eq!(
        strip(&full_decisions),
        strip(&collector2.decisions()),
        "fresh and resumed runs must log identical decisions"
    );

    // the resumed journal re-derives the same decision tags, so `--resume`
    // replays provenance losslessly
    let tags = |rs: &[qoco_crowd::JournalRecord]| -> Vec<Option<u64>> {
        rs.iter().map(|r| r.decision).collect()
    };
    assert_eq!(tags(&records), tags(&resumed_journal.records()));
}

/// Decision kinds that cost no crowd interaction — qoco-cli's
/// `NON_QUESTION_KINDS`, which its `explain` budget summary excludes.
const NON_QUESTION_KINDS: &[&str] = &[
    "deletion.plan",
    "deletion.certificate",
    "insertion.split",
    "crowd.retry",
    "crowd.escalation",
];

#[test]
fn every_question_of_a_union_session_has_a_decision() {
    let _guard = session_lock().lock().unwrap_or_else(|p| p.into_inner());
    let schema = Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .build()
        .unwrap();
    let mut dirty = Database::empty(schema.clone());
    let mut ground = Database::empty(schema.clone());
    for db in [&mut dirty, &mut ground] {
        db.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
    }
    // (BRA) and (FRA) are wrong; (ESP) and (NED) are missing
    dirty
        .insert_named("Games", tup!["99.99.99", "BRA", "FRA", "Final", "9:0"])
        .unwrap();
    ground
        .insert_named("Games", tup!["11.07.10", "ESP", "NED", "Final", "1:0"])
        .unwrap();
    let won = parse_query(&schema, r#"W(x) :- Games(d, x, y, "Final", u)"#).unwrap();
    let lost = parse_query(&schema, r#"L(x) :- Games(d, y, x, "Final", u)"#).unwrap();
    let union = UnionQuery::new("Finalists", vec![won, lost]).unwrap();

    let collector = Arc::new(InMemoryCollector::new());
    let report = {
        let _session = qoco_telemetry::session(collector.clone());
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground));
        clean_view(&union, &mut dirty, &mut crowd, CleaningConfig::default()).unwrap()
    };
    assert!(report.missing_answers >= 1, "{report}");

    let decisions = collector.decisions();
    let question_decisions = decisions
        .iter()
        .filter(|d| !NON_QUESTION_KINDS.contains(&d.kind))
        .count();
    let s = report.total_stats;
    let questions = s.verify_answer_questions
        + s.verify_fact_questions
        + s.satisfiable_questions
        + s.composite_questions
        + s.complete_tasks
        + s.complete_result_tasks;
    assert_eq!(question_decisions, questions, "{report}");
    // the per-disjunct completeness questions are among them
    assert!(decisions.iter().any(|d| d.kind == "clean.complete_result"));
}
