//! Cross-crate integration: the full QOCO pipeline on the paper-scale
//! Soccer and DBGroup datasets.

use std::collections::BTreeSet;

use qoco::core::{clean_view, CleaningConfig, DeletionStrategy, SplitStrategyKind};
use qoco::crowd::{Chao92Estimator, PerfectOracle, SamplingOracle, SingleExpert};
use qoco::data::{diff, Database, Tuple};
use qoco::datasets::{
    dbgroup_queries, generate_dbgroup, generate_soccer, inject_noise, plant_mixed, soccer_queries,
    DbGroupConfig, NoiseSpec, SoccerConfig,
};
use qoco::engine::answer_set;
use qoco::query::ConjunctiveQuery;

fn true_answers(ground: &Database, q: &ConjunctiveQuery) -> Vec<Tuple> {
    answer_set(q, ground)
}

#[test]
fn every_soccer_query_converges_after_planted_noise() {
    let ground = generate_soccer(SoccerConfig::default());
    for (i, q) in soccer_queries(ground.schema()).iter().enumerate() {
        let planted = plant_mixed(q, &ground, 2, 2, 100 + i as u64);
        assert_eq!(planted.wrong.len(), 2, "{}", q.name());
        assert_eq!(planted.missing.len(), 2, "{}", q.name());
        let mut d = planted.db;
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let report = clean_view(q, &mut d, &mut crowd, CleaningConfig::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", q.name()));
        assert_eq!(
            answer_set(q, &d),
            true_answers(&ground, q),
            "{} did not converge to the true result",
            q.name()
        );
        // removing one planted error can fix another as a side effect
        // (shared facts), so the report's counts are lower-bounded by 1,
        // not by the planted count
        assert!(report.wrong_answers >= 1, "{}", q.name());
        assert!(report.missing_answers >= 1, "{}", q.name());
        assert_eq!(report.anomalies, 0, "{}", q.name());
    }
}

#[test]
fn every_dbgroup_query_converges_after_planted_noise() {
    let ground = generate_dbgroup(DbGroupConfig::default());
    for (i, q) in dbgroup_queries(ground.schema()).iter().enumerate() {
        let planted = plant_mixed(q, &ground, 1, 2, 300 + i as u64);
        let mut d = planted.db;
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        clean_view(q, &mut d, &mut crowd, CleaningConfig::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", q.name()));
        assert_eq!(answer_set(q, &d), true_answers(&ground, q), "{}", q.name());
    }
}

#[test]
fn cleanliness_noise_cleans_up_on_q1() {
    // global (query-oblivious) noise at the paper's default 80% cleanliness
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[0];
    let mut d = inject_noise(
        &ground,
        NoiseSpec {
            cleanliness: 0.9,
            skewness: 0.5,
            seed: 5,
        },
    );
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let config = CleaningConfig {
        max_iterations: 60,
        ..Default::default()
    };
    clean_view(q, &mut d, &mut crowd, config).expect("perfect-oracle cleaning converges");
    assert_eq!(answer_set(q, &d), true_answers(&ground, q));
}

#[test]
fn edits_never_increase_the_distance_to_ground_truth() {
    // Proposition 3.3 on a full paper-scale run
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[2]; // Q3, the biggest
    let planted = plant_mixed(q, &ground, 3, 3, 9);
    let d0 = planted.db;
    let mut d = d0.clone();
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let report = clean_view(q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
    let mut replay = d0;
    let mut dist = diff(&replay, &ground).unwrap().distance();
    for e in report.edits.edits() {
        replay.apply(e).unwrap();
        let next = diff(&replay, &ground).unwrap().distance();
        assert!(next <= dist, "edit {e:?} violates Proposition 3.3");
        dist = next;
    }
}

#[test]
fn all_strategy_combinations_converge_on_q4() {
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[3];
    let planted = plant_mixed(q, &ground, 2, 1, 77);
    let truth = true_answers(&ground, q);
    for deletion in [
        DeletionStrategy::Qoco,
        DeletionStrategy::QocoMinus,
        DeletionStrategy::Random(13),
    ] {
        for split in [
            SplitStrategyKind::Provenance,
            SplitStrategyKind::MinCut,
            SplitStrategyKind::Random(13),
            SplitStrategyKind::Naive,
        ] {
            let mut d = planted.db.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
            let config = CleaningConfig {
                deletion,
                split,
                ..Default::default()
            };
            clean_view(q, &mut d, &mut crowd, config)
                .unwrap_or_else(|e| panic!("{deletion:?}/{split:?}: {e}"));
            assert_eq!(answer_set(q, &d), truth, "{deletion:?}/{split:?}");
        }
    }
}

#[test]
fn qoco_never_asks_more_deletion_questions_than_qoco_minus() {
    let ground = generate_soccer(SoccerConfig::default());
    for (qi, seed) in [(0usize, 41u64), (1, 42), (2, 43)] {
        let q = &soccer_queries(ground.schema())[qi];
        let planted = qoco::datasets::plant_wrong_answers(q, &ground, 3, 3, seed);
        let run = |strategy| {
            let mut d = planted.db.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
            let config = CleaningConfig {
                deletion: strategy,
                ..Default::default()
            };
            let report = clean_view(q, &mut d, &mut crowd, config).unwrap();
            report.deletion_stats.verify_fact_questions
        };
        let qoco = run(DeletionStrategy::Qoco);
        let minus = run(DeletionStrategy::QocoMinus);
        assert!(
            qoco <= minus,
            "{}: QOCO asked {qoco} > QOCO- {minus}",
            q.name()
        );
    }
}

#[test]
fn statistical_stopping_rule_with_a_sampling_crowd() {
    // The full Trushkowsky-style pipeline: an enumerating crowd that
    // answers COMPL(Q(D)) by sampling the true answer set, with the Chao92
    // black-box deciding when the result is complete (Section 6.1).
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[0]; // Q1 (7 true answers)
    let planted = qoco::datasets::plant_missing_answers(q, &ground, 2, 3);
    let mut d = planted.db;
    let mut crowd = SingleExpert::new(SamplingOracle::new(ground.clone(), 5, 0.0));
    let mut estimator = Chao92Estimator::new();
    let config = CleaningConfig {
        max_iterations: 40,
        ..Default::default()
    };
    let report = qoco::core::cleaner::clean_view_with_estimator(
        q,
        &mut d,
        &mut crowd,
        config,
        &mut estimator,
    )
    .expect("sampling crowd converges under the statistical stopping rule");
    // the statistical rule can stop marginally early, but with only 2
    // planted missing answers and repeated sampling the repaired view must
    // reach the truth
    assert_eq!(answer_set(q, &d), true_answers(&ground, q));
    assert!(
        report.total_stats.complete_result_tasks >= 2,
        "sampling asks repeatedly"
    );
    assert!(estimator.estimate().is_some());
}

#[test]
fn cleaning_is_idempotent() {
    // running the cleaner again on the already-clean view asks only
    // verification questions and applies no edits
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[0];
    let planted = plant_mixed(q, &ground, 2, 1, 55);
    let mut d = planted.db;
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    clean_view(q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
    let mut crowd2 = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let second = clean_view(q, &mut d, &mut crowd2, CleaningConfig::default()).unwrap();
    assert!(second.edits.is_empty());
    assert_eq!(second.wrong_answers, 0);
    assert_eq!(second.missing_answers, 0);
}

#[test]
fn cleaning_one_view_may_leave_the_database_dirty() {
    // The paper: Q(D') = Q(D_G) may hold while D' ≠ D_G — QOCO cleans only
    // what the view needs.
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[0];
    // noise touching relations Q1 never reads (Clubs)
    let mut d = ground.clone();
    let clubs = ground.schema().rel_id("Clubs").unwrap();
    let some_club = ground.relation(clubs).sorted()[0].clone();
    d.remove(&qoco::data::Fact::new(clubs, some_club)).unwrap();
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let report = clean_view(q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
    assert!(report.edits.is_empty(), "Q1 does not read Clubs");
    assert_ne!(
        diff(&d, &ground).unwrap().distance(),
        0,
        "D' is still not D_G"
    );
    assert_eq!(answer_set(q, &d), true_answers(&ground, q));
}

#[test]
fn planted_answer_sets_are_disjoint_from_truth() {
    let ground = generate_soccer(SoccerConfig::default());
    let q = &soccer_queries(ground.schema())[4]; // Q5
    let planted = plant_mixed(q, &ground, 3, 2, 21);
    let d = planted.db.clone();
    let dirty: BTreeSet<Tuple> = answer_set(q, &d).into_iter().collect();
    let truth: BTreeSet<Tuple> = true_answers(&ground, q).into_iter().collect();
    for w in &planted.wrong {
        assert!(dirty.contains(w) && !truth.contains(w));
    }
    for m in &planted.missing {
        assert!(!dirty.contains(m) && truth.contains(m));
    }
}

#[test]
fn count_threshold_unfolding_matches_aggregate_semantics() {
    // Section 9's aggregate fragment: `at least k distinct d` unfolds into
    // a self-join CQ; checked against real counting on the soccer DB.
    use qoco::query::{parse_query, unfold_at_least, Var};
    let ground = generate_soccer(SoccerConfig::default());
    let template = parse_query(
        ground.schema(),
        r#"W(x) :- Games(d, x, y, "Final", u), Teams(x, "EU")"#,
    )
    .unwrap();
    // ground-truth final-win counts per European team
    let games = ground.schema().rel_id("Games").unwrap();
    let teams = ground.schema().rel_id("Teams").unwrap();
    let eu: BTreeSet<qoco::data::Value> = ground
        .relation(teams)
        .iter()
        .filter(|t| t.values()[1] == qoco::data::Value::text("EU"))
        .map(|t| t.values()[0].clone())
        .collect();
    let mut wins: std::collections::HashMap<qoco::data::Value, BTreeSet<qoco::data::Value>> =
        Default::default();
    for g in ground.relation(games).iter() {
        if g.values()[3] == qoco::data::Value::text("Final") && eu.contains(&g.values()[1]) {
            wins.entry(g.values()[1].clone())
                .or_default()
                .insert(g.values()[0].clone());
        }
    }
    for k in 1..=4usize {
        let q = unfold_at_least(&template, &Var::new("d"), k).unwrap();
        let db = ground.clone();
        let got: BTreeSet<qoco::data::Value> = answer_set(&q, &db)
            .into_iter()
            .map(|t| t.values()[0].clone())
            .collect();
        let expected: BTreeSet<qoco::data::Value> = wins
            .iter()
            .filter(|(_, dates)| dates.len() >= k)
            .map(|(team, _)| team.clone())
            .collect();
        assert_eq!(got, expected, "k = {k}");
    }
}

#[test]
fn count_threshold_view_cleans_like_any_other() {
    // the unfolded aggregate view runs through the unchanged Algorithm 3
    use qoco::query::{parse_query, unfold_at_least, Var};
    let ground = generate_soccer(SoccerConfig::default());
    let template = parse_query(
        ground.schema(),
        r#"W(x) :- Games(d, x, y, "Final", u), Teams(x, "EU")"#,
    )
    .unwrap();
    let q = unfold_at_least(&template, &Var::new("d"), 2).unwrap();
    let planted = plant_mixed(&q, &ground, 1, 1, 33);
    let mut d = planted.db;
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
    assert_eq!(answer_set(&q, &d), true_answers(&ground, &q));
}
