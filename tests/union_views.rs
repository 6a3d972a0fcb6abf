//! Union-of-CQ views through Algorithm 3: `clean_view` takes a
//! `UnionQuery` as readily as a `ConjunctiveQuery`. The reports of the
//! `threshold_views` union are pinned question for question, and a union of
//! one disjunct must clean exactly like the CQ itself.

use qoco::core::{clean_view, CleaningConfig, DeletionStrategy, SplitStrategyKind};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::data::Database;
use qoco::datasets::{generate_soccer, plant_mixed, soccer_queries, SoccerConfig};
use qoco::engine::union_answer_set;
use qoco::query::{parse_query, unfold_at_least, UnionQuery, Var};

/// `Won≥2 ∪ Lost≥3`, minimized — the `threshold_views` example's view.
fn decorated(ground: &Database) -> UnionQuery {
    let schema = ground.schema();
    let won = parse_query(schema, r#"Won(x) :- Games(d, x, y, "Final", u)"#).unwrap();
    let lost = parse_query(schema, r#"Lost(x) :- Games(d, y, x, "Final", u)"#).unwrap();
    let champions = unfold_at_least(&won, &Var::new("d"), 2).unwrap();
    let unlucky = unfold_at_least(&lost, &Var::new("d"), 3).unwrap();
    UnionQuery::new("Decorated", vec![champions, unlucky])
        .unwrap()
        .minimized()
}

const STRATEGIES: [(DeletionStrategy, SplitStrategyKind); 3] = [
    (DeletionStrategy::Qoco, SplitStrategyKind::Provenance),
    (DeletionStrategy::QocoMinus, SplitStrategyKind::MinCut),
    (DeletionStrategy::Random(3), SplitStrategyKind::Random(3)),
];

/// The reports per planting seed, in `STRATEGIES` order.
const PINNED: [[&str; 3]; 2] = [
    [
        "cleaning finished in 1 iteration(s): 2 wrong answer(s) removed, 1 missing answer(s) added
edits: 3 deletions, 1 insertions
deletion questions:  verify-answer: 9, verify-fact: 4, satisfiable: 0, complete: 0 (0 vars), complete-result: 0 (0 answers)
insertion questions: verify-answer: 0, verify-fact: 0, satisfiable: 3, complete: 1 (3 vars), complete-result: 4 (1 answers)
",
        "cleaning finished in 1 iteration(s): 2 wrong answer(s) removed, 1 missing answer(s) added
edits: 3 deletions, 1 insertions
deletion questions:  verify-answer: 9, verify-fact: 5, satisfiable: 0, complete: 0 (0 vars), complete-result: 0 (0 answers)
insertion questions: verify-answer: 0, verify-fact: 0, satisfiable: 3, complete: 1 (6 vars), complete-result: 4 (1 answers)
",
        "cleaning finished in 1 iteration(s): 2 wrong answer(s) removed, 1 missing answer(s) added
edits: 3 deletions, 1 insertions
deletion questions:  verify-answer: 9, verify-fact: 5, satisfiable: 0, complete: 0 (0 vars), complete-result: 0 (0 answers)
insertion questions: verify-answer: 0, verify-fact: 0, satisfiable: 3, complete: 1 (3 vars), complete-result: 4 (1 answers)
",
    ],
    [
        "cleaning finished in 1 iteration(s): 1 wrong answer(s) removed, 0 missing answer(s) added
edits: 2 deletions, 0 insertions
deletion questions:  verify-answer: 9, verify-fact: 2, satisfiable: 0, complete: 0 (0 vars), complete-result: 0 (0 answers)
insertion questions: verify-answer: 0, verify-fact: 0, satisfiable: 0, complete: 0 (0 vars), complete-result: 2 (0 answers)
",
        "cleaning finished in 1 iteration(s): 1 wrong answer(s) removed, 0 missing answer(s) added
edits: 2 deletions, 0 insertions
deletion questions:  verify-answer: 9, verify-fact: 3, satisfiable: 0, complete: 0 (0 vars), complete-result: 0 (0 answers)
insertion questions: verify-answer: 0, verify-fact: 0, satisfiable: 0, complete: 0 (0 vars), complete-result: 2 (0 answers)
",
        "cleaning finished in 1 iteration(s): 1 wrong answer(s) removed, 0 missing answer(s) added
edits: 2 deletions, 0 insertions
deletion questions:  verify-answer: 9, verify-fact: 2, satisfiable: 0, complete: 0 (0 vars), complete-result: 0 (0 answers)
insertion questions: verify-answer: 0, verify-fact: 0, satisfiable: 0, complete: 0 (0 vars), complete-result: 2 (0 answers)
",
    ],
];

#[test]
fn threshold_union_reports_are_pinned() {
    let ground = generate_soccer(SoccerConfig::default());
    let union = decorated(&ground);
    assert_eq!(union.disjuncts().len(), 2);
    let truth = union_answer_set(&union, &ground);
    for (s, pinned) in PINNED.iter().enumerate() {
        // plant one wrong and one missing answer per disjunct, in order
        let mut dirty = ground.clone();
        for (i, d) in union.disjuncts().iter().enumerate() {
            dirty = plant_mixed(d, &dirty, 1, 1, 70 + 10 * s as u64 + i as u64).db;
        }
        for ((deletion, split), expected) in STRATEGIES.into_iter().zip(pinned) {
            let mut d = dirty.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
            let config = CleaningConfig {
                deletion,
                split,
                ..Default::default()
            };
            let report = clean_view(&union, &mut d, &mut crowd, config).unwrap();
            assert_eq!(union_answer_set(&union, &d), truth, "s={s} {deletion:?}");
            assert_eq!(
                report.to_string(),
                *expected,
                "s={s} {deletion:?}/{split:?}"
            );
        }
    }
}

#[test]
fn a_union_of_one_cleans_exactly_like_its_cq() {
    let ground = generate_soccer(SoccerConfig::default());
    let q2 = soccer_queries(ground.schema())[1].clone();
    let planted = plant_mixed(&q2, &ground, 3, 3, 5);
    let one = UnionQuery::new("U", vec![q2.clone()]).unwrap();

    let mut via_union = planted.db.clone();
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let union_report =
        clean_view(&one, &mut via_union, &mut crowd, CleaningConfig::default()).unwrap();

    let mut via_cq = planted.db;
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground));
    let cq_report = clean_view(&q2, &mut via_cq, &mut crowd, CleaningConfig::default()).unwrap();

    // no host-disjunct question: the insertion asks 3 satisfiability
    // checks, not 6
    assert_eq!(cq_report.insertion_stats.satisfiable_questions, 3);
    assert_eq!(union_report.to_string(), cq_report.to_string());
    // the Debug form also carries the edits and every stats counter
    assert_eq!(format!("{union_report:?}"), format!("{cq_report:?}"));
}
