//! Aggregate and union views (the Section 9 extensions in action).
//!
//! Authors a "decorated teams" view declaratively:
//!
//! * `COUNT(distinct final won) ≥ 2` — via [`unfold_at_least`], the
//!   count-threshold fragment that desugars into the paper's own Q1 shape;
//! * unioned with "teams that lost ≥ 3 finals" (a second threshold view);
//! * minimized (subsumption + query cores) before cleaning;
//! * cleaned end-to-end with `clean_view`, which takes a union as readily
//!   as a single CQ.
//!
//! Run with: `cargo run --release --example threshold_views`

use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::datasets::{generate_soccer, plant_wrong_answers, SoccerConfig};
use qoco::engine::union_answer_set;
use qoco::query::{parse_query, unfold_at_least, UnionQuery, Var};

fn main() {
    let ground = generate_soccer(SoccerConfig::default());
    let schema = ground.schema();

    // template views: one winning / losing final
    let won = parse_query(schema, r#"Won(x) :- Games(d, x, y, "Final", u)"#).unwrap();
    let lost = parse_query(schema, r#"Lost(x) :- Games(d, y, x, "Final", u)"#).unwrap();

    // thresholds: ≥2 titles, or ≥3 lost finals
    let champions = unfold_at_least(&won, &Var::new("d"), 2).expect("threshold view");
    let unlucky = unfold_at_least(&lost, &Var::new("d"), 3).expect("threshold view");
    println!("view 1: {}", champions.display());
    println!("view 2: {}\n", unlucky.display());

    let union = UnionQuery::new("Decorated", vec![champions, unlucky]).unwrap();
    let union = union.minimized();
    println!(
        "union has {} disjunct(s) after minimization\n",
        union.disjuncts().len()
    );

    // dirty database: plant a wrong answer in each disjunct's view
    let mut dirty = ground.clone();
    for (i, d) in union.disjuncts().iter().enumerate() {
        let planted = plant_wrong_answers(d, &dirty, 1, 2, 60 + i as u64);
        println!("planted wrong answer for {}: {:?}", d.name(), planted.wrong);
        dirty = planted.db;
    }

    let before = union_answer_set(&union, &dirty);
    println!("\nanswers before cleaning: {}", before.len());

    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let report = clean_view(&union, &mut dirty, &mut crowd, CleaningConfig::default())
        .expect("cleaning converges");

    let after = union_answer_set(&union, &dirty);
    let truth = union_answer_set(&union, &ground);
    assert_eq!(after, truth, "the union view must equal the truth");
    println!(
        "answers after cleaning: {} (matches the ground truth ✓)",
        after.len()
    );
    println!(
        "\n{} wrong answer(s) removed with {} tuple questions across both disjuncts",
        report.wrong_answers, report.deletion_stats.verify_fact_questions
    );
    println!("decorated teams: {:?}", after);
}
