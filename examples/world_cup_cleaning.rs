//! World-Cup cleaning at the paper's scale.
//!
//! Generates the ~5000-tuple Soccer database, dirties it with the paper's
//! default noise (80 % cleanliness), and runs the full QOCO loop on Q1
//! ("European teams who lost at least two finals") with a simulated perfect
//! oracle, comparing the QOCO deletion strategy with the QOCO⁻ and Random
//! baselines exactly as Section 7.2 does.
//!
//! Run with: `cargo run --release --example world_cup_cleaning`

use qoco::core::{clean_view, CleaningConfig, DeletionStrategy, SplitStrategyKind};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::datasets::{generate_soccer, plant_mixed, soccer_query, SoccerConfig};
use qoco::engine::answer_set;

fn main() {
    let ground = generate_soccer(SoccerConfig::default());
    println!("ground truth: {} facts", ground.len());

    let q = soccer_query(ground.schema(), 1);
    println!("view: {}", q.display());

    // plant 3 wrong and 2 missing answers for Q1
    let planted = plant_mixed(&q, &ground, 3, 2, 7);
    println!(
        "planted noise: {} wrong answers {:?}, {} missing answers {:?}",
        planted.wrong.len(),
        planted.wrong,
        planted.missing.len(),
        planted.missing
    );

    let true_answers = answer_set(&q, &ground);

    for deletion in [
        DeletionStrategy::Qoco,
        DeletionStrategy::QocoMinus,
        DeletionStrategy::Random(1),
    ] {
        let mut d = planted.db.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let config = CleaningConfig {
            deletion,
            split: SplitStrategyKind::Provenance,
            ..Default::default()
        };
        let report = clean_view(&q, &mut d, &mut crowd, config).expect("cleaning converges");
        assert_eq!(
            answer_set(&q, &d),
            true_answers,
            "view must equal the truth"
        );
        println!("\n=== deletion strategy: {} ===", deletion.label());
        println!(
            "converged in {} iteration(s); removed {} wrong, added {} missing",
            report.iterations, report.wrong_answers, report.missing_answers
        );
        println!(
            "tuple-verification questions: {} (naive upper bound {})",
            report.deletion_stats.verify_fact_questions, report.deletion_upper_bound
        );
        println!(
            "insertion cost: {} filled variables + {} satisfiability checks (upper bound {})",
            report.insertion_stats.filled_variables,
            report.insertion_stats.satisfiable_questions,
            report.insertion_upper_bound
        );
    }
}
