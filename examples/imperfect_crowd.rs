//! Cleaning with an imperfect crowd (Section 6.2 / Figure 4).
//!
//! A panel of three soccer fans who each err on 5–20 % of their answers
//! cleans the same dirty view. A [`MajorityCrowd`] asks each question until
//! two experts agree, and re-verifies every open answer with closed
//! questions; Algorithm 3 (`clean_view`) runs on top of it unchanged. The
//! panel still converges to the true result — at a higher total-answer cost
//! than a single perfect expert, which is exactly the trade-off Figure 4
//! quantifies.
//!
//! Run with: `cargo run --release --example imperfect_crowd`

use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{ImperfectOracle, MajorityCrowd, PerfectOracle, SingleExpert};
use qoco::datasets::{generate_soccer, plant_mixed, soccer_query, SoccerConfig};
use qoco::engine::answer_set;

fn main() {
    let ground = generate_soccer(SoccerConfig::default());
    let q = soccer_query(ground.schema(), 2);
    println!("view: {}", q.display());

    let planted = plant_mixed(&q, &ground, 3, 2, 5);
    println!(
        "planted {} wrong + {} missing answers\n",
        planted.wrong.len(),
        planted.missing.len()
    );
    let truth = {
        let gm = ground.clone();
        answer_set(&q, &gm)
    };

    // ---- a single perfect expert, for reference ----
    {
        let mut d = planted.db.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(answer_set(&q, &d), truth);
        println!(
            "single perfect expert: {} total crowd answers ({} closed, {} open-answer variables)",
            report.total_stats.total_crowd_answers(),
            report.total_stats.closed_answers,
            report.total_stats.open_answer_variables,
        );
    }

    // ---- a 3-expert imperfect panel with majority voting ----
    for error_rate in [0.05, 0.10, 0.20] {
        let mut d = planted.db.clone();
        let experts: Vec<ImperfectOracle> = (0..3)
            .map(|i| ImperfectOracle::new(ground.clone(), error_rate, 500 + i))
            .collect();
        let mut crowd = MajorityCrowd::new(experts);
        let config = CleaningConfig {
            max_iterations: 60,
            ..Default::default()
        };
        let report = clean_view(&q, &mut d, &mut crowd, config).unwrap_or_else(|e| {
            panic!(
                "3 experts at {:.0}% error: cleaning failed ({e})",
                error_rate * 100.0
            )
        });
        let converged = answer_set(&q, &d) == truth;
        println!(
            "3 experts at {:.0}% error: {} total crowd answers, {} iterations, converged: {}",
            error_rate * 100.0,
            report.total_stats.total_crowd_answers(),
            report.iterations,
            converged,
        );
        assert!(converged, "the majority panel must clean the view");
    }
}
