//! The Section 7.1 DBGroup case study.
//!
//! Generates the research-group database, plants errors in the style the
//! paper discovered (wrong keynotes and member records, missing travel and
//! publication rows), and runs QOCO over the four grant-report queries.
//! The paper found 5 wrong and 7 missing answers across its four report
//! queries, fixing 6 wrong tuples and adding 8 missing ones; this example
//! reproduces the same shape of discovery.
//!
//! Run with: `cargo run --release --example dbgroup_report`

use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::datasets::{dbgroup_queries, generate_dbgroup, plant_mixed, DbGroupConfig};
use qoco::engine::answer_set;

fn main() {
    let ground = generate_dbgroup(DbGroupConfig::default());
    println!("DBGroup ground truth: {} facts\n", ground.len());

    let queries = dbgroup_queries(ground.schema());
    // the paper's tally: 5 wrong + 7 missing answers across 4 queries
    let plan: [(usize, usize); 4] = [(1, 1), (2, 1), (1, 2), (1, 3)];

    let mut dirty = ground.clone();
    let mut expected_wrong = 0;
    let mut expected_missing = 0;
    for (q, (wrong, missing)) in queries.iter().zip(plan) {
        let outcome = plant_mixed(q, &dirty, wrong, missing, 11);
        expected_wrong += outcome.wrong.len();
        expected_missing += outcome.missing.len();
        dirty = outcome.db;
    }
    println!(
        "planted {} wrong and {} missing answers across the 4 report queries\n",
        expected_wrong, expected_missing
    );

    let mut total_wrong = 0;
    let mut total_missing = 0;
    let mut total_deleted = 0;
    let mut total_inserted = 0;
    let mut total_questions = 0;

    for q in &queries {
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let report = clean_view(q, &mut dirty, &mut crowd, CleaningConfig::default())
            .expect("cleaning converges");
        let truth = answer_set(q, &ground);
        assert_eq!(
            answer_set(q, &dirty),
            truth,
            "{} must match the truth",
            q.name()
        );
        println!(
            "{}: {} wrong answer(s) removed, {} missing answer(s) added ({} deletions, {} insertions, {} closed questions)",
            q.name(),
            report.wrong_answers,
            report.missing_answers,
            report.edits.deletions(),
            report.edits.insertions(),
            report.total_stats.closed_questions(),
        );
        total_wrong += report.wrong_answers;
        total_missing += report.missing_answers;
        total_deleted += report.edits.deletions();
        total_inserted += report.edits.insertions();
        total_questions += report.total_stats.closed_questions();
    }

    println!(
        "\nsummary: discovered {total_wrong} wrong and {total_missing} missing answers;\n\
         removed {total_deleted} false tuples and inserted {total_inserted} missing ones\n\
         using {total_questions} closed crowd questions in total"
    );
    println!("(the paper's run: 5 wrong + 7 missing answers; 6 tuples removed, 8 added)");
}
