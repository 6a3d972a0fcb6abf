//! The paper's deployment scenario: QOCO as a *view monitor*.
//!
//! "After the data is cleaned with traditional techniques, QOCO can be
//! activated to monitor the views that are served to users/applications.
//! Whenever an error is reported in a view, QOCO can take over to clean the
//! underlying database by interacting with the crowd." (Section 1)
//!
//! This example materializes Q1 over a clean soccer database, streams in a
//! batch of (partially bogus) updates from a scraper, watches the view
//! delta, and triggers a cleaning session as soon as the delta surfaces a
//! suspicious answer.
//!
//! Run with: `cargo run --release --example view_monitoring`

use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::data::{tup, Edit, Fact};
use qoco::datasets::{generate_soccer, soccer_query, SoccerConfig};
use qoco::engine::MaterializedView;

fn main() {
    let ground = generate_soccer(SoccerConfig::default());
    let mut db = ground.clone(); // start clean
    let q = soccer_query(db.schema(), 1);
    println!("monitoring view: {}\n", q.display());

    let mut monitor = MaterializedView::new(q.clone(), &db);
    println!("initial answers: {:?}\n", monitor.answers());

    // a scraper pushes updates; the middle one is bogus (Switzerland never
    // lost two finals — these games are fabricated)
    let games = db.schema().rel_id("Games").unwrap();
    let clubs = db.schema().rel_id("Clubs").unwrap();
    let updates = vec![
        Edit::insert(Fact::new(clubs, tup!["New Signing", "Ajax"])),
        Edit::insert(Fact::new(
            games,
            tup!["01.06.1999", "BRA", "SUI", "Final", "2:0"],
        )),
        Edit::insert(Fact::new(
            games,
            tup!["01.06.2003", "ARG", "SUI", "Final", "1:0"],
        )),
    ];

    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    for edit in updates {
        db.apply(&edit).expect("updates fit the schema");
        let delta = monitor.apply_edit(&db, &edit);
        if !monitor.is_relevant(&edit.fact) {
            println!("update {edit:?} — irrelevant to the view, no work");
            continue;
        }
        println!(
            "update {edit:?} — delta: +{:?} -{:?}",
            delta.added, delta.removed
        );
        if delta.added.is_empty() {
            continue;
        }
        // a new answer appeared: hand over to QOCO
        println!("  new answer surfaced; QOCO takes over…");
        let report = clean_view(&q, &mut db, &mut crowd, CleaningConfig::default())
            .expect("cleaning converges");
        let refreshed = monitor.refresh(&db);
        println!(
            "  cleaning removed {} wrong answer(s) with {} tuple questions; view delta after repair: -{:?}",
            report.wrong_answers,
            report.deletion_stats.verify_fact_questions,
            refreshed.removed,
        );
    }

    println!("\nfinal answers: {:?}", monitor.answers());
    assert_eq!(monitor.answers(), qoco::engine::answer_set(&q, &ground));
    println!("view matches the ground truth again ✓");
}
