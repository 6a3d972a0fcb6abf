//! Quickstart: clean the paper's Figure 1 World-Cup sample with QOCO.
//!
//! Builds the dirty database `D` of Figure 1 (Spain credited with three
//! finals it never won, Brazil filed under Europe, Italy absent), a ground
//! truth `D_G`, and runs the full Algorithm 3 loop on the paper's Q1
//! ("European teams that won the World Cup at least twice") with a
//! simulated perfect oracle.
//!
//! Run with: `cargo run --example quickstart`

use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::data::{tup, Database, Schema};
use qoco::engine::answer_set;
use qoco::query::parse_query;

fn main() {
    let schema = Schema::builder()
        .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
        .relation("Teams", &["country", "continent"])
        .build()
        .expect("schema is valid");

    // ---- the dirty database D (Figure 1) ----
    let mut d = Database::empty(schema.clone());
    for (dt, w, r, s, u) in [
        ("13.07.14", "GER", "ARG", "Final", "1:0"),
        ("11.07.10", "ESP", "NED", "Final", "1:0"),
        ("09.07.06", "ITA", "FRA", "Final", "5:3"),
        ("30.06.02", "BRA", "GER", "Final", "2:0"),
        ("12.07.98", "ESP", "NED", "Final", "4:2"), // wrong: France won in 98
        ("17.07.94", "ESP", "NED", "Final", "3:1"), // wrong: Brazil won in 94
        ("08.07.90", "GER", "ARG", "Final", "1:0"),
        ("11.07.82", "ITA", "GER", "Final", "4:1"),
        ("25.06.78", "ESP", "NED", "Final", "1:0"), // wrong: Argentina won in 78
    ] {
        d.insert_named("Games", tup![dt, w, r, s, u]).unwrap();
    }
    for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("BRA", "EU"), ("NED", "SA")] {
        d.insert_named("Teams", tup![c, k]).unwrap(); // BRA/NED rows are wrong
    }

    // ---- the ground truth D_G (what the oracle knows) ----
    let mut g = Database::empty(schema.clone());
    for (dt, w, r, s, u) in [
        ("13.07.14", "GER", "ARG", "Final", "1:0"),
        ("11.07.10", "ESP", "NED", "Final", "1:0"),
        ("09.07.06", "ITA", "FRA", "Final", "5:3"),
        ("30.06.02", "BRA", "GER", "Final", "2:0"),
        ("12.07.98", "FRA", "BRA", "Final", "3:0"),
        ("17.07.94", "BRA", "ITA", "Final", "3:2"),
        ("08.07.90", "GER", "ARG", "Final", "1:0"),
        ("11.07.82", "ITA", "GER", "Final", "4:1"),
        ("25.06.78", "ARG", "NED", "Final", "3:1"),
    ] {
        g.insert_named("Games", tup![dt, w, r, s, u]).unwrap();
    }
    for (c, k) in [
        ("GER", "EU"),
        ("ESP", "EU"),
        ("BRA", "SA"),
        ("NED", "EU"),
        ("ITA", "EU"),
        ("FRA", "EU"),
        ("ARG", "SA"),
    ] {
        g.insert_named("Teams", tup![c, k]).unwrap();
    }

    // ---- the view: the paper's Q1 ----
    let q = parse_query(
        &schema,
        r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
    )
    .unwrap();

    println!("query: {}", q.display());
    println!("Q1(D)  before cleaning: {:?}", answer_set(&q, &d));
    println!("Q1(D_G) (the truth):    {:?}", answer_set(&q, &g));

    // ---- clean with a simulated perfect oracle ----
    let mut crowd = SingleExpert::new(PerfectOracle::new(g));
    let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default())
        .expect("perfect-oracle cleaning converges");

    println!("\nQ1(D') after cleaning:  {:?}", answer_set(&q, &d));
    println!("\n{report}");
    println!("edits applied:");
    for e in report.edits.edits() {
        println!("  {e:?}");
    }
}
