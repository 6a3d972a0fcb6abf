//! Property test for [`qoco_engine::MaterializedView`]: under random
//! databases and random edit sequences — inserts, deletes, no-op edits,
//! mid-sequence view rebuilds (a killed session resuming from the
//! database) and out-of-band mutations — the view's cached answers stay
//! byte-identical to a fresh `answer_set()` after every single edit. This
//! is the correctness contract that lets the cleaning loop trust the
//! incremental path at any scale.

use qoco_data::{Database, Edit, Fact, Schema, Tuple, Value};
use qoco_engine::{answer_set, MaterializedView};
use qoco_query::{parse_query, ConjunctiveQuery};
use std::sync::Arc;

/// xorshift64* — deterministic, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["b", "c"])
        .relation("T", &["a", "tag"])
        .build()
        .unwrap()
}

/// Query shapes covering joins, constants, repeated relations and
/// inequalities — the cases with distinct delta-maintenance code paths.
fn queries(schema: &Arc<Schema>) -> Vec<ConjunctiveQuery> {
    vec![
        parse_query(schema, "Q1(x, z) :- R(x, y), S(y, z)").unwrap(),
        parse_query(schema, r#"Q2(x) :- R(x, y), T(x, "hot")"#).unwrap(),
        parse_query(schema, "Q3(x) :- R(x, y), R(y, x)").unwrap(),
        parse_query(schema, "Q4(x, z) :- R(x, y), S(y, z), x != z").unwrap(),
    ]
}

fn random_fact(schema: &Arc<Schema>, rng: &mut Rng) -> Fact {
    // a small value pool so joins, repeats and deletions of present facts
    // actually happen
    let vals = ["a", "b", "c", "d"];
    let pick = |rng: &mut Rng| Value::text(vals[rng.below(4) as usize]);
    match rng.below(3) {
        0 => Fact::new(
            schema.rel_id("R").unwrap(),
            Tuple::new(vec![pick(rng), pick(rng)]),
        ),
        1 => Fact::new(
            schema.rel_id("S").unwrap(),
            Tuple::new(vec![pick(rng), pick(rng)]),
        ),
        _ => {
            let tag = if rng.below(2) == 0 { "hot" } else { "cold" };
            Fact::new(
                schema.rel_id("T").unwrap(),
                Tuple::new(vec![pick(rng), Value::text(tag)]),
            )
        }
    }
}

fn random_db(schema: &Arc<Schema>, rng: &mut Rng) -> Database {
    let mut db = Database::empty(schema.clone());
    for _ in 0..rng.below(24) {
        db.insert(random_fact(schema, rng)).unwrap();
    }
    db
}

/// Drive one (query, seed) cell: 120 random edits, checking the
/// view against a fresh evaluation after every one. Midway, the view is
/// dropped and rebuilt from the database alone (killed-session resume);
/// later the database is mutated behind the view's back and `sync` must
/// recover via the epoch fallback.
fn drive(q: &ConjunctiveQuery, seed: u64) {
    let schema = schema();
    let mut rng = Rng(seed | 1);
    let mut db = random_db(&schema, &mut rng);
    let mut view = MaterializedView::new(q.clone(), &db);
    for step in 0..120 {
        if step == 60 {
            // killed-session resume: the in-memory view is gone; a new one
            // must materialize from the database state alone
            view = MaterializedView::new(q.clone(), &db);
        }
        if step == 90 {
            // out-of-band mutation: the view only learns via sync()
            db.insert(random_fact(&schema, &mut rng)).unwrap();
            view.sync(&db);
        }
        let fact = random_fact(&schema, &mut rng);
        let edit = if rng.below(2) == 0 {
            Edit::insert(fact)
        } else {
            Edit::delete(fact)
        };
        db.apply(&edit).unwrap();
        view.apply_edit(&db, &edit);
        let expected = answer_set(q, &db);
        assert_eq!(
            view.answers(),
            expected,
            "query {} diverged at step {step} (seed {seed}) after {edit:?}",
            q.name()
        );
    }
}

#[test]
fn view_matches_full_reevaluation() {
    let schema = schema();
    for q in &queries(&schema) {
        for seed in [0x5EED_0001u64, 0xC0FFEE, 0xBADD_CAFE] {
            drive(q, seed);
        }
    }
}
