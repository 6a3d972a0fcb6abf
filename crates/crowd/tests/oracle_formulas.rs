//! The perfect oracle answers `TRUE(Q, t)?` with one probe seeded by `t`
//! and `COMPL(Q(D))` from a per-query memo of `Q(D_G)`. These properties
//! pin it, and the sampling oracle that reads the memo, to the formulas
//! they replace, over small random databases and conjunctive queries with
//! head constants, repeated head variables and inequalities:
//!
//! * `TRUE(Q, t)?` is `answer_set(Q, D_G).contains(t)`, also for tuples of
//!   the wrong arity or with values outside the active domain;
//! * `COMPL(Q(D))` names the first tuple of `answer_set(Q, D_G)` not yet
//!   known, however the questions about several queries interleave;
//! * a seeded sampling oracle draws the tuples it drew when it evaluated
//!   `answer_set` for every question;
//! * `answer_set` is the sorted, deduplicated heads of `evaluate`.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qoco_crowd::{Oracle, PerfectOracle, Question, SamplingOracle};
use qoco_data::{tup, Database, Schema, Tuple, Value};
use qoco_engine::{answer_set, evaluate};
use qoco_query::{parse_query, ConjunctiveQuery};
use qoco_telemetry::InMemoryCollector;

/// E(a, b) and L(a).
fn schema() -> Arc<Schema> {
    Schema::builder()
        .relation("E", &["a", "b"])
        .relation("L", &["a"])
        .build()
        .unwrap()
}

const DOMAIN: [&str; 4] = ["v0", "v1", "v2", "v3"];
const VARS: [&str; 3] = ["x", "y", "z"];

/// A database over [`schema`] with up to `max` facts per relation.
fn db_strategy(max: usize) -> impl Strategy<Value = Database> {
    let e = proptest::collection::vec((0..4usize, 0..4usize), 0..max);
    let l = proptest::collection::vec(0..4usize, 0..max);
    (e, l).prop_map(|(es, ls)| {
        let mut db = Database::empty(schema());
        for (a, b) in es {
            db.insert_named("E", tup![DOMAIN[a], DOMAIN[b]]).unwrap();
        }
        for a in ls {
            db.insert_named("L", tup![DOMAIN[a]]).unwrap();
        }
        db
    })
}

/// Term code `0..3` is a variable, `3..7` a constant of the domain.
fn term(code: usize) -> String {
    match VARS.get(code) {
        Some(v) => v.to_string(),
        None => format!("{:?}", DOMAIN[code - VARS.len()]),
    }
}

/// A random safe query: one to three atoms, a head of one to three terms
/// (constants and repeated variables included) and up to two
/// inequalities. Drafts the parser rejects, e.g. a head variable that no
/// atom binds, are re-drawn.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let atoms = proptest::collection::vec((0..2usize, 0..7usize, 0..7usize), 1..4);
    let head = proptest::collection::vec(0..7usize, 1..4);
    let ineqs = proptest::collection::vec((0..3usize, 0..7usize), 0..3);
    (atoms, head, ineqs).prop_filter_map("a safe query", |(atoms, head, ineqs)| {
        let mut body: Vec<String> = atoms
            .iter()
            .map(|&(rel, a, b)| match rel {
                0 => format!("E({}, {})", term(a), term(b)),
                _ => format!("L({})", term(a)),
            })
            .collect();
        body.extend(
            ineqs
                .iter()
                .map(|&(l, r)| format!("{} != {}", VARS[l], term(r))),
        );
        let head: Vec<String> = head.into_iter().map(term).collect();
        let text = format!("Q({}) :- {}.", head.join(", "), body.join(", "));
        parse_query(&schema(), &text).ok()
    })
}

/// Value code `0..4` is in the domain; `4` and `5` never occur in a fact.
fn value(code: usize) -> Value {
    match code {
        0..=3 => Value::text(DOMAIN[code]),
        4 => Value::text("zz"),
        _ => Value::Int(3),
    }
}

/// Tuples to ask about: every true answer, plus each drawn code vector
/// as is (any arity) and cut or padded to the head's arity.
fn candidates(q: &ConjunctiveQuery, truth: &[Tuple], codes: &[Vec<usize>]) -> Vec<Tuple> {
    let arity = q.head().len();
    let mut out = truth.to_vec();
    for c in codes {
        out.push(c.iter().map(|&v| value(v)).collect());
        out.push((0..arity).map(|i| value(*c.get(i).unwrap_or(&0))).collect());
    }
    out
}

fn verify(o: &mut impl Oracle, q: &ConjunctiveQuery, t: &Tuple) -> bool {
    o.answer(&Question::VerifyAnswer {
        query: q.clone(),
        answer: t.clone(),
    })
    .unwrap()
    .expect_bool()
}

fn complete(o: &mut impl Oracle, q: &ConjunctiveQuery, known: &[Tuple]) -> Option<Tuple> {
    o.answer(&Question::CompleteResult {
        query: q.clone(),
        known: known.to_vec(),
    })
    .unwrap()
    .expect_missing()
}

fn codes_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0..6usize, 0..5), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn answer_set_is_the_sorted_distinct_heads_of_evaluate(
        db in db_strategy(10),
        q in query_strategy(),
    ) {
        let mut heads: Vec<Tuple> = evaluate(&q, &db)
            .assignments
            .iter()
            .map(|a| a.ground_head(&q).expect("valid assignments are total"))
            .collect();
        heads.sort();
        heads.dedup();
        prop_assert_eq!(answer_set(&q, &db), heads);
    }

    #[test]
    fn verify_answer_is_membership_in_the_answer_set(
        g in db_strategy(10),
        q in query_strategy(),
        codes in codes_strategy(),
    ) {
        let truth = answer_set(&q, &g);
        let mut o = PerfectOracle::new(g);
        for t in candidates(&q, &truth, &codes) {
            prop_assert_eq!(verify(&mut o, &q, &t), truth.contains(&t), "{} on {:?}", q.display(), t);
        }
    }

    #[test]
    fn complete_result_names_the_first_unknown_answer(
        g in db_strategy(10),
        q1 in query_strategy(),
        q2 in query_strategy(),
        codes in codes_strategy(),
    ) {
        let truth = [answer_set(&q1, &g), answer_set(&q2, &g)];
        let queries = [&q1, &q2];
        // known answers may already hold non-answers, as a dirty Q(D) does
        let mut known: [Vec<Tuple>; 2] = [0, 1].map(|i| {
            candidates(queries[i], &[], &codes)
                .into_iter()
                .filter(|t| !truth[i].contains(t))
                .collect()
        });
        let mut o = PerfectOracle::new(g);
        let mut open = [true, true];
        // alternate between the two queries until both are complete
        while open.iter().any(|&b| b) {
            for i in 0..2 {
                if !open[i] {
                    continue;
                }
                let expected = truth[i].iter().find(|t| !known[i].contains(t)).cloned();
                let got = complete(&mut o, queries[i], &known[i]);
                prop_assert_eq!(&got, &expected);
                match got {
                    Some(t) => known[i].push(t),
                    None => open[i] = false,
                }
            }
        }
    }

    #[test]
    fn a_seeded_sampling_oracle_draws_what_it_drew_before(
        g in db_strategy(10),
        q1 in query_strategy(),
        q2 in query_strategy(),
        seed in 0..1000u64,
        skew in 0..5u32,
        order in proptest::collection::vec(0..2usize, 1..20),
    ) {
        let skew = f64::from(skew) / 4.0;
        let queries = [&q1, &q2];
        // the replaced formula: evaluate Q(D_G) for every question and
        // index it with one skewed draw
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = |q: &ConjunctiveQuery| {
            let answers = answer_set(q, &g);
            if answers.is_empty() {
                return None;
            }
            let u: f64 = rng.random();
            let skewed = u.powf(1.0 + 3.0 * skew);
            let idx = ((skewed * answers.len() as f64) as usize).min(answers.len() - 1);
            Some(answers[idx].clone())
        };
        let mut o = SamplingOracle::new(g.clone(), seed, skew);
        for i in order {
            let expected = reference(queries[i]);
            prop_assert_eq!(complete(&mut o, queries[i], &[]), expected);
        }
    }
}

/// A `TRUE(Q, t)?` question costs one seeded satisfiability probe, never a
/// full evaluation of `Q(D_G)`.
#[test]
fn verify_answer_opens_no_full_evaluation() {
    let mut g = Database::empty(schema());
    for i in 0..60 {
        g.insert_named(
            "E",
            tup![format!("a{i}").as_str(), format!("b{}", i % 7).as_str()],
        )
        .unwrap();
        g.insert_named("L", tup![format!("b{}", i % 5).as_str()])
            .unwrap();
    }
    let q = parse_query(&schema(), "Q(x, y) :- E(x, y), L(y), x != \"a0\".").unwrap();
    let mut o = PerfectOracle::new(g);
    let collector = Arc::new(InMemoryCollector::new());
    let guard = qoco_telemetry::session(collector.clone());
    // other tests may evaluate meanwhile: count only the spans opened
    // under this one
    let root = qoco_telemetry::span("test.verify");
    let root_id = qoco_telemetry::current_span_id().expect("tracing is on");
    let mut yes = 0;
    for i in 0..100 {
        let t = tup![
            format!("a{}", i % 70).as_str(),
            format!("b{}", i % 7).as_str()
        ];
        yes += usize::from(verify(&mut o, &q, &t));
    }
    drop(root);
    drop(guard);
    assert!(yes > 0 && yes < 100, "{yes} of 100 answers are true");
    let spans: Vec<_> = collector
        .spans()
        .into_iter()
        .filter(|s| s.parent == Some(root_id))
        .collect();
    let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(named("eval.assignments"), 0, "{spans:?}");
    assert_eq!(named("eval.satisfiable"), 100, "{spans:?}");
}
