//! Property tests for the extension modules: parser round-trips on
//! generated queries, seeded evaluation against brute force, group-testing
//! correctness, view-monitor equivalence with full recomputation,
//! constraint-repair soundness, TSV persistence round-trips and JSON string
//! round-trips.

use std::collections::BTreeSet;

use proptest::prelude::*;

use qoco::core::find_false_facts;
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::data::{load_dir, save_dir, tup, Database, Edit, Fact, Schema, Value};
use qoco::engine::{
    all_assignments, answer_set, is_satisfiable, Assignment, EvalOptions, MaterializedView,
};
use qoco::query::{parse_query, Atom, ConjunctiveQuery, Inequality, Term, UnionQuery, Var};
use qoco::telemetry::json::{push_json_str, Json};

fn small_schema() -> std::sync::Arc<Schema> {
    Schema::builder()
        .relation("E", &["a", "b"])
        .relation("L", &["a"])
        .build()
        .unwrap()
}

const DOMAIN: [&str; 4] = ["v0", "v1", "v2", "v3"];
const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// Strategy: a random well-formed conjunctive query over the small schema.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    // atoms encoded as (relation_choice, term codes); term code < 4 = var,
    // ≥ 4 = constant
    let atom = (0..2usize, proptest::collection::vec(0..8usize, 2));
    (
        proptest::collection::vec(atom, 1..4),
        0..4usize,
        any::<bool>(),
    )
        .prop_filter_map(
            "query must be well-formed",
            |(atom_specs, ineq_seed, with_ineq)| {
                let s = small_schema();
                let e = s.rel_id("E").unwrap();
                let l = s.rel_id("L").unwrap();
                let term = |code: usize| -> Term {
                    if code < 4 {
                        Term::var(VARS[code])
                    } else {
                        Term::cons(DOMAIN[code - 4])
                    }
                };
                let mut atoms = Vec::new();
                for (rel_choice, codes) in atom_specs {
                    if rel_choice == 0 {
                        atoms.push(Atom::new(e, vec![term(codes[0]), term(codes[1])]));
                    } else {
                        atoms.push(Atom::new(l, vec![term(codes[0])]));
                    }
                }
                // head: every variable that occurs (keeps the query safe)
                let mut head = Vec::new();
                let mut seen = BTreeSet::new();
                for a in &atoms {
                    for v in a.vars() {
                        if seen.insert(v.clone()) {
                            head.push(Term::Var(v));
                        }
                    }
                }
                if head.is_empty() {
                    return None; // all-constant query: legal but dull for the parser test
                }
                let vars: Vec<Var> = seen.into_iter().collect();
                let inequalities = if with_ineq && vars.len() >= 2 {
                    let a = vars[ineq_seed % vars.len()].clone();
                    let b = vars[(ineq_seed + 1) % vars.len()].clone();
                    if a == b {
                        vec![]
                    } else {
                        vec![Inequality::new(a, Term::Var(b))]
                    }
                } else {
                    vec![]
                };
                ConjunctiveQuery::new(s, "G", head, atoms, inequalities).ok()
            },
        )
}

fn db_strategy(max: usize) -> impl Strategy<Value = Database> {
    let e_facts = proptest::collection::vec((0..4usize, 0..4usize), 0..max);
    let l_facts = proptest::collection::vec(0..4usize, 0..max);
    (e_facts, l_facts).prop_map(|(es, ls)| {
        let mut db = Database::empty(small_schema());
        for (a, b) in es {
            db.insert_named("E", tup![DOMAIN[a], DOMAIN[b]]).unwrap();
        }
        for a in ls {
            db.insert_named("L", tup![DOMAIN[a]]).unwrap();
        }
        db
    })
}

/// A database over a wider domain than [`DOMAIN`] (query constants still
/// come from it), so caps often bite and root scans are long.
fn wide_db_strategy() -> impl Strategy<Value = Database> {
    let e_facts = proptest::collection::vec((0..8usize, 0..8usize), 0..64);
    let l_facts = proptest::collection::vec(0..8usize, 0..8);
    (e_facts, l_facts).prop_map(|(es, ls)| {
        let value = |i: usize| format!("v{i}");
        let mut db = Database::empty(small_schema());
        for (a, b) in es {
            db.insert_named("E", tup![value(a), value(b)]).unwrap();
        }
        for a in ls {
            db.insert_named("L", tup![value(a)]).unwrap();
        }
        db
    })
}

/// Strategy: a partial assignment over the generator's variables (some may
/// not occur in the query), each bound with probability 1/4 to a domain
/// value or to one value no fact carries.
fn seed_strategy() -> impl Strategy<Value = Assignment> {
    proptest::collection::vec(0..20usize, VARS.len()).prop_map(|codes| {
        Assignment::from_pairs(
            VARS.iter()
                .zip(codes)
                .filter(|(_, c)| *c < 5)
                .map(|(v, c)| {
                    let value = DOMAIN.get(c).map_or_else(|| Value::text("v9"), Value::text);
                    (Var::new(v), value)
                }),
        )
    })
}

/// Every total assignment of `q` over [`DOMAIN`] that extends `seed` and is
/// valid in `db`, sorted: the list the engine must enumerate exactly.
fn brute_force_assignments(
    q: &ConjunctiveQuery,
    db: &Database,
    seed: &Assignment,
) -> Vec<Assignment> {
    let free: Vec<Var> = q
        .vars()
        .into_iter()
        .filter(|v| seed.get(v).is_none())
        .collect();
    let mut out = Vec::new();
    for code in 0..DOMAIN.len().pow(free.len() as u32) {
        let mut asg = seed.clone();
        let mut rem = code;
        for v in &free {
            asg.bind(v.clone(), Value::text(DOMAIN[rem % DOMAIN.len()]));
            rem /= DOMAIN.len();
        }
        let atoms_ok = q
            .atoms()
            .iter()
            .all(|a| asg.ground_atom(a).is_some_and(|f| db.contains(&f)));
        let ineqs_ok = q
            .inequalities()
            .iter()
            .all(|e| asg.check_inequality(e) == Some(true));
        if atoms_ok && ineqs_ok {
            out.push(asg);
        }
    }
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded enumeration over generated queries — repeated variables,
    /// constants, self-joins and inequalities — yields exactly the valid
    /// total assignments extending the seed, and satisfiability agrees
    /// with that list being non-empty. Each case tries the generated seed
    /// and a restriction of one valid assignment (so seeded results are
    /// often non-empty). A capped evaluation keeps `min(cap, n)` of those
    /// assignments and flags truncation exactly when it withheld some.
    #[test]
    fn seeded_evaluation_matches_brute_force(
        q in query_strategy(),
        db in db_strategy(16),
        seed in seed_strategy(),
        pick in 0..64usize,
        mask in 0..16usize,
        cap in 1usize..20,
    ) {
        let mut seeds = vec![seed];
        let valid = brute_force_assignments(&q, &db, &Assignment::new());
        if !valid.is_empty() {
            let restricted = valid[pick % valid.len()]
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, (v, value))| (v.clone(), value.clone()));
            seeds.push(Assignment::from_pairs(restricted));
        }
        for seed in &seeds {
            let expected = brute_force_assignments(&q, &db, seed);
            let got = all_assignments(&q, &db, seed, EvalOptions::default());
            prop_assert!(!got.truncated);
            prop_assert_eq!(&got.assignments, &expected, "seed {:?}", seed);
            prop_assert_eq!(is_satisfiable(&q, &db, seed), !expected.is_empty(), "seed {:?}", seed);
            let capped = all_assignments(&q, &db, seed, EvalOptions { max_assignments: cap });
            prop_assert_eq!(capped.assignments.len(), cap.min(expected.len()), "seed {:?}", seed);
            prop_assert_eq!(capped.truncated, expected.len() > cap, "seed {:?}", seed);
            for a in &capped.assignments {
                prop_assert!(expected.binary_search(a).is_ok(), "{:?} not valid (seed {:?})", a, seed);
            }
        }
    }

    /// A capped evaluation keeps the same assignments, in the same order,
    /// and the same `truncated` flag however many threads evaluate the same
    /// database at once. Each thread count starts from an unevaluated clone,
    /// so the relations' lazy indexes are first built under contention.
    #[test]
    fn capped_evaluation_is_identical_across_thread_counts(
        q in query_strategy(),
        db in wide_db_strategy(),
        seed in seed_strategy(),
        cap in 1usize..20,
    ) {
        for seed in [Assignment::new(), seed] {
            let opts = EvalOptions { max_assignments: cap };
            let sequential = all_assignments(&q, &db.clone(), &seed, opts);
            for threads in [2usize, 8] {
                let shared = db.clone();
                let results: Vec<_> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| s.spawn(|| all_assignments(&q, &shared, &seed, opts)))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for got in &results {
                    prop_assert_eq!(got, &sequential, "threads={}", threads);
                }
            }
        }
    }

    #[test]
    fn parser_round_trips_generated_queries(q in query_strategy()) {
        let rendered = q.display();
        let reparsed = parse_query(q.schema(), &rendered)
            .unwrap_or_else(|e| panic!("reparse of `{rendered}` failed: {e}"));
        prop_assert_eq!(q.atoms(), reparsed.atoms());
        prop_assert_eq!(q.inequalities(), reparsed.inequalities());
        prop_assert_eq!(q.head(), reparsed.head());
    }

    #[test]
    fn generated_queries_evaluate_identically_after_round_trip(
        q in query_strategy(),
        db in db_strategy(10),
    ) {
        let reparsed = parse_query(q.schema(), &q.display()).unwrap();
        let d1 = db.clone();
        let d2 = db.clone();
        prop_assert_eq!(answer_set(&q, &d1), answer_set(&reparsed, &d2));
    }

    #[test]
    fn group_testing_finds_exactly_the_false_facts(
        facts in proptest::collection::btree_set((0..4usize, 0..4usize), 1..12),
        truth_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let s = small_schema();
        let e = s.rel_id("E").unwrap();
        let mut ground = Database::empty(s.clone());
        let all: Vec<Fact> = facts
            .iter()
            .map(|(a, b)| Fact::new(e, tup![DOMAIN[*a], DOMAIN[*b]]))
            .collect();
        let mut expected_false = BTreeSet::new();
        for (i, f) in all.iter().enumerate() {
            if truth_mask[i % truth_mask.len()] {
                ground.insert(f.clone()).unwrap();
            } else {
                expected_false.insert(f.clone());
            }
        }
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground));
        let (found, questions) = find_false_facts(&mut crowd, &all).unwrap();
        let found: BTreeSet<Fact> = found.into_iter().collect();
        prop_assert_eq!(found, expected_false);
        prop_assert!(questions <= 2 * all.len() + 1, "group testing asked {questions} about {} facts", all.len());
    }

    #[test]
    fn monitor_tracks_full_recompute(
        db in db_strategy(8),
        edits in proptest::collection::vec(
            (any::<bool>(), 0..2usize, 0..4usize, 0..4usize),
            1..20,
        ),
        qi in 0..3usize,
    ) {
        let s = small_schema();
        let queries = [
            parse_query(&s, "(x) :- E(x, y), L(y)").unwrap(),
            parse_query(&s, "(x, z) :- E(x, y), E(y, z), x != z").unwrap(),
            parse_query(&s, r#"(x) :- E(x, x)"#).unwrap(),
        ];
        let q = &queries[qi];
        let mut live = db.clone();
        let mut view = MaterializedView::new(q.clone(), &live);
        for (del, rel_choice, a, b) in edits {
            let fact = if rel_choice == 0 {
                Fact::new(s.rel_id("E").unwrap(), tup![DOMAIN[a], DOMAIN[b]])
            } else {
                Fact::new(s.rel_id("L").unwrap(), tup![DOMAIN[a]])
            };
            let e = if del { Edit::delete(fact) } else { Edit::insert(fact) };
            live.apply(&e).unwrap();
            let delta = view.apply_edit(&live, &e);
            let expected = answer_set(q, &live);
            prop_assert_eq!(view.answers(), expected, "after {:?}", e);
            // deltas are consistent: added ∩ removed = ∅
            for t in &delta.added {
                prop_assert!(!delta.removed.contains(t));
            }
        }
    }

    /// The incremental deltas of [`MaterializedView::apply_edit`] must be
    /// exactly the set difference between consecutive full re-evaluations
    /// — not just leave the maintained answer set correct.
    #[test]
    fn monitor_deltas_agree_with_full_reevaluation(
        db in db_strategy(8),
        edits in proptest::collection::vec(
            (any::<bool>(), 0..2usize, 0..4usize, 0..4usize),
            1..24,
        ),
        qi in 0..3usize,
    ) {
        let s = small_schema();
        let queries = [
            parse_query(&s, "(x) :- E(x, y), L(y)").unwrap(),
            parse_query(&s, "(x, z) :- E(x, y), E(y, z), x != z").unwrap(),
            parse_query(&s, r#"(x) :- E(x, x)"#).unwrap(),
        ];
        let q = &queries[qi];
        let mut live = db.clone();
        let mut view = MaterializedView::new(q.clone(), &live);
        let mut previous: BTreeSet<qoco::data::Tuple> =
            answer_set(q, &live).into_iter().collect();
        for (del, rel_choice, a, b) in edits {
            let fact = if rel_choice == 0 {
                Fact::new(s.rel_id("E").unwrap(), tup![DOMAIN[a], DOMAIN[b]])
            } else {
                Fact::new(s.rel_id("L").unwrap(), tup![DOMAIN[a]])
            };
            let e = if del { Edit::delete(fact) } else { Edit::insert(fact) };
            live.apply(&e).unwrap();
            let delta = view.apply_edit(&live, &e);
            let expected: BTreeSet<qoco::data::Tuple> =
                answer_set(q, &live).into_iter().collect();
            let added: BTreeSet<qoco::data::Tuple> =
                expected.difference(&previous).cloned().collect();
            let removed: BTreeSet<qoco::data::Tuple> =
                previous.difference(&expected).cloned().collect();
            prop_assert_eq!(
                delta.added.iter().cloned().collect::<BTreeSet<_>>(),
                added,
                "added delta diverged from full re-evaluation after {:?}", e
            );
            prop_assert_eq!(
                delta.removed.iter().cloned().collect::<BTreeSet<_>>(),
                removed,
                "removed delta diverged from full re-evaluation after {:?}", e
            );
            previous = expected;
        }
    }

    #[test]
    fn minimized_union_is_answer_equivalent(
        disjunct_picks in proptest::collection::vec(0..5usize, 1..4),
        db in db_strategy(10),
    ) {
        let s = small_schema();
        let pool = [
            parse_query(&s, "(x) :- E(x, y)").unwrap(),
            parse_query(&s, "(x) :- E(x, y), E(y, z)").unwrap(),
            parse_query(&s, "(x) :- L(x)").unwrap(),
            parse_query(&s, "(x) :- E(x, x)").unwrap(),
            parse_query(&s, "(x) :- E(x, y), L(y)").unwrap(),
        ];
        let disjuncts: Vec<ConjunctiveQuery> =
            disjunct_picks.iter().map(|&i| pool[i].clone()).collect();
        let u = UnionQuery::new("U", disjuncts).unwrap();
        let m = u.minimized();
        prop_assert!(m.disjuncts().len() <= u.disjuncts().len());
        prop_assert!(!m.disjuncts().is_empty());
        let answers = |uq: &UnionQuery| -> BTreeSet<qoco::data::Tuple> {
            let d = db.clone();
            uq.disjuncts()
                .iter()
                .flat_map(|q| answer_set(q, &d))
                .collect()
        };
        prop_assert_eq!(answers(&u), answers(&m));
    }

    #[test]
    fn tsv_round_trip_any_database(db in db_strategy(12), tag in 0u32..1_000_000) {
        let dir = std::env::temp_dir().join(format!(
            "qoco-prop-io-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        save_dir(&db, &dir).unwrap();
        let loaded = load_dir(small_schema(), &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(db.sorted_facts(), loaded.sorted_facts());
    }

    #[test]
    fn tsv_round_trip_arbitrary_text(texts in proptest::collection::vec(".*", 1..8)) {
        let s = Schema::builder().relation("T", &["v"]).build().unwrap();
        let mut db = Database::empty(s.clone());
        for t in &texts {
            db.insert(Fact::new(
                s.rel_id("T").unwrap(),
                qoco::data::Tuple::new(vec![Value::text(t)]),
            ))
            .unwrap();
        }
        let dir = std::env::temp_dir().join(format!(
            "qoco-prop-text-{}-{}",
            std::process::id(),
            texts.len() * 31 + texts.first().map(|t| t.len()).unwrap_or(0),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        save_dir(&db, &dir).unwrap();
        let loaded = load_dir(s, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(db.sorted_facts(), loaded.sorted_facts());
    }

    #[test]
    fn json_strings_round_trip_arbitrary_text(texts in proptest::collection::vec(".*", 1..8)) {
        // each piece alone, and all of them joined into one long string so
        // runs of plain text meet every escape the pool can produce
        let joined = texts.concat();
        for text in texts.iter().chain(std::iter::once(&joined)) {
            let mut doc = String::new();
            push_json_str(&mut doc, text);
            let parsed = Json::parse(&doc).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(text.as_str()));
        }
    }
}
