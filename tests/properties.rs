//! Property-based tests on the core invariants, using proptest.
//!
//! * evaluation agrees with a brute-force semantics oracle;
//! * `clean_view` with a perfect oracle always reaches `Q(D′) = Q(D_G)`;
//! * every edit weakly decreases `|D − D_G|` (Proposition 3.3);
//! * edits are idempotent (Section 3.1);
//! * hitting-set machinery agrees with exhaustive search (Theorem 4.5);
//! * noise injection hits its cleanliness target;
//! * a session killed at any point and resumed from its write-ahead
//!   journal converges bit-identically to the uninterrupted run.

use std::collections::BTreeSet;

use proptest::prelude::*;

use qoco::core::hitting_set::HittingSetInstance;
use qoco::core::{clean_view, CleaningConfig};
use qoco::crowd::{CrowdAccess, FaultPlan, FaultyOracle, Journal, PerfectOracle, SingleExpert};
use qoco::data::{diff, tup, Database, Edit, Fact, Schema, Value};
use qoco::datasets::{inject_noise, NoiseSpec};
use qoco::engine::{answer_set, evaluate, Assignment};
use qoco::query::{parse_query, ConjunctiveQuery, Var};

/// A tiny two-relation schema: E(a, b) and L(a).
fn small_schema() -> std::sync::Arc<Schema> {
    Schema::builder()
        .relation("E", &["a", "b"])
        .relation("L", &["a"])
        .build()
        .unwrap()
}

const DOMAIN: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// Strategy: a database over the small schema with up to `max` facts.
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

/// A pool of queries over the small schema exercising joins, constants,
/// self-joins and inequalities.
fn query_pool() -> Vec<ConjunctiveQuery> {
    let s = small_schema();
    [
        r#"(x) :- L(x)"#,
        r#"(x, y) :- E(x, y)"#,
        r#"(x) :- E(x, y), L(y)"#,
        r#"(x) :- E(x, y), E(y, z)"#,
        r#"(x, z) :- E(x, y), E(y, z), x != z"#,
        r#"(x) :- E(x, x)"#,
        r#"(x) :- E(x, y), y != "v0""#,
        r#"(x) :- E(x, y), L(x), L(y)"#,
    ]
    .iter()
    .map(|t| parse_query(&s, t).unwrap())
    .collect()
}

/// Brute-force semantics: enumerate every total assignment over the active
/// domain and keep the heads of the valid ones.
fn brute_force_answers(q: &ConjunctiveQuery, db: &Database) -> BTreeSet<qoco::data::Tuple> {
    let vars = q.vars();
    let domain: Vec<Value> = DOMAIN.iter().map(|d| Value::text(*d)).collect();
    let mut out = BTreeSet::new();
    let total = domain.len().pow(vars.len() as u32);
    for code in 0..total {
        let mut rem = code;
        let mut asg = Assignment::new();
        for v in &vars {
            asg.bind(v.clone(), domain[rem % domain.len()].clone());
            rem /= domain.len();
        }
        // valid? every atom grounds to a fact, every inequality holds
        let atoms_ok = q
            .atoms()
            .iter()
            .all(|a| asg.ground_atom(a).map(|f| db.contains(&f)).unwrap_or(false));
        let ineq_ok = q
            .inequalities()
            .iter()
            .all(|e| asg.check_inequality(e) == Some(true));
        if atoms_ok && ineq_ok {
            out.insert(asg.ground_head(q).unwrap());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evaluation_matches_brute_force(db in db_strategy(12), qi in 0..8usize) {
        let q = &query_pool()[qi];
        let fast: BTreeSet<_> = answer_set(q, &db).into_iter().collect();
        let brute = brute_force_answers(q, &db);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn all_assignments_are_valid_and_distinct(db in db_strategy(10), qi in 0..8usize) {
        let q = &query_pool()[qi];
        let res = evaluate(q, &db);
        let mut seen = BTreeSet::new();
        for a in &res.assignments {
            prop_assert!(seen.insert(a.clone()), "duplicate assignment");
            for atom in q.atoms() {
                let f = a.ground_atom(atom).expect("total");
                prop_assert!(db.contains(&f));
            }
            for e in q.inequalities() {
                prop_assert_eq!(a.check_inequality(e), Some(true));
            }
        }
    }

    #[test]
    fn cleaning_converges_and_is_monotone(
        dirty in db_strategy(10),
        ground in db_strategy(10),
        qi in 0..8usize,
    ) {
        let q = &query_pool()[qi];
        let mut d = dirty.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let config = CleaningConfig { max_iterations: 200, ..Default::default() };
        let report = clean_view(q, &mut d, &mut crowd, config).unwrap();
        // convergence: the repaired view equals the true result
        prop_assert_eq!(answer_set(q, &d), answer_set(q, &ground));
        // Proposition 3.3: monotone distance along the edit log
        let mut replay = dirty.clone();
        let mut dist = diff(&replay, &ground).unwrap().distance();
        for e in report.edits.edits() {
            replay.apply(e).unwrap();
            let next = diff(&replay, &ground).unwrap().distance();
            prop_assert!(next <= dist);
            dist = next;
        }
        prop_assert_eq!(report.anomalies, 0);
    }

    #[test]
    fn edits_are_idempotent(db in db_strategy(8), a in 0..4usize, b in 0..4usize, del in any::<bool>()) {
        let fact = Fact::new(
            small_schema().rel_id("E").unwrap(),
            tup![DOMAIN[a], DOMAIN[b]],
        );
        let e = if del { Edit::delete(fact) } else { Edit::insert(fact) };
        let mut once = db.clone();
        once.apply(&e).unwrap();
        let mut twice = once.clone();
        let changed = twice.apply(&e).unwrap();
        prop_assert!(!changed, "second application must be a no-op");
        prop_assert_eq!(once.sorted_facts(), twice.sorted_facts());
    }

    #[test]
    fn unique_minimal_hitting_set_matches_exhaustive_search(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u32..6, 1..4),
            1..6,
        )
    ) {
        let inst = HittingSetInstance::new(sets.clone());
        // exhaustive: all minimal hitting sets over the universe
        let universe: Vec<u32> = inst.universe().into_iter().collect();
        let mut hitting: Vec<BTreeSet<u32>> = Vec::new();
        for mask in 0u32..(1 << universe.len()) {
            let h: BTreeSet<u32> = universe
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, v)| *v)
                .collect();
            if inst.is_hitting_set(&h) {
                hitting.push(h);
            }
        }
        let minimal: Vec<&BTreeSet<u32>> = hitting
            .iter()
            .filter(|h| {
                h.iter().all(|e| {
                    let mut smaller = (*h).clone();
                    smaller.remove(e);
                    !inst.is_hitting_set(&smaller)
                })
            })
            .collect();
        match inst.unique_minimal_hitting_set() {
            Some(m) => {
                prop_assert_eq!(minimal.len(), 1, "claimed unique but found {}", minimal.len());
                prop_assert_eq!(minimal[0], &m);
            }
            None => prop_assert!(minimal.len() != 1, "missed a unique minimal hitting set"),
        }
        // the exact minimum is a hitting set no larger than greedy
        let exact = inst.minimum_hitting_set();
        prop_assert!(inst.is_hitting_set(&exact));
        let greedy = inst.greedy_hitting_set();
        prop_assert!(inst.is_hitting_set(&greedy));
        prop_assert!(exact.len() <= greedy.len());
    }

    #[test]
    fn noise_injection_hits_cleanliness_target(
        clean_pct in 50u32..99,
        skew_pct in 0u32..=100,
        seed in 0u64..50,
    ) {
        // a mid-sized ground truth so rounding error stays small
        let mut ground = Database::empty(small_schema());
        for i in 0..40 {
            ground
                .insert_named("E", tup![format!("g{i}"), format!("h{i}")])
                .unwrap();
        }
        let spec = NoiseSpec {
            cleanliness: clean_pct as f64 / 100.0,
            skewness: skew_pct as f64 / 100.0,
            seed,
        };
        let d = inject_noise(&ground, spec);
        let r = diff(&d, &ground).unwrap();
        prop_assert!((r.cleanliness() - spec.cleanliness).abs() < 0.08,
            "target {} got {}", spec.cleanliness, r.cleanliness());
    }

    #[test]
    fn killed_and_resumed_sessions_converge_identically(
        dirty in db_strategy(8),
        ground in db_strategy(8),
        qi in 0..8usize,
        seed in 0u64..20,
    ) {
        // Run one journaled session to completion (under a transiently
        // faulty crowd), then simulate killing it at the ¼, ½ and ¾ marks
        // of its answer stream: resuming from each journal prefix must
        // reproduce the same edits, the same final database, the same
        // question counts — with zero replay divergences.
        let q = &query_pool()[qi];
        let plan: FaultPlan = format!("seed={seed},timeout=0.15").parse().unwrap();
        let config = CleaningConfig { max_iterations: 200, ..Default::default() };

        let full_journal = Journal::recording();
        let mut full_db = dirty.clone();
        let mut full_crowd = SingleExpert::new(full_journal.wrap(FaultyOracle::new(
            PerfectOracle::new(ground.clone()),
            plan.clone(),
        )));
        let full_report = clean_view(q, &mut full_db, &mut full_crowd, config).unwrap();
        let full_stats = full_crowd.stats();
        let records = full_journal.records();

        for frac in [1usize, 2, 3] {
            let k = records.len() * frac / 4;
            let journal = Journal::replaying(records[..k].to_vec());
            let mut db = dirty.clone();
            let mut crowd = SingleExpert::new(journal.wrap(FaultyOracle::new(
                PerfectOracle::new(ground.clone()),
                plan.clone(),
            )));
            let report = clean_view(q, &mut db, &mut crowd, config).unwrap();
            prop_assert_eq!(journal.divergences(), 0, "kill point {k}: inputs diverged");
            prop_assert_eq!(journal.replayed(), k as u64);
            prop_assert_eq!(journal.seq(), records.len() as u64,
                "kill point {k}: different question count");
            prop_assert_eq!(report.edits.edits(), full_report.edits.edits());
            prop_assert_eq!(db.sorted_facts(), full_db.sorted_facts());
            prop_assert_eq!(crowd.stats(), full_stats);
        }
    }

    #[test]
    fn substitution_preserves_safety(db in db_strategy(6), qi in 0..8usize, v in 0..4usize) {
        // substituting any single variable by a constant yields a valid
        // query whose answers embed into the original's
        let q = &query_pool()[qi];
        let vars = q.vars();
        let var: Var = vars[v % vars.len()].clone();
        let value = Value::text(DOMAIN[v]);
        let Ok(sub) = q.substitute(&|x: &Var| (x == &var).then(|| value.clone())) else {
            return Ok(()); // substitution violated an inequality: fine
        };
        // every valid assignment of the substituted query extends to one of
        // the original with var := value
        let sub_res = evaluate(&sub, &db);
        for a in &sub_res.assignments {
            let mut full = a.clone();
            prop_assert!(full.bind(var.clone(), value.clone()));
            for atom in q.atoms() {
                let f = full.ground_atom(atom).expect("total for q");
                prop_assert!(db.contains(&f));
            }
        }
    }
}
