//! The frozen seed evaluator: the engine's first evaluation algorithm,
//! kept verbatim as a reference the current engine is checked against.
//!
//! It is the original backtracking join: eager `HashMap<Value,
//! Vec<Tuple>>` column indexes (built lazily, cached across evaluations
//! like the old `Relation` did), a full `to_vec()` clone of the candidate
//! posting list at every descend, and a `candidates.sort()` per descend to
//! recover determinism. It shares no code with the engine's planner,
//! posting lists or search, so agreement between the two is evidence about
//! both. The property test below feeds both random two-relation databases
//! and the selective and dense shapes, and requires identical assignments
//! and answer sets.

use std::collections::HashMap;

use qoco_data::{tup, Database, RelId, Schema, Tuple, Value};
use qoco_engine::{all_assignments, answer_set, Assignment, EvalOptions};
use qoco_query::{parse_query, ConjunctiveQuery, Term};

/// The old engine's evaluation state: a database plus lazily built
/// owned-tuple column indexes, cached across calls the way the old
/// `Relation` cached them across probes.
struct SeedEval<'a> {
    db: &'a Database,
    indexes: HashMap<(RelId, usize), HashMap<Value, Vec<Tuple>>>,
}

impl<'a> SeedEval<'a> {
    /// Wrap `db`; indexes build on first probe of each column.
    fn new(db: &'a Database) -> Self {
        SeedEval {
            db,
            indexes: HashMap::new(),
        }
    }

    fn probe(&mut self, rel: RelId, col: usize, value: &Value) -> &[Tuple] {
        let index = self.indexes.entry((rel, col)).or_insert_with(|| {
            let mut map: HashMap<Value, Vec<Tuple>> = HashMap::new();
            for t in self.db.relation(rel).iter() {
                map.entry(t.values()[col].clone())
                    .or_default()
                    .push(t.clone());
            }
            map
        });
        index.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All valid assignments of `q`, sorted and deduplicated — the old
    /// `all_assignments` with default options.
    fn all_assignments(&mut self, q: &ConjunctiveQuery) -> Vec<Assignment> {
        let order = plan(q, self.db);
        let mut out = Vec::new();
        self.descend(q, &order, 0, Assignment::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// The answer set `Q(D)`, sorted and deduplicated.
    fn answer_set(&mut self, q: &ConjunctiveQuery) -> Vec<Tuple> {
        let mut answers: Vec<Tuple> = self
            .all_assignments(q)
            .iter()
            .map(|a| a.ground_head(q).expect("valid assignments are total"))
            .collect();
        answers.sort();
        answers.dedup();
        answers
    }

    fn descend(
        &mut self,
        q: &ConjunctiveQuery,
        order: &[usize],
        depth: usize,
        current: Assignment,
        out: &mut Vec<Assignment>,
    ) {
        if depth == order.len() {
            let ok = q
                .inequalities()
                .iter()
                .all(|e| current.check_inequality(e) == Some(true));
            if ok {
                out.push(current);
            }
            return;
        }
        let atom = &q.atoms()[order[depth]];
        let mut probe_col: Option<(usize, Value)> = None;
        for (col, term) in atom.terms.iter().enumerate() {
            if let Some(v) = current.ground_term(term) {
                probe_col = Some((col, v));
                break;
            }
        }
        // the seed's per-descend costs: a full clone of the posting list,
        // then a sort to recover deterministic order
        let mut candidates: Vec<Tuple> = match &probe_col {
            Some((col, v)) => self.probe(atom.rel, *col, v).to_vec(),
            None => self.db.relation(atom.rel).iter().cloned().collect(),
        };
        candidates.sort();
        'cand: for tuple in candidates {
            let mut next = current.clone();
            for (term, value) in atom.terms.iter().zip(tuple.values()) {
                match term {
                    Term::Const(c) => {
                        if c != value {
                            continue 'cand;
                        }
                    }
                    Term::Var(v) => {
                        if !next.bind(v.clone(), value.clone()) {
                            continue 'cand;
                        }
                    }
                }
            }
            for e in q.inequalities() {
                if next.check_inequality(e) == Some(false) {
                    continue 'cand;
                }
            }
            self.descend(q, order, depth + 1, next, out);
        }
    }
}

/// The seed's greedy atom order, including its original
/// `usize::MAX - bound` sort-key encoding.
fn plan(q: &ConjunctiveQuery, db: &Database) -> Vec<usize> {
    let n = q.atoms().len();
    let mut bound_vars: std::collections::BTreeSet<qoco_query::Var> = Default::default();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .min_by_key(|&i| {
                let a = &q.atoms()[i];
                let bound = a
                    .terms
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound_vars.contains(v),
                    })
                    .count();
                let size = db.relation(a.rel).len();
                (usize::MAX - bound, size, i)
            })
            .expect("remaining is non-empty");
        order.push(best);
        for v in q.atoms()[best].vars() {
            bound_vars.insert(v);
        }
        remaining.retain(|&i| i != best);
    }
    order
}

/// xorshift64* — deterministic, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// `n` tuples in each of `A(x, g)` and `B(·, ·)` over `groups` join
/// groups; `B` holds `(g, x)` when `flipped`, `(y, g)` otherwise.
fn grouped(n: usize, groups: usize, flipped: bool) -> Database {
    let b_attrs: &[&str] = if flipped { &["g", "x"] } else { &["y", "g"] };
    let schema = Schema::builder()
        .relation("A", &["x", "g"])
        .relation("B", b_attrs)
        .build()
        .unwrap();
    let mut db = Database::empty(schema);
    for i in 0..n {
        let g = format!("g{}", i % groups);
        db.insert_named("A", tup![format!("a{i}"), g.clone()])
            .unwrap();
        let b = if flipped {
            tup![g, format!("a{i}")]
        } else {
            tup![format!("b{i}"), g]
        };
        db.insert_named("B", b).unwrap();
    }
    db
}

/// A random database over `R(a, b)` and `S(b, c)` drawn from a small value
/// pool, so joins, repeated values and empty results all occur.
fn random_db(rng: &mut Rng) -> Database {
    let schema = Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["b", "c"])
        .build()
        .unwrap();
    let mut db = Database::empty(schema);
    let vals = ["a", "b", "c", "d", "e"];
    for _ in 0..rng.below(30) {
        let rel = if rng.below(2) == 0 { "R" } else { "S" };
        let t = tup![vals[rng.below(5) as usize], vals[rng.below(5) as usize]];
        db.insert_named(rel, t).unwrap();
    }
    db
}

/// Query shapes over `R`/`S` with joins, constants, a repeated relation,
/// a cross product and inequalities.
const RANDOM_QUERIES: [&str; 6] = [
    "Q(x, z) :- R(x, y), S(y, z).",
    r#"Q(x) :- R(x, y), S(y, "c")."#,
    "Q(x) :- R(x, y), R(y, x).",
    "Q(x, z) :- R(x, y), S(y, z), x != z.",
    "Q(x, w) :- R(x, y), S(z, w).",
    "Q(y) :- R(x, y), R(z, y), x != z.",
];

/// The current engine and the seed evaluator agree on `q` over `db`:
/// identical assignments (both sorted and deduplicated) and answer sets.
fn assert_agree(db: &Database, q: &ConjunctiveQuery, case: &str) {
    let mut seed = SeedEval::new(db);
    assert_eq!(
        all_assignments(q, db, &Assignment::new(), EvalOptions::default()).assignments,
        seed.all_assignments(q),
        "assignments differ on {case}"
    );
    assert_eq!(
        answer_set(q, db),
        seed.answer_set(q),
        "answer sets differ on {case}"
    );
}

#[test]
fn the_engine_matches_the_seed_evaluator() {
    // the fixed case first: 40 tuples a side in 5 dense groups
    let fixed = grouped(40, 5, false);
    let q = parse_query(fixed.schema(), "Q(x, y) :- A(x, g), B(y, g).").unwrap();
    assert_agree(&fixed, &q, "the fixed dense case");

    // the selective shape (one survivor per 200-tuple posting list) and
    // the dense shape (every candidate survives)
    let selective = grouped(1_000, 5, true);
    let q = parse_query(selective.schema(), "Q(x) :- A(x, g), B(g, x).").unwrap();
    assert_agree(&selective, &q, "the selective shape");
    let dense = grouped(500, 50, false);
    let q = parse_query(dense.schema(), "Q(x, y) :- A(x, g), B(y, g).").unwrap();
    assert_agree(&dense, &q, "the dense shape");

    let mut rng = Rng(0x5eed_e7a1);
    for case in 0..300 {
        let db = random_db(&mut rng);
        for text in RANDOM_QUERIES {
            let q = parse_query(db.schema(), text).unwrap();
            assert_agree(&db, &q, &format!("random case {case}, {text}"));
        }
    }
}
