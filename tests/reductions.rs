//! The appendix's NP-hardness reduction gadgets, run end-to-end.
//!
//! The paper proves Theorem 4.2 (deletion question search is NP-hard) by
//! reduction from Hitting Set, and Theorem 5.2 (insertion question search
//! is NP-hard) by reduction from One-3SAT. These tests *construct the
//! reduction instances exactly as the proofs describe* and check that the
//! QOCO algorithms behave as the proofs require: removing the planted
//! answer yields a hitting set; inserting the missing answer yields a
//! satisfying assignment.

use std::collections::{BTreeSet, HashMap};

use qoco::core::{
    crowd_add_missing_answer, crowd_remove_wrong_answer, DeletionStrategy, InsertionOptions,
    NaiveSplit,
};
use qoco::crowd::{PerfectOracle, SingleExpert};
use qoco::data::{Database, Schema, Tuple, Value};
use qoco::engine::answer_set;
use qoco::query::{parse_query, ConjunctiveQuery};

// --------------------------------------------------------------------
// Theorem 4.2: Hitting Set → deletion question search
// --------------------------------------------------------------------

/// Build the proof's instance for universe size `n` and sets `sets`
/// (the proof's own example: U = {u1..u4}, S = {{u2,u3,u4}, {u1,u2}}).
fn hitting_set_gadget(
    n: usize,
    sets: &[BTreeSet<usize>],
) -> (Database, Database, ConjunctiveQuery) {
    let mut builder = Schema::builder();
    for i in 1..=n {
        builder = builder.relation(&format!("R{i}"), &["x"]);
    }
    // R(Z, A, X_1..X_n)
    let attrs: Vec<String> = std::iter::once("z".to_string())
        .chain(std::iter::once("a".to_string()))
        .chain((1..=n).map(|i| format!("x{i}")))
        .collect();
    let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
    builder = builder.relation("R", &attr_refs);
    let schema = builder.build().unwrap();

    let u = |i: usize| Value::text(format!("u{i}"));
    let d = Value::text("d");

    let mut db = Database::empty(schema.clone());
    let mut ground = Database::empty(schema.clone());
    for i in 1..=n {
        let rel = format!("R{i}");
        db.insert_named(&rel, Tuple::new(vec![u(i)])).unwrap();
        db.insert_named(&rel, Tuple::new(vec![d.clone()])).unwrap();
        ground
            .insert_named(&rel, Tuple::new(vec![d.clone()]))
            .unwrap();
    }
    // characteristic vector per set
    for (si, set) in sets.iter().enumerate() {
        let mut row = vec![d.clone(), Value::text(format!("S{}", si + 1))];
        for j in 1..=n {
            row.push(if set.contains(&j) { u(j) } else { d.clone() });
        }
        db.insert_named("R", Tuple::new(row)).unwrap();
    }
    // (z) :- R(z, y, w1..wn), R1(w1), …, Rn(wn)
    let body_vars: Vec<String> = (1..=n).map(|i| format!("w{i}")).collect();
    let mut text = format!("(z) :- R(z, y, {})", body_vars.join(", "));
    for i in 1..=n {
        text.push_str(&format!(", R{i}(w{i})"));
    }
    let q = parse_query(&schema, &text).unwrap();
    (db, ground, q)
}

#[test]
fn theorem_4_2_gadget_shape() {
    // the proof's example instance
    let sets = vec![BTreeSet::from([2usize, 3, 4]), BTreeSet::from([1usize, 2])];
    let (db, ground, q) = hitting_set_gadget(4, &sets);
    // Q(D) = {(d)}, Q(D_G) = ∅ — exactly as the proof states
    assert_eq!(
        answer_set(&q, &db),
        vec![Tuple::new(vec![Value::text("d")])]
    );
    assert!(answer_set(&q, &ground).is_empty());
}

#[test]
fn theorem_4_2_deletions_form_a_hitting_set() {
    for (n, sets) in [
        (
            4usize,
            vec![BTreeSet::from([2usize, 3, 4]), BTreeSet::from([1usize, 2])],
        ),
        (
            5,
            vec![
                BTreeSet::from([1usize, 2]),
                BTreeSet::from([3usize, 4]),
                BTreeSet::from([2usize, 5]),
            ],
        ),
    ] {
        let (mut db, ground, q) = hitting_set_gadget(n, &sets);
        let target = Tuple::new(vec![Value::text("d")]);
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let out = crowd_remove_wrong_answer(
            &q,
            &mut db,
            &target,
            &mut crowd,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        assert!(
            answer_set(&q, &db).is_empty(),
            "the wrong answer must be gone"
        );
        // the deleted facts, projected to the elements u_i, must hit every
        // set of the instance (the proof's ⇐ direction)
        let mut hit: BTreeSet<usize> = BTreeSet::new();
        for e in out.edits.edits() {
            let rel_name = db.schema().rel_name(e.fact.rel).to_string();
            if let Some(i) = rel_name
                .strip_prefix('R')
                .and_then(|s| s.parse::<usize>().ok())
            {
                if e.fact.tuple.values()[0] == Value::text(format!("u{i}")) {
                    hit.insert(i);
                }
            }
        }
        for (si, set) in sets.iter().enumerate() {
            assert!(
                set.iter().any(|el| hit.contains(el))
                    || out.edits.edits().iter().any(|e| {
                        // alternatively the characteristic-vector row itself
                        // was deleted, which also destroys the witness
                        db.schema().rel_name(e.fact.rel) == "R"
                            && e.fact.tuple.values()[1] == Value::text(format!("S{}", si + 1))
                    }),
                "set S{} not hit; edits: {:?}",
                si + 1,
                out.edits.edits()
            );
        }
    }
}

// --------------------------------------------------------------------
// Theorem 5.2: One-3SAT → insertion question search
// --------------------------------------------------------------------

/// A 3-CNF clause: three (variable index, positive?) literals.
type Clause = [(usize, bool); 3];

/// Build the proof's instance for the formula `clauses` over `nvars`
/// boolean variables: one relation `R_i(A, X_i1, X_i2, X_i3)` per clause,
/// ground truth = the satisfying rows of each clause, dirty DB empty.
fn one_3sat_gadget(nvars: usize, clauses: &[Clause]) -> (Database, Database, ConjunctiveQuery) {
    let mut builder = Schema::builder();
    for i in 0..clauses.len() {
        builder = builder.relation(&format!("C{i}"), &["a", "l1", "l2", "l3"]);
    }
    let schema = builder.build().unwrap();
    let db = Database::empty(schema.clone());
    let mut ground = Database::empty(schema.clone());
    for (i, clause) in clauses.iter().enumerate() {
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|b| bits >> b & 1 == 1).collect();
            let satisfied = clause
                .iter()
                .zip(&vals)
                .any(|((_, positive), v)| *v == *positive);
            if satisfied {
                let mut row = vec![Value::text("d")];
                row.extend(vals.iter().map(|&v| Value::Int(v as i64)));
                ground
                    .insert_named(&format!("C{i}"), Tuple::new(row))
                    .unwrap();
            }
        }
    }
    // (x) :- C0(x, v_a, v_b, v_c), C1(x, …), … with variables shared per
    // boolean variable
    let mut body = Vec::new();
    for (i, clause) in clauses.iter().enumerate() {
        let lits: Vec<String> = clause.iter().map(|(v, _)| format!("v{v}")).collect();
        body.push(format!("C{i}(x, {})", lits.join(", ")));
    }
    let _ = nvars;
    let text = format!("(x) :- {}", body.join(", "));
    let q = parse_query(&schema, &text).unwrap();
    (db, ground, q)
}

#[test]
fn theorem_5_2_gadget_shape() {
    // Φ = (X1 ∨ X2 ∨ ¬X3) ∧ (¬X1 ∨ X3 ∨ X4): satisfiable
    let clauses: Vec<Clause> = vec![
        [(1, true), (2, true), (3, false)],
        [(1, false), (3, true), (4, true)],
    ];
    let (db, ground, q) = one_3sat_gadget(4, &clauses);
    assert!(answer_set(&q, &db).is_empty(), "Q(D) = ∅ on the empty DB");
    assert_eq!(
        answer_set(&q, &ground),
        vec![Tuple::new(vec![Value::text("d")])],
        "Q(D_G) = {{(d)}} for a satisfiable formula"
    );
}

#[test]
fn theorem_5_2_insertion_encodes_a_satisfying_assignment() {
    let clauses: Vec<Clause> = vec![
        [(1, true), (2, true), (3, false)],
        [(1, false), (3, true), (4, true)],
        [(2, false), (4, false), (1, true)],
    ];
    let (mut db, ground, q) = one_3sat_gadget(4, &clauses);
    let target = Tuple::new(vec![Value::text("d")]);
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let out = crowd_add_missing_answer(
        &q,
        &mut db,
        &target,
        &mut crowd,
        &mut NaiveSplit,
        InsertionOptions::default(),
        &mut [],
    )
    .unwrap();
    assert!(out.achieved);
    assert!(answer_set(&q, &db).contains(&target));
    // reconstruct the boolean assignment from the inserted facts: since the
    // query shares variables across clauses, the inserted rows must agree —
    // and must satisfy every clause
    let mut assignment: HashMap<usize, bool> = HashMap::new();
    for e in out.edits.edits() {
        let rel_name = db.schema().rel_name(e.fact.rel).to_string();
        let ci: usize = rel_name.strip_prefix('C').unwrap().parse().unwrap();
        for (slot, (var, _)) in clauses[ci].iter().enumerate() {
            let bit = e.fact.tuple.values()[slot + 1].as_int().expect("0/1 value") == 1;
            if let Some(prev) = assignment.insert(*var, bit) {
                assert_eq!(prev, bit, "inconsistent assignment for X{var}");
            }
        }
    }
    for (i, clause) in clauses.iter().enumerate() {
        let sat = clause
            .iter()
            .any(|(var, positive)| assignment[var] == *positive);
        assert!(sat, "clause {i} unsatisfied by {assignment:?}");
    }
}

#[test]
fn theorem_5_2_unsatisfiable_formula_cannot_be_inserted() {
    // Φ = (X1) ∧ (¬X1), padded to 3 literals with the same variable:
    // (X1 ∨ X1 ∨ X1) ∧ (¬X1 ∨ ¬X1 ∨ ¬X1) — unsatisfiable
    let clauses: Vec<Clause> = vec![
        [(1, true), (1, true), (1, true)],
        [(1, false), (1, false), (1, false)],
    ];
    let (mut db, ground, q) = one_3sat_gadget(1, &clauses);
    assert!(
        answer_set(&q, &ground).is_empty(),
        "no satisfying assignment ⇒ (d) ∉ Q(D_G)"
    );
    let target = Tuple::new(vec![Value::text("d")]);
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground));
    let out = crowd_add_missing_answer(
        &q,
        &mut db,
        &target,
        &mut crowd,
        &mut NaiveSplit,
        InsertionOptions::default(),
        &mut [],
    )
    .unwrap();
    assert!(
        !out.achieved,
        "the oracle must refuse to witness an unsatisfiable formula"
    );
    assert!(out.edits.is_empty());
}
