//! Why-not analysis: the *picky operator* behind a missing answer.
//!
//! Stands in for the WhyNot? system of Tran & Chan \[60\] that the paper's
//! Provenance split strategy calls (Section 5.2). Given an answer-embedded
//! query `Q|t` with `Q|t(D) = ∅`, the Provenance split needs a bipartition
//! of the body atoms such that each side has valid assignments in `D` but
//! their join excludes the missing answer — i.e. the join operator between
//! the two sides is the *frontier picky operator*.
//!
//! We compute it by growing a jointly-satisfiable atom set in a
//! connectivity-aware, selectivity-first order; the first atom whose
//! addition makes the set unsatisfiable marks the frontier, and the split is
//! `{grown set}` vs `{the rest}` — exactly the bipartition the WhyNot?-based
//! split in the paper's Figure 2 produces.

use std::collections::BTreeSet;

use qoco_data::Database;
use qoco_query::{ConjunctiveQuery, Term, Var};

use crate::assignment::Assignment;
use crate::eval::is_satisfiable;

/// Build the subquery of `q` on the atom subset `keep` (all-variables head,
/// inequalities kept when covered) and test its satisfiability in `db`.
fn subset_satisfiable(q: &ConjunctiveQuery, db: &Database, keep: &[usize]) -> bool {
    match qoco_query::split_subset(q, keep) {
        Ok(sub) => is_satisfiable(&sub, db, &Assignment::new()),
        Err(_) => false,
    }
}

/// The order in which atoms are considered: most-constant (most selective)
/// first, then preferring atoms connected to already-chosen ones, then by
/// index for determinism.
fn frontier_order(q: &ConjunctiveQuery) -> Vec<usize> {
    let n = q.atoms().len();
    let atom_vars: Vec<BTreeSet<Var>> = q
        .atoms()
        .iter()
        .map(|a| a.vars().into_iter().collect())
        .collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut chosen_vars: BTreeSet<Var> = BTreeSet::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .max_by_key(|&i| {
                let consts = q.atoms()[i]
                    .terms
                    .iter()
                    .filter(|t| matches!(t, Term::Const(_)))
                    .count();
                let connected = atom_vars[i].intersection(&chosen_vars).count();
                // prefer connected-to-chosen, then more constants, then
                // lower index (max_by_key keeps the *last* max, so negate i)
                (connected, consts, usize::MAX - i)
            })
            .expect("remaining is non-empty");
        chosen.push(best);
        chosen_vars.extend(atom_vars[best].iter().cloned());
        remaining.retain(|&i| i != best);
    }
    chosen
}

/// Find the frontier bipartition for a query with no valid assignment:
/// returns a mask (`true` = first side) where the first side is the maximal
/// satisfiable prefix in frontier order and the second side is the rest.
///
/// Returns `None` when the whole query is satisfiable (nothing is missing)
/// or when the query has fewer than two atoms (no join to blame).
pub fn frontier_split(q: &ConjunctiveQuery, db: &Database) -> Option<Vec<bool>> {
    let n = q.atoms().len();
    if n < 2 {
        return None;
    }
    let _span = qoco_telemetry::span("engine.why_not").field("atoms", n);
    if is_satisfiable(q, db, &Assignment::new()) {
        return None;
    }
    let order = frontier_order(q);
    let mut kept: Vec<usize> = Vec::new();
    for &i in &order {
        let mut trial = kept.clone();
        trial.push(i);
        if subset_satisfiable(q, db, &trial) {
            kept = trial;
        } else if kept.is_empty() {
            // the very first atom is unsatisfiable alone (e.g. a constant
            // that matches nothing): isolate it
            let mut mask = vec![true; n];
            mask[i] = false;
            return Some(mask);
        } else {
            // frontier found: kept side vs everything else
            let mut mask = vec![false; n];
            for &k in &kept {
                mask[k] = true;
            }
            return Some(mask);
        }
    }
    // Every prefix was satisfiable yet the full query is not — possible only
    // through inequalities that straddle subqueries and are dropped during
    // projection. Split off the last atom in frontier order.
    let last = *order.last().expect("n ≥ 2");
    let mut mask = vec![true; n];
    mask[last] = false;
    Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::{tup, Schema, Value};
    use qoco_query::{embed_answer, parse_query};
    use std::sync::Arc;

    /// The Example 5.4 setup: Teams(ITA, EU) is missing, so (Pirlo) is a
    /// missing answer of Q2.
    fn setup() -> (Arc<Schema>, Database, ConjunctiveQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_named("Games", tup!["09.06.06", "ITA", "FRA", "Final", "5:3"])
            .unwrap();
        for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("BRA", "EU")] {
            db.insert_named("Teams", tup![c, k]).unwrap();
        }
        db.insert_named("Players", tup!["Pirlo", "ITA", 1979, "ITA"])
            .unwrap();
        db.insert_named("Goals", tup!["Pirlo", "09.06.06"]).unwrap();
        let q = parse_query(
            &schema,
            r#"Q2(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, "Final", u), Teams(y, "EU")."#,
        )
        .unwrap();
        (schema, db, q)
    }

    #[test]
    fn pirlo_split_isolates_teams() {
        let (_, db, q) = setup();
        let q_t = embed_answer(&q, &[Value::text("Pirlo")]).unwrap();
        let mask = frontier_split(&q_t, &db).unwrap();
        // Atoms: 0 Players, 1 Goals, 2 Games, 3 Teams. The first three are
        // jointly satisfiable; Teams(y := ITA, EU) is not.
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn satisfiable_query_has_no_split() {
        let (_, mut db, q) = setup();
        // x := Pirlo is missing, but some OTHER European player might not
        // be; here nobody qualifies (ITA not EU), so the un-embedded query
        // is unsatisfiable too. Make it satisfiable by adding data:
        db.insert_named("Teams", tup!["ITA", "EU"]).unwrap();
        let q_t = embed_answer(&q, &[Value::text("Pirlo")]).unwrap();
        assert!(frontier_split(&q_t, &db).is_none());
    }

    #[test]
    fn single_atom_query_has_no_split() {
        let (schema, db, _) = setup();
        let q = parse_query(&schema, r#"(x) :- Teams(x, "AF")"#).unwrap();
        assert!(frontier_split(&q, &db).is_none());
    }

    #[test]
    fn dead_constant_atom_is_isolated() {
        let (schema, db, _) = setup();
        // Games with stage "Quarter" matches nothing; Teams side matches.
        let q = parse_query(
            &schema,
            r#"(x) :- Teams(x, "EU"), Games(d, x, y, "Quarter", u)"#,
        )
        .unwrap();
        let mask = frontier_split(&q, &db).unwrap();
        // The satisfiable side must contain Teams (atom 0), the excluded
        // side the Games atom (atom 1).
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn both_sides_satisfiable_like_figure_2() {
        // Figure 2: O1 = {R1, R2} and O2 = {R3, R4} each have valid
        // assignments but their join is empty.
        let schema = Schema::builder()
            .relation("R1", &["x", "y"])
            .relation("R2", &["y", "z"])
            .relation("R3", &["z", "w"])
            .relation("R4", &["z", "v"])
            .build()
            .unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_named("R1", tup!["a", "b"]).unwrap();
        db.insert_named("R2", tup!["b", "c1"]).unwrap();
        db.insert_named("R3", tup!["c2", "d"]).unwrap();
        db.insert_named("R4", tup!["c2", "e"]).unwrap();
        let q = parse_query(
            &schema,
            "(x, y, z, w) :- R1(x, y), R2(y, z), R3(z, w), R4(z, v)",
        )
        .unwrap();
        let mask = frontier_split(&q, &db).unwrap();
        let sat: Vec<usize> = (0..4).filter(|&i| mask[i]).collect();
        let exc: Vec<usize> = (0..4).filter(|&i| !mask[i]).collect();
        assert!(!sat.is_empty() && !exc.is_empty());
        // the satisfiable side must indeed be satisfiable
        assert!(subset_satisfiable(&q, &db, &sat));
        // and splitting it off blames a real join frontier: the two sides
        // joined are unsatisfiable
        assert!(!is_satisfiable(&q, &db, &Assignment::new()));
    }
}
