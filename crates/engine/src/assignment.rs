//! Assignments `α : Var(Q) → C` (paper Section 2).
//!
//! An [`Assignment`] may be *partial*. It is *valid* w.r.t. a database if
//! grounding every body atom yields a fact of the database and every
//! inequality holds; it is *satisfiable* if it extends to a valid total
//! assignment (checked in [`crate::eval`]).

use std::collections::BTreeMap;
use std::fmt;

use qoco_data::{Fact, Tuple, Value};
use qoco_query::{Atom, ConjunctiveQuery, Inequality, Term, Var};

/// A (partial) mapping from query variables to constants.
///
/// Backed by a `BTreeMap` so iteration (and hence everything built on it:
/// witness ordering, crowd-question ordering, figures) is deterministic.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Assignment {
    map: BTreeMap<Var, Value>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, Value)>) -> Self {
        Assignment {
            map: pairs.into_iter().collect(),
        }
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: &Var) -> Option<&Value> {
        self.map.get(v)
    }

    /// Bind `v := value`. Returns `false` (and leaves the binding unchanged)
    /// if `v` is already bound to a *different* value.
    pub fn bind(&mut self, v: Var, value: Value) -> bool {
        match self.map.get(&v) {
            Some(existing) => *existing == value,
            None => {
                self.map.insert(v, value);
                true
            }
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over `(Var, Value)` bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Value)> {
        self.map.iter()
    }

    /// Is this a total assignment for `q` (binds every variable of the
    /// body)?
    pub fn is_total_for(&self, q: &ConjunctiveQuery) -> bool {
        q.vars().iter().all(|v| self.map.contains_key(v))
    }

    /// Ground a term: constants pass through, bound variables are replaced,
    /// unbound variables yield `None`.
    pub fn ground_term(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => self.map.get(v).cloned(),
        }
    }

    /// Ground an atom into a fact, or `None` if any variable is unbound.
    pub fn ground_atom(&self, a: &Atom) -> Option<Fact> {
        let mut vals = Vec::with_capacity(a.terms.len());
        for t in &a.terms {
            vals.push(self.ground_term(t)?);
        }
        Some(Fact::new(a.rel, Tuple::new(vals)))
    }

    /// Check an inequality under this assignment. Returns:
    /// * `Some(true)` — both sides ground and different;
    /// * `Some(false)` — both sides ground and equal (violated);
    /// * `None` — at least one side unbound (undetermined).
    pub fn check_inequality(&self, e: &Inequality) -> Option<bool> {
        let lhs = self.map.get(&e.lhs)?;
        let rhs = self.ground_term(&e.rhs)?;
        Some(*lhs != rhs)
    }

    /// `α(head(Q))`: the answer tuple induced by this assignment, or `None`
    /// if a head variable is unbound.
    pub fn ground_head(&self, q: &ConjunctiveQuery) -> Option<Tuple> {
        let mut vals = Vec::with_capacity(q.head().len());
        for t in q.head() {
            vals.push(self.ground_term(t)?);
        }
        Some(Tuple::new(vals))
    }

    /// The partial assignment induced by an answer tuple `t` of `q` — maps
    /// each head variable to the corresponding value ("with abuse of
    /// notation we refer to `t` also as a partial assignment", Section 2).
    ///
    /// Returns `None` if `t`'s width differs from the head or if a repeated
    /// head variable would receive conflicting values.
    pub fn from_answer(q: &ConjunctiveQuery, t: &Tuple) -> Option<Assignment> {
        if t.arity() != q.head().len() {
            return None;
        }
        let mut a = Assignment::new();
        for (term, v) in q.head().iter().zip(t.values()) {
            match term {
                Term::Var(var) => {
                    if !a.bind(var.clone(), v.clone()) {
                        return None;
                    }
                }
                Term::Const(c) => {
                    if c != v {
                        return None;
                    }
                }
            }
        }
        Some(a)
    }

    /// Merge another assignment into this one; fails (returning `false`)
    /// on any conflicting binding. On failure `self` may hold a prefix of
    /// `other`'s bindings, so callers should treat it as poisoned.
    pub fn merge(&mut self, other: &Assignment) -> bool {
        for (v, val) in other.iter() {
            if !self.bind(v.clone(), val.clone()) {
                return false;
            }
        }
        true
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, val)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {val}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::{Schema, Value};
    use qoco_query::parse_query;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Teams", &["country", "continent"])
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .build()
            .unwrap()
    }

    fn q1(s: &Arc<Schema>) -> ConjunctiveQuery {
        parse_query(
            s,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap()
    }

    #[test]
    fn bind_rejects_conflicts() {
        let mut a = Assignment::new();
        assert!(a.bind(Var::new("x"), Value::text("GER")));
        assert!(a.bind(Var::new("x"), Value::text("GER"))); // same value ok
        assert!(!a.bind(Var::new("x"), Value::text("ESP")));
        assert_eq!(a.get(&Var::new("x")), Some(&Value::text("GER")));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn ground_atom_requires_all_vars() {
        let s = schema();
        let q = q1(&s);
        let teams_atom = &q.atoms()[2];
        let mut a = Assignment::new();
        assert!(a.ground_atom(teams_atom).is_none());
        a.bind(Var::new("x"), Value::text("GER"));
        let f = a.ground_atom(teams_atom).unwrap();
        assert_eq!(f.tuple.values()[0], Value::text("GER"));
        assert_eq!(f.tuple.values()[1], Value::text("EU"));
    }

    #[test]
    fn inequality_three_states() {
        let s = schema();
        let q = q1(&s);
        let e = &q.inequalities()[0];
        let mut a = Assignment::new();
        assert_eq!(a.check_inequality(e), None);
        a.bind(Var::new("d1"), Value::text("13.07.14"));
        assert_eq!(a.check_inequality(e), None);
        a.bind(Var::new("d2"), Value::text("13.07.14"));
        assert_eq!(a.check_inequality(e), Some(false));
        let mut b = Assignment::new();
        b.bind(Var::new("d1"), Value::text("13.07.14"));
        b.bind(Var::new("d2"), Value::text("08.07.90"));
        assert_eq!(b.check_inequality(e), Some(true));
    }

    #[test]
    fn totality_is_syntactic() {
        let s = schema();
        let q = q1(&s);
        let mut a = Assignment::new();
        assert!(!a.is_total_for(&q));
        for v in q.vars() {
            a.bind(v, Value::text("v"));
        }
        // all same value violates d1 != d2 but totality is syntactic
        assert!(a.is_total_for(&q));
    }

    #[test]
    fn from_answer_builds_head_binding() {
        let s = schema();
        let q = q1(&s);
        let a = Assignment::from_answer(&q, &qoco_data::tup!["GER"]).unwrap();
        assert_eq!(a.get(&Var::new("x")), Some(&Value::text("GER")));
        assert!(Assignment::from_answer(&q, &qoco_data::tup!["a", "b"]).is_none());
    }

    #[test]
    fn from_answer_rejects_conflicting_duplicates() {
        let s = schema();
        let q = parse_query(&s, r#"(x, x) :- Teams(x, c)"#).unwrap();
        assert!(Assignment::from_answer(&q, &qoco_data::tup!["a", "b"]).is_none());
        assert!(Assignment::from_answer(&q, &qoco_data::tup!["a", "a"]).is_some());
    }

    #[test]
    fn ground_head_matches_answer() {
        let s = schema();
        let q = q1(&s);
        let mut a = Assignment::new();
        a.bind(Var::new("x"), Value::text("ITA"));
        assert_eq!(a.ground_head(&q), Some(qoco_data::tup!["ITA"]));
    }

    #[test]
    fn merge_detects_conflicts() {
        let mut a = Assignment::from_pairs([(Var::new("x"), Value::text("1"))]);
        let b = Assignment::from_pairs([
            (Var::new("x"), Value::text("1")),
            (Var::new("y"), Value::text("2")),
        ]);
        assert!(a.merge(&b));
        assert_eq!(a.len(), 2);
        let c = Assignment::from_pairs([(Var::new("y"), Value::text("3"))]);
        let mut a2 = a.clone();
        assert!(!a2.merge(&c));
    }

    #[test]
    fn debug_is_deterministic() {
        let a = Assignment::from_pairs([
            (Var::new("z"), Value::text("1")),
            (Var::new("a"), Value::text("2")),
        ]);
        assert_eq!(format!("{a:?}"), "{a ↦ 2, z ↦ 1}");
    }
}
