//! Unions of conjunctive queries.
//!
//! The paper (Section 2) notes that all results extend to unions of
//! conjunctive queries with inequalities; QOCO processes each disjunct
//! independently (a wrong answer must be removed from *every* disjunct that
//! produces it; a missing answer needs only *one* disjunct to produce it).

use std::fmt;

use crate::ast::{ConjunctiveQuery, QueryError};

/// A union `Q = Q₁ ∪ … ∪ Qₖ` of conjunctive queries with identical head
/// arity.
#[derive(Clone, PartialEq, Eq)]
pub struct UnionQuery {
    name: String,
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Build a union query; all disjuncts must have the same head width.
    pub fn new(
        name: impl Into<String>,
        disjuncts: Vec<ConjunctiveQuery>,
    ) -> Result<Self, QueryError> {
        if disjuncts.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        let width = disjuncts[0].head().len();
        for d in &disjuncts[1..] {
            if d.head().len() != width {
                return Err(QueryError::AnswerArity {
                    expected: width,
                    got: d.head().len(),
                });
            }
        }
        Ok(UnionQuery {
            name: name.into(),
            disjuncts,
        })
    }

    /// The union's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// Drop disjuncts subsumed by another disjunct (using the sound
    /// homomorphism containment test) and minimize the survivors. The
    /// result is answer-equivalent and never larger; with fewer disjuncts
    /// QOCO asks fewer per-disjunct verification questions.
    pub fn minimized(&self) -> UnionQuery {
        let mut kept: Vec<ConjunctiveQuery> = Vec::new();
        'outer: for (i, d) in self.disjuncts.iter().enumerate() {
            // subsumed by an already-kept disjunct?
            for k in &kept {
                if crate::homomorphism::contains(k, d) {
                    continue 'outer;
                }
            }
            // subsumed by a later disjunct that will strictly survive?
            for later in &self.disjuncts[i + 1..] {
                if crate::homomorphism::contains(later, d)
                    && !crate::homomorphism::contains(d, later)
                {
                    continue 'outer;
                }
            }
            kept.push(crate::homomorphism::minimize(d));
        }
        UnionQuery {
            name: self.name.clone(),
            disjuncts: kept,
        }
    }
}

/// A CQ is a union of one disjunct: the cleaner takes either view type
/// as its slice of disjuncts.
impl AsRef<[ConjunctiveQuery]> for ConjunctiveQuery {
    fn as_ref(&self) -> &[ConjunctiveQuery] {
        std::slice::from_ref(self)
    }
}

impl AsRef<[ConjunctiveQuery]> for UnionQuery {
    fn as_ref(&self) -> &[ConjunctiveQuery] {
        self.disjuncts()
    }
}

impl fmt::Debug for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f, " ∪")?;
            }
            write!(f, "{d:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use qoco_data::Schema;

    #[test]
    fn union_requires_equal_head_width() {
        let s = Schema::builder()
            .relation("A", &["x", "y"])
            .build()
            .unwrap();
        let q1 = parse_query(&s, "(x) :- A(x, y)").unwrap();
        let q2 = parse_query(&s, "(x, y) :- A(x, y)").unwrap();
        assert!(UnionQuery::new("U", vec![q1.clone(), q2]).is_err());
        let u = UnionQuery::new("U", vec![q1.clone(), q1]).unwrap();
        assert_eq!(u.disjuncts().len(), 2);
        assert_eq!(u.name(), "U");
    }

    #[test]
    fn empty_union_is_rejected() {
        assert!(UnionQuery::new("U", vec![]).is_err());
    }

    #[test]
    fn minimized_drops_subsumed_disjuncts() {
        let s = Schema::builder()
            .relation("E", &["a", "b"])
            .build()
            .unwrap();
        let general = parse_query(&s, "(x) :- E(x, y)").unwrap();
        let special = parse_query(&s, "(x) :- E(x, y), E(y, z)").unwrap();
        let u = UnionQuery::new("U", vec![general.clone(), special]).unwrap();
        let m = u.minimized();
        assert_eq!(m.disjuncts().len(), 1, "the 2-path disjunct is subsumed");
        assert_eq!(m.disjuncts()[0].atoms(), general.atoms());
    }

    #[test]
    fn minimized_minimizes_survivors() {
        let s = Schema::builder()
            .relation("E", &["a", "b"])
            .build()
            .unwrap();
        let redundant = parse_query(&s, "(x) :- E(x, y), E(x, z)").unwrap();
        let u = UnionQuery::new("U", vec![redundant]).unwrap();
        let m = u.minimized();
        assert_eq!(m.disjuncts()[0].atoms().len(), 1);
    }

    #[test]
    fn minimized_keeps_incomparable_disjuncts() {
        let s = Schema::builder()
            .relation("E", &["a", "b"])
            .relation("L", &["a"])
            .build()
            .unwrap();
        let qa = parse_query(&s, "(x) :- E(x, y)").unwrap();
        let qb = parse_query(&s, "(x) :- L(x)").unwrap();
        let u = UnionQuery::new("U", vec![qa, qb]).unwrap();
        assert_eq!(u.minimized().disjuncts().len(), 2);
    }
}
