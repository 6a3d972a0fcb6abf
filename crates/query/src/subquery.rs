//! Subqueries (Definition 5.3), query splitting, and answer embedding `Q|t`
//! (Section 5.1).
//!
//! Splitting a query decomposes its body atoms into two groups, each of which
//! becomes a subquery whose head contains *all* of its variables (no
//! projection). An inequality is kept by a subquery iff all of its variables
//! occur in that subquery — inequalities straddling the cut are lost, which
//! is exactly the effect the paper discusses for the WhyNot?-based split in
//! Figure 2.

use std::collections::BTreeSet;
use std::fmt;

use qoco_data::Value;

use crate::ast::{Atom, ConjunctiveQuery, Inequality, QueryError, Term, Var};

/// Errors from query splitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitError {
    /// A split must put at least one atom on each side.
    EmptySide,
    /// The partition mask length differs from the number of atoms.
    BadMask {
        /// Number of atoms in the query.
        atoms: usize,
        /// Length of the supplied mask.
        mask: usize,
    },
    /// Rebuilding a subquery failed validation (should not happen for
    /// well-formed inputs).
    Invalid(QueryError),
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::EmptySide => write!(f, "split leaves one side with no atoms"),
            SplitError::BadMask { atoms, mask } => {
                write!(f, "partition mask has {mask} entries for {atoms} atoms")
            }
            SplitError::Invalid(e) => write!(f, "invalid subquery: {e}"),
        }
    }
}

impl std::error::Error for SplitError {}

impl From<QueryError> for SplitError {
    fn from(e: QueryError) -> Self {
        SplitError::Invalid(e)
    }
}

/// Build a subquery from a subset of `q`'s atoms. The head is all variables
/// of the kept atoms (no projection); inequalities are kept iff all their
/// variables are covered.
fn project_subquery(
    q: &ConjunctiveQuery,
    keep: &[usize],
    name: &str,
) -> Result<ConjunctiveQuery, SplitError> {
    let atoms: Vec<Atom> = keep.iter().map(|&i| q.atoms()[i].clone()).collect();
    if atoms.is_empty() {
        return Err(SplitError::EmptySide);
    }
    let vars: BTreeSet<Var> = atoms.iter().flat_map(|a| a.vars()).collect();
    let inequalities: Vec<Inequality> = q
        .inequalities()
        .iter()
        .filter(|e| e.vars().iter().all(|v| vars.contains(v)))
        .cloned()
        .collect();
    // head = all variables, in first-occurrence order
    let mut seen = BTreeSet::new();
    let mut head = Vec::new();
    for a in &atoms {
        for v in a.vars() {
            if seen.insert(v.clone()) {
                head.push(Term::Var(v));
            }
        }
    }
    ConjunctiveQuery::new(q.schema().clone(), name, head, atoms, inequalities)
        .map_err(SplitError::from)
}

/// Build the subquery of `q` induced by the atom indexes `keep` (all
/// variables in the head, inequalities kept when fully covered). Used by the
/// why-not analysis to test joint satisfiability of atom subsets.
pub fn split_subset(q: &ConjunctiveQuery, keep: &[usize]) -> Result<ConjunctiveQuery, SplitError> {
    if keep.iter().any(|&i| i >= q.atoms().len()) {
        return Err(SplitError::BadMask {
            atoms: q.atoms().len(),
            mask: keep.len(),
        });
    }
    project_subquery(q, keep, &format!("{}⊆", q.name()))
}

/// Split `q` into two subqueries according to a boolean mask over its atoms
/// (`true` → first subquery). Every atom lands in exactly one side; each
/// side must be non-empty.
pub fn split_by_atom_partition(
    q: &ConjunctiveQuery,
    mask: &[bool],
) -> Result<(ConjunctiveQuery, ConjunctiveQuery), SplitError> {
    if mask.len() != q.atoms().len() {
        return Err(SplitError::BadMask {
            atoms: q.atoms().len(),
            mask: mask.len(),
        });
    }
    let left: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
    let right: Vec<usize> = (0..mask.len()).filter(|&i| !mask[i]).collect();
    if left.is_empty() || right.is_empty() {
        return Err(SplitError::EmptySide);
    }
    let l = project_subquery(q, &left, &format!("{}′", q.name()))?;
    let r = project_subquery(q, &right, &format!("{}″", q.name()))?;
    Ok((l, r))
}

/// Embed a (missing) answer `t` into `q`, producing `Q|t` (Section 5.1):
/// the body is `t(body(Q))` and the head consists of all variables that
/// remain in the body.
///
/// Errors if `t`'s arity differs from the head's, or if the embedding makes
/// an inequality ground and false (then `t` cannot be an answer of any
/// database).
pub fn embed_answer(q: &ConjunctiveQuery, t: &[Value]) -> Result<ConjunctiveQuery, QueryError> {
    if t.len() != q.head().len() {
        return Err(QueryError::AnswerArity {
            expected: q.head().len(),
            got: t.len(),
        });
    }
    // The unique partial assignment induced by t maps each head variable to
    // the corresponding value. If the same variable occurs twice in the head
    // with conflicting values, t cannot be an answer.
    let mut binding: Vec<(Var, Value)> = Vec::new();
    for (term, v) in q.head().iter().zip(t) {
        match term {
            Term::Var(var) => {
                if let Some((_, prev)) = binding.iter().find(|(b, _)| b == var) {
                    if prev != v {
                        return Err(QueryError::FalseInequality(format!(
                            "head variable {var} bound to both {prev} and {v}"
                        )));
                    }
                } else {
                    binding.push((var.clone(), v.clone()));
                }
            }
            Term::Const(c) => {
                if c != v {
                    return Err(QueryError::FalseInequality(format!(
                        "head constant {c} does not match answer value {v}"
                    )));
                }
            }
        }
    }
    let q_t = q.substitute(&|v: &Var| {
        binding
            .iter()
            .find(|(b, _)| b == v)
            .map(|(_, val)| val.clone())
    })?;
    Ok(q_t.with_name(format!("{}|{:?}", q.name(), t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use qoco_data::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap()
    }

    /// Q2 from the paper: European players who scored in a final.
    fn q2(s: &Arc<Schema>) -> ConjunctiveQuery {
        parse_query(
            s,
            r#"Q2(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, "Final", u), Teams(y, "EU")."#,
        )
        .unwrap()
    }

    #[test]
    fn embed_pirlo_matches_example_5_4() {
        let s = schema();
        let q = q2(&s);
        let q_t = embed_answer(&q, &[Value::text("Pirlo")]).unwrap();
        // Q2|t: (z,w,d,v,u,y) :- Players("Pirlo",y,z,w), Goals("Pirlo",d),
        //                        Games(d,y,v,"Final",u), Teams(y,"EU")
        assert_eq!(q_t.atoms().len(), 4);
        assert_eq!(q_t.atoms()[0].terms[0], Term::cons("Pirlo"));
        assert_eq!(q_t.atoms()[1].terms[0], Term::cons("Pirlo"));
        // head holds every remaining variable
        let hv = q_t.head_vars();
        let names: BTreeSet<&str> = hv.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["y", "z", "w", "d", "v", "u"].into_iter().collect());
    }

    #[test]
    fn embed_checks_arity() {
        let s = schema();
        let q = q2(&s);
        let err = embed_answer(&q, &[Value::text("a"), Value::text("b")]).unwrap_err();
        assert_eq!(
            err,
            QueryError::AnswerArity {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn embed_detects_violated_inequality() {
        let s = schema();
        let q = parse_query(&s, r#"(x, y) :- Games(d, x, y, "Final", u), x != y."#).unwrap();
        let err = embed_answer(&q, &[Value::text("GER"), Value::text("GER")]).unwrap_err();
        assert!(matches!(err, QueryError::FalseInequality(_)));
    }

    #[test]
    fn embed_detects_conflicting_duplicate_head_vars() {
        let s = schema();
        let q = parse_query(&s, r#"(x, x) :- Teams(x, c)"#).unwrap();
        assert!(embed_answer(&q, &[Value::text("a"), Value::text("b")]).is_err());
        assert!(embed_answer(&q, &[Value::text("a"), Value::text("a")]).is_ok());
    }

    #[test]
    fn embed_checks_head_constants() {
        let s = schema();
        let q = parse_query(&s, r#"(x, "EU") :- Teams(x, "EU")"#).unwrap();
        assert!(embed_answer(&q, &[Value::text("ITA"), Value::text("EU")]).is_ok());
        assert!(embed_answer(&q, &[Value::text("ITA"), Value::text("SA")]).is_err());
    }

    #[test]
    fn split_example_5_4() {
        let s = schema();
        let q = q2(&s);
        let q_t = embed_answer(&q, &[Value::text("Pirlo")]).unwrap();
        // Split: {Players, Goals, Games} vs {Teams}
        let (q_prime, q_dprime) =
            split_by_atom_partition(&q_t, &[true, true, true, false]).unwrap();
        assert_eq!(q_prime.atoms().len(), 3);
        assert_eq!(q_dprime.atoms().len(), 1);
        // Q'' = (y) :- Teams(y, "EU")
        assert_eq!(q_dprime.head_vars().len(), 1);
        assert_eq!(q_dprime.head_vars()[0].name(), "y");
        // Both sides are subqueries (Definition 5.3): their atoms are q_t's.
        for side in [&q_prime, &q_dprime] {
            assert!(side.atoms().iter().all(|a| q_t.atoms().contains(a)));
        }
    }

    #[test]
    fn split_keeps_inequalities_with_covered_vars() {
        let s = schema();
        let q = parse_query(
            &s,
            r#"(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap();
        // Put both Games atoms on the left: d1 != d2 survives on the left.
        let (l, r) = split_by_atom_partition(&q, &[true, true, false]).unwrap();
        assert_eq!(l.inequalities().len(), 1);
        assert!(r.inequalities().is_empty());
        // Separate the Games atoms: the inequality is lost on both sides.
        let (l2, r2) = split_by_atom_partition(&q, &[true, false, true]).unwrap();
        assert!(l2.inequalities().is_empty());
        assert!(r2.inequalities().is_empty());
    }

    #[test]
    fn split_rejects_empty_sides() {
        let s = schema();
        let q = q2(&s);
        assert_eq!(
            split_by_atom_partition(&q, &[true, true, true, true]).unwrap_err(),
            SplitError::EmptySide
        );
        assert_eq!(
            split_by_atom_partition(&q, &[false, false, false, false]).unwrap_err(),
            SplitError::EmptySide
        );
    }

    #[test]
    fn split_rejects_bad_mask_length() {
        let s = schema();
        let q = q2(&s);
        assert_eq!(
            split_by_atom_partition(&q, &[true]).unwrap_err(),
            SplitError::BadMask { atoms: 4, mask: 1 }
        );
    }

    #[test]
    fn subquery_heads_have_no_projection() {
        let s = schema();
        let q = q2(&s);
        let (l, r) = split_by_atom_partition(&q, &[true, true, false, false]).unwrap();
        for sq in [&l, &r] {
            let body_vars: BTreeSet<Var> = sq.atoms().iter().flat_map(|a| a.vars()).collect();
            let head_vars: BTreeSet<Var> = sq.head_vars().into_iter().collect();
            assert_eq!(body_vars, head_vars);
        }
    }
}
