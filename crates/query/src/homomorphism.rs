//! Query homomorphisms, containment and minimization.
//!
//! Classic conjunctive-query theory (Chandra–Merlin): `Q₂ ⊑ Q₁` iff there
//! is a homomorphism from `Q₁` to `Q₂` mapping head to head. QOCO uses
//! this substrate to recognize redundant disjuncts in union views and to
//! minimize queries before splitting (fewer atoms ⇒ fewer crowd tasks).
//!
//! With inequalities the classical theorem is no longer complete; we
//! implement the *sound* variant: a homomorphism must map every inequality
//! of the source onto a (syntactic) inequality of the target. Containment
//! verdicts are therefore `true` ⇒ really contained, while `false` may be
//! a false negative for queries with inequalities (documented per
//! function).

use std::collections::BTreeMap;

use crate::ast::{ConjunctiveQuery, Inequality, Term, Var};

/// A variable mapping `Var(from) → Term` (constants map to themselves).
pub type Homomorphism = BTreeMap<Var, Term>;

fn apply(h: &Homomorphism, t: &Term) -> Term {
    match t {
        Term::Const(_) => t.clone(),
        Term::Var(v) => h.get(v).cloned().unwrap_or_else(|| t.clone()),
    }
}

/// Does `h` map inequality `e` of the source onto an inequality present in
/// `target_ineqs` (in either orientation), or onto two distinct constants?
fn inequality_preserved(h: &Homomorphism, e: &Inequality, target: &ConjunctiveQuery) -> bool {
    let lhs = apply(h, &Term::Var(e.lhs.clone()));
    let rhs = apply(h, &e.rhs);
    match (&lhs, &rhs) {
        (Term::Const(a), Term::Const(b)) => a != b,
        _ => target.inequalities().iter().any(|te| {
            let tl = Term::Var(te.lhs.clone());
            let tr = te.rhs.clone();
            (tl == lhs && tr == rhs) || (tl == rhs && tr == lhs)
        }),
    }
}

/// Search for a homomorphism `from → to`: every atom of `from` must map
/// (under a consistent variable mapping) onto an atom of `to`, the head of
/// `from` must map onto the head of `to`, and every inequality of `from`
/// must be preserved (see module docs).
pub fn find_homomorphism(from: &ConjunctiveQuery, to: &ConjunctiveQuery) -> Option<Homomorphism> {
    if from.head().len() != to.head().len() {
        return None;
    }
    let mut h = Homomorphism::new();
    // seed with the head condition
    for (ft, tt) in from.head().iter().zip(to.head()) {
        match ft {
            Term::Const(c) => {
                if Term::Const(c.clone()) != *tt {
                    return None;
                }
            }
            Term::Var(v) => match h.get(v) {
                Some(existing) => {
                    if existing != tt {
                        return None;
                    }
                }
                None => {
                    h.insert(v.clone(), tt.clone());
                }
            },
        }
    }
    search(from, to, 0, h)
}

fn search(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
    atom_idx: usize,
    h: Homomorphism,
) -> Option<Homomorphism> {
    if atom_idx == from.atoms().len() {
        // all atoms mapped; check the inequalities
        let ok = from
            .inequalities()
            .iter()
            .all(|e| inequality_preserved(&h, e, to));
        return ok.then_some(h);
    }
    let atom = &from.atoms()[atom_idx];
    'target: for cand in to.atoms() {
        if cand.rel != atom.rel {
            continue;
        }
        let mut next = h.clone();
        for (ft, tt) in atom.terms.iter().zip(&cand.terms) {
            match ft {
                Term::Const(c) => {
                    if Term::Const(c.clone()) != *tt {
                        continue 'target;
                    }
                }
                Term::Var(v) => match next.get(v) {
                    Some(existing) => {
                        if existing != tt {
                            continue 'target;
                        }
                    }
                    None => {
                        next.insert(v.clone(), tt.clone());
                    }
                },
            }
        }
        if let Some(found) = search(from, to, atom_idx + 1, next) {
            return Some(found);
        }
    }
    None
}

/// Is `q2 ⊑ q1` (every answer of `q2` is an answer of `q1`, over every
/// database)? Sound always; complete for inequality-free queries
/// (Chandra–Merlin).
pub fn contains(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    find_homomorphism(q1, q2).is_some()
}

/// Are the queries equivalent (mutually containing)? Same soundness and
/// completeness caveats as [`contains`].
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contains(q1, q2) && contains(q2, q1)
}

/// Minimize `q` by removing redundant atoms: an atom is redundant when the
/// query maps homomorphically into itself-without-that-atom. For
/// inequality-free queries this computes the core (the unique minimal
/// equivalent query); with inequalities it is a conservative reduction
/// (only provably safe removals happen).
pub fn minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = q.clone();
    loop {
        let mut shrunk = false;
        for skip in 0..current.atoms().len() {
            if current.atoms().len() == 1 {
                break;
            }
            let keep: Vec<usize> = (0..current.atoms().len()).filter(|&i| i != skip).collect();
            let atoms: Vec<_> = keep.iter().map(|&i| current.atoms()[i].clone()).collect();
            // candidate keeps the original head and all inequalities
            let Ok(candidate) = ConjunctiveQuery::new(
                current.schema().clone(),
                current.name(),
                current.head().to_vec(),
                atoms,
                current.inequalities().to_vec(),
            ) else {
                continue; // removing the atom would unbind head/ineq vars
            };
            // safe iff the full query maps into the candidate (then every
            // candidate answer is a full-query answer; the converse holds
            // because candidate ⊆-syntactically of the full query)
            if find_homomorphism(&current, &candidate).is_some() {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use qoco_data::Schema;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("E", &["a", "b"])
            .relation("L", &["a"])
            .build()
            .unwrap()
    }

    #[test]
    fn path2_contains_path3() {
        let s = schema();
        let p2 = parse_query(&s, "(x) :- E(x, y), E(y, z)").unwrap();
        let p3 = parse_query(&s, "(x) :- E(x, y), E(y, z), E(z, w)").unwrap();
        assert!(
            contains(&p2, &p3),
            "longer paths are special cases of shorter ones"
        );
        assert!(!contains(&p3, &p2), "a 2-path need not extend to a 3-path");
    }

    #[test]
    fn self_loop_is_contained_in_everything_pathy() {
        let s = schema();
        let p2 = parse_query(&s, "(x) :- E(x, y), E(y, z)").unwrap();
        let lp = parse_query(&s, "(x) :- E(x, x)").unwrap();
        assert!(contains(&p2, &lp));
        assert!(!contains(&lp, &p2));
    }

    #[test]
    fn constants_must_match() {
        let s = schema();
        let qa = parse_query(&s, r#"(x) :- E(x, "v0")"#).unwrap();
        let qb = parse_query(&s, r#"(x) :- E(x, "v1")"#).unwrap();
        assert!(!contains(&qa, &qb));
        assert!(contains(&qa, &qa));
    }

    #[test]
    fn head_must_be_preserved() {
        let s = schema();
        let qa = parse_query(&s, "(x) :- E(x, y)").unwrap();
        let qb = parse_query(&s, "(y) :- E(x, y)").unwrap();
        // source E(x,y) can map onto target E(x,y) only with x→x, but the
        // head of qa must land on qb's head y — impossible
        assert!(!contains(&qa, &qb));
    }

    #[test]
    fn inequalities_block_unsound_containment() {
        let s = schema();
        let strict = parse_query(&s, "(x, y) :- E(x, y), x != y").unwrap();
        let loose = parse_query(&s, "(x, y) :- E(x, y)").unwrap();
        // loose contains strict (dropping a filter only adds answers)
        assert!(contains(&loose, &strict));
        // strict does NOT contain loose
        assert!(!contains(&strict, &loose));
        // and strict is equivalent to itself
        assert!(equivalent(&strict, &strict));
    }

    #[test]
    fn minimize_removes_redundant_atom() {
        let s = schema();
        // E(x,y) ∧ E(x,z): the second atom is subsumed by the first
        let q = parse_query(&s, "(x) :- E(x, y), E(x, z)").unwrap();
        let m = minimize(&q);
        assert_eq!(m.atoms().len(), 1);
        assert!(equivalent(&q, &m));
    }

    #[test]
    fn minimize_keeps_a_real_join() {
        let s = schema();
        let q = parse_query(&s, "(x) :- E(x, y), L(y)").unwrap();
        let m = minimize(&q);
        assert_eq!(m.atoms().len(), 2, "both atoms are load-bearing");
    }

    #[test]
    fn minimize_collapses_duplicated_pattern() {
        let s = schema();
        // path-2 written twice with renamed variables
        let q = parse_query(&s, "(x) :- E(x, y), E(y, z), E(x, u), E(u, v)").unwrap();
        let m = minimize(&q);
        assert_eq!(m.atoms().len(), 2);
        assert!(equivalent(&q, &m));
    }

    #[test]
    fn minimize_respects_inequalities() {
        let s = schema();
        // E(x,y) is redundant (take y := z); E(x,z) must stay because the
        // inequality binds z
        let q = parse_query(&s, "(x) :- E(x, y), E(x, z), z != x").unwrap();
        let m = minimize(&q);
        assert_eq!(m.atoms().len(), 1, "{m:?}");
        assert_eq!(m.inequalities().len(), 1);
        // the surviving atom mentions z (the inequality variable)
        let vars = m.atoms()[0].vars();
        assert!(vars.iter().any(|v| v.name() == "z"), "{m:?}");
        assert!(equivalent(&q, &m));
    }

    #[test]
    fn minimize_single_atom_is_identity() {
        let s = schema();
        let q = parse_query(&s, "(x) :- L(x)").unwrap();
        assert_eq!(minimize(&q).atoms(), q.atoms());
    }

    #[test]
    fn homomorphism_is_returned_and_consistent() {
        let s = schema();
        let p2 = parse_query(&s, "(x) :- E(x, y), E(y, z)").unwrap();
        let lp = parse_query(&s, "(x) :- E(x, x)").unwrap();
        let h = find_homomorphism(&p2, &lp).unwrap();
        // every variable of p2 maps to x
        for v in p2.vars() {
            assert_eq!(h.get(&v), Some(&Term::var("x")));
        }
    }
}
