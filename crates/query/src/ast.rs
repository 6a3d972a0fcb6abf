//! The conjunctive-query AST (paper Section 2).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use qoco_data::{RelId, Schema, Value};

/// A query variable. Cheap to clone (shared string).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Arc<str>);

impl Var {
    /// Create a variable with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Var(Arc::from(name.as_ref()))
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable from `V`.
    Var(Var),
    /// A constant from the vocabulary `C`.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    /// Shorthand for a constant term.
    pub fn cons(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// True if this term is a constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

/// A relational atom `R(ū)` in a query body.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The relation symbol.
    pub rel: RelId,
    /// The argument terms, one per attribute.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Create an atom.
    pub fn new(rel: RelId, terms: Vec<Term>) -> Self {
        Atom { rel, terms }
    }

    /// The distinct variables appearing in this atom, in order of first
    /// occurrence.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// True if every term is a constant (a *ground* atom).
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(Term::is_const)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}(", self.rel)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t:?}")?;
        }
        write!(f, ")")
    }
}

/// An inequality `l ≠ r` where `l` is a variable and `r` is a variable or a
/// constant, both occurring in the query body (paper Section 2).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Inequality {
    /// The left-hand variable.
    pub lhs: Var,
    /// The right-hand term.
    pub rhs: Term,
}

impl Inequality {
    /// Create an inequality.
    pub fn new(lhs: Var, rhs: Term) -> Self {
        Inequality { lhs, rhs }
    }

    /// The distinct variables mentioned by the inequality.
    pub fn vars(&self) -> Vec<Var> {
        let mut v = vec![self.lhs.clone()];
        if let Term::Var(r) = &self.rhs {
            if *r != self.lhs {
                v.push(r.clone());
            }
        }
        v
    }
}

impl fmt::Debug for Inequality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} != {:?}", self.lhs, self.rhs)
    }
}

/// Errors raised while constructing or transforming queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in any body atom (unsafe query).
    UnsafeHeadVar(String),
    /// An inequality mentions a variable not bound by any atom.
    UnboundInequalityVar(String),
    /// An atom's arity does not match its relation's declared arity.
    AtomArity {
        /// Relation name.
        rel: String,
        /// Declared arity.
        expected: usize,
        /// Number of terms in the atom.
        got: usize,
    },
    /// The query body is empty.
    EmptyBody,
    /// A substitution made an inequality ground and false
    /// (e.g. embedding an answer produced `c ≠ c`).
    FalseInequality(String),
    /// The answer tuple's arity does not match the query head.
    AnswerArity {
        /// Head width.
        expected: usize,
        /// Answer width.
        got: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeHeadVar(v) => {
                write!(f, "head variable `{v}` does not occur in the body")
            }
            QueryError::UnboundInequalityVar(v) => {
                write!(f, "inequality variable `{v}` does not occur in any atom")
            }
            QueryError::AtomArity { rel, expected, got } => {
                write!(
                    f,
                    "atom over `{rel}` has {got} terms but arity is {expected}"
                )
            }
            QueryError::EmptyBody => write!(f, "query body has no relational atoms"),
            QueryError::FalseInequality(e) => {
                write!(f, "substitution violates inequality {e}")
            }
            QueryError::AnswerArity { expected, got } => {
                write!(f, "answer has {got} values but head has {expected} terms")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A conjunctive query with inequalities over a fixed schema.
///
/// Invariants (checked at construction):
/// * the body has at least one relational atom;
/// * every atom matches its relation's arity;
/// * every head variable occurs in some body atom (safety);
/// * every inequality variable occurs in some body atom.
#[derive(Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    schema: Arc<Schema>,
    name: String,
    head: Vec<Term>,
    atoms: Vec<Atom>,
    inequalities: Vec<Inequality>,
}

impl ConjunctiveQuery {
    /// Construct and validate a query.
    pub fn new(
        schema: Arc<Schema>,
        name: impl Into<String>,
        head: Vec<Term>,
        atoms: Vec<Atom>,
        inequalities: Vec<Inequality>,
    ) -> Result<Self, QueryError> {
        if atoms.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        for a in &atoms {
            let decl = schema.relation(a.rel).expect("atom over schema relation");
            if decl.arity() != a.terms.len() {
                return Err(QueryError::AtomArity {
                    rel: decl.name().to_string(),
                    expected: decl.arity(),
                    got: a.terms.len(),
                });
            }
        }
        let body_vars: BTreeSet<Var> = atoms.iter().flat_map(|a| a.vars()).collect();
        for t in &head {
            if let Term::Var(v) = t {
                if !body_vars.contains(v) {
                    return Err(QueryError::UnsafeHeadVar(v.name().to_string()));
                }
            }
        }
        for e in &inequalities {
            for v in e.vars() {
                if !body_vars.contains(&v) {
                    return Err(QueryError::UnboundInequalityVar(v.name().to_string()));
                }
            }
        }
        Ok(ConjunctiveQuery {
            schema,
            name: name.into(),
            head,
            atoms,
            inequalities,
        })
    }

    /// The schema the query is over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The query's label (used in reports and figures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the query (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The head terms `ū₀`.
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// The body atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The body inequalities.
    pub fn inequalities(&self) -> &[Inequality] {
        &self.inequalities
    }

    /// `Var(Q)`: all distinct variables of the body, in order of first
    /// occurrence.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in a.vars() {
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// `Const(Q)`: all distinct constants of the body.
    pub fn consts(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for a in &self.atoms {
            for t in &a.terms {
                if let Term::Const(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        for e in &self.inequalities {
            if let Term::Const(c) = &e.rhs {
                out.insert(c.clone());
            }
        }
        out
    }

    /// The distinct head variables in head order.
    pub fn head_vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.head {
            if let Term::Var(v) = t {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Substitute variables by constants per `bind`, dropping inequalities
    /// that become ground-and-true and erroring on ground-and-false ones.
    /// The head of the result is recomputed as *all remaining variables* of
    /// the body (the "no projection" convention of Q|t and subqueries,
    /// Section 5.1).
    pub fn substitute(
        &self,
        bind: &dyn Fn(&Var) -> Option<Value>,
    ) -> Result<ConjunctiveQuery, QueryError> {
        let sub_term = |t: &Term| -> Term {
            match t {
                Term::Var(v) => match bind(v) {
                    Some(c) => Term::Const(c),
                    None => t.clone(),
                },
                Term::Const(_) => t.clone(),
            }
        };
        let atoms: Vec<Atom> = self
            .atoms
            .iter()
            .map(|a| Atom::new(a.rel, a.terms.iter().map(sub_term).collect()))
            .collect();
        let mut inequalities = Vec::new();
        for e in &self.inequalities {
            let lhs = sub_term(&Term::Var(e.lhs.clone()));
            let rhs = sub_term(&e.rhs);
            match (&lhs, &rhs) {
                (Term::Const(a), Term::Const(b)) => {
                    if a == b {
                        return Err(QueryError::FalseInequality(format!("{e:?}")));
                    }
                    // ground and true: drop it
                }
                (Term::Var(l), r) => {
                    inequalities.push(Inequality::new(l.clone(), r.clone()));
                }
                (Term::Const(c), Term::Var(r)) => {
                    // normalize so the variable is on the left
                    inequalities.push(Inequality::new(r.clone(), Term::Const(c.clone())));
                }
            }
        }
        let head: Vec<Term> = {
            let mut seen = BTreeSet::new();
            let mut out = Vec::new();
            for a in &atoms {
                for v in a.vars() {
                    if seen.insert(v.clone()) {
                        out.push(Term::Var(v));
                    }
                }
            }
            out
        };
        ConjunctiveQuery::new(
            self.schema.clone(),
            format!("{}|σ", self.name),
            head,
            atoms,
            inequalities,
        )
    }

    /// Pretty-print with schema relation names (datalog style).
    pub fn display(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.name);
        s.push('(');
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{t:?}"));
        }
        s.push_str(") :- ");
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(self.schema.rel_name(a.rel));
            s.push('(');
            for (j, t) in a.terms.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{t:?}"));
            }
            s.push(')');
        }
        for e in &self.inequalities {
            s.push_str(&format!(", {} != {:?}", e.lhs, e.rhs));
        }
        s.push('.');
        s
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::Schema;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap()
    }

    /// The paper's Q1: European teams that won the World Cup at least twice.
    fn q1(s: &Arc<Schema>) -> ConjunctiveQuery {
        let games = s.rel_id("Games").unwrap();
        let teams = s.rel_id("Teams").unwrap();
        ConjunctiveQuery::new(
            s.clone(),
            "Q1",
            vec![Term::var("x")],
            vec![
                Atom::new(
                    games,
                    vec![
                        Term::var("d1"),
                        Term::var("x"),
                        Term::var("y"),
                        Term::cons("Final"),
                        Term::var("u1"),
                    ],
                ),
                Atom::new(
                    games,
                    vec![
                        Term::var("d2"),
                        Term::var("x"),
                        Term::var("z"),
                        Term::cons("Final"),
                        Term::var("u2"),
                    ],
                ),
                Atom::new(teams, vec![Term::var("x"), Term::cons("EU")]),
            ],
            vec![Inequality::new(Var::new("d1"), Term::var("d2"))],
        )
        .unwrap()
    }

    #[test]
    fn vars_and_consts_match_example_2_1() {
        let s = schema();
        let q = q1(&s);
        let vars = q.vars();
        let names: Vec<&str> = vars.iter().map(|v| v.name()).collect();
        // Example 2.1: Var(Q1) = {d1, d2, x, y, u1, u2} (plus z in our body)
        for expected in ["d1", "d2", "x", "y", "u1", "u2", "z"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        let consts = q.consts();
        assert!(consts.contains(&Value::text("Final")));
        assert!(consts.contains(&Value::text("EU")));
        assert_eq!(consts.len(), 2);
    }

    #[test]
    fn unsafe_head_is_rejected() {
        let s = schema();
        let teams = s.rel_id("Teams").unwrap();
        let err = ConjunctiveQuery::new(
            s.clone(),
            "bad",
            vec![Term::var("nope")],
            vec![Atom::new(teams, vec![Term::var("x"), Term::var("y")])],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::UnsafeHeadVar("nope".into()));
    }

    #[test]
    fn unbound_inequality_is_rejected() {
        let s = schema();
        let teams = s.rel_id("Teams").unwrap();
        let err = ConjunctiveQuery::new(
            s.clone(),
            "bad",
            vec![Term::var("x")],
            vec![Atom::new(teams, vec![Term::var("x"), Term::var("y")])],
            vec![Inequality::new(Var::new("w"), Term::var("x"))],
        )
        .unwrap_err();
        assert_eq!(err, QueryError::UnboundInequalityVar("w".into()));
    }

    #[test]
    fn empty_body_is_rejected() {
        let s = schema();
        let err = ConjunctiveQuery::new(s, "bad", vec![], vec![], vec![]).unwrap_err();
        assert_eq!(err, QueryError::EmptyBody);
    }

    #[test]
    fn wrong_arity_atom_is_rejected() {
        let s = schema();
        let teams = s.rel_id("Teams").unwrap();
        let err = ConjunctiveQuery::new(
            s.clone(),
            "bad",
            vec![],
            vec![Atom::new(teams, vec![Term::var("x")])],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            QueryError::AtomArity {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn substitute_binds_and_drops_true_inequalities() {
        let s = schema();
        let q = q1(&s);
        let q2 = q
            .substitute(&|v: &Var| match v.name() {
                "d1" => Some(Value::text("13.07.14")),
                "d2" => Some(Value::text("08.07.90")),
                _ => None,
            })
            .unwrap();
        // d1 != d2 became ground-and-true, so it is dropped.
        assert!(q2.inequalities().is_empty());
        // x remains a variable in the new head.
        assert!(q2.head_vars().iter().any(|v| v.name() == "x"));
    }

    #[test]
    fn substitute_rejects_false_inequality() {
        let s = schema();
        let q = q1(&s);
        let err = q
            .substitute(&|v: &Var| match v.name() {
                "d1" | "d2" => Some(Value::text("same")),
                _ => None,
            })
            .unwrap_err();
        assert!(matches!(err, QueryError::FalseInequality(_)));
    }

    #[test]
    fn substitute_normalizes_const_on_rhs() {
        let s = schema();
        let q = q1(&s);
        // bind d1 only: inequality becomes d2 != "x-date" with var on the left
        let q2 = q
            .substitute(&|v: &Var| (v.name() == "d1").then(|| Value::text("13.07.14")))
            .unwrap();
        assert_eq!(q2.inequalities().len(), 1);
        let e = &q2.inequalities()[0];
        assert_eq!(e.lhs.name(), "d2");
        assert_eq!(e.rhs, Term::cons("13.07.14"));
    }

    #[test]
    fn ground_atom_detection() {
        let s = schema();
        let teams = s.rel_id("Teams").unwrap();
        assert!(Atom::new(teams, vec![Term::cons("ITA"), Term::cons("EU")]).is_ground());
        assert!(!Atom::new(teams, vec![Term::var("x"), Term::cons("EU")]).is_ground());
    }

    #[test]
    fn display_is_datalog_like() {
        let s = schema();
        let q = q1(&s);
        let d = q.display();
        assert!(d.starts_with("Q1(x)"), "{d}");
        assert!(d.contains("Games("));
        assert!(d.contains("d1 != d2"), "{d}");
    }

    #[test]
    fn head_vars_dedup() {
        let s = schema();
        let teams = s.rel_id("Teams").unwrap();
        let q = ConjunctiveQuery::new(
            s.clone(),
            "q",
            vec![Term::var("x"), Term::var("x")],
            vec![Atom::new(teams, vec![Term::var("x"), Term::var("y")])],
            vec![],
        )
        .unwrap();
        assert_eq!(q.head_vars().len(), 1);
        assert_eq!(q.head().len(), 2);
    }
}
