//! First-class materialized views with witness counting.
//!
//! A [`MaterializedView`] caches the answer set of one conjunctive query
//! together with the number of **supporting witnesses** (distinct valid
//! assignments) behind every answer. That count is what makes deletions
//! cheap: an answer leaves the view only when its *last* witness dies, and
//! the view discovers exactly the destroyed witnesses with seeded delta
//! evaluations — it never re-checks `is_satisfiable` per cached answer and
//! never re-evaluates `Q(D)` from scratch.
//!
//! The two delta directions (db already reflects the edit when the view is
//! notified):
//!
//! * **Insert `f`** — a newly valid assignment must ground at least one
//!   body atom to `f` (otherwise it was valid before). For every body atom
//!   unifiable with `f`, evaluate the query seeded by the unifier; every
//!   found assignment grounds that atom to `f` and is therefore new.
//!   Assignments found from several seeds are deduplicated, then each one
//!   increments its answer's witness count.
//! * **Delete `f`** — a destroyed assignment grounded some non-empty set
//!   `S` of body atoms to `f`. For every non-empty subset `S` of the atoms
//!   unifiable with `f`: merge the unifiers of `S` (conflicts ⇒ empty
//!   subset), *remove* the atoms of `S` from the query, substitute the
//!   merged bindings into the rest, and evaluate over the post-delete
//!   database. Atoms outside `S` then match only surviving tuples (≠ `f`),
//!   so the subsets enumerate *disjoint* sets of destroyed assignments and
//!   their counts simply subtract. A query mentions `f`'s relation in at
//!   most a handful of atoms, so the `2^k − 1` subsets stay tiny.
//!
//! Synchronisation is keyed to the [`Relation`](qoco_data::Relation) edit
//! epoch: the view remembers `Database::epoch()` after every sync, and
//! [`MaterializedView::apply_edit`] only takes the delta path when the
//! epoch moved by exactly the one notified edit. Any other movement means
//! out-of-band mutation, and the view falls back to a full
//! [`refresh`](MaterializedView::refresh) (counted in
//! `view.full_refreshes`) instead of serving stale answers.

use std::collections::{BTreeMap, BTreeSet};

use qoco_data::{Database, Edit, EditKind, Fact, Tuple};
use qoco_query::{Atom, ConjunctiveQuery, Inequality, Term};

use crate::assignment::Assignment;
use crate::eval::{all_assignments, head_rows, is_satisfiable, EvalOptions};

/// Answers that appeared and disappeared after an edit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewDelta {
    /// Answers newly present.
    pub added: Vec<Tuple>,
    /// Answers no longer present.
    pub removed: Vec<Tuple>,
}

impl ViewDelta {
    /// True if the view did not change.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Beyond this many body atoms unifiable with one deleted fact, the subset
/// enumeration is abandoned for a full refresh. Real queries repeat a
/// relation two or three times at most; this is a safety valve, not a
/// tuning knob.
const MAX_DELETE_SEEDS: usize = 6;

/// A materialized answer set with per-answer witness counts, kept
/// incrementally consistent with a database through single-edit deltas.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    query: ConjunctiveQuery,
    /// answer → number of distinct valid assignments producing it.
    counts: BTreeMap<Tuple, u64>,
    /// `Database::epoch()` as of the last synchronisation point.
    db_epoch: u64,
    opts: EvalOptions,
}

impl MaterializedView {
    /// Materialize `query` over `db`.
    pub fn new(query: ConjunctiveQuery, db: &Database) -> Self {
        Self::with_options(query, db, EvalOptions::default())
    }

    /// Materialize with explicit evaluation options (thread count). The
    /// assignment cap is ignored: witness counts must be exact, so the
    /// view always evaluates uncapped.
    pub fn with_options(query: ConjunctiveQuery, db: &Database, opts: EvalOptions) -> Self {
        let opts = EvalOptions {
            max_assignments: usize::MAX,
            ..opts
        };
        let mut view = MaterializedView {
            query,
            counts: BTreeMap::new(),
            db_epoch: 0,
            opts,
        };
        view.refresh(db);
        view
    }

    /// The materialized query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The current materialized answers, sorted (same order as
    /// [`answer_set`](crate::eval::answer_set)).
    pub fn answers(&self) -> Vec<Tuple> {
        self.counts.keys().cloned().collect()
    }

    /// Membership test against the cached answer set.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.counts.contains_key(t)
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The number of witnesses supporting a cached answer (0 if absent).
    pub fn witness_count(&self, t: &Tuple) -> u64 {
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// Does the query mention the relation of this fact?
    pub fn is_relevant(&self, fact: &Fact) -> bool {
        self.query.atoms().iter().any(|a| a.rel == fact.rel)
    }

    /// Re-synchronise with `db` if its epoch moved behind the view's back
    /// (e.g. after out-of-band mutation); no-op when already in sync.
    pub fn sync(&mut self, db: &Database) -> ViewDelta {
        if db.epoch() == self.db_epoch {
            ViewDelta::default()
        } else {
            self.refresh(db)
        }
    }

    /// Full re-materialization: the fallback for out-of-band mutation and
    /// the correctness oracle for tests. Counted in `view.full_refreshes`.
    pub fn refresh(&mut self, db: &Database) -> ViewDelta {
        qoco_telemetry::counter_add("view.full_refreshes", 1);
        let mut fresh: BTreeMap<Tuple, u64> = BTreeMap::new();
        for head in head_rows(&self.query, db, self.opts.threads) {
            *fresh.entry(head).or_insert(0) += 1;
        }
        let added = fresh
            .keys()
            .filter(|t| !self.counts.contains_key(*t))
            .cloned()
            .collect();
        let removed = self
            .counts
            .keys()
            .filter(|t| !fresh.contains_key(*t))
            .cloned()
            .collect();
        self.counts = fresh;
        self.db_epoch = db.epoch();
        ViewDelta { added, removed }
    }

    /// Update the materialization after `edit` was applied to `db` (`db`
    /// must already reflect the edit). Takes the delta path when the
    /// database epoch moved by exactly this one edit; anything else means
    /// the view missed a mutation and it falls back to [`refresh`]
    /// (MaterializedView::refresh). Returns the answer-set delta.
    pub fn apply_edit(&mut self, db: &Database, edit: &Edit) -> ViewDelta {
        let epoch = db.epoch();
        if epoch == self.db_epoch {
            // the edit was a no-op (insert of a present fact / delete of an
            // absent one): the database did not change, neither does the view
            return ViewDelta::default();
        }
        if epoch != self.db_epoch + 1 {
            // more moved than this one edit — out-of-band mutation
            return self.refresh(db);
        }
        if !self.is_relevant(&edit.fact) {
            self.db_epoch = epoch;
            return ViewDelta::default();
        }
        let span = qoco_telemetry::span("view.apply_edit");
        let started = qoco_telemetry::now_ns();
        let delta = match edit.kind {
            EditKind::Insert => Ok(self.delta_insert(db, &edit.fact)),
            EditKind::Delete => self.delta_delete(db, &edit.fact),
        };
        let delta = match delta {
            Ok(d) => {
                qoco_telemetry::counter_add("view.delta_edits", 1);
                if qoco_telemetry::enabled() {
                    qoco_telemetry::histogram_record(
                        "view.delta_apply_ns",
                        qoco_telemetry::now_ns().saturating_sub(started),
                    );
                }
                self.db_epoch = epoch;
                d
            }
            // witness-count underflow or a pathological subset blow-up:
            // never serve a possibly-wrong view, re-materialize instead
            Err(()) => self.refresh(db),
        };
        span.field("added", delta.added.len())
            .field("removed", delta.removed.len())
            .finish();
        delta
    }

    fn delta_insert(&mut self, db: &Database, fact: &Fact) -> ViewDelta {
        let seeds = unify_seeds(&self.query, fact);
        qoco_telemetry::counter_add("eval.delta_probe_hits", seeds.len() as u64);
        let mut added = Vec::new();
        let mut bump = |counts: &mut BTreeMap<Tuple, u64>, a: &Assignment| {
            let head = a
                .ground_head(&self.query)
                .expect("valid assignments are total");
            let c = counts.entry(head.clone()).or_insert(0);
            *c += 1;
            if *c == 1 {
                added.push(head);
            }
        };
        if let [(_, seed)] = seeds.as_slice() {
            // single matching atom: every found assignment is distinct
            for a in &all_assignments(&self.query, db, seed, self.opts).assignments {
                bump(&mut self.counts, a);
            }
        } else {
            // an assignment grounding several atoms to `fact` is found once
            // per seed; count it once
            let mut fresh: BTreeSet<Assignment> = BTreeSet::new();
            for (_, seed) in &seeds {
                fresh.extend(all_assignments(&self.query, db, seed, self.opts).assignments);
            }
            for a in &fresh {
                bump(&mut self.counts, a);
            }
        }
        added.sort();
        ViewDelta {
            added,
            removed: Vec::new(),
        }
    }

    fn delta_delete(&mut self, db: &Database, fact: &Fact) -> Result<ViewDelta, ()> {
        let seeds = unify_seeds(&self.query, fact);
        if seeds.len() > MAX_DELETE_SEEDS {
            return Err(());
        }
        qoco_telemetry::counter_add("eval.delta_probe_hits", seeds.len() as u64);
        let mut dead: BTreeMap<Tuple, u64> = BTreeMap::new();
        for mask in 1u32..(1 << seeds.len()) {
            self.destroyed_for_subset(db, &seeds, mask, &mut dead)?;
        }
        let mut removed = Vec::new();
        for (head, d) in dead {
            match self.counts.get_mut(&head) {
                // underflow would mean the cache was already wrong; bail out
                // to a refresh rather than guess
                None => return Err(()),
                Some(c) if *c < d => return Err(()),
                Some(c) => {
                    *c -= d;
                    if *c == 0 {
                        self.counts.remove(&head);
                        removed.push(head);
                    }
                }
            }
        }
        removed.sort();
        Ok(ViewDelta {
            added: Vec::new(),
            removed,
        })
    }

    /// Accumulate (into `dead`) the answers of every valid-before-the-delete
    /// assignment that grounded *exactly* the atoms selected by `mask` to
    /// the deleted fact.
    fn destroyed_for_subset(
        &self,
        db: &Database,
        seeds: &[(usize, Assignment)],
        mask: u32,
        dead: &mut BTreeMap<Tuple, u64>,
    ) -> Result<(), ()> {
        let mut seed = Assignment::new();
        let mut in_subset = vec![false; self.query.atoms().len()];
        for (bit, (atom_idx, unifier)) in seeds.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                if !seed.merge(unifier) {
                    // conflicting bindings: no assignment grounds exactly
                    // these atoms to the fact
                    return Ok(());
                }
                in_subset[*atom_idx] = true;
            }
        }
        // Inequalities under the merged seed: a ground-violated one kills
        // the whole subset; ground-satisfied ones drop; the rest carry over
        // (their remaining variables live in the surviving atoms).
        let mut rest_ineqs = Vec::new();
        for e in self.query.inequalities() {
            match seed.check_inequality(e) {
                Some(false) => return Ok(()),
                Some(true) => {}
                None => rest_ineqs.push(substitute_inequality(e, &seed)),
            }
        }
        let rest_atoms: Vec<Atom> = self
            .query
            .atoms()
            .iter()
            .enumerate()
            .filter(|(i, _)| !in_subset[*i])
            .map(|(_, a)| substitute_atom(a, &seed))
            .collect();
        if rest_atoms.is_empty() {
            // every atom grounded to the fact: the seed itself is the one
            // destroyed assignment (inequalities already checked above)
            let head = seed
                .ground_head(&self.query)
                .expect("seed over all atoms is total");
            *dead.entry(head).or_insert(0) += 1;
            return Ok(());
        }
        // The subquery keeps the surviving atoms only. Its head carries the
        // remaining variables so construction passes safety validation; the
        // *answer* head is computed from the original query below.
        let mut rest_vars: BTreeSet<_> = BTreeSet::new();
        let head: Vec<Term> = rest_atoms
            .iter()
            .flat_map(|a| a.vars())
            .filter(|v| rest_vars.insert(v.clone()))
            .map(Term::Var)
            .collect();
        let sub = ConjunctiveQuery::new(
            self.query.schema().clone(),
            self.query.name(),
            head,
            rest_atoms,
            rest_ineqs,
        )
        .map_err(|_| ())?;
        for b in &all_assignments(&sub, db, &Assignment::new(), self.opts).assignments {
            let mut full = seed.clone();
            if !full.merge(b) {
                // seed vars were substituted out of the subquery, so the
                // two bind disjoint variables; a conflict is a logic error
                return Err(());
            }
            let head = full
                .ground_head(&self.query)
                .expect("merged assignment is total");
            *dead.entry(head).or_insert(0) += 1;
        }
        Ok(())
    }
}

/// Did inserting `fact` (already applied to `db`) create a witness for `q`,
/// assuming `q` had none before the insertion? Any new witness must ground
/// a body atom to the new fact, so a seeded early-exit probe per unifiable
/// atom answers the question without a full evaluation. Counted in
/// `eval.delta_probe_hits`.
pub fn delta_satisfiable(q: &ConjunctiveQuery, db: &Database, fact: &Fact) -> bool {
    let seeds = unify_seeds(q, fact);
    qoco_telemetry::counter_add("eval.delta_probe_hits", seeds.len() as u64);
    seeds.iter().any(|(_, seed)| is_satisfiable(q, db, seed))
}

/// Unify an atom with a fact: constants must match, variables bind
/// consistently. Returns the induced partial assignment.
pub(crate) fn unify(atom: &Atom, fact: &Fact) -> Option<Assignment> {
    let mut seed = Assignment::new();
    for (term, value) in atom.terms.iter().zip(fact.tuple.values()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return None;
                }
            }
            Term::Var(v) => {
                if !seed.bind(v.clone(), value.clone()) {
                    return None;
                }
            }
        }
    }
    Some(seed)
}

/// `(atom index, unifier)` for every body atom of `q` unifiable with
/// `fact`, in body order.
fn unify_seeds(q: &ConjunctiveQuery, fact: &Fact) -> Vec<(usize, Assignment)> {
    q.atoms()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.rel == fact.rel)
        .filter_map(|(i, a)| unify(a, fact).map(|seed| (i, seed)))
        .collect()
}

/// Replace seed-bound variables by their constants.
fn substitute_atom(a: &Atom, seed: &Assignment) -> Atom {
    let terms = a
        .terms
        .iter()
        .map(|t| match seed.ground_term(t) {
            Some(v) => Term::Const(v),
            None => t.clone(),
        })
        .collect();
    Atom::new(a.rel, terms)
}

/// Substitute seed bindings into a not-yet-determined inequality (exactly
/// one side can be bound, otherwise `check_inequality` would have decided
/// it). A bound left side swaps to the right so `lhs` stays a variable.
fn substitute_inequality(e: &Inequality, seed: &Assignment) -> Inequality {
    match (seed.get(&e.lhs), &e.rhs) {
        (Some(v), Term::Var(rhs)) => Inequality::new(rhs.clone(), Term::Const(v.clone())),
        (None, rhs) => match seed.ground_term(rhs) {
            Some(v) => Inequality::new(e.lhs.clone(), Term::Const(v)),
            None => e.clone(),
        },
        // lhs bound and rhs ground would have been decided by the caller
        (Some(_), Term::Const(_)) => e.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::answer_set;
    use qoco_data::{tup, Schema};
    use qoco_query::parse_query;
    use std::sync::Arc;

    fn setup() -> (Arc<Schema>, Database, ConjunctiveQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Clubs", &["player", "club"])
            .build()
            .unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        db.insert_named("Games", tup!["08.07.90", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        db.insert_named("Teams", tup!["GER", "EU"]).unwrap();
        let q = parse_query(
            &schema,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap();
        (schema, db, q)
    }

    #[test]
    fn witness_counts_match_assignment_multiplicity() {
        let (_, db, q) = setup();
        let v = MaterializedView::new(q, &db);
        assert_eq!(v.answers(), vec![tup!["GER"]]);
        // (d1, d2) ∈ {(14, 90), (90, 14)} — two witnesses for GER
        assert_eq!(v.witness_count(&tup!["GER"]), 2);
        assert_eq!(v.witness_count(&tup!["ESP"]), 0);
    }

    #[test]
    fn deletion_decrements_until_last_witness_dies() {
        let (schema, mut db, q) = setup();
        let games = schema.rel_id("Games").unwrap();
        // a third final doubles the (d1, d2) pairs: 3 · 2 = 6 witnesses
        db.insert_named("Games", tup!["30.06.02", "GER", "BRA", "Final", "2:0"])
            .unwrap();
        let mut v = MaterializedView::new(q, &db);
        assert_eq!(v.witness_count(&tup!["GER"]), 6);
        let e1 = Edit::delete(Fact::new(
            games,
            tup!["30.06.02", "GER", "BRA", "Final", "2:0"],
        ));
        db.apply(&e1).unwrap();
        let d1 = v.apply_edit(&db, &e1);
        assert!(d1.is_empty(), "answer survives: {d1:?}");
        assert_eq!(v.witness_count(&tup!["GER"]), 2);
        let e2 = Edit::delete(Fact::new(
            games,
            tup!["08.07.90", "GER", "ARG", "Final", "1:0"],
        ));
        db.apply(&e2).unwrap();
        let d2 = v.apply_edit(&db, &e2);
        assert_eq!(d2.removed, vec![tup!["GER"]], "last witness died");
        assert!(v.is_empty());
    }

    #[test]
    fn insertion_increments_existing_answers() {
        let (schema, mut db, q) = setup();
        let games = schema.rel_id("Games").unwrap();
        let mut v = MaterializedView::new(q, &db);
        let e = Edit::insert(Fact::new(
            games,
            tup!["30.06.02", "GER", "BRA", "Final", "2:0"],
        ));
        db.apply(&e).unwrap();
        let delta = v.apply_edit(&db, &e);
        assert!(delta.is_empty(), "GER was already an answer");
        assert_eq!(v.witness_count(&tup!["GER"]), 6);
    }

    #[test]
    fn epoch_mismatch_falls_back_to_refresh() {
        let (schema, mut db, q) = setup();
        let teams = schema.rel_id("Teams").unwrap();
        let mut v = MaterializedView::new(q, &db);
        // two out-of-band edits, then a notification for only the second:
        // the epoch moved by 2, so the view must re-materialize
        db.insert_named("Teams", tup!["ESP", "EU"]).unwrap();
        let e = Edit::delete(Fact::new(teams, tup!["GER", "EU"]));
        db.apply(&e).unwrap();
        let delta = v.apply_edit(&db, &e);
        assert_eq!(delta.removed, vec![tup!["GER"]]);
        assert_eq!(v.answers(), answer_set(v.query(), &db));
    }

    #[test]
    fn noop_edits_change_nothing() {
        let (schema, mut db, q) = setup();
        let teams = schema.rel_id("Teams").unwrap();
        let mut v = MaterializedView::new(q, &db);
        let e = Edit::insert(Fact::new(teams, tup!["GER", "EU"])); // already present
        assert!(!db.apply(&e).unwrap());
        assert!(v.apply_edit(&db, &e).is_empty());
        assert_eq!(v.witness_count(&tup!["GER"]), 2);
    }

    #[test]
    fn sync_recovers_from_out_of_band_mutation() {
        let (schema, mut db, q) = setup();
        let teams = schema.rel_id("Teams").unwrap();
        let mut v = MaterializedView::new(q, &db);
        db.remove(&Fact::new(teams, tup!["GER", "EU"])).unwrap();
        let delta = v.sync(&db);
        assert_eq!(delta.removed, vec![tup!["GER"]]);
        assert!(v.sync(&db).is_empty(), "second sync is a no-op");
    }

    #[test]
    fn repeated_relation_delete_handles_multi_atom_overlap() {
        // Q(x) :- E(x, y), E(y, x): deleting one fact can destroy
        // assignments using it at either atom or both
        let schema = Schema::builder()
            .relation("E", &["a", "b"])
            .build()
            .unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_named("E", tup!["p", "q"]).unwrap();
        db.insert_named("E", tup!["q", "p"]).unwrap();
        db.insert_named("E", tup!["r", "r"]).unwrap();
        let q = parse_query(&schema, "Q(x) :- E(x, y), E(y, x)").unwrap();
        let mut v = MaterializedView::new(q.clone(), &db);
        assert_eq!(v.answers(), answer_set(&q, &db));
        let e_rel = schema.rel_id("E").unwrap();
        // r-r grounds both atoms at once (the S = {1, 2} subset)
        let e = Edit::delete(Fact::new(e_rel, tup!["r", "r"]));
        db.apply(&e).unwrap();
        let delta = v.apply_edit(&db, &e);
        assert_eq!(delta.removed, vec![tup!["r"]]);
        assert_eq!(v.answers(), answer_set(&q, &db));
        // p-q destroys the p and q answers through single-atom subsets
        let e = Edit::delete(Fact::new(e_rel, tup!["p", "q"]));
        db.apply(&e).unwrap();
        let delta = v.apply_edit(&db, &e);
        assert_eq!(delta.removed, vec![tup!["p"], tup!["q"]]);
        assert_eq!(v.answers(), answer_set(&q, &db));
    }

    #[test]
    fn inequalities_prune_delete_subsets() {
        // the d1 != d2 inequality must carry into delete-delta subqueries
        let (schema, mut db, q) = setup();
        let games = schema.rel_id("Games").unwrap();
        let mut v = MaterializedView::new(q.clone(), &db);
        let e = Edit::delete(Fact::new(
            games,
            tup!["13.07.14", "GER", "ARG", "Final", "1:0"],
        ));
        db.apply(&e).unwrap();
        let delta = v.apply_edit(&db, &e);
        // both witnesses used 13.07.14 (at either atom); one game alone
        // cannot satisfy d1 != d2
        assert_eq!(delta.removed, vec![tup!["GER"]]);
        assert_eq!(v.answers(), answer_set(&q, &db));
    }

    #[test]
    fn delta_satisfiable_detects_new_witnesses() {
        let (schema, mut db, q) = setup();
        let games = schema.rel_id("Games").unwrap();
        let teams = schema.rel_id("Teams").unwrap();
        db.remove(&Fact::new(teams, tup!["GER", "EU"])).unwrap();
        assert!(answer_set(&q, &db).is_empty());
        // an unrelated insert creates no witness…
        let f1 = Fact::new(games, tup!["01.01.01", "ITA", "FRA", "Final", "2:1"]);
        db.insert(f1.clone()).unwrap();
        assert!(!delta_satisfiable(&q, &db, &f1));
        // …restoring the Teams row does
        let f2 = Fact::new(teams, tup!["GER", "EU"]);
        db.insert(f2.clone()).unwrap();
        assert!(delta_satisfiable(&q, &db, &f2));
    }
}
