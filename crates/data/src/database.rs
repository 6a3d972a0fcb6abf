//! Database instances.
//!
//! A [`Database`] is an instance of a [`Schema`]: one [`Relation`] per
//! declared relation symbol. The dirty database `D` and ground truth `D_G`
//! are both `Database` values sharing an `Arc<Schema>`.

use std::sync::Arc;

use crate::edit::{Edit, EditKind};
use crate::error::DataError;
use crate::relation::Relation;
use crate::schema::{RelId, Schema};
use crate::tuple::{Fact, Tuple};
use crate::value::Value;

/// A database instance over a shared schema.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Arc<Schema>,
    relations: Vec<Relation>,
}

impl Database {
    /// An empty instance of `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let relations = schema
            .iter()
            .map(|(_, r)| Relation::new(r.arity()))
            .collect();
        Database { schema, relations }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Total number of facts across all relations.
    pub fn len(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// True if the database holds no facts.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(Relation::is_empty)
    }

    /// Immutable access to a relation.
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Mutable access to a relation (edits only; the engine's read path
    /// probes indexes through shared borrows).
    pub fn relation_mut(&mut self, id: RelId) -> &mut Relation {
        &mut self.relations[id.index()]
    }

    /// Eagerly build every relation's sorted-id list and column indexes.
    /// Optional warm-up: probes build lazily anyway, but a benchmark that
    /// warms first measures steady-state reads and edits.
    pub fn ensure_indexes(&self) {
        for rel in &self.relations {
            rel.ensure_indexes();
        }
    }

    /// A database-wide edit version: the sum of all relation epochs. Moves
    /// whenever any relation is effectively mutated.
    pub fn epoch(&self) -> u64 {
        self.relations.iter().map(Relation::epoch).sum()
    }

    /// Insert a fact after validating arity. Returns whether the database
    /// changed.
    pub fn insert(&mut self, fact: Fact) -> Result<bool, DataError> {
        self.check(&fact)?;
        Ok(self.relations[fact.rel.index()].insert(fact.tuple))
    }

    /// Insert a fact by relation name; convenient for loaders and tests.
    pub fn insert_named(&mut self, rel: &str, tuple: Tuple) -> Result<bool, DataError> {
        let id = self.schema.rel_id(rel)?;
        self.insert(Fact::new(id, tuple))
    }

    /// Remove a fact. Returns whether the database changed.
    pub fn remove(&mut self, fact: &Fact) -> Result<bool, DataError> {
        self.check(fact)?;
        Ok(self.relations[fact.rel.index()].remove(&fact.tuple))
    }

    /// Membership test for a fact.
    pub fn contains(&self, fact: &Fact) -> bool {
        fact.rel.index() < self.relations.len()
            && self.relations[fact.rel.index()].contains(&fact.tuple)
    }

    /// Apply an edit (`D ⊕ e`, Section 3.1). Idempotent: applying an
    /// insertion of a present fact or a deletion of an absent fact is a
    /// no-op. Returns whether the database changed.
    pub fn apply(&mut self, edit: &Edit) -> Result<bool, DataError> {
        match edit.kind {
            EditKind::Insert => self.insert(edit.fact.clone()),
            EditKind::Delete => self.remove(&edit.fact),
        }
    }

    /// Apply a sequence of edits in order (`D ⊕ e_1 ⊕ … ⊕ e_k`).
    pub fn apply_all<'a>(
        &mut self,
        edits: impl IntoIterator<Item = &'a Edit>,
    ) -> Result<usize, DataError> {
        let mut changed = 0;
        for e in edits {
            if self.apply(e)? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Iterate over every fact in the database.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.schema.rel_ids().flat_map(move |id| {
            self.relations[id.index()]
                .iter()
                .map(move |t| Fact::new(id, t.clone()))
        })
    }

    /// Every fact, sorted, for deterministic output.
    pub fn sorted_facts(&self) -> Vec<Fact> {
        let mut v: Vec<Fact> = self.facts().collect();
        v.sort();
        v
    }

    /// All distinct constants appearing anywhere in the database — the
    /// *active domain*, used for systematic enumeration (Proposition 3.4)
    /// and for noise generation.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut dom: Vec<Value> = self
            .facts()
            .flat_map(|f| f.tuple.values().to_vec())
            .collect();
        dom.sort();
        dom.dedup();
        dom
    }

    /// Distinct constants in one column of one relation.
    pub fn column_domain(&self, rel: RelId, col: usize) -> Vec<Value> {
        let mut dom: Vec<Value> = self
            .relation(rel)
            .iter()
            .map(|t| t.values()[col].clone())
            .collect();
        dom.sort();
        dom.dedup();
        dom
    }

    fn check(&self, fact: &Fact) -> Result<(), DataError> {
        let decl = self.schema.relation(fact.rel)?;
        if decl.arity() != fact.tuple.arity() {
            return Err(DataError::ArityMismatch {
                rel: decl.name().to_string(),
                expected: decl.arity(),
                got: fact.tuple.arity(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Teams", &["country", "continent"])
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .build()
            .unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut db = Database::empty(schema());
        assert!(db.insert_named("Teams", tup!["GER", "EU"]).unwrap());
        let id = db.schema().rel_id("Teams").unwrap();
        assert!(db.contains(&Fact::new(id, tup!["GER", "EU"])));
        assert!(!db.contains(&Fact::new(id, tup!["ITA", "EU"])));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn apply_is_idempotent() {
        let mut db = Database::empty(schema());
        let id = db.schema().rel_id("Teams").unwrap();
        let f = Fact::new(id, tup!["GER", "EU"]);
        assert!(db.apply(&Edit::insert(f.clone())).unwrap());
        assert!(!db.apply(&Edit::insert(f.clone())).unwrap());
        assert!(db.apply(&Edit::delete(f.clone())).unwrap());
        assert!(!db.apply(&Edit::delete(f)).unwrap());
        assert!(db.is_empty());
    }

    #[test]
    fn apply_all_counts_effective_edits() {
        let mut db = Database::empty(schema());
        let id = db.schema().rel_id("Teams").unwrap();
        let a = Fact::new(id, tup!["GER", "EU"]);
        let edits = vec![
            Edit::insert(a.clone()),
            Edit::insert(a.clone()), // no-op
            Edit::delete(a),
        ];
        assert_eq!(db.apply_all(&edits).unwrap(), 2);
    }

    #[test]
    fn arity_is_validated() {
        let mut db = Database::empty(schema());
        let err = db.insert_named("Teams", tup!["GER"]).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let mut db = Database::empty(schema());
        assert!(db.insert_named("Nope", tup!["x"]).is_err());
    }

    #[test]
    fn facts_iterates_everything() {
        let mut db = Database::empty(schema());
        db.insert_named("Teams", tup!["GER", "EU"]).unwrap();
        db.insert_named("Teams", tup!["BRA", "SA"]).unwrap();
        db.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        assert_eq!(db.facts().count(), 3);
        assert_eq!(db.sorted_facts().len(), 3);
    }

    #[test]
    fn active_domain_is_sorted_and_deduped() {
        let mut db = Database::empty(schema());
        db.insert_named("Teams", tup!["GER", "EU"]).unwrap();
        db.insert_named("Teams", tup!["ITA", "EU"]).unwrap();
        let dom = db.active_domain();
        assert_eq!(
            dom,
            vec![Value::text("EU"), Value::text("GER"), Value::text("ITA")]
        );
    }

    #[test]
    fn column_domain_projects_one_column() {
        let mut db = Database::empty(schema());
        db.insert_named("Teams", tup!["GER", "EU"]).unwrap();
        db.insert_named("Teams", tup!["ITA", "EU"]).unwrap();
        let id = db.schema().rel_id("Teams").unwrap();
        assert_eq!(db.column_domain(id, 1), vec![Value::text("EU")]);
        assert_eq!(db.column_domain(id, 0).len(), 2);
    }
}
