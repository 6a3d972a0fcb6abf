//! Relational schemas.
//!
//! A schema `S = {R_1, …, R_m}` is a finite set of relation symbols with
//! fixed arities (paper Section 2). Schemas are immutable once built and
//! shared (`Arc`) between the dirty database `D` and the ground truth `D_G`,
//! which must agree on relation symbols for edits and distance to make sense.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::DataError;

/// Identifier of a relation within a [`Schema`] (a dense index).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(u32);

impl RelId {
    /// Build a `RelId` from a raw index. Mostly useful in tests; real ids
    /// come from [`Schema::rel_id`].
    pub fn from_index(i: usize) -> Self {
        RelId(u32::try_from(i).expect("relation index fits in u32"))
    }

    /// The dense index of this relation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R#{}", self.0)
    }
}

/// Identifier of an attribute (column) position within a relation.
pub type AttrId = usize;

/// The declaration of one relation: name, and named attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attrs: Vec<String>,
}

impl RelationSchema {
    /// Create a relation schema with the given attribute names.
    pub fn new(name: impl Into<String>, attrs: Vec<String>) -> Self {
        RelationSchema {
            name: name.into(),
            attrs,
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The attribute names.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Position of a named attribute, if present.
    pub fn attr_index(&self, attr: &str) -> Option<AttrId> {
        self.attrs.iter().position(|a| a == attr)
    }
}

/// An immutable relational schema shared by all databases of an instance.
#[derive(Debug, PartialEq, Eq)]
pub struct Schema {
    relations: Vec<RelationSchema>,
    by_name: HashMap<String, RelId>,
}

impl Schema {
    /// Start building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the schema declares no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Look up a relation id by name.
    pub fn rel_id(&self, name: &str) -> Result<RelId, DataError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// The declaration of a relation.
    pub fn relation(&self, id: RelId) -> Result<&RelationSchema, DataError> {
        self.relations
            .get(id.index())
            .ok_or(DataError::BadRelId(id))
    }

    /// The name of a relation (panics on a foreign id — ids are only minted
    /// by this schema, so a miss is a logic error).
    pub fn rel_name(&self, id: RelId) -> &str {
        self.relations[id.index()].name()
    }

    /// The arity of a relation.
    pub fn arity(&self, id: RelId) -> usize {
        self.relations[id.index()].arity()
    }

    /// Iterate over `(RelId, &RelationSchema)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RelId, &RelationSchema)> {
        self.relations
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId::from_index(i), r))
    }

    /// All relation ids in declaration order.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relations.len()).map(RelId::from_index)
    }
}

/// Builder for [`Schema`].
#[derive(Default)]
pub struct SchemaBuilder {
    relations: Vec<RelationSchema>,
    by_name: HashMap<String, RelId>,
    error: Option<DataError>,
}

impl SchemaBuilder {
    /// Declare a relation with named attributes.
    pub fn relation(mut self, name: &str, attrs: &[&str]) -> Self {
        if self.error.is_some() {
            return self;
        }
        if self.by_name.contains_key(name) {
            self.error = Some(DataError::DuplicateRelation(name.to_string()));
            return self;
        }
        let id = RelId::from_index(self.relations.len());
        self.by_name.insert(name.to_string(), id);
        self.relations.push(RelationSchema::new(
            name,
            attrs.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Finish the schema.
    pub fn build(self) -> Result<Arc<Schema>, DataError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(Arc::new(Schema {
            relations: self.relations,
            by_name: self.by_name,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_cup_schema() -> Arc<Schema> {
        Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_by_name_and_id_round_trips() {
        let s = world_cup_schema();
        let games = s.rel_id("Games").unwrap();
        assert_eq!(s.rel_name(games), "Games");
        assert_eq!(s.arity(games), 5);
        assert_eq!(s.relation(games).unwrap().attr_index("stage"), Some(3));
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let s = world_cup_schema();
        assert_eq!(
            s.rel_id("Nope"),
            Err(DataError::UnknownRelation("Nope".to_string()))
        );
    }

    #[test]
    fn duplicate_relation_is_rejected() {
        let r = Schema::builder()
            .relation("A", &["x"])
            .relation("A", &["y"])
            .build();
        assert_eq!(
            r.unwrap_err(),
            DataError::DuplicateRelation("A".to_string())
        );
    }

    #[test]
    fn iteration_is_in_declaration_order() {
        let s = world_cup_schema();
        let names: Vec<&str> = s.iter().map(|(_, r)| r.name()).collect();
        assert_eq!(names, vec!["Games", "Teams", "Players", "Goals"]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn bad_rel_id_is_reported() {
        let s = world_cup_schema();
        let bogus = RelId::from_index(99);
        assert_eq!(s.relation(bogus), Err(DataError::BadRelId(bogus)));
    }
}
