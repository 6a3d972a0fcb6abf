//! # qoco-data — relational substrate for QOCO
//!
//! This crate provides the storage layer that the QOCO cleaning algorithms
//! operate over: [`Value`]s, [`Tuple`]s, a relational [`Schema`], indexed
//! in-memory [`Relation`]s collected into a [`Database`], the idempotent
//! [`Edit`] model of the paper (insertion edits `R(ā)+` and deletion edits
//! `R(ā)−`, Section 3.1), and the database-distance / cleanliness metrics
//! used throughout the paper's evaluation (Section 7.2).
//!
//! The paper's model is the *truly open world assumption*: a fact in the
//! dirty database `D` may be true or false, and a fact absent from `D` may be
//! true or false; truth is determined by a ground-truth database `D_G`.
//! Nothing in this crate knows about queries or oracles — it is the pure data
//! substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod database;
pub mod diff;
pub mod edit;
pub mod error;
pub mod io;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use constraints::{ConstraintSet, ForeignKey, KeyConstraint, Violation};
pub use database::Database;
pub use diff::{cleanliness, diff, distance, noise_skewness, result_cleanliness, DiffReport};
pub use edit::{Edit, EditKind, EditLog};
pub use error::DataError;
pub use io::{load_dir, save_dir, IoError};
pub use relation::{Relation, TupleId};
pub use schema::{AttrId, RelId, RelationSchema, Schema, SchemaBuilder};
pub use tuple::{Fact, Tuple};
pub use value::{TextInterner, Value};
