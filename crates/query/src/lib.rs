//! # qoco-query — conjunctive queries with inequalities
//!
//! The view language of the paper (Section 2): conjunctive queries of the
//! form
//!
//! ```text
//! Ans(ū₀) :- R₁(ū₁), …, Rₙ(ūₙ), E₁, …, Eₘ
//! ```
//!
//! where each `ūᵢ` mixes variables and constants and each `Eⱼ` is an
//! inequality `l ≠ r` between a variable and a variable-or-constant. This
//! crate provides the AST, a hand-written datalog-style parser, safety
//! validation, *subqueries* (Definition 5.3), the embedding `Q|t` of a
//! missing answer into a query (Section 5.1), the weighted *query graph*
//! used by the Min-Cut split strategy (Section 5.2), and unions of
//! conjunctive queries (the paper notes all results extend to UCQs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod ast;
pub mod graph;
pub mod homomorphism;
pub mod parser;
pub mod subquery;
pub mod ucq;

pub use aggregate::unfold_at_least;
pub use ast::{Atom, ConjunctiveQuery, Inequality, QueryError, Term, Var};
pub use graph::{QueryGraph, QueryGraphEdge};
pub use homomorphism::{contains, equivalent, find_homomorphism, minimize, Homomorphism};
pub use parser::{parse_query, ParseError};
pub use subquery::{embed_answer, split_by_atom_partition, split_subset, SplitError};
pub use ucq::UnionQuery;
