//! # qoco-engine — conjunctive-query evaluation with provenance
//!
//! Evaluates conjunctive queries with inequalities over [`qoco_data`]
//! databases, enumerating *all valid assignments* (paper Section 2) rather
//! than just distinct answers, because the deletion algorithm needs the full
//! witness multiset `A(t, Q, D)` and the insertion algorithm needs partial
//! assignments of subqueries.
//!
//! Modules:
//! * [`assignment`] — (partial) assignments `α : Var(Q) → C`;
//! * [`eval`] — index-backed backtracking join enumeration and
//!   satisfiability checks;
//! * [`witness`] — witnesses `α(body(Q))` and the witness sets of answers;
//! * [`view`] — materialized views with per-answer witness counts,
//!   single-edit deltas and the edit-epoch refresh fallback;
//! * [`whynot`] — the picky-operator analysis standing in for the WhyNot?
//!   system \[60\], used by the Provenance split strategy (Section 5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod eval;
pub mod view;
pub mod whynot;
pub mod witness;

pub use assignment::Assignment;
pub use eval::{
    all_assignments, answer_set, assignments_for_answer, evaluate, explain, is_satisfiable,
    union_answer_set, EvalOptions, EvalResult,
};
pub use view::{delta_satisfiable, MaterializedView, ViewDelta};
pub use whynot::frontier_split;
pub use witness::{witness_of, witnesses_for_answer, Witness};
