//! # qoco-core — the QOCO cleaning algorithms
//!
//! The paper's contribution (Sections 4–6), implemented over the substrates
//! of the sibling crates:
//!
//! * [`hitting_set`] — the witness-cover structure behind answer removal:
//!   greedy selection, the unique-minimal-hitting-set test of Theorem 4.5,
//!   and an exact branch-and-bound solver used for ablations;
//! * [`heuristics`] — pluggable tuple-selection heuristics for deletion
//!   (most-frequent — the paper's default — plus the responsibility-,
//!   trust- and random-based alternatives Section 4 mentions);
//! * [`deletion`] — Algorithm 1 `CrowdRemoveWrongAnswer` and the baselines
//!   QOCO⁻ and Random of Section 7.2;
//! * [`split`] — the Split() implementations of Section 5.2: Provenance
//!   (WhyNot?-style), Min-Cut (Stoer–Wagner on the query graph), Random,
//!   and Naïve (no split);
//! * [`insertion`] — Algorithm 2 `CrowdAddMissingAnswer`;
//! * [`cleaner`] — Algorithm 3, the iterative mixed cleaner, for CQ and
//!   union-of-CQ views alike;
//! * [`report`] — session reports: edits, per-phase question ledgers,
//!   convergence data;
//! * [`machine`] and [`store`] — resumable sessions for `qoco-serve`: the
//!   stepped cleaner, the session-spec JSON codec and the on-disk store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cleaner;
pub mod composite;
pub mod deletion;
pub mod error;
pub mod figure1;
pub mod heuristics;
pub mod hitting_set;
pub mod insertion;
pub mod machine;
pub mod report;
pub mod split;
pub mod store;
mod tracked;

pub use cleaner::{clean_view, clean_view_with_estimator, CleaningConfig, CleaningReport};
pub use composite::{crowd_remove_wrong_answer_composite, find_false_facts};
pub use deletion::{
    crowd_remove_wrong_answer, crowd_remove_wrong_answer_with, DeletionOutcome, DeletionStrategy,
};
pub use error::CleanError;
pub use figure1::{figure1_ground, figure1_spec};
pub use heuristics::{
    MostFrequentSelector, RandomSelector, ResponsibilitySelector, TrustSelector, TupleSelector,
};
pub use hitting_set::HittingSetInstance;
pub use insertion::{crowd_add_missing_answer, InsertionOptions, InsertionOutcome};
pub use machine::{
    FinishedSession, SessionMachine, SessionSpec, SessionState, SubmitError, SubmitOutcome,
};
pub use report::{UnresolvedItem, UnresolvedPhase};
pub use split::{
    InstrumentedSplit, MinCutSplit, NaiveSplit, ProvenanceSplit, RandomSplit, SplitStrategy,
    SplitStrategyKind,
};
pub use store::{
    decode_spec, deletion_from_str, deletion_to_str, spec_json, split_from_str, split_to_str,
    SessionStore,
};
