//! # qoco-bench — the figure-regeneration harness
//!
//! One function per table/figure of the paper's evaluation (Section 7).
//! Each returns a [`Table`] whose rows mirror the series the paper plots;
//! the `figures` binary prints them. Absolute numbers differ from the paper
//! (synthetic data, different noise placement) but the comparative shape —
//! who asks fewer questions, by roughly what factor — is the reproduction
//! target; see EXPERIMENTS.md for the side-by-side reading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision_check;
pub mod experiments;
pub mod flame_check;
pub mod profile_cmd;
pub mod request_check;
pub mod session_check;
pub mod table;
pub mod trace_check;
pub mod watch_replay;

/// The dependency-free JSON parser, owned by the telemetry crate.
pub use qoco_telemetry::json;

pub use experiments::*;
pub use table::Table;
