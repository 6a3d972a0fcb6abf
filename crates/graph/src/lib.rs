//! # qoco-graph — graph algorithms for QOCO
//!
//! The Min-Cut query-split strategy (paper Section 5.2) cuts the weighted
//! *query graph* into two connected halves. A query split has no
//! distinguished source or sink, so the crate provides one algorithm, built
//! from scratch: [`mincut`], the Stoer–Wagner global minimum cut. The paper
//! cites Edmonds–Karp \[20\] for this step; an s-t max-flow would need a
//! source/sink pair the split does not have, so it is not implemented.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mincut;

pub use mincut::{global_min_cut, CutResult, WeightedGraph};
