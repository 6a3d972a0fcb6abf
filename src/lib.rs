//! # QOCO — Query-Oriented Data Cleaning with Oracles
//!
//! A from-scratch Rust reproduction of *Query-Oriented Data Cleaning with
//! Oracles* (Bergman, Milo, Novgorodov, Tan — SIGMOD 2015). QOCO removes
//! wrong answers from, and adds missing answers to, the result of a
//! conjunctive query by interacting minimally with a crowd of domain-expert
//! oracles, deriving insertion/deletion edits on the underlying database.
//!
//! ## Quick start
//!
//! ```
//! use qoco::data::{tup, Database, Schema};
//! use qoco::query::parse_query;
//! use qoco::crowd::{PerfectOracle, SingleExpert};
//! use qoco::core::{clean_view, CleaningConfig};
//! use qoco::engine::answer_set;
//!
//! // a schema shared by the dirty database D and the ground truth D_G
//! let schema = Schema::builder()
//!     .relation("Teams", &["country", "continent"])
//!     .build()
//!     .unwrap();
//!
//! let mut d = Database::empty(schema.clone());
//! d.insert_named("Teams", qoco::data::tuple::Tuple::new(vec!["BRA".into(), "EU".into()])).unwrap(); // wrong
//!
//! let mut g = Database::empty(schema.clone());
//! g.insert_named("Teams", qoco::data::tuple::Tuple::new(vec!["ITA".into(), "EU".into()])).unwrap();
//!
//! let q = parse_query(&schema, r#"(x) :- Teams(x, "EU")"#).unwrap();
//!
//! // the crowd: here, a simulated perfect oracle consulting D_G
//! let mut crowd = SingleExpert::new(PerfectOracle::new(g));
//! let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
//!
//! assert_eq!(answer_set(&q, &mut d), vec![qoco::data::tuple::Tuple::new(vec!["ITA".into()])]);
//! assert_eq!(report.wrong_answers, 1);
//! assert_eq!(report.missing_answers, 1);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`data`] | values, tuples, schemas, indexed relations, databases, edits, distance/cleanliness metrics |
//! | [`query`] | conjunctive queries with inequalities: AST, parser, subqueries, `Q\|t` embedding, query graph, UCQs |
//! | [`engine`] | evaluation (all valid assignments), witnesses, satisfiability, why-not analysis |
//! | [`graph`] | Edmonds–Karp max-flow, Stoer–Wagner global min-cut |
//! | [`crowd`] | question types, perfect/imperfect oracles, majority voting, cost ledger, enumeration black-box |
//! | [`core`] | Algorithms 1–3, hitting sets, split strategies, baselines, the parallel multi-expert cleaner |
//! | [`datasets`] | the Soccer and DBGroup generators, noise injection, the evaluation queries |
//! | [`telemetry`] | spans, counters/histograms, JSONL export, session timelines (zero-cost when disabled) |
//! | [`serve`] | parked cleaning sessions over HTTP: the `qoco-serve` session registry and JSON API |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;

pub use qoco_core as core;
pub use qoco_crowd as crowd;
pub use qoco_data as data;
pub use qoco_datasets as datasets;
pub use qoco_engine as engine;
pub use qoco_graph as graph;
pub use qoco_query as query;
pub use qoco_telemetry as telemetry;

/// Commonly used items in one import.
pub mod prelude {
    pub use qoco_core::{
        clean_view, crowd_add_missing_answer, crowd_remove_wrong_answer, CleanError,
        CleaningConfig, CleaningReport, DeletionStrategy, InsertionOptions, SplitStrategyKind,
    };
    pub use qoco_crowd::{
        CrowdAccess, ImperfectOracle, MajorityCrowd, Oracle, PerfectOracle, RecordingCrowd,
        SingleExpert,
    };
    pub use qoco_data::{Database, Edit, EditLog, Fact, Schema, Tuple, Value};
    pub use qoco_datasets::{
        generate_dbgroup, generate_soccer, inject_noise, soccer_queries, DbGroupConfig, NoiseSpec,
        SoccerConfig,
    };
    pub use qoco_engine::{
        answer_set, evaluate, witnesses_for_answer, Assignment, MaterializedView,
    };
    pub use qoco_query::{parse_query, ConjunctiveQuery};
    pub use qoco_telemetry::{InMemoryCollector, JsonlCollector, SessionTimeline};
}
