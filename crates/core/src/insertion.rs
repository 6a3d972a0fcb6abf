//! Algorithm 2: `CrowdAddMissingAnswer` (paper Section 5).
//!
//! Given a missing answer `t ∈ Q(D_G) − Q(D)`:
//!
//! 1. embed `t` into the query (`Q|t`) and insert the *ground* body atoms
//!    outright — every witness of `t` in `D_G` contains them, so they must
//!    be true (Algorithm 2 lines 1–2);
//! 2. split `Q|t` into subqueries and evaluate each against `D`; every
//!    partial assignment found is shown to the crowd as a satisfiability
//!    check (`CrowdVerify`), and satisfiable ones are completed into a
//!    witness (`COMPL(α, Q|t)`), whose new facts become insertion edits;
//! 3. subqueries whose assignments all fail are split recursively;
//! 4. if no split-guided assignment works, fall back to the naïve approach:
//!    ask the crowd to produce the entire witness.

use std::collections::{BTreeSet, VecDeque};

use qoco_crowd::{CrowdAccess, CrowdError};
use qoco_data::{Database, Edit, EditLog, Fact, Tuple};
use qoco_engine::{delta_satisfiable, evaluate, is_satisfiable, Assignment, MaterializedView};
use qoco_query::{embed_answer, ConjunctiveQuery};
use qoco_telemetry::DecisionDetail;

use crate::error::CleanError;
use crate::split::SplitStrategy;
use crate::tracked::apply_tracked;

/// Options for the insertion algorithm.
#[derive(Debug, Clone, Copy)]
pub struct InsertionOptions {
    /// Cap on the partial assignments examined per subquery (guards
    /// pathological joins; the paper's experiments never get near it).
    pub max_assignments_per_subquery: usize,
}

impl Default for InsertionOptions {
    fn default() -> Self {
        InsertionOptions {
            max_assignments_per_subquery: 256,
        }
    }
}

/// The outcome of one answer-insertion run.
#[derive(Debug, Clone)]
pub struct InsertionOutcome {
    /// Insertion edits applied to the database, in order.
    pub edits: EditLog,
    /// Satisfiability questions asked.
    pub satisfiability_questions: usize,
    /// Variables the crowd filled in across completions.
    pub filled_variables: usize,
    /// The naïve upper bound: the number of distinct variables of `Q|t`
    /// (what the crowd would fill with no split at all, Section 7.2).
    pub upper_bound: usize,
    /// Whether the answer now appears in `Q(D)` (always true with a perfect
    /// oracle; can be false if an imperfect crowd fails to complete).
    pub achieved: bool,
    /// Set when the crowd became unavailable mid-run. Facts inserted
    /// *before* the failure were individually confirmed and stay applied;
    /// the answer may still be missing and should be reported unresolved.
    pub failure: Option<CrowdError>,
}

/// Run Algorithm 2 to add the missing answer `t` to `Q(D)` using the given
/// split strategy.
///
/// Every insertion edit notifies the materialized `views` incrementally
/// (pass `&mut []` to track none). The post-insertion "is `t` now an
/// answer?" recheck uses seeded delta satisfiability probes over the facts
/// just inserted rather than a full `Q|t` evaluation — sound because the
/// answer was missing beforehand, so any new witness must use at least one
/// newly inserted fact.
pub fn crowd_add_missing_answer<C: CrowdAccess + ?Sized>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    t: &Tuple,
    crowd: &mut C,
    split: &mut dyn SplitStrategy,
    opts: InsertionOptions,
    views: &mut [MaterializedView],
) -> Result<InsertionOutcome, CleanError> {
    let span = qoco_telemetry::span("insertion.add_answer")
        .field("answer", t.to_string())
        .field("split", split.name());
    let q_t = embed_answer(q, t.values())?;
    let upper_bound = q_t.vars().len();
    let mut edits = EditLog::new();
    let stats_before = crowd.stats();

    // Lines 1–2: ground atoms of body(Q|t) are facts of every witness of t
    // in the ground truth, hence true — insert them without asking.
    for atom in q_t.atoms() {
        if atom.is_ground() {
            let fact = Assignment::new().ground_atom(atom).expect("ground atom");
            if !db.contains(&fact) {
                let e = Edit::insert(fact);
                apply_tracked(db, views, &e)?;
                edits.push(e);
            }
        }
    }

    let mut achieved = !qt_missing(&q_t, db);
    let mut asked: BTreeSet<Assignment> = BTreeSet::new();
    // The queue pairs each subquery with its split-tree path ("Q|t.L.R"
    // = right child of the left child of the root), so every question's
    // provenance names where in the split tree it arose. Paths are only
    // materialized while telemetry is on; otherwise they stay empty
    // (allocation-free) strings.
    let provenance_on = qoco_telemetry::enabled();
    let child_path = |parent: &str, side: &str| {
        if provenance_on {
            format!("{parent}.{side}")
        } else {
            String::new()
        }
    };
    let mut queue: VecDeque<(ConjunctiveQuery, String)> = VecDeque::new();
    if !achieved {
        if let Some((a, b)) = split.split(&q_t, db) {
            queue.push_back((a, child_path("Q|t", "L")));
            queue.push_back((b, child_path("Q|t", "R")));
        }
    }

    let mut failure: Option<CrowdError> = None;

    // Main loop (lines 4–17).
    'outer: while !achieved && failure.is_none() {
        let Some((curr, path)) = queue.pop_front() else {
            break;
        };
        let result = evaluate(&curr, db);
        let mut assignments = result.assignments;
        assignments.truncate(opts.max_assignments_per_subquery);
        for alpha in assignments {
            if !asked.insert(alpha.clone()) {
                continue; // already examined this partial assignment
            }
            // CrowdVerify(α(body(Q|t))): is α satisfiable w.r.t. Q|t, D_G?
            let decision = qoco_telemetry::begin_decision();
            let verdict = crowd.verify_satisfiable(&q_t, &alpha);
            qoco_telemetry::finish_decision(decision, "insertion.verify_satisfiable", || {
                DecisionDetail {
                    question: format!("SAT({alpha:?}, {})?", q_t.name()),
                    outcome: match &verdict {
                        Ok(v) => v.to_string(),
                        Err(e) => format!("error: {e}"),
                    },
                    evidence: vec![
                        ("split_path", path.clone()),
                        ("subquery", curr.display().to_string()),
                        ("assignment", format!("{alpha:?}")),
                    ],
                }
            });
            match verdict {
                Ok(true) => {}
                Ok(false) => continue,
                Err(e) => {
                    failure = Some(e);
                    break 'outer;
                }
            }
            let total = if alpha.is_total_for(&q_t) {
                Some(alpha.clone())
            } else {
                // COMPL(α, Q|t)
                let decision = qoco_telemetry::begin_decision();
                let completion = crowd.complete(&q_t, &alpha);
                qoco_telemetry::finish_decision(decision, "insertion.complete", || {
                    DecisionDetail {
                        question: format!("COMPL({alpha:?}, {})", q_t.name()),
                        outcome: match &completion {
                            Ok(Some(total)) => format!("completed: {total:?}"),
                            Ok(None) => "unsatisfiable".to_string(),
                            Err(e) => format!("error: {e}"),
                        },
                        evidence: vec![
                            ("split_path", path.clone()),
                            ("subquery", curr.display().to_string()),
                            ("assignment", format!("{alpha:?}")),
                        ],
                    }
                });
                match completion {
                    Ok(total) => total,
                    Err(e) => {
                        failure = Some(e);
                        break 'outer;
                    }
                }
            };
            if let Some(total) = total {
                let fresh = apply_witness_insertions(&q_t, db, views, &total, &mut edits)?;
                // The answer was missing before these insertions, so a new
                // witness must use one of the fresh facts: seeded probes
                // replace the full `Q|t` evaluation. No fresh facts ⇒ the
                // database is unchanged and the answer is still missing.
                achieved = fresh.iter().any(|f| delta_satisfiable(&q_t, db, f));
                if achieved {
                    break 'outer;
                }
            }
        }
        // Line 16–17: recurse into smaller subqueries.
        if curr.atoms().len() > 1 {
            if let Some((a, b)) = split.split(&curr, db) {
                queue.push_back((a, child_path(&path, "L")));
                queue.push_back((b, child_path(&path, "R")));
            }
        }
    }

    // Line 18: fall back to a full witness request.
    if !achieved && failure.is_none() {
        let decision = qoco_telemetry::begin_decision();
        let completion = crowd.complete(&q_t, &Assignment::new());
        qoco_telemetry::finish_decision(decision, "insertion.complete", || DecisionDetail {
            question: format!("COMPL(∅, {})", q_t.name()),
            outcome: match &completion {
                Ok(Some(total)) => format!("completed: {total:?}"),
                Ok(None) => "unsatisfiable".to_string(),
                Err(e) => format!("error: {e}"),
            },
            evidence: vec![
                ("split_path", "naive-fallback".to_string()),
                ("subquery", q_t.display().to_string()),
            ],
        });
        match completion {
            Ok(Some(total)) => {
                let fresh = apply_witness_insertions(&q_t, db, views, &total, &mut edits)?;
                achieved = fresh.iter().any(|f| delta_satisfiable(&q_t, db, f));
            }
            Ok(None) => {}
            Err(e) => failure = Some(e),
        }
    }

    let stats = crowd.stats().since(&stats_before);
    span.field("achieved", achieved)
        .field("insertions", edits.insertions())
        .finish();
    Ok(InsertionOutcome {
        edits,
        satisfiability_questions: stats.satisfiable_questions,
        filled_variables: stats.filled_variables,
        upper_bound,
        achieved,
        failure,
    })
}

/// Is `Q|t(D)` still empty (the answer still missing)?
fn qt_missing(q_t: &ConjunctiveQuery, db: &Database) -> bool {
    !is_satisfiable(q_t, db, &Assignment::new())
}

/// Insert the facts of `total(body(Q|t))` that are absent from `db`,
/// notifying `views` per edit. Returns the newly inserted facts (the seeds
/// for the delta satisfiability recheck).
fn apply_witness_insertions(
    q_t: &ConjunctiveQuery,
    db: &mut Database,
    views: &mut [MaterializedView],
    total: &Assignment,
    edits: &mut EditLog,
) -> Result<Vec<Fact>, CleanError> {
    let mut fresh = Vec::new();
    for atom in q_t.atoms() {
        let Some(fact) = total.ground_atom(atom) else {
            // A lying crowd can return a non-total "completion"; skip it.
            return Ok(fresh);
        };
        if !db.contains(&fact) {
            let e = Edit::insert(fact.clone());
            apply_tracked(db, views, &e)?;
            edits.push(e);
            fresh.push(fact);
        }
    }
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{MinCutSplit, NaiveSplit, ProvenanceSplit, RandomSplit};
    use qoco_crowd::{PerfectOracle, SingleExpert};
    use qoco_data::{tup, Schema};
    use qoco_engine::answer_set;
    use qoco_query::parse_query;
    use std::sync::Arc;

    /// The Example 5.4 scenario: Teams(ITA, EU) missing ⇒ (Pirlo) missing
    /// from Q2(D).
    fn setup() -> (Arc<Schema>, Database, Database, ConjunctiveQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .relation("Players", &["name", "team", "birth_year", "birth_place"])
            .relation("Goals", &["name", "date"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        d.insert_named("Games", tup!["09.06.06", "ITA", "FRA", "Final", "5:3"])
            .unwrap();
        for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("BRA", "SA")] {
            d.insert_named("Teams", tup![c, k]).unwrap();
        }
        d.insert_named("Players", tup!["Pirlo", "ITA", 1979, "ITA"])
            .unwrap();
        d.insert_named("Goals", tup!["Pirlo", "09.06.06"]).unwrap();
        // ground truth: D plus the missing Teams fact
        let mut g = d.clone();
        g.insert_named("Teams", tup!["ITA", "EU"]).unwrap();
        let q = parse_query(
            &schema,
            r#"Q2(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, "Final", u), Teams(y, "EU")."#,
        )
        .unwrap();
        (schema, d, g, q)
    }

    #[test]
    fn provenance_split_adds_pirlo_with_one_insertion() {
        let (_, mut d, g, q) = setup();
        assert!(!answer_set(&q, &d).contains(&tup!["Pirlo"]));
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_add_missing_answer(
            &q,
            &mut d,
            &tup!["Pirlo"],
            &mut crowd,
            &mut ProvenanceSplit,
            InsertionOptions::default(),
            &mut [],
        )
        .unwrap();
        assert!(out.achieved);
        assert!(answer_set(&q, &d).contains(&tup!["Pirlo"]));
        // only Teams(ITA, EU) needed inserting (Example 5.4's conclusion)
        assert_eq!(out.edits.insertions(), 1);
        let inserted = &out.edits.edits()[0].fact;
        assert_eq!(inserted.tuple, tup!["ITA", "EU"]);
    }

    #[test]
    fn provenance_beats_naive_on_filled_variables() {
        let (_, d, g, q) = setup();
        let run = |mut split: Box<dyn SplitStrategy>, d: &Database| {
            let mut di = d.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
            crowd_add_missing_answer(
                &q,
                &mut di,
                &tup!["Pirlo"],
                &mut crowd,
                &mut *split,
                InsertionOptions::default(),
                &mut [],
            )
            .unwrap()
        };
        let prov = run(Box::new(ProvenanceSplit), &d);
        let naive = run(Box::new(NaiveSplit), &d);
        assert!(prov.achieved && naive.achieved);
        // Naïve asks the crowd to fill all 6 variables of Q2|t; with the
        // provenance split, the crowd fills at most the one subquery
        // variable (y) — and the final completion costs nothing extra
        // because the winning partial assignment was already total.
        assert_eq!(naive.filled_variables, q.vars().len() - 1); // x is bound by t
        assert!(
            prov.filled_variables < naive.filled_variables,
            "prov {} vs naive {}",
            prov.filled_variables,
            naive.filled_variables
        );
    }

    #[test]
    fn all_split_strategies_achieve_the_insertion() {
        let (_, d, g, q) = setup();
        let strategies: Vec<Box<dyn SplitStrategy>> = vec![
            Box::new(ProvenanceSplit),
            Box::new(MinCutSplit),
            Box::new(RandomSplit::new(5)),
            Box::new(NaiveSplit),
        ];
        for mut s in strategies {
            let mut di = d.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
            let out = crowd_add_missing_answer(
                &q,
                &mut di,
                &tup!["Pirlo"],
                &mut crowd,
                &mut *s,
                InsertionOptions::default(),
                &mut [],
            )
            .unwrap();
            assert!(out.achieved, "strategy {} failed", s.name());
            assert!(answer_set(&q, &di).contains(&tup!["Pirlo"]));
        }
    }

    #[test]
    fn ground_atoms_are_inserted_without_questions() {
        // Query whose embedded body contains a fully-ground atom.
        let schema = Schema::builder()
            .relation("A", &["x"])
            .relation("B", &["x", "y"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        d.insert_named("B", tup!["t", "z"]).unwrap();
        let mut g = Database::empty(schema.clone());
        g.insert_named("A", tup!["t"]).unwrap();
        g.insert_named("B", tup!["t", "z"]).unwrap();
        let q = parse_query(&schema, "(x) :- A(x), B(x, y)").unwrap();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_add_missing_answer(
            &q,
            &mut d,
            &tup!["t"],
            &mut crowd,
            &mut ProvenanceSplit,
            InsertionOptions::default(),
            &mut [],
        )
        .unwrap();
        assert!(out.achieved);
        // A("t") is ground in Q|t and inserted for free:
        assert_eq!(out.satisfiability_questions + out.filled_variables, 0);
        assert_eq!(crowd.stats().complete_tasks, 0);
    }

    #[test]
    fn upper_bound_counts_qt_variables() {
        let (_, mut d, g, q) = setup();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_add_missing_answer(
            &q,
            &mut d,
            &tup!["Pirlo"],
            &mut crowd,
            &mut ProvenanceSplit,
            InsertionOptions::default(),
            &mut [],
        )
        .unwrap();
        // Q2 has 7 variables; x is bound by the answer → 6 remain in Q|t.
        assert_eq!(out.upper_bound, 6);
    }

    #[test]
    fn unachievable_answer_with_perfect_oracle_stays_missing() {
        let (_, mut d, g, q) = setup();
        // (Messi) is not an answer of Q2(D_G): the oracle will refuse every
        // completion, and the outcome reports achieved = false.
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_add_missing_answer(
            &q,
            &mut d,
            &tup!["Messi"],
            &mut crowd,
            &mut ProvenanceSplit,
            InsertionOptions::default(),
            &mut [],
        )
        .unwrap();
        assert!(!out.achieved);
        assert!(out.edits.is_empty());
    }

    #[test]
    fn already_present_answer_is_free() {
        let (_, mut d, g, q) = setup();
        d.insert_named("Teams", tup!["ITA", "EU"]).unwrap();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_add_missing_answer(
            &q,
            &mut d,
            &tup!["Pirlo"],
            &mut crowd,
            &mut ProvenanceSplit,
            InsertionOptions::default(),
            &mut [],
        )
        .unwrap();
        assert!(out.achieved);
        assert!(out.edits.is_empty());
        assert_eq!(out.satisfiability_questions, 0);
        assert_eq!(out.filled_variables, 0);
    }

    #[test]
    fn violated_embedding_is_an_error() {
        let schema = Schema::builder()
            .relation("G", &["w", "r"])
            .build()
            .unwrap();
        let d = Database::empty(schema.clone());
        let g = Database::empty(schema.clone());
        let q = parse_query(&schema, "(x, y) :- G(x, y), x != y").unwrap();
        let mut di = d.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let err = crowd_add_missing_answer(
            &q,
            &mut di,
            &tup!["a", "a"],
            &mut crowd,
            &mut NaiveSplit,
            InsertionOptions::default(),
            &mut [],
        )
        .unwrap_err();
        assert!(matches!(err, CleanError::Query(_)));
    }
}
