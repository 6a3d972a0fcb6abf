//! Algorithm 3: the iterative mixed cleaner (paper Section 6.1).
//!
//! Repeatedly: verify every unverified answer of `Q(D)` against the crowd,
//! removing the wrong ones (Algorithm 1); then ask the crowd for missing
//! answers (`COMPL(Q(D))`) and add each (Algorithm 2). Fixing one kind of
//! error can surface errors of the other kind (Example 6.1: inserting
//! `Teams(ITA, EU)` adds the wrong answer `(Totti)` as a side effect), so
//! the outer loop runs until the view is verified complete and correct. By
//! Proposition 3.3 every edit moves `D` towards `D_G`, so with a truthful
//! oracle the loop converges.
//!
//! The same loop cleans a union `U = Q₁ ∪ … ∪ Qₖ` (the paper's Section 2
//! notes every result extends to unions of CQs); a CQ is the union of one
//! disjunct:
//!
//! * a tuple is a **true** answer of `U` iff it is a true answer of *some*
//!   disjunct, so verification asks `TRUE(Qᵢ, t)?` per disjunct until one
//!   says yes;
//! * a **wrong** answer is removed from *every* disjunct that still produces
//!   it, by one Algorithm 1 run per disjunct;
//! * `COMPL(Qᵢ(D))?` is asked per disjunct until one names a missing
//!   answer, which needs only *one* disjunct to produce it: with more than
//!   one disjunct the crowd is asked which one can host a witness (a
//!   satisfiability question on the embedded `Qᵢ|t`), and Algorithm 2 runs
//!   there.

use std::collections::BTreeSet;

use qoco_crowd::{CompletenessEstimator, CrowdAccess, CrowdError, GroundTruthEstimator};
use qoco_data::{Database, Tuple};
use qoco_engine::{Assignment, MaterializedView};
use qoco_query::{embed_answer, ConjunctiveQuery};

use crate::deletion::{crowd_remove_wrong_answer, DeletionStrategy};
use crate::error::CleanError;
use crate::insertion::{crowd_add_missing_answer, InsertionOptions};
pub use crate::report::CleaningReport;
use crate::report::{UnresolvedItem, UnresolvedPhase};
use crate::split::SplitStrategyKind;

/// Configuration for a full cleaning session.
#[derive(Debug, Clone, Copy)]
pub struct CleaningConfig {
    /// Deletion algorithm (Section 7.2 competitors).
    pub deletion: DeletionStrategy,
    /// Split strategy for insertions.
    pub split: SplitStrategyKind,
    /// Insertion options.
    pub insertion: InsertionOptions,
    /// Outer-loop budget; exceeded only with untruthful crowds.
    pub max_iterations: usize,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            deletion: DeletionStrategy::Qoco,
            split: SplitStrategyKind::Provenance,
            insertion: InsertionOptions::default(),
            max_iterations: 25,
        }
    }
}

/// Run Algorithm 3: clean `db` until `Q(D′) = Q(D_G)` as certified by the
/// crowd, using the ground-truth-free protocol (the crowd is the only
/// source of truth; `db` is never compared to `D_G` directly). `view` is a
/// [`ConjunctiveQuery`] or a [`UnionQuery`](qoco_query::UnionQuery).
///
/// The `estimator` is the enumeration black-box of Section 6.1 deciding
/// when the result is complete; pass a
/// [`GroundTruthEstimator`] for oracle-grade stopping or a
/// [`Chao92Estimator`](qoco_crowd::Chao92Estimator) for the statistical
/// variant. The crowd's `None` reply to `COMPL(Q(D))` also ends the
/// insertion phase.
pub fn clean_view_with_estimator<V, C>(
    view: &V,
    db: &mut Database,
    crowd: &mut C,
    config: CleaningConfig,
    estimator: &mut dyn CompletenessEstimator,
) -> Result<CleaningReport, CleanError>
where
    V: AsRef<[ConjunctiveQuery]> + ?Sized,
    C: CrowdAccess + ?Sized,
{
    let disjuncts = view.as_ref();
    let session_span = qoco_telemetry::span("clean.session")
        .field(
            "query",
            disjuncts
                .iter()
                .map(|q| q.name())
                .collect::<Vec<_>>()
                .join(" ∪ "),
        )
        .field("deletion", format!("{:?}", config.deletion))
        .field("split", format!("{:?}", config.split));
    let mut report = CleaningReport::new();
    let mut verified: BTreeSet<Tuple> = BTreeSet::new();
    // Answers the crowd could not be reached about: excluded from further
    // sweeps so the outer loop still terminates when the crowd dies.
    let mut skipped: BTreeSet<Tuple> = BTreeSet::new();
    let mut split = config.split.build();
    let mut first = true;
    // One materialized view per disjunct, maintained incrementally: every
    // edit derived by Algorithm 1/2 notifies all of them, so the sweeps
    // below read cached answers instead of re-evaluating per membership
    // check.
    let mut views: Vec<MaterializedView> = disjuncts
        .iter()
        .map(|q| MaterializedView::new(q.clone(), db))
        .collect();

    loop {
        // resynchronize if the caller's database moved out of band
        for v in &mut views {
            v.sync(db);
        }
        let unverified: Vec<Tuple> = cached_answers(&views)
            .into_iter()
            .filter(|t| !verified.contains(t) && !skipped.contains(t))
            .collect();
        if !first && unverified.is_empty() {
            break;
        }
        first = false;
        report.iterations += 1;
        if report.iterations > config.max_iterations {
            return Err(CleanError::IterationBudget {
                budget: config.max_iterations,
            });
        }
        let iter_span =
            qoco_telemetry::span("clean.iteration").field("iteration", report.iterations);

        // ---- Deletion part (lines 2–6) ----
        let del_span =
            qoco_telemetry::span("clean.deletion_phase").field("unverified", unverified.len());
        let del_before = crowd.stats();
        for t in unverified {
            // the answer may already have disappeared through earlier edits
            if !views.iter().any(|v| v.contains(&t)) {
                continue;
            }
            // true iff some disjunct certifies it: stop at the first YES
            let mut verdict = Ok(false);
            for q in disjuncts {
                let decision = qoco_telemetry::begin_decision();
                verdict = crowd.verify_answer(q, &t);
                qoco_telemetry::finish_decision(decision, "clean.verify_answer", || {
                    qoco_telemetry::DecisionDetail {
                        question: format!("TRUE({}, {t})?", q.name()),
                        outcome: match &verdict {
                            Ok(v) => v.to_string(),
                            Err(e) => format!("error: {e}"),
                        },
                        evidence: vec![
                            ("phase", "deletion-sweep".to_string()),
                            ("iteration", report.iterations.to_string()),
                        ],
                    }
                });
                if !matches!(verdict, Ok(false)) {
                    break;
                }
            }
            match verdict {
                Ok(true) => {
                    verified.insert(t);
                }
                Ok(false) => {
                    qoco_telemetry::event("clean.wrong_answer", || format!("{t}"));
                    let mut failure = None;
                    for (i, q) in disjuncts.iter().enumerate() {
                        if !views[i].contains(&t) {
                            continue;
                        }
                        let out = crowd_remove_wrong_answer(
                            q,
                            db,
                            &t,
                            crowd,
                            config.deletion,
                            &mut views,
                        )?;
                        report.deletion_upper_bound += out.upper_bound;
                        report.anomalies += out.anomalies;
                        report.edits.extend(out.edits);
                        if out.failure.is_some() {
                            failure = out.failure;
                            break;
                        }
                    }
                    if let Some(e) = failure {
                        qoco_telemetry::event("clean.unresolved", || format!("{t}: {e}"));
                        report.unresolved.push(UnresolvedItem {
                            phase: UnresolvedPhase::Delete,
                            answer: Some(t.clone()),
                            reason: e.to_string(),
                        });
                        skipped.insert(t);
                    } else {
                        // counted only when every removal actually completed
                        // — a crowd failure mid-removal leaves the answer in
                        // the view and is reported as unresolved instead
                        report.wrong_answers += 1;
                    }
                }
                Err(e) => {
                    qoco_telemetry::event("clean.unresolved", || format!("{t}: {e}"));
                    report.unresolved.push(UnresolvedItem {
                        phase: UnresolvedPhase::Verify,
                        answer: Some(t.clone()),
                        reason: e.to_string(),
                    });
                    skipped.insert(t);
                }
            }
        }
        report
            .deletion_stats
            .absorb(&crowd.stats().since(&del_before));
        del_span.finish();

        // ---- Insertion part (lines 7–9) ----
        let ins_span = qoco_telemetry::span("clean.insertion_phase");
        let ins_before = crowd.stats();
        loop {
            let known = cached_answers(&views);
            if estimator.likely_complete(known.len()) {
                break;
            }
            // ask each disjunct until one names a missing answer
            let mut reply = Ok(None);
            for q in disjuncts {
                let decision = qoco_telemetry::begin_decision();
                reply = crowd.next_missing_answer(q, &known);
                qoco_telemetry::finish_decision(decision, "clean.complete_result", || {
                    qoco_telemetry::DecisionDetail {
                        question: format!("COMPL({}(D))?", q.name()),
                        outcome: match &reply {
                            Ok(Some(t)) => format!("missing: {t}"),
                            Ok(None) => "complete".to_string(),
                            Err(e) => format!("error: {e}"),
                        },
                        evidence: vec![
                            ("phase", "insertion-sweep".to_string()),
                            ("iteration", report.iterations.to_string()),
                            ("known_answers", known.len().to_string()),
                        ],
                    }
                });
                if !matches!(reply, Ok(None)) {
                    break;
                }
            }
            let t = match reply {
                Ok(Some(t)) => t,
                Ok(None) => break,
                Err(e) => {
                    qoco_telemetry::event("clean.unresolved", || format!("{e}"));
                    report.unresolved.push(UnresolvedItem {
                        phase: UnresolvedPhase::Insert,
                        answer: None,
                        reason: e.to_string(),
                    });
                    break;
                }
            };
            estimator.observe(&t);
            qoco_telemetry::event("clean.missing_answer", || format!("{t}"));
            let mut achieved = false;
            let mut failure = None;
            for (i, q) in disjuncts.iter().enumerate() {
                if disjuncts.len() > 1 {
                    match can_host(disjuncts, i, &t, crowd) {
                        Ok(true) => {}
                        Ok(false) => continue,
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                let out = crowd_add_missing_answer(
                    q,
                    db,
                    &t,
                    crowd,
                    &mut *split,
                    config.insertion,
                    &mut views,
                )?;
                report.insertion_upper_bound += out.upper_bound;
                report.edits.extend(out.edits);
                if out.failure.is_some() {
                    failure = out.failure;
                    break;
                }
                if out.achieved {
                    achieved = true;
                    break;
                }
            }
            if let Some(e) = failure {
                qoco_telemetry::event("clean.unresolved", || format!("{t}: {e}"));
                report.unresolved.push(UnresolvedItem {
                    phase: UnresolvedPhase::Insert,
                    answer: Some(t.clone()),
                    reason: e.to_string(),
                });
                skipped.insert(t);
                break;
            }
            report.missing_answers += 1;
            if achieved {
                verified.insert(t);
            } else {
                report.anomalies += 1;
            }
        }
        report
            .insertion_stats
            .absorb(&crowd.stats().since(&ins_before));
        ins_span.finish();
        iter_span.finish();
    }

    report.total_stats = report.deletion_stats;
    report.total_stats.absorb(&report.insertion_stats);
    session_span
        .field("iterations", report.iterations)
        .field("edits", report.edits.len())
        .finish();
    Ok(report)
}

/// [`clean_view_with_estimator`] with a permissive estimator: the crowd's
/// `COMPL(Q(D))` replies alone decide completeness — the setting of the
/// paper's simulated-oracle experiments.
pub fn clean_view<V, C>(
    view: &V,
    db: &mut Database,
    crowd: &mut C,
    config: CleaningConfig,
) -> Result<CleaningReport, CleanError>
where
    V: AsRef<[ConjunctiveQuery]> + ?Sized,
    C: CrowdAccess + ?Sized,
{
    // usize::MAX distinct answers will never be reached: defer fully to the
    // crowd's completeness judgement.
    let mut estimator = GroundTruthEstimator::new(usize::MAX);
    clean_view_with_estimator(view, db, crowd, config, &mut estimator)
}

/// The view's cached answers: a single disjunct's set as it is, several
/// disjuncts' sets merged, sorted and deduplicated.
fn cached_answers(views: &[MaterializedView]) -> Vec<Tuple> {
    if let [v] = views {
        return v.answers();
    }
    let mut out: Vec<Tuple> = views.iter().flat_map(|v| v.answers()).collect();
    out.sort();
    out.dedup();
    out
}

/// `SAT(∅, Qᵢ|t)?`: can disjunct `i` host a witness of the missing answer
/// `t`? A disjunct `t` cannot be embedded into is skipped unasked.
fn can_host<C: CrowdAccess + ?Sized>(
    disjuncts: &[ConjunctiveQuery],
    i: usize,
    t: &Tuple,
    crowd: &mut C,
) -> Result<bool, CrowdError> {
    let Ok(q_t) = embed_answer(&disjuncts[i], t.values()) else {
        return Ok(false);
    };
    let decision = qoco_telemetry::begin_decision();
    let hostable = crowd.verify_satisfiable(&q_t, &Assignment::new());
    qoco_telemetry::finish_decision(decision, "union.pick_host_disjunct", || {
        qoco_telemetry::DecisionDetail {
            question: format!("SAT(∅, {})?", q_t.name()),
            outcome: match &hostable {
                Ok(v) => v.to_string(),
                Err(e) => format!("error: {e}"),
            },
            evidence: vec![
                ("disjunct", format!("{}/{}", i + 1, disjuncts.len())),
                ("missing_answer", t.to_string()),
                (
                    "rationale",
                    "a missing union answer needs one hosting disjunct; \
                     insertion runs on the first satisfiable embedding"
                        .to_string(),
                ),
            ],
        }
    });
    hostable
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_crowd::{PerfectOracle, SingleExpert};
    use qoco_data::{diff, tup, Schema};
    use qoco_engine::{answer_set, union_answer_set};
    use qoco_query::{parse_query, UnionQuery};
    use std::sync::Arc;

    /// Example 6.1's full scenario: the dirty D has
    ///  * missing Teams(ITA, EU) → (Pirlo) and (Totti) missing from Q2(D);
    ///  * false Goals(Totti, 09.06.06) → once Teams(ITA,EU) is added,
    ///    (Totti) would wrongly appear — unless QOCO removes the false
    ///    goal when it surfaces.
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
        for (c, k) in [("GER", "EU"), ("ESP", "EU")] {
            d.insert_named("Teams", tup![c, k]).unwrap();
        }
        d.insert_named("Players", tup!["Pirlo", "ITA", 1979, "ITA"])
            .unwrap();
        d.insert_named("Players", tup!["Totti", "ITA", 1976, "ITA"])
            .unwrap();
        d.insert_named("Goals", tup!["Pirlo", "09.06.06"]).unwrap();
        d.insert_named("Goals", tup!["Totti", "09.06.06"]).unwrap(); // false

        let mut g = Database::empty(schema.clone());
        g.insert_named("Games", tup!["09.06.06", "ITA", "FRA", "Final", "5:3"])
            .unwrap();
        for (c, k) in [("GER", "EU"), ("ESP", "EU"), ("ITA", "EU")] {
            g.insert_named("Teams", tup![c, k]).unwrap();
        }
        g.insert_named("Players", tup!["Pirlo", "ITA", 1979, "ITA"])
            .unwrap();
        g.insert_named("Players", tup!["Totti", "ITA", 1976, "ITA"])
            .unwrap();
        g.insert_named("Goals", tup!["Pirlo", "09.06.06"]).unwrap();

        let q = parse_query(
            &schema,
            r#"Q2(x) :- Players(x, y, z, w), Goals(x, d), Games(d, y, v, "Final", u), Teams(y, "EU")."#,
        )
        .unwrap();
        (schema, d, g, q)
    }

    #[test]
    fn converges_to_the_true_result() {
        let (_, mut d, g, q) = setup();
        let true_answers = answer_set(&q, &g);
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(answer_set(&q, &d), true_answers);
        // Pirlo was missing; inserting Teams(ITA, EU) surfaced the wrong
        // (Totti) in a later iteration, which got removed.
        assert!(report.missing_answers >= 1);
        assert!(report.wrong_answers >= 1);
        assert!(report.iterations >= 2);
        // Q(D') = Q(D_G) even though D' ≠ D_G is allowed; here the false
        // goal fact must have been deleted:
        let goals = q.schema().rel_id("Goals").unwrap();
        assert!(!d.contains(&qoco_data::Fact::new(goals, tup!["Totti", "09.06.06"])));
    }

    #[test]
    fn every_edit_moves_towards_ground_truth() {
        // Proposition 3.3: replay the edit log and check the distance to
        // D_G never increases.
        let (_, d0, g, q) = setup();
        let mut d = d0.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        let mut replay = d0.clone();
        let mut dist = diff(&replay, &g).unwrap().distance();
        for e in report.edits.edits() {
            replay.apply(e).unwrap();
            let next = diff(&replay, &g).unwrap().distance();
            assert!(next <= dist, "edit {e:?} increased the distance");
            dist = next;
        }
    }

    #[test]
    fn clean_database_needs_no_edits() {
        let (_, _, g, q) = setup();
        let mut d = g.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert!(report.edits.is_empty());
        assert_eq!(report.wrong_answers, 0);
        assert_eq!(report.missing_answers, 0);
        // the single true answer (Pirlo; Totti has no goal in D_G) was
        // verified exactly once
        assert_eq!(report.total_stats.verify_answer_questions, 1);
    }

    #[test]
    fn empty_view_with_missing_answers_is_filled() {
        // first-iteration case: Q(D) empty but Q(D_G) not (line 1's
        // FirstIter flag).
        let (_, mut d, g, q) = setup();
        // remove everything that supports answers in D
        let goals = q.schema().rel_id("Goals").unwrap();
        d.remove(&qoco_data::Fact::new(goals, tup!["Pirlo", "09.06.06"]))
            .unwrap();
        d.remove(&qoco_data::Fact::new(goals, tup!["Totti", "09.06.06"]))
            .unwrap();
        assert!(answer_set(&q, &d).is_empty());
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let report = clean_view(&q, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        let true_answers = answer_set(&q, &g);
        assert_eq!(answer_set(&q, &d), true_answers);
        assert!(report.missing_answers >= 1);
    }

    #[test]
    fn ground_truth_estimator_stops_insertions_early() {
        let (_, mut d, g, q) = setup();
        // an estimator that claims completeness at 0 answers: no insertion
        // questions at all
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let mut estimator = GroundTruthEstimator::new(0);
        let report = clean_view_with_estimator(
            &q,
            &mut d,
            &mut crowd,
            CleaningConfig::default(),
            &mut estimator,
        )
        .unwrap();
        assert_eq!(report.missing_answers, 0);
        assert_eq!(report.total_stats.complete_result_tasks, 0);
    }

    #[test]
    fn all_strategy_combinations_converge() {
        let (_, d, g, q) = setup();
        let strategies = [
            (DeletionStrategy::Qoco, SplitStrategyKind::Provenance),
            (DeletionStrategy::QocoMinus, SplitStrategyKind::MinCut),
            (DeletionStrategy::Random(3), SplitStrategyKind::Random(3)),
            (DeletionStrategy::Qoco, SplitStrategyKind::Naive),
        ];
        let true_answers = answer_set(&q, &g);
        for (deletion, split) in strategies {
            let mut di = d.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
            let config = CleaningConfig {
                deletion,
                split,
                ..Default::default()
            };
            clean_view(&q, &mut di, &mut crowd, config).unwrap();
            assert_eq!(
                answer_set(&q, &di),
                true_answers,
                "strategy {deletion:?}/{split:?} failed to converge"
            );
        }
    }

    /// Union view: teams that won a final ∪ teams that lost a final
    /// ("teams that played a final").
    fn finalists() -> (Database, Database, UnionQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        d.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        // false: BRA never beat FRA in a final
        d.insert_named("Games", tup!["99.99.99", "BRA", "FRA", "Final", "9:0"])
            .unwrap();

        let mut g = Database::empty(schema.clone());
        g.insert_named("Games", tup!["13.07.14", "GER", "ARG", "Final", "1:0"])
            .unwrap();
        g.insert_named("Games", tup!["11.07.10", "ESP", "NED", "Final", "1:0"])
            .unwrap();

        let q_win = parse_query(&schema, r#"W(x) :- Games(d, x, y, "Final", u)"#).unwrap();
        let q_lose = parse_query(&schema, r#"L(x) :- Games(d, y, x, "Final", u)"#).unwrap();
        let uq = UnionQuery::new("Finalists", vec![q_win, q_lose]).unwrap();
        (d, g, uq)
    }

    #[test]
    fn union_cleaning_converges() {
        let (mut d, g, uq) = finalists();
        let truth = union_answer_set(&uq, &g);
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let report = clean_view(&uq, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert_eq!(union_answer_set(&uq, &d), truth);
        // BRA and FRA were wrong (and fixed by the same fact deletion);
        // ESP and NED were missing — inserting the 2010 final for ESP
        // fixes NED as a side effect, so at least one is reported
        assert!(report.wrong_answers >= 1);
        assert!(report.missing_answers >= 1);
        assert_eq!(report.anomalies, 0);
    }

    #[test]
    fn answer_true_via_second_disjunct_is_kept() {
        let (mut d, g, uq) = finalists();
        // ARG is a true answer via the *loser* disjunct only; cleaning must
        // not remove it even though the winner disjunct rejects it
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        clean_view(&uq, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert!(union_answer_set(&uq, &d).contains(&tup!["ARG"]));
    }

    #[test]
    fn clean_union_on_clean_db_is_free() {
        let (_, g, uq) = finalists();
        let mut d = g.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let report = clean_view(&uq, &mut d, &mut crowd, CleaningConfig::default()).unwrap();
        assert!(report.edits.is_empty());
    }
}
