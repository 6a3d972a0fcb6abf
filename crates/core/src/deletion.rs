//! Algorithm 1: `CrowdRemoveWrongAnswer` (paper Section 4), plus the
//! baselines of Section 7.2.
//!
//! Given a wrong answer `t ∈ Q(D) − Q(D_G)`, compute its witness sets and
//! interactively find a set of false facts hitting every witness:
//!
//! 1. tuples in singleton witnesses are deleted *without asking* — by
//!    Theorem 4.5 they belong to every hitting set (QOCO only);
//! 2. otherwise the selection heuristic picks a tuple (most frequent by
//!    default) and the crowd is asked `TRUE(R(ā))?`;
//! 3. a YES strips the tuple from every witness; a NO applies a deletion
//!    edit (notifying any tracked materialized views) and destroys the
//!    witnesses containing it;
//! 4. repeat until no witnesses remain.

use qoco_crowd::{CrowdAccess, CrowdError};
use qoco_data::{Database, Edit, EditLog, Fact, Tuple};
use qoco_engine::{witnesses_for_answer, MaterializedView};
use qoco_query::ConjunctiveQuery;
use qoco_telemetry::DecisionDetail;

use crate::error::CleanError;
use crate::heuristics::{MostFrequentSelector, RandomSelector, TupleSelector};
use crate::hitting_set::HittingSetInstance;
use crate::tracked::apply_tracked;

/// Which deletion algorithm to run (Section 7.2's competitors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeletionStrategy {
    /// Full Algorithm 1: greedy most-frequent + the unique-minimal-
    /// hitting-set shortcut.
    Qoco,
    /// QOCO⁻: greedy most-frequent but *no* unique-hitting-set detection —
    /// keeps asking about every remaining tuple.
    QocoMinus,
    /// Random: verify uniformly random witness tuples (seeded).
    Random(u64),
}

impl DeletionStrategy {
    /// Human-readable label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            DeletionStrategy::Qoco => "QOCO",
            DeletionStrategy::QocoMinus => "QOCO-",
            DeletionStrategy::Random(_) => "Random",
        }
    }
}

/// The outcome of one answer-removal run.
#[derive(Debug, Clone)]
pub struct DeletionOutcome {
    /// Deletion edits applied to the database, in order.
    pub edits: EditLog,
    /// Number of `TRUE(R(ā))?` questions asked for this answer.
    pub questions: usize,
    /// Distinct tuples across the initial witness set — the naïve upper
    /// bound on questions (Section 7.2: "the total number of questions that
    /// one would ask with the naïve algorithm corresponds to the number of
    /// distinct tuples in the witness set").
    pub upper_bound: usize,
    /// Number of witnesses that emptied out without containing any
    /// crowd-confirmed false tuple — zero with a truthful oracle, positive
    /// only when an imperfect crowd mislabels facts.
    pub anomalies: usize,
    /// Set when the crowd became unavailable mid-run. The edits derived
    /// *before* the failure are confirmed-false deletions and were still
    /// applied (each moves `D` towards `D_G`); the answer itself may remain
    /// in `Q(D)` and should be reported unresolved.
    pub failure: Option<CrowdError>,
}

/// Run Algorithm 1 (or a baseline) to remove `t` from `Q(D)`.
///
/// Each deletion edit is applied to `db` as soon as it is derived (the
/// witness sets are enumerated once up front, so early application is
/// safe) and every materialized view in `views` is notified, letting
/// callers reuse cached answer sets between removals instead of
/// re-evaluating the query; pass `&mut []` to track none. With a perfect
/// oracle the post-condition `t ∉ Q(D′)` always holds; with imperfect
/// crowds a witness can survive mislabeling (counted in
/// [`DeletionOutcome::anomalies`]).
pub fn crowd_remove_wrong_answer<C: CrowdAccess + ?Sized>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    t: &Tuple,
    crowd: &mut C,
    strategy: DeletionStrategy,
    views: &mut [MaterializedView],
) -> Result<DeletionOutcome, CleanError> {
    let mut selector: Box<dyn TupleSelector> = match strategy {
        DeletionStrategy::Qoco | DeletionStrategy::QocoMinus => Box::new(MostFrequentSelector),
        DeletionStrategy::Random(seed) => Box::new(RandomSelector::new(seed)),
    };
    let use_singleton_shortcut = matches!(strategy, DeletionStrategy::Qoco);
    crowd_remove_wrong_answer_with(
        q,
        db,
        t,
        crowd,
        &mut *selector,
        use_singleton_shortcut,
        views,
    )
}

/// [`crowd_remove_wrong_answer`] with an explicit selection heuristic —
/// the hook the heuristics ablation uses (the paper notes the greedy
/// most-frequent choice "could be replaced by others", Section 4).
pub fn crowd_remove_wrong_answer_with<C: CrowdAccess + ?Sized>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    t: &Tuple,
    crowd: &mut C,
    selector: &mut dyn TupleSelector,
    use_singleton_shortcut: bool,
    views: &mut [MaterializedView],
) -> Result<DeletionOutcome, CleanError> {
    let span = qoco_telemetry::span("deletion.remove_answer").field("answer", t.to_string());
    let witnesses = witnesses_for_answer(q, db, t);
    qoco_telemetry::counter_add("deletion.witnesses_enumerated", witnesses.len() as u64);
    let mut instance = HittingSetInstance::new(witnesses);
    let upper_bound = instance.universe().len();

    if !instance.is_done() && qoco_telemetry::enabled() {
        // Provenance: record the plan — the witness system, the naïve
        // upper bound, and the exact hitting-set lower bound the budget
        // report compares against. Guarded on enabled() so the exact
        // hitting-set solve never runs on the disabled fast path; the
        // bound also accumulates into the session.lower_bound gauge, which
        // qoco-watch samples for the live optimality-ratio panel (ratio
        // rules divide session.questions_asked by it). The solve runs only
        // for the record, so its own span keeps it out of the removal's
        // self time.
        let lower_bound = {
            let _solve = qoco_telemetry::span("deletion.lower_bound");
            instance.minimum_hitting_set().len()
        };
        qoco_telemetry::gauge_add("session.lower_bound", lower_bound as f64);
        qoco_telemetry::record_decision("deletion.plan", || DecisionDetail {
            question: format!("remove wrong answer {t} from Q(D)"),
            outcome: format!("{} witness set(s) to hit", instance.sets().len()),
            evidence: vec![
                ("witnesses", render_witnesses(&instance)),
                ("upper_bound", upper_bound.to_string()),
                ("lower_bound", lower_bound.to_string()),
                ("selector", selector.name().to_string()),
                (
                    "shortcut",
                    if use_singleton_shortcut { "on" } else { "off" }.to_string(),
                ),
            ],
        });
    }

    let mut edits = EditLog::new();
    let mut questions = 0usize;
    let mut anomalies = 0usize;
    let mut failure: Option<CrowdError> = None;
    // never ask twice about the same fact (known-true facts in particular)
    let mut known_true: std::collections::BTreeSet<Fact> = Default::default();

    while !instance.is_done() {
        qoco_telemetry::gauge_set("session.witnesses_open", instance.sets().len() as f64);
        if use_singleton_shortcut {
            // Lines 2–4: tuples in singleton sets are deletable without
            // questions (Theorem 4.5).
            loop {
                let singles = instance.singleton_elements();
                if singles.is_empty() {
                    break;
                }
                qoco_telemetry::record_decision("deletion.certificate", || {
                    let certificate = instance.unique_minimal_hitting_set();
                    DecisionDetail {
                        question: format!(
                            "delete {} singleton witness tuple(s) without asking",
                            singles.len()
                        ),
                        outcome: match &certificate {
                            Some(m) => format!(
                                "theorem-4.5 certificate fired: unique minimal hitting set {}",
                                render_set(m)
                            ),
                            None => "singletons (members of every hitting set) deleted; \
                                 witnesses remain"
                                .to_string(),
                        },
                        evidence: vec![
                            (
                                "theorem_4_5",
                                if certificate.is_some() {
                                    "fired"
                                } else {
                                    "partial"
                                }
                                .to_string(),
                            ),
                            ("singletons", render_set(&singles)),
                            ("witnesses", render_witnesses(&instance)),
                        ],
                    }
                });
                for f in singles {
                    instance.confirm_false(&f);
                    let e = Edit::delete(f);
                    apply_tracked(db, views, &e)?;
                    edits.push(e);
                }
            }
            if instance.is_done() {
                break;
            }
        }
        let Some(fact) = pick_unasked(selector, &instance, &known_true) else {
            // Every remaining tuple was already confirmed true — possible
            // only with lying oracles. Drop the un-hittable sets.
            anomalies += instance.sets().len();
            break;
        };
        // Provenance: capture why *this* tuple is asked about — the live
        // witness state and the frequency ranking that makes it greedy-best
        // — before the oracle mutates anything. `decision != 0` only when
        // telemetry is enabled, so the disabled path allocates nothing
        // (an empty Vec::new is allocation-free).
        let decision = qoco_telemetry::begin_decision();
        let mut evidence: Vec<(&'static str, String)> = Vec::new();
        if decision != 0 {
            evidence.push(("selector", selector.name().to_string()));
            evidence.push(("frequency", instance.frequency(&fact).to_string()));
            evidence.push(("ranking", render_ranking(&instance)));
            evidence.push(("witnesses", render_witnesses(&instance)));
        }
        questions += 1;
        let verdict = crowd.verify_fact(&fact);
        qoco_telemetry::finish_decision(decision, "deletion.verify_fact", || DecisionDetail {
            question: format!("TRUE({fact:?})?"),
            outcome: match &verdict {
                Ok(v) => v.to_string(),
                Err(e) => format!("error: {e}"),
            },
            evidence,
        });
        match verdict {
            Ok(true) => {
                known_true.insert(fact.clone());
                anomalies += instance.confirm_true(&fact);
            }
            Ok(false) => {
                instance.confirm_false(&fact);
                let e = Edit::delete(fact);
                apply_tracked(db, views, &e)?;
                edits.push(e);
            }
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    qoco_telemetry::gauge_set("session.witnesses_open", instance.sets().len() as f64);

    span.field("questions", questions)
        .field("deletions", edits.deletions())
        .finish();
    Ok(DeletionOutcome {
        edits,
        questions,
        upper_bound,
        anomalies,
        failure,
    })
}

/// Pick the selector's choice, skipping facts already confirmed true.
fn pick_unasked(
    selector: &mut dyn TupleSelector,
    instance: &HittingSetInstance<Fact>,
    known_true: &std::collections::BTreeSet<Fact>,
) -> Option<Fact> {
    // The instance never re-contains confirmed-true facts under QOCO
    // semantics (they are stripped), but the Random baseline may re-draw
    // one; retry within the filtered universe.
    let f = selector.select(instance)?;
    if !known_true.contains(&f) {
        return Some(f);
    }
    instance
        .universe()
        .into_iter()
        .find(|candidate| !known_true.contains(candidate))
}

/// `{A, B}` — one witness set as evidence text.
fn render_set(s: &std::collections::BTreeSet<Fact>) -> String {
    let inner = s
        .iter()
        .map(|f| format!("{f:?}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{inner}}}")
}

/// The live witness system, `{..} | {..}`, in the instance's canonical
/// (sorted, deduplicated) order.
fn render_witnesses(instance: &HittingSetInstance<Fact>) -> String {
    instance
        .sets()
        .iter()
        .map(render_set)
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Candidate tuples ranked by witness frequency — descending count, ties
/// by fact order, mirroring [`HittingSetInstance::most_frequent`]'s
/// tie-break so the head of the ranking is exactly the greedy pick.
fn render_ranking(instance: &HittingSetInstance<Fact>) -> String {
    let mut ranked: Vec<(usize, Fact)> = instance
        .universe()
        .into_iter()
        .map(|f| (instance.frequency(&f), f))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked
        .into_iter()
        .map(|(n, f)| format!("{f:?}={n}"))
        .collect::<Vec<_>>()
        .join(" > ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_crowd::{PerfectOracle, SingleExpert};
    use qoco_data::{tup, Schema};
    use qoco_engine::answer_set;
    use qoco_query::parse_query;
    use std::sync::Arc;

    /// Example 4.6: the Spain deletion scenario. `D` says ESP won four
    /// finals (2010 true; 1998, 1994, 1978 false); the ground truth has
    /// only 2010 (and the true winners of the other years).
    fn setup() -> (Arc<Schema>, Database, Database, ConjunctiveQuery) {
        let schema = Schema::builder()
            .relation("Games", &["date", "winner", "runner_up", "stage", "result"])
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        for (dt, w, r, s, u) in [
            ("11.07.10", "ESP", "NED", "Final", "1:0"),
            ("12.07.98", "ESP", "NED", "Final", "4:2"),
            ("17.07.94", "ESP", "NED", "Final", "3:1"),
            ("25.06.78", "ESP", "NED", "Final", "1:0"),
        ] {
            d.insert_named("Games", tup![dt, w, r, s, u]).unwrap();
        }
        d.insert_named("Teams", tup!["ESP", "EU"]).unwrap();

        let mut g = Database::empty(schema.clone());
        g.insert_named("Games", tup!["11.07.10", "ESP", "NED", "Final", "1:0"])
            .unwrap();
        g.insert_named("Games", tup!["12.07.98", "FRA", "BRA", "Final", "3:0"])
            .unwrap();
        g.insert_named("Games", tup!["17.07.94", "BRA", "ITA", "Final", "3:2"])
            .unwrap();
        g.insert_named("Games", tup!["25.06.78", "ARG", "NED", "Final", "3:1"])
            .unwrap();
        g.insert_named("Teams", tup!["ESP", "EU"]).unwrap();

        let q = parse_query(
            &schema,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap();
        (schema, d, g, q)
    }

    #[test]
    fn qoco_removes_the_wrong_answer() {
        let (_, mut d, g, q) = setup();
        assert_eq!(answer_set(&q, &d), vec![tup!["ESP"]]);
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_remove_wrong_answer(
            &q,
            &mut d,
            &tup!["ESP"],
            &mut crowd,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        assert!(answer_set(&q, &d).is_empty(), "ESP must be gone");
        assert_eq!(out.anomalies, 0);
        // exactly the three false finals are deleted (never Teams(ESP,EU)
        // or the true 2010 final)
        assert_eq!(out.edits.deletions(), 3);
        for e in out.edits.edits() {
            let date = e.fact.tuple.values()[0].clone();
            assert_ne!(date, qoco_data::Value::text("11.07.10"));
        }
    }

    #[test]
    fn qoco_asks_fewer_questions_than_upper_bound() {
        let (_, mut d, g, q) = setup();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_remove_wrong_answer(
            &q,
            &mut d,
            &tup!["ESP"],
            &mut crowd,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        // universe = 4 Games facts + Teams fact = 5
        assert_eq!(out.upper_bound, 5);
        assert!(
            out.questions < out.upper_bound,
            "{} questions",
            out.questions
        );
        assert_eq!(out.questions, crowd.stats().verify_fact_questions);
    }

    #[test]
    fn qoco_minus_never_uses_the_shortcut() {
        let (_, d, g, q) = setup();
        let mut d1 = d.clone();
        let mut crowd1 = SingleExpert::new(PerfectOracle::new(g.clone()));
        let qoco = crowd_remove_wrong_answer(
            &q,
            &mut d1,
            &tup!["ESP"],
            &mut crowd1,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        let mut d2 = d.clone();
        let mut crowd2 = SingleExpert::new(PerfectOracle::new(g));
        let minus = crowd_remove_wrong_answer(
            &q,
            &mut d2,
            &tup!["ESP"],
            &mut crowd2,
            DeletionStrategy::QocoMinus,
            &mut [],
        )
        .unwrap();
        assert!(qoco.questions <= minus.questions);
        // both clean the view
        assert!(answer_set(&q, &d1).is_empty());
        assert!(answer_set(&q, &d2).is_empty());
    }

    #[test]
    fn random_baseline_cleans_but_asks_more_on_average() {
        let (_, d, g, q) = setup();
        let mut total_random = 0usize;
        for seed in 0..10 {
            let mut di = d.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
            let out = crowd_remove_wrong_answer(
                &q,
                &mut di,
                &tup!["ESP"],
                &mut crowd,
                DeletionStrategy::Random(seed),
                &mut [],
            )
            .unwrap();
            assert!(answer_set(&q, &di).is_empty());
            total_random += out.questions;
        }
        let mut dq = d.clone();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let qoco = crowd_remove_wrong_answer(
            &q,
            &mut dq,
            &tup!["ESP"],
            &mut crowd,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        assert!(
            (total_random as f64 / 10.0) >= qoco.questions as f64,
            "random {} avg vs qoco {}",
            total_random as f64 / 10.0,
            qoco.questions
        );
    }

    #[test]
    fn singleton_witnesses_need_no_questions() {
        // Q over a single atom: each witness is a singleton → unique
        // minimal hitting set exists immediately (Example 4.4).
        let schema = Schema::builder()
            .relation("T", &["c", "k"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        d.insert_named("T", tup!["BRA", "EU"]).unwrap();
        let g = Database::empty(schema.clone());
        let q = parse_query(&schema, r#"(x) :- T(x, "EU")"#).unwrap();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_remove_wrong_answer(
            &q,
            &mut d,
            &tup!["BRA"],
            &mut crowd,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        assert_eq!(out.questions, 0);
        assert_eq!(out.edits.deletions(), 1);
        assert!(answer_set(&q, &d).is_empty());
    }

    #[test]
    fn non_answer_is_a_no_op() {
        let (_, mut d, g, q) = setup();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out = crowd_remove_wrong_answer(
            &q,
            &mut d,
            &tup!["ITA"],
            &mut crowd,
            DeletionStrategy::Qoco,
            &mut [],
        )
        .unwrap();
        assert_eq!(out.questions, 0);
        assert!(out.edits.is_empty());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(DeletionStrategy::Qoco.label(), "QOCO");
        assert_eq!(DeletionStrategy::QocoMinus.label(), "QOCO-");
        assert_eq!(DeletionStrategy::Random(0).label(), "Random");
    }
}
