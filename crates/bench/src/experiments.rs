//! The experiment runners behind every figure of Section 7.
//!
//! Defaults follow the paper: data cleanliness 80 %, noise skew 100 % for
//! deletion experiments, 0 % for insertion, 50 % for mixed; simulated
//! perfect oracle for Figure 3, an imperfect 3-expert panel for Figure 4.
//! Random baselines are averaged over several seeds (the paper plots single
//! runs; averaging just stabilizes the text output).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use qoco_core::{
    clean_view, crowd_remove_wrong_answer, crowd_remove_wrong_answer_composite,
    crowd_remove_wrong_answer_with, CleaningConfig, DeletionStrategy, MostFrequentSelector,
    RandomSelector, ResponsibilitySelector, SplitStrategyKind, TrustSelector, TupleSelector,
};
use qoco_crowd::{ImperfectOracle, MajorityCrowd, PerfectOracle, SingleExpert};
use qoco_data::{tup, Database, Edit, Fact, Schema};
use qoco_datasets::{
    dbgroup_queries, generate_dbgroup, generate_soccer, inject_noise, plant_missing_answers,
    plant_mixed, plant_wrong_answers, soccer_queries, DbGroupConfig, NoiseSpec, SoccerConfig,
};
use qoco_engine::{answer_set, witnesses_for_answer, MaterializedView};
use qoco_query::{parse_query, ConjunctiveQuery};
use qoco_telemetry::{InMemoryCollector, MetricsSnapshot};

use crate::table::Table;

/// Shared experiment context: the soccer ground truth and its five queries.
pub struct Experiments {
    /// The soccer ground-truth database.
    pub ground: Database,
    /// Q1–Q5.
    pub queries: Vec<ConjunctiveQuery>,
}

impl Experiments {
    /// Build the default soccer context.
    pub fn soccer() -> Self {
        let ground = generate_soccer(SoccerConfig::default());
        let queries = soccer_queries(ground.schema());
        Experiments { ground, queries }
    }

    fn q(&self, idx1: usize) -> &ConjunctiveQuery {
        &self.queries[idx1 - 1]
    }
}

/// Outcome of one deletion experiment run.
struct DeletionRun {
    results: usize,
    questions: usize,
    upper: usize,
}

fn deletion_run(
    ground: &Database,
    q: &ConjunctiveQuery,
    k_wrong: usize,
    witnesses: usize,
    strategy: DeletionStrategy,
    seed: u64,
) -> DeletionRun {
    let planted = plant_wrong_answers(q, ground, k_wrong, witnesses, seed);
    let mut d = planted.db;
    let results = answer_set(q, &d).len();
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let config = CleaningConfig {
        deletion: strategy,
        ..Default::default()
    };
    let report = clean_view(q, &mut d, &mut crowd, config).expect("perfect oracle converges");
    DeletionRun {
        results,
        questions: report.deletion_stats.verify_fact_questions,
        upper: report.deletion_upper_bound,
    }
}

/// Average a deletion experiment over seeds (used for the Random baseline).
fn deletion_avg(
    ground: &Database,
    q: &ConjunctiveQuery,
    k_wrong: usize,
    witnesses: usize,
    make: impl Fn(u64) -> DeletionStrategy,
    seeds: &[u64],
) -> DeletionRun {
    let runs: Vec<DeletionRun> = seeds
        .iter()
        .map(|&s| deletion_run(ground, q, k_wrong, witnesses, make(s), s))
        .collect();
    let n = runs.len().max(1);
    DeletionRun {
        results: runs.iter().map(|r| r.results).sum::<usize>() / n,
        questions: (runs.iter().map(|r| r.questions).sum::<usize>() + n / 2) / n,
        upper: runs.iter().map(|r| r.upper).sum::<usize>() / n,
    }
}

/// Figure 3a: deletion across queries Q1/Q2/Q3 for QOCO, QOCO⁻ and Random.
pub fn fig3a(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 3a — Deletion, multiple queries (perfect oracle)",
        &[
            "query",
            "strategy",
            "#results",
            "#questions",
            "#avoided",
            "naive upper bound",
        ],
    );
    let settings = [(1usize, 2usize), (2, 3), (3, 5)];
    for (qi, k) in settings {
        let q = ex.q(qi);
        for strategy in ["QOCO", "QOCO-", "Random"] {
            let run = match strategy {
                "QOCO" => deletion_run(&ex.ground, q, k, 3, DeletionStrategy::Qoco, 40 + qi as u64),
                "QOCO-" => deletion_run(
                    &ex.ground,
                    q,
                    k,
                    3,
                    DeletionStrategy::QocoMinus,
                    40 + qi as u64,
                ),
                _ => deletion_avg(
                    &ex.ground,
                    q,
                    k,
                    3,
                    DeletionStrategy::Random,
                    &[40 + qi as u64; 1],
                ),
            };
            t.row(vec![
                format!("Q{qi}"),
                strategy.to_string(),
                run.results.to_string(),
                run.questions.to_string(),
                run.upper.saturating_sub(run.questions).to_string(),
                run.upper.to_string(),
            ]);
        }
    }
    t.note("bars of the paper: bottom = #results (answers verified), middle = #questions, top = #avoided vs the naive upper bound");
    t
}

/// Figure 3d: deletion on Q3 with 2/5/10 wrong answers.
pub fn fig3d(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 3d — Deletion, varying #wrong answers (Q3, perfect oracle)",
        &[
            "#wrong",
            "strategy",
            "#results",
            "#questions",
            "#avoided",
            "naive upper bound",
        ],
    );
    let q = ex.q(3);
    for k in [2usize, 5, 10] {
        for strategy in ["QOCO", "QOCO-", "Random"] {
            let run = match strategy {
                "QOCO" => deletion_run(&ex.ground, q, k, 3, DeletionStrategy::Qoco, 60 + k as u64),
                "QOCO-" => deletion_run(
                    &ex.ground,
                    q,
                    k,
                    3,
                    DeletionStrategy::QocoMinus,
                    60 + k as u64,
                ),
                _ => deletion_avg(
                    &ex.ground,
                    q,
                    k,
                    3,
                    DeletionStrategy::Random,
                    &[60 + k as u64; 1],
                ),
            };
            t.row(vec![
                k.to_string(),
                strategy.to_string(),
                run.results.to_string(),
                run.questions.to_string(),
                run.upper.saturating_sub(run.questions).to_string(),
                run.upper.to_string(),
            ]);
        }
    }
    t.note("the QOCO-vs-Random gap grows with the noise level, as in the paper");
    t
}

/// Outcome of one insertion experiment run.
struct InsertionRun {
    missing: usize,
    filled: usize,
    satisfiability: usize,
    upper: usize,
}

fn insertion_run(
    ground: &Database,
    q: &ConjunctiveQuery,
    k_missing: usize,
    split: SplitStrategyKind,
    seed: u64,
) -> InsertionRun {
    let planted = plant_missing_answers(q, ground, k_missing, seed);
    let missing = planted.missing.len();
    let mut d = planted.db;
    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
    let config = CleaningConfig {
        split,
        ..Default::default()
    };
    let report = clean_view(q, &mut d, &mut crowd, config).expect("perfect oracle converges");
    InsertionRun {
        missing,
        filled: report.insertion_stats.filled_variables,
        satisfiability: report.insertion_stats.satisfiable_questions,
        upper: report.insertion_upper_bound,
    }
}

/// Figure 3b: insertion across queries Q3/Q4/Q5 for Provenance, Min-Cut
/// and Random splits.
pub fn fig3b(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 3b — Insertion, multiple queries (perfect oracle)",
        &[
            "query",
            "split",
            "#missing",
            "#filled vars",
            "#sat checks",
            "#avoided",
            "naive upper bound",
        ],
    );
    for qi in [3usize, 4, 5] {
        let q = ex.q(qi);
        for split in [
            SplitStrategyKind::Provenance,
            SplitStrategyKind::MinCut,
            SplitStrategyKind::Random(7),
        ] {
            let run = insertion_run(&ex.ground, q, 5, split, 80 + qi as u64);
            t.row(vec![
                format!("Q{qi}"),
                split.label().to_string(),
                run.missing.to_string(),
                run.filled.to_string(),
                run.satisfiability.to_string(),
                run.upper.saturating_sub(run.filled).to_string(),
                run.upper.to_string(),
            ]);
        }
    }
    t.note("paper: Provenance always best; Min-Cut and Random trade places per query");
    t
}

/// Figure 3e: insertion on Q3 with 2/5/10 missing answers.
pub fn fig3e(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 3e — Insertion, varying #missing answers (Q3, perfect oracle)",
        &[
            "#missing",
            "split",
            "#filled vars",
            "#sat checks",
            "#avoided",
            "naive upper bound",
        ],
    );
    let q = ex.q(3);
    for k in [2usize, 5, 10] {
        for split in [
            SplitStrategyKind::Provenance,
            SplitStrategyKind::MinCut,
            SplitStrategyKind::Random(7),
        ] {
            let run = insertion_run(&ex.ground, q, k, split, 90 + k as u64);
            t.row(vec![
                k.to_string(),
                split.label().to_string(),
                run.filled.to_string(),
                run.satisfiability.to_string(),
                run.upper.saturating_sub(run.filled).to_string(),
                run.upper.to_string(),
            ]);
        }
    }
    t
}

/// Figure 3c: the mixed workload on Q1/Q2/Q3, deletion strategy varying,
/// insertion fixed to the Provenance split.
pub fn fig3c(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 3c — Mixed, multiple queries (perfect oracle; insertion = Provenance)",
        &[
            "query",
            "deletion",
            "#results+#missing",
            "#questions",
            "#avoided",
            "upper bound",
        ],
    );
    let settings = [(1usize, 2usize, 1usize), (2, 3, 2), (3, 5, 3)];
    for (qi, kw, km) in settings {
        let q = ex.q(qi);
        for strategy in [
            DeletionStrategy::Qoco,
            DeletionStrategy::QocoMinus,
            DeletionStrategy::Random(3),
        ] {
            let planted = plant_mixed(q, &ex.ground, kw, km, 70 + qi as u64);
            let mut d = planted.db;
            let results = answer_set(q, &d).len();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
            let config = CleaningConfig {
                deletion: strategy,
                split: SplitStrategyKind::Provenance,
                ..Default::default()
            };
            let report = clean_view(q, &mut d, &mut crowd, config).expect("converges");
            let questions = report.deletion_stats.verify_fact_questions
                + report.insertion_stats.filled_variables
                + report.insertion_stats.satisfiable_questions;
            let upper = report.deletion_upper_bound + report.insertion_upper_bound;
            t.row(vec![
                format!("Q{qi}"),
                strategy.label().to_string(),
                format!("{}", results + planted.missing.len()),
                questions.to_string(),
                upper.saturating_sub(questions).to_string(),
                upper.to_string(),
            ]);
        }
    }
    t
}

/// Figure 3f: question-type breakdown on Q3 with (2,2)/(5,5)/(10,10)
/// missing and wrong answers.
pub fn fig3f(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 3f — Mixed, types of questions (Q3, QOCO + Provenance)",
        &[
            "#missing,#wrong",
            "verify answers",
            "verify tuples",
            "fill missing",
        ],
    );
    let q = ex.q(3);
    for k in [2usize, 5, 10] {
        let planted = plant_mixed(q, &ex.ground, k, k, 50 + k as u64);
        let mut d = planted.db;
        let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
        let report = clean_view(&q.clone(), &mut d, &mut crowd, CleaningConfig::default())
            .expect("converges");
        let (va, vt, fm) = report.question_breakdown();
        t.row(vec![
            format!("({k}, {k})"),
            va.to_string(),
            vt.to_string(),
            fm.to_string(),
        ]);
    }
    t.note(
        "verify tuples and fill missing grow with the error count; verify answers stays flat because symmetric planting keeps |Q(D)| constant",
    );
    t
}

/// Figure 4: the real-crowd experiment — a 3-expert imperfect panel with
/// majority voting on Q2 and Q3 (5 wrong + 5 missing answers), counting
/// total crowd answers per category.
pub fn fig4(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Figure 4 — Imperfect experts (3-expert panel, 10% error, majority vote)",
        &[
            "query",
            "deletion",
            "verify answers",
            "verify tuples",
            "fill missing",
            "total answers",
        ],
    );
    for qi in [2usize, 3] {
        let q = ex.q(qi);
        let planted = plant_mixed(q, &ex.ground, 5, 5, 20 + qi as u64);
        for strategy in [
            DeletionStrategy::Qoco,
            DeletionStrategy::QocoMinus,
            DeletionStrategy::Random(5),
        ] {
            // imperfect crowds are noisy: average over panel replicates
            let mut sums = (0usize, 0usize, 0usize, 0usize);
            let mut converged = 0usize;
            let replicates = 5u64;
            for rep in 0..replicates {
                let mut d = planted.db.clone();
                let experts: Vec<ImperfectOracle> = (0..3)
                    .map(|i| {
                        ImperfectOracle::new(
                            ex.ground.clone(),
                            0.10,
                            700 + qi as u64 * 100 + rep * 10 + i,
                        )
                    })
                    .collect();
                let mut crowd = MajorityCrowd::new(experts);
                let config = CleaningConfig {
                    deletion: strategy,
                    max_iterations: 80,
                    ..Default::default()
                };
                if let Ok(report) = clean_view(q, &mut d, &mut crowd, config) {
                    let s = report.total_stats;
                    sums.0 += s.verify_answer_crowd_answers;
                    sums.1 += s.verify_fact_crowd_answers + s.satisfiable_crowd_answers;
                    sums.2 += s.open_answer_variables;
                    sums.3 += s.total_cost();
                    converged += 1;
                }
            }
            match sums.0.checked_div(converged) {
                None => t.row(vec![
                    format!("Q{qi}"),
                    strategy.label().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "did not converge".into(),
                ]),
                Some(avg0) => t.row(vec![
                    format!("Q{qi}"),
                    strategy.label().to_string(),
                    avg0.to_string(),
                    (sums.1 / converged).to_string(),
                    (sums.2 / converged).to_string(),
                    (sums.3 / converged).to_string(),
                ]),
            }
        }
    }
    t.note(
        "fill-missing counts differ across deletion strategies of the same query, where the paper reports them identical",
    );
    t
}

/// The Section 7.1 DBGroup case study, tabulated.
pub fn dbgroup_case() -> Table {
    let ground = generate_dbgroup(DbGroupConfig::default());
    let queries = dbgroup_queries(ground.schema());
    let plan: [(usize, usize); 4] = [(1, 1), (2, 1), (1, 2), (1, 3)];
    let mut dirty = ground.clone();
    for (q, (wrong, missing)) in queries.iter().zip(plan) {
        dirty = plant_mixed(q, &dirty, wrong, missing, 11).db;
    }
    let mut t = Table::new(
        "Section 7.1 — DBGroup case study (4 report queries, perfect oracle)",
        &[
            "query",
            "wrong found",
            "missing found",
            "tuples deleted",
            "tuples inserted",
            "closed questions",
        ],
    );
    let mut tot = (0usize, 0usize, 0usize, 0usize, 0usize);
    for q in &queries {
        let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
        let report =
            clean_view(q, &mut dirty, &mut crowd, CleaningConfig::default()).expect("converges");
        t.row(vec![
            q.name().to_string(),
            report.wrong_answers.to_string(),
            report.missing_answers.to_string(),
            report.edits.deletions().to_string(),
            report.edits.insertions().to_string(),
            report.total_stats.closed_questions().to_string(),
        ]);
        tot.0 += report.wrong_answers;
        tot.1 += report.missing_answers;
        tot.2 += report.edits.deletions();
        tot.3 += report.edits.insertions();
        tot.4 += report.total_stats.closed_questions();
    }
    t.row(vec![
        "total".into(),
        tot.0.to_string(),
        tot.1.to_string(),
        tot.2.to_string(),
        tot.3.to_string(),
        tot.4.to_string(),
    ]);
    t.note("paper's run on the real DBGroup DB: 5 wrong + 7 missing answers; 6 tuples removed, 8 added");
    t
}

/// Ablation A1: greedy interactive hitting set vs the exact minimum —
/// how many deletions were strictly necessary?
pub fn ablation_hitting_set(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Ablation A1 — greedy vs exact minimum hitting set",
        &[
            "query",
            "#wrong",
            "QOCO deletions",
            "minimum deletions",
            "QOCO questions",
        ],
    );
    for qi in [1usize, 2, 3] {
        let q = ex.q(qi);
        let planted = plant_wrong_answers(q, &ex.ground, 3, 3, 30 + qi as u64);
        let mut d = planted.db.clone();
        let mut minimum = 0usize;
        for w in &planted.wrong {
            let witnesses = witnesses_for_answer(q, &d, w);
            // restrict the exact solver to false facts (the true optimum
            // must delete only false ones)
            let false_only: Vec<std::collections::BTreeSet<Fact>> = witnesses
                .iter()
                .map(|set| {
                    set.iter()
                        .filter(|f| !ex.ground.contains(f))
                        .cloned()
                        .collect()
                })
                .collect();
            minimum += qoco_core::HittingSetInstance::new(false_only)
                .minimum_hitting_set()
                .len();
        }
        let mut deletions = 0usize;
        let mut questions = 0usize;
        for w in &planted.wrong {
            let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
            let out = crowd_remove_wrong_answer(
                q,
                &mut d,
                w,
                &mut crowd,
                DeletionStrategy::Qoco,
                &mut [],
            )
            .expect("removal succeeds");
            deletions += out.edits.deletions();
            questions += out.questions;
        }
        t.row(vec![
            format!("Q{qi}"),
            planted.wrong.len().to_string(),
            deletions.to_string(),
            minimum.to_string(),
            questions.to_string(),
        ]);
    }
    t.note("greedy may delete more than the optimum; the paper notes the extra deletions still improve the database");
    t
}

/// Ablation A2: the value of the unique-minimal-hitting-set shortcut
/// (QOCO vs QOCO⁻) as witness multiplicity grows.
pub fn ablation_umhs(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Ablation A2 — unique-minimal-hitting-set shortcut (Q1)",
        &[
            "witnesses/answer",
            "QOCO questions",
            "QOCO- questions",
            "saved",
        ],
    );
    let q = ex.q(1);
    for w in [2usize, 4, 6] {
        let run = |strategy| deletion_run(&ex.ground, q, 3, w, strategy, 200 + w as u64).questions;
        let qoco = run(DeletionStrategy::Qoco);
        let minus = run(DeletionStrategy::QocoMinus);
        t.row(vec![
            w.to_string(),
            qoco.to_string(),
            minus.to_string(),
            minus.saturating_sub(qoco).to_string(),
        ]);
    }
    t
}

/// Ablation A3: alternative deletion heuristics (Section 4 mentions
/// influence/responsibility/trust-based alternatives to most-frequent).
pub fn ablation_heuristics(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Ablation A3 — deletion selection heuristics (Q3, 5 wrong answers)",
        &["heuristic", "questions", "deletions"],
    );
    let q = ex.q(3);
    let planted = plant_wrong_answers(q, &ex.ground, 5, 3, 77);
    // synthetic trust scores: false facts score low, true facts high,
    // with noise so the signal is imperfect
    let mut trust: HashMap<Fact, f64> = HashMap::new();
    {
        let mut h = 0.0f64;
        for w in &planted.wrong {
            for set in witnesses_for_answer(q, &planted.db, w) {
                for f in set {
                    h = (h * 7.13 + 0.37).fract();
                    let base = if ex.ground.contains(&f) { 0.75 } else { 0.25 };
                    trust.insert(f, (base + 0.3 * (h - 0.5)).clamp(0.0, 1.0));
                }
            }
        }
    }
    let selectors: Vec<(&str, Box<dyn TupleSelector>)> = vec![
        ("most-frequent", Box::new(MostFrequentSelector)),
        ("responsibility", Box::new(ResponsibilitySelector)),
        ("trust", Box::new(TrustSelector::new(trust))),
        ("random", Box::new(RandomSelector::new(9))),
    ];
    for (name, mut selector) in selectors {
        let mut d = planted.db.clone();
        let mut questions = 0usize;
        let mut deletions = 0usize;
        for w in &planted.wrong {
            let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
            let out = crowd_remove_wrong_answer_with(
                q,
                &mut d,
                w,
                &mut crowd,
                &mut *selector,
                true,
                &mut [],
            )
            .expect("removal succeeds");
            questions += out.questions;
            deletions += out.edits.deletions();
        }
        t.row(vec![
            name.to_string(),
            questions.to_string(),
            deletions.to_string(),
        ]);
    }
    t
}

/// Ablation A4: composite questions (Section 9) — group-testing deletion
/// vs per-tuple questions, across queries.
pub fn ablation_composite(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Ablation A4 — composite (group-testing) questions vs per-tuple questions",
        &["query", "per-tuple (QOCO)", "composite", "universe size"],
    );
    for qi in [1usize, 2, 3] {
        let q = ex.q(qi);
        let planted = plant_wrong_answers(q, &ex.ground, 3, 4, 90 + qi as u64);
        let mut singles = 0usize;
        let mut composites = 0usize;
        let mut universe = 0usize;
        {
            let mut d = planted.db.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
            for w in &planted.wrong {
                let out = crowd_remove_wrong_answer(
                    q,
                    &mut d,
                    w,
                    &mut crowd,
                    DeletionStrategy::Qoco,
                    &mut [],
                )
                .expect("removal succeeds");
                singles += out.questions;
                universe += out.upper_bound;
            }
        }
        {
            let mut d = planted.db.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
            for w in &planted.wrong {
                let out = crowd_remove_wrong_answer_composite(q, &mut d, w, &mut crowd)
                    .expect("removal succeeds");
                composites += out.questions;
            }
        }
        t.row(vec![
            format!("Q{qi}"),
            singles.to_string(),
            composites.to_string(),
            universe.to_string(),
        ]);
    }
    t.note("an honest negative on these instances: planted witnesses are false-fact-dense, so frequency-guided per-tuple questions beat group testing; composite wins in true-fact-dense universes (see composite::tests::composite_beats_individual_questions_when_most_facts_are_true)");
    t
}

/// Sweep S2: expert error rate vs total crowd answers (extends Figure 4's
/// single 10 % point into a curve; panel of 3, majority vote).
pub fn sweep_error_rate(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Sweep S2 — expert error rate (Q3, 3 wrong + 3 missing, 3-expert panel)",
        &[
            "error rate",
            "total crowd answers",
            "iterations",
            "converged",
        ],
    );
    let q = ex.q(3);
    let planted = plant_mixed(q, &ex.ground, 3, 3, 44);
    let truth: std::collections::BTreeSet<qoco_data::Tuple> =
        answer_set(q, &ex.ground).into_iter().collect();
    for pct in [0u32, 5, 10, 20, 30] {
        let mut answers_sum = 0usize;
        let mut iter_sum = 0usize;
        let mut converged = 0usize;
        let replicates = 3u64;
        for rep in 0..replicates {
            let mut d = planted.db.clone();
            let experts: Vec<ImperfectOracle> = (0..3)
                .map(|i| {
                    ImperfectOracle::new(
                        ex.ground.clone(),
                        pct as f64 / 100.0,
                        2_000 + pct as u64 * 10 + rep * 3 + i,
                    )
                })
                .collect();
            let mut crowd = MajorityCrowd::new(experts);
            let config = CleaningConfig {
                max_iterations: 80,
                ..Default::default()
            };
            if let Ok(report) = clean_view(q, &mut d, &mut crowd, config) {
                let now: std::collections::BTreeSet<qoco_data::Tuple> =
                    answer_set(q, &d).into_iter().collect();
                answers_sum += report.total_stats.total_cost();
                iter_sum += report.iterations;
                if now == truth {
                    converged += 1;
                }
            }
        }
        t.row(vec![
            format!("{pct}%"),
            (answers_sum / replicates as usize).to_string(),
            (iter_sum as f64 / replicates as f64).round().to_string(),
            format!("{converged}/{replicates}"),
        ]);
    }
    t.note("majority voting absorbs moderate error rates at a rising answer cost");
    t
}

/// Telemetry T1: the per-phase breakdown of one full cleaning session,
/// derived from the span timeline rather than the report's own counters —
/// the observability cross-check that the instrumentation sees the same
/// session the algorithms ran.
pub fn phase_breakdown(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Telemetry T1 — phase breakdown of one cleaning session (Q3, 3 wrong + 3 missing)",
        &[
            "phase (span name)",
            "spans",
            "total time",
            "share of session",
        ],
    );
    let q = ex.q(3);
    let planted = plant_mixed(q, &ex.ground, 3, 3, 33);
    let mut d = planted.db;
    let ((), run) = traced(|| {
        let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
        clean_view(q, &mut d, &mut crowd, CleaningConfig::default())
            .expect("perfect oracle converges");
    });
    let timeline = run.collector.timeline(Vec::new(), run.counters);
    let session_ns = timeline
        .phase_totals()
        .get("clean.session")
        .map(|p| p.total_ns)
        .unwrap_or_else(|| timeline.total_ns())
        .max(1);
    for (name, total) in timeline.phase_totals() {
        t.row(vec![
            name.to_string(),
            total.count.to_string(),
            qoco_telemetry::fmt_ns(total.total_ns),
            format!("{:.1}%", 100.0 * total.total_ns as f64 / session_ns as f64),
        ]);
    }
    let m = timeline.metrics();
    t.note(format!(
        "counters: eval.assignments_tried={}, deletion.witnesses_enumerated={}, insertion.splits_generated={}, crowd.questions_asked={}",
        m.counter("eval.assignments_tried"),
        m.counter("deletion.witnesses_enumerated"),
        m.counter("insertion.splits_generated"),
        m.counter("crowd.questions_asked"),
    ));
    t.note("shares exceed 100% in total because nested spans (iteration ⊂ session, phases ⊂ iteration) each count their full extent");
    t
}

/// Watch W1: the question-optimality *trajectory* — questions asked vs the
/// accumulated hitting-set lower bound at every crowd-answer tick of one
/// cleaning session, sampled by a logical-tick qoco-watch. The terminal
/// ratio is what `qoco-cli explain` reports; this figure shows the path
/// there, which is what the live dashboard's optimality panel plots.
pub fn watch_optimality(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Watch W1 — questions vs hitting-set lower bound over session ticks (Q3, 3 wrong + 3 missing)",
        &["tick", "questions asked", "lower bound", "ratio"],
    );
    let q = ex.q(3);
    let planted = plant_mixed(q, &ex.ground, 3, 3, 33);
    let mut d = planted.db;
    let (watch, _) = traced(|| {
        let guard = qoco_telemetry::start_watch(Vec::new(), qoco_telemetry::WatchTick::Logical);
        let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
        clean_view(q, &mut d, &mut crowd, CleaningConfig::default())
            .expect("perfect oracle converges");
        let watch = guard.watch().expect("session is live, so the watch is");
        drop(guard); // takes the final end-of-session tick
        watch
    });
    let store = watch.store();
    let questions = store.samples("session.questions_asked");
    let bounds = store.samples("session.lower_bound");
    for s in &questions {
        // the most recent lower-bound sample at or before this tick
        let bound = bounds
            .iter()
            .rev()
            .find(|b| b.tick <= s.tick)
            .map(|b| b.value);
        let (bound_cell, ratio_cell) = match bound {
            Some(b) if b > 0.0 => (format!("{b:.0}"), format!("{:.2}", s.value / b)),
            _ => ("—".to_string(), "—".to_string()),
        };
        t.row(vec![
            s.tick.to_string(),
            format!("{:.0}", s.value),
            bound_cell,
            ratio_cell,
        ]);
    }
    t.note("one tick per crowd answer (the qoco-watch logical clock); ratio 1.00 is Theorem 4.5 optimal");
    t.note("the lower bound accumulates as deletion plans are made, so early ratios overshoot until the first plan lands");
    t
}

/// Sweep S1: the cleanliness parameter of Section 7.2 (global noise).
pub fn sweep_cleanliness(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "Sweep S1 — data cleanliness 60–95% (Q3, skew 50%, QOCO + Provenance)",
        &[
            "cleanliness",
            "wrong found",
            "missing found",
            "closed questions",
            "filled vars",
            "edits",
        ],
    );
    let q = ex.q(3);
    for pct in [60u32, 70, 80, 90, 95] {
        let spec = NoiseSpec {
            cleanliness: pct as f64 / 100.0,
            skewness: 0.5,
            seed: 4,
        };
        let mut d = inject_noise(&ex.ground, spec);
        let mut crowd = SingleExpert::new(PerfectOracle::new(ex.ground.clone()));
        let config = CleaningConfig {
            max_iterations: 120,
            ..Default::default()
        };
        let report = clean_view(q, &mut d, &mut crowd, config).expect("converges");
        t.row(vec![
            format!("{pct}%"),
            report.wrong_answers.to_string(),
            report.missing_answers.to_string(),
            report.total_stats.closed_questions().to_string(),
            report.total_stats.filled_variables.to_string(),
            report.edits.len().to_string(),
        ]);
    }
    t.note("dirtier data costs more interaction, monotonically");
    t
}

/// What a [`traced`] run did, as telemetry saw it.
struct Traced {
    /// Every record of the run, and only those.
    collector: Arc<InMemoryCollector>,
    /// Counters only, each the increase over the run.
    counters: MetricsSnapshot,
}

impl Traced {
    fn span_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for span in self.collector.spans() {
            *counts.entry(span.name).or_insert(0) += 1;
        }
        counts
    }
}

/// Run `f` with telemetry on, recording into a collector of its own. The
/// figures binary may already hold the process's session around all
/// targets (`--telemetry`/`--profile`), and `session()` is not reentrant,
/// so `f` then nests inside it and its records still reach the outer
/// sinks. A nested session shares the global counters, which hold every
/// earlier target's counts, so counters are read as deltas over `f`.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Traced) {
    let collector = Arc::new(InMemoryCollector::new());
    let nested = qoco_telemetry::enabled();
    let _nested_guard = nested.then(|| qoco_telemetry::nested_session(collector.clone()));
    let _session_guard = (!nested).then(|| qoco_telemetry::session(collector.clone()));
    let before = qoco_telemetry::metrics().snapshot();
    let out = f();
    let counters = qoco_telemetry::metrics()
        .snapshot()
        .counters
        .into_iter()
        .map(|(name, after)| {
            let delta = after - before.counter(&name);
            (name, delta)
        })
        .collect();
    let counters = MetricsSnapshot {
        counters,
        ..MetricsSnapshot::default()
    };
    (
        out,
        Traced {
            collector,
            counters,
        },
    )
}

/// The counters the work table reports, in row order.
const WORK_COUNTERS: [&str; 8] = [
    "eval.assignments_tried",
    "eval.probe_hits",
    "eval.delta_probe_hits",
    "eval.index_rebuilds",
    "deletion.witnesses_enumerated",
    "insertion.splits_generated",
    "view.full_refreshes",
    "crowd.questions_asked",
];

/// The spans the work table counts. `deletion.lower_bound` is work done
/// only while telemetry is on, so it is kept apart from the rest.
const WORK_SPANS: [&str; 7] = [
    "eval.assignments",
    "eval.satisfiable",
    "view.apply_edit",
    "deletion.remove_answer",
    "insertion.add_answer",
    "engine.why_not",
    "deletion.lower_bound",
];

/// Work: the exact work of the cleaning sessions behind Figure 3c, the
/// job set of perfbench's `clean_soccer` workload. Counters and span
/// counts repeat to the unit from run to run, so unlike wall time they can
/// be gated exactly: a change that makes the engine or the cleaner do more
/// for the same answers moves a cell here even when no question count
/// moves. The last rows give the work per edit of a delete/re-insert
/// cycle, with the answer set kept by an incremental view and by full
/// re-evaluation.
pub fn work_counts(ex: &Experiments) -> Table {
    let pairs = [
        (DeletionStrategy::Qoco, SplitStrategyKind::Provenance),
        (DeletionStrategy::Qoco, SplitStrategyKind::MinCut),
        (DeletionStrategy::QocoMinus, SplitStrategyKind::Provenance),
        (DeletionStrategy::Random(3), SplitStrategyKind::Naive),
    ];
    let mut t = Table::new(
        "Work — exact engine and cleaner work of the Figure 3c sessions (perfect oracle)",
        &[
            "workload",
            "work",
            "qoco+provenance",
            "qoco+mincut",
            "qoco-minus+provenance",
            "random+naive",
        ],
    );
    // Clones share their source's lazily built index cells, and earlier
    // targets read through `ex.ground`; a private copy keeps
    // `eval.index_rebuilds` independent of which targets ran first.
    let ground = unshared_copy(&ex.ground);
    for (qi, kw, km) in [(1usize, 2usize, 1usize), (2, 3, 2), (3, 5, 3)] {
        let q = ex.q(qi);
        let planted = plant_mixed(q, &ground, kw, km, 70 + qi as u64);
        let runs: Vec<Traced> = pairs
            .iter()
            .map(|&(deletion, split)| {
                let mut d = planted.db.clone();
                let config = CleaningConfig {
                    deletion,
                    split,
                    ..Default::default()
                };
                let ((), run) = traced(|| {
                    let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
                    clean_view(q, &mut d, &mut crowd, config).expect("perfect oracle converges");
                });
                run
            })
            .collect();
        for name in WORK_COUNTERS {
            let mut row = vec![format!("Q{qi}"), name.to_string()];
            row.extend(runs.iter().map(|r| r.counters.counter(name).to_string()));
            t.row(row);
        }
        let spans: Vec<BTreeMap<&str, u64>> = runs.iter().map(Traced::span_counts).collect();
        for name in WORK_SPANS {
            let mut row = vec![format!("Q{qi}"), format!("{name} spans")];
            row.extend(
                spans
                    .iter()
                    .map(|c| c.get(name).copied().unwrap_or(0).to_string()),
            );
            t.row(row);
        }
    }

    let (view, full) = edit_cycle_work(CYCLE_TUPLES);
    for name in [
        "eval.assignments_tried",
        "eval.probe_hits",
        "eval.delta_probe_hits",
    ] {
        let per_edit = |run: &Traced| run.counters.counter(name) as f64 / CYCLE_EDITS as f64;
        t.row(vec![
            format!("cycle n={CYCLE_TUPLES}"),
            format!("{name} per edit"),
            format!("view {:.1}", per_edit(&view)),
            format!("full re-eval {:.1}", per_edit(&full)),
            String::new(),
            String::new(),
        ]);
    }
    t.note("counters are deltas over each strategy pair's session; random uses seed 3");
    t.note("deletion.lower_bound spans are the exact hitting-set solves run only while telemetry is on, for the deletion.plan record");
    t.note(format!(
        "cycle: {CYCLE_EDITS} alternating deletes and re-inserts of answer-bearing facts of the selective database of {CYCLE_TUPLES} tuples a relation, all indexes built beforehand"
    ));
    t
}

/// A copy of `db` that shares no storage with it, built row by row.
fn unshared_copy(db: &Database) -> Database {
    let mut out = Database::empty(db.schema().clone());
    for fact in db.facts() {
        out.insert(fact).expect("same schema");
    }
    out
}

/// The *selective* database: `B` mirrors `A` with columns flipped, in join
/// groups of 200. `Q(x) :- A(x, g), B(g, x)` probes `B` on the group
/// column, so every descend walks a 200-tuple posting list of which
/// exactly one candidate survives the bound-`x` check.
fn selective_workload(n: usize) -> (Database, ConjunctiveQuery) {
    let schema = Schema::builder()
        .relation("A", &["x", "g"])
        .relation("B", &["g", "x"])
        .build()
        .expect("valid schema");
    let mut db = Database::empty(schema.clone());
    let groups = (n / 200).max(1);
    for i in 0..n {
        let x = format!("a{i:06}");
        let g = format!("g{:06}", i % groups);
        db.insert_named("A", tup![x.clone(), g.clone()])
            .expect("A fact");
        db.insert_named("B", tup![g, x]).expect("B fact");
    }
    let q = parse_query(&schema, "Q(x) :- A(x, g), B(g, x).").expect("valid query");
    (db, q)
}

/// The facts the edit cycle touches: the first `min(n, 64)` `A`-facts of
/// the selective database. Deleting one removes its answer; re-inserting
/// restores it, so every edit is relevant to the view — the worst case
/// for incremental maintenance.
fn cleaning_cycle_facts(q: &ConjunctiveQuery, n: usize) -> Vec<Fact> {
    let groups = (n / 200).max(1);
    let a = q.schema().rel_id("A").expect("selective workload has A");
    (0..n.min(64))
        .map(|i| Fact::new(a, tup![format!("a{i:06}"), format!("g{:06}", i % groups)]))
        .collect()
}

/// Tuples per relation of the selective database the edit cycle runs on.
const CYCLE_TUPLES: usize = 1_000;

/// Edits in one delete/re-insert cycle: each cycle fact out and back in.
const CYCLE_EDITS: usize = 128;

/// Trace the delete/re-insert cycle over the selective database of `n`
/// tuples twice: with the answer set kept by a [`MaterializedView`]
/// (one `apply_edit` per edit), and by a full `answer_set` per edit. Both
/// must end with the answers of a fresh evaluation.
fn edit_cycle_work(n: usize) -> (Traced, Traced) {
    let (db0, q) = selective_workload(n);
    // steady state: no lazy index build lands inside the traced edits
    db0.ensure_indexes();
    let edits: Vec<Edit> = cleaning_cycle_facts(&q, n)
        .into_iter()
        .flat_map(|f| [Edit::delete(f.clone()), Edit::insert(f)])
        .collect();
    assert_eq!(edits.len(), CYCLE_EDITS);

    let mut db = db0.clone();
    let mut view = MaterializedView::new(q.clone(), &db);
    let ((), view_run) = traced(|| {
        for e in &edits {
            db.apply(e).expect("valid edit");
            view.apply_edit(&db, e);
        }
    });
    assert_eq!(view.answers(), answer_set(&q, &db), "view diverged");

    let mut db = db0.clone();
    let (answers, full_run) = traced(|| {
        let mut answers = Vec::new();
        for e in &edits {
            db.apply(e).expect("valid edit");
            answers = answer_set(&q, &db);
        }
        answers
    });
    assert_eq!(answers, answer_set(&q, &db0), "full re-evaluation diverged");
    (view_run, full_run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_rows_have_expected_shape() {
        let ex = Experiments::soccer();
        let t = fig3a(&ex);
        assert_eq!(t.rows.len(), 9); // 3 queries × 3 strategies
                                     // QOCO ≤ QOCO- for each query
        for chunk in t.rows.chunks(3) {
            let qoco: usize = chunk[0][3].parse().unwrap();
            let minus: usize = chunk[1][3].parse().unwrap();
            assert!(qoco <= minus, "{chunk:?}");
        }
    }

    #[test]
    fn fig3b_provenance_wins() {
        let ex = Experiments::soccer();
        let t = fig3b(&ex);
        assert_eq!(t.rows.len(), 9);
        for chunk in t.rows.chunks(3) {
            let prov: usize = chunk[0][3].parse().unwrap();
            for other in &chunk[1..] {
                let o: usize = other[3].parse().unwrap();
                assert!(prov <= o, "Provenance must not lose: {chunk:?}");
            }
        }
    }

    #[test]
    fn fig3d_gap_grows_with_noise() {
        let ex = Experiments::soccer();
        let t = fig3d(&ex);
        assert_eq!(t.rows.len(), 9);
        // within each noise level, QOCO ≤ QOCO⁻ ≤-ish Random; and QOCO's
        // questions grow monotonically across levels
        let q_at = |row: usize| t.rows[row][3].parse::<usize>().unwrap();
        assert!(
            q_at(0) <= q_at(3) && q_at(3) <= q_at(6),
            "QOCO questions grow with #wrong"
        );
        for chunk in t.rows.chunks(3) {
            let qoco: usize = chunk[0][3].parse().unwrap();
            let minus: usize = chunk[1][3].parse().unwrap();
            assert!(qoco <= minus, "{chunk:?}");
        }
    }

    #[test]
    fn fig3f_tuple_and_fill_categories_grow() {
        let ex = Experiments::soccer();
        let t = fig3f(&ex);
        assert_eq!(t.rows.len(), 3);
        let col = |row: usize, col: usize| t.rows[row][col].parse::<usize>().unwrap();
        assert!(
            col(0, 2) <= col(1, 2) && col(1, 2) <= col(2, 2),
            "verify tuples grows"
        );
        assert!(
            col(0, 3) <= col(1, 3) && col(1, 3) <= col(2, 3),
            "fill missing grows"
        );
    }

    #[test]
    fn sweep_cleanliness_cost_is_monotone_decreasing() {
        let ex = Experiments::soccer();
        let t = sweep_cleanliness(&ex);
        assert_eq!(t.rows.len(), 5);
        let edits = |row: usize| t.rows[row][5].parse::<usize>().unwrap();
        assert!(edits(0) >= edits(4), "cleaner data needs fewer edits");
    }

    #[test]
    fn phase_breakdown_covers_the_session() {
        let ex = Experiments::soccer();
        let t = phase_breakdown(&ex);
        let phases: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        for expected in [
            "clean.session",
            "clean.deletion_phase",
            "clean.insertion_phase",
            "eval.assignments",
        ] {
            assert!(
                phases.contains(&expected),
                "missing {expected} in {phases:?}"
            );
        }
        // the counters note proves the registry saw the same session
        let note = t.notes.first().expect("counters note");
        assert!(!note.contains("eval.assignments_tried=0"), "{note}");
        assert!(!note.contains("crowd.questions_asked=0"), "{note}");
    }

    #[test]
    fn dbgroup_case_totals_add_up() {
        let t = dbgroup_case();
        assert_eq!(t.rows.len(), 5); // 4 queries + total
        let sum: usize = t.rows[..4]
            .iter()
            .map(|r| r[1].parse::<usize>().unwrap())
            .sum();
        assert_eq!(sum.to_string(), t.rows[4][1]);
    }
}
