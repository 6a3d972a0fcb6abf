//! Workload inputs, generated from the seed at set-up.
//!
//! Every cleaning session a workload runs is a [`Job`]: the dirty
//! database, the query, the strategy pair, and a transcript of the crowd
//! answers recorded once against `PerfectOracle` over the ground truth.
//! Timed loops replay the transcript, so the ground-truth simulator never
//! runs while the clock does.

use std::fmt::Write as _;
use std::sync::Arc;

use qoco::core::{
    clean_view, deletion_to_str, split_to_str, CleaningConfig, DeletionStrategy, SplitStrategyKind,
};
use qoco::crowd::{
    Answer, Oracle, OracleError, PerfectOracle, Question, QuestionKind, SingleExpert,
};
use qoco::data::{Database, Fact, Tuple, Value};
use qoco::datasets::{generate_soccer, plant_mixed, soccer_queries, SoccerConfig};
use qoco::engine::answer_set;
use qoco::query::{parse_query, ConjunctiveQuery};

/// The crowd's side of one session: each question's kind and its answer.
pub type Transcript = Vec<(QuestionKind, Answer)>;

/// One cleaning session of a workload, with what it must produce.
pub struct Job {
    /// `Q3 qoco+provenance`-style label for error messages.
    pub label: String,
    pub query: ConjunctiveQuery,
    pub dirty: Arc<Database>,
    pub config: CleaningConfig,
    pub transcript: Transcript,
    /// The in-process `clean_view` report the session must reproduce.
    pub report: String,
    /// `Q(D_G)`, sorted: what `Q(D')` must equal at the end.
    pub truth: Vec<Tuple>,
    /// The `POST /sessions` body that creates this session.
    pub spec_json: String,
}

/// The Fig. 3c mix: (query, wrong answers, missing answers).
const FIG3C: [(usize, usize, usize); 3] = [(1, 2, 1), (2, 3, 2), (3, 5, 3)];

/// Spread a seed and a small index into an independent sub-seed.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The strategy pairs of `clean_soccer`; the random baseline's seed comes
/// from the workload seed.
pub fn fig3c_strategies(seed: u64) -> Vec<(DeletionStrategy, SplitStrategyKind)> {
    vec![
        (DeletionStrategy::Qoco, SplitStrategyKind::Provenance),
        (DeletionStrategy::Qoco, SplitStrategyKind::MinCut),
        (DeletionStrategy::QocoMinus, SplitStrategyKind::Provenance),
        (
            DeletionStrategy::Random(sub_seed(seed, 99) % 1_000_000),
            SplitStrategyKind::Naive,
        ),
    ]
}

/// Jobs for the soccer workloads: `draws` rounds of Q1–Q3, each with its
/// own noise planted from `seed`, each cleaned under every strategy pair
/// given.
pub fn soccer_jobs(
    seed: u64,
    draws: u64,
    strategies: &[(DeletionStrategy, SplitStrategyKind)],
) -> Result<Vec<Job>, String> {
    let ground = generate_soccer(SoccerConfig::default());
    let queries = soccer_queries(ground.schema());
    let mut jobs = Vec::new();
    for (draw, (qi, wrong, missing)) in (0..draws).flat_map(|d| FIG3C.map(|f| (d, f))) {
        let q = &queries[qi - 1];
        let plant_seed = sub_seed(seed, draw * FIG3C.len() as u64 + qi as u64);
        let planted = plant_mixed(q, &ground, wrong, missing, plant_seed);
        // The server rebuilds the database row by row from the JSON spec;
        // rebuild it the same way here so both sides hold equal databases.
        let dirty = Arc::new(rebuild(&planted.db));
        let query_text = q.display();
        let reparsed = parse_query(dirty.schema(), &query_text)
            .map_err(|e| format!("{} does not round-trip through its text: {e}", q.name()))?;
        let truth = sorted(answer_set(&reparsed, &ground));
        for &(deletion, split) in strategies {
            let config = CleaningConfig {
                deletion,
                split,
                ..CleaningConfig::default()
            };
            let label = format!(
                "{} draw {draw} {}+{}",
                q.name(),
                deletion_to_str(deletion),
                split_to_str(split)
            );
            let (transcript, report) = record(&reparsed, &dirty, config, &ground, &truth)
                .map_err(|e| format!("{label}: {e}"))?;
            jobs.push(Job {
                label,
                query: reparsed.clone(),
                spec_json: spec_json(&dirty, &query_text, config),
                dirty: dirty.clone(),
                config,
                transcript,
                report,
                truth: truth.clone(),
            });
        }
    }
    Ok(jobs)
}

/// Negate the `n`-th boolean answer (1-based, across jobs in order) of the
/// transcripts the crowd replays; the expected reports stay as recorded.
/// Used to show that the correctness checks catch a wrong crowd.
pub fn flip_answer(jobs: &mut [Job], n: usize) -> Result<(), String> {
    let mut seen = 0;
    for job in jobs.iter_mut() {
        for (_, answer) in job.transcript.iter_mut() {
            if let Answer::Bool(b) = answer {
                seen += 1;
                if seen == n {
                    *b = !*b;
                    return Ok(());
                }
            }
        }
    }
    Err(format!(
        "--flip {n}: the transcripts hold only {seen} boolean answers"
    ))
}

pub fn sorted(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort();
    tuples
}

/// A copy of `db` built by inserting its rows relation by relation, in
/// iteration order — the order the serve API's JSON spec carries them in.
fn rebuild(db: &Database) -> Database {
    let mut out = Database::empty(db.schema().clone());
    for rel in db.schema().rel_ids() {
        for t in db.relation(rel).iter() {
            out.insert(Fact::new(rel, t.clone())).expect("same schema");
        }
    }
    out
}

/// Wraps the ground-truth oracle and writes down every answer it gives.
struct Recorder {
    inner: PerfectOracle,
    log: Transcript,
}

impl Oracle for Recorder {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        let answer = self.inner.answer(q)?;
        self.log.push((q.kind(), answer.clone()));
        Ok(answer)
    }
}

/// Clean `dirty` once against the ground truth, recording the crowd's
/// answers and the report; fails unless the session converges to `truth`.
fn record(
    q: &ConjunctiveQuery,
    dirty: &Database,
    config: CleaningConfig,
    ground: &Database,
    truth: &[Tuple],
) -> Result<(Transcript, String), String> {
    let mut db = dirty.clone();
    let mut crowd = SingleExpert::new(Recorder {
        inner: PerfectOracle::new(ground.clone()),
        log: Vec::new(),
    });
    let report = clean_view(q, &mut db, &mut crowd, config)
        .map_err(|e| format!("the recording session failed: {e}"))?;
    if sorted(answer_set(q, &db)) != truth {
        return Err("the recording session did not reach Q(D_G)".to_string());
    }
    if report.is_partial() {
        return Err("the recording session left items unresolved".to_string());
    }
    Ok((crowd.oracle().log.clone(), report.to_string()))
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, s);
    out
}

/// The inline `POST /sessions` spec: schema, rows, query and strategies.
fn spec_json(db: &Database, query: &str, config: CleaningConfig) -> String {
    let schema = db.schema();
    let mut out = String::from("{\"schema\":[");
    for (i, (_, rel)) in schema.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_str(&mut out, rel.name());
        out.push_str(",\"attrs\":[");
        for (j, attr) in rel.attrs().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_str(&mut out, attr);
        }
        out.push_str("]}");
    }
    out.push_str("],\"rows\":{");
    for (i, (rel, rs)) in schema.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, rs.name());
        out.push_str(":[");
        for (j, t) in db.relation(rel).iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            for (k, v) in t.values().iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match v {
                    Value::Int(n) => {
                        let _ = write!(out, "{n}");
                    }
                    Value::Text(s) => push_json_str(&mut out, s),
                }
            }
            out.push(']');
        }
        out.push(']');
    }
    out.push_str("},\"query\":");
    push_json_str(&mut out, query);
    out.push_str(",\"deletion\":");
    push_json_str(&mut out, &deletion_to_str(config.deletion));
    out.push_str(",\"split\":");
    push_json_str(&mut out, &split_to_str(config.split));
    out.push('}');
    out
}
