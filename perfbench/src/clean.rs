//! `clean_soccer`: Algorithm 3 sessions run in-process through
//! `clean_view`, with the crowd replayed from the set-up transcripts.

use std::time::{Duration, Instant};

use qoco::core::clean_view;
use qoco::crowd::{Answer, CrowdStats, Oracle, OracleError, Question, QuestionKind, SingleExpert};
use qoco::engine::answer_set;

use crate::inputs::{sorted, Job};
use crate::Outcome;

/// The benchmark's crowd: answers from a transcript, in order, and times
/// the program between one answer and the next question.
pub struct Replay<'a> {
    script: &'a [(QuestionKind, Answer)],
    next: usize,
    diverged: bool,
    started: Instant,
    last: Instant,
    /// Session start to the first question.
    pub first_question: Option<Duration>,
    /// Answer returned to the next question asked, one per gap.
    pub gaps: Vec<Duration>,
    /// Time spent inside this oracle.
    pub oracle_time: Duration,
}

impl<'a> Replay<'a> {
    pub fn new(script: &'a [(QuestionKind, Answer)]) -> Replay<'a> {
        let now = Instant::now();
        Replay {
            script,
            next: 0,
            diverged: false,
            started: now,
            last: now,
            first_question: None,
            gaps: Vec::new(),
            oracle_time: Duration::ZERO,
        }
    }

    /// Every question matched the transcript and all of it was used.
    pub fn followed_script(&self) -> bool {
        !self.diverged && self.next == self.script.len()
    }

    pub fn answered(&self) -> usize {
        self.next
    }
}

impl Oracle for Replay<'_> {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        let asked = Instant::now();
        if self.next == 0 {
            self.first_question = Some(asked - self.started);
        } else {
            self.gaps.push(asked - self.last);
        }
        let reply = match self.script.get(self.next) {
            Some((kind, answer)) if *kind == q.kind() => {
                self.next += 1;
                Ok(answer.clone())
            }
            // A question the transcript does not have: the crowd walks away
            // and the session ends with a partial report.
            _ => {
                self.diverged = true;
                Err(OracleError::Dropped)
            }
        };
        self.last = Instant::now();
        self.oracle_time += self.last - asked;
        reply
    }
}

/// What one or more passes over the jobs measured.
#[derive(Default)]
pub struct CleanSamples {
    pub outcome: Outcome,
    pub gaps_ms: Vec<f64>,
    /// Per session, the mean of its gaps: most gaps last well under a
    /// microsecond (the next question was already computed), so the
    /// median gap measures the clock, and a session's mean is what its
    /// expert waits per question.
    pub session_wait_ms: Vec<f64>,
    pub first_question_ms: Vec<f64>,
    /// Summed `clean_view` wall time.
    pub session_time: Duration,
    pub oracle_time: Duration,
    pub questions: u64,
    pub stats: CrowdStats,
}

/// Run every job once, in order, checking each session's outcome.
pub fn run_pass(jobs: &[Job], out: &mut CleanSamples) {
    for job in jobs {
        let mut db = (*job.dirty).clone();
        let mut crowd = SingleExpert::new(Replay::new(&job.transcript));
        let started = Instant::now();
        let result = clean_view(&job.query, &mut db, &mut crowd, job.config);
        out.session_time += started.elapsed();
        let replay = crowd.oracle();
        out.questions += replay.answered() as u64;
        out.oracle_time += replay.oracle_time;
        out.gaps_ms
            .extend(replay.gaps.iter().map(|d| d.as_secs_f64() * 1e3));
        if !replay.gaps.is_empty() {
            let waited: Duration = replay.gaps.iter().sum();
            out.session_wait_ms
                .push(waited.as_secs_f64() * 1e3 / replay.gaps.len() as f64);
        }
        if let Some(d) = replay.first_question {
            out.first_question_ms.push(d.as_secs_f64() * 1e3);
        }
        let problem = match &result {
            Err(e) => Some(format!("cleaner error: {e}")),
            Ok(_) if !replay.followed_script() => {
                Some("questions departed from the transcript".to_string())
            }
            Ok(report) if report.to_string() != job.report => {
                Some("report differs from the recorded one".to_string())
            }
            Ok(_) if sorted(answer_set(&job.query, &db)) != job.truth => {
                Some("Q(D') != Q(D_G)".to_string())
            }
            Ok(_) => None,
        };
        if let Ok(report) = &result {
            out.stats.absorb(&report.total_stats);
        }
        out.outcome.record(&job.label, problem);
    }
}
