//! A sampling enumeration oracle: the crowd model behind the Chao92
//! black-box.
//!
//! The enumeration black-box of Trushkowsky et al. \[61\] assumes workers
//! answer `COMPL(Q(D))` by *sampling* from the true answer set — different
//! workers name answers they happen to know, with duplicates — and the
//! species-richness estimator infers from the duplicate structure when the
//! enumeration is complete. [`SamplingOracle`] implements exactly that
//! reply model (a weighted random true answer, ignoring what is already
//! known), while answering every other question type perfectly. Pair it
//! with [`Chao92Estimator`](crate::enumeration::Chao92Estimator) via
//! `clean_view_with_estimator` to exercise the statistical stopping rule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qoco_data::Database;

use crate::fault::OracleError;
use crate::oracle::Oracle;
use crate::perfect::PerfectOracle;
use crate::question::{Answer, Question};

/// A perfect oracle whose `COMPL(Q(D))` replies are random draws from the
/// true answer set (with a skewed popularity distribution), as a crowd of
/// enumerating workers would produce.
pub struct SamplingOracle {
    inner: PerfectOracle,
    rng: StdRng,
    /// Zipf-ish skew: higher values make popular answers dominate.
    skew: f64,
}

impl SamplingOracle {
    /// Build over the ground truth with a seed and a popularity skew
    /// (`0.0` = uniform; `1.0` = strongly skewed).
    pub fn new(ground: Database, seed: u64, skew: f64) -> Self {
        assert!((0.0..=1.0).contains(&skew), "skew must be in [0, 1]");
        SamplingOracle {
            inner: PerfectOracle::new(ground),
            rng: StdRng::seed_from_u64(seed),
            skew,
        }
    }
}

impl Oracle for SamplingOracle {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        match q {
            Question::CompleteResult { query, .. } => {
                // sample from the full true answer set, ignoring `known` —
                // a worker names an answer they know, possibly a duplicate
                let answers = self.inner.answer_set(query);
                if answers.is_empty() {
                    return Ok(Answer::MissingAnswer(None));
                }
                // skewed index: squashing the uniform draw toward 0 makes
                // low-index answers more popular
                let u: f64 = self.rng.random();
                let skewed = u.powf(1.0 + 3.0 * self.skew);
                let idx = ((skewed * answers.len() as f64) as usize).min(answers.len() - 1);
                Ok(Answer::MissingAnswer(Some(answers[idx].clone())))
            }
            other => self.inner.answer(other),
        }
    }

    fn label(&self) -> String {
        "sampling-oracle".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::{Chao92Estimator, CompletenessEstimator};
    use qoco_data::{tup, Schema};
    use qoco_query::parse_query;

    fn ground(n: usize) -> Database {
        let s = Schema::builder().relation("T", &["a"]).build().unwrap();
        let mut g = Database::empty(s);
        for i in 0..n {
            g.insert_named("T", tup![format!("t{i:02}").as_str()])
                .unwrap();
        }
        g
    }

    #[test]
    fn sampling_replies_are_true_answers_with_duplicates() {
        let g = ground(5);
        let q = parse_query(g.schema(), "(x) :- T(x)").unwrap();
        let mut o = SamplingOracle::new(g.clone(), 3, 0.5);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..100 {
            let t = o
                .answer(&Question::CompleteResult {
                    query: q.clone(),
                    known: vec![],
                })
                .unwrap()
                .expect_missing()
                .expect("non-empty answer set");
            *seen.entry(t).or_insert(0usize) += 1;
        }
        assert!(seen.len() <= 5);
        assert!(
            seen.values().any(|&c| c > 1),
            "100 draws over 5 answers must repeat"
        );
        let truth = qoco_engine::answer_set(&q, &g);
        assert!(seen.keys().all(|t| truth.contains(t)));
    }

    #[test]
    fn chao92_declares_completeness_after_enough_sampling() {
        let g = ground(6);
        let q = parse_query(g.schema(), "(x) :- T(x)").unwrap();
        let mut o = SamplingOracle::new(g, 9, 0.0);
        let mut est = Chao92Estimator::new();
        let mut distinct = std::collections::BTreeSet::new();
        let mut rounds = 0;
        while !est.likely_complete(distinct.len()) && rounds < 500 {
            rounds += 1;
            let t = o
                .answer(&Question::CompleteResult {
                    query: q.clone(),
                    known: vec![],
                })
                .unwrap()
                .expect_missing()
                .expect("answers exist");
            est.observe(&t);
            distinct.insert(t);
        }
        assert!(rounds < 500, "estimator must converge");
        // the statistical stopping rule may fire slightly early; it must be
        // close to (and is usually exactly) full coverage
        assert!(
            distinct.len() >= 5,
            "declared complete at {} of 6",
            distinct.len()
        );
    }

    #[test]
    fn other_questions_stay_perfect() {
        let g = ground(2);
        let rel = g.schema().rel_id("T").unwrap();
        let mut o = SamplingOracle::new(g, 1, 0.2);
        assert!(o
            .answer(&Question::VerifyFact(qoco_data::Fact::new(
                rel,
                tup!["t00"]
            )))
            .unwrap()
            .expect_bool());
        assert!(!o
            .answer(&Question::VerifyFact(qoco_data::Fact::new(rel, tup!["zz"])))
            .unwrap()
            .expect_bool());
        assert_eq!(o.label(), "sampling-oracle");
    }

    #[test]
    #[should_panic(expected = "skew")]
    fn bad_skew_panics() {
        let _ = SamplingOracle::new(ground(1), 0, 2.0);
    }

    #[test]
    fn empty_answer_set_reports_none() {
        let s = Schema::builder().relation("T", &["a"]).build().unwrap();
        let g = Database::empty(s.clone());
        let q = parse_query(&s, "(x) :- T(x)").unwrap();
        let mut o = SamplingOracle::new(g, 0, 0.0);
        assert_eq!(
            o.answer(&Question::CompleteResult {
                query: q,
                known: vec![]
            })
            .unwrap()
            .expect_missing(),
            None
        );
    }
}
