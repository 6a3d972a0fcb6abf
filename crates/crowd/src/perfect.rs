//! The perfect oracle: a simulator consulting the ground truth `D_G`.
//!
//! This is the paper's own measurement instrument: "a simulated perfect
//! oracle, namely an implemented oracle that consults with the ground truth
//! Soccer database" (Section 7.2) — and the paper reports that real perfect
//! experts gave results identical to it.
//!
//! Cost model: a closed question is one probe of `D_G`. `TRUE(Q, t)?`
//! seeds the head variables with `t` and stops at the first witness, so it
//! never evaluates all of `Q(D_G)`. Only `COMPL(Q(D))` needs the full answer
//! set, and it is computed once per query and kept: `D_G` is private and
//! never changes, so the memo cannot go stale.

use std::collections::HashSet;

use qoco_data::{Database, Tuple};
use qoco_engine::{all_assignments, answer_set, is_satisfiable, Assignment, EvalOptions};
use qoco_query::ConjunctiveQuery;

use crate::fault::OracleError;
use crate::oracle::Oracle;
use crate::question::{Answer, Question};

/// A perfect oracle backed by a private copy of the ground truth database.
pub struct PerfectOracle {
    ground: Database,
    label: String,
    /// The sorted `Q(D_G)` of every query asked `COMPL(Q(D))` so far.
    answer_sets: Vec<(ConjunctiveQuery, Vec<Tuple>)>,
}

impl PerfectOracle {
    /// Build a perfect oracle over `ground`.
    pub fn new(ground: Database) -> Self {
        PerfectOracle::with_label(ground, "perfect-oracle")
    }

    /// Build with a custom label.
    pub fn with_label(ground: Database, label: impl Into<String>) -> Self {
        PerfectOracle {
            ground,
            label: label.into(),
            answer_sets: Vec::new(),
        }
    }

    /// `Q(D_G)`, sorted: evaluated on the first call for `q`, then read
    /// from the memo.
    pub(crate) fn answer_set(&mut self, q: &ConjunctiveQuery) -> &[Tuple] {
        let i = match self.answer_sets.iter().position(|(k, _)| k == q) {
            Some(i) => i,
            None => {
                let answers = answer_set(q, &self.ground);
                self.answer_sets.push((q.clone(), answers));
                self.answer_sets.len() - 1
            }
        };
        &self.answer_sets[i].1
    }
}

impl Oracle for PerfectOracle {
    fn answer(&mut self, q: &Question) -> Result<Answer, OracleError> {
        Ok(match q {
            Question::VerifyFact(f) => Answer::Bool(self.ground.contains(f)),
            Question::VerifyAllFacts(facts) => {
                Answer::Bool(facts.iter().all(|f| self.ground.contains(f)))
            }
            Question::VerifyAnswer { query, answer } => Answer::Bool(
                Assignment::from_answer(query, answer)
                    .is_some_and(|seed| is_satisfiable(query, &self.ground, &seed)),
            ),
            Question::VerifySatisfiable { query, partial } => {
                Answer::Bool(is_satisfiable(query, &self.ground, partial))
            }
            Question::Complete { query, partial } => {
                // the minimal (in assignment order) valid extension keeps
                // the simulator deterministic
                let res = all_assignments(query, &self.ground, partial, EvalOptions::default());
                Answer::Completion(res.assignments.into_iter().next())
            }
            Question::CompleteResult { query, known } => {
                let known: HashSet<&Tuple> = known.iter().collect();
                let missing = self
                    .answer_set(query)
                    .iter()
                    .find(|t| !known.contains(t))
                    .cloned();
                Answer::MissingAnswer(missing)
            }
        })
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoco_data::{tup, Fact, Schema};
    use qoco_query::parse_query;

    fn ground() -> Database {
        let s = Schema::builder()
            .relation("Teams", &["country", "continent"])
            .build()
            .unwrap();
        let mut g = Database::empty(s);
        for (c, k) in [("GER", "EU"), ("ITA", "EU"), ("BRA", "SA")] {
            g.insert_named("Teams", tup![c, k]).unwrap();
        }
        g
    }

    #[test]
    fn verify_fact_consults_ground_truth() {
        let g = ground();
        let teams = g.schema().rel_id("Teams").unwrap();
        let mut o = PerfectOracle::new(g);
        assert_eq!(
            o.answer(&Question::VerifyFact(Fact::new(teams, tup!["GER", "EU"]))),
            Ok(Answer::Bool(true))
        );
        assert_eq!(
            o.answer(&Question::VerifyFact(Fact::new(teams, tup!["BRA", "EU"]))),
            Ok(Answer::Bool(false))
        );
    }

    #[test]
    fn verify_answer_evaluates_query_on_ground_truth() {
        let g = ground();
        let q = parse_query(g.schema(), r#"(x) :- Teams(x, "EU")"#).unwrap();
        let mut o = PerfectOracle::new(g);
        assert!(o
            .answer(&Question::VerifyAnswer {
                query: q.clone(),
                answer: tup!["ITA"]
            })
            .unwrap()
            .expect_bool());
        assert!(!o
            .answer(&Question::VerifyAnswer {
                query: q,
                answer: tup!["BRA"]
            })
            .unwrap()
            .expect_bool());
    }

    #[test]
    fn satisfiability_and_completion() {
        let g = ground();
        let q = parse_query(g.schema(), r#"(x, k) :- Teams(x, k)"#).unwrap();
        let mut o = PerfectOracle::new(g);
        let partial =
            Assignment::from_pairs([(qoco_query::Var::new("x"), qoco_data::Value::text("ITA"))]);
        assert!(o
            .answer(&Question::VerifySatisfiable {
                query: q.clone(),
                partial: partial.clone()
            })
            .unwrap()
            .expect_bool());
        let completion = o
            .answer(&Question::Complete {
                query: q.clone(),
                partial,
            })
            .unwrap()
            .expect_completion()
            .unwrap();
        assert_eq!(
            completion.get(&qoco_query::Var::new("k")),
            Some(&qoco_data::Value::text("EU"))
        );
        // unsatisfiable partial → None
        let bad =
            Assignment::from_pairs([(qoco_query::Var::new("x"), qoco_data::Value::text("FRA"))]);
        assert!(!o
            .answer(&Question::VerifySatisfiable {
                query: q.clone(),
                partial: bad.clone()
            })
            .unwrap()
            .expect_bool());
        assert_eq!(
            o.answer(&Question::Complete {
                query: q,
                partial: bad
            })
            .unwrap()
            .expect_completion(),
            None
        );
    }

    #[test]
    fn complete_result_reports_one_missing_answer_then_none() {
        let g = ground();
        let q = parse_query(g.schema(), r#"(x) :- Teams(x, "EU")"#).unwrap();
        let mut o = PerfectOracle::new(g);
        let known = vec![tup!["GER"]];
        let miss = o
            .answer(&Question::CompleteResult {
                query: q.clone(),
                known,
            })
            .unwrap()
            .expect_missing();
        assert_eq!(miss, Some(tup!["ITA"]));
        let all_known = vec![tup!["GER"], tup!["ITA"]];
        let done = o
            .answer(&Question::CompleteResult {
                query: q,
                known: all_known,
            })
            .unwrap()
            .expect_missing();
        assert_eq!(done, None);
    }

    #[test]
    fn completion_is_deterministic() {
        let g = ground();
        let q = parse_query(g.schema(), r#"(x, k) :- Teams(x, k)"#).unwrap();
        let mut o = PerfectOracle::new(g);
        let c1 = o
            .answer(&Question::Complete {
                query: q.clone(),
                partial: Assignment::new(),
            })
            .unwrap()
            .expect_completion();
        let c2 = o
            .answer(&Question::Complete {
                query: q,
                partial: Assignment::new(),
            })
            .unwrap()
            .expect_completion();
        assert_eq!(c1, c2);
    }

    #[test]
    fn label_round_trips() {
        let o = PerfectOracle::with_label(ground(), "alice");
        assert_eq!(o.label(), "alice");
    }
}
