//! Composite questions: group-testing deletion (paper Section 9).
//!
//! "We plan to consider richer crowd interactions by allowing composite
//! crowd questions where, for example, the correctness of several tuples is
//! posed in a single question. Composite questions can potentially reduce
//! the number of questions posed in general."
//!
//! With a composite `TRUE-ALL(S)?` primitive, finding the false facts among
//! a witness universe becomes classical *group testing*: ask about the
//! whole set; a YES clears everything in one question, a NO splits the set
//! and recurses. With `f` false facts among `n`, this costs
//! `O(f · log(n/f))` questions instead of `n` — a large win exactly when
//! most witness tuples are true, which is the regime of the paper's
//! deletion experiments.

use qoco_crowd::CrowdAccess;
use qoco_data::{Database, Edit, EditLog, Fact, Tuple};
use qoco_engine::witnesses_for_answer;
use qoco_query::ConjunctiveQuery;

use crate::deletion::DeletionOutcome;
use crate::error::CleanError;
use crate::hitting_set::HittingSetInstance;

/// Identify the false facts in `facts` using composite questions
/// (binary-splitting group testing). Returns the false subset and the
/// number of composite questions asked. A crowd failure aborts the whole
/// group test ([`CleanError::CrowdUnavailable`]) — partial knowledge about
/// which *groups* are contaminated does not identify any individual fact.
pub fn find_false_facts<C: CrowdAccess + ?Sized>(
    crowd: &mut C,
    facts: &[Fact],
) -> Result<(Vec<Fact>, usize), CleanError> {
    let mut false_facts = Vec::new();
    let mut questions = 0usize;
    if facts.is_empty() {
        return Ok((false_facts, questions));
    }
    questions += 1;
    if crowd.verify_facts_all(facts)? {
        return Ok((false_facts, questions));
    }
    // stack of groups KNOWN to contain at least one false fact
    let mut stack: Vec<Vec<Fact>> = vec![facts.to_vec()];
    while let Some(group) = stack.pop() {
        if group.len() == 1 {
            if let Some(f) = group.into_iter().next() {
                false_facts.push(f);
            }
            continue;
        }
        let mid = group.len() / 2;
        let (left, right) = group.split_at(mid);
        questions += 1;
        if crowd.verify_facts_all(left)? {
            // left clean ⇒ the contamination is in the right half
            stack.push(right.to_vec());
        } else {
            stack.push(left.to_vec());
            // the right half may or may not also be contaminated
            questions += 1;
            if !crowd.verify_facts_all(right)? {
                stack.push(right.to_vec());
            }
        }
    }
    false_facts.sort();
    Ok((false_facts, questions))
}

/// Remove a wrong answer using composite questions: group-test the witness
/// universe for its false facts, then delete the false facts that hit every
/// witness (all of them — deleting every discovered false fact both fixes
/// the answer and cleans the database, per the paper's observation that
/// redundant deletions of false tuples "improve the correctness of the
/// database").
pub fn crowd_remove_wrong_answer_composite<C: CrowdAccess + ?Sized>(
    q: &ConjunctiveQuery,
    db: &mut Database,
    t: &Tuple,
    crowd: &mut C,
) -> Result<DeletionOutcome, CleanError> {
    let witnesses = witnesses_for_answer(q, db, t);
    let instance = HittingSetInstance::new(witnesses);
    let universe: Vec<Fact> = instance.universe().into_iter().collect();
    let upper_bound = universe.len();
    let (false_facts, questions) = find_false_facts(crowd, &universe)?;
    let mut edits = EditLog::new();
    let mut check = instance.clone();
    for f in &false_facts {
        check.confirm_false(f);
        edits.push(Edit::delete(f.clone()));
    }
    // with a truthful oracle every witness holds a false fact, so the
    // instance must now be destroyed; surviving sets are anomalies
    let anomalies = check.sets().len();
    db.apply_all(edits.edits())?;
    Ok(DeletionOutcome {
        edits,
        questions,
        upper_bound,
        anomalies,
        failure: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deletion::{crowd_remove_wrong_answer, DeletionStrategy};
    use qoco_crowd::{PerfectOracle, SingleExpert};
    use qoco_data::{tup, Schema};
    use qoco_engine::answer_set;
    use qoco_query::parse_query;
    use std::sync::Arc;

    /// The ESP scenario of Example 4.6 again: 4 finals in D, 3 false.
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
        g.insert_named("Teams", tup!["ESP", "EU"]).unwrap();
        let q = parse_query(
            &schema,
            r#"Q1(x) :- Games(d1, x, y, "Final", u1), Games(d2, x, z, "Final", u2), Teams(x, "EU"), d1 != d2."#,
        )
        .unwrap();
        (schema, d, g, q)
    }

    #[test]
    fn group_testing_finds_exactly_the_false_facts() {
        let (schema, d, g, _) = setup();
        let games = schema.rel_id("Games").unwrap();
        let facts: Vec<Fact> = d
            .relation(games)
            .sorted()
            .into_iter()
            .map(|t| Fact::new(games, t))
            .collect();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g.clone()));
        let (false_facts, questions) = find_false_facts(&mut crowd, &facts).unwrap();
        assert_eq!(false_facts.len(), 3);
        assert!(false_facts.iter().all(|f| !g.contains(f)));
        assert!(questions >= 1);
        assert_eq!(crowd.stats().composite_questions, questions);
    }

    #[test]
    fn all_true_group_costs_one_question() {
        let (schema, _, g, _) = setup();
        let games = schema.rel_id("Games").unwrap();
        let facts = vec![Fact::new(
            games,
            tup!["11.07.10", "ESP", "NED", "Final", "1:0"],
        )];
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let (false_facts, questions) = find_false_facts(&mut crowd, &facts).unwrap();
        assert!(false_facts.is_empty());
        assert_eq!(questions, 1);
    }

    #[test]
    fn empty_group_is_free() {
        let (_, _, g, _) = setup();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let (false_facts, questions) = find_false_facts(&mut crowd, &[]).unwrap();
        assert!(false_facts.is_empty());
        assert_eq!(questions, 0);
    }

    #[test]
    fn composite_removal_cleans_the_answer() {
        let (_, mut d, g, q) = setup();
        let mut crowd = SingleExpert::new(PerfectOracle::new(g));
        let out =
            crowd_remove_wrong_answer_composite(&q, &mut d, &tup!["ESP"], &mut crowd).unwrap();
        assert!(answer_set(&q, &d).is_empty());
        assert_eq!(out.anomalies, 0);
        assert_eq!(out.edits.deletions(), 3);
    }

    #[test]
    fn composite_beats_individual_questions_when_most_facts_are_true() {
        // a single long witness of uniform-frequency facts, exactly one of
        // them false: individual questions pay ~n, group testing ~log n
        let n = 16usize;
        let schema = Schema::builder()
            .relation("E", &["a", "b"])
            .build()
            .unwrap();
        let mut d = Database::empty(schema.clone());
        let mut g = Database::empty(schema.clone());
        let node = |i: usize| format!("n{i:02}");
        for i in 0..n {
            d.insert_named("E", tup![node(i).as_str(), node(i + 1).as_str()])
                .unwrap();
            if i != n - 1 {
                // the LAST edge is false (sorted last, so the tie-breaking
                // individual strategy asks about it last)
                g.insert_named("E", tup![node(i).as_str(), node(i + 1).as_str()])
                    .unwrap();
            }
        }
        // chain query: (x0) :- E(x0,x1), E(x1,x2), …, E(x15,x16)
        let body: Vec<String> = (0..n).map(|i| format!("E(x{i}, x{})", i + 1)).collect();
        let text = format!("(x0) :- {}", body.join(", "));
        let q = parse_query(&schema, &text).unwrap();
        let target = tup!["n00"];

        let mut d1 = d.clone();
        let mut crowd1 = SingleExpert::new(PerfectOracle::new(g.clone()));
        let composite =
            crowd_remove_wrong_answer_composite(&q, &mut d1, &target, &mut crowd1).unwrap();
        let mut d2 = d.clone();
        let mut crowd2 = SingleExpert::new(PerfectOracle::new(g.clone()));
        let singles = crowd_remove_wrong_answer(
            &q,
            &mut d2,
            &target,
            &mut crowd2,
            DeletionStrategy::QocoMinus,
            &mut [],
        )
        .unwrap();
        assert!(answer_set(&q, &d1).is_empty());
        assert!(answer_set(&q, &d2).is_empty());
        assert!(
            composite.questions < singles.questions,
            "composite {} vs singles {}",
            composite.questions,
            singles.questions
        );
        // the false edge was found and deleted in both runs
        assert_eq!(composite.edits.deletions(), 1);
    }
}
