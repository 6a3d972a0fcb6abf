//! Controlled noise (Section 7.2).
//!
//! Two flavours:
//!
//! * [`inject_noise`] — the paper's global parameters: *degree of data
//!   cleanliness* `|D ∩ D_G| / (|D| + |D_G − D|)` and *noise skewness*
//!   `|D − D_G| / (|D − D_G| + |D_G − D|)`. The generator solves for the
//!   number of facts to remove (`m`) and to fabricate (`f`) and perturbs
//!   the ground truth accordingly.
//! * *query-aware planting* — Figures 3d–3f fix the number of wrong/missing
//!   answers of a specific query. [`plant_wrong_answers`] fabricates
//!   witnesses for fresh head values (guaranteed wrong, with a chosen
//!   number of witnesses each); [`plant_missing_answers`] removes a
//!   minimal hitting set of an answer's witnesses, verifying no collateral
//!   answer loss before committing.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qoco_data::{Database, Fact, Tuple, Value};
use qoco_engine::{answer_set, assignments_for_answer, witness_of};
use qoco_query::{ConjunctiveQuery, Term, Var};

/// Parameters for global (query-oblivious) noise.
#[derive(Debug, Clone, Copy)]
pub struct NoiseSpec {
    /// Target degree of data cleanliness in `(0, 1]`.
    pub cleanliness: f64,
    /// Target noise skewness in `[0, 1]` (1 = only false tuples, 0 = only
    /// missing tuples).
    pub skewness: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoiseSpec {
    fn default() -> Self {
        // the paper's defaults: cleanliness 80%
        NoiseSpec {
            cleanliness: 0.8,
            skewness: 1.0,
            seed: 1,
        }
    }
}

/// Produce a dirty copy of `ground` matching the cleanliness/skewness
/// targets as closely as integral fact counts allow.
///
/// # Panics
/// Panics if the parameters are outside their documented ranges.
pub fn inject_noise(ground: &Database, spec: NoiseSpec) -> Database {
    assert!(
        spec.cleanliness > 0.0 && spec.cleanliness <= 1.0,
        "cleanliness must be in (0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&spec.skewness),
        "skewness must be in [0, 1]"
    );
    let t = ground.len() as f64;
    let c = spec.cleanliness;
    let s = spec.skewness;
    // Solve |D∩DG| / (|D| + |DG−D|) = c with m removals and f fabrications:
    //   (T − m) / (T + f) = c   and   f / (f + m) = s.
    let (m, f) = if (s - 1.0).abs() < f64::EPSILON {
        (0.0, t * (1.0 - c) / c)
    } else {
        let m = t * (1.0 - c) * (1.0 - s) / ((1.0 - s) + c * s);
        (m, m * s / (1.0 - s))
    };
    let m = m.round() as usize;
    let f = f.round() as usize;

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut db = ground.clone();

    // removals
    let mut facts = ground.sorted_facts();
    for _ in 0..m.min(facts.len()) {
        let i = rng.random_range(0..facts.len());
        let victim = facts.swap_remove(i);
        db.remove(&victim).expect("removing an existing fact");
    }

    // fabrications: perturb one attribute of a random true fact
    let ground_facts = ground.sorted_facts();
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < f && attempts < f * 50 + 100 {
        attempts += 1;
        let template = &ground_facts[rng.random_range(0..ground_facts.len())];
        let arity = template.tuple.arity();
        let col = rng.random_range(0..arity);
        let domain = ground.column_domain(template.rel, col);
        let replacement = if domain.len() > 1 && rng.random_range(0..4) > 0 {
            domain[rng.random_range(0..domain.len())].clone()
        } else {
            Value::text(format!("noise-{added}"))
        };
        let candidate = Fact::new(template.rel, template.tuple.with(col, replacement));
        if ground.contains(&candidate) || db.contains(&candidate) {
            continue;
        }
        db.insert(candidate).expect("schema-compatible fabrication");
        added += 1;
    }

    db
}

/// The result of planting answers.
#[derive(Debug, Clone)]
pub struct PlantOutcome {
    /// The dirty database.
    pub db: Database,
    /// The planted wrong answers (tuples now in `Q(D) − Q(D_G)`).
    pub wrong: Vec<Tuple>,
    /// The planted missing answers (tuples now in `Q(D_G) − Q(D)`).
    pub missing: Vec<Tuple>,
}

/// Plant exactly `k` wrong answers for `q` by promoting non-answers:
/// each planted answer rebinds the head variables of
/// `witnesses_per_answer` ground-truth witness templates to values from the
/// *active domain* of the head positions, fabricating only the facts that
/// do not already exist. The resulting witnesses mix true and false facts —
/// the structure of the paper's Example 4.6 (where `Teams(ESP, EU)` is true
/// but the extra finals are false). A candidate is committed only if it
/// introduces exactly one new answer (no side effects on `q`); if no domain
/// candidate survives, a fresh constant is used as a guaranteed fallback.
///
/// # Panics
/// Panics if `q` has no valid assignment over the ground truth to use as a
/// witness template (the evaluation queries all do), or if a wrong answer
/// cannot be planted within the attempt budget.
pub fn plant_wrong_answers(
    q: &ConjunctiveQuery,
    ground: &Database,
    k: usize,
    witnesses_per_answer: usize,
    seed: u64,
) -> PlantOutcome {
    plant_wrong_answers_excluding(q, ground, k, witnesses_per_answer, seed, &BTreeSet::new())
}

/// [`plant_wrong_answers`] with a set of head tuples that must not be used
/// as planted answers — the mixed planter passes the just-removed missing
/// answers here, since promoting one of those would create a *true* answer,
/// not a wrong one.
pub fn plant_wrong_answers_excluding(
    q: &ConjunctiveQuery,
    ground: &Database,
    k: usize,
    witnesses_per_answer: usize,
    seed: u64,
    exclude: &BTreeSet<Tuple>,
) -> PlantOutcome {
    let mut db = ground.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let templates = qoco_engine::evaluate(q, ground).assignments;
    assert!(
        !templates.is_empty(),
        "query {} has no ground-truth assignments to clone witnesses from",
        q.name()
    );
    let head_vars = q.head_vars();

    // candidate values per head variable: the ground-truth domain of every
    // (relation, column) position the variable occurs at
    let mut var_domains: Vec<(Var, Vec<Value>)> = Vec::new();
    for v in &head_vars {
        let mut dom: BTreeSet<Value> = BTreeSet::new();
        for atom in q.atoms() {
            for (col, term) in atom.terms.iter().enumerate() {
                if term.as_var() == Some(v) {
                    dom.extend(ground.column_domain(atom.rel, col));
                }
            }
        }
        var_domains.push((v.clone(), dom.into_iter().collect()));
    }

    let truth: BTreeSet<Tuple> = answer_set(q, ground).into_iter().collect();
    let mut planted: BTreeSet<Tuple> = BTreeSet::new();
    let mut wrong = Vec::with_capacity(k);

    // variable domains for completing the fabricated part of a witness
    let all_var_domains: Vec<(Var, Vec<Value>)> = {
        let mut out = Vec::new();
        let mut seen: BTreeSet<Var> = BTreeSet::new();
        for atom in q.atoms() {
            for (col, term) in atom.terms.iter().enumerate() {
                if let Some(v) = term.as_var() {
                    if seen.insert(v.clone()) {
                        out.push((v.clone(), ground.column_domain(atom.rel, col)));
                    }
                }
            }
        }
        out
    };

    'answers: for i in 0..k {
        // try domain candidates first, then a fresh-constant fallback
        for attempt in 0..200 {
            let fresh: Vec<(Var, Value)> = if attempt < 150 {
                var_domains
                    .iter()
                    .map(|(v, dom)| (v.clone(), dom[rng.random_range(0..dom.len())].clone()))
                    .collect()
            } else {
                head_vars
                    .iter()
                    .map(|v| (v.clone(), Value::text(format!("wrong-{seed}-{i}-{v}"))))
                    .collect()
            };
            let head: Tuple = q
                .head()
                .iter()
                .map(|term| match term {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => fresh
                        .iter()
                        .find(|(f, _)| f == v)
                        .expect("head var")
                        .1
                        .clone(),
                })
                .collect();
            if truth.contains(&head) || planted.contains(&head) || exclude.contains(&head) {
                continue;
            }
            let Ok(q_v) = qoco_query::embed_answer(q, head.values()) else {
                continue; // head violates an inequality or a head constant
            };

            // Find the maximal subset of atoms of Q|v satisfiable over the
            // ground truth: those atoms will contribute *true* facts to the
            // planted witnesses — the paper's mixed-witness structure
            // (Example 4.6: Teams(ESP, EU) true, extra finals false).
            let n_atoms = q_v.atoms().len();
            let mut sat_atoms: Vec<usize> = Vec::new();
            for a in 0..n_atoms {
                let mut trial = sat_atoms.clone();
                trial.push(a);
                if let Ok(sub) = qoco_query::split_subset(&q_v, &trial) {
                    if qoco_engine::is_satisfiable(&sub, ground, &qoco_engine::Assignment::new()) {
                        sat_atoms = trial;
                    }
                }
            }
            if sat_atoms.len() == n_atoms {
                continue; // the head is effectively an answer already
            }
            // Tiered preference: early attempts demand maximal partial
            // support (all but one atom true — the ESP structure, where a
            // single kind of false fact hides among true ones), middle
            // attempts demand some support, late attempts take anything.
            if attempt < 70 && sat_atoms.len() + 1 < n_atoms {
                continue;
            }
            if attempt < 140 && sat_atoms.is_empty() {
                continue;
            }

            // base assignments: valid assignments of the satisfiable part
            let bases: Vec<qoco_engine::Assignment> = if sat_atoms.is_empty() {
                vec![qoco_engine::Assignment::new()]
            } else {
                let sub = qoco_query::split_subset(&q_v, &sat_atoms)
                    .expect("sat_atoms indexes are valid");
                qoco_engine::all_assignments(
                    &sub,
                    ground,
                    &qoco_engine::Assignment::new(),
                    qoco_engine::EvalOptions {
                        max_assignments: witnesses_per_answer.max(1) * 4,
                    },
                )
                .assignments
            };

            // fabricate witnesses: complete each base over the remaining
            // variables with random domain values, inserting only the facts
            // that do not exist in the ground truth
            let mut inserted: Vec<Fact> = Vec::new();
            let mut built = 0usize;
            'bases: for base in bases.iter().cycle().take(witnesses_per_answer.max(1) * 6) {
                if built >= witnesses_per_answer.max(1) {
                    break;
                }
                // extend to a total assignment of q_v
                let mut total = base.clone();
                let mut ok = true;
                for v in q_v.vars() {
                    if total.get(&v).is_some() {
                        continue;
                    }
                    let dom = all_var_domains
                        .iter()
                        .find(|(dv, _)| *dv == v)
                        .map(|(_, d)| d.as_slice())
                        .unwrap_or(&[]);
                    if dom.is_empty() {
                        ok = false;
                        break;
                    }
                    let val = dom[rng.random_range(0..dom.len())].clone();
                    total.bind(v, val);
                }
                if !ok {
                    continue 'bases;
                }
                for e in q_v.inequalities() {
                    if total.check_inequality(e) != Some(true) {
                        continue 'bases;
                    }
                }
                for atom in q_v.atoms() {
                    let fact = total.ground_atom(atom).expect("total assignment");
                    if !db.contains(&fact) {
                        db.insert(fact.clone())
                            .expect("planted fact matches schema");
                        inserted.push(fact);
                    }
                }
                built += 1;
            }
            if built == 0 || inserted.is_empty() {
                for f in inserted {
                    db.remove(&f).expect("removing a planted fact");
                }
                continue;
            }
            // verify: exactly this one new answer appeared
            let now: BTreeSet<Tuple> = answer_set(q, &db).into_iter().collect();
            let mut want: BTreeSet<Tuple> = truth.union(&planted).cloned().collect();
            want.insert(head.clone());
            if now == want {
                planted.insert(head.clone());
                wrong.push(head);
                continue 'answers;
            }
            // rollback and try another candidate
            for f in inserted {
                db.remove(&f).expect("removing a planted fact");
            }
        }
        panic!(
            "could not plant wrong answer {i} for {} within the attempt budget",
            q.name()
        );
    }
    wrong.sort();
    wrong.dedup();
    PlantOutcome {
        db,
        wrong,
        missing: Vec::new(),
    }
}

/// Plant up to `k` missing answers for `q` by deleting, per chosen answer,
/// a greedy hitting set of its witnesses. A candidate answer is committed
/// only if its removal does not collaterally remove other answers, so the
/// outcome has *exactly* the reported missing answers (fewer than `k` only
/// when the query lacks enough independent answers).
pub fn plant_missing_answers(
    q: &ConjunctiveQuery,
    ground: &Database,
    k: usize,
    seed: u64,
) -> PlantOutcome {
    let mut db = ground.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut answers = answer_set(q, ground);
    let mut expected: BTreeSet<Tuple> = answers.iter().cloned().collect();
    // shuffle deterministically so different seeds kill different answers
    for i in (1..answers.len()).rev() {
        answers.swap(i, rng.random_range(0..=i));
    }
    let mut missing = Vec::new();
    for t in answers {
        if missing.len() >= k {
            break;
        }
        // greedy hitting set over the answer's witnesses
        let mut sets: Vec<BTreeSet<Fact>> = assignments_for_answer(q, &db, &t)
            .iter()
            .map(|a| witness_of(q, a).expect("valid assignments are total"))
            .collect();
        sets.sort();
        sets.dedup();
        if sets.is_empty() {
            continue;
        }
        let mut removed: Vec<Fact> = Vec::new();
        while !sets.is_empty() {
            // most frequent fact across remaining witnesses
            let mut best: Option<(usize, Fact)> = None;
            let universe: BTreeSet<Fact> = sets.iter().flatten().cloned().collect();
            for f in universe {
                let freq = sets.iter().filter(|s| s.contains(&f)).count();
                match &best {
                    Some((bf, bfact)) if *bf > freq || (*bf == freq && *bfact <= f) => {}
                    _ => best = Some((freq, f)),
                }
            }
            let (_, fact) = best.expect("non-empty sets have a universe");
            sets.retain(|s| !s.contains(&fact));
            db.remove(&fact).expect("removing an existing fact");
            removed.push(fact);
        }
        // verify: exactly t disappeared
        let now: BTreeSet<Tuple> = answer_set(q, &db).into_iter().collect();
        let mut want = expected.clone();
        want.remove(&t);
        if now == want {
            expected = want;
            missing.push(t);
        } else {
            // rollback the collateral damage and try another answer
            for f in removed {
                db.insert(f).expect("restoring a removed fact");
            }
        }
    }
    missing.sort();
    PlantOutcome {
        db,
        wrong: Vec::new(),
        missing,
    }
}

/// Plant both kinds: first `k_missing` missing answers, then `k_wrong`
/// wrong ones (the mixed setting of Figures 3c and 3f).
pub fn plant_mixed(
    q: &ConjunctiveQuery,
    ground: &Database,
    k_wrong: usize,
    k_missing: usize,
    seed: u64,
) -> PlantOutcome {
    let missing_outcome = plant_missing_answers(q, ground, k_missing, seed);
    let exclude: BTreeSet<Tuple> = missing_outcome.missing.iter().cloned().collect();
    let wrong_outcome =
        plant_wrong_answers_excluding(q, &missing_outcome.db, k_wrong, 2, seed ^ 0x9e37, &exclude);
    PlantOutcome {
        db: wrong_outcome.db,
        wrong: wrong_outcome.wrong,
        missing: missing_outcome.missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::soccer_query;
    use crate::soccer::{generate_soccer, SoccerConfig};
    use qoco_data::diff;

    fn ground() -> Database {
        generate_soccer(SoccerConfig::default())
    }

    #[test]
    fn cleanliness_target_is_met() {
        let g = ground();
        for target in [0.6, 0.8, 0.95] {
            let d = inject_noise(
                &g,
                NoiseSpec {
                    cleanliness: target,
                    skewness: 1.0,
                    seed: 3,
                },
            );
            let r = diff(&d, &g).unwrap();
            assert!(
                (r.cleanliness() - target).abs() < 0.02,
                "target {target}, got {}",
                r.cleanliness()
            );
            assert_eq!(r.missing_facts.len(), 0, "skew 1.0 ⇒ no missing facts");
        }
    }

    #[test]
    fn skewness_target_is_met() {
        let g = ground();
        for skew in [0.0, 0.5, 1.0] {
            let d = inject_noise(
                &g,
                NoiseSpec {
                    cleanliness: 0.8,
                    skewness: skew,
                    seed: 4,
                },
            );
            let r = diff(&d, &g).unwrap();
            if r.distance() > 0 {
                assert!(
                    (r.skewness() - skew).abs() < 0.05,
                    "target skew {skew}, got {}",
                    r.skewness()
                );
            }
        }
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let g = ground();
        let spec = NoiseSpec::default();
        assert_eq!(
            inject_noise(&g, spec).sorted_facts(),
            inject_noise(&g, spec).sorted_facts()
        );
        let other = inject_noise(&g, NoiseSpec { seed: 9, ..spec });
        assert_ne!(inject_noise(&g, spec).sorted_facts(), other.sorted_facts());
    }

    #[test]
    #[should_panic(expected = "cleanliness")]
    fn bad_cleanliness_panics() {
        let g = ground();
        let _ = inject_noise(
            &g,
            NoiseSpec {
                cleanliness: 0.0,
                skewness: 1.0,
                seed: 1,
            },
        );
    }

    #[test]
    fn planted_wrong_answers_are_wrong_and_exact() {
        let g = ground();
        for (qi, k) in [(1usize, 3usize), (3, 5)] {
            let q = soccer_query(g.schema(), qi);
            let outcome = plant_wrong_answers(&q, &g, k, 2, 17);
            let dirty: BTreeSet<Tuple> = answer_set(&q, &outcome.db).into_iter().collect();
            let truth: BTreeSet<Tuple> = answer_set(&q, &g).into_iter().collect();
            let extra: Vec<&Tuple> = dirty.difference(&truth).collect();
            assert_eq!(extra.len(), k, "Q{qi}: wrong answers planted");
            assert_eq!(outcome.wrong.len(), k);
            for w in &outcome.wrong {
                assert!(dirty.contains(w) && !truth.contains(w));
            }
        }
    }

    #[test]
    fn planted_wrong_answers_have_requested_witness_counts() {
        let g = ground();
        let q = soccer_query(g.schema(), 3);
        let outcome = plant_wrong_answers(&q, &g, 2, 3, 23);
        for w in &outcome.wrong {
            // fabricated facts cross-combine (any fabricated game joins any
            // compatible Teams fact), so the requested count is a lower
            // bound on the combinatorial witness count — exactly as the
            // paper's ESP example turns 3 false finals into 6 witnesses.
            let n = qoco_engine::witnesses_for_answer(&q, &outcome.db, w).len();
            assert!(n >= 1, "planted answer must have a witness");
            assert!(n <= 100, "witness count {n} exploded");
        }
    }

    #[test]
    fn planted_missing_answers_are_missing_and_exact() {
        let g = ground();
        for (qi, k) in [(1usize, 2usize), (3, 5)] {
            let q = soccer_query(g.schema(), qi);
            let outcome = plant_missing_answers(&q, &g, k, 31);
            assert_eq!(outcome.missing.len(), k, "Q{qi}");
            let dirty: BTreeSet<Tuple> = answer_set(&q, &outcome.db).into_iter().collect();
            let truth: BTreeSet<Tuple> = answer_set(&q, &g).into_iter().collect();
            let missing: Vec<Tuple> = truth.difference(&dirty).cloned().collect();
            assert_eq!(
                missing, outcome.missing,
                "exactly the planted answers are missing"
            );
            // no wrong answers introduced
            assert!(dirty.is_subset(&truth));
        }
    }

    #[test]
    fn planting_missing_only_removes_facts() {
        let g = ground();
        let q = soccer_query(g.schema(), 1);
        let outcome = plant_missing_answers(&q, &g, 2, 8);
        let r = diff(&outcome.db, &g).unwrap();
        assert!(r.false_facts.is_empty());
        assert!(!r.missing_facts.is_empty());
    }

    #[test]
    fn mixed_planting_counts_both_kinds() {
        let g = ground();
        let q = soccer_query(g.schema(), 3);
        let outcome = plant_mixed(&q, &g, 3, 2, 12);
        assert_eq!(outcome.wrong.len(), 3);
        assert_eq!(outcome.missing.len(), 2);
        let dirty: BTreeSet<Tuple> = answer_set(&q, &outcome.db).into_iter().collect();
        let truth: BTreeSet<Tuple> = answer_set(&q, &g).into_iter().collect();
        for w in &outcome.wrong {
            assert!(dirty.contains(w) && !truth.contains(w));
        }
        for m in &outcome.missing {
            assert!(!dirty.contains(m) && truth.contains(m));
        }
    }
}
