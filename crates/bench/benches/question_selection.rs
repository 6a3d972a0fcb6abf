//! The paper's timing claim (Section 7): "the running time required to
//! select the next question … was always not more than one or two seconds".
//! These benches measure our question-selection path: witness computation +
//! hitting-set bookkeeping + the greedy pick, and a full single-answer
//! removal round with a simulated oracle.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use qoco_core::{crowd_remove_wrong_answer, DeletionStrategy, HittingSetInstance};
use qoco_crowd::{PerfectOracle, SingleExpert};
use qoco_datasets::{generate_soccer, plant_wrong_answers, soccer_query, SoccerConfig};
use qoco_engine::witnesses_for_answer;

fn bench_selection(c: &mut Criterion) {
    let ground = generate_soccer(SoccerConfig::default());
    let q = soccer_query(ground.schema(), 3);
    let planted = plant_wrong_answers(&q, &ground, 1, 4, 7);
    let target = planted.wrong[0].clone();
    let db = planted.db.clone();

    c.bench_function("witnesses+greedy_pick(Q3)", |b| {
        b.iter(|| {
            let sets = witnesses_for_answer(&q, &db, &target);
            let instance = HittingSetInstance::new(sets);
            black_box(instance.most_frequent())
        })
    });

    c.bench_function("unique_minimal_hitting_set(Q3)", |b| {
        let sets = witnesses_for_answer(&q, &db, &target);
        let instance = HittingSetInstance::new(sets);
        b.iter(|| black_box(instance.unique_minimal_hitting_set()))
    });

    c.bench_function("remove_wrong_answer(Q3, full round)", |b| {
        b.iter(|| {
            let mut d = planted.db.clone();
            let mut crowd = SingleExpert::new(PerfectOracle::new(ground.clone()));
            black_box(
                crowd_remove_wrong_answer(
                    &q,
                    &mut d,
                    &target,
                    &mut crowd,
                    DeletionStrategy::Qoco,
                    &mut [],
                )
                .unwrap()
                .questions,
            )
        })
    });
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
