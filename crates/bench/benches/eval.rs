//! Query evaluation benchmarks.
//!
//! Two parts:
//! 1. criterion-style micro-benchmarks on the paper-scale soccer database
//!    (answer-set computation and witness extraction for Q1–Q5);
//! 2. the size scaling sweep from [`qoco_bench::scaling`]
//!    (shared with the `qoco-bench regressions` gate), writing the
//!    measurements to `BENCH_eval.json` at the repository root.

use criterion::Criterion;
use std::hint::black_box;

use qoco_bench::scaling::{render_json, scaling_sweep, SweepConfig};
use qoco_datasets::{generate_soccer, soccer_queries, SoccerConfig};
use qoco_engine::{answer_set, witnesses_for_answer};

fn bench_answer_sets(c: &mut Criterion) {
    let ground = generate_soccer(SoccerConfig::default());
    let queries = soccer_queries(ground.schema());
    let mut group = c.benchmark_group("answer_set");
    for q in &queries {
        let db = ground.clone();
        group.bench_function(q.name(), |b| b.iter(|| black_box(answer_set(q, &db)).len()));
    }
    group.finish();
}

fn bench_witnesses(c: &mut Criterion) {
    let ground = generate_soccer(SoccerConfig::default());
    let queries = soccer_queries(ground.schema());
    let mut group = c.benchmark_group("witnesses_for_answer");
    for q in &queries {
        let db = ground.clone();
        let answers = answer_set(q, &db);
        let target = answers.first().cloned().expect("non-empty result");
        group.bench_function(q.name(), |b| {
            b.iter(|| black_box(witnesses_for_answer(q, &db, &target)).len())
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_answer_sets(&mut c);
    bench_witnesses(&mut c);
    let samples = scaling_sweep(&SweepConfig::full());
    for s in &samples {
        println!(
            "eval_scaling/{}/n={}/{}  {:>12.0} ns/iter  ({} iters, {} assignments)",
            s.workload, s.size, s.engine, s.mean_ns, s.iters, s.assignments
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_eval.json");
    std::fs::write(path, render_json(&samples)).expect("write BENCH_eval.json");
    println!("wrote {path}");
}
