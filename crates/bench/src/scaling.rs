//! The eval scaling sweep over database sizes.
//!
//! Shared by `cargo bench --bench eval` (which writes `BENCH_eval.json` at
//! the repository root) and by the `qoco-bench regressions` gate (which
//! re-runs the sweep and compares it against that committed baseline). Both
//! must measure the exact same cells the same way, which is why the
//! workloads, the adaptive measurement loop, and the JSON rendering live
//! here rather than in the bench binary.
//!
//! Three workloads: `selective` and `dense` measure one full evaluation;
//! `cleaning_sweep` measures edits — a delete/re-insert cycle over a
//! selective-shaped database, with the answer set maintained either
//! incrementally (`view` engine, [`MaterializedView::apply_edit`] per
//! edit) or by full re-evaluation (`fullre` engine, the pre-view cleaning
//! loop's behaviour). Its `mean_ns` is per *edit*, so `1e9 / mean_ns` is
//! the edits-per-second figure the README quotes.

use std::hint::black_box;
use std::time::Instant;

use qoco_data::{tup, Database, Edit, Fact, Schema};
use qoco_engine::{answer_set, evaluate, MaterializedView};
use qoco_query::{parse_query, ConjunctiveQuery};

use crate::seed_eval::SeedEval;

/// One measured cell of the sweep.
pub struct Sample {
    /// Workload name (`"selective"`, `"dense"` or `"cleaning_sweep"`).
    pub workload: &'static str,
    /// Tuples per relation.
    pub size: usize,
    /// `"seed"` (preserved PR 2 baseline algorithm) or `"current"` for the
    /// eval workloads; `"view"` (incremental) or `"fullre"` (re-evaluate
    /// after every edit) for `cleaning_sweep`.
    pub engine: &'static str,
    /// Mean wall-clock nanoseconds per evaluation.
    pub mean_ns: f64,
    /// Iterations the adaptive loop settled on.
    pub iters: usize,
    /// Valid assignments the evaluation produced (sanity anchor).
    pub assignments: usize,
}

impl Sample {
    /// `workload/size/engine` — the cell's identity, used to match
    /// measurements against baseline entries.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.workload, self.size, self.engine)
    }
}

/// Which cells to measure and how long to measure each.
pub struct SweepConfig {
    /// Tuples per relation, per eval-workload cell.
    pub sizes: Vec<usize>,
    /// Tuples per relation for the `cleaning_sweep` cells (kept separate:
    /// the edit cycle scales to 10⁶ tuples, where the seed eval engine —
    /// measured per full evaluation — would dominate the sweep's runtime).
    pub cleaning_sizes: Vec<usize>,
    /// Measurement budget per cell (the adaptive loop stops once this much
    /// measured time has accumulated).
    pub budget_ns: u128,
}

impl SweepConfig {
    /// The full grid `cargo bench --bench eval` runs: eval sizes
    /// 1k/4k/16k/100k, cleaning sizes 1k/100k/1M, 300 ms per cell.
    pub fn full() -> Self {
        SweepConfig {
            sizes: vec![1_000, 4_000, 16_000, 100_000],
            cleaning_sizes: vec![1_000, 100_000, 1_000_000],
            budget_ns: 300_000_000,
        }
    }

    /// The CI-sized subset the regression gate runs with `--quick`:
    /// size 1k, 60 ms per cell. The cleaning size (1k) is also part of
    /// the full grid, so quick cells always have baseline counterparts.
    pub fn quick() -> Self {
        SweepConfig {
            sizes: vec![1_000],
            cleaning_sizes: vec![1_000],
            budget_ns: 60_000_000,
        }
    }
}

/// The *dense* workload: `n` tuples per relation, `n / 10` join groups of
/// 10 tuples each, so `Q(x, y) :- A(x, g), B(y, g)` has `10 n` valid
/// assignments. Output-bound: every candidate survives, so this measures
/// shared enumeration costs, not index layout.
pub fn dense_workload(n: usize) -> (Database, ConjunctiveQuery) {
    let schema = Schema::builder()
        .relation("A", &["x", "g"])
        .relation("B", &["y", "g"])
        .build()
        .unwrap();
    let mut db = Database::empty(schema.clone());
    let groups = (n / 10).max(1);
    for i in 0..n {
        db.insert_named("A", tup![format!("a{i:06}"), format!("g{:06}", i % groups)])
            .unwrap();
        db.insert_named("B", tup![format!("b{i:06}"), format!("g{:06}", i % groups)])
            .unwrap();
    }
    let q = parse_query(&schema, "Q(x, y) :- A(x, g), B(y, g).").unwrap();
    (db, q)
}

/// The *selective* workload: `B` mirrors `A` with columns flipped, in join
/// groups of 200. `Q(x) :- A(x, g), B(g, x)` probes `B` on the
/// low-selectivity group column (the first ground column), so every descend
/// walks a 200-tuple posting list of which exactly one candidate survives
/// the bound-`x` check. Probe-bound: this is where the seed's per-descend
/// `to_vec()` + sort + clone-then-check is paid 200× per survivor.
pub fn selective_workload(n: usize) -> (Database, ConjunctiveQuery) {
    let schema = Schema::builder()
        .relation("A", &["x", "g"])
        .relation("B", &["g", "x"])
        .build()
        .unwrap();
    let mut db = Database::empty(schema.clone());
    let groups = (n / 200).max(1);
    for i in 0..n {
        let x = format!("a{i:06}");
        let g = format!("g{:06}", i % groups);
        db.insert_named("A", tup![x.clone(), g.clone()]).unwrap();
        db.insert_named("B", tup![g, x]).unwrap();
    }
    let q = parse_query(&schema, "Q(x) :- A(x, g), B(g, x).").unwrap();
    (db, q)
}

/// Wall-clock mean over an adaptively chosen iteration count: at least 3
/// iterations, stopping once `budget_ns` of measurement have accumulated
/// (capped at 50 iterations).
pub fn measure(budget_ns: u128, mut f: impl FnMut() -> usize) -> (f64, usize) {
    f(); // warm-up (also builds lazy indexes)
    let mut total_ns: u128 = 0;
    let mut iters = 0usize;
    while iters < 3 || (total_ns < budget_ns && iters < 50) {
        let start = Instant::now();
        black_box(f());
        total_ns += start.elapsed().as_nanos();
        iters += 1;
    }
    (total_ns as f64 / iters as f64, iters)
}

/// The facts the `cleaning_sweep` edit cycle touches: the first
/// `min(n, 64)` `A`-facts of the selective workload. Deleting one removes
/// its answer from the view; re-inserting restores it, so every edit is
/// *relevant* — the worst case for incremental maintenance.
pub fn cleaning_cycle_facts(q: &ConjunctiveQuery, n: usize) -> Vec<Fact> {
    let groups = (n / 200).max(1);
    let a = q.schema().rel_id("A").expect("selective workload has A");
    (0..n.min(64))
        .map(|i| Fact::new(a, tup![format!("a{i:06}"), format!("g{:06}", i % groups)]))
        .collect()
}

/// Measure the `cleaning_sweep` cells for one size: a delete/re-insert
/// cycle over [`cleaning_cycle_facts`], timed per edit. The `view` engine
/// pays one [`MaterializedView::apply_edit`] per edit; the `fullre` engine
/// re-runs `answer_set` after every edit (what the cleaning loop did
/// before views). Both engines are checked against a fresh evaluation at
/// the end of their run.
pub fn cleaning_sweep_cells(n: usize, budget_ns: u128) -> Vec<Sample> {
    let (db0, q) = selective_workload(n);
    // Build every index up front (clones inherit them): the first seeded
    // delta otherwise pays a one-time O(n) lazy index build for a column
    // the initial materialization never probed, which at 10⁶ tuples would
    // dominate a 3-iteration mean and misreport the steady-state edit cost.
    db0.ensure_indexes();
    let cycle = cleaning_cycle_facts(&q, n);
    let mut samples = Vec::new();

    // incremental engine: the view absorbs each edit as a delta
    {
        let mut db = db0.clone();
        let mut view = MaterializedView::new(q.clone(), &db);
        let mut step = 0usize;
        let (mean_ns, iters) = measure(budget_ns, || {
            let f = &cycle[(step / 2) % cycle.len()];
            let e = if step.is_multiple_of(2) {
                Edit::delete(f.clone())
            } else {
                Edit::insert(f.clone())
            };
            step += 1;
            db.apply(&e).expect("valid edit");
            view.apply_edit(&db, &e);
            view.len()
        });
        assert_eq!(
            view.answers(),
            answer_set(&q, &db),
            "view diverged from full re-evaluation at n={n}"
        );
        samples.push(Sample {
            workload: "cleaning_sweep",
            size: n,
            engine: "view",
            mean_ns,
            iters,
            assignments: view.len(),
        });
    }

    // full re-evaluation engine: the pre-view cleaning loop's behaviour
    {
        let mut db = db0.clone();
        let mut step = 0usize;
        let mut answers = 0usize;
        let (mean_ns, iters) = measure(budget_ns, || {
            let f = &cycle[(step / 2) % cycle.len()];
            let e = if step.is_multiple_of(2) {
                Edit::delete(f.clone())
            } else {
                Edit::insert(f.clone())
            };
            step += 1;
            db.apply(&e).expect("valid edit");
            answers = answer_set(&q, &db).len();
            answers
        });
        samples.push(Sample {
            workload: "cleaning_sweep",
            size: n,
            engine: "fullre",
            mean_ns,
            iters,
            assignments: answers,
        });
    }

    samples
}

type WorkloadFn = fn(usize) -> (Database, ConjunctiveQuery);

/// Run the sweep: for every workload × size, measure the seed engine and
/// the current engine, asserting both produce identical assignments.
pub fn scaling_sweep(config: &SweepConfig) -> Vec<Sample> {
    let workloads: [(&'static str, WorkloadFn); 2] =
        [("selective", selective_workload), ("dense", dense_workload)];
    let mut samples = Vec::new();
    for (workload, build) in workloads {
        for &n in &config.sizes {
            let (db, q) = build(n);
            let expected = {
                let mut seed = SeedEval::new(&db);
                let baseline = seed.all_assignments(&q);
                let (mean_ns, iters) = {
                    let mut seed = SeedEval::new(&db);
                    measure(config.budget_ns, || seed.all_assignments(&q).len())
                };
                samples.push(Sample {
                    workload,
                    size: n,
                    engine: "seed",
                    mean_ns,
                    iters,
                    assignments: baseline.len(),
                });
                baseline
            };
            assert_eq!(
                evaluate(&q, &db).assignments,
                expected,
                "engines disagree on {workload} at n={n}"
            );
            let (mean_ns, iters) =
                measure(config.budget_ns, || evaluate(&q, &db).assignments.len());
            samples.push(Sample {
                workload,
                size: n,
                engine: "current",
                mean_ns,
                iters,
                assignments: expected.len(),
            });
        }
    }
    for &n in &config.cleaning_sizes {
        samples.extend(cleaning_sweep_cells(n, config.budget_ns));
    }
    samples
}

/// Render the sweep in the `BENCH_eval.json` document format.
pub fn render_json(samples: &[Sample]) -> String {
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"eval_scaling\",\n");
    out.push_str(
        "  \"workloads\": {\n    \"selective\": \"Q(x) :- A(x, g), B(g, x); groups of 200, one survivor per probe\",\n    \"dense\": \"Q(x, y) :- A(x, g), B(y, g); groups of 10, every candidate survives\",\n    \"cleaning_sweep\": \"delete/re-insert cycle over the selective DB; mean_ns is per edit (view = incremental MaterializedView, fullre = full re-evaluation per edit)\"\n  },\n",
    );
    out.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"size\": {}, \"engine\": \"{}\", \"mean_ns\": {:.0}, \"iters\": {}, \"assignments\": {}}}{sep}\n",
            s.workload, s.size, s.engine, s.mean_ns, s.iters, s.assignments
        ));
    }
    out.push_str("  ],\n  \"speedup_vs_seed\": {\n");
    // keyed off the seed cells: cleaning_sweep has no seed engine, so its
    // (workload, size) pairs never appear here
    let keys: Vec<(&'static str, usize)> = {
        let mut v: Vec<(&'static str, usize)> = samples
            .iter()
            .filter(|s| s.engine == "seed")
            .map(|s| (s.workload, s.size))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    for (i, &(w, n)) in keys.iter().enumerate() {
        let seed = samples
            .iter()
            .find(|s| s.workload == w && s.size == n && s.engine == "seed")
            .expect("seed sample");
        let cur = samples
            .iter()
            .find(|s| s.workload == w && s.size == n && s.engine == "current")
            .expect("current sample");
        let sep = if i + 1 == keys.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{w}/{n}\": {:.2}{sep}\n",
            seed.mean_ns / cur.mean_ns
        ));
    }
    out.push_str("  }");
    // edits/sec advantage of the incremental view per cleaning size
    let cleaning_sizes: Vec<usize> = {
        let mut v: Vec<usize> = samples
            .iter()
            .filter(|s| s.workload == "cleaning_sweep")
            .map(|s| s.size)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    if !cleaning_sizes.is_empty() {
        out.push_str(",\n  \"cleaning_sweep_speedup_view_vs_fullre\": {\n");
        for (i, &n) in cleaning_sizes.iter().enumerate() {
            let cell = |engine: &str| {
                samples
                    .iter()
                    .find(|s| s.workload == "cleaning_sweep" && s.size == n && s.engine == engine)
            };
            let (Some(view), Some(fullre)) = (cell("view"), cell("fullre")) else {
                continue;
            };
            let sep = if i + 1 == cleaning_sizes.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    \"{n}\": {:.2}{sep}\n",
                fullre.mean_ns / view.mean_ns
            ));
        }
        out.push_str("  }");
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_all_workloads_and_renders() {
        let config = SweepConfig {
            sizes: vec![200],
            cleaning_sizes: vec![200],
            budget_ns: 1_000_000,
        };
        let samples = scaling_sweep(&config);
        // 2 eval workloads × (1 seed + 1 current) + cleaning (view + fullre)
        assert_eq!(samples.len(), 6);
        assert!(samples.iter().all(|s| s.mean_ns > 0.0));
        assert_eq!(samples[0].key(), "selective/200/seed");
        assert!(samples.iter().any(|s| s.key() == "cleaning_sweep/200/view"));
        assert!(samples
            .iter()
            .any(|s| s.key() == "cleaning_sweep/200/fullre"));
        let json = render_json(&samples);
        assert!(json.contains("\"bench\": \"eval_scaling\""));
        assert!(json.contains("\"speedup_vs_seed\""));
        assert!(json.contains("\"cleaning_sweep_speedup_view_vs_fullre\""));
        // the speedup-vs-seed map must not try to key off cleaning cells
        assert!(!json.contains("\"cleaning_sweep/200\":"));
        assert!(crate::json::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn cleaning_sweep_cycle_edits_are_relevant_and_checked() {
        let samples = cleaning_sweep_cells(400, 500_000);
        assert_eq!(samples.len(), 2);
        let view = &samples[0];
        let fullre = &samples[1];
        assert_eq!(view.key(), "cleaning_sweep/400/view");
        assert_eq!(fullre.key(), "cleaning_sweep/400/fullre");
        assert!(view.mean_ns > 0.0 && fullre.mean_ns > 0.0);
        // the cycle facts really are A-facts of the selective workload
        let (db, q) = selective_workload(400);
        for f in cleaning_cycle_facts(&q, 400) {
            assert!(db.contains(&f), "{f:?} not in the workload DB");
        }
    }
}
