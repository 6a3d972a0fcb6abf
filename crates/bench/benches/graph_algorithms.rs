//! Graph-substrate benchmark: Stoer–Wagner global min-cut on synthetic
//! graphs far larger than any query graph, demonstrating headroom.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use qoco_graph::{global_min_cut, WeightedGraph};

/// A deterministic pseudo-random weighted graph.
fn random_graph(n: usize, density_pct: u64) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for u in 0..n {
        for v in (u + 1)..n {
            if next() % 100 < density_pct {
                g.add_edge(u, v, 1 + next() % 10);
            }
        }
    }
    // guarantee connectivity with a path
    for u in 0..n - 1 {
        g.add_edge(u, u + 1, 1);
    }
    g
}

fn bench_mincut(c: &mut Criterion) {
    let mut group = c.benchmark_group("stoer_wagner");
    for n in [8usize, 32, 64] {
        let g = random_graph(n, 30);
        group.bench_function(format!("n={n}"), |b| {
            b.iter(|| black_box(global_min_cut(&g)).unwrap().weight)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mincut);
criterion_main!(benches);
