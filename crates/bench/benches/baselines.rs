//! BASE — every SSSP implementation head-to-head on one suite graph:
//! Dijkstra, Bellman–Ford, canonical Meyer–Sanders, unfused GraphBLAS,
//! and fused direct.

use criterion::{criterion_group, criterion_main, Criterion};

use graphdata::{paper_suite, SuiteScale};
use sssp_bench::bench_source;
use sssp_core::repro::{canonical, gblas_impl};
use sssp_core::{bellman_ford, dijkstra, fused};

fn baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let suite = paper_suite(SuiteScale::Smoke);
    let d = suite.last().expect("suite non-empty");
    let g = &d.graph;
    let src = bench_source(g);
    let a = g.to_adjacency();

    group.bench_function("dijkstra", |b| {
        b.iter(|| std::hint::black_box(dijkstra::dijkstra(g, src)));
    });
    group.bench_function("bellman_ford", |b| {
        b.iter(|| std::hint::black_box(bellman_ford::bellman_ford(g, src)));
    });
    group.bench_function("canonical_delta_stepping", |b| {
        b.iter(|| std::hint::black_box(canonical::delta_stepping_canonical(g, src, 1.0)));
    });
    group.bench_function("gblas_unfused", |b| {
        b.iter(|| std::hint::black_box(gblas_impl::sssp_delta_step(&a, 1.0, src)));
    });
    group.bench_function("fused_direct", |b| {
        b.iter(|| std::hint::black_box(fused::delta_stepping_fused(g, src, 1.0)));
    });
    group.finish();
}

criterion_group!(benches, baselines);
criterion_main!(benches);
