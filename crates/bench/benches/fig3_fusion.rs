//! Criterion version of FIG3: unfused GraphBLAS vs fused direct
//! delta-stepping, per suite graph (smoke scale so `cargo bench` stays
//! tractable; the `fig3` binary covers the full suite).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use graphdata::{paper_suite, SuiteScale};
use sssp_bench::bench_source;
use sssp_core::fused;
use sssp_core::repro::{gblas_impl, gblas_select};

fn fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_fusion");
    group.sample_size(10);
    for d in paper_suite(SuiteScale::Smoke) {
        let g = &d.graph;
        let src = bench_source(g);
        let a = g.to_adjacency();
        group.bench_with_input(BenchmarkId::new("unfused_gblas", &d.name), &d.name, |b, _| {
            b.iter(|| std::hint::black_box(gblas_impl::sssp_delta_step(&a, 1.0, src)));
        });
        group.bench_with_input(BenchmarkId::new("select_gblas", &d.name), &d.name, |b, _| {
            b.iter(|| {
                std::hint::black_box(gblas_select::sssp_delta_step_select(None, &a, 1.0, src))
            });
        });
        group.bench_with_input(BenchmarkId::new("fused_direct", &d.name), &d.name, |b, _| {
            b.iter(|| std::hint::black_box(fused::delta_stepping_fused(g, src, 1.0)));
        });
    }
    group.finish();
}

criterion_group!(benches, fig3);
criterion_main!(benches);
