//! Criterion version of FIG4: thread scaling of the paper's task scheme
//! and the improved scheme, against the fused sequential baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use graphdata::{paper_suite, SuiteScale};
use sssp_bench::bench_source;
use sssp_core::stepping::{delta_stepping_strategy, SteppingStrategy};
use sssp_core::fused;
use sssp_core::repro::parallel;
use taskpool::ThreadPool;

fn fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_scaling");
    group.sample_size(10);
    // One representative graph keeps bench time bounded; the fig4 binary
    // sweeps the whole suite.
    let suite = paper_suite(SuiteScale::Smoke);
    let d = suite.last().expect("suite non-empty");
    let g = &d.graph;
    let src = bench_source(g);

    group.bench_function(BenchmarkId::new("sequential_fused", &d.name), |b| {
        b.iter(|| std::hint::black_box(fused::delta_stepping_fused(g, src, 1.0)));
    });
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        group.bench_function(
            BenchmarkId::new(format!("paper_scheme_{threads}t"), &d.name),
            |b| {
                b.iter(|| {
                    std::hint::black_box(parallel::delta_stepping_parallel(&pool, g, src, 1.0))
                });
            },
        );
        group.bench_function(
            BenchmarkId::new(format!("improved_{threads}t"), &d.name),
            |b| {
                b.iter(|| {
                    std::hint::black_box(delta_stepping_strategy(
                        g,
                        src,
                        1.0,
                        SteppingStrategy::Classic,
                        Some(&pool),
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, fig4);
criterion_main!(benches);
