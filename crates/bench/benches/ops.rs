//! GraphBLAS operation micro-benchmarks (ABL-OPS): the cost of the
//! building blocks the unfused implementation strings together — `vxm`
//! over `(min,+)`, the two-apply filter idiom vs single-pass `select`,
//! `eWiseAdd`, and the parallel kernels.

use criterion::{criterion_group, criterion_main, Criterion};

use gblas::ops::{self, semiring, FnUnary, Identity};
use gblas::{Descriptor, Matrix, Vector};
use graphdata::gen;
use taskpool::ThreadPool;

fn setup_graph() -> Matrix<f64> {
    let mut el = gen::rmat(gen::RmatParams::graph500(11, 8), 42);
    el.symmetrize();
    el.remove_self_loops();
    el.dedup_min();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        7,
    );
    el.to_adjacency()
}

fn dense_frontier(n: usize) -> Vector<f64> {
    Vector::from_entries(n, (0..n).step_by(2).map(|i| (i, i as f64 * 0.5)).collect()).unwrap()
}

fn ops_bench(c: &mut Criterion) {
    let a = setup_graph();
    let n = a.nrows();
    let u = dense_frontier(n);
    let pool = ThreadPool::with_threads(4).expect("pool");

    let mut group = c.benchmark_group("gblas_ops");
    group.sample_size(20);

    group.bench_function("vxm_min_plus", |b| {
        let mut out = Vector::new(n);
        b.iter(|| {
            ops::vxm(
                &mut out,
                None,
                None,
                &semiring::min_plus_f64(),
                &u,
                &a,
                Descriptor::replace(),
            )
            .unwrap();
        });
    });

    group.bench_function("par_vxm_min_plus_4t", |b| {
        let mut out = Vector::new(n);
        b.iter(|| {
            gblas::parallel::par_vxm(
                Some(&pool),
                &mut out,
                None,
                None,
                &semiring::min_plus_f64(),
                &u,
                &a,
                Descriptor::replace(),
            )
            .unwrap();
        });
    });

    // The Fig. 2 two-apply filter idiom (predicate + masked identity)...
    group.bench_function("filter_two_apply", |b| {
        let mut ab: Matrix<bool> = Matrix::new(n, n);
        let mut al: Matrix<f64> = Matrix::new(n, n);
        let pred = FnUnary::new(|w: f64| w <= 1.0);
        b.iter(|| {
            ops::matrix_apply(&mut ab, None, None, &pred, &a, Descriptor::new()).unwrap();
            ops::matrix_apply(
                &mut al,
                Some(&ab.mask()),
                None,
                &Identity::<f64>::new(),
                &a,
                Descriptor::replace(),
            )
            .unwrap();
        });
    });

    // ...vs the fused single-pass select.
    group.bench_function("filter_select_fused", |b| {
        let mut al: Matrix<f64> = Matrix::new(n, n);
        b.iter(|| {
            ops::select_matrix(&mut al, None, None, |_, _, w| w <= 1.0, &a, Descriptor::new())
                .unwrap();
        });
    });

    // ...vs the chunked parallel select (the paper's proposed improvement).
    group.bench_function("filter_par_select_4t", |b| {
        b.iter(|| {
            std::hint::black_box(gblas::parallel::par_select_matrix(
                Some(&pool),
                &a,
                0,
                |_, _, w| w <= 1.0,
            ));
        });
    });

    group.bench_function("ewise_add_min", |b| {
        let v = dense_frontier(n);
        let mut out = Vector::new(n);
        b.iter(|| {
            ops::ewise_add_vector(
                &mut out,
                None,
                None,
                &ops::Min::<f64>::new(),
                &u,
                &v,
                Descriptor::new(),
            )
            .unwrap();
        });
    });

    group.bench_function("vector_apply_range_filter", |b| {
        let mut out: Vector<bool> = Vector::new(n);
        let pred = FnUnary::new(|x: f64| (10.0..20.0).contains(&x));
        b.iter(|| {
            ops::vector_apply(&mut out, None, None, &pred, &u, Descriptor::replace()).unwrap();
        });
    });

    group.finish();
}

criterion_group!(benches, ops_bench);
criterion_main!(benches);
