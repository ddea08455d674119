//! Delta-stepping on a **parallel GraphBLAS library** — the paper's
//! Sec. VIII vision realized: "an approach to using OpenMP … can be used
//! within the context of GraphBLAS to achieve better parallelism".
//!
//! Structurally this is the select-based library formulation
//! ([`super::gblas_select`]), but the hot kernels come from
//! [`gblas::parallel`]: the `A_L`/`A_H` filters run as chunked row tasks
//! ([`gblas::parallel::par_select_matrix`]) and the `(min,+)` products as
//! chunked frontier tasks with per-task accumulators
//! ([`gblas::parallel::par_vxm`]). The *user code* stays a sequence of
//! plain library calls — the parallelism lives below the API, which is
//! exactly the separation of concerns the GraphBLAS interface promises
//! (Sec. I).

use gblas::ops::{self, semiring, FnUnary, Identity, Min};
use gblas::parallel::{par_select_matrix, par_vxm};
use gblas::{Descriptor, Matrix, Vector};
use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::delta::bucket_of;
use crate::result::SsspResult;

/// Build `A_L`/`A_H` with the library's chunked parallel filter.
pub fn split_light_heavy_parallel(
    pool: &ThreadPool,
    a: &Matrix<f64>,
    delta: f64,
) -> (Matrix<f64>, Matrix<f64>) {
    let al = par_select_matrix(pool, a, 0, move |_, _, w| w <= delta);
    let ah = par_select_matrix(pool, a, 0, move |_, _, w| w > delta);
    (al, ah)
}

/// Delta-stepping where every heavy kernel is the library's parallel
/// variant. Distances equal every other implementation's.
pub fn sssp_delta_step_parallel_lib(
    pool: &ThreadPool,
    a: &Matrix<f64>,
    delta: f64,
    src: usize,
) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    assert_eq!(a.nrows(), a.ncols(), "adjacency matrix must be square");
    assert!(src < a.nrows(), "source out of bounds");
    let n = a.nrows();
    let clear = Descriptor::replace();
    let null = Descriptor::new();
    let min_plus = semiring::min_plus_f64();

    let mut result = SsspResult::init(n, src);
    let (al, ah) = split_light_heavy_parallel(pool, a, delta);

    let mut t: Vector<f64> = Vector::new(n);
    t.set(src, 0.0).expect("in bounds");
    let mut t_masked: Vector<f64> = Vector::new(n);
    let mut t_req: Vector<f64> = Vector::new(n);
    let mut t_less: Vector<bool> = Vector::new(n);
    let mut s: Vector<bool> = Vector::new(n);
    let mut bucket_ids: Vector<usize> = Vector::new(n);
    let mut pending: Vector<usize> = Vector::new(n);

    let mut i = 0usize;
    loop {
        let d = delta;
        gblas::parallel::par_vector_apply(
            pool,
            &mut bucket_ids,
            None,
            None,
            &FnUnary::new(move |x: f64| bucket_of(x, d)),
            &t,
            clear,
        )
        .expect("sized alike");
        let floor = i;
        ops::select_vector(&mut pending, None, None, |_, b| b >= floor, &bucket_ids, clear)
            .expect("sized alike");
        if pending.nvals() == 0 {
            break;
        }
        i = ops::reduce_vector(&ops::monoid::min::<usize>(), &pending);
        result.stats.buckets_processed += 1;
        s.clear();

        let (lo, hi) = (i as f64 * delta, (i + 1) as f64 * delta);
        ops::select_vector(&mut t_masked, None, None, |_, x| lo <= x && x < hi, &t, clear)
            .expect("sized alike");

        while t_masked.nvals() > 0 {
            result.stats.light_phases += 1;
            par_vxm(pool, &mut t_req, None, None, &min_plus, &t_masked, &al, clear)
                .expect("square matrix");
            result.stats.relaxations += t_req.nvals() as u64;

            ops::vector_apply(
                &mut s,
                None,
                Some(&ops::LOr),
                &FnUnary::new(|_: f64| true),
                &t_masked,
                null,
            )
            .expect("sized alike");

            // Improvement detection, pitfall-free (see gblas_select).
            let mut t_less_int: Vector<bool> = Vector::new(n);
            gblas::parallel::par_ewise_mult_vector(
                pool,
                &mut t_less_int,
                None,
                None,
                &ops::Lt::<f64>::new(),
                &t_req,
                &t,
                clear,
            )
            .expect("sized alike");
            let mut t_new_vertices: Vector<bool> = Vector::new(n);
            ops::vector_apply(
                &mut t_new_vertices,
                Some(&t.structure()),
                None,
                &FnUnary::new(|_: f64| true),
                &t_req,
                Descriptor::replace().with_complement_mask(),
            )
            .expect("sized alike");
            gblas::parallel::par_ewise_add_vector(
                pool,
                &mut t_less,
                None,
                None,
                &ops::LOr,
                &t_less_int,
                &t_new_vertices,
                clear,
            )
            .expect("sized alike");

            let t_prev = t.clone();
            gblas::parallel::par_ewise_add_vector(
                pool,
                &mut t,
                None,
                None,
                &Min::<f64>::new(),
                &t_prev,
                &t_req,
                null,
            )
            .expect("sized alike");

            let mut reintroduced: Vector<f64> = Vector::new(n);
            ops::select_vector(
                &mut reintroduced,
                Some(&t_less.mask()),
                None,
                |_, x| lo <= x && x < hi,
                &t_req,
                clear,
            )
            .expect("sized alike");
            t_masked = reintroduced;
        }

        result.stats.heavy_phases += 1;
        ops::vector_apply(
            &mut t_masked,
            Some(&s.structure()),
            None,
            &Identity::<f64>::new(),
            &t,
            clear,
        )
        .expect("sized alike");
        par_vxm(pool, &mut t_req, None, None, &min_plus, &t_masked, &ah, clear).expect("square");
        result.stats.relaxations += t_req.nvals() as u64;
        let t_prev = t.clone();
        gblas::parallel::par_ewise_add_vector(
            pool,
            &mut t,
            None,
            None,
            &Min::<f64>::new(),
            &t_prev,
            &t_req,
            null,
        )
        .expect("sized alike");

        i += 1;
    }

    for (v, d) in t.iter() {
        result.dist[v] = d;
    }
    result
}

/// Convenience wrapper over a [`CsrGraph`].
pub fn delta_stepping_gblas_parallel(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    let a = g.to_adjacency();
    sssp_delta_step_parallel_lib(pool, &a, delta, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::repro::gblas_select::delta_stepping_gblas_select;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    #[test]
    fn parallel_split_matches_sequential_split() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = graphdata::gen::gnm(100, 600, 4);
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
            8,
        );
        let a = el.to_adjacency();
        let par = split_light_heavy_parallel(&pool, &a, 1.0);
        let seq = crate::repro::gblas_select::split_light_heavy_select(&a, 1.0);
        assert_eq!(par, seq);
    }

    #[test]
    fn path_graph() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let g = CsrGraph::from_edge_list(&path(5)).unwrap();
        let r = delta_stepping_gblas_parallel(&pool, &g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matches_dijkstra_and_select_variant() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(7, 6)).unwrap();
        let dj = dijkstra(&g, 0);
        for delta in [0.5, 1.0, 3.0] {
            let pl = delta_stepping_gblas_parallel(&pool, &g, 0, delta);
            assert_eq!(pl.dist, dj.dist, "delta {delta}");
            let se = delta_stepping_gblas_select(&g, 0, delta);
            assert_eq!(pl.dist, se.dist, "delta {delta}");
            assert_eq!(pl.stats.buckets_processed, se.stats.buckets_processed);
        }
    }

    #[test]
    fn large_frontier_exercises_parallel_kernels() {
        // Dense frontiers push past the parallel kernels' sequential-
        // fallback thresholds.
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = graphdata::gen::rmat(graphdata::gen::RmatParams::graph500(11, 8), 23);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let src = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();
        let dj = dijkstra(&g, src);
        let pl = delta_stepping_gblas_parallel(&pool, &g, src, 1.0);
        assert_eq!(pl.dist, dj.dist);
    }

    #[test]
    fn zero_weights_supported() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas_parallel(&pool, &g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.0, 1.0]);
    }
}
