//! Delta-stepping through GraphBLAS **with the paper's lessons applied**:
//! a third point between the unfused Fig. 2 transcription and the fused
//! direct code.
//!
//! Differences from [`super::gblas_impl`] (all still *library calls*, no
//! fusion into user code):
//!
//! * every two-`apply` filter becomes one `select` call (the single-pass
//!   filter the paper's Sec. VI-B identifies as the first fusion target —
//!   here provided *by the library*, as SuiteSparse's `GxB_select` later
//!   standardized into `GrB_select`);
//! * `t ∘ t_Bi` is one `select` on `t` (no separate mask vector);
//! * the `t_Req < t` comparison avoids `eWiseAdd`'s pass-through entirely:
//!   an `eWiseMult` compare on the intersection plus an explicit
//!   new-vertex term (`t_Req` present, `t` absent ⇒ improvement, since
//!   missing `t` defaults to ∞). This eliminates the Sec. V-B zero-value
//!   caveat, so this variant accepts zero-weight edges;
//! * the next bucket index is computed with `apply` + `select` + `reduce`
//!   instead of incrementing through empty buckets.
//!
//! The ABL-SELECT experiment measures how much of Fig. 3's fusion win
//! this library-level improvement already captures.
//!
//! **Parallelism below the API (Sec. VIII).** The paper's closing vision —
//! "an approach to using OpenMP … can be used within the context of
//! GraphBLAS to achieve better parallelism" — is the same loop given a
//! pool: the `A_L`/`A_H` filters, the `(min,+)` products, the bucket-index
//! `apply` and the element-wise updates are [`gblas::parallel`] kernels,
//! chunked row or frontier tasks with per-task accumulators, each of which
//! runs its sequential [`gblas::ops`] twin when the pool is `None`. The
//! *user code* stays one sequence of plain library calls, which is the
//! separation of concerns the GraphBLAS interface promises (Sec. I).

use gblas::ops::{self, semiring, FnUnary, Identity, Min};
use gblas::parallel::{
    par_ewise_add_vector, par_ewise_mult_vector, par_select_matrix, par_vector_apply, par_vxm,
};
use gblas::{Descriptor, Matrix, Vector};
use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::delta::bucket_of;
use crate::result::SsspResult;

/// Build `A_L` and `A_H` with one `select` each, chunked by rows on
/// `pool` when there is one.
pub fn split_light_heavy_select(
    pool: Option<&ThreadPool>,
    a: &Matrix<f64>,
    delta: f64,
) -> (Matrix<f64>, Matrix<f64>) {
    let al = par_select_matrix(pool, a, 0, move |_, _, w| w <= delta);
    let ah = par_select_matrix(pool, a, 0, move |_, _, w| w > delta);
    (al, ah)
}

/// Select-based GraphBLAS delta-stepping, on the library's parallel
/// kernels when `pool` is given. Unlike
/// [`super::gblas_impl::sssp_delta_step`], zero-weight edges are allowed
/// (structural masks carry no value caveat). Distances and stats are the
/// same with and without a pool.
pub fn sssp_delta_step_select(
    pool: Option<&ThreadPool>,
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
    let (al, ah) = split_light_heavy_select(pool, a, delta);

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
        // Next non-empty bucket >= i: bucket indices of t, filtered, min.
        let d = delta;
        par_vector_apply(
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

        // t_masked = t ∘ t_Bi in ONE call: select t's in-range entries.
        let (lo, hi) = (i as f64 * delta, (i + 1) as f64 * delta);
        ops::select_vector(&mut t_masked, None, None, |_, x| lo <= x && x < hi, &t, clear)
            .expect("sized alike");

        while t_masked.nvals() > 0 {
            result.stats.light_phases += 1;
            // tReq = A_L' (min.+) t_masked.
            par_vxm(pool, &mut t_req, None, None, &min_plus, &t_masked, &al, clear)
                .expect("square matrix");
            result.stats.relaxations += t_req.nvals() as u64;

            // s ∪= processed vertices (structure of t_masked).
            ops::vector_apply(
                &mut s,
                None,
                Some(&ops::LOr),
                &FnUnary::new(|_: f64| true),
                &t_masked,
                null,
            )
            .expect("sized alike");

            // Improvement detection without the Sec. V-B cast pitfall:
            // intersect-compare where both exist, and treat requests for
            // vertices t has never seen as improvements (t defaults to ∞).
            let mut t_less_int: Vector<bool> = Vector::new(n);
            par_ewise_mult_vector(
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
            par_ewise_add_vector(
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

            // t = min(t, tReq).
            let t_prev = t.clone();
            let min = Min::<f64>::new();
            par_ewise_add_vector(pool, &mut t, None, None, &min, &t_prev, &t_req, null)
                .expect("sized alike");

            // Next frontier: improved requests that stay in this bucket.
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

        // Heavy phase: rows of S (structural mask — zero distances allowed).
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
        let min = Min::<f64>::new();
        par_ewise_add_vector(pool, &mut t, None, None, &min, &t_prev, &t_req, null)
            .expect("sized alike");

        i += 1;
    }

    for (v, d) in t.iter() {
        result.dist[v] = d;
    }
    result
}

/// Convenience wrapper over a [`CsrGraph`].
pub fn delta_stepping_gblas_select(
    pool: Option<&ThreadPool>,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    let a = g.to_adjacency();
    sssp_delta_step_select(pool, &a, delta, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    /// Run with and without a pool; the two must agree on distances and
    /// every counter. Returns the pooled run.
    fn both(pool: &ThreadPool, g: &CsrGraph, source: usize, delta: f64) -> SsspResult {
        let seq = delta_stepping_gblas_select(None, g, source, delta);
        let par = delta_stepping_gblas_select(Some(pool), g, source, delta);
        assert_eq!(seq.dist, par.dist, "delta {delta}");
        assert_eq!(seq.stats, par.stats, "delta {delta}");
        par
    }

    #[test]
    fn select_split_matches_two_apply_split_with_and_without_pool() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = graphdata::gen::gnm(100, 600, 4);
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
            8,
        );
        let a = el.to_adjacency();
        let two_apply = crate::repro::gblas_impl::split_light_heavy_gblas(&a, 1.0);
        assert_eq!(split_light_heavy_select(None, &a, 1.0), two_apply);
        assert_eq!(split_light_heavy_select(Some(&pool), &a, 1.0), two_apply);
    }

    #[test]
    fn path_graph() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let g = CsrGraph::from_edge_list(&path(6)).unwrap();
        let r = both(&pool, &g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn matches_dijkstra_on_grid_various_deltas() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(7, 6)).unwrap();
        let dj = dijkstra(&g, 0);
        for delta in [0.5, 1.0, 3.0, 4.0] {
            assert_eq!(both(&pool, &g, 0, delta).dist, dj.dist, "delta {delta}");
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
        assert_eq!(both(&pool, &g, src, 1.0).dist, dijkstra(&g, src).dist);
    }

    #[test]
    fn zero_weight_edges_now_supported() {
        // The structural-mask fix removes the two-apply version's caveat.
        let pool = ThreadPool::with_threads(2).unwrap();
        let el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0), (0, 3, 2.5)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        assert_eq!(both(&pool, &g, 0, 1.0).dist, vec![0.0, 0.0, 1.0, 2.5]);
    }

    #[test]
    fn heavy_edges_and_bucket_skip() {
        let el = EdgeList::from_triples(vec![(0, 1, 10.5), (1, 2, 0.5)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas_select(None, &g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 10.5, 11.0]);
        // Bucket skipping via reduce: only 3 buckets processed, like fused.
        let fu = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.stats.buckets_processed, fu.stats.buckets_processed);
    }

    #[test]
    fn agrees_with_both_other_gblas_forms() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = graphdata::gen::gnm(150, 900, 13);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 2.0 },
            3,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let sel = both(&pool, &g, 0, 0.75);
        let two_apply = crate::repro::gblas_impl::delta_stepping_gblas(&g, 0, 0.75);
        let fu = delta_stepping_fused(&g, 0, 0.75);
        assert_eq!(sel.dist, two_apply.dist);
        assert_eq!(sel.dist, fu.dist);
    }
}
