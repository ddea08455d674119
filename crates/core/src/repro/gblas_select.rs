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

use gblas::ops::{self, semiring, FnUnary, Identity, Min};
use gblas::{Descriptor, Matrix, Vector};
use graphdata::CsrGraph;

use crate::delta::bucket_of;
use crate::result::SsspResult;

/// Build `A_L` and `A_H` with one `select` each.
pub fn split_light_heavy_select(a: &Matrix<f64>, delta: f64) -> (Matrix<f64>, Matrix<f64>) {
    let n = a.nrows();
    let mut al: Matrix<f64> = Matrix::new(n, n);
    ops::select_matrix(&mut al, None, None, |_, _, w| w <= delta, a, Descriptor::new())
        .expect("same dims");
    let mut ah: Matrix<f64> = Matrix::new(n, n);
    ops::select_matrix(&mut ah, None, None, |_, _, w| w > delta, a, Descriptor::new())
        .expect("same dims");
    (al, ah)
}

/// Select-based GraphBLAS delta-stepping. Unlike
/// [`super::gblas_impl::sssp_delta_step`], zero-weight edges are allowed
/// (structural masks carry no value caveat).
pub fn sssp_delta_step_select(a: &Matrix<f64>, delta: f64, src: usize) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    assert_eq!(a.nrows(), a.ncols(), "adjacency matrix must be square");
    assert!(src < a.nrows(), "source out of bounds");
    let n = a.nrows();
    let clear = Descriptor::replace();
    let null = Descriptor::new();
    let min_plus = semiring::min_plus_f64();

    let mut result = SsspResult::init(n, src);
    let (al, ah) = split_light_heavy_select(a, delta);

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
        ops::vector_apply(
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
            ops::vxm(&mut t_req, None, None, &min_plus, &t_masked, &al, clear)
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
            ops::ewise_mult_vector(
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
            ops::ewise_add_vector(
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
            ops::ewise_add_vector(&mut t, None, None, &Min::<f64>::new(), &t_prev, &t_req, null)
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
        ops::vxm(&mut t_req, None, None, &min_plus, &t_masked, &ah, clear).expect("square");
        result.stats.relaxations += t_req.nvals() as u64;
        let t_prev = t.clone();
        ops::ewise_add_vector(&mut t, None, None, &Min::<f64>::new(), &t_prev, &t_req, null)
            .expect("sized alike");

        i += 1;
    }

    for (v, d) in t.iter() {
        result.dist[v] = d;
    }
    result
}

/// Convenience wrapper over a [`CsrGraph`].
pub fn delta_stepping_gblas_select(g: &CsrGraph, source: usize, delta: f64) -> SsspResult {
    let a = g.to_adjacency();
    sssp_delta_step_select(&a, delta, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    #[test]
    fn select_split_matches_two_apply_split() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.5), (0, 2, 2.0), (1, 2, 1.0)]);
        let a = el.to_adjacency();
        let (al1, ah1) = split_light_heavy_select(&a, 1.0);
        let (al2, ah2) = crate::repro::gblas_impl::split_light_heavy_gblas(&a, 1.0);
        assert_eq!(al1, al2);
        assert_eq!(ah1, ah2);
    }

    #[test]
    fn path_graph() {
        let g = CsrGraph::from_edge_list(&path(6)).unwrap();
        let r = delta_stepping_gblas_select(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn matches_dijkstra_on_grid_various_deltas() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 5)).unwrap();
        let dj = dijkstra(&g, 0);
        for delta in [0.5, 1.0, 4.0] {
            let r = delta_stepping_gblas_select(&g, 0, delta);
            assert_eq!(r.dist, dj.dist, "delta {delta}");
        }
    }

    #[test]
    fn zero_weight_edges_now_supported() {
        // The structural-mask fix removes the two-apply version's caveat.
        let el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0), (0, 3, 2.5)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas_select(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.0, 1.0, 2.5]);
    }

    #[test]
    fn heavy_edges_and_bucket_skip() {
        let el = EdgeList::from_triples(vec![(0, 1, 10.5), (1, 2, 0.5)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas_select(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 10.5, 11.0]);
        // Bucket skipping via reduce: only 3 buckets processed, like fused.
        let fu = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.stats.buckets_processed, fu.stats.buckets_processed);
    }

    #[test]
    fn agrees_with_both_other_gblas_forms() {
        let mut el = graphdata::gen::gnm(150, 900, 13);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 2.0 },
            3,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let sel = delta_stepping_gblas_select(&g, 0, 0.75);
        let two_apply = crate::repro::gblas_impl::delta_stepping_gblas(&g, 0, 0.75);
        let fu = delta_stepping_fused(&g, 0, 0.75);
        assert_eq!(sel.dist, two_apply.dist);
        assert_eq!(sel.dist, fu.dist);
    }
}
