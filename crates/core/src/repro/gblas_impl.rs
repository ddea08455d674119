//! The **unfused GraphBLAS** delta-stepping implementation — a
//! call-for-call transcription of the paper's Fig. 2 (SuiteSparse C code)
//! onto the [`gblas`] crate. Comments quote the linear-algebraic
//! formulation of Fig. 1 (left) the way the paper's listing does.
//!
//! Faithfulness notes:
//!
//! * Every filter costs *two* `apply` calls (predicate, then masked
//!   identity), exactly as Sec. V-A describes — this is the overhead the
//!   fused implementation removes (Fig. 3).
//! * The `t_Req < t` comparison uses `eWiseAdd` with `t_Req` as a *value*
//!   mask (Fig. 2 line 48), inheriting the paper's Sec. V-B caveat: a
//!   stored `0.0` in `t_Req` (possible only with zero-weight edges) makes
//!   the mask silently drop that vertex. `tests/paper_pitfalls.rs`
//!   demonstrates the failure; [`delta_stepping_gblas`] therefore rejects
//!   zero-weight edges up front, like the paper's inputs (unit weights).
//! * GraphBLAS C allows output/input aliasing (`GrB_eWiseAdd(s, …, s, tB)`);
//!   Rust borrows do not, so those two calls clone the aliased operand
//!   first. SuiteSparse does the same internally.

use gblas::ops::{self, semiring, FnUnary, Identity, LOr, Lt, Min};
use gblas::{Descriptor, Matrix, Vector};
use graphdata::CsrGraph;

use crate::budget::RunBudget;
use crate::checkpoint::{LiveState, StopPoint};
use crate::guard::SsspError;
use crate::result::SsspResult;

/// Build `A_L` and `A_H` from the adjacency matrix with the two-apply
/// filter idiom (Fig. 2 lines 11–21).
pub fn split_light_heavy_gblas(a: &Matrix<f64>, delta: f64) -> (Matrix<f64>, Matrix<f64>) {
    let n = a.nrows();
    let mut ab: Matrix<bool> = Matrix::new(n, n);
    let mut al: Matrix<f64> = Matrix::new(n, n);
    let mut ah: Matrix<f64> = Matrix::new(n, n);

    // A_L = A .* (0 < A .<= delta)
    let delta_leq = FnUnary::new(move |w: f64| w > 0.0 && w <= delta);
    ops::matrix_apply(&mut ab, None, None, &delta_leq, a, Descriptor::new())
        .expect("dimensions match by construction");
    ops::matrix_apply(
        &mut al,
        Some(&ab.mask()),
        None,
        &Identity::<f64>::new(),
        a,
        Descriptor::new(),
    )
    .expect("dimensions match by construction");

    // A_H = A .* (A .> delta)
    let delta_gt = FnUnary::new(move |w: f64| w > delta);
    ops::matrix_apply(&mut ab, None, None, &delta_gt, a, Descriptor::new())
        .expect("dimensions match by construction");
    ops::matrix_apply(
        &mut ah,
        Some(&ab.mask()),
        None,
        &Identity::<f64>::new(),
        a,
        Descriptor::new(),
    )
    .expect("dimensions match by construction");

    (al, ah)
}

/// Delta-stepping SSSP through the GraphBLAS interface, unfused (Fig. 2).
///
/// `a` is the adjacency matrix (`a[i][j]` = weight of edge `i → j`). Edge
/// weights must be strictly positive (see the module notes on the
/// zero-weight mask caveat).
pub fn sssp_delta_step(a: &Matrix<f64>, delta: f64, src: usize) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    assert_eq!(a.nrows(), a.ncols(), "adjacency matrix must be square");
    assert!(src < a.nrows(), "source out of bounds");
    assert!(
        a.values().iter().all(|&w| w > 0.0),
        "gblas delta-stepping requires strictly positive weights \
         (t_Req is used as a value mask, Sec. V-B)"
    );
    sssp_delta_step_checked(a, delta, src, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
}

/// [`sssp_delta_step`] under a [`RunBudget`]: returns [`SsspError`]
/// instead of panicking on a bad Δ or source, and observes
/// cancellation/deadlines at every epoch boundary. The outer loop of
/// Fig. 2 visits *every* bucket index up to the last non-empty one, so an
/// impractically small Δ trips the epoch budget here even on valid
/// inputs. Checkpoints carry the `settled_below` certificate but are
/// **not resumable**: the GraphBLAS formulation's masked-vector state and
/// nvals-based counters do not map onto the frontier loop.
pub fn sssp_delta_step_checked(
    a: &Matrix<f64>,
    delta: f64,
    src: usize,
    budget: &mut RunBudget,
) -> Result<SsspResult, SsspError> {
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(SsspError::InvalidDelta { delta });
    }
    if a.nrows() != a.ncols() || src >= a.nrows() {
        return Err(SsspError::SourceOutOfBounds {
            source: src,
            num_vertices: a.nrows().min(a.ncols()),
        });
    }
    let n = a.nrows();
    let clear = Descriptor::replace(); // the paper's clear_desc
    let null = Descriptor::new(); // GrB_NULL descriptor

    let mut result = SsspResult::init(n, src);

    // t[src] = 0
    let mut t: Vector<f64> = Vector::new(n);
    t.set(src, 0.0).expect("source in bounds");

    // A_L, A_H (lines 11-21).
    let (al, ah) = split_light_heavy_gblas(a, delta);

    // Working vectors (line 6's "define vectors").
    let mut t_b: Vector<bool> = Vector::new(n);
    let mut t_masked: Vector<f64> = Vector::new(n);
    let mut t_req: Vector<f64> = Vector::new(n);
    let mut t_less: Vector<bool> = Vector::new(n);
    let mut s: Vector<bool> = Vector::new(n);
    let mut t_geq: Vector<bool> = Vector::new(n);
    let mut t_comp: Vector<bool> = Vector::new(n);

    // init i = 0 (line 24).
    let mut i: usize = 0;

    // Outer loop: while (t .>= i*delta) != 0 (lines 27-30).
    // Snapshot the sparse t over the dense init state for checkpointing.
    let stop_with = |stop: crate::budget::BudgetStop,
                     t: &Vector<f64>,
                     result: &SsspResult,
                     bucket: usize,
                     stop_point: StopPoint| {
        let mut dist = result.dist.clone();
        for (v, d) in t.iter() {
            dist[v] = d;
        }
        LiveState {
            implementation: "gblas",
            source: src,
            delta,
            dist: &dist,
            stats: &result.stats,
            bucket,
            stop_point,
            frontier: &[],
            settled: &[],
            resumable: false,
            stepping: None,
        }
        .stop(stop)
    };

    let min_plus = semiring::min_plus_f64();
    // Pre-transposed A_L for dense (pull) epochs — built lazily on the
    // first pull decision and reused for the rest of the run.
    let mut alt: Option<Matrix<f64>> = None;
    loop {
        if let Err(stop) = budget.check() {
            return Err(stop_with(stop, &t, &result, i, StopPoint::BucketStart));
        }
        let i_delta = i as f64 * delta;
        let delta_i_geq = FnUnary::new(move |x: f64| x >= i_delta);
        ops::vector_apply(&mut t_geq, None, None, &delta_i_geq, &t, clear).expect("sized alike");
        ops::vector_apply(
            &mut t_comp,
            Some(&t_geq.mask()),
            None,
            &Identity::<f64, bool>::new(),
            &t,
            clear,
        )
        .expect("sized alike");
        if t_comp.nvals() == 0 {
            break;
        }
        result.stats.buckets_processed += 1;

        // s = 0 (line 33).
        s.clear();

        // tBi = (i*delta .<= t .< (i+1)*delta)  (line 35).
        let hi = (i + 1) as f64 * delta;
        let delta_i_range = FnUnary::new(move |x: f64| i_delta <= x && x < hi);
        ops::vector_apply(&mut t_b, None, None, &delta_i_range, &t, clear).expect("sized alike");
        // tmasked<tB,replace> = t (line 37).
        ops::vector_apply(
            &mut t_masked,
            Some(&t_b.mask()),
            None,
            &Identity::<f64>::new(),
            &t,
            clear,
        )
        .expect("sized alike");

        // Inner loop: while tBi != 0 (lines 40-57).
        while t_masked.nvals() > 0 {
            if let Err(stop) = budget.check() {
                return Err(stop_with(stop, &t, &result, i, StopPoint::LightPhase));
            }
            result.stats.light_phases += 1;
            // tReq = A_L' (min.+) (t .* tBi)  (line 43). Sparse frontiers
            // run the push `vxm`; dense ones (per the shared density
            // oracle) run the pull form over the pre-transposed A_L —
            // bit-identical for the (min,+) semiring, so the nvals-based
            // stats are unchanged by the switch.
            let frontier_edges: usize =
                t_masked.iter().map(|(v, _)| al.row(v).0.len()).sum();
            match gblas::direction::choose(frontier_edges, al.nvals()) {
                gblas::Direction::Pull => {
                    let at = alt.get_or_insert_with(|| ops::transpose(&al));
                    ops::vxm_pull(&mut t_req, None, None, &min_plus, &t_masked, at, clear)
                        .expect("square matrix");
                }
                gblas::Direction::Push => {
                    ops::vxm(&mut t_req, None, None, &min_plus, &t_masked, &al, clear)
                        .expect("square matrix");
                }
            }
            result.stats.relaxations += t_req.nvals() as u64;

            // s = s lor tB (line 45). Aliased in C; clone for Rust borrows.
            let s_prev = s.clone();
            ops::ewise_add_vector(&mut s, None, None, &LOr, &s_prev, &t_b, null)
                .expect("sized alike");

            // tless<tReq,replace> = tReq .< t (line 48).
            ops::ewise_add_vector(
                &mut t_less,
                Some(&t_req.mask()),
                None,
                &Lt::<f64>::new(),
                &t_req,
                &t,
                clear,
            )
            .expect("sized alike");

            // tB<tless,replace> = (i*delta .<= tReq .< (i+1)*delta) (line 49).
            ops::vector_apply(
                &mut t_b,
                Some(&t_less.mask()),
                None,
                &delta_i_range,
                &t_req,
                clear,
            )
            .expect("sized alike");

            // t = min(t, tReq) (line 51). Aliased in C; clone for Rust.
            let t_prev = t.clone();
            ops::ewise_add_vector(&mut t, None, None, &Min::<f64>::new(), &t_prev, &t_req, null)
                .expect("sized alike");

            // tmasked<tB,replace> = t (line 54).
            ops::vector_apply(
                &mut t_masked,
                Some(&t_b.mask()),
                None,
                &Identity::<f64>::new(),
                &t,
                clear,
            )
            .expect("sized alike");
        }

        // Heavy phase (lines 58-63): tmasked<s,replace> = t; tReq = A_H'
        // (min.+) tmasked; t = min(t, tReq).
        result.stats.heavy_phases += 1;
        ops::vector_apply(
            &mut t_masked,
            Some(&s.mask()),
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

        // i = i + 1 (line 66).
        i += 1;
    }

    // Return paths (lines 72-73): copy t into the dense result.
    for (v, d) in t.iter() {
        result.dist[v] = d;
    }
    Ok(result)
}

/// Convenience wrapper taking a [`CsrGraph`] like the other implementations.
pub fn delta_stepping_gblas(g: &CsrGraph, source: usize, delta: f64) -> SsspResult {
    let a = g.to_adjacency();
    sssp_delta_step(&a, delta, source)
}

/// [`delta_stepping_gblas`] under a [`RunBudget`].
pub fn delta_stepping_gblas_checked(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<SsspResult, SsspError> {
    crate::guard::reject_zero_weights(g, "gblas")?;
    let a = g.to_adjacency();
    sssp_delta_step_checked(&a, delta, source, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use graphdata::gen::{grid2d, path, star};
    use graphdata::EdgeList;

    #[test]
    fn split_matches_threshold() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.5), (0, 2, 2.0), (1, 2, 1.0)]);
        let a = el.to_adjacency();
        let (al, ah) = split_light_heavy_gblas(&a, 1.0);
        assert_eq!(al.nvals(), 2);
        assert_eq!(ah.nvals(), 1);
        assert_eq!(al.get(0, 1), Some(0.5));
        assert_eq!(al.get(1, 2), Some(1.0));
        assert_eq!(ah.get(0, 2), Some(2.0));
    }

    #[test]
    fn path_graph() {
        let g = CsrGraph::from_edge_list(&path(5)).unwrap();
        let r = delta_stepping_gblas(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 4)).unwrap();
        let dj = dijkstra(&g, 0);
        for delta in [0.5, 1.0, 3.0] {
            let r = delta_stepping_gblas(&g, 0, delta);
            assert_eq!(r.dist, dj.dist, "delta = {delta}");
        }
    }

    #[test]
    fn weighted_with_heavy_edges() {
        let el = EdgeList::from_triples(vec![
            (0, 1, 0.5),
            (1, 2, 5.0),
            (0, 2, 6.0),
            (2, 3, 0.5),
            (0, 3, 9.0),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.5, 5.5, 6.0]);
    }

    #[test]
    fn star_two_iterations() {
        let g = CsrGraph::from_edge_list(&star(6)).unwrap();
        let r = delta_stepping_gblas(&g, 0, 1.0);
        assert!(r.dist[1..].iter().all(|&d| d == 1.0));
    }

    #[test]
    fn unreachable_vertices() {
        let mut el = EdgeList::from_triples(vec![(0, 1, 1.0)]);
        el.ensure_vertices(4);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas(&g, 0, 1.0);
        assert_eq!(r.dist[2], f64::INFINITY);
        assert_eq!(r.reachable_count(), 2);
    }

    #[test]
    fn source_only_graph() {
        let g = CsrGraph::from_edge_list(&graphdata::EdgeList::new(1)).unwrap();
        let r = delta_stepping_gblas(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "strictly positive weights")]
    fn zero_weights_rejected() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        delta_stepping_gblas(&g, 0, 1.0);
    }

    #[test]
    fn checked_rejects_bad_inputs_and_trips_watchdog() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        assert!(matches!(
            delta_stepping_gblas_checked(&g, 0, -1.0, &mut RunBudget::unlimited()),
            Err(SsspError::InvalidDelta { .. })
        ));
        assert!(matches!(
            delta_stepping_gblas_checked(&g, 8, 1.0, &mut RunBudget::unlimited()),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
        let zero = CsrGraph::from_edge_list(&EdgeList::from_triples(vec![(0, 1, 0.0)])).unwrap();
        assert!(matches!(
            delta_stepping_gblas_checked(&zero, 0, 1.0, &mut RunBudget::unlimited()),
            Err(SsspError::ZeroWeightUnsupported { .. })
        ));
        let mut tight = RunBudget::with_limit(2);
        assert!(matches!(
            delta_stepping_gblas_checked(&g, 0, 1.0, &mut tight),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }

    #[test]
    fn checked_matches_unchecked_on_valid_input() {
        let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let plain = delta_stepping_gblas(&g, 0, 1.0);
        let mut budget = RunBudget::for_run(&g, 1.0, &crate::guard::GuardConfig::default());
        let checked = delta_stepping_gblas_checked(&g, 0, 1.0, &mut budget).unwrap();
        assert_eq!(plain.dist, checked.dist);
    }

    #[test]
    fn cancellation_checkpoint_certifies_settled_distances() {
        let g = CsrGraph::from_edge_list(&path(10)).unwrap();
        let full = delta_stepping_gblas(&g, 0, 1.0);
        let err =
            delta_stepping_gblas_checked(&g, 0, 1.0, &mut RunBudget::unlimited().cancel_after(6))
                .unwrap_err();
        let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
        assert!(!cp.resumable);
        assert!(cp.settled_count() > 0);
        for (v, d) in cp.settled_distances() {
            assert_eq!(d.to_bits(), full.dist[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn fractional_weights_cross_buckets() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.4), (1, 2, 0.4), (2, 3, 0.4)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_gblas(&g, 0, 0.5);
        assert_eq!(r.dist, vec![0.0, 0.4, 0.8, 1.2000000000000002]);
        assert!(r.stats.buckets_processed >= 3);
    }
}
