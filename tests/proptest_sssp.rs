//! Property-based tests: random graphs and vectors drive every SSSP
//! implementation and the core GraphBLAS kernels against independent
//! reference models.

use proptest::prelude::*;

use gblas::ops::{self, Min, Plus};
use gblas::{Descriptor, Vector};
use graphdata::{CsrGraph, EdgeList};
use sssp_core::repro::{canonical, gblas_impl};
use sssp_core::stepping::{delta_stepping_strategy, SteppingStrategy};
use sssp_core::{
    dijkstra, fused, run_checked, validate, GuardConfig, Implementation,
};
use taskpool::ThreadPool;

/// Random weighted digraph: up to `max_n` vertices, strictly positive
/// weights (so the gblas implementation applies too).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = EdgeList> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n, 0..n, 1u32..40).prop_map(|(u, v, w)| (u, v, w as f64 / 8.0)),
            0..max_m,
        )
        .prop_map(move |triples| {
            let mut el = EdgeList::from_triples(triples);
            el.ensure_vertices(n);
            el
        })
    })
}

/// Random graph whose weights may be NaN, infinite, negative, or zero —
/// inputs [`CsrGraph::from_edge_list`] refuses, assembled into a
/// structurally valid CSR through the unchecked constructor.
fn arb_hostile_graph(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec(
            (0..n, 0..n, 0u8..6, 1u32..64).prop_map(|(u, v, kind, m)| {
                let w = match kind {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => -(m as f64) / 8.0,
                    3 => 0.0,
                    _ => m as f64 / 8.0,
                };
                (u, v, w)
            }),
            0..max_m,
        )
        .prop_map(move |triples| (n, triples))
    })
}

/// Assemble arbitrary (possibly invalid-valued) triples into a CSR.
fn csr_unchecked(n: usize, mut triples: Vec<(usize, usize, f64)>) -> CsrGraph {
    triples.sort_by_key(|t| t.0);
    let mut offsets = vec![0usize; n + 1];
    for &(s, _, _) in &triples {
        offsets[s + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let targets = triples.iter().map(|t| t.1).collect();
    let weights = triples.iter().map(|t| t.2).collect();
    CsrGraph::from_raw_parts_unchecked(n, offsets, targets, weights)
}

/// Sparse vector as (size, dense options).
fn arb_sparse_f64(max_n: usize) -> impl Strategy<Value = Vec<Option<f64>>> {
    (1..max_n).prop_flat_map(|n| {
        proptest::collection::vec(
            proptest::option::weighted(0.4, (1u32..1000).prop_map(|x| x as f64 / 10.0)),
            n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_sssp_implementations_agree(el in arb_graph(30, 120), delta_idx in 0usize..4) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let delta = [0.25, 0.5, 1.0, 3.0][delta_idx];
        let src = 0;
        let truth = dijkstra::dijkstra(&g, src);

        let ca = canonical::delta_stepping_canonical(&g, src, delta);
        prop_assert!(ca.approx_eq(&truth, 1e-9).is_ok(), "canonical diverged");

        let fu = fused::delta_stepping_fused(&g, src, delta);
        prop_assert!(fu.approx_eq(&truth, 1e-9).is_ok(), "fused diverged");

        let gb = gblas_impl::delta_stepping_gblas(&g, src, delta);
        prop_assert!(gb.approx_eq(&truth, 1e-9).is_ok(), "gblas diverged");
    }

    #[test]
    fn sssp_certificate_always_holds(el in arb_graph(25, 80)) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = fused::delta_stepping_fused(&g, 0, 0.5);
        prop_assert!(validate::check_certificate(&g, &r, 1e-9).is_ok());
    }

    #[test]
    fn parallel_improved_matches_sequential(el in arb_graph(40, 200)) {
        let pool = ThreadPool::with_threads(3).unwrap();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let fu = fused::delta_stepping_fused(&g, 0, 1.0);
        let pi = delta_stepping_strategy(&g, 0, 1.0, SteppingStrategy::Classic, Some(&pool));
        prop_assert_eq!(fu.dist, pi.dist);
    }

    #[test]
    fn vxm_matches_dense_reference(
        el in arb_graph(15, 60),
        u_dense in arb_sparse_f64(15),
    ) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let a = g.to_adjacency();
        let n = a.nrows();
        let mut u_dense = u_dense;
        u_dense.resize(n, None);
        let u = Vector::from_dense(&u_dense);

        let mut out: Vector<f64> = Vector::new(n);
        ops::vxm(&mut out, None, None, &ops::semiring::min_plus_f64(), &u, &a, Descriptor::new())
            .unwrap();

        // Dense (min,+) reference.
        for j in 0..n {
            let mut best: Option<f64> = None;
            for (i, &ud) in u_dense.iter().enumerate() {
                if let (Some(uv), Some(av)) = (ud, a.get(i, j)) {
                    let cand = uv + av;
                    best = Some(best.map_or(cand, |b: f64| b.min(cand)));
                }
            }
            prop_assert_eq!(out.get(j), best, "column {}", j);
        }
    }

    #[test]
    fn ewise_add_matches_union_model(
        a_dense in arb_sparse_f64(30),
        b_dense in arb_sparse_f64(30),
    ) {
        let n = a_dense.len().max(b_dense.len());
        let mut a_dense = a_dense; a_dense.resize(n, None);
        let mut b_dense = b_dense; b_dense.resize(n, None);
        let a = Vector::from_dense(&a_dense);
        let b = Vector::from_dense(&b_dense);
        let mut out: Vector<f64> = Vector::new(n);
        ops::ewise_add_vector(&mut out, None, None, &Min::<f64>::new(), &a, &b, Descriptor::new())
            .unwrap();
        for i in 0..n {
            let expect = match (a_dense[i], b_dense[i]) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (Some(x), None) => Some(x),
                (None, Some(y)) => Some(y),
                (None, None) => None,
            };
            prop_assert_eq!(out.get(i), expect);
        }
    }

    #[test]
    fn ewise_mult_matches_intersection_model(
        a_dense in arb_sparse_f64(30),
        b_dense in arb_sparse_f64(30),
    ) {
        let n = a_dense.len().max(b_dense.len());
        let mut a_dense = a_dense; a_dense.resize(n, None);
        let mut b_dense = b_dense; b_dense.resize(n, None);
        let a = Vector::from_dense(&a_dense);
        let b = Vector::from_dense(&b_dense);
        let mut out: Vector<f64> = Vector::new(n);
        ops::ewise_mult_vector(&mut out, None, None, &Plus::<f64>::new(), &a, &b, Descriptor::new())
            .unwrap();
        for i in 0..n {
            let expect = match (a_dense[i], b_dense[i]) {
                (Some(x), Some(y)) => Some(x + y),
                _ => None,
            };
            prop_assert_eq!(out.get(i), expect);
        }
    }

    #[test]
    fn transpose_involution_and_invariants(el in arb_graph(20, 80)) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let a = g.to_adjacency();
        let at = ops::transpose(&a);
        at.check_invariants().unwrap();
        prop_assert_eq!(ops::transpose(&at), a);
    }

    #[test]
    fn adjacency_round_trips_through_io(el in arb_graph(20, 60)) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let clean = g.to_edge_list();
        // Binary round trip.
        let bin = graphdata::io::write_binary(&clean);
        let back = graphdata::io::read_binary(&bin).unwrap();
        prop_assert_eq!(&back, &clean);
        // Matrix Market round trip (same edges, any order).
        let mut mm = Vec::new();
        graphdata::io::write_matrix_market(&mut mm, &clean).unwrap();
        let back = graphdata::io::read_matrix_market(std::io::BufReader::new(&mm[..])).unwrap();
        let g2 = CsrGraph::from_edge_list(&back).unwrap();
        prop_assert_eq!(g2, g.clone());
        // SNAP TSV round trip.
        let mut tsv = Vec::new();
        graphdata::io::write_snap_tsv(&mut tsv, &clean).unwrap();
        let back = graphdata::io::read_snap_tsv(std::io::BufReader::new(&tsv[..])).unwrap();
        let g3 = CsrGraph::from_edge_list(&back).unwrap();
        prop_assert_eq!(g3, g);
    }

    #[test]
    fn monoid_laws_hold(x in -1e6f64..1e6, y in -1e6f64..1e6, z in -1e6f64..1e6) {
        use gblas::ops::monoid;
        use gblas::ops::BinaryOp;
        let m = monoid::min::<f64>();
        // Commutativity, associativity, identity.
        prop_assert_eq!(m.apply(x, y), m.apply(y, x));
        prop_assert_eq!(m.apply(m.apply(x, y), z), m.apply(x, m.apply(y, z)));
        prop_assert_eq!(m.apply(gblas::ops::Monoid::identity(&m), x), x);
        let p = monoid::max::<f64>();
        prop_assert_eq!(p.apply(x, y), p.apply(y, x));
        prop_assert_eq!(p.apply(gblas::ops::Monoid::identity(&p), x), x);
    }

    #[test]
    fn min_plus_semiring_laws(x in 0f64..1e3, y in 0f64..1e3, z in 0f64..1e3) {
        use gblas::ops::{BinaryOp, Monoid, Semiring};
        let s = ops::semiring::min_plus_f64();
        let add = |a, b| s.add().apply(a, b);
        let mul = |a, b| s.mul().apply(a, b);
        // Distributivity: x (+) min(y, z) = min(x (+) y, x (+) z).
        prop_assert_eq!(mul(x, add(y, z)), add(mul(x, y), mul(x, z)));
        // Annihilation: infinity absorbs multiplication.
        prop_assert_eq!(mul(s.add().identity(), x), f64::INFINITY);
    }

    #[test]
    fn run_checked_is_total_on_hostile_inputs(
        (n, triples) in arb_hostile_graph(10, 30),
        src in 0usize..16,
        delta_idx in 0usize..6,
    ) {
        let delta = [0.5, 1.0, 0.0, f64::NAN, f64::INFINITY, -1.0][delta_idx];
        let g = csr_unchecked(n, triples.clone());
        let cfg = GuardConfig::default();
        for imp in Implementation::ALL {
            // Whatever the input, run_checked must return — no panic, no
            // hang. Ok is only legal when every input was actually valid.
            // An Err is a clean rejection — exactly what the guard is for.
            if let Ok(report) = run_checked(imp, &g, src, delta, None, &cfg) {
                prop_assert!(src < n, "{}: accepted OOB source", imp.name());
                prop_assert!(
                    delta.is_finite() && delta > 0.0,
                    "{}: accepted delta {delta}", imp.name()
                );
                prop_assert!(
                    triples.iter().all(|t| t.2.is_finite() && t.2 >= 0.0),
                    "{}: accepted an invalid weight", imp.name()
                );
                prop_assert!(
                    validate::check_certificate(&g, &report.result, 1e-9).is_ok(),
                    "{}: accepted input but produced uncertified distances", imp.name()
                );
            }
        }
    }

    #[test]
    fn run_checked_succeeds_within_watchdog_on_valid_graphs(
        el in arb_graph(25, 100),
        delta_idx in 0usize..3,
    ) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let delta = [0.5, 1.0, 2.5][delta_idx];
        let truth = dijkstra::dijkstra(&g, 0);
        for imp in Implementation::ALL {
            let report = run_checked(imp, &g, 0, delta, None, &GuardConfig::default());
            match report {
                Ok(r) => {
                    prop_assert!(r.degraded.is_none(), "{}: spurious degradation", imp.name());
                    prop_assert!(
                        r.result.approx_eq(&truth, 1e-9).is_ok(),
                        "{}: diverged from Dijkstra", imp.name()
                    );
                }
                Err(e) => prop_assert!(false, "{}: rejected a valid graph: {e}", imp.name()),
            }
        }
    }

    #[test]
    fn csr_graph_invariants(el in arb_graph(25, 100)) {
        let g = CsrGraph::from_edge_list(&el).unwrap();
        // Offsets monotone, targets sorted and in bounds per row,
        // no self-loops, no duplicates.
        for v in 0..g.num_vertices() {
            let (ts, ws) = g.neighbors(v);
            prop_assert_eq!(ts.len(), ws.len());
            for w in ts.windows(2) {
                prop_assert!(w[0] < w[1], "row {} not strictly sorted", v);
            }
            for &t in ts {
                prop_assert!(t < g.num_vertices());
                prop_assert!(t != v, "self-loop survived");
            }
        }
    }
}
