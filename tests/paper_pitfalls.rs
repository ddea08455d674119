//! Reproductions of the implementation pitfalls the paper documents in
//! Sec. V — the behaviours that make GraphBLAS "unintuitive to an
//! uninformed developer". Each test demonstrates the trap and the fix the
//! paper proposes.

use gblas::ops::{self, Identity, Lt, Min};
use gblas::{Descriptor, Matrix, Vector};

/// Sec. V-B, paragraph 1: `eWiseAdd` with a non-commutative operator
/// passes lone operands through. "if a value in t was present and no new
/// requests update the tentative distance for that particular vertex, the
/// check will return the value of t, which will evaluate to 1 (true),
/// instead of the expected 0 (false)."
#[test]
fn ewise_add_lt_passes_lone_t_through_as_true() {
    let t_req = Vector::from_entries(4, vec![(0, 5.0f64)]).unwrap();
    let t = Vector::from_entries(4, vec![(0, 2.0f64), (2, 7.0)]).unwrap();
    let mut tless: Vector<bool> = Vector::new(4);
    ops::ewise_add_vector(&mut tless, None, None, &Lt::<f64>::new(), &t_req, &t, Descriptor::new())
        .unwrap();
    // Both present at 0: 5 < 2 is false — fine.
    assert_eq!(tless.get(0), Some(false));
    // Only t present at 2: 7.0 passes through and casts to true — the trap.
    assert_eq!(tless.get(2), Some(true));
}

/// Sec. V-B, paragraph 2: the software fix — "apply t_Req as an output
/// mask to the call to eWiseAdd".
#[test]
fn treq_output_mask_fixes_the_comparison() {
    let t_req = Vector::from_entries(4, vec![(0, 5.0f64)]).unwrap();
    let t = Vector::from_entries(4, vec![(0, 2.0f64), (2, 7.0)]).unwrap();
    let mut tless: Vector<bool> = Vector::new(4);
    ops::ewise_add_vector(
        &mut tless,
        Some(&t_req.mask()),
        None,
        &Lt::<f64>::new(),
        &t_req,
        &t,
        Descriptor::replace(),
    )
    .unwrap();
    assert_eq!(tless.get(0), Some(false));
    assert_eq!(tless.get(2), None); // no spurious entry
}

/// Sec. V-B, paragraph 2 caveat: "this solution works because t_Req is
/// never zero. If the value in t_Req evaluates to zero and is stored, then
/// the mask will be incorrect." Demonstrated: a stored 0.0 in t_Req is
/// dropped by the value mask.
#[test]
fn treq_value_mask_is_wrong_when_treq_holds_zero() {
    let t_req = Vector::from_entries(4, vec![(0, 0.0f64), (1, 5.0)]).unwrap();
    let t = Vector::from_entries(4, vec![(0, 2.0f64), (1, 9.0)]).unwrap();
    let mut tless: Vector<bool> = Vector::new(4);
    ops::ewise_add_vector(
        &mut tless,
        Some(&t_req.mask()),
        None,
        &Lt::<f64>::new(),
        &t_req,
        &t,
        Descriptor::replace(),
    )
    .unwrap();
    // 0.0 < 2.0 is true, but the value mask treats the stored 0.0 as
    // "false" and silently drops the position:
    assert_eq!(tless.get(0), None);
    assert_eq!(tless.get(1), Some(true));
    // The structural mask is the correct tool when zeros are possible:
    let mut fixed: Vector<bool> = Vector::new(4);
    ops::ewise_add_vector(
        &mut fixed,
        Some(&t_req.structure()),
        None,
        &Lt::<f64>::new(),
        &t_req,
        &t,
        Descriptor::replace(),
    )
    .unwrap();
    assert_eq!(fixed.get(0), Some(true));
}

/// Sec. V-B, paragraph 3: `eWiseMult` is no alternative — it intersects
/// patterns, so a request for a vertex *not yet in t* is silently lost,
/// even though "undefined values of t should default to ∞" and the
/// comparison should be true.
#[test]
fn ewise_mult_drops_new_requests() {
    let t_req = Vector::from_entries(4, vec![(2, 5.0f64)]).unwrap(); // new vertex
    let t = Vector::from_entries(4, vec![(0, 0.0f64)]).unwrap();
    let mut tless: Vector<bool> = Vector::new(4);
    ops::ewise_mult_vector(&mut tless, None, None, &Lt::<f64>::new(), &t_req, &t, Descriptor::new())
        .unwrap();
    // The request at 2 should compare 5.0 < INF = true, but eWiseMult
    // intersects and returns nothing:
    assert_eq!(tless.get(2), None);
    assert_eq!(tless.nvals(), 0);
}

/// Sec. V-A: the filter idiom needs *two* apply calls because a single
/// apply stores falsified predicate values instead of dropping them.
#[test]
fn single_apply_stores_false_entries() {
    let t = Vector::from_entries(4, vec![(0, 0.5f64), (1, 3.0), (2, 0.7)]).unwrap();
    let pred = ops::FnUnary::new(|x: f64| x < 1.0);
    let mut filtered: Vector<bool> = Vector::new(4);
    ops::vector_apply(&mut filtered, None, None, &pred, &t, Descriptor::new()).unwrap();
    // One apply: the false is *stored*, the pattern is not filtered.
    assert_eq!(filtered.nvals(), 3);
    assert_eq!(filtered.get(1), Some(false));
    // Second apply through the mask does the actual filtering.
    let mut masked: Vector<f64> = Vector::new(4);
    ops::vector_apply(
        &mut masked,
        Some(&filtered.mask()),
        None,
        &Identity::<f64>::new(),
        &t,
        Descriptor::replace(),
    )
    .unwrap();
    assert_eq!(masked.nvals(), 2);
    assert_eq!(masked.get(1), None);
}

/// The `clear_desc` (replace) detail of Fig. 2: without replace, stale
/// entries survive a masked write and corrupt the bucket vector.
#[test]
fn missing_replace_leaves_stale_entries() {
    let t = Vector::from_entries(4, vec![(0, 0.5f64), (1, 3.0)]).unwrap();
    let mask_v = Vector::from_entries(4, vec![(0, true)]).unwrap();
    let mut out = Vector::from_entries(4, vec![(3, 99.0f64)]).unwrap(); // stale
    // Without replace: position 3 (blocked by mask) keeps its stale value.
    ops::vector_apply(
        &mut out,
        Some(&mask_v.mask()),
        None,
        &Identity::<f64>::new(),
        &t,
        Descriptor::new(),
    )
    .unwrap();
    assert_eq!(out.get(3), Some(99.0));
    // With replace (the paper's clear_desc): stale entry gone.
    let mut out = Vector::from_entries(4, vec![(3, 99.0f64)]).unwrap();
    ops::vector_apply(
        &mut out,
        Some(&mask_v.mask()),
        None,
        &Identity::<f64>::new(),
        &t,
        Descriptor::replace(),
    )
    .unwrap();
    assert_eq!(out.get(3), None);
    assert_eq!(out.get(0), Some(0.5));
}

/// End-to-end consequence: the gblas delta-stepping inherits the
/// zero-weight caveat and guards against it, while the fused direct
/// implementation handles zero weights fine.
#[test]
fn zero_weight_edges_guarded_in_gblas_fine_in_fused() {
    let el = graphdata::EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0)]);
    let g = graphdata::CsrGraph::from_edge_list(&el).unwrap();
    let fused = sssp_core::fused::delta_stepping_fused(&g, 0, 1.0);
    assert_eq!(fused.dist, vec![0.0, 0.0, 1.0]);
    let panicked = std::panic::catch_unwind(|| {
        sssp_core::repro::gblas_impl::delta_stepping_gblas(&g, 0, 1.0)
    });
    assert!(panicked.is_err(), "gblas version must refuse zero weights");
}

/// The aliasing note: GraphBLAS C allows `eWiseAdd(t, ..., t, tReq)`;
/// our Rust port clones. Check the clone-based update gives the expected
/// min-merge.
#[test]
fn aliased_min_update_via_clone() {
    let t = Vector::from_entries(3, vec![(0, 0.0f64), (1, 5.0)]).unwrap();
    let t_req = Vector::from_entries(3, vec![(1, 3.0f64), (2, 8.0)]).unwrap();
    let mut out = t.clone();
    let prev = out.clone();
    ops::ewise_add_vector(&mut out, None, None, &Min::<f64>::new(), &prev, &t_req, Descriptor::new())
        .unwrap();
    assert_eq!(out.get(0), Some(0.0));
    assert_eq!(out.get(1), Some(3.0));
    assert_eq!(out.get(2), Some(8.0));
}

/// Sec. II-C fill-in: `A^T A` creates spurious entries that the Hadamard
/// product with A removes (the k-truss pattern).
#[test]
fn hadamard_removes_spmm_fill_in() {
    let edges = vec![
        (0usize, 1usize, 1.0f64),
        (1, 0, 1.0),
        (1, 2, 1.0),
        (2, 1, 1.0),
        (0, 2, 1.0),
        (2, 0, 1.0),
    ];
    let a = Matrix::from_triples(3, 3, edges).unwrap();
    let mut ata: Matrix<f64> = Matrix::new(3, 3);
    ops::mxm(
        &mut ata,
        None,
        None,
        &ops::semiring::plus_times::<f64>(),
        &a,
        &a,
        Descriptor::new().with_transpose_a(),
    )
    .unwrap();
    // Fill-in: diagonal entries and the (0,2)/(2,0) two-hop pairs.
    assert!(ata.nvals() > a.nvals());
    let mut s: Matrix<f64> = Matrix::new(3, 3);
    ops::ewise_mult_matrix(
        &mut s,
        None,
        None,
        &ops::First::<f64>::new(),
        &ata,
        &a,
        Descriptor::new(),
    )
    .unwrap();
    // After the Hadamard, only A's pattern survives.
    assert_eq!(s.nvals(), a.nvals());
    assert_eq!(s.get(0, 0), None);
}

/// Epilogue: `GxB_eWiseUnion` (added to SuiteSparse after the paper) is
/// the principled resolution of the Sec. V-B pitfall — the comparison is
/// always applied, with explicit `∞` fills for absent operands. One call,
/// no masks, no typecast surprises, zero values fine.
#[test]
fn ewise_union_resolves_the_pitfall_in_one_call() {
    let t_req = Vector::from_entries(4, vec![(0, 0.0f64), (1, 5.0)]).unwrap();
    let t = Vector::from_entries(4, vec![(0, 2.0f64), (2, 7.0)]).unwrap();
    let mut tless: Vector<bool> = Vector::new(4);
    ops::ewise_union_vector(
        &mut tless,
        None,
        None,
        &Lt::<f64>::new(),
        &t_req,
        f64::INFINITY,
        &t,
        f64::INFINITY,
        Descriptor::new(),
    )
    .unwrap();
    // Every case the earlier tests struggled with, correct at once:
    assert_eq!(tless.get(0), Some(true)); // zero-valued request
    assert_eq!(tless.get(1), Some(true)); // request for an unseen vertex
    assert_eq!(tless.get(2), Some(false)); // lone t entry: ∞ < 7 is false
    assert_eq!(tless.get(3), None);
}
