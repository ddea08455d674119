//! `GrB_vxm`: sparse row-vector × matrix over a semiring.
//!
//! This is the relaxation engine of the paper: with CSR storage, `u ⊕.⊗ A`
//! iterates the rows of `A` selected by `u`'s stored entries — exactly the
//! "for every vertex in the bucket, relax its outgoing edges" loop. Over
//! `(min, +)` it computes `t_Req = A_L^T (t ∘ t_Bi)` (Fig. 2 lines 43, 60)
//! without an explicit transpose.

use crate::descriptor::Descriptor;
use crate::error::{check_dims, Info};
use crate::mask::VectorMask;
use crate::matrix::Matrix;
use crate::ops::binary::BinaryOp;
use crate::ops::monoid::Monoid;
use crate::ops::semiring::Semiring;
use crate::ops::transpose::transpose;
use crate::ops::write::{accum_merge, mask_write_vector, SparseVec};
use crate::types::Scalar;
use crate::vector::Vector;

/// `out<mask> ⊙= u ⊕.⊗ A` (`GrB_vxm`).
///
/// `u` has size `A.nrows()`; `out` has size `A.ncols()`. With
/// `desc.transpose_a`, `A` is transposed first (materialized; O(nnz)).
pub fn vxm<UD, MD, C, S>(
    out: &mut Vector<C>,
    mask: Option<&VectorMask>,
    accum: Option<&dyn BinaryOp<C, C, C>>,
    semiring: &S,
    u: &Vector<UD>,
    a: &Matrix<MD>,
    desc: Descriptor,
) -> Info
where
    UD: Scalar,
    MD: Scalar,
    C: Scalar,
    S: Semiring<UD, MD, C>,
{
    if desc.transpose_a {
        let at = transpose(a);
        let inner = Descriptor {
            transpose_a: false,
            ..desc
        };
        return vxm(out, mask, accum, semiring, u, &at, inner);
    }
    check_dims("u size vs nrows", a.nrows(), u.size())?;
    check_dims("out size vs ncols", a.ncols(), out.size())?;
    if let Some(m) = mask {
        check_dims("mask size", out.size(), m.size())?;
    }

    let t = vxm_pattern(semiring, u, a);
    let z = accum_merge(out, t, accum);
    mask_write_vector(out, z, mask, desc);
    Ok(())
}

/// The unmasked product `u ⊕.⊗ A` as a sparse payload; shared with the
/// parallel variant.
pub(crate) fn vxm_pattern<UD, MD, C, S>(semiring: &S, u: &Vector<UD>, a: &Matrix<MD>) -> SparseVec<C>
where
    UD: Scalar,
    MD: Scalar,
    C: Scalar,
    S: Semiring<UD, MD, C>,
{
    let add = semiring.add();
    let mul = semiring.mul();
    // Dense accumulator over the output dimension: value + present bitmap.
    let mut acc: Vec<C> = vec![add.identity(); a.ncols()];
    let mut present: Vec<bool> = vec![false; a.ncols()];
    let mut touched: Vec<usize> = Vec::new();
    for (i, uv) in u.iter() {
        let (cols, vals) = a.row(i);
        for (&j, &av) in cols.iter().zip(vals.iter()) {
            let prod = mul.apply(uv, av);
            if present[j] {
                acc[j] = add.apply(acc[j], prod);
            } else {
                acc[j] = prod;
                present[j] = true;
                touched.push(j);
            }
        }
    }
    touched.sort_unstable();
    let mut t = SparseVec::with_capacity(touched.len());
    for j in touched {
        t.push(j, acc[j]);
    }
    t
}

/// `out<mask> ⊙= u ⊕.⊗ Aᵀᵀ` — the **pull-direction** counterpart of
/// [`vxm`], fed the *pre-transposed* operand.
///
/// `at` must be `transpose(a)` for the `a` the caller would have handed
/// to [`vxm`]; the caller owns the transpose so that a loop consuming
/// the same matrix every epoch (delta-stepping's `A_L`) materializes it
/// once instead of per call. Instead of iterating the rows of `a`
/// selected by `u` (push: scatter into a dense accumulator, then sort
/// the touched list), this scans every row `j` of `at` — the in-edges
/// of output position `j` — against a bitmap of `u`'s stored entries:
/// sequential reads, output produced in ascending order, no sort. Which
/// direction to take is [`crate::direction::decide`]'s call, on frontier
/// density.
///
/// Equivalence caveat: push folds products in frontier order, pull folds
/// them per-output in ascending-source order. For order-insensitive
/// additive monoids (min/max/and/or — exactly the tropical case the SSSP
/// loops use) the result is **bit-identical** to [`vxm`]; for plain
/// floating `+` it is the usual reassociation-close, not bit-equal.
pub fn vxm_pull<UD, MD, C, S>(
    out: &mut Vector<C>,
    mask: Option<&VectorMask>,
    accum: Option<&dyn BinaryOp<C, C, C>>,
    semiring: &S,
    u: &Vector<UD>,
    at: &Matrix<MD>,
    desc: Descriptor,
) -> Info
where
    UD: Scalar,
    MD: Scalar,
    C: Scalar,
    S: Semiring<UD, MD, C>,
{
    // `at` is the transpose: its columns are `a`'s rows.
    check_dims("u size vs (transposed) nrows", at.ncols(), u.size())?;
    check_dims("out size vs (transposed) ncols", at.nrows(), out.size())?;
    if let Some(m) = mask {
        check_dims("mask size", out.size(), m.size())?;
    }

    let t = vxm_pull_pattern(semiring, u, at);
    let z = accum_merge(out, t, accum);
    mask_write_vector(out, z, mask, desc);
    Ok(())
}

/// The unmasked pull product: for each output `j`, fold the products of
/// `u`'s entries over the in-edges listed in row `j` of the transpose.
pub(crate) fn vxm_pull_pattern<UD, MD, C, S>(
    semiring: &S,
    u: &Vector<UD>,
    at: &Matrix<MD>,
) -> SparseVec<C>
where
    UD: Scalar,
    MD: Scalar,
    C: Scalar,
    S: Semiring<UD, MD, C>,
{
    let add = semiring.add();
    let mul = semiring.mul();
    // Frontier bitmap + dense value gather over the input dimension.
    let mut in_u: Vec<bool> = vec![false; at.ncols()];
    let mut uvals: Vec<Option<UD>> = vec![None; at.ncols()];
    for (i, uv) in u.iter() {
        in_u[i] = true;
        uvals[i] = Some(uv);
    }
    let mut t = SparseVec::with_capacity(u.nvals());
    for j in 0..at.nrows() {
        let (srcs, vals) = at.row(j);
        let mut acc: Option<C> = None;
        for (&i, &av) in srcs.iter().zip(vals.iter()) {
            if !in_u[i] {
                continue;
            }
            let uv = uvals[i].expect("bitmap and value gather are set together");
            let prod = mul.apply(uv, av);
            acc = Some(match acc {
                None => prod,
                Some(cur) => add.apply(cur, prod),
            });
        }
        if let Some(v) = acc {
            // Ascending `j`: the payload is sorted by construction.
            t.push(j, v);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::Min;
    use crate::ops::semiring::{min_plus_f64, plus_times};

    /// 4-vertex weighted digraph:
    /// 0->1 (1.0), 0->2 (4.0), 1->2 (2.0), 2->3 (1.0)
    fn graph() -> Matrix<f64> {
        Matrix::from_triples(
            4,
            4,
            vec![(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (2, 3, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn min_plus_vxm_relaxes_frontier() {
        let a = graph();
        let mut t = Vector::new(4);
        t.set(0, 0.0).unwrap();
        let mut req = Vector::new(4);
        vxm(&mut req, None, None, &min_plus_f64(), &t, &a, Descriptor::new()).unwrap();
        assert_eq!(req.get(1), Some(1.0));
        assert_eq!(req.get(2), Some(4.0));
        assert_eq!(req.get(3), None); // not reachable in one hop
    }

    #[test]
    fn min_plus_vxm_takes_minimum_over_paths() {
        let a = graph();
        // Both 0 (dist 0) and 1 (dist 1) are in the frontier; vertex 2 is
        // reachable from both: min(0+4, 1+2) = 3.
        let u = Vector::from_entries(4, vec![(0, 0.0), (1, 1.0)]).unwrap();
        let mut req = Vector::new(4);
        vxm(&mut req, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
        assert_eq!(req.get(2), Some(3.0));
    }

    #[test]
    fn plus_times_vxm_is_ordinary_spmv() {
        let a = Matrix::from_triples(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        let u = Vector::from_entries(2, vec![(0, 10.0), (1, 20.0)]).unwrap();
        let mut out = Vector::new(3);
        vxm(&mut out, None, None, &plus_times::<f64>(), &u, &a, Descriptor::new()).unwrap();
        assert_eq!(out.get(0), Some(10.0));
        assert_eq!(out.get(1), Some(60.0));
        assert_eq!(out.get(2), Some(20.0));
    }

    #[test]
    fn vxm_with_accum_min_keeps_better_distance() {
        let a = graph();
        let u = Vector::from_entries(4, vec![(0, 0.0)]).unwrap();
        let mut out = Vector::from_entries(4, vec![(1, 0.5), (2, 9.0)]).unwrap();
        vxm(
            &mut out,
            None,
            Some(&Min::<f64>::new()),
            &min_plus_f64(),
            &u,
            &a,
            Descriptor::new(),
        )
        .unwrap();
        assert_eq!(out.get(1), Some(0.5)); // old better
        assert_eq!(out.get(2), Some(4.0)); // new better
    }

    #[test]
    fn vxm_transpose_a() {
        let a = graph();
        // With transpose, u selects *columns*: u = e_1 picks in-edges of 1.
        let u = Vector::from_entries(4, vec![(1, 0.0)]).unwrap();
        let mut out = Vector::new(4);
        vxm(
            &mut out,
            None,
            None,
            &min_plus_f64(),
            &u,
            &a,
            Descriptor::new().with_transpose_a(),
        )
        .unwrap();
        assert_eq!(out.get(0), Some(1.0)); // edge 0->1 seen from the transpose
        assert_eq!(out.get(2), None);
    }

    #[test]
    fn vxm_dimension_checks() {
        let a = graph();
        let u: Vector<f64> = Vector::new(3); // wrong
        let mut out: Vector<f64> = Vector::new(4);
        assert!(vxm(&mut out, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).is_err());
        let u: Vector<f64> = Vector::new(4);
        let mut out: Vector<f64> = Vector::new(3); // wrong
        assert!(vxm(&mut out, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).is_err());
    }

    #[test]
    fn vxm_empty_u_yields_empty() {
        let a = graph();
        let u: Vector<f64> = Vector::new(4);
        let mut out = Vector::from_entries(4, vec![(0, 9.0)]).unwrap();
        vxm(&mut out, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
        assert_eq!(out.nvals(), 0); // unmasked write replaces contents
    }

    #[test]
    fn vxm_pull_matches_push_bit_for_bit_over_min_plus() {
        let a = graph();
        let at = transpose(&a);
        for entries in [
            vec![(0usize, 0.0f64)],
            vec![(0, 0.0), (1, 1.0)],
            vec![(0, 0.5), (1, 0.25), (2, 4.0)],
            vec![(3, 2.0)],
        ] {
            let u = Vector::from_entries(4, entries.clone()).unwrap();
            let mut push = Vector::new(4);
            vxm(&mut push, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
            let mut pull = Vector::new(4);
            vxm_pull(&mut pull, None, None, &min_plus_f64(), &u, &at, Descriptor::new())
                .unwrap();
            let pu: Vec<(usize, u64)> = push.iter().map(|(i, v)| (i, v.to_bits())).collect();
            let pl: Vec<(usize, u64)> = pull.iter().map(|(i, v)| (i, v.to_bits())).collect();
            assert_eq!(pu, pl, "frontier {entries:?}");
        }
    }

    #[test]
    fn vxm_pull_respects_accum_and_empty_frontier() {
        let a = graph();
        let at = transpose(&a);
        let u = Vector::from_entries(4, vec![(0, 0.0)]).unwrap();
        let mut out = Vector::from_entries(4, vec![(1, 0.5), (2, 9.0)]).unwrap();
        vxm_pull(
            &mut out,
            None,
            Some(&Min::<f64>::new()),
            &min_plus_f64(),
            &u,
            &at,
            Descriptor::new(),
        )
        .unwrap();
        assert_eq!(out.get(1), Some(0.5)); // old better
        assert_eq!(out.get(2), Some(4.0)); // new better

        let empty: Vector<f64> = Vector::new(4);
        let mut out = Vector::from_entries(4, vec![(0, 9.0)]).unwrap();
        vxm_pull(&mut out, None, None, &min_plus_f64(), &empty, &at, Descriptor::new()).unwrap();
        assert_eq!(out.nvals(), 0);
    }

    #[test]
    fn vxm_pull_dimension_checks_use_transposed_shape() {
        let a = Matrix::from_triples(2, 3, vec![(0, 0, 1.0), (1, 2, 2.0)]).unwrap();
        let at = transpose(&a); // 3 x 2
        let u = Vector::from_entries(2, vec![(0, 0.0)]).unwrap();
        let mut out: Vector<f64> = Vector::new(3);
        assert!(vxm_pull(&mut out, None, None, &min_plus_f64(), &u, &at, Descriptor::new())
            .is_ok());
        let wrong_u: Vector<f64> = Vector::new(3);
        assert!(vxm_pull(&mut out, None, None, &min_plus_f64(), &wrong_u, &at, Descriptor::new())
            .is_err());
        let mut wrong_out: Vector<f64> = Vector::new(2);
        assert!(vxm_pull(&mut wrong_out, None, None, &min_plus_f64(), &u, &at, Descriptor::new())
            .is_err());
    }
}
