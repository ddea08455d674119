//! Parallel `vxm`: split the frontier's stored entries into chunks, give
//! each task a private dense accumulator, and merge with the semiring's
//! additive monoid.
//!
//! Per-task partials come back through [`scope_collect`] — no lock on the
//! completion path, and the merge folds them in **chunk order**, so the
//! result is deterministic even for additive monoids where evaluation
//! order shows up in the bits (floating `+`), not just for `min`.

use taskpool::{scope_collect, split_evenly, ThreadPool};

use crate::descriptor::Descriptor;
use crate::error::{check_dims, Info};
use crate::mask::VectorMask;
use crate::matrix::Matrix;
use crate::ops::binary::BinaryOp;
use crate::ops::monoid::Monoid;
use crate::ops::semiring::Semiring;
use crate::ops::write::{accum_merge, mask_write_vector, SparseVec};
use crate::types::Scalar;
use crate::vector::Vector;

/// Parallel `out<mask> ⊙= u ⊕.⊗ A`; semantics identical to
/// [`crate::ops::vxm()`](crate::ops::vxm()), which runs without a pool (no
/// `transpose_a` support — transpose up front).
#[allow(clippy::too_many_arguments)]
pub fn par_vxm<UD, MD, C, S>(
    pool: Option<&ThreadPool>,
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
    S: Semiring<UD, MD, C> + Sync,
{
    assert!(
        !desc.transpose_a,
        "par_vxm does not support transpose_a; materialize the transpose first"
    );
    check_dims("u size vs nrows", a.nrows(), u.size())?;
    check_dims("out size vs ncols", a.ncols(), out.size())?;
    if let Some(m) = mask {
        check_dims("mask size", out.size(), m.size())?;
    }

    let Some(pool) = pool else {
        return crate::ops::vxm::vxm(out, mask, accum, semiring, u, a, desc);
    };
    let nnz = u.nvals();
    let ncols = a.ncols();
    // Small frontiers are not worth the fork/merge overhead.
    if nnz < 256 || pool.num_threads() == 1 {
        let t = crate::ops::vxm::vxm_pattern(semiring, u, a);
        let z = accum_merge(out, t, accum);
        mask_write_vector(out, z, mask, desc);
        return Ok(());
    }

    let chunks = split_evenly(0..nnz, pool.num_threads());
    let add = semiring.add();
    let partials: Vec<SparseVec<C>> = scope_collect(pool, chunks, |_, chunk| {
        let mul = semiring.mul();
        let add = semiring.add();
        let mut acc: Vec<C> = vec![add.identity(); ncols];
        let mut present = vec![false; ncols];
        let mut touched: Vec<usize> = Vec::new();
        for p in chunk {
            #[cfg(feature = "racecheck")]
            {
                // Chunk-boundary interleaving + the shared frontier read
                // every producer task performs.
                taskpool::sched::yield_point();
                racecheck::plain_read("gblas.vxm.u", &u.values()[p] as *const UD);
            }
            let i = u.indices()[p];
            let uv = u.values()[p];
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
        let mut part = SparseVec::with_capacity(touched.len());
        for j in touched {
            part.push(j, acc[j]);
        }
        part
    });

    // Sequential tree-free merge of the per-task partials with ⊕, in
    // chunk order.
    let mut t = SparseVec {
        indices: Vec::new(),
        values: Vec::new(),
    };
    for part in partials {
        t = crate::ops::write::union_merge(
            &t.indices,
            &t.values,
            &part.indices,
            &part.values,
            |x| x,
            |y| y,
            |x, y| add.apply(x, y),
        );
    }
    let z = accum_merge(out, t, accum);
    mask_write_vector(out, z, mask, desc);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::semiring::min_plus_f64;
    use crate::ops::vxm::vxm;

    fn ring(n: usize) -> Matrix<f64> {
        let triples = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        Matrix::from_triples(n, n, triples).unwrap()
    }

    #[test]
    fn par_vxm_matches_sequential_small() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let a = ring(10);
        let u = Vector::from_entries(10, vec![(0, 0.0), (5, 2.0)]).unwrap();
        let mut seq = Vector::new(10);
        vxm(&mut seq, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
        let mut par = Vector::new(10);
        par_vxm(Some(&pool), &mut par, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_vxm_matches_sequential_large_dense_frontier() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let n = 2000;
        // Two outgoing edges per vertex so columns collide across chunks.
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push((i, (i + 1) % n, 1.0 + (i % 7) as f64));
            triples.push((i, (i * 13 + 5) % n, 2.0 + (i % 3) as f64));
        }
        let a = Matrix::from_triples_dup(n, n, triples, &crate::ops::binary::Min::new()).unwrap();
        let u = Vector::from_entries(n, (0..n).map(|i| (i, (i % 11) as f64)).collect()).unwrap();
        let mut seq = Vector::new(n);
        vxm(&mut seq, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
        let mut par = Vector::new(n);
        par_vxm(Some(&pool), &mut par, None, None, &min_plus_f64(), &u, &a, Descriptor::new()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_vxm_with_mask_and_accum() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let n = 600;
        let a = ring(n);
        let u = Vector::from_entries(n, (0..n).map(|i| (i, i as f64)).collect()).unwrap();
        let mask_v =
            Vector::from_entries(n, (0..n).step_by(2).map(|i| (i, true)).collect()).unwrap();
        let mask = mask_v.mask();
        let accum = crate::ops::binary::Min::<f64>::new();

        let mut seq = Vector::from_entries(n, vec![(0, -5.0)]).unwrap();
        vxm(
            &mut seq,
            Some(&mask),
            Some(&accum),
            &min_plus_f64(),
            &u,
            &a,
            Descriptor::replace(),
        )
        .unwrap();
        let mut par = Vector::from_entries(n, vec![(0, -5.0)]).unwrap();
        par_vxm(
            Some(&pool),
            &mut par,
            Some(&mask),
            Some(&accum),
            &min_plus_f64(),
            &u,
            &a,
            Descriptor::replace(),
        )
        .unwrap();
        assert_eq!(seq, par);
    }
}
