//! Parallel element-wise vector operations: the index space is split into
//! contiguous ranges; each task merges its slice of both operands; the
//! per-task results come back **already in range order** through
//! [`scope_collect`] — no completion lock, no sort-by-chunk-key — and
//! concatenate directly (element-wise outputs at an index depend only on
//! that index, so there is no cross-chunk interaction).

use taskpool::{scope_collect, split_evenly, ThreadPool};

use crate::descriptor::Descriptor;
use crate::error::Info;
use crate::mask::VectorMask;
use crate::ops::binary::BinaryOp;
use crate::ops::unary::UnaryOp;
use crate::ops::write::{accum_merge, intersect_merge, mask_write_vector, union_merge, SparseVec};
use crate::types::{CastTo, Scalar};
use crate::vector::Vector;

/// Split `indices` (sorted) into the sub-slices covered by each index range.
fn slice_bounds(indices: &[usize], ranges: &[std::ops::Range<usize>]) -> Vec<(usize, usize)> {
    ranges
        .iter()
        .map(|r| {
            let lo = indices.partition_point(|&i| i < r.start);
            let hi = indices.partition_point(|&i| i < r.end);
            (lo, hi)
        })
        .collect()
}

/// Concatenate per-range partials that are already in ascending index
/// order (the order [`scope_collect`] returns them in).
fn concat_ordered<C: Scalar>(parts: Vec<SparseVec<C>>) -> SparseVec<C> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = SparseVec::with_capacity(total);
    for p in parts {
        out.indices.extend_from_slice(&p.indices);
        out.values.extend_from_slice(&p.values);
    }
    out
}

/// Parallel [`crate::ops::ewise_add_vector`]; without a pool, that kernel.
#[allow(clippy::too_many_arguments)]
pub fn par_ewise_add_vector<A, B, C, Op>(
    pool: Option<&ThreadPool>,
    out: &mut Vector<C>,
    mask: Option<&VectorMask>,
    accum: Option<&dyn BinaryOp<C, C, C>>,
    op: &Op,
    u: &Vector<A>,
    v: &Vector<B>,
    desc: Descriptor,
) -> Info
where
    A: Scalar + CastTo<C>,
    B: Scalar + CastTo<C>,
    C: Scalar,
    Op: BinaryOp<A, B, C> + Sync + ?Sized,
{
    let Some(pool) = pool else {
        return crate::ops::ewise::ewise_add_vector(out, mask, accum, op, u, v, desc);
    };
    out.check_same_size(u.size())?;
    out.check_same_size(v.size())?;
    if let Some(m) = mask {
        out.check_same_size(m.size())?;
    }
    let ranges = split_evenly(0..u.size(), pool.num_threads());
    if ranges.len() <= 1 || u.nvals() + v.nvals() < 512 {
        let t = union_merge(u.indices(), u.values(), v.indices(), v.values(), |a| a.cast(),
            |b| b.cast(), |a, b| op.apply(a, b));
        let z = accum_merge(out, t, accum);
        mask_write_vector(out, z, mask, desc);
        return Ok(());
    }
    let ub = slice_bounds(u.indices(), &ranges);
    let vb = slice_bounds(v.indices(), &ranges);
    let bounds: Vec<((usize, usize), (usize, usize))> =
        ub.into_iter().zip(vb).collect();
    let parts = scope_collect(pool, bounds, |_, ((ulo, uhi), (vlo, vhi))| {
        union_merge(
            &u.indices()[ulo..uhi],
            &u.values()[ulo..uhi],
            &v.indices()[vlo..vhi],
            &v.values()[vlo..vhi],
            |a| a.cast(),
            |b| b.cast(),
            |a, b| op.apply(a, b),
        )
    });
    let t = concat_ordered(parts);
    let z = accum_merge(out, t, accum);
    mask_write_vector(out, z, mask, desc);
    Ok(())
}

/// Parallel [`crate::ops::ewise_mult_vector`]; without a pool, that kernel.
#[allow(clippy::too_many_arguments)]
pub fn par_ewise_mult_vector<A, B, C, Op>(
    pool: Option<&ThreadPool>,
    out: &mut Vector<C>,
    mask: Option<&VectorMask>,
    accum: Option<&dyn BinaryOp<C, C, C>>,
    op: &Op,
    u: &Vector<A>,
    v: &Vector<B>,
    desc: Descriptor,
) -> Info
where
    A: Scalar,
    B: Scalar,
    C: Scalar,
    Op: BinaryOp<A, B, C> + Sync + ?Sized,
{
    let Some(pool) = pool else {
        return crate::ops::ewise::ewise_mult_vector(out, mask, accum, op, u, v, desc);
    };
    out.check_same_size(u.size())?;
    out.check_same_size(v.size())?;
    if let Some(m) = mask {
        out.check_same_size(m.size())?;
    }
    let ranges = split_evenly(0..u.size(), pool.num_threads());
    if ranges.len() <= 1 || u.nvals().min(v.nvals()) < 512 {
        let t = intersect_merge(u.indices(), u.values(), v.indices(), v.values(), |a, b| {
            op.apply(a, b)
        });
        let z = accum_merge(out, t, accum);
        mask_write_vector(out, z, mask, desc);
        return Ok(());
    }
    let ub = slice_bounds(u.indices(), &ranges);
    let vb = slice_bounds(v.indices(), &ranges);
    let bounds: Vec<((usize, usize), (usize, usize))> =
        ub.into_iter().zip(vb).collect();
    let parts = scope_collect(pool, bounds, |_, ((ulo, uhi), (vlo, vhi))| {
        intersect_merge(
            &u.indices()[ulo..uhi],
            &u.values()[ulo..uhi],
            &v.indices()[vlo..vhi],
            &v.values()[vlo..vhi],
            |a, b| op.apply(a, b),
        )
    });
    let t = concat_ordered(parts);
    let z = accum_merge(out, t, accum);
    mask_write_vector(out, z, mask, desc);
    Ok(())
}

/// Parallel [`crate::ops::vector_apply`]; without a pool, that kernel.
pub fn par_vector_apply<A, B, Op>(
    pool: Option<&ThreadPool>,
    out: &mut Vector<B>,
    mask: Option<&VectorMask>,
    accum: Option<&dyn BinaryOp<B, B, B>>,
    op: &Op,
    input: &Vector<A>,
    desc: Descriptor,
) -> Info
where
    A: Scalar,
    B: Scalar,
    Op: UnaryOp<A, B> + Sync + ?Sized,
{
    out.check_same_size(input.size())?;
    if let Some(m) = mask {
        out.check_same_size(m.size())?;
    }
    let nnz = input.nvals();
    let pool = match pool {
        Some(pool) if nnz >= 512 && pool.num_threads() > 1 => pool,
        _ => return crate::ops::apply::vector_apply(out, mask, accum, op, input, desc),
    };
    let chunks = split_evenly(0..nnz, pool.num_threads());
    let parts = scope_collect(pool, chunks, |_, chunk| {
        let mut part = SparseVec::with_capacity(chunk.len());
        for p in chunk {
            part.push(input.indices()[p], op.apply(input.values()[p]));
        }
        part
    });
    let t = concat_ordered(parts);
    let z = accum_merge(out, t, accum);
    mask_write_vector(out, z, mask, desc);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::binary::{Min, Plus};
    use crate::ops::unary::FnUnary;

    fn big_vectors(n: usize) -> (Vector<f64>, Vector<f64>) {
        let u = Vector::from_entries(
            n,
            (0..n).filter(|i| i % 2 == 0).map(|i| (i, i as f64)).collect(),
        )
        .unwrap();
        let v = Vector::from_entries(
            n,
            (0..n).filter(|i| i % 3 == 0).map(|i| (i, (i * 2) as f64)).collect(),
        )
        .unwrap();
        (u, v)
    }

    #[test]
    fn par_ewise_add_matches_sequential() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let (u, v) = big_vectors(5000);
        let mut seq = Vector::new(5000);
        crate::ops::ewise::ewise_add_vector(
            &mut seq, None, None, &Min::<f64>::new(), &u, &v, Descriptor::new(),
        )
        .unwrap();
        let mut par = Vector::new(5000);
        par_ewise_add_vector(Some(&pool), &mut par, None, None, &Min::<f64>::new(), &u, &v, Descriptor::new())
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_ewise_mult_matches_sequential() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let (u, v) = big_vectors(5000);
        let mut seq = Vector::new(5000);
        crate::ops::ewise::ewise_mult_vector(
            &mut seq, None, None, &Plus::<f64>::new(), &u, &v, Descriptor::new(),
        )
        .unwrap();
        let mut par = Vector::new(5000);
        par_ewise_mult_vector(
            Some(&pool), &mut par, None, None, &Plus::<f64>::new(), &u, &v, Descriptor::new(),
        )
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_apply_matches_sequential() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let (u, _) = big_vectors(5000);
        let op = FnUnary::new(|x: f64| x * 0.5 + 1.0);
        let mut seq = Vector::new(5000);
        crate::ops::apply::vector_apply(&mut seq, None, None, &op, &u, Descriptor::new()).unwrap();
        let mut par = Vector::new(5000);
        par_vector_apply(Some(&pool), &mut par, None, None, &op, &u, Descriptor::new()).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_small_inputs_fall_back() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let u = Vector::from_entries(10, vec![(1, 1.0)]).unwrap();
        let v = Vector::from_entries(10, vec![(1, 2.0), (3, 3.0)]).unwrap();
        let mut out = Vector::new(10);
        par_ewise_add_vector(Some(&pool), &mut out, None, None, &Plus::<f64>::new(), &u, &v, Descriptor::new())
            .unwrap();
        assert_eq!(out.get(1), Some(3.0));
        assert_eq!(out.get(3), Some(3.0));
    }
}
