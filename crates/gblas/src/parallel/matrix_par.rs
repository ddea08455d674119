//! Parallel matrix filtering — the kernel the paper identifies as the
//! scaling bottleneck (building `A_L`/`A_H` takes 35–40 % of sequential
//! runtime and was a single task per matrix in the paper's scheme).
//!
//! Rows are split into contiguous chunks; each task filters its rows into a
//! private buffer; [`scope_collect`] returns the buffers already in row
//! order (no completion lock, no sort), and they concatenate into a CSR
//! result.

use taskpool::{scope_collect, split_evenly, ThreadPool};

use crate::descriptor::Descriptor;
use crate::matrix::Matrix;
use crate::types::Scalar;

struct RowChunk<T> {
    first_row: usize,
    /// Entries per row within the chunk.
    row_counts: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

/// Stitch row-ordered chunks (as returned by [`scope_collect`]) into CSR.
fn assemble<T: Scalar>(nrows: usize, ncols: usize, chunks: Vec<RowChunk<T>>) -> Matrix<T> {
    let nnz: usize = chunks.iter().map(|c| c.col_idx.len()).sum();
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for chunk in chunks {
        debug_assert_eq!(chunk.first_row, row_ptr.len() - 1);
        for count in chunk.row_counts {
            row_ptr.push(row_ptr.last().unwrap() + count);
        }
        col_idx.extend_from_slice(&chunk.col_idx);
        values.extend_from_slice(&chunk.values);
    }
    debug_assert_eq!(row_ptr.len(), nrows + 1);
    Matrix::from_csr_unchecked(nrows, ncols, row_ptr, col_idx, values)
}

/// Parallel single-pass filter: `select(A, pred)` with rows chunked into
/// `grain`-row tasks (0 = one chunk per thread); without a pool, the
/// sequential [`crate::ops::select_matrix`]. The select formulation of
/// delta-stepping builds `A_L` and `A_H` with this.
pub fn par_select_matrix<T, P>(
    pool: Option<&ThreadPool>,
    a: &Matrix<T>,
    grain: usize,
    pred: P,
) -> Matrix<T>
where
    T: Scalar,
    P: Fn(usize, usize, T) -> bool + Send + Sync,
{
    let nrows = a.nrows();
    let Some(pool) = pool else {
        let mut out = Matrix::new(nrows, a.ncols());
        crate::ops::select::select_matrix(&mut out, None, None, pred, a, Descriptor::new())
            .expect("same dims");
        return out;
    };
    if nrows == 0 {
        return Matrix::new(0, a.ncols());
    }
    let pieces = if grain == 0 {
        pool.num_threads()
    } else {
        nrows.div_ceil(grain)
    };
    let ranges = split_evenly(0..nrows, pieces);
    let chunks = scope_collect(pool, ranges, |_, range| {
        let mut rc = RowChunk {
            first_row: range.start,
            row_counts: Vec::with_capacity(range.len()),
            col_idx: Vec::new(),
            values: Vec::new(),
        };
        for r in range {
            let (cols, vals) = a.row(r);
            let before = rc.col_idx.len();
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if pred(r, c, v) {
                    rc.col_idx.push(c);
                    rc.values.push(v);
                }
            }
            rc.row_counts.push(rc.col_idx.len() - before);
        }
        rc
    });
    assemble(nrows, a.ncols(), chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::select_matrix;

    fn weighted(n: usize) -> Matrix<f64> {
        let mut triples = Vec::new();
        for i in 0..n {
            triples.push((i, (i + 1) % n, (i % 5) as f64 * 0.5));
            triples.push((i, (i * 7 + 3) % n, (i % 3) as f64 + 0.25));
        }
        Matrix::from_triples_dup(n, n, triples, &crate::ops::binary::Min::new()).unwrap()
    }

    #[test]
    fn par_select_matches_sequential() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let a = weighted(500);
        let par = par_select_matrix(Some(&pool), &a, 0, |_, _, w| w <= 1.0);
        let mut seq: Matrix<f64> = Matrix::new(500, 500);
        select_matrix(&mut seq, None, None, |_, _, w| w <= 1.0, &a, Descriptor::new()).unwrap();
        assert_eq!(par, seq);
        par.check_invariants().unwrap();
    }

    #[test]
    fn par_select_fine_grain() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let a = weighted(97);
        let coarse = par_select_matrix(Some(&pool), &a, 0, |_, _, w| w > 1.0);
        let fine = par_select_matrix(Some(&pool), &a, 8, |_, _, w| w > 1.0);
        assert_eq!(coarse, fine);
    }

    #[test]
    fn par_empty_matrix() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let a: Matrix<f64> = Matrix::new(0, 0);
        let out = par_select_matrix(Some(&pool), &a, 0, |_, _, _| true);
        assert_eq!(out.nvals(), 0);
    }
}
