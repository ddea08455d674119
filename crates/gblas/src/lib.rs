//! # gblas — a GraphBLAS implementation in Rust
//!
//! This crate implements the subset (plus extensions) of the GraphBLAS
//! specification needed to express graph algorithms in the language of
//! linear algebra, as used by the paper *"Delta-stepping SSSP: from Vertices
//! and Edges to GraphBLAS Implementations"*. It plays the role SuiteSparse:
//! GraphBLAS and GBTL play for the paper's C/C++ implementations.
//!
//! ## Objects
//!
//! * [`Vector`] — a sparse vector: a sorted list of `(index, value)` pairs
//!   with a logical size. Sets of vertices are vectors (Sec. II-D).
//! * [`Matrix`] — a sparse matrix in CSR form. Graphs are stored as
//!   adjacency matrices; sets of edges are matrices.
//! * [`VectorMask`] / [`MatrixMask`] — pre-evaluated write masks (the set of
//!   positions the mask allows). Construct with [`Vector::mask`] (value
//!   truthiness) or [`Vector::structure`] (structural mask), and likewise on
//!   matrices. Complementing is controlled by the [`Descriptor`].
//! * [`Descriptor`] — per-call options: `replace` (clear output first),
//!   `complement_mask`, `transpose_a`, `transpose_b`.
//!
//! ## Operations
//!
//! The C-API functions used in the paper's Fig. 2 map to:
//!
//! | GraphBLAS C | here |
//! |---|---|
//! | `GrB_apply` (vector/matrix) | [`ops::vector_apply`], [`ops::matrix_apply`] |
//! | `GrB_eWiseAdd` | [`ops::ewise_add_vector`], [`ops::ewise_add_matrix`] |
//! | `GrB_eWiseMult` | [`ops::ewise_mult_vector`], [`ops::ewise_mult_matrix`] |
//! | `GrB_vxm` | [`ops::vxm()`](ops::vxm()) |
//! | `GrB_mxv` | [`ops::mxv()`](ops::mxv()) |
//! | `GrB_mxm` | [`ops::mxm()`](ops::mxm()) |
//! | `GrB_reduce` | [`ops::reduce_matrix_to_vector`], [`ops::reduce_vector`], [`ops::reduce_matrix`] |
//! | `GrB_extract` | [`ops::extract_submatrix`], [`ops::extract::extract_subvector`], [`ops::extract::extract_element`] |
//! | `GxB_select` | [`ops::select_vector`], [`ops::select_matrix`] |
//! | `GrB_transpose` | [`ops::transpose()`](ops::transpose()) |
//!
//! All operations follow the GraphBLAS write semantics: compute `T`, merge
//! with the output through the optional accumulator (`Z = out ⊙ T`), then
//! write `Z` through the (possibly complemented) mask, deleting unmasked
//! stale entries when `replace` is set.
//!
//! `eWiseAdd` deliberately reproduces the specification behaviour the paper
//! calls out in Sec. V-B: on positions where only one operand is present,
//! the present value is *passed through with a typecast* — even when the
//! operator is non-commutative (e.g. `<`). See `tests/paper_pitfalls.rs` in
//! the workspace root for the reproduction of that pitfall and its
//! mask-based fix.
//!
//! ## Parallel extension
//!
//! The [`parallel`] module provides task-parallel variants of the hottest
//! kernels (`vxm`, element-wise operations, apply) over a
//! [`taskpool::ThreadPool`] — the "parallelizing within the operations"
//! improvement the paper's Sec. VI-C and VIII call for.
//!
//! ## Quick start
//!
//! ```
//! use gblas::{Matrix, Vector, Descriptor};
//! use gblas::ops::{self, semiring};
//!
//! // A 3-vertex path graph 0 -> 1 -> 2 with weights 1.0 and 2.5.
//! let a = Matrix::from_triples(3, 3, vec![(0, 1, 1.0f64), (1, 2, 2.5)]).unwrap();
//! // Distances-so-far: source 0 at distance 0.
//! let mut t = Vector::new(3);
//! t.set(0, 0.0f64).unwrap();
//! // One relaxation step: t_req = t (min.+) A   (i.e. A^T t over (min,+)).
//! let mut t_req = Vector::new(3);
//! ops::vxm(&mut t_req, None, None, &semiring::min_plus_f64(), &t, &a,
//!          Descriptor::default()).unwrap();
//! assert_eq!(t_req.get(1), Some(1.0));
//! ```

pub mod descriptor;
pub mod direction;
pub mod error;
pub mod mask;
pub mod matrix;
pub mod ops;
pub mod parallel;
pub mod types;
pub mod vector;

pub use descriptor::Descriptor;
pub use direction::Direction;
pub use error::{GblasError, Info};
pub use mask::{MaskValue, MatrixMask, VectorMask};
pub use matrix::Matrix;
pub use types::{CastTo, Index, MinPlusValue, Num, Scalar};
pub use vector::Vector;
