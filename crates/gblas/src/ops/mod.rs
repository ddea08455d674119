//! Operators (unary, binary, monoids, semirings) and the GraphBLAS
//! operations built on them.
//!
//! The submodules [`unary`], [`binary`], [`monoid`], and [`semiring`] define
//! the algebraic objects; the remaining submodules implement the
//! specification operations (`apply`, `eWiseAdd`/`eWiseMult`, `vxm`/`mxv`/
//! `mxm`, `reduce`, `extract`, `select`, `transpose`).
//!
//! Re-exported here, flat, is what code outside this crate names (CI
//! checks that every name below has such a reference); the rest of each
//! submodule's vocabulary — further operators, `extract_element`, the
//! matrix `eWiseUnion`, … — is reached through the submodule.

pub mod apply;
pub mod binary;
pub mod ewise;
pub mod ewise_union;
pub mod extract;
pub mod index_unary;
pub mod kron;
pub mod monoid;
pub mod mxm;
pub mod mxv;
pub mod reduce;
pub mod select;
pub mod semiring;
pub mod transpose;
pub mod unary;
pub(crate) mod write;
pub mod vxm;

pub use apply::{matrix_apply, vector_apply};
pub use binary::{BinaryOp, First, LOr, Lt, Min, Plus, Second, Times};
pub use ewise::{ewise_add_matrix, ewise_add_vector, ewise_mult_matrix, ewise_mult_vector};
pub use ewise_union::ewise_union_vector;
pub use extract::extract_submatrix;
pub use index_unary::{matrix_select_indexop, vector_apply_indexop, FnIndexUnary, RowIndex};
pub use kron::{kron, kron_power};
pub use monoid::Monoid;
pub use mxm::mxm;
pub use mxv::mxv;
pub use reduce::{reduce_matrix, reduce_matrix_to_vector, reduce_vector};
pub use select::{select_matrix, select_vector};
pub use semiring::Semiring;
pub use transpose::transpose;
pub use unary::{FnUnary, Identity, One};
pub use vxm::{vxm, vxm_pull};
