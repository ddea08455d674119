//! Task-parallel variants of the hottest GraphBLAS kernels.
//!
//! The paper's Sec. VI-C observes that its OpenMP-task scheme is limited by
//! operations that remain single tasks (the `A_L`/`A_H` matrix filters take
//! 35–40 % of the runtime) and calls for "parallelizing within the
//! matrix-vector operations and splitting the filtering operations into
//! smaller tasks". This module is that extension: `vxm`, element-wise ops,
//! matrix select run as chunked tasks on a [`taskpool::ThreadPool`].
//!
//! All functions are drop-in parallel counterparts of the sequential
//! operations in [`crate::ops`] with identical semantics (the integration
//! tests check bit-for-bit agreement). Each takes an
//! `Option<&ThreadPool>` and runs its sequential twin on `None`, so one
//! sequence of library calls serves both a sequential and a pooled run.

mod ewise;
mod matrix_par;
mod vxm_par;

pub use ewise::{par_ewise_add_vector, par_ewise_mult_vector, par_vector_apply};
pub use matrix_par::par_select_matrix;
pub use vxm_par::par_vxm;
