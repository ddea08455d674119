//! The paper-reproduction variants: every implementation a figure needs
//! that the serving library does not run.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`canonical`] (over [`buckets`]) | Meyer–Sanders delta-stepping with explicit buckets (Fig. 1, right) |
//! | [`gblas_impl`] | the **unfused GraphBLAS** implementation (Fig. 2, call-for-call) |
//! | [`gblas_select`] | Fig. 2 with the Sec. VI-B single-pass `select` filter, still library calls |
//! | [`gblas_parallel`] | the same formulation on the task-parallel kernels of [`gblas::parallel`] (Sec. VIII) |
//! | [`parallel`] | the **OpenMP-task** parallel scheme (Sec. VI-C: 2 matrix-filter tasks + evenly-sized vector chunk tasks) |
//! | [`parallel_sim`] (over [`schedule`]) | the Fig. 4 thread-scaling model: the task decomposition recorded, then replayed on `T` simulated workers |
//!
//! This is the one boundary between the reproduction and the serving
//! library: inside the crate only [`crate::run`] (the five-way
//! [`crate::Implementation`] door) imports from here, and nothing under
//! `crates/serve` does — CI greps for both. The CLI, the bench harness,
//! the examples and the equivalence / pitfall suites name
//! `sssp_core::repro::…` directly.

pub mod buckets;
pub mod canonical;
pub mod gblas_impl;
pub mod gblas_parallel;
pub mod gblas_select;
pub mod parallel;
pub mod parallel_sim;
pub mod schedule;
