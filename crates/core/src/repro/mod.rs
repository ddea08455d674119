//! The paper-reproduction variants: every implementation a figure needs
//! that the serving library does not run.
//!
//! One bucket loop per paper formulation:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`canonical`] | Meyer–Sanders delta-stepping with explicit buckets (Fig. 1, right) |
//! | [`gblas_impl`] | the **unfused GraphBLAS** implementation (Fig. 2, call-for-call) |
//! | [`gblas_select`] | Fig. 2 with the Sec. VI-B single-pass `select` filter, still library calls; given a pool, the same calls on the task-parallel kernels of [`gblas::parallel`] (Sec. VIII) |
//! | [`parallel`] (over [`schedule`]) | the **OpenMP-task** parallel scheme (Sec. VI-C: 2 matrix-filter tasks + evenly-sized vector chunk tasks), run on a pool or recorded task by task for the Fig. 4 thread-scaling model, whose trace [`schedule`] replays on `T` simulated workers |
//!
//! This is figure code. A figure times a variant to completion and
//! compares it with the reference, so nothing here takes a budget, emits
//! a checkpoint or returns an error: every entry point asserts its inputs
//! and runs to the end, and a worker panic propagates to the caller. The
//! checked door in front of the five CLI-reachable variants — preflight,
//! the gblas zero-weight rejection and the bucket-index check — is
//! [`crate::run::run_checked`].
//!
//! This is the one boundary between the reproduction and the serving
//! library: inside the crate only [`crate::run`] imports from here, and
//! nothing under `crates/serve` does — CI greps for both, and for the
//! robustness types staying out of this directory. The CLI, the bench
//! harness, the examples and the equivalence / pitfall suites name
//! `sssp_core::repro::…` directly.

pub mod canonical;
pub mod gblas_impl;
pub mod gblas_select;
pub mod parallel;
pub mod schedule;
