//! # sssp-core — delta-stepping SSSP, from vertices and edges to GraphBLAS
//!
//! The paper's contribution, reproduced end to end. Five implementations of
//! single-source shortest paths share one result type so they can be
//! compared edge-for-edge:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`canonical`] | Meyer–Sanders delta-stepping with explicit buckets (Fig. 1, right) |
//! | [`gblas_impl`] | the **unfused GraphBLAS** implementation (Fig. 2, call-for-call) |
//! | [`stepping`], no pool | the **fused direct-C** implementation (Sec. VI-B: Hadamard+vxm fusion, fused vector updates) over the [`fused::LightHeavy`] split |
//! | [`parallel`] | the **OpenMP-task** parallel scheme (Sec. VI-C: 2 matrix-filter tasks + evenly-sized vector chunk tasks) |
//! | [`stepping`], pooled | the paper's proposed improvement: fine-grained matrix filtering ([`fused::LightHeavy::build_chunked`]) + contention-free request-buffer relaxation ([`reqbuf`]) |
//!
//! The third and fifth are **one** stepping loop ([`stepping`]): the
//! classic strategy on its sequential and pooled relaxation kernels. The
//! same loop runs ρ-stepping and Δ*-stepping ([`SteppingStrategy`]).
//! [`run::run_with_budget`] is the checked single-run door to all five
//! ([`Implementation`]); [`dijkstra`] and [`bellman_ford`] are the classic
//! baselines.
//!
//! Multi-source / repeated runs should go through [`engine::SsspEngine`],
//! which caches the light/heavy matrix split per `(graph, Δ)` and reuses
//! the loop's workspace across calls: `run_stepping` is the one way to
//! run, `resume_stepping` the one way to resume. [`batch::BatchRunner`]
//! drives one engine per worker through its two-rung degradation ladder;
//! a batched or served job is `{strategy, kernels}` ([`Kernels`]) — the
//! repro variants are not reachable from there.
//!
//! All take a [`graphdata::CsrGraph`], a source vertex, and (where relevant)
//! a Δ from [`delta::DeltaStrategy`], and return an [`SsspResult`] whose
//! `dist[v]` is the shortest distance from the source (`f64::INFINITY` when
//! unreachable). [`validate::check_certificate`] verifies any result against
//! the SSSP optimality conditions.
//!
//! ```
//! use graphdata::gen::grid2d;
//! use graphdata::CsrGraph;
//! use sssp_core::{delta::DeltaStrategy, fused, dijkstra};
//!
//! let g = CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap();
//! let ds = fused::delta_stepping_fused(&g, 0, DeltaStrategy::Unit.resolve(&g).unwrap());
//! let dj = dijkstra::dijkstra(&g, 0);
//! assert_eq!(ds.dist, dj.dist);
//! assert_eq!(ds.dist[63], 14.0); // Manhattan distance across the grid
//! ```

pub mod batch;
pub mod bellman_ford;
pub mod buckets;
pub mod budget;
pub mod canonical;
pub mod checkpoint;
pub mod delta;
pub mod dijkstra;
pub mod engine;
pub mod explore;
pub mod fused;
pub mod gblas_impl;
pub mod gblas_parallel;
pub mod gblas_select;
pub mod guard;
pub mod manifest;
pub mod parallel;
pub mod pull;
pub mod reqbuf;
pub mod parallel_sim;
pub mod paths;
pub mod result;
pub mod run;
pub mod schedule;
pub mod split_cache;
pub mod stats;
pub mod stepping;
pub mod validate;

pub use batch::{BatchConfig, BatchOutcome, BatchReport, BatchRunner, Kernels};
pub use budget::{BudgetStop, CancelToken, ProgressGauge, RunBudget};
pub use checkpoint::{Checkpoint, StopPoint};
pub use guard::{GuardConfig, SsspError, Watchdog};
pub use manifest::{CheckpointManifest, ManifestEntry};
pub use result::SsspResult;
pub use run::{run_checked, run_with_budget, Implementation, RunReport};
pub use split_cache::{SplitCache, SplitCacheStats};
pub use stats::SsspStats;
pub use stepping::SteppingStrategy;

/// The distance value used for unreachable vertices.
pub const INF: f64 = f64::INFINITY;
