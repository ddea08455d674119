//! # sssp-core — delta-stepping SSSP, from vertices and edges to GraphBLAS
//!
//! One crate, two halves, one line between them.
//!
//! **The serving library** — what `sssp-serve`, the batch runner and the
//! CLI's `--sources` mode execute. One stepping loop, its kernels, and
//! the supervision around it:
//!
//! | module | role |
//! |---|---|
//! | [`stepping`] | the one stepping loop: classic Δ-stepping (the paper's **fused direct-C** implementation, Sec. VI-B, without a pool; its proposed improvement with one), ρ-stepping and Δ*-stepping ([`SteppingStrategy`]) |
//! | [`fused`] | the [`fused::LightHeavy`] split (`A_L` / `A_H`, fine-grained [`fused::LightHeavy::build_chunked`]) and the sequential classic front door |
//! | [`reqbuf`], [`pull`] | the loop's relaxation kernels: contention-free request buffers (push) and the dense pull kernel |
//! | [`engine`], [`split_cache`] | multi-run engine: the split cached per `(graph, Δ)`, the workspace reused across calls |
//! | [`batch`] | the one job door ([`batch::run_job`]: resume-or-fresh, the two-rung degradation ladder, checkpoint persistence; a job is `{strategy, kernels}`, [`Kernels`]) and the multi-source [`BatchRunner`] over it |
//! | [`budget`], [`guard`] | deadline / cancellation / epoch budgets, preflight validation, the error taxonomy |
//! | [`checkpoint`], [`manifest`] | certified partial results and their durable index |
//! | [`delta`], [`result`], [`stats`], [`validate`] | Δ selection, the shared result type, counters and phase timing, the optimality certificate |
//! | [`dijkstra`], [`bellman_ford`] | the classic baselines every variant is validated against |
//!
//! **The paper reproduction** — [`repro`]: the canonical bucket algorithm
//! (Fig. 1), the unfused GraphBLAS listing (Fig. 2) and its `select` /
//! parallel-library variants, the OpenMP-task scheme (Sec. VI-C) and the
//! Fig. 4 schedule simulator. The figures need every one of them; the
//! serving half runs none. [`run::run_with_budget`] is the only module
//! that crosses the line: the checked single-run door to the five-way
//! [`Implementation`] (three `repro` variants plus the loop's sequential
//! and pooled classic kernels), which [`explore`] permutes under the
//! race checker. `canonical` and `gblas_impl` are also re-exported at
//! the crate root, where the frozen benchmark harness names them.
//!
//! Multi-source / repeated runs should go through [`engine::SsspEngine`],
//! which caches the light/heavy matrix split per `(graph, Δ)` and reuses
//! the loop's workspace across calls: `run_stepping` is the one way to
//! run, `resume_stepping` the one way to resume. [`batch::run_job`] runs
//! one job on a caller's engine through the two-rung degradation ladder
//! (the one place a run's panic is caught — `run_with_budget`'s pooled
//! implementations use it too); [`batch::BatchRunner`] drives one engine
//! per worker through it, and the repro variants are not reachable from
//! there.
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
pub mod budget;
pub mod checkpoint;
pub mod delta;
pub mod dijkstra;
pub mod engine;
pub mod explore;
pub mod fused;
pub mod guard;
pub mod manifest;
pub mod pull;
pub mod repro;
pub mod reqbuf;
pub mod result;
pub mod run;
pub mod split_cache;
pub mod stats;
pub mod stepping;
pub mod validate;

// The two repro paths the frozen benchmark harness pins.
pub use repro::{canonical, gblas_impl};

pub use batch::{BatchConfig, BatchOutcome, BatchReport, BatchRunner, Kernels};
pub use budget::{BudgetStop, CancelToken, ProgressGauge, RunBudget};
pub use checkpoint::{Checkpoint, StopPoint};
pub use guard::{GuardConfig, SsspError};
pub use manifest::{CheckpointManifest, ManifestEntry};
pub use result::SsspResult;
pub use run::{run_checked, run_with_budget, Implementation, RunReport};
pub use split_cache::{SplitCache, SplitCacheStats};
pub use stats::SsspStats;
pub use stepping::SteppingStrategy;

/// The distance value used for unreachable vertices.
pub const INF: f64 = f64::INFINITY;
