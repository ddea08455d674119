//! The figure door: one checked entry point to the five paper-figure
//! variants the CLI can name ([`Implementation`]). The `fused` and
//! `improved` names are not here — they are the two [`Kernels`] of the
//! stepping loop, and a single run of either is one job through
//! [`crate::batch::run_job`], the door batches and the resident service
//! use.
//!
//! [`run_checked`] is preflight plus a plain call. Before the variant
//! runs it checks, in order:
//!
//! 1. [`preflight`]: finite non-negative weights, an in-range source and
//!    a positive finite Δ (or the configured fallback Δ);
//! 2. for `gblas`, [`reject_zero_weights`] — the Fig. 2 listing uses
//!    `t_Req` as a value mask (Sec. V-B);
//! 3. the bucket-index check: every distance is at most `(n−1)·max_w`,
//!    so no bucket index exceeds `(n−1)·max_w/Δ`, and a Δ that puts it
//!    at or beyond 2^53 — where `i as f64 * Δ` is no longer exact and
//!    `bucket_of` saturates — is rejected as
//!    [`SsspError::IterationLimitExceeded`] after zero epochs and without
//!    a checkpoint.
//!
//! Then the variant runs to completion: figure code has no budget, so it
//! is never cancelled, never checkpointed and never degraded, and a
//! worker panic propagates. The three checks are what make every figure
//! loop terminate on every input it accepts.
//!
//! [`Kernels`]: crate::batch::Kernels

use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::guard::{preflight, reject_zero_weights, GuardConfig, SsspError};
use crate::repro::{canonical, gblas_impl, gblas_parallel, gblas_select, parallel};
use crate::result::SsspResult;

/// The five paper-figure variants of [`crate::repro`] a CLI run can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// Meyer–Sanders with explicit buckets ([`crate::repro::canonical`]).
    Canonical,
    /// The unfused GraphBLAS implementation ([`crate::repro::gblas_impl`]).
    Gblas,
    /// Fig. 2 with single-pass `select` filters ([`crate::repro::gblas_select`]).
    GblasSelect,
    /// The select formulation on parallel library kernels
    /// ([`crate::repro::gblas_parallel`]).
    GblasParallel,
    /// The paper's task-parallel scheme ([`crate::repro::parallel`]).
    Parallel,
}

impl Implementation {
    /// Every figure variant, for exhaustive test sweeps.
    pub const ALL: [Implementation; 5] = [
        Implementation::Canonical,
        Implementation::Gblas,
        Implementation::GblasSelect,
        Implementation::GblasParallel,
        Implementation::Parallel,
    ];

    /// Parse a CLI-style name. `"delta"` is an alias for the canonical
    /// vertex/edge formulation. This is the single source of truth for
    /// figure-variant names.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "delta" | "canonical" => Some(Implementation::Canonical),
            "gblas" => Some(Implementation::Gblas),
            "gblas-select" => Some(Implementation::GblasSelect),
            "gblas-parallel" => Some(Implementation::GblasParallel),
            "parallel" => Some(Implementation::Parallel),
            _ => None,
        }
    }

    /// Canonical display name. `parse(name())` round-trips for every
    /// variant.
    pub fn name(self) -> &'static str {
        match self {
            Implementation::Canonical => "canonical",
            Implementation::Gblas => "gblas",
            Implementation::GblasSelect => "gblas-select",
            Implementation::GblasParallel => "gblas-parallel",
            Implementation::Parallel => "parallel",
        }
    }

    /// Whether this variant runs tasks on a [`ThreadPool`].
    pub fn is_parallel(self) -> bool {
        matches!(self, Implementation::GblasParallel | Implementation::Parallel)
    }
}

/// Bucket indices at or beyond 2^53 are where `i as f64 * Δ` stops being
/// exact.
const MAX_BUCKET_INDEX: u64 = 1 << 53;

/// Run `implementation` on `g` from `source` with bucket width `delta`
/// behind the checks of the module docs, returning the distances and the
/// Δ actually used (the fallback when [`GuardConfig::delta_fallback`]
/// replaced a degenerate request). `pool` serves the two pooled variants;
/// `None` selects the process-global pool.
pub fn run_checked(
    implementation: Implementation,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    pool: Option<&ThreadPool>,
    cfg: &GuardConfig,
) -> Result<(SsspResult, f64), SsspError> {
    let delta = preflight(g, source, delta, cfg)?;
    if implementation == Implementation::Gblas {
        reject_zero_weights(g, "gblas")?;
    }
    let last_bucket = g.num_vertices().saturating_sub(1) as f64 * g.max_weight() / delta;
    if last_bucket >= MAX_BUCKET_INDEX as f64 {
        return Err(SsspError::IterationLimitExceeded {
            ticks: 0,
            limit: MAX_BUCKET_INDEX,
            checkpoint: None,
        });
    }
    let pool = || match pool {
        Some(pool) => pool,
        None => taskpool::global(),
    };
    let result = match implementation {
        Implementation::Canonical => canonical::delta_stepping_canonical(g, source, delta),
        Implementation::Gblas => gblas_impl::delta_stepping_gblas(g, source, delta),
        Implementation::GblasSelect => gblas_select::delta_stepping_gblas_select(g, source, delta),
        Implementation::GblasParallel => {
            gblas_parallel::delta_stepping_gblas_parallel(pool(), g, source, delta)
        }
        Implementation::Parallel => parallel::delta_stepping_parallel(pool(), g, source, delta),
    };
    Ok((result, delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    fn grid() -> CsrGraph {
        CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap()
    }

    #[test]
    fn parse_round_trips_every_name_and_alias() {
        for imp in Implementation::ALL {
            assert_eq!(Implementation::parse(imp.name()), Some(imp));
        }
        assert_eq!(Implementation::parse("delta"), Some(Implementation::Canonical));
        // The stepping loop's names are kernels, not figure variants, and
        // names of deleted implementations are unknown like any other.
        for other in ["fused", "improved", "parallel-improved", "atomic", "dijkstra"] {
            assert_eq!(Implementation::parse(other), None, "{other}");
        }
    }

    #[test]
    fn all_implementations_agree_with_dijkstra() {
        let g = grid();
        let dj = dijkstra(&g, 0);
        let pool = ThreadPool::with_threads(2).unwrap();
        for imp in Implementation::ALL {
            let (result, delta) =
                run_checked(imp, &g, 0, 1.0, Some(&pool), &GuardConfig::default()).unwrap();
            assert_eq!(result.dist, dj.dist, "{}", imp.name());
            assert_eq!(delta, 1.0);
        }
    }

    /// The bad-input half of the deleted per-variant `checked_*` tests,
    /// now one row per figure variant.
    #[test]
    fn every_implementation_rejects_every_bad_input() {
        let g = grid();
        let nan_graph =
            CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![f64::NAN]);
        let neg_graph =
            CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![-1.0]);
        let zero_graph =
            CsrGraph::from_edge_list(&EdgeList::from_triples(vec![(0, 1, 0.0)])).unwrap();
        let pool = ThreadPool::with_threads(2).unwrap();
        let cfg = GuardConfig::default();
        for imp in Implementation::ALL {
            let run = |g: &CsrGraph, source: usize, delta: f64| {
                run_checked(imp, g, source, delta, Some(&pool), &cfg)
            };
            assert!(matches!(run(&nan_graph, 0, 1.0), Err(SsspError::NonFiniteWeight { .. })));
            assert!(matches!(run(&neg_graph, 0, 1.0), Err(SsspError::NegativeWeight { .. })));
            assert!(matches!(run(&g, 999, 1.0), Err(SsspError::SourceOutOfBounds { .. })));
            for bad_delta in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                assert!(
                    matches!(run(&g, 0, bad_delta), Err(SsspError::InvalidDelta { .. })),
                    "{} delta {bad_delta}",
                    imp.name()
                );
            }
            // Only the Fig. 2 value mask cannot carry a stored zero.
            let zero = run(&zero_graph, 0, 1.0);
            if imp == Implementation::Gblas {
                assert!(matches!(zero, Err(SsspError::ZeroWeightUnsupported { .. })));
            } else {
                assert_eq!(zero.unwrap().0.dist, vec![0.0, 0.0], "{}", imp.name());
            }
        }
    }

    #[test]
    fn a_delta_past_exact_bucket_indices_is_rejected_before_the_run() {
        let g = CsrGraph::from_edge_list(&path(6)).unwrap();
        let cfg = GuardConfig::default();
        for imp in Implementation::ALL {
            match run_checked(imp, &g, 0, 1e-300, None, &cfg) {
                Err(SsspError::IterationLimitExceeded { ticks: 0, limit, checkpoint: None }) => {
                    assert_eq!(limit, MAX_BUCKET_INDEX, "{}", imp.name());
                }
                other => panic!("{}: expected the bucket-index check, got {other:?}", imp.name()),
            }
        }
        // 5 / 1e-12 buckets is well inside the exact range: the variants
        // that skip empty buckets answer exactly (Fig. 2 would visit all
        // of them).
        let dj = dijkstra(&g, 0);
        for imp in [Implementation::Canonical, Implementation::GblasSelect, Implementation::Parallel]
        {
            let (result, _) = run_checked(imp, &g, 0, 1e-12, None, &cfg).unwrap();
            assert_eq!(result.dist, dj.dist, "{}", imp.name());
        }
    }

    #[test]
    fn delta_fallback_rescues_degenerate_delta() {
        let g = grid();
        let cfg = GuardConfig {
            delta_fallback: true,
            ..GuardConfig::default()
        };
        let (result, delta) =
            run_checked(Implementation::Canonical, &g, 0, f64::NAN, None, &cfg).unwrap();
        assert!(delta.is_finite() && delta > 0.0);
        assert_eq!(result.dist, dijkstra(&g, 0).dist);
    }

    /// Figure code never degrades: a worker panic in the task-parallel
    /// scheme reaches the caller.
    #[test]
    fn a_worker_panic_in_a_figure_variant_propagates() {
        let g = grid();
        let _session = taskpool::fault::TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        taskpool::fault::arm_panic_after(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_checked(Implementation::Parallel, &g, 0, 1.0, Some(&pool), &GuardConfig::default())
        }));
        taskpool::fault::disarm();
        assert!(outcome.is_err(), "the injected panic must propagate");
    }
}
