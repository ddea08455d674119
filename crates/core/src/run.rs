//! The checked single-run front door: one entry point wrapping the five
//! paper artifacts ([`Implementation`]) with preflight validation, a run
//! budget (epoch limit + deadline + cancellation), and panic-isolating
//! graceful degradation. `fused` and `improved` are
//! [`crate::stepping::stepping_checked`] without and with a pool; the
//! other three are the paper-reproduction loops. This is the library/CLI
//! door for *one* run of *any* of the five — batches and the resident
//! service take `{strategy, kernels}` jobs through [`crate::batch`] and
//! never come here.
//!
//! [`run_checked`] never panics and never hangs on the inputs the
//! robustness test-suite throws at it: NaN or negative weights,
//! out-of-range sources and degenerate Δ come back as [`SsspError`]
//! values, and the two pooled implementations run through the batch
//! layer's degradation ladder, so a worker panic becomes a successful run
//! on classic sequential stepping, reported in [`RunReport::degraded`]
//! (or [`SsspError::WorkerPanicked`] if that panics too).
//! [`run_with_budget`] is the same door with a caller-supplied
//! [`RunBudget`], so deadlines and cancellation tokens reach every
//! epoch boundary; when the budget stops a run mid-flight the error
//! carries a [`crate::checkpoint::Checkpoint`] with the partial result.

use std::str::FromStr;

use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::batch::{ladder, JobOutcome, Kernels};
use crate::budget::RunBudget;
use crate::guard::{preflight, reject_zero_weights, GuardConfig, SsspError};
use crate::result::SsspResult;
use crate::stepping::{stepping_checked, SteppingStrategy};
use crate::repro::{canonical, gblas_impl, parallel};

/// The five guarded delta-stepping implementations. `Fused` and
/// `ParallelImproved` are the sequential and pooled classic front doors
/// of the one stepping loop ([`crate::stepping`]); the other three are
/// the paper-reproduction variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// Meyer–Sanders with explicit buckets ([`crate::repro::canonical`]).
    Canonical,
    /// The fused direct implementation ([`crate::fused`]): the stepping
    /// loop, classic strategy, sequential kernels.
    Fused,
    /// The unfused GraphBLAS implementation ([`crate::repro::gblas_impl`]).
    Gblas,
    /// The paper's task-parallel scheme ([`crate::repro::parallel`]).
    Parallel,
    /// The improved parallel scheme on contention-free request buffers
    /// ([`crate::reqbuf`]): the stepping loop, classic strategy, pooled
    /// kernels.
    ParallelImproved,
}

impl Implementation {
    /// All guarded implementations, for exhaustive test sweeps.
    pub const ALL: [Implementation; 5] = [
        Implementation::Canonical,
        Implementation::Fused,
        Implementation::Gblas,
        Implementation::Parallel,
        Implementation::ParallelImproved,
    ];

    /// Parse a CLI-style name. `"delta"` is an alias for the canonical
    /// vertex/edge formulation. This is the single source of truth for
    /// implementation names: the CLI and the bench harness both go
    /// through it (via [`FromStr`]), so a name accepted by one is
    /// accepted by the other.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "delta" | "canonical" => Some(Implementation::Canonical),
            "fused" => Some(Implementation::Fused),
            "gblas" => Some(Implementation::Gblas),
            "parallel" => Some(Implementation::Parallel),
            "improved" | "parallel-improved" => Some(Implementation::ParallelImproved),
            _ => None,
        }
    }

    /// Canonical display name. `parse(name())` round-trips for every
    /// variant.
    pub fn name(self) -> &'static str {
        match self {
            Implementation::Canonical => "canonical",
            Implementation::Fused => "fused",
            Implementation::Gblas => "gblas",
            Implementation::Parallel => "parallel",
            Implementation::ParallelImproved => "improved",
        }
    }

    /// Whether this implementation runs tasks on a [`ThreadPool`].
    pub fn is_parallel(self) -> bool {
        matches!(self, Implementation::Parallel | Implementation::ParallelImproved)
    }
}

/// The error type of [`Implementation::from_str`]: the rejected name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownImplementation {
    /// The name that failed to parse.
    pub name: String,
}

impl std::fmt::Display for UnknownImplementation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown implementation '{}' (expected one of: delta, canonical, fused, gblas, \
             parallel, improved, parallel-improved)",
            self.name
        )
    }
}

impl std::error::Error for UnknownImplementation {}

impl FromStr for Implementation {
    type Err = UnknownImplementation;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Implementation::parse(s).ok_or_else(|| UnknownImplementation { name: s.to_string() })
    }
}

/// Outcome of a successful [`run_checked`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Distances and counters.
    pub result: SsspResult,
    /// The Δ actually used (differs from the request when
    /// [`GuardConfig::delta_fallback`] replaced a degenerate value).
    pub delta: f64,
    /// The implementation requested.
    pub implementation: Implementation,
    /// `Some(panic message)` when a worker panicked and the run was
    /// completed on classic sequential stepping instead.
    pub degraded: Option<String>,
}

/// Run `implementation` on `g` from `source` with bucket width `delta`,
/// behind the full hardened execution layer:
///
/// 1. [`preflight`] validates weights, source, and Δ (deriving a
///    fallback Δ when configured);
/// 2. a [`RunBudget`] sized by [`RunBudget::for_run`] bounds bucket
///    epochs and light-relaxation rounds;
/// 3. the two pooled implementations run on the batch layer's
///    degradation ladder, so a panicking worker task becomes a re-run on
///    classic sequential stepping, or [`SsspError::WorkerPanicked`] if
///    the re-run panics too.
///
/// `pool` is used only by the parallel implementations; `None` selects
/// the process-global pool.
pub fn run_checked(
    implementation: Implementation,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    pool: Option<&ThreadPool>,
    cfg: &GuardConfig,
) -> Result<RunReport, SsspError> {
    let mut budget = RunBudget::for_run(g, delta, cfg);
    run_with_budget(implementation, g, source, delta, pool, cfg, &mut budget)
}

/// [`run_checked`] with a caller-supplied [`RunBudget`], so deadlines
/// and [`crate::budget::CancelToken`]s reach every bucket-epoch and
/// light-phase boundary of every implementation.
///
/// When the budget stops the run, the returned [`SsspError`] carries a
/// [`crate::checkpoint::Checkpoint`] with the partial distances and a
/// `settled_below` certificate; resumable checkpoints (fused, parallel,
/// improved) can be continued via
/// [`crate::engine::SsspEngine::resume_stepping`].
///
/// On a worker panic the sequential retry runs under
/// [`RunBudget::retry_budget`]: epoch ticks reset (the fallback gets a
/// fresh epoch allowance) but the deadline and cancellation token carry
/// over — a deadline is an SLO on the whole job, not per attempt.
#[allow(clippy::too_many_arguments)]
pub fn run_with_budget(
    implementation: Implementation,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    pool: Option<&ThreadPool>,
    cfg: &GuardConfig,
    budget: &mut RunBudget,
) -> Result<RunReport, SsspError> {
    let delta = preflight(g, source, delta, cfg)?;
    let report = |result: SsspResult| RunReport {
        result,
        delta,
        implementation,
        degraded: None,
    };
    match implementation {
        Implementation::Canonical => {
            canonical::delta_stepping_canonical_checked(g, source, delta, budget).map(report)
        }
        Implementation::Fused => {
            stepping_checked(g, source, delta, SteppingStrategy::Classic, None, budget)
                .map(|(result, _)| report(result))
        }
        Implementation::Gblas => {
            reject_zero_weights(g, "gblas")?;
            gblas_impl::delta_stepping_gblas_checked(g, source, delta, budget).map(report)
        }
        Implementation::Parallel | Implementation::ParallelImproved => {
            let pool = match pool {
                Some(p) => p,
                None => taskpool::global(),
            };
            match pooled_ladder(implementation, g, source, delta, pool, cfg, budget) {
                JobOutcome::Complete { result, degraded, .. } => {
                    Ok(RunReport { result, delta, implementation, degraded })
                }
                JobOutcome::Partial { stop: error, .. } | JobOutcome::Failed { error } => {
                    Err(error)
                }
            }
        }
    }
}

/// The pooled arms on the degradation ladder: rung 1 is `implementation`
/// on `pool` — the paper's task-parallel scheme or the loop's pooled
/// kernels — and rung 2 is classic sequential stepping.
fn pooled_ladder(
    implementation: Implementation,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    pool: &ThreadPool,
    cfg: &GuardConfig,
    budget: &mut RunBudget,
) -> JobOutcome {
    ladder(
        Kernels::Pooled,
        Some(pool),
        None,
        budget,
        |budget| budget.retry_budget(g, delta, cfg),
        |pool, budget| {
            let (result, _) = match (implementation, pool) {
                (Implementation::Parallel, Some(pool)) => {
                    parallel::delta_stepping_parallel_checked(pool, g, source, delta, budget)?
                }
                (_, pool) => {
                    stepping_checked(g, source, delta, SteppingStrategy::Classic, pool, budget)?
                }
            };
            Ok((result, delta))
        },
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use graphdata::gen::grid2d;

    fn grid() -> CsrGraph {
        CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap()
    }

    #[test]
    fn parse_names() {
        assert_eq!(Implementation::parse("delta"), Some(Implementation::Canonical));
        assert_eq!(Implementation::parse("canonical"), Some(Implementation::Canonical));
        assert_eq!(Implementation::parse("improved"), Some(Implementation::ParallelImproved));
        assert_eq!(Implementation::parse("dijkstra"), None);
        for imp in Implementation::ALL {
            assert_eq!(Implementation::parse(imp.name()), Some(imp));
        }
    }

    #[test]
    fn from_str_round_trips_every_name_and_alias() {
        // The canonical name of every implementation round-trips.
        for imp in Implementation::ALL {
            assert_eq!(imp.name().parse::<Implementation>(), Ok(imp), "{}", imp.name());
        }
        // Every documented alias resolves, and FromStr agrees with
        // parse() on all of them (the CLI and bench share this path).
        for alias in [
            "delta",
            "canonical",
            "fused",
            "gblas",
            "parallel",
            "improved",
            "parallel-improved",
        ] {
            let via_parse = Implementation::parse(alias);
            let via_from_str = alias.parse::<Implementation>().ok();
            assert_eq!(via_parse, via_from_str, "{alias}");
            assert!(via_parse.is_some(), "{alias} must be accepted");
        }
        let err = "dijkstra".parse::<Implementation>().unwrap_err();
        assert!(err.to_string().contains("dijkstra"));
        assert!(err.to_string().contains("parallel-improved"));
        // Names of deleted implementations are unknown like any other.
        for gone in ["atomic", "improved-atomic"] {
            assert_eq!(Implementation::parse(gone), None, "{gone}");
            assert!(gone.parse::<Implementation>().is_err(), "{gone}");
        }
    }

    #[test]
    fn all_implementations_agree_with_dijkstra() {
        let g = grid();
        let dj = dijkstra(&g, 0);
        let pool = ThreadPool::with_threads(2).unwrap();
        for imp in Implementation::ALL {
            let report =
                run_checked(imp, &g, 0, 1.0, Some(&pool), &GuardConfig::default()).unwrap();
            assert_eq!(report.result.dist, dj.dist, "{}", imp.name());
            assert!(report.degraded.is_none());
            assert_eq!(report.delta, 1.0);
        }
    }

    #[test]
    fn every_implementation_rejects_every_bad_input() {
        let g = grid();
        let nan_graph =
            CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![f64::NAN]);
        let neg_graph =
            CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![-1.0]);
        let pool = ThreadPool::with_threads(2).unwrap();
        let cfg = GuardConfig::default();
        for imp in Implementation::ALL {
            assert!(matches!(
                run_checked(imp, &nan_graph, 0, 1.0, Some(&pool), &cfg),
                Err(SsspError::NonFiniteWeight { .. })
            ));
            assert!(matches!(
                run_checked(imp, &neg_graph, 0, 1.0, Some(&pool), &cfg),
                Err(SsspError::NegativeWeight { .. })
            ));
            assert!(matches!(
                run_checked(imp, &g, 999, 1.0, Some(&pool), &cfg),
                Err(SsspError::SourceOutOfBounds { .. })
            ));
            for bad_delta in [0.0, f64::NAN, f64::INFINITY] {
                assert!(matches!(
                    run_checked(imp, &g, 0, bad_delta, Some(&pool), &cfg),
                    Err(SsspError::InvalidDelta { .. })
                ));
            }
        }
    }

    #[test]
    fn delta_fallback_rescues_degenerate_delta() {
        let g = grid();
        let cfg = GuardConfig {
            delta_fallback: true,
            ..GuardConfig::default()
        };
        let report = run_checked(Implementation::Fused, &g, 0, f64::NAN, None, &cfg).unwrap();
        assert!(report.delta.is_finite() && report.delta > 0.0);
        assert_eq!(report.result.dist, dijkstra(&g, 0).dist);
    }

    #[test]
    fn watchdog_cap_surfaces_as_error() {
        let g = CsrGraph::from_edge_list(&graphdata::gen::path(64)).unwrap();
        let cfg = GuardConfig {
            max_ticks: 4,
            ..GuardConfig::default()
        };
        for imp in Implementation::ALL {
            assert!(
                matches!(
                    run_checked(imp, &g, 0, 1.0, None, &cfg),
                    Err(SsspError::IterationLimitExceeded { .. })
                ),
                "{}",
                imp.name()
            );
        }
    }

    #[test]
    fn cancellation_surfaces_a_checkpoint_from_every_implementation() {
        let g = CsrGraph::from_edge_list(&graphdata::gen::path(32)).unwrap();
        let pool = ThreadPool::with_threads(2).unwrap();
        let cfg = GuardConfig::default();
        for imp in Implementation::ALL {
            let mut budget = RunBudget::for_run(&g, 1.0, &cfg).cancel_after(3);
            let err = run_with_budget(imp, &g, 0, 1.0, Some(&pool), &cfg, &mut budget)
                .expect_err("cancel_after(3) must stop a 31-epoch run");
            let cp = match &err {
                SsspError::Cancelled { checkpoint } => checkpoint,
                other => panic!("{}: expected Cancelled, got {other:?}", imp.name()),
            };
            let expected_tag = match imp {
                Implementation::Canonical => "canonical",
                Implementation::Gblas => "gblas",
                Implementation::Parallel => "parallel",
                // Both front doors of the one loop.
                Implementation::Fused | Implementation::ParallelImproved => "stepping",
            };
            assert_eq!(cp.implementation, expected_tag);
            assert!(cp.settled_below() >= 0.0, "{}", imp.name());
            cp.validate(g.num_vertices())
                .expect("checkpoint must be well-formed");
        }
    }

    #[test]
    fn deadline_in_the_past_stops_immediately_with_checkpoint() {
        let g = grid();
        let cfg = GuardConfig::default();
        let mut budget = RunBudget::for_run(&g, 1.0, &cfg)
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = run_with_budget(Implementation::Fused, &g, 0, 1.0, None, &cfg, &mut budget)
            .expect_err("expired deadline must stop the run");
        match err {
            SsspError::DeadlineExceeded { checkpoint } => {
                assert_eq!(checkpoint.settled_count(), 0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn injected_worker_panic_degrades_to_certified_sequential_run() {
        let g = grid();
        let _session = taskpool::fault::TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        let cfg = GuardConfig::default();
        taskpool::fault::arm_panic_after(0);
        let report =
            run_checked(Implementation::ParallelImproved, &g, 0, 1.0, Some(&pool), &cfg)
                .expect("degradation must rescue the run");
        let message = report.degraded.expect("run must be marked degraded");
        assert!(message.contains(taskpool::fault::INJECTED_PANIC_MESSAGE));
        // The fallback distances are not just plausible — they carry the
        // full SSSP optimality certificate and match Dijkstra.
        crate::validate::check_certificate(&g, &report.result, 1e-12)
            .expect("degraded result must still be optimal");
        assert_eq!(report.result.dist, dijkstra(&g, 0).dist);
    }

    /// The repro `parallel` row of
    /// `batch::tests::ladder_degrades_fresh_and_resumed_jobs_alike` (only
    /// this module may name `repro`), next to the loop's pooled kernels:
    /// a pool panic on rung 1 lands on classic sequential stepping — its
    /// stats, not just Dijkstra's distances — marked as a panic.
    #[test]
    fn pooled_arms_degrade_to_classic_sequential_through_the_ladder() {
        let g = grid();
        let cfg = GuardConfig::default();
        let sequential = stepping_checked(
            &g,
            0,
            1.0,
            SteppingStrategy::Classic,
            None,
            &mut RunBudget::unlimited(),
        )
        .unwrap()
        .0;
        let _session = taskpool::fault::TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        for imp in [Implementation::Parallel, Implementation::ParallelImproved] {
            taskpool::fault::arm_panic_after(0);
            let mut budget = RunBudget::for_run(&g, 1.0, &cfg);
            let outcome = pooled_ladder(imp, &g, 0, 1.0, &pool, &cfg, &mut budget);
            taskpool::fault::disarm();
            let JobOutcome::Complete { result, degraded, degraded_by_panic, .. } = outcome else {
                panic!("{}: expected a degraded completion, got {outcome:?}", imp.name());
            };
            assert!(degraded_by_panic, "{}", imp.name());
            let why = degraded.expect("rung 2 says why");
            assert!(why.starts_with(taskpool::fault::INJECTED_PANIC_MESSAGE), "{why}");
            assert_eq!(result.dist, sequential.dist, "{}", imp.name());
            assert_eq!(result.stats, sequential.stats, "{}", imp.name());
        }
    }

    #[test]
    fn degraded_retry_inherits_cancellation_not_ticks() {
        // A cancelled token must stop the sequential retry too: the
        // deadline/token are an SLO on the whole job, not per attempt.
        let g = grid();
        let _session = taskpool::fault::TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        let cfg = GuardConfig::default();
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let mut budget = RunBudget::for_run(&g, 1.0, &cfg).with_cancel(token);
        taskpool::fault::arm_panic_after(0);
        let outcome = run_with_budget(
            Implementation::ParallelImproved,
            &g,
            0,
            1.0,
            Some(&pool),
            &cfg,
            &mut budget,
        );
        // The run stops with Cancelled — either before the panic fires
        // or on the retry path; both prove the token reached the loop.
        assert!(
            matches!(outcome, Err(SsspError::Cancelled { .. })),
            "got {outcome:?}"
        );
    }
}
