//! Chaos suite: deterministic fault injection at every boundary.
//!
//! Three properties, exercised exhaustively rather than sampled:
//!
//! 1. **Cancellation at every epoch boundary** — for each of the five
//!    implementations, and for every stepping strategy on the pooled
//!    loop, cancel at epoch `k` for *every* `k` the full run passes
//!    through. The checkpoint must validate, and every distance
//!    it certifies (below `settled_below`) must bit-match the
//!    uninterrupted run.
//! 2. **Resume always reconverges** — every resumable checkpoint,
//!    continued on both kernels of the one loop (pool-less and pooled),
//!    must land on bit-identical distances *and* stats versus the
//!    uninterrupted run.
//! 3. **Panic injection at every task boundary** — for the parallel
//!    implementations, arm the taskpool fault hook at task `j` for a
//!    sweep of `j` and demand the degraded run still produces exact
//!    distances.
//!
//! The worker-pool size is taken from `CHAOS_THREADS` (default 2) so CI
//! can sweep 1/2/4 without recompiling.

use graphdata::gen::grid2d;
use graphdata::CsrGraph;
use sssp_core::engine::SsspEngine;
use sssp_core::{
    dijkstra::dijkstra, run_checked, run_with_budget, GuardConfig, Implementation, RunBudget,
    SsspError, SsspResult, SteppingStrategy,
};
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

fn pool_threads() -> usize {
    std::env::var("CHAOS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(2)
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

fn chaos_graph() -> CsrGraph {
    CsrGraph::from_edge_list(&grid2d(10, 10)).unwrap()
}

/// Weighted graph with several buckets' worth of work and no zero
/// weights (so the gblas implementation can run it too).
fn weighted_chaos_graph() -> CsrGraph {
    let mut el = graphdata::gen::gnm(150, 900, 11);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        5,
    );
    CsrGraph::from_edge_list(&el).unwrap()
}

/// What the cancel-at-every-epoch loop drives: one of the front-door
/// implementations, or a strategy on the engine's pooled loop.
#[derive(Clone, Copy)]
enum Subject {
    Impl(Implementation),
    Strategy(SteppingStrategy),
}

impl Subject {
    fn name(self) -> String {
        match self {
            Subject::Impl(imp) => imp.name().to_string(),
            Subject::Strategy(strategy) => format!("stepping {strategy}"),
        }
    }

    fn run(
        self,
        g: &CsrGraph,
        src: usize,
        delta: f64,
        pool: &ThreadPool,
        budget: &mut RunBudget,
    ) -> Result<SsspResult, SsspError> {
        match self {
            Subject::Impl(imp) => {
                run_with_budget(imp, g, src, delta, Some(pool), &GuardConfig::default(), budget)
                    .map(|report| report.result)
            }
            Subject::Strategy(strategy) => SsspEngine::new(g)
                .run_stepping(Some(pool), src, delta, strategy, budget)
                .map(|(result, _)| result),
        }
    }
}

fn cancel_everywhere(g: &CsrGraph, src: usize, delta: f64) {
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let subjects = Implementation::ALL.into_iter().map(Subject::Impl).chain(
        [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(16),
            SteppingStrategy::DeltaStar(2.0),
        ]
        .into_iter()
        .map(Subject::Strategy),
    );
    for subject in subjects {
        let name = subject.name();
        let mut counting = RunBudget::unlimited();
        let reference = subject.run(g, src, delta, &pool, &mut counting).expect("valid input");
        let epochs = counting.ticks();
        assert!(epochs > 2, "{name}: too few epochs to be interesting");
        let mut engine = SsspEngine::new(g);
        for k in 0..epochs {
            let mut budget = RunBudget::unlimited().cancel_after(k);
            let err = subject
                .run(g, src, delta, &pool, &mut budget)
                .expect_err("cancel_after inside the run must stop it");
            let cp = match err {
                SsspError::Cancelled { checkpoint } => *checkpoint,
                other => panic!("{name} epoch {k}: expected Cancelled, got {other}"),
            };
            cp.validate(g.num_vertices()).expect("checkpoint must validate");
            // Property 1: everything the checkpoint certifies is final.
            for (v, d) in cp.settled_distances() {
                assert_eq!(
                    d.to_bits(),
                    reference.dist[v].to_bits(),
                    "{name} epoch {k}: certified distance of vertex {v} is not final"
                );
            }
            // Property 2: resumable checkpoints reconverge bit-identically
            // on both kernels.
            if cp.resumable {
                for resume_on in [None, Some(&pool)] {
                    let (resumed, _) = engine
                        .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                        .expect("resume must reconverge");
                    let label = format!("{name} epoch {k}, pooled resume={}", resume_on.is_some());
                    assert_eq!(bits(&resumed.dist), bits(&reference.dist), "{label}");
                    assert_eq!(resumed.stats, reference.stats, "{label}");
                }
            } else {
                assert!(
                    matches!(
                        subject,
                        Subject::Impl(Implementation::Canonical | Implementation::Gblas)
                    ),
                    "{name}: only canonical/gblas may be non-resumable"
                );
            }
        }
    }
}

#[test]
fn cancellation_at_every_epoch_is_certified_and_resumable_unit_weights() {
    let g = chaos_graph();
    cancel_everywhere(&g, 0, 1.0);
}

#[test]
fn cancellation_at_every_epoch_is_certified_and_resumable_real_weights() {
    let g = weighted_chaos_graph();
    cancel_everywhere(&g, 1, 0.5);
}

#[test]
fn panic_injection_at_every_task_boundary_degrades_to_exact_distances() {
    // The fault hook fires on this session's pool only, so the rest of
    // the suite runs next to it untouched.
    let _session = TestSession::begin();
    let g = chaos_graph();
    let reference = dijkstra(&g, 0);
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default();
    for imp in [Implementation::Parallel, Implementation::ParallelImproved] {
        // Sweep the injection point across the first 24 spawned tasks;
        // beyond the run's task count the hook simply never fires.
        for j in 0..24 {
            taskpool::fault::arm_panic_after(j);
            let outcome = run_checked(imp, &g, 0, 1.0, Some(&pool), &cfg);
            taskpool::fault::disarm();
            let report = outcome.unwrap_or_else(|e| {
                panic!("{} with fault at task {j}: degradation failed: {e}", imp.name())
            });
            assert_eq!(
                bits(&report.result.dist),
                bits(&reference.dist),
                "{} with fault at task {j}: degraded distances diverged",
                imp.name()
            );
        }
    }
}

/// Property 2, through disk and across "processes": a run killed at an
/// epoch boundary serializes its checkpoint; a fresh engine (standing in
/// for a fresh process) reloads it and is killed again mid-resume; a
/// third engine reloads *that* and runs to completion. The final
/// distances and stats must bit-match the uninterrupted run on both
/// resume kernels, at whatever pool size `CHAOS_THREADS` selects (CI
/// sweeps 1/2/4).
#[test]
fn checkpoint_survives_kill_reload_resume_cycles_through_disk() {
    let g = weighted_chaos_graph();
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default();
    let (src, delta) = (1usize, 0.5);
    let reference =
        run_checked(Implementation::ParallelImproved, &g, src, delta, Some(&pool), &cfg)
            .expect("valid input")
            .result;
    let dir = std::env::temp_dir().join(format!(
        "sssp-chaos-ckpt-{}-t{}",
        std::process::id(),
        pool_threads()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cycle.bin");

    for first_kill in [1u64, 3, 7] {
        for parallel_resume in [false, true] {
            // "Process 1": killed at epoch `first_kill`, saves, dies.
            let mut budget = RunBudget::unlimited().cancel_after(first_kill);
            let err = run_with_budget(
                Implementation::ParallelImproved,
                &g,
                src,
                delta,
                Some(&pool),
                &cfg,
                &mut budget,
            )
            .expect_err("cancel inside the run must stop it");
            let cp = err.into_checkpoint().expect("budget stop carries a checkpoint");
            assert!(cp.resumable);
            SsspEngine::new(&g).save_checkpoint(&cp, &path).unwrap();

            // "Process 2": reloads, gets killed again mid-resume (or
            // finishes, if little work remained).
            let mut engine = SsspEngine::new(&g);
            let cp = engine.load_checkpoint(&path).unwrap();
            let mut budget = RunBudget::unlimited().cancel_after(2);
            let resume_on = parallel_resume.then_some(&pool);
            let second = engine.resume_stepping(resume_on, &cp, &mut budget);
            let result = match second {
                Ok((result, _)) => result,
                Err(err) => {
                    let cp = err.into_checkpoint().expect("mid-resume stop carries a checkpoint");
                    engine.save_checkpoint(&cp, &path).unwrap();
                    // "Process 3": reloads the twice-interrupted state
                    // and runs to completion.
                    let mut engine = SsspEngine::new(&g);
                    let cp = engine.load_checkpoint(&path).unwrap();
                    let (result, _) = engine
                        .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                        .expect("final resume must reconverge");
                    result
                }
            };
            let label = format!(
                "kill at {first_kill}, parallel_resume={parallel_resume}, threads={}",
                pool_threads()
            );
            assert_eq!(bits(&result.dist), bits(&reference.dist), "{label}");
            assert_eq!(result.stats, reference.stats, "{label}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_then_budget_stop_still_yields_a_certified_checkpoint() {
    // The degraded sequential retry runs under the job's surviving
    // budget: inject a panic AND cancel, and the partial result must
    // still come back certified (not lost to the panic path).
    let _session = TestSession::begin();
    let g = chaos_graph();
    let full = dijkstra(&g, 0);
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let cfg = GuardConfig::default();
    let token = sssp_core::CancelToken::new();
    token.cancel();
    let mut budget = RunBudget::for_run(&g, 1.0, &cfg).with_cancel(token);
    taskpool::fault::arm_panic_after(0);
    let err = run_with_budget(
        Implementation::ParallelImproved,
        &g,
        0,
        1.0,
        Some(&pool),
        &cfg,
        &mut budget,
    )
    .expect_err("pre-cancelled token must stop the run");
    let cp = err.into_checkpoint().expect("budget stop carries a checkpoint");
    for (v, d) in cp.settled_distances() {
        assert_eq!(d.to_bits(), full.dist[v].to_bits(), "vertex {v}");
    }
}
