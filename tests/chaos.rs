//! Chaos suite: deterministic fault injection at every boundary of the
//! stepping door — the one loop every batched, served or single-source
//! `fused` / `improved` run executes.
//!
//! Four properties, exercised exhaustively rather than sampled:
//!
//! 1. **Cancellation at every epoch boundary** — every strategy, cut at
//!    every epoch its run passes through, pool-less and pooled: the
//!    checkpoint validates, everything it certifies is final, and it
//!    resumes on both kernels to the uninterrupted bits and stats. These
//!    two tests run a part of the differential harness
//!    (`tests/differential/`), on the unit grid and on real weights, and
//!    cut on 1-, 2- and 4-thread pools whatever `CHAOS_THREADS` says.
//! 2. **Panic injection at every task boundary** — for every strategy on
//!    the pooled kernels, arm the taskpool fault hook at task `j` for a
//!    sweep of `j`, run the job through `batch::run_job`, and demand the
//!    degraded run still produces exact distances.
//! 3. **Kill, reload, resume** — a checkpoint survives being saved by one
//!    "process", reloaded and cut again by a second and resumed from its
//!    directory by a third, bit-identical to the uninterrupted job.
//! 4. **A panic then a budget stop** still yields a certified checkpoint.
//!
//! The other tests take their worker-pool size from `CHAOS_THREADS`
//! (default 2) so CI can sweep 1/2/4 without recompiling.

mod differential;

use std::sync::Arc;

use differential::{Group::*, Part::EveryCut};
use graphdata::gen::grid2d;
use graphdata::CsrGraph;
use sssp_core::batch::{run_job, Job, JobOutcome, ManifestState};
use sssp_core::engine::SsspEngine;
use sssp_core::{
    dijkstra::dijkstra, BatchRunner, CancelToken, GuardConfig, Kernels, RunBudget, SsspError,
    SsspResult, SteppingStrategy,
};
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

#[test]
fn cancellation_at_every_epoch_is_certified_and_resumable_unit_weights() {
    differential::run(&[Grid], &[EveryCut]);
}

#[test]
fn cancellation_at_every_epoch_is_certified_and_resumable_real_weights() {
    differential::run(&[Layout, Hostile, Symmetric, Twin], &[EveryCut]);
}

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

/// Weighted graph with several buckets' worth of work.
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

const STRATEGIES: [SteppingStrategy; 3] = [
    SteppingStrategy::Classic,
    SteppingStrategy::Rho(16),
    SteppingStrategy::DeltaStar(2.0),
];

/// One job on the stepping door: `source` on `kernels` with `strategy`.
fn job<'a>(
    source: usize,
    kernels: Kernels,
    delta: f64,
    strategy: SteppingStrategy,
    guard: &'a GuardConfig,
    cancel: Option<&'a CancelToken>,
) -> Job<'a> {
    Job { source, kernels, delta, strategy, guard, deadline: None, cancel, progress: None }
}

fn complete(outcome: JobOutcome, label: &str) -> SsspResult {
    match outcome {
        JobOutcome::Complete { result, .. } => result,
        other => panic!("{label}: expected a completed job, got {other:?}"),
    }
}

#[test]
fn panic_injection_at_every_task_boundary_degrades_to_exact_distances() {
    // The hook fires on this session's pools only, so the rest of the
    // suite runs next to it untouched; a session's pool runs even this
    // small grid's pooled relaxations as tasks, at every pool width, so
    // the hook has tasks to fire in.
    let _session = TestSession::begin();
    let g = chaos_graph();
    let reference = dijkstra(&g, 0);
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let guard = GuardConfig::default();
    for strategy in STRATEGIES {
        // Sweep the injection point across the first 24 spawned tasks;
        // beyond the run's task count the hook simply never fires, so the
        // points that degrade are a non-empty prefix of the sweep.
        let mut fired = Vec::new();
        for j in 0..24 {
            let label = format!("{strategy} with fault at task {j}");
            taskpool::fault::arm_panic_after(j);
            let outcome = run_job(
                &mut SsspEngine::new(&g),
                Some(&pool),
                None,
                &job(0, Kernels::Pooled, 1.0, strategy, &guard, None),
                None,
            );
            taskpool::fault::disarm();
            let JobOutcome::Complete { result, degraded_by_panic, .. } = outcome else {
                panic!("{label}: expected a completed job, got {outcome:?}");
            };
            fired.push(degraded_by_panic);
            assert_eq!(
                bits(&result.dist),
                bits(&reference.dist),
                "{label}: degraded distances diverged"
            );
        }
        let degraded = fired.iter().take_while(|&&f| f).count();
        assert!(degraded > 0, "{strategy}: the fault at task 0 never fired: {fired:?}");
        assert!(
            fired[degraded..].iter().all(|&f| !f),
            "{strategy}: the degraded points are not a prefix of the sweep: {fired:?}"
        );
    }
}

/// Property 2, through disk and across "processes": a run killed at an
/// epoch boundary serializes its checkpoint; a fresh engine (standing in
/// for a fresh process) reloads it and is killed again mid-resume; a
/// third process runs the job through the stepping door, which resumes
/// it from the directory. The final distances and stats must bit-match
/// the uninterrupted job on both resume kernels, at whatever pool size
/// `CHAOS_THREADS` selects (CI sweeps 1/2/4).
#[test]
fn checkpoint_survives_kill_reload_resume_cycles_through_disk() {
    let g = weighted_chaos_graph();
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let guard = GuardConfig::default();
    let (src, delta, classic) = (1usize, 0.5, SteppingStrategy::Classic);
    let pooled = job(src, Kernels::Pooled, delta, classic, &guard, None);
    let reference =
        complete(run_job(&mut SsspEngine::new(&g), Some(&pool), None, &pooled, None), "reference");
    let dir = std::env::temp_dir().join(format!(
        "sssp-chaos-ckpt-{}-t{}",
        std::process::id(),
        pool_threads()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = BatchRunner::checkpoint_path(&dir, src);

    for first_kill in [1u64, 3, 7] {
        for parallel_resume in [false, true] {
            let label = format!(
                "kill at {first_kill}, parallel_resume={parallel_resume}, threads={}",
                pool_threads()
            );
            // "Process 1": killed at epoch `first_kill`, saves, dies.
            let mut engine = SsspEngine::new(&g);
            let err = engine
                .run_stepping(
                    Some(&pool),
                    src,
                    delta,
                    classic,
                    &mut RunBudget::unlimited().cancel_after(first_kill),
                )
                .expect_err("cancel inside the run must stop it");
            let cp = err.into_checkpoint().expect("budget stop carries a checkpoint");
            assert!(cp.resumable);
            engine.save_checkpoint(&cp, &path).unwrap();

            // "Process 2": reloads, gets killed again mid-resume (or
            // finishes, if little work remained).
            let mut engine = SsspEngine::new(&g);
            let cp = engine.load_checkpoint(&path).unwrap();
            let resume_on = parallel_resume.then_some(&pool);
            let second =
                engine.resume_stepping(resume_on, &cp, &mut RunBudget::unlimited().cancel_after(2));
            let result = match second {
                Ok((result, _)) => {
                    std::fs::remove_file(&path).unwrap();
                    result
                }
                Err(err) => {
                    let cp = err.into_checkpoint().expect("mid-resume stop carries a checkpoint");
                    engine.save_checkpoint(&cp, &path).unwrap();
                    // "Process 3": the stepping door finds the file in
                    // its directory and resumes it to completion.
                    let (checkpoints, error) = ManifestState::open(&dir);
                    assert!(error.is_none(), "{label}: {error:?}");
                    let kernels =
                        if parallel_resume { Kernels::Pooled } else { Kernels::Sequential };
                    let outcome = run_job(
                        &mut SsspEngine::new(&g),
                        Some(&pool),
                        None,
                        &job(src, kernels, delta, classic, &guard, None),
                        Some(&checkpoints),
                    );
                    assert!(
                        matches!(outcome, JobOutcome::Complete { resumed: true, .. }),
                        "{label}: the door must resume the saved checkpoint"
                    );
                    assert!(!path.exists(), "{label}: completion removes the file");
                    complete(outcome, &label)
                }
            };
            assert_eq!(bits(&result.dist), bits(&reference.dist), "{label}");
            assert_eq!(result.stats, reference.stats, "{label}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

type PanicHook = dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync;

#[test]
fn panic_then_budget_stop_still_yields_a_certified_checkpoint() {
    // The degraded sequential retry runs under the job's surviving
    // budget: the injected panic cancels the job's token as it unwinds
    // (through a panic hook), so the retry stops at its first epoch, and
    // the partial result must still come back certified (not lost to the
    // panic path).
    let _session = TestSession::begin();
    let g = chaos_graph();
    let full = dijkstra(&g, 0);
    let pool = ThreadPool::with_threads(pool_threads()).unwrap();
    let guard = GuardConfig::default();
    for strategy in STRATEGIES {
        // Nothing but the injected panic cancels the token.
        let token = CancelToken::new();
        let previous: Arc<PanicHook> = Arc::from(std::panic::take_hook());
        let (on_panic, chained) = (token.clone(), Arc::clone(&previous));
        std::panic::set_hook(Box::new(move |info| {
            if info.payload_as_str() == Some(taskpool::fault::INJECTED_PANIC_MESSAGE) {
                on_panic.cancel();
            }
            chained(info);
        }));
        taskpool::fault::arm_panic_after(0);
        let outcome = run_job(
            &mut SsspEngine::new(&g),
            Some(&pool),
            None,
            &job(0, Kernels::Pooled, 1.0, strategy, &guard, Some(&token)),
            None,
        );
        taskpool::fault::disarm();
        drop(std::panic::take_hook());
        std::panic::set_hook(Box::new(move |info| previous(info)));
        assert!(token.is_cancelled(), "{strategy}: the injected panic never fired");
        let JobOutcome::Partial { stop, .. } = outcome else {
            panic!("{strategy}: the cancelled retry must stop the job, got {outcome:?}");
        };
        assert!(matches!(stop, SsspError::Cancelled { .. }), "{strategy}: {stop}");
        let cp = stop.into_checkpoint().expect("budget stop carries a checkpoint");
        for (v, d) in cp.settled_distances() {
            assert_eq!(d.to_bits(), full.dist[v].to_bits(), "{strategy}: vertex {v}");
        }
    }
}
