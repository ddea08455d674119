//! Determinism suite: every parallel implementation must be a pure
//! function of `(graph, source, delta)` — bit-identical distance vectors
//! and identical [`SsspStats`] across repeated runs and across thread
//! counts. This is the contract the request-buffer relaxation core was
//! built to honour: requests are merged in spawn order, so no schedule
//! interleaving can leak into the result.

use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::engine::SsspEngine;
use sssp_core::repro::{gblas_parallel, parallel};
use sssp_core::result::SsspResult;
use sssp_core::stepping::{delta_stepping_strategy, stepping_checked, SteppingStrategy};
use sssp_core::{fused, run_checked, GuardConfig, Implementation, RunBudget};
use taskpool::ThreadPool;

const RUNS: usize = 20;
const THREADS: [usize; 3] = [1, 2, 4];

/// Distances must be bit-identical, not approximately equal.
fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

fn assert_stable<F>(name: &str, graph_name: &str, mut run: F)
where
    F: FnMut(&ThreadPool) -> SsspResult,
{
    let reference_pool = ThreadPool::with_threads(THREADS[0]).expect("pool");
    let reference = run(&reference_pool);
    for &threads in &THREADS {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        for rep in 0..RUNS {
            let r = run(&pool);
            assert_eq!(
                bits(&r.dist),
                bits(&reference.dist),
                "{name} on {graph_name}: distances diverged at {threads} thread(s), rep {rep}"
            );
            assert_eq!(
                r.stats, reference.stats,
                "{name} on {graph_name}: stats diverged at {threads} thread(s), rep {rep}"
            );
        }
    }
}

fn check_graph(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    assert_stable("parallel", name, |pool| {
        parallel::delta_stepping_parallel(pool, g, src, delta)
    });
    assert_stable("parallel-improved", name, |pool| {
        delta_stepping_strategy(g, src, delta, SteppingStrategy::Classic, Some(pool))
    });
    assert_stable("gblas-parallel", name, |pool| {
        gblas_parallel::delta_stepping_gblas_parallel(pool, g, src, delta)
    });
}

#[test]
fn parallel_implementations_are_deterministic_on_unit_weights() {
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        check_graph(&d.name, &d.graph, src, 1.0);
    }
}

#[test]
fn parallel_implementations_are_deterministic_on_real_weights() {
    // Real-valued weights are where float reduction order would show:
    // min over the same candidate multiset is order-independent, but any
    // accidental completion-order merge would not be.
    for d in weighted_suite(SuiteScale::Smoke).into_iter().take(2) {
        let src = 1;
        check_graph(&d.name, &d.graph, src, 0.25);
    }
}

#[test]
fn engine_reuse_is_deterministic_and_matches_direct_calls() {
    // Warm engine state (cached split + reused workspaces) must not
    // change results: run the same sources repeatedly through one
    // engine and compare against fresh direct calls.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let delta = 1.0;
    let sources = [0, g.num_vertices() / 3, g.num_vertices() - 1];
    for &threads in &THREADS {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        let mut engine = SsspEngine::new(g);
        for rep in 0..RUNS {
            for &src in &sources {
                let (warm, _) = engine
                    .run_parallel_improved(&pool, src, delta, &mut RunBudget::unlimited())
                    .expect("valid inputs");
                let cold =
                    delta_stepping_strategy(g, src, delta, SteppingStrategy::Classic, Some(&pool));
                assert_eq!(
                    bits(&warm.dist),
                    bits(&cold.dist),
                    "engine warm run diverged from direct call at {threads} thread(s), rep {rep}"
                );
                assert_eq!(warm.stats, cold.stats);
            }
        }
        // No split build, regardless of reps x sources: the unit-weight
        // graph's all-light split comes with its preparation.
        assert_eq!(engine.stats().split_builds, 0);
        assert_eq!(engine.stats().split_hits as usize, RUNS * sources.len());
    }
}

#[test]
fn front_door_covers_every_impl_name_deterministically() {
    // The figure door must accept every canonical figure name and give
    // deterministic bits for each: this literal list is what
    // `sssp-analyze`'s impl-coverage lint pins against `run.rs`, so a
    // new figure variant cannot ship without being added here.
    const NAMES: [&str; 5] = ["canonical", "gblas", "gblas-select", "gblas-parallel", "parallel"];
    // Unit weights: the gblas implementation rejects zero-weight edges.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let delta = 1.0;
    let src = g.num_vertices() / 2;
    let reference = fused::delta_stepping_fused(g, src, delta);

    for name in NAMES {
        let imp = Implementation::parse(name).expect("figure name must parse");
        assert_eq!(imp.name(), name, "parse(name()) must round-trip");
        for &threads in &THREADS {
            let pool = ThreadPool::with_threads(threads).expect("pool");
            for rep in 0..3 {
                let (result, _) =
                    run_checked(imp, g, src, delta, Some(&pool), &GuardConfig::default())
                        .expect("valid inputs");
                assert_eq!(
                    bits(&result.dist),
                    bits(&reference.dist),
                    "{name}: distances diverged at {threads} thread(s), rep {rep}"
                );
            }
        }
    }
}

#[test]
fn cancelled_then_resumed_runs_are_bit_identical() {
    // Determinism must survive interruption: cancel the stepping loop on
    // each kernel at a seeded pseudo-random epoch, resume the
    // checkpoint on both kernels (pool-less and pooled),
    // and demand bit-identical distances AND stats versus the
    // uninterrupted run — at every thread count.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let delta = 1.0;
    let src = g.num_vertices() / 2;

    let mut full_budget = RunBudget::unlimited();
    let classic = SteppingStrategy::Classic;
    let (reference, _) =
        stepping_checked(g, src, delta, classic, None, &mut full_budget).expect("valid input");
    let total_epochs = full_budget.ticks();
    assert!(total_epochs > 1, "graph too small to interrupt");

    // Seeded LCG: deterministic across runs, different epochs per trial.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next_epoch = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state % bound
    };

    for &threads in &THREADS {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        let mut engine = SsspEngine::new(g);
        for trial in 0..4 {
            let k = next_epoch(total_epochs);
            let cancelled: Vec<(&str, sssp_core::SsspError)> = vec![
                (
                    "fused",
                    stepping_checked(
                        g,
                        src,
                        delta,
                        classic,
                        None,
                        &mut RunBudget::unlimited().cancel_after(k),
                    )
                    .expect_err("cancel_after must stop the run"),
                ),
                (
                    "improved",
                    stepping_checked(
                        g,
                        src,
                        delta,
                        classic,
                        Some(&pool),
                        &mut RunBudget::unlimited().cancel_after(k),
                    )
                    .expect_err("cancel_after must stop the run"),
                ),
            ];
            for (name, err) in cancelled {
                let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
                assert!(cp.resumable, "{name}: must be resumable");
                for resume_on in [None, Some(&pool)] {
                    let (resumed, _) = engine
                        .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                        .expect("resume must reconverge");
                    let label = format!(
                        "{name} -> resume (pooled={}) at {threads} thread(s), trial {trial}, epoch {k}",
                        resume_on.is_some()
                    );
                    assert_eq!(bits(&resumed.dist), bits(&reference.dist), "{label}");
                    assert_eq!(resumed.stats, reference.stats, "{label}");
                }
            }
        }
        // Every cancel/resume rode the graph's one all-light split.
        assert_eq!(engine.stats().split_builds, 0);
    }
}
