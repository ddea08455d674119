//! Direction-optimization suite: the dense pull pass must be an exact,
//! invisible substitute for the sparse push scatter.
//!
//! The light-phase kernels (the stepping loop's pool-less and pooled
//! kernels — `fused` and `improved` — and the gblas `vxm`) share one
//! density oracle that may flip any bucket epoch from push to pull.
//! This suite pins the contract that makes the flip safe to take
//! anywhere:
//!
//! 1. **Forcing pull everywhere** yields distances and [`SsspStats`]
//!    bit-identical to forcing push everywhere, on the fig-3 unit-weight
//!    and fig-4 weighted suites, at 1/2/4 threads, for every
//!    direction-wired implementation.
//! 2. The **parallel pull kernel** (not just its sequential fallback)
//!    honours the same contract when the threshold override drives the
//!    small CI graphs onto it.
//! 3. The **auto oracle actually switches** on frontier-explosion graphs
//!    — both decision counters move — and the mixed-direction run still
//!    lands on the push-only bits.
//! 4. **Cancellation at every epoch boundary** across the switch, with
//!    resume on both kernels, reconverges bit-identically (the chaos
//!    property, rerun over the direction switch).
//!
//! The direction override and decision counters are process-global, so
//! every run in this binary happens under the one [`TestSession`].

use gblas::direction::{self, Direction};
use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::{
    run_checked, run_with_budget, GuardConfig, Implementation, RunBudget, SsspError,
    SteppingStrategy,
};
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

const THREADS: [usize; 3] = [1, 2, 4];

/// The implementations wired to the shared density oracle.
const DIRECTED_IMPLS: [Implementation; 3] = [
    Implementation::Fused,
    Implementation::ParallelImproved,
    Implementation::Gblas,
];

/// Hold the test session with the direction forced (or, with `None`,
/// left to the oracle); automatic selection is restored when the session
/// ends (also on panic).
fn forced(dir: Option<Direction>) -> TestSession {
    let mut session = TestSession::begin();
    session.on_end(|| direction::set_direction_override(None));
    direction::set_direction_override(dir);
    session
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// Run `imp` once under the already-set direction override.
fn run(imp: Implementation, g: &CsrGraph, src: usize, delta: f64, pool: &ThreadPool) -> sssp_core::SsspResult {
    run_checked(imp, g, src, delta, Some(pool), &GuardConfig::default())
        .expect("valid input")
        .result
}

/// Push and pull must agree bit-for-bit on `g`, per implementation, at
/// every thread count.
fn check_directions(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    for imp in DIRECTED_IMPLS {
        let reference = {
            let _push = forced(Some(Direction::Push));
            let pool = ThreadPool::with_threads(1).expect("pool");
            run(imp, g, src, delta, &pool)
        };
        // Push is the long-standing baseline: it must still match Dijkstra.
        assert_eq!(reference.dist, dijkstra(g, src).dist, "{}: push baseline on {name}", imp.name());
        for dir in [Direction::Push, Direction::Pull] {
            let _forced = forced(Some(dir));
            for &threads in &THREADS {
                let pool = ThreadPool::with_threads(threads).expect("pool");
                let r = run(imp, g, src, delta, &pool);
                assert_eq!(
                    bits(&r.dist),
                    bits(&reference.dist),
                    "{} on {name}: {dir:?} distances diverged at {threads} thread(s)",
                    imp.name()
                );
                assert_eq!(
                    r.stats, reference.stats,
                    "{} on {name}: {dir:?} stats diverged at {threads} thread(s)",
                    imp.name()
                );
            }
        }
    }
}

/// The oracle sits in the loop's light round, so ρ and Δ* switch too:
/// push and pull must agree bit-for-bit per strategy, pool-less and at
/// every thread count.
fn check_strategy_directions(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    for strategy in [SteppingStrategy::Rho(16), SteppingStrategy::DeltaStar(2.0)] {
        let run = |pool: Option<&ThreadPool>| {
            SsspEngine::new(g)
                .run_stepping(pool, src, delta, strategy, &mut RunBudget::unlimited())
                .expect("valid input")
                .0
        };
        let reference = {
            let _push = forced(Some(Direction::Push));
            run(None)
        };
        assert_eq!(reference.dist, dijkstra(g, src).dist, "{strategy}: push baseline on {name}");
        let _forced = forced(Some(Direction::Pull));
        let pools: Vec<ThreadPool> =
            THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let r = run(pool);
            let label = format!(
                "{strategy} on {name}: pull at {:?} thread(s)",
                pool.map(ThreadPool::num_threads)
            );
            assert_eq!(bits(&r.dist), bits(&reference.dist), "{label}");
            assert_eq!(r.stats, reference.stats, "{label}");
        }
    }
}

#[test]
fn forced_pull_matches_push_bit_for_bit_on_unit_weights() {
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        check_directions(&d.name, &d.graph, src, 1.0);
        check_strategy_directions(&d.name, &d.graph, src, 1.0);
    }
}

#[test]
fn forced_pull_matches_push_bit_for_bit_on_real_weights() {
    // Real-valued weights are where a reduction-order slip would show:
    // the pull kernel min-folds the same candidate multiset push
    // scatters, so the fold order cannot leak into the bits.
    for d in weighted_suite(SuiteScale::Smoke).into_iter().take(2) {
        check_directions(&d.name, &d.graph, 1, 0.25);
        check_strategy_directions(&d.name, &d.graph, 1, 0.25);
    }
}

#[test]
fn parallel_pull_kernel_is_bit_identical_not_just_its_fallback() {
    // CI graphs sit under the pull kernel's sequential cut-over, so the
    // sweep above exercises mostly the sequential pass. Force the
    // threshold to 1 and the parallel chunked pull must give the same
    // bits at 2 and 4 threads.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let src = g.num_vertices() / 2;
    let reference = {
        let _push = forced(Some(Direction::Push));
        let pool = ThreadPool::with_threads(1).expect("pool");
        run(Implementation::ParallelImproved, g, src, 1.0, &pool)
    };
    // The cut-over is shared by the relax and pull kernels.
    let mut session = forced(Some(Direction::Pull));
    session.on_end(|| sssp_core::reqbuf::set_relax_threshold_override(None));
    sssp_core::reqbuf::set_relax_threshold_override(Some(1));
    for threads in [2usize, 4] {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        let r = run(Implementation::ParallelImproved, g, src, 1.0, &pool);
        assert_eq!(
            bits(&r.dist),
            bits(&reference.dist),
            "parallel pull diverged at {threads} thread(s) on {}",
            d.name
        );
        assert_eq!(r.stats, reference.stats, "stats at {threads} thread(s) on {}", d.name);
    }
}

#[test]
fn auto_oracle_crosses_the_switch_boundary_and_stays_exact() {
    // On frontier-explosion graphs (er/rmat/ba) some epochs are thin and
    // some are dense: the automatic oracle must take *both* branches over
    // the suite, and the mixed-direction runs must still produce the
    // push-only bits.
    let _auto = forced(None);
    direction::reset_decision_counters();
    let pool = ThreadPool::with_threads(2).expect("pool");
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        let auto_run = run(Implementation::ParallelImproved, &d.graph, src, 1.0, &pool);
        assert_eq!(
            auto_run.dist,
            dijkstra(&d.graph, src).dist,
            "auto-direction run diverged on {}",
            d.name
        );
    }
    let (push, pull) = direction::decision_counters();
    assert!(push > 0, "no epoch chose push across the smoke suite");
    assert!(pull > 0, "no epoch chose pull across the smoke suite — the oracle never switched");
}

#[test]
fn cancellation_at_every_epoch_across_the_switch_boundary() {
    // The chaos property, rerun over the direction switch: with the
    // oracle in automatic mode on a graph whose run crosses the push/pull
    // boundary, cancel at every epoch, resume on both kernels, and demand
    // bit-identical distances AND stats versus the uninterrupted run.
    let _auto = forced(None);
    let mut el = graphdata::gen::gnm(150, 900, 11);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        5,
    );
    let g = CsrGraph::from_edge_list(&el).unwrap();
    let (src, delta) = (1usize, 0.5);
    let pool = ThreadPool::with_threads(2).expect("pool");
    let cfg = GuardConfig::default();

    // The fixture must actually cross the boundary, or this test pins
    // nothing new.
    direction::reset_decision_counters();
    let reference = run(Implementation::ParallelImproved, &g, src, delta, &pool);
    let (push, pull) = direction::decision_counters();
    assert!(push > 0 && pull > 0, "fixture does not cross the switch boundary ({push} push, {pull} pull)");

    let mut budget = RunBudget::unlimited();
    run_with_budget(
        Implementation::ParallelImproved,
        &g,
        src,
        delta,
        Some(&pool),
        &cfg,
        &mut budget,
    )
    .expect("valid input");
    let epochs = budget.ticks();
    assert!(epochs > 2, "too few epochs to be interesting");

    let mut engine = SsspEngine::new(&g);
    for k in 0..epochs {
        let err = run_with_budget(
            Implementation::ParallelImproved,
            &g,
            src,
            delta,
            Some(&pool),
            &cfg,
            &mut RunBudget::unlimited().cancel_after(k),
        )
        .expect_err("cancel_after inside the run must stop it");
        let cp = match err {
            SsspError::Cancelled { checkpoint } => *checkpoint,
            other => panic!("epoch {k}: expected Cancelled, got {other}"),
        };
        cp.validate(g.num_vertices()).expect("checkpoint must validate");
        for resume_on in [None, Some(&pool)] {
            let (resumed, _) = engine
                .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                .expect("resume must reconverge");
            let label = format!("epoch {k}, pooled resume={}", resume_on.is_some());
            assert_eq!(bits(&resumed.dist), bits(&reference.dist), "{label}");
            assert_eq!(resumed.stats, reference.stats, "{label}");
        }
    }
}
