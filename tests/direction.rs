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
//!    honours the same contract on a [`TestSession`]'s pools, which drive
//!    the small CI graphs onto it.
//! 3. The **auto oracle actually switches** on frontier-explosion graphs
//!    — each run's profile counts rounds both ways over the suite, the
//!    same counts pool-less and at every thread count — and the
//!    mixed-direction run still lands on the push-only bits.
//! 4. **Cancellation at every epoch boundary** across the switch, with
//!    resume on both kernels, reconverges bit-identically (the chaos
//!    property, rerun over the direction switch), and the two halves'
//!    rounds sum to the uninterrupted run's.
//! 5. A pinned direction **belongs to its run**: two engines forced
//!    opposite ways on one graph at the same time each see only their
//!    own direction.
//!
//! Every run pins its own direction (or leaves it to the oracle) and
//! counts its own rounds, so the tests here run side by side.

use gblas::Direction;
use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::gblas_impl::sssp_delta_step_directed;
use sssp_core::stats::PhaseProfile;
use sssp_core::stepping::SteppingWorkspace;
use sssp_core::{Kernels, PreparedGraph, RunBudget, SsspError, SsspResult, SteppingStrategy};
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

const THREADS: [usize; 3] = [1, 2, 4];

/// The light-phase kernels wired to the shared density oracle: the
/// stepping loop's two kernels, through the engine, and the Fig. 2 `vxm`,
/// through the figure door.
#[derive(Debug, Clone, Copy)]
enum Directed {
    Kernels(Kernels),
    Gblas,
}

const DIRECTED: [Directed; 3] =
    [Directed::Kernels(Kernels::Sequential), Directed::Kernels(Kernels::Pooled), Directed::Gblas];

const POOLED: Directed = Directed::Kernels(Kernels::Pooled);

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// Run `strategy` once through a fresh engine with every light round
/// pinned to `forced` (or, with `None`, left to the oracle).
fn solve(
    g: &CsrGraph,
    src: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: Option<&ThreadPool>,
    forced: Option<Direction>,
) -> (SsspResult, PhaseProfile) {
    let mut engine = SsspEngine::new(g);
    engine.force_direction(forced);
    engine
        .run_stepping(pool, src, delta, strategy, &mut RunBudget::unlimited())
        .expect("valid input")
}

/// Run `subject` once (classic) with every light round pinned to
/// `forced` (or left to the oracle).
fn run(
    subject: Directed,
    g: &CsrGraph,
    src: usize,
    delta: f64,
    pool: &ThreadPool,
    forced: Option<Direction>,
) -> SsspResult {
    match subject {
        Directed::Kernels(kernels) => {
            let pool = (kernels == Kernels::Pooled).then_some(pool);
            solve(g, src, delta, SteppingStrategy::Classic, pool, forced).0
        }
        Directed::Gblas => sssp_delta_step_directed(&g.to_adjacency(), delta, src, forced),
    }
}

/// A run's `(push, pull)` light rounds.
fn rounds(profile: &PhaseProfile) -> (u64, u64) {
    (profile.push_epochs, profile.pull_epochs)
}

/// Push and pull must agree bit-for-bit on `g`, per kernel, at every
/// thread count.
fn check_directions(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    for subject in DIRECTED {
        let reference = {
            let pool = ThreadPool::with_threads(1).expect("pool");
            run(subject, g, src, delta, &pool, Some(Direction::Push))
        };
        // Push is the long-standing baseline: it must still match Dijkstra.
        assert_eq!(reference.dist, dijkstra(g, src).dist, "{subject:?}: push baseline on {name}");
        for dir in [Direction::Push, Direction::Pull] {
            for &threads in &THREADS {
                let pool = ThreadPool::with_threads(threads).expect("pool");
                let r = run(subject, g, src, delta, &pool, Some(dir));
                assert_eq!(
                    bits(&r.dist),
                    bits(&reference.dist),
                    "{subject:?} on {name}: {dir:?} distances diverged at {threads} thread(s)"
                );
                assert_eq!(
                    r.stats, reference.stats,
                    "{subject:?} on {name}: {dir:?} stats diverged at {threads} thread(s)"
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
        let reference = solve(g, src, delta, strategy, None, Some(Direction::Push)).0;
        assert_eq!(reference.dist, dijkstra(g, src).dist, "{strategy}: push baseline on {name}");
        let pools: Vec<ThreadPool> =
            THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let r = solve(g, src, delta, strategy, pool, Some(Direction::Pull)).0;
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
    // sweep above exercises mostly the sequential pass. A test session's
    // pools take the parallel chunked pull (and push) at every size, and
    // it must give the same bits at 2 and 4 threads.
    let d = paper_suite(SuiteScale::Smoke).remove(1);
    let g = &d.graph;
    let src = g.num_vertices() / 2;
    let reference = {
        let pool = ThreadPool::with_threads(1).expect("pool");
        run(POOLED, g, src, 1.0, &pool, Some(Direction::Push))
    };
    let _session = TestSession::begin();
    for threads in [2usize, 4] {
        let pool = ThreadPool::with_threads(threads).expect("pool");
        let r = run(POOLED, g, src, 1.0, &pool, Some(Direction::Pull));
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
    // push-only bits. Each run counts its own rounds, one per light
    // phase, and the oracle reads only schedule-independent state, so
    // the counts are the same pool-less and at every thread count.
    let pools: Vec<ThreadPool> =
        THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
    let (mut push, mut pull) = (0, 0);
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        let classic = SteppingStrategy::Classic;
        let (seq, seq_profile) = solve(&d.graph, src, 1.0, classic, None, None);
        assert_eq!(
            seq_profile.push_epochs + seq_profile.pull_epochs,
            seq.stats.light_phases as u64,
            "one decision per light round on {}",
            d.name
        );
        for pool in &pools {
            let (auto_run, profile) = solve(&d.graph, src, 1.0, classic, Some(pool), None);
            assert_eq!(
                auto_run.dist,
                dijkstra(&d.graph, src).dist,
                "auto-direction run diverged on {}",
                d.name
            );
            assert_eq!(
                rounds(&profile),
                rounds(&seq_profile),
                "{}: rounds at {} thread(s) vs pool-less",
                d.name,
                pool.num_threads()
            );
        }
        push += seq_profile.push_epochs;
        pull += seq_profile.pull_epochs;
    }
    assert!(push > 0, "no epoch chose push across the smoke suite");
    assert!(pull > 0, "no epoch chose pull across the smoke suite — the oracle never switched");
}

#[test]
fn cancellation_at_every_epoch_across_the_switch_boundary() {
    // The chaos property, rerun over the direction switch: with the
    // oracle in automatic mode on a graph whose run crosses the push/pull
    // boundary, cancel at every epoch, resume on both kernels, and demand
    // bit-identical distances AND stats versus the uninterrupted run, and
    // rounds that add up: the cut run's (which its engine keeps, since a
    // stopped run returns no profile) plus the resumed run's.
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
    let classic = SteppingStrategy::Classic;

    // The fixture must actually cross the boundary, or this test pins
    // nothing new.
    let (reference, profile) = solve(&g, src, delta, classic, Some(&pool), None);
    let (push, pull) = rounds(&profile);
    assert!(push > 0 && pull > 0, "fixture does not cross the switch boundary ({push} push, {pull} pull)");
    for other in [None, Some(&pool)] {
        assert_eq!(rounds(&solve(&g, src, delta, classic, other, None).1), (push, pull));
    }

    let mut budget = RunBudget::unlimited();
    SsspEngine::new(&g)
        .run_stepping(Some(&pool), src, delta, classic, &mut budget)
        .expect("valid input");
    let epochs = budget.ticks();
    assert!(epochs > 2, "too few epochs to be interesting");

    let mut engine = SsspEngine::new(&g);
    for k in 0..epochs {
        let mut cut = SsspEngine::new(&g);
        let err = cut
            .run_stepping(Some(&pool), src, delta, classic, &mut RunBudget::unlimited().cancel_after(k))
            .expect_err("cancel_after inside the run must stop it");
        let cp = match err {
            SsspError::Cancelled { checkpoint } => *checkpoint,
            other => panic!("epoch {k}: expected Cancelled, got {other}"),
        };
        cp.validate(g.num_vertices()).expect("checkpoint must validate");
        let before = (cut.stats().push_epochs, cut.stats().pull_epochs);
        for resume_on in [None, Some(&pool)] {
            let (resumed, after) = engine
                .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                .expect("resume must reconverge");
            let label = format!("epoch {k}, pooled resume={}", resume_on.is_some());
            assert_eq!(bits(&resumed.dist), bits(&reference.dist), "{label}");
            assert_eq!(resumed.stats, reference.stats, "{label}");
            assert_eq!(
                (before.0 + after.push_epochs, before.1 + after.pull_epochs),
                (push, pull),
                "{label}: the halves' rounds"
            );
        }
    }
}

#[test]
fn concurrent_runs_forced_opposite_ways_each_see_only_their_own_direction() {
    // Two engines over one prepared graph, on two threads at once, one
    // pinned to push and one to pull: a pin that leaked between runs
    // would show up as a round of the other direction in a profile.
    let d = paper_suite(SuiteScale::Smoke).remove(2);
    let g = &d.graph;
    let src = g.num_vertices() / 2;
    let truth = bits(&dijkstra(g, src).dist);
    let prep = PreparedGraph::new(g);
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for dir in [Direction::Push, Direction::Pull] {
            let (prep, start, truth, name) = (&prep, &start, &truth, &d.name);
            scope.spawn(move || {
                let mut ws = SteppingWorkspace::default();
                start.wait();
                for i in 0..20 {
                    let mut engine = SsspEngine::over(prep, &mut ws);
                    engine.force_direction(Some(dir));
                    let (r, profile) = engine
                        .run_fused(src, 1.0, &mut RunBudget::unlimited())
                        .expect("valid input");
                    assert_eq!(&bits(&r.dist), truth, "{dir:?} run {i} on {name}");
                    let light = r.stats.light_phases as u64;
                    let expect = match dir {
                        Direction::Push => (light, 0),
                        Direction::Pull => (0, light),
                    };
                    assert_eq!(rounds(&profile), expect, "{dir:?} run {i} on {name}");
                }
            });
        }
    });
}
