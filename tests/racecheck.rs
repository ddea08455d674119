//! Concurrency soundness suite: the happens-before race checker against
//! both sides of the contract.
//!
//! Positive direction: every figure variant behind the figure door
//! (`run_checked`), and every stepping strategy on the production loop's
//! pooled kernels, stays race-free and bit-identical across seeded
//! adversarial schedules (including a cancel-then-resume split run, and
//! the heavy pull on a weighted symmetric grid).
//! Negative direction: deliberately unsound fixtures — the old
//! fully-`Relaxed` `atomic_min` and an overlapping-chunk partition —
//! MUST be flagged, proving the checker has teeth.
//!
//! Schedule count comes from `RACECHECK_SCHEDULES` (CI sets 64; the
//! default stays small so plain `cargo test` wall-clock is unaffected);
//! a failure names its schedule, and `RACECHECK_SCHEDULE=<seed>:<budget>`
//! or `RACECHECK_SEED=<seed>` replays exactly that one (see
//! [`ExploreConfig::from_env`]). The tracker and the schedule controller
//! are process-wide and act on a [`TestSession`]'s own pools only: each
//! test opens one before it creates a pool, which also serializes them,
//! so no `--test-threads` pinning is needed for correctness — CI still
//! pins to 1 to keep timings stable.
//!
//! Fine-grained per-element hooks in the relaxation loops need the
//! `racecheck` cargo feature; without it the exploration still permutes
//! schedules and checks output bits, over coarser-grained events.

use std::sync::atomic::{AtomicU64, Ordering};

use graphdata::gen::grid2d;
use graphdata::weights::assign_symmetric;
use graphdata::{CsrGraph, WeightModel};
use racecheck::{Session, SyncOrd};
use sssp_core::explore::{explore, explore_cancel_resume, explore_strategy, ExploreConfig};
use sssp_core::engine::SsspEngine;
use sssp_core::{Implementation, RunBudget, SteppingStrategy};
use taskpool::fault::TestSession;
use taskpool::{scope, ThreadPool};

fn env_config() -> ExploreConfig {
    ExploreConfig::from_env()
}

fn small_graph() -> CsrGraph {
    // Unit weights: the gblas implementation rejects zero-weight edges.
    CsrGraph::from_edge_list(&grid2d(6, 6)).expect("grid")
}

/// The same grid with positive real weights up to 2.5: explored at
/// Δ = 1, a third of its edges are heavy, so every loop's heavy pass
/// runs under the explorer too.
fn small_weighted_graph() -> CsrGraph {
    let mut el = grid2d(6, 6);
    assign_symmetric(&mut el, WeightModel::UniformFloat { lo: 0.1, hi: 2.5 }, 11);
    CsrGraph::from_edge_list(&el).expect("grid")
}

/// The pre-soundness-pass relaxation primitive, reintroduced verbatim as
/// a negative fixture: a fully `Relaxed` CAS min. Under C11 this is not
/// a data race, but it leaves sibling RMWs unordered — exactly the
/// discipline violation the checker bans (and what the audit replaced
/// with the acquire/release chain of `atomic_min_acqrel` below).
fn atomic_min_relaxed(cell: &AtomicU64, val: f64) {
    racecheck::atomic_rmw("fixture.req", cell as *const AtomicU64, SyncOrd::Relaxed);
    let mut cur = cell.load(Ordering::Relaxed);
    while f64::from_bits(cur) > val {
        match cell.compare_exchange_weak(cur, val.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The audited replacement, with hooks matching its real orderings.
fn atomic_min_acqrel(cell: &AtomicU64, val: f64) {
    racecheck::atomic_rmw("fixture.req", cell as *const AtomicU64, SyncOrd::AcqRel);
    let mut cur = cell.load(Ordering::Acquire);
    while f64::from_bits(cur) > val {
        match cell.compare_exchange_weak(cur, val.to_bits(), Ordering::Release, Ordering::Acquire)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

#[test]
fn relaxed_atomic_min_fixture_is_flagged() {
    let _test = TestSession::begin();
    let pool = ThreadPool::with_threads(2).expect("pool");
    let session = Session::new();
    let cell = AtomicU64::new(f64::INFINITY.to_bits());
    scope(&pool, |s| {
        let cell = &cell;
        s.spawn(move || atomic_min_relaxed(cell, 2.0));
        s.spawn(move || atomic_min_relaxed(cell, 3.0));
    });
    let races = session.take_races();
    assert!(
        races
            .iter()
            .any(|r| r.label == "fixture.req" && r.kind == "write-write"),
        "Relaxed/Relaxed atomic_min must be flagged as unordered, got: {races:?}"
    );
}

#[test]
fn acqrel_atomic_min_fixture_is_clean() {
    let _test = TestSession::begin();
    let pool = ThreadPool::with_threads(2).expect("pool");
    let session = Session::new();
    let cell = AtomicU64::new(f64::INFINITY.to_bits());
    scope(&pool, |s| {
        let cell = &cell;
        s.spawn(move || atomic_min_acqrel(cell, 2.0));
        s.spawn(move || atomic_min_acqrel(cell, 3.0));
    });
    let races = session.take_races();
    assert!(
        races.is_empty(),
        "acquire/release RMW chain must be ordered, got: {races:?}"
    );
}

#[test]
fn overlapping_chunk_partition_is_flagged() {
    // A seeded "chunking bug": two tasks whose index ranges overlap by
    // one element. Storage is atomic (no real UB while we demonstrate
    // the logical race), but each element is *modeled* as the plain
    // write a chunked kernel would perform.
    let n = 64usize;
    let mut seed = 0xDEAD_BEEF_u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let cut = 1 + (rng() as usize) % (n - 2);
    let a = 0..cut + 1; // off-by-one: both tasks own index `cut`
    let b = cut..n;
    let cells: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();

    let _test = TestSession::begin();
    let pool = ThreadPool::with_threads(2).expect("pool");
    let session = Session::new();
    scope(&pool, |s| {
        for range in [a, b] {
            let cells = &cells;
            s.spawn(move || {
                for i in range {
                    racecheck::plain_write("fixture.chunk", &cells[i] as *const AtomicU64);
                    cells[i].store(1, Ordering::Relaxed);
                }
            });
        }
    });
    let races = session.take_races();
    assert!(
        races
            .iter()
            .any(|r| r.label == "fixture.chunk" && r.kind == "write-write"),
        "overlapping chunks must produce a write-write race, got: {races:?}"
    );
}

/// The dynamic half of the deadlock story (the static half is
/// sssp-analyze's lock-order lint): two tasks acquire a pair of
/// virtual locks in opposite orders — hook calls only, no real blocking,
/// so the fixture can never hang the suite. The acquisition-order graph
/// must report the AB-BA cycle under *every* explored seed: the edges
/// are recorded whichever task runs first, which is exactly why the
/// graph catches deadlocks that never manifested in the run.
#[test]
fn ab_ba_lock_order_fixture_is_flagged_under_every_seed() {
    let cfg = env_config();
    let _test = TestSession::begin();
    let pool = ThreadPool::with_threads(2).expect("pool");
    let session = Session::new();
    // Virtual addresses: distinct, stable, and backed by nothing.
    let addr_a = 0x1000usize;
    let addr_b = 0x2000usize;
    for seed in cfg.seeds.clone() {
        session.reset();
        taskpool::sched::arm(seed, cfg.preemption_budget);
        scope(&pool, |s| {
            s.spawn(move || {
                racecheck::lock_acquired("fixture.A", addr_a);
                racecheck::lock_acquired("fixture.B", addr_b);
                racecheck::lock_released(addr_b);
                racecheck::lock_released(addr_a);
            });
            s.spawn(move || {
                racecheck::lock_acquired("fixture.B", addr_b);
                racecheck::lock_acquired("fixture.A", addr_a);
                racecheck::lock_released(addr_a);
                racecheck::lock_released(addr_b);
            });
        });
        taskpool::sched::disarm();
        let deadlocks = session.take_deadlocks();
        assert!(
            deadlocks.iter().any(|c| {
                let names: Vec<&str> = c.edges.iter().map(|e| e.acquired.name).collect();
                names.contains(&"fixture.A") && names.contains(&"fixture.B")
            }),
            "seed {seed}: AB-BA cycle must be flagged, got: {deadlocks:?}"
        );
        assert!(session.lock_edges() >= 2, "seed {seed}: both edges must be recorded");
    }
}

#[test]
fn all_implementations_are_race_free_across_schedules() {
    let session = TestSession::begin();
    let weighted = small_weighted_graph();
    assert!(weighted.max_weight() > 1.0, "Δ = 1 must leave heavy edges");
    let cfg = env_config();
    let mut total_events = 0u64;
    for (graph, g) in [("unit grid", small_graph()), ("weighted grid", weighted)] {
        for imp in Implementation::ALL {
            let report = explore(imp, &g, 0, 1.0, &cfg, &session);
            assert_eq!(report.schedules as u64, cfg.seeds.end - cfg.seeds.start);
            assert!(
                report.is_clean(),
                "{} on the {graph}: races {:?}, deadlocks {:?}, divergent seeds {:?}",
                imp.name(),
                report.races,
                report.deadlocks,
                report.divergent_seeds
            );
            total_events += report.events;
        }
    }
    // The parallel implementations must actually have been traced.
    assert!(total_events > 0, "no shadow-state events recorded");
}

/// The strategies of the production loop. Their `sssp.dist` writes go
/// through the one drain hook, so ρ and Δ* are as visible to the checker
/// as classic.
const STRATEGIES: [SteppingStrategy; 3] = [
    SteppingStrategy::Classic,
    SteppingStrategy::Rho(8),
    SteppingStrategy::DeltaStar(2.0),
];

#[test]
fn every_strategy_is_race_free_on_the_pooled_loop() {
    let session = TestSession::begin();
    let g = small_graph();
    let cfg = env_config();
    for strategy in STRATEGIES {
        let report = explore_strategy(strategy, None, &g, 0, 1.0, &cfg, &session);
        assert_eq!(report.schedules as u64, cfg.seeds.end - cfg.seeds.start);
        assert!(
            report.is_clean(),
            "{strategy}: races {:?}, deadlocks {:?}, divergent seeds {:?}",
            report.races,
            report.deadlocks,
            report.divergent_seeds
        );
        assert!(report.events > 0, "{strategy}: no shadow-state events recorded");
    }
}

#[test]
fn forced_pull_dense_kernel_is_race_free_across_schedules() {
    // Drive the dense-pull parallel kernel — not the push scatter — under
    // adversarial schedules. The session's pool already takes the
    // parallel paths at every size, so pinning the runs to Pull puts
    // every light phase on the chunked pull path, whose per-element hooks
    // (`sssp.dist` reads, `pull.req` writes) the tracker then orders
    // against the fork/join events.
    let session = TestSession::begin();
    let g = small_graph();
    let cfg = env_config();
    let pull = Some(gblas::Direction::Pull);
    for strategy in STRATEGIES {
        let report = explore_strategy(strategy, pull, &g, 0, 1.0, &cfg, &session);
        assert_eq!(report.schedules as u64, cfg.seeds.end - cfg.seeds.start);
        assert!(
            report.is_clean(),
            "forced-pull {strategy}: races {:?}, deadlocks {:?}, divergent seeds {:?}",
            report.races,
            report.deadlocks,
            report.divergent_seeds
        );
        assert!(report.events > 0, "{strategy}: no shadow-state events recorded");
    }
}

#[test]
fn forced_pull_heavy_kernel_is_race_free_across_schedules() {
    // The weighted grid is symmetric and has heavy edges at Δ = 1, so a
    // run pinned to pull pulls every heavy phase too: the chunked heavy
    // pull, whose hooks (`sssp.dist` reads of targets and settled
    // sources, `pull.req` writes) the tracker orders against the
    // fork/join events and the drain's `sssp.dist` writes.
    let session = TestSession::begin();
    let g = small_weighted_graph();
    assert!(g.is_symmetric(), "the weighted grid must be symmetric");
    let cfg = env_config();
    let pull = Some(gblas::Direction::Pull);
    for strategy in [SteppingStrategy::Classic, SteppingStrategy::DeltaStar(2.0)] {
        // The session's pool runs the heavy pull as tasks at this size.
        let pool = ThreadPool::with_threads(2).expect("pool");
        let mut engine = SsspEngine::new(&g);
        engine.force_direction(pull);
        let (r, profile) =
            engine.run_stepping(Some(&pool), 0, 1.0, strategy, &mut RunBudget::unlimited()).expect("valid input");
        assert!(profile.heavy_pull_phases > 0, "{strategy}: no heavy phase pulled");
        assert_eq!(profile.heavy_pull_phases, r.stats.heavy_phases as u64, "{strategy}: a heavy phase pushed");

        let report = explore_strategy(strategy, pull, &g, 0, 1.0, &cfg, &session);
        assert_eq!(report.schedules as u64, cfg.seeds.end - cfg.seeds.start);
        assert!(
            report.is_clean(),
            "forced-pull heavy {strategy}: races {:?}, deadlocks {:?}, divergent seeds {:?}",
            report.races,
            report.deadlocks,
            report.divergent_seeds
        );
        assert!(report.events > 0, "{strategy}: no shadow-state events recorded");
    }
}

#[test]
fn cancel_then_resume_is_race_free_and_bit_identical() {
    let session = TestSession::begin();
    let g = small_graph();
    let cfg = env_config();
    for strategy in STRATEGIES {
        let report = explore_cancel_resume(strategy, &g, 0, 1.0, 2, &cfg, &session);
        assert_eq!(report.schedules as u64, cfg.seeds.end - cfg.seeds.start);
        assert!(
            report.is_clean(),
            "cancel/resume {strategy}: races {:?}, deadlocks {:?}, divergent seeds {:?}",
            report.races,
            report.deadlocks,
            report.divergent_seeds
        );
    }
}
