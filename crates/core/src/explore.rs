//! Seeded bounded-preemption schedule exploration for the parallel
//! implementations, driven by the `racecheck` happens-before tracker.
//!
//! [`crate::repro::parallel::delta_stepping_simulated`] records the task
//! decomposition a threaded run creates; this module goes one step further
//! and actually **permutes** it: with [`taskpool::sched`] armed, every scoped task of
//! a real run is executed under a controller that picks execution order
//! (and, at instrumented chunk boundaries, mid-task preemption points)
//! from a seeded RNG. Each `(seed, preemption budget)` pair is one
//! deterministic adversarial schedule.
//!
//! For every explored schedule [`explore`] asserts the two halves of the
//! determinism contract:
//!
//! 1. **No conflicting unordered accesses** — the racecheck session must
//!    come back empty (taskpool's fork/join instrumentation is always
//!    compiled; the per-element hooks in the relaxation loops need the
//!    `racecheck` cargo feature, without which a schedule can still be
//!    permuted but sees only the coarse-grained accesses).
//! 2. **Bit-identical output** — distances must equal the sequential
//!    reference bit for bit on *every* schedule, and stats must match
//!    the reference (the stepping loop's pooled kernels, any strategy)
//!    or the first explored seed (the repo-wide guarantee the
//!    differential harness checks per thread count, here checked per
//!    schedule).
//!
//! Alongside races, each explored schedule drains the tracker's
//! lock-acquisition-order graph: any AB-BA cycle the schedule produced
//! is reported as a potential deadlock with both acquisition sites.
//!
//! Every failure prints the exact `(seed, preemption budget)` pair and
//! the `RACECHECK_SCHEDULE=<seed>:<budget>` incantation that replays it
//! deterministically; [`ExploreConfig::from_env`] honors that variable
//! (plus `RACECHECK_SEED` and `RACECHECK_SCHEDULES`) so a CI hit
//! reproduces locally without bisection.
//!
//! Each exploration creates its pool under the caller's [`TestSession`],
//! and such a pool takes the parallel producer/merge paths at every size
//! (see [`crate::reqbuf`]), so the fig-4 sized graphs CI can afford do
//! not short-circuit to the sequential scatter.
//!
//! The schedule controller and the tracker are process-wide, so every
//! entry point takes the caller's [`TestSession`]: explorations in one
//! process run one at a time, and the controller acts only on the pool
//! each exploration creates.

use std::ops::Range;

use gblas::Direction;
use graphdata::CsrGraph;
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

use crate::budget::RunBudget;
use crate::engine::SsspEngine;
use crate::guard::{GuardConfig, SsspError};
use crate::result::SsspResult;
use crate::run::{run_checked, Implementation};
use crate::stats::SsspStats;
use crate::stepping::{delta_stepping_strategy, SteppingStrategy};

/// Exploration bounds: which seeds to run and how adversarial each
/// schedule may get.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// One schedule per seed. CI runs `0..64`; the in-tree default stays
    /// small so plain `cargo test` wall-clock is unaffected.
    pub seeds: Range<u64>,
    /// Maximum mid-task preemptions per schedule (the CHESS bound: few
    /// preemptions expose most races; the seed permutes task *order*
    /// for free on top).
    pub preemption_budget: u32,
    /// Worker threads in the pool. Clamped to ≥ 2 — a 1-thread pool
    /// makes every parallel path short-circuit to its sequential branch
    /// and there would be nothing to explore.
    pub threads: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seeds: 0..8,
            preemption_budget: 6,
            threads: 2,
        }
    }
}

impl ExploreConfig {
    /// The default config, overridden by the replay environment
    /// variables every failure report names:
    ///
    /// - `RACECHECK_SCHEDULE=<seed>:<budget>` — replay exactly one
    ///   schedule (the form a failure prints);
    /// - `RACECHECK_SEED=<seed>` — one seed under the default budget;
    /// - `RACECHECK_SCHEDULES=<n>` — explore seeds `0..n` (CI sets 64).
    ///
    /// Malformed values fall through to the next variable rather than
    /// silently exploring nothing.
    pub fn from_env() -> ExploreConfig {
        let mut cfg = ExploreConfig::default();
        if let Some((seed, budget)) = std::env::var("RACECHECK_SCHEDULE")
            .ok()
            .and_then(|s| match s.split_once(':') {
                Some((seed, budget)) => Some((seed.parse().ok()?, budget.parse().ok()?)),
                None => Some((s.parse().ok()?, cfg.preemption_budget)),
            })
        {
            cfg.seeds = seed..seed + 1;
            cfg.preemption_budget = budget;
        } else if let Some(seed) = std::env::var("RACECHECK_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            cfg.seeds = seed..seed + 1;
        } else if let Some(n) = std::env::var("RACECHECK_SCHEDULES")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            cfg.seeds = 0..n;
        }
        cfg
    }
}

/// What an exploration saw: schedule count, every race (with the seed
/// that produced it), every seed whose output diverged, and the total
/// number of shadow-state events checked.
#[derive(Debug, Default)]
pub struct ExploreReport {
    /// Schedules actually executed.
    pub schedules: usize,
    /// `(seed, race)` for every conflicting unordered access pair found.
    pub races: Vec<(u64, racecheck::Race)>,
    /// `(seed, cycle)` for every lock-acquisition-order cycle (potential
    /// deadlock) the dynamic graph detected.
    pub deadlocks: Vec<(u64, racecheck::LockCycle)>,
    /// Seeds whose distances or stats differed from the fused reference
    /// or from the first explored seed (or whose run failed outright).
    pub divergent_seeds: Vec<u64>,
    /// Total racecheck events across all schedules — a sanity signal
    /// that instrumentation was actually exercised.
    pub events: u64,
}

impl ExploreReport {
    /// No races, no lock-order cycles, and no divergence on any
    /// explored schedule.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.deadlocks.is_empty() && self.divergent_seeds.is_empty()
    }
}

/// Every failure names the exact schedule to replay, so a CI hit can be
/// reproduced locally with one env var and no bisection.
fn replay_hint(what: &str, seed: u64, budget: u32) {
    eprintln!(
        "racecheck: {what} at seed {seed} (preemption budget {budget}); \
         replay with RACECHECK_SCHEDULE={seed}:{budget}"
    );
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// Run `run` once per seed under the armed schedule controller, checking
/// race-freedom, lock-order acyclicity, and bit-identical output on
/// every schedule. `reference` was computed outside the tracing session
/// with the scheduler disarmed; with `pin_stats` its counters are part
/// of the contract, otherwise stats only have to agree across seeds.
/// `run` returns `None` when the run failed.
fn explore_schedules(
    reference: &SsspResult,
    pin_stats: bool,
    cfg: &ExploreConfig,
    _session: &TestSession,
    mut run: impl FnMut(&ThreadPool) -> Option<SsspResult>,
) -> ExploreReport {
    let ref_bits = bits(&reference.dist);
    let pool = ThreadPool::with_threads(cfg.threads.max(2)).expect("pool");
    // One session across all seeds (the session lock is not reentrant);
    // per-seed isolation comes from `reset`.
    let session = racecheck::Session::new();
    let mut report = ExploreReport::default();
    let mut expect_stats: Option<SsspStats> = pin_stats.then(|| reference.stats.clone());
    for seed in cfg.seeds.clone() {
        session.reset();
        taskpool::sched::arm(seed, cfg.preemption_budget);
        let outcome = run(&pool);
        taskpool::sched::disarm();
        report.schedules += 1;
        report.events += session.events();
        let races = session.take_races();
        let deadlocks = session.take_deadlocks();
        if !races.is_empty() {
            replay_hint("conflicting unordered accesses", seed, cfg.preemption_budget);
        }
        if !deadlocks.is_empty() {
            replay_hint("lock-order cycle", seed, cfg.preemption_budget);
        }
        report.races.extend(races.into_iter().map(|r| (seed, r)));
        report
            .deadlocks
            .extend(deadlocks.into_iter().map(|d| (seed, d)));
        let diverged = match outcome {
            Some(result) if bits(&result.dist) == ref_bits => {
                *expect_stats.get_or_insert_with(|| result.stats.clone()) != result.stats
            }
            _ => true,
        };
        if diverged {
            replay_hint("divergent output", seed, cfg.preemption_budget);
            report.divergent_seeds.push(seed);
        }
    }
    report
}

/// Every figure variant behind [`run_checked`]: distances must equal the
/// sequential fused reference bit for bit on every schedule, and stats
/// must agree across seeds (the figure variants count phases differently
/// from fused, so the reference's counters are not pinned here). The two
/// pooled variants are concurrent code whoever calls them; the stepping
/// loop's pooled kernels are [`explore_strategy`]'s.
pub fn explore(
    imp: Implementation,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    cfg: &ExploreConfig,
    session: &TestSession,
) -> ExploreReport {
    let reference = crate::fused::delta_stepping_fused(g, source, delta);
    explore_schedules(&reference, false, cfg, session, |pool| {
        run_checked(imp, g, source, delta, Some(pool), &GuardConfig::default())
            .ok()
            .map(|(result, _)| result)
    })
}

/// The production loop's pooled kernels under any strategy: distances
/// *and* stats must equal the pool-less run of the same strategy on
/// every schedule. `forced` pins every light round to one direction
/// (`Some(Direction::Pull)` explores the chunked pull kernel), `None`
/// leaves it to the density oracle.
pub fn explore_strategy(
    strategy: SteppingStrategy,
    forced: Option<Direction>,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    cfg: &ExploreConfig,
    session: &TestSession,
) -> ExploreReport {
    let reference = delta_stepping_strategy(g, source, delta, strategy, None);
    explore_schedules(&reference, true, cfg, session, |pool| {
        let mut engine = SsspEngine::new(g);
        engine.force_direction(forced);
        engine
            .run_stepping(Some(pool), source, delta, strategy, &mut RunBudget::unlimited())
            .ok()
            .map(|(result, _)| result)
    })
}

/// The cancel-then-resume path under adversarial schedules: per seed,
/// cancel a pooled run after `cancel_epoch` budget checks, then resume
/// its checkpoint through [`SsspEngine::resume_stepping`] — both halves
/// armed on the same seed — and require the stitched result to be
/// bit-identical (distances *and* stats) to the pool-less reference.
pub fn explore_cancel_resume(
    strategy: SteppingStrategy,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    cancel_epoch: u64,
    cfg: &ExploreConfig,
    session: &TestSession,
) -> ExploreReport {
    let reference = delta_stepping_strategy(g, source, delta, strategy, None);
    explore_schedules(&reference, true, cfg, session, |pool| {
        let mut engine = SsspEngine::new(g);
        let cancelled = engine.run_stepping(
            Some(pool),
            source,
            delta,
            strategy,
            &mut RunBudget::unlimited().cancel_after(cancel_epoch),
        );
        // Completing before the cancel means the epoch was too late.
        let Err(SsspError::Cancelled { checkpoint }) = cancelled else {
            return None;
        };
        engine
            .resume_stepping(Some(pool), &checkpoint, &mut RunBudget::unlimited())
            .ok()
            .map(|(result, _)| result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::grid2d;

    #[test]
    fn smoke_explore_parallel_is_clean() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 5)).unwrap();
        let cfg = ExploreConfig {
            seeds: 0..3,
            ..ExploreConfig::default()
        };
        let session = TestSession::begin();
        let report = explore(Implementation::Parallel, &g, 0, 1.0, &cfg, &session);
        assert_eq!(report.schedules, 3);
        assert!(
            report.is_clean(),
            "races: {:?}, divergent: {:?}",
            report.races,
            report.divergent_seeds
        );
        assert!(report.events > 0, "instrumentation must have fired");
    }

    #[test]
    fn smoke_strategy_and_cancel_resume_are_clean() {
        // One schedule each: the full strategy × seed matrix runs in
        // `tests/racecheck.rs`.
        let g = CsrGraph::from_edge_list(&grid2d(5, 5)).unwrap();
        let cfg = ExploreConfig {
            seeds: 0..1,
            ..ExploreConfig::default()
        };
        let session = TestSession::begin();
        for report in [
            explore_strategy(SteppingStrategy::DeltaStar(2.0), None, &g, 0, 1.0, &cfg, &session),
            explore_cancel_resume(SteppingStrategy::Rho(4), &g, 0, 1.0, 2, &cfg, &session),
        ] {
            assert_eq!(report.schedules, 1);
            assert!(
                report.is_clean(),
                "races: {:?}, divergent: {:?}",
                report.races,
                report.divergent_seeds
            );
            assert!(report.events > 0, "instrumentation must have fired");
        }
    }
}
