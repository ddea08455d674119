//! Direction-optimization suite: the dense pull pass is an exact,
//! invisible substitute for the sparse push scatter. Runs forced to pull
//! match the runs forced to push bit for bit, stats and epochs included,
//! on every kernel; a session pool runs the pull rounds as tasks, not
//! only the sequential fallback; the automatic oracle takes both
//! directions on a graph that crosses the switch, with the same rounds on
//! every kernel, and pushes every round where the light edges have
//! several weights, so no pull row could stop early; and runs cut at
//! every epoch across the switch resume to the same bits, stats and
//! rounds. Those tests run their parts of the
//! differential harness (`tests/differential/`) on their groups of rows.
//! A pinned direction also belongs to its run: two engines forced
//! opposite ways at once each see only their own.

mod differential;

use differential::{Group::*, Part::*, UNIT};
use gblas::Direction;
use graphdata::{paper_suite, SuiteScale};
use sssp_core::engine::SsspEngine;
use sssp_core::stepping::SteppingWorkspace;
use sssp_core::SteppingStrategy::{Classic, DeltaStar};
use sssp_core::{dijkstra, PreparedGraph, RunBudget};

#[test]
fn forced_pull_matches_push_bit_for_bit_on_unit_weights() {
    differential::run(UNIT, &[Forced]);
}

#[test]
fn forced_pull_matches_push_bit_for_bit_on_real_weights() {
    let seen = differential::run(&[Weighted, Hostile, Switch0, Switch1, Symmetric, Twin], &[Forced]);
    assert!(seen.heavy_relaxations > 0, "no heavy pass relaxed an edge");
    assert!(!seen.push_only.is_empty(), "no row had several light weights");
}

#[test]
fn parallel_pull_kernel_is_bit_identical_not_just_its_fallback() {
    differential::run(UNIT, &[PullTasks]);
}

#[test]
fn auto_oracle_crosses_the_switch_boundary_and_stays_exact() {
    let seen = differential::run(&[Switch0, Switch1], &[Oracle]);
    assert!(!seen.both_ways.is_empty(), "no classic oracle took both directions");
}

/// A heavy phase pulls only on a symmetric graph: the oracle pulls the
/// symmetric row's densest heavy phases, on every kernel alike, and never
/// one of its twin's.
#[test]
fn heavy_phases_pull_on_the_symmetric_row_and_never_on_its_twin() {
    let seen = differential::run(&[Symmetric, Twin], &[Oracle]);
    let pulls = |strategy| {
        seen.heavy_pulls.iter().filter(|&&(g, s, _)| g == Symmetric && s == strategy).map(|r| r.2).sum::<u64>()
    };
    assert!(pulls(Classic) > 0, "no classic heavy phase pulled");
    assert!(pulls(DeltaStar(2.0)) > 0, "no Δ* heavy phase pulled");
    assert!(seen.heavy_pulls.iter().all(|&(g, _, n)| g == Symmetric || n == 0), "the twin pulled");
}

#[test]
fn cancellation_at_every_epoch_across_the_switch_boundary() {
    let seen = differential::run(&[Switch1], &[EveryCut]);
    assert!(!seen.both_ways.is_empty(), "no classic oracle took both directions");
}

/// Distances must be bit-identical, not approximately equal.
fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

#[test]
fn concurrent_runs_forced_opposite_ways_each_see_only_their_own_direction() {
    // Two engines over one prepared graph, on two threads at once, one
    // pinned to push and one to pull: a pin that leaked between runs
    // would show up as a round of the other direction in a profile.
    let d = paper_suite(SuiteScale::Smoke).remove(2);
    let g = &d.graph;
    let src = g.num_vertices() / 2;
    let truth = bits(&dijkstra::dijkstra(g, src).dist);
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
                    let expect = if dir == Direction::Push { (light, 0) } else { (0, light) };
                    assert_eq!((profile.push_epochs, profile.pull_epochs), expect, "{dir:?} run {i} on {name}");
                }
            });
        }
    });
}
