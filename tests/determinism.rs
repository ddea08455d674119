//! Determinism suite: every run is a pure function of its graph, source
//! and Δ. Sampled cuts, resumed on both kernels, land on the
//! uninterrupted bits and stats; a view lent a workspace across graphs
//! matches a fresh engine; the pooled figure variants match fused, run
//! after run, at 1/2/4 threads; and every figure name runs through the
//! front door. Each test runs its parts of the differential harness
//! (`tests/differential/`) on its groups of rows.

mod differential;

use differential::{Group::*, Part::*, FIGURE_GROUPS, GROUPS, REAL, UNIT};

#[test]
fn cancelled_then_resumed_runs_are_bit_identical() {
    differential::run(&[Paper, Grid, Layout], &[SampledCuts]);
}

#[test]
fn engine_reuse_is_deterministic_and_matches_direct_calls() {
    differential::run(&GROUPS, &[FreshEngine]);
}

#[test]
fn front_door_covers_every_impl_name_deterministically() {
    differential::run(FIGURE_GROUPS, &[Door]);
}

#[test]
fn parallel_implementations_are_deterministic_on_unit_weights() {
    differential::run(UNIT, &[Pooled]);
}

#[test]
fn parallel_implementations_are_deterministic_on_real_weights() {
    differential::run(REAL, &[Pooled]);
}
