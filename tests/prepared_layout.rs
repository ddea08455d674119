//! The weight-sorted layout on the inputs it could get wrong: duplicate
//! edges and self-loops, `-0.0` beside `+0.0`, weights equal to Δ, and a Δ
//! below or above every weight. Every split is each row's light prefix,
//! and every strategy matches Dijkstra through the engine and the job
//! door, with the oracle run's stats on every kernel and direction. Each
//! test runs its parts of the differential harness (`tests/differential/`)
//! on its groups of rows.

mod differential;

use differential::{Group::*, Part::*, GROUPS};

#[test]
fn every_split_is_exactly_each_rows_light_prefix() {
    differential::run(&GROUPS, &[Split]);
}

#[test]
fn edge_cases_match_dijkstra_bit_for_bit_through_the_engine_and_the_job_door() {
    differential::run(&[Layout], &[Oracle]);
}

#[test]
fn edge_cases_give_the_same_stats_on_every_kernel_and_direction() {
    differential::run(&[Layout], &[Forced]);
}
