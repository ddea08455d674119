//! Cross-implementation equivalence: every sequential figure variant, and
//! Fig. 2 as listed in both directions, lands on the fused run's bits on
//! the unit-weight and weighted rows; the fused run passes the
//! certificate; and an isolated source runs every implementation. Each
//! test runs its parts of the differential harness (`tests/differential/`)
//! on its groups of rows.

mod differential;

use differential::{Group::*, Part::*, FIGURE_GROUPS, REAL, UNIT};

#[test]
fn all_implementations_agree_on_unit_weight_suite() {
    differential::run(UNIT, &[Sequential]);
}

#[test]
fn all_implementations_agree_on_weighted_suite_across_deltas() {
    differential::run(REAL, &[Sequential]);
}

#[test]
fn fused_certificates_hold_on_weighted_suite() {
    differential::run(FIGURE_GROUPS, &[Certificate]);
}

#[test]
fn gblas_and_fused_stats_describe_same_algorithm() {
    differential::run(FIGURE_GROUPS, &[Gblas]);
}

#[test]
fn isolated_source_on_every_implementation() {
    let parts = [
        Oracle,
        Forced,
        SampledCuts,
        Sequential,
        Pooled,
        Gblas,
        Door,
        Certificate,
    ];
    differential::run(&[Isolated], &parts);
}
