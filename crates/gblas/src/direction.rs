//! The shared push/pull **density oracle** for frontier kernels.
//!
//! GraphBLAST (Yang, Buluç, Owens) shows that the single biggest win
//! available to a masked `vxm`-style relaxation is switching *direction*
//! on frontier density: a sparse frontier wants the push form (scatter
//! the frontier's out-edges), a dense frontier wants the pull form (scan
//! every candidate row against a frontier bitmap, sequential reads, no
//! scatter/merge/sort). Every frontier consumer in this workspace — the
//! fused loop, the request-buffer parallel loop, and the gblas `vxm`
//! call site — asks *this* oracle, so the decision is made once, the
//! same way, everywhere, and stays deterministic across thread counts.
//!
//! The decision input is the frontier's out-edge count relative to the
//! total edge count of the operand (for delta-stepping: the light
//! sub-graph `A_L`). Both numbers are schedule-independent, so the
//! chosen direction is a pure function of algorithm state — a
//! requirement, because the differential harness (`tests/differential/`)
//! compares runs at 1/2/4 threads bit for bit.
//!
//! The density rule assumes a pull row stops early. The stepping loop's
//! pull (`sssp_core::pull`) stops a row at its first candidate at the
//! floor `lower + min_w`, which every frontier parent at the lowest
//! distance meets when the light edges share one weight — Beamer's
//! bottom-up step on unit weights. With several light weights a row
//! almost never meets it and reads every in-edge, so that loop asks
//! this oracle only when its split's light edges have one weight, and
//! pushes otherwise. It also asks it for a heavy phase on a symmetric
//! graph, with the settled set's heavy edges against the heavy edges
//! plus vertices: that pull reads each open vertex's weight-sorted heavy
//! row, which stops at the first weight no settled parent could use. The
//! Fig. 2 `vxm` site keeps the density rule alone: its pull never stops
//! early.
//!
//! The threshold is recorded in `BENCH_sssp.json` by the bench harness;
//! see DESIGN.md §14 for the measurement behind the default.
//!
//! The oracle is pure: its input (the frontier's edge count) and its
//! answer belong to the run that asks. A caller that must pin a
//! direction — a benchmark timing forced push, a test proving both
//! kernels bit-identical — passes `Some(direction)` to its own loop
//! instead of consulting [`decide`], and each loop counts its own push
//! and pull rounds (`PhaseProfile::{push_epochs, pull_epochs}` in
//! `sssp_core`). Both kernels produce bit-identical results, so a pinned
//! direction can never change observable output — only speed.
//!
//! [`decision_counters`] survives for the benchmark harness that reads
//! it: a process-wide sum that engine runs add their totals to once per
//! run, never once per round.

use std::sync::atomic::{AtomicU64, Ordering};

/// Which way to run a frontier relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Scatter the frontier's out-edges through request routing.
    Push,
    /// Scan candidate vertices' in-edges against a frontier bitmap.
    Pull,
}

/// Pull when `frontier_edges * PULL_EDGE_FRACTION_DENOM >= total_edges`,
/// i.e. when the frontier carries at least `1/DENOM` of the operand's
/// edges. The pull pass reads `O(n + candidate in-edges)` sequentially
/// instead of scattering `O(frontier_edges)` with a merge + sort behind
/// it, so it only pays off once the frontier is a sizable fraction of
/// the graph (the "explosion" phases of small-world graphs). Measured on
/// the fig3/fig4 dense-frontier suite — see `BENCH_sssp.json`'s
/// `direction` block and DESIGN.md §14.
pub const PULL_EDGE_FRACTION_DENOM: usize = 8;

/// Push / pull rounds summed over every run reported through
/// [`add_run_decisions`] since the last reset. A shell for the benchmark
/// harness: the facts live in each run's profile.
// lint:allow(hot-path-static): pinned harness shell, written once per run
static PUSH_DECISIONS: AtomicU64 = AtomicU64::new(0);
// lint:allow(hot-path-static): pinned harness shell, written once per run
static PULL_DECISIONS: AtomicU64 = AtomicU64::new(0);

/// The density rule: pull iff the frontier carries at least
/// `1/`[`PULL_EDGE_FRACTION_DENOM`] of `total_edges`. Tuned for a pull
/// whose rows stop at their first frontier parent: the stepping loop
/// consults it only when every light edge has one weight, and pushes
/// otherwise.
pub fn decide(frontier_edges: usize, total_edges: usize) -> Direction {
    if total_edges > 0
        && frontier_edges.saturating_mul(PULL_EDGE_FRACTION_DENOM) >= total_edges
    {
        Direction::Pull
    } else {
        Direction::Push
    }
}

/// Add one finished run's `(push, pull)` round counts to the
/// process-wide sums [`decision_counters`] reads. Called once per run by
/// the engine that ran it.
#[doc(hidden)]
pub fn add_run_decisions(push: u64, pull: u64) {
    PUSH_DECISIONS.fetch_add(push, Ordering::Relaxed);
    PULL_DECISIONS.fetch_add(pull, Ordering::Relaxed);
}

/// Zero the process-wide sums.
pub fn reset_decision_counters() {
    PUSH_DECISIONS.store(0, Ordering::Relaxed);
    PULL_DECISIONS.store(0, Ordering::Relaxed);
}

/// `(push, pull)` rounds of the runs reported since the last reset.
/// Process-wide: every run in the process adds to them, so a reader that
/// wants one run's counts reads that run's profile instead.
pub fn decision_counters() -> (u64, u64) {
    (
        PUSH_DECISIONS.load(Ordering::Relaxed),
        PULL_DECISIONS.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_switches_on_edge_fraction() {
        // 1/DENOM of the edges is exactly the boundary (inclusive).
        let total = 800;
        let boundary = total / PULL_EDGE_FRACTION_DENOM;
        assert_eq!(decide(boundary - 1, total), Direction::Push);
        assert_eq!(decide(boundary, total), Direction::Pull);
        assert_eq!(decide(total, total), Direction::Pull);
        // Degenerate operands never pull.
        assert_eq!(decide(0, 0), Direction::Push);
        assert_eq!(decide(5, 0), Direction::Push);
        // Huge frontiers must not overflow the fraction test.
        assert_eq!(decide(usize::MAX, usize::MAX), Direction::Pull);
    }

    #[test]
    fn the_shells_sum_what_runs_report() {
        // The only writer in this test binary.
        reset_decision_counters();
        add_run_decisions(3, 0);
        add_run_decisions(2, 5);
        assert_eq!(decision_counters(), (5, 5));
        reset_decision_counters();
        assert_eq!(decision_counters(), (0, 0));
    }
}
