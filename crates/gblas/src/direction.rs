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
//! requirement, because the determinism suite compares runs at 1/2/4
//! threads bit for bit.
//!
//! The threshold is recorded in `BENCH_sssp.json` by the bench harness;
//! see DESIGN.md §14 for the measurement behind the default.
//!
//! A process-wide override (mirroring `reqbuf`'s relaxation-threshold
//! override) lets benchmarks and tests force either direction; both
//! kernels must produce bit-identical results, so the override can never
//! change observable output — only speed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

/// `0` = auto (density decides), `1` = force push, `2` = force pull.
static DIRECTION_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Phase-decision counters (test/bench instrumentation): how many times
/// the oracle answered push / pull since the last reset. Monotonic and
/// process-wide; only ever read by tests asserting that a workload
/// actually crossed the switch boundary.
static PUSH_DECISIONS: AtomicU64 = AtomicU64::new(0);
static PULL_DECISIONS: AtomicU64 = AtomicU64::new(0);

/// Force every oracle consultation to answer `Some(direction)`, or
/// restore density-based auto selection with `None`.
///
/// Process-wide, like `reqbuf::set_relax_threshold_override`: benchmarks
/// use it to time forced-push vs forced-pull, and the direction-sweep
/// test uses it to prove both kernels are bit-identical (tests set it
/// under a [`taskpool::fault::TestSession`], which keeps them from
/// overlapping). No data is published through the flag, so `Relaxed`
/// suffices.
pub fn set_direction_override(forced: Option<Direction>) {
    let code = match forced {
        None => 0,
        Some(Direction::Push) => 1,
        Some(Direction::Pull) => 2,
    };
    DIRECTION_OVERRIDE.store(code, Ordering::Relaxed);
}

/// The pure density rule, before any override: pull iff the frontier
/// carries at least `1/`[`PULL_EDGE_FRACTION_DENOM`] of `total_edges`.
pub fn decide(frontier_edges: usize, total_edges: usize) -> Direction {
    if total_edges > 0
        && frontier_edges.saturating_mul(PULL_EDGE_FRACTION_DENOM) >= total_edges
    {
        Direction::Pull
    } else {
        Direction::Push
    }
}

/// What the consumers call once per frontier epoch: [`decide`] unless an
/// override is pinned, plus decision accounting.
pub fn choose(frontier_edges: usize, total_edges: usize) -> Direction {
    let chosen = match DIRECTION_OVERRIDE.load(Ordering::Relaxed) {
        1 => Direction::Push,
        2 => Direction::Pull,
        _ => decide(frontier_edges, total_edges),
    };
    match chosen {
        Direction::Push => PUSH_DECISIONS.fetch_add(1, Ordering::Relaxed),
        Direction::Pull => PULL_DECISIONS.fetch_add(1, Ordering::Relaxed),
    };
    chosen
}

/// Zero the decision counters (test instrumentation).
pub fn reset_decision_counters() {
    PUSH_DECISIONS.store(0, Ordering::Relaxed);
    PULL_DECISIONS.store(0, Ordering::Relaxed);
}

/// `(push, pull)` decisions since the last reset. Process-wide: under a
/// parallel test runner other suites may bump these concurrently, so
/// assertions should be monotone ("pull fired at least once"), never
/// exact counts.
pub fn decision_counters() -> (u64, u64) {
    (
        PUSH_DECISIONS.load(Ordering::Relaxed),
        PULL_DECISIONS.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskpool::fault::TestSession;

    /// The override is process-wide: hold the session while it is set,
    /// and clear it when the session ends so a failing assertion can't
    /// leak a forced direction into other tests in the same process.
    fn override_session() -> TestSession {
        let mut session = TestSession::begin();
        session.on_end(|| set_direction_override(None));
        session
    }

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
    fn override_pins_both_ways_and_clears() {
        let _session = override_session();
        set_direction_override(Some(Direction::Pull));
        assert_eq!(choose(0, 1_000_000), Direction::Pull);
        set_direction_override(Some(Direction::Push));
        assert_eq!(choose(1_000_000, 1), Direction::Push);
        set_direction_override(None);
        assert_eq!(choose(0, 1_000_000), Direction::Push);
        assert_eq!(choose(1_000_000, 1), Direction::Pull);
    }

    #[test]
    fn counters_accumulate_monotonically() {
        let _session = override_session();
        set_direction_override(None);
        let (push0, pull0) = decision_counters();
        choose(0, 100); // push
        choose(100, 100); // pull
        let (push1, pull1) = decision_counters();
        assert!(push1 > push0);
        assert!(pull1 > pull0);
    }
}
