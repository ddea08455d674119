//! Run statistics and phase timing — the instrumentation behind the
//! ABL-OPS experiment (Sec. VI-B's observation that the matrix filters are
//! memory-bound and take 35–40 % of sequential runtime).

use std::time::Duration;

/// Counters every implementation fills in (what it can observe).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SsspStats {
    /// Outer iterations = non-empty buckets processed.
    pub buckets_processed: usize,
    /// Inner light-edge relaxation phases across all buckets.
    pub light_phases: usize,
    /// Heavy-edge relaxation phases (one per emptied bucket).
    pub heavy_phases: usize,
    /// Individual edge relaxations attempted: one per light edge of each
    /// frontier entry per light round, and one per heavy edge of each
    /// *distinct* settled vertex per heavy pass (the settled set `S` is a
    /// set, so a vertex that re-entered the frontier is counted once).
    /// A heavy candidate that cannot improve its target is counted but
    /// never offered to the request merge.
    pub relaxations: u64,
    /// Relaxations that improved a tentative distance.
    pub improvements: u64,
}

/// Where a run spent its work: wall-clock time per algorithm phase
/// (fused/parallel implementations fill this for the phase-profile
/// experiment) and how many edges its light passes read.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Building `A_L` and `A_H` (the matrix filtering the paper measures at
    /// 35–40 %).
    pub matrix_filter: Duration,
    /// `(min,+)` relaxation products (light + heavy).
    pub relaxation: Duration,
    /// Vector filtering/bookkeeping (bucket detection, `t`/`t_Bi`/`S`
    /// updates).
    pub vector_ops: Duration,
    /// Edges the light passes read: every frontier light edge of a push;
    /// on a pull, no in-edge of a skipped target and each other row up to
    /// where it stops at its floor. A count of work, not part of the [`SsspStats`] contract:
    /// `relaxations` counts candidates formed and does not move with
    /// it. Filled by the stepping loop; the figure variants leave it 0.
    pub edges_scanned: u64,
    /// Light rounds this run (a resume: its own rounds only) pushed and
    /// pulled; the same at every thread count and pool-less. Filled by
    /// the stepping loop; the figure variants leave them 0.
    pub push_epochs: u64,
    pub pull_epochs: u64,
    /// Heavy phases this run pulled ([`crate::pull`]): only on a
    /// symmetric graph, when the caller pinned pull or the density oracle
    /// chose it. The same at every thread count and pool-less; the other
    /// heavy phases pushed. Filled by the stepping loop; the figure
    /// variants leave it 0.
    pub heavy_pull_phases: u64,
}

impl PhaseProfile {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.matrix_filter + self.relaxation + self.vector_ops
    }

    /// Fraction of accounted time spent in matrix filtering (0 if nothing
    /// was timed).
    pub fn matrix_filter_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.matrix_filter.as_secs_f64() / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stats_are_zero() {
        let s = SsspStats::default();
        assert_eq!(s.buckets_processed, 0);
        assert_eq!(s.relaxations, 0);
    }

    #[test]
    fn profile_fractions() {
        let p = PhaseProfile {
            matrix_filter: Duration::from_millis(40),
            relaxation: Duration::from_millis(50),
            vector_ops: Duration::from_millis(10),
            ..PhaseProfile::default()
        };
        assert_eq!(p.total(), Duration::from_millis(100));
        assert!((p.matrix_filter_fraction() - 0.4).abs() < 1e-9);
        assert_eq!(PhaseProfile::default().matrix_filter_fraction(), 0.0);
    }
}
