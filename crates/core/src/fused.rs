//! The **fused direct implementation** (Sec. VI-B) — the counterpart of the
//! paper's hand-written C code that beat the unfused SuiteSparse version by
//! ~3.7× on average (Fig. 3).
//!
//! The two fusions the paper describes both live in the one stepping loop
//! ([`crate::stepping`]), which runs over a partition-point
//! [`crate::prepared::Split`] of weight-sorted rows. This module holds the
//! one-call *sequential classic* door [`delta_stepping_fused`] and the
//! copied [`LightHeavy`] split the figure variants build (and the frozen
//! benchmark harness sizes caches with):
//!
//! 1. *Hadamard ∘ vxm fusion*: `t_Req = A_L^T (t ∘ t_Bi)` runs as one
//!    scatter loop over the current frontier — the bucket filter, the
//!    element-wise product, and the `(min,+)` product never materialize
//!    intermediates.
//! 2. *Fused vector updates*: the three dependent vector operations that
//!    compute `t_Bi`, `S`, and `t` happen in a single pass over the touched
//!    vertices (plus one pass over `t` per bucket for bucket detection).
//!
//! Unlike the GraphBLAS version, state lives in dense arrays (`Vec<f64>`,
//! `Vec<bool>`) exactly like the paper's direct C implementation.

use graphdata::CsrGraph;

use crate::result::SsspResult;
use crate::stepping::{delta_stepping_strategy, SteppingStrategy};

/// The light/heavy split as a copy in CSR form — built in a single fused
/// pass over the adjacency (vs. the four `GrB_apply` calls of Fig. 2).
/// Figure code: the stepping loop reads a [`crate::prepared::Split`]
/// instead, which holds `n` partition points rather than a copy of `E`.
#[derive(Debug, Clone, PartialEq)]
pub struct LightHeavy {
    /// Light-edge CSR offsets (`w ≤ Δ`), length `|V| + 1`.
    pub light_off: Vec<usize>,
    /// Light-edge targets.
    pub light_tgt: Vec<usize>,
    /// Light-edge weights.
    pub light_w: Vec<f64>,
    /// Heavy-edge CSR offsets (`w > Δ`), length `|V| + 1`.
    pub heavy_off: Vec<usize>,
    /// Heavy-edge targets.
    pub heavy_tgt: Vec<usize>,
    /// Heavy-edge weights.
    pub heavy_w: Vec<f64>,
}

impl LightHeavy {
    /// Split `g`'s adjacency at threshold `delta` in one pass.
    pub fn build(g: &CsrGraph, delta: f64) -> Self {
        let n = g.num_vertices();
        let mut lh = LightHeavy {
            light_off: Vec::with_capacity(n + 1),
            light_tgt: Vec::new(),
            light_w: Vec::new(),
            heavy_off: Vec::with_capacity(n + 1),
            heavy_tgt: Vec::new(),
            heavy_w: Vec::new(),
        };
        lh.light_off.push(0);
        lh.heavy_off.push(0);
        for v in 0..n {
            let (targets, weights) = g.neighbors(v);
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if w <= delta {
                    lh.light_tgt.push(t);
                    lh.light_w.push(w);
                } else {
                    lh.heavy_tgt.push(t);
                    lh.heavy_w.push(w);
                }
            }
            lh.light_off.push(lh.light_tgt.len());
            lh.heavy_off.push(lh.heavy_tgt.len());
        }
        lh
    }

    /// Heap bytes this split holds resident. Never zero:
    /// `light_off`/`heavy_off` always hold `|V| + 1 ≥ 1` entries each.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.light_off.len() + self.heavy_off.len() + self.light_tgt.len() + self.heavy_tgt.len())
            * size_of::<usize>()
            + (self.light_w.len() + self.heavy_w.len()) * size_of::<f64>()
    }

    /// Light out-edges of `v`.
    #[inline]
    pub fn light(&self, v: usize) -> (&[usize], &[f64]) {
        let lo = self.light_off[v];
        let hi = self.light_off[v + 1];
        (&self.light_tgt[lo..hi], &self.light_w[lo..hi])
    }

    /// Heavy out-edges of `v`.
    #[inline]
    pub fn heavy(&self, v: usize) -> (&[usize], &[f64]) {
        let lo = self.heavy_off[v];
        let hi = self.heavy_off[v + 1];
        (&self.heavy_tgt[lo..hi], &self.heavy_w[lo..hi])
    }

    /// Total light edges.
    pub fn num_light(&self) -> usize {
        self.light_tgt.len()
    }

    /// Total heavy edges.
    pub fn num_heavy(&self) -> usize {
        self.heavy_tgt.len()
    }
}

/// Fused delta-stepping: the stepping loop's classic strategy on its
/// sequential kernels. Equivalent to [`crate::repro::gblas_impl::sssp_delta_step`]
/// but with dense state and fused loops. Panics on invalid input; the
/// checked door is [`crate::stepping::stepping_checked`].
pub fn delta_stepping_fused(g: &CsrGraph, source: usize, delta: f64) -> SsspResult {
    delta_stepping_strategy(g, source, delta, SteppingStrategy::Classic, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RunBudget;
    use crate::dijkstra::dijkstra;
    use crate::guard::SsspError;
    use crate::stats::PhaseProfile;
    use crate::stepping::stepping_checked;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    /// The checked form of [`delta_stepping_fused`].
    fn fused_checked(
        g: &CsrGraph,
        source: usize,
        delta: f64,
        budget: &mut RunBudget,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        stepping_checked(g, source, delta, SteppingStrategy::Classic, None, budget)
    }

    #[test]
    fn light_heavy_split_counts() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.5), (0, 2, 2.0), (1, 2, 1.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let lh = LightHeavy::build(&g, 1.0);
        assert_eq!(lh.num_light(), 2);
        assert_eq!(lh.num_heavy(), 1);
        let (lt, lw) = lh.light(0);
        assert_eq!(lt, &[1]);
        assert_eq!(lw, &[0.5]);
        let (ht, _) = lh.heavy(0);
        assert_eq!(ht, &[2]);
    }

    #[test]
    fn path_graph() {
        let g = CsrGraph::from_edge_list(&path(6)).unwrap();
        let r = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn heavy_edges_and_bucket_skips() {
        // Distances: 0, then a long heavy jump to bucket 10.
        let el = EdgeList::from_triples(vec![(0, 1, 10.5), (1, 2, 0.5)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 10.5, 11.0]);
        // Buckets 0, 10, 11 processed; the empty ones in between skipped.
        assert_eq!(r.stats.buckets_processed, 3);
    }

    #[test]
    fn zero_weight_edges_supported() {
        // The fused version has no value-mask caveat: zero weights work.
        let el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_fused(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn profile_accounts_time() {
        let g = CsrGraph::from_edge_list(&grid2d(40, 40)).unwrap();
        let (r, profile) = fused_checked(&g, 0, 1.0, &mut RunBudget::unlimited()).unwrap();
        assert_eq!(r.dist[40 * 40 - 1], 78.0);
        assert!(profile.total().as_nanos() > 0);
    }

    #[test]
    fn checked_rejects_bad_inputs_and_trips_watchdog() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        assert!(matches!(
            fused_checked(&g, 0, f64::NAN, &mut RunBudget::unlimited()),
            Err(SsspError::InvalidDelta { .. })
        ));
        assert!(matches!(
            fused_checked(&g, 100, 1.0, &mut RunBudget::unlimited()),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
        let mut tight = RunBudget::with_limit(2);
        assert!(matches!(
            fused_checked(&g, 0, 1.0, &mut tight),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
        // Negative-weight cycle: bucket 0 refills forever without a guard.
        let cyc = CsrGraph::from_raw_parts_unchecked(
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![0.5, -1.0],
        );
        let mut budget = RunBudget::with_limit(1000);
        assert!(matches!(
            fused_checked(&cyc, 0, 1.0, &mut budget),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }

    #[test]
    fn checked_matches_unchecked_on_valid_input() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap();
        let plain = delta_stepping_fused(&g, 0, 1.0);
        let mut budget = RunBudget::for_run(&g, 1.0, &crate::guard::GuardConfig::default());
        let (checked, _) = fused_checked(&g, 0, 1.0, &mut budget).unwrap();
        assert_eq!(plain.dist, checked.dist);
    }

    #[test]
    fn watchdog_trip_carries_a_checkpoint_with_partial_progress() {
        let g = CsrGraph::from_edge_list(&path(16)).unwrap();
        let err = fused_checked(&g, 0, 1.0, &mut RunBudget::with_limit(6))
            .unwrap_err();
        let cp = err.checkpoint().expect("checked fused runs checkpoint on trip");
        assert!(cp.resumable);
        // Everything certified settled must match the full run exactly.
        let full = delta_stepping_fused(&g, 0, 1.0);
        for (v, d) in cp.settled_distances() {
            assert_eq!(d.to_bits(), full.dist[v].to_bits(), "vertex {v}");
        }
    }

    #[test]
    fn different_sources_agree_with_dijkstra() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 7)).unwrap();
        for src in [0, 17, 34] {
            let fu = delta_stepping_fused(&g, src, 1.0);
            let dj = dijkstra(&g, src);
            assert_eq!(fu.dist, dj.dist, "source {src}");
        }
    }
}
