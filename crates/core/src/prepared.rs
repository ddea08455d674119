//! The prepared graph: what every run on a graph needs and no run should
//! pay for again, computed once per graph.
//!
//! A served request used to re-derive all of it: the content fingerprint
//! (a pass over the whole CSR), the weight verdict of preflight and the
//! maximum weight of the epoch budget (two more passes over the weights),
//! and a light/heavy split that copied every edge once per Δ. A
//! [`PreparedGraph`] holds the first three, the weights taken in one pass,
//! and makes the fourth cheap: its adjacency is the graph's rows sorted by
//! weight ([`CsrGraph::weight_sorted_adjacency`]), so for any Δ the light
//! edges of a row (`w <= Δ`) are its prefix and the heavy edges its
//! suffix. A [`Split`] is then one partition point per row, found by a
//! binary search per row, instead of a 16-byte-per-edge copy of `A_L` /
//! `A_H` — and nothing at all when no edge is heavy.
//!
//! Nothing a run computes depends on the order of a row's edges: `dist`
//! is a min over the same multiset of candidates, `relaxations` counts
//! edges and `improvements` is counted after the request merge, so
//! distances and every [`crate::SsspStats`] counter are the ones the
//! as-loaded row order gives.
//!
//! The fingerprint is always the **as-loaded** graph's: checkpoints and
//! manifests carry it, so it is never recomputed from the sorted rows. A
//! registry prepares the graph it owns with [`PreparedGraph::load`]
//! (fingerprint first; the graph's own edge arrays are dropped once the
//! sorted adjacency is built); an engine over a borrowed graph uses
//! [`PreparedGraph::new`], which takes the fingerprint lazily, on the
//! first checkpoint or shared-cache lookup that needs it.

use std::borrow::Cow;
use std::sync::OnceLock;

use graphdata::CsrGraph;

use crate::budget;
use crate::delta::meyer_sanders;
use crate::fused::LightHeavy;
use crate::guard::{self, GuardConfig, SsspError};
use crate::pull::PullIndex;

/// Where a prepared graph's as-loaded fingerprint comes from.
#[derive(Debug, Clone)]
enum Fingerprint<'g> {
    /// Taken at [`PreparedGraph::load`], before the rows were sorted.
    Known(u64),
    /// Taken on first use from the borrowed, as-loaded graph.
    Lazy(&'g CsrGraph, OnceLock<u64>),
}

/// One graph, prepared for any number of runs: rows sorted by weight,
/// the as-loaded fingerprint, the weight verdict and the maximum weight.
#[derive(Debug, Clone)]
pub struct PreparedGraph<'g> {
    /// Row boundaries, as the graph's [`CsrGraph::offsets`].
    offsets: Cow<'g, [usize]>,
    /// `(target, weight)` pairs, every row sorted by weight
    /// ([`CsrGraph::weight_sorted_adjacency`]).
    adj: Vec<(usize, f64)>,
    fingerprint: Fingerprint<'g>,
    /// Preflight's weight verdict: the first invalid edge in as-loaded
    /// row order.
    weights: Result<(), SsspError>,
    max_weight: f64,
    /// The Meyer–Sanders Δ, for [`GuardConfig::delta_fallback`].
    fallback_delta: f64,
}

impl PreparedGraph<'static> {
    /// Prepare a graph the caller hands over — what a registry does once
    /// per `LOAD`: fingerprint the rows as loaded, scan the weights, sort
    /// the adjacency, and keep only the offsets of the original.
    pub fn load(g: CsrGraph) -> Self {
        let fingerprint = g.fingerprint();
        PreparedGraph::load_with_fingerprint(g, fingerprint)
    }

    /// [`PreparedGraph::load`] for a caller that already took
    /// `g.fingerprint()` — a registry decides whether to keep the graph
    /// by its fingerprint before it pays for the rest. `fingerprint` must
    /// be that value: checkpoints and manifests are bound to it.
    pub fn load_with_fingerprint(g: CsrGraph, fingerprint: u64) -> Self {
        let fingerprint = Fingerprint::Known(fingerprint);
        let prepared = PreparedGraph::prepare(&g, Cow::Owned(Vec::new()), fingerprint);
        let (_, offsets, _, _) = g.into_parts();
        PreparedGraph {
            offsets: Cow::Owned(offsets),
            ..prepared
        }
    }
}

impl<'g> PreparedGraph<'g> {
    /// Prepare a borrowed graph: one pass over the weights and one sorted
    /// copy of the adjacency. The fingerprint is taken from `g` on first
    /// use.
    pub fn new(g: &'g CsrGraph) -> Self {
        let lazy = Fingerprint::Lazy(g, OnceLock::new());
        PreparedGraph::prepare(g, Cow::Borrowed(g.offsets()), lazy)
    }

    fn prepare(g: &CsrGraph, offsets: Cow<'g, [usize]>, fingerprint: Fingerprint<'g>) -> Self {
        let scan = g.weight_scan();
        PreparedGraph {
            offsets,
            adj: g.weight_sorted_adjacency(),
            fingerprint,
            weights: guard::weights_verdict(&scan),
            max_weight: scan.max_weight,
            fallback_delta: meyer_sanders(
                g.mean_degree(),
                scan.max_weight,
                scan.min_positive_weight,
            ),
        }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// The out-edges of `v` as `(target, weight)` pairs, lightest first.
    pub(crate) fn row(&self, v: usize) -> &[(usize, f64)] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The as-loaded graph's content fingerprint: the graph half of
    /// shared split-cache keys and the binding stamp of checkpoints and
    /// manifests.
    pub fn fingerprint(&self) -> u64 {
        match &self.fingerprint {
            Fingerprint::Known(fp) => *fp,
            Fingerprint::Lazy(g, fp) => *fp.get_or_init(|| g.fingerprint()),
        }
    }

    /// The largest edge weight, as [`CsrGraph::max_weight`] reports it.
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }

    /// [`guard::preflight`] without its weight pass: the source and Δ
    /// checks run per call, the weight verdict is the one taken at
    /// preparation.
    pub fn preflight(
        &self,
        source: usize,
        delta: f64,
        cfg: &GuardConfig,
    ) -> Result<f64, SsspError> {
        let (n, weights, fallback) = (self.num_vertices(), &self.weights, self.fallback_delta);
        guard::check_inputs(n, weights, fallback, source, delta, cfg)
    }

    /// The epoch limit of [`crate::RunBudget::for_run`] at `delta`, from
    /// the cached maximum weight.
    pub fn epoch_limit(&self, delta: f64, cfg: &GuardConfig) -> u64 {
        budget::epoch_limit(self.num_vertices(), self.max_weight, delta, cfg)
    }

    /// Build the split at `delta`: one binary search per row.
    pub fn split(&self, delta: f64) -> Split {
        let n = self.num_vertices();
        let mut bounds = Vec::with_capacity(2 * n + 1);
        for v in 0..n {
            let start = self.offsets[v];
            bounds.push(start);
            bounds.push(start + self.row(v).partition_point(|&(_, w)| w <= delta));
        }
        bounds.push(self.num_edges());
        Split::from_bounds(bounds)
    }
}

/// The light/heavy split of a prepared graph at one Δ: for each row, its
/// start and its partition point — where the edges with `w <= Δ` end.
/// Row `v`'s light edges (`A_L`) run from `bounds[2v]` to `bounds[2v + 1]`
/// and its heavy edges (`A_H`) from there to `bounds[2v + 2]`, the next
/// row's start: `2n + 1` words whatever the edge count, and one cache line
/// read per row in either phase. When every edge is light (Δ at or above
/// every weight — unit weights at Δ = 1) the rows are the light edges and
/// no point is stored.
#[derive(Debug)]
pub struct Split {
    /// `None` when no edge is heavy.
    bounds: Option<Vec<usize>>,
    num_vertices: usize,
    num_light: usize,
    /// The pull (CSC) index over the light edges, built on the first
    /// dense epoch and kept for the split's lifetime.
    pull: OnceLock<PullIndex>,
}

impl PartialEq for Split {
    /// Split equality is partition-point equality; the pull index is a
    /// cache derived from them.
    fn eq(&self, other: &Self) -> bool {
        (&self.bounds, self.num_vertices, self.num_light)
            == (&other.bounds, other.num_vertices, other.num_light)
    }
}

impl Split {
    fn from_bounds(bounds: Vec<usize>) -> Split {
        let num_light = bounds
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| c[1] - c[0])
            .sum();
        let all_light = bounds.last() == Some(&num_light);
        Split {
            num_vertices: bounds.len() / 2,
            bounds: (!all_light).then_some(bounds),
            num_light,
            pull: OnceLock::new(),
        }
    }

    /// Heap bytes the partition points hold (0 when no edge is heavy).
    /// The lazily built pull index is reported separately
    /// ([`Split::pull_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.bounds.as_ref().map_or(0, |b| b.len() * std::mem::size_of::<usize>())
    }

    /// What a byte-budgeted [`crate::split_cache::SplitCache`] charges
    /// for the entry: the partition points and the pull index the split
    /// builds on its first dense epoch, whether or not it has yet. The
    /// index is O(light edges) even when the points are nothing, so a
    /// budget that charged the points alone would bound nothing on a
    /// unit-weight graph.
    pub fn charged_bytes(&self) -> usize {
        self.resident_bytes() + PullIndex::bytes_for(self.num_vertices, self.num_light)
    }

    /// Heap bytes held by the pull index (0 until a dense epoch builds
    /// it).
    pub fn pull_bytes(&self) -> usize {
        self.pull.get().map_or(0, PullIndex::resident_bytes)
    }

    /// Total light edges.
    pub fn num_light(&self) -> usize {
        self.num_light
    }

    /// This split over the prepared graph it partitions.
    pub fn on<'a>(&'a self, g: &'a PreparedGraph<'_>) -> SplitView<'a> {
        debug_assert!(self.bounds.as_ref().is_none_or(|b| b.len() == 2 * g.num_vertices() + 1));
        SplitView {
            adj: &g.adj,
            offsets: &g.offsets,
            bounds: self.bounds.as_deref(),
            split: self,
        }
    }
}

impl From<LightHeavy> for Split {
    /// The partition points a copied split implies. Row `v` starts after
    /// every light and heavy edge of the rows before it, at
    /// `light_off[v] + heavy_off[v]`, and holds `light_off[v + 1] -
    /// light_off[v]` light edges in any row order — the same bounds
    /// [`PreparedGraph::split`] finds in the sorted rows.
    fn from(lh: LightHeavy) -> Split {
        let n = lh.light_off.len() - 1;
        let mut bounds = Vec::with_capacity(2 * n + 1);
        for v in 0..n {
            bounds.push(lh.light_off[v] + lh.heavy_off[v]);
            bounds.push(lh.light_off[v + 1] + lh.heavy_off[v]);
        }
        bounds.push(lh.light_off[n] + lh.heavy_off[n]);
        Split::from_bounds(bounds)
    }
}

/// A [`Split`] together with the sorted adjacency it partitions: what the
/// stepping loop and its kernels read `A_L` / `A_H` through.
#[derive(Debug, Clone, Copy)]
pub struct SplitView<'a> {
    adj: &'a [(usize, f64)],
    offsets: &'a [usize],
    /// The split's bounds; `None` when every edge is light.
    bounds: Option<&'a [usize]>,
    split: &'a Split,
}

impl<'a> SplitView<'a> {
    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Light out-edges of `v`: the prefix of its row.
    #[inline]
    pub fn light(&self, v: usize) -> &'a [(usize, f64)] {
        let b = match self.bounds {
            Some(bounds) => &bounds[2 * v..2 * v + 2],
            None => &self.offsets[v..v + 2],
        };
        &self.adj[b[0]..b[1]]
    }

    /// Heavy out-edges of `v`: the rest of its row.
    #[inline]
    pub fn heavy(&self, v: usize) -> &'a [(usize, f64)] {
        match self.bounds {
            Some(bounds) => &self.adj[bounds[2 * v + 1]..bounds[2 * v + 2]],
            None => &[],
        }
    }

    /// Number of light out-edges of `v`.
    #[inline]
    pub fn light_degree(&self, v: usize) -> usize {
        match self.bounds {
            Some(bounds) => bounds[2 * v + 1] - bounds[2 * v],
            None => self.offsets[v + 1] - self.offsets[v],
        }
    }

    /// Total light edges.
    pub fn num_light(&self) -> usize {
        self.split.num_light
    }

    /// Whether any row has a heavy edge.
    pub fn has_heavy_edges(&self) -> bool {
        self.bounds.is_some()
    }

    /// The pull (CSC) index over the light edges, built on the first
    /// dense epoch and cached in the split, so repeated runs and the
    /// split cache amortize it like the split itself.
    pub fn pull_index(&self) -> &'a PullIndex {
        self.split.pull.get_or_init(|| PullIndex::build(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen;

    fn weighted() -> CsrGraph {
        let mut el = gen::gnm(200, 1500, 5);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
            3,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    #[test]
    fn a_split_holds_the_copied_splits_edges_per_row() {
        let g = weighted();
        let prep = PreparedGraph::new(&g);
        for delta in [0.05, 0.5, 1.0, 1.7, 5.0] {
            let split = prep.split(delta);
            let view = split.on(&prep);
            let lh = LightHeavy::build(&g, delta);
            assert_eq!(split.num_light(), lh.num_light(), "delta {delta}");
            let sorted = |edges: Vec<(usize, f64)>| {
                let mut e: Vec<(usize, u64)> =
                    edges.iter().map(|&(t, w)| (t, w.to_bits())).collect();
                e.sort_unstable();
                e
            };
            let copied = |(ts, ws): (&[usize], &[f64])| {
                sorted(ts.iter().copied().zip(ws.iter().copied()).collect())
            };
            for v in 0..g.num_vertices() {
                assert_eq!(sorted(view.light(v).to_vec()), copied(lh.light(v)), "v={v}");
                assert_eq!(sorted(view.heavy(v).to_vec()), copied(lh.heavy(v)), "v={v}");
                assert_eq!(view.light_degree(v), lh.light(v).0.len());
            }
            assert_eq!(Split::from(lh), split, "delta {delta}");
        }
    }

    #[test]
    fn both_doors_prepare_the_same_rows_under_the_as_loaded_fingerprint() {
        let g = weighted();
        let borrowed = PreparedGraph::new(&g);
        let loaded = PreparedGraph::load(g.clone());
        assert_eq!(borrowed.fingerprint(), g.fingerprint());
        assert_eq!(loaded.fingerprint(), g.fingerprint());
        assert_eq!(loaded.adj, borrowed.adj);
        assert_eq!(loaded.offsets, borrowed.offsets);
        assert_eq!(
            (loaded.num_vertices(), loaded.num_edges()),
            (g.num_vertices(), g.num_edges())
        );
        assert_eq!(loaded.max_weight(), g.max_weight());
        for v in 0..g.num_vertices() {
            let row = loaded.row(v);
            assert!(
                row.windows(2).all(|p| p[0].1 <= p[1].1),
                "row {v} is lightest first"
            );
        }
    }

    #[test]
    fn the_verdict_names_the_first_bad_edge_in_as_loaded_order() {
        // Row 0 as loaded: 1 (NaN), 2 (-2.0). Sorted, the negative weight
        // moves to the front; the verdict still names the NaN.
        let bad = CsrGraph::from_raw_parts_unchecked(
            3,
            vec![0, 2, 3, 3],
            vec![1, 2, 0],
            vec![f64::NAN, -2.0, 1.0],
        );
        let prep = PreparedGraph::load(bad.clone());
        let cfg = GuardConfig::default();
        // (Debug text: a NaN weight is not equal to itself.)
        assert_eq!(
            format!("{:?}", prep.preflight(0, 1.0, &cfg)),
            format!("{:?}", crate::guard::preflight(&bad, 0, 1.0, &cfg))
        );
        assert!(matches!(
            prep.preflight(0, 1.0, &cfg),
            Err(SsspError::NonFiniteWeight { src: 0, dst: 1, .. })
        ));
        assert!(matches!(
            prep.preflight(3, 1.0, &cfg),
            Err(SsspError::SourceOutOfBounds {
                source: 3,
                num_vertices: 3
            })
        ));
    }

    #[test]
    fn the_fallback_delta_is_the_meyer_sanders_rule() {
        let g = weighted();
        let prep = PreparedGraph::new(&g);
        let cfg = GuardConfig {
            delta_fallback: true,
            ..GuardConfig::default()
        };
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                prep.preflight(0, bad, &cfg),
                crate::guard::preflight(&g, 0, bad, &cfg)
            );
        }
        assert_eq!(prep.preflight(0, 0.7, &cfg), Ok(0.7));
    }
}
