//! The prepared graph: what every run on a graph needs and no run should
//! pay for again, computed once per graph.
//!
//! A served request used to re-derive all of it: the content fingerprint
//! (a pass over the whole CSR), the weight verdict of preflight and the
//! maximum weight of the epoch budget (two more passes over the weights),
//! and a light/heavy split that copied every edge once per Δ. A
//! [`PreparedGraph`] holds the first three and makes the fourth cheap: its
//! adjacency is the graph's rows sorted by weight, so for any Δ the light
//! edges of a row (`w <= Δ`) are its prefix and the heavy edges its
//! suffix. A [`Split`] is then one partition point per row, found by a
//! binary search per row, instead of a 16-byte-per-edge copy of `A_L` /
//! `A_H` — and nothing at all when no edge is heavy.
//!
//! Preparation is one pass over the rows
//! ([`CsrGraph::weight_sorted_rows`]): the sort, on one packed integer
//! key per edge (rows already in order are copied), plus a weight scan
//! read off each sorted row's ends — the verdict, the maximum and the
//! smallest positive weight, equal bit for bit to
//! [`CsrGraph::weight_scan`]'s.
//!
//! The graph owns its splits ([`PreparedGraph::split_for`]):
//!
//! * **One all-light split**, made in O(1) at preparation when the weights
//!   pass preflight. Every Δ at or above the largest weight (every served
//!   unit-weight graph at Δ = 1) gets it: no heavy edge, no point stored,
//!   and its pull (CSC) index, built on the first pulled epoch (a dense
//!   one, when every weight is the same), is the graph's own transpose —
//!   one per graph, shared by every such Δ, every worker and every
//!   request, and counted in
//!   [`PreparedGraph::resident_bytes`]. A NaN weight, which the maximum
//!   weight does not see, sorts last as a heavy edge; such a graph fails
//!   preflight and never takes this path.
//! * **One slot** for the most recent Δ whose split has heavy edges: its
//!   partition points and, built lazily, its light-only pull index. The
//!   first caller for a Δ builds it once, while concurrent same-Δ callers
//!   wait on its cell; another Δ replaces it. A run keeps its own `Arc`,
//!   so a replacement never pulls a split from under it.
//!
//! So split state is bounded by the graph itself: one transpose and one
//! split with heavy edges per prepared graph, whatever Δ values clients
//! name. The price is that alternating two Δ values below the largest
//! weight rebuilds the split on every flip. [`SplitStats`] counts builds,
//! hits, replacements and the slot's bytes.
//!
//! Nothing a run computes depends on the order of a row's edges: `dist`
//! is a min over the same multiset of candidates, `relaxations` counts
//! edges and `improvements` is counted after the request merge, so
//! distances and every [`crate::SsspStats`] counter are the ones the
//! as-loaded row order gives.
//!
//! The prepared graph also copies the graph's symmetry flag
//! ([`CsrGraph::is_symmetric`], decided when the graph was built, so
//! preparation makes no pass for it) and keeps it when [`PreparedGraph::load`]
//! drops the arrays. Every view of a split reads it
//! ([`SplitView::is_symmetric`]): on a symmetric graph a heavy row is also
//! its vertex's heavy in-row, so a heavy phase can pull through the rows
//! themselves ([`crate::pull`]).
//!
//! The fingerprint is always the **as-loaded** graph's: checkpoints and
//! manifests carry it, so it is never recomputed from the sorted rows. A
//! registry prepares the graph it owns with [`PreparedGraph::load`]
//! (fingerprint first; the graph's own edge arrays are dropped once the
//! sorted adjacency is built); an engine over a borrowed graph uses
//! [`PreparedGraph::new`], which takes the fingerprint lazily, on the
//! first checkpoint that needs it.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
// lint:allow(hot-path-lock): per-request, per-graph split slot
use std::sync::{Arc, Mutex, OnceLock};

use graphdata::CsrGraph;

use crate::budget;
use crate::delta::meyer_sanders;
use crate::fused::LightHeavy;
use crate::guard::{self, GuardConfig, SsspError};
use crate::pull::PullIndex;

/// Where a prepared graph's as-loaded fingerprint comes from.
#[derive(Debug)]
enum Fingerprint<'g> {
    /// Taken at [`PreparedGraph::load`], before the rows were sorted.
    Known(u64),
    /// Taken on first use from the borrowed, as-loaded graph.
    Lazy(&'g CsrGraph, OnceLock<u64>),
}

/// What a prepared graph's splits have cost so far. A registry sums them
/// ([`Sum`](std::iter::Sum)) into its `cache_*` STATS.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SplitStats {
    /// Splits with heavy edges built: the slot held another Δ, or none.
    pub builds: usize,
    /// Fetches that built nothing: the all-light split, or the slot's.
    pub hits: usize,
    /// Times the slot's split made way for another Δ's.
    pub replacements: usize,
    /// Heap bytes the slot's split holds: its partition points and, once
    /// a dense epoch has built it, its light-only pull index.
    pub resident_bytes: usize,
}

impl std::iter::Sum for SplitStats {
    fn sum<I: Iterator<Item = SplitStats>>(iter: I) -> SplitStats {
        iter.fold(SplitStats::default(), |a, b| SplitStats {
            builds: a.builds + b.builds,
            hits: a.hits + b.hits,
            replacements: a.replacements + b.replacements,
            resident_bytes: a.resident_bytes + b.resident_bytes,
        })
    }
}

/// The slot's Δ and the cell its one build fills.
#[derive(Debug)]
struct SlotEntry {
    delta_bits: u64,
    cell: Arc<OnceLock<Arc<Split>>>,
}

/// One graph, prepared for any number of runs: rows sorted by weight,
/// the as-loaded fingerprint, the weight verdict, the maximum weight and
/// the graph's splits.
#[derive(Debug)]
pub struct PreparedGraph<'g> {
    /// Row boundaries, as the graph's [`CsrGraph::offsets`].
    offsets: Cow<'g, [usize]>,
    /// `(target, weight)` pairs, every row sorted by weight
    /// ([`CsrGraph::weight_sorted_rows`]).
    adj: Vec<(usize, f64)>,
    fingerprint: Fingerprint<'g>,
    /// Preflight's weight verdict: the first invalid edge in as-loaded
    /// row order.
    weights: Result<(), SsspError>,
    max_weight: f64,
    /// [`CsrGraph::is_symmetric`] of the graph as loaded, kept after
    /// [`PreparedGraph::load`] drops its arrays.
    symmetric: bool,
    /// The Meyer–Sanders Δ, for [`GuardConfig::delta_fallback`].
    fallback_delta: f64,
    /// The split of every Δ at or above `max_weight`, when the weights
    /// passed preflight; its pull index is the whole graph transposed.
    all_light: Option<Arc<Split>>,
    /// The split of the most recent Δ with heavy edges.
    // lint:allow(hot-path-lock): per-request, per-graph split slot
    slot: Mutex<Option<SlotEntry>>,
    builds: AtomicUsize,
    hits: AtomicUsize,
    replacements: AtomicUsize,
}

impl PreparedGraph<'static> {
    /// Prepare a graph the caller hands over — what a registry does once
    /// per `LOAD`: fingerprint the rows as loaded, sort the adjacency and
    /// scan the weights in one pass, and keep only the offsets of the
    /// original.
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
    /// Prepare a borrowed graph: one pass over the rows for the sorted
    /// copy of the adjacency and the weight scan. The fingerprint is
    /// taken from `g` on first use.
    pub fn new(g: &'g CsrGraph) -> Self {
        let lazy = Fingerprint::Lazy(g, OnceLock::new());
        PreparedGraph::prepare(g, Cow::Borrowed(g.offsets()), lazy)
    }

    fn prepare(g: &CsrGraph, offsets: Cow<'g, [usize]>, fingerprint: Fingerprint<'g>) -> Self {
        let (adj, scan) = g.weight_sorted_rows();
        let weights = guard::weights_verdict(&scan);
        // Every edge is light: one weight when the extremes meet, read off
        // the scan rather than a pass over the rows.
        let one_weight = g.num_edges() == 0 || scan.min_weight == scan.max_weight;
        let all_light = weights
            .is_ok()
            .then(|| Arc::new(Split::all_light(g.num_vertices(), g.num_edges(), one_weight)));
        PreparedGraph {
            offsets,
            adj,
            fingerprint,
            weights,
            max_weight: scan.max_weight,
            symmetric: g.is_symmetric(),
            fallback_delta: meyer_sanders(
                g.mean_degree(),
                scan.max_weight,
                scan.min_positive_weight,
            ),
            all_light,
            // lint:allow(hot-path-lock): per-request, per-graph split slot
            slot: Mutex::default(),
            builds: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            replacements: AtomicUsize::new(0),
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

    /// The as-loaded graph's content fingerprint: the binding stamp of
    /// checkpoints and manifests.
    pub fn fingerprint(&self) -> u64 {
        match &self.fingerprint {
            Fingerprint::Known(fp) => *fp,
            Fingerprint::Lazy(g, fp) => *fp.get_or_init(|| g.fingerprint()),
        }
    }

    /// Heap bytes the prepared graph holds: its offsets (borrowed ones
    /// too), its sorted rows and, once a dense epoch has built it, its
    /// transpose. The slot's split is reported by
    /// [`PreparedGraph::split_stats`].
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.adj.capacity() * std::mem::size_of::<(usize, f64)>()
            + self.all_light.as_ref().map_or(0, |s| s.resident_bytes())
    }

    /// The largest edge weight, as [`CsrGraph::max_weight`] reports it.
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }

    /// Whether the graph as loaded is exactly symmetric
    /// ([`CsrGraph::is_symmetric`]): then every weight-sorted row is also
    /// its vertex's in-row, and the stepping loop may pull a heavy phase
    /// through it ([`crate::pull`]).
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
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

    /// The split at `delta` and whether this call built it: the graph's
    /// all-light split when `delta` is at or above the largest weight,
    /// the slot's split otherwise — built here when the slot holds
    /// another Δ (which it then replaces) or none.
    pub fn split_for(&self, delta: f64) -> (Arc<Split>, bool) {
        if let Some(all_light) = self.all_light.as_ref().filter(|_| delta >= self.max_weight) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(all_light), false);
        }
        let bits = delta.to_bits();
        let cell = {
            let mut slot = self.slot.lock().expect("split slot lock");
            match slot.as_ref() {
                Some(entry) if entry.delta_bits == bits => Arc::clone(&entry.cell),
                held => {
                    if held.is_some() {
                        self.replacements.fetch_add(1, Ordering::Relaxed);
                    }
                    let cell = Arc::new(OnceLock::new());
                    *slot = Some(SlotEntry { delta_bits: bits, cell: Arc::clone(&cell) });
                    cell
                }
            }
        };
        let mut built = false;
        let split = Arc::clone(cell.get_or_init(|| {
            built = true;
            Arc::new(self.split(delta))
        }));
        let counter = if built { &self.builds } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        (split, built)
    }

    /// This graph's split counters, and the bytes its slot holds.
    pub fn split_stats(&self) -> SplitStats {
        let slot = self.slot.lock().expect("split slot lock");
        SplitStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            replacements: self.replacements.load(Ordering::Relaxed),
            resident_bytes: slot
                .as_ref()
                .and_then(|entry| entry.cell.get())
                .map_or(0, |split| split.resident_bytes()),
        }
    }

    /// Build the split at `delta`, one binary search per row, and keep it
    /// nowhere: runs fetch theirs with [`PreparedGraph::split_for`].
    pub fn split(&self, delta: f64) -> Split {
        let n = self.num_vertices();
        let mut bounds = Vec::with_capacity(2 * n + 1);
        for v in 0..n {
            let start = self.offsets[v];
            bounds.push(start);
            bounds.push(start + self.row(v).partition_point(|&(_, w)| w <= delta));
        }
        bounds.push(self.num_edges());
        let light = bounds.chunks_exact(2).map(|b| &self.adj[b[0]..b[1]]);
        let one_light_weight = one_weight(light);
        Split::from_bounds(bounds, one_light_weight)
    }
}

/// Whether every edge of `rows`, each sorted by weight, has one weight
/// (vacuously so when there are none): O(1) per row, from its ends.
fn one_weight<'a>(rows: impl Iterator<Item = &'a [(usize, f64)]>) -> bool {
    let mut weight = None;
    rows.filter_map(|row| Some((row.first()?.1, row.last()?.1))).all(|(lo, hi)| {
        let w = *weight.get_or_insert(lo);
        lo == w && hi == w
    })
}

/// The light/heavy split of a prepared graph at one Δ: for each row, its
/// start and its partition point — where the edges with `w <= Δ` end.
/// Row `v`'s light edges (`A_L`) run from `bounds[2v]` to `bounds[2v + 1]`
/// and its heavy edges (`A_H`) from there to `bounds[2v + 2]`, the next
/// row's start: `2n + 1` words whatever the edge count, and one cache line
/// read per row in either phase. When every edge is light (Δ at or above
/// every weight — unit weights at Δ = 1) the rows are the light edges and
/// no point is stored.
///
/// The split also records whether every light edge has the same weight.
/// Only then can a pull row stop early ([`crate::pull`]): each frontier
/// vertex's candidates sit at `dist[u] + w`, and a row stops at the first
/// one at or below `lower + min_w`, which with one weight is any parent
/// at the frontier's lowest distance — on unit weights at Δ = 1, every
/// parent. With several light weights a row almost never meets that
/// floor and reads every light in-edge of every open target, so the
/// stepping loop pushes instead ([`SplitView::one_light_weight`]).
#[derive(Debug)]
pub struct Split {
    /// `None` when no edge is heavy.
    bounds: Option<Vec<usize>>,
    num_vertices: usize,
    num_light: usize,
    /// The most heavy edges any one row has (0 when none is heavy).
    max_heavy_degree: usize,
    /// Every light edge has one weight (vacuously, when there is none).
    one_light_weight: bool,
    /// The pull (CSC) index over the light edges, built on the split's
    /// first dense epoch and kept for its lifetime. For a prepared
    /// graph's all-light split this is the graph's transpose.
    pull: OnceLock<PullIndex>,
}

impl PartialEq for Split {
    /// Split equality is partition-point equality, and the weight flag
    /// the points imply; the pull index is a cache derived from them.
    fn eq(&self, other: &Self) -> bool {
        (&self.bounds, self.num_vertices, self.num_light, self.one_light_weight)
            == (&other.bounds, other.num_vertices, other.num_light, other.one_light_weight)
    }
}

impl Split {
    fn from_bounds(bounds: Vec<usize>, one_light_weight: bool) -> Split {
        let num_light = bounds
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| c[1] - c[0])
            .sum();
        if bounds.last() == Some(&num_light) {
            return Split::all_light(bounds.len() / 2, num_light, one_light_weight);
        }
        let max_heavy_degree = bounds[1..].chunks_exact(2).map(|c| c[1] - c[0]).max().unwrap_or(0);
        Split {
            num_vertices: bounds.len() / 2,
            bounds: Some(bounds),
            num_light,
            max_heavy_degree,
            one_light_weight,
            pull: OnceLock::new(),
        }
    }

    /// The split of a graph with `n` vertices and `m` edges, all light.
    fn all_light(n: usize, m: usize, one_light_weight: bool) -> Split {
        Split {
            bounds: None,
            num_vertices: n,
            num_light: m,
            max_heavy_degree: 0,
            one_light_weight,
            pull: OnceLock::new(),
        }
    }

    /// Heap bytes the split holds: its partition points (none when no
    /// edge is heavy) and, once a dense epoch has built it, its pull
    /// index.
    pub fn resident_bytes(&self) -> usize {
        self.bounds.as_ref().map_or(0, |b| b.len() * std::mem::size_of::<usize>())
            + self.pull.get().map_or(0, PullIndex::resident_bytes)
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
            symmetric: g.symmetric,
        }
    }
}

impl From<LightHeavy> for Split {
    /// The partition points a copied split implies. Row `v` starts after
    /// every light and heavy edge of the rows before it, at
    /// `light_off[v] + heavy_off[v]`, and holds `light_off[v + 1] -
    /// light_off[v]` light edges in any row order — the same bounds
    /// [`PreparedGraph::split`] finds in the sorted rows. Its light
    /// weights are in no order, so the weight flag reads them all.
    fn from(lh: LightHeavy) -> Split {
        let n = lh.light_off.len() - 1;
        let mut bounds = Vec::with_capacity(2 * n + 1);
        for v in 0..n {
            bounds.push(lh.light_off[v] + lh.heavy_off[v]);
            bounds.push(lh.light_off[v + 1] + lh.heavy_off[v]);
        }
        bounds.push(lh.light_off[n] + lh.heavy_off[n]);
        let one_light_weight = lh.light_w.first().is_none_or(|&w| lh.light_w.iter().all(|&x| x == w));
        Split::from_bounds(bounds, one_light_weight)
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
    /// The prepared graph's [`PreparedGraph::is_symmetric`].
    symmetric: bool,
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

    /// Total heavy edges.
    pub fn num_heavy(&self) -> usize {
        self.adj.len() - self.split.num_light
    }

    /// The most heavy edges any one row has: `k` vertices carry at most
    /// `k` times as many heavy edges.
    pub fn max_heavy_degree(&self) -> usize {
        self.split.max_heavy_degree
    }

    /// Whether the graph is exactly symmetric. A heavy edge is heavy both
    /// ways then (its reverse has the same weight), so `heavy(v)` is also
    /// `v`'s heavy in-row, lightest first: what a heavy pull reads.
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Whether any row has a heavy edge.
    pub fn has_heavy_edges(&self) -> bool {
        self.bounds.is_some()
    }

    /// Whether every light edge has the same weight: the only splits
    /// whose pull rows can stop early ([`Split`]).
    pub fn one_light_weight(&self) -> bool {
        self.split.one_light_weight
    }

    /// The split's pull (CSC) index over the light edges, built on the
    /// first dense epoch that needs it. Over a prepared graph's all-light
    /// split the light edges are the graph's, so this is the graph's
    /// transpose, shared by every Δ at or above the largest weight.
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

    /// Every Δ at or above the maximum weight fetches the graph's one
    /// all-light split, built by nobody and counted as a hit; every Δ
    /// below it goes through the slot — on unit and on real weights.
    #[test]
    fn every_delta_at_or_above_the_max_weight_fetches_the_one_all_light_split() {
        let unit = CsrGraph::from_edge_list(&gen::grid2d(6, 6)).unwrap();
        for g in [unit, weighted()] {
            let prep = PreparedGraph::new(&g);
            let max = prep.max_weight();
            let (all_light, built) = prep.split_for(max);
            assert!(!built && all_light.bounds.is_none());
            assert_eq!(all_light.num_light(), g.num_edges());
            for delta in [max, 1.5 * max, f64::MAX, f64::INFINITY] {
                let (split, built) = prep.split_for(delta);
                assert!(!built && Arc::ptr_eq(&split, &all_light), "delta {delta}");
                assert_eq!(prep.split(delta), *all_light, "delta {delta}");
            }
            for delta in [0.5 * max, max * (1.0 - f64::EPSILON)] {
                let (split, built) = prep.split_for(delta);
                assert!(built && split.bounds.is_some(), "delta {delta}");
            }
            let stats = prep.split_stats();
            assert_eq!((stats.builds, stats.hits, stats.replacements), (2, 5, 1));
        }
    }

    /// A NaN weight is invisible to the maximum weight but sorts last, as
    /// a heavy edge: such a graph never takes the all-light path, and each
    /// Δ — even at or above the maximum — goes through the slot.
    #[test]
    fn a_nan_weight_graph_never_takes_the_all_light_path() {
        let nan = CsrGraph::from_raw_parts_unchecked(
            3,
            vec![0, 2, 3, 3],
            vec![1, 2, 0],
            vec![f64::NAN, 1.0, 1.0],
        );
        let prep = PreparedGraph::new(&nan);
        assert_eq!(prep.max_weight(), 1.0);
        for delta in [1.0, 2.0] {
            let (split, built) = prep.split_for(delta);
            assert!(built, "Δ = {delta} builds its own split");
            assert!(split.bounds.is_some(), "the NaN edge is heavy at Δ = {delta}");
            assert_eq!(split.num_light(), 2);
        }
        assert_eq!(prep.split_stats().replacements, 1);
    }

    /// Two views over one prepared graph alternating Δ = a, b, a below the
    /// maximum weight: each flip replaces the slot and rebuilds, and the
    /// rebuilt split equals the first. A repeated Δ is a hit, and a run
    /// holding a replaced split keeps it.
    #[test]
    fn alternating_deltas_rebuild_the_one_slot_on_each_flip() {
        let g = weighted();
        let prep = PreparedGraph::new(&g);
        let (a, b) = (0.5, 1.0);
        let (first, built_a) = prep.split_for(a);
        let (second, built_b) = prep.split_for(b);
        let (third, rebuilt_a) = prep.split_for(a);
        assert!(built_a && built_b && rebuilt_a, "every flip rebuilds");
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(*first, *third);
        assert_ne!(*first, *second);
        let (again, built) = prep.split_for(a);
        assert!(!built && Arc::ptr_eq(&again, &third));
        let stats = prep.split_stats();
        assert_eq!((stats.builds, stats.hits, stats.replacements), (3, 1, 2));
        assert_eq!(stats.resident_bytes, third.resident_bytes());
        // The replaced splits are still whole for whoever holds them.
        for split in [&first, &second] {
            let view = split.on(&prep);
            let light: usize = (0..g.num_vertices()).map(|v| view.light_degree(v)).sum();
            assert_eq!(light, split.num_light());
        }
    }

    #[test]
    fn concurrent_same_key_requests_build_exactly_once() {
        let g = weighted();
        let prep = PreparedGraph::new(&g);
        let builds: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| usize::from(prep.split_for(1.0).1)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(builds, 1);
        let stats = prep.split_stats();
        assert_eq!((stats.builds, stats.hits, stats.replacements), (1, 7, 0));
    }

    /// The all-light split's pull index is the graph's transpose: one for
    /// every Δ at or above the maximum weight, counted in the graph's
    /// bytes. A split with heavy edges builds its own light-only index,
    /// counted in the slot's bytes.
    #[test]
    fn all_light_deltas_share_the_graphs_transpose() {
        let unit = PreparedGraph::load(CsrGraph::from_edge_list(&gen::grid2d(8, 8)).unwrap());
        let before = unit.resident_bytes();
        let (one, two) = (unit.split_for(1.0).0, unit.split_for(2.5).0);
        let index = one.on(&unit).pull_index();
        assert!(std::ptr::eq(index, two.on(&unit).pull_index()));
        assert_eq!(*index, PullIndex::build(unit.split(1.0).on(&unit)));
        assert_eq!(unit.resident_bytes(), before + index.resident_bytes());
        assert_eq!(unit.split_stats().resident_bytes, 0);

        let g = weighted();
        let prep = PreparedGraph::new(&g);
        let (split, _) = prep.split_for(1.0);
        let points = split.resident_bytes();
        assert_eq!(points, 8 * (2 * g.num_vertices() + 1));
        let own = split.on(&prep).pull_index();
        assert!(prep.all_light.as_ref().unwrap().pull.get().is_none(), "no transpose built");
        assert_eq!(own.resident_bytes(), PullIndex::bytes_for(g.num_vertices(), split.num_light()));
        assert_eq!(prep.split_stats().resident_bytes, points + own.resident_bytes());
    }

    /// The weight flag of every split `prep` makes at each of `deltas` —
    /// the built one, the fetched one, and the one a copied split implies
    /// — against a walk over the split's light edges.
    fn one_light_weight_at(g: &CsrGraph, deltas: &[f64]) -> Vec<bool> {
        let prep = PreparedGraph::new(g);
        let flag = |delta: f64| {
            let split = prep.split(delta);
            let view = split.on(&prep);
            let mut light = (0..g.num_vertices()).flat_map(|v| view.light(v)).map(|&(_, w)| w);
            let brute = light.next().is_none_or(|w| light.all(|x| x == w));
            assert_eq!(view.one_light_weight(), brute, "Δ = {delta}");
            assert_eq!(prep.split_for(delta).0.on(&prep).one_light_weight(), brute, "Δ = {delta}");
            assert_eq!(Split::from(LightHeavy::build(g, delta)), split, "Δ = {delta}");
            brute
        };
        deltas.iter().map(|&delta| flag(delta)).collect()
    }

    #[test]
    fn the_split_knows_whether_its_light_edges_share_one_weight() {
        // Unit weights: all light, or (below 1) none.
        let unit = CsrGraph::from_edge_list(&gen::grid2d(6, 6)).unwrap();
        assert_eq!(one_light_weight_at(&unit, &[0.5, 1.0, 4.0]), [true; 3]);
        // Uniform real weights in [0.1, 2.0): several below every Δ that
        // has light edges at all.
        assert_eq!(
            one_light_weight_at(&weighted(), &[0.05, 0.5, 1.0, 5.0]),
            [true, false, false, false]
        );
        // Two weights: one light weight with Δ between them.
        let mut el = gen::gnm(60, 400, 9);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformInt { lo: 1, hi: 2 },
            4,
        );
        let two = CsrGraph::from_edge_list(&el).unwrap();
        assert_eq!(one_light_weight_at(&two, &[0.5, 1.0, 1.5, 2.0]), [true, true, true, false]);
        // A zero weight beside a positive one is two weights.
        let zero = CsrGraph::from_raw_parts(
            3,
            vec![0, 2, 3, 4],
            vec![1, 2, 2, 0],
            vec![0.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        assert_eq!(one_light_weight_at(&zero, &[0.0, 0.5, 1.0, 2.0]), [true, true, false, false]);
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

    /// Both doors copy the graph's symmetry flag; `load` keeps it after
    /// it drops the arrays, and every view of every split reads it.
    #[test]
    fn the_symmetry_flag_survives_both_doors() {
        let g = weighted();
        let mut triples: Vec<_> = g.iter_edges().collect();
        let nudge = &mut triples.iter_mut().find(|e| e.0 < e.1).unwrap().2;
        *nudge = f64::from_bits(nudge.to_bits() + 1);
        let twin = CsrGraph::from_edge_list(&graphdata::EdgeList::from_triples(triples)).unwrap();
        for (graph, symmetric) in [(g, true), (twin, false)] {
            assert_eq!(graph.is_symmetric(), symmetric);
            let borrowed = PreparedGraph::new(&graph);
            let loaded = PreparedGraph::load(graph.clone());
            for prep in [&borrowed, &loaded] {
                assert_eq!(prep.is_symmetric(), symmetric);
                for delta in [0.5, 5.0] {
                    assert_eq!(prep.split_for(delta).0.on(prep).is_symmetric(), symmetric, "Δ = {delta}");
                }
            }
            assert_eq!(loaded.fingerprint(), graph.fingerprint());
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
