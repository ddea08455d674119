//! CSR adjacency: the read-optimized representation consumed by the
//! direct (non-GraphBLAS) SSSP implementations — the counterpart of the
//! paper's "direct C" data layout.
//!
//! A solver prepares a graph in one pass over its rows
//! ([`CsrGraph::weight_sorted_rows`]): each row sorted by weight, and the
//! weight scan a preflight needs read off the sorted rows' ends.
//! [`CsrGraph::weight_scan`] is the same scan without the sort, for
//! one-shot callers.
//!
//! Every constructor also decides, in one cursor pass over the
//! target-ascending rows, whether the adjacency is exactly symmetric
//! ([`CsrGraph::is_symmetric`]): on such a graph a row is also its
//! vertex's in-row, which lets a solver pull through the rows it already
//! holds instead of building a transpose.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::edge_list::EdgeList;
use crate::error::GraphError;

/// Content passes [`CsrGraph::fingerprint`] has made in this process.
static FINGERPRINT_PASSES: AtomicU64 = AtomicU64::new(0);

/// Passes over the weights [`CsrGraph::max_weight`],
/// [`CsrGraph::weight_scan`] and [`CsrGraph::weight_sorted_rows`] have
/// made in this process.
static WEIGHT_PASSES: AtomicU64 = AtomicU64::new(0);

/// The sort key of a weight in a weight-ordered row
/// ([`CsrGraph::weight_sorted_rows`]): the order of [`f64::total_cmp`]
/// with every NaN last, as an integer.
#[inline]
pub(crate) fn weight_key(w: f64) -> u64 {
    if w.is_nan() {
        return u64::MAX;
    }
    let bits = w.to_bits();
    // Negative weights: flip the magnitude so larger magnitudes sort
    // first; then the sign bit, so negatives sort below positives.
    (bits ^ ((((bits as i64) >> 63) as u64) >> 1)) ^ (1 << 63)
}

/// A pair's key in a weight-ordered row: [`weight_key`] above the target,
/// so one integer comparison orders by weight, then target.
#[inline]
fn pack(target: usize, w: f64) -> u128 {
    (u128::from(weight_key(w)) << 64) | target as u128
}

/// The pair [`pack`] made, for any weight but NaN: [`weight_key`] undone.
#[inline]
fn unpack(key: u128) -> (usize, f64) {
    let flipped = ((key >> 64) as u64) ^ (1 << 63);
    let bits = flipped ^ ((((flipped as i64) >> 63) as u64) >> 1);
    (key as u64 as usize, f64::from_bits(bits))
}

/// Whether a weight passes preflight: finite and not negative (`-0.0`
/// passes).
#[inline]
fn valid_weight(w: f64) -> bool {
    w.is_finite() && w >= 0.0
}

/// A [`WeightScan`] gathered from the ends of weight-sorted rows
/// ([`CsrGraph::weight_sorted_rows`]).
#[derive(Debug)]
struct RowEnds {
    max_weight: f64,
    min_weight: f64,
    /// The row whose first weight set `min_weight`.
    min_row: usize,
    min_positive_weight: Option<f64>,
    /// The first row holding an invalid weight.
    invalid_row: Option<usize>,
}

impl Default for RowEnds {
    fn default() -> Self {
        RowEnds {
            max_weight: 0.0,
            min_weight: f64::INFINITY,
            min_row: 0,
            min_positive_weight: None,
            invalid_row: None,
        }
    }
}

impl RowEnds {
    /// Take in row `v`, sorted by weight with every NaN last.
    fn observe(&mut self, v: usize, row: &[(usize, f64)], has_nan: bool) {
        let (Some(&(_, first)), Some(&(_, last))) = (row.first(), row.last()) else {
            return;
        };
        if self.invalid_row.is_none() && !(valid_weight(first) && valid_weight(last)) {
            self.invalid_row = Some(v);
        }
        let values = if has_nan { &row[..row.partition_point(|&(_, w)| !w.is_nan())] } else { row };
        let (Some(&(_, lo)), Some(&(_, hi))) = (values.first(), values.last()) else {
            return;
        };
        self.max_weight = self.max_weight.max(hi);
        if lo < self.min_weight {
            self.min_weight = lo;
            self.min_row = v;
        }
        let positive = if lo > 0.0 {
            Some(lo)
        } else {
            values.get(values.partition_point(|&(_, w)| w <= 0.0)).map(|&(_, w)| w)
        };
        if let Some(w) = positive.filter(|&w| self.min_positive_weight.is_none_or(|m| w < m)) {
            self.min_positive_weight = Some(w);
        }
    }

    /// The scan of `g`, whose rows were observed in order: the first
    /// invalid edge and a zero minimum taken from their rows as loaded.
    fn finish(self, g: &CsrGraph) -> WeightScan {
        let first_in_row = |v: usize, pick: &dyn Fn(f64) -> bool| {
            let (ts, ws) = g.neighbors(v);
            let i = ws.iter().position(|&w| pick(w)).expect("the row's ends hold one");
            (v, ts[i], ws[i])
        };
        let min_weight = if self.min_weight == 0.0 {
            first_in_row(self.min_row, &|w| w == 0.0).2
        } else {
            self.min_weight
        };
        WeightScan {
            first_invalid: self.invalid_row.map(|v| first_in_row(v, &|w| !valid_weight(w))),
            max_weight: self.max_weight,
            min_weight,
            min_positive_weight: self.min_positive_weight,
        }
    }
}

/// What one [`CsrGraph::weight_scan`] pass learns about the weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightScan {
    /// The first edge `(src, dst, weight)` in row-major order whose weight
    /// is NaN, infinite or negative.
    pub first_invalid: Option<(usize, usize, f64)>,
    /// [`CsrGraph::max_weight`], from the same pass.
    pub max_weight: f64,
    /// The smallest weight NaN aside (`∞` when there is none).
    pub min_weight: f64,
    /// The smallest strictly positive weight (`None` when there is none).
    pub min_positive_weight: Option<f64>,
}

/// A weighted digraph in compressed sparse row form. Duplicate edges are
/// collapsed to minimum weight at construction; self-loops are dropped
/// (simple graphs, Sec. II-A).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    num_vertices: usize,
    offsets: Vec<usize>,
    targets: Vec<usize>,
    weights: Vec<f64>,
    /// [`CsrGraph::is_symmetric`], decided at construction.
    symmetric: bool,
}

/// Whether the CSR arrays hold, for every edge `(u, v, w)`, the reverse
/// edge `(v, u, w)` with the same weight bits. One pass over the rows
/// with a cursor per row: row `u` is read once, ascending, and each of
/// its edges to a higher vertex `v` must be the next unmatched entry of
/// row `v`, which then holds exactly the edges to lower vertices,
/// consumed in ascending source order. So every row must be strictly
/// ascending by target, and when the pass reaches row `u` its cursor must
/// stand where its targets reach `u`: every lower edge matched once. A
/// self-loop is its own reverse. Anything else — an unsorted or
/// duplicated target, a missing or reweighted reverse, arrays that do not
/// describe a graph — answers `false`.
fn symmetric_rows(num_vertices: usize, offsets: &[usize], targets: &[usize], weights: &[f64]) -> bool {
    if offsets.len() != num_vertices + 1
        || offsets.last() != Some(&targets.len())
        || targets.len() != weights.len()
        || offsets.windows(2).any(|o| o[0] > o[1])
    {
        return false;
    }
    let mut cursor = offsets[..num_vertices].to_vec();
    for u in 0..num_vertices {
        let (lo, hi) = (offsets[u], offsets[u + 1]);
        let mut first_up = hi;
        for p in lo..hi {
            let v = targets[p];
            if p > lo && targets[p - 1] >= v {
                return false;
            }
            if v < u {
                continue;
            }
            if first_up == hi {
                first_up = p;
            }
            if v == u {
                continue;
            }
            let Some(q) = cursor.get(v).copied().filter(|&q| q < offsets[v + 1]) else {
                return false;
            };
            if targets[q] != u || weights[q].to_bits() != weights[p].to_bits() {
                return false;
            }
            cursor[v] = q + 1;
        }
        if cursor[u] != first_up {
            return false;
        }
    }
    true
}

impl CsrGraph {
    /// Build from an edge list. Validates weights, removes self-loops, and
    /// collapses duplicates to minimum weight.
    pub fn from_edge_list(el: &EdgeList) -> Result<Self, GraphError> {
        el.validate()?;
        let mut cleaned = el.clone();
        cleaned.remove_self_loops();
        cleaned.dedup_min();
        let n = cleaned.num_vertices();
        let mut offsets = vec![0usize; n + 1];
        for e in cleaned.edges() {
            offsets[e.src + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let nnz = cleaned.num_edges();
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; nnz];
        let mut weights = vec![0.0f64; nnz];
        // dedup_min sorted by (src, dst): scatter preserves per-row order.
        for e in cleaned.edges() {
            let p = cursor[e.src];
            cursor[e.src] += 1;
            targets[p] = e.dst;
            weights[p] = e.weight;
        }
        // Freed first, so the symmetry pass's cursors never raise the
        // construction's peak heap.
        drop((cleaned, cursor));
        let symmetric = symmetric_rows(n, &offsets, &targets, &weights);
        Ok(CsrGraph {
            num_vertices: n,
            offsets,
            targets,
            weights,
            symmetric,
        })
    }

    /// Build directly from CSR arrays, validating every structural and
    /// value invariant: `offsets` must be monotone with
    /// `offsets.len() == num_vertices + 1`, start at 0, and end at
    /// `targets.len()`; `targets` must be in range; `weights` must be
    /// finite, non-negative, and parallel to `targets`.
    pub fn from_raw_parts(
        num_vertices: usize,
        offsets: Vec<usize>,
        targets: Vec<usize>,
        weights: Vec<f64>,
    ) -> Result<Self, GraphError> {
        if offsets.len() != num_vertices + 1 {
            return Err(GraphError::InvalidGraph(format!(
                "offsets length {} != num_vertices + 1 = {}",
                offsets.len(),
                num_vertices + 1
            )));
        }
        if offsets[0] != 0 {
            return Err(GraphError::InvalidGraph("offsets must start at 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::InvalidGraph("offsets must be monotone".into()));
        }
        if *offsets.last().expect("len >= 1 checked above") != targets.len() {
            return Err(GraphError::InvalidGraph(format!(
                "offsets end at {} but there are {} targets",
                offsets.last().unwrap(),
                targets.len()
            )));
        }
        if targets.len() != weights.len() {
            return Err(GraphError::InvalidGraph(format!(
                "{} targets vs {} weights",
                targets.len(),
                weights.len()
            )));
        }
        if let Some(&t) = targets.iter().find(|&&t| t >= num_vertices) {
            return Err(GraphError::InvalidGraph(format!(
                "edge target {t} out of range for {num_vertices} vertices"
            )));
        }
        if let Some(&w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(GraphError::InvalidGraph(format!(
                "edge weight {w} is not finite and non-negative"
            )));
        }
        let symmetric = symmetric_rows(num_vertices, &offsets, &targets, &weights);
        Ok(CsrGraph {
            num_vertices,
            offsets,
            targets,
            weights,
            symmetric,
        })
    }

    /// Build from CSR arrays without *value* validation. The structural
    /// invariants (offset monotonicity, lengths, target bounds) must still
    /// hold or later accessors will panic or index out of bounds — but
    /// weights are taken as-is, so callers can construct graphs carrying
    /// NaN, infinite, or negative weights. This exists for robustness
    /// testing (exercising solver-level preflight rejection and
    /// watchdogs on inputs [`CsrGraph::from_edge_list`] refuses to build);
    /// production code should use the validating constructors.
    pub fn from_raw_parts_unchecked(
        num_vertices: usize,
        offsets: Vec<usize>,
        targets: Vec<usize>,
        weights: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), num_vertices + 1);
        debug_assert_eq!(targets.len(), weights.len());
        let symmetric = symmetric_rows(num_vertices, &offsets, &targets, &weights);
        CsrGraph {
            num_vertices,
            offsets,
            targets,
            weights,
            symmetric,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v` with their weights, sorted by target id.
    #[inline]
    pub fn neighbors(&self, v: usize) -> (&[usize], &[f64]) {
        let lo = self.offsets[v];
        let hi = self.offsets[v + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether the adjacency is exactly symmetric: every edge `(u, v, w)`
    /// has a reverse `(v, u, w)` with the same weight bits, every row is
    /// strictly ascending by target, and a self-loop is its own reverse.
    /// Decided once, at construction; a graph the check cannot prove
    /// symmetric (an unsorted or duplicated row of
    /// [`CsrGraph::from_raw_parts_unchecked`] included) answers `false`.
    /// The fingerprint does not cover it: it is a function of the arrays.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Raw offsets array (length `|V| + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw target array.
    #[inline]
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Raw weight array, parallel to [`CsrGraph::targets`].
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Stable 64-bit content fingerprint: FNV-1a over the vertex count,
    /// the offset array, the target array, and the raw weight bits.
    /// Whatever is keyed across graphs (the server's registry in
    /// `sssp-serve`, on-disk checkpoints) uses it to tell two structurally
    /// different graphs apart where a borrowed reference cannot — the same CSR
    /// content always hashes to the same value, in this process or the
    /// next. `O(|V| + |E|)`; callers are expected to compute it once and
    /// keep it ([`CsrGraph::fingerprint_passes`] counts the ones who
    /// don't).
    pub fn fingerprint(&self) -> u64 {
        FINGERPRINT_PASSES.fetch_add(1, Ordering::Relaxed);
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.num_vertices as u64);
        for &o in &self.offsets {
            mix(o as u64);
        }
        for &t in &self.targets {
            mix(t as u64);
        }
        for &w in &self.weights {
            mix(w.to_bits());
        }
        h
    }

    /// How many times this process has paid for a full
    /// [`CsrGraph::fingerprint`] pass, over all graphs. A probe for tests
    /// that pin "hash once, then reuse": the pass is a byte-wise walk of
    /// the whole CSR, so a per-request call is a per-request `O(|E|)`.
    pub fn fingerprint_passes() -> u64 {
        FINGERPRINT_PASSES.load(Ordering::Relaxed)
    }

    /// Iterate all `(src, dst, weight)` edges in row-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.num_vertices).flat_map(move |v| {
            let (ts, ws) = self.neighbors(v);
            ts.iter().zip(ws.iter()).map(move |(&t, &w)| (v, t, w))
        })
    }

    /// Maximum edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> f64 {
        WEIGHT_PASSES.fetch_add(1, Ordering::Relaxed);
        self.weights.iter().copied().fold(0.0, f64::max)
    }

    /// One pass over the weights: the first invalid edge, the largest
    /// and the smallest positive weight — what a solver needs to know
    /// about a graph's weights before its first run, without a second
    /// pass for each.
    pub fn weight_scan(&self) -> WeightScan {
        WEIGHT_PASSES.fetch_add(1, Ordering::Relaxed);
        let mut first_invalid = None;
        let mut max_weight = 0.0f64;
        let mut min_weight = f64::INFINITY;
        let mut min_positive_weight: Option<f64> = None;
        for (i, &w) in self.weights.iter().enumerate() {
            if !valid_weight(w) && first_invalid.is_none() {
                first_invalid = Some(i);
            }
            max_weight = max_weight.max(w);
            if w < min_weight {
                min_weight = w;
            }
            if w > 0.0 && min_positive_weight.is_none_or(|m| w < m) {
                min_positive_weight = Some(w);
            }
        }
        WeightScan {
            first_invalid: first_invalid.map(|i| {
                let src = self.offsets.partition_point(|&o| o <= i) - 1;
                (src, self.targets[i], self.weights[i])
            }),
            max_weight,
            min_weight,
            min_positive_weight,
        }
    }

    /// How many passes over the weights ([`CsrGraph::max_weight`],
    /// [`CsrGraph::weight_scan`], [`CsrGraph::weight_sorted_rows`]) this
    /// process has made, over all graphs:
    /// the probe for tests that pin "scan once per graph, never per run".
    pub fn weight_passes() -> u64 {
        WEIGHT_PASSES.load(Ordering::Relaxed)
    }

    /// The adjacency as `(target, weight)` pairs, row after row as
    /// [`CsrGraph::offsets`] delimits them, each row sorted by weight in
    /// the order of [`f64::total_cmp`] with every NaN last, then by
    /// target; and the [`CsrGraph::weight_scan`] of the same weights, bit
    /// for bit, read off the sorted rows. One pass over the rows for both,
    /// counted once in [`CsrGraph::weight_passes`].
    ///
    /// In every row the edges with `w <= Δ` are a prefix, for every Δ: a
    /// light/heavy split is one partition point per row instead of a copy
    /// of the edges. `total_cmp` keeps `-0.0` beside `+0.0` (raw bits
    /// would sort it after every positive weight), and NaN-last keeps the
    /// prefix property on the unvalidated graphs a NaN weight can reach.
    /// Pairs keep an edge's target and weight on one cache line.
    ///
    /// A row already in order (every unit-weight row: CSR rows are
    /// target-sorted) is copied as it stands. Any other row without a NaN
    /// is sorted as packed `weight_key(w) << 64 | target` integers in a
    /// scratch buffer the size of the largest row; the key is a bijection
    /// on non-NaN weights, so the weight comes back exactly. Every NaN
    /// shares one key, which would lose its sign and payload, so a row
    /// holding one is sorted on `(weight_key, target)` pairs in place.
    ///
    /// The scan takes each row's ends: its largest and smallest non-NaN
    /// weight, and its smallest positive one by a search in the non-NaN
    /// prefix. An invalid weight is negative (at the front) or infinite
    /// or NaN (at the back), so the first row whose ends are invalid holds
    /// the first invalid edge, found by a walk of that row as loaded.
    /// Likewise a zero minimum is the first zero of its row as loaded,
    /// whose sign the sort may have moved.
    pub fn weight_sorted_rows(&self) -> (Vec<(usize, f64)>, WeightScan) {
        WEIGHT_PASSES.fetch_add(1, Ordering::Relaxed);
        let mut adj = Vec::with_capacity(self.num_edges());
        let mut keys: Vec<u128> = Vec::new();
        let mut ends = RowEnds::default();
        for v in 0..self.num_vertices {
            let (ts, ws) = self.neighbors(v);
            let start = adj.len();
            let pairs = ts.iter().copied().zip(ws.iter().copied());
            let mut last = 0;
            let in_order = pairs.clone().all(|(t, w)| {
                let key = pack(t, w);
                let next = !w.is_nan() && last <= key;
                last = key;
                next
            });
            let mut has_nan = false;
            if in_order {
                adj.extend(pairs);
            } else {
                keys.clear();
                keys.extend(pairs.clone().map(|(t, w)| {
                    has_nan |= w.is_nan();
                    pack(t, w)
                }));
                if has_nan {
                    adj.extend(pairs);
                    adj[start..].sort_unstable_by_key(|&(t, w)| (weight_key(w), t));
                } else {
                    keys.sort_unstable();
                    adj.extend(keys.iter().map(|&k| unpack(k)));
                }
            }
            ends.observe(v, &adj[start..], has_nan);
        }
        (adj, ends.finish(self))
    }

    /// Take the graph apart: vertex count, offsets, targets, weights.
    pub fn into_parts(self) -> (usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        (self.num_vertices, self.offsets, self.targets, self.weights)
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Mean edge weight (0 for an edgeless graph).
    pub fn mean_weight(&self) -> f64 {
        if self.weights.is_empty() {
            0.0
        } else {
            self.weights.iter().sum::<f64>() / self.weights.len() as f64
        }
    }

    /// Convert to the [`gblas::Matrix`] adjacency used by the GraphBLAS
    /// implementations.
    pub fn to_adjacency(&self) -> gblas::Matrix<f64> {
        let triples = self.iter_edges().collect();
        gblas::Matrix::from_triples(self.num_vertices, self.num_vertices, triples)
            .expect("CSR invariants guarantee valid triples")
    }

    /// Back to an edge list (e.g. for re-weighting or I/O).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::new(self.num_vertices);
        for (s, d, w) in self.iter_edges() {
            el.push(s, d, w);
        }
        el
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        let el = EdgeList::from_triples(vec![
            (0, 1, 1.0),
            (0, 2, 4.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 3, 9.0), // self-loop: dropped
            (0, 1, 0.5), // duplicate: min kept
        ]);
        CsrGraph::from_edge_list(&el).unwrap()
    }

    #[test]
    fn construction_cleans_input() {
        let g = sample();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        let (ts, ws) = g.neighbors(0);
        assert_eq!(ts, &[1, 2]);
        assert_eq!(ws, &[0.5, 4.0]);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn iter_edges_row_major() {
        let g = sample();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(
            edges,
            vec![(0, 1, 0.5), (0, 2, 4.0), (1, 2, 2.0), (2, 3, 1.0)]
        );
    }

    #[test]
    fn stats() {
        let g = sample();
        assert_eq!(g.max_weight(), 4.0);
        assert!((g.mean_degree() - 1.0).abs() < 1e-12);
        assert!((g.mean_weight() - 7.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_round_trip() {
        let g = sample();
        let a = g.to_adjacency();
        assert_eq!(a.nvals(), g.num_edges());
        assert_eq!(a.get(0, 1), Some(0.5));
        let el = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&el).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_invalid_weights() {
        let el = EdgeList::from_triples(vec![(0, 1, -2.0)]);
        assert!(CsrGraph::from_edge_list(&el).is_err());
    }

    #[test]
    fn from_raw_parts_validates() {
        // A valid 3-vertex graph: 0 -> 1 (1.0), 0 -> 2 (2.0), 1 -> 2 (0.5).
        let ok = CsrGraph::from_raw_parts(
            3,
            vec![0, 2, 3, 3],
            vec![1, 2, 2],
            vec![1.0, 2.0, 0.5],
        )
        .unwrap();
        assert_eq!(ok.num_edges(), 3);
        assert_eq!(ok.neighbors(0).0, &[1, 2]);

        // Structural violations.
        assert!(CsrGraph::from_raw_parts(3, vec![0, 2, 3], vec![1, 2, 2], vec![1.0; 3]).is_err());
        assert!(CsrGraph::from_raw_parts(3, vec![1, 2, 3, 3], vec![1, 2, 2], vec![1.0; 3]).is_err());
        assert!(CsrGraph::from_raw_parts(3, vec![0, 3, 2, 3], vec![1, 2, 2], vec![1.0; 3]).is_err());
        assert!(CsrGraph::from_raw_parts(3, vec![0, 2, 3, 4], vec![1, 2, 2], vec![1.0; 3]).is_err());
        assert!(CsrGraph::from_raw_parts(3, vec![0, 2, 3, 3], vec![1, 2, 3], vec![1.0; 3]).is_err());
        assert!(CsrGraph::from_raw_parts(3, vec![0, 2, 3, 3], vec![1, 2, 2], vec![1.0; 2]).is_err());

        // Value violations.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(
                CsrGraph::from_raw_parts(2, vec![0, 1, 1], vec![1], vec![bad]).is_err(),
                "weight {bad} must be rejected"
            );
        }
    }

    #[test]
    fn from_raw_parts_unchecked_admits_bad_weights() {
        let g = CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![f64::NAN]);
        assert_eq!(g.num_edges(), 1);
        assert!(g.weights()[0].is_nan());
    }

    #[test]
    fn fingerprint_distinguishes_structure_and_weights() {
        let g = sample();
        assert_eq!(g.fingerprint(), sample().fingerprint());
        let el = g.to_edge_list();
        let rebuilt = CsrGraph::from_edge_list(&el).unwrap();
        assert_eq!(g.fingerprint(), rebuilt.fingerprint());

        // Different topology, same vertex count.
        let other = CsrGraph::from_edge_list(&EdgeList::from_triples(vec![
            (0, 1, 0.5),
            (0, 2, 4.0),
            (1, 3, 2.0),
            (2, 3, 1.0),
        ]))
        .unwrap();
        assert_ne!(g.fingerprint(), other.fingerprint());

        // Same topology, one weight nudged.
        let mut triples: Vec<_> = g.iter_edges().collect();
        triples[0].2 += 0.25;
        let reweighted = CsrGraph::from_edge_list(&EdgeList::from_triples(triples)).unwrap();
        assert_ne!(g.fingerprint(), reweighted.fingerprint());
    }

    #[test]
    fn weight_scan_sees_the_first_invalid_edge_and_the_extremes() {
        let g = sample();
        let scan = g.weight_scan();
        assert_eq!(scan.first_invalid, None);
        assert_eq!(scan.max_weight, g.max_weight());
        assert_eq!(scan.min_weight, 0.5);
        assert_eq!(scan.min_positive_weight, Some(0.5));

        let bad = CsrGraph::from_raw_parts_unchecked(
            3,
            vec![0, 2, 3, 3],
            vec![1, 2, 0],
            vec![3.0, -1.0, f64::NAN],
        );
        let scan = bad.weight_scan();
        assert_eq!(scan.first_invalid, Some((0, 2, -1.0)));
        assert_eq!(scan.max_weight, 3.0);
        assert_eq!(scan.min_weight, -1.0);
        assert_eq!(scan.min_positive_weight, Some(3.0));
    }

    #[test]
    fn weight_keys_follow_total_cmp_with_nan_last() {
        let ordered = [
            f64::NEG_INFINITY,
            -2.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.0,
            f64::INFINITY,
        ];
        for pair in ordered.windows(2) {
            assert!(weight_key(pair[0]) < weight_key(pair[1]), "{pair:?}");
            assert_eq!(pair[0].total_cmp(&pair[1]), std::cmp::Ordering::Less);
        }
        assert_eq!(weight_key(f64::NAN), u64::MAX);
        assert_eq!(weight_key(-f64::NAN), u64::MAX, "a negative NaN sorts last too");
        assert!(weight_key(f64::INFINITY) < u64::MAX);
    }

    #[test]
    fn sorted_adjacency_orders_rows_by_weight_then_target_with_nan_last() {
        let g = CsrGraph::from_raw_parts_unchecked(
            5,
            vec![0, 6, 6, 7, 7, 7],
            vec![4, 3, 1, 2, 0, 1, 4],
            vec![f64::NAN, 2.0, 0.0, -0.0, 2.0, -f64::NAN, 9.0],
        );
        let (adj, _) = g.weight_sorted_rows();
        let row = &adj[..6];
        let targets: Vec<usize> = row.iter().map(|&(t, _)| t).collect();
        assert_eq!(targets, [2, 1, 0, 3, 1, 4]);
        let bits: Vec<u64> = row[..4].iter().map(|&(_, w)| w.to_bits()).collect();
        assert_eq!(bits, [(-0.0f64).to_bits(), 0.0f64.to_bits(), 2.0f64.to_bits(), 2.0f64.to_bits()]);
        assert!(row[4].1.is_nan() && row[5].1.is_nan());
        assert_eq!(adj[6], (4, 9.0), "row 2 is its own row");
        // Every Δ splits the row into a `w <= Δ` prefix and the rest.
        for delta in [-1.0, 0.0, 1.0, 2.0, 3.0] {
            let mid = row.partition_point(|&(_, w)| w <= delta);
            assert_eq!(mid, row.iter().filter(|&&(_, w)| w <= delta).count(), "delta {delta}");
        }
    }

    /// A symmetric weighted triangle plus a pendant edge, as raw rows,
    /// so each case below can break it in one place.
    fn symmetric_rows_of(rows: &[&[(usize, f64)]]) -> CsrGraph {
        let mut offsets = vec![0];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for row in rows {
            targets.extend(row.iter().map(|&(t, _)| t));
            weights.extend(row.iter().map(|&(_, w)| w));
            offsets.push(targets.len());
        }
        CsrGraph::from_raw_parts_unchecked(rows.len(), offsets, targets, weights)
    }

    #[test]
    fn symmetry_is_exact_to_the_weight_bit() {
        let w = 0.3;
        let ok: [&[(usize, f64)]; 4] =
            [&[(1, w), (2, 1.5)], &[(0, w), (2, 0.7), (3, 2.0)], &[(0, 1.5), (1, 0.7)], &[(1, 2.0)]];
        assert!(symmetric_rows_of(&ok).is_symmetric());
        // Every validating constructor decides it too.
        let g = symmetric_rows_of(&ok);
        let (n, offsets, targets, weights) = g.clone().into_parts();
        assert!(CsrGraph::from_raw_parts(n, offsets, targets, weights).unwrap().is_symmetric());
        assert!(CsrGraph::from_edge_list(&g.to_edge_list()).unwrap().is_symmetric());

        // One reverse weight 1 ulp off.
        let ulp = f64::from_bits(w.to_bits() + 1);
        assert!(!symmetric_rows_of(&[&[(1, w), (2, 1.5)], &[(0, ulp), (2, 0.7), (3, 2.0)], ok[2], ok[3]])
            .is_symmetric());
        // +0.0 against -0.0: equal as numbers, not as bits.
        assert!(symmetric_rows_of(&[&[(1, 0.0)], &[(0, 0.0)]]).is_symmetric());
        assert!(!symmetric_rows_of(&[&[(1, 0.0)], &[(0, -0.0)]]).is_symmetric());
        assert!(!symmetric_rows_of(&[&[(1, -0.0)], &[(0, 0.0)]]).is_symmetric());
        // A missing reverse edge, from above and from below.
        assert!(!symmetric_rows_of(&[ok[0], &[(0, w), (2, 0.7), (3, 2.0)], ok[2], &[]]).is_symmetric());
        assert!(!symmetric_rows_of(&[ok[0], &[(0, w), (2, 0.7)], ok[2], ok[3]]).is_symmetric());
        assert!(!symmetric_rows_of(&[&[(1, 1.0)], &[]]).is_symmetric());
        assert!(!symmetric_rows_of(&[&[], &[(0, 1.0)]]).is_symmetric());
        // An edge whose reverse points elsewhere.
        assert!(!symmetric_rows_of(&[&[(1, 1.0)], &[(2, 1.0)], &[(0, 1.0)]]).is_symmetric());
    }

    #[test]
    fn rows_that_are_not_strictly_ascending_are_not_symmetric() {
        // Unsorted: the same edges as a symmetric graph, row 1 reversed.
        let unsorted: [&[(usize, f64)]; 3] = [&[(1, 1.0), (2, 2.0)], &[(2, 3.0), (0, 1.0)], &[(0, 2.0), (1, 3.0)]];
        assert!(!symmetric_rows_of(&unsorted).is_symmetric());
        let sorted: [&[(usize, f64)]; 3] = [&[(1, 1.0), (2, 2.0)], &[(0, 1.0), (2, 3.0)], &[(0, 2.0), (1, 3.0)]];
        assert!(symmetric_rows_of(&sorted).is_symmetric());
        // Duplicated targets, even matched by duplicated reverses.
        assert!(!symmetric_rows_of(&[&[(1, 1.0), (1, 1.0)], &[(0, 1.0), (0, 1.0)]]).is_symmetric());
        // Arrays that describe no graph: a target out of range.
        assert!(!symmetric_rows_of(&[&[(5, 1.0)], &[]]).is_symmetric());
    }

    #[test]
    fn self_loops_are_their_own_reverse_and_empty_graphs_are_symmetric() {
        assert!(symmetric_rows_of(&[&[(0, 4.0)]]).is_symmetric());
        assert!(symmetric_rows_of(&[&[(0, 4.0), (1, 1.0)], &[(0, 1.0), (1, 0.5)]]).is_symmetric());
        // A self-loop where the reverse of another edge should be.
        assert!(!symmetric_rows_of(&[&[(1, 1.0)], &[(1, 1.0)]]).is_symmetric());
        // A NaN weight has its own bits, and they match themselves.
        assert!(symmetric_rows_of(&[&[(1, f64::NAN)], &[(0, f64::NAN)]]).is_symmetric());
        assert!(CsrGraph::from_edge_list(&EdgeList::new(0)).unwrap().is_symmetric());
        assert!(CsrGraph::from_edge_list(&EdgeList::new(3)).unwrap().is_symmetric());
        // `sample` has one-way edges.
        assert!(!sample().is_symmetric());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(3)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_weight(), 0.0);
    }
}
