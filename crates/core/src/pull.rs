//! The dense **pull** kernels (direction optimization): the light
//! round's, and the heavy phase's on a symmetric graph.
//!
//! [`crate::reqbuf`] relaxes a frontier by *pushing*: scatter every
//! frontier out-edge into per-task sparse buffers, then merge.
//! That is the right shape while the frontier is sparse, but in the
//! "explosion" epochs of small-world graphs the frontier carries a large
//! fraction of the light edges, and the scatter + merge machinery
//! is pure overhead. GraphBLAST's answer — and this module's — is to
//! *pull*: scan candidate target vertices in index order and fold their
//! light **in-edges** against a frontier bitmap. Sequential reads, no
//! scatter, no merge, and the touched list comes out ascending for free.
//!
//! The direction decision itself lives in [`gblas::direction`] — one
//! oracle shared by the stepping loop (pooled and pool-less) and the
//! gblas `vxm` call site — so every consumer switches at the same
//! deterministic boundary.
//!
//! ## Bit-identity with push
//!
//! For each target `v`, the pull pass yields the minimum of exactly the
//! candidate multiset `{ dist[u] + w < dist[v] : (u, v, w) ∈ A_L,
//! u ∈ frontier }` that the push pass offers — both drop a candidate
//! that cannot improve its target before touching it, `min` over the
//! same finite candidates is order-insensitive bit for bit, and no
//! unread candidate can beat the one a row stops at (the floor, below).
//! So push and pull touch the same set of targets with the same request
//! bits; only the order differs (pull's is ascending, push's is
//! first-touch), and the stepping loop sorts the one list it keeps.
//! `dist`, improvements, and every other [`crate::stats::SsspStats`]
//! field stay bit-identical across directions and thread counts
//! (asserted by the differential harness, `tests/differential/`).
//!
//! The floor is the float subtlety. Every candidate for `v` is
//! `dist[u] + w` with `dist[u] >= lower` (the minimum frontier tentative
//! distance) and `w >= min_w` (the index's minimum weight), so with
//! `floor = lower + min_w` rounded once in `f64`, monotone
//! round-to-nearest puts every candidate at or above `floor` — even when
//! the sum rounds back down to `lower` (at `2^53`, `lower + 1.0 ==
//! lower`). Two cuts follow, both exact:
//!
//! - a target with `dist[v] <= floor` is skipped: no candidate can land
//!   below its tentative distance;
//! - a row stops at the first *accepted* candidate `<= floor`: no later
//!   in-edge can beat it under the strict `<` fold. Every such candidate
//!   is below `dist[v]`, since an unskipped target has `dist[v] > floor`,
//!   so dropping the candidates that cannot improve never hides the
//!   exit.
//!
//! On a unit-weight graph at Δ = 1 every frontier vertex sits at
//! `lower`, so this is Beamer's bottom-up step: each unvisited target
//! stops at its first frontier parent, and targets already found this
//! level are skipped. When the light edges have one weight, any parent
//! at `lower` meets the floor. With several, only an in-edge of the
//! minimum weight from a parent at `lower` does, so a row almost never
//! stops and the pass reads every light in-edge of every open target;
//! the stepping loop therefore pulls such splits only when forced
//! ([`crate::prepared::Split`]). Neither cut changes a request, and
//! `relaxations` counts the candidates formed rather than the edges
//! read, so only the returned in-edge count
//! (`PhaseProfile::edges_scanned`) moves. When
//! the index holds any negative weight (preflight normally rejects
//! those, but the kernel must not *silently* corrupt on garbage), the
//! floor is `-∞` and both cuts are off.
//!
//! ## The heavy pull
//!
//! A heavy phase relaxes the heavy edges of the settled set `S`. On a
//! graph whose adjacency is exactly symmetric
//! ([`graphdata::CsrGraph::is_symmetric`]: every edge's reverse has its
//! weight bits) an edge is heavy both ways, so a vertex's heavy row,
//! weight-ascending since preparation, is also its heavy in-row, and the
//! phase can pull through the rows it already has: no index is built.
//! [`pull_heavy_sequential`] visits every target `u` with `dist[u] >
//! lower`, `lower` being the least `dist` in `S`, in ascending order, and
//! folds `dist[x] + w` for the `x ∈ S` of its row (read from the same
//! bitmap a light pull uses) under the push's strict `<`. It stops the
//! row at the first weight with `lower + w >= best`, where `best` is
//! `dist[u]` or the least candidate so far. The stop is exact: every
//! `x ∈ S` has `dist[x] >= lower` and rounding is monotone, so each later
//! candidate is at least `lower + w' >= lower + w >= best` and cannot win
//! the strict fold (a NaN weight, sorted last, never stops a row and
//! never wins). A target at or below `lower` is skipped for the same
//! reason. The members of `S` are targets like any other: under Δ* a
//! heavy edge from the front of a `k`-bucket range can improve a member
//! near its end, which the push offers too. Heavy weights exceed Δ > 0,
//! so no candidate is a signed zero, and the touched set and request
//! bits are the heavy push's (see `heavy_pull_matches_heavy_push_bit_for_bit`);
//! the stepping loop counts `S`'s heavy degree sum as its relaxations,
//! the candidates the push forms. Pooled, both pulls split the targets
//! into ranges on one scaffold, `pull_chunks`.

use std::sync::atomic::{AtomicU64, Ordering};

use taskpool::{scope_with_buffers, split_evenly, ThreadPool};

use crate::guard::SsspError;
use crate::prepared::SplitView;
use crate::INF;

/// Vertex count below which the sequential scan beats task setup. The
/// pull pass is `O(n)` in scan cost regardless of frontier size, so the
/// cut-over is on `n`, not on frontier edges. A test session's pool
/// takes the parallel branch at every `n`, as it does in
/// [`crate::reqbuf`].
pub const SEQ_PULL_THRESHOLD: usize = 2_048;

/// Pull index builds this process has made, over all graphs and splits.
// lint:allow(hot-path-static): one bump per O(E) build, by any caller
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Refuse a graph with `num_vertices` vertices unless every vertex id
/// fits the `u32` sources of a [`PullIndex`]: ids run to
/// `num_vertices - 1`, so `2^32` vertices fit and `2^32 + 1` do not. The
/// one place this bound is decided: preflight runs it first, and a
/// registry before it prepares a graph, so no index is ever built over
/// ids it cannot hold.
pub fn check_vertex_ids(num_vertices: usize) -> Result<(), SsspError> {
    match num_vertices.checked_sub(1).is_none_or(|max_id| u32::try_from(max_id).is_ok()) {
        true => Ok(()),
        false => Err(SsspError::TooManyVertices { num_vertices }),
    }
}

/// The light sub-graph transposed into CSC — for each target vertex, its
/// light **in-edges** `(source, weight)` with sources ascending: `n + 1`
/// offsets and 12 bytes per edge (a `u32` source, an `f64` weight).
/// Built lazily, on the first dense epoch, and owned by its split (see
/// [`crate::prepared::SplitView::pull_index`]): a prepared graph's
/// all-light split *is* the graph, so its index is the graph's own
/// transpose, shared by every Δ at or above the largest weight; a split
/// with heavy edges keeps its own light-only index.
#[derive(Debug, Clone, PartialEq)]
pub struct PullIndex {
    off: Vec<usize>,
    src: Vec<u32>,
    w: Vec<f64>,
    /// Minimum light weight (`∞` when there are no light edges). The
    /// floor's skip and early exit are only sound for non-negative
    /// weights; a negative minimum disables them rather than corrupt
    /// results on inputs the preflight would normally reject.
    min_w: f64,
}

impl PullIndex {
    /// Transpose the light edges of `split` by counting sort. Iterating
    /// sources in ascending order fills each target's segment with
    /// ascending sources — deterministic by construction.
    pub(crate) fn build(split: SplitView<'_>) -> PullIndex {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = split.num_vertices();
        let m = split.num_light();
        let mut off = vec![0usize; n + 1];
        for u in 0..n {
            for &(t, _) in split.light(u) {
                off[t + 1] += 1;
            }
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        let mut src = vec![0u32; m];
        let mut w = vec![0.0f64; m];
        let mut cursor = off.clone();
        let mut min_w = INF;
        for u in 0..n {
            let id = u32::try_from(u).expect("preflight refuses vertex ids past u32");
            for &(t, wt) in split.light(u) {
                if wt < min_w {
                    min_w = wt;
                }
                src[cursor[t]] = id;
                w[cursor[t]] = wt;
                cursor[t] += 1;
            }
        }
        PullIndex { off, src, w, min_w }
    }

    /// How many indexes this process has built, over all graphs and
    /// splits. A probe for tests that pin "transpose once per graph":
    /// a build is an `O(|E|)` pass inside a timed light phase.
    pub fn builds() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Number of (target) vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.off.len() - 1
    }

    /// The light in-edges of `v`: `(sources, weights)`, sources ascending.
    pub fn in_edges(&self, v: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.off[v], self.off[v + 1]);
        (&self.src[lo..hi], &self.w[lo..hi])
    }

    /// Heap bytes held by the index.
    pub fn resident_bytes(&self) -> usize {
        self.off.capacity() * std::mem::size_of::<usize>()
            + self.src.capacity() * std::mem::size_of::<u32>()
            + self.w.capacity() * std::mem::size_of::<f64>()
    }

    /// The heap bytes a build allocates for `n` vertices and `num_light`
    /// light edges, `8(n + 1) + 12·num_light` — known before the index
    /// exists.
    pub fn bytes_for(n: usize, num_light: usize) -> usize {
        (n + 1) * std::mem::size_of::<usize>()
            + num_light * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
    }
}

/// Scan targets `[start, start + req.len())`, folding frontier in-edges
/// into the `req` slice (indexed relative to `start`) and appending
/// touched targets (absolute indices, ascending) to `touched`. The
/// per-target offer logic mirrors `reqbuf`'s `offer_row` and `offer`
/// exactly: drop a candidate that cannot improve `dist[v]`, touch on the
/// first one that can, min-fold the rest. A target at or below the floor
/// is skipped, and a row stops at the first accepted candidate that
/// reaches it (see the module doc). Returns the in-edges read.
#[allow(clippy::too_many_arguments)]
fn pull_range(
    idx: &PullIndex,
    dist: &[f64],
    in_frontier: &[bool],
    lower: f64,
    start: usize,
    req: &mut [f64],
    touched: &mut Vec<usize>,
    hooked: bool,
) -> u64 {
    // No candidate rounds below `floor`; a negative weight voids that
    // bound, and `-∞` then turns both the skip and the exit off.
    let floor = if idx.min_w >= 0.0 { lower + idx.min_w } else { f64::NEG_INFINITY };
    // Edges read = the range's in-edges less what the cuts leave unread.
    // Counting the cuts rather than the reads keeps the counter off the
    // path of rows read in full, which weighted dense epochs take for
    // nearly every row: a per-row count there measurably slowed them.
    let mut unread = 0usize;
    for (j, slot) in req.iter_mut().enumerate() {
        let v = start + j;
        #[cfg(feature = "racecheck")]
        if hooked {
            // Chunk-boundary interleaving + the shared reads the checker
            // must prove ordered before the drain's dist writes.
            taskpool::sched::yield_point();
            racecheck::plain_read("sssp.dist", &dist[v] as *const f64);
        }
        #[cfg(not(feature = "racecheck"))]
        let _ = hooked;
        let (lo, hi) = (idx.off[v], idx.off[v + 1]);
        let dv = dist[v];
        if dv <= floor {
            unread += hi - lo;
            continue;
        }
        let mut edges = idx.src[lo..hi].iter().zip(idx.w[lo..hi].iter());
        while let Some((&u, &w)) = edges.next() {
            let u = u as usize;
            if !in_frontier[u] {
                continue;
            }
            #[cfg(feature = "racecheck")]
            if hooked {
                racecheck::plain_read("sssp.dist", &dist[u] as *const f64);
            }
            let cand = dist[u] + w;
            if cand >= dv {
                continue;
            }
            if *slot == INF {
                #[cfg(feature = "racecheck")]
                if hooked {
                    racecheck::plain_write("pull.req", slot as *const f64);
                }
                touched.push(v);
                *slot = cand;
                if cand <= floor {
                    unread += edges.len();
                    break;
                }
            } else if cand < *slot {
                #[cfg(feature = "racecheck")]
                if hooked {
                    racecheck::plain_write("pull.req", slot as *const f64);
                }
                *slot = cand;
                if cand <= floor {
                    unread += edges.len();
                    break;
                }
            }
        }
    }
    (idx.off[start + req.len()] - idx.off[start] - unread) as u64
}

/// Sequential pull pass over all targets, for the pool-less loop and as
/// the small-`n` fast path. `req` is the dense accumulator (≥ `n` long,
/// all-`∞` outside `touched`); touched targets append ascending. Returns
/// the in-edges read.
pub fn pull_light_sequential(
    idx: &PullIndex,
    dist: &[f64],
    in_frontier: &[bool],
    lower: f64,
    req: &mut [f64],
    touched: &mut Vec<usize>,
) -> u64 {
    let n = idx.num_vertices();
    pull_range(idx, dist, in_frontier, lower, 0, &mut req[..n], touched, false)
}

/// Parallel pull pass: the light pull of [`pull_light_sequential`] on
/// `pull_chunks`' scaffold. Results, the returned count of in-edges
/// read included, are byte-identical to [`pull_light_sequential`] at any
/// thread count.
#[allow(clippy::too_many_arguments)]
pub fn pull_light_parallel(
    pool: &ThreadPool,
    idx: &PullIndex,
    dist: &[f64],
    in_frontier: &[bool],
    lower: f64,
    req: &mut [f64],
    touched: &mut Vec<usize>,
    locals: &mut Vec<(Vec<usize>, u64)>,
    threshold: usize,
) -> u64 {
    pull_chunks(pool, idx.num_vertices(), req, touched, locals, threshold, |start, slice, local, hooked| {
        pull_range(idx, dist, in_frontier, lower, start, slice, local, hooked)
    })
}

/// The scaffold both pulls run on when pooled: split the target range
/// `[0, n)` into contiguous chunks, hand each task a disjoint `&mut`
/// slice of `req` (no atomics, no locks) and its own touched list, and
/// concatenate the lists in range order — each is ascending over its own
/// range, so the concatenation is globally ascending with **no merge and
/// no sort**. `range(start, slice, touched, hooked)` scans one chunk and
/// returns the edges it read, summed here. Below `threshold` targets the
/// whole range runs inline, unhooked.
fn pull_chunks<F>(
    pool: &ThreadPool,
    n: usize,
    req: &mut [f64],
    touched: &mut Vec<usize>,
    locals: &mut Vec<(Vec<usize>, u64)>,
    threshold: usize,
    range: F,
) -> u64
where
    F: Fn(usize, &mut [f64], &mut Vec<usize>, bool) -> u64 + Sync,
{
    if n < threshold {
        return range(0, &mut req[..n], touched, false);
    }

    let pieces = (pool.num_threads() * 4).min(n);
    let ranges = split_evenly(0..n, pieces);
    let active = ranges.len();
    let mut inputs: Vec<(usize, &mut [f64])> = Vec::with_capacity(active);
    let mut rest = &mut req[..n];
    for range in ranges {
        let (head, tail) = rest.split_at_mut(range.len());
        inputs.push((range.start, head));
        rest = tail;
    }
    scope_with_buffers(pool, locals, inputs, |_, (local, scanned), (start, slice)| {
        local.clear();
        *scanned = range(start, slice, local, true);
    });
    let mut scanned = 0u64;
    for buf in locals.iter().take(active) {
        #[cfg(feature = "racecheck")]
        racecheck::plain_read("scope_with_buffers.buf", buf as *const (Vec<usize>, u64));
        touched.extend_from_slice(&buf.0);
        scanned += buf.1;
    }
    scanned
}

/// Scan targets `[start, start + req.len())` for one heavy phase, folding
/// the heavy in-edges from the settled set `S` (marked in `in_settled`)
/// into the `req` slice (indexed relative to `start`) and appending
/// touched targets (absolute, ascending) to `touched`. On a symmetric
/// graph `lh.heavy(u)` is `u`'s heavy in-row, lightest first. A target at
/// or below `lower` (the least `dist` in `S`) is skipped, and a row stops
/// at the first weight with `lower + w >= best`, where `best` is `dist[u]`
/// or the least candidate so far (see the module doc). Returns the heavy
/// in-edges read.
#[allow(clippy::too_many_arguments)]
fn pull_heavy_range(
    lh: SplitView<'_>,
    dist: &[f64],
    in_settled: &[bool],
    lower: f64,
    start: usize,
    req: &mut [f64],
    touched: &mut Vec<usize>,
    hooked: bool,
) -> u64 {
    let mut read = 0usize;
    for (j, slot) in req.iter_mut().enumerate() {
        let u = start + j;
        #[cfg(feature = "racecheck")]
        if hooked {
            taskpool::sched::yield_point();
            racecheck::plain_read("sssp.dist", &dist[u] as *const f64);
        }
        #[cfg(not(feature = "racecheck"))]
        let _ = hooked;
        let du = dist[u];
        if du <= lower {
            continue;
        }
        let row = lh.heavy(u);
        let mut best = du;
        let mut stop = row.len();
        for (i, &(x, w)) in row.iter().enumerate() {
            if lower + w >= best {
                stop = i;
                break;
            }
            if !in_settled[x] {
                continue;
            }
            #[cfg(feature = "racecheck")]
            if hooked {
                racecheck::plain_read("sssp.dist", &dist[x] as *const f64);
            }
            let cand = dist[x] + w;
            if cand < best {
                best = cand;
            }
        }
        read += stop;
        if best < du {
            #[cfg(feature = "racecheck")]
            if hooked {
                racecheck::plain_write("pull.req", slot as *const f64);
            }
            touched.push(u);
            *slot = best;
        }
    }
    read as u64
}

/// Sequential heavy pull over all targets: `pull_heavy_range` on
/// `[0, n)`. `req` is the dense accumulator (≥ `n` long, all-`∞` outside
/// `touched`); touched targets append ascending. Returns the heavy
/// in-edges read.
pub fn pull_heavy_sequential(
    lh: SplitView<'_>,
    dist: &[f64],
    in_settled: &[bool],
    lower: f64,
    req: &mut [f64],
    touched: &mut Vec<usize>,
) -> u64 {
    let n = lh.num_vertices();
    pull_heavy_range(lh, dist, in_settled, lower, 0, &mut req[..n], touched, false)
}

/// Parallel heavy pull on `pull_chunks`' scaffold: byte-identical to
/// [`pull_heavy_sequential`] at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn pull_heavy_parallel(
    pool: &ThreadPool,
    lh: SplitView<'_>,
    dist: &[f64],
    in_settled: &[bool],
    lower: f64,
    req: &mut [f64],
    touched: &mut Vec<usize>,
    locals: &mut Vec<(Vec<usize>, u64)>,
    threshold: usize,
) -> u64 {
    pull_chunks(pool, lh.num_vertices(), req, touched, locals, threshold, |start, slice, local, hooked| {
        pull_heavy_range(lh, dist, in_settled, lower, start, slice, local, hooked)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::{PreparedGraph, Split};
    use crate::reqbuf::{relax, RelaxWorkspace};
    use graphdata::{gen, CsrGraph, EdgeList};

    /// A weighted graph with its rows in weight order, its split at
    /// Δ = 1, and a dist vector and frontier to relax.
    fn workload() -> (PreparedGraph<'static>, Split, Vec<f64>, Vec<usize>) {
        let mut el = gen::gnm(600, 4_000, 13);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 2.5 },
            7,
        );
        let g = PreparedGraph::load(CsrGraph::from_edge_list(&el).unwrap());
        let split = g.split(1.0);
        let dist: Vec<f64> = (0..g.num_vertices()).map(|v| (v % 17) as f64 * 0.3).collect();
        let frontier: Vec<usize> = (0..g.num_vertices()).step_by(3).collect();
        (g, split, dist, frontier)
    }

    fn bitmap(n: usize, frontier: &[usize]) -> Vec<bool> {
        let mut b = vec![false; n];
        for &v in frontier {
            b[v] = true;
        }
        b
    }

    fn frontier_lower(dist: &[f64], frontier: &[usize]) -> f64 {
        frontier.iter().fold(INF, |m, &v| if dist[v] < m { dist[v] } else { m })
    }

    /// The transpose really is the transpose: every light edge appears
    /// exactly once, sources ascending per target.
    #[test]
    fn index_is_exact_transpose_with_sorted_sources() {
        let (g, split, _, _) = workload();
        let lh = split.on(&g);
        let idx = lh.pull_index();
        assert_eq!(idx.num_vertices(), g.num_vertices());
        let mut forward = Vec::new();
        for u in 0..g.num_vertices() {
            for &(t, w) in lh.light(u) {
                forward.push((t, u, w.to_bits()));
            }
        }
        forward.sort_unstable();
        let mut backward = Vec::new();
        for v in 0..g.num_vertices() {
            let (srcs, ws) = idx.in_edges(v);
            assert!(srcs.windows(2).all(|p| p[0] <= p[1]), "sources ascending");
            for (&u, &w) in srcs.iter().zip(ws.iter()) {
                backward.push((v, u as usize, w.to_bits()));
            }
        }
        assert_eq!(forward, backward);
        assert!(idx.min_w >= 0.05 && idx.min_w <= 2.5);
        assert!(idx.resident_bytes() > 0);
        assert_eq!(idx.resident_bytes(), PullIndex::bytes_for(idx.num_vertices(), idx.src.len()));
    }

    /// Push and pull `frontier` over `split`; assert both touch the same
    /// set of targets with bit-equal requests, and that pull's touched
    /// list is ascending. Returns pull's touched list and the in-edges it
    /// read.
    fn assert_pull_matches_push(
        g: &PreparedGraph<'_>,
        split: &Split,
        dist: &[f64],
        frontier: &[usize],
    ) -> (Vec<usize>, u64) {
        let lh = split.on(g);
        let n = g.num_vertices();

        let mut push_ws = RelaxWorkspace::new(n);
        let mut push_relax = 0u64;
        relax(None, lh, dist, frontier, true, &mut push_ws, &mut push_relax);
        let push_touched: Vec<usize> = push_ws.touched().to_vec();
        let mut push_req = vec![INF; n];
        push_ws.drain_requests(|u, c| push_req[u] = c);

        let idx = lh.pull_index();
        let in_frontier = bitmap(n, frontier);
        let lower = frontier_lower(dist, frontier);
        let mut pull_req = vec![INF; n];
        let mut pull_touched = Vec::new();
        let scanned =
            pull_light_sequential(idx, dist, &in_frontier, lower, &mut pull_req, &mut pull_touched);

        assert!(pull_touched.windows(2).all(|p| p[0] < p[1]), "ascending");
        let mut push_set = push_touched;
        push_set.sort_unstable();
        assert_eq!(pull_touched, push_set, "touched sets");
        let (pull_bits, push_bits): (Vec<u64>, Vec<u64>) =
            pull_touched.iter().map(|&v| (pull_req[v].to_bits(), push_req[v].to_bits())).unzip();
        assert_eq!(pull_bits, push_bits, "requests");
        (pull_touched, scanned)
    }

    /// Pull touches the same targets as push, with the same request bits.
    #[test]
    fn pull_matches_push_requests_bit_for_bit() {
        let (g, split, dist, frontier) = workload();
        assert_pull_matches_push(&g, &split, &dist, &frontier);
    }

    /// The unit-weight twin, at a BFS level: every frontier vertex sits
    /// at `lower`, so `floor = lower + 1` and each unvisited target stops
    /// at its first frontier parent (Beamer's bottom-up step). Some of
    /// the next level is already found at the floor, and skipped.
    #[test]
    fn unit_weight_pull_stops_at_the_first_frontier_parent() {
        let mut el = gen::gnm(2_000, 12_000, 5);
        el.symmetrize();
        let g = PreparedGraph::load(CsrGraph::from_edge_list(&el).unwrap());
        let split = g.split(1.0);
        let lh = split.on(&g);
        let n = g.num_vertices();
        let mut level = vec![usize::MAX; n];
        level[0] = 0;
        let mut levels = vec![vec![0usize]];
        while let Some(last) = levels.last().filter(|l| !l.is_empty()) {
            let mut next = Vec::new();
            for &u in last {
                for &(v, _) in lh.light(u) {
                    if level[v] == usize::MAX {
                        level[v] = levels.len();
                        next.push(v);
                    }
                }
            }
            next.sort_unstable();
            levels.push(next);
        }
        let degree_sum = |l: &[usize]| l.iter().map(|&v| lh.light_degree(v)).sum::<usize>();
        // The frontier before the widest level: the explosion epoch.
        let at = (1..levels.len()).max_by_key(|&l| levels[l].len()).unwrap() - 1;
        // Levels up to `at` settled, every third vertex of the next one
        // already found, the rest unvisited.
        let dist: Vec<f64> = (0..n)
            .map(|v| match level[v] {
                l if l <= at => l as f64,
                l if l == at + 1 && v % 3 == 0 => l as f64,
                _ => INF,
            })
            .collect();
        let frontier = &levels[at];
        let (touched, scanned) = assert_pull_matches_push(&g, &split, &dist, frontier);
        assert!(touched.iter().all(|&v| dist[v] == INF), "found targets are skipped");
        assert!(!touched.is_empty());
        let offered = degree_sum(frontier) as u64;
        assert!(scanned < offered, "read {scanned} in-edges of {offered} frontier edges");
        // Short of every in-edge of the targets it did not skip, too.
        let idx = lh.pull_index();
        let rows: usize = (0..n).filter(|&v| dist[v] == INF).map(|v| idx.in_edges(v).0.len()).sum();
        assert!(scanned * 2 < rows as u64, "read {scanned} of {rows} unskipped in-edges");
    }

    /// Push and pull the frontier `{1, 2, 3}` over hand-picked edges.
    fn float_case(triples: &[(usize, usize, f64)], dist: &[f64]) -> (Vec<usize>, u64, f64) {
        let el = EdgeList::from_triples(triples.iter().copied());
        let g = PreparedGraph::load(CsrGraph::from_edge_list(&el).unwrap());
        let split = g.split(f64::MAX);
        let min_w = split.on(&g).pull_index().min_w;
        let (touched, scanned) = assert_pull_matches_push(&g, &split, dist, &[1, 2, 3]);
        (touched, scanned, min_w)
    }

    /// `lower + min_w` rounds down to `lower`: at `2^53`, adding 1 is a
    /// tie that rounds to even. The floor is the rounded sum, and still
    /// no candidate rounds below it.
    #[test]
    fn floor_that_rounds_to_lower_matches_push() {
        let lower = 2f64.powi(53);
        assert_eq!(lower + 1.0, lower);
        let triples = [
            (1, 0, 1.0), // reaches the floor: the row stops here
            (2, 0, 1.0),
            (2, 4, 1.0), // above the floor: read on
            (3, 4, 1.0), // reaches it
            (1, 5, 1.0), // 5 sits at the floor: skipped
            (3, 6, 3.0),
        ];
        let dist = [INF, lower, lower + 2.0, lower, INF, lower, INF];
        let (touched, scanned, min_w) = float_case(&triples, &dist);
        assert_eq!(min_w, 1.0);
        assert_eq!(touched, vec![0, 4, 6]);
        assert_eq!(scanned, 1 + 2 + 1);
    }

    /// A zero-weight in-edge makes `min_w = 0`, so the floor is `lower`
    /// itself: a target reached at `lower` stops, the rest fold on.
    #[test]
    fn zero_weight_in_edge_matches_push() {
        let triples = [
            (1, 0, 0.0), // reaches the floor
            (2, 0, 0.5),
            (2, 4, 0.0), // 2.0: above the floor
            (3, 4, 0.25),
            (1, 5, 0.5), // 5 sits at the floor: skipped
            (2, 6, 1.0), // 3.0: no better than 6's 2.5, read but not touched
        ];
        let dist = [INF, 1.5, 2.0, 1.5, INF, 1.5, 2.5];
        let (touched, scanned, min_w) = float_case(&triples, &dist);
        assert_eq!(min_w, 0.0);
        assert_eq!(touched, vec![0, 4]);
        assert_eq!(scanned, 1 + 2 + 1);
    }

    /// Parallel pull is byte-identical to sequential pull at 1/2/4
    /// threads, including the touched order and the in-edges read.
    #[test]
    fn parallel_pull_is_bit_identical_across_thread_counts() {
        let (g, split, dist, frontier) = workload();
        let n = g.num_vertices();
        let idx = split.on(&g).pull_index();
        let in_frontier = bitmap(n, &frontier);
        let lower = frontier_lower(&dist, &frontier);

        let mut seq_req = vec![INF; n];
        let mut seq_touched = Vec::new();
        let seq_scanned =
            pull_light_sequential(idx, &dist, &in_frontier, lower, &mut seq_req, &mut seq_touched);

        for threads in [1, 2, 4] {
            let pool = ThreadPool::with_threads(threads).unwrap();
            let mut req = vec![INF; n];
            let mut touched = Vec::new();
            let mut locals = Vec::new();
            let scanned = pull_light_parallel(
                &pool, idx, &dist, &in_frontier, lower, &mut req, &mut touched, &mut locals, 1,
            );
            assert_eq!(touched, seq_touched, "{threads} threads");
            assert_eq!(scanned, seq_scanned, "{threads} threads");
            let bits: Vec<u64> = req.iter().map(|x| x.to_bits()).collect();
            let seq_bits: Vec<u64> = seq_req.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, seq_bits, "{threads} threads");
        }
    }

    /// Push and pull the heavy edges of the settled set `frontier` over
    /// `split` on a symmetric graph: the same touched set with the same
    /// request bits, pull's ascending, at every thread count. Returns the
    /// heavy in-edges the pull read and the push's relaxations.
    fn assert_heavy_pull_matches_push(
        g: &PreparedGraph<'_>,
        split: &Split,
        dist: &[f64],
        settled: &[usize],
    ) -> (u64, u64) {
        let lh = split.on(g);
        assert!(lh.is_symmetric() && lh.has_heavy_edges());
        let n = g.num_vertices();
        let mut push_ws = RelaxWorkspace::new(n);
        let mut pushed = 0u64;
        relax(None, lh, dist, settled, false, &mut push_ws, &mut pushed);
        let mut push_set = push_ws.touched().to_vec();
        push_set.sort_unstable();
        let mut push_req = vec![INF; n];
        push_ws.drain_requests(|u, c| push_req[u] = c);

        let in_settled = bitmap(n, settled);
        let lower = frontier_lower(dist, settled);
        let mut req = vec![INF; n];
        let mut touched = Vec::new();
        let read = pull_heavy_sequential(lh, dist, &in_settled, lower, &mut req, &mut touched);
        assert!(touched.windows(2).all(|p| p[0] < p[1]), "ascending");
        assert_eq!(touched, push_set, "touched sets");
        let (pull_bits, push_bits): (Vec<u64>, Vec<u64>) =
            touched.iter().map(|&v| (req[v].to_bits(), push_req[v].to_bits())).unzip();
        assert_eq!(pull_bits, push_bits, "requests");

        for threads in [1, 2, 4] {
            let pool = ThreadPool::with_threads(threads).unwrap();
            let (mut par_req, mut par_touched, mut locals) = (vec![INF; n], Vec::new(), Vec::new());
            let par_read = pull_heavy_parallel(
                &pool, lh, dist, &in_settled, lower, &mut par_req, &mut par_touched, &mut locals, 1,
            );
            assert_eq!((&par_touched, par_read), (&touched, read), "{threads} threads");
            assert_eq!(bits(&par_req), bits(&req), "{threads} threads");
        }
        (read, pushed)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// A heavy pull over an arbitrary settled set lands on the heavy
    /// push's requests, with settled targets and ties among them.
    #[test]
    fn heavy_pull_matches_heavy_push_bit_for_bit() {
        let (g, split, dist, settled) = workload();
        assert_heavy_pull_matches_push(&g, &split, &dist, &settled);
    }

    /// A bucket's heavy phase, as the stepping loop meets it: the settled
    /// set sits in `[lower, lower + Δ)` and the open vertices just above,
    /// so every open row stops at its first weight past `best - lower`,
    /// and a settled one at its first edge: the pull reads a fraction of
    /// the heavy edges the push relaxes.
    #[test]
    fn heavy_pull_stops_each_row_at_its_floor() {
        let (g, split, _, _) = workload();
        let n = g.num_vertices();
        // Settled at 2.0–2.6, the rest found at 3.0–3.08 by light edges.
        let at = |v: usize| if v.is_multiple_of(4) { 2.0 + (v % 7) as f64 * 0.1 } else { 3.0 + (v % 5) as f64 * 0.02 };
        let dist: Vec<f64> = (0..n).map(at).collect();
        let settled: Vec<usize> = (0..n).step_by(4).collect();
        let (read, pushed) = assert_heavy_pull_matches_push(&g, &split, &dist, &settled);
        assert!(read * 4 < pushed, "read {read} heavy in-edges for {pushed} relaxations");
    }

    /// A negative weight disables the settled-skip instead of silently
    /// dropping improvements. Graph loading rejects negative weights, so
    /// the index is built by hand — the kernel still must not corrupt.
    #[test]
    fn negative_weight_disables_settled_skip() {
        // One in-edge 1 -> 0 with weight -0.5: vertex 0 is "settled" at
        // 0.2 <= lower, yet improvable through the negative edge.
        let idx = PullIndex {
            off: vec![0, 1, 1],
            src: vec![1],
            w: vec![-0.5],
            min_w: -0.5,
        };
        let dist = vec![0.2, 0.3];
        let in_frontier = vec![false, true];
        let mut req = vec![INF; 2];
        let mut touched = Vec::new();
        pull_light_sequential(&idx, &dist, &in_frontier, 0.2, &mut req, &mut touched);
        assert_eq!(touched, vec![0]);
        assert_eq!(req[0], -0.2);
    }

    #[test]
    fn empty_frontier_touches_nothing() {
        let (g, split, dist, _) = workload();
        let n = g.num_vertices();
        let idx = split.on(&g).pull_index();
        let in_frontier = vec![false; n];
        let mut req = vec![INF; n];
        let mut touched = Vec::new();
        pull_light_sequential(idx, &dist, &in_frontier, 0.0, &mut req, &mut touched);
        assert!(touched.is_empty());
        assert!(req.iter().all(|&x| x == INF));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn vertex_ids_fit_u32_up_to_two_to_the_32_vertices() {
        let two_32 = 1usize << 32;
        for fits in [0, 1, two_32 - 1, two_32] {
            assert_eq!(check_vertex_ids(fits), Ok(()), "{fits} vertices: ids 0..=u32::MAX");
        }
        for past in [two_32 + 1, usize::MAX] {
            let refused = SsspError::TooManyVertices { num_vertices: past };
            assert_eq!(check_vertex_ids(past), Err(refused));
        }
    }
}
