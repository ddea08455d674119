//! The contention-free request-buffer relaxation core.
//!
//! Both earlier parallel schemes funneled every relaxation product through
//! shared state: [`crate::repro::parallel`] serializes the whole relaxation, and
//! the original improved scheme (deleted; DESIGN §9 keeps its numbers)
//! scattered into a dense `AtomicU64` request vector and collected touched
//! lists under a `Mutex`. This module is the rebuild both Kranjčević et
//! al. ("Parallel Δ-Stepping for Shared Memory") and Dong et al.
//! ("Efficient Stepping Algorithms") point to: **per-task sparse request
//! buffers, merged deterministically at phase end**.
//!
//! A relaxation phase runs in two steps:
//!
//! 1. *Produce* — the frontier is split into even chunks; each task writes
//!    `(target, candidate)` pairs into its own [`RequestBuf`]
//!    (exclusive `&mut`, handed out by [`taskpool::scope_with_buffers`]).
//!    No atomics, no locks, no false sharing on hot data.
//! 2. *Merge* — the caller folds the buffers into the dense `req`
//!    accumulator **in spawn order**, min-combining duplicates and
//!    recording first touches. Only the entries actually touched are ever
//!    reset back to `∞`, and the touched list is sorted on *every* path,
//!    so downstream bookkeeping order is identical whatever the frontier
//!    size or thread count.
//!
//! Distances are bit-identical across thread counts: candidates are
//! `dist[v] + w` with finite non-negative weights (preflight rejects the
//! rest), and `min` over the same multiset of finite candidates yields the
//! same bits regardless of fold order.
//!
//! Buffers and the dense accumulator live in a [`RelaxWorkspace`] owned by
//! the caller, so multi-run users (the engine, bench loops) pay the
//! allocations once.
//!
//! Small phases skip the tasks: below [`SEQ_RELAX_THRESHOLD`] frontier
//! edges (or on a one-thread pool) the scatter runs inline. The cut-over
//! is a function of the pool alone, with no process-wide knob: a pool
//! created under a [`taskpool::fault::TestSession`] always takes the task
//! path, so fault injection and schedule exploration reach the producer
//! and merge code on graphs of any size.

use taskpool::{scope_with_buffers, split_evenly, ThreadPool};

use crate::prepared::SplitView;
use crate::INF;

/// Edge-product count below which the sequential scatter beats task
/// setup + merge.
pub const SEQ_RELAX_THRESHOLD: usize = 512;

/// The cut-over in force on `pool`: `default`, or `usize::MAX` on a
/// one-thread pool, whose tasks would only queue behind each other on its
/// one thread — or 1 on a pool created under a
/// [`taskpool::fault::TestSession`], which takes the task path at every
/// width and size so that a fault or schedule hook armed at its tasks has
/// tasks to land in.
pub(crate) fn effective_threshold(pool: &ThreadPool, default: usize) -> usize {
    if pool.in_test_session() {
        1
    } else if pool.num_threads() == 1 {
        usize::MAX
    } else {
        default
    }
}

/// One producer task's sparse request buffer: parallel arrays of
/// `(target, candidate)` plus the count of edge relaxations the task
/// actually completed.
#[derive(Debug, Default)]
pub struct RequestBuf {
    tgt: Vec<usize>,
    cand: Vec<f64>,
    /// Relaxations performed by the completed chunk. Written once, after
    /// the chunk's last edge: a chunk that dies mid-flight contributes
    /// nothing, so stats never report work that was not done.
    processed: u64,
}

/// Reusable state for buffered relaxation: the dense request accumulator
/// (`∞` everywhere outside `touched`), the touched list, and the per-task
/// producer buffers.
#[derive(Debug, Default)]
pub struct RelaxWorkspace {
    req: Vec<f64>,
    touched: Vec<usize>,
    bufs: Vec<RequestBuf>,
    /// Per-task touched lists and in-edge counts for the dense pull pass
    /// ([`Self::pull_light`]).
    pull_locals: Vec<(Vec<usize>, u64)>,
}

impl RelaxWorkspace {
    /// Workspace for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        RelaxWorkspace {
            req: vec![INF; n],
            touched: Vec::new(),
            bufs: Vec::new(),
            pull_locals: Vec::new(),
        }
    }

    /// Grow (never shrink) the dense accumulator to `n` vertices.
    pub fn ensure(&mut self, n: usize) {
        if self.req.len() < n {
            self.req.resize(n, INF);
        }
    }

    /// The touched positions of the current request vector, sorted
    /// ascending (canonical on every relaxation path).
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Visit `(vertex, candidate)` for every touched entry in sorted
    /// vertex order, resetting each entry to `∞` — the only writes the
    /// reset ever performs are on entries that were actually touched.
    pub fn drain_requests<F: FnMut(usize, f64)>(&mut self, mut f: F) {
        for &u in &self.touched {
            let cand = self.req[u];
            self.req[u] = INF;
            f(u, cand);
        }
        self.touched.clear();
    }

    /// Fill the request accumulator by the dense **pull** pass instead of
    /// the push scatter: scan every target's light in-edges against the
    /// frontier bitmap (see [`crate::pull`]). The drain-side contract is
    /// unchanged — `touched` comes out ascending and only touched entries
    /// ever need resetting — and the resulting request vector is
    /// bit-identical to [`relax_buffered`]'s over the same frontier.
    /// Without a pool the scan is the sequential pass over the same
    /// accumulator. Returns the in-edges the scan read.
    pub fn pull_light(
        &mut self,
        pool: Option<&ThreadPool>,
        idx: &crate::pull::PullIndex,
        dist: &[f64],
        in_frontier: &[bool],
        lower: f64,
    ) -> u64 {
        match pool {
            Some(pool) => crate::pull::pull_light_parallel(
                pool,
                idx,
                dist,
                in_frontier,
                lower,
                &mut self.req,
                &mut self.touched,
                &mut self.pull_locals,
                effective_threshold(pool, crate::pull::SEQ_PULL_THRESHOLD),
            ),
            None => crate::pull::pull_light_sequential(
                idx,
                dist,
                in_frontier,
                lower,
                &mut self.req,
                &mut self.touched,
            ),
        }
    }

    /// Debug invariant: the accumulator is all-`∞` when no phase is in
    /// flight.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.touched.is_empty() && self.req.iter().all(|&x| x == INF)
    }
}

#[inline]
fn offer(req: &mut [f64], touched: &mut Vec<usize>, u: usize, cand: f64) {
    if req[u] == INF {
        touched.push(u);
        req[u] = cand;
    } else if cand < req[u] {
        req[u] = cand;
    }
}

/// The sequential scatter alone, for callers without a thread pool (the
/// generalized stepping loop's pool-less path). Identical output contract
/// to [`relax_buffered`] — same offers into the accumulator, touched list
/// sorted ascending — and bit-identical to both of its branches (see
/// `touched_order_identical_across_branches`), so a pool-less run and a
/// pooled run of the same loop agree exactly.
pub fn relax_sequential(
    lh: SplitView<'_>,
    dist: &[f64],
    frontier: &[usize],
    use_light: bool,
    ws: &mut RelaxWorkspace,
    relaxations: &mut u64,
) {
    for &v in frontier {
        let tv = dist[v];
        let edges = if use_light { lh.light(v) } else { lh.heavy(v) };
        for &(u, w) in edges {
            offer(&mut ws.req, &mut ws.touched, u, tv + w);
        }
        *relaxations += edges.len() as u64;
    }
    ws.touched.sort_unstable();
}

/// Relax the light or heavy edges of `frontier` into the workspace's
/// request accumulator using per-task sparse buffers.
///
/// On return `ws.touched()` lists the requested vertices in sorted order
/// and `relaxations` has grown by the number of edge products actually
/// completed.
pub fn relax_buffered(
    pool: &ThreadPool,
    lh: SplitView<'_>,
    dist: &[f64],
    frontier: &[usize],
    use_light: bool,
    ws: &mut RelaxWorkspace,
    relaxations: &mut u64,
) {
    relax_buffered_with_threshold(
        pool,
        lh,
        dist,
        frontier,
        use_light,
        ws,
        relaxations,
        effective_threshold(pool, SEQ_RELAX_THRESHOLD),
    )
}

/// [`relax_buffered`] with an explicit sequential/parallel cut-over (at
/// any pool width), so tests can force the same input down both branches.
#[allow(clippy::too_many_arguments)]
pub fn relax_buffered_with_threshold(
    pool: &ThreadPool,
    lh: SplitView<'_>,
    dist: &[f64],
    frontier: &[usize],
    use_light: bool,
    ws: &mut RelaxWorkspace,
    relaxations: &mut u64,
    threshold: usize,
) {
    let edges = |v: usize| {
        if use_light {
            lh.light(v)
        } else {
            lh.heavy(v)
        }
    };
    let nnz: usize = frontier.iter().map(|&v| edges(v).len()).sum();
    if nnz == 0 {
        return;
    }
    if nnz < threshold {
        for &v in frontier {
            let tv = dist[v];
            let row = edges(v);
            for &(u, w) in row {
                offer(&mut ws.req, &mut ws.touched, u, tv + w);
            }
            // Counted per completed vertex, matching the parallel path's
            // per-completed-chunk accounting.
            *relaxations += row.len() as u64;
        }
        ws.touched.sort_unstable();
        return;
    }

    // Produce: one task per frontier chunk, each with an exclusive buffer.
    let pieces = (pool.num_threads() * 4).min(frontier.len());
    let ranges = split_evenly(0..frontier.len(), pieces);
    let active = ranges.len();
    scope_with_buffers(pool, &mut ws.bufs, ranges, |_, buf, range| {
        buf.tgt.clear();
        buf.cand.clear();
        buf.processed = 0;
        let mut processed = 0u64;
        for p in range {
            let v = frontier[p];
            #[cfg(feature = "racecheck")]
            {
                // Chunk-boundary interleaving + the shared-read the
                // checker must prove ordered before the next phase's
                // dist writes.
                taskpool::sched::yield_point();
                racecheck::plain_read("sssp.dist", &dist[v] as *const f64);
            }
            let tv = dist[v];
            let row = edges(v);
            for &(u, w) in row {
                buf.tgt.push(u);
                buf.cand.push(tv + w);
            }
            processed += row.len() as u64;
        }
        buf.processed = processed;
    });

    // Merge: fold buffers in spawn order — single-threaded, so plain
    // loads/stores; the scope barrier already ordered the buffer writes
    // before us.
    let RelaxWorkspace { req, touched, bufs, .. } = ws;
    for buf in bufs.iter_mut().take(active) {
        #[cfg(feature = "racecheck")]
        racecheck::plain_read("scope_with_buffers.buf", &*buf as *const RequestBuf);
        for (&u, &c) in buf.tgt.iter().zip(buf.cand.iter()) {
            offer(req, touched, u, c);
        }
        *relaxations += buf.processed;
        buf.processed = 0;
    }
    touched.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::{PreparedGraph, Split};
    use graphdata::{gen, CsrGraph};

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

    /// The satellite bug this module closes: the sequential fast path and
    /// the parallel path must produce the *identically ordered* touched
    /// list, so downstream bookkeeping cannot depend on frontier size or
    /// thread count.
    #[test]
    fn touched_order_identical_across_branches() {
        let (g, split, dist, frontier) = workload();
        let lh = split.on(&g);
        let pool = ThreadPool::with_threads(4).unwrap();

        for use_light in [true, false] {
            let mut seq_ws = RelaxWorkspace::new(dist.len());
            let mut seq_relax = 0u64;
            // Threshold usize::MAX forces the sequential branch.
            relax_buffered_with_threshold(
                &pool, lh, &dist, &frontier, use_light, &mut seq_ws, &mut seq_relax,
                usize::MAX,
            );
            let mut par_ws = RelaxWorkspace::new(dist.len());
            let mut par_relax = 0u64;
            // Threshold 0 forces the parallel branch.
            relax_buffered_with_threshold(
                &pool, lh, &dist, &frontier, use_light, &mut par_ws, &mut par_relax, 0,
            );
            assert_eq!(seq_ws.touched(), par_ws.touched(), "use_light={use_light}");
            assert_eq!(seq_relax, par_relax);
            let mut seq_pairs = Vec::new();
            seq_ws.drain_requests(|u, c| seq_pairs.push((u, c.to_bits())));
            let mut par_pairs = Vec::new();
            par_ws.drain_requests(|u, c| par_pairs.push((u, c.to_bits())));
            assert_eq!(seq_pairs, par_pairs);
            assert!(seq_ws.is_clean() && par_ws.is_clean());
        }
    }

    #[test]
    fn matches_reference_min_fold() {
        let (g, split, dist, frontier) = workload();
        let lh = split.on(&g);
        let n = g.num_vertices();
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut ws = RelaxWorkspace::new(n);
        let mut relax = 0u64;
        relax_buffered(&pool, lh, &dist, &frontier, true, &mut ws, &mut relax);

        // Reference: dense min-fold.
        let mut expect = vec![INF; n];
        let mut expect_relax = 0u64;
        for &v in &frontier {
            for &(u, w) in lh.light(v) {
                expect_relax += 1;
                let c = dist[v] + w;
                if c < expect[u] {
                    expect[u] = c;
                }
            }
        }
        assert_eq!(relax, expect_relax);
        let mut got = vec![INF; n];
        ws.drain_requests(|u, c| got[u] = c);
        assert_eq!(got, expect);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (g, split, dist, frontier) = workload();
        let lh = split.on(&g);
        let mut reference: Option<(Vec<usize>, Vec<u64>)> = None;
        for threads in [1, 2, 4] {
            let pool = ThreadPool::with_threads(threads).unwrap();
            let mut ws = RelaxWorkspace::new(dist.len());
            let mut relax = 0u64;
            relax_buffered_with_threshold(
                &pool, lh, &dist, &frontier, true, &mut ws, &mut relax, 0,
            );
            let touched = ws.touched().to_vec();
            let mut bits = Vec::new();
            ws.drain_requests(|_, c| bits.push(c.to_bits()));
            match &reference {
                None => reference = Some((touched, bits)),
                Some((t0, b0)) => {
                    assert_eq!(&touched, t0, "{threads} threads");
                    assert_eq!(&bits, b0, "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn workspace_reuse_is_clean_between_phases() {
        let (g, split, dist, frontier) = workload();
        let lh = split.on(&g);
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut ws = RelaxWorkspace::new(dist.len());
        let mut relax = 0u64;
        relax_buffered_with_threshold(&pool, lh, &dist, &frontier, true, &mut ws, &mut relax, 0);
        let mut first = Vec::new();
        ws.drain_requests(|u, c| first.push((u, c.to_bits())));
        assert!(ws.is_clean());
        // Second phase over the same inputs must see identical state.
        relax_buffered_with_threshold(&pool, lh, &dist, &frontier, true, &mut ws, &mut relax, 0);
        let mut second = Vec::new();
        ws.drain_requests(|u, c| second.push((u, c.to_bits())));
        assert_eq!(first, second);
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let (g, split, dist, _) = workload();
        let lh = split.on(&g);
        let pool = ThreadPool::with_threads(2).unwrap();
        let mut ws = RelaxWorkspace::new(dist.len());
        let mut relax = 0u64;
        relax_buffered(&pool, lh, &dist, &[], true, &mut ws, &mut relax);
        assert_eq!(relax, 0);
        assert!(ws.touched().is_empty());
    }
}
