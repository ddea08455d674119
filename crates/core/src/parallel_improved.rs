//! The improvement the paper predicts in Sec. VI-C — "parallelizing within
//! the matrix-vector operations and splitting the filtering operations for
//! `A_H` and `A_L` into smaller tasks" — built on **contention-free
//! per-task request buffers** ([`crate::reqbuf`]).
//!
//! Concretely, relative to [`crate::parallel`]:
//!
//! * the light/heavy matrix filtering is chunked by rows, so all threads
//!   participate instead of two ([`split_light_heavy_chunked`]);
//! * the `(min,+)` relaxation runs as chunked producer tasks over the
//!   frontier, each filling its own sparse request buffer; the buffers
//!   merge deterministically at phase end — no atomic request vector, no
//!   locked touched-list collection.
//!
//! The outer loop is the one stepping loop ([`crate::stepping`]); this
//! module is its *pooled classic* front door plus the chunked split
//! build. Results are bit-identical to the sequential fused front door
//! and across thread counts: the merge computes the same minima whatever
//! the chunking, and the touched list is sorted on every path.
//!
//! Repeated runs (multi-source queries, bench loops) should go through
//! [`crate::engine::SsspEngine`], which caches the light/heavy split per
//! `(graph, Δ)` — the paper measures that filter at 35–40 % of runtime —
//! and reuses the loop's workspace across calls.

use std::sync::OnceLock;

use graphdata::CsrGraph;
use taskpool::{scope_collect, split_evenly, ThreadPool};

use crate::budget::RunBudget;
use crate::fused::LightHeavy;
use crate::guard::SsspError;
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::stepping::{stepping_checked, SteppingStrategy};

/// Build the light/heavy split with fine-grained row chunks — every thread
/// participates (vs. the two coarse tasks of the paper's scheme). Chunk
/// results come back in row order from [`scope_collect`] (no lock, no
/// sort) and concatenate into the CSR pair.
pub fn split_light_heavy_chunked(pool: &ThreadPool, g: &CsrGraph, delta: f64) -> LightHeavy {
    let n = g.num_vertices();
    if n == 0 {
        return LightHeavy::build(g, delta);
    }
    // 4 chunks per thread: enough slack for load balancing on skewed rows.
    let pieces = (pool.num_threads() * 4).min(n);
    let ranges = split_evenly(0..n, pieces);

    struct Chunk {
        l_counts: Vec<usize>,
        l_tgt: Vec<usize>,
        l_w: Vec<f64>,
        h_counts: Vec<usize>,
        h_tgt: Vec<usize>,
        h_w: Vec<f64>,
    }
    let parts = scope_collect(pool, ranges, |_, range| {
        let mut c = Chunk {
            l_counts: Vec::with_capacity(range.len()),
            l_tgt: Vec::new(),
            l_w: Vec::new(),
            h_counts: Vec::with_capacity(range.len()),
            h_tgt: Vec::new(),
            h_w: Vec::new(),
        };
        for v in range {
            let (targets, weights) = g.neighbors(v);
            let (lb, hb) = (c.l_tgt.len(), c.h_tgt.len());
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if w <= delta {
                    c.l_tgt.push(t);
                    c.l_w.push(w);
                } else {
                    c.h_tgt.push(t);
                    c.h_w.push(w);
                }
            }
            c.l_counts.push(c.l_tgt.len() - lb);
            c.h_counts.push(c.h_tgt.len() - hb);
        }
        c
    });
    let mut lh = LightHeavy {
        light_off: Vec::with_capacity(n + 1),
        light_tgt: Vec::new(),
        light_w: Vec::new(),
        heavy_off: Vec::with_capacity(n + 1),
        heavy_tgt: Vec::new(),
        heavy_w: Vec::new(),
        pull: OnceLock::new(),
    };
    lh.light_off.push(0);
    lh.heavy_off.push(0);
    for c in parts {
        for k in 0..c.l_counts.len() {
            lh.light_off.push(lh.light_off.last().unwrap() + c.l_counts[k]);
            lh.heavy_off.push(lh.heavy_off.last().unwrap() + c.h_counts[k]);
        }
        lh.light_tgt.extend_from_slice(&c.l_tgt);
        lh.light_w.extend_from_slice(&c.l_w);
        lh.heavy_tgt.extend_from_slice(&c.h_tgt);
        lh.heavy_w.extend_from_slice(&c.h_w);
    }
    lh
}

/// Delta-stepping with the paper's proposed improvements (fine-grained
/// matrix filtering + intra-relaxation parallelism) on the request-buffer
/// core.
pub fn delta_stepping_parallel_improved(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    delta_stepping_parallel_improved_profiled(pool, g, source, delta).0
}

/// [`delta_stepping_parallel_improved`] with phase timing.
pub fn delta_stepping_parallel_improved_profiled(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> (SsspResult, PhaseProfile) {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    delta_stepping_parallel_improved_checked(pool, g, source, delta, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
}

/// [`delta_stepping_parallel_improved`] under a [`RunBudget`]: returns
/// [`SsspError`] instead of panicking on a bad Δ or source, trips the
/// epoch budget instead of looping forever on malformed weight data, and
/// observes cancellation/deadlines at every epoch boundary — emitting a
/// resumable [`crate::Checkpoint`] inside the error when stopped
/// (continue it with [`crate::engine::SsspEngine::resume_stepping`]).
/// Worker panics still propagate; wrap the call in
/// [`taskpool::install_try`] (as [`crate::run::run_checked`] does) to
/// convert them into errors.
pub fn delta_stepping_parallel_improved_checked(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    stepping_checked(g, source, delta, SteppingStrategy::Classic, Some(pool), budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen;

    #[test]
    fn chunked_split_matches_sequential() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(200, 1000, 3);
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
            9,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let par = split_light_heavy_chunked(&pool, &g, 1.0);
        let seq = LightHeavy::build(&g, 1.0);
        assert_eq!(par, seq);
    }

    #[test]
    fn matches_dijkstra_and_fused() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::rmat(gen::RmatParams::graph500(9, 8), 17);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 0);
        let fu = delta_stepping_fused(&g, 0, 1.0);
        let pi = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        assert_eq!(pi.dist, dj.dist);
        assert_eq!(pi.dist, fu.dist);
        // The rebuild preserves the work counters too.
        assert_eq!(pi.stats, fu.stats);
    }

    #[test]
    fn weighted_graph_with_heavy_edges() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = gen::gnm(400, 3000, 5);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 3.0 },
            11,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 7);
        let pi = delta_stepping_parallel_improved(&pool, &g, 7, 1.0);
        assert!(pi.approx_eq(&dj, 1e-12).is_ok());
    }

    #[test]
    fn deterministic_across_runs() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut el = gen::gnm(500, 4000, 21);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let a = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        let b = delta_stepping_parallel_improved(&pool, &g, 0, 1.0);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.stats, b.stats);
    }
}
