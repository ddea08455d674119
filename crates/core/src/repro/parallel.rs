//! The paper's **OpenMP-task parallel scheme** (Sec. VI-C) on
//! [`taskpool`]:
//!
//! * the creation of the light and heavy edge structures "are independent
//!   and were each made into a task" — two coarse tasks, so this phase
//!   never scales past two threads (the bottleneck the paper measures);
//! * "the computation and filtering of vectors was performed by splitting
//!   the vector into evenly-sized tasks" — the dense bucket-detection scan
//!   is chunked;
//! * the relaxation products themselves stay sequential, as in the paper
//!   ("parallelizing within the matrix-vector operations … would improve
//!   performance and scalability" is future work there, and is implemented
//!   here by the pooled kernels of [`crate::stepping`]).

use std::time::Instant;

use graphdata::CsrGraph;
use taskpool::{join, scope_collect, split_evenly, ThreadPool};

use crate::delta::bucket_of;
use crate::fused::LightHeavy;
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::INF;

/// Build the light/heavy split as two parallel tasks (the paper's scheme:
/// one task per output matrix, each re-scanning the adjacency).
type CsrParts = (Vec<usize>, Vec<usize>, Vec<f64>);

pub fn split_light_heavy_two_tasks(pool: &ThreadPool, g: &CsrGraph, delta: f64) -> LightHeavy {
    let n = g.num_vertices();
    let filter = |keep: fn(f64, f64) -> bool| -> CsrParts {
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        let mut tgt = Vec::new();
        let mut wts = Vec::new();
        for v in 0..n {
            let (targets, weights) = g.neighbors(v);
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if keep(w, delta) {
                    tgt.push(t);
                    wts.push(w);
                }
            }
            off.push(tgt.len());
        }
        (off, tgt, wts)
    };
    let (light, heavy) = join(pool, || filter(|w, d| w <= d), || filter(|w, d| w > d));
    let (light_off, light_tgt, light_w) = light;
    let (heavy_off, heavy_tgt, heavy_w) = heavy;
    LightHeavy {
        light_off,
        light_tgt,
        light_w,
        heavy_off,
        heavy_tgt,
        heavy_w,
    }
}

/// Chunked bucket-detection scan: each task scans an even slice of `t`,
/// returning its slice's members of bucket `i` and the smallest later
/// bucket it saw.
pub(crate) fn scan_bucket_parallel(
    pool: &ThreadPool,
    t: &[f64],
    delta: f64,
    i: usize,
    frontier: &mut Vec<usize>,
) -> usize {
    frontier.clear();
    let n = t.len();
    let ranges = split_evenly(0..n, pool.num_threads());
    if ranges.len() <= 1 {
        let mut next = usize::MAX;
        for (v, &tv) in t.iter().enumerate() {
            let b = bucket_of(tv, delta);
            if b == i {
                frontier.push(v);
            } else if b > i && b < next {
                next = b;
            }
        }
        return next;
    }
    // Per-chunk results come back in range order (no lock, no sort), so
    // the concatenated frontier is ascending by construction.
    let parts = scope_collect(pool, ranges, |_, range| {
        let mut local = Vec::new();
        let mut next = usize::MAX;
        for v in range {
            let b = bucket_of(t[v], delta);
            if b == i {
                local.push(v);
            } else if b > i && b < next {
                next = b;
            }
        }
        (local, next)
    });
    let mut next = usize::MAX;
    for (local, local_next) in parts {
        frontier.extend_from_slice(&local);
        next = next.min(local_next);
    }
    next
}

/// Delta-stepping with the paper's task-parallel scheme. Distances are
/// identical to the sequential fused implementation.
pub fn delta_stepping_parallel(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    delta_stepping_parallel_profiled(pool, g, source, delta).0
}

/// [`delta_stepping_parallel`] with phase timing. A worker panic
/// propagates to the caller.
pub fn delta_stepping_parallel_profiled(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> (SsspResult, PhaseProfile) {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    let n = g.num_vertices();
    assert!(source < n, "source out of bounds");
    let mut result = SsspResult::init(n, source);
    let mut profile = PhaseProfile::default();

    let t0 = Instant::now();
    let lh = split_light_heavy_two_tasks(pool, g, delta);
    profile.matrix_filter += t0.elapsed();

    let mut req: Vec<f64> = vec![INF; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let mut settled: Vec<usize> = Vec::new();

    let mut i = 0usize;
    loop {
        let t0 = Instant::now();
        let next = scan_bucket_parallel(pool, &result.dist, delta, i, &mut frontier);
        profile.vector_ops += t0.elapsed();
        if frontier.is_empty() {
            if next == usize::MAX {
                break;
            }
            i = next;
            continue;
        }
        result.stats.buckets_processed += 1;
        settled.clear();

        while !frontier.is_empty() {
            result.stats.light_phases += 1;
            // Sequential relaxation (the paper's scheme).
            let t0 = Instant::now();
            for &v in &frontier {
                let tv = result.dist[v];
                let (targets, weights) = lh.light(v);
                for (&u, &w) in targets.iter().zip(weights.iter()) {
                    result.stats.relaxations += 1;
                    let cand = tv + w;
                    if req[u] == INF {
                        touched.push(u);
                        req[u] = cand;
                    } else if cand < req[u] {
                        req[u] = cand;
                    }
                }
            }
            profile.relaxation += t0.elapsed();

            let t0 = Instant::now();
            settled.extend_from_slice(&frontier);
            frontier.clear();
            for &u in &touched {
                let cand = req[u];
                req[u] = INF;
                if cand < result.dist[u] {
                    result.stats.improvements += 1;
                    result.dist[u] = cand;
                    if bucket_of(cand, delta) == i {
                        frontier.push(u);
                    }
                }
            }
            touched.clear();
            profile.vector_ops += t0.elapsed();
        }

        result.stats.heavy_phases += 1;
        let t0 = Instant::now();
        for &v in &settled {
            let tv = result.dist[v];
            let (targets, weights) = lh.heavy(v);
            for (&u, &w) in targets.iter().zip(weights.iter()) {
                result.stats.relaxations += 1;
                let cand = tv + w;
                if req[u] == INF {
                    touched.push(u);
                    req[u] = cand;
                } else if cand < req[u] {
                    req[u] = cand;
                }
            }
        }
        profile.relaxation += t0.elapsed();
        let t0 = Instant::now();
        for &u in &touched {
            let cand = req[u];
            req[u] = INF;
            if cand < result.dist[u] {
                result.stats.improvements += 1;
                result.dist[u] = cand;
            }
        }
        touched.clear();
        profile.vector_ops += t0.elapsed();

        i += 1;
    }
    (result, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen::grid2d;
    use graphdata::{gen, EdgeList};

    #[test]
    fn two_task_split_matches_fused_split() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let el = EdgeList::from_triples(vec![(0, 1, 0.5), (0, 2, 2.0), (1, 2, 1.0), (2, 0, 3.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let par = split_light_heavy_two_tasks(&pool, &g, 1.0);
        let seq = LightHeavy::build(&g, 1.0);
        assert_eq!(par, seq);
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap();
        let dj = dijkstra(&g, 0);
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        assert_eq!(pr.dist, dj.dist);
    }

    #[test]
    fn matches_fused_exactly_including_stats() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut el = gen::gnm(300, 1500, 77);
        el.symmetrize();
        el.make_unit_weight();
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let fu = delta_stepping_fused(&g, 5, 1.0);
        let pr = delta_stepping_parallel(&pool, &g, 5, 1.0);
        assert_eq!(fu.dist, pr.dist);
        assert_eq!(fu.stats, pr.stats);
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::with_threads(1).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        let dj = dijkstra(&g, 0);
        assert_eq!(pr.dist, dj.dist);
    }

    #[test]
    fn weighted_heavy_graph() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let el = EdgeList::from_triples(vec![
            (0, 1, 0.3),
            (1, 2, 4.0),
            (0, 2, 5.0),
            (2, 3, 0.3),
            (3, 4, 7.0),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        let dj = dijkstra(&g, 0);
        assert_eq!(pr.dist, dj.dist);
    }
}
