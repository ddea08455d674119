//! The canonical Meyer–Sanders delta-stepping algorithm, in its original
//! vertex/edge-centric form (Fig. 1, right side): explicit buckets,
//! explicit request sets, per-vertex light/heavy edge lists.
//!
//! This is the *input* of the paper's translation methodology; the
//! linear-algebraic implementations must agree with it on every graph.

use graphdata::CsrGraph;

use self::buckets::BucketQueue;
use crate::delta::bucket_of;
use crate::result::SsspResult;

mod buckets;

/// Per-vertex light/heavy adjacency (the `light(v)` / `heavy(v)` sets of
/// Sec. III-A).
struct SplitAdjacency {
    light: Vec<Vec<(usize, f64)>>,
    heavy: Vec<Vec<(usize, f64)>>,
}

impl SplitAdjacency {
    fn build(g: &CsrGraph, delta: f64) -> Self {
        let n = g.num_vertices();
        let mut light = vec![Vec::new(); n];
        let mut heavy = vec![Vec::new(); n];
        for v in 0..n {
            let (targets, weights) = g.neighbors(v);
            for (&t, &w) in targets.iter().zip(weights.iter()) {
                if w <= delta {
                    light[v].push((t, w));
                } else {
                    heavy[v].push((t, w));
                }
            }
        }
        SplitAdjacency { light, heavy }
    }
}

/// One `relax(v, new_dist)` (Sec. III-C): improve the tentative distance
/// and move the vertex between buckets.
fn relax(
    v: usize,
    new_dist: f64,
    delta: f64,
    result: &mut SsspResult,
    buckets: &mut BucketQueue,
) {
    result.stats.relaxations += 1;
    if new_dist < result.dist[v] {
        result.stats.improvements += 1;
        buckets.insert(v, bucket_of(new_dist, delta));
        result.dist[v] = new_dist;
    }
}

/// Meyer–Sanders delta-stepping with explicit buckets.
pub fn delta_stepping_canonical(g: &CsrGraph, source: usize, delta: f64) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    let n = g.num_vertices();
    assert!(source < n, "source out of bounds");
    let adj = SplitAdjacency::build(g, delta);
    let mut result = SsspResult::init(n, source);
    let mut buckets = BucketQueue::new(n);
    // relax(s, 0): Fig. 1 right. init() already set dist[source] = 0.
    buckets.insert(source, 0);

    let mut requests: Vec<(usize, f64)> = Vec::new();
    // Membership of S, all-false between buckets.
    let mut in_settled = vec![false; n];
    while let Some(i) = buckets.min_bucket() {
        result.stats.buckets_processed += 1;
        // S: vertices that have left bucket i this round (deleted set) —
        // a set, `S ∪ B[i]`: a vertex that re-enters bucket i is listed
        // once, so the heavy phase relaxes it once, at its final distance.
        let mut settled: Vec<usize> = Vec::new();
        // Inner loop: light-edge phases until B[i] stays empty.
        loop {
            let batch = buckets.take_bucket(i);
            if batch.is_empty() {
                break;
            }
            result.stats.light_phases += 1;
            // Req = {(w, tent(v) + c(v, w)) : v ∈ B[i], (v, w) light}
            requests.clear();
            for &v in &batch {
                let tv = result.dist[v];
                for &(w, c) in &adj.light[v] {
                    requests.push((w, tv + c));
                }
            }
            for &v in &batch {
                if !std::mem::replace(&mut in_settled[v], true) {
                    settled.push(v);
                }
            }
            for &(v, x) in &requests {
                relax(v, x, delta, &mut result, &mut buckets);
            }
        }
        // Heavy phase over everything settled from bucket i.
        result.stats.heavy_phases += 1;
        requests.clear();
        for &v in &settled {
            in_settled[v] = false;
            let tv = result.dist[v];
            for &(w, c) in &adj.heavy[v] {
                requests.push((w, tv + c));
            }
        }
        for &(v, x) in &requests {
            relax(v, x, delta, &mut result, &mut buckets);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use graphdata::gen::{grid2d, path, star};
    use graphdata::EdgeList;

    #[test]
    fn path_graph() {
        let g = CsrGraph::from_edge_list(&path(6)).unwrap();
        let r = delta_stepping_canonical(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn matches_dijkstra_on_grid_various_deltas() {
        let g = CsrGraph::from_edge_list(&grid2d(7, 5)).unwrap();
        let dj = dijkstra(&g, 0);
        for delta in [0.5, 1.0, 2.0, 10.0] {
            let ds = delta_stepping_canonical(&g, 0, delta);
            assert_eq!(ds.dist, dj.dist, "delta = {delta}");
        }
    }

    #[test]
    fn heavy_edges_exercised() {
        // Mixed weights around delta = 1: the 5.0 edges are heavy.
        let el = EdgeList::from_triples(vec![
            (0, 1, 0.5),
            (1, 2, 5.0),
            (0, 2, 6.0),
            (2, 3, 0.5),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_canonical(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.5, 5.5, 6.0]);
        assert!(r.stats.heavy_phases > 0);
    }

    #[test]
    fn reintroduction_into_current_bucket() {
        // 0 -> 1 (0.4), 1 -> 2 (0.4): vertex 2 enters bucket 0 after 1 was
        // processed, forcing a second light phase on the same bucket.
        let el = EdgeList::from_triples(vec![(0, 1, 0.4), (1, 2, 0.4)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_canonical(&g, 0, 1.0);
        assert_eq!(r.dist, vec![0.0, 0.4, 0.8]);
        assert_eq!(r.stats.buckets_processed, 1); // everything in bucket 0
        assert!(r.stats.light_phases >= 2);
    }

    #[test]
    fn star_settles_in_one_bucket_pair() {
        let g = CsrGraph::from_edge_list(&star(9)).unwrap();
        let r = delta_stepping_canonical(&g, 0, 1.0);
        assert!(r.dist[1..].iter().all(|&d| d == 1.0));
    }

    #[test]
    fn unreachable_stay_infinite() {
        let mut el = EdgeList::from_triples(vec![(0, 1, 1.0)]);
        el.ensure_vertices(4);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = delta_stepping_canonical(&g, 0, 1.0);
        assert_eq!(r.reachable_count(), 2);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn rejects_bad_delta() {
        let g = CsrGraph::from_edge_list(&path(2)).unwrap();
        delta_stepping_canonical(&g, 0, 0.0);
    }

    #[test]
    fn stats_are_plausible() {
        let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let r = delta_stepping_canonical(&g, 0, 1.0);
        assert!(r.stats.relaxations >= r.stats.improvements);
        assert!(r.stats.improvements as usize >= r.reachable_count() - 1);
        assert_eq!(r.stats.heavy_phases, r.stats.buckets_processed);
    }
}
