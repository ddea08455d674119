//! The canonical Meyer–Sanders delta-stepping algorithm, in its original
//! vertex/edge-centric form (Fig. 1, right side): explicit buckets,
//! explicit request sets, per-vertex light/heavy edge lists.
//!
//! This is the *input* of the paper's translation methodology; the
//! linear-algebraic implementations must agree with it on every graph.

use graphdata::CsrGraph;

use super::buckets::BucketQueue;
use crate::budget::RunBudget;
use crate::checkpoint::{LiveState, StopPoint};
use crate::delta::bucket_of;
use crate::guard::SsspError;
use crate::result::SsspResult;

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
    delta_stepping_canonical_checked(g, source, delta, &mut RunBudget::unlimited())
        .expect("inputs asserted valid and the budget is unlimited")
}

/// [`delta_stepping_canonical`] under a [`RunBudget`]: returns
/// [`SsspError`] instead of panicking on a bad Δ or source, trips the
/// epoch budget instead of looping forever on malformed weight data, and
/// observes cancellation/deadlines at every epoch boundary. Checkpoints
/// carry the `settled_below` certificate but are **not resumable**: the
/// canonical formulation counts work differently from the frontier
/// family (relaxations per request), so its counters cannot be continued
/// on the fused loop.
pub fn delta_stepping_canonical_checked(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    budget: &mut RunBudget,
) -> Result<SsspResult, SsspError> {
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(SsspError::InvalidDelta { delta });
    }
    let n = g.num_vertices();
    if source >= n {
        return Err(SsspError::SourceOutOfBounds {
            source,
            num_vertices: n,
        });
    }
    let adj = SplitAdjacency::build(g, delta);
    let mut result = SsspResult::init(n, source);
    let mut buckets = BucketQueue::new(n);
    // relax(s, 0): Fig. 1 right. init() already set dist[source] = 0.
    buckets.insert(source, 0);

    let mut requests: Vec<(usize, f64)> = Vec::new();
    while let Some(i) = buckets.min_bucket() {
        if let Err(stop) = budget.check() {
            return Err(LiveState {
                implementation: "canonical",
                source,
                delta,
                dist: &result.dist,
                stats: &result.stats,
                bucket: i,
                stop_point: StopPoint::BucketStart,
                frontier: &[],
                settled: &[],
                resumable: false,
                stepping: None,
            }
            .stop(stop));
        }
        result.stats.buckets_processed += 1;
        // S: vertices that have left bucket i this round (deleted set).
        let mut settled: Vec<usize> = Vec::new();
        // Inner loop: light-edge phases until B[i] stays empty.
        loop {
            let batch = buckets.take_bucket(i);
            if batch.is_empty() {
                break;
            }
            if let Err(stop) = budget.check() {
                // The batch has already left the bucket queue, so this
                // checkpoint is informational only (not resumable) — but
                // the distances and the settled_below bound stay valid.
                return Err(LiveState {
                    implementation: "canonical",
                    source,
                    delta,
                    dist: &result.dist,
                    stats: &result.stats,
                    bucket: i,
                    stop_point: StopPoint::LightPhase,
                    frontier: &batch,
                    settled: &settled,
                    resumable: false,
                    stepping: None,
                }
                .stop(stop));
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
            settled.extend_from_slice(&batch);
            for &(v, x) in &requests {
                relax(v, x, delta, &mut result, &mut buckets);
            }
        }
        // Heavy phase over everything settled from bucket i.
        result.stats.heavy_phases += 1;
        requests.clear();
        for &v in &settled {
            let tv = result.dist[v];
            for &(w, c) in &adj.heavy[v] {
                requests.push((w, tv + c));
            }
        }
        for &(v, x) in &requests {
            relax(v, x, delta, &mut result, &mut buckets);
        }
    }
    Ok(result)
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
    fn checked_rejects_bad_inputs_and_trips_watchdog() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        let budget = &mut RunBudget::unlimited();
        assert!(matches!(
            delta_stepping_canonical_checked(&g, 0, 0.0, budget),
            Err(SsspError::InvalidDelta { .. })
        ));
        assert!(matches!(
            delta_stepping_canonical_checked(&g, 42, 1.0, budget),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
        // A path of 8 vertices needs 7 bucket epochs at delta 1; budget 2
        // cannot cover it.
        let mut tight = RunBudget::with_limit(2);
        assert!(matches!(
            delta_stepping_canonical_checked(&g, 0, 1.0, &mut tight),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
        // A negative-weight cycle (inexpressible via from_edge_list) would
        // otherwise loop forever: distances keep improving.
        let cyc = CsrGraph::from_raw_parts_unchecked(
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![1.0, -2.0],
        );
        let mut budget = RunBudget::with_limit(1000);
        assert!(matches!(
            delta_stepping_canonical_checked(&cyc, 0, 1.0, &mut budget),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }

    #[test]
    fn checked_matches_unchecked_on_valid_input() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 5)).unwrap();
        let plain = delta_stepping_canonical(&g, 0, 1.0);
        let mut budget = RunBudget::for_run(&g, 1.0, &crate::guard::GuardConfig::default());
        let checked = delta_stepping_canonical_checked(&g, 0, 1.0, &mut budget).unwrap();
        assert_eq!(plain.dist, checked.dist);
        assert!(budget.ticks() > 0);
    }

    #[test]
    fn cancellation_checkpoint_is_certified_but_not_resumable() {
        let g = CsrGraph::from_edge_list(&path(10)).unwrap();
        let full = delta_stepping_canonical(&g, 0, 1.0);
        let err =
            delta_stepping_canonical_checked(&g, 0, 1.0, &mut RunBudget::unlimited().cancel_after(5))
                .unwrap_err();
        let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
        assert!(!cp.resumable);
        for (v, d) in cp.settled_distances() {
            assert_eq!(d.to_bits(), full.dist[v].to_bits(), "vertex {v}");
        }
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
