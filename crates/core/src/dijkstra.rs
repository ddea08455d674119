//! Dijkstra's algorithm with a binary heap: the exact baseline every other
//! implementation is validated against, and the Δ = 1 analogue the paper's
//! Sec. VII discusses.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use graphdata::CsrGraph;

use crate::result::SsspResult;

/// Heap entry ordered by smallest distance first.
#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    vertex: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; total_cmp handles every float (weights are
        // validated finite and non-negative upstream).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths by Dijkstra's algorithm (lazy deletion).
pub fn dijkstra(g: &CsrGraph, source: usize) -> SsspResult {
    let mut result = SsspResult::init(g.num_vertices(), source);
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem {
        dist: 0.0,
        vertex: source,
    });
    while let Some(HeapItem { dist, vertex }) = heap.pop() {
        if dist > result.dist[vertex] {
            continue; // stale entry
        }
        result.stats.buckets_processed += 1; // settled vertices
        let (targets, weights) = g.neighbors(vertex);
        for (&t, &w) in targets.iter().zip(weights.iter()) {
            result.stats.relaxations += 1;
            let cand = dist + w;
            if cand < result.dist[t] {
                result.dist[t] = cand;
                result.stats.improvements += 1;
                heap.push(HeapItem {
                    dist: cand,
                    vertex: t,
                });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::{grid2d, path};
    use graphdata::EdgeList;

    #[test]
    fn path_graph_distances() {
        let g = CsrGraph::from_edge_list(&path(5)).unwrap();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn weighted_shortcut_taken() {
        let el = EdgeList::from_triples(vec![
            (0, 1, 10.0),
            (0, 2, 1.0),
            (2, 1, 2.0),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[1], 3.0);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut el = EdgeList::from_triples(vec![(0, 1, 1.0)]);
        el.ensure_vertices(3);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], f64::INFINITY);
        assert_eq!(r.reachable_count(), 2);
    }

    #[test]
    fn grid_is_manhattan() {
        let g = CsrGraph::from_edge_list(&grid2d(5, 5)).unwrap();
        let r = dijkstra(&g, 0);
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(r.dist[y * 5 + x], (x + y) as f64);
            }
        }
    }

    #[test]
    fn zero_weight_edges_ok() {
        let el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 0.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0.0, 0.0, 0.0]);
    }
}
