//! The split cache the frozen benchmark harness names, hollowed out.
//!
//! Splits belong to their prepared graph
//! ([`crate::PreparedGraph::split_for`]): one all-light split and one slot
//! for the most recent Δ with heavy edges, per graph. Nothing in the
//! serving library, the batch runner or the binaries reads or fills a
//! [`SplitCache`]. What is left is the API the harness calls — `new`,
//! `with_byte_budget`, `get_or_build` and `stats` — over an unbounded
//! build-once map keyed by `(fingerprint, Δ bits)`, kept until the harness
//! moves off it (ROADMAP item 1(c)) and this module can go.

use std::sync::{Arc, Mutex, OnceLock};

use crate::prepared::{Split, SplitStats};

/// One build-once cell per `(fingerprint, Δ bits)`.
type Cell = Arc<OnceLock<Arc<Split>>>;

/// An unbounded, build-once split map; see the module docs.
#[derive(Debug, Default)]
pub struct SplitCache {
    cells: Mutex<Vec<((u64, u64), Cell)>>,
    stats: Mutex<SplitStats>,
}

impl SplitCache {
    /// An empty cache.
    pub fn new() -> Self {
        SplitCache::default()
    }

    /// [`SplitCache::new`]: the budget is ignored.
    pub fn with_byte_budget(_bytes: usize) -> Self {
        SplitCache::default()
    }

    /// The split for `(fingerprint, delta_bits)`, running `build` if and
    /// only if this call is the first to want it, and whether this call
    /// built it. `build` may return a copied [`crate::fused::LightHeavy`];
    /// it is stored as the partition points it implies.
    pub fn get_or_build<S: Into<Split>>(
        &self,
        fingerprint: u64,
        delta_bits: u64,
        build: impl FnOnce() -> S,
    ) -> (Arc<Split>, bool) {
        let key = (fingerprint, delta_bits);
        let cell = {
            let mut cells = self.cells.lock().expect("split cache lock");
            match cells.iter().find(|(k, _)| *k == key) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    let cell = Cell::default();
                    cells.push((key, Arc::clone(&cell)));
                    cell
                }
            }
        };
        let mut built = false;
        let split = Arc::clone(cell.get_or_init(|| {
            built = true;
            Arc::new(build().into())
        }));
        let mut stats = self.stats.lock().expect("split cache lock");
        if built {
            stats.builds += 1;
            stats.resident_bytes += split.resident_bytes();
        } else {
            stats.hits += 1;
        }
        (split, built)
    }

    /// Builds and hits so far, and the bytes the built splits held when
    /// they were built. Nothing is ever replaced.
    pub fn stats(&self) -> SplitStats {
        *self.stats.lock().expect("split cache lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SsspEngine;
    use crate::fused::LightHeavy;
    use crate::prepared::PreparedGraph;
    use crate::RunBudget;
    use graphdata::{gen, gen::grid2d, CsrGraph};

    /// A weighted 4x4 grid: every split at Δ ∈ [0.5, 2] has light and
    /// heavy edges, so it stores its bounds (`2n + 1` words).
    fn weighted_grid() -> CsrGraph {
        let mut el = grid2d(4, 4);
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 3.0 },
            5,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    #[test]
    fn builds_once_per_key_and_counts_hits() {
        let g = PreparedGraph::load(weighted_grid());
        let fp = g.fingerprint();
        let cache = SplitCache::with_byte_budget(1);
        let (a, built_a) = cache.get_or_build(fp, 1.0f64.to_bits(), || g.split(1.0));
        let (b, built_b) = cache.get_or_build(fp, 1.0f64.to_bits(), || g.split(1.0));
        assert!(built_a);
        assert!(!built_b);
        assert!(Arc::ptr_eq(&a, &b));
        let (c, _) = cache.get_or_build(fp, 2.0f64.to_bits(), || g.split(2.0));
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.replacements), (2, 1, 0));
        assert_eq!(stats.resident_bytes, a.resident_bytes() + c.resident_bytes());
    }

    #[test]
    fn distinct_fingerprints_do_not_collide_on_delta() {
        let g = PreparedGraph::load(weighted_grid());
        let cache = SplitCache::new();
        let (_, first) = cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        let (_, second) = cache.get_or_build(2, 1.0f64.to_bits(), || g.split(1.0));
        assert!(first && second, "same Δ under different fingerprints must both build");
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn a_copied_split_is_stored_as_its_partition_points() {
        let csr = weighted_grid();
        let g = PreparedGraph::new(&csr);
        let cache = SplitCache::new();
        let (copied, built) =
            cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&csr, 1.0));
        assert!(built);
        assert_eq!(*copied, g.split(1.0));
        let (hit, built) = cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        assert!(!built && Arc::ptr_eq(&copied, &hit));
        let words = 2 * g.num_vertices() + 1;
        assert_eq!(copied.resident_bytes(), words * std::mem::size_of::<usize>());
        // A split with no heavy edge stores no bounds at all.
        let unit = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let (all_light, _) =
            cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&unit, 1.0));
        assert_eq!(all_light.resident_bytes(), 0);
        assert_eq!(*all_light, PreparedGraph::new(&unit).split(1.0));
    }

    /// `SsspEngine::with_cache`'s cache is inert: two graphs handed one
    /// cache at equal Δ each run on their own prepared graph's split, and
    /// the cache stays empty.
    #[test]
    fn with_cache_ignores_its_cache() {
        let mut el = gen::gnm(200, 1200, 43);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.5 },
            9,
        );
        let graphs = [weighted_grid(), CsrGraph::from_edge_list(&el).unwrap()];
        let cache = Arc::new(SplitCache::new());
        for g in &graphs {
            let mut engine = SsspEngine::with_cache(g, Arc::clone(&cache));
            let (r, _) = engine.run_fused(0, 1.0, &mut RunBudget::unlimited()).unwrap();
            assert_eq!(r.dist, crate::dijkstra::dijkstra(g, 0).dist);
            assert_eq!(engine.stats().split_builds, 1);
        }
        assert_eq!(cache.stats(), SplitStats::default());
    }
}
