//! The shared, graph-aware light/heavy split cache.
//!
//! The paper measures building `A_L` / `A_H` at 35–40 % of sequential
//! runtime. Over weight-sorted rows ([`crate::prepared`]) a split is one
//! partition point per row — `n` words, built by a binary search per row
//! — but every engine relaxing the same graph at the same Δ still wants
//! the same one, and with it the lazily built pull index. [`SplitCache`]
//! is that shared store — `Arc`-handled, keyed by **`(graph fingerprint,
//! Δ bits)`** so distinct graphs can never collide on a Δ value (the bug
//! an engine-private, Δ-only key used to hide), with build-once
//! semantics: when several engines request a missing entry concurrently,
//! exactly one builds it and the rest block briefly and then clone the
//! handle.
//!
//! A cache built with [`SplitCache::with_byte_budget`] additionally runs
//! an LRU eviction policy over the *built* entries: whenever accounting a
//! finished build pushes the charged total past the budget,
//! least-recently-used built entries are dropped until the total fits.
//! An entry is charged for everything it can pin
//! ([`Split::charged_bytes`]): its partition points and the pull index
//! it builds on its first dense epoch, so the budget bounds the indexes
//! too, whichever Δ values clients ask for.
//! Entries whose build is still in flight are never evicted (their slot
//! is the rendezvous point other requesters are blocked on); a freshly
//! built entry may evict itself when it alone exceeds the budget — the
//! requester keeps its `Arc` handle either way, so the budget bounds the
//! *cache's* footprint, not the liveness of handed-out splits.
//!
//! Locking discipline: the map lock is held only to find/insert a slot
//! and to bump counters/recency — never across a split build. The build
//! itself runs under the slot's [`OnceLock`], so concurrent requests for
//! *different* keys never serialize against each other.

use std::sync::{Arc, Mutex, OnceLock};

use crate::prepared::Split;

/// Cache-wide effectiveness counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SplitCacheStats {
    /// Splits actually built (cache misses).
    pub builds: usize,
    /// Requests served from an already-built split.
    pub hits: usize,
    /// Built entries dropped by the byte-budget LRU policy.
    pub evictions: usize,
    /// Bytes charged to built, still-resident entries
    /// ([`Split::charged_bytes`]: partition points plus the pull index
    /// each can build) — the total the byte budget bounds.
    pub resident_bytes: usize,
    /// Bytes of those charges held by pull (CSC) indexes already built.
    /// Summed live at query time: an index appears on an entry's first
    /// dense (pull) epoch, after the entry was charged for it, so this
    /// never exceeds `resident_bytes`; evicting the entry frees its pull
    /// index with it.
    pub pull_bytes: usize,
}

/// One cache entry: a build-once cell the winning requester fills.
#[derive(Debug, Default)]
struct SplitSlot {
    cell: OnceLock<Arc<Split>>,
}

#[derive(Debug)]
struct Entry {
    key: (u64, u64),
    slot: Arc<SplitSlot>,
    /// Logical clock value of the most recent access (insert, hit, or
    /// build completion) — the LRU recency stamp.
    last_used: u64,
    /// Charged size once the build completed; `None` while the build is
    /// still in flight.
    bytes: Option<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    /// `(fingerprint, Δ bits) → slot`. Workloads touch a handful of
    /// graphs × Δ values, so a linear scan beats a hash map.
    entries: Vec<Entry>,
    /// Monotonic access clock for LRU recency.
    tick: u64,
    stats: SplitCacheStats,
}

impl Inner {
    /// Evict least-recently-used **built** entries until the charged
    /// total fits `budget`. In-flight entries (no bytes yet) are skipped:
    /// they hold no accounted bytes and other requesters may be parked
    /// on their `OnceLock`.
    fn evict_to_budget(&mut self, budget: usize) {
        while self.stats.resident_bytes > budget {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.bytes.is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            let evicted = self.entries.remove(i);
            self.stats.resident_bytes -= evicted.bytes.unwrap_or(0);
            self.stats.evictions += 1;
        }
    }
}

/// Shared split store; see the module docs. Clone the surrounding
/// [`Arc`] to hand the cache to another engine or worker thread.
#[derive(Debug, Default)]
pub struct SplitCache {
    inner: Mutex<Inner>,
    /// Byte budget for built entries; `None` means unbounded.
    byte_budget: Option<usize>,
}

impl SplitCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        SplitCache::default()
    }

    /// An empty cache whose built entries are bounded by `bytes`: after
    /// every completed build, least-recently-used built entries are
    /// evicted until their charged total, `resident_bytes`, is at most
    /// `bytes`.
    pub fn with_byte_budget(bytes: usize) -> Self {
        SplitCache { inner: Mutex::default(), byte_budget: Some(bytes) }
    }

    /// The split for `(fingerprint, delta_bits)`, running `build` if and
    /// only if this call is the first to want it. Returns the shared
    /// handle and whether *this* call built it (so callers can attribute
    /// the filter time to themselves). `build` may also return a copied
    /// [`crate::fused::LightHeavy`]; it is stored as the partition points
    /// it implies.
    pub fn get_or_build<S: Into<Split>>(
        &self,
        fingerprint: u64,
        delta_bits: u64,
        build: impl FnOnce() -> S,
    ) -> (Arc<Split>, bool) {
        let key = (fingerprint, delta_bits);
        let slot = {
            let mut inner = self.inner.lock().expect("split cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.iter_mut().find(|e| e.key == key) {
                Some(entry) => {
                    entry.last_used = tick;
                    Arc::clone(&entry.slot)
                }
                None => {
                    let slot = Arc::new(SplitSlot::default());
                    inner.entries.push(Entry {
                        key,
                        slot: Arc::clone(&slot),
                        last_used: tick,
                        bytes: None,
                    });
                    slot
                }
            }
        };
        let mut built = false;
        let split = Arc::clone(slot.cell.get_or_init(|| {
            built = true;
            Arc::new(build().into())
        }));
        let mut inner = self.inner.lock().expect("split cache lock");
        if built {
            inner.stats.builds += 1;
            // Account the finished build against the entry — unless a
            // concurrent purge already dropped it, in which case there
            // is nothing resident to charge for.
            inner.tick += 1;
            let tick = inner.tick;
            let size = split.charged_bytes();
            if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
                entry.bytes = Some(size);
                entry.last_used = tick;
                inner.stats.resident_bytes += size;
                if let Some(budget) = self.byte_budget {
                    inner.evict_to_budget(budget);
                }
            }
        } else {
            inner.stats.hits += 1;
        }
        (split, built)
    }

    /// Drop every entry belonging to `fingerprint` (an engine's
    /// `clear_cache`). Outstanding `Arc<Split>` handles stay valid;
    /// the next request rebuilds. Purged bytes leave `resident_bytes`
    /// but are not counted as evictions — the caller asked.
    pub fn purge_fingerprint(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("split cache lock");
        let mut freed = 0usize;
        inner.entries.retain(|e| {
            if e.key.0 == fingerprint {
                freed += e.bytes.unwrap_or(0);
                false
            } else {
                true
            }
        });
        inner.stats.resident_bytes -= freed;
    }

    /// Counters so far. `pull_bytes` is computed live over the resident
    /// entries' lazily built pull indexes.
    pub fn stats(&self) -> SplitCacheStats {
        let inner = self.inner.lock().expect("split cache lock");
        let mut stats = inner.stats;
        stats.pull_bytes = inner
            .entries
            .iter()
            .filter_map(|e| e.slot.cell.get())
            .map(|split| split.pull_bytes())
            .sum();
        stats
    }

    /// Number of distinct `(graph, Δ)` entries currently cached (built or
    /// in flight).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("split cache lock").entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::LightHeavy;
    use crate::prepared::PreparedGraph;
    use graphdata::{gen::grid2d, CsrGraph};
    use proptest::prelude::*;

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

    fn grid() -> PreparedGraph<'static> {
        PreparedGraph::load(weighted_grid())
    }

    #[test]
    fn builds_once_per_key_and_counts_hits() {
        let g = grid();
        let fp = g.fingerprint();
        let cache = SplitCache::new();
        let (a, built_a) = cache.get_or_build(fp, 1.0f64.to_bits(), || g.split(1.0));
        let (b, built_b) = cache.get_or_build(fp, 1.0f64.to_bits(), || g.split(1.0));
        assert!(built_a);
        assert!(!built_b);
        assert!(Arc::ptr_eq(&a, &b));
        let (c, _) = cache.get_or_build(fp, 2.0f64.to_bits(), || g.split(2.0));
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.evictions), (2, 1, 0));
        assert_eq!(stats.resident_bytes, a.charged_bytes() + c.charged_bytes());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_fingerprints_do_not_collide_on_delta() {
        let g = grid();
        let cache = SplitCache::new();
        let (_, first) = cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        let (_, second) = cache.get_or_build(2, 1.0f64.to_bits(), || g.split(1.0));
        assert!(first && second, "same Δ under different fingerprints must both build");
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn purge_forces_rebuild_only_for_that_graph() {
        let g = grid();
        let cache = SplitCache::new();
        cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        cache.get_or_build(2, 1.0f64.to_bits(), || g.split(1.0));
        cache.purge_fingerprint(1);
        assert_eq!(cache.len(), 1);
        let (_, rebuilt) = cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        let (_, cached) = cache.get_or_build(2, 1.0f64.to_bits(), || g.split(1.0));
        assert!(rebuilt);
        assert!(!cached);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "purges are not evictions");
        let one = g.split(1.0).charged_bytes();
        assert_eq!(stats.resident_bytes, one * 2, "purged bytes released, rebuild re-accounted");
    }

    #[test]
    fn concurrent_same_key_requests_build_exactly_once() {
        let g = grid();
        let fp = g.fingerprint();
        let cache = SplitCache::new();
        let builds: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (cache, g) = (&cache, &g);
                    scope.spawn(move || {
                        let (_, built) =
                            cache.get_or_build(fp, 1.0f64.to_bits(), || g.split(1.0));
                        usize::from(built)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits), (1, 7));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let g = grid();
        let one = g.split(1.0).charged_bytes();
        // Room for exactly two grid splits.
        let cache = SplitCache::with_byte_budget(one * 2);
        cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        cache.get_or_build(2, 1.0f64.to_bits(), || g.split(1.0));
        // Touch 1 so 2 becomes the LRU entry, then overflow with 3.
        cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        cache.get_or_build(3, 1.0f64.to_bits(), || g.split(1.0));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= one * 2);
        let (_, rebuilt_2) = cache.get_or_build(2, 1.0f64.to_bits(), || g.split(1.0));
        assert!(rebuilt_2, "the stale entry (2) must have been the victim");
        // 1 was evicted to make room for 2's rebuild just now (LRU again),
        // so only 3 can still be hot.
        let (_, rebuilt_3) = cache.get_or_build(3, 1.0f64.to_bits(), || g.split(1.0));
        assert!(!rebuilt_3, "the recently-touched entry (3) must have survived");
    }

    #[test]
    fn oversized_single_entry_evicts_itself_but_the_handle_stays_valid() {
        let g = grid();
        let cache = SplitCache::with_byte_budget(1);
        let (lh, built) = cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        assert!(built);
        assert!(lh.charged_bytes() > 1);
        assert_eq!(cache.stats().pull_bytes, 0, "evicted entries report no pull bytes");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(cache.len(), 0);
        // The returned split is still usable — the budget bounds the
        // cache, not handed-out handles.
        assert_eq!(lh.on(&g).num_vertices(), g.num_vertices());
    }

    #[test]
    fn pull_bytes_reported_once_an_index_is_built() {
        let g = grid();
        let cache = SplitCache::new();
        let (lh, _) = cache.get_or_build(1, 1.0f64.to_bits(), || g.split(1.0));
        assert_eq!(cache.stats().pull_bytes, 0, "no dense epoch yet");
        let _ = lh.on(&g).pull_index();
        assert!(lh.pull_bytes() > 0);
        assert_eq!(cache.stats().pull_bytes, lh.pull_bytes());
        // The entry was charged for its index when it was built.
        assert_eq!(cache.stats().resident_bytes, lh.charged_bytes());
        assert_eq!(lh.charged_bytes(), lh.resident_bytes() + lh.pull_bytes());
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
        assert_eq!(cache.stats().resident_bytes, copied.charged_bytes());
        // A split with no heavy edge stores no bounds at all.
        let unit = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let (all_light, _) =
            cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&unit, 1.0));
        assert_eq!(all_light.resident_bytes(), 0);
        assert_eq!(*all_light, PreparedGraph::new(&unit).split(1.0));
    }

    /// A budget bounds the pull indexes too: on a unit-weight graph no
    /// split stores points, but each distinct Δ a client names builds its
    /// own O(E) pull index on its first dense epoch. The entries are
    /// charged for their indexes up front, so however many Δ values
    /// arrive, the cache keeps no more than the budget's worth of them.
    #[test]
    fn a_budget_bounds_the_pull_indexes_of_many_deltas_on_a_unit_graph() {
        let g = PreparedGraph::load(CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap());
        let one = g.split(1.0);
        assert_eq!(one.resident_bytes(), 0, "unit weights at Δ ≥ 1: no heavy edge, no points");
        let budget = 2 * one.charged_bytes();
        let cache = SplitCache::with_byte_budget(budget);
        for i in 0..32 {
            let delta = 1.0 + f64::from(i) * 0.5;
            let (split, _) = cache.get_or_build(7, delta.to_bits(), || g.split(delta));
            // Every request on this split runs a dense epoch.
            let _ = split.on(&g).pull_index();
            let stats = cache.stats();
            assert!(stats.resident_bytes <= budget, "Δ={delta}: {stats:?}");
            assert!(stats.pull_bytes <= stats.resident_bytes, "Δ={delta}: {stats:?}");
            assert!(cache.len() <= 2, "Δ={delta}: {} entries", cache.len());
        }
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.evictions), (32, 30));
        assert_eq!(stats.pull_bytes, budget, "the two resident entries hold their indexes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Under any byte budget and any access sequence, the resident
        // total never exceeds the budget after an insert completes.
        #[test]
        fn resident_bytes_never_exceed_the_budget(
            budget_splits in 0usize..4,
            accesses in proptest::collection::vec((0u64..6, 0usize..3), 1..40),
        ) {
            let g = grid();
            let one = g.split(1.0).charged_bytes();
            let deltas = [0.5f64, 1.0, 2.0];
            // Budgets from "nothing fits" to "most things fit".
            let budget = budget_splits * one + budget_splits;
            let cache = SplitCache::with_byte_budget(budget);
            let total = accesses.len();
            for (fp, di) in accesses {
                let delta = deltas[di];
                cache.get_or_build(fp, delta.to_bits(), || g.split(delta));
                let stats = cache.stats();
                prop_assert!(
                    stats.resident_bytes <= budget,
                    "resident {} exceeds budget {}",
                    stats.resident_bytes,
                    budget
                );
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.builds + stats.hits, total, "every access counted");
        }
    }
}
