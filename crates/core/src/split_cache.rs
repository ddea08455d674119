//! The shared, graph-aware light/heavy split cache.
//!
//! The paper measures building `A_L` / `A_H` at 35–40 % of sequential
//! runtime, which makes the split the one artifact worth sharing across a
//! multi-source batch: every worker engine relaxing the same graph at the
//! same Δ wants the same split. [`SplitCache`] is that shared store —
//! `Arc`-handled, keyed by **`(graph fingerprint, Δ bits)`** so distinct
//! graphs can never collide on a Δ value (the bug an engine-private,
//! Δ-only key used to hide), with build-once semantics: when several
//! engines request a missing entry concurrently, exactly one runs the
//! `O(|E|)` filter and the rest block briefly and then clone the handle.
//!
//! A cache built with [`SplitCache::with_byte_budget`] additionally runs
//! an LRU eviction policy over the *built* entries: whenever accounting a
//! finished build pushes the resident total past the budget,
//! least-recently-used built entries are dropped until the total fits.
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

use crate::fused::LightHeavy;

/// Cache-wide effectiveness counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SplitCacheStats {
    /// Splits actually built (cache misses that ran the matrix filter).
    pub builds: usize,
    /// Requests served from an already-built split.
    pub hits: usize,
    /// Built entries dropped by the byte-budget LRU policy.
    pub evictions: usize,
    /// Bytes currently held by built, still-resident entries.
    pub resident_bytes: usize,
    /// Bytes held by lazily built pull (CSC) indexes attached to
    /// resident entries. Summed live at query time: an index appears on
    /// an entry's first dense (pull) epoch, after the entry itself was
    /// accounted, and the eviction budget deliberately charges only the
    /// split CSR (`resident_bytes`) — evicting the entry frees its pull
    /// index with it.
    pub pull_bytes: usize,
}

/// One cache entry: a build-once cell the winning requester fills.
#[derive(Debug, Default)]
struct SplitSlot {
    cell: OnceLock<Arc<LightHeavy>>,
}

#[derive(Debug)]
struct Entry {
    key: (u64, u64),
    slot: Arc<SplitSlot>,
    /// Logical clock value of the most recent access (insert, hit, or
    /// build completion) — the LRU recency stamp.
    last_used: u64,
    /// Resident size once the build completed; `0` while the build is
    /// still in flight (a built split is never empty: `light_off` alone
    /// holds `|V| + 1 ≥ 1` entries, so `0` is an unambiguous sentinel).
    bytes: usize,
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
    /// Evict least-recently-used **built** entries until the resident
    /// total fits `budget`. In-flight entries (bytes == 0) are skipped:
    /// they hold no accounted bytes and other requesters may be parked
    /// on their `OnceLock`.
    fn evict_to_budget(&mut self, budget: usize) {
        while self.stats.resident_bytes > budget {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.bytes > 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            let evicted = self.entries.remove(i);
            self.stats.resident_bytes -= evicted.bytes;
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
    /// evicted until `resident_bytes ≤ bytes`.
    pub fn with_byte_budget(bytes: usize) -> Self {
        SplitCache { inner: Mutex::default(), byte_budget: Some(bytes) }
    }

    /// The split for `(fingerprint, delta_bits)`, running `build` if and
    /// only if this call is the first to want it. Returns the shared
    /// handle and whether *this* call built it (so callers can attribute
    /// the filter time to themselves).
    pub fn get_or_build(
        &self,
        fingerprint: u64,
        delta_bits: u64,
        build: impl FnOnce() -> LightHeavy,
    ) -> (Arc<LightHeavy>, bool) {
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
                        bytes: 0,
                    });
                    slot
                }
            }
        };
        let mut built = false;
        let lh = Arc::clone(slot.cell.get_or_init(|| {
            built = true;
            Arc::new(build())
        }));
        let mut inner = self.inner.lock().expect("split cache lock");
        if built {
            inner.stats.builds += 1;
            // Account the finished build against the entry — unless a
            // concurrent purge already dropped it, in which case there
            // is nothing resident to charge for.
            inner.tick += 1;
            let tick = inner.tick;
            let size = lh.resident_bytes();
            if let Some(entry) = inner.entries.iter_mut().find(|e| e.key == key) {
                entry.bytes = size;
                entry.last_used = tick;
                inner.stats.resident_bytes += size;
                if let Some(budget) = self.byte_budget {
                    inner.evict_to_budget(budget);
                }
            }
        } else {
            inner.stats.hits += 1;
        }
        (lh, built)
    }

    /// Drop every entry belonging to `fingerprint` (an engine's
    /// `clear_cache`). Outstanding `Arc<LightHeavy>` handles stay valid;
    /// the next request rebuilds. Purged bytes leave `resident_bytes`
    /// but are not counted as evictions — the caller asked.
    pub fn purge_fingerprint(&self, fingerprint: u64) {
        let mut inner = self.inner.lock().expect("split cache lock");
        let mut freed = 0usize;
        inner.entries.retain(|e| {
            if e.key.0 == fingerprint {
                freed += e.bytes;
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
            .map(|lh| lh.pull_bytes())
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
    use graphdata::{gen::grid2d, CsrGraph};
    use proptest::prelude::*;

    fn grid() -> CsrGraph {
        CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap()
    }

    #[test]
    fn builds_once_per_key_and_counts_hits() {
        let g = grid();
        let fp = g.fingerprint();
        let cache = SplitCache::new();
        let (a, built_a) = cache.get_or_build(fp, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        let (b, built_b) = cache.get_or_build(fp, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert!(built_a);
        assert!(!built_b);
        assert!(Arc::ptr_eq(&a, &b));
        cache.get_or_build(fp, 2.0f64.to_bits(), || LightHeavy::build(&g, 2.0));
        let stats = cache.stats();
        assert_eq!((stats.builds, stats.hits, stats.evictions), (2, 1, 0));
        assert_eq!(stats.resident_bytes, a.resident_bytes() * 2, "two identical grid splits");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_fingerprints_do_not_collide_on_delta() {
        let g = grid();
        let cache = SplitCache::new();
        let (_, first) = cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        let (_, second) = cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert!(first && second, "same Δ under different fingerprints must both build");
        assert_eq!(cache.stats().builds, 2);
    }

    #[test]
    fn purge_forces_rebuild_only_for_that_graph() {
        let g = grid();
        let cache = SplitCache::new();
        cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        cache.purge_fingerprint(1);
        assert_eq!(cache.len(), 1);
        let (_, rebuilt) = cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        let (_, cached) = cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert!(rebuilt);
        assert!(!cached);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0, "purges are not evictions");
        let one = LightHeavy::build(&g, 1.0).resident_bytes();
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
                            cache.get_or_build(fp, 1.0f64.to_bits(), || LightHeavy::build(g, 1.0));
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
        let one = LightHeavy::build(&g, 1.0).resident_bytes();
        // Room for exactly two grid splits.
        let cache = SplitCache::with_byte_budget(one * 2);
        cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        // Touch 1 so 2 becomes the LRU entry, then overflow with 3.
        cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        cache.get_or_build(3, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= one * 2);
        let (_, rebuilt_2) = cache.get_or_build(2, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert!(rebuilt_2, "the stale entry (2) must have been the victim");
        // 1 was evicted to make room for 2's rebuild just now (LRU again),
        // so only 3 can still be hot.
        let (_, rebuilt_3) = cache.get_or_build(3, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert!(!rebuilt_3, "the recently-touched entry (3) must have survived");
    }

    #[test]
    fn oversized_single_entry_evicts_itself_but_the_handle_stays_valid() {
        let g = grid();
        let cache = SplitCache::with_byte_budget(1);
        let (lh, built) = cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert!(built);
        assert!(lh.resident_bytes() > 1);
        assert_eq!(cache.stats().pull_bytes, 0, "evicted entries report no pull bytes");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(cache.len(), 0);
        // The returned split is still usable — the budget bounds the
        // cache, not handed-out handles.
        assert_eq!(lh.light_off.len(), g.num_vertices() + 1);
    }

    #[test]
    fn pull_bytes_reported_once_an_index_is_built() {
        let g = grid();
        let cache = SplitCache::new();
        let (lh, _) = cache.get_or_build(1, 1.0f64.to_bits(), || LightHeavy::build(&g, 1.0));
        assert_eq!(cache.stats().pull_bytes, 0, "no dense epoch yet");
        let _ = lh.pull_index();
        assert!(lh.pull_bytes() > 0);
        assert_eq!(cache.stats().pull_bytes, lh.pull_bytes());
        // The CSR accounting the eviction budget uses is unchanged.
        assert_eq!(cache.stats().resident_bytes, lh.resident_bytes());
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
            let one = LightHeavy::build(&g, 1.0).resident_bytes();
            let deltas = [0.5f64, 1.0, 2.0];
            // Budgets from "nothing fits" to "most things fit".
            let budget = budget_splits * one + budget_splits;
            let cache = SplitCache::with_byte_budget(budget);
            let total = accesses.len();
            for (fp, di) in accesses {
                let delta = deltas[di];
                cache.get_or_build(fp, delta.to_bits(), || LightHeavy::build(&g, delta));
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
