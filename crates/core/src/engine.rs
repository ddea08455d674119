//! Multi-run SSSP engine: a prepared graph, a cache of light/heavy splits
//! and a reusable relaxation workspace.
//!
//! The paper measures the matrix filtering phase (building `A_L` / `A_H`)
//! at 35–40 % of total runtime, and a served request used to pay more
//! than its solve again in per-graph set-up. An engine runs over a
//! [`PreparedGraph`] — rows sorted by weight, the weight verdict and the
//! maximum weight taken in one pass, the fingerprint taken once — so a
//! split is one partition point per row, built once per Δ, and the loop's
//! workspace ([`SteppingWorkspace`]) rides along so repeated runs
//! allocate nothing but their result.
//!
//! Three doors, one engine:
//!
//! * [`SsspEngine::new`] prepares a borrowed graph privately (one pass
//!   over the weights, one weight-sorted copy of the adjacency) with a
//!   private split cache and its own workspace — a one-off caller's
//!   engine;
//! * [`SsspEngine::with_cache`] does the same over a shared
//!   [`SplitCache`];
//! * [`SsspEngine::over`] is a view: a prepared graph someone else owns
//!   (a server's registry entry, a batch's shared preparation), a shared
//!   cache, and a borrowed workspace (a serve worker slot's, a batch
//!   worker's). Building one costs nothing per graph.
//!
//! Splits live in a [`SplitCache`] keyed by `(graph fingerprint,
//! Δ.to_bits())`, so engines over different graphs can share one store
//! and a same-Δ multi-source batch builds each split exactly once. A
//! private cache only ever sees one graph, so its key needs no
//! fingerprint and the engine takes none until a checkpoint asks.
//!
//! Engines also speak the durable-checkpoint format:
//! [`SsspEngine::save_checkpoint`] / [`SsspEngine::load_checkpoint`]
//! persist a budget-stopped run to disk (bound to the as-loaded graph by
//! its fingerprint) so a fresh process can resume it bit-identically.

use std::borrow::Cow;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::budget::RunBudget;
use crate::checkpoint::Checkpoint;
use crate::guard::{GuardConfig, SsspError};
use crate::prepared::{PreparedGraph, Split};
use crate::result::SsspResult;
use crate::split_cache::SplitCache;
use crate::stats::PhaseProfile;
use crate::stepping::{
    stepping_resume_with, stepping_with, SteppingStrategy, SteppingWorkspace,
};

/// Cache effectiveness counters, exposed for tests and bench reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Splits built (cache misses).
    pub split_builds: usize,
    /// Runs served from a cached split.
    pub split_hits: usize,
    /// Pending-set entries examined by the stepping loop's frontier
    /// extractions, summed over every run and resume on this engine
    /// (budget-stopped ones included). Deterministic — equal across
    /// thread counts and the pool-less path — and O(n + improvements)
    /// per solve on road-like graphs, where a scan of the whole distance
    /// vector per step would be n × steps.
    pub extraction_scanned: u64,
}

/// The workspace an engine runs in: its own, or one lent by a caller that
/// keeps it across engines (a serve worker slot).
#[derive(Debug)]
enum Workspace<'g> {
    Own(Box<SteppingWorkspace>),
    Lent(&'g mut SteppingWorkspace),
}

impl Default for Workspace<'_> {
    fn default() -> Self {
        Workspace::Own(Box::default())
    }
}

impl Deref for Workspace<'_> {
    type Target = SteppingWorkspace;

    fn deref(&self) -> &SteppingWorkspace {
        match self {
            Workspace::Own(ws) => ws,
            Workspace::Lent(ws) => ws,
        }
    }
}

impl DerefMut for Workspace<'_> {
    fn deref_mut(&mut self) -> &mut SteppingWorkspace {
        match self {
            Workspace::Own(ws) => ws,
            Workspace::Lent(ws) => ws,
        }
    }
}

/// Per-graph SSSP engine: a prepared graph, Δ-keyed splits and a warm
/// workspace.
///
/// ```
/// use graphdata::{gen::grid2d, CsrGraph};
/// use sssp_core::{engine::SsspEngine, RunBudget};
///
/// let g = CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap();
/// let mut engine = SsspEngine::new(&g);
/// for src in [0, 9, 27] {
///     let (r, _) = engine
///         .run_fused(src, 1.0, &mut RunBudget::unlimited())
///         .unwrap();
///     assert_eq!(r.dist[src], 0.0);
/// }
/// // One split served all three sources.
/// assert_eq!(engine.stats().split_builds, 1);
/// assert_eq!(engine.stats().split_hits, 2);
/// ```
#[derive(Debug)]
pub struct SsspEngine<'g> {
    prep: Cow<'g, PreparedGraph<'g>>,
    /// The split store, possibly shared with other engines.
    cache: Arc<SplitCache>,
    /// Whether `cache` is this engine's alone: then it only ever holds
    /// this graph and its keys carry no fingerprint.
    private_cache: bool,
    /// Δ-bits → shared split handles this engine already fetched, so the
    /// steady state costs no lock. Workloads use a handful of Δ values at
    /// most, so a linear scan beats a hash map here.
    local: Vec<(u64, Arc<Split>)>,
    ws: Workspace<'g>,
    stats: EngineStats,
}

impl<'g> SsspEngine<'g> {
    /// An engine for `g` with a private split cache and its own
    /// workspace. Prepares `g`: one pass over the weights and one
    /// weight-sorted copy of its adjacency.
    pub fn new(g: &'g CsrGraph) -> Self {
        let cache = Arc::new(SplitCache::new());
        SsspEngine::build(Cow::Owned(PreparedGraph::new(g)), cache, true, Workspace::default())
    }

    /// An engine for `g` borrowing splits from a shared `cache`. Entries
    /// are keyed by `(fingerprint, Δ.to_bits())`, so any number of
    /// engines — even over different graphs — can share one store and a
    /// same-Δ batch builds each split exactly once. The key needs the
    /// fingerprint, so this door takes it at construction.
    pub fn with_cache(g: &'g CsrGraph, cache: Arc<SplitCache>) -> Self {
        let engine =
            SsspEngine::build(Cow::Owned(PreparedGraph::new(g)), cache, false, Workspace::default());
        engine.fingerprint();
        engine
    }

    /// A view over a graph someone else prepared, a shared `cache` and a
    /// lent workspace: no pass over the graph, no allocation. The caller
    /// keeps `ws` across views; a view that panicked mid-run leaves it
    /// marked, and the next run on it starts fresh.
    pub fn over(
        prep: &'g PreparedGraph<'g>,
        cache: Arc<SplitCache>,
        ws: &'g mut SteppingWorkspace,
    ) -> Self {
        SsspEngine::build(Cow::Borrowed(prep), cache, false, Workspace::Lent(ws))
    }

    fn build(
        prep: Cow<'g, PreparedGraph<'g>>,
        cache: Arc<SplitCache>,
        private_cache: bool,
        ws: Workspace<'g>,
    ) -> Self {
        SsspEngine {
            prep,
            cache,
            private_cache,
            local: Vec::new(),
            ws,
            stats: EngineStats::default(),
        }
    }

    /// The prepared graph this engine runs on.
    pub(crate) fn prepared(&self) -> &PreparedGraph<'g> {
        &self.prep
    }

    /// The as-loaded graph's content fingerprint (the shared-cache key
    /// and checkpoint binding value), taken on first use.
    pub fn fingerprint(&self) -> u64 {
        self.prep.fingerprint()
    }

    /// The split store this engine draws from.
    pub fn cache(&self) -> &Arc<SplitCache> {
        &self.cache
    }

    /// Cache counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The graph half of this engine's split-cache keys.
    fn cache_key(&self) -> u64 {
        if self.private_cache {
            0
        } else {
            self.fingerprint()
        }
    }

    /// Drop this graph's cached splits, both the engine-local handles and
    /// the shared entries under this graph's key (the workspace and the
    /// prepared graph are kept — neither depends on Δ).
    pub fn clear_cache(&mut self) {
        self.local.clear();
        self.cache.purge_fingerprint(self.cache_key());
    }

    /// [`crate::guard::preflight`] without a pass over the weights: the
    /// source and Δ checks run per call, the weight verdict is the one the
    /// prepared graph took once.
    pub fn preflight(
        &mut self,
        source: usize,
        delta: f64,
        cfg: &GuardConfig,
    ) -> Result<f64, SsspError> {
        self.prep.preflight(source, delta, cfg)
    }

    /// The split for `delta`, fetched from the cache and built on a miss
    /// (by this engine or a concurrent sharer — whoever asks first), with
    /// the build time this engine actually paid (zero on a hit) — what a
    /// run reports as `matrix_filter`.
    fn split_for(&mut self, delta: f64) -> (Arc<Split>, Duration) {
        let key = delta.to_bits();
        if let Some((_, split)) = self.local.iter().find(|(k, _)| *k == key) {
            self.stats.split_hits += 1;
            return (Arc::clone(split), Duration::ZERO);
        }
        let t0 = Instant::now();
        let prep = &self.prep;
        let (split, built) = self.cache.get_or_build(self.cache_key(), key, || prep.split(delta));
        let filter_time = if built {
            self.stats.split_builds += 1;
            t0.elapsed()
        } else {
            self.stats.split_hits += 1;
            Duration::ZERO
        };
        self.local.push((key, Arc::clone(&split)));
        (split, filter_time)
    }

    /// Sequential classic Δ-stepping (the paper's fused implementation):
    /// `run_stepping(None, .., Classic, ..)`, named for the benchmark
    /// harness.
    pub fn run_fused(
        &mut self,
        source: usize,
        delta: f64,
        budget: &mut RunBudget,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        self.run_stepping(None, source, delta, SteppingStrategy::Classic, budget)
    }

    /// Pooled classic Δ-stepping (the paper's proposed improvement):
    /// `run_stepping(Some(pool), .., Classic, ..)`, named for the
    /// benchmark harness.
    pub fn run_parallel_improved(
        &mut self,
        pool: &ThreadPool,
        source: usize,
        delta: f64,
        budget: &mut RunBudget,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        self.run_stepping(Some(pool), source, delta, SteppingStrategy::Classic, budget)
    }

    /// The one way to run: any [`SteppingStrategy`] through the split
    /// cache and the warm workspace, on the pooled relaxation kernels
    /// when `pool` is given and the sequential ones otherwise. Distances
    /// and stats are bit-identical across thread counts and the
    /// pool-less path for every strategy; the profile's `matrix_filter`
    /// is zero whenever the split was already cached.
    pub fn run_stepping(
        &mut self,
        pool: Option<&ThreadPool>,
        source: usize,
        delta: f64,
        strategy: SteppingStrategy,
        budget: &mut RunBudget,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        strategy.validate()?;
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(SsspError::InvalidDelta { delta });
        }
        let (split, filter_time) = self.split_for(delta);
        let view = split.on(&self.prep);
        let outcome =
            stepping_with(view, source, delta, strategy, pool, budget, self.ws.begin_run());
        self.finish_run(outcome, filter_time)
    }

    /// The one way to resume: continue any resumable checkpoint — from
    /// this loop under any strategy, or from an older binary's classic
    /// loops — through the split cache.
    /// Bit-identical to the uninterrupted run, pooled or not.
    pub fn resume_stepping(
        &mut self,
        pool: Option<&ThreadPool>,
        cp: &Checkpoint,
        budget: &mut RunBudget,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        cp.validate(self.prep.num_vertices())?;
        let (split, filter_time) = self.split_for(cp.delta);
        let view = split.on(&self.prep);
        let outcome = stepping_resume_with(view, cp, pool, budget, self.ws.begin_run());
        self.finish_run(outcome, filter_time)
    }

    /// Leave the workspace, fold the run's extraction work into the
    /// counters (stopped runs did the work too) and charge it the split
    /// build this engine paid.
    fn finish_run(
        &mut self,
        outcome: Result<(SsspResult, PhaseProfile), SsspError>,
        filter_time: Duration,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        self.stats.extraction_scanned += self.ws.end_run();
        let (result, mut profile) = outcome?;
        profile.matrix_filter += filter_time;
        Ok((result, profile))
    }

    /// Persist a checkpoint to `path` in the binary format of
    /// [`Checkpoint::to_bytes`], stamped with this engine's graph
    /// fingerprint. The write goes through a sibling temp file and an
    /// atomic rename, so a crash mid-save leaves either the old file or
    /// the new one — never a torn checkpoint; a *failed* save cleans up
    /// its temp file before surfacing the original error.
    pub fn save_checkpoint(&self, cp: &Checkpoint, path: &Path) -> Result<(), SsspError> {
        cp.validate(self.prep.num_vertices())?;
        let bytes = cp.to_bytes(self.fingerprint());
        crate::checkpoint::atomic_write(path, &bytes).map_err(|e| SsspError::CheckpointIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Load a checkpoint saved by [`SsspEngine::save_checkpoint`] (in this
    /// process or any other), refusing one whose fingerprint does not
    /// match this engine's graph or whose structure fails
    /// [`Checkpoint::validate`].
    pub fn load_checkpoint(&self, path: &Path) -> Result<Checkpoint, SsspError> {
        let bytes = std::fs::read(path).map_err(|e| SsspError::CheckpointIo {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let (cp, fingerprint) = Checkpoint::from_bytes(&bytes)?;
        if fingerprint != self.fingerprint() {
            return Err(SsspError::InvalidCheckpoint {
                reason: format!(
                    "checkpoint was saved against graph fingerprint {fingerprint:#018x}, \
                     this engine's graph is {:#018x}",
                    self.fingerprint()
                ),
            });
        }
        cp.validate(self.prep.num_vertices())?;
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::delta_stepping_fused;
    use crate::stepping::delta_stepping_strategy;
    use graphdata::gen;

    fn test_graph() -> CsrGraph {
        let mut el = gen::gnm(300, 2000, 42);
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.5 },
            7,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    #[test]
    fn fused_through_cache_matches_direct() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        for src in [0, 11, 250, 0] {
            let (cached, _) = engine.run_fused(src, 1.0, &mut RunBudget::unlimited()).unwrap();
            let direct = delta_stepping_fused(&g, src, 1.0);
            assert_eq!(cached.dist, direct.dist, "source {src}");
            assert_eq!(cached.stats, direct.stats, "source {src}");
        }
        assert_eq!(engine.stats().split_builds, 1);
        assert_eq!(engine.stats().split_hits, 3);
    }

    #[test]
    fn improved_through_cache_matches_direct() {
        let g = test_graph();
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut engine = SsspEngine::new(&g);
        for src in [5, 77, 5] {
            let (cached, _) = engine
                .run_parallel_improved(&pool, src, 1.0, &mut RunBudget::unlimited())
                .unwrap();
            let direct =
                delta_stepping_strategy(&g, src, 1.0, SteppingStrategy::Classic, Some(&pool));
            assert_eq!(cached.dist, direct.dist, "source {src}");
            assert_eq!(cached.stats, direct.stats, "source {src}");
        }
        assert_eq!(engine.stats().split_builds, 1);
    }

    #[test]
    fn distinct_deltas_get_distinct_splits() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let budget = &mut RunBudget::unlimited();
        engine.run_fused(0, 0.5, budget).unwrap();
        engine.run_fused(0, 1.5, budget).unwrap();
        engine.run_fused(0, 0.5, budget).unwrap();
        assert_eq!(engine.stats().split_builds, 2);
        assert_eq!(engine.stats().split_hits, 1);
        engine.clear_cache();
        engine.run_fused(0, 0.5, budget).unwrap();
        assert_eq!(engine.stats().split_builds, 3);
    }

    #[test]
    fn cache_hit_reports_zero_filter_time() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let budget = &mut RunBudget::unlimited();
        engine.run_fused(0, 1.0, budget).unwrap();
        let (_, profile) = engine.run_fused(1, 1.0, budget).unwrap();
        assert_eq!(profile.matrix_filter.as_nanos(), 0);
    }

    #[test]
    fn engine_surfaces_checked_errors() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        assert!(matches!(
            engine.run_fused(0, f64::NAN, &mut RunBudget::unlimited()),
            Err(SsspError::InvalidDelta { .. })
        ));
        assert!(matches!(
            engine.run_fused(10_000, 1.0, &mut RunBudget::unlimited()),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
    }

    #[test]
    fn sequential_and_parallel_split_share_cache_entry() {
        let g = test_graph();
        let pool = ThreadPool::with_threads(2).unwrap();
        let mut engine = SsspEngine::new(&g);
        let budget = &mut RunBudget::unlimited();
        engine.run_fused(0, 1.0, budget).unwrap();
        // Same Δ: the parallel run reuses the sequentially built split.
        engine.run_parallel_improved(&pool, 0, 1.0, budget).unwrap();
        assert_eq!(engine.stats().split_builds, 1);
        assert_eq!(engine.stats().split_hits, 1);
    }

    #[test]
    fn preflight_reads_the_prepared_verdict_and_still_checks_each_call() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let cfg = GuardConfig::default();
        for src in [0, 11, 250, 0, 42] {
            let delta = engine.preflight(src, 1.0, &cfg).unwrap();
            engine.run_fused(src, delta, &mut RunBudget::unlimited()).unwrap();
        }
        // The cached verdict still enforces the per-call O(1) checks.
        assert!(matches!(
            engine.preflight(10_000, 1.0, &cfg),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
        assert!(matches!(
            engine.preflight(0, f64::NAN, &cfg),
            Err(SsspError::InvalidDelta { .. })
        ));
    }

    #[test]
    fn preflight_replays_a_bad_verdict() {
        let bad = CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![-3.0]);
        let mut engine = SsspEngine::new(&bad);
        let cfg = GuardConfig::default();
        for _ in 0..3 {
            assert!(matches!(
                engine.preflight(0, 1.0, &cfg),
                Err(SsspError::NegativeWeight { .. })
            ));
        }
    }

    #[test]
    fn a_lent_workspace_serves_views_over_graphs_of_either_size() {
        // One workspace, two prepared graphs, views alternating between
        // them: each answer matches a fresh engine's, stats included, and
        // a budget stop on the larger graph leaks nothing into the next
        // run on the smaller one.
        let big = test_graph();
        let small = CsrGraph::from_edge_list(&gen::grid2d(6, 6)).unwrap();
        let (big_prep, small_prep) = (PreparedGraph::new(&big), PreparedGraph::new(&small));
        let cache = Arc::new(SplitCache::new());
        let mut ws = SteppingWorkspace::default();
        let strategy = SteppingStrategy::Rho(8);
        for round in 0..3 {
            for (prep, g, src) in [(&big_prep, &big, 3), (&small_prep, &small, 7)] {
                let fresh = SsspEngine::new(g)
                    .run_stepping(None, src, 1.0, strategy, &mut RunBudget::unlimited())
                    .unwrap()
                    .0;
                let mut view = SsspEngine::over(prep, Arc::clone(&cache), &mut ws);
                let (r, _) = view
                    .run_stepping(None, src, 1.0, strategy, &mut RunBudget::unlimited())
                    .unwrap();
                assert_eq!(r.dist, fresh.dist, "round {round}");
                assert_eq!(r.stats, fresh.stats, "round {round}");
            }
            let mut view = SsspEngine::over(&big_prep, Arc::clone(&cache), &mut ws);
            let stopped = view.run_stepping(
                None,
                3,
                1.0,
                strategy,
                &mut RunBudget::unlimited().cancel_after(3 + round),
            );
            assert!(stopped.unwrap_err().checkpoint().is_some());
        }
        assert_eq!(cache.stats().builds, 2, "one split per graph, shared by every view");
    }

    #[test]
    fn two_graphs_sharing_a_cache_at_equal_delta_stay_correct() {
        // Regression for the bare-Δ cache key: with the fingerprint
        // missing from the key, the second engine would silently relax
        // over the first graph's split and return wrong distances.
        let g1 = test_graph();
        let mut el = gen::gnm(300, 2000, 43); // different seed → different topology
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.5 },
            9,
        );
        let g2 = CsrGraph::from_edge_list(&el).unwrap();
        assert_ne!(g1.fingerprint(), g2.fingerprint());

        let cache = std::sync::Arc::new(SplitCache::new());
        let mut e1 = SsspEngine::with_cache(&g1, std::sync::Arc::clone(&cache));
        let mut e2 = SsspEngine::with_cache(&g2, std::sync::Arc::clone(&cache));
        let budget = &mut RunBudget::unlimited();
        let (r1, _) = e1.run_fused(0, 1.0, budget).unwrap();
        let (r2, _) = e2.run_fused(0, 1.0, budget).unwrap();
        assert_eq!(r1.dist, crate::dijkstra::dijkstra(&g1, 0).dist);
        assert_eq!(r2.dist, crate::dijkstra::dijkstra(&g2, 0).dist);
        // Equal Δ, different graphs: two distinct cache entries, no
        // cross-graph hit.
        assert_eq!(cache.stats().builds, 2);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shared_cache_serves_a_sibling_engine_without_rebuilding() {
        let g = test_graph();
        let cache = std::sync::Arc::new(SplitCache::new());
        let mut e1 = SsspEngine::with_cache(&g, std::sync::Arc::clone(&cache));
        let mut e2 = SsspEngine::with_cache(&g, std::sync::Arc::clone(&cache));
        let budget = &mut RunBudget::unlimited();
        let (r1, _) = e1.run_fused(0, 1.0, budget).unwrap();
        let (r2, _) = e2.run_fused(0, 1.0, budget).unwrap();
        assert_eq!(r1.dist, r2.dist);
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(cache.stats().hits, 1);
        // The second engine records the shared fetch as its own hit.
        assert_eq!(e1.stats().split_builds, 1);
        assert_eq!(e2.stats().split_builds, 0);
        assert_eq!(e2.stats().split_hits, 1);
    }

    #[test]
    fn stepping_strategies_share_the_split_cache_and_match_dijkstra() {
        let g = test_graph();
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut engine = SsspEngine::new(&g);
        let dj = crate::dijkstra::dijkstra(&g, 0);
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(64),
            SteppingStrategy::DeltaStar(4.0),
        ] {
            let (seq, _) = engine
                .run_stepping(None, 0, 1.0, strategy, &mut RunBudget::unlimited())
                .unwrap();
            assert_eq!(seq.dist, dj.dist, "{strategy} sequential");
            let (par, _) = engine
                .run_stepping(Some(&pool), 0, 1.0, strategy, &mut RunBudget::unlimited())
                .unwrap();
            assert_eq!(par.dist, dj.dist, "{strategy} pooled");
        }
        // One Δ, six runs across three strategies: a single split build.
        assert_eq!(engine.stats().split_builds, 1);
        assert_eq!(engine.stats().split_hits, 5);
    }

    #[test]
    fn stepping_checkpoint_round_trips_through_disk_and_resume() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let strategy = SteppingStrategy::Rho(32);
        let full = engine
            .run_stepping(None, 3, 1.0, strategy, &mut RunBudget::unlimited())
            .unwrap()
            .0;
        let err = engine
            .run_stepping(None, 3, 1.0, strategy, &mut RunBudget::unlimited().cancel_after(4))
            .unwrap_err();
        let cp = err.into_checkpoint().unwrap();
        assert_eq!(cp.implementation, "stepping");
        assert_eq!(cp.stepping.map(|st| st.strategy), Some(strategy));

        let dir = std::env::temp_dir().join(format!("sssp-stepping-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.bin");
        engine.save_checkpoint(&cp, &path).unwrap();
        let loaded = engine.load_checkpoint(&path).unwrap();
        assert_eq!(loaded, cp);
        let (resumed, _) = engine
            .resume_stepping(None, &loaded, &mut RunBudget::unlimited())
            .unwrap();
        assert_eq!(resumed.dist, full.dist);
        assert_eq!(resumed.stats, full.stats);
        std::fs::remove_dir_all(&dir).unwrap();

        let classic_full = engine.run_fused(3, 1.0, &mut RunBudget::unlimited()).unwrap().0;
        let err = engine
            .run_fused(3, 1.0, &mut RunBudget::unlimited().cancel_after(2))
            .unwrap_err();
        let classic_cp = err.into_checkpoint().unwrap();
        // Classic is a strategy like the others: same label, same trailer.
        assert_eq!(classic_cp.implementation, "stepping");
        assert_eq!(
            classic_cp.stepping.map(|st| st.strategy),
            Some(SteppingStrategy::Classic)
        );
        let (resumed, _) = engine
            .resume_stepping(None, &classic_cp, &mut RunBudget::unlimited())
            .unwrap();
        assert_eq!(resumed.dist, classic_full.dist);
        assert_eq!(resumed.stats, classic_full.stats);
    }

    #[test]
    fn checkpoint_survives_disk_round_trip_and_rejects_foreign_graphs() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let full = engine.run_fused(3, 1.0, &mut RunBudget::unlimited()).unwrap().0;
        let err = engine
            .run_fused(3, 1.0, &mut RunBudget::unlimited().cancel_after(2))
            .unwrap_err();
        let cp = err.into_checkpoint().unwrap();

        let dir = std::env::temp_dir().join(format!("sssp-engine-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.bin");
        engine.save_checkpoint(&cp, &path).unwrap();
        let loaded = engine.load_checkpoint(&path).unwrap();
        assert_eq!(loaded, cp);
        let (resumed, _) = engine
            .resume_stepping(None, &loaded, &mut RunBudget::unlimited())
            .unwrap();
        assert_eq!(resumed.dist, full.dist);
        assert_eq!(resumed.stats, full.stats);

        // A different graph refuses the file by fingerprint.
        let other = CsrGraph::from_edge_list(&gen::grid2d(10, 10)).unwrap();
        let foreign = SsspEngine::new(&other);
        match foreign.load_checkpoint(&path) {
            Err(SsspError::InvalidCheckpoint { reason }) => {
                assert!(reason.contains("fingerprint"), "{reason}");
            }
            other => panic!("expected fingerprint rejection, got {other:?}"),
        }

        // Corrupting the payload is a clean InvalidCheckpoint.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        let bad = dir.join("bad.bin");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            engine.load_checkpoint(&bad),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
        // A missing file is an I/O error, not a phantom checkpoint.
        assert!(matches!(
            engine.load_checkpoint(&dir.join("nope.bin")),
            Err(SsspError::CheckpointIo { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_save_removes_its_temp_file_and_surfaces_the_error() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let err = engine
            .run_fused(3, 1.0, &mut RunBudget::unlimited().cancel_after(2))
            .unwrap_err();
        let cp = err.into_checkpoint().unwrap();
        let dir = std::env::temp_dir().join(format!("sssp-engine-leak-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.bin");

        // Injected rename failure: the save must fail with the injected
        // error, and the orphaned `.tmp` must be cleaned up.
        taskpool::fault::arm_checkpoint_rename_failure();
        let err = engine.save_checkpoint(&cp, &path).unwrap_err();
        taskpool::fault::disarm();
        match err {
            SsspError::CheckpointIo { message, .. } => {
                assert!(
                    message.contains(taskpool::fault::INJECTED_RENAME_FAILURE_MESSAGE),
                    "{message}"
                );
            }
            other => panic!("expected CheckpointIo, got {other:?}"),
        }
        let tmp = dir.join("cp.bin.tmp");
        assert!(!tmp.exists(), "failed save leaked its temp file");
        assert!(!path.exists(), "failed save must not produce a final file");

        // The hook is one-shot: the next save succeeds normally.
        engine.save_checkpoint(&cp, &path).unwrap();
        assert!(path.exists());
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_workspace_drops_a_stopped_runs_pending_set() {
        // A budget stop leaves its discovered-but-unsettled vertices in
        // the workspace's pending set. The next run on the same engine —
        // here from a six-vertex component the stopped run never reaches
        // — must not see them, and neither must a later resume.
        let mut el = gen::gnm(300, 2000, 42);
        for v in 300..305 {
            el.push(v, v + 1, 0.7);
        }
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.5 },
            7,
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let mut engine = SsspEngine::new(&g);
        let strategy = SteppingStrategy::Rho(8);
        let full = engine
            .run_stepping(None, 3, 1.0, strategy, &mut RunBudget::unlimited())
            .unwrap()
            .0;
        assert_eq!(full.dist, crate::dijkstra::dijkstra(&g, 3).dist);

        let cp = engine
            .run_stepping(None, 3, 1.0, strategy, &mut RunBudget::unlimited().cancel_after(5))
            .unwrap_err()
            .into_checkpoint()
            .unwrap();
        let threshold = cp.stepping.unwrap().threshold;
        let waiting = cp.dist.iter().filter(|d| d.is_finite() && **d >= threshold);
        assert!(waiting.count() > 12, "the stop must leave a pending set behind");

        let before = engine.stats().extraction_scanned;
        // (An epoch limit, so leaked ∞-distance members fail the run
        // instead of spinning it.)
        let (small, _) = engine
            .run_stepping(None, 302, 1.0, strategy, &mut RunBudget::with_limit(100))
            .unwrap();
        assert_eq!(small.dist, crate::dijkstra::dijkstra(&g, 302).dist);
        assert_eq!(small.dist.iter().filter(|d| d.is_finite()).count(), 6);
        // Six vertices, each pending once or twice: leaked members would
        // be re-examined by every extraction.
        assert!(engine.stats().extraction_scanned - before <= 12);

        let (resumed, _) = engine
            .resume_stepping(None, &cp, &mut RunBudget::unlimited())
            .unwrap();
        assert_eq!(resumed.dist, full.dist);
        assert_eq!(resumed.stats, full.stats);
    }

    #[test]
    fn a_run_after_a_panicked_one_starts_on_a_fresh_workspace() {
        let g = test_graph();
        let unlimited = &mut RunBudget::unlimited();
        let reference = SsspEngine::new(&g).run_fused(7, 1.0, unlimited).unwrap().0;
        let _session = taskpool::fault::TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        let mut engine = SsspEngine::new(&g);
        // Build the split first, so the injected fault lands mid-run,
        // inside the pooled relaxation kernels.
        engine.run_parallel_improved(&pool, 0, 1.0, &mut RunBudget::unlimited()).unwrap();
        for after in [0, 3, 9] {
            taskpool::fault::arm_panic_after(after);
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run_parallel_improved(&pool, 0, 1.0, &mut RunBudget::unlimited())
            }));
            taskpool::fault::disarm();
            assert!(panicked.is_err(), "fault after {after} tasks must fire");
            let (r, _) = engine.run_fused(7, 1.0, &mut RunBudget::unlimited()).unwrap();
            assert_eq!(r.dist, reference.dist, "fault after {after} tasks");
            assert_eq!(r.stats, reference.stats, "fault after {after} tasks");
        }
    }

    #[test]
    fn engine_resume_matches_uninterrupted_run() {
        // One table over (strategy × kernel the checkpoint was cut on ×
        // kernel it resumes on): the pooled and pool-less kernels are
        // bit-identical step for step, so every crossing reconverges.
        let g = test_graph();
        let pool = ThreadPool::with_threads(4).unwrap();
        let mut engine = SsspEngine::new(&g);
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(32),
            SteppingStrategy::DeltaStar(4.0),
        ] {
            let full = engine
                .run_stepping(None, 3, 1.0, strategy, &mut RunBudget::unlimited())
                .unwrap()
                .0;
            for cut_on in [None, Some(&pool)] {
                for k in [0, 2, 7] {
                    let err = engine
                        .run_stepping(
                            cut_on,
                            3,
                            1.0,
                            strategy,
                            &mut RunBudget::unlimited().cancel_after(k),
                        )
                        .unwrap_err();
                    let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
                    for resume_on in [None, Some(&pool)] {
                        let (resumed, _) = engine
                            .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                            .unwrap();
                        let label = format!(
                            "{strategy}: cut pooled={}, resumed pooled={}, epoch {k}",
                            cut_on.is_some(),
                            resume_on.is_some()
                        );
                        assert_eq!(resumed.dist, full.dist, "{label}");
                        assert_eq!(resumed.stats, full.stats, "{label}");
                    }
                }
            }
        }
        // Every run and resume reused the single cached split.
        assert_eq!(engine.stats().split_builds, 1);
    }
}
