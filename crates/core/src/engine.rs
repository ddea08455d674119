//! Multi-run SSSP engine: a per-graph cache of light/heavy splits plus
//! reusable relaxation workspaces.
//!
//! The paper measures the matrix filtering phase (building `A_L` / `A_H`)
//! at 35–40 % of total runtime. A single query cannot avoid that cost, but
//! multi-source workloads (bench loops, all-pairs sampling, the CLI's
//! `--sources` mode) re-split the *same* matrix at the *same* Δ on every
//! call. [`SsspEngine`] builds each split once; the loop's workspace
//! ([`SteppingWorkspace`]) rides along so repeated runs allocate nothing
//! after the first.
//!
//! Splits live in a shared [`SplitCache`] keyed by
//! `(graph fingerprint, Δ.to_bits())`: an engine created with
//! [`SsspEngine::new`] gets a private cache and behaves exactly as
//! before, while engines created with [`SsspEngine::with_cache`] (one per
//! batch worker) share one `Arc`'d store, so a same-Δ multi-source batch
//! filters `A_L`/`A_H` exactly once no matter how many workers drain it.
//! The fingerprint in the key is what makes sharing sound: a bare
//! `Δ.to_bits()` key was only correct while the cache could see a single
//! graph.
//!
//! Engines also speak the durable-checkpoint format:
//! [`SsspEngine::save_checkpoint`] / [`SsspEngine::load_checkpoint`]
//! persist a budget-stopped run to disk (bound to the graph by the same
//! fingerprint) so a fresh process can resume it bit-identically.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::budget::RunBudget;
use crate::checkpoint::Checkpoint;
use crate::fused::LightHeavy;
use crate::guard::{self, GuardConfig, SsspError};
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
    /// `O(|V| + |E|)` weight-validation scans actually executed. Stays at
    /// 1 across any number of checked runs on the same engine — the
    /// verdict is cached alongside the split cache.
    pub preflight_scans: usize,
    /// Pending-set entries examined by the stepping loop's frontier
    /// extractions, summed over every run and resume on this engine
    /// (budget-stopped ones included). Deterministic — equal across
    /// thread counts and the pool-less path — and O(n + improvements)
    /// per solve on road-like graphs, where a scan of the whole distance
    /// vector per step would be n × steps.
    pub extraction_scanned: u64,
}

/// Per-graph SSSP engine with a Δ-keyed split cache and warm workspaces.
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
    g: &'g CsrGraph,
    /// Content fingerprint of `g`, computed once at construction: the
    /// graph half of every split-cache key and the binding stamp of
    /// serialized checkpoints.
    fingerprint: u64,
    /// The split store, possibly shared with other engines.
    cache: Arc<SplitCache>,
    /// Δ-bits → shared split handles this engine already fetched, so the
    /// steady state costs no lock. Workloads use a handful of Δ values at
    /// most, so a linear scan beats a hash map here.
    local: Vec<(u64, Arc<LightHeavy>)>,
    ws: SteppingWorkspace,
    /// Set while a run is inside `ws`. A run that finds it still set
    /// follows one that panicked mid-run, whose request buffers may
    /// break their "all-INF when idle" invariant, so it starts on a fresh
    /// workspace. Cached splits are immutable once built and survive.
    ws_in_use: bool,
    /// Cached verdict of the `O(|V| + |E|)` weight scan. The engine
    /// borrows the graph immutably for its whole lifetime, so the verdict
    /// can never go stale.
    weights_verdict: Option<Result<(), SsspError>>,
    stats: EngineStats,
}

impl<'g> SsspEngine<'g> {
    /// An engine for `g` with a private split cache and workspaces sized
    /// for `g`.
    pub fn new(g: &'g CsrGraph) -> Self {
        SsspEngine::with_cache(g, Arc::new(SplitCache::new()))
    }

    /// An engine for `g` borrowing splits from a shared `cache`. Entries
    /// are keyed by `(g.fingerprint(), Δ.to_bits())`, so any number of
    /// engines — even over different graphs — can share one store and a
    /// same-Δ batch builds each split exactly once.
    pub fn with_cache(g: &'g CsrGraph, cache: Arc<SplitCache>) -> Self {
        let n = g.num_vertices();
        SsspEngine {
            g,
            fingerprint: g.fingerprint(),
            cache,
            local: Vec::new(),
            ws: SteppingWorkspace::new(n),
            ws_in_use: false,
            weights_verdict: None,
            stats: EngineStats::default(),
        }
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &'g CsrGraph {
        self.g
    }

    /// The graph's content fingerprint (the cache-key and checkpoint
    /// binding value).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The split store this engine draws from.
    pub fn cache(&self) -> &Arc<SplitCache> {
        &self.cache
    }

    /// Cache counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Drop this graph's cached splits, both the engine-local handles and
    /// the shared entries under this fingerprint (the workspace is kept —
    /// it is graph-sized, not Δ-dependent). The preflight verdict
    /// survives: the graph cannot have changed under the engine's borrow.
    pub fn clear_cache(&mut self) {
        self.local.clear();
        self.cache.purge_fingerprint(self.fingerprint);
    }

    /// [`guard::preflight`] with the weight scan cached: the first call
    /// pays `O(|V| + |E|)`, every later call on this engine only does the
    /// `O(1)` source and Δ checks.
    pub fn preflight(
        &mut self,
        source: usize,
        delta: f64,
        cfg: &GuardConfig,
    ) -> Result<f64, SsspError> {
        if source >= self.g.num_vertices() {
            return Err(SsspError::SourceOutOfBounds {
                source,
                num_vertices: self.g.num_vertices(),
            });
        }
        let verdict = match &self.weights_verdict {
            Some(v) => v.clone(),
            None => {
                self.stats.preflight_scans += 1;
                let v = guard::scan_weights(self.g);
                self.weights_verdict = Some(v.clone());
                v
            }
        };
        verdict?;
        guard::resolve_delta(self.g, delta, cfg)
    }

    /// The split for `delta`, fetched from the shared cache and built on a
    /// miss (by this engine or a concurrent sharer — whoever asks first),
    /// with the build time this engine actually paid (zero on a hit) —
    /// what a run reports as `matrix_filter`.
    fn split_for(&mut self, pool: Option<&ThreadPool>, delta: f64) -> (Arc<LightHeavy>, Duration) {
        let key = delta.to_bits();
        if let Some((_, lh)) = self.local.iter().find(|(k, _)| *k == key) {
            self.stats.split_hits += 1;
            return (Arc::clone(lh), Duration::ZERO);
        }
        let g = self.g;
        let t0 = Instant::now();
        let (lh, built) = self.cache.get_or_build(self.fingerprint, key, || match pool {
            Some(pool) => LightHeavy::build_chunked(pool, g, delta),
            None => LightHeavy::build(g, delta),
        });
        let filter_time = if built {
            self.stats.split_builds += 1;
            t0.elapsed()
        } else {
            self.stats.split_hits += 1;
            Duration::ZERO
        };
        self.local.push((key, Arc::clone(&lh)));
        (lh, filter_time)
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
        let (lh, filter_time) = self.split_for(pool, delta);
        let g = self.g;
        let ws = self.workspace();
        let outcome = stepping_with(g, &lh, source, delta, strategy, pool, budget, ws);
        self.finish_run(outcome, filter_time)
    }

    /// The one way to resume: continue any resumable checkpoint — from
    /// this loop under any strategy, from an older binary's classic
    /// loops, or from [`crate::repro::parallel`] — through the split cache.
    /// Bit-identical to the uninterrupted run, pooled or not.
    pub fn resume_stepping(
        &mut self,
        pool: Option<&ThreadPool>,
        cp: &Checkpoint,
        budget: &mut RunBudget,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        cp.validate(self.g.num_vertices())?;
        let (lh, filter_time) = self.split_for(pool, cp.delta);
        let g = self.g;
        let ws = self.workspace();
        let outcome = stepping_resume_with(g, &lh, cp, pool, budget, ws);
        self.finish_run(outcome, filter_time)
    }

    /// The workspace for the run about to start: a fresh one when the
    /// previous run never reached [`SsspEngine::finish_run`] (it
    /// panicked), the warm one otherwise.
    fn workspace(&mut self) -> &mut SteppingWorkspace {
        if std::mem::replace(&mut self.ws_in_use, true) {
            self.ws = SteppingWorkspace::new(self.g.num_vertices());
        }
        &mut self.ws
    }

    /// Fold a run's extraction work into the counters (stopped runs did
    /// the work too) and charge it the split build this engine paid.
    fn finish_run(
        &mut self,
        outcome: Result<(SsspResult, PhaseProfile), SsspError>,
        filter_time: Duration,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        self.ws_in_use = false;
        self.stats.extraction_scanned += self.ws.take_extraction_scanned();
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
        cp.validate(self.g.num_vertices())?;
        let bytes = cp.to_bytes(self.fingerprint);
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
        if fingerprint != self.fingerprint {
            return Err(SsspError::InvalidCheckpoint {
                reason: format!(
                    "checkpoint was saved against graph fingerprint {fingerprint:#018x}, \
                     this engine's graph is {:#018x}",
                    self.fingerprint
                ),
            });
        }
        cp.validate(self.g.num_vertices())?;
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
    fn preflight_scans_once_across_repeated_runs() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let cfg = GuardConfig::default();
        for src in [0, 11, 250, 0, 42] {
            let delta = engine.preflight(src, 1.0, &cfg).unwrap();
            engine.run_fused(src, delta, &mut RunBudget::unlimited()).unwrap();
        }
        assert_eq!(engine.stats().preflight_scans, 1);
        // The cached verdict still enforces the per-call O(1) checks.
        assert!(matches!(
            engine.preflight(10_000, 1.0, &cfg),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
        assert!(matches!(
            engine.preflight(0, f64::NAN, &cfg),
            Err(SsspError::InvalidDelta { .. })
        ));
        assert_eq!(engine.stats().preflight_scans, 1);
    }

    #[test]
    fn preflight_cache_replays_a_bad_verdict() {
        let bad = CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![-3.0]);
        let mut engine = SsspEngine::new(&bad);
        let cfg = GuardConfig::default();
        for _ in 0..3 {
            assert!(matches!(
                engine.preflight(0, 1.0, &cfg),
                Err(SsspError::NegativeWeight { .. })
            ));
        }
        assert_eq!(engine.stats().preflight_scans, 1);
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
