//! Multi-run SSSP engine: a prepared graph, the splits it owns and a
//! reusable relaxation workspace.
//!
//! The paper measures the matrix filtering phase (building `A_L` / `A_H`)
//! at 35–40 % of total runtime, and a served request used to pay more
//! than its solve again in per-graph set-up. An engine runs over a
//! [`PreparedGraph`] — rows sorted by weight, the weight verdict and the
//! maximum weight taken in one pass, the fingerprint taken once — which
//! owns its splits: one all-light split for every Δ at or above its
//! largest weight, and one slot for the most recent Δ with heavy edges
//! ([`PreparedGraph::split_for`]). The loop's workspace
//! ([`SteppingWorkspace`]) rides along so repeated runs allocate nothing
//! but their result.
//!
//! Two doors, one engine:
//!
//! * [`SsspEngine::new`] prepares a borrowed graph privately (one pass
//!   over the weights, one weight-sorted copy of the adjacency) with its
//!   own workspace — a one-off caller's engine;
//! * [`SsspEngine::over`] is a view: a prepared graph someone else owns
//!   (a server's registry entry, a batch's shared preparation) and a
//!   borrowed workspace (a serve worker slot's, a batch worker's).
//!   Building one costs nothing per graph, and every view over one
//!   prepared graph shares its splits.
//!
//! [`SsspEngine::with_cache`] is [`SsspEngine::new`] under the name the
//! benchmark harness pins; its cache argument is inert.
//!
//! Engines also speak the durable-checkpoint format:
//! [`SsspEngine::save_checkpoint`] / [`SsspEngine::load_checkpoint`]
//! persist a budget-stopped run to disk (bound to the as-loaded graph by
//! its fingerprint) so a fresh process can resume it bit-identically.

use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gblas::Direction;
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
    stepping_loop, stepping_resume_with, SteppingStrategy, SteppingWorkspace,
};

/// Split, extraction and direction counters of one engine, exposed for
/// tests and bench reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Splits this engine built (a slot miss on its prepared graph).
    pub split_builds: usize,
    /// Runs on a split nobody had to build for them: the all-light
    /// split, or the one already in the slot.
    pub split_hits: usize,
    /// Pending-set entries examined by the stepping loop's frontier
    /// extractions, summed over every run and resume on this engine
    /// (budget-stopped ones included). Deterministic — equal across
    /// thread counts and the pool-less path — and O(n + improvements)
    /// per solve on road-like graphs, where a scan of the whole distance
    /// vector per step would be n × steps.
    pub extraction_scanned: u64,
    /// Light rounds that pushed and pulled, summed like
    /// `extraction_scanned`: a budget-stopped run's rounds count too.
    pub push_epochs: u64,
    pub pull_epochs: u64,
    /// Heavy phases that pulled, summed the same way.
    pub heavy_pull_phases: u64,
}

/// The prepared graph an engine runs on: its own, or one a caller keeps
/// across engines (a registry entry, a batch).
#[derive(Debug)]
enum Prepared<'g> {
    Own(Box<PreparedGraph<'g>>),
    Lent(&'g PreparedGraph<'g>),
}

impl<'g> Deref for Prepared<'g> {
    type Target = PreparedGraph<'g>;

    fn deref(&self) -> &PreparedGraph<'g> {
        match self {
            Prepared::Own(prep) => prep,
            Prepared::Lent(prep) => prep,
        }
    }
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

/// Per-graph SSSP engine: a prepared graph with its splits, and a warm
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
/// // Unit weights at Δ = 1: every run read the graph's all-light split,
/// // which nobody builds.
/// assert_eq!(engine.stats().split_builds, 0);
/// assert_eq!(engine.stats().split_hits, 3);
/// ```
#[derive(Debug)]
pub struct SsspEngine<'g> {
    prep: Prepared<'g>,
    ws: Workspace<'g>,
    stats: EngineStats,
    /// Every run's light-round direction; `None` lets the oracle choose.
    forced: Option<Direction>,
}

impl<'g> SsspEngine<'g> {
    /// An engine for `g` with its own workspace. Prepares `g`: one pass
    /// over the weights and one weight-sorted copy of its adjacency.
    pub fn new(g: &'g CsrGraph) -> Self {
        let prep = Prepared::Own(Box::new(PreparedGraph::new(g)));
        SsspEngine { prep, ws: Workspace::default(), stats: EngineStats::default(), forced: None }
    }

    /// [`SsspEngine::new`], kept for the benchmark harness: `cache` is
    /// inert — the engine's prepared graph owns its splits.
    pub fn with_cache(g: &'g CsrGraph, _cache: Arc<SplitCache>) -> Self {
        SsspEngine::new(g)
    }

    /// A view over a graph someone else prepared and a lent workspace: no
    /// pass over the graph, no allocation. The caller keeps `ws` across
    /// views; a view that panicked mid-run leaves it marked, and the next
    /// run on it starts fresh.
    pub fn over(prep: &'g PreparedGraph<'g>, ws: &'g mut SteppingWorkspace) -> Self {
        SsspEngine {
            prep: Prepared::Lent(prep),
            ws: Workspace::Lent(ws),
            stats: EngineStats::default(),
            forced: None,
        }
    }

    /// Pin every light round of this engine's runs to `forced` (`None`:
    /// the oracle chooses), and every heavy phase on a symmetric graph (a
    /// heavy phase on any other graph pushes). Distances and stats stay
    /// the same; for benchmarks and tests.
    #[doc(hidden)]
    pub fn force_direction(&mut self, forced: Option<Direction>) {
        self.forced = forced;
    }

    /// The prepared graph this engine runs on.
    pub(crate) fn prepared(&self) -> &PreparedGraph<'g> {
        &self.prep
    }

    /// The as-loaded graph's content fingerprint (the checkpoint binding
    /// value), taken on first use.
    pub fn fingerprint(&self) -> u64 {
        self.prep.fingerprint()
    }

    /// Split and extraction counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
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

    /// The split for `delta` from the prepared graph, with the build time
    /// this engine paid (zero when it built nothing) — what a run reports
    /// as `matrix_filter`.
    fn split_for(&mut self, delta: f64) -> (Arc<Split>, Duration) {
        let t0 = Instant::now();
        let (split, built) = self.prep.split_for(delta);
        if built {
            self.stats.split_builds += 1;
            (split, t0.elapsed())
        } else {
            self.stats.split_hits += 1;
            (split, Duration::ZERO)
        }
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

    /// The one way to run: any [`SteppingStrategy`] on the prepared
    /// graph's split and the warm workspace, on the pooled relaxation kernels
    /// when `pool` is given and the sequential ones otherwise. Distances
    /// and stats are bit-identical across thread counts and the
    /// pool-less path for every strategy; the profile's `matrix_filter`
    /// is zero whenever this engine built no split.
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
        let ws = self.ws.begin_run();
        let outcome =
            stepping_loop(view, source, delta, strategy, pool, self.forced, budget, ws, None);
        self.finish_run(outcome, filter_time)
    }

    /// The one way to resume: continue any resumable checkpoint — from
    /// this loop under any strategy, or from an older binary's classic
    /// loops — on the prepared graph's split.
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
        let ws = self.ws.begin_run();
        let outcome = stepping_resume_with(view, cp, pool, self.forced, budget, ws);
        self.finish_run(outcome, filter_time)
    }

    /// Leave the workspace, fold the run's extraction work and light
    /// rounds into the counters (stopped runs did the work too), add its
    /// rounds to the process-wide [`gblas::direction::decision_counters`]
    /// once, and charge it the split build this engine paid.
    fn finish_run(
        &mut self,
        outcome: Result<(SsspResult, PhaseProfile), SsspError>,
        filter_time: Duration,
    ) -> Result<(SsspResult, PhaseProfile), SsspError> {
        let tally = self.ws.end_run();
        self.stats.extraction_scanned += tally.extraction_scanned;
        self.stats.push_epochs += tally.push_epochs;
        self.stats.pull_epochs += tally.pull_epochs;
        self.stats.heavy_pull_phases += tally.heavy_pull_phases;
        gblas::direction::add_run_decisions(tally.push_epochs, tally.pull_epochs);
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
    fn alternating_deltas_rebuild_and_still_match_a_fresh_engine() {
        let g = test_graph();
        let mut engine = SsspEngine::new(&g);
        let budget = &mut RunBudget::unlimited();
        for delta in [0.5, 1.5, 0.5, 0.5] {
            let (r, _) = engine.run_fused(0, delta, budget).unwrap();
            assert_eq!(r.dist, delta_stepping_fused(&g, 0, delta).dist, "delta {delta}");
        }
        // Both Δ values are below the largest weight: each flip replaces
        // the graph's one slot, the repeat hits it.
        assert_eq!(engine.stats().split_builds, 3);
        assert_eq!(engine.stats().split_hits, 1);
        assert_eq!(engine.prepared().split_stats().replacements, 2);
    }

    /// Δ comes off the wire as any f64. On a unit-weight graph every
    /// Δ ≥ 1 is all-light: however many distinct values clients send,
    /// they all read the graph's one split and build nothing. A Δ below
    /// the unit weight fills the slot and leaves the all-light split alone.
    #[test]
    fn every_all_light_delta_reads_the_graphs_one_split() {
        let g = CsrGraph::from_edge_list(&gen::grid2d(8, 8)).unwrap();
        let prep = PreparedGraph::new(&g);
        let mut ws = SteppingWorkspace::default();
        let budget = &mut RunBudget::unlimited();
        let dijkstra = crate::dijkstra::dijkstra(&g, 0);
        for i in 0..40 {
            let delta = 1.0 + f64::from(i) * 0.37;
            let (r, _) = SsspEngine::over(&prep, &mut ws).run_fused(0, delta, budget).unwrap();
            assert_eq!(r.dist, dijkstra.dist, "delta {delta}");
        }
        let stats = prep.split_stats();
        assert_eq!((stats.builds, stats.hits, stats.resident_bytes), (0, 40, 0));
        let mut view = SsspEngine::over(&prep, &mut ws);
        view.run_fused(0, 0.5, budget).unwrap();
        view.run_fused(0, 3.0, budget).unwrap();
        assert_eq!((view.stats().split_builds, view.stats().split_hits), (1, 1));
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
        let mut ws = SteppingWorkspace::default();
        let strategy = SteppingStrategy::Rho(8);
        for round in 0..3 {
            for (prep, g, src) in [(&big_prep, &big, 3), (&small_prep, &small, 7)] {
                let fresh = SsspEngine::new(g)
                    .run_stepping(None, src, 1.0, strategy, &mut RunBudget::unlimited())
                    .unwrap()
                    .0;
                let mut view = SsspEngine::over(prep, &mut ws);
                let (r, _) = view
                    .run_stepping(None, src, 1.0, strategy, &mut RunBudget::unlimited())
                    .unwrap();
                assert_eq!(r.dist, fresh.dist, "round {round}");
                assert_eq!(r.stats, fresh.stats, "round {round}");
            }
            let mut view = SsspEngine::over(&big_prep, &mut ws);
            let stopped = view.run_stepping(
                None,
                3,
                1.0,
                strategy,
                &mut RunBudget::unlimited().cancel_after(3 + round),
            );
            assert!(stopped.unwrap_err().checkpoint().is_some());
        }
        // The weighted graph's split at Δ = 1 has heavy edges: one build,
        // shared by every view. The unit grid's is all-light: none.
        assert_eq!(big_prep.split_stats().builds, 1);
        assert_eq!(small_prep.split_stats().builds, 0);
    }

    #[test]
    fn a_sibling_view_reads_the_split_without_rebuilding() {
        let g = test_graph();
        let prep = PreparedGraph::new(&g);
        let (mut ws1, mut ws2) = (SteppingWorkspace::default(), SteppingWorkspace::default());
        let mut e1 = SsspEngine::over(&prep, &mut ws1);
        let mut e2 = SsspEngine::over(&prep, &mut ws2);
        let budget = &mut RunBudget::unlimited();
        let (r1, _) = e1.run_fused(0, 1.0, budget).unwrap();
        let (r2, _) = e2.run_fused(0, 1.0, budget).unwrap();
        assert_eq!(r1.dist, r2.dist);
        let stats = prep.split_stats();
        assert_eq!((stats.builds, stats.hits), (1, 1));
        // The second view records the shared fetch as its own hit.
        assert_eq!(e1.stats().split_builds, 1);
        assert_eq!(e2.stats().split_builds, 0);
        assert_eq!(e2.stats().split_hits, 1);
    }

    #[test]
    fn stepping_strategies_share_the_split_and_match_dijkstra() {
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

    /// A unit-weight rmat and its highest-degree source: a run whose
    /// light rounds the oracle sends both ways.
    fn switching_graph() -> (CsrGraph, usize) {
        let g = CsrGraph::from_edge_list(&gen::rmat(gen::RmatParams::graph500(9, 8), 3)).unwrap();
        let source = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();
        (g, source)
    }

    fn rounds(profile: &PhaseProfile) -> (u64, u64) {
        (profile.push_epochs, profile.pull_epochs)
    }

    #[test]
    fn a_forced_direction_pins_every_round_both_ways_and_clears() {
        let (g, src) = switching_graph();
        let mut engine = SsspEngine::new(&g);
        let budget = &mut RunBudget::unlimited();
        let (auto, auto_profile) = engine.run_fused(src, 1.0, budget).unwrap();
        let (push, pull) = rounds(&auto_profile);
        assert!(push > 0 && pull > 0, "the oracle must switch: {push} push, {pull} pull");
        let light = auto.stats.light_phases as u64;
        assert_eq!(push + pull, light);
        for (dir, expect) in [(Direction::Push, (light, 0)), (Direction::Pull, (0, light))] {
            engine.force_direction(Some(dir));
            let (r, profile) = engine.run_fused(src, 1.0, budget).unwrap();
            assert_eq!(rounds(&profile), expect, "{dir:?}");
            assert_eq!((r.dist, r.stats), (auto.dist.clone(), auto.stats.clone()), "{dir:?}");
        }
        engine.force_direction(None);
        assert_eq!(rounds(&engine.run_fused(src, 1.0, budget).unwrap().1), (push, pull));
    }

    #[test]
    fn engine_stats_sum_every_runs_rounds_stopped_ones_included() {
        let (g, src) = switching_graph();
        let mut engine = SsspEngine::new(&g);
        let (_, full) = engine.run_fused(src, 1.0, &mut RunBudget::unlimited()).unwrap();
        let cp = engine
            .run_fused(src, 1.0, &mut RunBudget::unlimited().cancel_after(3))
            .unwrap_err()
            .into_checkpoint()
            .unwrap();
        let (_, rest) = engine.resume_stepping(None, &cp, &mut RunBudget::unlimited()).unwrap();
        let (push, pull) = rounds(&full);
        assert!(rest.push_epochs + rest.pull_epochs < push + pull, "the cut run made rounds");
        // The cut run and its resume make the full run's rounds again.
        let stats = engine.stats();
        assert_eq!((stats.push_epochs, stats.pull_epochs), (2 * push, 2 * pull));
    }

    /// A weighted symmetric rmat, its hub, and its twin: the same graph
    /// with one reverse weight 1 ulp heavier, so no longer symmetric.
    fn weighted_rmat_and_twin() -> (CsrGraph, CsrGraph, usize) {
        let mut el = gen::rmat(gen::RmatParams::graph500(10, 8), 5);
        el.symmetrize();
        let model = graphdata::WeightModel::UniformFloat { lo: 1e-3, hi: 1.0 };
        graphdata::weights::assign_symmetric(&mut el, model, 6);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let source = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();
        let mut triples: Vec<_> = g.iter_edges().collect();
        let heavy = triples.iter_mut().find(|e| e.0 > e.1 && e.2 > 0.125).unwrap();
        heavy.2 = f64::from_bits(heavy.2.to_bits() + 1);
        let twin = CsrGraph::from_edge_list(&graphdata::EdgeList::from_triples(triples)).unwrap();
        (g, twin, source)
    }

    #[test]
    fn heavy_pulls_fire_on_a_symmetric_graph_the_same_on_every_kernel_and_never_on_its_twin() {
        let _session = taskpool::fault::TestSession::begin();
        let (g, twin, src) = weighted_rmat_and_twin();
        assert!(g.is_symmetric() && !twin.is_symmetric());
        let pools: Vec<ThreadPool> = [1, 2, 4].map(|t| ThreadPool::with_threads(t).unwrap()).into();
        let kernels = std::iter::once(None).chain(pools.iter().map(Some));
        let run = |graph: &CsrGraph, forced, pool| {
            let mut engine = SsspEngine::new(graph);
            engine.force_direction(forced);
            let budget = &mut RunBudget::unlimited();
            engine.run_stepping(pool, src, 0.125, SteppingStrategy::Classic, budget).unwrap()
        };
        let (auto, profile) = run(&g, None, None);
        let pulls = profile.heavy_pull_phases;
        assert!(pulls >= 1, "no heavy phase pulled");
        assert!(pulls < auto.stats.heavy_phases as u64, "every heavy phase pulled");
        for pool in kernels {
            for (forced, expect) in
                [(None, pulls), (Some(Direction::Push), 0), (Some(Direction::Pull), auto.stats.heavy_phases as u64)]
            {
                let (r, p) = run(&g, forced, pool);
                assert_eq!(p.heavy_pull_phases, expect, "{forced:?} on {:?} threads", pool.map(|p| p.num_threads()));
                assert_eq!((&r.dist, &r.stats), (&auto.dist, &auto.stats));
                let (_, p) = run(&twin, forced, pool);
                assert_eq!(p.heavy_pull_phases, 0, "the twin pulled, {forced:?}");
            }
        }
    }

    #[test]
    fn a_stopped_runs_heavy_pulls_count_in_the_engine_stats() {
        let (g, _, src) = weighted_rmat_and_twin();
        let mut engine = SsspEngine::new(&g);
        let classic = SteppingStrategy::Classic;
        let mut counting = RunBudget::unlimited();
        let (_, full) = engine.run_stepping(None, src, 0.125, classic, &mut counting).unwrap();
        assert!(full.heavy_pull_phases >= 1);
        let mut stopped_pulled = false;
        for k in 0..counting.ticks() {
            let before = engine.stats().heavy_pull_phases;
            let cut = engine.run_stepping(None, src, 0.125, classic, &mut RunBudget::unlimited().cancel_after(k));
            let cp = cut.unwrap_err().into_checkpoint().unwrap();
            // A stopped run returns no profile; its pulls reach the stats.
            let stopped = engine.stats().heavy_pull_phases - before;
            let (_, rest) = engine.resume_stepping(None, &cp, &mut RunBudget::unlimited()).unwrap();
            assert_eq!(stopped + rest.heavy_pull_phases, full.heavy_pull_phases, "cut at epoch {k}");
            stopped_pulled |= stopped > 0;
        }
        assert!(stopped_pulled, "no stopped run had pulled");
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
        // Every run and resume reused the single split.
        assert_eq!(engine.stats().split_builds, 1);
    }
}
