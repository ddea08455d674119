//! Compile-only: every path and signature the frozen `benchmark/`
//! harness takes from `crates/` (ROADMAP, "API pinned by the frozen
//! harness"), spelled the way the harness spells it. `benchmark/` is its
//! own workspace, so without this a move or rename that breaks it would
//! pass `cargo test` at the root and fail only in the `benchmark-harness`
//! CI job.

#![allow(dead_code)]

use std::sync::Arc;
use std::time::Duration;

use gblas::direction::{decision_counters, reset_decision_counters};
use graphdata::gen::{grid2d, rmat, RmatParams};
use graphdata::weights::assign_symmetric;
use graphdata::{CsrGraph, EdgeList, WeightModel};
use sssp_core::canonical::delta_stepping_canonical;
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::fused::{delta_stepping_fused, LightHeavy};
use sssp_core::gblas_impl::sssp_delta_step;
use sssp_core::stats::PhaseProfile;
use sssp_core::stepping::{DEFAULT_DELTA_STAR_FACTOR, DEFAULT_RHO};
use sssp_core::{
    BatchConfig, BatchOutcome, BatchRunner, GuardConfig, RunBudget, SplitCache, SsspError,
    SsspResult, SsspStats, SteppingStrategy,
};
use sssp_serve::protocol::{dist_digest, parse_gen_spec, Request, Response, SsspRequest, Summary};
use sssp_serve::server::{self, ServerConfig, ServerHandle};
use sssp_serve::AdmissionQueue;
use taskpool::{scope_collect, ThreadPool};

/// Never called: type-checking it is the test.
fn the_harness_calls(g: &CsrGraph, pool: &ThreadPool) -> Result<(), SsspError> {
    let guard = GuardConfig::default();

    // graphdata: the workload generators.
    let mut el: EdgeList = rmat(RmatParams::graph500(4, 2), 7);
    assign_symmetric(&mut el, WeightModel::UniformFloat { lo: 1e-3, hi: 1.0 }, 7);
    let _: EdgeList = grid2d(2, 2);

    // The engine, private-cache and shared-cache.
    let cache = Arc::new(SplitCache::new());
    let _ = SplitCache::with_byte_budget(1 << 20);
    let mut engine = SsspEngine::new(g);
    let _ = SsspEngine::with_cache(g, Arc::clone(&cache));
    let delta: f64 = engine.preflight(0, 1.0, &guard)?;
    let mut budget = RunBudget::for_job(g, delta, &guard, None, None);
    let (result, profile): (SsspResult, PhaseProfile) = engine.run_fused(0, delta, &mut budget)?;
    let _: (Duration, Duration, Duration) =
        (profile.matrix_filter, profile.relaxation, profile.vector_ops);
    let _: &SsspStats = &result.stats;
    engine.run_parallel_improved(pool, 0, delta, &mut RunBudget::unlimited())?;
    for strategy in [
        SteppingStrategy::Classic,
        SteppingStrategy::Rho(DEFAULT_RHO),
        SteppingStrategy::DeltaStar(DEFAULT_DELTA_STAR_FACTOR),
    ] {
        engine.run_stepping(None, 0, delta, strategy, &mut RunBudget::unlimited())?;
    }
    let _: (u64, u64) = {
        reset_decision_counters();
        decision_counters()
    };

    // The split and the figure baselines.
    let _: usize = LightHeavy::build(g, delta).resident_bytes();
    let _: SsspResult = delta_stepping_fused(g, 0, delta);
    let _: SsspResult = delta_stepping_canonical(g, 0, delta);
    let _: SsspResult = sssp_delta_step(&g.to_adjacency(), delta, 0);
    let _: SsspResult = dijkstra(g, 0);

    // The batch front door as the daemon calls it.
    let runner = BatchRunner::new(BatchConfig {
        delta,
        workers: 1,
        queue_capacity: 1,
        pool_threads: 2,
        ..BatchConfig::default()
    });
    let report = runner.run_shared(g, &[0], &cache, Some(pool), None);
    let _ = matches!(report.jobs.first(), Some((_, BatchOutcome::Complete { .. })));
    let _: Vec<usize> = scope_collect(pool, vec![(); 8], |i, ()| i);

    // The daemon, its queue and its wire types.
    let _ = Request::Sssp(SsspRequest {
        fingerprint: g.fingerprint(),
        source: 0,
        delta: None,
        deadline_ms: None,
        epochs: None,
        implementation: None,
        strategy: None,
        full: false,
    });
    let cfg = ServerConfig { workers: 2, cache_bytes: Some(1 << 20), ..ServerConfig::default() };
    let handle: ServerHandle = server::start(cfg, "127.0.0.1:0").expect("bind");
    let _ = (handle.addr(), handle.stats());
    handle.shutdown();
    let queue: AdmissionQueue<u64> = AdmissionQueue::new(16);
    let _ = (queue.submit(1).is_ok(), queue.pop());
    queue.finish(Duration::from_millis(1));
    let _: u64 = dist_digest(&result.dist);
    let _ = parse_gen_spec("grid:2x2");
    let _ = |reply: Response| matches!(reply, Response::Summary(Summary { .. }));
    Ok(())
}

#[test]
fn every_path_the_frozen_harness_names_still_compiles() {}
