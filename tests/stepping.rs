//! Generalized-stepping integration suite: the strategy layer must be
//! invisible in the *answer* and visible only in the *work*.
//!
//! 1. **Every strategy is exact** — classic Δ, ρ-stepping for small /
//!    medium / effectively-infinite ρ, and Δ*-stepping for several fuse
//!    factors all reproduce Dijkstra's distance vector bit-for-bit on
//!    the paper suite and the weighted suite, sequentially and on
//!    1/2/4-thread pools.
//! 2. **Determinism across schedules** — for every strategy, stats
//!    (not just distances) are identical between the pool-less path and
//!    every pool width, across repeated runs.
//! 3. **Same loop, same answers** — classic on the one loop reproduces,
//!    bit for bit, the `SsspStats` the deleted `fused_loop` /
//!    `improved_loop` produced at the parent commit (golden literals),
//!    and agrees with the canonical Meyer–Sanders loop on every phase
//!    count and on `relaxations`, whose heavy pass relaxes the settled
//!    *set* once (a hand-built re-entry pins the exact count, across
//!    cancel/resume at every epoch).
//! 4. **Cancellation chaos** — cancel classic, ρ- and Δ*-stepping runs
//!    at *every* budget epoch the uninterrupted run passes through: the
//!    checkpoint validates, everything it certifies is final, and both
//!    resume paths (sequential and pooled) reconverge bit-identically
//!    in distances *and* stats.
//! 5. **Disk round-trip** — a cancelled run of any strategy survives
//!    save/load through the engine's checkpoint files and resumes to
//!    the exact uninterrupted answer; so does a trailer-less classic
//!    checkpoint written by the parent commit's `fused` (byte fixture).
//! 6. **Extraction scans the pending set** — resuming rebuilds the set
//!    from `dist` and the checkpoint's bound/threshold so that every later
//!    checkpoint (ascending frontier included) equals the uninterrupted
//!    run's, and `EngineStats::extraction_scanned` stays
//!    O(n + improvements) where a full-vector scan would be n × steps.

use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::{Checkpoint, RunBudget, SsspError, SsspStats, SteppingStrategy, StopPoint};
use taskpool::ThreadPool;

const RUNS: usize = 5;
const THREADS: [usize; 3] = [1, 2, 4];

/// Distances must be bit-identical, not approximately equal.
fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// The strategy sweep every exactness test runs: degenerate, moderate,
/// and extract-everything parameters for both generalized families,
/// plus classic Δ as the control.
fn strategy_sweep() -> Vec<SteppingStrategy> {
    vec![
        SteppingStrategy::Classic,
        SteppingStrategy::Rho(1),
        SteppingStrategy::Rho(64),
        SteppingStrategy::Rho(1 << 20),
        SteppingStrategy::DeltaStar(1.0),
        SteppingStrategy::DeltaStar(4.0),
    ]
}

/// Weighted graph with several buckets' worth of work, mirroring the
/// chaos suite's generator so epoch counts stay interesting.
fn weighted_chaos_graph() -> CsrGraph {
    let mut el = graphdata::gen::gnm(150, 900, 11);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        5,
    );
    CsrGraph::from_edge_list(&el).unwrap()
}

fn check_exact(name: &str, g: &CsrGraph, src: usize, delta: f64) {
    let oracle = bits(&dijkstra(g, src).dist);
    for strategy in strategy_sweep() {
        let mut engine = SsspEngine::new(g);
        let (seq, _) = engine
            .run_stepping(None, src, delta, strategy, &mut RunBudget::unlimited())
            .expect("valid input");
        assert_eq!(
            bits(&seq.dist),
            oracle,
            "{strategy} on {name}: sequential distances diverge from Dijkstra"
        );
        for &threads in &THREADS {
            let pool = ThreadPool::with_threads(threads).expect("pool");
            for rep in 0..RUNS {
                let (par, _) = engine
                    .run_stepping(Some(&pool), src, delta, strategy, &mut RunBudget::unlimited())
                    .expect("valid input");
                assert_eq!(
                    bits(&par.dist),
                    oracle,
                    "{strategy} on {name}: distances diverged at {threads} thread(s), rep {rep}"
                );
                // One algorithm with two execution modes: stats match
                // the sequential run exactly, for every strategy.
                assert_eq!(
                    par.stats, seq.stats,
                    "{strategy} on {name}: stats diverged at {threads} thread(s), rep {rep}"
                );
            }
        }
    }
}

#[test]
fn every_strategy_matches_dijkstra_on_the_paper_suite() {
    for d in paper_suite(SuiteScale::Smoke) {
        let src = d.graph.num_vertices() / 2;
        check_exact(&d.name, &d.graph, src, 1.0);
    }
}

#[test]
fn every_strategy_matches_dijkstra_on_real_weights() {
    // Real-valued weights are where a wrong extraction threshold would
    // show: unit weights forgive an off-by-one bucket range because
    // every candidate in a phase shares one distance value.
    for d in weighted_suite(SuiteScale::Smoke).into_iter().take(2) {
        check_exact(&d.name, &d.graph, 1, 0.25);
    }
}

/// The golden graph set: unit-weight grid, two real-weighted graphs, a
/// tiny graph whose heavy jumps leave empty buckets between occupied
/// ones, and a decimal-weighted graph whose distances land exactly on
/// the edges of Δ = 0.1 / 0.3 buckets.
fn golden_graphs() -> Vec<(&'static str, CsrGraph, usize)> {
    use graphdata::gen;
    let grid = CsrGraph::from_edge_list(&gen::grid2d(9, 7)).unwrap();
    let mut el = gen::rmat(gen::RmatParams::graph500(8, 8), 17);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 3.0 },
        3,
    );
    let rmat = CsrGraph::from_edge_list(&el).unwrap();
    let skips = CsrGraph::from_edge_list(&graphdata::EdgeList::from_triples(vec![
        (0, 1, 10.5),
        (1, 2, 0.5),
        (2, 3, 0.05),
        (0, 3, 12.0),
        (3, 4, 0.3),
    ]))
    .unwrap();
    let decimal = CsrGraph::from_edge_list(&graphdata::EdgeList::from_triples(
        (0..40usize).flat_map(|i| {
            let w = |k: usize| ((i * 7 + k) % 9 + 1) as f64 / 10.0;
            [(i, (i + 1) % 40, w(0)), (i, (i + 3) % 40, w(4))]
        }),
    ))
    .unwrap();
    vec![
        ("decimal-edges", decimal, 0),
        ("grid-9x7-unit", grid, 0),
        ("gnm-150-w", weighted_chaos_graph(), 1),
        ("rmat-8-w", rmat, 0),
        ("skips", skips, 0),
    ]
}

#[test]
fn classic_reproduces_the_deleted_loops_stats_bit_for_bit() {
    // `[buckets_processed, light_phases, heavy_phases, relaxations,
    // improvements]` recorded where `fused_loop` (sequential) and
    // `improved_loop` (1/2/4 threads, default and forced parallel
    // relaxation) all agreed on each row. The `relaxations` column counts
    // the heavy pass over the settled *set*, and is the canonical loop's
    // (see `canonical_is_the_stats_oracle_for_classic`). Δ = 0.1 and 0.3 are
    // where `x < (b+1)·Δ` and `⌊x/Δ⌋ == b` part ways (0.6 / 0.1 is
    // bucket 5, yet 0.6 < 5·0.1 + 0.1 is false), so the decimal-edges
    // rows hold only while the loop's range test *is* the
    // bucket-membership test.
    const GOLDEN: [(&str, f64, [u64; 5]); 20] = [
        ("decimal-edges", 0.1, [30, 30, 30, 80, 44]),
        ("decimal-edges", 0.3, [19, 24, 19, 80, 43]),
        ("decimal-edges", 1.0, [6, 21, 6, 82, 44]),
        ("decimal-edges", 2.5, [3, 17, 3, 94, 49]),
        ("grid-9x7-unit", 0.1, [15, 15, 15, 220, 62]),
        ("grid-9x7-unit", 0.3, [15, 15, 15, 220, 62]),
        ("grid-9x7-unit", 1.0, [15, 15, 15, 220, 62]),
        ("grid-9x7-unit", 2.5, [6, 15, 6, 220, 62]),
        ("gnm-150-w", 0.1, [19, 19, 19, 1768, 267]),
        ("gnm-150-w", 0.3, [7, 12, 7, 1773, 235]),
        ("gnm-150-w", 1.0, [2, 8, 2, 1872, 201]),
        ("gnm-150-w", 2.5, [1, 8, 1, 3191, 283]),
        ("rmat-8-w", 0.1, [28, 31, 28, 2506, 372]),
        ("rmat-8-w", 0.3, [11, 18, 11, 2544, 295]),
        ("rmat-8-w", 1.0, [4, 12, 4, 3027, 340]),
        ("rmat-8-w", 2.5, [2, 9, 2, 5125, 473]),
        ("skips", 0.1, [4, 5, 4, 5, 5]),
        ("skips", 0.3, [4, 5, 4, 5, 5]),
        ("skips", 1.0, [3, 5, 3, 5, 5]),
        ("skips", 2.5, [2, 5, 2, 6, 6]),
    ];
    let graphs = golden_graphs();
    let pools: Vec<ThreadPool> =
        THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
    for (name, delta, [buckets, light, heavy, relaxations, improvements]) in GOLDEN {
        let (_, g, src) = graphs.iter().find(|(n, ..)| *n == name).expect("golden graph");
        let golden = SsspStats {
            buckets_processed: buckets as usize,
            light_phases: light as usize,
            heavy_phases: heavy as usize,
            relaxations,
            improvements,
        };
        let oracle = bits(&dijkstra(g, *src).dist);
        let mut engine = SsspEngine::new(g);
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            let (r, _) = engine
                .run_stepping(pool, *src, delta, SteppingStrategy::Classic, &mut RunBudget::unlimited())
                .expect("valid input");
            let label = format!(
                "{name} Δ={delta} at {:?} thread(s)",
                pool.map(ThreadPool::num_threads)
            );
            assert_eq!(r.stats, golden, "{label}");
            assert_eq!(bits(&r.dist), oracle, "{label}");
        }
    }
}

/// The counters the canonical loop and the classic strategy share: all
/// but `improvements`, which canonical counts per sequential relax and
/// the stepping loop per merged request.
fn phase_counts(s: &SsspStats) -> [u64; 4] {
    [s.buckets_processed as u64, s.light_phases as u64, s.heavy_phases as u64, s.relaxations]
}

#[test]
fn canonical_is_the_stats_oracle_for_classic() {
    // Two independent codings of one algorithm: explicit buckets and a
    // settled set on one side, the pending-set loop over a weight-sorted
    // split on the other. Both relax each settled vertex's heavy edges
    // once per bucket, so their phase and relaxation counts must agree
    // wherever vertices re-enter a bucket (small Δ, weighted graphs).
    use sssp_core::repro::canonical::delta_stepping_canonical;
    let pools: Vec<ThreadPool> =
        THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
    let graphs = golden_graphs();
    for name in ["gnm-150-w", "rmat-8-w"] {
        let (_, g, src) = graphs.iter().find(|(n, ..)| *n == name).expect("golden graph");
        let oracle = bits(&dijkstra(g, *src).dist);
        let mut engine = SsspEngine::new(g);
        for delta in [0.05, 0.125, 0.3, 1.0] {
            let canonical = delta_stepping_canonical(g, *src, delta);
            assert_eq!(bits(&canonical.dist), oracle, "canonical on {name} Δ={delta}");
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let (r, _) = engine
                    .run_stepping(pool, *src, delta, SteppingStrategy::Classic, &mut RunBudget::unlimited())
                    .expect("valid input");
                let label =
                    format!("{name} Δ={delta} at {:?} thread(s)", pool.map(ThreadPool::num_threads));
                assert_eq!(phase_counts(&r.stats), phase_counts(&canonical.stats), "{label}");
                assert_eq!(bits(&r.dist), oracle, "{label}");
            }
        }
    }
}

#[test]
fn a_re_entering_vertex_relaxes_its_heavy_edges_once_per_bucket() {
    // Δ = 1. Bucket 0 drains in four light rounds: {0}, {1, 2}, {1}, {5}.
    // Vertex 1 enters at 0.9, re-enters at 0.5 through 2, and its light
    // edge then lowers 5 from 1.2 to 0.8, so the stop before the fourth
    // round checkpoints the settled multiset [0, 1, 2, 1]. The heavy pass
    // relaxes {0, 1, 2, 5}: 0's one heavy edge and 1's two, once each.
    let g = CsrGraph::from_edge_list(&graphdata::EdgeList::from_triples(vec![
        (0, 1, 0.9),
        (0, 2, 0.2),
        (2, 1, 0.3),
        (1, 5, 0.3),
        (0, 3, 7.0),
        (1, 3, 5.5),
        (1, 4, 2.0),
        (4, 3, 0.6),
    ]))
    .unwrap();
    let (src, delta) = (0, 1.0);
    let oracle = bits(&dijkstra(&g, src).dist);
    // Light rounds relax 2 + 2 + 1 + 0 edges in bucket 0 and one in
    // bucket 2; the heavy pass 3, where one per settled entry would be 5.
    let expect = SsspStats {
        buckets_processed: 3,
        light_phases: 6,
        heavy_phases: 3,
        relaxations: 9,
        improvements: 8,
    };
    let canonical = sssp_core::repro::canonical::delta_stepping_canonical(&g, src, delta);
    assert_eq!(phase_counts(&canonical.stats), phase_counts(&expect));
    let pool = ThreadPool::with_threads(2).expect("pool");
    let mut engine = SsspEngine::new(&g);
    let mut counting = RunBudget::unlimited();
    let (full, _) = engine
        .run_stepping(None, src, delta, SteppingStrategy::Classic, &mut counting)
        .expect("valid input");
    assert_eq!(full.stats, expect);
    assert_eq!(bits(&full.dist), oracle);
    let (pooled, _) = engine
        .run_stepping(Some(&pool), src, delta, SteppingStrategy::Classic, &mut RunBudget::unlimited())
        .expect("valid input");
    assert_eq!(pooled.stats, expect);

    let mut stops_with_a_duplicate = 0;
    for k in 0..counting.ticks() {
        let cp = checkpoint_at(&mut engine, None, src, delta, SteppingStrategy::Classic, k);
        let mut settled = cp.settled.clone();
        settled.sort_unstable();
        settled.dedup();
        if settled.len() < cp.settled.len() {
            assert_eq!(cp.stop_point, StopPoint::LightPhase, "epoch {k}");
            stops_with_a_duplicate += 1;
        }
        for resume_on in [None, Some(&pool)] {
            let (resumed, _) = engine
                .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
                .expect("resume must reconverge");
            let label = format!("cut at epoch {k}, resumed pooled={}", resume_on.is_some());
            assert_eq!(resumed.stats, expect, "{label}");
            assert_eq!(bits(&resumed.dist), oracle, "{label}");
        }
    }
    assert_eq!(stops_with_a_duplicate, 1, "one stop falls between the re-entry and the heavy pass");
}

/// Total budget checks an uninterrupted run performs.
fn total_epochs(
    g: &CsrGraph,
    src: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: &ThreadPool,
) -> u64 {
    let mut budget = RunBudget::unlimited();
    SsspEngine::new(g)
        .run_stepping(Some(pool), src, delta, strategy, &mut budget)
        .expect("valid input");
    budget.ticks()
}

#[test]
fn cancelling_every_strategy_at_every_epoch_reconverges() {
    let g = weighted_chaos_graph();
    let (src, delta) = (0, 0.5);
    let pool = ThreadPool::with_threads(2).expect("pool");
    for strategy in [
        SteppingStrategy::Classic,
        SteppingStrategy::Rho(16),
        SteppingStrategy::DeltaStar(2.0),
    ] {
        let mut engine = SsspEngine::new(&g);
        let (reference, _) = engine
            .run_stepping(Some(&pool), src, delta, strategy, &mut RunBudget::unlimited())
            .expect("valid input");
        let epochs = total_epochs(&g, src, delta, strategy, &pool);
        assert!(epochs > 2, "{strategy}: too few epochs to be interesting");
        for k in 0..epochs {
            let mut budget = RunBudget::unlimited().cancel_after(k);
            let err = engine
                .run_stepping(Some(&pool), src, delta, strategy, &mut budget)
                .expect_err("cancel_after inside the run must stop it");
            let cp = match err {
                SsspError::Cancelled { checkpoint } => *checkpoint,
                other => panic!("{strategy} epoch {k}: expected Cancelled, got {other}"),
            };
            cp.validate(g.num_vertices()).expect("checkpoint must validate");
            assert_eq!(
                cp.stepping.map(|st| st.strategy),
                Some(strategy),
                "{strategy} epoch {k}: the loop emits its stepping state for every strategy"
            );
            // Everything the checkpoint certifies is final.
            for (v, d) in cp.settled_distances() {
                assert_eq!(
                    d.to_bits(),
                    reference.dist[v].to_bits(),
                    "{strategy} epoch {k}: certified distance of vertex {v} is not final"
                );
            }
            // Both resume paths reconverge bit-identically.
            if cp.resumable {
                let (seq, _) = engine
                    .resume_stepping(None, &cp, &mut RunBudget::unlimited())
                    .expect("sequential resume must reconverge");
                assert_eq!(bits(&seq.dist), bits(&reference.dist), "{strategy} epoch {k}");
                assert_eq!(seq.stats, reference.stats, "{strategy} epoch {k}");
                let (par, _) = engine
                    .resume_stepping(Some(&pool), &cp, &mut RunBudget::unlimited())
                    .expect("pooled resume must reconverge");
                assert_eq!(bits(&par.dist), bits(&reference.dist), "{strategy} epoch {k}");
                assert_eq!(par.stats, reference.stats, "{strategy} epoch {k}");
            }
        }
    }
}

#[test]
fn checkpoints_round_trip_through_disk() {
    for strategy in [SteppingStrategy::Classic, SteppingStrategy::Rho(16)] {
        checkpoint_round_trips_through_disk(strategy);
    }
}

fn checkpoint_round_trips_through_disk(strategy: SteppingStrategy) {
    let g = weighted_chaos_graph();
    let (src, delta) = (0, 0.5);
    let mut engine = SsspEngine::new(&g);
    let (reference, _) = engine
        .run_stepping(None, src, delta, strategy, &mut RunBudget::unlimited())
        .expect("valid input");

    let mut budget = RunBudget::unlimited().cancel_after(3);
    let err = engine
        .run_stepping(None, src, delta, strategy, &mut budget)
        .expect_err("cancel_after inside the run must stop it");
    let cp = match err {
        SsspError::Cancelled { checkpoint } => *checkpoint,
        other => panic!("expected Cancelled, got {other}"),
    };
    assert!(cp.resumable && cp.stepping.is_some());

    let dir = std::env::temp_dir().join(format!(
        "sssp-stepping-it-{}-{}",
        strategy.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cp.ckpt");
    engine.save_checkpoint(&cp, &path).expect("save");
    let loaded = engine.load_checkpoint(&path).expect("load");
    assert_eq!(loaded.stepping, cp.stepping, "stepping state must survive the disk");

    let (resumed, _) = engine
        .resume_stepping(None, &loaded, &mut RunBudget::unlimited())
        .expect("resume from disk must reconverge");
    assert_eq!(bits(&resumed.dist), bits(&reference.dist));
    assert_eq!(resumed.stats, reference.stats);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trailerless_fixture_from_the_parent_commit_still_resumes() {
    // `tests/fixtures/classic-trailerless.ckpt` was written by the parent
    // commit's `SsspEngine::run_fused` + `save_checkpoint` on the
    // gnm-150-w graph (source 1, Δ = 0.3), cancelled at epoch 11: a
    // mid-bucket stop in bucket 3 with 11 frontier and 50 settled
    // vertices, implementation tag `fused`, no stepping section.
    let g = weighted_chaos_graph();
    let mut engine = SsspEngine::new(&g);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/classic-trailerless.ckpt");
    let cp = engine.load_checkpoint(&path).expect("the old format still decodes");
    assert_eq!(cp.implementation, "fused");
    assert!(cp.stepping.is_none() && cp.resumable);
    assert_eq!((cp.source, cp.delta, cp.bucket), (1, 0.3, 3));
    assert_eq!((cp.frontier.len(), cp.settled.len()), (11, 50));

    let oracle = dijkstra(&g, 1);
    for (v, d) in cp.settled_distances() {
        assert_eq!(d.to_bits(), oracle.dist[v].to_bits(), "certified vertex {v}");
    }
    let (full, _) = engine
        .run_stepping(None, 1, 0.3, SteppingStrategy::Classic, &mut RunBudget::unlimited())
        .expect("valid input");
    let pool = ThreadPool::with_threads(2).expect("pool");
    for resume_on in [None, Some(&pool)] {
        let (resumed, _) = engine
            .resume_stepping(resume_on, &cp, &mut RunBudget::unlimited())
            .expect("a trailer-less checkpoint resumes as classic");
        assert_eq!(bits(&resumed.dist), bits(&oracle.dist));
        assert_eq!(resumed.stats, full.stats);
    }
}

/// The checkpoint a run cancelled after `k` budget epochs carries.
fn checkpoint_at(
    engine: &mut SsspEngine,
    pool: Option<&ThreadPool>,
    src: usize,
    delta: f64,
    strategy: SteppingStrategy,
    k: u64,
) -> Checkpoint {
    engine
        .run_stepping(pool, src, delta, strategy, &mut RunBudget::unlimited().cancel_after(k))
        .expect_err("cancel_after inside the run must stop it")
        .into_checkpoint()
        .expect("cancellation carries a checkpoint")
}

#[test]
fn resume_rebuilds_the_pending_set_from_dist_and_bound() {
    // The checkpoint does not carry the pending set. A resume rebuilds it
    // from `dist`: at or above `threshold` when it re-enters a range
    // mid-drain, at or above `bound` at a range start. Either floor wrong
    // and the next extraction's candidates — so its threshold and
    // frontier — part ways with the uninterrupted run's.
    let g = weighted_chaos_graph();
    let (src, delta) = (0, 0.5);
    let pool = ThreadPool::with_threads(2).expect("pool");
    // How many later stops of the same run each resume is followed to.
    const FOLLOW: u64 = 4;
    for strategy in [
        SteppingStrategy::Classic,
        SteppingStrategy::Rho(16),
        SteppingStrategy::DeltaStar(2.0),
    ] {
        let mut engine = SsspEngine::new(&g);
        let epochs = total_epochs(&g, src, delta, strategy, &pool);
        let reference: Vec<Checkpoint> = (0..epochs)
            .map(|k| checkpoint_at(&mut engine, None, src, delta, strategy, k))
            .collect();
        let (mut mid_range_with_pending, mut range_starts) = (0, 0);
        for (k, cp) in reference.iter().enumerate() {
            assert!(
                cp.frontier.windows(2).all(|w| w[0] < w[1]),
                "{strategy} epoch {k}: frontier must be ascending"
            );
            let st = cp.stepping.expect("the loop emits its stepping state");
            match cp.stop_point {
                StopPoint::LightPhase => {
                    let above = cp.dist.iter().filter(|d| d.is_finite() && **d >= st.threshold);
                    mid_range_with_pending += usize::from(above.count() > 0);
                }
                StopPoint::BucketStart => range_starts += 1,
            }
            let pooled_cut = checkpoint_at(&mut engine, Some(&pool), src, delta, strategy, k as u64);
            assert_eq!(&pooled_cut, cp, "{strategy} epoch {k}: the pooled kernels stop elsewhere");
            for resume_on in [None, Some(&pool)] {
                // Epoch m of the resumed run is epoch k + m of the
                // uninterrupted one: its stop must be that run's stop.
                for m in 1..=FOLLOW.min(epochs - 1 - k as u64) {
                    let next = engine
                        .resume_stepping(resume_on, cp, &mut RunBudget::unlimited().cancel_after(m))
                        .expect_err("cancel_after inside the run must stop it")
                        .into_checkpoint()
                        .expect("cancellation carries a checkpoint");
                    assert_eq!(
                        next,
                        reference[k + m as usize],
                        "{strategy}: cut at epoch {k}, resumed pooled={} for {m} epoch(s)",
                        resume_on.is_some()
                    );
                }
            }
        }
        assert!(
            mid_range_with_pending > 0 && range_starts > 0,
            "{strategy}: want stops mid-range with vertices waiting above the threshold \
             ({mid_range_with_pending}) and at range starts ({range_starts})"
        );
    }
}

#[test]
fn extraction_work_is_linear_in_vertices_and_improvements() {
    // Long, thin graphs: ~1000 and 50 000 steps of a handful of vertices
    // each. Extraction reads only the pending set, so its total work is
    // O(n + improvements); one pass over the distance vector per step
    // would be n × steps.
    use graphdata::gen;
    let grid = CsrGraph::from_edge_list(&gen::grid2d(8, 1024)).unwrap();
    let path = CsrGraph::from_edge_list(&gen::path(50_000)).unwrap();
    let pools: Vec<ThreadPool> =
        THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
    for (name, g) in [("grid-8x1024", &grid), ("path-50k", &path)] {
        let n = g.num_vertices() as u64;
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(64),
            SteppingStrategy::DeltaStar(4.0),
        ] {
            let mut scanned_by_kernel = Vec::new();
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                let mut engine = SsspEngine::new(g);
                let (r, _) = engine
                    .run_stepping(pool, 0, 1.0, strategy, &mut RunBudget::unlimited())
                    .expect("valid input");
                let scanned = engine.stats().extraction_scanned;
                let steps = r.stats.buckets_processed as u64;
                assert!(steps >= 250, "{strategy} on {name}: only {steps} steps");
                assert!(
                    scanned >= steps && scanned <= 4 * (n + r.stats.improvements),
                    "{strategy} on {name}: scanned {scanned} pending entries over {steps} steps \
                     (n = {n}, {} improvements)",
                    r.stats.improvements
                );
                scanned_by_kernel.push(scanned);
            }
            assert!(
                scanned_by_kernel.windows(2).all(|w| w[0] == w[1]),
                "{strategy} on {name}: extraction work differs across kernels: {scanned_by_kernel:?}"
            );
        }
    }
}
