//! The weight-sorted layout on the inputs it could get wrong.
//!
//! A run reads `A_L` / `A_H` as a prefix and a suffix of each row of the
//! prepared graph's weight-sorted adjacency, split at a per-row partition
//! point. These graphs aim at that boundary: duplicate edges and
//! self-loops (which `CsrGraph::from_raw_parts` keeps), `-0.0` beside
//! `+0.0` (which a raw-bits sort would split), weights exactly equal to Δ
//! (light, `w <= Δ`), and a Δ below every weight (no light edge) or above
//! every weight (no heavy edge). On each, every strategy's distances must
//! be bit-identical to Dijkstra's, through the engine and through the job
//! door, and the pooled kernels at 1, 2 and 4 threads — forced onto the
//! pool, pushing and pulling — must reproduce the sequential run's stats.
//!
//! The pooled runs happen under a `TestSession`, whose pools run every
//! phase as pool tasks however small; each run pins its own direction.

use gblas::Direction;
use graphdata::CsrGraph;
use sssp_core::batch::{run_job, Job, JobOutcome};
use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::{GuardConfig, Kernels, PreparedGraph, RunBudget, SsspResult, SteppingStrategy};
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

const STRATEGIES: [SteppingStrategy; 3] = [
    SteppingStrategy::Classic,
    SteppingStrategy::Rho(4),
    SteppingStrategy::DeltaStar(2.0),
];

/// A graph from per-vertex edge lists `(target, weight)`, kept exactly as
/// given: duplicates, self-loops and row order included.
fn raw(rows: &[Vec<(usize, f64)>]) -> CsrGraph {
    let mut offsets = vec![0];
    let (mut targets, mut weights) = (Vec::new(), Vec::new());
    for row in rows {
        for &(t, w) in row {
            targets.push(t);
            weights.push(w);
        }
        offsets.push(targets.len());
    }
    CsrGraph::from_raw_parts(rows.len(), offsets, targets, weights).expect("valid weights")
}

/// 40 vertices on a ring with chords. Each row holds a self-loop, a
/// duplicated ring edge at two weights and a chord listed twice at one
/// weight, in an order that is neither by target nor by weight.
fn duplicates_and_self_loops() -> CsrGraph {
    let n = 40;
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|v| {
            let (next, chord) = ((v + 1) % n, (v * 7 + 3) % n);
            vec![
                (chord, 2.0),
                (v, 0.25),
                (next, 1.0),
                (chord, 2.0),
                (next, 0.5),
                (v, 3.0),
            ]
        })
        .collect();
    raw(&rows)
}

/// Zero-weight edges of both signs next to positive ones: vertex 3 is
/// reached at distance 0 only through `-0.0` edges, vertex 4 only
/// through `+0.0` ones, and rows mix the two with each other and with
/// weights on either side of Δ.
fn signed_zeros() -> CsrGraph {
    raw(&[
        vec![(1, 0.75), (2, -0.0), (4, 0.0), (5, 1.5)],
        vec![(5, 0.0), (0, -0.0), (6, 2.5), (2, 0.0)],
        vec![(3, -0.0), (6, 1.0), (1, -0.0), (1, 0.0)],
        vec![(7, 0.0), (6, -0.0), (2, 0.5)],
        vec![(7, -0.0), (5, 1.0), (0, 0.0)],
        vec![(6, 0.25), (3, 2.0)],
        vec![(7, 1.0), (0, 0.0)],
        vec![],
    ])
}

/// A 6x6 grid whose weights cycle through 0.5, 1.0 and 1.5: at Δ = 1.0
/// and at Δ = 0.5 a third of the edges sit exactly on the split point.
fn weights_on_delta() -> CsrGraph {
    let side = 6;
    let at = |r: usize, c: usize| r * side + c;
    let rows: Vec<Vec<(usize, f64)>> = (0..side * side)
        .map(|v| {
            let (r, c) = (v / side, v % side);
            let mut row = Vec::new();
            for (dr, dc) in [(0isize, 1isize), (1, 0), (0, -1), (-1, 0)] {
                let (nr, nc) = (r as isize + dr, c as isize + dc);
                if (0..side as isize).contains(&nr) && (0..side as isize).contains(&nc) {
                    let u = at(nr as usize, nc as usize);
                    row.push((u, 0.5 * (1 + (v + u) % 3) as f64));
                }
            }
            row
        })
        .collect();
    raw(&rows)
}

/// The graphs and the Δ values each is run at.
fn cases() -> Vec<(&'static str, CsrGraph, Vec<f64>)> {
    vec![
        (
            "duplicates and self-loops",
            duplicates_and_self_loops(),
            vec![0.5, 1.0, 2.0],
        ),
        ("signed zeros", signed_zeros(), vec![0.5, 1.0]),
        (
            "weights equal to delta",
            weights_on_delta(),
            vec![0.5, 1.0, 1.5],
        ),
        // Every weight is at least 0.25 and at most 3.0.
        (
            "delta below every weight",
            duplicates_and_self_loops(),
            vec![0.125],
        ),
        ("delta above every weight", weights_on_delta(), vec![4.0]),
    ]
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

fn run(
    g: &CsrGraph,
    pool: Option<&ThreadPool>,
    delta: f64,
    strategy: SteppingStrategy,
    forced: Option<Direction>,
) -> SsspResult {
    let mut engine = SsspEngine::new(g);
    engine.force_direction(forced);
    engine
        .run_stepping(pool, 0, delta, strategy, &mut RunBudget::unlimited())
        .expect("valid input, unlimited budget")
        .0
}

#[test]
fn every_split_is_exactly_each_rows_light_prefix() {
    for (name, g, deltas) in cases() {
        let prep = PreparedGraph::new(&g);
        for delta in deltas {
            let split = prep.split(delta);
            let view = split.on(&prep);
            for v in 0..g.num_vertices() {
                let label = format!("{name}, delta {delta}, row {v}");
                assert!(view.light(v).iter().all(|&(_, w)| w <= delta), "{label}");
                assert!(view.heavy(v).iter().all(|&(_, w)| w > delta), "{label}");
                let mut split_row: Vec<(usize, u64)> = view
                    .light(v)
                    .iter()
                    .chain(view.heavy(v))
                    .map(|&(t, w)| (t, w.to_bits()))
                    .collect();
                let (ts, ws) = g.neighbors(v);
                let mut loaded: Vec<(usize, u64)> =
                    ts.iter().zip(ws).map(|(&t, &w)| (t, w.to_bits())).collect();
                split_row.sort_unstable();
                loaded.sort_unstable();
                assert_eq!(split_row, loaded, "{label}: the row's edges, each once");
            }
        }
    }
}

#[test]
fn edge_cases_match_dijkstra_bit_for_bit_through_the_engine_and_the_job_door() {
    let guard = GuardConfig::default();
    for (name, g, deltas) in cases() {
        let truth = bits(&dijkstra(&g, 0).dist);
        for delta in deltas {
            for strategy in STRATEGIES {
                let label = format!("{name}, delta {delta}, {strategy}");
                assert_eq!(bits(&run(&g, None, delta, strategy, None).dist), truth, "{label}");
                let job = Job {
                    source: 0,
                    kernels: Kernels::Sequential,
                    delta,
                    strategy,
                    guard: &guard,
                    deadline: None,
                    cancel: None,
                    progress: None,
                };
                match run_job(&mut SsspEngine::new(&g), None, None, &job, None) {
                    JobOutcome::Complete { result, .. } => {
                        assert_eq!(bits(&result.dist), truth, "{label}: job door");
                    }
                    other => panic!("{label}: the job door refused a valid graph: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn edge_cases_give_the_same_stats_on_every_kernel_and_direction() {
    // Every pooled phase goes through pool tasks, however small.
    let _session = TestSession::begin();
    let pools: Vec<ThreadPool> = [1, 2, 4]
        .into_iter()
        .map(|t| ThreadPool::with_threads(t).unwrap())
        .collect();
    for (name, g, deltas) in cases() {
        for delta in deltas {
            for strategy in STRATEGIES {
                let reference = run(&g, None, delta, strategy, Some(Direction::Push));
                for forced in [Direction::Push, Direction::Pull] {
                    for pool in &pools {
                        let label = format!(
                            "{name}, delta {delta}, {strategy}, {forced:?}, {} threads",
                            pool.num_threads()
                        );
                        let pooled = run(&g, Some(pool), delta, strategy, Some(forced));
                        assert_eq!(bits(&pooled.dist), bits(&reference.dist), "{label}");
                        assert_eq!(pooled.stats, reference.stats, "{label}");
                    }
                }
            }
        }
    }
}
