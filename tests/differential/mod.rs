//! Differential solver harness: one table of inputs, every way to run
//! them, one set of oracles.
//!
//! The paper's formulations — canonical buckets (Fig. 1), the unfused
//! GraphBLAS listing (Fig. 2), the fused loop (Sec. VI-B), the task
//! scheme (Sec. VI-C) — compute the same distances, and the serving loop
//! runs classic Δ, ρ- and Δ*-stepping as one family. Each row of [`rows`]
//! is a graph, a Δ and a source, tagged with its [`Group`]. Its stepping
//! runs go on every kernel (pool-less, 1/2/4-thread pools, and a
//! [`TestSession`] pool, which takes the task path at every size) with the
//! light rounds left to the oracle, forced to push and forced to pull, and
//! through the job door; they are cut (see [`Cuts`]) and resumed on both
//! kernels, in memory and from the checkpoint file. All runs of one
//! part are views ([`SsspEngine::over`]) lent one workspace across graphs
//! of different sizes, and each is held bit for bit to Dijkstra and to the
//! pool-less oracle run's [`SsspStats`], epochs and push/pull rounds. The
//! oracle is held to [`validate::check_certificate`] and, for classic, to
//! `repro::canonical`'s counters. The figure variants run on the same
//! rows against the fused run.
//!
//! The work is cut into [`Part`]s. Each test of the suites that include
//! this module runs some parts on some groups through [`run`], and asserts
//! on what the returned [`Seen`] shows its fixtures exercised.

// Each suite runs its own share: what one leaves unused, another uses.
#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;

use gblas::Direction;
use graphdata::{gen, paper_suite, suite::weighted_suite, CsrGraph, SuiteScale, WeightModel};
use sssp_core::batch::{run_job, Job, JobOutcome};
use sssp_core::delta::DeltaStrategy;
use sssp_core::engine::{EngineStats, SsspEngine};
use sssp_core::gblas_impl::sssp_delta_step_directed;
use sssp_core::repro::canonical::delta_stepping_canonical;
use sssp_core::repro::gblas_select::delta_stepping_gblas_select;
use sssp_core::repro::parallel::{delta_stepping_parallel, delta_stepping_simulated, TaskScheme};
use sssp_core::stats::PhaseProfile;
use sssp_core::stepping::SteppingWorkspace;
use sssp_core::{bellman_ford, dijkstra, fused, run_checked, validate, GuardConfig};
use sssp_core::{Checkpoint, Implementation, Kernels, PreparedGraph, RunBudget, SsspError, SsspResult};
use sssp_core::{SsspStats, SteppingStrategy};
use taskpool::fault::TestSession;
use taskpool::ThreadPool;

use Group::*;
use Part::*;
use SteppingStrategy::{Classic, DeltaStar, Rho};

/// Which inputs a row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The fig. 3 unit-weight suite.
    Paper,
    /// A unit 10×10 grid.
    Grid,
    /// The fig. 4 weighted suite.
    Weighted,
    /// The weight-sorted layout's boundary: duplicates, self-loops, ±0.0
    /// and weights equal to Δ.
    Layout,
    /// Zero, subnormal and huge-ratio weights.
    Hostile,
    /// A gnm graph weighted 1 and 2 at Δ = 1, from source 0 and from
    /// source 1: its light edges have one weight, so its oracle crosses
    /// the push/pull switch, and its heavy passes relax edges.
    Switch0,
    Switch1,
    /// A source with no out-edges.
    Isolated,
    /// A symmetric rmat graph with uniform float weights, ties and a zero
    /// weight, at Δ = 0.3: the oracle pulls its densest heavy phases.
    Symmetric,
    /// Its twin, one reverse weight 1 ulp heavier: never symmetric, so
    /// every heavy phase pushes, even forced to pull.
    Twin,
}

pub const GROUPS: [Group; 10] =
    [Paper, Grid, Weighted, Layout, Hostile, Switch0, Switch1, Isolated, Symmetric, Twin];

/// One share of the work on a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The row's split is each vertex's light prefix.
    Split,
    /// The oracle run's own checks (certificate, rounds, exact epoch
    /// count, the job door on both kernels, canonical's counters), then
    /// every kernel with the light rounds left to the oracle.
    Oracle,
    /// Every kernel, forced to push and forced to pull.
    Forced,
    /// Every kernel and direction, cut at one sampled epoch and resumed.
    SampledCuts,
    /// Rows marked [`Cuts::Every`]: the oracle-direction runs, pool-less
    /// and on 1, 2 and 4 threads, cut at every epoch below their total
    /// and resumed.
    EveryCut,
    /// Classic forced to pull on a session pool: its pull rounds run as
    /// tasks, and land on the oracle's bits and stats.
    PullTasks,
    /// A fresh engine per run, pool-less and on 2 threads, against the
    /// lent view's oracle run.
    FreshEngine,
    /// The sequential figure variants against fused: Bellman–Ford,
    /// canonical, the simulated Sec. VI-C schemes, gblas-select.
    Sequential,
    /// The pooled figure variants at 1/2/4 threads against fused:
    /// `parallel` and `gblas-parallel`.
    Pooled,
    /// Fig. 2 as listed, its light `vxm` left to the oracle and pinned
    /// each way, and its bucket count against fused's.
    Gblas,
    /// Every figure name through `run_checked`.
    Door,
    /// The fused run passes the certificate and matches Dijkstra.
    Certificate,
}

/// The unit-weight groups.
pub const UNIT: &[Group] = &[Paper, Grid];
/// The real-weight groups.
pub const REAL: &[Group] = &[Weighted, Layout, Hostile, Switch0, Switch1, Symmetric, Twin];
/// The groups the figure variants run on: all but the isolated source.
pub const FIGURE_GROUPS: &[Group] =
    &[Paper, Grid, Weighted, Layout, Hostile, Switch0, Switch1, Symmetric, Twin];

/// Classic Δ and the two generalized families at moderate,
/// extract-everything and degenerate parameters.
const STRATEGIES: [SteppingStrategy; 7] =
    [Classic, Rho(16), Rho(1 << 20), DeltaStar(1.0), DeltaStar(2.0), DeltaStar(4.0), Rho(1)];

/// [`STRATEGIES`] but ρ = 1, whose one-vertex steps make cutting at every
/// epoch quadratic in the graph's size.
const MULTI_VERTEX_STEPS: &[SteppingStrategy] = STRATEGIES.split_at(6).0;

const CLASSIC: &[SteppingStrategy] = &[Classic];

/// Light rounds left to the density oracle, or pinned one way.
const DIRECTIONS: [Option<Direction>; 3] = [None, Some(Direction::Push), Some(Direction::Pull)];

const THREADS: [usize; 3] = [1, 2, 4];

/// Every uninterrupted pooled run, stepping loop and figure variant alike,
/// runs this many times: a merge that followed the schedule rather than
/// spawn order would differ between them.
const RUNS: usize = 3;

/// The figure door's names as literals: `sssp-analyze`'s `impl-coverage`
/// lint checks every `Implementation::name` against this file, so no
/// figure variant ships without running here.
const NAMES: [&str; 5] = ["canonical", "gblas", "gblas-select", "gblas-parallel", "parallel"];

/// The figure loops walk bucket indices one at a time, and the canonical
/// ring grows with the span of its occupied buckets: they run on the rows
/// whose last distance lies within this many Δ of the source.
const FIGURE_BUCKETS: f64 = 4096.0;

/// Distances must be bit-identical, not approximately equal.
fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// Where a row's runs are cancelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cuts {
    /// At one sampled epoch per run ([`SampledCuts`]), and, for the
    /// oracle-direction runs pool-less and on 1, 2 and 4 threads, at
    /// every epoch below their total ([`EveryCut`]).
    Every,
    /// At one sampled epoch per run.
    Sampled,
}

/// One input: a graph, a Δ and a source, the strategies it runs, where
/// they are cut, and whether the figure loops reach its last bucket.
pub struct Row {
    group: Group,
    label: String,
    graph: Rc<CsrGraph>,
    delta: f64,
    source: usize,
    strategies: &'static [SteppingStrategy],
    cuts: Cuts,
    figures: bool,
}

/// A graph from per-vertex edge lists `(target, weight)`, kept exactly as
/// given: duplicates, self-loops and row order included.
fn raw(rows: &[Vec<(usize, f64)>]) -> CsrGraph {
    let (targets, weights) = rows.iter().flatten().copied().unzip();
    let mut offsets = vec![0];
    offsets.extend(rows.iter().scan(0, |end, row| {
        *end += row.len();
        Some(*end)
    }));
    CsrGraph::from_raw_parts(rows.len(), offsets, targets, weights).expect("valid weights")
}

/// 40 vertices on a ring with chords. Each row holds a self-loop, a
/// duplicated ring edge at two weights and a chord listed twice at one
/// weight, in an order that is neither by target nor by weight. Every
/// weight lies in [0.25, 3.0].
fn duplicates_and_self_loops() -> CsrGraph {
    let row = |v: usize| {
        let (next, chord) = ((v + 1) % 40, (v * 7 + 3) % 40);
        vec![(chord, 2.0), (v, 0.25), (next, 1.0), (chord, 2.0), (next, 0.5), (v, 3.0)]
    };
    raw(&(0..40).map(row).collect::<Vec<_>>())
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

/// A symmetric graph on `edges` whose edge `{u, v}` weighs
/// `weight(min, max)` both ways.
fn weighted_by(edges: graphdata::EdgeList, weight: impl Fn(usize, usize) -> f64) -> CsrGraph {
    let g = CsrGraph::from_edge_list(&edges).unwrap();
    let row = |v: usize| g.neighbors(v).0.iter().map(|&u| (u, weight(v.min(u), v.max(u)))).collect();
    raw(&(0..g.num_vertices()).map(row).collect::<Vec<_>>())
}

/// A symmetric gnm graph whose weights cycle through `weights`.
fn cycled_weights(n: usize, m: usize, seed: u64, weights: &[f64]) -> CsrGraph {
    let mut el = gen::gnm(n, m, seed);
    el.symmetrize();
    weighted_by(el, |u, v| weights[(u * 7 + v) % weights.len()])
}

/// A symmetric rmat graph on 128 vertices whose edge `{u, v}` weighs the
/// same both ways: uniform floats in `[0, 1)` drawn from a table of 61,
/// so many edges tie, and one of them 0.0. Its twin nudges the weight of
/// one heavy edge's reverse up by 1 ulp, so the twin is not symmetric.
fn symmetric_and_twin() -> (CsrGraph, CsrGraph) {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut table: Vec<f64> = (0..61)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    table[17] = 0.0;
    let mut el = gen::rmat(gen::RmatParams::graph500(7, 8), 9);
    el.symmetrize();
    let g = weighted_by(el, |u, v| table[(u * 31 + v * 17) % table.len()]);
    let mut rows: Vec<Vec<(usize, f64)>> = (0..g.num_vertices())
        .map(|v| g.neighbors(v).0.iter().copied().zip(g.neighbors(v).1.iter().copied()).collect())
        .collect();
    let (u, i) = (0..rows.len())
        .flat_map(|u| (0..rows[u].len()).map(move |i| (u, i)))
        .find(|&(u, i)| rows[u][i].0 < u && rows[u][i].1 > 0.5)
        .expect("a heavy edge");
    rows[u][i].1 = f64::from_bits(rows[u][i].1.to_bits() + 1);
    (g, raw(&rows))
}

/// The table's rows in `groups`. The source and Δ sweeps of the suites
/// run classic; one row per suite graph runs every strategy.
pub fn rows(groups: &[Group]) -> Vec<Row> {
    use Cuts::{Every, Sampled};
    let mut rows = Vec::new();
    let mut add = |group, name: &str, graph: &Rc<CsrGraph>, (delta, source), strategies, cuts| {
        let (label, graph) = (format!("{name} (Δ = {delta}, source {source})"), Rc::clone(graph));
        let figures = true;
        rows.push(Row { group, label, graph, delta, source, strategies, cuts, figures });
    };
    // The fig. 3 unit-weight suite, from the first vertex, the middle one
    // and the hub, at a Δ below, at and above the weights.
    let paper = if groups.contains(&Paper) { paper_suite(SuiteScale::Smoke) } else { Vec::new() };
    for d in paper {
        let g = Rc::new(d.graph);
        let n = g.num_vertices();
        let hub = (0..n).max_by_key(|&v| g.out_degree(v)).unwrap_or(0);
        add(Paper, &d.name, &g, (1.0, n / 2), &STRATEGIES, Sampled);
        for source in [0, n / 2, hub] {
            for delta in [0.5, 1.0, 4.0] {
                if (delta, source) != (1.0, n / 2) {
                    add(Paper, &d.name, &g, (delta, source), CLASSIC, Sampled);
                }
            }
        }
    }
    // A unit grid.
    if groups.contains(&Grid) {
        let grid = Rc::new(CsrGraph::from_edge_list(&gen::grid2d(10, 10)).unwrap());
        add(Grid, "grid-10x10", &grid, (1.0, 0), &STRATEGIES, Every);
    }
    // The fig. 4 weighted suite: weights in [1e-3, 1), so Δ = 0.25 and
    // 0.5 have heavy edges, Δ = 1.0 none, and the Meyer–Sanders Δ is
    // each graph's own.
    let weighted = if groups.contains(&Weighted) { weighted_suite(SuiteScale::Smoke) } else { Vec::new() };
    for (i, d) in weighted.into_iter().enumerate() {
        let g = Rc::new(d.graph);
        if i < 2 {
            add(Weighted, &d.name, &g, (0.25, 1), &STRATEGIES, Sampled);
        }
        let ms = DeltaStrategy::MeyerSanders.resolve(&g).expect("valid delta");
        for delta in [0.25, 0.5, 1.0, ms] {
            add(Weighted, &d.name, &g, (delta, 0), CLASSIC, Sampled);
        }
    }
    // The weight-sorted layout's boundary: duplicates and self-loops,
    // ±0.0, and weights equal to Δ, at a Δ below or above every weight
    // too. A 6x6 grid whose weights cycle through 0.5, 1.0 and 1.5 puts
    // a third of its edges on the split point at Δ = 0.5 and 1.0.
    if groups.contains(&Layout) {
        let dups = Rc::new(duplicates_and_self_loops());
        for delta in [0.125, 0.5, 1.0, 2.0] {
            add(Layout, "duplicates and self-loops", &dups, (delta, 0), &STRATEGIES, Sampled);
        }
        let zeros = Rc::new(signed_zeros());
        for delta in [0.5, 1.0] {
            add(Layout, "signed zeros", &zeros, (delta, 0), &STRATEGIES, Every);
        }
        let on_delta = Rc::new(weighted_by(gen::grid2d(6, 6), |u, v| 0.5 * (1 + (u + v) % 3) as f64));
        for delta in [0.5, 1.0, 1.5, 4.0] {
            add(Layout, "weights equal to delta", &on_delta, (delta, 0), &STRATEGIES, Sampled);
        }
    }
    // Zero, subnormal and huge-ratio weights at a Δ that is no power of
    // two and lies below the largest weight.
    if groups.contains(&Hostile) {
        let subnormal = [0.0, f64::from_bits(1), 2.2e-308 / 3.0, 0.3, 0.7, 1.9, 2.5];
        let tiny = Rc::new(cycled_weights(120, 700, 21, &subnormal));
        add(Hostile, "zero and subnormal weights", &tiny, (0.3, 0), &STRATEGIES, Every);
        let ratio = [f64::from_bits(1), 1e-300, 1e-9, 0.3, 7.0, 1e9, 1e12];
        let huge = Rc::new(cycled_weights(120, 700, 22, &ratio));
        add(Hostile, "huge-ratio weights", &huge, (0.3, 0), &STRATEGIES, Every);
    }
    // A weighted graph whose oracle crosses the push/pull switch: only a
    // split whose light edges share one weight consults the oracle.
    if groups.contains(&Switch0) || groups.contains(&Switch1) {
        let mut el = gen::gnm(150, 900, 11);
        el.symmetrize();
        graphdata::weights::assign_symmetric(&mut el, WeightModel::UniformInt { lo: 1, hi: 2 }, 5);
        let gnm = Rc::new(CsrGraph::from_edge_list(&el).unwrap());
        for (group, source) in [(Switch0, 0), (Switch1, 1)] {
            add(group, "gnm-150-w12", &gnm, (1.0, source), MULTI_VERTEX_STEPS, Every);
        }
    }
    // Heavy phases pulled and their asymmetric twin: from the hub, every
    // strategy, cut at every epoch.
    if groups.contains(&Symmetric) || groups.contains(&Twin) {
        let (symmetric, twin) = symmetric_and_twin();
        let hub = (0..symmetric.num_vertices()).max_by_key(|&v| symmetric.out_degree(v)).unwrap();
        for (group, g) in [(Symmetric, symmetric), (Twin, twin)] {
            add(group, &format!("{group:?} rmat-7"), &Rc::new(g), (0.3, hub), &STRATEGIES, Every);
        }
    }
    // A source with no out-edges.
    if groups.contains(&Isolated) {
        let mut el = graphdata::EdgeList::from_triples(vec![(1, 2, 1.0)]);
        el.ensure_vertices(4);
        let isolated = Rc::new(CsrGraph::from_edge_list(&el).unwrap());
        add(Isolated, "isolated source", &isolated, (1.0, 0), &STRATEGIES, Sampled);
    }
    // The huge-ratio row's last distance lies some 1e12 buckets out.
    for row in &mut rows {
        row.figures = !row.label.starts_with("huge-ratio");
    }
    rows.retain(|row| groups.contains(&row.group));
    rows
}

/// Run `parts` on the table's rows in `groups`, and return what their
/// runs were seen to exercise.
pub fn run(groups: &[Group], parts: &[Part]) -> Seen {
    let rows = rows(groups);
    assert!(!rows.is_empty(), "no rows in {groups:?}");
    let mut seen = Seen::default();
    for &part in parts {
        match part {
            Split => rows.iter().for_each(|row| check_split(&PreparedGraph::new(&row.graph), row)),
            Sequential | Pooled | Gblas | Door | Certificate => check_figures(&rows, part),
            _ => check_stepping(&rows, part, &mut seen),
        }
    }
    seen
}

fn kernel_name(pool: Option<&ThreadPool>) -> String {
    match pool {
        None => "pool-less".to_string(),
        Some(p) if p.in_test_session() => format!("a session pool of {}", p.num_threads()),
        Some(p) => format!("{} thread(s)", p.num_threads()),
    }
}

/// One way to run a row: its strategy, kernel and direction.
#[derive(Clone, Copy)]
struct Run<'a> {
    strategy: SteppingStrategy,
    pool: Option<&'a ThreadPool>,
    forced: Option<Direction>,
}

impl Run<'_> {
    fn label(&self, row: &Row) -> String {
        let forced = self.forced.map_or("oracle".to_string(), |d| format!("{d:?}"));
        format!("{} on {}, {}, {forced}", self.strategy, row.label, kernel_name(self.pool))
    }
}

/// A run's `(push, pull)` light rounds.
fn rounds(profile: &PhaseProfile) -> (u64, u64) {
    (profile.push_epochs, profile.pull_epochs)
}

/// The counters the canonical loop and the classic strategy share: all
/// but `improvements`, which canonical counts per sequential relax and
/// the stepping loop per merged request.
fn phase_counts(s: &SsspStats) -> [u64; 4] {
    [s.buckets_processed as u64, s.light_phases as u64, s.heavy_phases as u64, s.relaxations]
}

/// The largest finite distance in bucket widths: how far the figure
/// loops walk.
fn last_bucket(r: &SsspResult, delta: f64) -> f64 {
    r.dist.iter().filter(|d| d.is_finite()).fold(0.0, |m, &d| f64::max(m, d)) / delta
}

/// Whether the light edges (`w <= Δ`) of `g` have more than one weight.
fn several_light_weights(g: &CsrGraph, delta: f64) -> bool {
    let mut light = g.weights().iter().filter(|&&w| w <= delta);
    light.next().is_some_and(|&w| light.any(|&x| x != w))
}

/// Whether every row of `g` is strictly ascending and the edges, weight
/// bits included, are the same multiset read both ways.
fn exactly_symmetric(g: &CsrGraph) -> bool {
    let ascending = (0..g.num_vertices()).all(|v| g.neighbors(v).0.windows(2).all(|p| p[0] < p[1]));
    let mut forward: Vec<_> = g.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
    let mut backward: Vec<_> = g.iter_edges().map(|(u, v, w)| (v, u, w.to_bits())).collect();
    forward.sort_unstable();
    backward.sort_unstable();
    ascending && forward == backward
}

/// The row's split is each vertex's light prefix: every edge once, light
/// ones at or below Δ, heavy ones above, and it knows whether its light
/// edges share one weight.
fn check_split(prep: &PreparedGraph, row: &Row) {
    let split = prep.split(row.delta);
    let view = split.on(prep);
    let several = several_light_weights(&row.graph, row.delta);
    assert_eq!(view.one_light_weight(), !several, "{}: one light weight", row.label);
    let symmetric = exactly_symmetric(&row.graph);
    assert_eq!((prep.is_symmetric(), view.is_symmetric()), (symmetric, symmetric), "{}: symmetric", row.label);
    assert!(symmetric || row.group != Symmetric, "{}: not symmetric", row.label);
    assert!(!symmetric || row.group != Twin, "{}: symmetric", row.label);
    for v in 0..row.graph.num_vertices() {
        let label = format!("{}, row {v}", row.label);
        assert!(view.light(v).iter().all(|&(_, w)| w <= row.delta), "{label}");
        assert!(view.heavy(v).iter().all(|&(_, w)| w > row.delta), "{label}");
        let key = |&(t, w): &(usize, f64)| (t, w.to_bits());
        let mut split_row: Vec<_> = view.light(v).iter().chain(view.heavy(v)).map(key).collect();
        let (ts, ws) = row.graph.neighbors(v);
        let mut loaded: Vec<_> = ts.iter().zip(ws).map(|(&t, &w)| key(&(t, w))).collect();
        split_row.sort_unstable();
        loaded.sort_unstable();
        assert_eq!(split_row, loaded, "{label}: the row's edges, each once");
    }
}

/// What the fixtures showed they exercise: the most one forced-push
/// classic run relaxed in its heavy passes, the rows whose classic
/// oracle took both directions, the rows whose light edges have several
/// weights, where every oracle run pushed, and each oracle run's heavy
/// phases pulled.
#[derive(Default)]
pub struct Seen {
    pub heavy_relaxations: u64,
    pub both_ways: Vec<String>,
    pub push_only: Vec<String>,
    pub heavy_pulls: Vec<(Group, SteppingStrategy, u64)>,
}

/// The pool-less oracle-direction run of one strategy on a row.
struct Reference<'a> {
    run: Run<'a>,
    label: String,
    result: SsspResult,
    /// Its epochs, light rounds, and `(push, pull)` rounds.
    total: u64,
    light: u64,
    rounds: (u64, u64),
    /// Its heavy phases, and those that pulled.
    heavy: u64,
    heavy_pulls: u64,
    /// Whether a heavy phase may pull at all: the graph is symmetric and
    /// has heavy edges at the row's Δ.
    may_pull_heavy: bool,
}

impl Reference<'_> {
    /// The rounds a run in `forced`'s direction takes: a forced run's
    /// all go its way.
    fn rounds(&self, forced: Option<Direction>) -> (u64, u64) {
        match forced {
            None => self.rounds,
            Some(Direction::Push) => (self.light, 0),
            Some(Direction::Pull) => (0, self.light),
        }
    }

    /// The heavy phases a run in `forced`'s direction pulls: a forced
    /// run pulls every one it may, and pushes the rest.
    fn heavy_pulls(&self, forced: Option<Direction>) -> u64 {
        match forced {
            None => self.heavy_pulls,
            Some(Direction::Push) => 0,
            Some(Direction::Pull) => if self.may_pull_heavy { self.heavy } else { 0 },
        }
    }
}

/// Runs a slice of the table through the stepping loop on views over
/// each row's prepared graph, all lent one workspace.
struct Harness<'a> {
    /// Pools of 1, 2 and 4 threads, then, for the parts that take it, a
    /// 2-thread session pool.
    pools: &'a [ThreadPool],
    ws: SteppingWorkspace,
    /// Where cut runs' checkpoints go through the disk.
    ckpt: PathBuf,
    /// State of the generator that samples cuts.
    seed: u64,
    /// The splits the current row's views built and found, and the runs
    /// that read them.
    views: EngineStats,
    runs: usize,
    seen: &'a mut Seen,
}

/// A directory under the system's temp dir, removed when dropped, on
/// unwind too.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: String) -> ScratchDir {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Run `part` on `rows` through the stepping loop.
fn check_stepping(rows: &[Row], part: Part, seen: &mut Seen) {
    // One directory per test thread: the suites' tests run side by side.
    let thread = std::thread::current().id();
    let dir = ScratchDir::new(format!("sssp-differential-{}-{thread:?}", std::process::id()));
    let mut pools: Vec<ThreadPool> =
        THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
    // A pool created under a session takes the task path at every size.
    // The session is held while the pool lives: its hooks are
    // process-wide, and holding it keeps other tests' arming off its pool.
    let _session = matches!(part, Oracle | Forced | SampledCuts | PullTasks).then(|| {
        let session = TestSession::begin();
        pools.push(ThreadPool::with_threads(2).expect("pool"));
        session
    });
    let mut harness = Harness {
        pools: &pools,
        ws: SteppingWorkspace::default(),
        ckpt: dir.0.join("cut.ckpt"),
        seed: 0x9E37_79B9_7F4A_7C15,
        views: EngineStats::default(),
        runs: 0,
        seen,
    };
    let mut cut_everywhere = 0;
    for row in rows {
        cut_everywhere += harness.check_row(row, part);
    }
    if part == EveryCut {
        let every: usize = rows.iter().filter(|r| r.cuts == Cuts::Every).map(|r| r.strategies.len()).sum();
        assert!(every > 0, "no row is cut at every epoch");
        assert_eq!(cut_everywhere, every * (1 + THREADS.len()), "runs cut at every epoch");
    }
    if part == PullTasks {
        assert!(harness.pull_ran_as_tasks(rows), "no row ran the pull kernel as tasks");
    }
}

impl Harness<'_> {
    /// Run `f` on a fresh view over `prep` and the lent workspace, its
    /// light rounds pinned to `forced`; its split counters join the row's.
    fn on_view<T>(
        &mut self,
        prep: &PreparedGraph,
        forced: Option<Direction>,
        f: impl FnOnce(&mut SsspEngine) -> T,
    ) -> (T, EngineStats) {
        let mut view = SsspEngine::over(prep, &mut self.ws);
        view.force_direction(forced);
        let out = f(&mut view);
        let stats = view.stats();
        self.views.split_builds += stats.split_builds;
        self.views.split_hits += stats.split_hits;
        (out, stats)
    }

    fn solve(
        &mut self,
        prep: &PreparedGraph,
        row: &Row,
        run: Run,
        budget: &mut RunBudget,
    ) -> (Result<(SsspResult, PhaseProfile), SsspError>, EngineStats) {
        self.runs += 1;
        self.on_view(prep, run.forced, |view| {
            view.run_stepping(run.pool, row.source, row.delta, run.strategy, budget)
        })
    }

    /// An epoch below `total` to cut at, the same on every run of the
    /// harness.
    fn sample(&mut self, total: u64) -> Option<u64> {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (total > 0).then(|| (self.seed >> 33) % total)
    }

    /// The pool-less oracle-direction run of `strategy`: Dijkstra's bits.
    fn oracle(&mut self, prep: &PreparedGraph, row: &Row, strategy: SteppingStrategy, truth: &[u64]) -> Reference<'static> {
        let run = Run { strategy, pool: None, forced: None };
        let label = run.label(row);
        let mut counting = RunBudget::unlimited();
        let (result, profile) = self.solve(prep, row, run, &mut counting).0.expect("valid input");
        assert_eq!(bits(&result.dist), truth, "{label}: distances diverge from Dijkstra");
        let rounds = rounds(&profile);
        if strategy == Classic && rounds.0 > 0 && rounds.1 > 0 {
            self.seen.both_ways.push(row.label.clone());
        }
        // A pull row stops early only when the light edges share one
        // weight; with several, the oracle pushes every round, and every
        // kernel's run is held to these rounds.
        if several_light_weights(&row.graph, row.delta) {
            assert_eq!(rounds.1, 0, "{label}: the oracle pulled on several light weights");
            if strategy == Classic && rounds.0 > 0 {
                self.seen.push_only.push(row.label.clone());
            }
        }
        let (total, light) = (counting.ticks(), result.stats.light_phases as u64);
        let heavy = result.stats.heavy_phases as u64;
        let may_pull_heavy = row.graph.is_symmetric() && row.graph.weights().iter().any(|&w| w > row.delta);
        let heavy_pulls = profile.heavy_pull_phases;
        assert!(heavy_pulls == 0 || may_pull_heavy, "{label}: pulled a heavy phase it may not");
        assert!(heavy_pulls <= heavy, "{label}: heavy pulls");
        self.seen.heavy_pulls.push((row.group, strategy, heavy_pulls));
        Reference { run, label, result, total, light, rounds, heavy, heavy_pulls, may_pull_heavy }
    }

    /// Run `part` on every strategy of `row`; returns the runs cut at
    /// every epoch.
    fn check_row(&mut self, row: &Row, part: Part) -> usize {
        let (g, pools) = (&*row.graph, self.pools);
        let kernels = || std::iter::once(None).chain(pools.iter().map(Some));
        let prep = PreparedGraph::new(g);
        let truth = bits(&dijkstra::dijkstra(g, row.source).dist);
        (self.views, self.runs) = (EngineStats::default(), 0);
        let mut cut_everywhere = 0;
        for &strategy in row.strategies {
            let oracle = self.oracle(&prep, row, strategy, &truth);
            match part {
                Oracle => {
                    self.check_oracle(&prep, row, &oracle, &truth);
                    for pool in kernels() {
                        self.check_run(&prep, row, Run { strategy, pool, forced: None }, &oracle, &truth);
                    }
                }
                Forced => {
                    for pool in kernels() {
                        for forced in [Direction::Push, Direction::Pull].map(Some) {
                            self.check_run(&prep, row, Run { strategy, pool, forced }, &oracle, &truth);
                        }
                    }
                }
                SampledCuts => {
                    for pool in kernels() {
                        for forced in DIRECTIONS {
                            if let Some(k) = self.sample(oracle.total) {
                                self.check_cut(&prep, row, Run { strategy, pool, forced }, k, &oracle, &truth);
                            }
                        }
                    }
                }
                EveryCut if row.cuts == Cuts::Every => {
                    for pool in kernels() {
                        for k in 0..oracle.total {
                            self.check_cut(&prep, row, Run { pool, ..oracle.run }, k, &oracle, &truth);
                        }
                        cut_everywhere += 1;
                    }
                }
                PullTasks if strategy == Classic => {
                    let session = Some(&pools[3]);
                    let run = Run { strategy, pool: session, forced: Some(Direction::Pull) };
                    self.check_run(&prep, row, run, &oracle, &truth);
                }
                FreshEngine => {
                    for pool in [None, Some(&pools[1])] {
                        let label = format!("{}, a fresh engine on {}", oracle.label, kernel_name(pool));
                        let fresh = SsspEngine::new(g).run_stepping(
                            pool,
                            row.source,
                            row.delta,
                            strategy,
                            &mut RunBudget::unlimited(),
                        );
                        let (r, _) = fresh.unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_eq!(bits(&r.dist), truth, "{label}: distances");
                        assert_eq!(r.stats, oracle.result.stats, "{label}: stats");
                    }
                }
                _ => {}
            }
        }
        // Every view over the row's prepared graph read its splits: the
        // all-light one nobody builds, or the one slot, built once.
        let builds = usize::from(row.delta < prep.max_weight());
        assert_eq!(self.views.split_builds, builds, "{}: split builds", row.label);
        assert_eq!(self.views.split_hits, self.runs - builds, "{}: split hits", row.label);
        cut_everywhere
    }

    /// The oracle run's own checks: the certificate, one direction per
    /// light round, an exact epoch count, the job door on both kernels,
    /// and, for classic, canonical's counters.
    fn check_oracle(&mut self, prep: &PreparedGraph, row: &Row, oracle: &Reference, truth: &[u64]) {
        let (g, label, total) = (&*row.graph, &oracle.label, oracle.total);
        validate::check_certificate(g, &oracle.result, 0.0).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        assert_eq!(oracle.rounds.0 + oracle.rounds.1, oracle.light, "{label}: rounds");
        // The epoch count is exact: a budget of `total` lets the run end.
        self.solve(prep, row, oracle.run, &mut RunBudget::unlimited().cancel_after(total))
            .0
            .unwrap_or_else(|e| panic!("{label}: a budget of its {total} epochs stopped it: {e}"));
        // The job door runs the same loop, on both kernels.
        let guard = GuardConfig::default();
        let pool = Some(&self.pools[1]);
        for kernels in [Kernels::Sequential, Kernels::Pooled] {
            let (source, delta, strategy) = (row.source, row.delta, oracle.run.strategy);
            let (cancel, progress, deadline) = (None, None, None);
            let job = Job { source, kernels, delta, strategy, guard: &guard, deadline, cancel, progress };
            self.runs += 1;
            match self.on_view(prep, None, |view| run_job(view, pool, None, &job, None)).0 {
                JobOutcome::Complete { result, .. } => {
                    assert_eq!(bits(&result.dist), truth, "{label}: job on {kernels:?}");
                    assert_eq!(result.stats, oracle.result.stats, "{label}: job on {kernels:?}");
                }
                other => panic!("{label}: the job door refused on {kernels:?}: {other:?}"),
            }
        }
        let within = last_bucket(&oracle.result, row.delta) <= FIGURE_BUCKETS;
        assert_eq!(within, row.figures, "{label}: the figure loops' reach");
        if oracle.run.strategy == Classic && row.figures {
            let canonical = delta_stepping_canonical(g, row.source, row.delta);
            let (have, want) = (phase_counts(&oracle.result.stats), phase_counts(&canonical.stats));
            assert_eq!(have, want, "{label}: canonical's counts");
        }
    }

    /// One uninterrupted run, [`RUNS`] times if pooled: the oracle's
    /// bits, stats, epochs, and its direction's rounds.
    fn check_run(&mut self, prep: &PreparedGraph, row: &Row, run: Run, oracle: &Reference, truth: &[u64]) {
        let repeats = if run.pool.is_some() { RUNS } else { 1 };
        for rep in 0..repeats {
            let label = format!("{}, run {rep}", run.label(row));
            let mut counting = RunBudget::unlimited();
            let (r, p) = self.solve(prep, row, run, &mut counting).0.expect("valid input");
            assert_eq!(bits(&r.dist), truth, "{label}: distances");
            assert_eq!(r.stats, oracle.result.stats, "{label}: stats");
            assert_eq!(counting.ticks(), oracle.total, "{label}: epochs");
            assert_eq!(rounds(&p), oracle.rounds(run.forced), "{label}: rounds");
            assert_eq!(p.heavy_pull_phases, oracle.heavy_pulls(run.forced), "{label}: heavy pulls");
            if run.forced == Some(Direction::Push) && run.strategy == Classic {
                // A push reads exactly the frontier's light edges: the
                // other relaxations are the heavy passes'.
                let heavy = r.stats.relaxations - p.edges_scanned;
                self.seen.heavy_relaxations = self.seen.heavy_relaxations.max(heavy);
            }
        }
    }

    /// Cancel `run` after `k` epochs: its checkpoint and its rounds.
    fn cut(&mut self, prep: &PreparedGraph, row: &Row, run: Run, k: u64, label: &str) -> (Checkpoint, EngineStats) {
        let (out, cut) = self.solve(prep, row, run, &mut RunBudget::unlimited().cancel_after(k));
        match out {
            Err(SsspError::Cancelled { checkpoint }) => (*checkpoint, cut),
            Err(other) => panic!("{label}: expected Cancelled, got {other}"),
            Ok(_) => panic!("{label}: expected Cancelled, the run finished"),
        }
    }

    /// Cancel `run` after `k` epochs and resume its checkpoint on both
    /// kernels in memory, and on one of them through the checkpoint file:
    /// every resumption lands on the uninterrupted run's distances, stats
    /// and, with the cut run's, rounds. The checkpoint itself is the
    /// pool-less oracle run's cut at `k`, byte for byte, whatever the
    /// kernel or direction, and its frontier is strictly ascending.
    fn check_cut(&mut self, prep: &PreparedGraph, row: &Row, run: Run, k: u64, oracle: &Reference, truth: &[u64]) {
        let label = format!("{}, cut at epoch {k}", run.label(row));
        let (cp, cut) = self.cut(prep, row, run, k, &label);
        cp.validate(row.graph.num_vertices()).expect("checkpoint must validate");
        assert!(cp.resumable, "{label}");
        assert_eq!(cp.stepping.map(|st| st.strategy), Some(run.strategy), "{label}: stepping state");
        assert!(cp.frontier.windows(2).all(|p| p[0] < p[1]), "{label}: frontier not strictly ascending");
        if run.pool.is_some() || run.forced.is_some() {
            let (want, _) = self.cut(prep, row, oracle.run, k, &oracle.label);
            assert_eq!((&cp.frontier, &cp.settled), (&want.frontier, &want.settled), "{label}: the oracle's sets");
            assert!(cp.to_bytes(0) == want.to_bytes(0), "{label}: bytes differ from the oracle's cut");
        }
        // Everything the checkpoint certifies is final.
        for (v, d) in cp.settled_distances() {
            assert_eq!(d.to_bits(), truth[v], "{label}: certified vertex {v} is not final");
        }
        let path = self.ckpt.clone();
        let (loaded, _) = self.on_view(prep, None, |view| {
            view.save_checkpoint(&cp, &path).unwrap_or_else(|e| panic!("{label}: save: {e}"));
            view.load_checkpoint(&path).unwrap_or_else(|e| panic!("{label}: load: {e}"))
        });
        assert_eq!(loaded, cp, "{label}: the checkpoint file round-trips");
        assert_eq!(bits(&loaded.dist), bits(&cp.dist), "{label}: the file's distances");
        // The file holds the same checkpoint: resume it on one kernel,
        // taking turns with `k`. A pooled resume takes the cut's own
        // pool, or 2 threads.
        let pooled = run.pool.or(Some(&self.pools[1]));
        let from_disk = if k.is_multiple_of(2) { None } else { pooled };
        for (medium, cp, pool) in
            [("in memory", &cp, None), ("in memory", &cp, pooled), ("from disk", &loaded, from_disk)]
        {
            let label = format!("{label}, resumed {medium} on {}", kernel_name(pool));
            self.runs += 1;
            let resumed = self.on_view(prep, run.forced, |view| {
                view.resume_stepping(pool, cp, &mut RunBudget::unlimited())
            });
            let (r, p) = resumed.0.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(bits(&r.dist), truth, "{label}: distances");
            assert_eq!(r.stats, oracle.result.stats, "{label}: stats");
            let halves = (cut.push_epochs + p.push_epochs, cut.pull_epochs + p.pull_epochs);
            assert_eq!(halves, oracle.rounds(run.forced), "{label}: the halves' rounds");
            let heavy_pulls = cut.heavy_pull_phases + p.heavy_pull_phases;
            assert_eq!(heavy_pulls, oracle.heavy_pulls(run.forced), "{label}: the halves' heavy pulls");
        }
    }

    /// On the first row without heavy edges, a classic run forced to pull
    /// spawns tasks only in its pull rounds, and a session pool spawns
    /// them at every size: the first task it spawns takes the injected
    /// panic.
    fn pull_ran_as_tasks(&mut self, rows: &[Row]) -> bool {
        let all_light = |r: &&Row| r.delta >= PreparedGraph::new(&r.graph).max_weight();
        let Some(row) = rows.iter().filter(|r| r.graph.num_edges() > 0).find(all_light) else {
            return false;
        };
        let prep = PreparedGraph::new(&row.graph);
        let session = &self.pools[3];
        let before = session.panicked_tasks();
        taskpool::fault::arm_panic_after(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut view = SsspEngine::over(&prep, &mut self.ws);
            view.force_direction(Some(Direction::Pull));
            let budget = &mut RunBudget::unlimited();
            view.run_stepping(Some(session), row.source, row.delta, Classic, budget)
        }));
        taskpool::fault::disarm();
        let payload = caught.err().unwrap_or_else(|| panic!("{}: no pull task ran", row.label));
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some(taskpool::fault::INJECTED_PANIC_MESSAGE));
        assert_eq!(session.panicked_tasks(), before + 1);
        true
    }
}

/// Run `part`, a figure variant, on `rows` against the fused run.
fn check_figures(rows: &[Row], part: Part) {
    let pools: Vec<ThreadPool> =
        THREADS.iter().map(|&t| ThreadPool::with_threads(t).expect("pool")).collect();
    let guard = GuardConfig::default();
    for (i, row) in rows.iter().enumerate() {
        let (g, src, delta) = (&*row.graph, row.source, row.delta);
        let label = &row.label;
        let fused = fused::delta_stepping_fused(g, src, delta);
        let want = bits(&fused.dist);
        let within = last_bucket(&fused, delta) <= FIGURE_BUCKETS;
        assert_eq!(within, row.figures, "{label}: the figure loops' reach");
        match part {
            Certificate => {
                validate::check_certificate(g, &fused, 0.0).unwrap_or_else(|e| panic!("{label}: {e:?}"));
                assert_eq!(want, bits(&dijkstra::dijkstra(g, src).dist), "{label}: fused");
                continue;
            }
            Sequential => {
                assert_eq!(bits(&bellman_ford::bellman_ford(g, src).dist), want, "{label}: bellman-ford");
            }
            _ => {}
        }
        if !row.figures {
            continue;
        }
        // The GraphBLAS figures build a matrix, one entry per coordinate:
        // they run on graphs without duplicate edges. Fig. 2 as listed
        // uses t_Req as a value mask, so it needs positive weights too.
        let mut coordinates: Vec<_> = g.iter_edges().map(|(u, v, _)| (u, v)).collect();
        coordinates.sort_unstable();
        let simple = coordinates.windows(2).all(|w| w[0] != w[1]);
        let positive = g.weights().iter().all(|&w| w > 0.0);
        match part {
            Sequential => {
                // Fig. 1: explicit buckets.
                assert_eq!(bits(&delta_stepping_canonical(g, src, delta).dist), want, "{label}: canonical");
                // Sec. VI-C, recorded: the fused algorithm, every counter
                // included.
                for scheme in [TaskScheme::PaperTasks, TaskScheme::Improved] {
                    let (r, _) = delta_stepping_simulated(g, src, delta, scheme);
                    assert_eq!(bits(&r.dist), want, "{label}: simulated {scheme:?}");
                    assert_eq!(r.stats, fused.stats, "{label}: simulated {scheme:?} stats");
                }
                // Fig. 2 with select filters, pool-less.
                if simple {
                    let select = delta_stepping_gblas_select(None, g, src, delta);
                    assert_eq!(bits(&select.dist), want, "{label}: gblas-select");
                }
            }
            Pooled => {
                // Sec. VI-C, pooled: the fused algorithm, every counter
                // included. Fig. 2 with select filters on the parallel
                // library kernels: the pool-less run's bits and counters.
                let select = simple.then(|| delta_stepping_gblas_select(None, g, src, delta));
                for (pool, rep) in pools.iter().flat_map(|p| (0..RUNS).map(move |rep| (p, rep))) {
                    let at = format!("at {} thread(s), run {rep}", pool.num_threads());
                    let r = delta_stepping_parallel(pool, g, src, delta);
                    assert_eq!(bits(&r.dist), want, "{label}: parallel {at}");
                    assert_eq!(r.stats, fused.stats, "{label}: parallel {at}: stats");
                    if let Some(select) = &select {
                        let r = delta_stepping_gblas_select(Some(pool), g, src, delta);
                        assert_eq!(bits(&r.dist), want, "{label}: gblas-parallel {at}");
                        assert_eq!(r.stats, select.stats, "{label}: gblas-parallel {at}: stats");
                    }
                }
            }
            Gblas if simple && positive => {
                let a = g.to_adjacency();
                let gblas = sssp_delta_step_directed(&a, delta, src, None);
                assert_eq!(bits(&gblas.dist), want, "{label}: gblas");
                for forced in [Direction::Push, Direction::Pull].map(Some) {
                    let r = sssp_delta_step_directed(&a, delta, src, forced);
                    assert_eq!(bits(&r.dist), want, "{label}: gblas {forced:?}");
                    assert_eq!(r.stats, gblas.stats, "{label}: gblas {forced:?} stats");
                }
                // It counts every bucket index up to the last, fused the
                // occupied ones: where none is empty, they agree.
                let occupied = |b| fused.dist.iter().any(|&d| d.is_finite() && (d / delta) as usize == b);
                if (0..=last_bucket(&fused, delta) as usize).all(occupied) {
                    let (have, want) = (gblas.stats.buckets_processed, fused.stats.buckets_processed);
                    assert_eq!(have, want, "{label}: gblas buckets");
                }
            }
            Door => {
                // The figure door, by name, on the pools in turn.
                let pool = &pools[i % pools.len()];
                for name in NAMES {
                    let imp = Implementation::parse(name).expect("figure name must parse");
                    assert_eq!(imp.name(), name, "parse(name()) must round-trip");
                    let at = format!("{label}: {name} through the door at {} thread(s)", pool.num_threads());
                    use Implementation::{Gblas, GblasParallel, GblasSelect};
                    if matches!(imp, Gblas | GblasSelect | GblasParallel) && !simple {
                        continue;
                    }
                    match run_checked(imp, g, src, delta, Some(pool), &guard) {
                        Ok((r, _)) => assert_eq!(bits(&r.dist), want, "{at}"),
                        Err(e) => assert!(imp == Gblas && !positive, "{at}: {e}"),
                    }
                }
            }
            _ => {}
        }
    }
}
