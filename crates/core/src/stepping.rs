//! The one stepping loop: classic Δ-stepping, ρ-stepping, and
//! Δ*-stepping behind one frontier-extraction abstraction.
//!
//! Dong, Gu, Sun & Zhang ("Efficient Stepping Algorithms and
//! Implementations for Parallel Shortest Paths", 2021) observe that
//! Meyer–Sanders Δ-stepping is one point in a family: every member keeps
//! a tentative-distance vector and repeatedly (1) **extracts** a frontier
//! of near vertices, (2) **drains** it to a relaxation fixpoint, and
//! (3) advances a certified settled bound. The members differ only in
//! the extraction threshold:
//!
//! * **classic Δ** ([`SteppingStrategy::Classic`]) — the next non-empty
//!   bucket `[b·Δ, (b+1)·Δ)`, the `k = 1` point of Δ*. Pool-less this is
//!   the paper's fused implementation (Sec. VI-B), pooled its proposed
//!   parallel improvement (Sec. VI-C): two relaxation kernels of this
//!   loop, over a [`Split`](crate::prepared::Split) of the weight-sorted
//!   rows;
//! * **Δ\*** ([`SteppingStrategy::DeltaStar`]) — a *fused* bucket range
//!   `[b·Δ, b·Δ + k·Δ)` covering `k` consecutive buckets per step, which
//!   trades a few extra re-relaxations for far fewer heavy phases;
//! * **ρ** ([`SteppingStrategy::Rho`]) — the ρ nearest tentative
//!   vertices regardless of their spread (a lazy-batched priority
//!   extraction), which approaches Dijkstra's settle-once behavior and
//!   cuts total relaxations where classic Δ = 1 over-relaxes.
//!
//! The loop owns (2) and (3): ranges `[bound, threshold)` are drained
//! with light-phase fixpoints (plus batched heavy phases for classic and
//! Δ*; ρ relaxes *all* out-edges of the frontier per round, so no
//! separate heavy pass exists), and every improvement landing inside the
//! open range re-enters the frontier — including heavy-edge
//! improvements, which *can* land in-range once `k > 1`. Each light
//! round pushes the frontier's out-edges or pulls the light in-edges
//! ([`crate::pull`]), as the run's caller pinned or, when every light
//! edge has one weight, the shared [`gblas::direction`] oracle decides
//! (with several light weights it pushes), and counts which into the
//! run. A heavy phase pushes the settled set's heavy edges, or, on a
//! symmetric graph, pulls them through each open vertex's weight-sorted
//! heavy row when the oracle finds the settled set dense or the caller
//! pinned pull (`relax_heavy`); the run counts its heavy pulls too.
//! When the range is empty the loop terminates with `bound` = ∞.
//!
//! Extraction (1) never reads the whole distance vector. It scans a
//! **pending set** — the vertices whose tentative distance is finite and
//! at or above the upcoming bound — that starts as `{source}`, gains a
//! vertex only when `apply_requests` discovers it (∞ → finite) at or
//! above the draining range's threshold, and sheds members lazily:
//! entries improved below the bound are dropped by the next extraction.
//! Each vertex joins at most once per run, so the pending values are the
//! same multiset a scan of the vector would collect, and a step costs
//! O(|pending|) — O(frontier) on road-like graphs.
//!
//! Determinism: relaxation goes through the contention-free
//! [`crate::reqbuf`] request buffers (spawn-order merge, first-touch
//! order on every push path) or the pull kernel (ascending), both
//! touching exactly the targets a candidate improves. The drain
//! min-folds them in whichever order, and the frontier it refills is
//! sorted: it is the only list that reaches `settled` and checkpoints.
//! Thresholds are pure functions of the distance multiset, and no float
//! is produced that depends on thread count — distances, stats and
//! checkpoints are bit-identical across 1/2/4 threads, both directions
//! and the pool-less path.
//!
//! Checkpointing follows [`crate::checkpoint`]: `settled_below` is the
//! extracted-range bound carried in [`SteppingState`]. Stops happen at
//! range starts ([`StopPoint::BucketStart`]) and light-round boundaries
//! ([`StopPoint::LightPhase`]) — a budget epoch is one extraction or one
//! light round — and resuming is bit-identical; the pending set is not
//! checkpointed but rebuilt from `dist` and the bound in one O(n) pass,
//! the only one in the loop. A resumable checkpoint without a
//! [`SteppingState`] (written by an older binary's classic or
//! task-parallel loop) is read as classic with `bound = bucket·Δ`.

use std::time::{Duration, Instant};

use gblas::direction::{self, Direction};
use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::budget::RunBudget;
use crate::checkpoint::{Checkpoint, LiveState, SteppingState, StopPoint};
use crate::delta::{bucket_of, bucket_start, next_up};
use crate::engine::SsspEngine;
use crate::guard::SsspError;
use crate::prepared::SplitView;
use crate::reqbuf::{relax, RelaxWorkspace};
use crate::result::SsspResult;
use crate::stats::PhaseProfile;
use crate::INF;

/// Default ρ for a bare `--strategy rho`: large enough to batch real
/// work per extraction, small enough to stay near Dijkstra's settle-once
/// relaxation count on mid-sized graphs.
pub const DEFAULT_RHO: usize = 2048;

/// Default bucket-fusion factor for a bare `--strategy delta-star`:
/// each step drains four consecutive Δ-buckets.
pub const DEFAULT_DELTA_STAR_FACTOR: f64 = 4.0;

/// Frontier-extraction policy of the stepping loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteppingStrategy {
    /// Meyer–Sanders Δ-stepping: extract the next non-empty bucket
    /// `[b·Δ, (b+1)·Δ)` — Δ* with `k = 1`.
    Classic,
    /// Extract the ρ nearest tentative vertices per step (ties at the
    /// ρ-th value are all included, keeping extraction deterministic).
    Rho(usize),
    /// Extract the fused bucket range `[b·Δ, b·Δ + k·Δ)` — `k`
    /// consecutive buckets per step, `k ≥ 1`.
    DeltaStar(f64),
}

impl SteppingStrategy {
    /// Canonical lowercase name, shared by the CLI, serve protocol, and
    /// bench entries.
    pub fn name(&self) -> &'static str {
        match self {
            SteppingStrategy::Classic => "classic",
            SteppingStrategy::Rho(_) => "rho",
            SteppingStrategy::DeltaStar(_) => "delta-star",
        }
    }

    /// Parse `classic`, `rho`, `rho:N`, `delta-star`, or `delta-star:K`
    /// (the same grammar everywhere: `--strategy`, the serve wire option,
    /// bench labels).
    pub fn parse(s: &str) -> Result<SteppingStrategy, String> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let strategy = match (kind, param) {
            ("classic", None) => SteppingStrategy::Classic,
            ("classic", Some(_)) => {
                return Err("classic takes no parameter".to_string());
            }
            ("rho", None) => SteppingStrategy::Rho(DEFAULT_RHO),
            ("rho", Some(p)) => SteppingStrategy::Rho(
                p.parse()
                    .map_err(|_| format!("bad rho parameter '{p}' (want a positive integer)"))?,
            ),
            ("delta-star", None) => SteppingStrategy::DeltaStar(DEFAULT_DELTA_STAR_FACTOR),
            ("delta-star", Some(p)) => SteppingStrategy::DeltaStar(
                p.parse()
                    .map_err(|_| format!("bad delta-star factor '{p}' (want a number ≥ 1)"))?,
            ),
            _ => {
                return Err(format!(
                    "unknown strategy '{s}' (want classic, rho[:N], or delta-star[:K])"
                ))
            }
        };
        strategy.validate().map_err(|e| e.to_string())?;
        Ok(strategy)
    }

    /// Reject degenerate parameters: ρ = 0 extracts nothing forever, and
    /// a fusion factor below 1 can produce empty sub-bucket ranges.
    pub fn validate(&self) -> Result<(), SsspError> {
        match *self {
            SteppingStrategy::Classic => Ok(()),
            SteppingStrategy::Rho(rho) if rho >= 1 => Ok(()),
            SteppingStrategy::Rho(rho) => Err(SsspError::InvalidStrategy {
                reason: format!("rho must be at least 1, got {rho}"),
            }),
            SteppingStrategy::DeltaStar(k) if k.is_finite() && k >= 1.0 => Ok(()),
            SteppingStrategy::DeltaStar(k) => Err(SsspError::InvalidStrategy {
                reason: format!("delta-star factor must be finite and ≥ 1, got {k}"),
            }),
        }
    }
}

impl std::fmt::Display for SteppingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteppingStrategy::Classic => write!(f, "classic"),
            SteppingStrategy::Rho(rho) => write!(f, "rho:{rho}"),
            SteppingStrategy::DeltaStar(k) => write!(f, "delta-star:{k}"),
        }
    }
}

impl std::str::FromStr for SteppingStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SteppingStrategy::parse(s)
    }
}

/// Reusable per-run state for the loop: the request-buffer workspace,
/// frontier/settled scratch, the pending set extraction scans, the
/// dense-epoch frontier bitmap, and the ρ selection scratch. Callers that
/// run many queries keep one so repeated runs allocate nothing: an
/// engine owns one, or borrows the one a serve worker slot keeps across
/// its requests. It grows to the largest graph it has served
/// ([`SteppingWorkspace::ensure`]); every run starts by clearing what a
/// previous run left in it.
#[derive(Debug, Default)]
pub struct SteppingWorkspace {
    relax: RelaxWorkspace,
    frontier: Vec<usize>,
    settled: Vec<usize>,
    scratch: Vec<f64>,
    /// The pending set: every vertex whose tentative distance is finite
    /// and at or above the upcoming bound, each at most once, plus stale
    /// entries (improved below the bound since they joined) that the
    /// next extraction drops. Rebuilt at every loop entry.
    pending: Vec<usize>,
    /// What the run in flight has done, cleared at every loop entry.
    tally: RunTally,
    /// Vertex bitmap, all-`false` between phases: a pull round marks its
    /// frontier in it, and a heavy pass the first sighting of each
    /// settled vertex, which a heavy pull then reads as `S`; each clears
    /// what it set by iterating its list.
    in_frontier: Vec<bool>,
    /// Set while an engine run is inside this workspace. A run that finds
    /// it still set follows one that panicked mid-run, whose request
    /// buffers may break their "all-INF when idle" invariant, so it
    /// starts on a fresh workspace ([`SteppingWorkspace::begin_run`]).
    in_use: bool,
}

impl SteppingWorkspace {
    /// Grow (never shrink) to fit an `n`-vertex graph.
    pub fn ensure(&mut self, n: usize) {
        self.relax.ensure(n);
        if self.in_frontier.len() < n {
            self.in_frontier.resize(n, false);
        }
    }

    /// Enter a run: replace the workspace with a fresh one if the
    /// previous run never reached [`SteppingWorkspace::end_run`] (it
    /// panicked), whoever owns the workspace.
    pub(crate) fn begin_run(&mut self) -> &mut Self {
        if std::mem::replace(&mut self.in_use, true) {
            *self = SteppingWorkspace { in_use: true, ..SteppingWorkspace::default() };
        }
        self
    }

    /// Leave a run (finished or budget-stopped), returning what its loop
    /// did — what [`crate::engine::EngineStats`] accumulates.
    pub(crate) fn end_run(&mut self) -> RunTally {
        self.in_use = false;
        std::mem::take(&mut self.tally)
    }
}

/// One run's pending entries examined by extractions, light rounds
/// pushed / pulled and heavy phases pulled, kept in its workspace so that
/// a budget-stopped run, which returns no profile, still reports them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunTally {
    pub(crate) extraction_scanned: u64,
    pub(crate) push_epochs: u64,
    pub(crate) pull_epochs: u64,
    pub(crate) heavy_pull_phases: u64,
}

/// Run `strategy` once under `budget` on a fresh
/// [`crate::engine::SsspEngine`]: the one-shot checked door for tests,
/// examples and bench loops; the split build is reported as
/// `matrix_filter` time. Repeated runs should keep the engine, which
/// caches the prepared graph, the split and the workspace.
pub fn stepping_checked(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: Option<&ThreadPool>,
    budget: &mut RunBudget,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    SsspEngine::new(g).run_stepping(pool, source, delta, strategy, budget)
}

/// The one panicking convenience door, for tests, examples and bench
/// loops: [`stepping_checked`] with an unlimited budget. Panics on
/// invalid input.
pub fn delta_stepping_strategy(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: Option<&ThreadPool>,
) -> SsspResult {
    stepping_checked(g, source, delta, strategy, pool, &mut RunBudget::unlimited())
        .expect("inputs must be valid and the budget is unlimited")
        .0
}

/// Resume an interrupted run from its checkpoint. The strategy, bound,
/// and in-flight range come from the checkpoint's [`SteppingState`] (a
/// checkpoint without one is classic at `bucket·Δ`); the continued run
/// is bit-identical (distances and stats) to an uninterrupted one,
/// whichever of the pooled and pool-less kernels either half ran on.
pub fn stepping_resume_with(
    lh: SplitView<'_>,
    cp: &Checkpoint,
    pool: Option<&ThreadPool>,
    forced: Option<Direction>,
    budget: &mut RunBudget,
    ws: &mut SteppingWorkspace,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    cp.validate(lh.num_vertices())?;
    if !cp.resumable {
        return Err(SsspError::InvalidCheckpoint {
            reason: "checkpoint was emitted by a non-resumable implementation".to_string(),
        });
    }
    let strategy = cp.stepping.map_or(SteppingStrategy::Classic, |st| st.strategy);
    stepping_loop(lh, cp.source, cp.delta, strategy, pool, forced, budget, ws, Some(cp))
}

/// One light round's requests, `t_Req = A_L^T (t ∘ t_Bi)`, returning the
/// direction taken: sparse frontiers push through the request buffers;
/// dense ones pull the light in-edges against the frontier bitmap. Unless
/// `forced`, the density oracle decides only when every light edge has
/// one weight, the one case where a pull row stops early (see
/// [`crate::prepared::Split`]); otherwise the round pushes. The choice
/// reads only the split and the frontier, so every kernel takes the same
/// rounds. The request vector is bit-identical either way (see
/// [`crate::pull`]).
/// `edges_scanned` grows by the edges the pass read: the frontier's light
/// edges on a push, the in-edges the scan reached on a pull. The
/// frontier's light degree sum is taken only where something reads it:
/// the oracle, or a pull round's `relaxations`; a push counts its own.
#[allow(clippy::too_many_arguments)]
fn relax_light(
    forced: Option<Direction>,
    pool: Option<&ThreadPool>,
    lh: SplitView<'_>,
    dist: &[f64],
    frontier: &[usize],
    in_frontier: &mut [bool],
    rws: &mut RelaxWorkspace,
    relaxations: &mut u64,
    edges_scanned: &mut u64,
) -> Direction {
    let degree_sum = || frontier.iter().map(|&v| lh.light_degree(v)).sum::<usize>();
    let (dir, frontier_edges) = match forced {
        Some(dir) => (dir, None),
        None if lh.one_light_weight() => {
            let edges = degree_sum();
            (direction::decide(edges, lh.num_light()), Some(edges))
        }
        None => (Direction::Push, None),
    };
    if dir == Direction::Push {
        let before = *relaxations;
        relax(pool, lh, dist, frontier, true, rws, relaxations);
        *edges_scanned += *relaxations - before;
        return dir;
    }
    let mut lower = INF;
    for &v in frontier {
        in_frontier[v] = true;
        if dist[v] < lower {
            lower = dist[v];
        }
    }
    *edges_scanned += rws.pull_light(pool, lh.pull_index(), dist, in_frontier, lower);
    for &v in frontier {
        in_frontier[v] = false;
    }
    // A relaxation is a candidate formed, not an edge read or an offer:
    // push forms one per frontier light edge and offers those that
    // improve, and the pull pass stands for that same candidate set,
    // though it reads fewer edges whenever a row stops at its floor or a
    // target is skipped.
    *relaxations += frontier_edges.unwrap_or_else(degree_sum) as u64;
    dir
}

/// One heavy phase's requests, `t_Req = A_H^T (t ∘ s)` over the settled
/// set `S`, returning the direction taken. `S` is a set, as the paper's
/// `s = s ∨ t_B` makes it: a vertex that re-entered this range's frontier
/// offers its heavy edges once, at its final `t[v]`, which every copy
/// would have read. The frontier bitmap, all-false between phases, marks
/// first sightings, so `settled` keeps settled order; request order never
/// changes a min-fold. A checkpoint taken before this point holds the
/// multiset; the resumed run dedups it here the same way.
///
/// On a symmetric graph the phase may pull ([`crate::pull`]): as the
/// caller pinned it, or as the density oracle decides on `S`'s heavy
/// degree sum against the heavy edges plus vertices, the heavy
/// counterpart of a light round's choice. The sum is folded into the
/// dedup, which reads each row's bounds anyway, and is what a pull adds
/// to `relaxations`: the candidates the push would form. It is not taken
/// when the oracle would push even if every listed vertex had the
/// split's largest heavy degree: the rule is monotone in the edge count,
/// so that bound decides as the sum would, and the many small phases of
/// a graph that never pulls (a weighted grid) pay nothing. Any other
/// graph, or a phase pinned to push, pushes.
#[allow(clippy::too_many_arguments)]
fn relax_heavy(
    forced: Option<Direction>,
    pool: Option<&ThreadPool>,
    lh: SplitView<'_>,
    dist: &[f64],
    settled: &mut Vec<usize>,
    in_frontier: &mut [bool],
    rws: &mut RelaxWorkspace,
    relaxations: &mut u64,
) -> Direction {
    let total = lh.num_heavy() + lh.num_vertices();
    let may_pull = lh.is_symmetric()
        && match forced {
            Some(dir) => dir == Direction::Pull,
            None => direction::decide(settled.len().saturating_mul(lh.max_heavy_degree()), total) == Direction::Pull,
        };
    let mut heavy_edges = 0usize;
    settled.retain(|&v| {
        let first = !std::mem::replace(&mut in_frontier[v], true);
        if first && may_pull {
            heavy_edges += lh.heavy(v).len();
        }
        first
    });
    let dir = match forced {
        _ if !may_pull => Direction::Push,
        Some(dir) => dir,
        None => direction::decide(heavy_edges, total),
    };
    if dir == Direction::Pull {
        let mut lower = INF;
        for &v in settled.iter() {
            if dist[v] < lower {
                lower = dist[v];
            }
        }
        rws.pull_heavy(pool, lh, dist, in_frontier, lower);
        *relaxations += heavy_edges as u64;
    }
    settled.iter().for_each(|&v| in_frontier[v] = false);
    if dir == Direction::Push {
        relax(pool, lh, dist, settled, false, rws, relaxations);
    }
    dir
}

/// Fold the outstanding requests into `t` (`t = min(t, t_Req)`), pushing
/// every improvement that lands below `threshold` onto `frontier`, then
/// sort `frontier`: requests drain in the kernel's touched order, and the
/// frontier is the one list that reaches `settled` and checkpoints, so
/// it alone is put in ascending vertex order. The only place a vertex
/// joins `pending`: on its discovery (∞ → finite) at or above
/// `threshold`. A vertex already finite there is a member already, so no
/// vertex is ever listed twice; `pending`'s order is never read (see
/// `extract_frontier`).
fn apply_requests(
    rws: &mut RelaxWorkspace,
    t: &mut [f64],
    threshold: f64,
    frontier: &mut Vec<usize>,
    pending: &mut Vec<usize>,
    improvements: &mut u64,
) {
    rws.drain_requests(|u, cand| {
        if cand < t[u] {
            *improvements += 1;
            let discovered = t[u] == INF;
            // Conflicts with the producer tasks' dist reads across
            // phases — the join edge must order them.
            #[cfg(feature = "racecheck")]
            racecheck::plain_write("sssp.dist", &t[u] as *const f64);
            t[u] = cand;
            if cand < threshold {
                frontier.push(u);
            } else if discovered {
                pending.push(u);
            }
        }
    });
    frontier.sort_unstable();
}

/// Extraction: drop the stale members of `pending` (`t[v] < bound` —
/// improved into an earlier range since they joined), pick the
/// strategy's threshold from the tentative values that remain, and move
/// the members of `[bound, threshold)` to `frontier` in ascending vertex
/// order. Returns the threshold, or `None` when nothing is tentative at
/// or above the bound. Reads `t` only through `pending`, so a step costs
/// O(|pending|), never O(n). The threshold is a function of the pending
/// values' multiset and the frontier leaves sorted, so the order in which
/// members joined `pending` never shows.
fn extract_frontier(
    strategy: SteppingStrategy,
    delta: f64,
    t: &[f64],
    bound: f64,
    pending: &mut Vec<usize>,
    frontier: &mut Vec<usize>,
    scratch: &mut Vec<f64>,
) -> Option<f64> {
    frontier.clear();
    let mut min_cand = INF;
    pending.retain(|&v| {
        let tv = t[v];
        if tv < bound {
            return false;
        }
        if tv < min_cand {
            min_cand = tv;
        }
        true
    });
    if pending.is_empty() {
        return None;
    }
    // The smallest pending value above `floor` (∞ when there is none).
    let next_distinct = |floor: f64| {
        pending
            .iter()
            .map(|&v| t[v])
            .filter(|&x| x > floor)
            .fold(INF, f64::min)
    };
    let mut threshold = match strategy {
        SteppingStrategy::Rho(rho) => {
            if pending.len() <= rho {
                // Extract the whole candidate pool, but close the range
                // just above its maximum: vertices *discovered* while
                // draining stay out of this batch and wait for the next
                // extraction (an ∞ threshold would drag the entire
                // remaining graph into one chaotic-relaxation range).
                next_up(pending.iter().map(|&v| t[v]).fold(min_cand, f64::max))
            } else {
                // The ρ-th smallest tentative value; every candidate
                // tied with it joins the extraction, so the threshold is
                // the next *distinct* value.
                scratch.clear();
                scratch.extend(pending.iter().map(|&v| t[v]));
                let (_, pivot, _) = scratch.select_nth_unstable_by(rho - 1, |a, b| a.total_cmp(b));
                next_distinct(*pivot)
            }
        }
        // The range starts at the first non-empty bucket (no empty-bucket
        // skip iterations) and spans k bucket widths; classic is k = 1
        // with the edge placed exactly where `bucket_of` puts it, so the
        // range test below is the bucket-membership test bit for bit.
        SteppingStrategy::Classic => bucket_start(bucket_of(min_cand, delta) + 1, delta),
        SteppingStrategy::DeltaStar(k) => (bucket_of(min_cand, delta) as f64) * delta + k * delta,
    };
    if threshold <= min_cand {
        // Float-rounding guard: the range must contain its minimum, or
        // the loop would spin. Fall back to the next distinct tentative
        // value (∞ when all candidates tie).
        threshold = next_distinct(min_cand);
    }
    pending.retain(|&v| {
        let in_range = t[v] < threshold;
        if in_range {
            frontier.push(v);
        }
        !in_range
    });
    // Members joined in discovery order; the frontier (and with it every
    // checkpoint) lists vertices ascending, as a scan of `t` would.
    frontier.sort_unstable();
    Some(threshold)
}

/// Close the phase that has been running since `lap` into `phase` and
/// open the next one: one clock read per phase boundary.
fn close_phase(lap: &mut Instant, phase: &mut Duration) {
    let now = Instant::now();
    *phase += now - *lap;
    *lap = now;
}

/// The loop: extract a range `[bound, threshold)` by the strategy's
/// rule, drain it to a fixpoint, advance the bound, repeat — over a
/// prebuilt split and a caller-owned workspace, the
/// [`crate::engine::SsspEngine`] entry point. `pool` of `None` runs the
/// sequential relaxation kernels (bit-identical to every pooled thread
/// count), `forced` of `None` lets the oracle pick directions. The
/// returned profile contains no `matrix_filter` time: the caller decides
/// whether a cached split costs anything.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stepping_loop(
    lh: SplitView<'_>,
    source: usize,
    delta: f64,
    strategy: SteppingStrategy,
    pool: Option<&ThreadPool>,
    forced: Option<Direction>,
    budget: &mut RunBudget,
    ws: &mut SteppingWorkspace,
    resume: Option<&Checkpoint>,
) -> Result<(SsspResult, PhaseProfile), SsspError> {
    strategy.validate()?;
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(SsspError::InvalidDelta { delta });
    }
    let n = lh.num_vertices();
    if source >= n {
        return Err(SsspError::SourceOutOfBounds {
            source,
            num_vertices: n,
        });
    }

    let mut result = SsspResult::init(n, source);
    let mut profile = PhaseProfile::default();

    ws.ensure(n);
    let SteppingWorkspace {
        relax: rws,
        frontier,
        settled,
        scratch,
        in_frontier,
        pending,
        tally,
        in_use: _,
    } = ws;
    *tally = RunTally::default();
    frontier.clear();
    settled.clear();
    // A warm workspace may hold another run's members (another source or
    // graph, or a budget stop mid-run).
    pending.clear();

    // The certified bound (exclusive): every dist < bound is final.
    let mut bound = 0.0f64;
    // The range being drained; meaningful only between extraction and
    // the bound advance.
    let mut threshold = 0.0f64;
    // Continuing mid-range re-enters the drain with the saved
    // frontier/settled sets, skipping the boundary work (budget check,
    // extraction, buckets_processed) that already happened before the
    // interruption.
    let mut entering_mid = false;
    if let Some(cp) = resume {
        result.dist.clone_from(&cp.dist);
        result.stats = cp.stats.clone();
        (bound, threshold) = match &cp.stepping {
            Some(st) => (st.bound, st.threshold),
            None => (
                bucket_start(cp.bucket, delta),
                bucket_start(cp.bucket.saturating_add(1), delta),
            ),
        };
        frontier.extend_from_slice(&cp.frontier);
        settled.extend_from_slice(&cp.settled);
        entering_mid = cp.stop_point == StopPoint::LightPhase;
        // Membership is a function of `dist` and the bound the next
        // extraction will see, so the checkpoint does not carry it: one
        // O(n) pass rebuilds it. Mid-range, `[bound, threshold)` is in
        // flight (frontier, settled, or already drained) and the next
        // bound is `threshold`.
        let floor = if entering_mid { threshold } else { bound };
        pending.extend((0..n).filter(|&v| cp.dist[v].is_finite() && cp.dist[v] >= floor));
    } else {
        pending.push(source);
    }

    let t = &mut result.dist;
    let stats = &mut result.stats;
    let mut lap = Instant::now();

    loop {
        if entering_mid {
            entering_mid = false;
        } else {
            if let Err(stop) = budget.check() {
                return Err(LiveState {
                    source,
                    delta,
                    dist: t,
                    stats,
                    bucket: bucket_of(bound, delta),
                    stop_point: StopPoint::BucketStart,
                    frontier: &[],
                    settled: &[],
                    stepping: SteppingState {
                        strategy,
                        bound,
                        threshold: bound,
                    },
                }
                .stop(stop));
            }
            tally.extraction_scanned += pending.len() as u64;
            let extracted = extract_frontier(strategy, delta, t, bound, pending, frontier, scratch);
            close_phase(&mut lap, &mut profile.vector_ops);
            match extracted {
                Some(next) => threshold = next,
                None => break, // nothing tentative at or above the bound: done
            }

            stats.buckets_processed += 1;
            settled.clear();
        }

        // Drain `[bound, threshold)` to a fixpoint. ρ relaxes all
        // out-edges per round; classic and Δ* run light-phase fixpoints
        // with a batched heavy pass over each fixpoint's settled set
        // (heavy improvements can land in-range when k > 1, refilling
        // the frontier for another cycle).
        loop {
            while !frontier.is_empty() {
                if let Err(stop) = budget.check() {
                    return Err(LiveState {
                        source,
                        delta,
                        dist: t,
                        stats,
                        bucket: bucket_of(bound, delta),
                        stop_point: StopPoint::LightPhase,
                        frontier,
                        settled,
                        stepping: SteppingState {
                            strategy,
                            bound,
                            threshold,
                        },
                    }
                    .stop(stop));
                }
                stats.light_phases += 1;
                let taken = relax_light(
                    forced,
                    pool,
                    lh,
                    t,
                    frontier,
                    in_frontier,
                    rws,
                    &mut stats.relaxations,
                    &mut profile.edges_scanned,
                );
                match taken {
                    Direction::Push => tally.push_epochs += 1,
                    Direction::Pull => tally.pull_epochs += 1,
                }
                if matches!(strategy, SteppingStrategy::Rho(_)) {
                    relax(pool, lh, t, frontier, false, rws, &mut stats.relaxations);
                } else {
                    settled.extend_from_slice(frontier);
                }
                close_phase(&mut lap, &mut profile.relaxation);

                frontier.clear();
                apply_requests(rws, t, threshold, frontier, pending, &mut stats.improvements);
                close_phase(&mut lap, &mut profile.vector_ops);
            }
            if settled.is_empty() {
                break; // ρ always lands here: no separate heavy pass
            }
            stats.heavy_phases += 1;
            // Without heavy edges the phase relaxes nothing: `S` has no
            // heavy row to offer.
            if lh.has_heavy_edges()
                && relax_heavy(forced, pool, lh, t, settled, in_frontier, rws, &mut stats.relaxations)
                    == Direction::Pull
            {
                tally.heavy_pull_phases += 1;
            }
            settled.clear();
            close_phase(&mut lap, &mut profile.relaxation);

            apply_requests(rws, t, threshold, frontier, pending, &mut stats.improvements);
            close_phase(&mut lap, &mut profile.vector_ops);
            if frontier.is_empty() {
                break;
            }
        }

        // Everything below the threshold is now at a relaxation
        // fixpoint: the range is certified.
        bound = threshold;
    }

    profile.push_epochs = tally.push_epochs;
    profile.pull_epochs = tally.pull_epochs;
    profile.heavy_pull_phases = tally.heavy_pull_phases;
    Ok((result, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::prepared::{PreparedGraph, Split};
    use graphdata::gen::{grid2d, path};
    use graphdata::{EdgeList, WeightModel};

    /// `g` prepared, and its split at `delta`: view it with
    /// `split.on(&prep)`.
    fn prepared(g: &CsrGraph, delta: f64) -> (PreparedGraph<'_>, Split) {
        let prep = PreparedGraph::new(g);
        let split = prep.split(delta);
        (prep, split)
    }

    fn weighted_grid() -> CsrGraph {
        let mut el = grid2d(9, 7);
        graphdata::weights::assign_symmetric(
            &mut el,
            WeightModel::UniformFloat { lo: 0.05, hi: 2.0 },
            31,
        );
        CsrGraph::from_edge_list(&el).unwrap()
    }

    #[test]
    fn parse_grammar_round_trips() {
        assert_eq!(SteppingStrategy::parse("classic"), Ok(SteppingStrategy::Classic));
        assert_eq!(
            SteppingStrategy::parse("rho"),
            Ok(SteppingStrategy::Rho(DEFAULT_RHO))
        );
        assert_eq!(SteppingStrategy::parse("rho:17"), Ok(SteppingStrategy::Rho(17)));
        assert_eq!(
            SteppingStrategy::parse("delta-star"),
            Ok(SteppingStrategy::DeltaStar(DEFAULT_DELTA_STAR_FACTOR))
        );
        assert_eq!(
            SteppingStrategy::parse("delta-star:2.5"),
            Ok(SteppingStrategy::DeltaStar(2.5))
        );
        for bad in ["", "rho:0", "rho:x", "delta-star:0.5", "classic:1", "dijkstra"] {
            assert!(SteppingStrategy::parse(bad).is_err(), "{bad:?}");
        }
        for s in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(9),
            SteppingStrategy::DeltaStar(3.0),
        ] {
            assert_eq!(SteppingStrategy::parse(&s.to_string()), Ok(s));
        }
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        assert!(SteppingStrategy::Rho(0).validate().is_err());
        for k in [0.0, 0.99, -2.0, f64::NAN, f64::INFINITY] {
            assert!(SteppingStrategy::DeltaStar(k).validate().is_err(), "{k}");
        }
        assert!(SteppingStrategy::Classic.validate().is_ok());
        assert!(SteppingStrategy::Rho(1).validate().is_ok());
        assert!(SteppingStrategy::DeltaStar(1.0).validate().is_ok());
    }

    #[test]
    fn extraction_rules_hold_over_the_pending_multiset() {
        // Vertex 3 is undiscovered, vertex 6 is stale (improved below the
        // bound since it joined), and members sit in discovery order.
        let t = [0.5, 3.0, 1.0, INF, 1.0, 2.0, 0.2, 1.0];
        let members = [7, 5, 1, 4, 2, 0, 6];
        let extract = |strategy, t: &[f64], members: &[usize], bound| {
            let mut pending = members.to_vec();
            let (mut frontier, mut scratch) = (vec![99], Vec::new());
            let threshold =
                extract_frontier(strategy, 1.0, t, bound, &mut pending, &mut frontier, &mut scratch);
            (threshold, frontier, pending)
        };
        // ρ = 2: the 2nd smallest value is 1.0 and all three ties join, so
        // the range closes at the next distinct value.
        assert_eq!(
            extract(SteppingStrategy::Rho(2), &t, &members, 0.5),
            (Some(2.0), vec![0, 2, 4, 7], vec![5, 1])
        );
        // ρ ≥ |pending|: everything, closed just above the maximum.
        assert_eq!(
            extract(SteppingStrategy::Rho(6), &t, &members, 0.5),
            (Some(next_up(3.0)), vec![0, 1, 2, 4, 5, 7], vec![])
        );
        assert_eq!(
            extract(SteppingStrategy::Classic, &t, &members, 0.5),
            (Some(1.0), vec![0], vec![7, 5, 1, 4, 2])
        );
        assert_eq!(
            extract(SteppingStrategy::DeltaStar(2.0), &t, &members, 0.5),
            (Some(2.0), vec![0, 2, 4, 7], vec![5, 1])
        );
        // Nothing at or above the bound: the run is over.
        assert_eq!(extract(SteppingStrategy::Classic, &t, &members, 3.5), (None, vec![], vec![]));
        // Float guard: at 1e17 one bucket width vanishes in rounding, so
        // the range edge lands on the minimum; the next distinct pending
        // value takes over (∞ when every candidate ties).
        let far = SteppingStrategy::DeltaStar(1.0);
        assert_eq!(extract(far, &[2e17, 1e17], &[0, 1], 0.0), (Some(2e17), vec![1], vec![0]));
        assert_eq!(extract(far, &[1e17, 1e17], &[1, 0], 0.0), (Some(INF), vec![0, 1], vec![]));
    }

    #[test]
    fn classic_runs_through_the_loop_as_the_k_equals_one_case() {
        let g = CsrGraph::from_edge_list(&path(4)).unwrap();
        let (prep, split) = prepared(&g, 1.0);
        let lh = split.on(&prep);
        let mut ws = SteppingWorkspace::default();
        let mut run = |strategy| {
            let unlimited = &mut RunBudget::unlimited();
            stepping_loop(lh, 0, 1.0, strategy, None, None, unlimited, &mut ws, None)
                .unwrap()
                .0
        };
        let classic = run(SteppingStrategy::Classic);
        assert_eq!(classic.dist, vec![0.0, 1.0, 2.0, 3.0]);
        // Four buckets, one light round and one heavy pass each.
        assert_eq!(classic.stats.buckets_processed, 4);
        assert_eq!(classic.stats.heavy_phases, 4);
        assert_eq!(classic.stats, run(SteppingStrategy::DeltaStar(1.0)).stats);
    }

    #[test]
    fn every_strategy_matches_dijkstra_on_weighted_graphs() {
        let g = weighted_grid();
        let dj = dijkstra(&g, 0);
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(1),
            SteppingStrategy::Rho(7),
            SteppingStrategy::Rho(100_000),
            SteppingStrategy::DeltaStar(1.0),
            SteppingStrategy::DeltaStar(2.5),
            SteppingStrategy::DeltaStar(16.0),
        ] {
            let r = delta_stepping_strategy(&g, 0, 0.5, strategy, None);
            assert_eq!(r.dist, dj.dist, "{strategy}");
        }
    }

    #[test]
    fn rho_reduces_relaxations_versus_small_delta() {
        // Weighted graph, classic Δ = 1: light edges inside a bucket are
        // re-relaxed across light phases. Small-batch ρ-stepping extracts
        // near-minimum vertices that rarely improve again, approaching
        // Dijkstra's settle-once relaxation count.
        let g = weighted_grid();
        let classic = crate::fused::delta_stepping_fused(&g, 0, 1.0);
        let rho = delta_stepping_strategy(&g, 0, 1.0, SteppingStrategy::Rho(1), None);
        assert_eq!(rho.dist, classic.dist);
        assert!(
            rho.stats.relaxations < classic.stats.relaxations,
            "rho {} vs classic {}",
            rho.stats.relaxations,
            classic.stats.relaxations
        );
        assert_eq!(rho.stats.heavy_phases, 0);
    }

    #[test]
    fn delta_star_fuses_buckets() {
        let g = weighted_grid();
        let classic = crate::fused::delta_stepping_fused(&g, 0, 0.25);
        let fusedk = delta_stepping_strategy(&g, 0, 0.25, SteppingStrategy::DeltaStar(8.0), None);
        assert_eq!(fusedk.dist, classic.dist);
        assert!(
            fusedk.stats.buckets_processed < classic.stats.buckets_processed,
            "delta-star {} ranges vs classic {} buckets",
            fusedk.stats.buckets_processed,
            classic.stats.buckets_processed
        );
    }

    #[test]
    fn pooled_and_sequential_paths_are_bit_identical() {
        // A session's pools take the parallel producer/merge path even
        // on this small graph.
        let _session = taskpool::fault::TestSession::begin();
        let g = weighted_grid();
        let (prep, split) = prepared(&g, 0.5);
        let lh = split.on(&prep);
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(5),
            SteppingStrategy::DeltaStar(3.0),
        ] {
            let mut ws = SteppingWorkspace::default();
            let unlimited = &mut RunBudget::unlimited();
            let (seq, _) = stepping_loop(lh, 0, 0.5, strategy, None, None, unlimited, &mut ws, None)
                .unwrap();
            for threads in [1, 2, 4] {
                let pool = ThreadPool::with_threads(threads).unwrap();
                let mut ws = SteppingWorkspace::default();
                let (par, _) = stepping_loop(
                    lh,
                    0,
                    0.5,
                    strategy,
                    Some(&pool),
                    None,
                    &mut RunBudget::unlimited(),
                    &mut ws,
                    None,
                )
                .unwrap();
                assert_eq!(
                    seq.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    par.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "{strategy} at {threads} threads"
                );
                assert_eq!(seq.stats, par.stats, "{strategy} at {threads} threads");
            }
        }
    }

    /// The resume table: every strategy, cancelled at every budget
    /// epoch on either kernel, resumed on either kernel.
    #[test]
    fn resume_is_bit_identical_at_every_cancellation_epoch() {
        let g = weighted_grid();
        let (prep, split) = prepared(&g, 0.5);
        let lh = split.on(&prep);
        let pool = ThreadPool::with_threads(2).unwrap();
        let mut ws = SteppingWorkspace::default();
        for strategy in [
            SteppingStrategy::Classic,
            SteppingStrategy::Rho(4),
            SteppingStrategy::DeltaStar(2.0),
        ] {
            let mut counting = RunBudget::unlimited();
            let (full, _) =
                stepping_loop(lh, 0, 0.5, strategy, None, None, &mut counting, &mut ws, None)
                    .unwrap();
            let total_epochs = counting.ticks();
            assert!(total_epochs > 2, "{strategy}: want multiple epochs");
            for cut_on in [None, Some(&pool)] {
                for k in 0..total_epochs {
                    let err = stepping_loop(
                        lh,
                        0,
                        0.5,
                        strategy,
                        cut_on,
                        None,
                        &mut RunBudget::unlimited().cancel_after(k),
                        &mut ws,
                        None,
                    )
                    .unwrap_err();
                    let cp = err.into_checkpoint().expect("cancellation carries a checkpoint");
                    assert_eq!(cp.implementation, "stepping");
                    assert_eq!(cp.stepping.map(|st| st.strategy), Some(strategy));
                    cp.validate(g.num_vertices()).unwrap();
                    // Certified distances match the full run exactly.
                    for (v, d) in cp.settled_distances() {
                        assert_eq!(d.to_bits(), full.dist[v].to_bits(), "{strategy} epoch {k}");
                    }
                    for resume_on in [None, Some(&pool)] {
                        let (resumed, _) = stepping_resume_with(
                            lh,
                            &cp,
                            resume_on,
                            None,
                            &mut RunBudget::unlimited(),
                            &mut ws,
                        )
                        .unwrap();
                        let label = format!(
                            "{strategy} cancelled at epoch {k} (pooled={}), resumed pooled={}",
                            cut_on.is_some(),
                            resume_on.is_some()
                        );
                        assert_eq!(
                            resumed.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                            full.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                            "{label}"
                        );
                        assert_eq!(resumed.stats, full.stats, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn trailerless_checkpoints_resume_as_classic_from_their_bucket() {
        // What an older binary's classic loops (and `parallel` today)
        // write: the bucket index, no stepping section. Δ = 0.3 so the
        // bucket edges are not exact products.
        let g = weighted_grid();
        let (prep, split) = prepared(&g, 0.3);
        let lh = split.on(&prep);
        let mut ws = SteppingWorkspace::default();
        let classic = SteppingStrategy::Classic;
        let mut counting = RunBudget::unlimited();
        let (full, _) =
            stepping_loop(lh, 0, 0.3, classic, None, None, &mut counting, &mut ws, None).unwrap();
        for k in 0..counting.ticks() {
            let err = stepping_loop(
                lh,
                0,
                0.3,
                classic,
                None,
                None,
                &mut RunBudget::unlimited().cancel_after(k),
                &mut ws,
                None,
            )
            .unwrap_err();
            let mut cp = err.into_checkpoint().unwrap();
            cp.implementation = "fused";
            cp.stepping = None;
            // Those loops record the bucket being drained; this one
            // labels a mid-range stop with the bucket of its bound, which
            // may be an empty bucket the extraction skipped.
            if let Some(&v) = cp.frontier.first() {
                cp.bucket = bucket_of(cp.dist[v], 0.3);
            }
            let (resumed, _) =
                stepping_resume_with(lh, &cp, None, None, &mut RunBudget::unlimited(), &mut ws)
                    .unwrap();
            assert_eq!(resumed.dist, full.dist, "epoch {k}");
            assert_eq!(resumed.stats, full.stats, "epoch {k}");
        }
    }

    #[test]
    fn resume_rejects_corrupt_and_foreign_checkpoints() {
        let g = CsrGraph::from_edge_list(&path(8)).unwrap();
        let (prep, split) = prepared(&g, 1.0);
        let lh = split.on(&prep);
        let err = stepping_checked(
            &g,
            0,
            1.0,
            SteppingStrategy::Classic,
            None,
            &mut RunBudget::with_limit(2),
        )
        .unwrap_err();
        let cp = err.into_checkpoint().unwrap();
        let mut ws = SteppingWorkspace::default();
        let mut foreign = cp.clone();
        foreign.resumable = false;
        assert!(matches!(
            stepping_resume_with(lh, &foreign, None, None, &mut RunBudget::unlimited(), &mut ws),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
        let other = CsrGraph::from_edge_list(&path(4)).unwrap();
        let (other_prep, other_split) = prepared(&other, 1.0);
        let other_lh = other_split.on(&other_prep);
        assert!(matches!(
            stepping_resume_with(other_lh, &cp, None, None, &mut RunBudget::unlimited(), &mut ws),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn handles_unreachable_and_zero_weight_edges() {
        let mut el = EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0), (2, 3, 5.0)]);
        el.ensure_vertices(5); // vertex 4 unreachable
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let dj = dijkstra(&g, 0);
        for strategy in [SteppingStrategy::Rho(2), SteppingStrategy::DeltaStar(2.0)] {
            let r = delta_stepping_strategy(&g, 0, 1.0, strategy, None);
            assert_eq!(r.dist, dj.dist, "{strategy}");
        }
    }

    #[test]
    fn watchdog_still_guards_malformed_input() {
        // Negative-weight cycle: the frontier refills forever without the
        // budget guard.
        let cyc = CsrGraph::from_raw_parts_unchecked(
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![0.5, -1.0],
        );
        let (prep, split) = prepared(&cyc, 1.0);
        let mut ws = SteppingWorkspace::default();
        assert!(matches!(
            stepping_loop(
                split.on(&prep),
                0,
                1.0,
                SteppingStrategy::Rho(4),
                None,
                None,
                &mut RunBudget::with_limit(1000),
                &mut ws
            , None),
            Err(SsspError::IterationLimitExceeded { .. })
        ));
    }

    /// `edges_scanned` counts edges read. A thin grid only ever pushes,
    /// so it reads every light edge it offers; a unit-weight rmat pulls
    /// its dense epochs, whose rows stop at the first frontier parent,
    /// so it reads fewer edges than the candidates `relaxations` counts.
    #[test]
    fn edges_scanned_counts_every_push_and_the_pull_cut() {
        let grid = CsrGraph::from_edge_list(&grid2d(4, 256)).unwrap();
        let (r, profile) = stepping_checked(
            &grid,
            0,
            1.0,
            SteppingStrategy::Classic,
            None,
            &mut RunBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(profile.edges_scanned, r.stats.relaxations);

        let el = graphdata::gen::rmat(graphdata::gen::RmatParams::graph500(10, 8), 3);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let source = (0..g.num_vertices()).max_by_key(|&v| g.out_degree(v)).unwrap();
        let (r, profile) = stepping_checked(
            &g,
            source,
            1.0,
            SteppingStrategy::Classic,
            None,
            &mut RunBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(r.dist, dijkstra(&g, source).dist);
        assert!(profile.edges_scanned > 0);
        assert!(
            profile.edges_scanned < r.stats.relaxations,
            "read {} edges for {} relaxations",
            profile.edges_scanned,
            r.stats.relaxations
        );
    }
}
