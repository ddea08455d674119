//! The paper's **OpenMP-task parallel scheme** (Sec. VI-C) and its Fig. 4
//! thread-scaling model: one bucket loop whose phases are segments of
//! independent tasks, decomposed per [`TaskScheme`]:
//!
//! * [`TaskScheme::PaperTasks`] — Sec. VI-C verbatim: the creation of the
//!   light and heavy edge structures "are independent and were each made
//!   into a task" — two coarse tasks, each a full scan of the adjacency,
//!   so this phase never scales past two threads (the bottleneck the
//!   paper measures); "the computation and filtering of vectors was
//!   performed by splitting the vector into evenly-sized tasks" — the
//!   bucket scan and the request bookkeeping are chunked; the relaxation
//!   products stay serial, as in the paper ("parallelizing within the
//!   matrix-vector operations … would improve performance and
//!   scalability" is future work there, and is implemented by the pooled
//!   kernels of [`crate::stepping`]).
//! * [`TaskScheme::Improved`] — the paper's proposed fix: the filter is a
//!   single pass chunked by rows, and the relaxation is chunked over the
//!   frontier by edge count.
//!
//! How a segment runs is the loop's one parameter (`Segments`): on a
//! pool ([`delta_stepping_parallel`]: one chunk per worker once a segment
//! reaches its grain, outputs merged in chunk order after the barrier),
//! or one chunk after another, each timed with its merge into a
//! [`ScheduleTrace`] ([`delta_stepping_simulated`]: grain-sized chunks,
//! which [`super::schedule`] replays on `T` simulated workers). The recorded run
//! is how Fig. 4 is read on a machine with fewer cores than the figure
//! has threads; what it ignores is memory-bandwidth contention between
//! concurrent tasks — see EXPERIMENTS.md.
//!
//! Either way the run is the fused algorithm (Sec. VI-B): `S` is a set,
//! as the paper's `s = s ∨ t_B` makes it, so the heavy pass relaxes each
//! settled vertex once per bucket, and distances and [`SsspStats`] are
//! bit-identical to [`crate::fused::delta_stepping_fused`].
//!
//! [`SsspStats`]: crate::stats::SsspStats

use std::ops::Range;
use std::time::Instant;

use graphdata::CsrGraph;
use taskpool::{scope_collect, split_evenly, ThreadPool};

use super::schedule::ScheduleTrace;
use crate::delta::bucket_of;
use crate::fused::LightHeavy;
use crate::reqbuf::effective_threshold;
use crate::result::SsspResult;
use crate::INF;

/// Which task decomposition a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskScheme {
    /// Sec. VI-C: 2 filter tasks, chunked vector ops, serial relaxation.
    PaperTasks,
    /// Fine-grained filter chunks + chunked relaxation.
    Improved,
}

/// Elements per vector-operation task (bucket scans, bookkeeping).
const VECTOR_GRAIN: usize = 2048;
/// Rows per filter task (improved scheme).
const ROW_GRAIN: usize = 512;
/// Edges per relaxation task (improved scheme).
const EDGE_GRAIN: usize = 4096;

/// Delta-stepping with the paper's task-parallel scheme on `pool`.
/// Distances and stats equal the sequential fused implementation's. A
/// worker panic propagates to the caller.
pub fn delta_stepping_parallel(
    pool: &ThreadPool,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    let mut pool = pool;
    bucket_loop(&mut pool, TaskScheme::PaperTasks, g, source, delta)
}

/// Run delta-stepping one task after another, recording `scheme`'s task
/// structure. Distances and stats equal
/// [`crate::fused::delta_stepping_fused`]'s.
pub fn delta_stepping_simulated(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    scheme: TaskScheme,
) -> (SsspResult, ScheduleTrace) {
    let mut trace = ScheduleTrace::new();
    let result = bucket_loop(&mut trace, scheme, g, source, delta);
    (result, trace)
}

/// How the loop runs a segment: the one thing a pooled run and a
/// recorded run do differently.
trait Segments {
    /// `0..len` cut into this runner's chunks of about `grain` elements.
    fn chunks(&self, len: usize, grain: usize) -> Vec<Range<usize>>;

    /// Run `work` on every input as independent tasks, then `merge` each
    /// output into `state` in input order.
    fn run_tasks<S: Sync, I: Send, T: Send>(
        &mut self,
        state: &mut S,
        inputs: Vec<I>,
        work: impl Fn(&S, I) -> T + Sync,
        merge: impl FnMut(&mut S, T),
    );

    /// Run `f` while no other task runs.
    fn run_serial<R>(&mut self, f: impl FnOnce() -> R) -> R;
}

impl Segments for &ThreadPool {
    /// One chunk per worker once the segment reaches `grain` elements
    /// (at any size on a test session's pool, see `effective_threshold`),
    /// else one chunk, which runs inline.
    fn chunks(&self, len: usize, grain: usize) -> Vec<Range<usize>> {
        let workers = if len >= effective_threshold(self, grain) { self.num_threads() } else { 1 };
        split_evenly(0..len, workers)
    }

    fn run_tasks<S: Sync, I: Send, T: Send>(
        &mut self,
        state: &mut S,
        inputs: Vec<I>,
        work: impl Fn(&S, I) -> T + Sync,
        mut merge: impl FnMut(&mut S, T),
    ) {
        let shared = &*state;
        let outputs = scope_collect(self, inputs, |_, input| work(shared, input));
        for output in outputs {
            merge(state, output);
        }
    }

    fn run_serial<R>(&mut self, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Segments for ScheduleTrace {
    fn chunks(&self, len: usize, grain: usize) -> Vec<Range<usize>> {
        (0..len).step_by(grain).map(|lo| lo..(lo + grain).min(len)).collect()
    }

    fn run_tasks<S: Sync, I: Send, T: Send>(
        &mut self,
        state: &mut S,
        inputs: Vec<I>,
        work: impl Fn(&S, I) -> T + Sync,
        mut merge: impl FnMut(&mut S, T),
    ) {
        let durations = inputs
            .into_iter()
            .map(|input| {
                let t0 = Instant::now();
                let output = work(state, input);
                merge(state, output);
                t0.elapsed()
            })
            .collect();
        self.parallel(durations);
    }

    fn run_serial<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.serial(t0.elapsed());
        r
    }
}

/// The loop's dense vectors: tentative distances `t`, and the request
/// accumulator `req` (`∞` outside `touched`) with its touched list in
/// first-touch order.
struct Vectors {
    t: Vec<f64>,
    req: Vec<f64>,
    touched: Vec<usize>,
}

fn bucket_loop<R: Segments>(
    run: &mut R,
    scheme: TaskScheme,
    g: &CsrGraph,
    source: usize,
    delta: f64,
) -> SsspResult {
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive and finite");
    let n = g.num_vertices();
    assert!(source < n, "source out of bounds");
    let mut result = SsspResult::init(n, source);
    let stats = &mut result.stats;

    // Matrix filtering: the two sides as two tasks, or rows in chunks.
    let filters = match scheme {
        TaskScheme::PaperTasks => vec![(0..n, true, false), (0..n, false, true)],
        TaskScheme::Improved => {
            run.chunks(n, ROW_GRAIN).into_iter().map(|rows| (rows, true, true)).collect()
        }
    };
    let mut lh = LightHeavy::filter(g, delta, 0..0, true, true);
    run.run_tasks(
        &mut lh,
        filters,
        |_, (rows, light, heavy)| LightHeavy::filter(g, delta, rows, light, heavy),
        LightHeavy::append,
    );

    let mut v = Vectors {
        t: std::mem::take(&mut result.dist),
        req: vec![INF; n],
        touched: Vec::new(),
    };
    let mut frontier: Vec<usize> = Vec::new();
    let mut settled: Vec<usize> = Vec::new();
    let mut in_settled = vec![false; n];

    let mut i = 0usize;
    loop {
        // Bucket detection: each chunk's members of bucket `i`, in vertex
        // order, and the smallest later bucket it saw.
        frontier.clear();
        let mut next = usize::MAX;
        let chunks = run.chunks(n, VECTOR_GRAIN);
        run.run_tasks(
            &mut v,
            chunks,
            |v, range| {
                let mut members = Vec::new();
                let mut later = usize::MAX;
                for u in range {
                    #[cfg(feature = "racecheck")]
                    racecheck::plain_read("sssp.dist", &v.t[u] as *const f64);
                    let b = bucket_of(v.t[u], delta);
                    if b == i {
                        members.push(u);
                    } else if b > i && b < later {
                        later = b;
                    }
                }
                (members, later)
            },
            |_, (members, later)| {
                frontier.extend_from_slice(&members);
                next = next.min(later);
            },
        );
        if frontier.is_empty() {
            if next == usize::MAX {
                break;
            }
            i = next;
            continue;
        }
        stats.buckets_processed += 1;

        while !frontier.is_empty() {
            stats.light_phases += 1;
            relax(run, scheme, &lh, &mut v, &frontier, true, &mut stats.relaxations);
            for &u in &frontier {
                if !in_settled[u] {
                    in_settled[u] = true;
                    settled.push(u);
                }
            }
            frontier.clear();
            drain(run, &mut v, delta, Some(i), &mut frontier, &mut stats.improvements);
        }

        stats.heavy_phases += 1;
        relax(run, scheme, &lh, &mut v, &settled, false, &mut stats.relaxations);
        for &u in &settled {
            in_settled[u] = false;
        }
        settled.clear();
        drain(run, &mut v, delta, None, &mut frontier, &mut stats.improvements);

        i += 1;
    }
    result.dist = v.t;
    result
}

/// Offer `t[v] + w` for every edge `row(v)` lists of each of `verts` to
/// `emit`, returning the number of edges relaxed.
fn scatter<'a>(
    row: impl Fn(usize) -> (&'a [usize], &'a [f64]),
    t: &[f64],
    verts: &[usize],
    mut emit: impl FnMut(usize, f64),
) -> u64 {
    let mut relaxed = 0u64;
    for &v in verts {
        let (targets, weights) = row(v);
        for (&u, &w) in targets.iter().zip(weights.iter()) {
            emit(u, t[v] + w);
        }
        relaxed += targets.len() as u64;
    }
    relaxed
}

/// Min-combine one candidate into the request accumulator.
fn offer(req: &mut [f64], touched: &mut Vec<usize>, u: usize, cand: f64) {
    if req[u] == INF {
        touched.push(u);
        req[u] = cand;
    } else if cand < req[u] {
        req[u] = cand;
    }
}

/// One relaxation phase of `verts`' light or heavy edges into the request
/// accumulator: serial (paper), or chunked by edge count with each task's
/// requests merged in chunk order (improved).
fn relax<R: Segments>(
    run: &mut R,
    scheme: TaskScheme,
    lh: &LightHeavy,
    v: &mut Vectors,
    verts: &[usize],
    light: bool,
    relaxations: &mut u64,
) {
    let row = |u: usize| if light { lh.light(u) } else { lh.heavy(u) };
    match scheme {
        TaskScheme::PaperTasks => {
            let Vectors { t, req, touched } = v;
            *relaxations +=
                run.run_serial(|| scatter(row, t, verts, |u, cand| offer(req, touched, u, cand)));
        }
        TaskScheme::Improved => {
            let mut chunks = Vec::new();
            let mut start = 0usize;
            while start < verts.len() {
                let mut end = start;
                let mut edges = 0usize;
                while end < verts.len() && edges < EDGE_GRAIN {
                    edges += row(verts[end]).0.len();
                    end += 1;
                }
                chunks.push((start..end, edges));
                start = end;
            }
            run.run_tasks(
                v,
                chunks,
                |v, (range, edges)| {
                    let mut requests = Vec::with_capacity(edges);
                    scatter(row, &v.t, &verts[range], |u, cand| requests.push((u, cand)));
                    (requests, edges as u64)
                },
                |v, (requests, relaxed)| {
                    for (u, cand) in requests {
                        offer(&mut v.req, &mut v.touched, u, cand);
                    }
                    *relaxations += relaxed;
                },
            );
        }
    }
}

/// Fold the requests into `t` (`t = min(t, t_Req)`) as chunked tasks over
/// the touched list, resetting the accumulator. With `refill = Some(i)`,
/// improvements landing in bucket `i` form the next frontier.
fn drain<R: Segments>(
    run: &mut R,
    v: &mut Vectors,
    delta: f64,
    refill: Option<usize>,
    frontier: &mut Vec<usize>,
    improvements: &mut u64,
) {
    let chunks = run.chunks(v.touched.len(), VECTOR_GRAIN);
    run.run_tasks(
        v,
        chunks,
        |v, range| {
            let better: Vec<(usize, f64)> = v.touched[range.clone()]
                .iter()
                .filter(|&&u| {
                    #[cfg(feature = "racecheck")]
                    racecheck::plain_read("sssp.dist", &v.t[u] as *const f64);
                    v.req[u] < v.t[u]
                })
                .map(|&u| (u, v.req[u]))
                .collect();
            (range, better)
        },
        |v, (range, better)| {
            for &u in &v.touched[range] {
                v.req[u] = INF;
            }
            for (u, cand) in better {
                *improvements += 1;
                #[cfg(feature = "racecheck")]
                racecheck::plain_write("sssp.dist", &v.t[u] as *const f64);
                v.t[u] = cand;
                if refill == Some(bucket_of(cand, delta)) {
                    frontier.push(u);
                }
            }
        },
    );
    v.touched.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::fused::delta_stepping_fused;
    use graphdata::gen::grid2d;
    use graphdata::{gen, EdgeList};

    fn test_graph() -> CsrGraph {
        let mut el = gen::rmat(gen::RmatParams::graph500(10, 8), 33);
        el.symmetrize();
        el.make_unit_weight();
        CsrGraph::from_edge_list(&el).unwrap()
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(8, 8)).unwrap();
        let dj = dijkstra(&g, 0);
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        assert_eq!(pr.dist, dj.dist);
    }

    /// Pooled and recorded, both schemes: distances and every counter
    /// equal fused's — on unit weights, and on real weights whose heavy
    /// edges make the heavy pass relax the settled set rather than every
    /// re-entry of a vertex.
    #[test]
    fn matches_fused_exactly_including_stats() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let mut unit = gen::gnm(300, 1500, 77);
        unit.symmetrize();
        unit.make_unit_weight();
        let mut weighted = gen::gnm(500, 3000, 9);
        weighted.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut weighted,
            graphdata::WeightModel::UniformFloat { lo: 0.1, hi: 2.5 },
            4,
        );
        for (el, source, deltas) in [(unit, 5, vec![1.0]), (weighted, 0, vec![0.3, 0.75, 1.0])] {
            let g = CsrGraph::from_edge_list(&el).unwrap();
            for delta in deltas {
                let fu = delta_stepping_fused(&g, source, delta);
                let pr = delta_stepping_parallel(&pool, &g, source, delta);
                assert_eq!(fu.dist, pr.dist, "delta {delta}");
                assert_eq!(fu.stats, pr.stats, "delta {delta}");
                for scheme in [TaskScheme::PaperTasks, TaskScheme::Improved] {
                    let (r, trace) = delta_stepping_simulated(&g, source, delta, scheme);
                    assert_eq!(r.dist, fu.dist, "{scheme:?} delta {delta}");
                    assert_eq!(r.stats, fu.stats, "{scheme:?} delta {delta}");
                    assert!(trace.total_work() >= trace.critical_path());
                }
            }
        }
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::with_threads(1).unwrap();
        let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        let dj = dijkstra(&g, 0);
        assert_eq!(pr.dist, dj.dist);
    }

    #[test]
    fn weighted_heavy_graph() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let el = EdgeList::from_triples(vec![
            (0, 1, 0.3),
            (1, 2, 4.0),
            (0, 2, 5.0),
            (2, 3, 0.3),
            (3, 4, 7.0),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let pr = delta_stepping_parallel(&pool, &g, 0, 1.0);
        let dj = dijkstra(&g, 0);
        assert_eq!(pr.dist, dj.dist);
    }

    #[test]
    fn paper_filter_caps_at_two_workers() {
        let g = test_graph();
        let (_, trace) = delta_stepping_simulated(&g, 0, 1.0, TaskScheme::PaperTasks);
        // Two-task filter: makespan stops improving between 2 and many
        // workers only if the rest saturates too; at minimum the trace
        // must be valid and monotone in workers.
        let m1 = trace.makespan(1);
        let m2 = trace.makespan(2);
        let m4 = trace.makespan(4);
        let m8 = trace.makespan(8);
        assert!(m1 >= m2 && m2 >= m4 && m4 >= m8, "{m1:?} {m2:?} {m4:?} {m8:?}");
        assert!(trace.critical_path() <= m8);
    }

    #[test]
    fn improved_scales_at_least_as_well_as_paper_scheme() {
        let g = test_graph();
        // The trace records wall-clock task durations, and this test
        // shares its process with a parallel test runner: alternate the
        // two schemes, so both sample the same load, and keep each one's
        // best run, so a preempted run is not read as the scheme's cost.
        let at_4 =
            |scheme| delta_stepping_simulated(&g, 0, 1.0, scheme).1.makespan(4).as_secs_f64();
        let (mut p4, mut i4) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..9 {
            p4 = p4.min(at_4(TaskScheme::PaperTasks));
            i4 = i4.min(at_4(TaskScheme::Improved));
        }
        // At 4 workers the fine-grained decomposition must not be
        // meaningfully worse (allow 15% timing noise).
        assert!(
            i4 <= p4 * 1.15,
            "improved ({i4:.6}s) much worse than paper scheme ({p4:.6}s) at 4 workers"
        );
    }
}
