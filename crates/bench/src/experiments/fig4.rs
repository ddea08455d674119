//! FIG4 — "Performance of the Δ-stepping C implementation on 2 and 4
//! threads, normalized to sequential performance" (paper averages: 1.44×
//! at 2 threads, 1.5× at 4).
//!
//! **Measurement model.** The reproduction environment exposes a single
//! CPU core, so thread speedup cannot appear as wall-clock time. The
//! primary numbers therefore come from the task-schedule simulation
//! ([`sssp_core::repro::parallel::delta_stepping_simulated`]): the run
//! executes the same loop one task after another, records every task's
//! duration and the barrier structure,
//! and the makespan on `T` workers is computed with an LPT scheduler.
//! Two series per graph:
//!
//! * `paper scheme` — Sec. VI-C: two coarse matrix-filter tasks +
//!   evenly-sized vector chunk tasks, serial relaxation;
//! * `improved` — the paper's proposed fix (ABL-PARIMPROVED):
//!   fine-grained filtering + chunked relaxation.
//!
//! On a real multi-core machine, [`run_wallclock`] measures the actual
//! threaded implementations instead (also used by the Criterion bench).

use graphdata::{paper_suite, SuiteScale};
use sssp_core::fused;
use sssp_core::repro::parallel::{self, delta_stepping_simulated, TaskScheme};
use sssp_core::stepping::{delta_stepping_strategy, SteppingStrategy};
use taskpool::ThreadPool;

use crate::experiments::geomean;
use crate::measure::{measure_min, Reps};
use crate::report::{Json, ToJson};
use crate::bench_source;

/// One graph's scaling measurements.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Dataset name.
    pub name: String,
    /// Vertex count.
    pub nv: usize,
    /// Fused sequential baseline, milliseconds.
    pub sequential_ms: f64,
    /// Thread counts measured.
    pub threads: Vec<usize>,
    /// Paper-scheme speedups over the sequential baseline, per thread
    /// count.
    pub parallel_speedup: Vec<f64>,
    /// Improved-scheme speedups, per thread count.
    pub improved_speedup: Vec<f64>,
}

impl ToJson for Fig4Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nv", self.nv.to_json()),
            ("sequential_ms", self.sequential_ms.to_json()),
            ("threads", self.threads.to_json()),
            ("parallel_speedup", self.parallel_speedup.to_json()),
            ("improved_speedup", self.improved_speedup.to_json()),
        ])
    }
}

/// Run FIG4 with the schedule simulation (primary mode; single-core safe).
pub fn run(scale: SuiteScale, threads: &[usize], reps: Reps) -> Vec<Fig4Row> {
    let delta = 1.0;
    paper_suite(scale)
        .into_iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let baseline = fused::delta_stepping_fused(g, src, delta);
            let seq_t = measure_min(
                || {
                    std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
                },
                reps,
            );

            // Record one trace per scheme per sample; keep the trace with
            // the least total work (least timer noise).
            let best_trace = |scheme: TaskScheme| {
                let mut best: Option<sssp_core::repro::schedule::ScheduleTrace> = None;
                for _ in 0..reps.samples.max(1) {
                    let (r, trace) = delta_stepping_simulated(g, src, delta, scheme);
                    assert_eq!(r.dist, baseline.dist, "{}: simulation disagrees", d.name);
                    let better = best
                        .as_ref()
                        .is_none_or(|b| trace.total_work() < b.total_work());
                    if better {
                        best = Some(trace);
                    }
                }
                best.expect("samples >= 1")
            };
            let trace_paper = best_trace(TaskScheme::PaperTasks);
            let trace_improved = best_trace(TaskScheme::Improved);

            let parallel_speedup = threads
                .iter()
                .map(|&t| trace_paper.speedup_vs(seq_t, t))
                .collect();
            let improved_speedup = threads
                .iter()
                .map(|&t| trace_improved.speedup_vs(seq_t, t))
                .collect();
            Fig4Row {
                name: d.name,
                nv: g.num_vertices(),
                sequential_ms: seq_t.as_secs_f64() * 1e3,
                threads: threads.to_vec(),
                parallel_speedup,
                improved_speedup,
            }
        })
        .collect()
}

/// Wall-clock variant: measure the real threaded implementations. Only
/// meaningful on a machine with multiple cores.
pub fn run_wallclock(scale: SuiteScale, threads: &[usize], reps: Reps) -> Vec<Fig4Row> {
    let delta = 1.0;
    let pools: Vec<ThreadPool> = threads
        .iter()
        .map(|&t| ThreadPool::with_threads(t).expect("pool"))
        .collect();
    paper_suite(scale)
        .into_iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let baseline = fused::delta_stepping_fused(g, src, delta);
            let seq_t = measure_min(
                || {
                    std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
                },
                reps,
            );
            let mut parallel_speedup = Vec::with_capacity(threads.len());
            let mut improved_speedup = Vec::with_capacity(threads.len());
            for pool in &pools {
                let pr = parallel::delta_stepping_parallel(pool, g, src, delta);
                assert_eq!(pr.dist, baseline.dist, "{}: parallel disagrees", d.name);
                let improved =
                    || delta_stepping_strategy(g, src, delta, SteppingStrategy::Classic, Some(pool));
                let pi = improved();
                assert_eq!(pi.dist, baseline.dist, "{}: improved disagrees", d.name);

                let pt = measure_min(
                    || {
                        std::hint::black_box(parallel::delta_stepping_parallel(
                            pool, g, src, delta,
                        ));
                    },
                    reps,
                );
                parallel_speedup.push(seq_t.as_secs_f64() / pt.as_secs_f64());
                let it = measure_min(
                    || {
                        std::hint::black_box(improved());
                    },
                    reps,
                );
                improved_speedup.push(seq_t.as_secs_f64() / it.as_secs_f64());
            }
            Fig4Row {
                name: d.name,
                nv: g.num_vertices(),
                sequential_ms: seq_t.as_secs_f64() * 1e3,
                threads: threads.to_vec(),
                parallel_speedup,
                improved_speedup,
            }
        })
        .collect()
}

/// Geometric-mean speedup across graphs for thread index `k` of the paper
/// scheme (the 1.44× / 1.5× numbers).
pub fn average_parallel_speedup(rows: &[Fig4Row], k: usize) -> f64 {
    geomean(&rows.iter().map(|r| r.parallel_speedup[k]).collect::<Vec<_>>())
}

/// Same for the improved scheme.
pub fn average_improved_speedup(rows: &[Fig4Row], k: usize) -> f64 {
    geomean(&rows.iter().map(|r| r.improved_speedup[k]).collect::<Vec<_>>())
}

/// Table rows for printing/CSV.
pub fn to_table(rows: &[Fig4Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            let mut row = vec![r.name.clone(), r.nv.to_string(), format!("{:.3}", r.sequential_ms)];
            for k in 0..r.threads.len() {
                row.push(format!("{:.2}", r.parallel_speedup[k]));
            }
            for k in 0..r.threads.len() {
                row.push(format!("{:.2}", r.improved_speedup[k]));
            }
            row
        })
        .collect()
}

/// Build the header matching [`to_table`] for the given thread counts.
pub fn header(threads: &[usize]) -> Vec<String> {
    let mut h = vec!["graph".to_string(), "|V|".to_string(), "seq_ms".to_string()];
    for &t in threads {
        h.push(format!("par x{t}"));
    }
    for &t in threads {
        h.push(format!("impr x{t}"));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_consistent() {
        let rows = run(
            SuiteScale::Smoke,
            &[1, 2, 4],
            Reps { warmup: 0, samples: 1 },
        );
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r.parallel_speedup.len(), 3);
            assert_eq!(r.improved_speedup.len(), 3);
            for &s in r.parallel_speedup.iter().chain(r.improved_speedup.iter()) {
                assert!(s.is_finite() && s > 0.0);
            }
            // Simulated speedup is monotone in workers.
            for w in r.parallel_speedup.windows(2) {
                assert!(w[1] >= w[0] * 0.999, "{}: {:?}", r.name, r.parallel_speedup);
            }
        }
        let h = header(&[1, 2, 4]);
        assert_eq!(to_table(&rows)[0].len(), h.len());
    }

    #[test]
    fn wallclock_mode_runs() {
        let rows = run_wallclock(
            SuiteScale::Smoke,
            &[1, 2],
            Reps { warmup: 0, samples: 1 },
        );
        assert_eq!(rows.len(), 4);
        for r in &rows {
            for &s in r.parallel_speedup.iter().chain(r.improved_speedup.iter()) {
                assert!(s.is_finite() && s > 0.0);
            }
        }
    }
}
