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
//! On a real multi-core machine, [`run_wallclock`] (`figures fig4
//! --wallclock`) measures the actual threaded implementations instead.

use graphdata::suite::Dataset;
use sssp_core::fused;
use sssp_core::repro::parallel::{self, delta_stepping_simulated, TaskScheme};
use sssp_core::stepping::{delta_stepping_strategy, SteppingStrategy};
use taskpool::ThreadPool;

use super::{geomean, Figure, Session, Suite};
use crate::bench_source;
use crate::measure::{measure_min, Reps};
use crate::report::{count, real, text, Cell};

/// The worker counts FIG4 reports.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

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

impl Fig4Row {
    /// FIG4's columns: one paper-scheme and one improved speedup per
    /// thread count.
    pub fn columns(&self) -> Vec<Cell> {
        let mut columns = vec![
            text("graph", &self.name),
            count("nv", self.nv as u64),
            real("seq_ms", self.sequential_ms, 3),
        ];
        let series = [("par", &self.parallel_speedup), ("impr", &self.improved_speedup)];
        for (name, speedups) in series {
            for (t, x) in self.threads.iter().zip(speedups) {
                columns.push(real(&format!("{name}_x{t}"), *x, 2));
            }
        }
        columns
    }
}

/// Run FIG4 with the schedule simulation (primary mode; single-core safe).
pub fn run(suite: &[Dataset], threads: &[usize], reps: Reps) -> Vec<Fig4Row> {
    let delta = 1.0;
    suite
        .iter()
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
                name: d.name.clone(),
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
pub fn run_wallclock(suite: &[Dataset], threads: &[usize], reps: Reps) -> Vec<Fig4Row> {
    let delta = 1.0;
    let pools: Vec<ThreadPool> = threads
        .iter()
        .map(|&t| ThreadPool::with_threads(t).expect("pool"))
        .collect();
    suite
        .iter()
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
                name: d.name.clone(),
                nv: g.num_vertices(),
                sequential_ms: seq_t.as_secs_f64() * 1e3,
                threads: threads.to_vec(),
                parallel_speedup,
                improved_speedup,
            }
        })
        .collect()
}

/// The FIG4 table (simulated, or wall-clock under `--wallclock`) and
/// the geomean at each thread count.
pub fn figure(session: &mut Session) -> Figure {
    let (reps, wallclock) = (session.reps, session.wallclock);
    let suite = session.suite(Suite::Paper);
    let rows =
        if wallclock { run_wallclock(suite, &THREADS, reps) } else { run(suite, &THREADS, reps) };
    let average = |k: usize, series: fn(&Fig4Row) -> &[f64]| {
        geomean(&rows.iter().map(|r| series(r)[k]).collect::<Vec<_>>())
    };
    let mut headline = vec![if wallclock {
        "mode: wall-clock (real threaded implementations)".to_string()
    } else {
        "mode: task-schedule simulation (LPT makespan of the recorded task graph)".to_string()
    }];
    for (k, t) in THREADS.iter().enumerate() {
        headline.push(format!(
            "geomean at {t} thread(s): paper-scheme {:.2}x, improved {:.2}x",
            average(k, |r| &r.parallel_speedup),
            average(k, |r| &r.improved_speedup)
        ));
    }
    Figure { rows: rows.iter().map(Fig4Row::columns).collect(), headline }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{paper_suite, SuiteScale};

    #[test]
    fn smoke_run_is_consistent() {
        let rows = run(&paper_suite(SuiteScale::Smoke), &[1, 2, 4], Reps { warmup: 0, samples: 1 });
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
        let names: Vec<String> = rows[0].columns().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names[3..], ["par_x1", "par_x2", "par_x4", "impr_x1", "impr_x2", "impr_x4"]);
    }

    #[test]
    fn wallclock_mode_runs() {
        let rows =
            run_wallclock(&paper_suite(SuiteScale::Smoke), &[1, 2], Reps { warmup: 0, samples: 1 });
        assert_eq!(rows.len(), 4);
        for r in &rows {
            for &s in r.parallel_speedup.iter().chain(r.improved_speedup.iter()) {
                assert!(s.is_finite() && s > 0.0);
            }
        }
    }
}
