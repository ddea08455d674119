//! Property tests for the task-schedule simulator: the classic list-
//! scheduling bounds must hold for every random trace, and simulated
//! delta-stepping must stay equivalent to the fused implementation.

use std::time::Duration;

use proptest::prelude::*;
use sssp_core::repro::schedule::{lpt_makespan, ScheduleTrace, Segment};

fn arb_tasks() -> impl Strategy<Value = Vec<Duration>> {
    proptest::collection::vec((1u64..10_000).prop_map(Duration::from_micros), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lpt_respects_graham_bounds(tasks in arb_tasks(), workers in 1usize..9) {
        let makespan = lpt_makespan(&tasks, workers);
        let total: Duration = tasks.iter().sum();
        let max = *tasks.iter().max().unwrap();
        // Lower bounds: work / workers and the longest task.
        let avg = Duration::from_nanos((total.as_nanos() / workers as u128) as u64);
        prop_assert!(makespan >= avg, "{makespan:?} < {avg:?}");
        prop_assert!(makespan >= max);
        // Greedy upper bound: avg + max (implied by Graham's (2 - 1/m)).
        prop_assert!(makespan <= avg + max, "{makespan:?} > {avg:?} + {max:?}");
        // One worker executes everything.
        prop_assert_eq!(lpt_makespan(&tasks, 1), total);
    }

    #[test]
    fn makespan_is_monotone_in_workers(tasks in arb_tasks()) {
        let mut prev = lpt_makespan(&tasks, 1);
        for workers in 2..10 {
            let m = lpt_makespan(&tasks, workers);
            prop_assert!(m <= prev, "workers {workers}: {m:?} > {prev:?}");
            prev = m;
        }
    }

    #[test]
    fn trace_invariants(
        groups in proptest::collection::vec(arb_tasks(), 1..6),
        serials in proptest::collection::vec(1u64..5_000, 0..6),
        workers in 1usize..9,
    ) {
        let mut trace = ScheduleTrace::new();
        for (k, group) in groups.iter().enumerate() {
            if let Some(&s) = serials.get(k) {
                trace.serial(Duration::from_micros(s));
            }
            trace.parallel(group.clone());
        }
        let total = trace.total_work();
        let cp = trace.critical_path();
        let m = trace.makespan(workers);
        prop_assert!(cp <= m, "critical path {cp:?} > makespan {m:?}");
        prop_assert!(m <= total, "makespan {m:?} > total {total:?}");
        prop_assert_eq!(trace.makespan(1), total);
        // Infinite workers approach the critical path.
        prop_assert_eq!(trace.makespan(4096), cp);
    }

    #[test]
    fn segments_accumulate_consistently(tasks in arb_tasks()) {
        let mut trace = ScheduleTrace::new();
        trace.parallel(tasks.clone());
        let stored: Duration = trace
            .segments()
            .iter()
            .map(|s| match s {
                Segment::Serial(d) => *d,
                Segment::Parallel(v) => v.iter().sum(),
            })
            .sum();
        prop_assert_eq!(stored, tasks.iter().sum::<Duration>());
    }
}

#[test]
fn simulated_runs_match_fused_on_suite() {
    use graphdata::{paper_suite, SuiteScale};
    use sssp_core::repro::parallel::{delta_stepping_simulated, TaskScheme};

    for d in paper_suite(SuiteScale::Smoke) {
        let g = &d.graph;
        let fu = sssp_core::fused::delta_stepping_fused(g, 0, 1.0);
        for scheme in [TaskScheme::PaperTasks, TaskScheme::Improved] {
            let (r, trace) = delta_stepping_simulated(g, 0, 1.0, scheme);
            assert_eq!(r.dist, fu.dist, "{}", d.name);
            assert_eq!(r.stats, fu.stats, "{}", d.name);
            // The decomposition's work must cover a sane time span.
            assert!(trace.total_work() >= trace.critical_path());
            assert!(trace.makespan(2) <= trace.makespan(1));
        }
    }
}
