//! Task-schedule simulation: replay a recorded task decomposition on `T`
//! simulated workers.
//!
//! The reproduction environment has a single CPU core, so the thread
//! scaling of Fig. 4 cannot be observed as wall-clock time. Instead, the
//! Sec. VI-C loop ([`super::parallel::delta_stepping_simulated`]) runs the
//! *same* computation one task after another while recording the task
//! structure the threaded schemes create — serial segments and barrier-separated
//! groups of independent tasks with their measured durations — and this
//! module computes the makespan of that trace on any worker count with a
//! longest-processing-time (LPT) greedy list scheduler (the classic
//! 4/3-approximation, and an excellent model of OpenMP's greedy task
//! runtime for independent tasks).

use std::time::Duration;

/// One barrier-delimited piece of a run.
#[derive(Debug, Clone)]
pub enum Segment {
    /// Work that runs on one worker while the others wait.
    Serial(Duration),
    /// Independent tasks that may run concurrently; a barrier follows.
    Parallel(Vec<Duration>),
}

/// A recorded task decomposition.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTrace {
    segments: Vec<Segment>,
}

impl ScheduleTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ScheduleTrace::default()
    }

    /// Append a serial segment (merged with a preceding serial segment).
    pub fn serial(&mut self, d: Duration) {
        if let Some(Segment::Serial(last)) = self.segments.last_mut() {
            *last += d;
        } else {
            self.segments.push(Segment::Serial(d));
        }
    }

    /// Append a group of independent tasks followed by a barrier.
    /// An empty group is a no-op.
    pub fn parallel(&mut self, tasks: Vec<Duration>) {
        match tasks.len() {
            0 => {}
            1 => self.serial(tasks[0]),
            _ => self.segments.push(Segment::Parallel(tasks)),
        }
    }

    /// The recorded segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total work: the runtime on one worker.
    pub fn total_work(&self) -> Duration {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Serial(d) => *d,
                Segment::Parallel(tasks) => tasks.iter().sum(),
            })
            .sum()
    }

    /// Critical path: the runtime on infinitely many workers.
    pub fn critical_path(&self) -> Duration {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Serial(d) => *d,
                Segment::Parallel(tasks) => {
                    tasks.iter().copied().max().unwrap_or(Duration::ZERO)
                }
            })
            .sum()
    }

    /// Simulated runtime on `workers` workers: serial segments run alone;
    /// each parallel group is scheduled with LPT and contributes its
    /// maximum worker load.
    pub fn makespan(&self, workers: usize) -> Duration {
        assert!(workers >= 1, "at least one worker");
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Serial(d) => *d,
                Segment::Parallel(tasks) => lpt_makespan(tasks, workers),
            })
            .sum()
    }

    /// The elementwise minimum of two recordings of one run: each serial
    /// segment and each task at its faster time. Both must have the same
    /// shape, which a deterministic run's traces do. Interference only
    /// ever adds time, so folding repeated runs this way estimates the
    /// undisturbed trace task by task.
    #[cfg(test)]
    pub(crate) fn min_with(&self, other: &ScheduleTrace) -> ScheduleTrace {
        assert_eq!(self.segments.len(), other.segments.len(), "traces of one shape");
        let segments = self
            .segments
            .iter()
            .zip(&other.segments)
            .map(|pair| match pair {
                (Segment::Serial(a), Segment::Serial(b)) => Segment::Serial(*a.min(b)),
                (Segment::Parallel(a), Segment::Parallel(b)) if a.len() == b.len() => {
                    Segment::Parallel(a.iter().zip(b).map(|(x, y)| *x.min(y)).collect())
                }
                _ => panic!("traces of one shape"),
            })
            .collect();
        ScheduleTrace { segments }
    }

    /// Simulated speedup of this trace on `workers` workers relative to a
    /// sequential baseline.
    pub fn speedup_vs(&self, baseline: Duration, workers: usize) -> f64 {
        baseline.as_secs_f64() / self.makespan(workers).as_secs_f64()
    }
}

/// LPT list scheduling of independent `tasks` on `workers` machines:
/// sort descending, repeatedly assign to the least-loaded machine; return
/// the maximum load.
pub fn lpt_makespan(tasks: &[Duration], workers: usize) -> Duration {
    if tasks.is_empty() {
        return Duration::ZERO;
    }
    if workers == 1 {
        return tasks.iter().sum();
    }
    let mut sorted: Vec<Duration> = tasks.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    // Tiny binary heap over loads, kept as a sorted insert into a small
    // vec (worker counts are single digits here).
    let mut loads = vec![Duration::ZERO; workers.min(tasks.len())];
    for t in sorted {
        // least-loaded worker
        let (idx, _) = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .expect("non-empty loads");
        loads[idx] += t;
    }
    loads.into_iter().max().expect("non-empty loads")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn lpt_balances_equal_tasks() {
        let tasks = vec![ms(10); 4];
        assert_eq!(lpt_makespan(&tasks, 1), ms(40));
        assert_eq!(lpt_makespan(&tasks, 2), ms(20));
        assert_eq!(lpt_makespan(&tasks, 4), ms(10));
        assert_eq!(lpt_makespan(&tasks, 8), ms(10)); // can't beat one task
    }

    #[test]
    fn lpt_handles_skew() {
        // One dominant task bounds the makespan.
        let tasks = vec![ms(30), ms(5), ms(5), ms(5)];
        assert_eq!(lpt_makespan(&tasks, 2), ms(30));
        assert_eq!(lpt_makespan(&tasks, 4), ms(30));
    }

    #[test]
    fn lpt_empty() {
        assert_eq!(lpt_makespan(&[], 4), Duration::ZERO);
    }

    #[test]
    fn trace_accumulates_and_merges_serial() {
        let mut t = ScheduleTrace::new();
        t.serial(ms(2));
        t.serial(ms(3));
        t.parallel(vec![ms(10), ms(10)]);
        t.parallel(vec![]); // no-op
        t.parallel(vec![ms(4)]); // degenerates to serial
        assert_eq!(t.segments().len(), 3);
        assert_eq!(t.total_work(), ms(29));
        assert_eq!(t.critical_path(), ms(19));
        assert_eq!(t.makespan(1), ms(29));
        assert_eq!(t.makespan(2), ms(19));
    }

    #[test]
    fn min_with_takes_each_segment_and_task_at_its_faster_time() {
        let record = |serial: u64, tasks: [u64; 3]| {
            let mut t = ScheduleTrace::new();
            t.serial(ms(serial));
            t.parallel(tasks.map(ms).to_vec());
            t
        };
        let best = record(5, [9, 2, 7]).min_with(&record(3, [4, 8, 7]));
        assert_eq!(best.total_work(), ms(3 + 4 + 2 + 7));
        assert_eq!(best.makespan(2), ms(3 + 7));
    }

    #[test]
    #[should_panic(expected = "traces of one shape")]
    fn min_with_refuses_traces_of_another_shape() {
        let mut other = ScheduleTrace::new();
        other.parallel(vec![ms(1), ms(1)]);
        ScheduleTrace::new().min_with(&other);
    }

    #[test]
    fn two_coarse_tasks_cap_at_two_workers() {
        // The paper's filter decomposition: two tasks never scale past 2.
        let mut t = ScheduleTrace::new();
        t.parallel(vec![ms(40), ms(40)]);
        assert_eq!(t.makespan(2), ms(40));
        assert_eq!(t.makespan(4), ms(40));
        assert_eq!(t.makespan(8), ms(40));
    }

    #[test]
    fn amdahl_shape() {
        // 50% serial + 50% perfectly parallel: classic saturation.
        let mut t = ScheduleTrace::new();
        t.serial(ms(50));
        t.parallel(vec![ms(10); 5]);
        let s2 = t.speedup_vs(ms(100), 2);
        let s4 = t.speedup_vs(ms(100), 4);
        assert!(s2 > 1.2 && s2 < 1.4, "{s2}");
        assert!(s4 > s2 && s4 < 1.7, "{s4}");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ScheduleTrace::new().makespan(0);
    }
}
