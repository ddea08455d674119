//! Lightweight timing helpers for the figure tables and the bench
//! baseline: quick, stable minima and medians.

use std::time::{Duration, Instant};

/// Repetition policy: `warmup` unmeasured runs, then `samples` measured.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Unmeasured warm-up iterations.
    pub warmup: usize,
    /// Measured iterations.
    pub samples: usize,
}

impl Default for Reps {
    fn default() -> Self {
        Reps {
            warmup: 1,
            samples: 5,
        }
    }
}

fn collect<F: FnMut()>(mut f: F, reps: Reps) -> Vec<Duration> {
    for _ in 0..reps.warmup {
        f();
    }
    (0..reps.samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect()
}

/// Minimum wall time of `f` under the policy (least-noise estimator).
pub fn measure_min<F: FnMut()>(f: F, reps: Reps) -> Duration {
    collect(f, reps).into_iter().min().expect("samples >= 1")
}

/// Median and minimum wall time of `f` from a single set of samples.
pub fn measure_median_min<F: FnMut()>(f: F, reps: Reps) -> (Duration, Duration) {
    let mut times = collect(f, reps);
    times.sort_unstable();
    (times[times.len() / 2], times[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let d = measure_min(
            || {
                let v: Vec<u64> = (0..10_000).collect();
                std::hint::black_box(v.iter().sum::<u64>());
            },
            Reps { warmup: 1, samples: 3 },
        );
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn min_leq_median() {
        let mut i = 0u64;
        let f = || {
            i = i.wrapping_add(1);
            std::hint::black_box((0..(5_000 + (i % 3) * 1_000)).sum::<u64>());
        };
        let times = collect(f, Reps { warmup: 0, samples: 5 });
        let min = *times.iter().min().unwrap();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert!(min <= sorted[sorted.len() / 2]);
    }
}
