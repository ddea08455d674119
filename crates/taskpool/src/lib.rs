//! # taskpool — a scoped task-parallel runtime
//!
//! This crate is the stand-in for OpenMP task parallelism used by the paper's
//! parallel delta-stepping implementation (Sec. VI-C). It provides:
//!
//! * [`ThreadPool`] — a fixed-size worker pool fed by a shared injector queue,
//!   with idle workers parked on a condition variable.
//! * [`scope`] — structured (scoped) task spawning: tasks may borrow from the
//!   enclosing stack frame; the scope does not return until every spawned task
//!   has completed, and panics inside tasks are propagated to the caller.
//! * [`join`] — binary fork-join, the paper's two matrix-filter tasks.
//! * [`split_evenly`] + [`scope_collect`] / [`scope_with_buffers`] — the
//!   paper's "splitting the vector into evenly-sized tasks": one task per
//!   sub-range, each with its own result slot or reusable buffer, so there
//!   is no shared lock on the completion path and results come back
//!   deterministically in spawn order.
//! * [`fault`] / [`sched`] — test hooks: injected faults and seeded
//!   schedule control, scoped to a [`fault::TestSession`].
//!
//! Waiting threads *help*: while a scope waits for its tasks, the waiting
//! thread (including pool workers running a task that opened a nested scope)
//! pulls further tasks from the injector and executes them. This makes nested
//! parallelism deadlock-free on a fixed-size pool.
//!
//! ```
//! use taskpool::ThreadPool;
//!
//! let pool = ThreadPool::with_threads(4).unwrap();
//! let data: Vec<u64> = (0..1024).collect();
//! // One task per evenly-sized chunk; partial sums come back in chunk order.
//! let chunks = taskpool::split_evenly(0..data.len(), pool.num_threads());
//! let sums = taskpool::scope_collect(&pool, chunks, |_, r| data[r].iter().sum::<u64>());
//! assert_eq!(sums.len(), 4);
//! assert_eq!(sums.iter().sum::<u64>(), 1023 * 1024 / 2);
//! ```

mod collect;
mod error;
pub mod fault;
mod join;
mod pool;
pub mod sched;
mod scope;
mod split;

pub use collect::{scope_collect, scope_with_buffers};
pub use error::PoolError;
pub use join::join;
pub use pool::{global, ThreadPool};
pub use scope::{scope, Scope};
pub use split::split_evenly;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn end_to_end_nested_scopes() {
        let pool = ThreadPool::with_threads(3).unwrap();
        let counter = AtomicUsize::new(0);
        scope(&pool, |s| {
            for _ in 0..8 {
                s.spawn(|| {
                    scope(&pool, |inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }
}
