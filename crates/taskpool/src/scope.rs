//! Structured (scoped) task spawning with panic propagation.
//!
//! The lifetime discipline follows the same idea as `rayon::scope` /
//! `std::thread::scope`: a task may borrow anything that outlives the scope
//! (`'env`), because [`scope`] does not return until every spawned task has
//! finished. Internally the task closure's lifetime is erased to `'static`
//! before being queued on the pool; the completion counter restores safety.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::pool::{Job, ThreadPool};

/// A captured panic payload, as produced by [`catch_unwind`].
type PanicPayload = Box<dyn Any + Send + 'static>;

struct ScopeState {
    /// Tasks spawned but not yet completed.
    pending: AtomicUsize,
    /// First panic payload captured from a task, if any.
    panic: Mutex<Option<PanicPayload>>,
    done_lock: Mutex<()>,
    done: Condvar,
    /// Racecheck task ids of every spawned task, consumed for the join
    /// edges once the barrier has passed. Empty when tracing is off.
    traced: Mutex<Vec<racecheck::TaskId>>,
    /// Jobs withheld from the pool while the schedule explorer is armed;
    /// drained through [`crate::sched::run_deferred`] by the barrier.
    deferred: Mutex<Vec<Job>>,
}

impl ScopeState {
    fn task_finished(&self) {
        // Release pairs with the barrier's Acquire loads of `pending`:
        // the decrement-to-zero publishes everything the task wrote (the
        // RMW chain on `pending` carries intermediate decrements, as in
        // `Arc::drop`).
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            let _guard = self.done_lock.lock();
            self.done.notify_all();
        }
    }
}

/// Handle passed to the closure given to [`scope`]; used to spawn tasks that
/// borrow from the environment `'env`.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env` so borrows cannot be shortened behind our back.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Spawn a task on the pool. The task may borrow from the environment;
    /// it is guaranteed to finish before [`scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        // Relaxed: the spawner-to-worker hand-off is ordered by the
        // injector push (or the deferred-queue mutex); this counter only
        // needs the barrier-side Release/Acquire pairing in
        // `task_finished` / `scope`.
        self.state.pending.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(self.pool.shared());
        // The test hooks — tracing, fault injection, schedule control —
        // act on a `TestSession`'s own pools only, so a test running
        // next to one in the same process is left alone.
        let in_test_session = shared.in_test_session;
        // Fork edge: the child task's clock starts at the spawner's, so
        // everything the spawner did before this line happens-before the
        // task body.
        let tid = if in_test_session { racecheck::task_fork() } else { None };
        if let Some(t) = tid {
            self.state.traced.lock().push(t);
        }
        let task = move || {
            if let Some(t) = tid {
                racecheck::task_begin(t);
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                if in_test_session {
                    crate::fault::check_injected_fault();
                }
                f()
            }));
            if let Some(t) = tid {
                // After catch_unwind so the thread's task stack stays
                // balanced even when the body panicked.
                racecheck::task_end(t);
            }
            if let Err(payload) = result {
                shared.note_panicked_task();
                let mut slot = state.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.task_finished();
        };
        // SAFETY: `scope` blocks until `pending` reaches zero, so the closure
        // (and everything it borrows from `'env`) outlives its execution.
        let job: Job = unsafe { erase_lifetime(Box::new(task)) };
        if in_test_session && crate::sched::armed() {
            // Schedule exploration: the barrier runs these under the
            // seeded controller instead of the pool's workers.
            self.state.deferred.lock().push(job);
        } else {
            self.pool.shared().push(job);
        }
    }

    /// Number of worker threads in the underlying pool.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }
}

/// Erase the `'env` lifetime from a boxed task.
///
/// # Safety
///
/// The returned [`Job`] pretends to be `'static` but may borrow from
/// `'env`. The caller must guarantee the job finishes executing (or is
/// dropped) before anything it borrows from `'env` is invalidated — i.e.
/// only a scope that blocks on its completion counter may call this.
/// The two `dyn` types differ only in the lifetime bound, so the
/// transmute itself does not change layout.
unsafe fn erase_lifetime<'env>(f: Box<dyn FnOnce() + Send + 'env>) -> Job {
    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(f)
}

/// Run `f` with a [`Scope`] on `pool`; wait for all spawned tasks, then
/// return `f`'s result. If any task panicked, the first panic is resumed
/// here — after the remaining tasks have run to completion, so the pool
/// and its queue stay consistent.
///
/// While waiting, the calling thread helps execute queued tasks, so nesting
/// `scope` inside a pool task cannot deadlock.
pub fn scope<'env, F, R>(pool: &ThreadPool, f: F) -> R
where
    F: FnOnce(&Scope<'_, 'env>) -> R,
{
    let state = Arc::new(ScopeState {
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done: Condvar::new(),
        traced: Mutex::new(Vec::new()),
        deferred: Mutex::new(Vec::new()),
    });
    let scope_handle = Scope {
        pool,
        state: Arc::clone(&state),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope_handle)));

    // Run any jobs withheld for schedule exploration. This must happen
    // regardless of whether the scheduler is *still* armed (disarming
    // mid-scope must not strand jobs); `run_deferred` executes inline
    // when disarmed. Tasks cannot spawn into this scope (the handle does
    // not escape into task bodies), so one pass drains everything — the
    // loop is belt-and-braces.
    loop {
        let jobs = std::mem::take(&mut *state.deferred.lock());
        if jobs.is_empty() {
            break;
        }
        crate::sched::run_deferred(jobs);
    }

    // Wait for all tasks, helping with queued work while we wait.
    // Acquire pairs with the Release decrement in `task_finished`: seeing
    // zero means every task's writes are visible to the code after the
    // barrier.
    while state.pending.load(Ordering::Acquire) != 0 {
        if pool.shared().try_run_one() {
            continue;
        }
        let mut guard = state.done_lock.lock();
        if state.pending.load(Ordering::Acquire) == 0 {
            break;
        }
        // Short timeout: a queued-but-unstolen job could otherwise leave us
        // parked while work sits in the injector.
        state.done.wait_for(&mut guard, Duration::from_millis(1));
    }

    // Join edges: everything each task did happens-before everything the
    // caller does after the barrier.
    if racecheck::enabled() {
        for t in state.traced.lock().drain(..) {
            racecheck::task_join(t);
        }
    }

    let task_panic = state.panic.lock().take();
    if let Some(payload) = task_panic {
        std::panic::resume_unwind(payload);
    }
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn tasks_borrow_stack_data() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let data = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let total = AtomicUsize::new(0);
        scope(&pool, |s| {
            for chunk in data.chunks(2) {
                s.spawn(|| {
                    let sum: u32 = chunk.iter().sum();
                    total.fetch_add(sum as usize, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 36);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let v = scope(&pool, |s| {
            s.spawn(|| {});
            42
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = ThreadPool::with_threads(1).unwrap();
        let v = scope(&pool, |_| "ok");
        assert_eq!(v, "ok");
    }

    #[test]
    fn task_panic_propagates() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(&pool, |s| {
                s.spawn(|| panic!("task boom"));
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn remaining_tasks_still_run_after_panic() {
        let pool = ThreadPool::with_threads(2).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(&pool, |s| {
                s.spawn(|| panic!("boom"));
                for _ in 0..8 {
                    let c = Arc::clone(&c2);
                    s.spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        // The pool is still healthy for subsequent scopes.
        let v = scope(&pool, |s| {
            s.spawn(|| {});
            7
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn single_thread_pool_nested_scope_no_deadlock() {
        let pool = ThreadPool::with_threads(1).unwrap();
        let counter = AtomicUsize::new(0);
        scope(&pool, |s| {
            s.spawn(|| {
                scope(&pool, |inner| {
                    inner.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                });
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn injected_fault_hits_the_sessions_pools_and_no_other() {
        let neighbour = ThreadPool::with_threads(2).unwrap();
        let _session = crate::fault::TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        crate::fault::arm_panic_after(0);
        // A pool from outside the session runs next to the armed hook
        // untouched, and does not consume the countdown.
        scope(&neighbour, |s| {
            s.spawn(|| {});
        });
        let payload = catch_unwind(AssertUnwindSafe(|| {
            scope(&pool, |s| {
                s.spawn(|| {});
            })
        }))
        .expect_err("the session's pool takes the injected panic");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(crate::fault::INJECTED_PANIC_MESSAGE)
        );
    }

    #[test]
    fn many_tasks_complete() {
        let pool = ThreadPool::with_threads(4).unwrap();
        let counter = AtomicUsize::new(0);
        scope(&pool, |s| {
            for _ in 0..1000 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1000);
    }
}
