//! Seeded bounded-preemption schedule control for scoped tasks.
//!
//! When **armed**, scoped spawns on the pools of the arming
//! [`crate::fault::TestSession`] are not handed to the worker pool;
//! instead each scope collects its lifetime-erased jobs and runs them
//! through [`run_deferred`], which executes them on *baton threads*: one
//! OS thread per job, but with at most **one** job body running at any
//! moment. A controller loop repeatedly picks the next runnable job with
//! a seeded xorshift RNG and grants it the baton; instrumented code may
//! call [`yield_point`], which (while the preemption budget lasts and a
//! seeded coin-flip agrees) parks the running job and returns the baton
//! to the controller mid-task.
//!
//! Because exactly one job body executes at a time and every choice is
//! drawn from one seeded RNG, the explored interleaving is a
//! deterministic function of `(seed, preemption budget)` — re-running a
//! seed replays its schedule exactly. This is the CHESS-style bounded
//! exploration the race checker drives: task *order* is permuted by the
//! controller's picks, and task *segment interleaving* is permuted by
//! the yield points the `racecheck` feature compiles into chunk loops.
//!
//! Everything here uses `std` sync primitives and is always compiled;
//! a single relaxed atomic load ([`armed`]) keeps the disarmed cost to
//! effectively zero.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::pool::Job;

static ARMED: AtomicBool = AtomicBool::new(false);

struct SchedState {
    rng: u64,
    preempt_left: u32,
}

static STATE: Mutex<SchedState> = Mutex::new(SchedState {
    rng: 1,
    preempt_left: 0,
});

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Arm the scheduler: scoped spawns on the pools of the calling thread's
/// [`crate::fault::TestSession`] defer onto baton threads, picks and
/// preemptions are drawn from a xorshift RNG seeded with `seed`, and at
/// most `preemption_budget` mid-task preemptions are taken. Panics
/// without a session: the controller state is process-wide.
pub fn arm(seed: u64, preemption_budget: u32) {
    assert!(crate::fault::in_session(), "sched::arm outside a TestSession");
    let mut st = unpoison(STATE.lock());
    st.rng = seed | 1; // xorshift state must be non-zero
    st.preempt_left = preemption_budget;
    // Relaxed: the flag only gates instrumentation. All schedule state
    // crosses through the STATE mutex, and the spawn→worker job handoff
    // (the pool queue's mutex) already orders this store before any
    // task's first yield point; extra fencing here adds nothing the
    // Relaxed `armed()` fast path could observe.
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the scheduler; spawns go straight to the pool again.
pub fn disarm() {
    // Relaxed: disarm runs after the scope join barrier, so no task is
    // left to observe the flag; a hypothetical stale `true` would only
    // send one spawn through the (empty) deferred path.
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether the schedule explorer is currently driving execution.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn next_u64(st: &mut SchedState) -> u64 {
    // xorshift64: full-period, trivially seedable, no deps.
    let mut x = st.rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    st.rng = x;
    x
}

/// A seeded pick in `0..n`.
fn pick(n: usize) -> usize {
    debug_assert!(n > 0);
    let mut st = unpoison(STATE.lock());
    (next_u64(&mut st) % n as u64) as usize
}

/// Decide whether to preempt at a yield point: consumes budget only when
/// the seeded coin-flip says yes.
fn take_preemption() -> bool {
    if !armed() {
        return false;
    }
    let mut st = unpoison(STATE.lock());
    if st.preempt_left == 0 {
        return false;
    }
    if next_u64(&mut st) & 1 == 0 {
        st.preempt_left -= 1;
        true
    } else {
        false
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Waiting for the first baton grant.
    Idle,
    /// Holds the baton and is (or may be) running.
    Run,
    /// Parked at a yield point, waiting for a re-grant.
    Yielded,
    /// Job body finished.
    Done,
}

/// One baton: the controller and a job's thread rendezvous through it.
struct Gate {
    status: Mutex<Status>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            status: Mutex::new(Status::Idle),
            cv: Condvar::new(),
        }
    }

    fn set(&self, s: Status) {
        *unpoison(self.status.lock()) = s;
        self.cv.notify_all();
    }

    fn wait_for_run(&self) {
        let mut st = unpoison(self.status.lock());
        while *st != Status::Run {
            st = unpoison(self.cv.wait(st));
        }
    }

    /// Controller side: block until the job either finishes or yields.
    fn wait_done_or_yield(&self) -> Status {
        let mut st = unpoison(self.status.lock());
        while !matches!(*st, Status::Done | Status::Yielded) {
            st = unpoison(self.cv.wait(st));
        }
        *st
    }
}

thread_local! {
    /// The gate of the deferred job this thread is currently running, if
    /// any — what [`yield_point`] parks on.
    static MY_GATE: RefCell<Option<Arc<Gate>>> = const { RefCell::new(None) };
}

/// A cooperative preemption point. No-op unless the scheduler is armed,
/// the calling thread is running a deferred job, and the seeded budget
/// decides to preempt here; otherwise parks the job and hands the baton
/// back to the controller until re-granted.
pub fn yield_point() {
    if !armed() {
        return;
    }
    let gate = MY_GATE.with(|g| g.borrow().clone());
    let Some(gate) = gate else { return };
    if !take_preemption() {
        return;
    }
    let mut st = unpoison(gate.status.lock());
    *st = Status::Yielded;
    gate.cv.notify_all();
    while *st != Status::Run {
        st = unpoison(gate.cv.wait(st));
    }
}

/// Execute a scope's deferred jobs under controller-serialized,
/// seed-driven scheduling. Falls back to in-order inline execution when
/// the scheduler is not armed (a scope that deferred jobs and was then
/// disarmed must not strand them) or when there is nothing to permute.
pub(crate) fn run_deferred(jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    if jobs.len() == 1 || !armed() {
        for job in jobs {
            job();
        }
        return;
    }
    let n = jobs.len();
    let gates: Vec<Arc<Gate>> = (0..n).map(|_| Arc::new(Gate::new())).collect();
    let mut handles = Vec::with_capacity(n);
    for (job, gate) in jobs.into_iter().zip(gates.iter()) {
        let gate = Arc::clone(gate);
        let handle = std::thread::Builder::new()
            .name("sched-baton".to_string())
            .spawn(move || {
                MY_GATE.with(|g| *g.borrow_mut() = Some(Arc::clone(&gate)));
                gate.wait_for_run();
                // The scope wrapper already catches user panics; this
                // outer catch only guarantees Done is set even if that
                // invariant is ever broken, so the controller can't hang.
                let _ = catch_unwind(AssertUnwindSafe(job));
                MY_GATE.with(|g| *g.borrow_mut() = None);
                gate.set(Status::Done);
            })
            .expect("failed to spawn schedule-explorer baton thread");
        handles.push(handle);
    }
    let mut done = vec![false; n];
    let mut remaining = n;
    let mut runnable: Vec<usize> = Vec::with_capacity(n);
    while remaining > 0 {
        runnable.clear();
        runnable.extend((0..n).filter(|&i| !done[i]));
        let k = runnable[pick(runnable.len())];
        gates[k].set(Status::Run);
        if gates[k].wait_done_or_yield() == Status::Done {
            done[k] = true;
            remaining -= 1;
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TestSession;
    use crate::pool::ThreadPool;
    use crate::scope::scope;
    use std::sync::atomic::AtomicUsize;

    /// Call under a [`TestSession`].
    fn order_for_seed(seed: u64) -> Vec<usize> {
        let pool = ThreadPool::with_threads(2).unwrap();
        let order = Mutex::new(Vec::new());
        arm(seed, 4);
        scope(&pool, |s| {
            for i in 0..6 {
                let order = &order;
                s.spawn(move || {
                    yield_point();
                    unpoison(order.lock()).push(i);
                });
            }
        });
        disarm();
        order.into_inner().unwrap()
    }

    #[test]
    fn armed_schedules_are_deterministic_per_seed() {
        let _session = TestSession::begin();
        let a = order_for_seed(42);
        let b = order_for_seed(42);
        assert_eq!(a, b, "same seed must replay the same schedule");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5], "every task ran exactly once");
    }

    #[test]
    fn different_seeds_explore_different_orders() {
        let _session = TestSession::begin();
        // Across a handful of seeds at least one must differ from seed 1's
        // order (6! = 720 orders; the chance of 8 identical picks is nil,
        // and determinism means this can't flake — it either holds or not).
        let base = order_for_seed(1);
        let any_differs = (2..10).any(|s| order_for_seed(s) != base);
        assert!(any_differs, "seeded exploration is degenerate");
    }

    #[test]
    fn disarmed_run_deferred_is_inert_and_tasks_go_to_pool() {
        let _session = TestSession::begin();
        assert!(!armed());
        let pool = ThreadPool::with_threads(2).unwrap();
        let counter = AtomicUsize::new(0);
        scope(&pool, |s| {
            for _ in 0..8 {
                s.spawn(|| {
                    yield_point(); // must be a no-op
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn armed_controller_leaves_a_neighbours_pool_to_its_workers() {
        let neighbour = ThreadPool::with_threads(2).unwrap();
        let _session = TestSession::begin();
        arm(5, 4);
        let on_baton = AtomicUsize::new(0);
        scope(&neighbour, |s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if std::thread::current().name() == Some("sched-baton") {
                        on_baton.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(on_baton.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn armed_nested_scopes_complete() {
        let _session = TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        let counter = AtomicUsize::new(0);
        arm(7, 8);
        scope(&pool, |s| {
            for _ in 0..3 {
                s.spawn(|| {
                    scope(&pool, |inner| {
                        for _ in 0..3 {
                            inner.spawn(|| {
                                yield_point();
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        disarm();
        assert_eq!(counter.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn armed_task_panic_still_propagates() {
        let _session = TestSession::begin();
        let pool = ThreadPool::with_threads(2).unwrap();
        arm(3, 2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scope(&pool, |s| {
                s.spawn(|| panic!("armed boom"));
                s.spawn(|| {});
            });
        }));
        disarm();
        assert!(result.is_err());
    }
}
