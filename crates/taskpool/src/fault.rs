//! Fault injection: test hooks that make the Nth subsequently spawned
//! scoped task panic, or make pool creation, a checkpoint rename or a
//! lock acquisition fail.
//!
//! Used to prove panic isolation and graceful degradation end-to-end
//! (a fault-injected parallel SSSP run must fall back to the sequential
//! path and still produce certified distances) without instrumenting
//! production code paths.
//!
//! ## Scope of each hook
//!
//! The task-panic countdown has to reach worker threads, so — like the
//! schedule controller in [`crate::sched`] — it is process-wide state. A
//! test that arms either holds a [`TestSession`]: one session exists per
//! process at a time, both hooks act only on pools *created by the
//! session's thread*, and dropping the session disarms everything. A
//! test that merely runs pool tasks next to it in the same process never
//! sees an injected panic or a deferred job, which is what lets
//! `cargo test` run arming and non-arming tests on parallel threads.
//! Disarmed, the countdown costs a task one relaxed atomic load.
//!
//! The pool-creation, checkpoint-rename and lock-poison hooks are
//! thread-local: armed and observed on one thread, so they need no
//! session and cannot leak into a neighbour.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Countdown until the injected panic: negative means disarmed, `n ≥ 0`
/// means "the task that observes `n == 0` panics".
static COUNTDOWN: AtomicI64 = AtomicI64::new(-1);

/// Held by the one live [`TestSession`].
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread holds the [`TestSession`].
    static IN_SESSION: Cell<bool> = const { Cell::new(false) };

    /// Whether pool creation **on this thread** should fail. Checked once
    /// per `ThreadPool::with_threads` call; stays armed until [`disarm`].
    static POOL_FAILURE: Cell<bool> = const { Cell::new(false) };

    /// Whether the next checkpoint tmp→final rename **on this thread**
    /// should fail. Consumed by the caller (one-shot), so a single save
    /// attempt fails and the next succeeds.
    static RENAME_FAILURE: Cell<bool> = const { Cell::new(false) };

    /// Whether the next poison-recovering lock acquisition **on this
    /// thread** should panic while holding the guard: the injected panic
    /// must land in the arming test's own thread, never be stolen by an
    /// unrelated thread that happens to take a lock concurrently.
    static LOCK_POISON: Cell<bool> = const { Cell::new(false) };
}

/// The exclusive right to arm the process-wide test hooks: the task-panic
/// countdown ([`arm_panic_after`]) and the schedule controller
/// ([`crate::sched::arm`]). Both act only on pools created by the thread
/// that holds the session, so create the pools under test *after*
/// [`TestSession::begin`]. Dropping the session disarms every hook of
/// this crate and runs the resets registered with [`TestSession::on_end`]
/// — also when the test panics.
///
/// Tests only: no production path begins a session.
pub struct TestSession {
    resets: Vec<fn()>,
    _lock: MutexGuard<'static, ()>,
}

impl TestSession {
    /// Wait for any other session in the process to end, then open one on
    /// the calling thread. Not reentrant.
    pub fn begin() -> TestSession {
        let lock = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        IN_SESSION.with(|c| c.set(true));
        TestSession { resets: Vec::new(), _lock: lock }
    }

    /// Run `reset` when the session ends. For process-wide test overrides
    /// that live above this crate (the relaxation cut-over, the direction
    /// oracle): set them under the session and register the call that
    /// clears them.
    pub fn on_end(&mut self, reset: fn()) {
        self.resets.push(reset);
    }
}

impl Drop for TestSession {
    fn drop(&mut self) {
        for reset in &self.resets {
            reset();
        }
        disarm();
        crate::sched::disarm();
        IN_SESSION.with(|c| c.set(false));
    }
}

/// Whether the calling thread holds the [`TestSession`]; pools it creates
/// are the ones the process-wide hooks act on.
pub(crate) fn in_session() -> bool {
    IN_SESSION.with(Cell::get)
}

/// Message carried by injected panics, so tests can assert the failure
/// they observe is the one they injected.
pub const INJECTED_PANIC_MESSAGE: &str = "taskpool: injected fault";

/// Message carried by injected pool-creation failures.
pub const INJECTED_POOL_FAILURE_MESSAGE: &str = "taskpool: injected pool-creation failure";

/// Message carried by injected checkpoint-rename failures.
pub const INJECTED_RENAME_FAILURE_MESSAGE: &str = "taskpool: injected checkpoint-rename failure";

/// Message carried by injected lock-poisoning panics.
pub const INJECTED_LOCK_POISON_MESSAGE: &str = "taskpool: injected lock poison";

/// Arm the hook: the `n`-th scoped task spawned from now on, on a pool
/// of the calling thread's [`TestSession`], panics (`n = 0` → the very
/// next task). Panics without a session: an unscoped countdown would
/// fire in whichever test spawns next.
pub fn arm_panic_after(n: u64) {
    assert!(in_session(), "arm_panic_after outside a TestSession");
    COUNTDOWN.store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
}

/// Arm the pool-failure hook: every `ThreadPool::with_threads` call
/// **on this thread** fails with [`INJECTED_POOL_FAILURE_MESSAGE`] until
/// [`disarm`].
pub fn arm_pool_creation_failure() {
    POOL_FAILURE.with(|c| c.set(true));
}

/// Arm the checkpoint-rename hook: the next atomic tmp→final rename a
/// checkpoint saver attempts **on this thread** fails with
/// [`INJECTED_RENAME_FAILURE_MESSAGE`], leaving the tmp file behind for
/// the saver's cleanup path to deal with. One-shot.
pub fn arm_checkpoint_rename_failure() {
    RENAME_FAILURE.with(|c| c.set(true));
}

/// Arm the lock-poison hook: the next poison-recovering lock
/// acquisition (the serve layer's `lock::recover`) **on this thread**
/// panics with [`INJECTED_LOCK_POISON_MESSAGE`] *while holding the
/// guard*, poisoning the mutex for every later acquisition. One-shot.
pub fn arm_lock_poison() {
    LOCK_POISON.with(|c| c.set(true));
}

/// Disarm this thread's hooks and, when it holds the [`TestSession`],
/// the countdown. Idempotent.
pub fn disarm() {
    if in_session() {
        COUNTDOWN.store(-1, Ordering::SeqCst);
    }
    POOL_FAILURE.with(|c| c.set(false));
    RENAME_FAILURE.with(|c| c.set(false));
    LOCK_POISON.with(|c| c.set(false));
}

/// Called by checkpoint savers immediately before the tmp→final rename;
/// `true` means this rename attempt must fail (and the hook is consumed).
pub fn take_checkpoint_rename_failure() -> bool {
    RENAME_FAILURE.with(|c| c.replace(false))
}

/// Called by poison-recovering lock helpers after acquiring the guard;
/// `true` means this holder must panic (and this thread's hook is
/// consumed).
pub fn take_lock_poison() -> bool {
    LOCK_POISON.with(|c| c.replace(false))
}

/// Called by `ThreadPool::with_threads`; `true` means this creation
/// attempt must fail.
pub(crate) fn pool_creation_failure_armed() -> bool {
    POOL_FAILURE.with(Cell::get)
}

/// Called at the start of every scoped task of a session pool; panics if
/// this task is the armed target.
pub(crate) fn check_injected_fault() {
    // Fast path: disarmed. Relaxed is fine — a stale read only delays the
    // injection by a task or two, which tests tolerate by arming before
    // the run they observe.
    if COUNTDOWN.load(Ordering::Relaxed) < 0 {
        return;
    }
    if COUNTDOWN.fetch_sub(1, Ordering::SeqCst) == 0 {
        panic!("{INJECTED_PANIC_MESSAGE}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn countdown_armed() -> bool {
        COUNTDOWN.load(Ordering::SeqCst) >= 0
    }

    #[test]
    fn countdown_arms_under_a_session_and_ends_with_it() {
        let session = TestSession::begin();
        assert!(!countdown_armed());
        check_injected_fault(); // must not panic
        arm_panic_after(5);
        assert!(countdown_armed());
        disarm();
        assert!(!countdown_armed());
        check_injected_fault(); // must not panic
        arm_panic_after(5);
        drop(session);
        assert!(!countdown_armed(), "the session's end disarms");
    }

    #[test]
    fn a_neighbours_disarm_leaves_the_sessions_countdown_alone() {
        let _session = TestSession::begin();
        arm_panic_after(5);
        std::thread::spawn(disarm).join().unwrap();
        assert!(countdown_armed());
    }

    #[test]
    fn arming_the_countdown_needs_a_session() {
        let outside = std::thread::spawn(|| arm_panic_after(0)).join();
        assert!(outside.is_err());
    }

    #[test]
    fn session_end_runs_registered_resets_even_on_panic() {
        static RESETS: AtomicI64 = AtomicI64::new(0);
        let unwound = std::panic::catch_unwind(|| {
            let mut session = TestSession::begin();
            session.on_end(|| {
                RESETS.fetch_add(1, Ordering::SeqCst);
            });
            panic!("test body failed");
        });
        assert!(unwound.is_err());
        assert_eq!(RESETS.load(Ordering::SeqCst), 1);
        // The poisoned session lock does not wedge the next session.
        drop(TestSession::begin());
    }

    #[test]
    fn pool_failure_hook_arms_and_disarms_on_this_thread_only() {
        assert!(!pool_creation_failure_armed());
        arm_pool_creation_failure();
        assert!(pool_creation_failure_armed());
        assert!(!std::thread::spawn(pool_creation_failure_armed).join().unwrap());
        disarm();
        assert!(!pool_creation_failure_armed());
    }

    #[test]
    fn rename_failure_hook_is_one_shot() {
        assert!(!take_checkpoint_rename_failure());
        arm_checkpoint_rename_failure();
        assert!(take_checkpoint_rename_failure(), "armed hook fires once");
        assert!(!take_checkpoint_rename_failure(), "and is consumed");
    }

    #[test]
    fn lock_poison_hook_is_one_shot() {
        assert!(!take_lock_poison());
        arm_lock_poison();
        assert!(take_lock_poison(), "armed hook fires once");
        assert!(!take_lock_poison(), "and is consumed");
    }

    #[test]
    fn countdown_hits_zero() {
        let _session = TestSession::begin();
        arm_panic_after(1);
        check_injected_fault(); // 1 -> 0, no panic yet
        let hit = std::panic::catch_unwind(check_injected_fault);
        assert!(hit.is_err());
    }
}
