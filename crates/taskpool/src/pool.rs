//! The worker pool: a shared injector queue drained by a fixed set of worker
//! threads, with idle workers parked on a condition variable.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::deque::{Injector, Steal};
use parking_lot::{Condvar, Mutex};

use crate::error::PoolError;

/// A unit of work queued on the pool. Tasks submitted through [`crate::scope`]
/// are lifetime-erased to `'static`; the scope guarantees they complete before
/// the borrowed data goes out of scope.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

pub(crate) struct Shared {
    injector: Injector<Job>,
    /// Number of jobs pushed but not yet finished executing; used only for
    /// the idle-park heuristic, not for correctness.
    pending: AtomicUsize,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    /// Lifetime count of scoped tasks that panicked on this pool — the
    /// pool's health indicator. Workers survive task panics (the panic is
    /// caught at the task boundary), so a non-zero count means degraded
    /// runs happened, not dead threads.
    panicked_tasks: AtomicUsize,
    /// Created by the thread holding the [`crate::fault::TestSession`]:
    /// the only pools the injected-panic countdown and the schedule
    /// controller act on.
    pub(crate) in_test_session: bool,
}

impl Shared {
    pub(crate) fn note_panicked_task(&self) {
        self.panicked_tasks.fetch_add(1, Ordering::SeqCst);
    }
    pub(crate) fn push(&self, job: Job) {
        // Relaxed: `pending` is a never-loaded heuristic counter (see the
        // field doc); the spawner-to-worker hand-off is ordered by the
        // injector's own synchronization.
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.injector.push(job);
        self.wakeup.notify_one();
    }

    /// Try to run one queued job on the calling thread. Returns `true` if a
    /// job was executed. This is the "helping" primitive used by waiting
    /// scopes so that nested parallelism cannot deadlock the pool.
    pub(crate) fn try_run_one(&self) -> bool {
        loop {
            match self.injector.steal() {
                Steal::Success(job) => {
                    job();
                    // Relaxed: heuristic counter, never loaded (see push).
                    self.pending.fetch_sub(1, Ordering::Relaxed);
                    return true;
                }
                Steal::Retry => continue,
                Steal::Empty => return false,
            }
        }
    }

    fn worker_loop(&self) {
        loop {
            if self.try_run_one() {
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut guard = self.sleep_lock.lock();
            // Re-check under the lock to avoid missing a notify between the
            // failed steal and the park.
            if !self.injector.is_empty() || self.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            self.wakeup
                .wait_for(&mut guard, Duration::from_millis(10));
        }
    }

    pub(crate) fn notify_all(&self) {
        self.wakeup.notify_all();
    }
}

/// A fixed-size pool of worker threads.
///
/// Workers pull lifetime-erased jobs from a shared [`Injector`]. The pool is
/// cheap to share (`&ThreadPool` everywhere); dropping it joins all workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Create a pool with `threads` workers (at least 1).
    pub fn with_threads(threads: usize) -> Result<Self, PoolError> {
        if threads == 0 {
            return Err(PoolError::ZeroThreads);
        }
        if crate::fault::pool_creation_failure_armed() {
            return Err(PoolError::SpawnFailed(
                crate::fault::INJECTED_POOL_FAILURE_MESSAGE.to_string(),
            ));
        }
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            panicked_tasks: AtomicUsize::new(0),
            in_test_session: crate::fault::in_session(),
        });
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let sh = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("taskpool-worker-{i}"))
                .spawn(move || sh.worker_loop())
                .map_err(|e| PoolError::SpawnFailed(e.to_string()))?;
            handles.push(handle);
        }
        Ok(ThreadPool {
            shared,
            handles,
            threads,
        })
    }

    /// Create a pool sized to the machine's available parallelism.
    pub fn new() -> Result<Self, PoolError> {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(n)
    }

    /// Number of worker threads in this pool.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Pool health: how many scoped tasks have panicked on this pool over
    /// its lifetime. Worker threads survive task panics, so a non-zero
    /// value records degraded runs rather than lost capacity.
    pub fn panicked_tasks(&self) -> usize {
        self.shared.panicked_tasks.load(Ordering::SeqCst)
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide default pool, sized to available parallelism and created
/// on first use.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new().expect("failed to create global thread pool"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            ThreadPool::with_threads(0),
            Err(PoolError::ZeroThreads)
        ));
    }

    #[test]
    fn num_threads_reported() {
        let pool = ThreadPool::with_threads(3).unwrap();
        assert_eq!(pool.num_threads(), 3);
    }

    #[test]
    fn drop_joins_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::with_threads(4).unwrap();
            for _ in 0..64 {
                let c = Arc::clone(&counter);
                pool.shared().push(Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
            // Dropping the pool must not lose queued work that is in flight;
            // workers drain until shutdown AND empty queue.
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn global_pool_is_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().num_threads() >= 1);
    }
}
