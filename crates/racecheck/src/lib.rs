//! # racecheck — a happens-before race tracker for the taskpool runtime
//!
//! A dynamic race detector in the FastTrack/vector-clock family, sized for
//! this repository: the instrumented programs are `taskpool` scopes whose
//! tasks are forked and joined in *structured* patterns, so the
//! happens-before (HB) relation is generated by three kinds of edges:
//!
//! 1. **fork** — `Scope::spawn` orders everything the spawner did before
//!    the spawn ahead of the child task (the queue hand-off in
//!    `taskpool::pool` is the physical carrier of this edge);
//! 2. **join** — the scope barrier orders every spawned task ahead of the
//!    code that runs after `scope` returns;
//! 3. **release→acquire** — an atomic access with `Release` semantics
//!    publishes the task's clock into a per-location *sync clock*; a later
//!    access with `Acquire` semantics joins that sync clock into the
//!    acquiring task first.
//!
//! The discipline enforced is deliberately **stricter than C11**: every
//! conflicting pair (two accesses to the same location, at least one a
//! write) must be HB-ordered. Under C11 two `Relaxed` RMWs on one atomic
//! are not a data race, but they *are* unordered — and in a code base
//! whose contract is bit-identical output across schedules, unordered
//! conflicting accesses are exactly the thing we want to ban. This is how
//! the checker distinguishes the audited `Acquire`/`Release`
//! `atomic_min_f64` (each RMW acquires the location's sync clock before
//! its access check, then releases into it — a chain that orders every
//! RMW on the cell) from the old fully-`Relaxed` version (no chain, so
//! sibling tasks' RMWs are unordered and get flagged).
//!
//! ## Shadow state
//!
//! Locations are keyed by address. Each traced location keeps the epoch
//! `(task, clock)` of the last write and one read epoch per reading task;
//! an access races when the prior epoch is not `≤` the current task's
//! clock component for that task. Address reuse across phases is safe
//! because every allocation's accesses are HB-ordered through the scope
//! barriers that separate phases.
//!
//! ## Sessions
//!
//! All state is process-global and guarded by [`Session`]: creating one
//! takes a global lock (serializing traced tests within a binary), resets
//! the tracker, and enables event recording; dropping it disables
//! recording. Hook functions are no-ops (one relaxed atomic load) when no
//! session is active, which is why `taskpool` can call them
//! unconditionally.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Logical task identity. Task 0 is the *root*: the session-owning thread
/// and any thread that records events outside a traced task (OS threads
/// driving scopes directly fall back to it; see [`current_task`]'s note).
pub type TaskId = u32;

/// The root task (see [`TaskId`]).
pub const ROOT: TaskId = 0;

/// Reports are capped so a hot racy loop cannot OOM the tracker.
const MAX_RACES: usize = 64;

/// Deadlock reports are capped like races; one cycle is already fatal.
const MAX_DEADLOCKS: usize = 16;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock: component `t` counts the epochs of task `t` that the
/// owner has observed. Missing components read as 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    v: Vec<u32>,
}

impl VectorClock {
    fn get(&self, t: TaskId) -> u32 {
        self.v.get(t as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, t: TaskId, c: u32) {
        if self.v.len() <= t as usize {
            self.v.resize(t as usize + 1, 0);
        }
        self.v[t as usize] = c;
    }

    fn bump(&mut self, t: TaskId) {
        let c = self.get(t);
        self.set(t, c + 1);
    }

    /// Pointwise maximum (the lattice join).
    fn join(&mut self, other: &VectorClock) {
        if self.v.len() < other.v.len() {
            self.v.resize(other.v.len(), 0);
        }
        for (a, &b) in self.v.iter_mut().zip(other.v.iter()) {
            if b > *a {
                *a = b;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Orderings and reports
// ---------------------------------------------------------------------------

/// The synchronization strength of a traced atomic access, mirroring
/// `std::sync::atomic::Ordering` for the subset the tracker models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOrd {
    /// No HB edge in either direction.
    Relaxed,
    /// Joins the location's sync clock into the task before the access.
    Acquire,
    /// Publishes the task's clock into the location's sync clock after
    /// the access.
    Release,
    /// Both of the above.
    AcqRel,
    /// Modeled as [`SyncOrd::AcqRel`] (the tracker does not model the
    /// single total order).
    SeqCst,
}

impl SyncOrd {
    fn acquires(self) -> bool {
        matches!(self, SyncOrd::Acquire | SyncOrd::AcqRel | SyncOrd::SeqCst)
    }

    fn releases(self) -> bool {
        matches!(self, SyncOrd::Release | SyncOrd::AcqRel | SyncOrd::SeqCst)
    }
}

/// One detected pair of conflicting, HB-unordered accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The label the instrumentation attached to the location.
    pub label: &'static str,
    /// The location's address.
    pub addr: usize,
    /// `"write-write"`, `"write-read"` (prior write, current read) or
    /// `"read-write"` (prior read, current write).
    pub kind: &'static str,
    /// The task that made the prior unordered access.
    pub prior_task: TaskId,
    /// The task making the current access.
    pub current_task: TaskId,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race on `{}` @ {:#x}: task {} vs task {}",
            self.kind, self.label, self.addr, self.prior_task, self.current_task
        )
    }
}

// ---------------------------------------------------------------------------
// Lock-order reports
// ---------------------------------------------------------------------------

/// One acquisition site in the lock-order graph: the lock's declared
/// name plus the `file:line` of the acquisition (captured through
/// `#[track_caller]`, so `serve::lock::recover` reports its caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockSite {
    /// The name the instrumentation attached to the lock.
    pub name: &'static str,
    /// Source file of the acquisition.
    pub file: &'static str,
    /// Source line of the acquisition.
    pub line: u32,
}

impl std::fmt::Display for LockSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}` ({}:{})", self.name, self.file, self.line)
    }
}

/// One edge of the acquisition-order graph: some thread acquired
/// [`LockEdge::acquired`] while holding [`LockEdge::held`]. The two
/// sites are the witness stacks the deadlock report prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockEdge {
    /// The lock that was already held (and where it was taken).
    pub held: LockSite,
    /// The lock being acquired (and where).
    pub acquired: LockSite,
}

impl std::fmt::Display for LockEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} held while acquiring {}", self.held, self.acquired)
    }
}

/// A cycle in the acquisition-order graph — a potential deadlock, with
/// the full AB-BA witness: every edge of the cycle, each carrying both
/// acquisition sites. Reported as soon as the closing edge is observed;
/// the deadlock never has to manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// The edges of the cycle, in order; the last edge's `acquired`
    /// lock is the first edge's `held` lock.
    pub edges: Vec<LockEdge>,
}

impl std::fmt::Display for LockCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lock-order cycle ({} edges):", self.edges.len())?;
        for e in &self.edges {
            write!(f, "\n  {e}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tracker state
// ---------------------------------------------------------------------------

struct LocState {
    label: &'static str,
    /// Epoch of the last write, if any.
    write: Option<(TaskId, u32)>,
    /// One read epoch per reading task since the last write.
    reads: Vec<(TaskId, u32)>,
}

struct Inner {
    /// Per-task clocks, indexed by `TaskId`. A finished task's clock is
    /// frozen and consumed by [`task_join`].
    clocks: Vec<VectorClock>,
    shadow: HashMap<usize, LocState>,
    /// Per-atomic-location sync clocks (release targets).
    sync: HashMap<usize, VectorClock>,
    races: Vec<Race>,
    events: u64,
    /// Acquisition-order graph: `(held_addr, acquired_addr)` → first
    /// witness. Edges accumulate across the whole session reset window,
    /// so AB in one task and BA in another still close the cycle.
    lock_edges: HashMap<(usize, usize), LockEdge>,
    deadlocks: Vec<LockCycle>,
}

impl Inner {
    fn fresh() -> Inner {
        let mut root = VectorClock::default();
        root.set(ROOT, 1);
        Inner {
            clocks: vec![root],
            shadow: HashMap::new(),
            sync: HashMap::new(),
            races: Vec::new(),
            events: 0,
            lock_edges: HashMap::new(),
            deadlocks: Vec::new(),
        }
    }

    /// Insert the edge `held.addr → acquired.addr` (first witness wins)
    /// and report a [`LockCycle`] if the new edge closes one.
    fn lock_edge(&mut self, held_addr: usize, acq_addr: usize, witness: LockEdge) {
        self.events += 1;
        if self.lock_edges.contains_key(&(held_addr, acq_addr)) {
            return; // already known, already cycle-checked
        }
        self.lock_edges.insert((held_addr, acq_addr), witness);
        // DFS from `acq_addr` back to `held_addr`; a path means the new
        // edge closes a cycle. The graph is tiny (one node per lock), so
        // a fresh DFS per new edge is fine.
        let mut stack = vec![(acq_addr, Vec::<(usize, usize)>::new())];
        let mut visited = vec![acq_addr];
        while let Some((node, path)) = stack.pop() {
            if node == held_addr {
                let mut edges = vec![self.lock_edges[&(held_addr, acq_addr)]];
                edges.extend(path.iter().map(|k| self.lock_edges[k]));
                if self.deadlocks.len() < MAX_DEADLOCKS {
                    self.deadlocks.push(LockCycle { edges });
                }
                return;
            }
            for &(from, to) in self.lock_edges.keys() {
                if from == node && !visited.contains(&to) {
                    visited.push(to);
                    let mut p = path.clone();
                    p.push((from, to));
                    stack.push((to, p));
                }
            }
        }
    }

    fn record(&mut self, label: &'static str, addr: usize, is_write: bool, ord: Option<SyncOrd>, me: TaskId) {
        self.events += 1;
        if let Some(o) = ord {
            if o.acquires() {
                if let Some(sc) = self.sync.get(&addr) {
                    let sc = sc.clone();
                    self.clocks[me as usize].join(&sc);
                }
            }
        }
        let my = self.clocks[me as usize].clone();
        let st = self.shadow.entry(addr).or_insert(LocState {
            label,
            write: None,
            reads: Vec::new(),
        });
        let mut found: Vec<Race> = Vec::new();
        if let Some((t, c)) = st.write {
            if t != me && my.get(t) < c {
                found.push(Race {
                    label: st.label,
                    addr,
                    kind: if is_write { "write-write" } else { "write-read" },
                    prior_task: t,
                    current_task: me,
                });
            }
        }
        if is_write {
            for &(t, c) in &st.reads {
                if t != me && my.get(t) < c {
                    found.push(Race {
                        label: st.label,
                        addr,
                        kind: "read-write",
                        prior_task: t,
                        current_task: me,
                    });
                }
            }
            st.reads.clear();
            st.write = Some((me, my.get(me)));
        } else if let Some(e) = st.reads.iter_mut().find(|(t, _)| *t == me) {
            e.1 = my.get(me);
        } else {
            st.reads.push((me, my.get(me)));
        }
        for r in found {
            if self.races.len() < MAX_RACES {
                self.races.push(r);
            }
        }
        if let Some(o) = ord {
            if o.releases() {
                let myc = self.clocks[me as usize].clone();
                self.sync.entry(addr).or_default().join(&myc);
                self.clocks[me as usize].bump(me);
            }
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACKER: Mutex<Option<Inner>> = Mutex::new(None);
static SESSION_LOCK: Mutex<()> = Mutex::new(());
/// Signals session release to waiters that poll instead of block.
static SESSION_FREE: Condvar = Condvar::new();

thread_local! {
    static TASK_STACK: RefCell<Vec<TaskId>> = const { RefCell::new(Vec::new()) };
    /// Locks the calling thread currently holds, in acquisition order
    /// (the lockdep-style held set feeding the acquisition-order graph).
    static HELD_LOCKS: RefCell<Vec<(usize, LockSite)>> = const { RefCell::new(Vec::new()) };
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    // A panicking traced test must not wedge every later session; the
    // tracker's state is reset by the next Session::new anyway.
    r.unwrap_or_else(PoisonError::into_inner)
}

fn with_inner<R>(f: impl FnOnce(&mut Inner) -> R) -> R {
    let mut guard = unpoison(TRACKER.lock());
    f(guard.get_or_insert_with(Inner::fresh))
}

/// Whether a tracing session is active. One relaxed load; every hook
/// bails on `false`, which is why `taskpool` can call them from release
/// builds unconditionally.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The task the calling thread is currently executing. Threads outside
/// any traced task (the session owner between scopes, raw OS threads
/// driving scopes directly) fall back to [`ROOT`]; that is sound because
/// races are detected per task *component*, and sharing the root
/// component can only order accesses through edges the root actually
/// participated in.
fn current_task() -> TaskId {
    TASK_STACK.with(|s| s.borrow().last().copied().unwrap_or(ROOT))
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// An exclusive tracing session. Holding one enables event recording and
/// serializes traced tests within the process; dropping it disables
/// recording. The creating thread becomes the root task.
pub struct Session {
    _guard: MutexGuard<'static, ()>,
}

impl Session {
    /// Acquire the global session (blocking until any other session is
    /// dropped), reset all tracker state, and enable recording.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Session {
        let guard = unpoison(SESSION_LOCK.lock());
        *unpoison(TRACKER.lock()) = Some(Inner::fresh());
        TASK_STACK.with(|s| s.borrow_mut().push(ROOT));
        // Relaxed: every hook that sees `true` still synchronizes on the
        // TRACKER mutex before touching shadow state, and the work a
        // session traces reaches its threads through the pool's queue
        // mutex, which orders this store ahead of the first traced
        // event. A stale `false` merely skips recording a pre-session
        // access (see `enabled()`).
        ENABLED.store(true, Ordering::Relaxed);
        Session { _guard: guard }
    }

    /// Reset every clock, shadow cell, sync clock, and race report while
    /// keeping the session (and its lock) alive — the per-seed reset used
    /// by the schedule explorer.
    pub fn reset(&self) {
        *unpoison(TRACKER.lock()) = Some(Inner::fresh());
    }

    /// Drain and return the races detected since the last reset.
    pub fn take_races(&self) -> Vec<Race> {
        with_inner(|i| std::mem::take(&mut i.races))
    }

    /// Drain and return the lock-order cycles (potential deadlocks)
    /// detected since the last reset.
    pub fn take_deadlocks(&self) -> Vec<LockCycle> {
        with_inner(|i| std::mem::take(&mut i.deadlocks))
    }

    /// Number of distinct acquisition-order edges observed since the
    /// last reset (a sanity signal that lock instrumentation fired).
    pub fn lock_edges(&self) -> usize {
        with_inner(|i| i.lock_edges.len())
    }

    /// Number of access events recorded since the last reset.
    pub fn events(&self) -> u64 {
        with_inner(|i| i.events)
    }

    /// Number of tasks created since the last reset (including the root).
    pub fn tasks(&self) -> usize {
        with_inner(|i| i.clocks.len())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Relaxed: a straggler that still sees `true` records into a
        // tracker the next `Session::new` resets wholesale — harmless.
        ENABLED.store(false, Ordering::Relaxed);
        TASK_STACK.with(|s| {
            let mut st = s.borrow_mut();
            if st.last() == Some(&ROOT) {
                st.pop();
            }
        });
        SESSION_FREE.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Task lifecycle hooks (called by taskpool)
// ---------------------------------------------------------------------------

/// Fork edge: create a child task whose clock starts at the spawner's.
/// Returns `None` when no session is active. The spawner's own clock is
/// bumped afterwards, so accesses it makes *after* the fork are
/// concurrent with the child.
pub fn task_fork() -> Option<TaskId> {
    if !enabled() {
        return None;
    }
    let parent = current_task();
    Some(with_inner(|inner| {
        let child = inner.clocks.len() as TaskId;
        let mut c = inner.clocks[parent as usize].clone();
        c.set(child, 1);
        inner.clocks.push(c);
        inner.clocks[parent as usize].bump(parent);
        child
    }))
}

/// Enter task `t` on the calling thread. Must be balanced by
/// [`task_end`]; nesting (a worker helping with another scope's task
/// mid-wait) is supported by the per-thread stack.
pub fn task_begin(t: TaskId) {
    TASK_STACK.with(|s| s.borrow_mut().push(t));
}

/// Leave task `t` on the calling thread, freezing its clock for the
/// join edge.
pub fn task_end(t: TaskId) {
    TASK_STACK.with(|s| {
        let mut st = s.borrow_mut();
        debug_assert_eq!(st.last(), Some(&t), "unbalanced task_begin/task_end");
        st.pop();
    });
}

/// Join edge: order everything task `t` did before everything the
/// calling task does from here on. Called by the scope barrier once per
/// spawned task.
pub fn task_join(t: TaskId) {
    if !enabled() {
        return;
    }
    let me = current_task();
    with_inner(|inner| {
        if (t as usize) < inner.clocks.len() {
            let child = inner.clocks[t as usize].clone();
            inner.clocks[me as usize].join(&child);
        }
    });
}

// ---------------------------------------------------------------------------
// Access hooks
// ---------------------------------------------------------------------------

fn record(label: &'static str, addr: usize, is_write: bool, ord: Option<SyncOrd>) {
    if !enabled() {
        return;
    }
    let me = current_task();
    with_inner(|inner| inner.record(label, addr, is_write, ord, me));
}

/// A non-atomic read of `*p`.
pub fn plain_read<T>(label: &'static str, p: *const T) {
    record(label, p as usize, false, None);
}

/// A non-atomic write of `*p`.
pub fn plain_write<T>(label: &'static str, p: *const T) {
    record(label, p as usize, true, None);
}

/// An atomic load of `*p` with ordering `ord`.
pub fn atomic_load<T>(label: &'static str, p: *const T, ord: SyncOrd) {
    record(label, p as usize, false, Some(ord));
}

/// An atomic store to `*p` with ordering `ord`.
pub fn atomic_store<T>(label: &'static str, p: *const T, ord: SyncOrd) {
    record(label, p as usize, true, Some(ord));
}

/// An atomic read-modify-write of `*p` with ordering `ord` (the whole
/// RMW is one event: a write access that acquires before the check and
/// releases after it, per `ord`).
pub fn atomic_rmw<T>(label: &'static str, p: *const T, ord: SyncOrd) {
    record(label, p as usize, true, Some(ord));
}

// ---------------------------------------------------------------------------
// Lock-order hooks
// ---------------------------------------------------------------------------

/// Record that the calling thread acquired the lock at address `addr`
/// (call *after* the acquisition succeeds). For every lock the thread
/// already holds, an acquisition-order edge `held → addr` is added to
/// the global graph; an edge that closes a cycle produces a
/// [`LockCycle`] report immediately — the deadlock does not have to
/// manifest. `#[track_caller]` makes the recorded site the caller's
/// `file:line`, and instrumentation wrappers (like
/// `serve::lock::recover`) that are themselves `#[track_caller]`
/// report their own caller's site.
///
/// Must be balanced by [`lock_released`]. No-op without a session.
#[track_caller]
pub fn lock_acquired(name: &'static str, addr: usize) {
    if !enabled() {
        return;
    }
    let loc = std::panic::Location::caller();
    let site = LockSite {
        name,
        file: loc.file(),
        line: loc.line(),
    };
    let held: Vec<(usize, LockSite)> = HELD_LOCKS.with(|h| h.borrow().clone());
    if !held.is_empty() {
        with_inner(|inner| {
            for (held_addr, held_site) in &held {
                inner.lock_edge(
                    *held_addr,
                    addr,
                    LockEdge {
                        held: *held_site,
                        acquired: site,
                    },
                );
            }
        });
    }
    HELD_LOCKS.with(|h| h.borrow_mut().push((addr, site)));
}

/// Record that the calling thread released the lock at `addr` (call
/// when the guard drops). Removes the most recent matching entry from
/// the held set; tolerates an entry missing (the lock may have been
/// acquired before the session started).
pub fn lock_released(addr: usize) {
    HELD_LOCKS.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|(a, _)| *a == addr) {
            held.remove(pos);
        }
    });
}

// ---------------------------------------------------------------------------
// Traced atomics
// ---------------------------------------------------------------------------

/// An `AtomicUsize` whose operations are recorded in the tracker *while
/// holding the tracker lock*, so the recorded event order matches the
/// real modification order even under genuine hardware concurrency.
/// Used by the taskpool stress suite so it doubles as a racecheck smoke
/// test. Operations use `AcqRel`/`Acquire`/`Release` orderings — the
/// discipline the checker certifies.
#[derive(Debug, Default)]
pub struct TracedUsize {
    cell: AtomicUsize,
}

impl TracedUsize {
    /// A new counter starting at `v`.
    pub const fn new(v: usize) -> TracedUsize {
        TracedUsize {
            cell: AtomicUsize::new(v),
        }
    }

    fn traced<R>(&self, is_write: bool, ord: SyncOrd, op: impl FnOnce(&AtomicUsize) -> R) -> R {
        if !enabled() {
            return op(&self.cell);
        }
        let me = current_task();
        let addr = &self.cell as *const AtomicUsize as usize;
        let mut guard = unpoison(TRACKER.lock());
        let inner = guard.get_or_insert_with(Inner::fresh);
        // The real operation runs under the tracker lock so the event
        // sequence observed by the checker is the true one.
        inner.events += 1;
        if ord.acquires() {
            if let Some(sc) = inner.sync.get(&addr) {
                let sc = sc.clone();
                inner.clocks[me as usize].join(&sc);
            }
        }
        let r = op(&self.cell);
        inner.record("TracedUsize", addr, is_write, None, me);
        inner.events -= 1; // record() bumped it again; count the op once
        if ord.releases() {
            let myc = inner.clocks[me as usize].clone();
            inner.sync.entry(addr).or_default().join(&myc);
            inner.clocks[me as usize].bump(me);
        }
        r
    }

    /// `fetch_add` with `AcqRel` ordering, traced as an RMW.
    pub fn fetch_add(&self, v: usize) -> usize {
        self.traced(true, SyncOrd::AcqRel, |c| c.fetch_add(v, Ordering::AcqRel))
    }

    /// `load` with `Acquire` ordering, traced as an atomic read.
    pub fn load(&self) -> usize {
        self.traced(false, SyncOrd::Acquire, |c| c.load(Ordering::Acquire))
    }

    /// `store` with `Release` ordering, traced as an atomic write.
    pub fn store(&self, v: usize) {
        self.traced(true, SyncOrd::Release, |c| c.store(v, Ordering::Release))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate a spawned task on the current thread: fork, run, end.
    fn as_task<R>(f: impl FnOnce() -> R) -> (TaskId, R) {
        let t = task_fork().expect("session active");
        task_begin(t);
        let r = f();
        task_end(t);
        (t, r)
    }

    #[test]
    fn ordered_fork_join_accesses_are_clean() {
        let s = Session::new();
        let x = 0u64;
        plain_write("x", &x);
        let (t, ()) = as_task(|| plain_write("x", &x));
        task_join(t);
        plain_read("x", &x);
        assert!(s.take_races().is_empty());
        assert!(s.events() >= 3);
    }

    #[test]
    fn unordered_sibling_writes_race() {
        let s = Session::new();
        let x = 0u64;
        // Two forked tasks, neither joined before the other runs: their
        // clocks are incomparable, so the writes conflict.
        let (a, ()) = as_task(|| plain_write("x", &x));
        let (b, ()) = as_task(|| plain_write("x", &x));
        task_join(a);
        task_join(b);
        let races = s.take_races();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind, "write-write");
        assert_eq!(races[0].label, "x");
    }

    #[test]
    fn concurrent_reads_do_not_race_but_a_late_write_does() {
        let s = Session::new();
        let x = 0u64;
        let (a, ()) = as_task(|| plain_read("x", &x));
        let (b, ()) = as_task(|| plain_read("x", &x));
        assert!(s.take_races().is_empty());
        // A third sibling writes without being ordered after the readers.
        let (c, ()) = as_task(|| plain_write("x", &x));
        let races = s.take_races();
        assert_eq!(races.len(), 2, "one read-write per unordered reader: {races:?}");
        assert!(races.iter().all(|r| r.kind == "read-write"));
        task_join(a);
        task_join(b);
        task_join(c);
    }

    #[test]
    fn acqrel_rmw_chain_orders_siblings_but_relaxed_does_not() {
        let s = Session::new();
        let cell = 0u64;
        let (a, ()) = as_task(|| atomic_rmw("cell", &cell, SyncOrd::AcqRel));
        let (b, ()) = as_task(|| atomic_rmw("cell", &cell, SyncOrd::AcqRel));
        task_join(a);
        task_join(b);
        assert!(s.take_races().is_empty(), "AcqRel RMWs chain through the sync clock");

        s.reset();
        let (a, ()) = as_task(|| atomic_rmw("cell", &cell, SyncOrd::Relaxed));
        let (b, ()) = as_task(|| atomic_rmw("cell", &cell, SyncOrd::Relaxed));
        task_join(a);
        task_join(b);
        let races = s.take_races();
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].kind, "write-write");
    }

    #[test]
    fn release_store_then_acquire_load_orders_a_dependent_plain_access() {
        let s = Session::new();
        let flag = 0u64;
        let data = 0u64;
        // Writer task: plain write, then release store (publish).
        let (w, ()) = as_task(|| {
            plain_write("data", &data);
            atomic_store("flag", &flag, SyncOrd::Release);
        });
        // Reader task: acquire load, then plain read — ordered through
        // the sync clock even though the tasks are never joined first.
        let (r, ()) = as_task(|| {
            atomic_load("flag", &flag, SyncOrd::Acquire);
            plain_read("data", &data);
        });
        task_join(w);
        task_join(r);
        assert!(s.take_races().is_empty());
    }

    #[test]
    fn post_join_relaxed_access_is_ordered_by_the_join_edge() {
        // The atomic-request-vector bookkeeping pattern: workers RMW with
        // AcqRel during the phase; after the join barrier the main task
        // reads and resets the cells with Relaxed — clean, because the
        // join edge already ordered the workers' accesses.
        let s = Session::new();
        let cell = 0u64;
        let (a, ()) = as_task(|| atomic_rmw("cell", &cell, SyncOrd::AcqRel));
        task_join(a);
        atomic_load("cell", &cell, SyncOrd::Relaxed);
        atomic_store("cell", &cell, SyncOrd::Relaxed);
        assert!(s.take_races().is_empty());
    }

    #[test]
    fn reset_clears_races_and_state() {
        let s = Session::new();
        let x = 0u64;
        let (_a, ()) = as_task(|| plain_write("x", &x));
        let (_b, ()) = as_task(|| plain_write("x", &x));
        assert!(!s.take_races().is_empty());
        s.reset();
        assert!(s.take_races().is_empty());
        assert_eq!(s.events(), 0);
        assert_eq!(s.tasks(), 1);
    }

    #[test]
    fn traced_usize_siblings_are_clean_and_count_correctly() {
        let s = Session::new();
        let c = TracedUsize::new(0);
        let (a, ()) = as_task(|| {
            c.fetch_add(2);
        });
        let (b, ()) = as_task(|| {
            c.fetch_add(3);
        });
        task_join(a);
        task_join(b);
        assert_eq!(c.load(), 5);
        assert!(s.take_races().is_empty());
    }

    #[test]
    fn hooks_are_noops_without_a_session() {
        // Hold the lock a `Session` would, so none opens next to this.
        let _no_session = unpoison(SESSION_LOCK.lock());
        assert!(!enabled());
        assert!(task_fork().is_none());
        let x = 0u64;
        plain_write("x", &x); // must not record or panic
        let c = TracedUsize::new(1);
        assert_eq!(c.fetch_add(1), 1);
        assert_eq!(c.load(), 2);
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let s = Session::new();
        let (a, b) = (0x1000usize, 0x2000usize);
        for _ in 0..3 {
            lock_acquired("a", a);
            lock_acquired("b", b);
            lock_released(b);
            lock_released(a);
        }
        assert_eq!(s.lock_edges(), 1, "one distinct a→b edge");
        assert!(s.take_deadlocks().is_empty());
    }

    #[test]
    fn ab_ba_closes_a_cycle_with_both_witnesses() {
        let s = Session::new();
        let (a, b) = (0x1000usize, 0x2000usize);
        lock_acquired("alpha", a);
        lock_acquired("beta", b); // edge alpha→beta
        lock_released(b);
        lock_released(a);
        assert!(s.take_deadlocks().is_empty(), "one direction alone is fine");
        lock_acquired("beta", b);
        lock_acquired("alpha", a); // edge beta→alpha closes the cycle
        lock_released(a);
        lock_released(b);
        let dl = s.take_deadlocks();
        assert_eq!(dl.len(), 1, "{dl:?}");
        let cycle = &dl[0];
        assert_eq!(cycle.edges.len(), 2);
        // The closing edge comes first, then the path back.
        assert_eq!(cycle.edges[0].held.name, "beta");
        assert_eq!(cycle.edges[0].acquired.name, "alpha");
        assert_eq!(cycle.edges[1].held.name, "alpha");
        assert_eq!(cycle.edges[1].acquired.name, "beta");
        // Witness sites are this file's acquisition lines.
        assert_eq!(cycle.edges[0].held.file, file!());
        assert!(cycle.edges[0].held.line > 0);
        let shown = cycle.to_string();
        assert!(shown.contains("`beta`") && shown.contains("`alpha`"), "{shown}");
    }

    #[test]
    fn three_lock_cycle_is_reported_once() {
        let s = Session::new();
        let (a, b, c) = (0x1usize, 0x2usize, 0x3usize);
        let pair = |x: (&'static str, usize), y: (&'static str, usize)| {
            lock_acquired(x.0, x.1);
            lock_acquired(y.0, y.1);
            lock_released(y.1);
            lock_released(x.1);
        };
        pair(("a", a), ("b", b));
        pair(("b", b), ("c", c));
        assert!(s.take_deadlocks().is_empty());
        pair(("c", c), ("a", a));
        let dl = s.take_deadlocks();
        assert_eq!(dl.len(), 1, "{dl:?}");
        assert_eq!(dl[0].edges.len(), 3);
        assert_eq!(s.lock_edges(), 3);
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_cycle() {
        let s = Session::new();
        lock_acquired("m", 0x42);
        lock_acquired("m", 0x42);
        lock_released(0x42);
        lock_released(0x42);
        let dl = s.take_deadlocks();
        assert_eq!(dl.len(), 1, "{dl:?}");
        assert_eq!(dl[0].edges.len(), 1);
        assert_eq!(dl[0].edges[0].held.name, "m");
    }

    #[test]
    fn lock_hooks_are_noops_without_a_session() {
        // Hold the lock a `Session` would, so none opens next to this;
        // release it before opening our own.
        let no_session = unpoison(SESSION_LOCK.lock());
        assert!(!enabled());
        lock_acquired("x", 0x7);
        lock_released(0x7); // must not panic, and must not leak held state
        drop(no_session);
        let s = Session::new();
        lock_acquired("y", 0x8);
        lock_released(0x8);
        assert!(s.take_deadlocks().is_empty());
        assert_eq!(s.lock_edges(), 0, "no held locks, no edges");
    }

    #[test]
    fn reset_clears_the_lock_graph() {
        let s = Session::new();
        lock_acquired("a", 0x1);
        lock_acquired("b", 0x2);
        lock_released(0x2);
        lock_released(0x1);
        assert_eq!(s.lock_edges(), 1);
        s.reset();
        assert_eq!(s.lock_edges(), 0);
        assert!(s.take_deadlocks().is_empty());
    }

    #[test]
    fn race_cap_bounds_memory() {
        let s = Session::new();
        let xs: Vec<u64> = vec![0; MAX_RACES * 2];
        let (_a, ()) = as_task(|| {
            for x in &xs {
                plain_write("xs", x);
            }
        });
        let (_b, ()) = as_task(|| {
            for x in &xs {
                plain_write("xs", x);
            }
        });
        assert_eq!(s.take_races().len(), MAX_RACES);
    }
}
