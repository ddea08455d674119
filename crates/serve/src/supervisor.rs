//! Worker supervision for the resident service: the state machine that
//! turns "a worker panicked once" from a process-lifetime degradation
//! into a transient, observable incident.
//!
//! Each engine worker owns one **slot**. Slots walk a four-state
//! machine:
//!
//! ```text
//! healthy ──panic──▶ poisoned ──cooldown·2^recycles──▶ recycled (healthy,
//!    ▲                  │                               fresh thread)
//!    └──────────────────┘
//! poisoned ──recycles ≥ max_recycles──▶ permanently-degraded
//! ```
//!
//! * **healthy** — the worker serves the requested implementation.
//! * **poisoned** — the worker saw a typed panic marker
//!   ([`JobOutcome`](sssp_core::batch::JobOutcome) `degraded_by_panic` /
//!   `WorkerPanicked`) and retired itself; no thread serves the slot while the
//!   exponential-backoff cooldown runs.
//! * **recycled** — the supervisor spawned a fresh worker thread (new
//!   generation) into the slot; service of the requested implementation
//!   resumes.
//! * **permanently-degraded** — the slot poisoned more than
//!   [`SupervisorConfig::max_recycles`] times; its worker keeps serving,
//!   sticky on the sequential-fused path, and stops being recycled (the
//!   escape hatch for a workload that panics deterministically).
//!
//! The supervisor also runs the **job heartbeat watchdog**: every
//! running job registers its [`CancelToken`] and a [`ProgressGauge`]
//! that the job's [`RunBudget`](sssp_core::RunBudget) bumps at each
//! epoch check. A job whose gauge stops advancing for
//! [`SupervisorConfig::heartbeat_grace`] (and which is past any
//! wall-clock deadline it carries) is cancelled through its token — the
//! run stops at the next epoch boundary with a certified partial — and
//! the worker is treated as suspect. A worker that does not even reach
//! the next epoch boundary (truly wedged inside a kernel) is abandoned:
//! its slot is re-poisoned and respawned, and the stale thread's later
//! reports are ignored by generation check.
//!
//! Every transition is decided by the pure
//! [`SlotCore`](crate::proto::slot::SlotCore) (on `u64` millisecond
//! ticks, which is what lets `crates/modelcheck` drive it exhaustively);
//! this wrapper owns the `Instant` clock, the cancel tokens, and the
//! progress gauges. The driving thread (spawned by `server::start`)
//! ticks [`Supervisor::scan`] and [`Supervisor::claim_respawns`].

use std::sync::Mutex; // lint:allow(hot-path-lock): supervisor control plane, touched per job transition and per tick, never per edge relaxation
use std::time::{Duration, Instant};

use sssp_core::budget::{CancelToken, ProgressGauge};

use crate::lock;
use crate::proto::slot::{ScanVerdict, SlotCore};

pub use crate::proto::slot::{PoisonVerdict, SlotHealth};

/// Tunables for worker recycling and the job heartbeat watchdog.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Base cooldown before a poisoned slot is recycled; doubles per
    /// recycle already served (exponential backoff).
    pub cooldown: Duration,
    /// After this many recycles, the next poisoning is permanent: the
    /// slot keeps its degraded worker and is never recycled again.
    pub max_recycles: u32,
    /// How long a running job's progress gauge may stand still (past
    /// its deadline, if it has one) before the watchdog cancels it.
    pub heartbeat_grace: Duration,
    /// How often the supervisor thread ticks.
    pub watchdog_interval: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            cooldown: Duration::from_millis(200),
            max_recycles: 5,
            // Generous by default: epochs are sub-second on everything
            // the service is sized for, and a false stall verdict
            // cancels real work.
            heartbeat_grace: Duration::from_secs(5),
            watchdog_interval: Duration::from_millis(20),
        }
    }
}

/// One slot: the pure decision core plus the real-world levers the
/// verdicts act on.
#[derive(Debug)]
struct Slot {
    core: SlotCore,
    /// The active job's cancel lever, present iff `core.active` is.
    token: Option<CancelToken>,
    /// The active job's heartbeat source, present iff `core.active` is.
    gauge: Option<ProgressGauge>,
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Slot>,
    recycles_total: u64,
    watchdog_cancelled: u64,
}

/// Aggregate health, the payload behind the `HEALTH` wire op and the
/// supervision STATS gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthCounts {
    /// Total worker slots.
    pub workers: u64,
    /// Slots with a live worker on the requested implementation.
    pub healthy: u64,
    /// Slots waiting out a post-panic cooldown.
    pub poisoned: u64,
    /// Slots pinned to sequential-fused forever.
    pub permanently_degraded: u64,
    /// Respawns performed over the process lifetime.
    pub recycles_total: u64,
    /// Jobs the heartbeat watchdog cancelled.
    pub watchdog_cancelled: u64,
}

/// The supervision state shared by workers, the supervisor thread, and
/// the wire front end. See the module docs for the state machine.
#[derive(Debug)]
pub struct Supervisor {
    cfg: SupervisorConfig,
    /// Anchor for the `Instant` → tick conversion the cores run on.
    epoch: Instant,
    inner: Mutex<Inner>, // lint:allow(hot-path-lock): control plane, per-job not per-edge
}

impl Supervisor {
    /// A supervisor over `workers` healthy slots.
    pub fn new(workers: usize, cfg: SupervisorConfig) -> Self {
        Supervisor {
            cfg,
            epoch: Instant::now(),
            // lint:allow(hot-path-lock): control plane, per-job not per-edge
            inner: Mutex::new(Inner {
                slots: (0..workers.max(1))
                    .map(|_| Slot {
                        core: SlotCore::new(0),
                        token: None,
                        gauge: None,
                    })
                    .collect(),
                recycles_total: 0,
                watchdog_cancelled: 0,
            }),
        }
    }

    /// Millisecond ticks since construction — the time base the pure
    /// cores run on.
    fn ticks(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.epoch).as_millis() as u64
    }

    /// The active tunables.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Number of slots.
    pub fn workers(&self) -> usize {
        lock::recover("supervisor.inner", &self.inner).slots.len()
    }

    /// A worker observed a typed panic marker on `slot`. Returns what
    /// the worker must do; see [`PoisonVerdict`].
    pub fn report_poisoned(&self, slot: usize, generation: u64, reason: &str) -> PoisonVerdict {
        let now = self.ticks(Instant::now());
        let mut inner = lock::recover("supervisor.inner", &self.inner);
        let s = &mut inner.slots[slot];
        let verdict = s.core.report_poisoned(generation, now, self.cfg.max_recycles, reason);
        if s.core.active.is_none() {
            s.token = None;
            s.gauge = None;
        }
        verdict
    }

    /// Claim every poisoned slot whose backoff has elapsed: each is
    /// transitioned back to `Healthy` under a fresh generation, and the
    /// caller must spawn a worker thread for each `(slot, generation)`
    /// returned.
    pub fn claim_respawns(&self, now: Instant) -> Vec<(usize, u64)> {
        let now = self.ticks(now);
        let cooldown = self.cfg.cooldown.as_millis() as u64;
        let mut inner = lock::recover("supervisor.inner", &self.inner);
        let mut due = Vec::new();
        let mut recycled = 0u64;
        for (idx, s) in inner.slots.iter_mut().enumerate() {
            if let Some(generation) = s.core.claim_respawn(now, cooldown) {
                s.token = None;
                s.gauge = None;
                recycled += 1;
                due.push((idx, generation));
            }
        }
        inner.recycles_total += recycled;
        due
    }

    /// Register a job that just started executing on `slot`. The token
    /// is the job's own cancel lever; the gauge is bumped by the job's
    /// budget checks.
    pub fn job_started(
        &self,
        slot: usize,
        generation: u64,
        token: CancelToken,
        progress: ProgressGauge,
        deadline: Option<Duration>,
    ) {
        let now = self.ticks(Instant::now());
        let deadline = deadline.map(|d| d.as_millis() as u64);
        let mut inner = lock::recover("supervisor.inner", &self.inner);
        let s = &mut inner.slots[slot];
        if s.core.job_started(generation, now, deadline) {
            s.token = Some(token);
            s.gauge = Some(progress);
        }
    }

    /// Deregister `slot`'s job; returns whether the watchdog cancelled
    /// it (the worker should then treat itself as suspect and report
    /// poisoning).
    pub fn job_finished(&self, slot: usize, generation: u64) -> bool {
        let mut inner = lock::recover("supervisor.inner", &self.inner);
        let s = &mut inner.slots[slot];
        let cancelled = s.core.job_finished(generation);
        if s.core.active.is_none() {
            s.token = None;
            s.gauge = None;
        }
        cancelled
    }

    /// One watchdog pass over every active job:
    ///
    /// * progress advanced → note it, all good;
    /// * stalled past `heartbeat_grace` (and past the job's deadline,
    ///   when it carries one) → cancel through the job's token;
    /// * *still* stalled a full grace after the cancel → the worker is
    ///   not even reaching its next budget check: abandon it (poison the
    ///   slot so [`Supervisor::claim_respawns`] replaces the thread; the
    ///   wedged thread's eventual report is ignored by generation).
    pub fn scan(&self, now: Instant) {
        let now = self.ticks(now);
        let grace = self.cfg.heartbeat_grace.as_millis() as u64;
        let mut inner = lock::recover("supervisor.inner", &self.inner);
        let mut cancelled = 0u64;
        for s in inner.slots.iter_mut() {
            let progress = match (&s.core.active, &s.gauge) {
                (Some(_), Some(g)) => g.get(),
                _ => continue,
            };
            match s.core.scan(now, progress, grace) {
                ScanVerdict::Ok => {}
                ScanVerdict::Cancel => {
                    if let Some(token) = &s.token {
                        token.cancel();
                    }
                    cancelled += 1;
                }
                ScanVerdict::Abandon => {
                    s.token = None;
                    s.gauge = None;
                }
            }
        }
        inner.watchdog_cancelled += cancelled;
    }

    /// Cancel every active job (graceful drain: in-flight work stops at
    /// the next epoch boundary as certified partials).
    pub fn cancel_active(&self) {
        let inner = lock::recover("supervisor.inner", &self.inner);
        for s in &inner.slots {
            if let (Some(_), Some(token)) = (&s.core.active, &s.token) {
                token.cancel();
            }
        }
    }

    /// Aggregate counts for HEALTH/STATS.
    pub fn health(&self) -> HealthCounts {
        let inner = lock::recover("supervisor.inner", &self.inner);
        let mut counts = HealthCounts {
            workers: inner.slots.len() as u64,
            recycles_total: inner.recycles_total,
            watchdog_cancelled: inner.watchdog_cancelled,
            ..HealthCounts::default()
        };
        for s in &inner.slots {
            match s.core.health {
                SlotHealth::Healthy => counts.healthy += 1,
                SlotHealth::Poisoned => counts.poisoned += 1,
                SlotHealth::PermanentlyDegraded => counts.permanently_degraded += 1,
            }
        }
        counts
    }

    /// Whether `generation` is still the live generation of `slot`. A
    /// worker abandoned by the watchdog discovers here that it was
    /// replaced and must exit instead of competing with its successor.
    pub fn is_current(&self, slot: usize, generation: u64) -> bool {
        lock::recover("supervisor.inner", &self.inner).slots[slot].core.generation == generation
    }

    /// The health of one slot (tests and diagnostics).
    pub fn slot_health(&self, slot: usize) -> SlotHealth {
        lock::recover("supervisor.inner", &self.inner).slots[slot].core.health
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> SupervisorConfig {
        SupervisorConfig {
            cooldown: Duration::from_millis(10),
            max_recycles: 2,
            heartbeat_grace: Duration::from_millis(30),
            watchdog_interval: Duration::from_millis(5),
        }
    }

    #[test]
    fn poison_retire_recycle_walks_the_state_machine() {
        let sup = Supervisor::new(1, fast_cfg());
        assert_eq!(sup.slot_health(0), SlotHealth::Healthy);
        assert_eq!(sup.report_poisoned(0, 0, "boom"), PoisonVerdict::Retire);
        assert_eq!(sup.slot_health(0), SlotHealth::Poisoned);
        // Not due before the cooldown.
        assert!(sup.claim_respawns(Instant::now()).is_empty());
        std::thread::sleep(Duration::from_millis(15));
        let due = sup.claim_respawns(Instant::now());
        assert_eq!(due, vec![(0, 1)]);
        assert_eq!(sup.slot_health(0), SlotHealth::Healthy);
        let counts = sup.health();
        assert_eq!(counts.recycles_total, 1);
        assert_eq!(counts.healthy, 1);
    }

    #[test]
    fn backoff_doubles_and_caps_at_permanent_degradation() {
        let sup = Supervisor::new(1, fast_cfg());
        // Recycle twice (max_recycles = 2), with the second cooldown
        // observably longer than the first.
        assert_eq!(sup.report_poisoned(0, 0, "p1"), PoisonVerdict::Retire);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(sup.claim_respawns(Instant::now()), vec![(0, 1)]);
        assert_eq!(sup.report_poisoned(0, 1, "p2"), PoisonVerdict::Retire);
        std::thread::sleep(Duration::from_millis(15));
        // One recycle served → backoff is 2×10ms; 15ms is not enough.
        assert!(sup.claim_respawns(Instant::now()).is_empty());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(sup.claim_respawns(Instant::now()), vec![(0, 2)]);
        // Third poisoning: recycles (2) ≥ max_recycles (2) → permanent.
        assert_eq!(sup.report_poisoned(0, 2, "p3"), PoisonVerdict::KeepServing);
        assert_eq!(sup.slot_health(0), SlotHealth::PermanentlyDegraded);
        std::thread::sleep(Duration::from_millis(80));
        assert!(sup.claim_respawns(Instant::now()).is_empty(), "permanent slots never respawn");
        let counts = sup.health();
        assert_eq!(counts.permanently_degraded, 1);
        assert_eq!(counts.recycles_total, 2);
    }

    #[test]
    fn stale_generation_reports_are_ignored() {
        let sup = Supervisor::new(2, fast_cfg());
        assert_eq!(sup.report_poisoned(1, 0, "boom"), PoisonVerdict::Retire);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(sup.claim_respawns(Instant::now()), vec![(1, 1)]);
        // The retired generation-0 thread reports again: told to go
        // away, and the live slot stays healthy.
        assert_eq!(sup.report_poisoned(1, 0, "late echo"), PoisonVerdict::Retire);
        assert_eq!(sup.slot_health(1), SlotHealth::Healthy);
        // Its job bookkeeping is ignored too.
        sup.job_started(1, 0, CancelToken::new(), ProgressGauge::new(), None);
        assert_eq!(sup.health().healthy, 2);
        assert!(!sup.job_finished(1, 0));
    }

    #[test]
    fn watchdog_cancels_a_stalled_job_then_abandons_a_wedged_worker() {
        let sup = Supervisor::new(1, fast_cfg());
        let token = CancelToken::new();
        let gauge = ProgressGauge::new();
        sup.job_started(0, 0, token.clone(), gauge.clone(), Some(Duration::from_millis(1)));
        let t0 = Instant::now();
        // Advancing progress is never cancelled, no matter how long it
        // runs past its deadline.
        for tick in 1..=3u64 {
            gauge.publish(tick);
            sup.scan(t0 + Duration::from_millis(40 * tick));
            assert!(!token.is_cancelled());
        }
        // Now the gauge stands still (last advance seen at t0+120ms):
        // the job survives inside the grace window and is cancelled
        // through its token once the stall exceeds it.
        sup.scan(t0 + Duration::from_millis(140));
        assert!(!token.is_cancelled(), "stall shorter than grace is tolerated");
        sup.scan(t0 + Duration::from_millis(160));
        assert!(token.is_cancelled(), "stalled past grace and deadline");
        assert_eq!(sup.health().watchdog_cancelled, 1);
        // The cooperative path: the worker notices at its next epoch
        // boundary and job_finished reports the watchdog verdict.
        assert!(sup.job_finished(0, 0));

        // The wedged path: a second job stalls, is cancelled, and never
        // reaches another budget check — the slot is abandoned.
        let token2 = CancelToken::new();
        sup.job_started(0, 0, token2.clone(), ProgressGauge::new(), None);
        let t1 = Instant::now();
        sup.scan(t1 + Duration::from_millis(40));
        assert!(token2.is_cancelled());
        assert_eq!(sup.slot_health(0), SlotHealth::Healthy);
        sup.scan(t1 + Duration::from_millis(80));
        assert_eq!(sup.slot_health(0), SlotHealth::Poisoned, "wedged worker abandoned");
    }

    #[test]
    fn cancel_active_hits_every_running_job() {
        let sup = Supervisor::new(3, SupervisorConfig::default());
        let tokens: Vec<CancelToken> = (0..3).map(|_| CancelToken::new()).collect();
        for (slot, token) in tokens.iter().enumerate() {
            sup.job_started(slot, 0, token.clone(), ProgressGauge::new(), None);
        }
        sup.cancel_active();
        for token in &tokens {
            assert!(token.is_cancelled());
        }
    }
}
