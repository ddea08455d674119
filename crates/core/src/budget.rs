//! Cooperative run budgets: deadline + cancellation + epoch limit.
//!
//! The stepping loop calls [`RunBudget::check`] once per extraction and
//! once per light-relaxation round, so *all* stop conditions observe the
//! same epoch granularity:
//!
//! * **cancellation** — a [`CancelToken`] flipped from another thread
//!   (an impatient caller, an admission controller shedding load);
//! * **deadline** — a wall-clock [`Instant`] after which the run must
//!   stop (latency SLOs);
//! * **epoch budget** — an iteration limit derived from the theoretical
//!   maximum for a valid input ([`RunBudget::for_run`]), guarding against
//!   malformed inputs that never converge.
//!
//! A tripped budget does not discard the work done so far: the loop
//! catches the [`BudgetStop`] and wraps its state into a
//! [`Checkpoint`](crate::checkpoint::Checkpoint) carried inside the
//! returned [`SsspError`](crate::guard::SsspError), certifying every
//! distance below the current bound as final (the delta-stepping
//! settled-bucket invariant) and allowing a bit-identical resume. The
//! paper-figure variants take no budget (see [`crate::run`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdata::CsrGraph;

use crate::guard::GuardConfig;
use crate::prepared::PreparedGraph;

/// A shareable cancellation flag. Cloning is cheap (one `Arc`); any clone
/// can [`cancel`](CancelToken::cancel) and every holder observes it at
/// its next epoch boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; takes effect at the next epoch
    /// boundary of every run holding a clone of this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A shareable epoch-progress gauge: the run publishes its tick count at
/// every [`RunBudget::check`], and an external watchdog (the serve
/// supervisor) reads it to tell a slow-but-advancing job from a wedged
/// one. Cloning is cheap (one `Arc`); the gauge carries no data other
/// than the monotone counter, so `Relaxed` ordering suffices — a stale
/// read only delays a stall verdict by one scan.
#[derive(Debug, Clone, Default)]
pub struct ProgressGauge(Arc<AtomicU64>);

impl ProgressGauge {
    /// A fresh gauge reading zero.
    pub fn new() -> Self {
        ProgressGauge::default()
    }

    /// Publish an epoch count. Normally called from
    /// [`RunBudget::check`]; public so watchdog tests can script a
    /// gauge's trajectory directly.
    pub fn publish(&self, ticks: u64) {
        self.0.store(ticks, Ordering::Relaxed);
    }

    /// The last published epoch count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a budget stopped a run. Checked in this order: cancellation, then
/// deadline, then the epoch limit — so a run that is both cancelled and
/// past its deadline reports the cancellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetStop {
    /// The [`CancelToken`] was flipped (or a test-armed tick trigger
    /// fired).
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The epoch budget ran out.
    IterationLimit {
        /// Epochs recorded when the budget tripped.
        ticks: u64,
        /// The exhausted epoch budget.
        limit: u64,
    },
}

/// Deadline + cancellation token + epoch budget, checked cooperatively at
/// every bucket-epoch and light-phase boundary:
///
/// ```
/// use graphdata::{gen::grid2d, CsrGraph};
/// use sssp_core::stepping::{stepping_checked, SteppingStrategy};
/// use sssp_core::{budget::RunBudget, GuardConfig};
///
/// let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
/// let mut budget = RunBudget::for_run(&g, 1.0, &GuardConfig::default());
/// let (r, _) =
///     stepping_checked(&g, 0, 1.0, SteppingStrategy::Classic, None, &mut budget).unwrap();
/// assert_eq!(r.dist[15], 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct RunBudget {
    /// Epochs recorded so far.
    ticks: u64,
    /// The epoch budget: [`RunBudget::check`] trips once `ticks` exceeds
    /// it.
    limit: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Deterministic cancellation for tests: report [`BudgetStop::Cancelled`]
    /// once this many checks have passed.
    cancel_after_ticks: Option<u64>,
    /// Epoch-progress gauge published at every check (see
    /// [`ProgressGauge`]); `None` costs nothing.
    progress: Option<ProgressGauge>,
}

impl RunBudget {
    /// A budget that never stops a run — the unchecked entry points'
    /// "garbage in, garbage out" contract.
    pub fn unlimited() -> Self {
        RunBudget::with_limit(u64::MAX)
    }

    /// A budget with only an epoch limit (no deadline, no cancellation).
    pub fn with_limit(limit: u64) -> Self {
        RunBudget {
            ticks: 0,
            limit,
            deadline: None,
            cancel: None,
            cancel_after_ticks: None,
            progress: None,
        }
    }

    /// The standard checked-run budget: no deadline, no cancellation, and
    /// an epoch limit derived from the theoretical maxima for running on
    /// `g` with bucket width `delta`:
    ///
    /// * the largest finite distance is at most `(|V| − 1) · max_w`, so
    ///   at most `⌈(|V| − 1) · max_w / Δ⌉ + 1` bucket indices exist;
    /// * each bucket is processed with one heavy phase and at most
    ///   `|members| + 1` light phases, so light phases sum to at most
    ///   `|V|` plus one per processed bucket.
    ///
    /// The combined bound, plus [`GuardConfig::tick_slack`], is clamped
    /// to [`GuardConfig::max_ticks`].
    pub fn for_run(g: &CsrGraph, delta: f64, cfg: &GuardConfig) -> Self {
        RunBudget::with_limit(epoch_limit(g.num_vertices(), g.max_weight(), delta, cfg))
    }

    /// The standard *job* budget shared by the batch runner and the serve
    /// front end: the [`RunBudget::for_run`] epoch limit plus an optional
    /// per-job deadline (counted from now, i.e. from job start — queue
    /// wait must not consume it, so callers build this when the job
    /// begins executing) and an optional cancellation token.
    pub fn for_job(
        g: &CsrGraph,
        delta: f64,
        cfg: &GuardConfig,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> Self {
        RunBudget::for_run(g, delta, cfg).with_job_stops(deadline, cancel)
    }

    /// [`RunBudget::for_job`] on a prepared graph: the epoch limit comes
    /// from the maximum weight [`PreparedGraph`] took at preparation, so
    /// building a job's budget makes no pass over the weights.
    pub fn for_prepared_job(
        prep: &PreparedGraph<'_>,
        delta: f64,
        cfg: &GuardConfig,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> Self {
        RunBudget::with_limit(prep.epoch_limit(delta, cfg)).with_job_stops(deadline, cancel)
    }

    fn with_job_stops(mut self, deadline: Option<Duration>, cancel: Option<&CancelToken>) -> Self {
        if let Some(deadline) = deadline {
            self = self.with_timeout(deadline);
        }
        if let Some(token) = cancel {
            self = self.with_cancel(token.clone());
        }
        self
    }

    /// Add an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Add a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400 * 365));
        self.with_deadline(deadline)
    }

    /// Attach a cancellation token (a clone; the caller keeps the original
    /// to flip).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach an epoch-progress gauge (a clone; the caller keeps the
    /// original to poll). Every [`RunBudget::check`] publishes the tick
    /// count through it, so an external watchdog can distinguish a slow
    /// job from a wedged one.
    pub fn with_progress(mut self, gauge: ProgressGauge) -> Self {
        self.progress = Some(gauge);
        self
    }

    /// Deterministic test hook: behave as if the cancel token flipped
    /// after `n` successful checks (`n = 0` → the very first check
    /// reports [`BudgetStop::Cancelled`]).
    pub fn cancel_after(mut self, n: u64) -> Self {
        self.cancel_after_ticks = Some(n);
        self
    }

    /// A fresh budget for a degraded retry of the same run: the deadline
    /// and cancellation token carry over (the caller's SLO does not reset
    /// because a worker panicked), but the epoch count restarts under
    /// `limit` (the run's [`PreparedGraph::epoch_limit`]).
    pub fn retry_budget(&self, limit: u64) -> Self {
        RunBudget {
            ticks: 0,
            limit,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            cancel_after_ticks: None,
            progress: self.progress.clone(),
        }
    }

    /// Record one epoch and evaluate every stop condition. The order is
    /// cancellation → deadline → epoch limit (see [`BudgetStop`]).
    ///
    /// Cost when nothing is armed: one counter increment and three branch
    /// tests; `Instant::now()` is only taken when a deadline exists.
    #[inline]
    pub fn check(&mut self) -> Result<(), BudgetStop> {
        self.ticks += 1;
        if let Some(gauge) = &self.progress {
            gauge.publish(self.ticks);
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(BudgetStop::Cancelled);
            }
        }
        if let Some(n) = self.cancel_after_ticks {
            if self.ticks > n {
                return Err(BudgetStop::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetStop::DeadlineExceeded);
            }
        }
        // Last, so cancellation and the deadline win ties.
        if self.ticks > self.limit {
            return Err(BudgetStop::IterationLimit {
                ticks: self.ticks,
                limit: self.limit,
            });
        }
        Ok(())
    }

    /// Epochs recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The epoch budget.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Time remaining before the deadline (`None` when no deadline is
    /// set; zero when already past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// The derived epoch limit of [`RunBudget::for_run`] for a graph of
/// `vertices` vertices whose largest weight is `max_weight`.
pub(crate) fn epoch_limit(vertices: usize, max_weight: f64, delta: f64, cfg: &GuardConfig) -> u64 {
    let n = vertices as u64;
    let max_path = vertices.saturating_sub(1) as f64 * max_weight;
    let buckets = if delta > 0.0 && max_path.is_finite() {
        let b = (max_path / delta).ceil();
        if b >= u64::MAX as f64 {
            u64::MAX
        } else {
            b as u64 + 1
        }
    } else {
        u64::MAX
    };
    // Outer epochs + heavy phases + light phases, generously.
    let derived = buckets
        .saturating_mul(3)
        .saturating_add(n)
        .saturating_add(cfg.tick_slack);
    derived.min(cfg.max_ticks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_stops() {
        let mut b = RunBudget::unlimited();
        for _ in 0..10_000 {
            assert!(b.check().is_ok());
        }
        assert_eq!(b.ticks(), 10_000);
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn epoch_limit_trips_on_the_check_past_it() {
        let mut b = RunBudget::with_limit(3);
        assert!(b.check().is_ok());
        assert!(b.check().is_ok());
        assert!(b.check().is_ok());
        assert_eq!(
            b.check(),
            Err(BudgetStop::IterationLimit { ticks: 4, limit: 3 })
        );
        assert_eq!(b.ticks(), 4);
    }

    #[test]
    fn for_run_derives_the_limit_and_clamps_it_to_max_ticks() {
        use graphdata::gen::path;
        // A path graph maximises bucket count: n - 1 buckets at delta 1.
        let g = CsrGraph::from_edge_list(&path(64)).unwrap();
        let b = RunBudget::for_run(&g, 1.0, &GuardConfig::default());
        assert!(b.limit() >= 3 * 64, "limit {} too small", b.limit());
        // Tiny delta explodes the derived bound; the hard cap clamps it.
        let b = RunBudget::for_run(&g, 1e-300, &GuardConfig::default());
        assert_eq!(b.limit(), GuardConfig::default().max_ticks);
    }

    #[test]
    fn cancel_token_observed_at_next_check() {
        let token = CancelToken::new();
        let mut b = RunBudget::unlimited().with_cancel(token.clone());
        assert!(b.check().is_ok());
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(b.check(), Err(BudgetStop::Cancelled));
        // Cancellation is sticky.
        assert_eq!(b.check(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn cancel_after_is_deterministic() {
        let mut b = RunBudget::unlimited().cancel_after(2);
        assert!(b.check().is_ok());
        assert!(b.check().is_ok());
        assert_eq!(b.check(), Err(BudgetStop::Cancelled));
        // n = 0: first check already cancelled.
        let mut b = RunBudget::unlimited().cancel_after(0);
        assert_eq!(b.check(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn past_deadline_stops() {
        let mut b = RunBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(b.check(), Err(BudgetStop::DeadlineExceeded));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
        let mut generous =
            RunBudget::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(generous.check().is_ok());
        assert!(generous.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancellation_wins_over_deadline_and_limit() {
        let token = CancelToken::new();
        token.cancel();
        let mut b = RunBudget::with_limit(0)
            .with_deadline(Instant::now() - Duration::from_secs(1))
            .with_cancel(token);
        assert_eq!(b.check(), Err(BudgetStop::Cancelled));
    }

    #[test]
    fn progress_gauge_follows_ticks_and_survives_retry() {
        let gauge = ProgressGauge::new();
        assert_eq!(gauge.get(), 0);
        let mut b = RunBudget::unlimited().with_progress(gauge.clone());
        for want in 1..=5 {
            b.check().unwrap();
            assert_eq!(gauge.get(), want);
        }
        // The retry budget resets ticks but keeps publishing through the
        // same gauge, so the supervisor's view stays live across the
        // sequential-fused retry.
        let mut retry = b.retry_budget(64);
        retry.check().unwrap();
        assert_eq!(gauge.get(), 1);
    }

    #[test]
    fn retry_budget_keeps_deadline_and_token_but_resets_ticks() {
        use graphdata::gen::grid2d;
        let g = CsrGraph::from_edge_list(&grid2d(3, 3)).unwrap();
        let token = CancelToken::new();
        let cfg = GuardConfig::default();
        let mut b = RunBudget::for_run(&g, 1.0, &cfg)
            .with_timeout(Duration::from_secs(3600))
            .with_cancel(token.clone());
        for _ in 0..5 {
            b.check().unwrap();
        }
        let limit = PreparedGraph::new(&g).epoch_limit(1.0, &cfg);
        assert_eq!(limit, b.limit(), "a prepared graph derives the same limit");
        let retry = b.retry_budget(limit);
        assert_eq!(retry.ticks(), 0);
        assert_eq!(retry.limit(), limit);
        assert!(retry.deadline.is_some());
        token.cancel();
        let mut retry = retry;
        assert_eq!(retry.check(), Err(BudgetStop::Cancelled));
    }
}
