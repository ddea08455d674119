//! The resilient batch front door: run many SSSP queries against one
//! graph with bounded admission, per-job deadlines, and panic-isolated
//! worker engines that degrade instead of dying.
//!
//! A job has two axes, its [`SteppingStrategy`] and the [`Kernels`] it
//! relaxes on, and one door: [`run_job`] runs it on a caller-owned
//! [`SsspEngine`], on the caller's thread. The door resumes the job from
//! a persisted checkpoint when its directory holds one (`resume_stepping`)
//! and runs it fresh otherwise (`preflight` + `run_stepping`), drives
//! either through the degradation ladder, and persists a budget stop.
//! The ladder is the one place a caught panic is handled — the pooled
//! implementations of [`run_with_budget`](crate::run::run_with_budget)
//! go through it too:
//!
//! 1. rung 1 runs on the requested kernels under a [`RunBudget`] carrying
//!    the per-job deadline and [`CancelToken`];
//! 2. a caught panic sends the job to rung 2: the **same strategy** on
//!    the sequential kernels (the engine replaces the workspace the panic
//!    left behind) under [`RunBudget::retry_budget`] (fresh epoch
//!    allowance, same deadline/token — the job's SLO does not reset
//!    because a worker died), completing with `degraded_by_panic = true`;
//!    pooled kernels requested without a pool skip rung 1 and run rung 2
//!    under the job budget, completing with the `thread pool unavailable
//!    (…)` notice;
//! 3. a second panic yields [`JobOutcome::Failed`] carrying
//!    [`SsspError::WorkerPanicked`];
//! 4. on either rung a budget stop (deadline, cancellation, epoch limit)
//!    becomes [`JobOutcome::Partial`] carrying the certified
//!    [`Checkpoint`] — partial work is reported, never discarded — and
//!    any other error fails the job with its typed [`SsspError`].
//!
//! [`BatchRunner`] is the multi-source front end over that door: a
//! bounded job queue (admission control: jobs beyond the queue capacity
//! are **rejected**, not silently queued forever) drained by a small
//! worker crew, each worker calling the door once per job. `sssp-serve`
//! calls the door directly, once per request, on the worker thread that
//! dequeued it.
//!
//! One batch, one graph, **one split**: every worker drives an
//! [`SsspEngine`] over a shared [`SplitCache`], so a same-Δ batch builds
//! the light/heavy matrix split exactly once no matter how many workers
//! drain the queue (the paper puts that filter at 35–40 % of runtime —
//! it is the cost worth amortizing). Pooled jobs share one
//! [`ThreadPool`]; if pool creation fails, the batch does not silently
//! fall back — every affected job completes on the sequential kernels
//! with its `degraded` flag set and the failure is reported in
//! [`BatchReport::pool_degraded`].
//!
//! With a checkpoint directory, budget-stopped jobs persist their
//! checkpoint to disk (`ckpt-<source>.bin`, the [`Checkpoint::to_bytes`]
//! format) and a later job — same process or a fresh one — resumes from
//! the file, landing on distances and stats bit-identical to an
//! uninterrupted run. The directory's [`CheckpointManifest`]
//! (`manifest.bin`, the `GBSSMAN1` format) is kept in lockstep through
//! one [`ManifestState`] per directory, shared by every job that runs in
//! it: a checkpoint file is written before its manifest entry, a
//! completed job's entry is removed before its file is deleted, so a
//! `kill -9` at any instant leaves at worst an orphaned checkpoint file
//! — never a manifest entry pointing at a missing or torn file.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use graphdata::CsrGraph;
use taskpool::ThreadPool;

use crate::budget::{CancelToken, ProgressGauge, RunBudget};
use crate::checkpoint::Checkpoint;
use crate::engine::SsspEngine;
use crate::guard::{GuardConfig, SsspError};
use crate::manifest::{CheckpointManifest, ManifestEntry};
use crate::result::SsspResult;
use crate::split_cache::{SplitCache, SplitCacheStats};
use crate::stepping::SteppingStrategy;

/// The relaxation kernels a batched or served job runs on — the second
/// axis of a job next to its [`SteppingStrategy`]. The `impl=` names of
/// the wire and the CLIs are aliases for these two values (`fused`,
/// `improved` / `parallel-improved`); every other name is the
/// `unknown implementation '<name>'` error of its [`FromStr`](std::str::FromStr).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernels {
    /// The sequential kernels (`fused`).
    Sequential,
    /// The request-buffer kernels on the shared [`ThreadPool`]
    /// (`improved`); bit-identical to sequential at every thread count.
    Pooled,
}

impl Kernels {
    /// The canonical `impl=` token, as binary frames carry it.
    pub fn name(self) -> &'static str {
        match self {
            Kernels::Sequential => "fused",
            Kernels::Pooled => "improved",
        }
    }
}

impl std::str::FromStr for Kernels {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "fused" => Ok(Kernels::Sequential),
            "improved" | "parallel-improved" => Ok(Kernels::Pooled),
            _ => Err(format!("unknown implementation '{name}'")),
        }
    }
}

/// Configuration for a [`BatchRunner`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Kernels every job asks for (rung 1 of the ladder; rung 2 is always
    /// sequential).
    pub implementation: Kernels,
    /// Bucket width Δ for every job.
    pub delta: f64,
    /// Frontier-extraction strategy for every job, on both rungs of the
    /// ladder: a retried job still answers with the strategy the caller
    /// asked for.
    pub strategy: SteppingStrategy,
    /// Worker threads draining the queue. Clamped to at least 1.
    pub workers: usize,
    /// Admission bound: a batch submitting more jobs than this sees the
    /// excess rejected up front ([`BatchOutcome::Rejected`]).
    pub queue_capacity: usize,
    /// Per-job wall-clock budget, applied from the moment the job
    /// *starts executing* (queue wait does not consume it).
    pub deadline: Option<Duration>,
    /// Batch-wide cancellation: flipping this token stops every running
    /// job at its next epoch boundary (each reports a checkpointed
    /// partial result) and makes queued jobs stop on their first check.
    pub cancel: Option<CancelToken>,
    /// Epoch-progress gauge published by every job's budget checks, so
    /// an external watchdog (the serve supervisor) can tell a slow job
    /// from a wedged one. `None` costs nothing.
    pub progress: Option<ProgressGauge>,
    /// Guard tunables for preflight and the epoch budget.
    pub guard: GuardConfig,
    /// Threads in the batch-shared [`ThreadPool`] used when
    /// [`BatchConfig::implementation`] is [`Kernels::Pooled`].
    pub pool_threads: usize,
    /// When set, budget-stopped jobs persist their checkpoint to
    /// `<dir>/ckpt-<source>.bin` and later batches resume from those
    /// files (deleting each on completion).
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            implementation: Kernels::Sequential,
            delta: 1.0,
            strategy: SteppingStrategy::Classic,
            workers: 2,
            queue_capacity: 1024,
            deadline: None,
            cancel: None,
            progress: None,
            guard: GuardConfig::default(),
            pool_threads: 2,
            checkpoint_dir: None,
        }
    }
}

/// Terminal state of one batch job.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The job ran to completion (possibly on the degraded sequential
    /// path after a worker panic or a failed pool creation — see
    /// `degraded`).
    Complete {
        /// Full distances and counters.
        result: SsspResult,
        /// The Δ actually used (after any configured fallback).
        delta: f64,
        /// `Some(reason)` when the result came from rung 2 of the ladder
        /// instead of the requested kernels: a worker panic message, or
        /// the pool-creation failure.
        degraded: Option<String>,
        /// Whether the degradation was caused by a *caught worker panic*
        /// (as opposed to, say, an unavailable thread pool). This is the
        /// typed marker: callers deciding whether a worker is suspect
        /// must branch on it, never on the text of `degraded`.
        degraded_by_panic: bool,
        /// Whether the job continued a persisted checkpoint (found
        /// through the manifest or the conventional per-source file)
        /// instead of starting from the source.
        resumed: bool,
    },
    /// The job was stopped by its budget (deadline, cancellation, or
    /// epoch limit) and left a certified partial result behind.
    Partial {
        /// The typed stop; owns the [`Checkpoint`] with the partial
        /// distances (see [`BatchOutcome::checkpoint`]).
        stop: SsspError,
        /// Human-readable stop reason: the stop's display, plus a note
        /// when persisting the checkpoint failed.
        reason: String,
        /// Where the checkpoint was persisted, when the job ran with a
        /// checkpoint directory and the save succeeded.
        saved_to: Option<PathBuf>,
    },
    /// The job failed without a usable partial result: bad input, or a
    /// panic that survived the sequential retry
    /// ([`SsspError::WorkerPanicked`] — the typed marker for poisoning
    /// decisions; error *messages* can legitimately contain the word
    /// "panic" without any panic having happened).
    Failed {
        /// The typed failure.
        error: SsspError,
    },
    /// Admission control refused the job: the queue was already at
    /// capacity when the batch was submitted.
    Rejected {
        /// The capacity that was exceeded.
        queue_capacity: usize,
    },
}

impl BatchOutcome {
    /// Whether the job produced full final distances.
    pub fn is_complete(&self) -> bool {
        matches!(self, BatchOutcome::Complete { .. })
    }

    /// Whether the job produced a checkpointed partial result.
    pub fn is_partial(&self) -> bool {
        matches!(self, BatchOutcome::Partial { .. })
    }

    /// The checkpoint, when this outcome carries one: every distance
    /// below its [`Checkpoint::settled_below`] is final.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            BatchOutcome::Partial { stop, .. } => stop.checkpoint(),
            _ => None,
        }
    }
}

/// What [`run_job`] settles a job to: the [`BatchOutcome`] variant of the
/// same name, whose docs describe each. Admission rejection is a batch's
/// fourth case, one a job that ran never reaches.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    Complete {
        result: SsspResult,
        delta: f64,
        degraded: Option<String>,
        degraded_by_panic: bool,
        resumed: bool,
    },
    Partial { stop: SsspError, reason: String, saved_to: Option<PathBuf> },
    Failed { error: SsspError },
}

impl From<JobOutcome> for BatchOutcome {
    fn from(outcome: JobOutcome) -> Self {
        match outcome {
            JobOutcome::Complete { result, delta, degraded, degraded_by_panic, resumed } => {
                BatchOutcome::Complete { result, delta, degraded, degraded_by_panic, resumed }
            }
            JobOutcome::Partial { stop, reason, saved_to } => {
                BatchOutcome::Partial { stop, reason, saved_to }
            }
            JobOutcome::Failed { error } => BatchOutcome::Failed { error },
        }
    }
}

/// Everything a finished batch reports: one outcome per submitted
/// source, in submission order, plus summary counts.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// `(source, outcome)` in submission order.
    pub jobs: Vec<(usize, BatchOutcome)>,
    /// `Some(error)` when the shared [`ThreadPool`] could not be created
    /// for pooled jobs: every job then ran on the sequential kernels and
    /// carries its own `degraded` flag.
    pub pool_degraded: Option<String>,
    /// Counters of the batch-shared split cache — a same-Δ batch shows
    /// `builds == 1` here regardless of worker count. Under
    /// [`BatchRunner::run_shared`] these are the *cumulative* counters
    /// of the caller-owned cache, including eviction activity from the
    /// byte-budget LRU policy.
    pub split_cache: SplitCacheStats,
    /// `Some(error)` when [`BatchConfig::checkpoint_dir`] is set but its
    /// manifest could not be loaded (corrupt or unreadable): the batch
    /// still runs — the index is rebuilt from the surviving checkpoint
    /// files (see `quarantined`) — but the caller should know the
    /// durable index was not trusted as found.
    pub manifest_error: Option<String>,
    /// Files moved into the checkpoint directory's `quarantine/`
    /// subdirectory during this batch: a torn manifest replaced by a
    /// rebuild, and any `ckpt-*.bin` that failed to decode when a job
    /// tried to resume from it.
    pub quarantined: Vec<PathBuf>,
}

impl BatchReport {
    /// Jobs that ran to completion.
    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, BatchOutcome::Complete { .. }))
    }

    /// Jobs stopped with a checkpointed partial result.
    pub fn partial(&self) -> usize {
        self.count(|o| matches!(o, BatchOutcome::Partial { .. }))
    }

    /// Jobs that failed outright.
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, BatchOutcome::Failed { .. }))
    }

    /// Jobs refused by admission control.
    pub fn rejected(&self) -> usize {
        self.count(|o| matches!(o, BatchOutcome::Rejected { .. }))
    }

    /// Jobs that completed on the degraded sequential path.
    pub fn degraded(&self) -> usize {
        self.count(|o| matches!(o, BatchOutcome::Complete { degraded: Some(_), .. }))
    }

    /// Whether every submitted job completed fully.
    pub fn all_complete(&self) -> bool {
        self.completed() == self.jobs.len()
    }

    fn count(&self, pred: impl Fn(&BatchOutcome) -> bool) -> usize {
        self.jobs.iter().filter(|(_, o)| pred(o)).count()
    }
}

/// One job for [`run_job`]: what to solve and the limits it runs under.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The source vertex.
    pub source: usize,
    /// Kernels rung 1 runs on (rung 2 is always sequential).
    pub kernels: Kernels,
    /// The requested bucket width Δ (preflight may substitute a fallback).
    pub delta: f64,
    /// Frontier-extraction strategy, on both rungs.
    pub strategy: SteppingStrategy,
    /// Guard tunables for preflight and the epoch budget.
    pub guard: &'a GuardConfig,
    /// Wall-clock budget, counted from the call to [`run_job`].
    pub deadline: Option<Duration>,
    /// Cancellation, observed at every epoch boundary of either rung.
    pub cancel: Option<&'a CancelToken>,
    /// Epoch-progress gauge the job's budget checks publish to.
    pub progress: Option<&'a ProgressGauge>,
}

/// The one job door: run `job` on `engine`, on the calling thread. With
/// `checkpoints`, resume the job from the checkpoint its directory holds
/// for the source (the manifest's entry, else the conventional
/// `ckpt-<source>.bin`), and persist a budget stop; without, always run
/// fresh. Either way the run goes through the degradation ladder (see
/// the module docs). `pool` serves pooled kernels; `pool_unavailable`
/// says why there is none, for the rung-2 notice.
pub fn run_job(
    engine: &mut SsspEngine<'_>,
    pool: Option<&ThreadPool>,
    pool_unavailable: Option<&str>,
    job: &Job<'_>,
    checkpoints: Option<&ManifestState>,
) -> JobOutcome {
    let g = engine.graph();
    let mut budget = RunBudget::for_job(g, job.delta, job.guard, job.deadline, job.cancel);
    if let Some(gauge) = job.progress {
        budget = budget.with_progress(gauge.clone());
    }
    // The strategy and Δ of a resume come from the checkpoint itself, so
    // mixed directories (a strategy change between runs) resume every
    // file correctly.
    let resume = checkpoints.and_then(|c| c.resumable(engine, job.source));
    let retry_delta = resume.as_ref().map_or(job.delta, |cp| cp.delta);
    let outcome = ladder(
        job.kernels,
        pool,
        pool_unavailable,
        &mut budget,
        |budget| budget.retry_budget(g, retry_delta, job.guard),
        |pool, budget| match &resume {
            Some(cp) => Ok((engine.resume_stepping(pool, cp, budget)?.0, cp.delta)),
            None => {
                let delta = engine.preflight(job.source, job.delta, job.guard)?;
                let (result, _) =
                    engine.run_stepping(pool, job.source, delta, job.strategy, budget)?;
                Ok((result, delta))
            }
        },
        resume.is_some(),
    );
    match checkpoints {
        Some(checkpoints) => checkpoints.persist(engine, outcome, job.source),
        None => outcome,
    }
}

/// Multi-source SSSP front door with admission control, a shared split
/// cache, and panic isolation: a worker crew over [`run_job`].
///
/// ```
/// use graphdata::{gen::grid2d, CsrGraph};
/// use sssp_core::{BatchConfig, BatchRunner};
///
/// let g = CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap();
/// let runner = BatchRunner::new(BatchConfig::default());
/// let report = runner.run(&g, &[0, 7, 35]);
/// assert!(report.all_complete());
/// // Three same-Δ jobs, one light/heavy split built.
/// assert_eq!(report.split_cache.builds, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    cfg: BatchConfig,
}

impl BatchRunner {
    /// A runner with the given configuration.
    pub fn new(cfg: BatchConfig) -> Self {
        BatchRunner {
            cfg: BatchConfig {
                workers: cfg.workers.max(1),
                pool_threads: cfg.pool_threads.max(1),
                ..cfg
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// The checkpoint file a given source persists to under `dir`.
    pub fn checkpoint_path(dir: &Path, source: usize) -> PathBuf {
        dir.join(format!("ckpt-{source}.bin"))
    }

    /// Run one job per source and block until the whole batch settles.
    ///
    /// Admission is decided up front and deterministically: the first
    /// `queue_capacity` sources are accepted, the rest come back as
    /// [`BatchOutcome::Rejected`]. Accepted jobs are drained by
    /// `workers` threads, each driving an [`SsspEngine`] over one shared
    /// [`SplitCache`] and (for pooled jobs) one shared [`ThreadPool`]. A
    /// failed pool creation degrades every job to the sequential
    /// kernels — visibly, via [`BatchReport::pool_degraded`] and per-job
    /// `degraded` flags.
    pub fn run(&self, g: &CsrGraph, sources: &[usize]) -> BatchReport {
        // One pool for the whole batch. Creation failure is surfaced,
        // not swallowed: jobs still run (sequentially) but each is
        // flagged degraded and the report carries the error.
        let (pool, pool_degraded) = if self.cfg.implementation == Kernels::Pooled {
            match ThreadPool::with_threads(self.cfg.pool_threads) {
                Ok(p) => (Some(p), None),
                Err(e) => (None, Some(e.to_string())),
            }
        } else {
            (None, None)
        };
        let cache = Arc::new(SplitCache::new());
        self.run_shared(g, sources, &cache, pool.as_ref(), pool_degraded)
    }

    /// [`BatchRunner::run`] against caller-owned shared resources: the
    /// split cache (possibly byte-budgeted, possibly warm from earlier
    /// batches against other graphs) and the thread pool survive this
    /// call. `pool_degraded` carries the caller's pool-creation failure,
    /// if any, so jobs degrade identically to [`BatchRunner::run`].
    pub fn run_shared(
        &self,
        g: &CsrGraph,
        sources: &[usize],
        cache: &Arc<SplitCache>,
        pool: Option<&ThreadPool>,
        pool_degraded: Option<String>,
    ) -> BatchReport {
        let mut outcomes: Vec<Option<BatchOutcome>> = Vec::with_capacity(sources.len());
        let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
        for (idx, &source) in sources.iter().enumerate() {
            if queue.len() < self.cfg.queue_capacity {
                queue.push_back((idx, source));
                outcomes.push(None);
            } else {
                outcomes.push(Some(BatchOutcome::Rejected {
                    queue_capacity: self.cfg.queue_capacity,
                }));
            }
        }
        let accepted = queue.len();
        let queue = Mutex::new(queue);
        let outcomes = Mutex::new(outcomes);

        let (manifest, manifest_error) = match self.cfg.checkpoint_dir.as_deref() {
            Some(dir) => {
                let (state, error) = ManifestState::open(dir);
                (Some(state), error)
            }
            None => (None, None),
        };

        let workers = self.cfg.workers.min(accepted.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Per-worker engine over the shared split cache: warm
                    // workspaces stay thread-private, the expensive split
                    // is fetched (or built exactly once) from the cache.
                    let mut engine = SsspEngine::with_cache(g, Arc::clone(cache));
                    loop {
                        let job = queue.lock().expect("queue lock").pop_front();
                        let Some((idx, source)) = job else { break };
                        let outcome = run_job(
                            &mut engine,
                            pool,
                            pool_degraded.as_deref(),
                            &self.job(source),
                            manifest.as_ref(),
                        );
                        outcomes.lock().expect("outcomes lock")[idx] = Some(outcome.into());
                    }
                });
            }
        });

        let outcomes = outcomes.into_inner().expect("outcomes lock");
        BatchReport {
            jobs: sources
                .iter()
                .copied()
                .zip(outcomes.into_iter().map(|o| o.expect("every job settled")))
                .collect(),
            pool_degraded,
            split_cache: cache.stats(),
            manifest_error,
            quarantined: manifest.map(|m| m.take_quarantined()).unwrap_or_default(),
        }
    }

    /// The job this batch runs for `source`.
    fn job(&self, source: usize) -> Job<'_> {
        Job {
            source,
            kernels: self.cfg.implementation,
            delta: self.cfg.delta,
            strategy: self.cfg.strategy,
            guard: &self.cfg.guard,
            deadline: self.cfg.deadline,
            cancel: self.cfg.cancel.as_ref(),
            progress: self.cfg.progress.as_ref(),
        }
    }
}

/// The two-rung degradation ladder (see the module docs) — the only code
/// that catches a panic on a run. `call` runs the job on the pool it is
/// handed, or on the sequential kernels for `None`, and returns the
/// result with the Δ it used. Rung 1 calls it on `pool` when `kernels`
/// is pooled (and on `None` when sequential) under `budget`; rung 2
/// calls it on `None` under `retry(budget)` after a caught panic, or
/// under `budget` itself when pooled kernels have no pool. `resumed`
/// is passed through to a completion.
pub(crate) fn ladder(
    kernels: Kernels,
    pool: Option<&ThreadPool>,
    pool_unavailable: Option<&str>,
    budget: &mut RunBudget,
    retry: impl FnOnce(&RunBudget) -> RunBudget,
    mut call: impl FnMut(
        Option<&ThreadPool>,
        &mut RunBudget,
    ) -> Result<(SsspResult, f64), SsspError>,
    resumed: bool,
) -> JobOutcome {
    let pooled = kernels == Kernels::Pooled;
    let mut retried;
    let (budget, degraded, degraded_by_panic) = if pooled && pool.is_none() {
        let notice = format!(
            "thread pool unavailable ({}); ran on the sequential fused path",
            pool_unavailable.unwrap_or("no pool")
        );
        (budget, notice, false)
    } else {
        let pool = pool.filter(|_| pooled);
        match catch_unwind(AssertUnwindSafe(|| call(pool, &mut *budget))) {
            Ok(Ok((result, delta))) => {
                return JobOutcome::Complete {
                    result,
                    delta,
                    degraded: None,
                    degraded_by_panic: false,
                    resumed,
                };
            }
            Ok(Err(err)) => return error_outcome(err),
            Err(payload) => {
                retried = retry(budget);
                (&mut retried, panic_message(payload), true)
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(|| call(None, budget))) {
        Ok(Ok((result, delta))) => JobOutcome::Complete {
            result,
            delta,
            degraded: Some(degraded),
            degraded_by_panic,
            resumed,
        },
        Ok(Err(err)) => error_outcome(err),
        Err(payload) => error_outcome(SsspError::WorkerPanicked {
            message: format!(
                "{degraded}; sequential retry also panicked ({})",
                panic_message(payload)
            ),
        }),
    }
}

/// Budget stops become checkpointed partials; everything else fails
/// the job with its typed [`SsspError`].
fn error_outcome(err: SsspError) -> JobOutcome {
    if err.checkpoint().is_some() {
        JobOutcome::Partial { reason: err.to_string(), stop: err, saved_to: None }
    } else {
        JobOutcome::Failed { error: err }
    }
}

/// The live view of one checkpoint directory's manifest, shared by every
/// job that runs in the directory — a batch's workers, or every request
/// a server runs on one graph. Record, clear and save happen under one
/// lock, and every mutation re-saves the file, so the on-disk index is
/// durable at each step (a `kill -9` between jobs must leave a
/// trustworthy index) and concurrent jobs never save stale copies over
/// each other's entries.
#[derive(Debug)]
pub struct ManifestState {
    dir: PathBuf,
    manifest: Mutex<CheckpointManifest>,
    /// Files moved into `quarantine/` (opening recovery plus resume-time
    /// torn-file discoveries) and not yet taken by
    /// [`ManifestState::take_quarantined`].
    quarantined: Mutex<Vec<PathBuf>>,
}

impl ManifestState {
    /// Load `dir`'s manifest. A corrupt or unreadable manifest does not
    /// stop the caller: the torn index is quarantined and rebuilt from
    /// the surviving checkpoint files (each is self-describing), and the
    /// incident comes back as the second value, never swallowed.
    pub fn open(dir: &Path) -> (ManifestState, Option<String>) {
        let state = |manifest, quarantined| ManifestState {
            dir: dir.to_path_buf(),
            manifest: Mutex::new(manifest),
            quarantined: Mutex::new(quarantined),
        };
        match CheckpointManifest::load_or_default(dir) {
            Ok(m) => (state(m, Vec::new()), None),
            Err(e) => match crate::manifest::recover_directory(dir) {
                Ok(r) => (state(r.manifest, r.quarantined), Some(e.to_string())),
                Err(recovery) => (
                    state(CheckpointManifest::new(), Vec::new()),
                    Some(format!("{e}; recovery failed: {recovery}")),
                ),
            },
        }
    }

    /// Drain the files quarantined since the last call.
    pub fn take_quarantined(&self) -> Vec<PathBuf> {
        std::mem::take(&mut *self.quarantined.lock().expect("quarantine list lock"))
    }

    /// The checkpoint `source`'s job should resume from: the manifest
    /// names it, and a directory without an entry (pre-manifest layouts,
    /// or a manifest that failed to load) falls back to the conventional
    /// path. A foreign or non-resumable file is not fatal — the job runs
    /// fresh and overwrites it; a torn or corrupt one is quarantined so
    /// the next restart does not trip over it again. Plain I/O errors
    /// leave the file in place.
    fn resumable(&self, engine: &SsspEngine<'_>, source: usize) -> Option<Checkpoint> {
        let listed = self
            .manifest
            .lock()
            .expect("manifest lock")
            .find_source(engine.fingerprint(), source)
            .map(|e| self.dir.join(&e.file));
        let path = listed.filter(|p| p.exists()).or_else(|| {
            let path = BatchRunner::checkpoint_path(&self.dir, source);
            path.exists().then_some(path)
        })?;
        match engine.load_checkpoint(&path) {
            Ok(cp) if cp.resumable && cp.source == source => Some(cp),
            Err(SsspError::InvalidCheckpoint { .. }) => {
                self.quarantine(&path);
                None
            }
            _ => None,
        }
    }

    /// Apply the durable-checkpoint policy to a settled outcome: persist
    /// a resumable budget stop (checkpoint file first, manifest entry
    /// second), clear the manifest entry and then the file once the job
    /// completes. The ordering is the crash contract from the
    /// [`crate::manifest`] docs: the manifest never points at a missing
    /// or torn checkpoint file.
    fn persist(&self, engine: &SsspEngine<'_>, outcome: JobOutcome, source: usize) -> JobOutcome {
        let path = BatchRunner::checkpoint_path(&self.dir, source);
        let fingerprint = engine.fingerprint();
        match outcome {
            JobOutcome::Partial { stop, reason, .. } => {
                let (reason, saved_to) = match stop.checkpoint().filter(|cp| cp.resumable) {
                    // Nothing a later job could continue.
                    None => (reason, None),
                    Some(checkpoint) => match engine.save_checkpoint(checkpoint, &path) {
                        Ok(()) => {
                            let reason = match self.record(fingerprint, checkpoint, &path) {
                                Err(e) => format!("{reason}; manifest not updated: {e}"),
                                Ok(()) => reason,
                            };
                            (reason, Some(path))
                        }
                        Err(e) => (format!("{reason}; checkpoint not persisted: {e}"), None),
                    },
                };
                JobOutcome::Partial { stop, reason, saved_to }
            }
            JobOutcome::Complete { .. } => {
                // A stale file must not resurrect a finished job. Drop
                // the manifest entry first; if that durable step fails,
                // keep the file so the manifest never dangles.
                if self.clear(fingerprint, source).is_ok() {
                    let _ = std::fs::remove_file(&path);
                }
                outcome
            }
            JobOutcome::Failed { .. } => outcome,
        }
    }

    /// Move a torn checkpoint file into `quarantine/`, drop any manifest
    /// entry naming it, and record the move. Failing to move it is not
    /// fatal — the fresh run overwrites the file anyway.
    fn quarantine(&self, path: &Path) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if let Ok(moved) = crate::manifest::quarantine_file(&self.dir, path) {
            let mut locked = self.manifest.lock().expect("manifest lock");
            if locked.remove_file(&name) {
                let _ = locked.save(&CheckpointManifest::path_in(&self.dir));
            }
            drop(locked);
            self.quarantined.lock().expect("quarantine list lock").push(moved);
        }
    }

    /// Record a freshly-persisted checkpoint (file already on disk) and
    /// save the manifest.
    fn record(&self, fingerprint: u64, cp: &Checkpoint, path: &Path) -> Result<(), SsspError> {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut locked = self.manifest.lock().expect("manifest lock");
        locked.upsert(ManifestEntry {
            fingerprint,
            source: cp.source,
            delta: cp.delta,
            file,
        });
        locked.save(&CheckpointManifest::path_in(&self.dir))
    }

    /// Drop the entry for a completed job and save the manifest. A
    /// directory that never recorded the job is a clean no-op.
    fn clear(&self, fingerprint: u64, source: usize) -> Result<(), SsspError> {
        let mut locked = self.manifest.lock().expect("manifest lock");
        if locked.remove_source(fingerprint, source) {
            locked.save(&CheckpointManifest::path_in(&self.dir))?;
        }
        Ok(())
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use graphdata::gen::grid2d;

    fn grid() -> CsrGraph {
        CsrGraph::from_edge_list(&grid2d(6, 6)).unwrap()
    }

    #[test]
    fn batch_completes_all_sources_with_correct_distances() {
        let g = grid();
        let runner = BatchRunner::new(BatchConfig::default());
        let sources = [0usize, 7, 17, 35, 0];
        let report = runner.run(&g, &sources);
        assert!(report.all_complete());
        assert_eq!(report.jobs.len(), sources.len());
        assert!(report.pool_degraded.is_none());
        for (source, outcome) in &report.jobs {
            match outcome {
                BatchOutcome::Complete { result, degraded, .. } => {
                    assert!(degraded.is_none());
                    assert_eq!(result.dist, dijkstra(&g, *source).dist, "source {source}");
                }
                other => panic!("source {source}: expected Complete, got {other:?}"),
            }
        }
    }

    #[test]
    fn same_delta_batch_builds_the_split_exactly_once() {
        let g = CsrGraph::from_edge_list(&grid2d(20, 20)).unwrap();
        for implementation in [Kernels::Sequential, Kernels::Pooled] {
            let runner = BatchRunner::new(BatchConfig {
                implementation,
                workers: 4,
                ..BatchConfig::default()
            });
            let sources: Vec<usize> = (0..12).map(|i| i * 31 % 400).collect();
            let report = runner.run(&g, &sources);
            assert!(report.all_complete(), "{implementation:?}");
            // The tentpole claim: 12 same-Δ jobs across 4 workers, one
            // matrix filter.
            assert_eq!(
                report.split_cache.builds, 1,
                "{implementation:?}: split must be built exactly once"
            );
            // How many of the other workers *hit* the cache depends on
            // scheduling (a fast worker can drain the whole queue before
            // the rest wake), so the hit count is asserted separately in
            // `a_second_engine_on_the_shared_cache_hits_not_builds`.
        }
    }

    #[test]
    fn a_second_engine_on_the_shared_cache_hits_not_builds() {
        let g = CsrGraph::from_edge_list(&grid2d(20, 20)).unwrap();
        let cache = Arc::new(SplitCache::new());
        let mut first = SsspEngine::with_cache(&g, Arc::clone(&cache));
        let mut second = SsspEngine::with_cache(&g, Arc::clone(&cache));
        first.run_fused(0, 1.0, &mut RunBudget::unlimited()).unwrap();
        second.run_fused(399, 1.0, &mut RunBudget::unlimited()).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.builds, 1, "second engine must reuse the first's split");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn strategy_batches_complete_with_correct_distances() {
        let g = CsrGraph::from_edge_list(&grid2d(12, 12)).unwrap();
        let sources = [0usize, 77, 143];
        for implementation in [Kernels::Sequential, Kernels::Pooled] {
            for strategy in [SteppingStrategy::Rho(32), SteppingStrategy::DeltaStar(4.0)] {
                let report = BatchRunner::new(BatchConfig {
                    implementation,
                    strategy,
                    workers: 2,
                    ..BatchConfig::default()
                })
                .run(&g, &sources);
                assert!(report.all_complete(), "{implementation:?} {strategy}");
                assert_eq!(report.split_cache.builds, 1, "{implementation:?} {strategy}");
                for (source, outcome) in &report.jobs {
                    match outcome {
                        BatchOutcome::Complete { result, degraded, .. } => {
                            assert!(degraded.is_none());
                            assert_eq!(
                                result.dist,
                                dijkstra(&g, *source).dist,
                                "{implementation:?} {strategy} source {source}"
                            );
                        }
                        other => panic!("expected Complete, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn strategy_partials_persist_and_resume_bit_identically() {
        let g = CsrGraph::from_edge_list(&grid2d(12, 12)).unwrap();
        let dir = std::env::temp_dir().join(format!("sssp-batch-strat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sources = [0usize, 77, 143];
        let strategy = SteppingStrategy::Rho(16);

        let reference = BatchRunner::new(BatchConfig {
            strategy,
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert!(reference.all_complete());

        let stopped = BatchRunner::new(BatchConfig {
            strategy,
            deadline: Some(Duration::ZERO),
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert_eq!(stopped.partial(), sources.len());
        for (_, outcome) in &stopped.jobs {
            let cp = outcome.checkpoint().unwrap();
            assert_eq!(cp.implementation, "stepping");
            assert_eq!(cp.stepping.map(|st| st.strategy), Some(strategy));
        }

        let resumed = BatchRunner::new(BatchConfig {
            strategy,
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert!(resumed.all_complete());
        for ((source, a), (_, b)) in reference.jobs.iter().zip(&resumed.jobs) {
            let (BatchOutcome::Complete { result: a, .. }, BatchOutcome::Complete { result: b, .. }) =
                (a, b)
            else {
                panic!("source {source}: expected Complete pair");
            };
            assert_eq!(a.dist, b.dist, "source {source}");
            assert_eq!(a.stats, b.stats, "source {source}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn admission_control_rejects_beyond_capacity() {
        let g = grid();
        let runner = BatchRunner::new(BatchConfig {
            queue_capacity: 3,
            ..BatchConfig::default()
        });
        let report = runner.run(&g, &[0, 1, 2, 3, 4]);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.rejected(), 2);
        // Rejection is deterministic: the last two submissions.
        assert!(matches!(report.jobs[3].1, BatchOutcome::Rejected { queue_capacity: 3 }));
        assert!(matches!(report.jobs[4].1, BatchOutcome::Rejected { queue_capacity: 3 }));
    }

    #[test]
    fn expired_deadline_yields_certified_partials_not_failures() {
        let g = grid();
        let runner = BatchRunner::new(BatchConfig {
            deadline: Some(Duration::ZERO),
            ..BatchConfig::default()
        });
        let report = runner.run(&g, &[0, 35]);
        assert_eq!(report.partial(), 2);
        for (source, outcome) in &report.jobs {
            let cp = outcome.checkpoint().expect("deadline leaves a checkpoint");
            cp.validate(g.num_vertices()).unwrap();
            assert_eq!(cp.source, *source);
            match outcome {
                BatchOutcome::Partial { reason, saved_to, .. } => {
                    assert!(reason.contains("deadline"), "{reason}");
                    assert!(saved_to.is_none(), "no checkpoint_dir configured");
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn batch_wide_cancel_token_stops_every_job() {
        let g = grid();
        let token = CancelToken::new();
        token.cancel();
        let runner = BatchRunner::new(BatchConfig {
            cancel: Some(token),
            ..BatchConfig::default()
        });
        let report = runner.run(&g, &[0, 7, 35]);
        assert_eq!(report.partial(), 3);
        for (_, outcome) in &report.jobs {
            match outcome {
                BatchOutcome::Partial { reason, .. } => {
                    assert!(reason.contains("cancelled"), "{reason}");
                }
                other => panic!("expected Partial, got {other:?}"),
            }
        }
    }

    /// The ladder table: {fresh, resume} × {panic on rung 1, the same with
    /// the token cancelled meanwhile, panic on both rungs, pooled without
    /// a pool} × {classic, Δ*}. Rung-1 panics are the taskpool fault hook
    /// firing inside the pooled split build; the sequential rung has no
    /// hook, so its panic is raised by the call the ladder is handed. The
    /// repro `parallel` rung of `run_with_budget` has its row in
    /// `run::tests::pooled_arms_degrade_to_classic_sequential_through_the_ladder`.
    #[test]
    fn ladder_degrades_fresh_and_resumed_jobs_alike() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Fault {
            Rung1,
            Rung1ThenCancel,
            BothRungs,
            NoPool,
        }
        let g = grid();
        let guard = GuardConfig::default();
        let expected = dijkstra(&g, 0).dist;
        for strategy in [SteppingStrategy::Classic, SteppingStrategy::DeltaStar(2.0)] {
            for resume in [false, true] {
                use Fault::*;
                for fault in [Rung1, Rung1ThenCancel, BothRungs, NoPool] {
                    let label = format!("{strategy} resume={resume} {fault:?}");
                    let token = CancelToken::new();
                    let deadline = Some(Duration::from_secs(3600));
                    let mut budget = RunBudget::for_job(&g, 1.0, &guard, deadline, Some(&token));
                    let _session = taskpool::fault::TestSession::begin();
                    let pool = (fault != NoPool).then(|| ThreadPool::with_threads(2).unwrap());
                    let mut engine = SsspEngine::new(&g);
                    let cp = resume.then(|| {
                        let cut = &mut RunBudget::unlimited().cancel_after(3);
                        let err = engine.run_stepping(None, 0, 1.0, strategy, cut).unwrap_err();
                        // The pooled rung must build the split again.
                        engine.clear_cache();
                        err.into_checkpoint().unwrap()
                    });
                    let calls = std::cell::Cell::new(0);
                    let call = |pool: Option<&ThreadPool>, budget: &mut RunBudget| {
                        calls.set(calls.get() + 1);
                        if pool.is_some() {
                            // An epoch spent here is not charged to rung 2.
                            budget.check().unwrap();
                            taskpool::fault::arm_panic_after(0);
                            if fault == Fault::Rung1ThenCancel {
                                token.cancel();
                            }
                        } else {
                            // Rung 2: fresh ticks, the job's deadline.
                            assert_eq!(budget.ticks(), 0, "{label}");
                            assert!(budget.remaining().is_some(), "{label}");
                            assert!(fault != Fault::BothRungs, "rung 2 down");
                        }
                        let (result, _) = match &cp {
                            Some(cp) => engine.resume_stepping(pool, cp, budget)?,
                            None => engine.run_stepping(pool, 0, 1.0, strategy, budget)?,
                        };
                        Ok((result, 1.0))
                    };
                    let no_pool = Some("no threads");
                    let retry = |b: &RunBudget| b.retry_budget(&g, 1.0, &guard);
                    let outcome = ladder(
                        Kernels::Pooled,
                        pool.as_ref(),
                        no_pool,
                        &mut budget,
                        retry,
                        call,
                        resume,
                    );
                    assert_eq!(calls.get(), if fault == Fault::NoPool { 1 } else { 2 }, "{label}");
                    match (fault, outcome) {
                        (
                            Fault::Rung1 | Fault::NoPool,
                            JobOutcome::Complete { result, degraded, degraded_by_panic, resumed, .. },
                        ) => {
                            assert_eq!(result.dist, expected, "{label}");
                            assert_eq!(resumed, resume, "{label}");
                            let why = degraded.expect("rung 2 says why");
                            let want = match fault {
                                Fault::Rung1 => taskpool::fault::INJECTED_PANIC_MESSAGE,
                                _ => "thread pool unavailable (no threads); ran on the sequential",
                            };
                            assert!(why.starts_with(want), "{label}: {why}");
                            assert_eq!(degraded_by_panic, fault == Fault::Rung1, "{label}");
                        }
                        // The job's token reached rung 2.
                        (Fault::Rung1ThenCancel, JobOutcome::Partial { stop, .. }) => {
                            assert!(matches!(stop, SsspError::Cancelled { .. }), "{label}: {stop}");
                        }
                        (
                            Fault::BothRungs,
                            JobOutcome::Failed { error: SsspError::WorkerPanicked { message } },
                        ) => assert!(
                            message.starts_with(taskpool::fault::INJECTED_PANIC_MESSAGE)
                                && message.contains("; sequential retry also panicked (rung 2 down"),
                            "{label}: {message}"
                        ),
                        (_, other) => panic!("{label}: unexpected outcome {other:?}"),
                    }
                }
            }
        }
    }

    /// What only [`BatchRunner::run`] does about a pool that cannot be
    /// created; the per-job shapes are the `NoPool` rows above.
    #[test]
    fn run_reports_a_failed_pool_creation() {
        let runner = BatchRunner::new(BatchConfig {
            implementation: Kernels::Pooled,
            ..BatchConfig::default()
        });
        taskpool::fault::arm_pool_creation_failure();
        let report = runner.run(&grid(), &[0, 7, 35]);
        taskpool::fault::disarm();
        let pool_error = report.pool_degraded.as_ref().expect("pool failure must be reported");
        assert!(pool_error.contains(taskpool::fault::INJECTED_POOL_FAILURE_MESSAGE));
        assert!(report.all_complete());
        assert_eq!(report.degraded(), report.jobs.len());
    }

    #[test]
    fn checkpoint_dir_persists_partials_and_resumes_bit_identically() {
        let g = CsrGraph::from_edge_list(&grid2d(12, 12)).unwrap();
        let dir = std::env::temp_dir().join(format!("sssp-batch-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sources = [0usize, 77, 143];

        // Uninterrupted reference runs.
        let reference = BatchRunner::new(BatchConfig::default()).run(&g, &sources);
        assert!(reference.all_complete());

        // A zero deadline stops every job at its first budget check and
        // persists the checkpoints.
        let stopped = BatchRunner::new(BatchConfig {
            deadline: Some(Duration::ZERO),
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert_eq!(stopped.partial(), sources.len());
        for (source, outcome) in &stopped.jobs {
            match outcome {
                BatchOutcome::Partial { saved_to, .. } => {
                    let path = saved_to.as_ref().expect("checkpoint must be persisted");
                    assert_eq!(*path, BatchRunner::checkpoint_path(&dir, *source));
                    assert!(path.exists());
                }
                other => panic!("expected Partial, got {other:?}"),
            }
        }

        // A later batch resumes each job from its file and matches the
        // uninterrupted run bit-for-bit — distances AND stats.
        let resumed = BatchRunner::new(BatchConfig {
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert!(resumed.all_complete());
        for ((source, reference), (_, resumed)) in reference.jobs.iter().zip(&resumed.jobs) {
            let (BatchOutcome::Complete { result: a, .. }, BatchOutcome::Complete { result: b, .. }) =
                (reference, resumed)
            else {
                panic!("source {source}: expected Complete pair");
            };
            assert_eq!(a.dist, b.dist, "source {source}");
            assert_eq!(a.stats, b.stats, "source {source}");
        }
        // Completion cleans the files up.
        for source in sources {
            assert!(!BatchRunner::checkpoint_path(&dir, source).exists());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_tracks_partials_and_drains_on_completion() {
        let g = CsrGraph::from_edge_list(&grid2d(12, 12)).unwrap();
        let dir = std::env::temp_dir().join(format!("sssp-batch-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sources = [0usize, 77, 143];

        let stopped = BatchRunner::new(BatchConfig {
            deadline: Some(Duration::ZERO),
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert_eq!(stopped.partial(), sources.len());
        assert!(stopped.manifest_error.is_none());
        // Every interrupted job is indexed, each entry names a live file.
        let m = CheckpointManifest::load_or_default(&dir).unwrap();
        assert_eq!(m.len(), sources.len());
        for source in sources {
            let entry = m.find_source(g.fingerprint(), source).expect("indexed");
            assert!(dir.join(&entry.file).exists(), "manifest entry must name a live file");
        }

        // Resume to completion: index and files both drain.
        let resumed = BatchRunner::new(BatchConfig {
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        assert!(resumed.all_complete());
        assert!(CheckpointManifest::load_or_default(&dir).unwrap().is_empty());
        for source in sources {
            assert!(!BatchRunner::checkpoint_path(&dir, source).exists());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_reported_but_does_not_kill_the_batch() {
        let g = grid();
        let dir = std::env::temp_dir().join(format!("sssp-batch-badman-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(CheckpointManifest::path_in(&dir), b"garbage").unwrap();
        let report = BatchRunner::new(BatchConfig {
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &[0]);
        assert!(report.all_complete());
        assert!(report.manifest_error.is_some(), "corrupt manifest must be surfaced");
        // The torn index was quarantined, not left to trip the next
        // restart, and the directory now loads cleanly.
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0]
            .starts_with(dir.join(crate::manifest::QUARANTINE_DIR)));
        assert!(CheckpointManifest::load_or_default(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_file_falls_back_to_a_fresh_run() {
        let g = grid();
        let dir = std::env::temp_dir().join(format!("sssp-batch-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(BatchRunner::checkpoint_path(&dir, 0), b"not a checkpoint").unwrap();
        let report = BatchRunner::new(BatchConfig {
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &[0]);
        assert!(report.all_complete());
        match &report.jobs[0].1 {
            BatchOutcome::Complete { result, .. } => {
                assert_eq!(result.dist, dijkstra(&g, 0).dist);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
        // The torn file was moved into quarantine, not merely deleted.
        assert!(!BatchRunner::checkpoint_path(&dir, 0).exists());
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].exists());
        assert!(report.quarantined[0]
            .starts_with(dir.join(crate::manifest::QUARANTINE_DIR)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_source_fails_without_poisoning_the_batch() {
        let g = grid();
        let runner = BatchRunner::new(BatchConfig::default());
        let report = runner.run(&g, &[0, 999, 35]);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        match &report.jobs[1].1 {
            BatchOutcome::Failed { error } => {
                assert!(matches!(error, SsspError::SourceOutOfBounds { source: 999, .. }));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_is_a_clean_noop() {
        let g = grid();
        let runner = BatchRunner::new(BatchConfig::default());
        let report = runner.run(&g, &[]);
        assert!(report.jobs.is_empty());
        assert!(report.all_complete());
    }
}
