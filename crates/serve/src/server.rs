//! The resident server: accept loop, graph registry, engine workers,
//! and the robustness spine tying them together.
//!
//! ## Thread and failure topology
//!
//! - One **accept thread** hands each connection to its own detached
//!   **handler thread**. Handlers own their sockets: engine workers
//!   reply through an in-process channel and never touch a socket, so a
//!   stalled or dead client can only ever cost its own handler. Socket
//!   read/write timeouts bound even that — a reader that stops draining
//!   a full distance dump trips the write timeout (the *writer budget*)
//!   and the connection is dropped, counted in `writer_timeouts`.
//! - `workers` **engine worker threads** drain the bounded
//!   [`AdmissionQueue`]. Overload is shed at submission time with a
//!   deterministic backoff hint (see [`crate::queue`]); admitted jobs
//!   never wait behind an unbounded backlog.
//! - Each job runs through the job door [`batch::run_job`], on the
//!   worker's own thread, under its degradation ladder (panic → one
//!   sequential retry of the same strategy). The job's engine is a view:
//!   the graph's [`PreparedGraph`] (rows sorted by weight, fingerprint,
//!   weight verdict and maximum weight — all taken once, at `LOAD` — and
//!   the graph's own splits: one all-light split and one slot for the
//!   latest Δ with heavy edges), and the workspace the worker slot keeps
//!   across its requests. A served request pays for its solve and its reply,
//!   not for a pass over the graph. A worker that observes a
//!   panic degradation marks itself **poisoned** and retires; the
//!   [`Supervisor`] respawns the slot with a fresh engine worker after
//!   an exponential-backoff cooldown, so a latent parallel bug costs a
//!   cooldown instead of degrading the slot for the process lifetime.
//!   A slot that poisons more than `max_recycles` times is pinned
//!   **permanently degraded** (sticky sequential-fused) — the escape
//!   hatch for deterministic panics. Running jobs publish epoch
//!   progress through a [`ProgressGauge`]; the supervisor's heartbeat
//!   watchdog cancels a job that stops advancing and retires a worker
//!   that wedges below its budget checks.
//! - **Graceful drain** (SIGTERM in the binary, the debug `DRAIN` op
//!   here): admission stops with live retry hints, waiting jobs are
//!   shed, in-flight jobs are cancelled into certified partials whose
//!   checkpoints persist, and [`ServerHandle::drain`] bounds the wait.
//!
//! ## Crash-safe restart
//!
//! With a checkpoint directory configured, each graph gets the subdir
//! `<dir>/<fingerprint-hex>/` holding its `ckpt-<source>.bin` files and
//! the `GBSSMAN1` manifest, kept in lockstep with them through one live
//! [`ManifestState`] per graph: its registry entry creates both on the
//! graph's first job and every later job, on any worker, records into
//! that one index. A killed server restarted on the same directory
//! resumes interrupted jobs from their manifests bit-identically —
//! certified by matching [`crate::protocol::dist_digest`] values.
//! Startup (and every resume) runs checkpoint **quarantine**: a torn
//! manifest or corrupt
//! `ckpt-*.bin` is moved into the graph's `quarantine/` subdirectory
//! and the manifest is rebuilt from the surviving valid files, so
//! corruption costs one file, never the service.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
// lint:allow(hot-path-lock): service control state is request-rate, not per-edge
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphdata::CsrGraph;
use sssp_core::batch::{self, JobOutcome, ManifestState};
use sssp_core::engine::SsspEngine;
use sssp_core::stepping::SteppingWorkspace;
use sssp_core::{
    CancelToken, GuardConfig, Kernels, PreparedGraph, ProgressGauge, SplitStats, SsspError,
    SteppingStrategy,
};
use taskpool::ThreadPool;

use crate::lock;
use crate::protocol::{
    self, code, digest_and_reach, parse_gen_spec, HealthReport, Partial, Request, Response,
    ServerStats, SsspRequest, Summary, FRAME_SOH, TEXT_TERMINATOR,
};
use crate::queue::AdmissionQueue;
use crate::supervisor::{PoisonVerdict, Supervisor, SupervisorConfig};

/// Tunables of one [`start`]ed server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine worker threads draining the admission queue.
    pub workers: usize,
    /// Admission bound: waiting jobs past this are shed, never queued.
    pub queue_capacity: usize,
    /// Threads in the shared [`ThreadPool`] for pooled (`impl=improved`) jobs.
    pub pool_threads: usize,
    /// Graph registry bound; loads past it are refused.
    pub max_graphs: usize,
    /// Concurrent connection bound; accepts past it are refused.
    pub max_connections: usize,
    /// Per-connection socket read timeout (idle clients are dropped).
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout — the slow-client writer
    /// budget: a reader that stops draining loses its connection, not
    /// the server a worker.
    pub write_timeout: Option<Duration>,
    /// Inert, kept for the benchmark harness: each prepared graph owns
    /// its splits, one all-light split and one slot for the latest Δ with
    /// heavy edges, so split state is bounded by `max_graphs` with no
    /// budget to set.
    pub cache_bytes: Option<usize>,
    /// Durable checkpoint root; per-graph subdirectories are created
    /// beneath it on demand.
    pub checkpoint_dir: Option<PathBuf>,
    /// Whether HOLD/RELEASE are honoured (chaos-test levers).
    pub debug_commands: bool,
    /// Guard tunables inherited by every job.
    pub guard: GuardConfig,
    /// Δ applied when a request does not name one.
    pub default_delta: f64,
    /// Kernels applied when a request does not name an `impl=`.
    pub default_impl: Kernels,
    /// Worker recycling and heartbeat-watchdog tunables.
    pub supervisor: SupervisorConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            pool_threads: 2,
            max_graphs: 8,
            max_connections: 64,
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(10)),
            cache_bytes: None,
            checkpoint_dir: None,
            debug_commands: false,
            guard: GuardConfig::default(),
            default_delta: 1.0,
            default_impl: Kernels::Sequential,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Monotonic counters and gauges behind one lock; the shutdown flag
/// rides along so connection handlers and the accept loop share a
/// single coherent view without extra atomics.
#[derive(Default)]
struct Gauges {
    shutdown: bool,
    connections_open: u64,
    connections_total: u64,
    jobs_completed: u64,
    jobs_partial: u64,
    jobs_failed: u64,
    jobs_resumed: u64,
    degraded_workers: u64,
    writer_timeouts: u64,
    files_quarantined: u64,
}

/// A registry entry: a loaded graph, prepared once at `LOAD`, and, under
/// a checkpoint root, its checkpoint state — created by the graph's first
/// job that needs it and shared by every later one, so concurrent
/// workers record into one manifest instead of each saving its own copy
/// over the others'.
struct GraphEntry {
    prepared: PreparedGraph<'static>,
    checkpoints: OnceLock<ManifestState>,
}

impl GraphEntry {
    fn new(prepared: PreparedGraph<'static>) -> Self {
        GraphEntry { prepared, checkpoints: OnceLock::new() }
    }

    /// The graph's checkpoint state: the subdir `<root>/<fingerprint-hex>/`
    /// (fingerprints keep `ckpt-<source>.bin` names from colliding across
    /// graphs) and its live manifest, created on first use. A directory
    /// that cannot be created fails this job and is retried by the next.
    fn checkpoints(&self, root: &Path, fingerprint: u64) -> Result<&ManifestState, String> {
        if let Some(state) = self.checkpoints.get() {
            return Ok(state);
        }
        let dir = root.join(format!("{fingerprint:016x}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        Ok(self.checkpoints.get_or_init(|| ManifestState::open(&dir).0))
    }
}

/// One admitted job: the request plus the channel its handler waits on.
struct Job {
    request: SsspRequest,
    reply: mpsc::Sender<Response>,
}

struct Shared {
    cfg: ServerConfig,
    // Registry reads/writes happen per request, never per edge.
    // lint:allow(hot-path-lock): graph registry is request-rate control state
    graphs: Mutex<HashMap<u64, Arc<GraphEntry>>>,
    pool: Option<ThreadPool>,
    pool_degraded: Option<String>,
    queue: AdmissionQueue<Job>,
    // lint:allow(hot-path-lock): counters are touched per request/connection
    gauges: Mutex<Gauges>,
    supervisor: Supervisor,
    /// Every worker thread ever spawned into a slot (initial plus
    /// recycled generations); drained and joined at shutdown.
    // lint:allow(hot-path-lock): touched at spawn/shutdown only
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        lock::recover("gauges", &self.gauges).shutdown
    }

    fn stats(&self) -> ServerStats {
        let (waiting, running, shed, admitted) = self.queue.counters();
        let (graphs, graphs_bytes, splits) = {
            let graphs = lock::recover("graphs", &self.graphs);
            let bytes = graphs.values().map(|e| e.prepared.resident_bytes()).sum::<usize>();
            let splits: SplitStats = graphs.values().map(|e| e.prepared.split_stats()).sum();
            (graphs.len() as u64, bytes as u64, splits)
        };
        let health = self.supervisor.health();
        let g = lock::recover("gauges", &self.gauges);
        ServerStats {
            pairs: vec![
                ("graphs_loaded".into(), graphs),
                ("graphs_resident_bytes".into(), graphs_bytes),
                ("jobs_completed".into(), g.jobs_completed),
                ("jobs_partial".into(), g.jobs_partial),
                ("jobs_failed".into(), g.jobs_failed),
                ("jobs_resumed".into(), g.jobs_resumed),
                ("jobs_shed".into(), shed),
                ("jobs_admitted".into(), admitted),
                ("queue_depth".into(), waiting),
                ("queue_running".into(), running),
                ("degraded_workers".into(), g.degraded_workers),
                ("writer_timeouts".into(), g.writer_timeouts),
                ("connections_open".into(), g.connections_open),
                ("connections_total".into(), g.connections_total),
                ("cache_builds".into(), splits.builds as u64),
                ("cache_hits".into(), splits.hits as u64),
                ("cache_evictions".into(), splits.replacements as u64),
                ("cache_resident_bytes".into(), splits.resident_bytes as u64),
                ("workers_healthy".into(), health.healthy),
                ("workers_poisoned".into(), health.poisoned),
                ("workers_permanently_degraded".into(), health.permanently_degraded),
                ("worker_recycles".into(), health.recycles_total),
                ("watchdog_cancelled".into(), health.watchdog_cancelled),
                ("files_quarantined".into(), g.files_quarantined),
            ],
        }
    }

    fn health_report(&self) -> HealthReport {
        let counts = self.supervisor.health();
        let draining = self.queue.is_draining();
        let status = if draining {
            "draining"
        } else if counts.poisoned + counts.permanently_degraded > 0 {
            "degraded"
        } else {
            "ok"
        };
        HealthReport {
            status: status.into(),
            workers: counts.workers,
            healthy: counts.healthy,
            poisoned: counts.poisoned,
            permanently_degraded: counts.permanently_degraded,
            recycles_total: counts.recycles_total,
            watchdog_cancelled: counts.watchdog_cancelled,
            quarantined_files: lock::recover("gauges", &self.gauges).files_quarantined,
            draining,
        }
    }

    /// Enter the graceful drain: admission sheds with live hints from
    /// here on, every waiting job is answered `OVERLOADED` right now,
    /// and in-flight jobs are cancelled so they stop at their next epoch
    /// boundary as certified (and, with a checkpoint dir, persisted)
    /// partials. Idempotent.
    fn begin_drain(&self) {
        let hint = self.queue.retry_hint();
        for job in self.queue.drain() {
            let _ = job.reply.send(Response::Overloaded { retry_after_ms: hint.max(1) });
        }
        self.supervisor.cancel_active();
    }
}

/// Run one admitted job on a worker, through the job door on this
/// thread. `poisoned` is the worker's sticky degradation state;
/// `slot`/`generation` identify the worker to the supervisor for
/// heartbeat registration; `ws` is the slot's workspace, lent to the
/// job's engine view.
fn run_job(
    shared: &Shared,
    req: &SsspRequest,
    poisoned: &mut Option<String>,
    slot: usize,
    generation: u64,
    ws: &mut SteppingWorkspace,
) -> Response {
    let Some(entry) = lock::recover("graphs", &shared.graphs).get(&req.fingerprint).cloned() else {
        return Response::Error {
            code: code::UNKNOWN_GRAPH,
            message: format!("no loaded graph has fingerprint {:016x}", req.fingerprint),
        };
    };
    let prep = &entry.prepared;
    if req.source >= prep.num_vertices() {
        let err = SsspError::SourceOutOfBounds {
            source: req.source,
            num_vertices: prep.num_vertices(),
        };
        return Response::Error { code: protocol::wire_code(&err), message: err.to_string() };
    }
    let delta = req.delta.unwrap_or(shared.cfg.default_delta);
    let requested = req.implementation.unwrap_or(shared.cfg.default_impl);
    let kernels = if poisoned.is_some() { Kernels::Sequential } else { requested };
    // A poisoned worker also drops any generalized strategy: its pinned
    // sequential-fused path is the classic family.
    let strategy = if poisoned.is_some() {
        SteppingStrategy::Classic
    } else {
        req.strategy.unwrap_or(SteppingStrategy::Classic)
    };
    if let Err(err) = strategy.validate() {
        return Response::Error { code: protocol::wire_code(&err), message: err.to_string() };
    }

    let mut guard = shared.cfg.guard.clone();
    if let Some(epochs) = req.epochs {
        guard.max_ticks = epochs.max(1);
    }
    let checkpoints = match shared.cfg.checkpoint_dir.as_deref() {
        Some(root) => match entry.checkpoints(root, req.fingerprint) {
            Ok(state) => Some(state),
            Err(message) => return Response::Error { code: code::JOB_FAILED, message },
        },
        None => None,
    };
    // Register with the heartbeat watchdog: the run publishes epoch
    // progress through the gauge, and the token is the supervisor's
    // cancel lever (stall verdicts, graceful drain).
    let token = CancelToken::new();
    let gauge = ProgressGauge::new();
    let deadline = req.deadline_ms.map(Duration::from_millis);
    shared.supervisor.job_started(slot, generation, token.clone(), gauge.clone(), deadline);

    let job = batch::Job {
        source: req.source,
        kernels,
        delta,
        strategy,
        guard: &guard,
        deadline,
        cancel: Some(&token),
        progress: Some(&gauge),
    };
    let mut engine = SsspEngine::over(prep, ws);
    let (pool, pool_unavailable) = (shared.pool.as_ref(), shared.pool_degraded.as_deref());
    let outcome = batch::run_job(&mut engine, pool, pool_unavailable, &job, checkpoints);
    if let Some(moved) = checkpoints.map(|c| c.take_quarantined().len()).filter(|&n| n > 0) {
        lock::recover("gauges", &shared.gauges).files_quarantined += moved as u64;
    }
    outcome_response(shared, req, poisoned, outcome)
}

/// Map one settled [`JobOutcome`] to its wire response, applying the
/// worker-poisoning policy and bumping the job gauges. Split from
/// [`run_job`] so the poisoning edges are unit-testable without driving
/// a live engine into them.
fn outcome_response(
    shared: &Shared,
    req: &SsspRequest,
    poisoned: &mut Option<String>,
    outcome: JobOutcome,
) -> Response {
    match outcome {
        JobOutcome::Complete { result, delta, degraded, degraded_by_panic, resumed } => {
            // A panic-degraded completion poisons this worker: all later
            // jobs run sequential-fused with the notice attached. The
            // ladder's *typed* marker decides — a degradation
            // notice that merely mentions "panic" must not poison.
            if degraded_by_panic && poisoned.is_none() {
                if let Some(msg) = &degraded {
                    *poisoned = Some(msg.clone());
                    lock::recover("gauges", &shared.gauges).degraded_workers += 1;
                }
            }
            let mut g_ = lock::recover("gauges", &shared.gauges);
            g_.jobs_completed += 1;
            if resumed {
                g_.jobs_resumed += 1;
            }
            drop(g_);
            let sticky = poisoned.as_ref().map(|why| {
                format!("worker degraded to sequential-fused after panic: {why}")
            });
            let (dist_fnv, reached) = digest_and_reach(&result.dist);
            Response::Summary(Summary {
                fingerprint: req.fingerprint,
                source: req.source,
                delta,
                reached,
                stats: result.stats,
                dist_fnv,
                degraded: degraded.or(sticky),
                full: req.full.then_some(result.dist),
            })
        }
        JobOutcome::Partial { stop, reason, saved_to } => {
            lock::recover("gauges", &shared.gauges).jobs_partial += 1;
            let checkpoint = stop.checkpoint().expect("a partial outcome owns its checkpoint");
            Response::Partial(Partial {
                source: req.source,
                delta: checkpoint.delta,
                code: protocol::wire_code(&stop),
                settled: checkpoint.settled_count() as u64,
                settled_below: checkpoint.settled_below(),
                saved: saved_to
                    .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned())),
                reason,
            })
        }
        JobOutcome::Failed { error } => {
            lock::recover("gauges", &shared.gauges).jobs_failed += 1;
            // Same typed-marker rule as above: an error whose *text*
            // contains "panic" (a checkpoint path, a user string) must
            // not poison a healthy worker.
            if let (SsspError::WorkerPanicked { message }, None) = (&error, &*poisoned) {
                *poisoned = Some(message.clone());
                lock::recover("gauges", &shared.gauges).degraded_workers += 1;
            }
            Response::Error { code: protocol::wire_code(&error), message: error.to_string() }
        }
    }
}

fn handle_load(shared: &Shared, spec: &str) -> Response {
    let el = match parse_gen_spec(spec) {
        Ok(el) => el,
        Err(e) => return Response::Error { code: code::LOAD_FAILED, message: e },
    };
    let g = match CsrGraph::from_edge_list(&el) {
        Ok(g) => g,
        Err(e) => {
            return Response::Error { code: code::LOAD_FAILED, message: e.to_string() }
        }
    };
    // The graph's one fingerprint pass. The weight pass and the row sort
    // run only for a graph the registry will keep, outside its lock;
    // every request on it reads the results.
    let fingerprint = g.fingerprint();
    let (vertices, edges) = (g.num_vertices() as u64, g.num_edges() as u64);
    let loaded = Response::Loaded { fingerprint, vertices, edges };
    let max_graphs = shared.cfg.max_graphs;
    let refused = || Response::Error {
        code: code::GRAPH_TABLE_FULL,
        message: format!("graph registry is at its bound of {max_graphs}; load refused"),
    };
    {
        let graphs = lock::recover("graphs", &shared.graphs);
        if graphs.contains_key(&fingerprint) {
            return loaded;
        }
        if graphs.len() >= max_graphs {
            return refused();
        }
    }
    let prepared = PreparedGraph::load_with_fingerprint(g, fingerprint);
    // A concurrent LOAD may have registered this graph, or filled the
    // registry, while it was being prepared.
    let mut graphs = lock::recover("graphs", &shared.graphs);
    if !graphs.contains_key(&fingerprint) {
        if graphs.len() >= max_graphs {
            return refused();
        }
        graphs.insert(fingerprint, Arc::new(GraphEntry::new(prepared)));
    }
    loaded
}

/// Dispatch one request from a connection handler. `Sssp` goes through
/// admission; everything else is answered inline (control traffic must
/// stay responsive even when the engine queue is full). Returns the
/// response and whether the connection should close.
fn dispatch(shared: &Shared, request: Request) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::Quit => (Response::Done, true),
        Request::Stats => (Response::Stats(shared.stats()), false),
        Request::Health => (Response::Health(shared.health_report()), false),
        Request::Hold | Request::Release | Request::Drain => {
            if !shared.cfg.debug_commands {
                return (
                    Response::Error {
                        code: code::DEBUG_DISABLED,
                        message: "HOLD/RELEASE/DRAIN require --debug-commands".into(),
                    },
                    false,
                );
            }
            match request {
                Request::Hold => shared.queue.hold(),
                Request::Release => shared.queue.release(),
                _ => shared.begin_drain(),
            }
            (Response::Done, false)
        }
        Request::LoadGen { spec } => (handle_load(shared, &spec), false),
        Request::Sssp(req) => {
            let (tx, rx) = mpsc::channel();
            match shared.queue.submit(Job { request: req, reply: tx }) {
                Err(retry_after_ms) if shared.is_shutdown() || retry_after_ms == 0 => (
                    Response::Error {
                        code: code::SHUTTING_DOWN,
                        message: "server is shutting down".into(),
                    },
                    true,
                ),
                Err(retry_after_ms) => (Response::Overloaded { retry_after_ms }, false),
                Ok(()) => match rx.recv() {
                    Ok(resp) => (resp, false),
                    // The queue was torn down with this job still in it.
                    Err(_) => (
                        Response::Error {
                            code: code::SHUTTING_DOWN,
                            message: "server shut down before the job ran".into(),
                        },
                        true,
                    ),
                },
            }
        }
    }
}

/// One engine worker generation serving `slot`. The sticky `poisoned`
/// marker and the slot's workspace live and die with the thread: on a
/// typed panic the worker reports to the supervisor and usually retires
/// (the supervisor respawns the slot with a clean engine and a new
/// workspace after its cooldown); only a permanently-degraded verdict
/// keeps the marker — and the sequential-fused pinning — for the rest of
/// the process.
fn worker_loop(shared: &Shared, slot: usize, generation: u64) {
    let mut poisoned: Option<String> = None;
    // Grown to the largest graph this slot serves, reused by every job.
    let mut ws = SteppingWorkspace::default();
    while let Some(job) = shared.queue.pop() {
        let was_poisoned = poisoned.is_some();
        let started = Instant::now();
        let response = run_job(shared, &job.request, &mut poisoned, slot, generation, &mut ws);
        shared.queue.finish(started.elapsed());
        // The watchdog's verdict on the job that just came back: a
        // cancelled heartbeat means this worker stalled mid-run and is
        // suspect even though it eventually returned.
        if shared.supervisor.job_finished(slot, generation) && poisoned.is_none() {
            poisoned = Some("watchdog: job heartbeat stalled".into());
            lock::recover("gauges", &shared.gauges).degraded_workers += 1;
        }
        // A dead handler (client gone) just drops the reply.
        let _ = job.reply.send(response);
        if poisoned.is_some() && !was_poisoned {
            let reason = poisoned.clone().unwrap_or_default();
            if shared.supervisor.report_poisoned(slot, generation, &reason)
                == PoisonVerdict::Retire
            {
                // The supervisor respawns this slot after its cooldown;
                // a fresh thread means a clean, unpinned engine.
                return;
            }
            // KeepServing: the slot is permanently degraded — keep the
            // sticky marker and serve sequential-fused forever.
        }
        if !shared.supervisor.is_current(slot, generation) {
            // Abandoned by the watchdog as wedged and already replaced:
            // the reply above was still valid, but this thread must bow
            // out rather than compete with its successor.
            return;
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn write_text(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut out = String::new();
    for line in protocol::render_response(resp) {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(TEXT_TERMINATOR);
    out.push('\n');
    stream.write_all(out.as_bytes())
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(shared.cfg.read_timeout);
    let _ = stream.set_write_timeout(shared.cfg.write_timeout);

    // Mode sniff: a binary conversation opens with SOH (0x01), which no
    // text command starts with.
    let mut first = [0u8; 1];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    let result = if first[0] == FRAME_SOH {
        handle_binary(shared, &mut stream)
    } else {
        handle_text(shared, first[0], &mut stream)
    };
    if let Err(e) = result {
        if is_timeout(&e) {
            lock::recover("gauges", &shared.gauges).writer_timeouts += 1;
        }
    }
}

/// Binary conversation. The first frame's SOH byte was consumed by the
/// mode sniff; later frames carry their own.
fn handle_binary(shared: &Shared, stream: &mut TcpStream) -> std::io::Result<()> {
    let mut first_frame = true;
    loop {
        let (op, payload) = match protocol::read_frame(stream, !first_frame) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        first_frame = false;
        let (resp, close) = match protocol::decode_request(op, &payload) {
            Ok(req) => dispatch(shared, req),
            Err(message) => (Response::Error { code: code::BAD_REQUEST, message }, false),
        };
        let (rop, rpayload) = protocol::encode_response(&resp);
        protocol::write_frame(stream, rop, &rpayload)?;
        if close {
            return Ok(());
        }
    }
}

/// Text conversation; `first` is the already-sniffed first byte.
fn handle_text(shared: &Shared, first: u8, stream: &mut TcpStream) -> std::io::Result<()> {
    let reader = stream.try_clone()?;
    let lines = BufReader::new(std::io::Cursor::new(vec![first]).chain(reader)).lines();
    for line in lines {
        let line = match line {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let (resp, close) = match protocol::parse_request(line.trim()) {
            Ok(req) => dispatch(shared, req),
            Err(message) => (Response::Error { code: code::BAD_REQUEST, message }, false),
        };
        write_text(stream, &resp)?;
        if close {
            return Ok(());
        }
    }
    Ok(())
}

/// A started server: its bound address plus the handles needed to stop
/// it cleanly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot, equivalent to a STATS request.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Health snapshot, equivalent to a HEALTH request.
    pub fn health(&self) -> HealthReport {
        self.shared.health_report()
    }

    /// Enter the graceful drain (see [`ServerHandle::drain`] for the
    /// bounded, blocking variant). Idempotent.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has been requested — by [`ServerHandle::begin_drain`]
    /// or by a wire `DRAIN` op. The binary's signal loop polls this.
    pub fn drain_requested(&self) -> bool {
        self.shared.queue.is_draining()
    }

    /// Graceful drain with a deadline: stop admitting (waiting jobs are
    /// shed with live retry hints), cancel in-flight jobs into certified
    /// partials, wait up to `deadline` for them to reach their next
    /// epoch boundary, then shut down. Returns whether every in-flight
    /// job settled within the deadline.
    pub fn drain(self, deadline: Duration) -> bool {
        self.shared.begin_drain();
        let start = Instant::now();
        while self.shared.queue.running() > 0 && start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let clean = self.shared.queue.running() == 0;
        self.shutdown();
        clean
    }

    /// Stop accepting, drain workers, and join the service threads.
    /// Queued-but-unstarted jobs are answered with a shutting-down
    /// error; running jobs finish.
    pub fn shutdown(mut self) {
        lock::recover("gauges", &self.shared.gauges).shutdown = true;
        self.shared.queue.shutdown();
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The supervisor joins before the workers so no new generation
        // can be spawned after the handle list is drained.
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = lock::recover("worker_handles", &self.shared.worker_handles).drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and start the service threads. Returns once the listener
/// is live; the returned handle reports the bound address.
pub fn start(cfg: ServerConfig, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;

    // One pool for the server's lifetime. Creation failure degrades
    // every parallel job to sequential-fused — visibly, via the
    // per-reply degradation notice — instead of failing startup.
    let (pool, pool_degraded) = match ThreadPool::with_threads(cfg.pool_threads.max(1)) {
        Ok(p) => (Some(p), None),
        Err(e) => (None, Some(e.to_string())),
    };
    // Startup quarantine pass: every per-graph checkpoint subdir is
    // checked, torn manifests and corrupt ckpt files are moved to
    // `quarantine/`, and the manifests are rebuilt from the survivors —
    // so a crash that tore a file delays startup by one scan instead of
    // making the directory unservable.
    let quarantined_at_startup = match cfg.checkpoint_dir.as_deref() {
        Some(root) => quarantine_scan(root),
        None => 0,
    };
    let workers = cfg.workers.max(1);
    let supervisor_cfg = cfg.supervisor.clone();
    let shared = Arc::new(Shared {
        queue: AdmissionQueue::new(cfg.queue_capacity),
        // lint:allow(hot-path-lock): registry is touched once per request
        graphs: Mutex::new(HashMap::new()),
        pool,
        pool_degraded,
        // lint:allow(hot-path-lock): counters are touched per request/connection
        gauges: Mutex::new(Gauges {
            files_quarantined: quarantined_at_startup,
            ..Gauges::default()
        }),
        supervisor: Supervisor::new(workers, supervisor_cfg),
        // lint:allow(hot-path-lock): touched at spawn/shutdown only
        worker_handles: Mutex::new(Vec::new()),
        cfg,
    });

    for slot in 0..workers {
        spawn_worker(&shared, slot, 0);
    }

    // The supervisor thread: ticks the heartbeat watchdog and respawns
    // poisoned slots whose cooldown has elapsed.
    let supervisor = {
        let shared = Arc::clone(&shared);
        let interval = shared.cfg.supervisor.watchdog_interval.max(Duration::from_millis(1));
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if shared.is_shutdown() {
                return;
            }
            let now = Instant::now();
            shared.supervisor.scan(now);
            for (slot, generation) in shared.supervisor.claim_respawns(now) {
                spawn_worker(&shared, slot, generation);
            }
        })
    };

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.is_shutdown() {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let over = {
                    let mut g = lock::recover("gauges", &shared.gauges);
                    if g.connections_open >= shared.cfg.max_connections as u64 {
                        true
                    } else {
                        g.connections_open += 1;
                        g.connections_total += 1;
                        false
                    }
                };
                if over {
                    // Refuse politely in text form; binary clients still
                    // see a clean close.
                    let mut s = stream;
                    let _ = write_text(
                        &mut s,
                        &Response::Error {
                            code: code::TOO_MANY_CONNECTIONS,
                            message: "connection limit reached".into(),
                        },
                    );
                    continue;
                }
                let slot = ConnectionSlot(Arc::clone(&shared));
                std::thread::spawn(move || handle_connection(&slot.0, stream));
            }
        })
    };

    Ok(ServerHandle { addr, shared, accept: Some(accept), supervisor: Some(supervisor) })
}

/// A connection's slot under `max_connections`, given back when its
/// thread ends — also when the thread unwinds, so a panic while serving
/// one client cannot lock the next ones out.
struct ConnectionSlot(Arc<Shared>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        lock::recover("gauges", &self.0.gauges).connections_open -= 1;
    }
}

/// Spawn one engine worker generation into `slot` and record its handle
/// for shutdown joining.
fn spawn_worker(shared: &Arc<Shared>, slot: usize, generation: u64) {
    let shared2 = Arc::clone(shared);
    let handle = std::thread::spawn(move || worker_loop(&shared2, slot, generation));
    lock::recover("worker_handles", &shared.worker_handles).push(handle);
}

/// Run [`sssp_core::manifest::recover_directory`] over every per-graph
/// checkpoint subdir under `root`; returns how many files were moved to
/// quarantine.
fn quarantine_scan(root: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else { return 0 };
    let mut quarantined = 0u64;
    for entry in entries.flatten() {
        let path = entry.path();
        // Per-graph subdirs are 16 lowercase hex digits (the graph
        // fingerprint); anything else — including `quarantine/` itself —
        // is not ours to touch.
        let is_graph_dir = path.is_dir()
            && entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.len() == 16 && n.bytes().all(|b| b.is_ascii_hexdigit()));
        if !is_graph_dir {
            continue;
        }
        match sssp_core::manifest::recover_directory(&path) {
            Ok(report) => {
                for q in &report.quarantined {
                    eprintln!(
                        "sssp-serve: quarantined corrupt checkpoint data: {}",
                        q.display()
                    );
                }
                quarantined += report.quarantined.len() as u64;
            }
            Err(e) => eprintln!(
                "sssp-serve: checkpoint recovery failed for {}: {e}",
                path.display()
            ),
        }
    }
    quarantined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::dist_digest;
    use sssp_core::manifest::CheckpointManifest;

    fn connect_text(addr: SocketAddr) -> TcpStream {
        TcpStream::connect(addr).expect("connect")
    }

    /// Send one text request and collect the reply lines (without the
    /// terminator).
    fn ask(stream: &mut TcpStream, line: &str) -> Vec<String> {
        stream.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = Vec::new();
        let reader = stream.try_clone().expect("clone");
        for l in BufReader::new(reader).lines() {
            let l = l.expect("reply line");
            if l == TEXT_TERMINATOR {
                break;
            }
            reply.push(l);
        }
        reply
    }

    fn load_grid(stream: &mut TcpStream) -> u64 {
        let reply = ask(stream, "LOAD GEN grid:6x6");
        let line = &reply[0];
        assert!(line.starts_with("LOADED"), "{line}");
        let fp = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix("fingerprint="))
            .expect("fingerprint field");
        u64::from_str_radix(fp, 16).expect("hex fingerprint")
    }

    #[test]
    fn text_conversation_covers_load_run_and_stats() {
        let server = start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut c = connect_text(server.addr());
        assert_eq!(ask(&mut c, "PING"), ["PONG"]);
        let fp = load_grid(&mut c);
        // Idempotent reload of the same graph.
        assert_eq!(load_grid(&mut c), fp);

        let ok = ask(&mut c, &format!("SSSP {fp:016x} 0"));
        assert!(ok[0].starts_with("OK "), "{ok:?}");
        assert!(ok[0].contains("reached=36"), "grid 6x6 fully reachable: {ok:?}");

        let stats = ask(&mut c, "STATS");
        assert!(stats.iter().any(|l| l == "graphs_loaded=1"), "{stats:?}");
        assert!(stats.iter().any(|l| l == "jobs_completed=1"), "{stats:?}");
        assert_eq!(ask(&mut c, "QUIT"), ["DONE"]);
        server.shutdown();
    }

    #[test]
    fn binary_conversation_matches_text_results() {
        let server = start(ServerConfig::default(), "127.0.0.1:0").unwrap();

        let mut text = connect_text(server.addr());
        let fp = load_grid(&mut text);
        let ok = ask(&mut text, &format!("SSSP {fp:016x} 0"));
        let text_fnv = ok[0]
            .split_whitespace()
            .find_map(|w| w.strip_prefix("dist_fnv="))
            .map(|h| u64::from_str_radix(h, 16).unwrap())
            .expect("dist_fnv field");

        let mut bin = TcpStream::connect(server.addr()).unwrap();
        let send = |s: &mut TcpStream, req: &Request| {
            let (op, payload) = protocol::encode_request(req);
            protocol::write_frame(s, op, &payload).unwrap();
            let (rop, rpayload) = protocol::read_frame(s, true).unwrap();
            protocol::decode_response(rop, &rpayload).unwrap()
        };
        assert_eq!(send(&mut bin, &Request::Ping), Response::Pong);
        let resp = send(
            &mut bin,
            &Request::Sssp(SsspRequest {
                fingerprint: fp,
                source: 0,
                delta: None,
                deadline_ms: None,
                epochs: None,
                implementation: None,
                strategy: None,
                full: true,
            }),
        );
        let Response::Summary(s) = resp else { panic!("expected summary, got {resp:?}") };
        assert_eq!(s.dist_fnv, text_fnv, "binary and text agree bit-for-bit");
        let dist = s.full.expect("full dump requested");
        assert_eq!(dist_digest(&dist), text_fnv);
        server.shutdown();
    }

    #[test]
    fn unknown_graphs_bad_requests_and_debug_gate_are_typed_errors() {
        let server = start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut c = connect_text(server.addr());
        let missing = ask(&mut c, "SSSP 00000000000000ff 0");
        assert!(
            missing[0].starts_with(&format!("ERROR code={}", code::UNKNOWN_GRAPH)),
            "{missing:?}"
        );
        let garbled = ask(&mut c, "FROB 1 2");
        assert!(
            garbled[0].starts_with(&format!("ERROR code={}", code::BAD_REQUEST)),
            "{garbled:?}"
        );
        let held = ask(&mut c, "HOLD");
        assert!(
            held[0].starts_with(&format!("ERROR code={}", code::DEBUG_DISABLED)),
            "debug commands are off by default: {held:?}"
        );
        let fp = load_grid(&mut c);
        let oob = ask(&mut c, &format!("SSSP {fp:016x} 9999"));
        assert!(oob[0].starts_with("ERROR code=13"), "{oob:?}");
        server.shutdown();
    }

    #[test]
    fn epoch_budget_yields_a_certified_partial_with_a_saved_checkpoint() {
        let dir = std::env::temp_dir().join(format!("serve-partial-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServerConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = start(cfg, "127.0.0.1:0").unwrap();
        let mut c = connect_text(server.addr());
        let fp = {
            let reply = ask(&mut c, "LOAD GEN grid:40x40");
            let fpw = reply[0]
                .split_whitespace()
                .find_map(|w| w.strip_prefix("fingerprint="))
                .unwrap();
            u64::from_str_radix(fpw, 16).unwrap()
        };
        let partial = ask(&mut c, &format!("SSSP {fp:016x} 0 epochs=3"));
        assert!(partial[0].starts_with("PARTIAL"), "{partial:?}");
        assert!(partial[0].contains("code=15"), "epoch budget is wire code 15: {partial:?}");
        assert!(partial[0].contains("saved=ckpt-0.bin"), "{partial:?}");
        let sub = dir.join(format!("{fp:016x}"));
        assert!(sub.join("ckpt-0.bin").exists());
        assert!(sub.join(CheckpointManifest::FILE_NAME).exists());

        // Finishing the job drains both the checkpoint and its manifest
        // entry, and counts as a resume.
        let ok = ask(&mut c, &format!("SSSP {fp:016x} 0"));
        assert!(ok[0].starts_with("OK "), "{ok:?}");
        assert!(!sub.join("ckpt-0.bin").exists());
        let stats = server.stats();
        assert_eq!(stats.get("jobs_resumed"), Some(1));
        assert_eq!(stats.get("jobs_partial"), Some(1));

        // A checkpoint the manifest does not list is still resumed —
        // through the conventional `ckpt-<source>.bin` name — to the same
        // bits, and still counted.
        let partial = ask(&mut c, &format!("SSSP {fp:016x} 0 epochs=3"));
        assert!(partial[0].contains("saved=ckpt-0.bin"), "{partial:?}");
        std::fs::remove_file(sub.join(CheckpointManifest::FILE_NAME)).unwrap();
        assert_eq!(ask(&mut c, &format!("SSSP {fp:016x} 0")), ok);
        assert_eq!(server.stats().get("jobs_resumed"), Some(2));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Shared` with no pool and no graphs — enough to exercise the
    /// outcome-to-response mapping without sockets or workers.
    fn bare_shared(queue_capacity: usize) -> Shared {
        Shared {
            cfg: ServerConfig::default(),
            // lint:allow(hot-path-lock): test fixture mirroring the registry lock
            graphs: Mutex::new(HashMap::new()),
            pool: None,
            pool_degraded: None,
            queue: AdmissionQueue::new(queue_capacity),
            // lint:allow(hot-path-lock): test fixture mirroring the gauges lock
            gauges: Mutex::new(Gauges::default()),
            supervisor: Supervisor::new(1, SupervisorConfig::default()),
            // lint:allow(hot-path-lock): test fixture mirroring the handle list lock
            worker_handles: Mutex::new(Vec::new()),
        }
    }

    fn dummy_request() -> SsspRequest {
        SsspRequest {
            fingerprint: 0,
            source: 0,
            delta: None,
            deadline_ms: None,
            epochs: None,
            implementation: None,
            strategy: None,
            full: false,
        }
    }

    /// Every failure crossing the batch boundary answers with its solver
    /// wire code and display, and only the typed panic marker poisons:
    /// an error whose *text* says "panic" must not, and a job whose retry
    /// also panicked is code 20 (before the boundary was typed it fell
    /// through a prefix table to JOB_FAILED, 37).
    #[test]
    fn failed_outcomes_keep_their_wire_codes_and_only_typed_panics_poison() {
        let shared = bare_shared(1);
        let mut poisoned = None;
        let cases = [
            (
                SsspError::CheckpointIo {
                    path: "/srv/panic-drills/ckpt-0.bin".into(),
                    message: "disk full".into(),
                },
                19,
            ),
            (SsspError::InvalidStrategy { reason: "rho must be at least 1, got 0".into() }, 21),
            (
                SsspError::WorkerPanicked {
                    message: "boom; sequential retry also panicked (boom)".into(),
                },
                20,
            ),
        ];
        for (error, code) in cases {
            let message = error.to_string();
            let resp = outcome_response(
                &shared,
                &dummy_request(),
                &mut poisoned,
                JobOutcome::Failed { error },
            );
            assert_eq!(poisoned.is_some(), code == 20, "{message}");
            assert_eq!(resp, Response::Error { code, message });
        }
        assert_eq!(poisoned.unwrap(), "boom; sequential retry also panicked (boom)");
        let g = lock::recover("gauges", &shared.gauges);
        assert_eq!((g.degraded_workers, g.jobs_failed), (1, 3));
    }

    /// A poisoned worker answers a pooled request on the sequential
    /// kernels with the sticky notice. On a pool-less server the ladder
    /// says so whenever pooled kernels are asked for, so the missing
    /// notice shows the poisoned worker never asked.
    #[test]
    fn poisoned_worker_answers_a_pooled_request_sequentially_with_the_sticky_notice() {
        let shared = bare_shared(1);
        let g = CsrGraph::from_edge_list(&graphdata::gen::grid2d(6, 6)).unwrap();
        let req = SsspRequest {
            fingerprint: g.fingerprint(),
            implementation: Some(Kernels::Pooled),
            ..dummy_request()
        };
        let entry = Arc::new(GraphEntry::new(PreparedGraph::load(g)));
        lock::recover("graphs", &shared.graphs).insert(req.fingerprint, entry);
        let mut ws = SteppingWorkspace::default();
        let mut summary = |poisoned: &mut Option<String>| {
            match run_job(&shared, &req, poisoned, 0, 0, &mut ws) {
                Response::Summary(s) => s,
                other => panic!("expected a summary, got {other:?}"),
            }
        };
        let healthy = summary(&mut None);
        let notice = healthy.degraded.expect("pooled kernels were asked for, and missed");
        assert!(notice.starts_with("thread pool unavailable (no pool)"), "{notice}");
        let pinned = summary(&mut Some("boom".into()));
        assert_eq!(
            pinned.degraded.as_deref(),
            Some("worker degraded to sequential-fused after panic: boom")
        );
        assert_eq!((pinned.reached, pinned.dist_fnv), (36, healthy.dist_fnv));
    }

    #[test]
    fn health_probe_drain_op_and_live_hints_walk_the_drain_path() {
        let cfg = ServerConfig { debug_commands: true, workers: 1, ..Default::default() };
        let server = start(cfg, "127.0.0.1:0").unwrap();
        let mut c = connect_text(server.addr());
        let fp = load_grid(&mut c);
        let h = server.health();
        assert_eq!(h.status, "ok");
        assert_eq!((h.workers, h.healthy, h.draining), (1, 1, false));
        let probe = ask(&mut c, "HEALTH");
        assert!(probe[0].starts_with("HEALTH status=ok workers=1 healthy=1 "), "{probe:?}");

        // Park a job in the queue behind HOLD, then drain: the waiting
        // job must be answered with a *live* retry hint, never the
        // shutdown sentinel 0.
        assert_eq!(ask(&mut c, "HOLD"), ["DONE"]);
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut c2 = connect_text(addr);
            ask(&mut c2, &format!("SSSP {fp:016x} 0"))
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().get("queue_depth") != Some(1) {
            assert!(Instant::now() < deadline, "job never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ask(&mut c, "DRAIN"), ["DONE"]);
        let shed = waiter.join().unwrap();
        assert!(shed[0].starts_with("OVERLOADED retry_after_ms="), "{shed:?}");
        let hint: u64 = shed[0].split('=').nth(1).unwrap().parse().unwrap();
        assert!(hint >= 1, "shed jobs get a live hint, not the shutdown sentinel");

        // New submissions shed immediately, also with a live hint, and
        // control traffic stays responsive.
        let refused = ask(&mut c, &format!("SSSP {fp:016x} 0"));
        assert!(refused[0].starts_with("OVERLOADED retry_after_ms="), "{refused:?}");
        assert_eq!(ask(&mut c, "PING"), ["PONG"]);
        let h = server.health();
        assert_eq!(h.status, "draining");
        assert!(h.draining);
        assert!(server.drain_requested());
        // Nothing is running, so the bounded drain completes clean.
        assert!(server.drain(Duration::from_secs(5)));
    }

    #[test]
    fn drain_is_debug_gated() {
        let server = start(ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut c = connect_text(server.addr());
        let refused = ask(&mut c, "DRAIN");
        assert!(
            refused[0].starts_with(&format!("ERROR code={}", code::DEBUG_DISABLED)),
            "{refused:?}"
        );
        assert!(!server.drain_requested());
        server.shutdown();
    }

    /// The recycling chaos test: a panic-injected worker serves its job
    /// degraded (sequential-fused retry), retires, and is replaced by a
    /// fresh worker that serves the *requested* implementation again —
    /// at every pool width the service runs with.
    #[test]
    fn panic_poisoned_worker_is_recycled_and_serves_the_requested_impl_again() {
        for pool_threads in [1usize, 2, 4] {
            let cfg = ServerConfig {
                workers: 1,
                pool_threads,
                supervisor: SupervisorConfig {
                    cooldown: Duration::from_millis(50),
                    watchdog_interval: Duration::from_millis(5),
                    ..SupervisorConfig::default()
                },
                ..ServerConfig::default()
            };
            // The daemon's pool is created by `start`, under the session,
            // so even this small grid's pooled relaxations run as pool
            // tasks (at every width), where the hook fires.
            let _session = taskpool::fault::TestSession::begin();
            let server = start(cfg, "127.0.0.1:0").unwrap();
            let mut c = connect_text(server.addr());
            let fp = load_grid(&mut c);

            taskpool::fault::arm_panic_after(0);
            let degraded = ask(&mut c, &format!("SSSP {fp:016x} 0 impl=improved"));
            taskpool::fault::disarm();
            assert!(
                degraded[0].starts_with("DEGRADED"),
                "injected panic must degrade ({pool_threads} threads): {degraded:?}"
            );
            assert!(degraded[1].starts_with("OK "), "{degraded:?}");

            // The worker retired; the supervisor recycles the slot after
            // its cooldown.
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                let stats = server.stats();
                if stats.get("workers_healthy") == Some(1)
                    && stats.get("worker_recycles") >= Some(1)
                {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "slot never recycled ({pool_threads} threads): {stats:?}"
                );
                std::thread::sleep(Duration::from_millis(10));
            }

            // A later job on the same connection gets the requested
            // implementation, undegraded.
            let ok = ask(&mut c, &format!("SSSP {fp:016x} 0 impl=improved"));
            assert!(
                ok[0].starts_with("OK "),
                "recycled worker serves the requested impl ({pool_threads} threads): {ok:?}"
            );
            assert_eq!(server.health().status, "ok");
            server.shutdown();
        }
    }

    /// Satellite regression: a handler that panics while holding a
    /// serve-layer lock poisons the mutex, and the next request still
    /// gets served over the intact state.
    #[test]
    fn panicked_lock_holder_does_not_wedge_later_requests() {
        let shared = bare_shared(1);
        lock::recover("gauges", &shared.gauges).jobs_completed = 7;
        taskpool::fault::arm_lock_poison();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = shared.stats();
        }));
        assert!(crashed.is_err(), "armed hook must panic inside stats()");
        // Whichever lock the injected panic landed on is poisoned now;
        // the recovery helper still serves the next snapshot.
        let stats = shared.stats();
        assert_eq!(stats.get("jobs_completed"), Some(7));
        assert_eq!(stats.get("files_quarantined"), Some(0));
    }
}
