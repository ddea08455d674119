//! Resident SSSP service: a long-lived TCP front end over the job door
//! ([`sssp_core::batch::run_job`]), where graphs are loaded once and
//! addressed by [`graphdata::CsrGraph::fingerprint`] across many
//! requests — so the expensive artifacts (CSR build, light/heavy splits)
//! amortise across a workload instead of being rebuilt per process. Each
//! request runs as one job on the engine worker that dequeued it.
//!
//! The crate is organised around a robustness spine:
//!
//! - [`protocol`] — the wire vocabulary: length-prefixed binary frames
//!   plus a line-oriented text mode, typed error codes (an exhaustive
//!   [`protocol::wire_code`] mapping from [`sssp_core::SsspError`]), and
//!   the FNV-1a [`protocol::dist_digest`] bit-exactness certificate.
//! - [`queue`] — bounded admission with a **shed-don't-queue** overload
//!   policy: a request past the bound is refused immediately with a
//!   deterministic `retry_after_ms` computed from observed service time,
//!   never parked on an unbounded queue.
//! - [`server`] — the accept loop, graph registry, worker pool, sticky
//!   panic degradation, per-connection socket timeouts (a stalled reader
//!   cannot wedge a worker), and manifest-driven crash-safe resume via
//!   the per-graph checkpoint directories.
//! - [`supervisor`] — the self-healing layer: per-worker health slots
//!   (healthy → poisoned → recycled → permanently degraded), cooldown
//!   recycling with exponential backoff, and a heartbeat watchdog that
//!   cancels stalled jobs and retires wedged workers.
//! - [`lock`] — poison-recovering mutex acquisition, so one panicking
//!   handler costs one job rather than poisoning the daemon's shared
//!   state forever; every acquisition feeds racecheck's lock-order
//!   graph for lockdep-style deadlock detection.
//! - [`proto`] — the pure-logic cores of the three riskiest protocols
//!   (slot respawn, queue drain, poison recovery), extracted so
//!   `crates/modelcheck` can exhaustively explore their interleavings.
//!
//! The server process itself lives in `src/bin/sssp-serve.rs` at the
//! workspace root; this crate holds everything testable in-process.

pub mod lock;
pub mod proto;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod supervisor;

pub use protocol::{Request, Response, ServerStats, SsspRequest};
pub use queue::AdmissionQueue;
pub use server::{ServerConfig, ServerHandle};
pub use supervisor::{HealthCounts, PoisonVerdict, SlotHealth, Supervisor, SupervisorConfig};
