//! Wire protocol of the resident SSSP service: a length-prefixed binary
//! framing for programs, and a line-oriented text mode for humans and
//! shell scripts. Both modes carry the same [`Request`]/[`Response`]
//! vocabulary; the server sniffs the first byte of a connection —
//! [`FRAME_SOH`] (0x01, never a printable text command) selects binary.
//!
//! ## Binary framing
//!
//! ```text
//! frame   = SOH (0x01)  opcode u8  len u32le  payload[len]
//! ```
//!
//! Request opcodes live in 0x01..=0x7f, response opcodes in 0x81..=0xff,
//! so a frame's direction is self-evident in a capture. Payload layouts
//! are fixed little-endian (the `graphdata` binary-format family); see
//! [`encode_request`]/[`encode_response`]. `len` is bounded by
//! [`MAX_FRAME_PAYLOAD`] at decode time, so a hostile length prefix
//! cannot drive a blind allocation.
//!
//! ## Text framing
//!
//! One request per line; every reply is one or more lines terminated by
//! a lone `.` line (uniform client framing — read until `.`):
//!
//! ```text
//! PING
//! LOAD GEN grid:40x40
//! SSSP <fingerprint-hex> <source> [delta=F] [deadline_ms=N] [epochs=N]
//!      [impl=fused|improved] [strategy=NAME[:PARAM]] [full]
//! STATS
//! HEALTH                  (supervision probe: worker health + drain state)
//! HOLD | RELEASE | DRAIN  (only with --debug-commands)
//! QUIT
//! ```
//!
//! ## Error codes
//!
//! Solver errors map 1:1 from [`SsspError`] through [`wire_code`]
//! (codes 10–22, exhaustive by construction — the repo lint
//! `wire-code-coverage` rejects a wildcard arm). Server-level conditions
//! use codes ≥ 30 ([`code`] constants).

use sssp_core::{Kernels, SsspError, SsspStats, SteppingStrategy};

/// First byte of every binary frame; doubles as the mode-sniffing byte.
pub const FRAME_SOH: u8 = 0x01;

/// Upper bound on a frame payload (64 MiB): comfortably holds a full
/// distance dump for a million-vertex graph while bounding what a lying
/// length prefix can allocate.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Terminator line of every text-mode reply.
pub const TEXT_TERMINATOR: &str = ".";

/// Server-level (non-solver) error codes.
pub mod code {
    /// The request referenced a fingerprint no loaded graph carries.
    pub const UNKNOWN_GRAPH: u8 = 30;
    /// The request line/frame could not be parsed.
    pub const BAD_REQUEST: u8 = 31;
    /// The graph registry is at `max_graphs` capacity.
    pub const GRAPH_TABLE_FULL: u8 = 32;
    /// The connection limit was reached.
    pub const TOO_MANY_CONNECTIONS: u8 = 33;
    /// HOLD/RELEASE without `debug_commands` enabled.
    pub const DEBUG_DISABLED: u8 = 34;
    /// Graph generation/loading failed.
    pub const LOAD_FAILED: u8 = 35;
    /// The server is shutting down.
    pub const SHUTTING_DOWN: u8 = 36;
    /// A job failed for a reason with no solver wire code.
    pub const JOB_FAILED: u8 = 37;
}

/// The exhaustive [`SsspError`] → wire-code mapping (codes 10–22). Every
/// solver error a reply can carry has exactly one code; adding a variant
/// to [`SsspError`] is a compile error here, not a silent `_ =>` bucket
/// (and the repo lint checks no wildcard arm sneaks in).
pub fn wire_code(err: &SsspError) -> u8 {
    match err {
        SsspError::NonFiniteWeight { .. } => 10,
        SsspError::NegativeWeight { .. } => 11,
        SsspError::ZeroWeightUnsupported { .. } => 12,
        SsspError::SourceOutOfBounds { .. } => 13,
        SsspError::InvalidDelta { .. } => 14,
        SsspError::IterationLimitExceeded { .. } => 15,
        SsspError::Cancelled { .. } => 16,
        SsspError::DeadlineExceeded { .. } => 17,
        SsspError::InvalidCheckpoint { .. } => 18,
        SsspError::CheckpointIo { .. } => 19,
        SsspError::WorkerPanicked { .. } => 20,
        SsspError::InvalidStrategy { .. } => 21,
        SsspError::TooManyVertices { .. } => 22,
    }
}

/// FNV-1a over the 64-bit bit patterns of `dist`, one word per step —
/// the compact bit-exactness certificate replies carry, so "resumed
/// distances are bit-identical to the cold run" is assertable over the
/// wire without shipping the whole vector. Nothing persists a digest: it
/// only ever compares values computed by this same function.
pub fn dist_digest(dist: &[f64]) -> u64 {
    digest_and_reach(dist).0
}

/// [`dist_digest`] and the number of finite (reached) entries, in one
/// pass over `dist` — the two values a summary reply carries.
pub fn digest_and_reach(dist: &[f64]) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut reached = 0u64;
    for d in dist {
        h = (h ^ d.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        reached += u64::from(d.is_finite());
    }
    (h, reached)
}

/// One SSSP query against a loaded graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SsspRequest {
    /// Fingerprint of the target graph (from a `LOADED` reply).
    pub fingerprint: u64,
    /// Source vertex.
    pub source: usize,
    /// Bucket width Δ; the server default applies when absent.
    pub delta: Option<f64>,
    /// Per-job wall-clock deadline in milliseconds, counted from job
    /// start (queue wait does not consume it).
    pub deadline_ms: Option<u64>,
    /// Epoch budget (watchdog tick cap) — the deterministic way to stop
    /// a job mid-run with a certified partial.
    pub epochs: Option<u64>,
    /// Kernel override — `impl=fused` (sequential) or `impl=improved` /
    /// `impl=parallel-improved` (pooled), the only names a served job
    /// accepts; the server default applies when absent.
    pub implementation: Option<Kernels>,
    /// Stepping-strategy override (`classic`, `rho[:N]`,
    /// `delta-star[:K]`); the server default (classic) applies when
    /// absent.
    pub strategy: Option<SteppingStrategy>,
    /// Whether to include the full distance vector in the reply.
    pub full: bool,
}

/// Everything a client can ask.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Generate and register a graph from a CLI-style gen spec.
    LoadGen {
        /// Generator spec, e.g. `grid:40x40` (see [`parse_gen_spec`]).
        spec: String,
    },
    /// Run (or resume) one SSSP job.
    Sssp(SsspRequest),
    /// Server counters snapshot.
    Stats,
    /// Supervision probe: worker health, recycle counters, drain state.
    /// Always available (not debug-gated), so orchestrators can use it
    /// as a readiness/liveness check.
    Health,
    /// Pause worker dispatch (debug only; jobs queue but do not start).
    Hold,
    /// Resume worker dispatch (debug only).
    Release,
    /// Begin a graceful drain (debug only): stop admitting, shed the
    /// queue with live retry hints, cancel in-flight jobs to certified
    /// partials. The same path SIGTERM takes, triggerable from a test.
    Drain,
    /// Close this connection.
    Quit,
}

/// A completed job's reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Graph the job ran against.
    pub fingerprint: u64,
    /// Source vertex.
    pub source: usize,
    /// The Δ actually used.
    pub delta: f64,
    /// Vertices with a finite distance.
    pub reached: u64,
    /// Run counters.
    pub stats: SsspStats,
    /// [`dist_digest`] of the full distance vector.
    pub dist_fnv: u64,
    /// Degradation notice: the job (or its worker, stickily) completed
    /// on the sequential-fused path instead of the requested one.
    pub degraded: Option<String>,
    /// Full distances, when the request asked for them.
    pub full: Option<Vec<f64>>,
}

/// A budget-stopped job's reply: a certified partial result.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Source vertex.
    pub source: usize,
    /// The Δ the interrupted run used.
    pub delta: f64,
    /// Solver wire code of the stop reason (15 epoch limit, 16
    /// cancelled, 17 deadline).
    pub code: u8,
    /// Vertices whose distance is certified final.
    pub settled: u64,
    /// The certificate bound: every distance strictly below this is
    /// final.
    pub settled_below: f64,
    /// Bare file name the checkpoint was persisted under, when the
    /// server runs with a checkpoint directory.
    pub saved: Option<String>,
    /// Human-readable stop reason.
    pub reason: String,
}

/// Counter snapshot; rendered as `name=value` lines in text mode. The
/// pair list is ordered and closed over by the server, so text and
/// binary clients see identical counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// `(name, value)` in server-chosen, stable order.
    pub pairs: Vec<(String, u64)>,
}

impl ServerStats {
    /// Value of counter `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Supervision snapshot carried by a `HEALTH` reply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Coarse verdict: `ok` (all workers healthy), `degraded` (at least
    /// one worker poisoned or permanently degraded), or `draining`.
    pub status: String,
    /// Configured worker count.
    pub workers: u64,
    /// Workers currently healthy.
    pub healthy: u64,
    /// Workers currently poisoned (awaiting a cooldown recycle).
    pub poisoned: u64,
    /// Workers past the recycle budget, pinned to the sequential-fused
    /// fallback forever.
    pub permanently_degraded: u64,
    /// Worker recycles performed since startup.
    pub recycles_total: u64,
    /// Jobs the heartbeat watchdog cancelled since startup.
    pub watchdog_cancelled: u64,
    /// Checkpoint/manifest files moved to `quarantine/` since startup.
    pub quarantined_files: u64,
    /// Whether a graceful drain is in progress.
    pub draining: bool,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// A graph is registered (idempotent for an already-loaded graph).
    Loaded {
        /// Registry key for subsequent `SSSP` requests.
        fingerprint: u64,
        /// Vertex count.
        vertices: u64,
        /// Directed edge count.
        edges: u64,
    },
    /// Completed job.
    Summary(Summary),
    /// Budget-stopped job with a certified partial result.
    Partial(Partial),
    /// Admission control shed the job; retry after the hinted backoff.
    Overloaded {
        /// Server-computed backoff hint from observed service time.
        retry_after_ms: u64,
    },
    /// Counter snapshot.
    Stats(ServerStats),
    /// Supervision snapshot.
    Health(HealthReport),
    /// Typed failure (solver codes 10–22 via [`wire_code`], server codes
    /// ≥ 30 via [`code`]).
    Error {
        /// Error code.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledgement for HOLD/RELEASE/QUIT.
    Done,
}

// ---------------------------------------------------------------------------
// Gen-spec parsing (the one `--gen` / `LOAD GEN` grammar)
// ---------------------------------------------------------------------------

/// The most vertices plus edges a generator spec may ask for (about 16.8
/// M, so a generated edge list stays under half a gigabyte). A spec is
/// sized before anything is allocated, so one past this bound is refused
/// at the cost of parsing it.
pub const MAX_GEN_ELEMENTS: u64 = 1 << 24;

/// A parsed generator spec: the generator and its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GenSpec {
    Grid { width: usize, height: usize },
    Er { n: usize, m: usize },
    Rmat { scale: u32, edge_factor: usize },
    Ba { n: usize, m: usize },
    Path { n: usize },
    Cycle { n: usize },
}

impl GenSpec {
    fn parse(spec: &str) -> Result<GenSpec, String> {
        let (kind, params) =
            spec.split_once(':').ok_or_else(|| format!("bad gen spec '{spec}'"))?;
        let nums = |sep: char, want: usize, shape: &str| -> Result<Vec<usize>, String> {
            let d = params
                .split(sep)
                .map(|t| t.parse().map_err(|_| format!("bad number in '{spec}'")))
                .collect::<Result<Vec<usize>, String>>()?;
            if d.len() == want {
                Ok(d)
            } else {
                Err(format!("{kind} needs {shape}"))
            }
        };
        Ok(match kind {
            "grid" => {
                let d = nums('x', 2, "WxH")?;
                GenSpec::Grid { width: d[0], height: d[1] }
            }
            "er" => {
                let d = nums(',', 2, "N,M")?;
                GenSpec::Er { n: d[0], m: d[1] }
            }
            "rmat" => {
                let d = nums(',', 2, "SCALE,EDGEFACTOR")?;
                let scale = u32::try_from(d[0]).map_err(|_| format!("bad number in '{spec}'"))?;
                GenSpec::Rmat { scale, edge_factor: d[1] }
            }
            "ba" => {
                let d = nums(',', 2, "N,M")?;
                if d[1] == 0 {
                    return Err("ba needs M >= 1 attachments per vertex".into());
                }
                GenSpec::Ba { n: d[0], m: d[1] }
            }
            "path" => GenSpec::Path { n: nums(',', 1, "N")?[0] },
            "cycle" => GenSpec::Cycle { n: nums(',', 1, "N")?[0] },
            other => return Err(format!("unknown generator '{other}'")),
        })
    }

    /// The vertex and edge counts the generator produces, or `None` where
    /// they overflow a `u64`.
    fn size(self) -> Option<(u64, u64)> {
        let u = |x: usize| x as u64;
        Some(match self {
            GenSpec::Grid { width, height } => {
                let (w, h) = (u(width), u(height));
                let across = w.saturating_sub(1).checked_mul(h)?;
                let down = w.checked_mul(h.saturating_sub(1))?;
                (w.checked_mul(h)?, across.checked_add(down)?.checked_mul(2)?)
            }
            GenSpec::Er { n, m } => {
                let possible = u(n).checked_mul(u(n).saturating_sub(1));
                (u(n), possible.map_or(u(m), |p| p.min(u(m))))
            }
            GenSpec::Rmat { scale, edge_factor } => {
                let n = 1u64.checked_shl(scale)?;
                (n, n.checked_mul(u(edge_factor))?)
            }
            GenSpec::Ba { n, m } => {
                // A clique on min(m, n) seeds, then m attachments each way
                // per later vertex.
                let seeds = u(m.min(n));
                let clique = seeds.checked_mul(seeds.saturating_sub(1))?;
                let later = u(n - m.min(n)).checked_mul(u(m))?.checked_mul(2)?;
                (u(n), clique.checked_add(later)?)
            }
            GenSpec::Path { n } => (u(n), u(n).saturating_sub(1)),
            GenSpec::Cycle { n } => (u(n), if n > 1 { u(n) } else { 0 }),
        })
    }

    fn generate(self) -> graphdata::EdgeList {
        use graphdata::gen;
        match self {
            GenSpec::Grid { width, height } => gen::grid2d(width, height),
            GenSpec::Er { n, m } => gen::gnm(n, m, 42),
            GenSpec::Rmat { scale, edge_factor } => {
                gen::rmat(gen::RmatParams::graph500(scale, edge_factor), 42)
            }
            GenSpec::Ba { n, m } => gen::barabasi_albert(n, m, 42),
            GenSpec::Path { n } => gen::path(n),
            GenSpec::Cycle { n } => gen::cycle(n),
        }
    }
}

/// Parse a generator spec (`grid:WxH`, `er:N,M`, `rmat:SCALE,EDGEFACTOR`,
/// `ba:N,M`, `path:N`, `cycle:N`) and generate its edge list, with fixed
/// seeds, so the `sssp` CLI's `--gen` and `LOAD GEN` agree on what e.g.
/// `er:500,2000` means. The spec is sized first, in checked arithmetic:
/// one whose vertex ids a pull index cannot hold
/// ([`sssp_core::pull::check_vertex_ids`]), or that asks for more than
/// [`MAX_GEN_ELEMENTS`] vertices plus edges, is an `Err` before anything
/// is allocated, like every malformed spec.
pub fn parse_gen_spec(spec: &str) -> Result<graphdata::EdgeList, String> {
    let gen = GenSpec::parse(spec)?;
    let (vertices, edges) = gen.size().ok_or_else(|| format!("'{spec}' is too large to count"))?;
    let ids = usize::try_from(vertices).map_err(|_| format!("'{spec}' is too large to count"))?;
    sssp_core::pull::check_vertex_ids(ids).map_err(|e| e.to_string())?;
    if vertices.saturating_add(edges) > MAX_GEN_ELEMENTS {
        return Err(format!(
            "'{spec}' asks for {vertices} vertices and {edges} edges, past the bound of \
             {MAX_GEN_ELEMENTS} in all"
        ));
    }
    Ok(gen.generate())
}

// ---------------------------------------------------------------------------
// Text mode
// ---------------------------------------------------------------------------

/// Parse one text-mode request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or("empty request")?;
    match verb {
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "HEALTH" => Ok(Request::Health),
        "HOLD" => Ok(Request::Hold),
        "RELEASE" => Ok(Request::Release),
        "DRAIN" => Ok(Request::Drain),
        "QUIT" => Ok(Request::Quit),
        "LOAD" => {
            let kind = words.next().ok_or("LOAD needs GEN <spec>")?;
            if kind != "GEN" {
                return Err(format!("unknown LOAD kind '{kind}' (only GEN is supported)"));
            }
            let spec = words.next().ok_or("LOAD GEN needs a spec")?.to_string();
            if words.next().is_some() {
                return Err("trailing words after the gen spec".into());
            }
            Ok(Request::LoadGen { spec })
        }
        "SSSP" => {
            let fp = words.next().ok_or("SSSP needs <fingerprint-hex> <source>")?;
            let fingerprint = u64::from_str_radix(fp.trim_start_matches("0x"), 16)
                .map_err(|_| format!("bad fingerprint '{fp}' (expected hex)"))?;
            let src = words.next().ok_or("SSSP needs a source vertex")?;
            let source: usize = src.parse().map_err(|_| format!("bad source '{src}'"))?;
            let mut req = SsspRequest {
                fingerprint,
                source,
                delta: None,
                deadline_ms: None,
                epochs: None,
                implementation: None,
                strategy: None,
                full: false,
            };
            for opt in words {
                if opt == "full" {
                    req.full = true;
                } else if let Some(v) = opt.strip_prefix("delta=") {
                    req.delta =
                        Some(v.parse().map_err(|_| format!("bad delta '{v}'"))?);
                } else if let Some(v) = opt.strip_prefix("deadline_ms=") {
                    req.deadline_ms =
                        Some(v.parse().map_err(|_| format!("bad deadline_ms '{v}'"))?);
                } else if let Some(v) = opt.strip_prefix("epochs=") {
                    req.epochs =
                        Some(v.parse().map_err(|_| format!("bad epochs '{v}'"))?);
                } else if let Some(v) = opt.strip_prefix("impl=") {
                    req.implementation = Some(v.parse()?);
                } else if let Some(v) = opt.strip_prefix("strategy=") {
                    req.strategy = Some(SteppingStrategy::parse(v)?);
                } else {
                    return Err(format!("unknown SSSP option '{opt}'"));
                }
            }
            Ok(Request::Sssp(req))
        }
        other => Err(format!("unknown request '{other}'")),
    }
}

/// Render a response as text-mode lines (without the `.` terminator the
/// server appends). The summary/status line always comes **last**, after
/// any `DEGRADED` / `D <bits>` detail lines, so a streaming client can
/// treat the line before `.` as the verdict.
pub fn render_response(resp: &Response) -> Vec<String> {
    match resp {
        Response::Pong => vec!["PONG".into()],
        Response::Done => vec!["DONE".into()],
        Response::Loaded { fingerprint, vertices, edges } => vec![format!(
            "LOADED fingerprint={fingerprint:016x} vertices={vertices} edges={edges}"
        )],
        Response::Overloaded { retry_after_ms } => {
            vec![format!("OVERLOADED retry_after_ms={retry_after_ms}")]
        }
        Response::Error { code, message } => vec![format!("ERROR code={code} {message}")],
        Response::Stats(stats) => stats
            .pairs
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect(),
        Response::Health(h) => vec![format!(
            "HEALTH status={} workers={} healthy={} poisoned={} permanently_degraded={} \
             recycles_total={} watchdog_cancelled={} quarantined_files={} draining={}",
            h.status,
            h.workers,
            h.healthy,
            h.poisoned,
            h.permanently_degraded,
            h.recycles_total,
            h.watchdog_cancelled,
            h.quarantined_files,
            h.draining
        )],
        Response::Summary(s) => {
            let mut lines = Vec::new();
            if let Some(reason) = &s.degraded {
                lines.push(format!("DEGRADED {reason}"));
            }
            if let Some(dist) = &s.full {
                for d in dist {
                    lines.push(format!("D {:016x}", d.to_bits()));
                }
            }
            lines.push(format!(
                "OK fingerprint={:016x} source={} delta={} reached={} buckets={} \
                 light_phases={} heavy_phases={} relaxations={} improvements={} dist_fnv={:016x}",
                s.fingerprint,
                s.source,
                s.delta,
                s.reached,
                s.stats.buckets_processed,
                s.stats.light_phases,
                s.stats.heavy_phases,
                s.stats.relaxations,
                s.stats.improvements,
                s.dist_fnv
            ));
            lines
        }
        Response::Partial(p) => vec![format!(
            "PARTIAL source={} delta={} code={} settled={} settled_below={} saved={} reason={}",
            p.source,
            p.delta,
            p.code,
            p.settled,
            p.settled_below,
            p.saved.as_deref().unwrap_or("none"),
            p.reason
        )],
    }
}

// ---------------------------------------------------------------------------
// Binary mode
// ---------------------------------------------------------------------------

/// Binary opcodes (requests 0x01..=0x7f, responses 0x81..=0xff).
pub mod opcode {
    /// [`super::Request::Ping`]
    pub const PING: u8 = 0x02;
    /// [`super::Request::LoadGen`]
    pub const LOAD_GEN: u8 = 0x03;
    /// [`super::Request::Sssp`]
    pub const SSSP: u8 = 0x04;
    /// [`super::Request::Stats`]
    pub const STATS: u8 = 0x05;
    /// [`super::Request::Hold`]
    pub const HOLD: u8 = 0x06;
    /// [`super::Request::Release`]
    pub const RELEASE: u8 = 0x07;
    /// [`super::Request::Quit`]
    pub const QUIT: u8 = 0x08;
    /// [`super::Request::Health`]
    pub const HEALTH: u8 = 0x09;
    /// [`super::Request::Drain`]
    pub const DRAIN: u8 = 0x0a;
    /// [`super::Response::Pong`]
    pub const PONG: u8 = 0x82;
    /// [`super::Response::Loaded`]
    pub const LOADED: u8 = 0x83;
    /// [`super::Response::Summary`]
    pub const SUMMARY: u8 = 0x84;
    /// [`super::Response::Partial`]
    pub const PARTIAL: u8 = 0x85;
    /// [`super::Response::Overloaded`]
    pub const OVERLOADED: u8 = 0x86;
    /// [`super::Response::Stats`]
    pub const STATS_REPLY: u8 = 0x87;
    /// [`super::Response::Error`]
    pub const ERROR: u8 = 0x88;
    /// [`super::Response::Done`]
    pub const DONE: u8 = 0x89;
    /// [`super::Response::Health`]
    pub const HEALTH_REPLY: u8 = 0x8a;
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Little-endian payload reader with explicit bounds errors.
struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, at: 0 }
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("payload truncated reading {what}"))?;
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.bytes(8, what)?.try_into().expect("8 bytes")))
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = usize::try_from(self.u64(what)?)
            .map_err(|_| format!("{what} length overflows usize"))?;
        if len > self.data.len() {
            return Err(format!("{what} claims {len} bytes, payload is shorter"));
        }
        String::from_utf8(self.bytes(len, what)?.to_vec())
            .map_err(|_| format!("{what} is not UTF-8"))
    }

    fn finish(&self, what: &str) -> Result<(), String> {
        if self.at != self.data.len() {
            return Err(format!(
                "{} trailing bytes after the {what} payload",
                self.data.len() - self.at
            ));
        }
        Ok(())
    }
}

/// Encode a request as `(opcode, payload)`.
pub fn encode_request(req: &Request) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    match req {
        Request::Ping => (opcode::PING, buf),
        Request::Stats => (opcode::STATS, buf),
        Request::Health => (opcode::HEALTH, buf),
        Request::Hold => (opcode::HOLD, buf),
        Request::Release => (opcode::RELEASE, buf),
        Request::Drain => (opcode::DRAIN, buf),
        Request::Quit => (opcode::QUIT, buf),
        Request::LoadGen { spec } => {
            push_str(&mut buf, spec);
            (opcode::LOAD_GEN, buf)
        }
        Request::Sssp(r) => {
            push_u64(&mut buf, r.fingerprint);
            push_u64(&mut buf, r.source as u64);
            let mut flags = 0u8;
            if r.delta.is_some() {
                flags |= 1;
            }
            if r.deadline_ms.is_some() {
                flags |= 2;
            }
            if r.epochs.is_some() {
                flags |= 4;
            }
            if r.implementation.is_some() {
                flags |= 8;
            }
            if r.full {
                flags |= 16;
            }
            if r.strategy.is_some() {
                flags |= 32;
            }
            buf.push(flags);
            if let Some(d) = r.delta {
                push_f64(&mut buf, d);
            }
            if let Some(ms) = r.deadline_ms {
                push_u64(&mut buf, ms);
            }
            if let Some(e) = r.epochs {
                push_u64(&mut buf, e);
            }
            if let Some(imp) = r.implementation {
                push_str(&mut buf, imp.name());
            }
            if let Some(strategy) = r.strategy {
                push_str(&mut buf, &strategy.to_string());
            }
            (opcode::SSSP, buf)
        }
    }
}

/// Decode a request from `(opcode, payload)`.
pub fn decode_request(op: u8, payload: &[u8]) -> Result<Request, String> {
    let mut r = Reader::new(payload);
    let req = match op {
        opcode::PING => Request::Ping,
        opcode::STATS => Request::Stats,
        opcode::HEALTH => Request::Health,
        opcode::HOLD => Request::Hold,
        opcode::RELEASE => Request::Release,
        opcode::DRAIN => Request::Drain,
        opcode::QUIT => Request::Quit,
        opcode::LOAD_GEN => Request::LoadGen { spec: r.string("gen spec")? },
        opcode::SSSP => {
            let fingerprint = r.u64("fingerprint")?;
            let source = usize::try_from(r.u64("source")?)
                .map_err(|_| "source overflows usize".to_string())?;
            let flags = r.u8("flags")?;
            let delta = (flags & 1 != 0).then(|| r.f64("delta")).transpose()?;
            let deadline_ms = (flags & 2 != 0).then(|| r.u64("deadline_ms")).transpose()?;
            let epochs = (flags & 4 != 0).then(|| r.u64("epochs")).transpose()?;
            let implementation = if flags & 8 != 0 {
                Some(r.string("implementation")?.parse()?)
            } else {
                None
            };
            let strategy = if flags & 32 != 0 {
                let s = r.string("strategy")?;
                Some(SteppingStrategy::parse(&s)?)
            } else {
                None
            };
            Request::Sssp(SsspRequest {
                fingerprint,
                source,
                delta,
                deadline_ms,
                epochs,
                implementation,
                strategy,
                full: flags & 16 != 0,
            })
        }
        other => return Err(format!("unknown request opcode {other:#04x}")),
    };
    r.finish("request")?;
    Ok(req)
}

/// Encode a response as `(opcode, payload)`.
pub fn encode_response(resp: &Response) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    match resp {
        Response::Pong => (opcode::PONG, buf),
        Response::Done => (opcode::DONE, buf),
        Response::Loaded { fingerprint, vertices, edges } => {
            push_u64(&mut buf, *fingerprint);
            push_u64(&mut buf, *vertices);
            push_u64(&mut buf, *edges);
            (opcode::LOADED, buf)
        }
        Response::Overloaded { retry_after_ms } => {
            push_u64(&mut buf, *retry_after_ms);
            (opcode::OVERLOADED, buf)
        }
        Response::Error { code, message } => {
            buf.push(*code);
            push_str(&mut buf, message);
            (opcode::ERROR, buf)
        }
        Response::Stats(stats) => {
            push_u64(&mut buf, stats.pairs.len() as u64);
            for (name, value) in &stats.pairs {
                push_str(&mut buf, name);
                push_u64(&mut buf, *value);
            }
            (opcode::STATS_REPLY, buf)
        }
        Response::Health(h) => {
            push_str(&mut buf, &h.status);
            for v in [
                h.workers,
                h.healthy,
                h.poisoned,
                h.permanently_degraded,
                h.recycles_total,
                h.watchdog_cancelled,
                h.quarantined_files,
            ] {
                push_u64(&mut buf, v);
            }
            buf.push(u8::from(h.draining));
            (opcode::HEALTH_REPLY, buf)
        }
        Response::Summary(s) => {
            push_u64(&mut buf, s.fingerprint);
            push_u64(&mut buf, s.source as u64);
            push_f64(&mut buf, s.delta);
            push_u64(&mut buf, s.reached);
            for counter in [
                s.stats.buckets_processed as u64,
                s.stats.light_phases as u64,
                s.stats.heavy_phases as u64,
                s.stats.relaxations,
                s.stats.improvements,
            ] {
                push_u64(&mut buf, counter);
            }
            push_u64(&mut buf, s.dist_fnv);
            push_str(&mut buf, s.degraded.as_deref().unwrap_or(""));
            match &s.full {
                Some(dist) => {
                    buf.push(1);
                    push_u64(&mut buf, dist.len() as u64);
                    for d in dist {
                        push_f64(&mut buf, *d);
                    }
                }
                None => buf.push(0),
            }
            (opcode::SUMMARY, buf)
        }
        Response::Partial(p) => {
            push_u64(&mut buf, p.source as u64);
            push_f64(&mut buf, p.delta);
            buf.push(p.code);
            push_u64(&mut buf, p.settled);
            push_f64(&mut buf, p.settled_below);
            push_str(&mut buf, p.saved.as_deref().unwrap_or(""));
            push_str(&mut buf, &p.reason);
            (opcode::PARTIAL, buf)
        }
    }
}

/// Decode a response from `(opcode, payload)`.
pub fn decode_response(op: u8, payload: &[u8]) -> Result<Response, String> {
    let mut r = Reader::new(payload);
    let resp = match op {
        opcode::PONG => Response::Pong,
        opcode::DONE => Response::Done,
        opcode::LOADED => Response::Loaded {
            fingerprint: r.u64("fingerprint")?,
            vertices: r.u64("vertices")?,
            edges: r.u64("edges")?,
        },
        opcode::OVERLOADED => Response::Overloaded { retry_after_ms: r.u64("retry_after_ms")? },
        opcode::ERROR => Response::Error {
            code: r.u8("error code")?,
            message: r.string("error message")?,
        },
        opcode::STATS_REPLY => {
            let count = usize::try_from(r.u64("stat count")?)
                .map_err(|_| "stat count overflows usize".to_string())?;
            // Each pair is at least 16 bytes; a lying count fails here
            // instead of driving a blind allocation.
            if count.checked_mul(16).is_none_or(|need| payload.len() < need) {
                return Err(format!("stat count {count} exceeds the payload"));
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.string("stat name")?;
                let value = r.u64("stat value")?;
                pairs.push((name, value));
            }
            Response::Stats(ServerStats { pairs })
        }
        opcode::HEALTH_REPLY => {
            let status = r.string("health status")?;
            let mut counters = [0u64; 7];
            for c in counters.iter_mut() {
                *c = r.u64("health counter")?;
            }
            let draining = match r.u8("draining flag")? {
                0 => false,
                1 => true,
                other => return Err(format!("draining flag must be 0/1, got {other}")),
            };
            Response::Health(HealthReport {
                status,
                workers: counters[0],
                healthy: counters[1],
                poisoned: counters[2],
                permanently_degraded: counters[3],
                recycles_total: counters[4],
                watchdog_cancelled: counters[5],
                quarantined_files: counters[6],
                draining,
            })
        }
        opcode::SUMMARY => {
            let fingerprint = r.u64("fingerprint")?;
            let source = usize::try_from(r.u64("source")?)
                .map_err(|_| "source overflows usize".to_string())?;
            let delta = r.f64("delta")?;
            let reached = r.u64("reached")?;
            let mut counters = [0u64; 5];
            for c in counters.iter_mut() {
                *c = r.u64("stat counter")?;
            }
            let dist_fnv = r.u64("dist_fnv")?;
            let degraded = r.string("degraded")?;
            let full = match r.u8("full flag")? {
                0 => None,
                1 => {
                    let n = usize::try_from(r.u64("distance count")?)
                        .map_err(|_| "distance count overflows usize".to_string())?;
                    if n.checked_mul(8).is_none_or(|need| payload.len() < need) {
                        return Err(format!("distance count {n} exceeds the payload"));
                    }
                    let mut dist = Vec::with_capacity(n);
                    for _ in 0..n {
                        dist.push(r.f64("distance")?);
                    }
                    Some(dist)
                }
                other => return Err(format!("full flag must be 0/1, got {other}")),
            };
            Response::Summary(Summary {
                fingerprint,
                source,
                delta,
                reached,
                stats: SsspStats {
                    buckets_processed: counters[0] as usize,
                    light_phases: counters[1] as usize,
                    heavy_phases: counters[2] as usize,
                    relaxations: counters[3],
                    improvements: counters[4],
                },
                dist_fnv,
                degraded: (!degraded.is_empty()).then_some(degraded),
                full,
            })
        }
        opcode::PARTIAL => {
            let source = usize::try_from(r.u64("source")?)
                .map_err(|_| "source overflows usize".to_string())?;
            let delta = r.f64("delta")?;
            let code = r.u8("stop code")?;
            let settled = r.u64("settled")?;
            let settled_below = r.f64("settled_below")?;
            let saved = r.string("saved")?;
            let reason = r.string("reason")?;
            Response::Partial(Partial {
                source,
                delta,
                code,
                settled,
                settled_below,
                saved: (!saved.is_empty()).then_some(saved),
                reason,
            })
        }
        other => return Err(format!("unknown response opcode {other:#04x}")),
    };
    r.finish("response")?;
    Ok(resp)
}

/// Write one binary frame.
pub fn write_frame(
    w: &mut impl std::io::Write,
    op: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(6 + payload.len());
    frame.push(FRAME_SOH);
    frame.push(op);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Read one binary frame, returning `(opcode, payload)`. The SOH byte
/// must already be consumed (or verified) by the caller's mode sniffing
/// when `expect_soh` is false.
pub fn read_frame(
    r: &mut impl std::io::Read,
    expect_soh: bool,
) -> std::io::Result<(u8, Vec<u8>)> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    if expect_soh {
        let mut soh = [0u8; 1];
        r.read_exact(&mut soh)?;
        if soh[0] != FRAME_SOH {
            return Err(bad(format!("expected SOH 0x01, got {:#04x}", soh[0])));
        }
    }
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let op = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(bad(format!("frame payload {len} exceeds {MAX_FRAME_PAYLOAD}")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((op, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sssp() -> Request {
        Request::Sssp(SsspRequest {
            fingerprint: 0xdead_beef_cafe_f00d,
            source: 42,
            delta: Some(0.5),
            deadline_ms: Some(250),
            epochs: Some(3),
            implementation: Some(Kernels::Pooled),
            strategy: Some(SteppingStrategy::Rho(512)),
            full: true,
        })
    }

    #[test]
    fn requests_round_trip_through_binary_and_text() {
        let requests = [
            Request::Ping,
            Request::Stats,
            Request::Health,
            Request::Hold,
            Request::Release,
            Request::Drain,
            Request::Quit,
            Request::LoadGen { spec: "grid:8x8".into() },
            sample_sssp(),
            Request::Sssp(SsspRequest {
                fingerprint: 1,
                source: 0,
                delta: None,
                deadline_ms: None,
                epochs: None,
                implementation: None,
                strategy: None,
                full: false,
            }),
        ];
        for req in &requests {
            let (op, payload) = encode_request(req);
            assert_eq!(&decode_request(op, &payload).unwrap(), req, "binary {req:?}");
        }
        // Text grammar covers the same vocabulary.
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("HEALTH").unwrap(), Request::Health);
        assert_eq!(parse_request("DRAIN").unwrap(), Request::Drain);
        assert_eq!(
            parse_request("LOAD GEN grid:8x8").unwrap(),
            Request::LoadGen { spec: "grid:8x8".into() }
        );
        assert_eq!(
            parse_request(
                "SSSP deadbeefcafef00d 42 delta=0.5 deadline_ms=250 epochs=3 impl=improved \
                 strategy=rho:512 full"
            )
            .unwrap(),
            sample_sssp()
        );
    }

    #[test]
    fn responses_round_trip_through_binary() {
        let responses = [
            Response::Pong,
            Response::Done,
            Response::Loaded { fingerprint: 7, vertices: 64, edges: 224 },
            Response::Overloaded { retry_after_ms: 150 },
            Response::Error { code: code::UNKNOWN_GRAPH, message: "no such graph".into() },
            Response::Stats(ServerStats {
                pairs: vec![("shed".into(), 2), ("completed".into(), 9)],
            }),
            Response::Health(HealthReport {
                status: "degraded".into(),
                workers: 4,
                healthy: 2,
                poisoned: 1,
                permanently_degraded: 1,
                recycles_total: 7,
                watchdog_cancelled: 3,
                quarantined_files: 2,
                draining: true,
            }),
            Response::Summary(Summary {
                fingerprint: 7,
                source: 3,
                delta: 1.0,
                reached: 64,
                stats: SsspStats {
                    buckets_processed: 15,
                    light_phases: 15,
                    heavy_phases: 15,
                    relaxations: 120,
                    improvements: 70,
                },
                dist_fnv: 0xabcd,
                degraded: Some("worker poisoned".into()),
                full: Some(vec![0.0, 1.5, f64::INFINITY]),
            }),
            Response::Partial(Partial {
                source: 3,
                delta: 1.0,
                code: 17,
                settled: 12,
                settled_below: 4.0,
                saved: Some("ckpt-3.bin".into()),
                reason: "deadline exceeded".into(),
            }),
        ];
        for resp in &responses {
            let (op, payload) = encode_response(resp);
            assert_eq!(&decode_response(op, &payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn frames_round_trip_and_bound_hostile_lengths() {
        let (op, payload) = encode_request(&sample_sssp());
        let mut wire = Vec::new();
        write_frame(&mut wire, op, &payload).unwrap();
        assert_eq!(wire[0], FRAME_SOH);
        let (got_op, got_payload) = read_frame(&mut wire.as_slice(), true).unwrap();
        assert_eq!((got_op, &got_payload), (op, &payload));

        // A lying length prefix is rejected before allocation.
        let mut hostile = vec![FRAME_SOH, opcode::PING];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut hostile.as_slice(), true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payloads_are_clean_errors() {
        for req in [Request::LoadGen { spec: "grid:8x8".into() }, sample_sssp()] {
            let (op, payload) = encode_request(&req);
            for cut in 0..payload.len() {
                assert!(decode_request(op, &payload[..cut]).is_err(), "{req:?} cut {cut}");
            }
        }
        let (op, payload) = encode_response(&Response::Summary(Summary {
            fingerprint: 1,
            source: 0,
            delta: 1.0,
            reached: 3,
            stats: SsspStats::default(),
            dist_fnv: 9,
            degraded: None,
            full: Some(vec![0.0, 1.0, 2.0]),
        }));
        for cut in 0..payload.len() {
            assert!(decode_response(op, &payload[..cut]).is_err(), "summary cut {cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_response(op, &long).is_err());

        let (op, payload) = encode_response(&Response::Health(HealthReport {
            status: "ok".into(),
            workers: 2,
            healthy: 2,
            ..HealthReport::default()
        }));
        for cut in 0..payload.len() {
            assert!(decode_response(op, &payload[..cut]).is_err(), "health cut {cut}");
        }
        // The draining byte is validated, not just truncation-checked.
        let mut bad = payload.clone();
        *bad.last_mut().unwrap() = 2;
        assert!(decode_response(op, &bad).is_err(), "draining flag must be 0/1");
    }

    #[test]
    fn health_renders_as_one_probe_line() {
        let lines = render_response(&Response::Health(HealthReport {
            status: "ok".into(),
            workers: 2,
            healthy: 2,
            ..HealthReport::default()
        }));
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("HEALTH status=ok workers=2 healthy=2 "));
        assert!(lines[0].ends_with("draining=false"));
    }

    #[test]
    fn bad_text_requests_are_descriptive_errors() {
        for (line, needle) in [
            ("", "empty"),
            ("FROB", "unknown request"),
            ("LOAD FILE x", "unknown LOAD kind"),
            ("SSSP zzz 0", "bad fingerprint"),
            ("SSSP 1f", "source"),
            ("SSSP 1f 0 impl=frobnicate", "unknown implementation"),
            // Names of the deleted atomic-CAS scheme: unknown like any other.
            ("SSSP 1f 0 impl=atomic", "unknown implementation 'atomic'"),
            ("SSSP 1f 0 impl=improved-atomic", "unknown implementation"),
            ("SSSP 1f 0 strategy=bogus", "unknown strategy"),
            ("SSSP 1f 0 strategy=rho:0", "rho must be at least 1"),
            ("SSSP 1f 0 frob=1", "unknown SSSP option"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn impl_names_are_a_two_kernel_alias_in_text_and_binary() {
        // The frame a client (or the parent commit) builds for `name`.
        let frame = |name: &str| {
            let mut payload = Vec::new();
            push_u64(&mut payload, 0x1f);
            push_u64(&mut payload, 0);
            payload.push(8);
            push_str(&mut payload, name);
            payload
        };
        let kernels = |req: Result<Request, String>| {
            req.map(|req| match req {
                Request::Sssp(r) => r.implementation,
                _ => None,
            })
        };
        for (name, want) in [
            ("fused", Kernels::Sequential),
            ("improved", Kernels::Pooled),
            ("parallel-improved", Kernels::Pooled),
        ] {
            let want_req = Ok(Some(want));
            assert_eq!(kernels(parse_request(&format!("SSSP 1f 0 impl={name}"))), want_req);
            assert_eq!(kernels(decode_request(opcode::SSSP, &frame(name))), want_req, "{name}");
            // Encoding writes the canonical token: the same bytes as ever.
            let req = Request::Sssp(SsspRequest {
                fingerprint: 0x1f,
                source: 0,
                delta: None,
                deadline_ms: None,
                epochs: None,
                implementation: Some(want),
                strategy: None,
                full: false,
            });
            assert_eq!(encode_request(&req), (opcode::SSSP, frame(want.name())));
        }
        // The paper-reproduction variants are not served.
        for name in ["canonical", "delta", "gblas", "parallel"] {
            let want = Err(format!("unknown implementation '{name}'"));
            assert_eq!(kernels(parse_request(&format!("SSSP 1f 0 impl={name}"))), want);
            assert_eq!(kernels(decode_request(opcode::SSSP, &frame(name))), want);
        }
    }

    #[test]
    fn wire_codes_are_distinct() {
        let errs = [
            SsspError::InvalidDelta { delta: 0.0 },
            SsspError::SourceOutOfBounds { source: 9, num_vertices: 4 },
            SsspError::InvalidCheckpoint { reason: "x".into() },
            SsspError::WorkerPanicked { message: "x".into() },
            SsspError::InvalidStrategy { reason: "x".into() },
            SsspError::TooManyVertices { num_vertices: 9 },
        ];
        let codes: Vec<u8> = errs.iter().map(wire_code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
        assert!(codes.iter().all(|&c| (10..30).contains(&c)), "solver codes stay below 30");
    }

    #[test]
    fn dist_digest_is_bit_sensitive() {
        let a = dist_digest(&[0.0, 1.0, f64::INFINITY]);
        let b = dist_digest(&[0.0, 1.0 + f64::EPSILON, f64::INFINITY]);
        assert_ne!(a, b);
        assert_eq!(a, dist_digest(&[0.0, 1.0, f64::INFINITY]));
        // Sign and order matter too, and the reach count rides along.
        assert_ne!(dist_digest(&[0.0, 1.0]), dist_digest(&[-0.0, 1.0]));
        assert_ne!(dist_digest(&[0.0, 1.0]), dist_digest(&[1.0, 0.0]));
        assert_eq!(digest_and_reach(&[0.0, 1.0, f64::INFINITY]), (a, 2));
    }

    #[test]
    fn every_malformed_or_oversized_gen_spec_is_an_err() {
        // Malformed specs, then specs whose generator would panic, whose
        // scale `as u32` would truncate, or whose graph would take
        // gigabytes: each is refused before anything is generated.
        let past_usize = format!("{}0", usize::MAX);
        let hostile = [
            "plain".to_string(),
            "nope:1,2".to_string(),
            "grid:4".to_string(),
            "ba:10,0".to_string(),
            "grid:4x".to_string(),
            "er:5".to_string(),
            "path:".to_string(),
            "cycle:1,2".to_string(),
            "rmat:64,1".to_string(),
            "rmat:40,8".to_string(),
            "grid:100000x100000".to_string(),
            format!("er:{},0", 1u64 << 32 | 1),
            format!("path:{past_usize}"),
            format!("er:10,{past_usize}"),
            format!("rmat:{},8", 1u64 << 32 | 4),
            format!("ba:{},{}", 1 << 20, 1 << 20),
        ];
        for spec in &hostile {
            assert!(parse_gen_spec(spec).is_err(), "{spec}");
        }
    }

    #[test]
    fn gen_spec_sizes_match_what_the_generators_produce() {
        let specs = ["grid:4x4", "grid:7x3", "grid:1x5", "grid:0x9", "er:50,200", "er:4,100"];
        let more = ["rmat:6,3", "ba:50,3", "ba:3,5", "ba:0,2", "path:9", "path:0", "cycle:1", "cycle:6"];
        for spec in specs.into_iter().chain(more) {
            let el = parse_gen_spec(spec).unwrap();
            let size = GenSpec::parse(spec).unwrap().size().unwrap();
            assert_eq!(size, (el.num_vertices() as u64, el.num_edges() as u64), "{spec}");
        }
    }

    #[test]
    fn served_gen_specs_keep_their_fingerprints() {
        // What `LOAD GEN` answered for the benchmark's graphs before the
        // grammar was sized: the same seeds, the same graphs.
        for (spec, fingerprint) in [
            ("grid:8x1024", 0x5270_af61_1f07_9d29),
            ("rmat:15,8", 0x3464_a560_112f_2ebf),
            ("er:32768,220000", 0xbaa0_93de_1d7a_3dd2),
        ] {
            let g = graphdata::CsrGraph::from_edge_list(&parse_gen_spec(spec).unwrap()).unwrap();
            assert_eq!(g.fingerprint(), fingerprint, "{spec}");
        }
    }
}
