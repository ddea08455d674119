//! `sssp-serve` — the resident SSSP service daemon, plus a tiny
//! text-mode client for scripts and smoke tests.
//!
//! ```text
//! sssp-serve [--listen ADDR] [--workers N] [--queue-capacity N]
//!            [--threads N] [--cache-bytes N] [--checkpoint-dir DIR]
//!            [--read-timeout-ms N] [--write-timeout-ms N]
//!            [--max-graphs N] [--max-connections N]
//!            [--delta F] [--impl fused|improved] [--debug-commands]
//! sssp-serve client ADDR [LINE]...
//! ```
//!
//! The daemon prints `sssp-serve: listening on <addr>` once the socket
//! is bound (so a wrapper started with `--listen 127.0.0.1:0` can parse
//! the ephemeral port) and then serves until it is told to stop. SIGTERM
//! and SIGINT trigger a **graceful drain**: admission stops (waiting
//! jobs are shed with live retry hints), in-flight jobs are cancelled
//! into certified partials whose checkpoints persist, and the process
//! exits 0 within `--drain-deadline-ms` — so an orchestrator's ordinary
//! stop signal never loses certified work. The wire `DRAIN` op (behind
//! `--debug-commands`) takes the same path. The `client` subcommand
//! sends each LINE as one text-mode request and prints the reply lines
//! up to (excluding) the `.` terminator; with no LINE it reads requests
//! from stdin.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sssp_serve::server::{start, ServerConfig};

const USAGE: &str = "\
usage:
  sssp-serve [options]            start the daemon
  sssp-serve client ADDR [LINE].. send text request(s), print replies

options:
  --listen ADDR          bind address (default 127.0.0.1:7464; port 0 = ephemeral)
  --workers N            engine worker threads (default 2)
  --queue-capacity N     admission bound; excess requests are shed (default 16)
  --threads N            shared pool threads for impl=improved jobs (default 2)
  --cache-bytes N        split-cache byte budget (default unbounded): bounds
                         per-delta state, the partition points and light-only
                         pull index of splits with heavy edges; every delta
                         at or above a graph's largest weight shares one
                         all-light split, and its transpose is graph state,
                         bounded by --max-graphs (STATS graphs_resident_bytes)
  --checkpoint-dir DIR   durable checkpoint root; enables crash-safe resume
  --read-timeout-ms N    per-connection read timeout (default none)
  --write-timeout-ms N   per-connection write timeout / slow-client budget
                         (default 10000)
  --max-graphs N         graph registry bound (default 8)
  --max-connections N    concurrent connection bound (default 64)
  --delta F              default bucket width (default 1.0)
  --impl NAME            default kernels for requests without impl=: fused
                         (sequential, default) | improved (pooled)
  --drain-deadline-ms N  bound on the SIGTERM/SIGINT graceful drain
                         (default 5000)
  --debug-commands       honour HOLD/RELEASE/DRAIN (chaos-test levers)";

/// Set by the SIGTERM/SIGINT handler; the main loop polls it and runs
/// the graceful drain. `Relaxed` suffices: the flag is the only data
/// crossing the handler boundary and a poll-cycle of staleness is fine.
static DRAIN_SIGNAL: AtomicBool = AtomicBool::new(false);

// Raw signal(2) binding — no libc crate in the build, and the full
// sigaction surface is overkill for flipping one flag.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_stop_signal(_signum: i32) {
    // Async-signal-safe: one relaxed atomic store, nothing else.
    DRAIN_SIGNAL.store(true, Ordering::Relaxed);
}

fn install_stop_handlers() {
    // SAFETY: `on_stop_signal` only performs an atomic store, which is
    // async-signal-safe; `signal` itself is safe to call from the main
    // thread before any other threads exist that could race the
    // disposition change.
    unsafe {
        signal(SIGTERM, on_stop_signal as *const () as usize);
        signal(SIGINT, on_stop_signal as *const () as usize);
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("sssp-serve: {msg}");
    ExitCode::from(2)
}

fn run_client(addr: &str, lines: &[String]) -> ExitCode {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return fail(&format!("connect {addr}: {e}")),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return fail(&format!("clone stream: {e}")),
    };
    let mut reader = BufReader::new(stream).lines();
    let mut ask = |line: &str| -> Result<(), String> {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        loop {
            match reader.next() {
                Some(Ok(l)) if l == sssp_serve::protocol::TEXT_TERMINATOR => return Ok(()),
                Some(Ok(l)) => println!("{l}"),
                Some(Err(e)) => return Err(format!("recv: {e}")),
                None => return Err("server closed the connection".into()),
            }
        }
    };
    if lines.is_empty() {
        for line in std::io::stdin().lock().lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => return fail(&format!("stdin: {e}")),
            };
            if line.trim().is_empty() {
                continue;
            }
            if let Err(e) = ask(line.trim()) {
                return fail(&e);
            }
        }
    } else {
        for line in lines {
            if let Err(e) = ask(line) {
                return fail(&e);
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_server(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut listen = "127.0.0.1:7464".to_string();
    let mut drain_deadline = Duration::from_millis(5000);
    let mut i = 0;
    let num = |args: &[String], i: usize, what: &str| -> Result<u64, String> {
        args.get(i + 1)
            .ok_or_else(|| format!("{what} needs a value"))?
            .parse()
            .map_err(|_| format!("bad {what} value '{}'", args[i + 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                listen = match args.get(i + 1) {
                    Some(a) => a.clone(),
                    None => return fail("--listen needs a value"),
                };
                i += 1;
            }
            "--workers" => match num(args, i, "--workers") {
                Ok(n) => {
                    cfg.workers = n as usize;
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--queue-capacity" => match num(args, i, "--queue-capacity") {
                Ok(n) => {
                    cfg.queue_capacity = n as usize;
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--threads" => match num(args, i, "--threads") {
                Ok(n) => {
                    cfg.pool_threads = n as usize;
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--cache-bytes" => match num(args, i, "--cache-bytes") {
                Ok(n) => {
                    cfg.cache_bytes = Some(n as usize);
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--read-timeout-ms" => match num(args, i, "--read-timeout-ms") {
                Ok(n) => {
                    cfg.read_timeout = Some(Duration::from_millis(n));
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--write-timeout-ms" => match num(args, i, "--write-timeout-ms") {
                Ok(n) => {
                    cfg.write_timeout = Some(Duration::from_millis(n));
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--max-graphs" => match num(args, i, "--max-graphs") {
                Ok(n) => {
                    cfg.max_graphs = n as usize;
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--max-connections" => match num(args, i, "--max-connections") {
                Ok(n) => {
                    cfg.max_connections = n as usize;
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--checkpoint-dir" => {
                cfg.checkpoint_dir = match args.get(i + 1) {
                    Some(d) => Some(d.into()),
                    None => return fail("--checkpoint-dir needs a value"),
                };
                i += 1;
            }
            "--delta" => {
                cfg.default_delta = match args.get(i + 1).and_then(|a| a.parse().ok()) {
                    Some(d) => d,
                    None => return fail("--delta needs a number"),
                };
                i += 1;
            }
            "--impl" => {
                cfg.default_impl = match args.get(i + 1).map(|a| a.parse()) {
                    Some(Ok(kernels)) => kernels,
                    Some(Err(e)) => return fail(&format!("--impl: {e} (want fused or improved)")),
                    None => return fail("--impl needs a value"),
                };
                i += 1;
            }
            "--drain-deadline-ms" => match num(args, i, "--drain-deadline-ms") {
                Ok(n) => {
                    drain_deadline = Duration::from_millis(n);
                    i += 1;
                }
                Err(e) => return fail(&e),
            },
            "--debug-commands" => cfg.debug_commands = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument '{other}'\n\n{USAGE}")),
        }
        i += 1;
    }
    install_stop_handlers();
    let handle = match start(cfg, listen.as_str()) {
        Ok(h) => h,
        Err(e) => return fail(&format!("bind {listen}: {e}")),
    };
    println!("sssp-serve: listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    // Serve until SIGTERM/SIGINT (or a wire DRAIN op) asks for the
    // graceful drain; SIGKILL remains the crash-safety path the resume
    // tests exercise.
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if DRAIN_SIGNAL.load(Ordering::Relaxed) || handle.drain_requested() {
            break;
        }
    }
    eprintln!("sssp-serve: draining (deadline {} ms)", drain_deadline.as_millis());
    let clean = handle.drain(drain_deadline);
    if clean {
        eprintln!("sssp-serve: drained clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("sssp-serve: drain deadline expired with jobs still running");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("client") => {
            let Some(addr) = args.get(1) else {
                return fail(&format!("client needs ADDR\n\n{USAGE}"));
            };
            run_client(addr, &args[2..])
        }
        _ => run_server(&args),
    }
}
