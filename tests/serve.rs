//! Chaos tests for the resident SSSP service: overload shedding, the
//! slow-client writer budget, kill-9 crash recovery through the
//! checkpoint manifest, the SIGTERM graceful drain, and checkpoint
//! quarantine on restart.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sssp_serve::protocol::TEXT_TERMINATOR;
use sssp_serve::server::{start, ServerConfig};

/// Send one text request on `stream`, return the reply lines (without
/// the `.` terminator).
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

fn field(line: &str, name: &str) -> String {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no field {name} in {line:?}"))
        .to_string()
}

fn load(stream: &mut TcpStream, spec: &str) -> u64 {
    let reply = ask(stream, &format!("LOAD GEN {spec}"));
    assert!(reply[0].starts_with("LOADED"), "{reply:?}");
    u64::from_str_radix(&field(&reply[0], "fingerprint"), 16).expect("hex fingerprint")
}

fn stat(addr: SocketAddr, name: &str) -> u64 {
    let mut c = TcpStream::connect(addr).expect("connect");
    ask(&mut c, "STATS")
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no stat {name}"))
        .parse()
        .expect("stat value")
}

/// Poll a STATS counter until it reaches `want` (chaos tests race the
/// server's worker threads; counters are the only sound sync point).
fn wait_for_stat(addr: SocketAddr, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let got = stat(addr, name);
        if got >= want {
            return;
        }
        assert!(Instant::now() < deadline, "{name} stuck at {got}, wanted {want}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Flooding past the admission bound sheds deterministically: with the
/// queue held full and no completed jobs yet, every refused request gets
/// the same `retry_after_ms` hint (default service estimate × backlog),
/// and the held jobs still complete after RELEASE.
#[test]
fn overload_sheds_deterministically_and_held_jobs_survive() {
    let server = start(
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            debug_commands: true,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();
    let mut admin = TcpStream::connect(addr).unwrap();
    let fp = load(&mut admin, "grid:6x6");
    assert_eq!(ask(&mut admin, "HOLD"), ["DONE"]);

    // Two admitted jobs sit in the held queue, their clients blocked on
    // the reply.
    let blocked: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                ask(&mut c, &format!("SSSP {fp:016x} 0"))
            })
        })
        .collect();
    wait_for_stat(addr, "queue_depth", 2);

    // Queue full, nothing running, nothing completed: every further
    // request is shed with hint 50ms × (2 waiting + 0 running + 1).
    for _ in 0..3 {
        let mut c = TcpStream::connect(addr).unwrap();
        let reply = ask(&mut c, &format!("SSSP {fp:016x} 0"));
        assert_eq!(reply, ["OVERLOADED retry_after_ms=150"]);
    }
    assert_eq!(stat(addr, "jobs_shed"), 3);
    assert_eq!(stat(addr, "jobs_admitted"), 2);

    // Releasing drains the held jobs to normal completions.
    assert_eq!(ask(&mut admin, "RELEASE"), ["DONE"]);
    for t in blocked {
        let reply = t.join().unwrap();
        assert!(reply[0].starts_with("OK "), "{reply:?}");
        assert_eq!(field(&reply[0], "reached"), "36");
    }
    assert_eq!(stat(addr, "jobs_completed"), 2);
    server.shutdown();
}

/// A client that requests a full distance dump and then stops reading
/// trips the write timeout (the writer budget) and loses its
/// connection — while a concurrent well-behaved client is served
/// normally. Workers never touch sockets, so the stall costs nothing
/// but the victim's own handler.
#[test]
fn stalled_reader_trips_the_writer_budget_without_wedging_the_service() {
    let server = start(
        ServerConfig {
            workers: 2,
            write_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();
    let mut admin = TcpStream::connect(addr).unwrap();
    // 640k vertices: the full dump (~12 MB of text) exceeds what the
    // kernel will buffer for a never-reading peer (the send side
    // auto-tunes to at most 4 MB), so an unread reply must block the
    // handler's writes.
    let fp = load(&mut admin, "grid:800x800");
    let small = load(&mut admin, "grid:6x6");

    // The victim sends the request and never reads a byte.
    let mut victim = TcpStream::connect(addr).unwrap();
    victim
        .write_all(format!("SSSP {fp:016x} 0 full\n").as_bytes())
        .unwrap();

    // Meanwhile a well-behaved client gets full service.
    let good = ask(&mut admin, &format!("SSSP {small:016x} 0"));
    assert!(good[0].starts_with("OK "), "{good:?}");
    assert_eq!(field(&good[0], "reached"), "36");

    wait_for_stat(addr, "writer_timeouts", 1);
    drop(victim);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Crash recovery through the daemon binary
// ---------------------------------------------------------------------------

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sssp-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sssp-serve");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("stdout"))
            .read_line(&mut banner)
            .expect("read banner");
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .parse()
            .unwrap_or_else(|_| panic!("bad banner {banner:?}"));
        Daemon { child, addr }
    }

    /// SIGKILL — no shutdown hooks run; recovery must come from the
    /// durable manifest alone.
    fn kill9(mut self) {
        self.child.kill().expect("kill -9");
        self.child.wait().expect("reap");
    }

    /// SIGTERM — the graceful-drain path the daemon installs a handler
    /// for.
    fn sigterm(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -TERM failed");
    }

    /// Wait for the daemon to exit on its own (e.g. after a drain).
    fn wait_exit(mut self) -> std::process::ExitStatus {
        self.child.wait().expect("wait for daemon exit")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Kill -9 mid-batch, restart on the same checkpoint directory, and the
/// resumed runs must be bit-identical (dist digest AND stats counters)
/// to an uninterrupted cold run — at every pool width.
#[test]
fn kill9_restart_resumes_bit_identically_across_thread_counts() {
    let sources = [0usize, 7, 131];
    for threads in ["1", "2", "4"] {
        let tmp = std::env::temp_dir().join(format!(
            "serve-crash-{}-{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&tmp);

        // Uninterrupted cold run: the reference OK lines.
        let cold = Daemon::spawn(&["--threads", threads, "--impl", "improved"]);
        let mut c = TcpStream::connect(cold.addr).unwrap();
        let fp = load(&mut c, "grid:60x60");
        let reference: Vec<String> = sources
            .iter()
            .map(|s| ask(&mut c, &format!("SSSP {fp:016x} {s}"))[0].clone())
            .collect();
        for line in &reference {
            assert!(line.starts_with("OK "), "{line}");
        }
        cold.kill9();

        // Interrupted run: stop each job deterministically mid-run via
        // an epoch budget, then SIGKILL the server.
        let dir = tmp.to_str().unwrap();
        let victim = Daemon::spawn(&[
            "--threads",
            threads,
            "--impl",
            "improved",
            "--checkpoint-dir",
            dir,
        ]);
        let mut c = TcpStream::connect(victim.addr).unwrap();
        assert_eq!(load(&mut c, "grid:60x60"), fp);
        for s in sources {
            let reply = ask(&mut c, &format!("SSSP {fp:016x} {s} epochs=4"));
            assert!(reply[0].starts_with("PARTIAL"), "{reply:?}");
            assert_eq!(field(&reply[0], "saved"), format!("ckpt-{s}.bin"));
        }
        let subdir = tmp.join(format!("{fp:016x}"));
        assert!(subdir.join("manifest.bin").exists(), "manifest persisted before the kill");
        victim.kill9();

        // Restart on the same directory: each job resumes from its
        // manifest entry and completes identically to the cold run.
        let revived = Daemon::spawn(&[
            "--threads",
            threads,
            "--impl",
            "improved",
            "--checkpoint-dir",
            dir,
        ]);
        let mut c = TcpStream::connect(revived.addr).unwrap();
        assert_eq!(load(&mut c, "grid:60x60"), fp);
        for (s, want) in sources.iter().zip(&reference) {
            let got = &ask(&mut c, &format!("SSSP {fp:016x} {s}"))[0];
            assert_eq!(got, want, "threads={threads} source={s}");
        }
        assert_eq!(stat(revived.addr, "jobs_resumed"), sources.len() as u64);
        // Completion drained every checkpoint and manifest entry.
        for s in sources {
            assert!(!subdir.join(format!("ckpt-{s}.bin")).exists());
        }
        revived.kill9();
        let _ = std::fs::remove_dir_all(&tmp);
    }
}

/// SIGTERM mid-job is a *graceful* drain: the in-flight run is cancelled
/// into a certified partial whose checkpoint persists, the daemon exits
/// 0 within its drain deadline, and a restart on the same directory
/// resumes bit-identically (dist digest AND stats counters) to an
/// uninterrupted cold run.
#[test]
fn sigterm_drains_to_certified_partials_and_resumes_bit_identically() {
    let tmp = std::env::temp_dir().join(format!("serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let spec = "grid:300x300";
    let query = |fp: u64| format!("SSSP {fp:016x} 0 delta=0.05");

    // Uninterrupted cold run: the reference OK line.
    let cold = Daemon::spawn(&["--impl", "improved"]);
    let mut c = TcpStream::connect(cold.addr).unwrap();
    let fp = load(&mut c, spec);
    let want = ask(&mut c, &query(fp))[0].clone();
    assert!(want.starts_with("OK "), "{want}");
    cold.kill9();

    // The victim gets SIGTERM while the job is running.
    let dir = tmp.to_str().unwrap();
    let victim = Daemon::spawn(&[
        "--impl",
        "improved",
        "--checkpoint-dir",
        dir,
        "--drain-deadline-ms",
        "15000",
    ]);
    let addr = victim.addr;
    let mut c = TcpStream::connect(addr).unwrap();
    assert_eq!(load(&mut c, spec), fp);
    let line = query(fp);
    let job = std::thread::spawn(move || {
        let mut c2 = TcpStream::connect(addr).unwrap();
        ask(&mut c2, &line)
    });
    wait_for_stat(addr, "queue_running", 1);
    victim.sigterm();

    // The blocked client gets a certified partial (wire code 16 =
    // cancelled) with its checkpoint saved, not a dropped connection.
    let reply = job.join().unwrap();
    assert!(reply[0].starts_with("PARTIAL"), "{reply:?}");
    assert_eq!(field(&reply[0], "code"), "16", "drain cancels, certified: {reply:?}");
    assert_eq!(field(&reply[0], "saved"), "ckpt-0.bin");
    let exit = victim.wait_exit();
    assert!(exit.success(), "graceful drain must exit 0, got {exit:?}");
    let subdir = tmp.join(format!("{fp:016x}"));
    assert!(subdir.join("ckpt-0.bin").exists(), "checkpoint persisted through the drain");
    assert!(subdir.join("manifest.bin").exists(), "manifest persisted through the drain");

    // Restart on the same directory: the resumed run completes
    // bit-identically to the cold reference.
    let revived = Daemon::spawn(&["--impl", "improved", "--checkpoint-dir", dir]);
    let mut c = TcpStream::connect(revived.addr).unwrap();
    assert_eq!(load(&mut c, spec), fp);
    let got = &ask(&mut c, &query(fp))[0];
    assert_eq!(got, &want, "resume after drain is bit-identical");
    assert_eq!(stat(revived.addr, "jobs_resumed"), 1);
    revived.kill9();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Corruption quarantine: restart the daemon on a checkpoint directory
/// whose manifest is torn and one of whose checkpoints is truncated.
/// Both files move to `quarantine/`, the manifest is rebuilt from the
/// survivors, and the server answers the next request — resuming from
/// the surviving checkpoint.
#[test]
fn corrupt_checkpoint_and_torn_manifest_are_quarantined_on_restart() {
    let tmp = std::env::temp_dir().join(format!("serve-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let dir = tmp.to_str().unwrap();

    // Two interrupted jobs leave ckpt-0.bin and ckpt-7.bin plus the
    // manifest; SIGKILL so nothing cleans up.
    let victim = Daemon::spawn(&["--checkpoint-dir", dir]);
    let mut c = TcpStream::connect(victim.addr).unwrap();
    let fp = load(&mut c, "grid:40x40");
    for s in [0usize, 7] {
        let reply = ask(&mut c, &format!("SSSP {fp:016x} {s} epochs=3"));
        assert!(reply[0].starts_with("PARTIAL"), "{reply:?}");
        assert_eq!(field(&reply[0], "saved"), format!("ckpt-{s}.bin"));
    }
    victim.kill9();

    // Tear the manifest (truncate mid-header) and truncate one
    // checkpoint (a torn write).
    let subdir = tmp.join(format!("{fp:016x}"));
    let manifest = std::fs::read(subdir.join("manifest.bin")).unwrap();
    std::fs::write(subdir.join("manifest.bin"), &manifest[..6]).unwrap();
    let ckpt = std::fs::read(subdir.join("ckpt-0.bin")).unwrap();
    std::fs::write(subdir.join("ckpt-0.bin"), &ckpt[..ckpt.len() / 2]).unwrap();

    // Restart: the startup scan quarantines both files and rebuilds the
    // manifest from the surviving ckpt-7.bin.
    let revived = Daemon::spawn(&["--checkpoint-dir", dir]);
    assert_eq!(stat(revived.addr, "files_quarantined"), 2);
    let quarantine = subdir.join("quarantine");
    assert!(quarantine.join("manifest.bin").exists(), "torn manifest quarantined");
    assert!(quarantine.join("ckpt-0.bin").exists(), "truncated checkpoint quarantined");
    assert!(subdir.join("ckpt-7.bin").exists(), "healthy checkpoint survives");

    // The server answers: source 7 resumes from the survivor, source 0
    // falls back to a clean cold run.
    let mut c = TcpStream::connect(revived.addr).unwrap();
    assert_eq!(load(&mut c, "grid:40x40"), fp);
    let resumed = ask(&mut c, &format!("SSSP {fp:016x} 7"));
    assert!(resumed[0].starts_with("OK "), "{resumed:?}");
    let fresh = ask(&mut c, &format!("SSSP {fp:016x} 0"));
    assert!(fresh[0].starts_with("OK "), "{fresh:?}");
    assert_eq!(stat(revived.addr, "jobs_resumed"), 1);
    assert_eq!(field(&resumed[0], "reached"), field(&fresh[0], "reached"));
    revived.kill9();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A hostile `LOAD GEN` spec is a typed refusal, and a connection gives
/// its slot back however it ends: two slots serve any number of clients
/// that send `ba:10,0` and hang up.
#[test]
fn hostile_gen_specs_are_refused_without_leaking_connection_slots() {
    let config = ServerConfig { max_connections: 2, ..ServerConfig::default() };
    let server = start(config, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    // One connection asks for STATS throughout and holds one slot: a
    // fresh one per poll could find the last poll's slot not yet free.
    let mut stats = TcpStream::connect(addr).unwrap();
    let open = |stats: &mut TcpStream| -> u64 {
        let reply = ask(stats, "STATS");
        let line = reply.iter().find_map(|l| l.strip_prefix("connections_open="));
        line.unwrap_or_else(|| panic!("no connections_open in {reply:?}")).parse().unwrap()
    };
    for _ in 0..4 {
        let mut c = TcpStream::connect(addr).unwrap();
        let reply = ask(&mut c, "LOAD GEN ba:10,0");
        assert!(reply.first().is_some_and(|r| r.starts_with("ERROR code=35 ")), "{reply:?}");
        drop(c);
        // Once the handler has seen the hang-up, the STATS one is open.
        let deadline = Instant::now() + Duration::from_secs(20);
        while open(&mut stats) > 1 {
            assert!(Instant::now() < deadline, "the connection's slot was not given back");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    server.shutdown();
}
