//! Concurrent jobs on one graph share one live checkpoint manifest.
//!
//! Two connections checkpoint disjoint sources of one graph on a
//! two-worker server. Every job's `ckpt-<source>.bin` must be named by
//! the graph's `manifest.bin`, and completing every job must drain both.
//! A server whose jobs each load their own copy of the manifest and save
//! the whole copy back fails this: concurrent saves overwrite each
//! other's entries, and the index loses jobs whose files are on disk.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

use sssp_core::manifest::CheckpointManifest;
use sssp_serve::protocol::TEXT_TERMINATOR;
use sssp_serve::server::{start, ServerConfig};

/// Requests per connection, one source each.
const PER_CONNECTION: usize = 200;

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

/// Two connections at once, one on the even sources and one on the odd
/// ones, each sending `SSSP <fp> <source><suffix>` and checking every
/// reply's first line.
fn drive(addr: SocketAddr, fp: u64, suffix: &'static str, want: fn(&str) -> bool) {
    let lanes: Vec<_> = (0..2)
        .map(|lane| {
            std::thread::spawn(move || {
                let mut c = TcpStream::connect(addr).expect("connect");
                for i in 0..PER_CONNECTION {
                    let source = 2 * i + lane;
                    let reply = ask(&mut c, &format!("SSSP {fp:016x} {source}{suffix}"));
                    assert!(want(&reply[0]), "source {source}: {reply:?}");
                }
            })
        })
        .collect();
    for lane in lanes {
        lane.join().expect("connection thread");
    }
}

fn checkpoints_on_disk(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .expect("graph checkpoint dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("ckpt-") && name.ends_with(".bin"))
        .collect()
}

fn checkpoints_in_manifest(dir: &Path) -> BTreeSet<String> {
    let manifest = CheckpointManifest::load_or_default(dir).expect("manifest loads");
    manifest.entries().iter().map(|e| e.file.clone()).collect()
}

#[test]
fn concurrent_jobs_on_one_graph_keep_its_manifest_in_lockstep() {
    let root = std::env::temp_dir().join(format!("serve-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = ServerConfig {
        workers: 2,
        checkpoint_dir: Some(root.clone()),
        ..ServerConfig::default()
    };
    let server = start(cfg, "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let mut c = TcpStream::connect(addr).expect("connect");
    let loaded = ask(&mut c, "LOAD GEN grid:40x40");
    let fp = loaded[0]
        .split_whitespace()
        .find_map(|w| w.strip_prefix("fingerprint="))
        .map(|h| u64::from_str_radix(h, 16).expect("hex fingerprint"))
        .unwrap_or_else(|| panic!("{loaded:?}"));
    let dir = root.join(format!("{fp:016x}"));

    // Every job stops at its epoch budget and persists a checkpoint.
    drive(addr, fp, " epochs=3", |l| l.starts_with("PARTIAL") && l.contains(" saved=ckpt-"));
    let on_disk = checkpoints_on_disk(&dir);
    assert_eq!(on_disk.len(), 2 * PER_CONNECTION);
    let listed = checkpoints_in_manifest(&dir);
    assert_eq!(
        listed.len(),
        on_disk.len(),
        "the manifest must name every checkpoint on disk: {} missing",
        on_disk.difference(&listed).count()
    );
    assert_eq!(listed, on_disk);

    // Completing every job drains the index and the files together.
    drive(addr, fp, "", |l| l.starts_with("OK "));
    assert_eq!(server.stats().get("jobs_resumed"), Some(2 * PER_CONNECTION as u64));
    assert!(checkpoints_in_manifest(&dir).is_empty());
    assert!(checkpoints_on_disk(&dir).is_empty());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
