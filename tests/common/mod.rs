//! Plumbing shared by the served-path steady-state tests: a text
//! connection, and the `OK` reply a request must get — the digest, reach
//! and stats of a fresh `SsspEngine::new` run.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use graphdata::CsrGraph;
use sssp_core::engine::SsspEngine;
use sssp_core::{RunBudget, SteppingStrategy};
use sssp_serve::protocol::{digest_and_reach, TEXT_TERMINATOR};

/// One text connection, read through one buffer for its whole life.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: std::net::SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Conn { reader, writer }
    }

    /// Send one request line; return the reply lines.
    pub fn ask(&mut self, line: &str) -> Vec<String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = Vec::new();
        loop {
            let mut l = String::new();
            assert!(
                self.reader.read_line(&mut l).expect("reply line") > 0,
                "server hung up"
            );
            let l = l.trim_end();
            if l == TEXT_TERMINATOR {
                return reply;
            }
            reply.push(l.to_string());
        }
    }
}

/// A request line and the `key=value` fields its `OK` reply must carry.
pub type Request = (String, HashMap<String, String>);

/// The `SSSP` request on `g` from `source` at `delta`, with the answer a
/// fresh engine gives.
pub fn request(g: &CsrGraph, source: usize, delta: f64) -> Request {
    let (fresh, _) = SsspEngine::new(g)
        .run_stepping(
            None,
            source,
            delta,
            SteppingStrategy::Classic,
            &mut RunBudget::unlimited(),
        )
        .unwrap();
    let (dist_fnv, reached) = digest_and_reach(&fresh.dist);
    let s = &fresh.stats;
    let want = [
        ("reached", reached.to_string()),
        ("buckets", s.buckets_processed.to_string()),
        ("light_phases", s.light_phases.to_string()),
        ("heavy_phases", s.heavy_phases.to_string()),
        ("relaxations", s.relaxations.to_string()),
        ("improvements", s.improvements.to_string()),
        ("dist_fnv", format!("{dist_fnv:016x}")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let fp = g.fingerprint();
    (format!("SSSP {fp:016x} {source} delta={delta}"), want)
}

/// Assert that `reply` is one `OK` line carrying every field `request`
/// wants.
pub fn check(reply: &[String], (line, want): &Request) {
    assert_eq!(reply.len(), 1, "{line}: {reply:?}");
    assert!(reply[0].starts_with("OK "), "{line}: {}", reply[0]);
    let got: HashMap<&str, &str> =
        reply[0].split_whitespace().skip(1).filter_map(|kv| kv.split_once('=')).collect();
    for (k, v) in want {
        assert_eq!(got.get(k.as_str()), Some(&v.as_str()), "{line}: field {k} in {}", reply[0]);
    }
}
