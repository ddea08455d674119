//! Churn steady state: two unit-weight graphs alternate on one worker,
//! as the `churn-rmat` benchmark workload runs them.
//!
//! A unit-weight graph at Δ = 1 reads its prepared graph's all-light
//! split, which nobody builds, and that split's pull index is the graph's
//! own transpose: built on the first dense epoch on each graph and
//! counted in `graphs_resident_bytes` exactly once per graph. Neither
//! graph's split slot is ever filled. Once each graph has been answered,
//! 200 alternating requests must make
//!
//! - no split build and no slot replacement (the daemon's
//!   `cache_builds`, `cache_evictions`),
//! - no pull index build (`PullIndex::builds`), while the direction
//!   oracle still picks pull (`decision_counters`),
//!
//! and every reply must carry the digest, reach and stats of a fresh
//! `SsspEngine::new` run. The counters are process-global, so this file
//! holds exactly one test.

mod common;

use common::{check, request, Conn, Request};
use gblas::direction::decision_counters;
use graphdata::CsrGraph;
use sssp_core::pull::PullIndex;
use sssp_serve::protocol::parse_gen_spec;
use sssp_serve::server::{start, ServerConfig};
use sssp_serve::ServerHandle;

fn stat(server: &ServerHandle, name: &str) -> u64 {
    server.stats().get(name).unwrap_or_else(|| panic!("STATS has no {name}"))
}

#[test]
fn alternating_unit_graphs_share_their_transposes_and_build_nothing() {
    let plan = [("rmat:11,8", [0usize, 7, 1500]), ("er:2048,16000", [0, 100, 2000])];
    let graphs: Vec<CsrGraph> = plan
        .iter()
        .map(|(spec, _)| CsrGraph::from_edge_list(&parse_gen_spec(spec).unwrap()).unwrap())
        .collect();
    let per_graph: Vec<Vec<Request>> = graphs
        .iter()
        .zip(&plan)
        .map(|(g, (_, sources))| sources.iter().map(|&s| request(g, s, 1.0)).collect())
        .collect();
    let server = start(
        ServerConfig {
            workers: 1,
            max_graphs: plan.len(),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start");
    let mut conn = Conn::open(server.addr());
    for (spec, _) in &plan {
        let loaded = conn.ask(&format!("LOAD GEN {spec}"));
        assert!(loaded[0].starts_with("LOADED"), "{loaded:?}");
    }

    // Warm-up, one graph at a time: each graph's first dense epoch builds
    // its transpose, which the registry then reports, once.
    let transposes = PullIndex::builds();
    let mut resident = stat(&server, "graphs_resident_bytes");
    for (g, reqs) in graphs.iter().zip(&per_graph) {
        for request in reqs {
            check(&conn.ask(&request.0), request);
        }
        resident += PullIndex::bytes_for(g.num_vertices(), g.num_edges()) as u64;
        assert_eq!(stat(&server, "graphs_resident_bytes"), resident, "{:?}", &reqs[0].0);
    }
    assert_eq!(PullIndex::builds() - transposes, graphs.len() as u64, "one transpose per graph");
    let (builds, evictions) = (stat(&server, "cache_builds"), stat(&server, "cache_evictions"));
    assert_eq!((builds, evictions), (0, 0));
    assert_eq!(stat(&server, "cache_resident_bytes"), 0, "no split slot is filled");

    // Steady state: 200 requests alternating between the graphs.
    let order: Vec<&Request> =
        (0..200).map(|i| &per_graph[i % 2][(i / 2) % per_graph[i % 2].len()]).collect();
    let (transposes, (_, pulls)) = (PullIndex::builds(), decision_counters());
    let replies: Vec<Vec<String>> = order.iter().map(|(line, _)| conn.ask(line)).collect();
    assert_eq!(PullIndex::builds() - transposes, 0, "pull index builds");
    assert!(decision_counters().1 > pulls, "the dense epochs pulled");
    assert_eq!(stat(&server, "cache_builds"), builds, "split builds");
    assert_eq!(stat(&server, "cache_evictions"), evictions, "slot replacements");
    assert_eq!(stat(&server, "graphs_resident_bytes"), resident);
    for (reply, request) in replies.iter().zip(order) {
        check(reply, request);
    }
    server.shutdown();
}
