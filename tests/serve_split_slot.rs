//! A served graph's split state is bounded by the graph, under the
//! default config. 300 requests on one unit-weight graph each name a
//! distinct Δ below its unit weight, where every edge is heavy, so no
//! request can read the graph's all-light split. Each Δ replaces the
//! graph's one split slot:
//!
//! - `cache_resident_bytes` never exceeds one split with heavy edges —
//!   its partition points and a light-only pull index with no light edge,
//!   `8(2n + 1) + 8(n + 1)` bytes;
//! - `cache_builds` counts one build per Δ and `cache_evictions` every
//!   replacement;
//!
//! and every reply must carry the digest, reach and stats of a fresh
//! `SsspEngine::new` run.

mod common;

use common::{check, request, Conn};
use graphdata::CsrGraph;
use sssp_serve::protocol::parse_gen_spec;
use sssp_serve::server::{start, ServerConfig};

#[test]
fn distinct_deltas_below_the_max_weight_share_one_split_slot() {
    let spec = "rmat:12,8";
    let g = CsrGraph::from_edge_list(&parse_gen_spec(spec).unwrap()).unwrap();
    let n = g.num_vertices() as u64;
    let one_split = 8 * (2 * n + 1) + 8 * (n + 1);
    let server = start(ServerConfig::default(), "127.0.0.1:0").expect("start");
    let stat = |name: &str| server.stats().get(name).unwrap_or_else(|| panic!("no {name}"));
    let mut conn = Conn::open(server.addr());
    let loaded = conn.ask(&format!("LOAD GEN {spec}"));
    assert!(loaded[0].starts_with("LOADED"), "{loaded:?}");

    let deltas: u32 = 300;
    let sources = [0, 7, 1500, 4095];
    for i in 0..deltas {
        let delta = 0.5 + f64::from(i) * 1e-6;
        let req = request(&g, sources[i as usize % sources.len()], delta);
        check(&conn.ask(&req.0), &req);
        let resident = stat("cache_resident_bytes");
        assert!(resident <= one_split, "Δ = {delta}: {resident} B, one split is {one_split} B");
    }
    assert_eq!(stat("cache_builds"), u64::from(deltas));
    assert_eq!(stat("cache_evictions"), u64::from(deltas - 1));
    server.shutdown();
}
