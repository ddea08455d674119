//! Steady state of the served path: once a server has answered each
//! (graph, Δ) pair, a request pays for its solve and its reply and for
//! nothing that depends on the graph alone.
//!
//! One worker serves two graphs of different sizes, alternating, at two
//! Δ values each. After every (graph, Δ, source) of the plan has been
//! answered once, 200 more requests must make
//!
//! - no fingerprint pass over a graph (`CsrGraph::fingerprint_passes`),
//! - no pass over a graph's weights (`CsrGraph::weight_passes`),
//! - no split build (the daemon's `cache_builds`),
//! - exactly one allocation the size of a distance vector or larger —
//!   the reply's own `dist` — per request,
//!
//! and every reply must carry the digest, reach and stats of a fresh
//! `SsspEngine::new` run. A repeated `LOAD` of a registered graph, and a
//! `LOAD` the full registry refuses, each cost one fingerprint pass and
//! no weight pass: the graph is prepared only when the registry keeps
//! it. The pass counters and the allocation counter are process-global,
//! so this file holds exactly one test.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use common::{check, request, Conn, Request};
use graphdata::CsrGraph;
use sssp_serve::protocol::{code, parse_gen_spec};
use sssp_serve::server::{start, ServerConfig};

/// `System`, counting allocations of at least [`BIG`] bytes while
/// [`COUNTING`] is set.
struct BigAllocs;

/// The smallest distance vector of the two graphs, in bytes.
const BIG: usize = 900 * std::mem::size_of::<f64>();
static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

impl BigAllocs {
    fn note(&self, size: usize) {
        if size >= BIG && COUNTING.load(Ordering::Relaxed) {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state and never allocates.
unsafe impl GlobalAlloc for BigAllocs {
    // SAFETY: forwards the caller's obligations to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's obligations to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards the caller's obligations to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's obligations to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            self.note(new_size);
        }
        // SAFETY: as in `dealloc`; `new_size` obligations pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: BigAllocs = BigAllocs;

#[test]
fn a_warm_server_pays_only_for_the_solve() {
    // (spec, sources): a 30x30 grid (900 vertices) and an RMAT graph of
    // 2048 vertices.
    let plan = [
        ("grid:30x30", [0usize, 451, 899]),
        ("rmat:11,8", [0, 7, 1500]),
    ];
    let deltas = [1.0, 2.0];
    let graphs: Vec<CsrGraph> = plan
        .iter()
        .map(|(spec, _)| CsrGraph::from_edge_list(&parse_gen_spec(spec).unwrap()).unwrap())
        .collect();

    // Every (graph, Δ, source) request of the plan with the answer a
    // fresh engine gives.
    let mut requests: Vec<Request> = Vec::new();
    for (g, (_, sources)) in graphs.iter().zip(&plan) {
        for &delta in &deltas {
            requests.extend(sources.iter().map(|&source| request(g, source, delta)));
        }
    }

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
    // Warm-up: each request of the plan once, which builds each graph's
    // split and grows the worker's workspace to the larger graph. Both
    // graphs are unit-weight, so both Δ values are all-light and share
    // one split per graph.
    for request in &requests {
        check(&conn.ask(&request.0), request);
    }
    let builds = |server: &sssp_serve::ServerHandle| server.stats().get("cache_builds");
    assert_eq!(builds(&server), Some(graphs.len() as u64));

    // Steady state: 200 requests alternating between the graphs.
    let per_graph = requests.len() / graphs.len();
    let order: Vec<&Request> = (0..200)
        .map(|i| &requests[(i % 2) * per_graph + (i / 2) % per_graph])
        .collect();
    let (fingerprints, weight_scans) = (CsrGraph::fingerprint_passes(), CsrGraph::weight_passes());
    COUNTING.store(true, Ordering::Relaxed);
    let replies: Vec<Vec<String>> = order.iter().map(|(line, _)| conn.ask(line)).collect();
    COUNTING.store(false, Ordering::Relaxed);
    let big_allocs = BIG_ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        CsrGraph::fingerprint_passes() - fingerprints,
        0,
        "fingerprint passes"
    );
    assert_eq!(CsrGraph::weight_passes() - weight_scans, 0, "weight scans");
    assert_eq!(builds(&server), Some(graphs.len() as u64), "split builds");
    assert_eq!(
        big_allocs,
        order.len() as u64,
        "one dist-sized allocation per request"
    );
    for (reply, request) in replies.iter().zip(order) {
        check(reply, request);
    }

    // A LOAD the registry does not keep is one fingerprint pass.
    for spec in [plan[0].0, "grid:5x5"] {
        let (fingerprints, weight_scans) =
            (CsrGraph::fingerprint_passes(), CsrGraph::weight_passes());
        let reply = conn.ask(&format!("LOAD GEN {spec}"));
        let want = match spec == plan[0].0 {
            true => "LOADED".to_string(),
            false => format!("ERROR code={} ", code::GRAPH_TABLE_FULL),
        };
        assert!(reply[0].starts_with(&want), "{spec}: {reply:?}");
        assert_eq!(CsrGraph::fingerprint_passes() - fingerprints, 1, "{spec}: fingerprint passes");
        assert_eq!(CsrGraph::weight_passes() - weight_scans, 0, "{spec}: weight scans");
    }
    server.shutdown();
}
