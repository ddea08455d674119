//! The four workloads and their set-up: graphs, the in-process daemon,
//! the oracle's reference table.

use std::time::Instant;

use graphdata::gen::{rmat, RmatParams};
use graphdata::weights::assign_symmetric;
use graphdata::{CsrGraph, EdgeList, WeightModel};
use sssp_core::dijkstra::dijkstra;
use sssp_core::fused::LightHeavy;
use sssp_serve::protocol::{parse_gen_spec, Request, Response};
use sssp_serve::server::{self, ServerConfig, ServerHandle};

use crate::client::{sssp_request, Conn};
use crate::env::connections;
use crate::oracle::{same_bits, sample_sources, Reference, Rng};

pub enum Shape {
    /// Graphs made resident in an in-process daemon with `LOAD GEN`;
    /// requests alternate over them.
    Serve {
        specs: &'static [&'static str],
        /// Cap the split cache at one split's `resident_bytes`, so two
        /// resident graphs keep evicting each other's split.
        one_split_cache: bool,
    },
    /// No daemon: the library's solve path on a graph too large for the
    /// last-level cache.
    Library { scale: u32, edge_factor: usize },
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — the same line `BENCHMARK.json` carries.
    pub why: &'static str,
    pub shape: Shape,
    /// Sources kept per graph, out of `pool` eligible candidates (see
    /// [`sample_sources`]). The pool is wide where Dijkstra is cheap and
    /// solve time follows eccentricity (the grid), and equal to `sources`
    /// where eccentricity hardly varies (RMAT).
    pub sources: usize,
    pub pool: usize,
    /// Δ of every solve: the server default for the serve workloads.
    pub delta: f64,
    /// Requests of the traced pass (fixed, so its counts repeat exactly).
    pub trace_requests: usize,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "hot-rmat",
        why: "resident rmat:15,8, split cache hot: few epochs, so per-request O(E) set-up and relaxation dominate",
        shape: Shape::Serve { specs: &["rmat:15,8"], one_split_cache: false },
        sources: 64,
        pool: 64,
        delta: 1.0,
        trace_requests: 50,
    },
    Workload {
        name: "hot-road",
        why: "resident grid:8x1024, ~1000 epochs per solve: full-vector frontier extraction dominates, relaxation is ~1%",
        shape: Shape::Serve { specs: &["grid:8x1024"], one_split_cache: false },
        sources: 64,
        pool: 1024,
        delta: 1.0,
        trace_requests: 50,
    },
    Workload {
        name: "churn-rmat",
        why: "two graphs alternate under a one-split cache budget: working set is twice the cache, so splits build and evict",
        shape: Shape::Serve { specs: &["rmat:15,8", "er:32768,220000"], one_split_cache: true },
        sources: 64,
        pool: 64,
        delta: 1.0,
        trace_requests: 50,
    },
    Workload {
        name: "solve-large",
        why: "library only, weighted symmetric rmat(17,8), 1.9M edges beyond LLC: memory-bound relaxation, cold vs warm solve",
        shape: Shape::Library { scale: 17, edge_factor: 8 },
        sources: 16,
        pool: 16,
        delta: 0.125,
        trace_requests: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// One graph under test with its oracle table.
pub struct Target {
    pub graph: CsrGraph,
    pub fingerprint: u64,
    pub refs: Vec<Reference>,
}

/// Everything set-up produces; dropped (server shut down) by
/// [`Fixture::shutdown`].
pub struct Fixture {
    pub workload: &'static Workload,
    pub targets: Vec<Target>,
    pub server: Option<ServerHandle>,
    /// The daemon's split-cache byte budget, when the workload caps it.
    pub cache_bytes: Option<usize>,
    /// Generator and CSR-build time summed over the workload's graphs.
    pub gen_ms: f64,
    pub csr_build_ms: f64,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Generator seed of the library workload's graph — the one `LOAD GEN`
/// hard-wires for the serve workloads' graphs — and of its source sample.
/// There the run seed decides only the visiting order: two RMAT instances
/// of one size differed by up to 15 % in `solve_warm_ms` (48–60 ms), and
/// on one instance a warm solve takes 42–72 ms depending on the source,
/// while a run has time for about sixty solves. Neither averages out, and
/// either would drown any bound this benchmark could set. The serve
/// workloads, with thousands of requests per run, do draw their sources
/// from the run seed.
const GRAPH_SEED: u64 = 42;

/// The library workload's graph: RMAT made undirected, one uniform
/// weight in [1e-3, 1) per undirected edge.
fn weighted_symmetric_rmat(scale: u32, edge_factor: usize) -> EdgeList {
    let mut el = rmat(RmatParams::graph500(scale, edge_factor), GRAPH_SEED);
    el.symmetrize();
    assign_symmetric(
        &mut el,
        WeightModel::UniformFloat { lo: 1e-3, hi: 1.0 },
        GRAPH_SEED + 1,
    );
    el
}

impl Fixture {
    /// Generate, build, start, load and cross-check. Every step a user of
    /// the system would wait for before the first request is in here, so
    /// the caller's stopwatch around this call (plus warm-up) is
    /// `setup_s`.
    pub fn build(workload: &'static Workload, seed: u64) -> Result<Fixture, String> {
        let (mut gen_ms, mut csr_build_ms) = (0.0, 0.0);
        let mut build_graph = |make: &dyn Fn() -> Result<EdgeList, String>| {
            let t0 = Instant::now();
            let el = make()?;
            gen_ms += ms_since(t0);
            let t1 = Instant::now();
            let graph = CsrGraph::from_edge_list(&el).map_err(|e| e.to_string())?;
            csr_build_ms += ms_since(t1);
            Ok::<_, String>(graph)
        };

        let (graphs, server, cache_bytes) = match workload.shape {
            Shape::Library { scale, edge_factor } => {
                let g = build_graph(&|| Ok(weighted_symmetric_rmat(scale, edge_factor)))?;
                (vec![g], None, None)
            }
            Shape::Serve {
                specs,
                one_split_cache,
            } => {
                let graphs = specs
                    .iter()
                    .map(|spec| build_graph(&|| parse_gen_spec(spec)))
                    .collect::<Result<Vec<_>, _>>()?;
                let cache_bytes = one_split_cache.then(|| {
                    graphs
                        .iter()
                        .map(|g| LightHeavy::build(g, workload.delta).resident_bytes())
                        .max()
                        .expect("serve workloads name at least one graph")
                });
                let cfg = ServerConfig {
                    workers: connections(),
                    cache_bytes,
                    ..ServerConfig::default()
                };
                let handle = server::start(cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
                (graphs, Some(handle), cache_bytes)
            }
        };

        let mut fixture = Fixture {
            workload,
            targets: Vec::new(),
            server,
            cache_bytes,
            gen_ms,
            csr_build_ms,
        };
        let sampling_seed = match workload.shape {
            Shape::Serve { .. } => seed,
            Shape::Library { .. } => GRAPH_SEED,
        };
        for (i, graph) in graphs.into_iter().enumerate() {
            let mut rng = Rng::new(sampling_seed, 1 + i as u64);
            let refs = sample_sources(&graph, workload.sources, workload.pool, &mut rng);
            let fingerprint = graph.fingerprint();
            fixture.targets.push(Target {
                graph,
                fingerprint,
                refs,
            });
        }
        if let Err(e) = fixture.load_and_cross_check() {
            fixture.shutdown();
            return Err(e);
        }
        Ok(fixture)
    }

    /// Make each graph resident over the wire and check the daemon holds
    /// the graph the oracle holds: same fingerprint, same size, and one
    /// full distance reply equal to Dijkstra element by element.
    fn load_and_cross_check(&self) -> Result<(), String> {
        let (Some(server), Shape::Serve { specs, .. }) = (&self.server, &self.workload.shape)
        else {
            return Ok(());
        };
        let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
        for (spec, target) in specs.iter().zip(&self.targets) {
            let loaded = conn
                .call(&Request::LoadGen {
                    spec: spec.to_string(),
                })
                .map_err(|e| format!("LOAD GEN {spec}: {e}"))?;
            let want = Response::Loaded {
                fingerprint: target.fingerprint,
                vertices: target.graph.num_vertices() as u64,
                edges: target.graph.num_edges() as u64,
            };
            if loaded != want {
                return Err(format!("LOAD GEN {spec}: got {loaded:?}, want {want:?}"));
            }
            let reference = &target.refs[0];
            let full = conn
                .call(&sssp_request(target.fingerprint, reference.source, true))
                .map_err(|e| format!("full reply on {spec}: {e}"))?;
            let expected = dijkstra(&target.graph, reference.source).dist;
            match full {
                Response::Summary(s)
                    if reference.accepts(&s)
                        && s.full.as_deref().is_some_and(|d| same_bits(d, &expected)) => {}
                Response::Summary(s) => {
                    return Err(format!(
                        "full reply on {spec} source {} differs from Dijkstra (dist_fnv {:016x})",
                        reference.source, s.dist_fnv
                    ))
                }
                other => return Err(format!("full reply on {spec}: {other:?}")),
            }
        }
        let _ = conn.call(&Request::Quit);
        Ok(())
    }

    pub fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// The order requests visit `(target, reference)` pairs. The workload is
/// one sequence in which targets alternate, dealt round-robin to `lanes`
/// connections: lane `l` takes steps `l, l + lanes, l + 2·lanes, …`. One
/// connection therefore alternates between two graphs, while two
/// connections each keep to one graph and the graphs compete for the
/// cache — which holds its build/evict rate steady, where two
/// independently alternating connections drift in and out of phase and
/// the rate wanders by ±7 % over seconds. Within a target a seeded
/// permutation of its sources repeats, so any stretch of a few hundred
/// requests covers every source evenly and windows are comparable.
pub struct Walk {
    orders: Vec<Vec<usize>>,
    step: usize,
    stride: usize,
}

impl Walk {
    pub fn new(fixture: &Fixture, seed: u64, lane: usize, lanes: usize) -> Self {
        let mut rng = Rng::new(seed, 0x100 + lane as u64);
        let orders = fixture
            .targets
            .iter()
            .map(|t| {
                let mut order: Vec<usize> = (0..t.refs.len()).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        Walk {
            orders,
            step: lane,
            stride: lanes.max(1),
        }
    }
}

impl Iterator for Walk {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let target = self.step % self.orders.len();
        let round = self.step / self.orders.len();
        let order = &self.orders[target];
        self.step += self.stride;
        Some((target, order[round % order.len()]))
    }
}
