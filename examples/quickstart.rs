//! Quickstart: build a small weighted graph, run every SSSP
//! implementation on it, and check they agree.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use graphdata::{CsrGraph, EdgeList};
use sssp_core::delta::DeltaStrategy;
use sssp_core::repro::{canonical, gblas_impl, parallel};
use sssp_core::{dijkstra, fused, validate};
use taskpool::ThreadPool;

fn main() {
    // The weighted digraph from the vxm examples: 6 vertices, mixed light
    // (w <= 1) and heavy (w > 1) edges.
    let el = EdgeList::from_triples(vec![
        (0, 1, 0.5),
        (0, 2, 3.0),
        (1, 2, 0.9),
        (1, 3, 2.5),
        (2, 3, 0.4),
        (3, 4, 1.0),
        (2, 4, 4.0),
        // vertex 5 is unreachable
    ]);
    let mut el = el;
    el.ensure_vertices(6);
    let g = CsrGraph::from_edge_list(&el).expect("valid graph");
    let source = 0;
    let delta = DeltaStrategy::Unit.resolve(&g).expect("valid delta");

    println!("graph: {} vertices, {} edges, delta = {delta}", g.num_vertices(), g.num_edges());

    // 1. The canonical Meyer-Sanders algorithm (buckets over vertices/edges).
    let r_canonical = canonical::delta_stepping_canonical(&g, source, delta);

    // 2. The unfused GraphBLAS formulation (Fig. 2 of the paper).
    let r_gblas = gblas_impl::delta_stepping_gblas(&g, source, delta);

    // 3. The fused direct implementation (Sec. VI-B).
    let r_fused = fused::delta_stepping_fused(&g, source, delta);

    // 4. The task-parallel scheme (Sec. VI-C).
    let pool = ThreadPool::with_threads(4).expect("pool");
    let r_parallel = parallel::delta_stepping_parallel(&pool, &g, source, delta);

    // 5. Dijkstra, the ground truth.
    let r_dijkstra = dijkstra::dijkstra(&g, source);

    println!("\n{:<10} {:>10}", "vertex", "distance");
    for (v, d) in r_dijkstra.dist.iter().enumerate() {
        println!("{v:<10} {d:>10}");
    }

    for (name, r) in [
        ("canonical", &r_canonical),
        ("gblas", &r_gblas),
        ("fused", &r_fused),
        ("parallel", &r_parallel),
    ] {
        assert_eq!(r.dist, r_dijkstra.dist, "{name} disagrees with Dijkstra");
        validate::check_certificate(&g, r, 1e-12).expect("certificate");
        println!("{name:<10} matches Dijkstra and passes the SSSP certificate");
    }

    println!(
        "\nfused stats: {} buckets, {} light phases, {} relaxations",
        r_fused.stats.buckets_processed, r_fused.stats.light_phases, r_fused.stats.relaxations
    );
}
