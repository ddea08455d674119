//! Social-network scenario: an RMAT (Kronecker) graph with unit weights —
//! the GraphChallenge-style input of the paper's evaluation. Demonstrates
//! the parallel implementations and the hop-distance structure of a
//! small-world graph.
//!
//! ```bash
//! cargo run --release --example social_network
//! ```

use std::time::Instant;

use graphdata::{gen, CsrGraph};
use sssp_core::repro::parallel::{self, delta_stepping_simulated, TaskScheme};
use sssp_core::stepping::{delta_stepping_strategy, SteppingStrategy};
use sssp_core::{dijkstra, fused};
use taskpool::ThreadPool;

fn main() {
    // RMAT scale 15: 32k users, ~8 follows each, power-law degrees.
    let mut el = gen::rmat(gen::RmatParams::graph500(15, 8), 7);
    el.symmetrize();
    el.make_unit_weight();
    let g = CsrGraph::from_edge_list(&el).expect("valid graph");

    // Source: the biggest hub.
    let source = (0..g.num_vertices())
        .max_by_key(|&v| g.out_degree(v))
        .expect("non-empty");
    println!(
        "social network: {} users, {} links; source = hub {} (degree {})",
        g.num_vertices(),
        g.num_edges(),
        source,
        g.out_degree(source)
    );

    let t0 = Instant::now();
    let seq = fused::delta_stepping_fused(&g, source, 1.0);
    let seq_time = t0.elapsed();

    // Hop histogram: the small-world signature (most users within a few hops).
    let max_hop = seq.eccentricity().unwrap_or(0.0) as usize;
    let mut histogram = vec![0usize; max_hop + 1];
    for &d in &seq.dist {
        if d.is_finite() {
            histogram[d as usize] += 1;
        }
    }
    println!("\nhop  users (cumulative)");
    let mut cumulative = 0usize;
    for (hop, &count) in histogram.iter().enumerate() {
        cumulative += count;
        println!("{hop:<4} {count:>8}  ({cumulative})");
    }
    println!(
        "unreachable: {}",
        g.num_vertices() - seq.reachable_count()
    );

    // Correctness of the real threaded implementations.
    let pool = ThreadPool::with_threads(4).expect("pool");
    let pr = parallel::delta_stepping_parallel(&pool, &g, source, 1.0);
    assert_eq!(pr.dist, seq.dist);
    let pi = delta_stepping_strategy(&g, source, 1.0, SteppingStrategy::Classic, Some(&pool));
    assert_eq!(pi.dist, seq.dist);

    // Scaling via the task-schedule simulation (meaningful even on a
    // single-core machine; see DESIGN.md and `sssp_core::repro::schedule`).
    let (rp, trace_paper) = delta_stepping_simulated(&g, source, 1.0, TaskScheme::PaperTasks);
    assert_eq!(rp.dist, seq.dist);
    let (ri, trace_improved) = delta_stepping_simulated(&g, source, 1.0, TaskScheme::Improved);
    assert_eq!(ri.dist, seq.dist);
    println!("\n{:<10} {:>16} {:>16}", "workers", "paper scheme", "improved scheme");
    for workers in [1usize, 2, 4, 8] {
        println!(
            "{workers:<10} {:>15.2}x {:>15.2}x",
            trace_paper.speedup_vs(seq_time, workers),
            trace_improved.speedup_vs(seq_time, workers)
        );
    }

    // Sanity: Dijkstra agrees.
    let dj = dijkstra::dijkstra(&g, source);
    assert_eq!(dj.dist, seq.dist);
    println!("\nall implementations agree with Dijkstra");
}
