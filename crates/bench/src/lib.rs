//! # sssp-bench — the harness that regenerates every figure in the paper
//!
//! Each figure experiment lives in [`experiments`] and is one entry of
//! [`experiments::REGISTRY`]. One binary runs the registry:
//!
//! ```text
//! cargo run -p sssp-bench --release --bin figures -- [NAME...] [--scale smoke|default|large] [--wallclock]
//! ```
//!
//! prints each table with its headline and writes
//! `results/<name>.{csv,json}`, both from the rows' one column
//! definition ([`report::write_results`]).
//!
//! | experiment | paper artifact | `figures` name |
//! |---|---|---|
//! | [`experiments::datasets`] | Sec. VI-A dataset inventory | `datasets` |
//! | [`experiments::ablation_select`] | Fig. 3: fused vs unfused, avg ≈ 3.7× | `fig3` |
//! | [`experiments::ablation_select`] | decomposing Fig. 3: `select` vs fusion | `ablation_select` |
//! | [`experiments::fig4`] | Fig. 4: task-parallel speedup at 2/4 threads | `fig4` |
//! | [`experiments::delta_sweep`] | Sec. VII Δ discussion | `delta_sweep` |
//! | [`experiments::phase_profile`] | Sec. VI-C 35–40 % filter-time claim | `phase_profile` |
//!
//! The `bench` binary is the stats-drift gate behind `BENCH_sssp.json`
//! ([`experiments::baseline`], [`experiments::stepping`]); the Criterion
//! benches (`ops`, `baselines`, `algos`) time what no figure covers.

pub mod experiments;
pub mod measure;
pub mod report;

pub use measure::Reps;
pub use report::markdown_table;

use graphdata::CsrGraph;

/// Deterministic benchmark source: the vertex with the largest out-degree
/// (guaranteed to reach a large component on every suite graph).
pub fn bench_source(g: &CsrGraph) -> usize {
    (0..g.num_vertices())
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::star;

    #[test]
    fn bench_source_picks_hub() {
        let g = CsrGraph::from_edge_list(&star(10)).unwrap();
        assert_eq!(bench_source(&g), 0);
    }
}
