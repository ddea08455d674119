//! FIG3 — "On average a 3.7× improvement in performance is attained by our
//! sequential C implementation over SuiteSparse … by fusing operations."
//!
//! We time the unfused GraphBLAS implementation
//! ([`sssp_core::repro::gblas_impl`], standing in for SuiteSparse) against the
//! fused direct implementation ([`sssp_core::fused`]) on the suite graphs
//! sorted by ascending node count, with Δ = 1 and unit weights — the
//! paper's exact setting.

use graphdata::{paper_suite, SuiteScale};
use sssp_core::fused;
use sssp_core::repro::gblas_impl;

use crate::experiments::geomean;
use crate::measure::{measure_min, Reps};
use crate::report::{Json, ToJson};
use crate::bench_source;

/// One bar pair of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Dataset name.
    pub name: String,
    /// Vertex count (the figure's secondary axis).
    pub nv: usize,
    /// Directed edge count.
    pub ne: usize,
    /// Unfused GraphBLAS time, milliseconds.
    pub unfused_ms: f64,
    /// Fused direct time, milliseconds.
    pub fused_ms: f64,
    /// `unfused / fused` — the figure's bar height.
    pub speedup: f64,
}

impl ToJson for Fig3Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nv", self.nv.to_json()),
            ("ne", self.ne.to_json()),
            ("unfused_ms", self.unfused_ms.to_json()),
            ("fused_ms", self.fused_ms.to_json()),
            ("speedup", self.speedup.to_json()),
        ])
    }
}

/// Run the FIG3 experiment over the suite at `scale`.
pub fn run(scale: SuiteScale, reps: Reps) -> Vec<Fig3Row> {
    let delta = 1.0;
    paper_suite(scale)
        .into_iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let a = g.to_adjacency();
            // Correctness cross-check before timing anything.
            let unfused = gblas_impl::sssp_delta_step(&a, delta, src);
            let fused_r = fused::delta_stepping_fused(g, src, delta);
            assert_eq!(
                unfused.dist, fused_r.dist,
                "{}: implementations disagree",
                d.name
            );

            let unfused_t = measure_min(
                || {
                    std::hint::black_box(gblas_impl::sssp_delta_step(&a, delta, src));
                },
                reps,
            );
            let fused_t = measure_min(
                || {
                    std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
                },
                reps,
            );
            Fig3Row {
                name: d.name,
                nv: g.num_vertices(),
                ne: g.num_edges(),
                unfused_ms: unfused_t.as_secs_f64() * 1e3,
                fused_ms: fused_t.as_secs_f64() * 1e3,
                speedup: unfused_t.as_secs_f64() / fused_t.as_secs_f64(),
            }
        })
        .collect()
}

/// The figure's headline number: geometric-mean speedup across graphs.
pub fn average_speedup(rows: &[Fig3Row]) -> f64 {
    geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>())
}

/// Table rows for printing/CSV.
pub fn to_table(rows: &[Fig3Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.nv.to_string(),
                r.ne.to_string(),
                format!("{:.3}", r.unfused_ms),
                format!("{:.3}", r.fused_ms),
                format!("{:.2}", r.speedup),
            ]
        })
        .collect()
}

/// The table header shared by the binary and EXPERIMENTS.md.
pub const HEADER: [&str; 6] = ["graph", "|V|", "|E|", "unfused_ms", "fused_ms", "speedup"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_fusion_speedup() {
        let rows = run(SuiteScale::Smoke, Reps { warmup: 0, samples: 1 });
        assert_eq!(rows.len(), 4);
        // Sorted by ascending |V| like the figure's x axis.
        for w in rows.windows(2) {
            assert!(w[0].nv <= w[1].nv);
        }
        // The fused implementation must win on every graph (the paper's
        // win is ~3.7x on average; we only assert direction here).
        for r in &rows {
            assert!(
                r.speedup > 1.0,
                "{}: fused ({:.3} ms) not faster than unfused ({:.3} ms)",
                r.name,
                r.fused_ms,
                r.unfused_ms
            );
        }
        assert!(average_speedup(&rows) > 1.0);
    }
}
