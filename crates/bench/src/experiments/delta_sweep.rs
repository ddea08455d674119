//! ABL-DELTA — the Sec. VII discussion made quantitative: with Δ = 1 on
//! unit weights, delta-stepping degenerates to Dijkstra (one vertex class
//! per bucket); larger Δ trades more re-relaxation for fewer, bigger
//! phases. This sweep runs the fused implementation across Δ on the
//! *weighted* suite and records both time and phase structure.

use graphdata::suite::Dataset;
use sssp_core::dijkstra::dijkstra;
use sssp_core::fused;

use super::{Figure, Session, Suite};
use crate::bench_source;
use crate::measure::{measure_min, Reps};
use crate::report::{count, real, text, Cell};

/// The bucket widths of the sweep.
pub const DELTAS: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];

/// One (graph, Δ) measurement.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Dataset name (weighted variant).
    pub name: String,
    /// The Δ used.
    pub delta: f64,
    /// Fused delta-stepping time, milliseconds.
    pub time_ms: f64,
    /// Dijkstra baseline on the same graph/source, milliseconds.
    pub dijkstra_ms: f64,
    /// Buckets processed (outer iterations).
    pub buckets: usize,
    /// Light relaxation phases.
    pub light_phases: usize,
    /// Total edge relaxations attempted.
    pub relaxations: u64,
}

impl DeltaRow {
    /// The sweep's columns.
    pub fn columns(&self) -> Vec<Cell> {
        vec![
            text("graph", &self.name),
            real("delta", self.delta, 3),
            real("time_ms", self.time_ms, 3),
            real("dijkstra_ms", self.dijkstra_ms, 3),
            count("buckets", self.buckets as u64),
            count("light_phases", self.light_phases as u64),
            count("relaxations", self.relaxations),
        ]
    }
}

/// Sweep `deltas` over the weighted `suite`.
pub fn run(suite: &[Dataset], deltas: &[f64], reps: Reps) -> Vec<DeltaRow> {
    let mut rows = Vec::new();
    for d in suite {
        let g = &d.graph;
        let src = bench_source(g);
        let dj = dijkstra(g, src);
        let dj_t = measure_min(
            || {
                std::hint::black_box(dijkstra(g, src));
            },
            reps,
        );
        for &delta in deltas {
            let r = fused::delta_stepping_fused(g, src, delta);
            assert!(
                r.approx_eq(&dj, 1e-9).is_ok(),
                "{}: delta {delta} disagrees with Dijkstra",
                d.name
            );
            let t = measure_min(
                || {
                    std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
                },
                reps,
            );
            rows.push(DeltaRow {
                name: d.name.clone(),
                delta,
                time_ms: t.as_secs_f64() * 1e3,
                dijkstra_ms: dj_t.as_secs_f64() * 1e3,
                buckets: r.stats.buckets_processed,
                light_phases: r.stats.light_phases,
                relaxations: r.stats.relaxations,
            });
        }
    }
    rows
}

/// The ABL-DELTA table over [`DELTAS`].
pub fn figure(session: &mut Session) -> Figure {
    let reps = session.reps;
    let rows = run(session.suite(Suite::Weighted), &DELTAS, reps);
    Figure {
        headline: vec![format!(
            "{} (graph, delta) points, every one checked against Dijkstra's distances",
            rows.len()
        )],
        rows: rows.iter().map(DeltaRow::columns).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::suite::weighted_suite;
    use graphdata::SuiteScale;

    #[test]
    fn sweep_structure_follows_delta() {
        let rows =
            run(&weighted_suite(SuiteScale::Smoke), &[0.25, 1.0], Reps { warmup: 0, samples: 1 });
        // 4 weighted graphs x 2 deltas.
        assert_eq!(rows.len(), 8);
        // Bigger delta => fewer (or equal) buckets on each graph.
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].name, pair[1].name);
            assert!(
                pair[0].buckets >= pair[1].buckets,
                "{}: buckets {} @0.25 vs {} @1.0",
                pair[0].name,
                pair[0].buckets,
                pair[1].buckets
            );
        }
    }
}
