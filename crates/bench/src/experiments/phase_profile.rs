//! ABL-OPS — Sec. VI-C: "the matrix filtering operations on `A_H` and
//! `A_L` were noted to consume 35-40 % of the run time of the sequential
//! implementation." This experiment reproduces that phase breakdown for
//! the fused implementation, per suite graph.

use graphdata::{paper_suite, SuiteScale};
use sssp_core::stepping::{stepping_checked, SteppingStrategy};
use sssp_core::{fused, RunBudget};

use crate::report::{Json, ToJson};
use crate::bench_source;

/// One graph's phase breakdown.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Dataset name.
    pub name: String,
    /// Vertex count.
    pub nv: usize,
    /// Time building `A_L`/`A_H`, milliseconds.
    pub matrix_filter_ms: f64,
    /// Time in `(min,+)` relaxation, milliseconds.
    pub relaxation_ms: f64,
    /// Time in vector filtering/bookkeeping, milliseconds.
    pub vector_ops_ms: f64,
    /// Matrix-filter share of accounted time (the paper's 0.35–0.40).
    pub filter_fraction: f64,
}

impl ToJson for ProfileRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nv", self.nv.to_json()),
            ("matrix_filter_ms", self.matrix_filter_ms.to_json()),
            ("relaxation_ms", self.relaxation_ms.to_json()),
            ("vector_ops_ms", self.vector_ops_ms.to_json()),
            ("filter_fraction", self.filter_fraction.to_json()),
        ])
    }
}

/// Profile each suite graph (single run per graph; the phases are timed
/// inside the implementation).
pub fn run(scale: SuiteScale) -> Vec<ProfileRow> {
    paper_suite(scale)
        .into_iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            // Warm-up run, then the measured run.
            let _ = fused::delta_stepping_fused(g, src, 1.0);
            let unlimited = &mut RunBudget::unlimited();
            let (_, profile) =
                stepping_checked(g, src, 1.0, SteppingStrategy::Classic, None, unlimited)
                    .expect("suite graphs are valid");
            ProfileRow {
                name: d.name,
                nv: g.num_vertices(),
                matrix_filter_ms: profile.matrix_filter.as_secs_f64() * 1e3,
                relaxation_ms: profile.relaxation.as_secs_f64() * 1e3,
                vector_ops_ms: profile.vector_ops.as_secs_f64() * 1e3,
                filter_fraction: profile.matrix_filter_fraction(),
            }
        })
        .collect()
}

/// Table rows for printing/CSV.
pub fn to_table(rows: &[ProfileRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.nv.to_string(),
                format!("{:.3}", r.matrix_filter_ms),
                format!("{:.3}", r.relaxation_ms),
                format!("{:.3}", r.vector_ops_ms),
                format!("{:.1}%", r.filter_fraction * 100.0),
            ]
        })
        .collect()
}

/// Header matching [`to_table`].
pub const HEADER: [&str; 6] = [
    "graph",
    "|V|",
    "filter_ms",
    "relax_ms",
    "vector_ms",
    "filter_share",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_fractions_in_unit_interval() {
        let rows = run(SuiteScale::Smoke);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.filter_fraction), "{}", r.name);
            let total = r.matrix_filter_ms + r.relaxation_ms + r.vector_ops_ms;
            assert!(total > 0.0);
        }
    }
}
