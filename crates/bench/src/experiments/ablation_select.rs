//! ABL-SELECT — decomposing the Fig. 3 fusion win: how much of the 3.7×
//! does a better *library* (single-pass `select` filters, no empty-bucket
//! iterations) already deliver, before any user-side fusion?
//!
//! Three points per graph:
//!
//! 1. `two_apply` — the Fig. 2 transcription ([`sssp_core::repro::gblas_impl`]);
//! 2. `select`   — same library-call structure with the paper's lessons
//!    applied ([`sssp_core::repro::gblas_select`]);
//! 3. `fused`    — the direct fused implementation ([`sssp_core::fused`]).

use graphdata::{paper_suite, SuiteScale};
use sssp_core::fused;
use sssp_core::repro::{gblas_impl, gblas_select};

use crate::experiments::geomean;
use crate::measure::{measure_min, Reps};
use crate::report::{Json, ToJson};
use crate::bench_source;

/// One graph's three-way comparison.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dataset name.
    pub name: String,
    /// Vertex count.
    pub nv: usize,
    /// Fig. 2 two-apply implementation, milliseconds.
    pub two_apply_ms: f64,
    /// Select-based implementation, milliseconds.
    pub select_ms: f64,
    /// Fused direct implementation, milliseconds.
    pub fused_ms: f64,
    /// `two_apply / select`: the library-level win.
    pub select_speedup: f64,
    /// `two_apply / fused`: the full fusion win (Fig. 3's bar).
    pub fused_speedup: f64,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("nv", self.nv.to_json()),
            ("two_apply_ms", self.two_apply_ms.to_json()),
            ("select_ms", self.select_ms.to_json()),
            ("fused_ms", self.fused_ms.to_json()),
            ("select_speedup", self.select_speedup.to_json()),
            ("fused_speedup", self.fused_speedup.to_json()),
        ])
    }
}

/// Run the three-way ablation at `scale`.
pub fn run(scale: SuiteScale, reps: Reps) -> Vec<AblationRow> {
    let delta = 1.0;
    paper_suite(scale)
        .into_iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let a = g.to_adjacency();
            let baseline = fused::delta_stepping_fused(g, src, delta);
            let sel = gblas_select::sssp_delta_step_select(None, &a, delta, src);
            assert_eq!(sel.dist, baseline.dist, "{}: select disagrees", d.name);
            let two = gblas_impl::sssp_delta_step(&a, delta, src);
            assert_eq!(two.dist, baseline.dist, "{}: two-apply disagrees", d.name);

            let two_t = measure_min(
                || {
                    std::hint::black_box(gblas_impl::sssp_delta_step(&a, delta, src));
                },
                reps,
            );
            let sel_t = measure_min(
                || {
                    let sel = gblas_select::sssp_delta_step_select(None, &a, delta, src);
                    std::hint::black_box(sel);
                },
                reps,
            );
            let fus_t = measure_min(
                || {
                    std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
                },
                reps,
            );
            AblationRow {
                name: d.name,
                nv: g.num_vertices(),
                two_apply_ms: two_t.as_secs_f64() * 1e3,
                select_ms: sel_t.as_secs_f64() * 1e3,
                fused_ms: fus_t.as_secs_f64() * 1e3,
                select_speedup: two_t.as_secs_f64() / sel_t.as_secs_f64(),
                fused_speedup: two_t.as_secs_f64() / fus_t.as_secs_f64(),
            }
        })
        .collect()
}

/// Geomean of the library-level (select) win.
pub fn average_select_speedup(rows: &[AblationRow]) -> f64 {
    geomean(&rows.iter().map(|r| r.select_speedup).collect::<Vec<_>>())
}

/// Geomean of the full fusion win.
pub fn average_fused_speedup(rows: &[AblationRow]) -> f64 {
    geomean(&rows.iter().map(|r| r.fused_speedup).collect::<Vec<_>>())
}

/// Table rows for printing/CSV.
pub fn to_table(rows: &[AblationRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.nv.to_string(),
                format!("{:.3}", r.two_apply_ms),
                format!("{:.3}", r.select_ms),
                format!("{:.3}", r.fused_ms),
                format!("{:.2}", r.select_speedup),
                format!("{:.2}", r.fused_speedup),
            ]
        })
        .collect()
}

/// Header matching [`to_table`].
pub const HEADER: [&str; 7] = [
    "graph",
    "|V|",
    "two_apply_ms",
    "select_ms",
    "fused_ms",
    "select_x",
    "fused_x",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_three_way() {
        // Best of five after a warm-up: one cold sample of a microsecond
        // solve is at the mercy of whatever else the machine is doing.
        let rows = run(SuiteScale::Smoke, Reps { warmup: 1, samples: 5 });
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.select_speedup > 0.0 && r.fused_speedup > 0.0);
            // The fused code must beat both library variants.
            assert!(
                r.fused_ms <= r.select_ms,
                "{}: fused slower than select variant",
                r.name
            );
        }
    }
}
