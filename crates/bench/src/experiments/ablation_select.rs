//! ABL-SELECT and FIG3 — one timing loop, two figures.
//!
//! FIG3: "On average a 3.7× improvement in performance is attained by our
//! sequential C implementation over SuiteSparse … by fusing operations."
//! ABL-SELECT decomposes that win: how much of it does a better
//! *library* (single-pass `select` filters, no empty-bucket iterations)
//! already deliver, before any user-side fusion?
//!
//! Three points per graph of the suite (sorted by ascending |V|, Δ = 1,
//! unit weights — the paper's exact setting):
//!
//! 1. `two_apply` — the Fig. 2 transcription ([`sssp_core::repro::gblas_impl`],
//!    standing in for SuiteSparse);
//! 2. `select`   — same library-call structure with the paper's lessons
//!    applied ([`sssp_core::repro::gblas_select`]);
//! 3. `fused`    — the direct fused implementation ([`sssp_core::fused`]).
//!
//! FIG3's rows are a projection of these: `two_apply` is its unfused bar.

use graphdata::suite::Dataset;
use sssp_core::fused;
use sssp_core::repro::{gblas_impl, gblas_select};

use super::{geomean, Figure, Session};
use crate::bench_source;
use crate::measure::{measure_min, Reps};
use crate::report::{count, real, text, Cell};

/// One graph's three-way comparison.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Dataset name.
    pub name: String,
    /// Vertex count (the figures' x axis).
    pub nv: usize,
    /// Directed edge count.
    pub ne: usize,
    /// Fig. 2 two-apply implementation, milliseconds.
    pub two_apply_ms: f64,
    /// Select-based implementation, milliseconds.
    pub select_ms: f64,
    /// Fused direct implementation, milliseconds.
    pub fused_ms: f64,
    /// `two_apply / select`: the library-level win.
    pub select_x: f64,
    /// `two_apply / fused`: the full fusion win (Fig. 3's bar).
    pub fused_x: f64,
}

impl AblationRow {
    /// ABL-SELECT's columns.
    pub fn columns(&self) -> Vec<Cell> {
        vec![
            text("graph", &self.name),
            count("nv", self.nv as u64),
            count("ne", self.ne as u64),
            real("two_apply_ms", self.two_apply_ms, 3),
            real("select_ms", self.select_ms, 3),
            real("fused_ms", self.fused_ms, 3),
            real("select_x", self.select_x, 2),
            real("fused_x", self.fused_x, 2),
        ]
    }

    /// FIG3's columns: the two-apply time is the unfused bar.
    pub fn fig3_columns(&self) -> Vec<Cell> {
        vec![
            text("graph", &self.name),
            count("nv", self.nv as u64),
            count("ne", self.ne as u64),
            real("unfused_ms", self.two_apply_ms, 3),
            real("fused_ms", self.fused_ms, 3),
            real("speedup", self.fused_x, 2),
        ]
    }
}

/// Time the three implementations on every graph of `suite`, after
/// checking that they agree.
pub fn run(suite: &[Dataset], reps: Reps) -> Vec<AblationRow> {
    let delta = 1.0;
    suite
        .iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let a = g.to_adjacency();
            let baseline = fused::delta_stepping_fused(g, src, delta);
            let sel = gblas_select::sssp_delta_step_select(None, &a, delta, src);
            assert_eq!(sel.dist, baseline.dist, "{}: select disagrees", d.name);
            let two = gblas_impl::sssp_delta_step(&a, delta, src);
            assert_eq!(two.dist, baseline.dist, "{}: two-apply disagrees", d.name);

            let ms = |f: &mut dyn FnMut()| measure_min(f, reps).as_secs_f64() * 1e3;
            let two_apply_ms = ms(&mut || {
                std::hint::black_box(gblas_impl::sssp_delta_step(&a, delta, src));
            });
            let select_ms = ms(&mut || {
                std::hint::black_box(gblas_select::sssp_delta_step_select(None, &a, delta, src));
            });
            let fused_ms = ms(&mut || {
                std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
            });
            AblationRow {
                name: d.name.clone(),
                nv: g.num_vertices(),
                ne: g.num_edges(),
                two_apply_ms,
                select_ms,
                fused_ms,
                select_x: two_apply_ms / select_ms,
                fused_x: two_apply_ms / fused_ms,
            }
        })
        .collect()
}

fn average(rows: &[AblationRow], x: fn(&AblationRow) -> f64) -> f64 {
    geomean(&rows.iter().map(x).collect::<Vec<_>>())
}

/// The ABL-SELECT table and its two geomeans.
pub fn figure(session: &mut Session) -> Figure {
    let rows = session.select_rows();
    Figure {
        rows: rows.iter().map(AblationRow::columns).collect(),
        headline: vec![format!(
            "geomean: select-based library {:.2}x, full fusion {:.2}x",
            average(rows, |r| r.select_x),
            average(rows, |r| r.fused_x)
        )],
    }
}

/// FIG3: the same rows as fused vs unfused bars, and the geometric-mean
/// speedup the paper reports as 3.7×.
pub fn fig3(session: &mut Session) -> Figure {
    let rows = session.select_rows();
    Figure {
        rows: rows.iter().map(AblationRow::fig3_columns).collect(),
        headline: vec![format!(
            "geometric-mean speedup (fused over unfused): {:.2}x",
            average(rows, |r| r.fused_x)
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{paper_suite, SuiteScale};

    #[test]
    fn smoke_three_way() {
        // Best of five after a warm-up: one cold sample of a microsecond
        // solve is at the mercy of whatever else the machine is doing.
        let rows = run(&paper_suite(SuiteScale::Smoke), Reps { warmup: 1, samples: 5 });
        assert_eq!(rows.len(), 4);
        // Sorted by ascending |V| like the figure's x axis.
        for w in rows.windows(2) {
            assert!(w[0].nv <= w[1].nv);
        }
        for r in &rows {
            assert!(r.select_x > 0.0 && r.fused_x > 0.0);
            // The fused code must beat both library variants (the
            // paper's win is ~3.7x on average; only direction is asserted).
            assert!(
                r.fused_ms <= r.select_ms,
                "{}: fused slower than select variant",
                r.name
            );
            assert!(
                r.fused_x > 1.0,
                "{}: fused ({:.3} ms) not faster than unfused ({:.3} ms)",
                r.name,
                r.fused_ms,
                r.two_apply_ms
            );
        }
        assert!(average(&rows, |r| r.fused_x) > 1.0);
    }
}
