//! ABL-OPS — Sec. VI-C: "the matrix filtering operations on `A_H` and
//! `A_L` were noted to consume 35-40 % of the run time of the sequential
//! implementation." This experiment reproduces that phase breakdown per
//! suite graph.
//!
//! The paper's fused code built `A_L` and `A_H` on every solve. The
//! stepping loop builds no split on unit weights (it reads a prepared
//! graph's partition points), so its own profile would report no filter
//! time at all. The filter column therefore times the split the paper's
//! code built, [`fused::LightHeavy::build`], and the relaxation and
//! vector-op columns come from the warm stepping solve's
//! [`sssp_core::PhaseProfile`]. Beside the filter, the prepare column
//! times what the stepping loop pays in its place: preparing the graph
//! ([`PreparedGraph::new`], the weight-sorted rows and their scan) and
//! its split at Δ. It is not part of the filter share.

use graphdata::suite::Dataset;
use sssp_core::stepping::{stepping_checked, SteppingStrategy};
use sssp_core::{fused, PreparedGraph, RunBudget};

use super::{Figure, Session, Suite};
use crate::bench_source;
use crate::measure::{measure_min, Reps};
use crate::report::{count, real, text, Cell};

/// One graph's phase breakdown.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Dataset name.
    pub name: String,
    /// Vertex count.
    pub nv: usize,
    /// Building `A_L`/`A_H` in one pass, milliseconds.
    pub filter_ms: f64,
    /// Preparing the graph and its split at Δ, milliseconds.
    pub prepare_ms: f64,
    /// Time in `(min,+)` relaxation, milliseconds.
    pub relax_ms: f64,
    /// Time in vector filtering/bookkeeping, milliseconds.
    pub vector_ms: f64,
    /// Filter share of the three (the paper's 0.35–0.40).
    pub filter_share: f64,
}

impl ProfileRow {
    /// The breakdown's columns.
    pub fn columns(&self) -> Vec<Cell> {
        vec![
            text("graph", &self.name),
            count("nv", self.nv as u64),
            real("filter_ms", self.filter_ms, 3),
            real("prepare_ms", self.prepare_ms, 3),
            real("relax_ms", self.relax_ms, 3),
            real("vector_ms", self.vector_ms, 3),
            real("filter_share", self.filter_share, 3),
        ]
    }
}

/// Profile each graph of `suite` at Δ = 1: the split build and the
/// preparation timed under `reps`, the solve's phases from one warm run.
pub fn run(suite: &[Dataset], reps: Reps) -> Vec<ProfileRow> {
    let delta = 1.0;
    suite
        .iter()
        .map(|d| {
            let g = &d.graph;
            let src = bench_source(g);
            let filter = measure_min(
                || {
                    std::hint::black_box(fused::LightHeavy::build(g, delta));
                },
                reps,
            );
            let prepare = measure_min(
                || {
                    let prepared = PreparedGraph::new(g);
                    std::hint::black_box(prepared.split(delta));
                },
                reps,
            );
            // Warm-up run, then the measured run.
            let _ = fused::delta_stepping_fused(g, src, delta);
            let unlimited = &mut RunBudget::unlimited();
            let (_, profile) =
                stepping_checked(g, src, delta, SteppingStrategy::Classic, None, unlimited)
                    .expect("suite graphs are valid");
            let ms = |t: std::time::Duration| t.as_secs_f64() * 1e3;
            let (filter_ms, relax_ms, vector_ms) =
                (ms(filter), ms(profile.relaxation), ms(profile.vector_ops));
            ProfileRow {
                name: d.name.clone(),
                nv: g.num_vertices(),
                filter_ms,
                prepare_ms: ms(prepare),
                relax_ms,
                vector_ms,
                filter_share: filter_ms / (filter_ms + relax_ms + vector_ms),
            }
        })
        .collect()
}

/// The ABL-OPS table and the range of its filter share.
pub fn figure(session: &mut Session) -> Figure {
    let reps = session.reps;
    let rows = run(session.suite(Suite::Paper), reps);
    let shares = rows.iter().map(|r| r.filter_share * 100.0);
    let (lo, hi) = shares.fold((f64::INFINITY, 0.0f64), |(lo, hi), s| (lo.min(s), hi.max(s)));
    Figure {
        headline: vec![format!("filter share {lo:.1}-{hi:.1}% (paper: 35-40%)")],
        rows: rows.iter().map(ProfileRow::columns).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::{paper_suite, SuiteScale};

    #[test]
    fn profile_fractions_in_unit_interval() {
        let rows = run(&paper_suite(SuiteScale::Smoke), Reps { warmup: 0, samples: 1 });
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.filter_share), "{}", r.name);
            // The split the paper's code built on every solve takes time
            // on every graph: a zero here means the column measures
            // nothing.
            assert!(r.filter_ms > 0.0, "{}: no filter time", r.name);
            assert!(r.prepare_ms > 0.0, "{}: no preparation time", r.name);
            let total = r.filter_ms + r.relax_ms + r.vector_ms;
            assert!(total > 0.0);
        }
    }
}
