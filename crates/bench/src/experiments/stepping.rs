//! STEPPING — the generalized-stepping strategy gate behind the
//! strategy rows of `BENCH_sssp.json`.
//!
//! The paper's framing is that classic Δ-stepping, ρ-stepping and
//! Δ*-stepping are points on one lattice of frontier-extraction
//! policies, and that on real-weighted power-law graphs the generalized
//! policies do measurably less work than classic Δ = 1. This experiment
//! commits that claim as a regression-checked datapoint: weighted rmat
//! and Erdős–Rényi gate graphs, one entry per strategy, with the
//! ρ-stepping relaxation count *asserted* below the classic count at
//! generation time — a baseline that no longer shows the win cannot be
//! produced.
//!
//! Entries reuse [`BenchEntry`], so they ride the same stats-drift gate
//! as the main baseline; each graph also records a sequential `fused`
//! row as the timing reference. Every graph runs twice: at Δ = 1, where
//! every edge is light, and at [`HEAVY_DELTA`], whose rows (graph names
//! suffixed `@0.25`) put heavy-pass `relaxations` under the gate.
//! ρ-stepping extracts the ρ nearest pending vertices whatever Δ is, so
//! it runs at Δ = 1 only ([`strategies_at`]).

use graphdata::suite::Dataset;
use graphdata::{gen, SuiteScale, WeightModel};
use sssp_core::engine::SsspEngine;
use sssp_core::{dijkstra, fused, RunBudget, SteppingStrategy};
use taskpool::ThreadPool;

use super::baseline::{scale_name, BenchEntry};
use crate::bench_source;
use crate::measure::{measure_median_min, Reps};

/// Δ for the classic control and for bucket indexing inside Δ*. The
/// paper's fig3/fig4 setting, kept so "strategy vs classic Δ = 1" is an
/// apples-to-apples comparison with the main baseline.
pub const DELTA: f64 = 1.0;

/// The second Δ every gate graph runs at: below most of its weights, so
/// the heavy passes relax edges and the drift gate diffs their counts.
pub const HEAVY_DELTA: f64 = 0.25;

/// ρ for the `stepping-rho` rows: small enough to batch the frontier on
/// every gate graph, large enough to keep phase counts reasonable.
pub const RHO: usize = 64;

/// Bucket-fuse factor for the `stepping-delta-star` rows.
pub const DELTA_STAR_FACTOR: f64 = 4.0;

/// The strategy sweep at `delta`, in emission order after the `fused`
/// row: every strategy at [`DELTA`], and at any other Δ the ones whose
/// counters move with it, classic and Δ*.
pub fn strategies_at(delta: f64) -> Vec<(&'static str, SteppingStrategy)> {
    let mut sweep = vec![
        ("stepping-classic", SteppingStrategy::Classic),
        ("stepping-rho", SteppingStrategy::Rho(RHO)),
        ("stepping-delta-star", SteppingStrategy::DeltaStar(DELTA_STAR_FACTOR)),
    ];
    if delta != DELTA {
        sweep.remove(1);
    }
    sweep
}

/// Real-weighted rmat and Erdős–Rényi gate graphs. Weights are uniform
/// in `(0, 1)` so classic Δ = 1 collapses every edge into one light
/// bucket per unit of distance — the regime where extraction policy,
/// not bucket arithmetic, decides how much redundant work happens.
pub fn gate_graphs(scale: SuiteScale) -> Vec<Dataset> {
    let weighted = |name: &str, mut el: graphdata::EdgeList, seed: u64| {
        el.symmetrize();
        graphdata::weights::assign_symmetric(
            &mut el,
            WeightModel::UniformFloat { lo: 1e-3, hi: 1.0 },
            seed,
        );
        Dataset {
            name: name.to_string(),
            family: "stepping-gate",
            graph: graphdata::CsrGraph::from_edge_list(&el).expect("generated graphs are valid"),
        }
    };
    match scale {
        SuiteScale::Smoke => vec![
            weighted("rmat9-w", gen::rmat(gen::RmatParams::graph500(9, 8), 402), 41),
            weighted("er-256-w", gen::gnm(256, 2_048, 401), 42),
        ],
        SuiteScale::Default => vec![
            weighted("rmat13-w", gen::rmat(gen::RmatParams::graph500(13, 8), 502), 51),
            weighted("er-8192-w", gen::gnm(8_192, 65_536, 501), 52),
        ],
        SuiteScale::Large => Vec::new(),
    }
}

/// Run the strategy gate at `scale` with `threads` workers: per graph and
/// Δ, a sequential `fused` reference row plus one pooled row per
/// strategy, every one cross-checked against Dijkstra before timing.
pub fn run(scale: SuiteScale, threads: usize, reps: Reps) -> Vec<BenchEntry> {
    let pool = ThreadPool::with_threads(threads).expect("thread count validated by CLI");
    let sname = scale_name(scale);
    let mut entries = Vec::new();
    for d in gate_graphs(scale) {
        let g = &d.graph;
        let src = bench_source(g);
        let dj = dijkstra::dijkstra(g, src);
        let mut engine = SsspEngine::new(g);
        for delta in [DELTA, HEAVY_DELTA] {
            let graph =
                if delta == DELTA { d.name.clone() } else { format!("{}@{delta}", d.name) };
            let ms = |(med, min): (std::time::Duration, std::time::Duration)| {
                (med.as_secs_f64() * 1e3, min.as_secs_f64() * 1e3)
            };

            let fu = fused::delta_stepping_fused(g, src, delta);
            assert_eq!(fu.dist, dj.dist, "{graph}: fused disagrees with Dijkstra");
            let fused_t = ms(measure_median_min(
                || {
                    std::hint::black_box(fused::delta_stepping_fused(g, src, delta));
                },
                reps,
            ));

            let entry = |impl_name: &str,
                         threads: usize,
                         (median_ms, min_ms): (f64, f64),
                         stats: sssp_core::stats::SsspStats| BenchEntry {
                scale: sname.to_string(),
                graph: graph.clone(),
                nv: g.num_vertices(),
                ne: g.num_edges(),
                impl_name: impl_name.to_string(),
                threads,
                median_ms,
                min_ms,
                stats,
                directions: None,
            };
            entries.push(entry("fused", 1, fused_t, fu.stats.clone()));

            let mut relaxations = Vec::new();
            for (name, strategy) in strategies_at(delta) {
                let (r, _) = engine
                    .run_stepping(Some(&pool), src, delta, strategy, &mut RunBudget::unlimited())
                    .expect("gate graphs are valid");
                assert_eq!(r.dist, dj.dist, "{graph}: {name} disagrees with Dijkstra");
                relaxations.push(r.stats.relaxations);
                let t = measure_median_min(
                    || {
                        let (r, _) = engine
                            .run_stepping(
                                Some(&pool),
                                src,
                                delta,
                                strategy,
                                &mut RunBudget::unlimited(),
                            )
                            .expect("already ran once above");
                        std::hint::black_box(r);
                    },
                    reps,
                );
                entries.push(entry(name, threads, ms(t), r.stats.clone()));
            }
            // The headline claim, enforced where the baseline is born:
            // ρ-stepping must do strictly less relaxation work than
            // classic Δ = 1 on every weighted gate graph.
            assert!(
                delta != DELTA || relaxations[1] < relaxations[0],
                "{graph}: stepping-rho did {} relaxations, classic only {} — the strategy \
                 stopped paying for itself",
                relaxations[1],
                relaxations[0],
            );
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;

    #[test]
    fn smoke_gate_shows_the_rho_win_and_round_trips() {
        // run() itself asserts Dijkstra agreement and the relaxation
        // reduction; this test pins the document shape on top.
        let entries = run(SuiteScale::Smoke, 2, Reps { warmup: 0, samples: 1 });
        // 2 weighted gate graphs x (fused + 3 strategies at delta 1, and
        // fused + classic + delta-star at 0.25).
        assert_eq!(entries.len(), 14);
        for chunk in entries.chunks(7) {
            let (light, heavy) = chunk.split_at(4);
            let names = |rows: &[BenchEntry]| {
                rows.iter().map(|e| e.impl_name.clone()).collect::<Vec<_>>()
            };
            let all = ["fused", "stepping-classic", "stepping-rho", "stepping-delta-star"];
            assert_eq!(names(light), all);
            assert_eq!(names(heavy), ["fused", "stepping-classic", "stepping-delta-star"]);
            assert_eq!(heavy[0].graph, format!("{}@0.25", light[0].graph));
            // Classic through the strategy front door is still the
            // classic algorithm: its counters match fused exactly.
            for rows in [light, heavy] {
                assert_eq!(rows[0].stats, rows[1].stats, "{}", rows[0].graph);
            }
            let chunk = light; // the ρ claim is against classic Δ = 1
            assert!(
                chunk[2].stats.relaxations < chunk[1].stats.relaxations,
                "{}: rho {} vs classic {}",
                chunk[0].graph,
                chunk[2].stats.relaxations,
                chunk[1].stats.relaxations
            );
        }
        // Entries survive the JSON document round-trip with their
        // strategy names intact.
        let doc = super::super::baseline::to_document(&entries);
        let parsed = Json::parse(&doc.render()).unwrap();
        let names: Vec<String> = parsed
            .get("entries")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|e| e.get("impl").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert!(names.iter().any(|n| n == "stepping-rho"));
    }

    #[test]
    fn stepping_entries_join_the_stats_gate() {
        use super::super::baseline::check_against;
        let entries = run(SuiteScale::Smoke, 1, Reps { warmup: 0, samples: 1 });
        let doc = super::super::baseline::to_document(&entries);
        let parsed = Json::parse(&doc.render()).unwrap();
        // A fresh identical run passes...
        assert!(check_against(&parsed, &entries).passed());
        // ...and a counter drift on a strategy row is caught.
        let mut drifted = entries.clone();
        let row = drifted.iter_mut().find(|e| e.impl_name == "stepping-rho").unwrap();
        row.stats.relaxations += 1;
        let report = check_against(&parsed, &drifted);
        assert!(!report.passed());
        assert!(report.failures[0].contains("stepping-rho"));
    }
}
