//! BASELINE — the tracked perf baseline behind `BENCH_sssp.json`.
//!
//! Times the fig3/fig4 workloads (the [`paper_suite`] graphs with unit
//! weights, Δ = 1, highest-out-degree source, plus the bench-only
//! [`gate_extras`] road graphs) across three entries — the one stepping
//! loop's classic strategy on its sequential and pooled kernels:
//!
//! * `fused` — the sequential fused reference;
//! * `improved-push` — the request-buffer path with the density oracle
//!   pinned to push: the pre-direction-optimization behaviour, kept so
//!   the oracle's win (or cost) per graph is a committed datapoint;
//! * `improved` — the request-buffer rebuild driven through
//!   [`SsspEngine`] with automatic push/pull direction selection. Its
//!   rows also record how many light epochs the oracle sent each way.
//!
//! All three are cross-checked for identical distances and stats (the
//! kernels and the direction switch must be invisible) before anything
//! is timed. The committed file is a **stats** baseline: `--check`
//! compares the deterministic counters (the auto rows' push / pull epoch
//! counts included) and row presence only, and the
//! wall times ride along as information — timing is `BENCHMARK.json`'s
//! job.

use gblas::direction::{self, Direction};
use graphdata::suite::Dataset;
use graphdata::{gen, paper_suite, CsrGraph, SuiteScale};
use sssp_core::engine::SsspEngine;
use sssp_core::stats::SsspStats;
use sssp_core::{dijkstra, fused, Kernels, RunBudget};
use taskpool::ThreadPool;

use crate::bench_source;
use crate::measure::{measure_median_min, Reps};
use crate::report::{count, json_object, real, text, Cell, Json};

/// Δ for the unit-weight suite (the paper's fig3/fig4 setting).
pub const DELTA: f64 = 1.0;

/// One (graph, implementation) measurement.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Suite scale this entry was measured at (`smoke` / `default` / …).
    pub scale: String,
    /// Dataset name.
    pub graph: String,
    /// Vertex count.
    pub nv: usize,
    /// Directed edge count.
    pub ne: usize,
    /// Implementation name (`fused` / `improved-push` / `improved`).
    pub impl_name: String,
    /// Worker threads (1 for the sequential entry).
    pub threads: usize,
    /// Median wall time, milliseconds.
    pub median_ms: f64,
    /// Minimum wall time, milliseconds: external interference only ever
    /// *adds* time, so the minimum is the stable estimator on
    /// shared/loaded machines.
    pub min_ms: f64,
    /// Run statistics (identical across implementations by construction;
    /// recorded so a stats drift fails the regression check too).
    pub stats: SsspStats,
    /// For the auto-direction `improved` entry and the stepping gate's
    /// strategy rows: how many light epochs the loop sent each way,
    /// `(push, pull)`, observed on the correctness-gate run. `None` for
    /// entries whose directions are not recorded or are pinned.
    pub directions: Option<(u64, u64)>,
}

impl BenchEntry {
    /// The entry's columns: its `BENCH_sssp.json` object, and the
    /// console table picks six of them ([`console_rows`]). Only the auto
    /// rows carry the two epoch counts.
    pub fn columns(&self) -> Vec<Cell> {
        let mut columns = vec![
            text("scale", &self.scale),
            text("graph", &self.graph),
            count("nv", self.nv as u64),
            count("ne", self.ne as u64),
            text("impl", &self.impl_name),
            count("threads", self.threads as u64),
            real("median_ms", self.median_ms, 3),
            real("min_ms", self.min_ms, 3),
            count("relaxations", self.stats.relaxations),
            count("improvements", self.stats.improvements),
            count("buckets_processed", self.stats.buckets_processed as u64),
            count("light_phases", self.stats.light_phases as u64),
            count("heavy_phases", self.stats.heavy_phases as u64),
        ];
        if let Some((push, pull)) = self.directions {
            columns.push(count("push_epochs", push));
            columns.push(count("pull_epochs", pull));
        }
        columns
    }
}

/// The columns of the console table `bench` prints.
const CONSOLE: [&str; 6] = ["scale", "graph", "impl", "threads", "median_ms", "relaxations"];

/// The console-table columns of `entries`, for [`crate::report::markdown_table`].
pub fn console_rows(entries: &[BenchEntry]) -> Vec<Vec<Cell>> {
    let pick = |e: &BenchEntry| {
        e.columns().into_iter().filter(|(name, _)| CONSOLE.contains(&name.as_str())).collect()
    };
    entries.iter().map(pick).collect()
}

/// Canonical lowercase name for a suite scale, shared with the
/// stepping strategy gate.
pub fn scale_name(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Smoke => "smoke",
        SuiteScale::Default => "default",
        SuiteScale::Large => "large",
    }
}

/// Bench-only datasets that feed the `--check` gate but are *not* part
/// of [`paper_suite`] (whose composition is pinned by the suite tests):
/// long thin grid "road" networks whose frontiers stay sparse for
/// hundreds of epochs — the workload the push path must keep winning on,
/// committed so the direction oracle is graded on both sides of its
/// switch.
pub fn gate_extras(scale: SuiteScale) -> Vec<Dataset> {
    let road = |name: &str, width: usize, height: usize| Dataset {
        name: name.to_string(),
        family: "road",
        graph: CsrGraph::from_edge_list(&gen::grid2d(width, height)).expect("grid is valid"),
    };
    match scale {
        SuiteScale::Smoke => vec![road("road-256", 4, 64)],
        SuiteScale::Default => vec![road("road-32768", 8, 4096)],
        SuiteScale::Large => Vec::new(),
    }
}

/// Run the baseline workloads at `scale` with `threads` workers.
pub fn run(scale: SuiteScale, threads: usize, reps: Reps) -> Vec<BenchEntry> {
    let pool = ThreadPool::with_threads(threads).expect("thread count validated by CLI");
    let sname = scale_name(scale);
    let mut entries = Vec::new();
    for d in paper_suite(scale).into_iter().chain(gate_extras(scale)) {
        let g = &d.graph;
        let src = bench_source(g);

        // Correctness gate: every entry must agree with Dijkstra (and
        // the others) before any of them is timed.
        let dj = dijkstra::dijkstra(g, src);
        let fu = fused::delta_stepping_fused(g, src, DELTA);
        let mut engine = SsspEngine::new(g);
        let (im, profile) = engine
            .run_parallel_improved(&pool, src, DELTA, &mut RunBudget::unlimited())
            .expect("suite graphs are valid");
        // One run's worth of oracle decisions, recorded on the auto entry
        // so the committed baseline shows which graphs actually switch.
        let decisions = (profile.push_epochs, profile.pull_epochs);
        assert_eq!(fu.dist, dj.dist, "{}: fused disagrees with Dijkstra", d.name);
        assert_eq!(im.dist, dj.dist, "{}: improved disagrees with Dijkstra", d.name);
        assert_eq!(im.stats, fu.stats, "{}: stats drift", d.name);

        let ms = |(med, min): (std::time::Duration, std::time::Duration)| {
            (med.as_secs_f64() * 1e3, min.as_secs_f64() * 1e3)
        };

        let fused_t = ms(measure_median_min(
            || {
                std::hint::black_box(fused::delta_stepping_fused(g, src, DELTA));
            },
            reps,
        ));

        let entry = |impl_name: &str,
                     threads: usize,
                     (median_ms, min_ms): (f64, f64),
                     stats: SsspStats| BenchEntry {
            scale: sname.to_string(),
            graph: d.name.clone(),
            nv: g.num_vertices(),
            ne: g.num_edges(),
            impl_name: impl_name.to_string(),
            threads,
            median_ms,
            min_ms,
            stats,
            directions: None,
        };

        entries.push(entry(Kernels::Sequential.name(), 1, fused_t, fu.stats.clone()));

        // Forced-push "before" datapoint: the same engine/cache-hot path
        // with the oracle pinned to push, so the auto row's win (or
        // cost) against the pre-direction-optimization behaviour is a
        // committed number per graph.
        {
            engine.force_direction(Some(Direction::Push));
            let (pu, _) = engine
                .run_parallel_improved(&pool, src, DELTA, &mut RunBudget::unlimited())
                .expect("already ran once above");
            assert_eq!(pu.dist, dj.dist, "{}: forced push disagrees with Dijkstra", d.name);
            assert_eq!(pu.stats, im.stats, "{}: direction switch leaked into stats", d.name);
            let t = measure_median_min(
                || {
                    let (r, _) = engine
                        .run_parallel_improved(&pool, src, DELTA, &mut RunBudget::unlimited())
                        .expect("already ran once above");
                    std::hint::black_box(r);
                },
                reps,
            );
            entries.push(entry("improved-push", threads, ms(t), pu.stats.clone()));
            engine.force_direction(None);
        }

        // The engine already holds the Δ=1 split from the correctness
        // gate, so every timed sample exercises the cache-hit path —
        // the multi-source shape this PR optimizes for.
        let t = measure_median_min(
            || {
                let (r, _) = engine
                    .run_parallel_improved(&pool, src, DELTA, &mut RunBudget::unlimited())
                    .expect("already ran once above");
                std::hint::black_box(r);
            },
            reps,
        );
        let mut auto_entry = entry(Kernels::Pooled.name(), threads, ms(t), im.stats.clone());
        auto_entry.directions = Some(decisions);
        entries.push(auto_entry);
    }
    entries
}

/// Wrap entries (possibly from several scales) in the `BENCH_sssp.json`
/// document shape: `{"delta": …, "entries": […]}`.
pub fn to_document(entries: &[BenchEntry]) -> Json {
    Json::obj(vec![
        ("delta", Json::Float(DELTA)),
        (
            // The push/pull switch threshold the entries were measured
            // under: pull when frontier_light_edges * denom >= total
            // light edges.
            "direction",
            Json::obj(vec![(
                "pull_edge_fraction_denom",
                Json::UInt(direction::PULL_EDGE_FRACTION_DENOM as u64),
            )]),
        ),
        ("entries", Json::Arr(entries.iter().map(|e| json_object(&e.columns())).collect())),
    ])
}

/// What [`check_against`] concluded.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Human-readable failure lines (empty = check passed).
    pub failures: Vec<String>,
}

impl CheckReport {
    /// True when nothing drifted.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a fresh run against a parsed `BENCH_sssp.json` document.
///
/// * **Stats** — the counters ([`SsspStats`]) are bit-deterministic, so
///   any `(scale, graph, impl)` present on both sides must match
///   *exactly*; a drift means the algorithm changed behaviour.
/// * **Direction counts** — a row that carries `push_epochs` /
///   `pull_epochs` (the auto-direction `improved` rows and the stepping
///   gate's strategy rows) must match them
///   exactly too: the oracle's choices are as deterministic as the stats.
/// * **Presence** — a datapoint the baseline has but the fresh run is
///   missing fails when the fresh run covered that scale at all (a
///   `--smoke` run legitimately skips the default-scale section).
///
/// Wall times are never compared.
pub fn check_against(baseline: &Json, fresh: &[BenchEntry]) -> CheckReport {
    let mut report = CheckReport::default();

    let Some(entries) = baseline.get("entries").and_then(Json::as_arr) else {
        report.failures.push("baseline has no \"entries\" array".into());
        return report;
    };
    fn field<'a>(b: &'a Json, name: &str) -> Option<&'a str> {
        b.get(name).and_then(Json::as_str)
    }

    const COUNTERS: [&str; 5] = [
        "relaxations",
        "improvements",
        "buckets_processed",
        "light_phases",
        "heavy_phases",
    ];
    for base in entries {
        let (Some(scale), Some(graph), Some(impl_name)) =
            (field(base, "scale"), field(base, "graph"), field(base, "impl"))
        else {
            continue;
        };
        let Some(e) = fresh
            .iter()
            .find(|e| e.scale == scale && e.graph == graph && e.impl_name == impl_name)
        else {
            if fresh.iter().any(|e| e.scale == scale) {
                report
                    .failures
                    .push(format!("{scale}/{graph}/{impl_name}: missing from fresh run"));
            }
            continue;
        };
        let fresh_counters = [
            e.stats.relaxations,
            e.stats.improvements,
            e.stats.buckets_processed as u64,
            e.stats.light_phases as u64,
            e.stats.heavy_phases as u64,
        ];
        for (name, have) in COUNTERS.iter().zip(fresh_counters) {
            if let Some(want) = base.get(name).and_then(Json::as_u64) {
                if want != have {
                    report.failures.push(format!(
                        "{scale}/{graph}/{impl_name}: {name} drifted from {want} to {have} \
                         (stats are deterministic)"
                    ));
                }
            }
        }
        let fresh_directions =
            e.directions.map_or([None, None], |(push, pull)| [Some(push), Some(pull)]);
        for (name, have) in ["push_epochs", "pull_epochs"].iter().zip(fresh_directions) {
            let Some(want) = base.get(name).and_then(Json::as_u64) else {
                continue;
            };
            match have {
                Some(have) if have == want => {}
                Some(have) => report.failures.push(format!(
                    "{scale}/{graph}/{impl_name}: {name} drifted from {want} to {have} \
                     (direction choices are deterministic)"
                )),
                None => report.failures.push(format!(
                    "{scale}/{graph}/{impl_name}: {name} missing from fresh run"
                )),
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_consistent_entries() {
        let entries = run(SuiteScale::Smoke, 2, Reps { warmup: 0, samples: 1 });
        // (4 smoke graphs + 1 road gate extra) x 3 entries.
        assert_eq!(entries.len(), 15);
        assert!(entries.iter().any(|e| e.graph == "road-256"));
        for chunk in entries.chunks(3) {
            assert_eq!(chunk[0].impl_name, "fused");
            assert_eq!(chunk[1].impl_name, "improved-push");
            assert_eq!(chunk[2].impl_name, "improved");
            // All implementations agree on the counters — the direction
            // switch in particular must be invisible in the stats.
            for e in &chunk[1..] {
                assert_eq!(chunk[0].stats, e.stats, "{}/{}", e.graph, e.impl_name);
            }
            assert!(chunk.iter().all(|e| e.median_ms >= 0.0));
            // Only the auto entry records oracle decisions.
            assert!(chunk[2].directions.is_some(), "{}", chunk[2].graph);
            assert!(chunk[..2].iter().all(|e| e.directions.is_none()));
        }
    }

    #[test]
    fn check_accepts_its_own_document() {
        let entries = run(SuiteScale::Smoke, 1, Reps { warmup: 0, samples: 1 });
        let doc = to_document(&entries);
        let parsed = Json::parse(&doc.render()).unwrap();
        let report = check_against(&parsed, &entries);
        assert!(report.passed(), "{:?}", report.failures);
    }

    fn mk(impl_name: &str, ms: f64, relaxations: u64) -> BenchEntry {
        BenchEntry {
            scale: "smoke".into(),
            graph: "g".into(),
            nv: 10,
            ne: 20,
            impl_name: impl_name.into(),
            threads: 2,
            median_ms: ms,
            min_ms: ms,
            stats: SsspStats { relaxations, ..SsspStats::default() },
            directions: None,
        }
    }

    #[test]
    fn check_ignores_wall_times_and_flags_gaps() {
        let baseline_doc = to_document(&[mk("fused", 1.0, 100), mk("improved", 2.0, 100)]);
        // A 20x slower fresh run is not this gate's business.
        let slow =
            check_against(&baseline_doc, &[mk("fused", 1.0, 100), mk("improved", 40.0, 100)]);
        assert!(slow.passed(), "{:?}", slow.failures);
        // Fresh run covering the scale but missing the impl is flagged.
        let gap = check_against(&baseline_doc, &[mk("fused", 1.0, 100)]);
        assert_eq!(gap.failures.len(), 1);
        assert!(gap.failures[0].contains("missing"));
        // A scale the fresh run did not cover at all is not.
        assert!(check_against(&baseline_doc, &[]).passed());
    }

    #[test]
    fn check_flags_stats_drift() {
        let baseline_doc = to_document(&[mk("fused", 0.1, 100), mk("improved", 0.1, 100)]);
        let report =
            check_against(&baseline_doc, &[mk("fused", 0.1, 100), mk("improved", 0.1, 101)]);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("drifted"));
    }

    #[test]
    fn check_flags_direction_count_drift() {
        let with_directions = |directions| BenchEntry { directions, ..mk("improved", 0.1, 100) };
        let baseline_doc = to_document(&[mk("fused", 0.1, 100), with_directions(Some((11, 2)))]);
        let same =
            check_against(&baseline_doc, &[mk("fused", 0.1, 100), with_directions(Some((11, 2)))]);
        assert!(same.passed(), "{:?}", same.failures);
        // Same stats, one more pull epoch: the direction oracle moved.
        let moved =
            check_against(&baseline_doc, &[mk("fused", 0.1, 100), with_directions(Some((10, 3)))]);
        assert_eq!(moved.failures.len(), 2, "{:?}", moved.failures);
        assert!(moved.failures[0].contains("push_epochs drifted from 11 to 10"));
        assert!(moved.failures[1].contains("pull_epochs drifted from 2 to 3"));
        // A row that stopped recording its directions is flagged too.
        let lost = check_against(&baseline_doc, &[mk("fused", 0.1, 100), with_directions(None)]);
        assert_eq!(lost.failures.len(), 2, "{:?}", lost.failures);
        assert!(lost.failures.iter().all(|f| f.contains("missing")));
    }
}
