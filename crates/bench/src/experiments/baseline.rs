//! BASELINE — the tracked perf baseline behind `BENCH_sssp.json`.
//!
//! Times the fig3/fig4 workloads (the [`paper_suite`] graphs with unit
//! weights, Δ = 1, highest-out-degree source, plus the bench-only
//! [`gate_extras`] road graphs) across three entries — the one stepping
//! loop's classic strategy on its sequential and pooled kernels:
//!
//! * `fused` — the sequential fused reference; every other entry is
//!   normalized against it, so the regression check compares
//!   machine-independent ratios rather than raw milliseconds;
//! * `improved-push` — the request-buffer path with the density oracle
//!   pinned to push: the pre-direction-optimization behaviour, kept so
//!   the oracle's win (or cost) per graph is a committed datapoint;
//! * `improved` — the request-buffer rebuild driven through
//!   [`SsspEngine`] with automatic push/pull direction selection. Its
//!   rows also record how many light epochs the oracle sent each way.
//!
//! All three are cross-checked for identical distances and stats (the
//! kernels and the direction switch must be invisible) before anything
//! is timed.

use gblas::direction::{self, Direction};
use graphdata::suite::Dataset;
use graphdata::{gen, paper_suite, CsrGraph, SuiteScale};
use sssp_core::engine::SsspEngine;
use sssp_core::stats::SsspStats;
use sssp_core::{dijkstra, fused, Implementation, RunBudget};
use taskpool::ThreadPool;

use crate::bench_source;
use crate::measure::{measure_median_min, Reps};
use crate::report::{Json, ToJson};

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
    /// Minimum wall time, milliseconds. The regression check compares
    /// minima: external interference only ever *adds* time, so the
    /// minimum is the stable estimator on shared/loaded machines.
    pub min_ms: f64,
    /// Run statistics (identical across implementations by construction;
    /// recorded so a stats drift fails the regression check too).
    pub stats: SsspStats,
    /// `true` when this graph's fused run finished under
    /// [`MIN_TIMED_MS`] at *measurement* time: the entry is recorded as
    /// `"timing": "stats-only"` in `BENCH_sssp.json` and the regression
    /// check never compares its wall times, only its counters. Decided
    /// when the baseline is generated — not re-derived from fresh
    /// timings — so a graph near the floor cannot flap in and out of the
    /// timing gate between CI runs.
    pub stats_only: bool,
    /// For the auto-direction `improved` entry: how many light epochs the
    /// density oracle sent each way, `(push, pull)`, observed on the
    /// correctness-gate run. `None` for entries that never consult the
    /// oracle or have it pinned.
    pub directions: Option<(u64, u64)>,
}

impl ToJson for BenchEntry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scale", self.scale.to_json()),
            ("graph", self.graph.to_json()),
            ("nv", self.nv.to_json()),
            ("ne", self.ne.to_json()),
            ("impl", self.impl_name.to_json()),
            ("threads", self.threads.to_json()),
            ("median_ms", self.median_ms.to_json()),
            ("min_ms", self.min_ms.to_json()),
            (
                "timing",
                if self.stats_only { "stats-only" } else { "timed" }.to_json(),
            ),
            ("relaxations", self.stats.relaxations.to_json()),
            ("improvements", self.stats.improvements.to_json()),
            ("buckets_processed", self.stats.buckets_processed.to_json()),
            ("light_phases", self.stats.light_phases.to_json()),
            ("heavy_phases", self.stats.heavy_phases.to_json()),
        ];
        if let Some((push, pull)) = self.directions {
            fields.push(("push_epochs", push.to_json()));
            fields.push(("pull_epochs", pull.to_json()));
        }
        Json::obj(fields)
    }
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

/// Pins the density oracle for the duration of a measurement block and
/// restores automatic selection even if a sample panics.
struct ForcedDirection;

impl ForcedDirection {
    fn new(dir: Direction) -> Self {
        direction::set_direction_override(Some(dir));
        ForcedDirection
    }
}

impl Drop for ForcedDirection {
    fn drop(&mut self) {
        direction::set_direction_override(None);
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
        direction::reset_decision_counters();
        let (im, _) = engine
            .run_parallel_improved(&pool, src, DELTA, &mut RunBudget::unlimited())
            .expect("suite graphs are valid");
        // One run's worth of oracle decisions, recorded on the auto entry
        // so the committed baseline shows which graphs actually switch.
        let decisions = direction::decision_counters();
        assert_eq!(fu.dist, dj.dist, "{}: fused disagrees with Dijkstra", d.name);
        assert_eq!(im.dist, dj.dist, "{}: improved disagrees with Dijkstra", d.name);
        assert_eq!(im.stats, fu.stats, "{}: stats drift", d.name);

        let ms = |(med, min): (std::time::Duration, std::time::Duration)| {
            (med.as_secs_f64() * 1e3, min.as_secs_f64() * 1e3)
        };

        // Measure fused first: its minimum decides — once, at baseline
        // generation — whether this graph's entries are timing-eligible
        // or stats-only.
        let fused_t = ms(measure_median_min(
            || {
                std::hint::black_box(fused::delta_stepping_fused(g, src, DELTA));
            },
            reps,
        ));
        let stats_only = fused_t.1 < MIN_TIMED_MS;

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
            stats_only,
            directions: None,
        };

        entries.push(entry(Implementation::Fused.name(), 1, fused_t, fu.stats.clone()));

        // Forced-push "before" datapoint: the same engine/cache-hot path
        // with the oracle pinned to push, so the auto row's win (or
        // cost) against the pre-direction-optimization behaviour is a
        // committed number per graph.
        {
            let _pin = ForcedDirection::new(Direction::Push);
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
        let mut auto_entry = entry(
            Implementation::ParallelImproved.name(),
            threads,
            ms(t),
            im.stats.clone(),
        );
        auto_entry.directions = Some(decisions);
        entries.push(auto_entry);
    }
    entries
}

/// Wrap entries (possibly from several scales) in the `BENCH_sssp.json`
/// document shape: `{"delta": …, "entries": […]}`.
pub fn to_document(entries: &[BenchEntry]) -> Json {
    Json::obj(vec![
        ("delta", DELTA.to_json()),
        (
            // The push/pull switch threshold the entries were measured
            // under: pull when frontier_light_edges * denom >= total
            // light edges.
            "direction",
            Json::obj(vec![(
                "pull_edge_fraction_denom",
                direction::PULL_EDGE_FRACTION_DENOM.to_json(),
            )]),
        ),
        ("entries", entries.to_json()),
    ])
}

/// Table rows for the console report.
pub fn to_table(entries: &[BenchEntry]) -> Vec<Vec<String>> {
    entries
        .iter()
        .map(|e| {
            vec![
                e.scale.clone(),
                e.graph.clone(),
                e.impl_name.clone(),
                e.threads.to_string(),
                format!("{:.3}", e.median_ms),
                e.stats.relaxations.to_string(),
            ]
        })
        .collect()
}

/// Console/CSV header matching [`to_table`].
pub const HEADER: [&str; 6] = ["scale", "graph", "impl", "threads", "median_ms", "relaxations"];

/// Maximum allowed regression of the fused-normalized ratio before the
/// check fails (25 %).
pub const TOLERANCE: f64 = 0.25;

/// Fused-time floor (milliseconds) for *timing* comparison. Below it a
/// run finishes in microseconds and even minimum-of-N wall times jitter
/// several-fold on a shared core, so those datapoints are only checked
/// for presence and stats equality, never for speed.
pub const MIN_TIMED_MS: f64 = 1.0;

/// What [`check_against`] concluded.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Human-readable failure lines (empty = check passed).
    pub failures: Vec<String>,
    /// Datapoints whose timing ratio was actually compared.
    pub timed: usize,
    /// Datapoints skipped as sub-[`MIN_TIMED_MS`] (still stats-checked).
    pub skipped: usize,
}

impl CheckReport {
    /// True when nothing regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a fresh run against a parsed `BENCH_sssp.json` document.
///
/// Two independent gates:
///
/// * **Stats** — the counters ([`SsspStats`]) are bit-deterministic, so
///   any `(scale, graph, impl)` present on both sides must match
///   *exactly*; a drift means the algorithm changed behaviour.
/// * **Timing** — raw times are machine-dependent, so each parallel
///   entry is normalized to the *same run's* fused time on the same
///   graph, and the fresh ratio must not exceed the baseline ratio by
///   more than [`TOLERANCE`]. Minima (not medians) are compared —
///   interference only ever adds time, so the minimum is far more
///   stable on shared machines. Graphs the baseline marks
///   `"timing": "stats-only"` are never time-compared — the decision was
///   made once when the baseline was generated, so a graph near the
///   [`MIN_TIMED_MS`] floor cannot flake in and out of the gate as CI
///   machines speed up or slow down. The dynamic floor still applies on
///   top, for baselines predating the marker.
///
/// Datapoints the baseline has but the fresh run is missing fail only
/// when the fresh run covered that scale at all (a `--smoke` run
/// legitimately skips the default-scale section).
pub fn check_against(baseline: &Json, fresh: &[BenchEntry]) -> CheckReport {
    let mut report = CheckReport::default();

    let Some(entries) = baseline.get("entries").and_then(Json::as_arr) else {
        report.failures.push("baseline has no \"entries\" array".into());
        return report;
    };

    // Stats gate: exact counter equality wherever both sides have data.
    const COUNTERS: [&str; 5] = [
        "relaxations",
        "improvements",
        "buckets_processed",
        "light_phases",
        "heavy_phases",
    ];
    for e in fresh {
        let Some(base) = entries.iter().find(|b| {
            b.get("scale").and_then(Json::as_str) == Some(&e.scale)
                && b.get("graph").and_then(Json::as_str) == Some(&e.graph)
                && b.get("impl").and_then(Json::as_str) == Some(&e.impl_name)
        }) else {
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
                        "{}/{}/{}: {} drifted from {} to {} (stats are deterministic)",
                        e.scale, e.graph, e.impl_name, name, want, have
                    ));
                }
            }
        }
    }

    // Graphs the baseline pinned as stats-only: timing never applies.
    let base_stats_only: std::collections::BTreeSet<(String, String)> = entries
        .iter()
        .filter_map(|e| {
            if e.get("timing").and_then(Json::as_str) != Some("stats-only") {
                return None;
            }
            Some((
                e.get("scale").and_then(Json::as_str)?.to_string(),
                e.get("graph").and_then(Json::as_str)?.to_string(),
            ))
        })
        .collect();

    // Timing gate on fused-normalized minima.
    let fresh_ratios = ratio_map(
        fresh
            .iter()
            .map(|e| (e.scale.clone(), e.graph.clone(), e.impl_name.clone(), e.min_ms)),
    );
    let base_iter = entries.iter().filter_map(|e| {
        Some((
            e.get("scale").and_then(Json::as_str)?.to_string(),
            e.get("graph").and_then(Json::as_str)?.to_string(),
            e.get("impl").and_then(Json::as_str)?.to_string(),
            e.get("min_ms").or_else(|| e.get("median_ms")).and_then(Json::as_f64)?,
        ))
    });
    let base_ratios = ratio_map(base_iter);

    for ((scale, graph, impl_name), (base_ratio, base_fused_ms)) in &base_ratios {
        let Some((fresh_ratio, fused_ms)) =
            fresh_ratios.get(&(scale.clone(), graph.clone(), impl_name.clone()))
        else {
            if fresh.iter().any(|e| &e.scale == scale) {
                report
                    .failures
                    .push(format!("{scale}/{graph}/{impl_name}: missing from fresh run"));
            }
            continue;
        };
        if base_stats_only.contains(&(scale.clone(), graph.clone()))
            || *fused_ms < MIN_TIMED_MS
            || *base_fused_ms < MIN_TIMED_MS
        {
            report.skipped += 1;
            continue;
        }
        report.timed += 1;
        if *fresh_ratio > base_ratio * (1.0 + TOLERANCE) {
            report.failures.push(format!(
                "{scale}/{graph}/{impl_name}: ratio-vs-fused {fresh_ratio:.3} exceeds \
                 baseline {base_ratio:.3} by more than {:.0}%",
                TOLERANCE * 100.0
            ));
        }
    }
    report
}

type RatioKey = (String, String, String);

/// Normalize each entry's time to the fused time on the same
/// (scale, graph); fused rows themselves are excluded (always 1.0). The
/// fused time rides along so the caller can scale its tolerance.
fn ratio_map(
    entries: impl Iterator<Item = (String, String, String, f64)>,
) -> std::collections::BTreeMap<RatioKey, (f64, f64)> {
    let rows: Vec<_> = entries.collect();
    let mut fused: std::collections::BTreeMap<(String, String), f64> =
        std::collections::BTreeMap::new();
    for (scale, graph, impl_name, ms) in &rows {
        if impl_name == "fused" {
            fused.insert((scale.clone(), graph.clone()), *ms);
        }
    }
    let mut out = std::collections::BTreeMap::new();
    for (scale, graph, impl_name, ms) in rows {
        if impl_name == "fused" {
            continue;
        }
        if let Some(&f) = fused.get(&(scale.clone(), graph.clone())) {
            if f > 0.0 {
                out.insert((scale, graph, impl_name), (ms / f, f));
            }
        }
    }
    out
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

    #[test]
    fn check_flags_regressions_and_gaps() {
        let mk = |impl_name: &str, ms: f64| BenchEntry {
            scale: "smoke".into(),
            graph: "g".into(),
            nv: 10,
            ne: 20,
            impl_name: impl_name.into(),
            threads: 2,
            median_ms: ms,
            min_ms: ms,
            stats: SsspStats::default(),
            stats_only: false,
            directions: None,
        };
        let baseline_doc = to_document(&[mk("fused", 1.0), mk("improved", 2.0)]);
        // Fresh ratio 4.0 vs baseline 2.0: > 25% regression.
        let report = check_against(&baseline_doc, &[mk("fused", 1.0), mk("improved", 4.0)]);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("ratio-vs-fused"));
        assert_eq!(report.timed, 1);
        // Within tolerance passes.
        let ok = check_against(&baseline_doc, &[mk("fused", 1.0), mk("improved", 2.3)]);
        assert!(ok.passed(), "{:?}", ok.failures);
        // Fresh run covering the scale but missing the impl is flagged.
        let gap = check_against(&baseline_doc, &[mk("fused", 1.0)]);
        assert_eq!(gap.failures.len(), 1);
        assert!(gap.failures[0].contains("missing"));
    }

    #[test]
    fn check_skips_timing_for_sub_millisecond_graphs() {
        let mk = |impl_name: &str, ms: f64| BenchEntry {
            scale: "smoke".into(),
            graph: "tiny".into(),
            nv: 10,
            ne: 20,
            impl_name: impl_name.into(),
            threads: 2,
            median_ms: ms,
            min_ms: ms,
            stats: SsspStats::default(),
            stats_only: false,
            directions: None,
        };
        // Fused under MIN_TIMED_MS: even a 5x ratio blow-up is ignored —
        // microsecond wall times on a shared core are pure noise.
        let baseline_doc = to_document(&[mk("fused", 0.5), mk("improved", 1.0)]);
        let report = check_against(&baseline_doc, &[mk("fused", 0.5), mk("improved", 5.0)]);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.timed, 0);
    }

    #[test]
    fn baseline_stats_only_marker_pins_the_skip_regardless_of_fresh_times() {
        let mk = |impl_name: &str, ms: f64, stats_only: bool| BenchEntry {
            scale: "smoke".into(),
            graph: "tiny".into(),
            nv: 10,
            ne: 20,
            impl_name: impl_name.into(),
            threads: 2,
            median_ms: ms,
            min_ms: ms,
            stats: SsspStats::default(),
            stats_only,
            directions: None,
        };
        // The baseline recorded this graph as stats-only even though its
        // times sit above the floor (say, the baseline machine was slow).
        // A fresh run with any ratio — here a 10x blow-up on a fused time
        // also above the floor — must still skip the timing gate: the
        // marker, not the fresh measurement, decides.
        let baseline_doc =
            to_document(&[mk("fused", 2.0, true), mk("improved", 4.0, true)]);
        let parsed = Json::parse(&baseline_doc.render()).unwrap();
        let report = check_against(
            &parsed,
            &[mk("fused", 2.0, false), mk("improved", 40.0, false)],
        );
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.timed, 0);
        // And the marker round-trips through the JSON document.
        let entries = parsed.get("entries").and_then(Json::as_arr).unwrap();
        assert!(entries
            .iter()
            .all(|e| e.get("timing").and_then(Json::as_str) == Some("stats-only")));
    }

    #[test]
    fn check_flags_stats_drift_even_when_timing_skipped() {
        let mk = |impl_name: &str, relaxations: u64| BenchEntry {
            scale: "smoke".into(),
            graph: "tiny".into(),
            nv: 10,
            ne: 20,
            impl_name: impl_name.into(),
            threads: 2,
            median_ms: 0.1,
            min_ms: 0.1,
            stats: SsspStats {
                relaxations,
                ..SsspStats::default()
            },
            stats_only: true,
            directions: None,
        };
        let baseline_doc = to_document(&[mk("fused", 100), mk("improved", 100)]);
        let report =
            check_against(&baseline_doc, &[mk("fused", 100), mk("improved", 101)]);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("drifted"));
    }
}
