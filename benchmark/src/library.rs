//! The library solve loop: Dijkstra, a cold solve and a warm solve of the
//! same source back to back, so the three share cache state, clock
//! frequency and whatever else the machine is doing.

use std::time::{Duration, Instant};

use sssp_core::dijkstra::dijkstra;
use sssp_core::engine::SsspEngine;
use sssp_core::{GuardConfig, RunBudget, SsspError, SsspResult};
use sssp_serve::protocol::dist_digest;

use crate::oracle::same_bits;
use crate::stats::interquartile_mean;
use crate::workload::{Fixture, Target, Walk};

/// What a first-time caller pays: a fresh engine (graph fingerprint,
/// workspaces), the weight scan, the `A_L`/`A_H` split build, the solve.
pub fn cold_solve(target: &Target, source: usize, delta: f64) -> Result<SsspResult, SsspError> {
    let mut engine = SsspEngine::new(&target.graph);
    let delta = engine.preflight(source, delta, &GuardConfig::default())?;
    engine
        .run_fused(source, delta, &mut RunBudget::unlimited())
        .map(|(result, _)| result)
}

#[derive(Default)]
pub struct LibraryReport {
    pub dijkstra_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    /// Which target each iteration ran on (parallel to the three above).
    pub target: Vec<usize>,
    /// Solves checked (two per iteration) and those that disagreed with
    /// Dijkstra or with an earlier answer for the same source.
    pub attempted: u64,
    pub failed: u64,
}

/// Dijkstra, cold and warm time of one loop, in milliseconds.
pub struct LibrarySummary {
    pub dijkstra_ms: f64,
    pub cold_ms: f64,
    pub warm_ms: f64,
}

impl LibraryReport {
    /// Each series reduced to one number: the interquartile mean of every
    /// target's samples, averaged over the targets. A plain median does
    /// badly here: warm solves on RMAT fall into a ~2.2 ms and a ~3.0 ms
    /// cluster by source, two graphs of different cost add two more
    /// modes, and the median of a multi-modal sample jumps between modes
    /// from run to run (`ratio_vs_dijkstra` on `churn-rmat` read
    /// 0.79–1.20 that way). A plain mean does badly too: one scheduling
    /// hiccup is 10 % of a 0.2 ms Dijkstra on the grid.
    pub fn summary(&self) -> LibrarySummary {
        let targets = self.target.iter().max().map_or(0, |t| t + 1);
        let reduce = |series: &[f64]| {
            let per_target = (0..targets).map(|t| {
                let samples: Vec<f64> = series
                    .iter()
                    .zip(&self.target)
                    .filter(|(_, &of)| of == t)
                    .map(|(&v, _)| v)
                    .collect();
                interquartile_mean(&samples)
            });
            per_target.sum::<f64>() / targets as f64
        };
        LibrarySummary {
            dijkstra_ms: reduce(&self.dijkstra_ms),
            cold_ms: reduce(&self.cold_ms),
            warm_ms: reduce(&self.warm_ms),
        }
    }
}

/// One engine per target with its split built and workspaces touched.
fn warm_engines(fixture: &Fixture) -> Result<Vec<SsspEngine<'_>>, SsspError> {
    fixture
        .targets
        .iter()
        .map(|t| {
            let mut engine = SsspEngine::new(&t.graph);
            let source = t.refs[0].source;
            let delta =
                engine.preflight(source, fixture.workload.delta, &GuardConfig::default())?;
            engine.run_fused(source, delta, &mut RunBudget::unlimited())?;
            Ok(engine)
        })
        .collect()
}

/// Run the interleaved loop for `budget` (at least one iteration). Each
/// solve's distances must equal Dijkstra's bit for bit and its stats must
/// repeat what the source produced before.
pub fn interleaved(
    fixture: &Fixture,
    seed: u64,
    budget: Duration,
) -> Result<LibraryReport, SsspError> {
    let delta = fixture.workload.delta;
    let mut engines = warm_engines(fixture)?;
    let mut report = LibraryReport::default();
    let start = Instant::now();
    for (t, r) in Walk::new(fixture, seed, 0, 1) {
        let target = &fixture.targets[t];
        let reference = &target.refs[r];
        let source = reference.source;

        report.target.push(t);
        let t0 = Instant::now();
        let truth = dijkstra(&target.graph, source);
        report.dijkstra_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let cold = cold_solve(target, source, delta)?;
        report.cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let (warm, _) = engines[t].run_fused(source, delta, &mut RunBudget::unlimited())?;
        report.warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let truth_ok = dist_digest(&truth.dist) == reference.dist_fnv;
        for solved in [&cold, &warm] {
            report.attempted += 1;
            let ok = truth_ok
                && same_bits(&solved.dist, &truth.dist)
                && reference.same_stats(&solved.stats);
            report.failed += u64::from(!ok);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok(report)
}

/// The library workload's warm-up: a few cold solves, which page the
/// graph in and let the allocator settle.
pub fn warm_up(fixture: &Fixture) -> Result<(), SsspError> {
    for target in &fixture.targets {
        for reference in target.refs.iter().take(4) {
            cold_solve(target, reference.source, fixture.workload.delta)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_trims_per_target_then_weighs_targets_equally() {
        // Target 0: eight visits, one disturbed; target 1 is five times
        // dearer and visited half as often.
        let on_zero = [2.0, 2.0, 2.2, 2.2, 3.0, 3.0, 3.2, 40.0];
        let on_one = [10.0, 10.0, 12.0, 12.0];
        let report = LibraryReport {
            warm_ms: on_zero.iter().chain(&on_one).copied().collect(),
            dijkstra_ms: vec![1.0; 12],
            cold_ms: vec![4.0; 12],
            target: [0; 8].into_iter().chain([1; 4]).collect(),
            ..LibraryReport::default()
        };
        let s = report.summary();
        assert_eq!(s.dijkstra_ms, 1.0);
        assert_eq!(s.cold_ms, 4.0);
        let zero = (2.2 + 2.2 + 3.0 + 3.0) / 4.0;
        let one = (10.0 + 12.0) / 2.0;
        assert!((s.warm_ms - (zero + one) / 2.0).abs() < 1e-12);
    }
}
