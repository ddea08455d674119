//! The metric names this benchmark fixes: end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root declares the same lists (and the workloads of `workload.rs`); a
//! unit test keeps them in agreement, and [`Emitted`] refuses any name
//! not declared here.

use crate::json::Value;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen. Per-layer metrics are tracked, not gated (`0.0`).
    pub bound: f64,
    /// A count that must repeat bit for bit between runs of one commit
    /// with one seed (work done, not time taken).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Each bound is about three times the widest run-to-run spread
/// (interquartile distance over the median, ten seeds) measured for that
/// metric on any workload when the benchmark was defined — see the
/// README's table — and never above the contract's 25 % ceiling. The
/// tail metric is p90 because p95 swung 8–25 % between ten runs of one
/// commit on the 2-core box; p95, p99 and the maximum are per-layer
/// diagnostics.
pub const END_TO_END: [MetricDecl; 8] = [
    e2e("throughput_rps", "1/s", Higher, 0.20),
    e2e("latency_p50_ms", "ms", Lower, 0.15),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("solve_warm_ms", "ms", Lower, 0.20),
    e2e("solve_cold_ms", "ms", Lower, 0.25),
    e2e("ratio_vs_dijkstra", "x", Lower, 0.20),
    e2e("peak_heap_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [MetricDecl; 53] = [
    layer("graphdata.gen_ms", "ms", Lower),
    layer("graphdata.csr_build_ms", "ms", Lower),
    layer("graphdata.fingerprint_ms", "ms", Lower),
    layer("core.dijkstra.solve_ms", "ms", Lower),
    layer("core.canonical.solve_ms", "ms", Lower),
    layer("core.engine.new_ms", "ms", Lower),
    layer("core.budget.for_job_ms", "ms", Lower),
    layer("core.engine.preflight_ms", "ms", Lower),
    layer("core.batch.run_shared_ms", "ms", Lower),
    layer("core.batch.overhead_ms", "ms", Lower),
    layer("core.split.build_ms", "ms", Lower),
    layer("core.split_cache.builds_per_req", "1/req", Lower),
    layer("core.split_cache.hits_per_req", "1/req", Higher),
    layer("core.split_cache.evictions_per_req", "1/req", Lower),
    layer("core.split_cache.resident_mb", "MB", Lower),
    layer("core.fused.solve_ms", "ms", Lower),
    layer("core.fused.relaxation_ms", "ms", Lower),
    layer("core.fused.vector_ops_ms", "ms", Lower),
    count("core.fused.relaxations"),
    count("core.fused.improvements"),
    count("core.fused.epochs"),
    layer("core.fused.useful_ratio", "ratio", Higher),
    layer("core.fused.mteps", "Medges/s", Higher),
    layer("core.stepping.classic_ms", "ms", Lower),
    layer("core.stepping.rho_ms", "ms", Lower),
    layer("core.stepping.delta_star_ms", "ms", Lower),
    count("core.stepping.classic_relaxations"),
    count("core.stepping.rho_relaxations"),
    count("core.stepping.delta_star_relaxations"),
    layer("core.parallel_improved.solve_ms", "ms", Lower),
    count("core.parallel_improved.push_epochs"),
    count("core.parallel_improved.pull_epochs"),
    layer("taskpool.scope_collect_us", "us", Lower),
    layer("gblas.unfused_solve_ms", "ms", Lower),
    layer("gblas.fusion_speedup", "x", Higher),
    layer("serve.protocol.request_codec_us", "us", Lower),
    layer("serve.protocol.summary_codec_us", "us", Lower),
    layer("serve.protocol.full_codec_us", "us", Lower),
    layer("serve.protocol.digest_us", "us", Lower),
    layer("serve.queue.cycle_us", "us", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.request_rtt_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.solver_share", "ratio", Higher),
    layer("serve.unattributed_ms", "ms", Lower),
    layer("client.latency_p95_ms", "ms", Lower),
    layer("client.latency_p99_ms", "ms", Lower),
    layer("client.latency_max_ms", "ms", Lower),
    layer("client.samples", "count", Higher),
    layer("serve.jobs_shed", "count", Lower),
    layer("serve.jobs_failed", "count", Lower),
    layer("trace.requests", "count", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The metrics one run emits, in declaration order. Built against one of
/// the tables above: setting an undeclared name panics (a harness bug),
/// and [`Emitted::finish`] reports every declared name left unset.
pub struct Emitted {
    table: &'static [MetricDecl],
    values: Vec<Option<f64>>,
    /// Sample count behind each value, for the printed report.
    samples: Vec<usize>,
}

impl Emitted {
    pub fn new(table: &'static [MetricDecl]) -> Self {
        Emitted {
            table,
            values: vec![None; table.len()],
            samples: vec![0; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs"));
        self.values[i] = Some(value);
        self.samples[i] = samples;
    }

    /// `(declaration, value, samples)` for every declared metric, or the
    /// names that were never set.
    pub fn finish(&self) -> Result<Vec<(&'static MetricDecl, f64, usize)>, Vec<&'static str>> {
        let missing: Vec<_> = self
            .table
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(m, _)| m.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(self
            .table
            .iter()
            .zip(&self.values)
            .zip(&self.samples)
            .map(|((m, v), &n)| (m, v.expect("checked above"), n))
            .collect())
    }
}

/// The `metrics` object of the contract's result line.
pub fn metrics_json(rows: &[(&'static MetricDecl, f64, usize)]) -> Value {
    Value::obj(rows.iter().map(|(m, v, _)| {
        (
            m.name,
            Value::obj([("value", Value::Num(*v)), ("unit", Value::str(m.unit))]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workload;

    fn text(v: &Value, key: &str) -> String {
        match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("'{key}' should be a string, got {other:?}"),
        }
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(v: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    fn table(t: &[MetricDecl], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        t.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    direction(m.better).to_string(),
                    bounded.then_some(m.bound),
                )
            })
            .collect()
    }

    /// Every declared metric is one this harness emits and nothing is
    /// emitted undeclared: the two lists are equal, in order, with units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_emitted_names() {
        let v = benchmark_json();
        assert_eq!(declared(&v, "end_to_end"), table(&END_TO_END, true));
        assert_eq!(declared(&v, "per_layer"), table(&PER_LAYER, false));
        let workloads: Vec<(String, String)> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<_> = workload::ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            v.get("paths"),
            Some(&Value::Arr(vec![Value::str("benchmark")]))
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        let names = workload::ALL
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is declared twice");
            assert!(
                name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{name}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(workload::ALL
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn emitted_refuses_gaps() {
        let mut e = Emitted::new(&END_TO_END);
        e.set("setup_s", 1.5, 3);
        let missing = e.finish().unwrap_err();
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        assert!(!missing.contains(&"setup_s"));
    }
}
