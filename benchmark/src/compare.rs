//! `compare A.json B.json`: one row per (workload, end-to-end metric),
//! A as the base. The same check `repeat` applies to its own runs and
//! every later performance change applies to parent versus change.

use crate::json::{self, Value};
use crate::metrics::{Better, MetricDecl, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workload;
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound, or B had
    /// failed operations (a failure misses every bound).
    Worse,
    /// Run-to-run spread on either side is wider than the bound: the data
    /// cannot tell `within` from `worse`.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and, from two values up, quartiles of one side.
pub struct Side {
    pub median: f64,
    pub quartiles: Option<(f64, f64)>,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        Side {
            median: median(values),
            quartiles: quartiles(values).map(|(q1, _, q3)| (q1, q3)),
        }
    }

    fn spread(&self) -> Option<f64> {
        self.quartiles.map(|(q1, q3)| (q3 - q1) / self.median.abs())
    }
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static MetricDecl,
    pub a: Side,
    pub b: Side,
    pub verdict: Verdict,
}

/// Share of A's median by which B is worse (negative when B is better).
fn worsening(metric: &MetricDecl, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(metric: &MetricDecl, a: &[f64], b: &[f64], b_failed: bool) -> (Side, Side, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let widest = sa
        .spread()
        .into_iter()
        .chain(sb.spread())
        .fold(0.0, f64::max);
    let verdict = if b_failed {
        Verdict::Worse
    } else if widest > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, sa.median, sb.median) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (sa, sb, verdict)
}

/// One workload's result object in every run of a result file.
fn workload_results<'a>(runs: &'a [Value], workload: &str) -> Vec<&'a Value> {
    runs.iter()
        .filter_map(|run| run.get("workloads")?.get(workload))
        .collect()
}

pub fn metric_values(results: &[&Value], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn any_failed(results: &[&Value]) -> bool {
    results.iter().any(|r| {
        r.get("correct").and_then(Value::as_bool) != Some(true)
            || r.get("failed").and_then(Value::as_f64) != Some(0.0)
    })
}

/// Every (workload, end-to-end metric) row present on both sides.
pub fn rows(a_runs: &[Value], b_runs: &[Value]) -> Vec<Row> {
    let mut out = Vec::new();
    for w in &workload::ALL {
        let (ra, rb) = (
            workload_results(a_runs, w.name),
            workload_results(b_runs, w.name),
        );
        for metric in &END_TO_END {
            let (va, vb) = (
                metric_values(&ra, metric.name),
                metric_values(&rb, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a, b, verdict) = judge(metric, &va, &vb, any_failed(&rb));
            out.push(Row {
                workload: w.name,
                metric,
                a,
                b,
                verdict,
            });
        }
    }
    out
}

/// Exact-count metrics whose values are not one single number across all
/// `runs`: `(workload, metric, values seen)`.
pub fn count_mismatches(runs: &[Value]) -> Vec<(&'static str, &'static str, Vec<f64>)> {
    let mut out = Vec::new();
    for w in &workload::ALL {
        let results = workload_results(runs, w.name);
        for metric in PER_LAYER.iter().filter(|m| m.exact) {
            let values = metric_values(&results, metric.name);
            if values.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
                out.push((w.name, metric.name, values));
            }
        }
    }
    out
}

fn side_text(s: &Side) -> String {
    match s.quartiles {
        Some((q1, q3)) => format!("{:.4} [{:.4}, {:.4}]", s.median, q1, q3),
        None => format!("{:.4} [one run]", s.median),
    }
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<12} {:<18} {:>30} {:>30} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
    );
    for r in rows {
        println!(
            "{:<12} {:<18} {:>30} {:>30} {:>8.4}x {:>5.0}%  {}",
            r.workload,
            format!("{} ({})", r.metric.name, r.metric.unit),
            side_text(&r.a),
            side_text(&r.b),
            r.b.median / r.a.median,
            r.metric.bound * 100.0,
            r.verdict.as_str(),
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} within, {} worse, {} unresolved (ratios are B over base A)",
        rows.len(),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
}

pub fn load_runs(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or(format!(
            "{path}: no 'runs' list (expected a file written by run or repeat)"
        ))
}

/// `compare A.json B.json` — exit status 1 when any row is `worse`.
pub fn command(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files: compare A.json B.json".into());
    };
    let rows = rows(&load_runs(a)?, &load_runs(b)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    print_rows(&rows);
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let decl = |better| MetricDecl {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
            exact: false,
        };
        let (p50, rps) = (&decl(Better::Lower), &decl(Better::Higher));
        assert_eq!(judge(p50, &[10.0], &[10.9], false).2, Verdict::Within);
        assert_eq!(judge(p50, &[10.0], &[11.1], false).2, Verdict::Worse);
        assert_eq!(judge(p50, &[10.0], &[5.0], false).2, Verdict::Within);
        assert_eq!(judge(rps, &[100.0], &[91.0], false).2, Verdict::Within);
        assert_eq!(judge(rps, &[100.0], &[89.0], false).2, Verdict::Worse);
        assert_eq!(judge(rps, &[100.0], &[150.0], false).2, Verdict::Within);
        // A failure misses every bound, however fast the rest was.
        assert_eq!(judge(p50, &[10.0], &[5.0], true).2, Verdict::Worse);
        // Spread wider than the bound on either side: cannot tell.
        assert_eq!(
            judge(p50, &[8.0, 10.0, 12.0], &[10.0, 10.0, 10.0], false).2,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, &[10.0, 10.1, 10.2], &[11.5, 11.6, 11.7], false).2,
            Verdict::Worse
        );
    }

    fn run(workload: &str, metric: &str, value: f64, failed: f64) -> Value {
        Value::obj([(
            "workloads",
            Value::obj([(
                workload,
                Value::obj([
                    ("correct", Value::Bool(failed == 0.0)),
                    ("failed", Value::Num(failed)),
                    (
                        "metrics",
                        Value::obj([(metric, Value::obj([("value", Value::Num(value))]))]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn rows_pair_up_what_both_files_hold() {
        let a = [run("hot-road", "latency_p50_ms", 16.0, 0.0)];
        let b = [run("hot-road", "latency_p50_ms", 20.0, 0.0)];
        let r = rows(&a, &b);
        assert_eq!(r.len(), 1);
        assert_eq!(
            (r[0].workload, r[0].metric.name, r[0].verdict),
            ("hot-road", "latency_p50_ms", Verdict::Worse)
        );
        let failed = [run("hot-road", "latency_p50_ms", 16.0, 2.0)];
        assert_eq!(rows(&a, &failed)[0].verdict, Verdict::Worse);
        assert!(rows(&a, &[run("hot-rmat", "latency_p50_ms", 1.0, 0.0)]).is_empty());
    }

    #[test]
    fn counts_must_repeat_bit_for_bit() {
        let same = [
            run("hot-rmat", "core.fused.relaxations", 239_017.0, 0.0),
            run("hot-rmat", "core.fused.relaxations", 239_017.0, 0.0),
        ];
        assert!(count_mismatches(&same).is_empty());
        let differ = [
            run("hot-rmat", "core.fused.relaxations", 239_017.0, 0.0),
            run("hot-rmat", "core.fused.relaxations", 239_018.0, 0.0),
        ];
        assert_eq!(count_mismatches(&differ)[0].1, "core.fused.relaxations");
        // Timings may differ freely.
        let timing = [
            run("hot-rmat", "core.fused.solve_ms", 2.0, 0.0),
            run("hot-rmat", "core.fused.solve_ms", 2.1, 0.0),
        ];
        assert!(count_mismatches(&timing).is_empty());
    }
}
