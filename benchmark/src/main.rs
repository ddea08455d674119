//! The repo benchmark: `sssp-serve` requests and library solves measured
//! end to end and per layer, every answer checked against Dijkstra.
//!
//! Two ways in:
//!
//! * the contract form the acceptance driver uses, one workload per
//!   process: `--workload W --seed N --seconds S --trace 0|1`, whose last
//!   stdout line is the result object;
//! * the suite commands for people: `run`, `trace`, `repeat N`,
//!   `compare A.json B.json` (see README.md).

mod alloc;
mod client;
mod compare;
mod env;
mod json;
mod layers;
mod library;
mod load;
mod metrics;
mod oracle;
mod stats;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Value;
use metrics::{metrics_json, Emitted, MetricDecl, END_TO_END};
use workload::{Fixture, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Measured window of the suite commands, matching `run_seconds` in
/// `BENCHMARK.json`; `--quick` shrinks it for smoke use.
const DEFAULT_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 2.0;
const DEFAULT_SEED: u64 = 1;

/// Set-up repeats per run: `setup_s` is their median, so one slow page
/// fault storm does not decide it.
const SETUP_REPEATS: usize = 3;
/// Warm-up requests per connection (count-based, so it is work the
/// system does, not a fixed sleep that would dilute `setup_s`).
const WARMUP_REQUESTS: usize = 32;
/// Share of a serve workload's window spent on the wire; the rest runs
/// the library loop on the same graphs.
const WIRE_SHARE: f64 = 0.7;
/// Target length of one throughput/latency window.
const WINDOW_SECONDS: f64 = 2.0;

/// What one contract-form invocation produces.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: Vec<(&'static MetricDecl, f64, usize)>,
    /// Everything beyond the contract's four keys: environment, windows,
    /// sample counts. Printed on its own `detail:` line.
    detail: Value,
}

/// Build the fixture and warm it up: what `setup_s` times.
fn set_up(workload: &'static Workload, seed: u64) -> Result<Fixture, String> {
    let fixture = Fixture::build(workload, seed)?;
    let warmed = if fixture.server.is_some() {
        load::closed_loop(
            &fixture,
            seed,
            env::connections(),
            load::Stop::Requests(WARMUP_REQUESTS),
        )
        .map_err(|e| e.to_string())
        .and_then(|r| match r.failed {
            0 => Ok(()),
            n => Err(format!("{n} of {} warm-up requests failed", r.attempted)),
        })
    } else {
        library::warm_up(&fixture).map_err(|e| e.to_string())
    };
    match warmed {
        Ok(()) => Ok(fixture),
        Err(e) => {
            fixture.shutdown();
            Err(e)
        }
    }
}

/// Set up [`SETUP_REPEATS`] times, keep the last fixture, report each
/// duration.
fn set_up_repeated(workload: &'static Workload, seed: u64) -> Result<(Fixture, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous fixture first, as a restarted service would.
        if let Some(previous) = kept.take() {
            Fixture::shutdown(previous);
        }
        let t0 = Instant::now();
        kept = Some(set_up(workload, seed)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPEATS >= 1"), times))
}

/// Everything beyond the contract's four keys, as `(key, value)` pairs.
type Detail = Vec<(&'static str, Value)>;

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

fn opt(value: Option<f64>) -> Value {
    value.map_or(Value::Null, Value::Num)
}

fn common_detail(workload: &Workload, seed: u64, seconds: f64) -> Detail {
    vec![
        ("workload", Value::str(workload.name)),
        ("seed", Value::from(seed)),
        ("seconds", Value::Num(seconds)),
        ("environment", env::capture()),
    ]
}

/// Counters every measured phase adds to.
#[derive(Default)]
struct Operations {
    attempted: u64,
    failed: u64,
}

/// The closed loop over the wire: throughput and latency percentiles.
fn measure_wire(
    fixture: &Fixture,
    server: &sssp_serve::ServerHandle,
    seed: u64,
    seconds: f64,
    m: &mut Emitted,
    detail: &mut Detail,
    ops: &mut Operations,
) -> Result<(), String> {
    let stop = load::Stop::After(Duration::from_secs_f64(seconds));
    let load =
        load::closed_loop(fixture, seed, env::connections(), stop).map_err(|e| e.to_string())?;
    ops.attempted += load.attempted;
    ops.failed += load.failed;
    let windows = (seconds / WINDOW_SECONDS).floor().max(1.0) as usize;
    let w = load::windowed(&load.samples, load.elapsed_s, windows);
    let n = load.samples.len();
    m.set("throughput_rps", w.throughput_rps, n);
    m.set("latency_p50_ms", w.p50_ms, n);
    m.set("latency_p90_ms", w.p90_ms, n);
    detail.push(("windows", Value::from(w.windows)));
    detail.push(("per_window_rps", nums(&w.per_window_rps)));
    detail.push(("per_window_p50_ms", nums(&w.per_window_p50_ms)));
    detail.push(("min_window_samples", Value::from(w.min_window_samples)));
    detail.push(("supported_percentile", opt(w.supported_percentile)));
    // The daemon's own view must agree that nothing was shed or failed.
    let stats = server.stats();
    ops.failed += stats.get("jobs_shed").unwrap_or(0) + stats.get("jobs_failed").unwrap_or(0);
    Ok(())
}

/// The untraced run: every end-to-end metric of one workload.
fn end_to_end(workload: &'static Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut detail = common_detail(workload, seed, seconds);
    let (fixture, setups) = set_up_repeated(workload, seed)?;
    // Memory is judged over the measured phases only: the generators'
    // transient edge lists are the harness's, not the system's.
    detail.push(("setup_peak_heap_mb", Value::Num(alloc::peak_mb())));
    alloc::reset_peak();
    let mut m = Emitted::new(&END_TO_END);
    let mut ops = Operations::default();

    let library_seconds = match &fixture.server {
        Some(server) => {
            let wire_seconds = seconds * WIRE_SHARE;
            measure_wire(
                &fixture,
                server,
                seed,
                wire_seconds,
                &mut m,
                &mut detail,
                &mut ops,
            )?;
            seconds - wire_seconds
        }
        None => seconds,
    };

    let lib = library::interleaved(&fixture, seed, Duration::from_secs_f64(library_seconds))
        .map_err(|e| e.to_string())?;
    ops.attempted += lib.attempted;
    ops.failed += lib.failed;
    let solved = lib.summary();
    let n = lib.warm_ms.len();
    m.set("solve_warm_ms", solved.warm_ms, n);
    m.set("solve_cold_ms", solved.cold_ms, n);
    m.set("ratio_vs_dijkstra", solved.warm_ms / solved.dijkstra_ms, n);
    if fixture.server.is_none() {
        // A library workload's request is one warm solve.
        let mut sorted = lib.warm_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let busy_s: f64 = sorted.iter().sum::<f64>() / 1e3;
        m.set("throughput_rps", n as f64 / busy_s, n);
        m.set("latency_p50_ms", stats::percentile_sorted(&sorted, 50.0), n);
        m.set("latency_p90_ms", stats::percentile_sorted(&sorted, 90.0), n);
        detail.push((
            "supported_percentile",
            opt(stats::highest_supported_percentile(n)),
        ));
    }
    fixture.shutdown();

    m.set("setup_s", stats::median(&setups), setups.len());
    m.set("peak_heap_mb", alloc::peak_mb(), 1);
    detail.push(("setup_s_each", nums(&setups)));
    detail.push(("vm_hwm_mb", opt(env::peak_rss_mb())));
    finish(m, ops, detail)
}

/// The traced run: every per-layer metric of one workload, plus the span
/// file.
fn per_layer(workload: &'static Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut detail = common_detail(workload, seed, seconds);
    let fixture = set_up(workload, seed)?;
    let measured = layers::measure(&fixture, seed, seconds);
    fixture.shutdown();
    let report = measured?;
    let path = suite::out_dir()?.join(format!("trace-{}.json", workload.name));
    std::fs::write(&path, format!("{}\n", report.tracer.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    detail.push(("spans", Value::from(report.tracer.spans.len())));
    detail.push(("span_file", Value::str(path.display().to_string())));
    let stages = report
        .stages
        .iter()
        .map(|&(name, ms)| (name, Value::Num(ms)));
    detail.push(("stages_ms", Value::obj(stages)));
    let ops = Operations {
        attempted: report.attempted,
        failed: report.failed,
    };
    finish(report.metrics, ops, detail)
}

fn finish(metrics: Emitted, ops: Operations, detail: Detail) -> Result<Outcome, String> {
    let rows = metrics
        .finish()
        .map_err(|missing| format!("harness bug: metrics never set: {}", missing.join(", ")))?;
    let finite = rows.iter().all(|(_, v, _)| v.is_finite());
    Ok(Outcome {
        correct: ops.failed == 0 && ops.attempted > 0 && finite,
        attempted: ops.attempted,
        failed: ops.failed,
        rows,
        detail: Value::obj(detail),
    })
}

/// Print an outcome: one `name = value unit` line per metric for people,
/// the `detail:` line for the suite commands, and last the contract's
/// result object.
fn print_outcome(o: &Outcome) {
    for (m, value, samples) in &o.rows {
        println!(
            "{:<40} = {:>14.4} {:<9} (n={samples})",
            m.name, value, m.unit
        );
    }
    println!(
        "operations: attempted={} succeeded={} failed={}",
        o.attempted,
        o.attempted - o.failed,
        o.failed
    );
    println!("detail: {}", o.detail);
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(o.correct)),
            ("attempted", Value::from(o.attempted)),
            ("failed", Value::from(o.failed)),
            ("metrics", metrics_json(&o.rows)),
        ])
    );
}

/// `--name value` pairs after an optional subcommand.
pub struct Args {
    pairs: Vec<(String, String)>,
    /// `--quick`: the only flag that takes no value.
    quick: bool,
    pub positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            pairs: Vec::new(),
            quick: false,
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => args.quick = true,
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.pairs.push((name.to_string(), value.clone()));
                }
                None => args.positional.push(a.clone()),
            }
        }
        Ok(args)
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.pairs.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for --{name}: '{v}'")),
        }
    }

    /// Seed and window shared by the suite commands.
    pub fn seed_and_seconds(&self) -> Result<(u64, f64), String> {
        let default_seconds = if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let seconds = self.get("seconds")?.unwrap_or(default_seconds);
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err(format!("--seconds must be in (0, 60], got {seconds}"));
        }
        Ok((self.get("seed")?.unwrap_or(DEFAULT_SEED), seconds))
    }
}

const USAGE: &str = "usage:
  sssp-benchmark --workload NAME --seed N --seconds S --trace 0|1
  sssp-benchmark run     [--seed N] [--seconds S | --quick]
  sssp-benchmark trace   [--seed N] [--seconds S | --quick]
  sssp-benchmark repeat N [--seed N] [--seconds S | --quick]
  sssp-benchmark compare A.json B.json
workloads: hot-rmat hot-road churn-rmat solve-large";

fn contract_form(args: &Args) -> Result<bool, String> {
    let name: String = args.get("workload")?.ok_or("--workload is required")?;
    let workload = workload::find(&name).ok_or(format!("unknown workload '{name}'"))?;
    let (seed, seconds) = args.seed_and_seconds()?;
    let outcome = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => end_to_end(workload, seed, seconds)?,
        1 => per_layer(workload, seed, seconds)?,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    print_outcome(&outcome);
    Ok(outcome.correct)
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &raw[1..]),
        _ => ("", raw),
    };
    let args = Args::parse(rest)?;
    match command {
        "" if raw.is_empty() => Err(USAGE.to_string()),
        "" => contract_form(&args),
        "run" => suite::run(&args),
        "trace" => suite::trace(&args),
        "repeat" => suite::repeat(&args),
        "compare" => compare::command(&args),
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    alloc::settle_malloc_thresholds();
    alloc::reset_peak();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        // Results were printed, but an answer was wrong or a bound broken.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sssp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
