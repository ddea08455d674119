//! `sssp` — command-line single-source shortest paths.
//!
//! Loads a graph (Matrix Market, SNAP TSV, or the crate's binary format,
//! chosen by extension or `--format`), runs the selected implementation,
//! and prints distances (or a summary).
//!
//! ```bash
//! sssp --gen grid:64x64 --impl fused --source 0 --summary
//! sssp graph.mtx --impl gblas --delta 1.0
//! sssp edges.tsv --impl parallel --threads 4 --validate
//! ```

use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use graphdata::{gen, io as gio, CsrGraph, EdgeList, WeightModel};
use sssp_core::delta::DeltaStrategy;
use sssp_core::engine::SsspEngine;
use sssp_core::repro::{gblas_parallel, gblas_select};
use sssp_core::{
    bellman_ford, dijkstra, run_with_budget, validate, BatchConfig,
    BatchOutcome, BatchRunner, GuardConfig, Implementation, Kernels, RunBudget, SsspError,
    SsspResult, SteppingStrategy,
};
use taskpool::ThreadPool;

/// Exit codes: each failure class gets its own, so scripts can tell a
/// typo from a broken input file from a solver-level rejection.
const EXIT_USAGE: u8 = 1;
/// Input could not be loaded or is not a valid graph.
const EXIT_INPUT: u8 = 2;
/// The solver rejected the run ([`SsspError`]) or its result failed
/// certificate validation.
const EXIT_SSSP: u8 = 3;
/// An internal panic was caught at the top level (always a bug).
const EXIT_PANIC: u8 = 4;
/// The run was stopped by its deadline/cancellation budget but left a
/// certified partial result (checkpoint) behind.
const EXIT_PARTIAL: u8 = 5;

/// A CLI failure: what to print and which exit code to use.
enum Failure {
    Usage(String),
    Input(String),
    Sssp(SsspError),
    /// A budget stop carrying a checkpoint: reported as a partial
    /// result, not a hard failure.
    Partial(SsspError),
}

impl Failure {
    fn report(self) -> ExitCode {
        match self {
            Failure::Usage(msg) => {
                eprintln!("{msg}");
                ExitCode::from(EXIT_USAGE)
            }
            Failure::Input(msg) => {
                eprintln!("error: {msg}");
                ExitCode::from(EXIT_INPUT)
            }
            Failure::Sssp(e) => {
                eprintln!("error: {e}");
                ExitCode::from(EXIT_SSSP)
            }
            Failure::Partial(e) => {
                eprintln!("partial: {e}");
                if let Some(cp) = e.checkpoint() {
                    eprintln!(
                        "partial: {} distances certified final below {}; \
                         rerun with a larger --deadline-ms to finish",
                        cp.settled_count(),
                        cp.settled_below()
                    );
                }
                ExitCode::from(EXIT_PARTIAL)
            }
        }
    }
}

/// Budget stops that carry a checkpoint are partial results (exit 5);
/// everything else is a solver rejection (exit 3).
fn sssp_failure(e: SsspError) -> Failure {
    if e.checkpoint().is_some() {
        Failure::Partial(e)
    } else {
        Failure::Sssp(e)
    }
}

/// `--delta` argument: an explicit width (including degenerate values the
/// solver will reject) or the Meyer–Sanders rule, resolved once the graph
/// is loaded. A distinct variant — not a NaN sentinel — so a user-typed
/// `--delta nan` still reaches preflight and is rejected there.
#[derive(Clone, Copy)]
enum DeltaArg {
    Value(f64),
    /// A derived rule (`ms` = Meyer–Sanders, `adaptive` = load-time
    /// sampling), resolved once the graph is loaded.
    Strategy(DeltaStrategy),
}

struct Options {
    input: Option<String>,
    format: Option<String>,
    generate: Option<String>,
    implementation: String,
    source: usize,
    /// Multi-source mode (`--sources`): every listed source is a job on
    /// the [`BatchRunner`], so the light/heavy split is built once.
    sources: Vec<usize>,
    delta: Option<DeltaArg>,
    /// Frontier-extraction strategy: classic Δ-buckets (default), or the
    /// generalized ρ-stepping / Δ*-stepping loops. Applies to the
    /// stepping family (fused/improved), single-source or `--sources`.
    strategy: SteppingStrategy,
    /// Per-run (or, with `--sources`, per-job) wall-clock budget.
    deadline_ms: Option<u64>,
    /// `--sources`: worker threads draining the [`BatchRunner`] queue.
    batch_workers: usize,
    /// Durable checkpoints: budget-stopped `--sources` jobs persist to
    /// `<dir>/ckpt-<source>.bin` and a rerun resumes from those files.
    checkpoint_dir: Option<PathBuf>,
    threads: usize,
    symmetrize: bool,
    unit_weights: bool,
    random_weights: bool,
    validate: bool,
    summary: bool,
    /// Extend the `--sources` split-cache report with eviction count
    /// and resident bytes.
    verbose: bool,
}

const USAGE: &str = "\
usage: sssp [INPUT] [options]

input (one of):
  INPUT                    graph file: .mtx (Matrix Market), .tsv/.txt (SNAP), .bin
  --format mm|tsv|bin      override format detection
  --gen SPEC               synthetic graph instead of a file:
                           grid:WxH | er:N,M | rmat:SCALE,EF | ba:N,M | path:N | cycle:N

options:
  --impl NAME              dijkstra | bellman-ford | delta/canonical | gblas |
                           gblas-select | gblas-parallel | fused (default) |
                           parallel | improved
  --source V               source vertex (default 0)
  --sources V1,V2,...      run several sources as one batch (the light/heavy
                           split is built once and shared); prints a
                           per-source summary. --impl fused or improved
                           only; a panicking job retries once on the
                           sequential kernels
  --deadline-ms MS         wall-clock budget per run/job; a run stopped by
                           the deadline reports a certified partial result
                           and exits 5
  --batch-workers N        --sources: worker threads draining the batch
                           (default 2)
  --checkpoint-dir DIR     --sources: persist budget-stopped jobs to
                           DIR/ckpt-<source>.bin and resume from existing
                           files, so a rerun finishes exactly where a
                           deadline-stopped run left off
  --delta X                bucket width (default: 1.0; 'ms' = Meyer-Sanders rule;
                           'adaptive' = sampled weight/degree rule)
  --strategy NAME          frontier extraction: classic (default) |
                           rho[:N] (the N nearest tentative vertices, default
                           2048) | delta-star[:K] (fuse K consecutive buckets,
                           default 4). rho/delta-star apply to --impl fused
                           or improved, sequential or pooled, and are
                           bit-identical across thread counts
  --threads T              pool size for parallel impls (default 4)
  --symmetrize             add reverse edges
  --unit-weights           overwrite weights with 1.0
  --random-weights         uniform weights in [0.1, 1.0), symmetric
  --validate               check the SSSP optimality certificate
  --summary                print statistics instead of every distance
  --verbose                --sources: extend the split-cache report with
                           eviction count and resident bytes
  --help                   this text

exit codes:
  1 usage error | 2 bad input graph | 3 solver rejected the run |
  4 internal panic | 5 deadline hit, certified partial result reported
";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        input: None,
        format: None,
        generate: None,
        implementation: "fused".into(),
        source: 0,
        sources: Vec::new(),
        delta: None,
        strategy: SteppingStrategy::Classic,
        deadline_ms: None,
        batch_workers: 2,
        checkpoint_dir: None,
        threads: 4,
        symmetrize: false,
        unit_weights: false,
        random_weights: false,
        validate: false,
        summary: false,
        verbose: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, what: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value for {what}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--format" => o.format = Some(value(&mut i, "--format")?),
            "--gen" => o.generate = Some(value(&mut i, "--gen")?),
            "--impl" => o.implementation = value(&mut i, "--impl")?,
            "--source" => {
                o.source = value(&mut i, "--source")?
                    .parse()
                    .map_err(|_| "bad --source".to_string())?
            }
            "--sources" => {
                o.sources = value(&mut i, "--sources")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|_| "bad --sources".to_string()))
                    .collect::<Result<Vec<usize>, String>>()?;
                if o.sources.is_empty() {
                    return Err("bad --sources: need at least one vertex".to_string());
                }
            }
            "--delta" => {
                let v = value(&mut i, "--delta")?;
                o.delta = Some(match v.as_str() {
                    "ms" => DeltaArg::Strategy(DeltaStrategy::MeyerSanders),
                    "adaptive" => DeltaArg::Strategy(DeltaStrategy::Adaptive),
                    _ => DeltaArg::Value(v.parse().map_err(|_| "bad --delta".to_string())?),
                });
            }
            "--strategy" => {
                o.strategy = SteppingStrategy::parse(&value(&mut i, "--strategy")?)
                    .map_err(|e| format!("bad --strategy: {e}"))?;
            }
            "--deadline-ms" => {
                o.deadline_ms = Some(
                    value(&mut i, "--deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms".to_string())?,
                );
            }
            "--batch-workers" => {
                let n: usize = value(&mut i, "--batch-workers")?
                    .parse()
                    .map_err(|_| "bad --batch-workers".to_string())?;
                if n == 0 {
                    return Err("bad --batch-workers: need at least one worker".to_string());
                }
                o.batch_workers = n;
            }
            "--checkpoint-dir" => {
                o.checkpoint_dir = Some(PathBuf::from(value(&mut i, "--checkpoint-dir")?));
            }
            "--threads" => {
                o.threads = value(&mut i, "--threads")?
                    .parse()
                    .map_err(|_| "bad --threads".to_string())?;
                if o.threads == 0 {
                    return Err("bad --threads: need at least one thread".to_string());
                }
            }
            "--symmetrize" => o.symmetrize = true,
            "--unit-weights" => o.unit_weights = true,
            "--random-weights" => o.random_weights = true,
            "--validate" => o.validate = true,
            "--summary" => o.summary = true,
            "--verbose" => o.verbose = true,
            other if !other.starts_with('-') && o.input.is_none() => {
                o.input = Some(other.to_string())
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
        i += 1;
    }
    if o.input.is_none() && o.generate.is_none() {
        return Err(format!("no input given\n\n{USAGE}"));
    }
    Ok(o)
}

fn generate(spec: &str) -> Result<EdgeList, String> {
    let (kind, params) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --gen spec '{spec}'"))?;
    let nums = |sep: char| -> Result<Vec<usize>, String> {
        params
            .split(sep)
            .map(|t| t.parse().map_err(|_| format!("bad number in '{spec}'")))
            .collect()
    };
    match kind {
        "grid" => {
            let d = nums('x')?;
            if d.len() != 2 {
                return Err("grid needs WxH".into());
            }
            Ok(gen::grid2d(d[0], d[1]))
        }
        "er" => {
            let d = nums(',')?;
            if d.len() != 2 {
                return Err("er needs N,M".into());
            }
            Ok(gen::gnm(d[0], d[1], 42))
        }
        "rmat" => {
            let d = nums(',')?;
            if d.len() != 2 {
                return Err("rmat needs SCALE,EDGEFACTOR".into());
            }
            Ok(gen::rmat(gen::RmatParams::graph500(d[0] as u32, d[1]), 42))
        }
        "ba" => {
            let d = nums(',')?;
            if d.len() != 2 {
                return Err("ba needs N,M".into());
            }
            Ok(gen::barabasi_albert(d[0], d[1], 42))
        }
        "path" => Ok(gen::path(nums(',')?[0])),
        "cycle" => Ok(gen::cycle(nums(',')?[0])),
        other => Err(format!("unknown generator '{other}'")),
    }
}

fn load(path: &str, format: Option<&str>) -> Result<EdgeList, String> {
    let fmt = match format {
        Some(f) => f.to_string(),
        None => match path.rsplit_once('.').map(|(_, e)| e) {
            Some("mtx") => "mm".into(),
            Some("tsv") | Some("txt") | Some("el") => "tsv".into(),
            Some("bin") => "bin".into(),
            _ => return Err(format!("cannot infer format of '{path}'; use --format")),
        },
    };
    let err = |e: graphdata::GraphError| e.to_string();
    match fmt.as_str() {
        "mm" => {
            let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
            gio::read_matrix_market(BufReader::new(f)).map_err(err)
        }
        "tsv" => {
            let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
            gio::read_snap_tsv(BufReader::new(f)).map_err(err)
        }
        "bin" => {
            let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
            gio::read_binary(&bytes).map_err(err)
        }
        other => Err(format!("unknown format '{other}'")),
    }
}

fn run(o: &Options, g: &CsrGraph, delta: f64) -> Result<SsspResult, Failure> {
    // Generalized strategies (rho / delta-star) run through the engine's
    // stepping entry point — sequential for fused, pooled for improved —
    // with the same preflight and budget discipline as the classic path.
    if o.strategy != SteppingStrategy::Classic {
        let owned_pool;
        let pool = match o.implementation.as_str() {
            "fused" => None,
            "improved" | "parallel-improved" => {
                owned_pool = ThreadPool::with_threads(o.threads)
                    .map_err(|e| Failure::Input(e.to_string()))?;
                Some(&owned_pool)
            }
            other => {
                return Err(Failure::Usage(format!(
                    "--strategy {} supports --impl fused or improved, got '{other}'",
                    o.strategy
                )))
            }
        };
        let cfg = GuardConfig::default();
        let mut engine = SsspEngine::new(g);
        let delta = engine.preflight(o.source, delta, &cfg).map_err(Failure::Sssp)?;
        let mut budget = RunBudget::for_run(g, delta, &cfg);
        if let Some(ms) = o.deadline_ms {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        let (result, _) = engine
            .run_stepping(pool, o.source, delta, o.strategy, &mut budget)
            .map_err(sssp_failure)?;
        return Ok(result);
    }
    // The five delta-stepping implementations go through the hardened
    // front door: preflight validation, run budget (epoch limit plus the
    // --deadline-ms wall clock), panic degradation. Name parsing is the
    // shared sssp_core FromStr, so the CLI and bench accept identical
    // names.
    if let Ok(imp) = o.implementation.parse::<Implementation>() {
        let owned_pool;
        let pool = if imp.is_parallel() {
            owned_pool = ThreadPool::with_threads(o.threads)
                .map_err(|e| Failure::Input(e.to_string()))?;
            Some(&owned_pool)
        } else {
            None
        };
        let cfg = GuardConfig::default();
        let mut budget = RunBudget::for_run(g, delta, &cfg);
        if let Some(ms) = o.deadline_ms {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        let report = run_with_budget(imp, g, o.source, delta, pool, &cfg, &mut budget)
            .map_err(sssp_failure)?;
        if let Some(msg) = report.degraded {
            eprintln!("warning: run degraded to the sequential fused path ({msg})");
        }
        return Ok(report.result);
    }
    Ok(match o.implementation.as_str() {
        "dijkstra" => dijkstra::dijkstra(g, o.source),
        "bellman-ford" => bellman_ford::bellman_ford(g, o.source),
        "gblas-select" => gblas_select::delta_stepping_gblas_select(g, o.source, delta),
        "gblas-parallel" => {
            let pool =
                ThreadPool::with_threads(o.threads).map_err(|e| Failure::Input(e.to_string()))?;
            gblas_parallel::delta_stepping_gblas_parallel(&pool, g, o.source, delta)
        }
        other => return Err(Failure::Usage(format!("unknown --impl '{other}'\n\n{USAGE}"))),
    })
}

/// `--sources`: every source becomes a job on the resilient
/// [`BatchRunner`] front door — one shared light/heavy split (35–40 % of
/// a cold run), per-job deadline, panic-isolated workers with a one-shot
/// sequential retry, and checkpointed partial results instead of lost
/// work. Exit code: 3 if any job failed outright, 5 if any job ended
/// partial, 0 when everything completed.
fn run_batch(o: &Options, g: &CsrGraph, delta: f64) -> Result<ExitCode, Failure> {
    let kernels = o.implementation.parse::<Kernels>().map_err(|e| {
        Failure::Usage(format!("--sources supports --impl fused or improved: {e}\n\n{USAGE}"))
    })?;
    if let Some(dir) = &o.checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| {
            Failure::Input(format!("cannot create --checkpoint-dir {}: {e}", dir.display()))
        })?;
    }
    let runner = BatchRunner::new(BatchConfig {
        implementation: kernels,
        delta,
        strategy: o.strategy,
        workers: o.batch_workers,
        queue_capacity: o.sources.len(),
        deadline: o.deadline_ms.map(Duration::from_millis),
        cancel: None,
        progress: None,
        guard: GuardConfig::default(),
        pool_threads: o.threads,
        checkpoint_dir: o.checkpoint_dir.clone(),
    });
    let t0 = std::time::Instant::now();
    let report = runner.run(g, &o.sources);
    if let Some(e) = &report.pool_degraded {
        eprintln!("warning: thread pool unavailable ({e}); batch ran on the sequential fused path");
    }
    for path in &report.quarantined {
        eprintln!("warning: quarantined corrupt checkpoint data: {}", path.display());
    }
    for (source, outcome) in &report.jobs {
        match outcome {
            BatchOutcome::Complete { result, degraded, .. } => {
                if let Some(msg) = degraded {
                    eprintln!("warning: source {source} degraded to sequential fused ({msg})");
                }
                if o.validate {
                    validate::check_certificate(g, result, 1e-9).map_err(|e| {
                        Failure::Input(format!("validation failed for source {source}: {e:?}"))
                    })?;
                }
                println!(
                    "source {source}: reaches {} vertices, eccentricity {:?}, {} relaxations",
                    result.reachable_count(),
                    result.eccentricity(),
                    result.stats.relaxations
                );
            }
            BatchOutcome::Partial { reason, saved_to, .. } => {
                let checkpoint = outcome.checkpoint().expect("a partial job has a checkpoint");
                println!(
                    "source {source}: PARTIAL — {} of {} distances certified below {} ({reason})",
                    checkpoint.settled_count(),
                    g.num_vertices(),
                    checkpoint.settled_below()
                );
                if let Some(path) = saved_to {
                    println!(
                        "source {source}: checkpoint saved to {}; rerun with the same \
                         --checkpoint-dir to resume",
                        path.display()
                    );
                }
            }
            BatchOutcome::Failed { error } => {
                println!("source {source}: FAILED — {error}");
            }
            BatchOutcome::Rejected { queue_capacity } => {
                println!("source {source}: REJECTED (queue capacity {queue_capacity})");
            }
        }
    }
    let cache_detail = if o.verbose {
        format!(
            ", {} eviction(s), {} resident byte(s)",
            report.split_cache.evictions, report.split_cache.resident_bytes
        )
    } else {
        String::new()
    };
    println!(
        "batch: {} complete ({} degraded), {} partial, {} failed, {} rejected in {:?} \
         | split cache: {} build(s), {} hit(s){cache_detail}",
        report.completed(),
        report.degraded(),
        report.partial(),
        report.failed(),
        report.rejected(),
        t0.elapsed(),
        report.split_cache.builds,
        report.split_cache.hits
    );
    Ok(if report.failed() > 0 || report.rejected() > 0 {
        ExitCode::from(EXIT_SSSP)
    } else if report.partial() > 0 {
        ExitCode::from(EXIT_PARTIAL)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    // No panic may reach the user as a raw backtrace: replace the hook
    // with a one-line report and map caught panics to a distinct code.
    std::panic::set_hook(Box::new(|info| {
        let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
            s
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.as_str()
        } else {
            "unexpected internal failure"
        };
        eprintln!("sssp: internal error: {message}");
    }));
    match std::panic::catch_unwind(real_main) {
        Ok(code) => code,
        Err(_) => ExitCode::from(EXIT_PANIC),
    }
}

fn real_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => return Failure::Usage(msg).report(),
    };
    let mut el = match (&o.generate, &o.input) {
        (Some(spec), _) => match generate(spec) {
            Ok(el) => el,
            Err(e) => return Failure::Usage(format!("error: {e}")).report(),
        },
        (None, Some(path)) => match load(path, o.format.as_deref()) {
            Ok(el) => el,
            Err(e) => return Failure::Input(e).report(),
        },
        (None, None) => unreachable!("parse_args enforces an input"),
    };
    if o.symmetrize {
        el.symmetrize();
    }
    if o.unit_weights {
        el.make_unit_weight();
    }
    if o.random_weights {
        graphdata::weights::assign_symmetric(
            &mut el,
            WeightModel::UniformFloat { lo: 0.1, hi: 1.0 },
            42,
        );
    }
    let g = match CsrGraph::from_edge_list(&el) {
        Ok(g) => g,
        Err(e) => return Failure::Input(e.to_string()).report(),
    };
    if o.source >= g.num_vertices() {
        return Failure::Sssp(SsspError::SourceOutOfBounds {
            source: o.source,
            num_vertices: g.num_vertices(),
        })
        .report();
    }
    let delta = match o.delta {
        Some(DeltaArg::Strategy(s)) => match s.resolve(&g) {
            Ok(d) => d,
            Err(e) => return Failure::Sssp(e).report(),
        },
        Some(DeltaArg::Value(d)) => d,
        None => 1.0,
    };

    if !o.sources.is_empty() {
        return match run_batch(&o, &g, delta) {
            Ok(code) => code,
            Err(f) => f.report(),
        };
    }

    let t0 = std::time::Instant::now();
    let result = match run(&o, &g, delta) {
        Ok(r) => r,
        Err(f) => return f.report(),
    };
    let elapsed = t0.elapsed();

    if o.validate {
        if let Err(e) = validate::check_certificate(&g, &result, 1e-9) {
            eprintln!("VALIDATION FAILED: {e:?}");
            return ExitCode::from(EXIT_SSSP);
        }
        eprintln!("certificate: OK");
    }

    if o.summary {
        println!(
            "graph: {} vertices, {} edges | impl: {} | delta: {delta}",
            g.num_vertices(),
            g.num_edges(),
            o.implementation
        );
        println!(
            "source {} reaches {} vertices; eccentricity {:?}",
            o.source,
            result.reachable_count(),
            result.eccentricity()
        );
        println!(
            "stats: {} buckets, {} light phases, {} relaxations, {} improvements",
            result.stats.buckets_processed,
            result.stats.light_phases,
            result.stats.relaxations,
            result.stats.improvements
        );
        println!("time: {elapsed:?}");
    } else {
        for (v, d) in result.dist.iter().enumerate() {
            if d.is_finite() {
                println!("{v}\t{d}");
            } else {
                println!("{v}\tinf");
            }
        }
    }
    ExitCode::SUCCESS
}
