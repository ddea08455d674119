//! `sssp` — command-line single-source shortest paths.
//!
//! Loads a graph (Matrix Market, SNAP TSV, or the crate's binary format,
//! chosen by extension or `--format`), runs the selected implementation,
//! and prints distances (or a summary). A run takes one of two doors:
//! `fused` / `improved`, with any `--strategy`, run as one job through
//! `sssp_core::batch::run_job` (the door `--sources` and `sssp-serve`
//! use); the paper-figure names run through `sssp_core::run_checked`.
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

use graphdata::{io as gio, CsrGraph, EdgeList, WeightModel};
use sssp_core::batch::{run_job, Job, JobOutcome};
use sssp_core::delta::DeltaStrategy;
use sssp_core::engine::SsspEngine;
use sssp_core::{
    bellman_ford, dijkstra, run_checked, validate, BatchConfig, BatchOutcome, BatchRunner,
    GuardConfig, Implementation, Kernels, SsspError, SsspResult, SteppingStrategy,
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
    /// Per-run (or, with `--sources`, per-job) wall-clock budget of the
    /// stepping door: `fused` / `improved` only.
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
}

const USAGE: &str = "\
usage: sssp [INPUT] [options]

input (one of):
  INPUT                    graph file: .mtx (Matrix Market), .tsv/.txt (SNAP), .bin
  --format mm|tsv|bin      override format detection
  --gen SPEC               synthetic graph instead of a file:
                           grid:WxH | er:N,M | rmat:SCALE,EF | ba:N,M | path:N | cycle:N
                           (at most 2^24 vertices plus edges: rmat:20,16 and
                           grid:2048x2048 are refused, exit 1)

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
  --deadline-ms MS         wall-clock budget per run/job of --impl fused or
                           improved (or --sources); a run stopped by the
                           deadline reports a certified partial result and
                           exits 5
  --batch-workers N        --sources: worker threads draining the batch
                           (default 2)
  --checkpoint-dir DIR     --sources only: persist budget-stopped jobs to
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
    if o.checkpoint_dir.is_some() && o.sources.is_empty() {
        return Err("--checkpoint-dir applies to --sources runs only".to_string());
    }
    Ok(o)
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

/// One source, one of two doors: `fused` / `improved` (any `--strategy`)
/// run as one job on the job door, the figure names through
/// `run_checked`; the two baselines are plain calls.
fn run(o: &Options, g: &CsrGraph, delta: f64) -> Result<SsspResult, Failure> {
    if let Ok(kernels) = o.implementation.parse::<Kernels>() {
        return run_stepping_job(o, g, delta, kernels);
    }
    if o.strategy != SteppingStrategy::Classic {
        return Err(Failure::Usage(format!(
            "--strategy {} supports --impl fused or improved, got '{}'",
            o.strategy, o.implementation
        )));
    }
    if o.deadline_ms.is_some() {
        return Err(Failure::Usage(format!(
            "--deadline-ms applies to --impl fused or improved (or --sources), got '{}'",
            o.implementation
        )));
    }
    if let Some(imp) = Implementation::parse(&o.implementation) {
        let pool = imp.is_parallel().then(|| thread_pool(o)).transpose()?;
        let cfg = GuardConfig::default();
        let (result, _) =
            run_checked(imp, g, o.source, delta, pool.as_ref(), &cfg).map_err(Failure::Sssp)?;
        return Ok(result);
    }
    Ok(match o.implementation.as_str() {
        "dijkstra" => dijkstra::dijkstra(g, o.source),
        "bellman-ford" => bellman_ford::bellman_ford(g, o.source),
        other => return Err(Failure::Usage(format!("unknown --impl '{other}'\n\n{USAGE}"))),
    })
}

/// The `--threads` pool of a pooled run.
fn thread_pool(o: &Options) -> Result<ThreadPool, Failure> {
    ThreadPool::with_threads(o.threads).map_err(|e| Failure::Input(e.to_string()))
}

/// A single-source `fused` / `improved` run: one job on the job door —
/// the degradation ladder and the `--deadline-ms` budget — without a
/// checkpoint directory.
fn run_stepping_job(
    o: &Options,
    g: &CsrGraph,
    delta: f64,
    kernels: Kernels,
) -> Result<SsspResult, Failure> {
    let pool = (kernels == Kernels::Pooled).then(|| thread_pool(o)).transpose()?;
    let guard = GuardConfig::default();
    let job = Job {
        source: o.source,
        kernels,
        delta,
        strategy: o.strategy,
        guard: &guard,
        deadline: o.deadline_ms.map(Duration::from_millis),
        cancel: None,
        progress: None,
    };
    match run_job(&mut SsspEngine::new(g), pool.as_ref(), None, &job, None) {
        JobOutcome::Complete { result, degraded, .. } => {
            if let Some(msg) = degraded {
                eprintln!("warning: run degraded to the sequential fused path ({msg})");
            }
            Ok(result)
        }
        JobOutcome::Partial { stop, .. } => Err(Failure::Partial(stop)),
        JobOutcome::Failed { error } => Err(Failure::Sssp(error)),
    }
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
    println!(
        "batch: {} complete ({} degraded), {} partial, {} failed, {} rejected in {:?} \
         | split cache: {} build(s), {} hit(s), {} replacement(s), {} resident byte(s)",
        report.completed(),
        report.degraded(),
        report.partial(),
        report.failed(),
        report.rejected(),
        t0.elapsed(),
        report.split_cache.builds,
        report.split_cache.hits,
        report.split_cache.replacements,
        report.split_cache.resident_bytes
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
        (Some(spec), _) => match sssp_serve::protocol::parse_gen_spec(spec) {
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
