//! The suite commands: every workload in a fresh child process (so one
//! workload's heap, page cache and peak RSS never leak into the next),
//! results gathered into one JSON file under `benchmark/out/`.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::compare::{count_mismatches, print_rows, rows, Verdict};
use crate::json::{self, Value};
use crate::workload;
use crate::Args;

/// `benchmark/out/` under the current directory, which must be the
/// repository root (where `BENCHMARK.json`'s command runs).
pub fn out_dir() -> Result<PathBuf, String> {
    if !std::path::Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root: benchmark/Cargo.toml not found here".into());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run one workload in a child process in contract form; echo its report
/// and return its result object with the `detail` merged in.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Value::Null;
    let mut last = "";
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        match line.strip_prefix("detail: ") {
            Some(d) => {
                detail = json::parse(d).map_err(|e| format!("{name}: bad detail line: {e}"))?
            }
            None => {
                if !line.starts_with('{') {
                    println!("  {line}");
                }
                last = line;
            }
        }
    }
    // Exit 1 still carries a result (an incorrect one); anything else
    // means the child died before reporting.
    let Ok(Value::Obj(mut result)) = json::parse(last) else {
        return Err(format!(
            "{name}: child exited with {} and no result line",
            output.status
        ));
    };
    result.push(("detail".to_string(), detail));
    Ok(Value::Obj(result))
}

/// One pass over every workload: `{"workloads": {name: result, …}}`.
fn pass(seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let mut results = Vec::new();
    for w in &workload::ALL {
        let mode = if trace { "traced" } else { "untraced" };
        println!(
            "== {} ({mode}, seed {seed}, {seconds} s): {}",
            w.name, w.why
        );
        results.push((w.name, child(w.name, seed, seconds, trace)?));
    }
    Ok(Value::obj([("workloads", Value::obj(results))]))
}

fn all_correct(runs: &[Value]) -> bool {
    runs.iter().all(|run| {
        run.get("workloads")
            .and_then(Value::as_obj)
            .is_some_and(|ws| {
                ws.iter()
                    .all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true))
            })
    })
}

fn write_results(
    file: &str,
    kind: &str,
    seed: u64,
    seconds: f64,
    runs: &[Value],
) -> Result<(), String> {
    let path = out_dir()?.join(file);
    let doc = Value::obj([
        ("kind", Value::str(kind)),
        ("seed", Value::from(seed)),
        ("seconds", Value::Num(seconds)),
        ("claim", Value::Null),
        ("runs", Value::Arr(runs.to_vec())),
    ]);
    std::fs::write(&path, format!("{doc:#}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Gather the children's span files into `trace.json`, keyed by workload.
fn merge_span_files() -> Result<(), String> {
    let dir = out_dir()?;
    let mut merged = Vec::new();
    for w in &workload::ALL {
        let path = dir.join(format!("trace-{}.json", w.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        merged.push((
            w.name,
            json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        ));
    }
    let path = dir.join("trace.json");
    std::fs::write(&path, format!("{:#}\n", Value::obj(merged)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `run`: the untraced pass, every end-to-end metric of every workload.
pub fn run(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = args.seed_and_seconds()?;
    let runs = [pass(seed, seconds, false)?];
    write_results("run.json", "run", seed, seconds, &runs)?;
    Ok(all_correct(&runs))
}

/// `trace`: the traced pass, every per-layer metric plus `trace.json`.
pub fn trace(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = args.seed_and_seconds()?;
    let runs = [pass(seed, seconds, true)?];
    write_results("layers.json", "trace", seed, seconds, &runs)?;
    merge_span_files()?;
    Ok(all_correct(&runs))
}

/// `repeat N`: the whole suite N times on this commit, then the check a
/// comparison between two commits would get — first half of the runs
/// against the second half, plus bit-identity of the exact counts. The
/// benchmark must agree with itself before it can judge a change.
pub fn repeat(args: &Args) -> Result<bool, String> {
    let n: usize = match args.positional.as_slice() {
        [n] => n
            .parse()
            .map_err(|_| format!("repeat takes a count, got '{n}'"))?,
        _ => return Err("repeat takes one count: repeat N".into()),
    };
    if n < 2 {
        return Err("repeat needs at least 2 runs to compare".into());
    }
    let (seed, seconds) = args.seed_and_seconds()?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0..n {
        println!("#### repeat {} of {n}", i + 1);
        untraced.push(pass(seed, seconds, false)?);
        traced.push(pass(seed, seconds, true)?);
    }
    write_results("repeat.json", "repeat", seed, seconds, &untraced)?;
    write_results("repeat-layers.json", "repeat-trace", seed, seconds, &traced)?;

    let (first, second) = untraced.split_at(n / 2);
    let table = rows(first, second);
    print_rows(&table);
    let mismatches = count_mismatches(&traced);
    for (workload, metric, values) in &mismatches {
        println!("count differs between runs: {workload} {metric} {values:?}");
    }
    let agreed = table.iter().all(|r| r.verdict == Verdict::Within);
    let correct = all_correct(&untraced) && all_correct(&traced);
    println!(
        "self-check: end-to-end {}, exact counts {}, operations {}",
        if agreed {
            "agree within bounds"
        } else {
            "DISAGREE"
        },
        if mismatches.is_empty() {
            "bit-identical"
        } else {
            "DIFFER"
        },
        if correct { "all correct" } else { "FAILED" },
    );
    Ok(agreed && mismatches.is_empty() && correct)
}
