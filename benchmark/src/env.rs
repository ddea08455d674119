//! What the numbers were measured on: enough to tell two result files
//! apart before comparing them, plus the load check that marks a run
//! `noisy`.

use std::process::Command;

use crate::json::Value;

/// Client connections of the closed loop: callers that wait for their
/// reply, one thread each, never more than the machine has cores — a
/// generator that oversubscribes the box measures its own scheduling.
pub fn connections() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

fn loadavg_1min() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The environment block of a result, captured at start, before the
/// harness itself loads the machine. `noisy` marks a 1-minute load above
/// half the cores: something else is running, so timings are suspect.
pub fn capture() -> Value {
    let nproc = nproc();
    let loadavg = loadavg_1min();
    let cpu_model = proc_field("/proc/cpuinfo", "model name");
    Value::obj([
        ("nproc", Value::from(nproc)),
        ("connections", Value::from(connections())),
        (
            "cpu_model",
            Value::str(cpu_model.unwrap_or_else(|| "unknown".to_string())),
        ),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("loadavg_1min", loadavg.map_or(Value::Null, Value::Num)),
        (
            "noisy",
            Value::Bool(loadavg.is_some_and(|l| l > 0.5 * nproc as f64)),
        ),
    ])
}
