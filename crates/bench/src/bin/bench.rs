//! Perf-regression harness: run the fig3/fig4 workloads (plus the
//! bench-only road graphs) across the fused, forced-push, and
//! direction-optimized request-buffer entries, emit
//! `BENCH_sssp.json`, and optionally diff against a committed baseline.
//!
//! Usage:
//!   cargo run -p sssp-bench --release --bin bench -- [FLAGS]
//!
//! Flags:
//!   --smoke             run only the smoke-scale suite (CI mode; the
//!                       default runs smoke + default scales so the
//!                       emitted baseline covers both)
//!   --threads N         worker threads for the parallel entries (default 4)
//!   --out PATH          where to write the JSON document (default
//!                       BENCH_sssp.json; suppressed in --check mode
//!                       unless given explicitly)
//!   --check PATH        compare this run against a committed baseline;
//!                       exits non-zero if a deterministic SsspStats
//!                       counter or push/pull epoch count drifted or a
//!                       baseline row is missing
//!                       (wall times are information, never compared)
//!
//! The paper's figures and their `results/*` artifacts come from the
//! `figures` binary.

use graphdata::SuiteScale;
use sssp_bench::experiments::{baseline, stepping};
use sssp_bench::{markdown_table, Reps};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.windows(2)
        .find(|pair| pair[0] == name)
        .map(|pair| pair[1].clone())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads: usize = flag_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads expects a positive integer"))
        .unwrap_or(4);
    assert!(threads > 0, "--threads expects a positive integer");
    let check_path = flag_value(&args, "--check");
    let out_path = flag_value(&args, "--out");

    let scales: &[SuiteScale] = if smoke {
        &[SuiteScale::Smoke]
    } else {
        &[SuiteScale::Smoke, SuiteScale::Default]
    };
    println!(
        "BENCH: fused vs improved-push vs improved (delta = 1, unit weights)"
    );
    println!("threads: {threads}, scales: {}\n", if smoke { "smoke" } else { "smoke+default" });

    let mut entries = Vec::new();
    for &scale in scales {
        // Smoke graphs finish in microseconds, so medians there need many
        // more samples to mean anything.
        let reps = match scale {
            SuiteScale::Smoke => Reps { warmup: 3, samples: 15 },
            _ => Reps { warmup: 1, samples: 3 },
        };
        entries.extend(baseline::run(scale, threads, reps));
    }
    println!("{}", markdown_table(&baseline::console_rows(&entries)));

    // Headline: per-graph speedup of the direction oracle over forced
    // push at the same thread count (minima: stable on shared machines).
    for chunk in entries.chunks(3) {
        let (push, improved) = (&chunk[1], &chunk[2]);
        if improved.min_ms > 0.0 {
            let (push_epochs, pull_epochs) = improved.directions.unwrap_or((0, 0));
            println!(
                "{}/{}: direction oracle vs forced push {:.2}x ({} push / {} pull epochs)",
                push.scale,
                push.graph,
                push.min_ms / improved.min_ms,
                push_epochs,
                pull_epochs
            );
        }
    }

    // Generalized-stepping strategy gate: real-weighted rmat/er graphs,
    // one row per strategy. Grouped after the baseline headline so the
    // chunks(3) walk above only ever sees baseline rows.
    let heavy = stepping::HEAVY_DELTA;
    println!(
        "\nSTEPPING: fused vs classic vs rho:{} vs delta-star:{} (delta = {}, and {heavy} without \
         rho on the @{heavy} rows; real weights)",
        stepping::RHO,
        stepping::DELTA_STAR_FACTOR,
        stepping::DELTA,
    );
    let mut stepping_entries = Vec::new();
    for &scale in scales {
        let reps = match scale {
            SuiteScale::Smoke => Reps { warmup: 3, samples: 15 },
            _ => Reps { warmup: 1, samples: 3 },
        };
        stepping_entries.extend(stepping::run(scale, threads, reps));
    }
    println!("{}", markdown_table(&baseline::console_rows(&stepping_entries)));
    for rho in stepping_entries.iter().filter(|e| e.impl_name == "stepping-rho") {
        let classic = stepping_entries
            .iter()
            .filter(|e| (&e.scale, &e.graph) == (&rho.scale, &rho.graph))
            .find(|e| e.impl_name == "stepping-classic")
            .expect("every rho row has its graph's classic row");
        println!(
            "{}/{}: rho-stepping does {:.2}x the relaxations of classic delta=1{}",
            rho.scale,
            rho.graph,
            rho.stats.relaxations as f64 / classic.stats.relaxations as f64,
            if rho.min_ms > 0.0 && classic.min_ms > 0.0 {
                format!(" at {:.2}x the time", rho.min_ms / classic.min_ms)
            } else {
                String::new()
            },
        );
    }
    entries.extend(stepping_entries);

    if let Some(path) = &check_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let doc = sssp_bench::report::Json::parse(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let report = baseline::check_against(&doc, &entries);
        if report.passed() {
            println!(
                "\ncheck against {path}: OK (stats, direction counts and row presence; \
                 no timings compared)"
            );
        } else {
            println!("\ncheck against {path}: FAILED");
            for f in &report.failures {
                println!("  drift: {f}");
            }
            std::process::exit(1);
        }
    }

    // In check mode only write when asked to; otherwise refresh the
    // default baseline file.
    let write_target = match (&out_path, &check_path) {
        (Some(p), _) => Some(p.clone()),
        (None, None) => Some("BENCH_sssp.json".to_string()),
        (None, Some(_)) => None,
    };
    if let Some(path) = write_target {
        let doc = baseline::to_document(&entries);
        std::fs::write(&path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }
}
