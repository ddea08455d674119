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
//!   --refresh-results   also regenerate the results/*.csv and
//!                       results/*.json files for every experiment at the
//!                       scale in effect, so they can't go stale

use graphdata::SuiteScale;
use sssp_bench::experiments::{
    ablation_select, baseline, datasets, delta_sweep, fig3, fig4, phase_profile, stepping,
};
use sssp_bench::{markdown_table, write_csv, write_json, Reps};

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
    let refresh = args.iter().any(|a| a == "--refresh-results");

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
    let table = baseline::to_table(&entries);
    println!("{}", markdown_table(&baseline::HEADER, &table));

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
    println!(
        "\nSTEPPING: fused vs classic vs rho:{} vs delta-star:{} (delta = {}, real weights)",
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
    let table = baseline::to_table(&stepping_entries);
    println!("{}", markdown_table(&baseline::HEADER, &table));
    for chunk in stepping_entries.chunks(4) {
        let (classic, rho) = (&chunk[1], &chunk[2]);
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

    if refresh {
        let scale = if smoke { SuiteScale::Smoke } else { SuiteScale::Default };
        refresh_results(scale);
    }
}

/// Regenerate every committed `results/` artifact (what the standalone
/// experiment binaries write), so the files track the current code.
fn refresh_results(scale: SuiteScale) {
    let reps = Reps::default();
    println!("\nrefreshing results/ at {scale:?} scale...");

    let rows = fig3::run(scale, reps);
    write_csv("results/fig3.csv", &fig3::HEADER, &fig3::to_table(&rows)).expect("write csv");
    write_json("results/fig3.json", &rows).expect("write json");
    println!("  results/fig3.{{csv,json}}");

    let threads = [1usize, 2, 4, 8];
    let rows = fig4::run(scale, &threads, reps);
    let header = fig4::header(&threads);
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    write_csv("results/fig4.csv", &header_refs, &fig4::to_table(&rows)).expect("write csv");
    write_json("results/fig4.json", &rows).expect("write json");
    println!("  results/fig4.{{csv,json}}");

    let rows = datasets::run(scale);
    write_csv("results/datasets.csv", &datasets::HEADER, &datasets::to_table(&rows))
        .expect("write csv");
    write_json("results/datasets.json", &rows).expect("write json");
    println!("  results/datasets.{{csv,json}}");

    let rows = ablation_select::run(scale, reps);
    write_csv(
        "results/ablation_select.csv",
        &ablation_select::HEADER,
        &ablation_select::to_table(&rows),
    )
    .expect("write csv");
    write_json("results/ablation_select.json", &rows).expect("write json");
    println!("  results/ablation_select.{{csv,json}}");

    let deltas = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];
    let rows = delta_sweep::run(scale, &deltas, reps);
    write_csv("results/delta_sweep.csv", &delta_sweep::HEADER, &delta_sweep::to_table(&rows))
        .expect("write csv");
    write_json("results/delta_sweep.json", &rows).expect("write json");
    println!("  results/delta_sweep.{{csv,json}}");

    let rows = phase_profile::run(scale);
    write_csv(
        "results/phase_profile.csv",
        &phase_profile::HEADER,
        &phase_profile::to_table(&rows),
    )
    .expect("write csv");
    write_json("results/phase_profile.json", &rows).expect("write json");
    println!("  results/phase_profile.{{csv,json}}");
}
