//! Regenerate the paper's figures: run every experiment of the registry
//! (or the ones named), print each table with its headline, and write
//! `results/<name>.{csv,json}`.
//!
//! Usage:
//!   cargo run -p sssp-bench --release --bin figures -- [NAME...] [--scale smoke|default|large] [--wallclock]
//!
//! Names: datasets, fig3, ablation_select, fig4, delta_sweep,
//! phase_profile (none means all). `--wallclock` makes fig4 time the
//! real threaded implementations instead of the task-schedule simulation.

use std::path::Path;

use sssp_bench::experiments::{parse_args, Session};
use sssp_bench::report::write_results;
use sssp_bench::Reps;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (chosen, scale, wallclock) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    let mut session = Session::new(scale, Reps::default(), wallclock);
    for e in chosen {
        println!("{}\n", e.title);
        let figure = (e.run)(&mut session);
        let table = write_results(Path::new("results"), e.name, &figure.rows)
            .unwrap_or_else(|err| panic!("cannot write results/{}: {err}", e.name));
        println!("{table}");
        for line in &figure.headline {
            println!("{line}");
        }
        println!("wrote results/{}.csv, results/{}.json\n", e.name, e.name);
    }
}
