//! Regenerate Fig. 4: task-parallel delta-stepping at 1/2/4 (and 8)
//! threads, normalized to the fused sequential implementation, plus the
//! improved-parallelism series (ABL-PARIMPROVED).
//!
//! By default the numbers come from the task-schedule simulation (see
//! `sssp_core::repro::parallel`), which is meaningful on any machine
//! including single-core containers. Pass `--wallclock` to time the real
//! threaded implementations instead (needs actual cores).
//!
//! Usage: `cargo run -p sssp-bench --release --bin fig4 [--scale smoke|default|large] [--wallclock]`

use sssp_bench::experiments::{fig4, parse_scale};
use sssp_bench::{markdown_table, write_csv, write_json, Reps};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    let wallclock = args.iter().any(|a| a == "--wallclock");
    let reps = Reps::default();
    let threads = [1usize, 2, 4, 8];

    println!("FIG4: task-parallel speedup over fused sequential (delta = 1)");
    println!("paper reference: avg 1.44x at 2 threads, 1.5x at 4 threads (paper scheme)");
    if wallclock {
        println!("mode: wall-clock (real threaded implementations)\n");
    } else {
        println!("mode: task-schedule simulation (LPT makespan of the recorded task graph)\n");
    }

    let rows = if wallclock {
        fig4::run_wallclock(scale, &threads, reps)
    } else {
        fig4::run(scale, &threads, reps)
    };
    let header = fig4::header(&threads);
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let table = fig4::to_table(&rows);
    println!("{}", markdown_table(&header_refs, &table));
    for (k, &t) in threads.iter().enumerate() {
        println!(
            "geomean at {t} thread(s): paper-scheme {:.2}x, improved {:.2}x",
            fig4::average_parallel_speedup(&rows, k),
            fig4::average_improved_speedup(&rows, k)
        );
    }

    write_csv("results/fig4.csv", &header_refs, &table).expect("write csv");
    write_json("results/fig4.json", &rows).expect("write json");
    println!("\nwrote results/fig4.csv, results/fig4.json");
}
