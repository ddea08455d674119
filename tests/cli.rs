//! End-to-end tests of the `sssp` command-line binary: generator specs,
//! file formats, implementation selection, validation, and error paths.

use std::process::{Command, Output};

fn sssp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sssp"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn path_graph_distances_on_stdout() {
    let out = sssp(&["--gen", "path:5", "--impl", "dijkstra"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    assert_eq!(lines, vec!["0\t0", "1\t1", "2\t2", "3\t3", "4\t4"]);
}

#[test]
fn all_implementations_selectable() {
    for imp in [
        "dijkstra",
        "bellman-ford",
        "canonical",
        "gblas",
        "gblas-select",
        "gblas-parallel",
        "fused",
        "parallel",
        "improved",
    ] {
        let out = sssp(&["--gen", "grid:6x6", "--impl", imp, "--validate", "--summary"]);
        assert!(out.status.success(), "{imp}: {}", stderr(&out));
        assert!(stderr(&out).contains("certificate: OK"), "{imp}");
        assert!(stdout(&out).contains("reaches 36 vertices"), "{imp}");
    }
}

#[test]
fn unreachable_prints_inf() {
    // A directed path run from its last vertex reaches only itself.
    let out = sssp(&["--gen", "path:3", "--source", "2"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("0\tinf"));
    assert!(text.contains("2\t0"));
}

#[test]
fn file_formats_round_trip_through_cli() {
    let dir = std::env::temp_dir().join(format!("sssp-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Write a small graph in each format.
    let el = graphdata::EdgeList::from_triples(vec![(0, 1, 1.0), (1, 2, 2.0)]);
    let mtx = dir.join("g.mtx");
    let mut buf = Vec::new();
    graphdata::io::write_matrix_market(&mut buf, &el).unwrap();
    std::fs::write(&mtx, &buf).unwrap();

    let tsv = dir.join("g.tsv");
    let mut buf = Vec::new();
    graphdata::io::write_snap_tsv(&mut buf, &el).unwrap();
    std::fs::write(&tsv, &buf).unwrap();

    let bin = dir.join("g.bin");
    std::fs::write(&bin, graphdata::io::write_binary(&el)).unwrap();

    for path in [&mtx, &tsv, &bin] {
        let out = sssp(&[path.to_str().unwrap(), "--impl", "fused", "--delta", "2.0"]);
        assert!(out.status.success(), "{path:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("2\t3"), "{path:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn meyer_sanders_delta_accepted() {
    let out = sssp(&[
        "--gen",
        "grid:8x8",
        "--random-weights",
        "--delta",
        "ms",
        "--summary",
        "--validate",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn error_paths_fail_cleanly() {
    // No input.
    let out = sssp(&["--impl", "fused"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("no input given"));
    // Unknown implementation.
    let out = sssp(&["--gen", "path:4", "--impl", "warshall"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown --impl"));
    // Bad generator spec.
    let out = sssp(&["--gen", "donut:7"]);
    assert!(!out.status.success());
    // Out-of-bounds source.
    let out = sssp(&["--gen", "path:4", "--source", "9"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("out of bounds"));
    // Missing file.
    let out = sssp(&["/nonexistent/graph.mtx"]);
    assert!(!out.status.success());
    // Unknown extension without --format.
    let out = sssp(&["/tmp/whatever.xyz"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot infer format"));
}

#[test]
fn distinct_exit_codes_per_failure_class() {
    // 1: usage errors (bad flags, unknown implementation).
    let out = sssp(&["--impl", "fused"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let out = sssp(&["--gen", "path:4", "--impl", "warshall"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));

    // 2: input errors (unreadable or malformed graph files).
    let out = sssp(&["/nonexistent/graph.mtx"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let dir = std::env::temp_dir().join(format!("sssp-cli-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.mtx");
    std::fs::write(&bad, "not a matrix market file\n").unwrap();
    let out = sssp(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);

    // 3: solver-level rejections (out-of-bounds source, bad delta).
    let out = sssp(&["--gen", "path:4", "--source", "9"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("out of bounds"));
    let out = sssp(&["--gen", "path:4", "--impl", "fused", "--delta", "0"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("delta"));
}

#[test]
fn solver_errors_are_one_line_not_panics() {
    for args in [
        &["--gen", "path:4", "--impl", "canonical", "--delta", "-2"][..],
        &["--gen", "path:4", "--impl", "gblas", "--delta", "inf"][..],
        &["--gen", "path:4", "--impl", "parallel", "--delta", "0"][..],
        &["--gen", "path:4", "--impl", "improved", "--delta", "0"][..],
        &["--gen", "grid:4x4", "--impl", "gblas-select", "--delta", "0"][..],
        &["--gen", "grid:4x4", "--impl", "gblas-parallel", "--delta", "0"][..],
    ] {
        let out = sssp(args);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            !err.contains("panicked at") && !err.contains("RUST_BACKTRACE"),
            "{args:?} leaked a panic: {err}"
        );
        assert_eq!(err.trim().lines().count(), 1, "{args:?}: {err}");
    }
}

#[test]
fn explicit_nan_delta_rejected_not_silently_replaced() {
    // "--delta ms" opts into the Meyer-Sanders rule; a literal NaN must
    // NOT be treated as that sentinel — it reaches preflight and fails.
    let out = sssp(&["--gen", "path:4", "--impl", "fused", "--delta", "nan"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("delta"), "{}", stderr(&out));
}

#[test]
fn zero_threads_is_a_usage_error() {
    let out = sssp(&["--gen", "path:4", "--impl", "parallel", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("--threads"), "{}", stderr(&out));
}

#[test]
fn delta_alias_selects_canonical() {
    let out = sssp(&["--gen", "grid:4x4", "--impl", "delta", "--validate", "--summary"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("certificate: OK"));
}

#[test]
fn help_exits_nonzero_with_usage() {
    let out = sssp(&["--help"]);
    assert!(stderr(&out).contains("usage: sssp"));
}

#[test]
fn expired_deadline_exits_5_with_partial_report() {
    let out = sssp(&[
        "--gen",
        "grid:30x30",
        "--impl",
        "fused",
        "--deadline-ms",
        "0",
        "--summary",
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("deadline exceeded"), "{err}");
    assert!(err.contains("certified final"), "{err}");
    assert!(
        !err.contains("panicked at") && !err.contains("RUST_BACKTRACE"),
        "leaked a panic: {err}"
    );
}

#[test]
fn generous_deadline_completes_normally() {
    let out = sssp(&[
        "--gen",
        "grid:8x8",
        "--impl",
        "improved",
        "--deadline-ms",
        "60000",
        "--summary",
        "--validate",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("certificate: OK"));
}

#[test]
fn batch_mode_runs_every_source_and_reports_summary() {
    let out = sssp(&[
        "--gen",
        "grid:12x12",
        "--sources",
        "0,71,143",
        "--batch-workers",
        "2",
        "--impl",
        "improved",
        "--validate",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for src in ["source 0:", "source 71:", "source 143:"] {
        assert!(text.contains(src), "{text}");
    }
    assert!(text.contains("batch: 3 complete"), "{text}");
}

#[test]
fn batch_mode_with_expired_deadline_exits_5_with_certified_partials() {
    let out = sssp(&[
        "--gen",
        "grid:20x20",
        "--sources",
        "0,100,399",
        "--deadline-ms",
        "0",
        "--impl",
        "fused",
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("PARTIAL"), "{text}");
    assert!(text.contains("0 complete"), "{text}");
    assert!(text.contains("3 partial"), "{text}");
}

#[test]
fn sources_mode_takes_fused_and_improved_and_rejects_the_repro_implementations() {
    // A batched job runs on the one stepping loop: its sequential or its
    // pooled kernels. The paper-reproduction variants are single-run only.
    let run = |imp: &str, extra: &[&str]| {
        sssp(&[&["--gen", "grid:6x6", "--sources", "0,35", "--impl", imp][..], extra].concat())
    };
    for imp in ["fused", "improved"] {
        for extra in [&[][..], &["--batch-workers", "1"][..]] {
            let out = run(imp, extra);
            assert!(out.status.success(), "{imp}: {}", stderr(&out));
            assert!(stdout(&out).contains("batch: 2 complete"), "{imp}");
        }
    }
    for imp in ["canonical", "delta", "gblas", "parallel"] {
        for extra in [&[][..], &["--batch-workers", "1"][..]] {
            let out = run(imp, extra);
            assert_eq!(out.status.code(), Some(1), "{imp}: {}", stderr(&out));
            let err = stderr(&out);
            assert!(err.contains("--sources supports --impl fused or improved"), "{imp}: {err}");
            assert!(err.contains(&format!("unknown implementation '{imp}'")), "{imp}: {err}");
        }
    }
}

#[test]
fn checkpoint_dir_persists_partials_and_a_rerun_resumes_to_completion() {
    let dir = std::env::temp_dir().join(format!("sssp-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = ["--gen", "grid:20x20", "--sources", "0,100,399", "--impl", "fused"];

    // Uninterrupted reference batch (checkpoints never involved).
    let reference = sssp(&[&graph[..], &["--batch-workers", "1"][..]].concat());
    assert!(reference.status.success(), "{}", stderr(&reference));
    let reference_lines: Vec<String> = stdout(&reference)
        .lines()
        .filter(|l| l.starts_with("source "))
        .map(str::to_string)
        .collect();
    assert_eq!(reference_lines.len(), 3);

    // A zero deadline stops every job; the checkpoints land on disk.
    let stopped = sssp(
        &[&graph[..], &["--deadline-ms", "0", "--checkpoint-dir", dir.to_str().unwrap()]].concat(),
    );
    assert_eq!(stopped.status.code(), Some(5), "{}", stderr(&stopped));
    let text = stdout(&stopped);
    assert!(text.contains("checkpoint saved to"), "{text}");
    for src in [0usize, 100, 399] {
        assert!(dir.join(format!("ckpt-{src}.bin")).exists(), "missing ckpt-{src}.bin");
    }

    // Rerun with the same directory (no deadline): every job resumes
    // from its file and the per-source results match the uninterrupted
    // batch exactly.
    let resumed = sssp(&[&graph[..], &["--checkpoint-dir", dir.to_str().unwrap()]].concat());
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    let resumed_lines: Vec<String> = stdout(&resumed)
        .lines()
        .filter(|l| l.starts_with("source "))
        .map(str::to_string)
        .collect();
    assert_eq!(resumed_lines, reference_lines);
    // Completion cleans the checkpoint files up.
    for src in [0usize, 100, 399] {
        assert!(!dir.join(format!("ckpt-{src}.bin")).exists(), "stale ckpt-{src}.bin");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_checkpoint_dir_is_an_input_error() {
    let out = sssp(&[
        "--gen",
        "grid:4x4",
        "--sources",
        "0,1",
        "--checkpoint-dir",
        "/dev/null/nope",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--checkpoint-dir"), "{}", stderr(&out));
}

#[test]
fn batch_mode_rejects_non_solver_implementations_as_usage_error() {
    // `atomic` / `improved-atomic` named an implementation that no
    // longer exists: they get the same typed error as any unknown name,
    // in batch mode and on a single run.
    for imp in ["dijkstra", "atomic", "improved-atomic"] {
        let out = sssp(&[
            "--gen",
            "grid:4x4",
            "--sources",
            "0,1",
            "--batch-workers",
            "2",
            "--impl",
            imp,
        ]);
        assert_eq!(out.status.code(), Some(1), "{imp}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("unknown implementation '{imp}'")),
            "{imp}: {}",
            stderr(&out)
        );
    }
    let out = sssp(&["--gen", "grid:4x4", "--impl", "atomic"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown --impl 'atomic'"), "{}", stderr(&out));
}

#[test]
fn zero_batch_workers_is_a_usage_error() {
    let out = sssp(&["--gen", "path:4", "--sources", "0,1", "--batch-workers", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("--batch-workers"), "{}", stderr(&out));
}

#[test]
fn symmetrize_and_unit_weights() {
    // Directed path reversed source; with --symmetrize everything reachable.
    let out = sssp(&["--gen", "path:4", "--symmetrize", "--source", "3", "--summary"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("reaches 4 vertices"));
}

#[test]
fn figure_variants_reject_a_delta_past_exact_bucket_indices() {
    // Once (n−1)·max_w/Δ reaches 2^53, `i as f64 * Δ` is no longer exact
    // and bucket indices saturate: gblas-select printed `inf` for
    // reachable vertices and three variants failed the certificate. The
    // figure door rejects such a Δ before the run.
    let weighted = ["--symmetrize", "--random-weights", "--validate"];
    for (gen, imp, delta, extra) in [
        ("path:6", "gblas-select", "1e-300", &[][..]),
        ("rmat:10,8", "gblas-select", "1e-15", &weighted[..]),
        ("grid:30x30", "gblas-parallel", "1e-15", &weighted[..]),
        ("er:2000,10000", "parallel", "1e-300", &weighted[..]),
    ] {
        let out = sssp(&[&["--gen", gen, "--impl", imp, "--delta", delta][..], extra].concat());
        let label = format!("{imp} on {gen} at {delta}");
        assert_eq!(out.status.code(), Some(3), "{label}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("delta is impractically small"), "{label}: {err}");
        assert_eq!(err.trim().lines().count(), 1, "{label}: {err}");
        assert!(stdout(&out).is_empty(), "{label}");
    }
    // The bound is the figure door's: the stepping loop answers exactly.
    let out = sssp(&["--gen", "path:6", "--impl", "fused", "--delta", "1e-300"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines, vec!["0\t0", "1\t1", "2\t2", "3\t3", "4\t4", "5\t5"]);
}

#[test]
fn deadline_and_checkpoint_dir_are_usage_errors_where_they_do_not_apply() {
    // --deadline-ms budgets the stepping door; the figure and baseline
    // names run to completion, so the flag would be silently ignored.
    for imp in [
        "canonical",
        "gblas",
        "gblas-select",
        "gblas-parallel",
        "parallel",
        "dijkstra",
        "bellman-ford",
    ] {
        let out = sssp(&["--gen", "grid:4x4", "--impl", imp, "--deadline-ms", "0"]);
        assert_eq!(out.status.code(), Some(1), "{imp}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("--deadline-ms applies to --impl fused or improved"), "{imp}: {err}");
        assert!(stdout(&out).is_empty(), "{imp}");
    }
    // --checkpoint-dir persists --sources jobs; a single run never
    // touches it.
    let dir = std::env::temp_dir().join(format!("sssp-cli-single-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for imp in ["fused", "improved", "canonical"] {
        let out =
            sssp(&["--gen", "grid:4x4", "--impl", imp, "--checkpoint-dir", dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{imp}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("--checkpoint-dir applies to --sources"), "{imp}: {err}");
        assert!(!dir.exists(), "{imp}: a usage error must not create the directory");
    }
}

#[test]
fn every_strategy_takes_the_job_door_on_both_kernels() {
    for imp in ["fused", "improved"] {
        for strategy in ["rho:16", "delta-star:2"] {
            let base = ["--gen", "grid:20x20", "--impl", imp, "--strategy", strategy];
            let out = sssp(&[&base[..], &["--validate", "--summary"]].concat());
            assert!(out.status.success(), "{imp} {strategy}: {}", stderr(&out));
            assert!(stderr(&out).contains("certificate: OK"), "{imp} {strategy}");
            let out = sssp(&[&base[..], &["--deadline-ms", "0"]].concat());
            assert_eq!(out.status.code(), Some(5), "{imp} {strategy}: {}", stderr(&out));
            assert!(stderr(&out).contains("certified final"), "{imp} {strategy}");
        }
    }
    // A figure name takes no strategy.
    let out = sssp(&["--gen", "grid:4x4", "--impl", "gblas-select", "--strategy", "rho"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("supports --impl fused or improved"), "{}", stderr(&out));
}
