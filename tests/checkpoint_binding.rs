//! Checkpoints stay bound to the graph as loaded, whatever order the
//! prepared graph keeps its rows in.
//!
//! A server prepares each graph once at `LOAD`, sorting every row by
//! weight, and a library engine over a borrowed graph sorts a copy. The
//! fingerprint that names a checkpoint subdirectory, stamps a checkpoint
//! file and keys a manifest entry is the as-loaded graph's either way, so
//! a partial cut on one side resumes on the other.

use std::path::PathBuf;

use graphdata::CsrGraph;
use sssp_core::batch::{run_job, Job, JobOutcome, ManifestState};
use sssp_core::engine::SsspEngine;
use sssp_core::manifest::CheckpointManifest;
use sssp_core::stepping::SteppingWorkspace;
use sssp_core::{GuardConfig, Kernels, PreparedGraph, RunBudget, SsspResult, SteppingStrategy};
use sssp_serve::protocol::parse_gen_spec;
use sssp_serve::server::{start, ServerConfig};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sssp-binding-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fresh(g: &CsrGraph, source: usize, delta: f64, strategy: SteppingStrategy) -> SsspResult {
    SsspEngine::new(g)
        .run_stepping(None, source, delta, strategy, &mut RunBudget::unlimited())
        .unwrap()
        .0
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|d| d.to_bits()).collect()
}

/// Send text requests on one connection and return every reply's lines.
fn conversation(addr: std::net::SocketAddr, lines: &[String]) -> Vec<Vec<String>> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|line| {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = Vec::new();
            loop {
                let mut l = String::new();
                assert!(reader.read_line(&mut l).unwrap() > 0, "server hung up");
                let l = l.trim_end().to_string();
                if l == sssp_serve::protocol::TEXT_TERMINATOR {
                    return reply;
                }
                reply.push(l);
            }
        })
        .collect()
}

#[test]
fn a_served_partial_names_the_load_fingerprint_and_resumes_through_the_library_door() {
    let spec = "rmat:9,8";
    let g = CsrGraph::from_edge_list(&parse_gen_spec(spec).unwrap()).unwrap();
    let fp = g.fingerprint();
    let source = 3;
    let root = scratch_dir("served");
    let cfg = ServerConfig {
        checkpoint_dir: Some(root.clone()),
        ..ServerConfig::default()
    };
    let server = start(cfg, "127.0.0.1:0").unwrap();
    let replies = conversation(
        server.addr(),
        &[
            format!("LOAD GEN {spec}"),
            format!("SSSP {fp:016x} {source} epochs=3"),
        ],
    );
    server.shutdown();
    assert!(
        replies[0][0].starts_with(&format!("LOADED fingerprint={fp:016x}")),
        "{replies:?}"
    );
    let partial = &replies[1][0];
    assert!(
        partial.starts_with("PARTIAL ") && partial.contains(&format!("saved=ckpt-{source}.bin")),
        "{partial}"
    );

    // The subdirectory and the manifest entry both carry the LOAD
    // fingerprint.
    let dir = root.join(format!("{fp:016x}"));
    let manifest = CheckpointManifest::load_or_default(&dir).unwrap();
    let entry = manifest
        .find_source(fp, source)
        .expect("the partial is indexed under its graph");
    assert!(dir.join(&entry.file).exists());

    // A library job over the unsorted graph finds it through the
    // manifest and finishes it bit-identically.
    let guard = GuardConfig::default();
    let job = Job {
        source,
        kernels: Kernels::Sequential,
        delta: 1.0,
        strategy: SteppingStrategy::Classic,
        guard: &guard,
        deadline: None,
        cancel: None,
        progress: None,
    };
    let (state, error) = ManifestState::open(&dir);
    assert!(error.is_none(), "{error:?}");
    let outcome = run_job(&mut SsspEngine::new(&g), None, None, &job, Some(&state));
    let JobOutcome::Complete {
        result,
        resumed: true,
        ..
    } = outcome
    else {
        panic!("the library door must resume the served checkpoint, got {outcome:?}");
    };
    let full = fresh(&g, source, 1.0, SteppingStrategy::Classic);
    assert_eq!(bits(&result.dist), bits(&full.dist));
    assert_eq!(result.stats, full.stats);
    assert!(CheckpointManifest::load_or_default(&dir)
        .unwrap()
        .is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_checkpoint_cut_on_sorted_rows_resumes_on_the_as_loaded_graph() {
    // Weighted rows, so the prepared graph's order differs from the
    // loaded one's.
    let mut el = graphdata::gen::gnm(400, 3000, 11);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        graphdata::WeightModel::UniformFloat { lo: 0.05, hi: 2.0 },
        5,
    );
    let g = CsrGraph::from_edge_list(&el).unwrap();
    let registry = PreparedGraph::load(g.clone());
    assert_eq!(registry.fingerprint(), g.fingerprint());
    let dir = scratch_dir("library");
    let path = dir.join("ckpt.bin");
    let mut ws = SteppingWorkspace::default();
    for strategy in [SteppingStrategy::Classic, SteppingStrategy::Rho(16)] {
        let full = fresh(&g, 0, 0.5, strategy);
        for cut in [1, 4, 9] {
            let mut served = SsspEngine::over(&registry, &mut ws);
            let cp = served
                .run_stepping(
                    None,
                    0,
                    0.5,
                    strategy,
                    &mut RunBudget::unlimited().cancel_after(cut),
                )
                .unwrap_err()
                .into_checkpoint()
                .unwrap();
            served.save_checkpoint(&cp, &path).unwrap();
            let mut library = SsspEngine::new(&g);
            let loaded = library
                .load_checkpoint(&path)
                .expect("bound to the as-loaded graph");
            let (resumed, _) = library
                .resume_stepping(None, &loaded, &mut RunBudget::unlimited())
                .unwrap();
            assert_eq!(
                bits(&resumed.dist),
                bits(&full.dist),
                "{strategy}, cut at {cut}"
            );
            assert_eq!(resumed.stats, full.stats, "{strategy}, cut at {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
