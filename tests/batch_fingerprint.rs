//! Regression: the batch layer hashes the graph once per worker engine,
//! not per job. `CsrGraph::fingerprint` is a byte-wise FNV pass over the
//! whole CSR; with a checkpoint directory set, `BatchRunner` used to call
//! it twice per job (manifest lookup + persist) instead of reusing the
//! value `SsspEngine` already caches.
//!
//! The pass counter is process-global, so this file holds exactly one
//! test: nothing else in the process may hash a graph while it counts.

use std::time::Duration;

use graphdata::gen::grid2d;
use graphdata::CsrGraph;
use sssp_core::{BatchConfig, BatchRunner};

#[test]
fn a_checkpointing_batch_hashes_the_graph_once_per_worker_not_per_job() {
    let g = CsrGraph::from_edge_list(&grid2d(12, 12)).unwrap();
    let dir = std::env::temp_dir().join(format!("sssp-batch-fp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sources: Vec<usize> = (0..8).map(|i| i * 17).collect();
    let batch = |deadline| {
        let before = CsrGraph::fingerprint_passes();
        let report = BatchRunner::new(BatchConfig {
            workers: 1,
            deadline,
            checkpoint_dir: Some(dir.clone()),
            ..BatchConfig::default()
        })
        .run(&g, &sources);
        (report, CsrGraph::fingerprint_passes() - before)
    };

    // Every job stops at its first budget check and persists: the path
    // that looked the job up in the manifest and then saved + recorded it.
    let (stopped, passes) = batch(Some(Duration::ZERO));
    assert_eq!(stopped.partial(), sources.len());
    assert_eq!(passes, 1, "one worker engine, one pass — however many jobs");

    // Every job resumes from its file, completes, and clears its entry.
    let (resumed, passes) = batch(None);
    assert!(resumed.all_complete());
    assert_eq!(passes, 1, "resume + cleanup reuse the engine's cached value too");
    std::fs::remove_dir_all(&dir).unwrap();
}
