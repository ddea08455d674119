//! Preparing a graph is one pass over its weights: the sort and the
//! weight scan come from one walk of the rows
//! ([`CsrGraph::weight_sorted_rows`]). A borrowed graph's fingerprint
//! waits for its first checkpoint; a handed-over graph is fingerprinted
//! once, as loaded. The pass counters are process-global, so this file
//! holds exactly one test.

use graphdata::{gen, CsrGraph, WeightModel};
use sssp_core::PreparedGraph;

fn passes() -> (u64, u64) {
    (CsrGraph::weight_passes(), CsrGraph::fingerprint_passes())
}

#[test]
fn each_door_prepares_a_graph_in_one_weight_pass() {
    let mut el = gen::gnm(500, 4000, 3);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        4,
    );
    let weighted = CsrGraph::from_edge_list(&el).unwrap();
    let unit = CsrGraph::from_edge_list(&gen::grid2d(16, 16)).unwrap();
    for g in [weighted, unit] {
        let (weights, fingerprints) = passes();
        let borrowed = PreparedGraph::new(&g);
        assert_eq!(
            passes(),
            (weights + 1, fingerprints),
            "new: one weight pass, no fingerprint"
        );

        let owned = g.clone();
        let (weights, fingerprints) = passes();
        let loaded = PreparedGraph::load(owned);
        assert_eq!(
            passes(),
            (weights + 1, fingerprints + 1),
            "load: one weight pass, one fingerprint"
        );

        // Splits and the lazy fingerprint read the prepared state only.
        let (weights, _) = passes();
        for prep in [&borrowed, &loaded] {
            let _ = prep.split_for(0.5 * prep.max_weight());
            let _ = prep.split_for(prep.max_weight());
        }
        assert_eq!(borrowed.fingerprint(), loaded.fingerprint());
        assert_eq!(
            CsrGraph::weight_passes(),
            weights,
            "no weight pass after preparation"
        );
    }
}
