//! Cross-implementation equivalence: every delta-stepping implementation
//! must produce Dijkstra's distances on every suite graph, several deltas,
//! and several sources — and pass the SSSP optimality certificate.

use graphdata::{paper_suite, suite::weighted_suite, CsrGraph, SuiteScale};
use sssp_core::delta::DeltaStrategy;
use sssp_core::repro::parallel::{self, delta_stepping_simulated, TaskScheme};
use sssp_core::repro::{canonical, gblas_impl, gblas_select};
use sssp_core::stepping::{delta_stepping_strategy, SteppingStrategy};
use sssp_core::{bellman_ford, dijkstra, fused, validate};
use taskpool::ThreadPool;

fn sources_for(g: &CsrGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let hub = (0..n).max_by_key(|&v| g.out_degree(v)).unwrap_or(0);
    let mut out = vec![0, n / 2, hub];
    out.dedup();
    out
}

#[test]
fn all_implementations_agree_on_unit_weight_suite() {
    let pool = ThreadPool::with_threads(4).expect("pool");
    for d in paper_suite(SuiteScale::Smoke) {
        let g = &d.graph;
        for &src in &sources_for(g) {
            let truth = dijkstra::dijkstra(g, src);
            validate::check_certificate(g, &truth, 1e-12)
                .unwrap_or_else(|e| panic!("{} src {src}: dijkstra certificate: {e:?}", d.name));

            // Unit weights are exact at any Δ, so the canonical / fused
            // pair is also held to bit equality off Δ = 1.
            for delta in [0.5, 1.0, 4.0] {
                let ca = canonical::delta_stepping_canonical(g, src, delta);
                assert_eq!(ca.dist, truth.dist, "{} src {src} delta {delta}: canonical", d.name);

                let fu = fused::delta_stepping_fused(g, src, delta);
                assert_eq!(fu.dist, truth.dist, "{} src {src} delta {delta}: fused", d.name);
            }

            let gb = gblas_impl::delta_stepping_gblas(g, src, 1.0);
            assert_eq!(gb.dist, truth.dist, "{} src {src}: gblas", d.name);

            let se = gblas_select::delta_stepping_gblas_select(None, g, src, 1.0);
            assert_eq!(se.dist, truth.dist, "{} src {src}: gblas-select", d.name);

            let gp = gblas_select::delta_stepping_gblas_select(Some(&pool), g, src, 1.0);
            assert_eq!(gp.dist, truth.dist, "{} src {src}: gblas-parallel", d.name);

            let pa = parallel::delta_stepping_parallel(&pool, g, src, 1.0);
            assert_eq!(pa.dist, truth.dist, "{} src {src}: parallel", d.name);

            for scheme in [TaskScheme::PaperTasks, TaskScheme::Improved] {
                let (sim, _) = delta_stepping_simulated(g, src, 1.0, scheme);
                assert_eq!(sim.dist, truth.dist, "{} src {src}: simulated", d.name);
            }

            let pi = delta_stepping_strategy(g, src, 1.0, SteppingStrategy::Classic, Some(&pool));
            assert_eq!(pi.dist, truth.dist, "{} src {src}: improved", d.name);

            let bf = bellman_ford::bellman_ford(g, src);
            assert_eq!(bf.dist, truth.dist, "{} src {src}: bellman-ford", d.name);
        }
    }
}

#[test]
fn all_implementations_agree_on_weighted_suite_across_deltas() {
    let pool = ThreadPool::with_threads(4).expect("pool");
    for d in weighted_suite(SuiteScale::Smoke) {
        let g = &d.graph;
        let src = 0;
        let truth = dijkstra::dijkstra(g, src);
        let ms = DeltaStrategy::MeyerSanders.resolve(g).expect("valid delta");
        for delta in [0.25, 1.0, ms] {
            let ca = canonical::delta_stepping_canonical(g, src, delta);
            assert!(
                ca.approx_eq(&truth, 1e-9).is_ok(),
                "{} delta {delta}: canonical",
                d.name
            );
            let fu = fused::delta_stepping_fused(g, src, delta);
            assert!(
                fu.approx_eq(&truth, 1e-9).is_ok(),
                "{} delta {delta}: fused",
                d.name
            );
            let gb = gblas_impl::delta_stepping_gblas(g, src, delta);
            assert!(
                gb.approx_eq(&truth, 1e-9).is_ok(),
                "{} delta {delta}: gblas",
                d.name
            );
            // The Sec. VI-C loop is the fused algorithm, pooled or
            // recorded: bit-identical distances and every counter,
            // heavy-pass relaxations included.
            let pa = parallel::delta_stepping_parallel(&pool, g, src, delta);
            assert_eq!(pa.dist, fu.dist, "{} delta {delta}: parallel", d.name);
            assert_eq!(pa.stats, fu.stats, "{} delta {delta}: parallel stats", d.name);
            for scheme in [TaskScheme::PaperTasks, TaskScheme::Improved] {
                let (sim, _) = delta_stepping_simulated(g, src, delta, scheme);
                assert_eq!(sim.dist, fu.dist, "{} delta {delta}: simulated {scheme:?}", d.name);
                assert_eq!(
                    sim.stats, fu.stats,
                    "{} delta {delta}: simulated {scheme:?} stats",
                    d.name
                );
            }
            let pi = delta_stepping_strategy(g, src, delta, SteppingStrategy::Classic, Some(&pool));
            assert!(
                pi.approx_eq(&truth, 1e-9).is_ok(),
                "{} delta {delta}: improved",
                d.name
            );
            let se = gblas_select::delta_stepping_gblas_select(None, g, src, delta);
            assert!(
                se.approx_eq(&truth, 1e-9).is_ok(),
                "{} delta {delta}: gblas-select",
                d.name
            );
            let gp = gblas_select::delta_stepping_gblas_select(Some(&pool), g, src, delta);
            assert!(
                gp.approx_eq(&truth, 1e-9).is_ok(),
                "{} delta {delta}: gblas-parallel",
                d.name
            );
        }
    }
}

#[test]
fn fused_certificates_hold_on_weighted_suite() {
    for d in weighted_suite(SuiteScale::Smoke) {
        let g = &d.graph;
        let r = fused::delta_stepping_fused(g, 0, 0.5);
        validate::check_certificate(g, &r, 1e-9)
            .unwrap_or_else(|e| panic!("{}: {e:?}", d.name));
    }
}

#[test]
fn gblas_and_fused_stats_describe_same_algorithm() {
    // Phase structure should match between the unfused and fused versions:
    // same number of non-empty buckets on unit-weight graphs.
    for d in paper_suite(SuiteScale::Smoke) {
        let g = &d.graph;
        let gb = gblas_impl::delta_stepping_gblas(g, 0, 1.0);
        let fu = fused::delta_stepping_fused(g, 0, 1.0);
        assert_eq!(
            gb.stats.buckets_processed, fu.stats.buckets_processed,
            "{}: bucket counts differ",
            d.name
        );
    }
}

#[test]
fn isolated_source_on_every_implementation() {
    let mut el = graphdata::EdgeList::from_triples(vec![(1, 2, 1.0)]);
    el.ensure_vertices(4);
    let g = CsrGraph::from_edge_list(&el).unwrap();
    let pool = ThreadPool::with_threads(2).expect("pool");
    let expect = vec![0.0, f64::INFINITY, f64::INFINITY, f64::INFINITY];
    assert_eq!(dijkstra::dijkstra(&g, 0).dist, expect);
    assert_eq!(canonical::delta_stepping_canonical(&g, 0, 1.0).dist, expect);
    assert_eq!(gblas_impl::delta_stepping_gblas(&g, 0, 1.0).dist, expect);
    assert_eq!(fused::delta_stepping_fused(&g, 0, 1.0).dist, expect);
    assert_eq!(
        parallel::delta_stepping_parallel(&pool, &g, 0, 1.0).dist,
        expect
    );
    assert_eq!(
        delta_stepping_strategy(&g, 0, 1.0, SteppingStrategy::Classic, Some(&pool)).dist,
        expect
    );
}
