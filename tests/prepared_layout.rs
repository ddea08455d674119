//! The weight-sorted layout on the inputs it could get wrong: duplicate
//! edges and self-loops, `-0.0` beside `+0.0`, weights equal to Δ, and a Δ
//! below or above every weight. Every split is each row's light prefix,
//! and every strategy matches Dijkstra through the engine and the job
//! door, with the oracle run's stats on every kernel and direction. Those
//! tests run their parts of the differential harness
//! (`tests/differential/`) on its groups of rows.
//!
//! The one-pass preparation ([`CsrGraph::weight_sorted_rows`]) is held to
//! what it replaced, bit for bit, on hand-made rows no generator gives:
//! signed zeros in both orders, NaNs of both signs and several payloads,
//! infinities, negatives and subnormals, tied weights, empty rows and
//! rows whose targets are not ascending. Its rows must be the per-row
//! comparator sort's, its scan [`CsrGraph::weight_scan`]'s, and every
//! value a [`PreparedGraph`] exposes what the scan implies.

mod differential;

use differential::{Group::*, Part::*, GROUPS};
use graphdata::{gen, CsrGraph, WeightModel, WeightScan};
use sssp_core::delta::DeltaStrategy;
use sssp_core::{guard, GuardConfig, PreparedGraph, SsspError};

#[test]
fn every_split_is_exactly_each_rows_light_prefix() {
    differential::run(&GROUPS, &[Split]);
}

#[test]
fn edge_cases_match_dijkstra_bit_for_bit_through_the_engine_and_the_job_door() {
    differential::run(&[Layout], &[Oracle]);
}

#[test]
fn edge_cases_give_the_same_stats_on_every_kernel_and_direction() {
    differential::run(&[Layout], &[Forced]);
}

/// The sort key of the reference sort: the order of [`f64::total_cmp`]
/// with every NaN last, as an integer.
fn reference_key(w: f64) -> u64 {
    if w.is_nan() {
        return u64::MAX;
    }
    let bits = w.to_bits();
    (bits ^ ((((bits as i64) >> 63) as u64) >> 1)) ^ (1 << 63)
}

/// The reference layout: a copy of the adjacency, each row sorted in place
/// on `(key, target)` computed per comparison.
fn reference_rows(g: &CsrGraph) -> Vec<(usize, u64)> {
    let mut adj: Vec<(usize, f64)> = g
        .targets()
        .iter()
        .copied()
        .zip(g.weights().iter().copied())
        .collect();
    for v in 0..g.num_vertices() {
        adj[g.offsets()[v]..g.offsets()[v + 1]]
            .sort_unstable_by_key(|&(t, w)| (reference_key(w), t));
    }
    bits(&adj)
}

fn bits(pairs: &[(usize, f64)]) -> Vec<(usize, u64)> {
    pairs.iter().map(|&(t, w)| (t, w.to_bits())).collect()
}

/// A [`WeightScan`]'s fields with every weight as bits: the first invalid
/// edge, the maximum, the minimum and the smallest positive weight.
type ScanBits = (Option<(usize, usize, u64)>, u64, u64, Option<u64>);

fn scan_bits(scan: &WeightScan) -> ScanBits {
    (
        scan.first_invalid.map(|(s, d, w)| (s, d, w.to_bits())),
        scan.max_weight.to_bits(),
        scan.min_weight.to_bits(),
        scan.min_positive_weight.map(f64::to_bits),
    )
}

/// A preflight answer with every weight and Δ as bits: `Debug` would
/// print every NaN alike.
fn answer_bits(answer: Result<f64, SsspError>) -> Result<u64, String> {
    answer.map(f64::to_bits).map_err(|e| match e {
        SsspError::NonFiniteWeight { src, dst, weight }
        | SsspError::NegativeWeight { src, dst, weight } => {
            format!("{src}->{dst} weight bits {:#x}", weight.to_bits())
        }
        other => format!("{other:?}"),
    })
}

/// Everything a prepared graph exposes about its weights: its rows (read
/// back through a split's light and heavy edges), the preflight verdict,
/// the maximum weight's bits, the fallback Δ's bits, whether an all-light
/// split exists and, when one does, its weight flag.
#[derive(Debug, PartialEq)]
struct Exposed {
    rows: Vec<(usize, u64)>,
    verdict: Result<u64, String>,
    max_weight: u64,
    fallback_delta: Result<u64, String>,
    all_light: Option<bool>,
}

fn fallback() -> GuardConfig {
    GuardConfig {
        delta_fallback: true,
        ..GuardConfig::default()
    }
}

fn exposed(prep: &PreparedGraph<'_>) -> Exposed {
    let split = prep.split(0.0);
    let view = split.on(prep);
    let rows = (0..prep.num_vertices())
        .flat_map(|v| bits(view.light(v)).into_iter().chain(bits(view.heavy(v))));
    let (top, built) = prep.split_for(prep.max_weight());
    Exposed {
        rows: rows.collect(),
        verdict: answer_bits(prep.preflight(0, 1.0, &GuardConfig::default())),
        max_weight: prep.max_weight().to_bits(),
        fallback_delta: answer_bits(prep.preflight(0, f64::NAN, &fallback())),
        all_light: (!built).then(|| top.on(prep).one_light_weight()),
    }
}

/// What the parent layout and a fresh [`CsrGraph::weight_scan`] give for
/// the same values: the reference rows, `guard::preflight`'s verdict and
/// fallback Δ, the scan's maximum, and an all-light split exactly when
/// the weights pass, flagged by whether the scan's extremes meet.
fn expected(g: &CsrGraph) -> Exposed {
    let scan = g.weight_scan();
    Exposed {
        rows: reference_rows(g),
        verdict: answer_bits(guard::preflight(g, 0, 1.0, &GuardConfig::default())),
        max_weight: scan.max_weight.to_bits(),
        fallback_delta: answer_bits(guard::preflight(g, 0, f64::NAN, &fallback())),
        all_light: scan
            .first_invalid
            .is_none()
            .then_some(g.num_edges() == 0 || scan.min_weight == scan.max_weight),
    }
}

/// A graph from rows of `(target, weight)`, taken as they are: unsorted,
/// duplicated, NaN, negative.
fn raw(rows: &[&[(usize, f64)]]) -> CsrGraph {
    let n = rows.len().max(1);
    let mut offsets = vec![0];
    let (mut targets, mut weights) = (vec![], vec![]);
    for row in rows {
        for &(t, w) in *row {
            targets.push(t);
            weights.push(w);
        }
        offsets.push(targets.len());
    }
    offsets.resize(n + 1, targets.len());
    CsrGraph::from_raw_parts_unchecked(n, offsets, targets, weights)
}

const NAN_A: f64 = f64::from_bits(0x7ff8_0000_0000_0001);
const NAN_B: f64 = f64::from_bits(0xfff8_0000_0000_0002);
const NAN_C: f64 = f64::from_bits(0x7ff0_0000_0000_0003);
const SUB: f64 = f64::from_bits(1);

/// The hand-made rows, each named for what it holds.
fn edge_cases() -> Vec<(&'static str, CsrGraph)> {
    let (z, nz, inf) = (0.0, -0.0, f64::INFINITY);
    vec![
        (
            "+0 then -0, -0 then +0",
            raw(&[&[(1, z), (2, nz)], &[(0, nz), (2, z)], &[(0, 1.0), (1, z)]]),
        ),
        (
            "-0 before +0 in a later row",
            raw(&[&[(1, 2.0)], &[(0, nz), (2, 1.0)], &[(0, z)]]),
        ),
        (
            "zeros only, -0 first",
            raw(&[&[(1, nz), (2, z)], &[(2, nz)], &[]]),
        ),
        (
            "negative zeros only",
            raw(&[&[(1, nz)], &[(0, nz), (2, nz)], &[]]),
        ),
        (
            "zero beside one positive weight",
            raw(&[&[(2, 1.0), (1, z)], &[(0, 1.0)], &[(1, nz)]]),
        ),
        (
            "NaNs of both signs and several payloads",
            raw(&[
                &[(3, NAN_A), (1, 2.0), (2, NAN_B), (0, NAN_C)],
                &[(0, NAN_B), (2, NAN_A)],
                &[],
                &[(0, 1.0)],
            ]),
        ),
        (
            "NaNs sharing a target",
            raw(&[
                &[(1, NAN_A), (1, NAN_B), (1, NAN_C), (1, 0.5)],
                &[(0, NAN_C), (0, NAN_A)],
            ]),
        ),
        (
            "a row of NaNs only",
            raw(&[&[(1, NAN_B), (2, f64::NAN)], &[(0, 1.0)], &[(0, 2.0)]]),
        ),
        (
            "a NaN after a negative",
            raw(&[&[(1, 1.0)], &[(2, NAN_A), (0, -2.0)], &[(0, -1.0)]]),
        ),
        (
            "infinities",
            raw(&[&[(1, inf), (2, 1.0), (0, -inf)], &[(0, inf)], &[(1, 3.0)]]),
        ),
        ("positive infinity only", raw(&[&[(1, inf)], &[(0, inf)]])),
        (
            "negatives",
            raw(&[
                &[(2, -1.0), (1, -3.5), (0, 2.0)],
                &[(2, -f64::MIN_POSITIVE)],
                &[(0, -SUB)],
            ]),
        ),
        (
            "subnormals",
            raw(&[
                &[(1, SUB), (2, f64::MIN_POSITIVE / 2.0), (0, z)],
                &[(0, -SUB), (2, SUB)],
                &[(1, f64::MAX)],
            ]),
        ),
        (
            "tied weights",
            raw(&[
                &[(4, 1.5), (1, 1.5), (3, 0.5), (0, 1.5), (2, 0.5)],
                &[(3, 1.5), (0, 1.5)],
                &[],
                &[],
                &[(2, 1.5)],
            ]),
        ),
        (
            "duplicate pairs",
            raw(&[
                &[(1, 2.0), (1, 2.0), (1, 0.5), (1, 2.0)],
                &[(0, 0.5), (0, 0.5)],
            ]),
        ),
        (
            "empty rows",
            raw(&[&[], &[(3, 1.0), (0, 2.0)], &[], &[], &[(1, 1.0)], &[]]),
        ),
        ("no edges", raw(&[&[], &[], &[]])),
        (
            "targets descending",
            raw(&[
                &[(3, 1.0), (2, 1.0), (1, 1.0)],
                &[(3, 2.0), (0, 1.0)],
                &[(1, 1.0), (0, 1.0)],
                &[],
            ]),
        ),
        (
            "targets descending, weights ascending",
            raw(&[
                &[(3, 0.25), (2, 0.5), (1, 1.0)],
                &[],
                &[],
                &[(0, 4.0), (2, 4.0)],
            ]),
        ),
    ]
}

/// Rows drawn from `palette` by a fixed-seed xorshift: up to 40 edges
/// each, any target, duplicates and all.
fn drawn(seed: u64, n: usize, palette: &[f64]) -> CsrGraph {
    let mut x = seed | 1;
    let mut next = move |bound: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % bound as u64) as usize
    };
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|_| {
            let degree = [0, 1, 2, 5, 40][next(5)];
            let degree = next(degree + 1);
            (0..degree)
                .map(|_| (next(n), palette[next(palette.len())]))
                .collect()
        })
        .collect();
    let rows: Vec<&[(usize, f64)]> = rows.iter().map(Vec::as_slice).collect();
    raw(&rows)
}

/// Every hand-made graph, graphs drawn from palettes of hostile and of
/// valid weights, and two generated ones: a unit grid (every row already
/// in order) and real weights on target-sorted rows.
fn graphs() -> Vec<(String, CsrGraph)> {
    let hostile = [
        0.0,
        -0.0,
        1.0,
        2.0,
        -1.0,
        SUB,
        -SUB,
        f64::INFINITY,
        f64::NEG_INFINITY,
        NAN_A,
        NAN_B,
        NAN_C,
    ];
    let valid = [0.0, -0.0, 0.5, 1.0, 2.0, SUB, f64::MAX];
    let mut all: Vec<(String, CsrGraph)> = edge_cases()
        .into_iter()
        .map(|(name, g)| (name.to_string(), g))
        .collect();
    for seed in 1..=40u64 {
        all.push((format!("hostile draw {seed}"), drawn(seed, 12, &hostile)));
        all.push((format!("valid draw {seed}"), drawn(seed, 12, &valid)));
        all.push((format!("zeros draw {seed}"), drawn(seed, 6, &[0.0, -0.0])));
        all.push((format!("one weight draw {seed}"), drawn(seed, 6, &[2.0])));
    }
    all.push((
        "unit grid".into(),
        CsrGraph::from_edge_list(&gen::grid2d(12, 12)).unwrap(),
    ));
    let mut el = gen::gnm(300, 2400, 7);
    el.symmetrize();
    graphdata::weights::assign_symmetric(
        &mut el,
        WeightModel::UniformFloat { lo: 0.1, hi: 2.0 },
        8,
    );
    all.push((
        "weighted gnm".into(),
        CsrGraph::from_edge_list(&el).unwrap(),
    ));
    all
}

#[test]
fn one_pass_rows_and_scan_are_the_comparator_sorts_and_the_scans_bit_for_bit() {
    for (name, g) in graphs() {
        let (rows, scan) = g.weight_sorted_rows();
        assert_eq!(bits(&rows), reference_rows(&g), "{name}: rows");
        assert_eq!(
            rows.capacity(),
            g.num_edges(),
            "{name}: one exact allocation"
        );
        assert_eq!(
            scan_bits(&scan),
            scan_bits(&g.weight_scan()),
            "{name}: scan"
        );
    }
}

#[test]
fn a_prepared_graph_exposes_what_the_scan_implies_through_both_doors() {
    for (name, g) in graphs() {
        let want = expected(&g);
        assert_eq!(exposed(&PreparedGraph::new(&g)), want, "{name}: new");
        assert_eq!(
            exposed(&PreparedGraph::load(g.clone())),
            want,
            "{name}: load"
        );
        if want.verdict.is_ok() {
            let resolved = DeltaStrategy::MeyerSanders.resolve(&g).map(f64::to_bits);
            assert_eq!(
                resolved.ok(),
                want.fallback_delta.clone().ok(),
                "{name}: Meyer-Sanders Δ"
            );
        }
    }
}
