//! Erdős–Rényi random graphs: `G(n, m)` (exact edge count) and `G(n, p)`
//! (independent edge probability).

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::edge_list::EdgeList;

/// `G(n, m)`: `m` distinct directed edges chosen uniformly among ordered
/// pairs `(u, v)`, `u ≠ v`. Deterministic in `seed`. `m` is clamped to the
/// number of possible edges.
///
/// Up to half density the edges are drawn by rejection, in draw order.
/// Past it, rejection would draw most pairs many times over, so the
/// `n(n − 1) − m` pairs to leave out are drawn instead and the rest are
/// emitted in row order, so the cost stays O(n²) up to the complete
/// digraph.
pub fn gnm(n: usize, m: usize, seed: u64) -> EdgeList {
    let mut el = EdgeList::new(n);
    if n < 2 {
        return el;
    }
    let possible = n * (n - 1);
    let m = m.min(possible);
    let mut rng = SmallRng::seed_from_u64(seed);
    if m <= possible / 2 {
        distinct_pairs(n, m, &mut rng, |u, v| el.push(u, v, 1.0));
        return el;
    }
    let missing = distinct_pairs(n, possible - m, &mut rng, |_, _| {});
    for u in 0..n {
        for v in (0..n).filter(|&v| v != u && !missing.contains(&(u, v))) {
            el.push(u, v, 1.0);
        }
    }
    el
}

/// Draw `k` distinct ordered pairs `(u, v)`, `u ≠ v`, by rejection,
/// passing each to `emit` in draw order; returns them as a set.
fn distinct_pairs(
    n: usize,
    k: usize,
    rng: &mut SmallRng,
    mut emit: impl FnMut(usize, usize),
) -> HashSet<(usize, usize)> {
    let mut seen = HashSet::with_capacity(k * 2);
    while seen.len() < k {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && seen.insert((u, v)) {
            emit(u, v);
        }
    }
    seen
}

/// `G(n, p)`: every ordered pair `(u, v)`, `u ≠ v`, becomes an edge
/// independently with probability `p`. O(n²) — intended for small tests.
pub fn gnp(n: usize, p: f64, seed: u64) -> EdgeList {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut el = EdgeList::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                el.push(u, v, 1.0);
            }
        }
    }
    el
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_count_no_loops_no_dups() {
        let el = gnm(50, 200, 7);
        assert_eq!(el.num_edges(), 200);
        let mut seen = std::collections::HashSet::new();
        for e in el.edges() {
            assert_ne!(e.src, e.dst);
            assert!(seen.insert((e.src, e.dst)));
        }
    }

    #[test]
    fn gnm_deterministic_in_seed() {
        assert_eq!(gnm(30, 100, 5), gnm(30, 100, 5));
        assert_ne!(gnm(30, 100, 5), gnm(30, 100, 6));
    }

    /// Past half density the left-out pairs are drawn: every other
    /// ordered pair appears once, in row order.
    #[test]
    fn dense_gnm_is_the_complement_of_its_missing_pairs() {
        let complete = gnm(1000, 999_000, 3);
        let all: Vec<(usize, usize)> =
            (0..1000).flat_map(|u| (0..1000).filter(move |&v| v != u).map(move |v| (u, v))).collect();
        let pairs = |el: &EdgeList| el.edges().iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>();
        assert_eq!(pairs(&complete), all);
        assert_eq!(gnm(1000, 2_000_000, 3), complete);
        let near = gnm(1000, 998_000, 3);
        assert_eq!(near.num_edges(), 998_000);
        let kept = pairs(&near);
        assert!(kept.windows(2).all(|w| w[0] < w[1]), "row order, each pair once");
        assert!(kept.iter().all(|&(u, v)| u != v && v < 1000));
        assert_ne!(near, gnm(1000, 998_000, 4));
    }

    #[test]
    fn gnm_clamps_to_possible() {
        let el = gnm(3, 100, 1);
        assert_eq!(el.num_edges(), 6);
        assert_eq!(gnm(1, 10, 1).num_edges(), 0);
        assert_eq!(gnm(0, 10, 1).num_edges(), 0);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).num_edges(), 90);
    }

    #[test]
    fn gnp_density_roughly_p() {
        let el = gnp(100, 0.1, 99);
        let density = el.num_edges() as f64 / (100.0 * 99.0);
        assert!((density - 0.1).abs() < 0.03, "density {density}");
    }
}
