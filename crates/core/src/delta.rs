//! Choosing the bucket width Δ.

use graphdata::CsrGraph;

use crate::guard::SsspError;

/// Strategies for picking Δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaStrategy {
    /// Δ = 1, the paper's experimental setting (Sec. VI-A). On unit-weight
    /// graphs this makes delta-stepping behave like Dijkstra (Sec. VII).
    Unit,
    /// A fixed user-chosen Δ.
    Fixed(f64),
    /// Meyer & Sanders' heuristic Δ = Θ(1/d): the maximum-weight / mean
    /// out-degree rule keeps the expected work per phase linear. Floored
    /// at the minimum positive edge weight so the bucket count stays
    /// bounded by the weight ratio instead of exploding toward
    /// `f64::MIN_POSITIVE` on graphs with tiny mean weight.
    MeyerSanders,
    /// Sample edge weights and degree at load time and pick Δ per graph:
    /// mean sampled weight over mean out-degree, clamped between the
    /// smallest positive sampled weight and the largest sampled weight.
    /// Deterministic (stride sampling, no RNG), so repeated runs on the
    /// same graph resolve the same Δ.
    Adaptive,
}

/// How many edge weights [`DeltaStrategy::Adaptive`] inspects at most.
const ADAPTIVE_SAMPLES: usize = 1024;

impl DeltaStrategy {
    /// Resolve the strategy against a concrete graph.
    ///
    /// Degenerate user input — [`DeltaStrategy::Fixed`] with a zero,
    /// negative, NaN, or infinite Δ — is rejected with
    /// [`SsspError::InvalidDelta`] instead of panicking; the derived
    /// strategies always succeed.
    pub fn resolve(&self, g: &CsrGraph) -> Result<f64, SsspError> {
        match *self {
            DeltaStrategy::Unit => Ok(1.0),
            DeltaStrategy::Fixed(d) => {
                if d > 0.0 && d.is_finite() {
                    Ok(d)
                } else {
                    Err(SsspError::InvalidDelta { delta: d })
                }
            }
            DeltaStrategy::MeyerSanders => {
                let d = g.mean_degree();
                let w = g.max_weight();
                if d <= 0.0 || w <= 0.0 {
                    Ok(1.0)
                } else {
                    // Θ(1/d) target, floored at the smallest positive
                    // weight: below that floor no edge is heavy anyway,
                    // so shrinking Δ further only multiplies buckets.
                    let floor = min_positive_weight(g).unwrap_or(1.0);
                    Ok((w / d).max(floor.min(w)))
                }
            }
            DeltaStrategy::Adaptive => Ok(adaptive_delta(g)),
        }
    }

    /// Canonical lowercase name, for logs and CLI round-trips.
    pub fn name(&self) -> &'static str {
        match self {
            DeltaStrategy::Unit => "unit",
            DeltaStrategy::Fixed(_) => "fixed",
            DeltaStrategy::MeyerSanders => "meyer-sanders",
            DeltaStrategy::Adaptive => "adaptive",
        }
    }
}

/// The smallest strictly positive edge weight, or `None` on graphs with
/// no positive weights at all.
fn min_positive_weight(g: &CsrGraph) -> Option<f64> {
    let mut min: Option<f64> = None;
    for (_, _, w) in g.iter_edges() {
        if w > 0.0 && min.is_none_or(|m| w < m) {
            min = Some(w);
        }
    }
    min
}

/// Δ for [`DeltaStrategy::Adaptive`]: stride-sample up to
/// [`ADAPTIVE_SAMPLES`] edge weights, then take mean weight over mean
/// degree, clamped to the sampled weight range.
fn adaptive_delta(g: &CsrGraph) -> f64 {
    let ne = g.num_edges();
    if ne == 0 {
        return 1.0;
    }
    let stride = ne.div_ceil(ADAPTIVE_SAMPLES).max(1);
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut min_pos = f64::INFINITY;
    let mut max_w = 0.0f64;
    for (i, (_, _, w)) in g.iter_edges().enumerate() {
        if i % stride != 0 {
            continue;
        }
        sum += w;
        count += 1;
        if w > 0.0 && w < min_pos {
            min_pos = w;
        }
        if w > max_w {
            max_w = w;
        }
    }
    let mean_w = if count > 0 { sum / count as f64 } else { 0.0 };
    let d = g.mean_degree();
    if mean_w <= 0.0 || d <= 0.0 || !min_pos.is_finite() {
        // All sampled weights zero (or no edges survived sampling):
        // any positive Δ works, keep the paper's default.
        return 1.0;
    }
    (mean_w / d).clamp(min_pos, max_w.max(min_pos))
}

/// The bucket index of a tentative distance: `⌊tent / Δ⌋` (Sec. III-B).
/// `∞` maps to `usize::MAX` (no bucket). Finite distances are capped at
/// `usize::MAX - 1`: the raw `as usize` cast saturates to `usize::MAX`
/// for huge `tent/Δ` ratios, which would collide with the "no bucket"
/// sentinel and silently drop a finite, reachable vertex.
#[inline]
pub fn bucket_of(tent: f64, delta: f64) -> usize {
    if tent.is_finite() {
        let b = tent / delta;
        if b >= usize::MAX as f64 {
            usize::MAX - 1
        } else {
            b as usize
        }
    } else {
        usize::MAX
    }
}

/// The smallest f64 strictly greater than `x`, for non-negative finite
/// `x` (distances are never negative). Local stand-in for
/// `f64::next_up`, which this crate's minimum toolchain predates.
pub(crate) fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else {
        f64::from_bits(x.to_bits() + 1)
    }
}

/// The exact lower edge of bucket `b`: the least `x ≥ 0` with
/// `bucket_of(x, Δ) ≥ b` (`∞` when no finite distance reaches `b`).
///
/// `bucket_of` is monotone in `x`, so `lo ≤ x < hi` with
/// `lo = bucket_start(b, Δ)` and `hi = bucket_start(b + 1, Δ)` holds
/// **iff** `bucket_of(x, Δ) == b` — a range test that agrees with the
/// division bit for bit, which `x < (b + 1) as f64 * Δ` does not for
/// Δ that are not powers of two. The product is off by at most a few
/// ulps, so the two correction loops run a handful of steps.
pub fn bucket_start(b: usize, delta: f64) -> f64 {
    let mut x = b as f64 * delta;
    if b == usize::MAX || !x.is_finite() {
        return crate::INF;
    }
    while x > 0.0 {
        let below = f64::from_bits(x.to_bits() - 1);
        if bucket_of(below, delta) < b {
            break;
        }
        x = below;
    }
    while bucket_of(x, delta) < b {
        x = next_up(x);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::grid2d;
    use graphdata::EdgeList;

    fn grid() -> CsrGraph {
        CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap()
    }

    #[test]
    fn unit_is_one() {
        assert_eq!(DeltaStrategy::Unit.resolve(&grid()), Ok(1.0));
    }

    #[test]
    fn fixed_passes_through() {
        assert_eq!(DeltaStrategy::Fixed(0.25).resolve(&grid()), Ok(0.25));
    }

    #[test]
    fn fixed_rejects_nonpositive_as_error() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = DeltaStrategy::Fixed(bad).resolve(&grid()).unwrap_err();
            assert!(
                matches!(err, SsspError::InvalidDelta { .. }),
                "delta {bad} gave {err:?}"
            );
        }
    }

    #[test]
    fn meyer_sanders_uses_weight_over_degree_with_floor() {
        let g = grid();
        let raw = g.max_weight() / g.mean_degree();
        let floor = min_positive_weight(&g).unwrap().min(g.max_weight());
        assert_eq!(
            DeltaStrategy::MeyerSanders.resolve(&g),
            Ok(raw.max(floor))
        );
        // Edgeless graph falls back to 1.
        let empty = CsrGraph::from_edge_list(&graphdata::EdgeList::new(3)).unwrap();
        assert_eq!(DeltaStrategy::MeyerSanders.resolve(&empty), Ok(1.0));
    }

    #[test]
    fn meyer_sanders_floored_at_min_positive_weight() {
        // A star with tiny weights and high degree: the raw w/d target is
        // far below every edge weight, so every edge would be heavy and
        // the run would crawl through billions of empty buckets. The
        // floor keeps Δ at the smallest positive weight instead.
        let el = EdgeList::from_triples(
            (1..100).map(|v| (0usize, v as usize, 1e-9)).collect::<Vec<_>>(),
        );
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let delta = DeltaStrategy::MeyerSanders.resolve(&g).unwrap();
        assert!(delta >= 1e-9, "delta {delta} below the min-weight floor");
        assert!(delta.is_finite() && delta > f64::MIN_POSITIVE * 1e10);
    }

    #[test]
    fn adaptive_is_positive_finite_and_deterministic() {
        let g = grid();
        let a = DeltaStrategy::Adaptive.resolve(&g).unwrap();
        let b = DeltaStrategy::Adaptive.resolve(&g).unwrap();
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
        // Empty graph falls back to 1.
        let empty = CsrGraph::from_edge_list(&graphdata::EdgeList::new(3)).unwrap();
        assert_eq!(DeltaStrategy::Adaptive.resolve(&empty), Ok(1.0));
    }

    #[test]
    fn adaptive_stays_within_sampled_weight_range() {
        let el = EdgeList::from_triples(vec![
            (0, 1, 0.5),
            (1, 2, 2.0),
            (2, 3, 4.0),
            (3, 0, 8.0),
        ]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        let delta = DeltaStrategy::Adaptive.resolve(&g).unwrap();
        assert!((0.5..=8.0).contains(&delta), "delta {delta} out of range");
    }

    #[test]
    fn strategy_names_round() {
        assert_eq!(DeltaStrategy::Unit.name(), "unit");
        assert_eq!(DeltaStrategy::Fixed(2.0).name(), "fixed");
        assert_eq!(DeltaStrategy::MeyerSanders.name(), "meyer-sanders");
        assert_eq!(DeltaStrategy::Adaptive.name(), "adaptive");
    }

    #[test]
    fn bucket_of_ranges() {
        assert_eq!(bucket_of(0.0, 1.0), 0);
        assert_eq!(bucket_of(0.99, 1.0), 0);
        assert_eq!(bucket_of(1.0, 1.0), 1);
        assert_eq!(bucket_of(7.5, 2.5), 3);
        assert_eq!(bucket_of(f64::INFINITY, 1.0), usize::MAX);
    }

    #[test]
    fn bucket_of_finite_never_hits_the_infinity_sentinel() {
        // Regression: with a tiny Δ the raw `as usize` cast saturates to
        // usize::MAX, colliding with the ∞ sentinel — a finite, reachable
        // vertex would silently never be bucketed. The checked version
        // caps finite distances at usize::MAX - 1.
        for (tent, delta) in [
            (1.0, 1e-300),
            (1e300, 1e-300),
            (f64::MAX, f64::MIN_POSITIVE),
            (usize::MAX as f64, 1.0),
        ] {
            let b = bucket_of(tent, delta);
            assert_ne!(
                b,
                usize::MAX,
                "finite tent {tent} / delta {delta} collided with the ∞ sentinel"
            );
        }
        assert_eq!(bucket_of(1.0, 1e-300), usize::MAX - 1);
    }

    #[test]
    fn bucket_start_is_the_exact_edge_of_the_division() {
        // Non-power-of-two Δ is where `b as f64 * Δ` and `⌊x / Δ⌋`
        // disagree by an ulp; the edge must side with the division.
        for delta in [0.1, 0.3, 1.0, 2.5, 1e-3, 7.0 / 3.0, 1e-300, 1e300] {
            for b in [0usize, 1, 2, 3, 7, 10, 29, 30, 1000, 123_456_789, usize::MAX - 1] {
                let lo = bucket_start(b, delta);
                if lo.is_finite() {
                    assert!(bucket_of(lo, delta) >= b, "Δ={delta} b={b}");
                    if lo > 0.0 {
                        let below = f64::from_bits(lo.to_bits() - 1);
                        assert!(bucket_of(below, delta) < b, "Δ={delta} b={b}");
                    }
                }
            }
            assert_eq!(bucket_start(0, delta), 0.0);
            assert_eq!(bucket_start(usize::MAX, delta), f64::INFINITY);
        }
        assert_eq!(bucket_start(3, 2.5), 7.5);
        assert_eq!(bucket_start(2, 0.5), 1.0);
    }
}
