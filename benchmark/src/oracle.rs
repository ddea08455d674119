//! The correctness oracle: seeded source sampling and the per-source
//! Dijkstra reference every answer is checked against.

use std::sync::OnceLock;
use std::time::Instant;

use graphdata::CsrGraph;
use sssp_core::dijkstra::dijkstra;
use sssp_core::SsspStats;
use sssp_serve::protocol::{dist_digest, Summary};

use crate::stats::median;

/// SplitMix64: the harness's only source of randomness, so a seed names
/// the same inputs on every machine and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep the per-connection and
    /// per-graph sequences of one run independent.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁴⁰ and irrelevant to a workload generator.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What Dijkstra says about one source, plus the first `SsspStats` any
/// solver reported for it (every later answer must repeat them).
pub struct Reference {
    pub source: usize,
    pub dist_fnv: u64,
    pub reached: u64,
    /// Largest finite distance from the source.
    pub eccentricity: f64,
    pub dijkstra_ms: f64,
    stats: OnceLock<SsspStats>,
}

impl Reference {
    /// Whether a wire `SUMMARY` agrees with Dijkstra bit for bit (via the
    /// FNV digest of the distance vector and the reached count) and with
    /// every earlier answer for this source (identical `SsspStats`).
    pub fn accepts(&self, summary: &Summary) -> bool {
        summary.source == self.source
            && summary.dist_fnv == self.dist_fnv
            && summary.reached == self.reached
            && summary.degraded.is_none()
            && self.same_stats(&summary.stats)
    }

    /// Record `stats` on first sight; afterwards demand equality.
    pub fn same_stats(&self, stats: &SsspStats) -> bool {
        self.stats.get_or_init(|| stats.clone()) == stats
    }
}

/// `count` sources with homogeneous work, each with its reference.
///
/// Vertices are visited in seeded order. Those whose Dijkstra reach is
/// below half the best reach are skipped: generated graphs have isolated
/// and sink vertices whose solve is a no-op. Of the first `pool` that
/// remain, the `count` whose eccentricity (the largest finite distance,
/// which sets the number of bucket epochs) lies nearest the pool's median
/// are kept, in visiting order. On a grid the epoch count varies 2×
/// between a corner and the centre, and with it the solve time; a wide
/// pool pins the band's centre (its error falls as 1/√pool), so the
/// sources a seed happens to draw no longer move the latency metrics.
/// `pool == count` keeps every eligible vertex visited.
pub fn sample_sources(g: &CsrGraph, count: usize, pool: usize, rng: &mut Rng) -> Vec<Reference> {
    let pool_size = pool.max(count);
    let mut order: Vec<usize> = (0..g.num_vertices()).collect();
    rng.shuffle(&mut order);
    let mut best = 0u64;
    let mut pool: Vec<Reference> = Vec::with_capacity(pool_size);
    for source in order {
        let t0 = Instant::now();
        let result = dijkstra(g, source);
        let dijkstra_ms = t0.elapsed().as_secs_f64() * 1e3;
        let reached = result.reachable_count() as u64;
        if reached > best {
            best = reached;
            // A better reach can disqualify earlier picks.
            pool.retain(|r| r.reached * 2 >= best);
        }
        if reached * 2 >= best {
            pool.push(Reference {
                source,
                dist_fnv: dist_digest(&result.dist),
                reached,
                eccentricity: result.eccentricity().unwrap_or(0.0),
                dijkstra_ms,
                stats: OnceLock::new(),
            });
        }
        if pool.len() == pool_size {
            break;
        }
    }
    assert!(!pool.is_empty(), "a non-empty graph always yields a source");
    let centre = median(&pool.iter().map(|r| r.eccentricity).collect::<Vec<_>>());
    let mut by_distance: Vec<usize> = (0..pool.len()).collect();
    // Stable: equally distant candidates keep their visiting order.
    by_distance.sort_by(|&a, &b| {
        (pool[a].eccentricity - centre)
            .abs()
            .total_cmp(&(pool[b].eccentricity - centre).abs())
    });
    let mut keep = vec![false; pool.len()];
    for &i in by_distance.iter().take(count) {
        keep[i] = true;
    }
    let mut keep = keep.into_iter();
    pool.retain(|_| keep.next().expect("one flag per candidate"));
    pool
}

/// Bitwise equality of two distance vectors (`==` on `f64` would accept
/// `0.0 == -0.0` and reject equal NaNs; the claim is bit identity).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::{grid2d, rmat, RmatParams};

    #[test]
    fn sampler_is_deterministic_in_the_seed() {
        let g = CsrGraph::from_edge_list(&rmat(RmatParams::graph500(9, 8), 42)).unwrap();
        let pick = |seed| -> Vec<usize> {
            sample_sources(&g, 16, 64, &mut Rng::new(seed, 0))
                .iter()
                .map(|r| r.source)
                .collect()
        };
        assert_eq!(pick(7), pick(7));
        assert_ne!(pick(7), pick(8));
    }

    #[test]
    fn sampler_keeps_only_wide_reaching_sources() {
        // Directed RMAT has many sink vertices (reach 1).
        let g = CsrGraph::from_edge_list(&rmat(RmatParams::graph500(9, 8), 42)).unwrap();
        let refs = sample_sources(&g, 32, 32, &mut Rng::new(1, 0));
        let best = refs.iter().map(|r| r.reached).max().unwrap();
        assert!(best > 64);
        assert!(refs.iter().all(|r| r.reached * 2 >= best));
        let mut sources: Vec<_> = refs.iter().map(|r| r.source).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), refs.len(), "sources are distinct");
    }

    #[test]
    fn sampler_keeps_the_eccentricity_band_around_the_pool_median() {
        // 2 x 64 strip: eccentricity runs from 33 (centre) to 64 (ends).
        let g = CsrGraph::from_edge_list(&grid2d(2, 64)).unwrap();
        let refs = sample_sources(&g, 8, 32, &mut Rng::new(5, 0));
        assert_eq!(refs.len(), 8);
        let (lo, hi) = refs.iter().fold((f64::MAX, 0.0f64), |(lo, hi), r| {
            (lo.min(r.eccentricity), hi.max(r.eccentricity))
        });
        assert!(
            hi - lo <= 12.0,
            "band [{lo}, {hi}] is a fraction of the 31-wide range"
        );
    }

    #[test]
    fn reference_pins_stats_on_first_sight() {
        let g = CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap();
        let refs = sample_sources(&g, 4, 4, &mut Rng::new(3, 0));
        let a = SsspStats {
            relaxations: 10,
            ..SsspStats::default()
        };
        let b = SsspStats {
            relaxations: 11,
            ..SsspStats::default()
        };
        assert!(refs[0].same_stats(&a));
        assert!(refs[0].same_stats(&a));
        assert!(!refs[0].same_stats(&b));
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        assert!(same_bits(&[1.0, f64::INFINITY], &[1.0, f64::INFINITY]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }
}
