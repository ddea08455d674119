//! The hardened execution layer: error taxonomy and preflight input
//! validation.
//!
//! The delta-stepping implementations in this crate follow the
//! paper's contract — finite non-negative weights, an in-range source,
//! and a positive finite Δ — and historically enforced it with `assert!`
//! (or, for inputs that slip past the asserts, by looping forever: a
//! negative-weight cycle makes every bucket refill indefinitely). This
//! module gives callers a non-panicking front door:
//!
//! * [`SsspError`] names every way a run can fail;
//! * [`preflight`] scans the CSR once (`O(|V| + |E|)`) and rejects bad
//!   weights, sources, and Δ before any work starts, optionally deriving
//!   a fallback Δ for degenerate requests;
//! * [`GuardConfig`] tunes both, and the epoch limit with which
//!   [`RunBudget::for_run`](crate::budget::RunBudget::for_run) bounds
//!   bucket epochs and light-relaxation rounds by the theoretical maximum
//!   for a valid input, so malformed state surfaces as
//!   [`SsspError::IterationLimitExceeded`] instead of a hang.
//!
//! Both single-run doors wire them in: [`crate::batch::run_job`] in
//! front of the stepping loop, [`crate::run::run_checked`] in front of
//! the paper-figure variants.

use std::fmt;

use graphdata::CsrGraph;

use crate::checkpoint::Checkpoint;
use crate::delta::meyer_sanders;

/// Everything that can go wrong in a checked SSSP run.
#[derive(Debug, Clone, PartialEq)]
pub enum SsspError {
    /// An edge weight is NaN or infinite.
    NonFiniteWeight {
        /// Edge source vertex.
        src: usize,
        /// Edge target vertex.
        dst: usize,
        /// The offending weight.
        weight: f64,
    },
    /// An edge weight is negative. Delta-stepping's bucket invariant
    /// (settled vertices never improve) requires non-negative weights.
    NegativeWeight {
        /// Edge source vertex.
        src: usize,
        /// Edge target vertex.
        dst: usize,
        /// The offending weight.
        weight: f64,
    },
    /// An edge weight is exactly zero and the selected implementation
    /// cannot handle it (the unfused GraphBLAS formulation uses `t_Req`
    /// as a *value* mask, Sec. V-B, so a stored 0 silently disappears).
    ZeroWeightUnsupported {
        /// Edge source vertex.
        src: usize,
        /// Edge target vertex.
        dst: usize,
        /// Name of the implementation that cannot run this input.
        implementation: &'static str,
    },
    /// The source vertex does not exist in the graph.
    SourceOutOfBounds {
        /// Requested source.
        source: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// The graph has more vertices than the pull index's `u32` sources
    /// can name ([`crate::pull::check_vertex_ids`]).
    TooManyVertices {
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// Δ is zero, negative, NaN, or infinite, and no fallback was allowed.
    InvalidDelta {
        /// The rejected Δ (may be NaN).
        delta: f64,
    },
    /// A stepping-strategy parameter is degenerate: ρ = 0 for ρ-stepping,
    /// or a zero/negative/non-finite Δ* for Δ*-stepping.
    InvalidStrategy {
        /// What was wrong with the requested strategy.
        reason: String,
    },
    /// The epoch budget tripped: the run exceeded the limit derived from
    /// the theoretical maximum for a valid input. Indicates malformed
    /// state (e.g. a negative-weight cycle smuggled past validation) or a
    /// Δ so small the run is impractical.
    IterationLimitExceeded {
        /// Epochs (bucket + light-phase rounds) executed before tripping.
        ticks: u64,
        /// The budget that was exceeded.
        limit: u64,
        /// Partial-result checkpoint captured at the trip point.
        checkpoint: Option<Box<Checkpoint>>,
    },
    /// The run's [`CancelToken`](crate::budget::CancelToken) was flipped.
    /// The work done so far is preserved in the checkpoint.
    Cancelled {
        /// Partial-result checkpoint captured at the cancellation point.
        checkpoint: Box<Checkpoint>,
    },
    /// The run's wall-clock deadline passed. The work done so far is
    /// preserved in the checkpoint.
    DeadlineExceeded {
        /// Partial-result checkpoint captured when the deadline fired.
        checkpoint: Box<Checkpoint>,
    },
    /// A checkpoint handed to a `resume_from` entry point is structurally
    /// inconsistent with the graph (wrong vertex count, out-of-bounds
    /// indices, degenerate Δ), was emitted by a non-resumable
    /// implementation, or its serialized form is truncated/corrupt.
    InvalidCheckpoint {
        /// What failed validation.
        reason: String,
    },
    /// Reading or writing a checkpoint file failed at the I/O layer
    /// (missing directory, permissions, disk full) — the checkpoint
    /// itself may be fine.
    CheckpointIo {
        /// The file involved.
        path: String,
        /// The underlying I/O error.
        message: String,
    },
    /// A run panicked on both rungs of the degradation ladder: the
    /// requested kernels and the sequential retry.
    WorkerPanicked {
        /// Stringified panic payload.
        message: String,
    },
}

impl SsspError {
    /// The partial-result checkpoint carried by this error, when one was
    /// captured (cancellation, deadline, and epoch-budget trips).
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            SsspError::Cancelled { checkpoint } | SsspError::DeadlineExceeded { checkpoint } => {
                Some(checkpoint)
            }
            SsspError::IterationLimitExceeded { checkpoint, .. } => checkpoint.as_deref(),
            _ => None,
        }
    }

    /// Take ownership of the carried checkpoint, if any.
    pub fn into_checkpoint(self) -> Option<Checkpoint> {
        match self {
            SsspError::Cancelled { checkpoint } | SsspError::DeadlineExceeded { checkpoint } => {
                Some(*checkpoint)
            }
            SsspError::IterationLimitExceeded { checkpoint, .. } => checkpoint.map(|c| *c),
            _ => None,
        }
    }
}

impl fmt::Display for SsspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsspError::NonFiniteWeight { src, dst, weight } => {
                write!(f, "edge {src} -> {dst} has non-finite weight {weight}")
            }
            SsspError::NegativeWeight { src, dst, weight } => {
                write!(f, "edge {src} -> {dst} has negative weight {weight}")
            }
            SsspError::ZeroWeightUnsupported {
                src,
                dst,
                implementation,
            } => write!(
                f,
                "edge {src} -> {dst} has zero weight, unsupported by the \
                 '{implementation}' implementation (value-mask caveat)"
            ),
            SsspError::SourceOutOfBounds {
                source,
                num_vertices,
            } => write!(
                f,
                "source vertex {source} out of bounds for a graph with \
                 {num_vertices} vertices"
            ),
            SsspError::TooManyVertices { num_vertices } => write!(
                f,
                "a graph with {num_vertices} vertices has ids past u32; at most 2^32 are supported"
            ),
            SsspError::InvalidDelta { delta } => {
                write!(f, "delta must be positive and finite, got {delta}")
            }
            SsspError::InvalidStrategy { reason } => {
                write!(f, "invalid stepping strategy: {reason}")
            }
            SsspError::IterationLimitExceeded { ticks, limit, checkpoint } => {
                write!(
                    f,
                    "iteration watchdog tripped after {ticks} epochs (limit {limit}); \
                     input is malformed or delta is impractically small"
                )?;
                if let Some(cp) = checkpoint {
                    write!(
                        f,
                        " (partial result: {} distances settled below {})",
                        cp.settled_count(),
                        cp.settled_below()
                    )?;
                }
                Ok(())
            }
            SsspError::Cancelled { checkpoint } => write!(
                f,
                "run cancelled at bucket {} (partial result: {} distances settled below {})",
                checkpoint.bucket,
                checkpoint.settled_count(),
                checkpoint.settled_below()
            ),
            SsspError::DeadlineExceeded { checkpoint } => write!(
                f,
                "deadline exceeded at bucket {} (partial result: {} distances settled below {})",
                checkpoint.bucket,
                checkpoint.settled_count(),
                checkpoint.settled_below()
            ),
            SsspError::InvalidCheckpoint { reason } => {
                write!(f, "cannot resume from checkpoint: {reason}")
            }
            SsspError::CheckpointIo { path, message } => {
                write!(f, "checkpoint I/O failed for {path}: {message}")
            }
            SsspError::WorkerPanicked { message } => {
                write!(f, "parallel worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SsspError {}

/// Tunables for [`preflight`] and
/// [`RunBudget::for_run`](crate::budget::RunBudget::for_run).
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// When the caller's Δ is degenerate (zero, negative, NaN, infinite),
    /// derive a usable Δ with the Meyer–Sanders rule instead of failing
    /// with [`SsspError::InvalidDelta`]. Off by default: a garbage Δ
    /// usually signals a caller bug worth surfacing.
    pub delta_fallback: bool,
    /// Hard upper bound on budget epochs regardless of the derived
    /// theoretical limit. Guards against Δ so small that the "valid"
    /// epoch count is itself astronomical.
    pub max_ticks: u64,
    /// Additive slack on the derived epoch limit, absorbing off-by-a-few
    /// differences between implementations' loop structures.
    pub tick_slack: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            delta_fallback: false,
            max_ticks: 10_000_000,
            tick_slack: 64,
        }
    }
}

/// Validate a run's inputs in one cheap pass. Returns the Δ to use —
/// either the caller's, or (with [`GuardConfig::delta_fallback`]) a
/// Meyer–Sanders-derived replacement for a degenerate one.
pub fn preflight(
    g: &CsrGraph,
    source: usize,
    delta: f64,
    cfg: &GuardConfig,
) -> Result<f64, SsspError> {
    let scan = g.weight_scan();
    let fallback = meyer_sanders(g.mean_degree(), scan.max_weight, scan.min_positive_weight);
    check_inputs(g.num_vertices(), &weights_verdict(&scan), fallback, source, delta, cfg)
}

/// [`preflight`]'s checks over what a weight scan learned — `weights`,
/// its verdict, and `fallback`, the Meyer–Sanders Δ — so a caller that
/// scanned once ([`crate::prepared::PreparedGraph`]) checks every run
/// without rescanning: the vertex count, the source, then the weights,
/// then Δ.
pub(crate) fn check_inputs(
    num_vertices: usize,
    weights: &Result<(), SsspError>,
    fallback: f64,
    source: usize,
    delta: f64,
    cfg: &GuardConfig,
) -> Result<f64, SsspError> {
    crate::pull::check_vertex_ids(num_vertices)?;
    if source >= num_vertices {
        return Err(SsspError::SourceOutOfBounds { source, num_vertices });
    }
    weights.clone()?;
    if delta.is_finite() && delta > 0.0 {
        Ok(delta)
    } else if cfg.delta_fallback {
        Ok(fallback)
    } else {
        Err(SsspError::InvalidDelta { delta })
    }
}

/// The typed verdict on a [`graphdata::WeightScan`]: its first invalid
/// edge, if any, as the error [`preflight`] reports for it.
pub(crate) fn weights_verdict(scan: &graphdata::WeightScan) -> Result<(), SsspError> {
    match scan.first_invalid {
        None => Ok(()),
        Some((src, dst, weight)) if !weight.is_finite() => {
            Err(SsspError::NonFiniteWeight { src, dst, weight })
        }
        Some((src, dst, weight)) => Err(SsspError::NegativeWeight { src, dst, weight }),
    }
}

/// Reject zero weights for implementations that cannot represent them
/// (the unfused GraphBLAS value-mask caveat).
pub fn reject_zero_weights(g: &CsrGraph, implementation: &'static str) -> Result<(), SsspError> {
    for (src, dst, weight) in g.iter_edges() {
        if weight == 0.0 {
            return Err(SsspError::ZeroWeightUnsupported {
                src,
                dst,
                implementation,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdata::gen::grid2d;

    fn grid() -> CsrGraph {
        CsrGraph::from_edge_list(&grid2d(4, 4)).unwrap()
    }

    #[test]
    fn preflight_accepts_valid_input() {
        let g = grid();
        assert_eq!(preflight(&g, 0, 1.0, &GuardConfig::default()), Ok(1.0));
    }

    #[test]
    fn preflight_rejects_out_of_bounds_source() {
        let g = grid();
        let err = preflight(&g, 99, 1.0, &GuardConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SsspError::SourceOutOfBounds {
                source: 99,
                num_vertices: 16
            }
        );
        // Empty graph: every source is out of bounds.
        let empty = CsrGraph::from_edge_list(&graphdata::EdgeList::new(0)).unwrap();
        assert!(matches!(
            preflight(&empty, 0, 1.0, &GuardConfig::default()),
            Err(SsspError::SourceOutOfBounds { .. })
        ));
    }

    /// The checks a prepared graph's preflight runs refuse a vertex count
    /// whose ids do not fit the pull index's `u32` sources, before the
    /// source check (no such graph fits in a test's memory, so the count
    /// is passed in).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn preflight_refuses_vertex_ids_past_u32() {
        let cfg = GuardConfig::default();
        let check = |n: usize, source: usize| check_inputs(n, &Ok(()), 1.0, source, 1.0, &cfg);
        let two_32 = 1usize << 32;
        assert_eq!(check(two_32, two_32 - 1), Ok(1.0));
        for n in [two_32 + 1, usize::MAX] {
            assert_eq!(check(n, 0), Err(SsspError::TooManyVertices { num_vertices: n }));
            assert_eq!(check(n, n), Err(SsspError::TooManyVertices { num_vertices: n }));
        }
    }

    #[test]
    fn preflight_rejects_nan_and_negative_weights() {
        let nan = CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![f64::NAN]);
        assert!(matches!(
            preflight(&nan, 0, 1.0, &GuardConfig::default()),
            Err(SsspError::NonFiniteWeight { src: 0, dst: 1, .. })
        ));
        let neg = CsrGraph::from_raw_parts_unchecked(2, vec![0, 1, 1], vec![1], vec![-3.0]);
        assert_eq!(
            preflight(&neg, 0, 1.0, &GuardConfig::default()),
            Err(SsspError::NegativeWeight {
                src: 0,
                dst: 1,
                weight: -3.0
            })
        );
    }

    #[test]
    fn preflight_delta_handling() {
        let g = grid();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = preflight(&g, 0, bad, &GuardConfig::default()).unwrap_err();
            assert!(matches!(err, SsspError::InvalidDelta { .. }), "delta {bad}");
        }
        let fallback = GuardConfig {
            delta_fallback: true,
            ..GuardConfig::default()
        };
        for bad in [0.0, f64::NAN, f64::INFINITY] {
            let d = preflight(&g, 0, bad, &fallback).unwrap();
            assert!(d.is_finite() && d > 0.0, "fallback for delta {bad} gave {d}");
        }
    }

    #[test]
    fn zero_weight_rejection_is_per_implementation() {
        let el = graphdata::EdgeList::from_triples(vec![(0, 1, 0.0), (1, 2, 1.0)]);
        let g = CsrGraph::from_edge_list(&el).unwrap();
        assert!(preflight(&g, 0, 1.0, &GuardConfig::default()).is_ok());
        assert_eq!(
            reject_zero_weights(&g, "gblas"),
            Err(SsspError::ZeroWeightUnsupported {
                src: 0,
                dst: 1,
                implementation: "gblas"
            })
        );
        let positive = CsrGraph::from_edge_list(&grid2d(3, 3)).unwrap();
        assert!(reject_zero_weights(&positive, "gblas").is_ok());
    }

    #[test]
    fn error_display_mentions_the_facts() {
        let text = SsspError::NonFiniteWeight {
            src: 3,
            dst: 7,
            weight: f64::NAN,
        }
        .to_string();
        assert!(text.contains('3') && text.contains('7') && text.contains("NaN"));
        let text = SsspError::IterationLimitExceeded {
            ticks: 11,
            limit: 10,
            checkpoint: None,
        }
        .to_string();
        assert!(text.contains("11") && text.contains("10"));
        let text = SsspError::WorkerPanicked {
            message: "boom".into(),
        }
        .to_string();
        assert!(text.contains("boom"));
    }
}
