//! Checkpointed partial results: what an interrupted delta-stepping run
//! leaves behind, and the invariant that makes it usable.
//!
//! A delta-stepping run stopped at an epoch boundary (cancellation,
//! deadline, watchdog trip) is not wasted work. The bucket invariant —
//! once bucket `j` has been emptied, no later relaxation can improve a
//! distance below `(j+1)·Δ` — means that at the moment bucket `i` is
//! current, **every tentative distance strictly below `i·Δ` is already
//! the final shortest-path distance**. [`Checkpoint::settled_below`]
//! records that bound, turning a partial run into a certified partial
//! answer.
//!
//! Every checkpoint a run emits comes from the one stepping loop
//! ([`crate::stepping`], every strategy, pooled or not): it captures the
//! exact loop state (current range, pending frontier, settled set of the
//! current range, counters), so
//! [`crate::engine::SsspEngine::resume_stepping`] can continue the run
//! and land on **bit-identical distances and stats** versus an
//! uninterrupted run. The format still carries an implementation tag and
//! a `resumable` flag because files on disk do: older binaries wrote
//! classic-loop checkpoints without a stepping section (still resumed, as
//! classic from `bucket·Δ`) and distance-only ones (`resumable == false`)
//! that the resume entry points refuse.

use graphdata::io::bytes::ByteReader;

use crate::budget::BudgetStop;
use crate::delta::bucket_start;
use crate::guard::SsspError;
use crate::stats::SsspStats;
use crate::stepping::SteppingStrategy;

/// Magic + version header of the serialized checkpoint format (the
/// `graphdata` binary-format family: fixed little-endian layout behind an
/// 8-byte magic; see [`Checkpoint::to_bytes`] for the full layout).
/// Version 2 appends the stepping section; version-1 files are rejected
/// by the magic check rather than misread.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"GBSSCKP2";

/// Canonical implementation tags in wire order: the byte written for a
/// checkpoint's `implementation` is the index into this table, so slots
/// are never removed — `fused`, `improved` and `atomic` name loops that
/// no longer exist and only appear in files written by older binaries.
/// The tag is a label; nothing routes on it.
const IMPLEMENTATION_TAGS: [&str; 7] =
    ["canonical", "fused", "gblas", "parallel", "improved", "atomic", "stepping"];

/// Where inside a bucket the run was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopPoint {
    /// At an outer epoch boundary: about to scan for the members of
    /// `bucket`. The frontier and settled sets are empty.
    BucketStart,
    /// At a light-phase boundary inside `bucket`: the frontier holds the
    /// vertices still to be light-relaxed, the settled set holds the
    /// bucket members already processed this bucket.
    LightPhase,
}

/// Loop state of the stepping loop (`crate::stepping`): the extraction
/// strategy, the certified settled bound, and the current range's
/// exclusive threshold. Checkpoints without one (files from older
/// binaries) are bounded by `bucket · Δ`; a resumable one is continued
/// as classic from that bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteppingState {
    /// The frontier-extraction strategy the run was using.
    pub strategy: SteppingStrategy,
    /// Exclusive certificate bound: every `dist[v] < bound` is final.
    pub bound: f64,
    /// Exclusive upper end of the range being drained (`[bound,
    /// threshold)`); equals `bound` at [`StopPoint::BucketStart`], where
    /// no range has been extracted yet.
    pub threshold: f64,
}

/// The state an interrupted run leaves behind.
///
/// Invariants (established by the emitting implementation, checked again
/// by the resume entry points):
///
/// * `dist[v] < settled_below` implies `dist[v]` is the final
///   shortest-path distance from `source` to `v`;
/// * `settled_below` is the extracted-range bound
///   ([`SteppingState::bound`]) when the checkpoint carries stepping
///   state, and the lower edge of `bucket` otherwise;
/// * when `stop_point == StopPoint::BucketStart`, `frontier` and
///   `settled` are empty;
/// * when `resumable`, replaying the frontier loop from this state is
///   bit-identical (distances *and* [`SsspStats`]) to the uninterrupted
///   run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Name of the implementation that emitted this checkpoint.
    pub implementation: &'static str,
    /// The run's source vertex.
    pub source: usize,
    /// The run's bucket width Δ.
    pub delta: f64,
    /// Tentative distances at the stop point (final below
    /// [`Checkpoint::settled_below`]).
    pub dist: Vec<f64>,
    /// Counters accumulated up to the stop point.
    pub stats: SsspStats,
    /// The bucket index that was current when the run stopped.
    pub bucket: usize,
    /// Where inside the bucket the run stopped.
    pub stop_point: StopPoint,
    /// Vertices awaiting light relaxation (empty at
    /// [`StopPoint::BucketStart`]).
    pub frontier: Vec<usize>,
    /// Current-bucket members already light-relaxed (empty at
    /// [`StopPoint::BucketStart`]).
    pub settled: Vec<usize>,
    /// Whether the stepping loop can be resumed bit-identically from this
    /// checkpoint: always for the loop's own, not for the distance-only
    /// files older binaries wrote.
    pub resumable: bool,
    /// Stepping-loop state; `None` for files written by older binaries.
    pub stepping: Option<SteppingState>,
}

impl Checkpoint {
    /// The partial-result certificate: every `dist[v]` strictly below this
    /// bound is the final shortest-path distance. For stepping-loop runs
    /// it is the extracted-range bound: every range below
    /// [`SteppingState::bound`] has been drained to a fixpoint. Without
    /// stepping state it is the bucket invariant — all buckets before
    /// `bucket` have been emptied, and relaxations out of bucket `i` can
    /// only produce values `≥ i·Δ` — taken at the bucket's exact lower
    /// edge ([`bucket_start`]), so the certificate covers precisely the
    /// vertices `bucket_of` places in an emptied bucket.
    pub fn settled_below(&self) -> f64 {
        match &self.stepping {
            Some(st) => st.bound,
            None => bucket_start(self.bucket, self.delta),
        }
    }

    /// Number of vertices whose distance is certified final.
    pub fn settled_count(&self) -> usize {
        let bound = self.settled_below();
        self.dist.iter().filter(|&&d| d < bound).count()
    }

    /// Iterator over `(vertex, distance)` pairs certified final.
    pub fn settled_distances(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let bound = self.settled_below();
        self.dist
            .iter()
            .copied()
            .enumerate()
            .filter(move |&(_, d)| d < bound)
    }

    /// Structural sanity check against the graph the checkpoint claims to
    /// belong to. The resume entry points run this before trusting any
    /// index in the checkpoint.
    pub fn validate(&self, num_vertices: usize) -> Result<(), SsspError> {
        let fail = |reason: &str| {
            Err(SsspError::InvalidCheckpoint {
                reason: reason.to_string(),
            })
        };
        if self.dist.len() != num_vertices {
            return fail("distance vector length does not match the graph");
        }
        if self.source >= num_vertices {
            return fail("source out of bounds");
        }
        if !(self.delta > 0.0 && self.delta.is_finite()) {
            return fail("non-positive or non-finite delta");
        }
        if self.frontier.iter().chain(self.settled.iter()).any(|&v| v >= num_vertices) {
            return fail("frontier/settled vertex out of bounds");
        }
        if self.stop_point == StopPoint::BucketStart
            && !(self.frontier.is_empty() && self.settled.is_empty())
        {
            return fail("bucket-start checkpoint carries a frontier");
        }
        if let Some(st) = &self.stepping {
            if st.strategy.validate().is_err() {
                return fail("degenerate stepping-strategy parameter");
            }
            if st.bound.is_nan() || st.bound < 0.0 {
                return fail("stepping bound must be non-negative");
            }
            if st.threshold.is_nan() || st.threshold < st.bound {
                return fail("stepping threshold must be at least the bound");
            }
        }
        Ok(())
    }

    /// Serialize to the versioned binary checkpoint format. All fields are
    /// little-endian:
    ///
    /// ```text
    /// magic        [u8; 8]  = b"GBSSCKP2"
    /// fingerprint  u64      graph fingerprint ([`graphdata::CsrGraph::fingerprint`])
    /// impl         u8       0 canonical, 1 fused, 2 gblas, 3 parallel,
    ///                       4 improved, 5 atomic, 6 stepping
    /// stop_point   u8       0 bucket-start, 1 light-phase
    /// resumable    u8       0 or 1
    /// source       u64
    /// delta        f64
    /// bucket       u64      (settled_below certificate = bucket · Δ when
    ///                       there is no stepping section)
    /// stats        5 × u64  buckets_processed, light_phases, heavy_phases,
    ///                       relaxations, improvements
    /// nv           u64
    /// dist         nv × f64
    /// nf           u64, frontier  nf × u64
    /// ns           u64, settled   ns × u64
    /// stepping     u8            0 none, 1 rho, 2 delta-star, 3 classic
    ///   (when ≠ 0) param      f64   ρ (integral) or the Δ* fusion factor
    ///              bound      f64   certified settled bound
    ///              threshold  f64   current range's exclusive threshold
    /// ```
    ///
    /// `fingerprint` binds the checkpoint to the graph it was taken
    /// against; [`Checkpoint::from_bytes`] hands it back so the loader can
    /// refuse to resume against a different graph.
    pub fn to_bytes(&self, fingerprint: u64) -> Vec<u8> {
        let mut buf =
            Vec::with_capacity(8 + 8 + 3 + 24 + 40 + 8 * (self.dist.len() + 4));
        buf.extend_from_slice(CHECKPOINT_MAGIC);
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        let tag = IMPLEMENTATION_TAGS
            .iter()
            .position(|t| *t == self.implementation)
            .expect("checkpoint implementation tag must be canonical") as u8;
        buf.push(tag);
        buf.push(match self.stop_point {
            StopPoint::BucketStart => 0,
            StopPoint::LightPhase => 1,
        });
        buf.push(u8::from(self.resumable));
        buf.extend_from_slice(&(self.source as u64).to_le_bytes());
        buf.extend_from_slice(&self.delta.to_le_bytes());
        buf.extend_from_slice(&(self.bucket as u64).to_le_bytes());
        for counter in [
            self.stats.buckets_processed as u64,
            self.stats.light_phases as u64,
            self.stats.heavy_phases as u64,
            self.stats.relaxations,
            self.stats.improvements,
        ] {
            buf.extend_from_slice(&counter.to_le_bytes());
        }
        buf.extend_from_slice(&(self.dist.len() as u64).to_le_bytes());
        for &d in &self.dist {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        for list in [&self.frontier, &self.settled] {
            buf.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for &v in list {
                buf.extend_from_slice(&(v as u64).to_le_bytes());
            }
        }
        match &self.stepping {
            None => buf.push(0),
            Some(st) => {
                let (tag, param) = match st.strategy {
                    SteppingStrategy::Rho(rho) => (1u8, rho as f64),
                    SteppingStrategy::DeltaStar(k) => (2, k),
                    SteppingStrategy::Classic => (3, 0.0),
                };
                buf.push(tag);
                buf.extend_from_slice(&param.to_le_bytes());
                buf.extend_from_slice(&st.bound.to_le_bytes());
                buf.extend_from_slice(&st.threshold.to_le_bytes());
            }
        }
        buf
    }

    /// Deserialize the [`Checkpoint::to_bytes`] format, returning the
    /// checkpoint and the graph fingerprint it was saved against. Total:
    /// every malformed input — truncated buffer, bad magic, unknown tags,
    /// lying lengths, trailing garbage, or a checkpoint that fails its own
    /// structural [`Checkpoint::validate`] — comes back as
    /// [`SsspError::InvalidCheckpoint`], never a panic or a blind
    /// allocation.
    pub fn from_bytes(data: &[u8]) -> Result<(Checkpoint, u64), SsspError> {
        let invalid = |reason: String| SsspError::InvalidCheckpoint { reason };
        let mut cur = ByteReader::new(data);
        let take_err = |e: graphdata::io::bytes::TruncatedRead| {
            SsspError::InvalidCheckpoint {
                reason: format!("serialized checkpoint {e}"),
            }
        };
        let magic = cur.take::<8>("magic").map_err(take_err)?;
        if &magic != CHECKPOINT_MAGIC {
            return Err(invalid(format!(
                "bad magic {magic:?}, expected {CHECKPOINT_MAGIC:?}"
            )));
        }
        let fingerprint = cur.u64_le("graph fingerprint").map_err(take_err)?;
        let tag = cur.u8("implementation tag").map_err(take_err)?;
        let implementation = IMPLEMENTATION_TAGS
            .get(tag as usize)
            .copied()
            .ok_or_else(|| invalid(format!("unknown implementation tag {tag}")))?;
        let stop_point = match cur.u8("stop point").map_err(take_err)? {
            0 => StopPoint::BucketStart,
            1 => StopPoint::LightPhase,
            other => return Err(invalid(format!("unknown stop point {other}"))),
        };
        let resumable = match cur.u8("resumable flag").map_err(take_err)? {
            0 => false,
            1 => true,
            other => return Err(invalid(format!("resumable flag must be 0/1, got {other}"))),
        };
        let source = usize::try_from(cur.u64_le("source").map_err(take_err)?)
            .map_err(|_| invalid("source overflows usize".to_string()))?;
        let delta = cur.f64_le("delta").map_err(take_err)?;
        let bucket = usize::try_from(cur.u64_le("bucket").map_err(take_err)?)
            .map_err(|_| invalid("bucket overflows usize".to_string()))?;
        let mut counters = [0u64; 5];
        for (c, what) in counters.iter_mut().zip([
            "buckets_processed",
            "light_phases",
            "heavy_phases",
            "relaxations",
            "improvements",
        ]) {
            *c = cur.u64_le(what).map_err(take_err)?;
        }
        let stats = SsspStats {
            buckets_processed: usize::try_from(counters[0])
                .map_err(|_| invalid("buckets_processed overflows usize".to_string()))?,
            light_phases: usize::try_from(counters[1])
                .map_err(|_| invalid("light_phases overflows usize".to_string()))?,
            heavy_phases: usize::try_from(counters[2])
                .map_err(|_| invalid("heavy_phases overflows usize".to_string()))?,
            relaxations: counters[3],
            improvements: counters[4],
        };
        let read_len = |what: &str, cur: &mut ByteReader<'_>| -> Result<usize, SsspError> {
            let len = usize::try_from(cur.u64_le(what).map_err(take_err)?)
                .map_err(|_| invalid(format!("{what} overflows usize")))?;
            // A lying length must not trigger a huge allocation: the
            // payload it claims has to fit in the bytes that remain.
            let need = len
                .checked_mul(8)
                .ok_or_else(|| invalid(format!("{what} overflows the buffer")))?;
            if cur.remaining() < need {
                return Err(invalid(format!(
                    "serialized checkpoint truncated: {what} claims {len} entries \
                     ({need} bytes) but only {} bytes remain",
                    cur.remaining()
                )));
            }
            Ok(len)
        };
        let nv = read_len("distance count", &mut cur)?;
        let mut dist = Vec::with_capacity(nv);
        for _ in 0..nv {
            dist.push(cur.f64_le("distance").map_err(take_err)?);
        }
        let mut lists = [Vec::new(), Vec::new()];
        for (list, what) in lists.iter_mut().zip(["frontier length", "settled length"]) {
            let len = read_len(what, &mut cur)?;
            list.reserve(len);
            for _ in 0..len {
                let v = usize::try_from(cur.u64_le("vertex index").map_err(take_err)?)
                    .map_err(|_| invalid("vertex index overflows usize".to_string()))?;
                list.push(v);
            }
        }
        let stepping = match cur.u8("stepping tag").map_err(take_err)? {
            0 => None,
            tag @ 1..=3 => {
                let param = cur.f64_le("stepping parameter").map_err(take_err)?;
                let bound = cur.f64_le("stepping bound").map_err(take_err)?;
                let threshold = cur.f64_le("stepping threshold").map_err(take_err)?;
                let strategy = match tag {
                    1 => {
                        if !(param.is_finite() && param >= 1.0 && param.fract() == 0.0)
                            || param > usize::MAX as f64
                        {
                            return Err(invalid(format!("rho parameter {param} is not a count")));
                        }
                        SteppingStrategy::Rho(param as usize)
                    }
                    2 => SteppingStrategy::DeltaStar(param),
                    _ => SteppingStrategy::Classic,
                };
                Some(SteppingState {
                    strategy,
                    bound,
                    threshold,
                })
            }
            other => return Err(invalid(format!("unknown stepping tag {other}"))),
        };
        if cur.remaining() != 0 {
            return Err(invalid(format!(
                "{} trailing bytes after the checkpoint payload",
                cur.remaining()
            )));
        }
        let [frontier, settled] = lists;
        let cp = Checkpoint {
            implementation,
            source,
            delta,
            dist,
            stats,
            bucket,
            stop_point,
            frontier,
            settled,
            resumable,
            stepping,
        };
        // Self-consistency against its own vertex count; the caller still
        // checks the fingerprint and real graph size.
        cp.validate(cp.dist.len())?;
        Ok((cp, fingerprint))
    }
}

/// Durable write shared by the checkpoint and manifest savers: write to a
/// sibling `<path>.tmp`, then atomically rename over `path`, so a crash
/// mid-save leaves either the old file or the new one — never a torn
/// read. Any failure after the tmp file exists removes it before the
/// original error is surfaced, so an interrupted save cannot leak
/// orphans. The rename honors the
/// [`taskpool::fault::arm_checkpoint_rename_failure`] test hook.
pub(crate) fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Err(e) = std::fs::write(&tmp, bytes) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if taskpool::fault::take_checkpoint_rename_failure() {
        let _ = std::fs::remove_file(&tmp);
        return Err(std::io::Error::other(
            taskpool::fault::INJECTED_RENAME_FAILURE_MESSAGE,
        ));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Borrowed view of the stepping loop's state, used to build a
/// [`Checkpoint`] at the instant a [`BudgetStop`] fires. Its checkpoints
/// are tagged `stepping` and always resumable.
#[derive(Debug, Clone, Copy)]
pub struct LiveState<'a> {
    /// Run source.
    pub source: usize,
    /// Run Δ.
    pub delta: f64,
    /// Current tentative distances.
    pub dist: &'a [f64],
    /// Counters so far.
    pub stats: &'a SsspStats,
    /// Current bucket index.
    pub bucket: usize,
    /// Stop location within the bucket.
    pub stop_point: StopPoint,
    /// Pending frontier (empty at bucket start).
    pub frontier: &'a [usize],
    /// Settled set of the current bucket (empty at bucket start).
    pub settled: &'a [usize],
    /// Strategy, certified bound and current range of the loop.
    pub stepping: SteppingState,
}

impl LiveState<'_> {
    /// Snapshot the live state into an owned [`Checkpoint`].
    pub fn capture(&self) -> Checkpoint {
        Checkpoint {
            implementation: "stepping",
            source: self.source,
            delta: self.delta,
            dist: self.dist.to_vec(),
            stats: self.stats.clone(),
            bucket: self.bucket,
            stop_point: self.stop_point,
            frontier: self.frontier.to_vec(),
            settled: self.settled.to_vec(),
            resumable: true,
            stepping: Some(self.stepping),
        }
    }

    /// Wrap a [`BudgetStop`] into the matching [`SsspError`], carrying the
    /// captured checkpoint.
    pub fn stop(&self, stop: BudgetStop) -> SsspError {
        let checkpoint = Box::new(self.capture());
        match stop {
            BudgetStop::Cancelled => SsspError::Cancelled { checkpoint },
            BudgetStop::DeadlineExceeded => SsspError::DeadlineExceeded { checkpoint },
            BudgetStop::IterationLimit { ticks, limit } => SsspError::IterationLimitExceeded {
                ticks,
                limit,
                checkpoint: Some(checkpoint),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INF;

    fn sample() -> Checkpoint {
        Checkpoint {
            implementation: "fused",
            source: 0,
            delta: 0.5,
            dist: vec![0.0, 0.4, 1.1, INF],
            stats: SsspStats::default(),
            bucket: 2,
            stop_point: StopPoint::BucketStart,
            frontier: Vec::new(),
            settled: Vec::new(),
            resumable: true,
            stepping: None,
        }
    }

    fn stepping_sample() -> Checkpoint {
        let mut cp = sample();
        cp.implementation = "stepping";
        cp.stepping = Some(SteppingState {
            strategy: SteppingStrategy::Rho(64),
            bound: 1.0,
            threshold: 1.0,
        });
        cp
    }

    #[test]
    fn settled_bound_counts_only_finalized_vertices() {
        let cp = sample();
        assert_eq!(cp.settled_below(), 1.0);
        assert_eq!(cp.settled_count(), 2); // 0.0 and 0.4; 1.1 and INF are not certified
        let settled: Vec<_> = cp.settled_distances().collect();
        assert_eq!(settled, vec![(0, 0.0), (1, 0.4)]);
    }

    #[test]
    fn validate_rejects_structural_corruption() {
        let cp = sample();
        assert!(cp.validate(4).is_ok());
        assert!(matches!(
            cp.validate(5),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
        let mut bad = sample();
        bad.delta = f64::NAN;
        assert!(bad.validate(4).is_err());
        let mut bad = sample();
        bad.frontier = vec![99];
        bad.stop_point = StopPoint::LightPhase;
        assert!(bad.validate(4).is_err());
        let mut bad = sample();
        bad.frontier = vec![1];
        // BucketStart must not carry a frontier.
        assert!(bad.validate(4).is_err());
    }

    #[test]
    fn serialization_round_trips_every_field() {
        let mut cp = sample();
        cp.stats = SsspStats {
            buckets_processed: 3,
            light_phases: 9,
            heavy_phases: 3,
            relaxations: 41,
            improvements: 17,
        };
        cp.stop_point = StopPoint::LightPhase;
        cp.frontier = vec![1, 3];
        cp.settled = vec![0];
        let bytes = cp.to_bytes(0xdead_beef_cafe_f00d);
        let (back, fp) = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(fp, 0xdead_beef_cafe_f00d);
        assert_eq!(back, cp);
    }

    #[test]
    fn every_implementation_tag_round_trips() {
        for tag in IMPLEMENTATION_TAGS {
            let mut cp = sample();
            cp.implementation = tag;
            let (back, _) = Checkpoint::from_bytes(&cp.to_bytes(7)).unwrap();
            assert_eq!(back.implementation, tag);
        }
    }

    #[test]
    fn stepping_state_round_trips_and_owns_the_settled_bound() {
        let mut cp = stepping_sample();
        cp.stop_point = StopPoint::LightPhase;
        cp.frontier = vec![2];
        cp.settled = vec![0, 1];
        cp.stepping = Some(SteppingState {
            strategy: SteppingStrategy::DeltaStar(4.0),
            bound: 0.5,
            threshold: 2.5,
        });
        // The certificate bound comes from the stepping state, not
        // bucket · Δ (which would be 1.0 here).
        assert_eq!(cp.settled_below(), 0.5);
        assert_eq!(cp.settled_count(), 2); // 0.0 and 0.4
        let (back, fp) = Checkpoint::from_bytes(&cp.to_bytes(99)).unwrap();
        assert_eq!(fp, 99);
        assert_eq!(back, cp);

        let mut rho = stepping_sample();
        rho.stepping = Some(SteppingState {
            strategy: SteppingStrategy::Rho(1 << 20),
            bound: 1.0,
            threshold: 1.0,
        });
        let (back, _) = Checkpoint::from_bytes(&rho.to_bytes(1)).unwrap();
        assert_eq!(back, rho);
    }

    #[test]
    fn validate_enforces_stepping_consistency() {
        assert!(stepping_sample().validate(4).is_ok());
        // The implementation tag is a label: it neither requires nor
        // forbids the stepping section (an older binary's "stepping" file
        // and a relabelled one both decode), and classic is a strategy
        // like the others.
        let mut relabelled = stepping_sample();
        relabelled.stepping = None;
        assert!(relabelled.validate(4).is_ok());
        let mut relabelled = sample();
        relabelled.stepping = stepping_sample().stepping;
        assert!(relabelled.validate(4).is_ok());
        let mut classic = stepping_sample();
        classic.stepping.as_mut().unwrap().strategy = SteppingStrategy::Classic;
        assert!(classic.validate(4).is_ok());
        let (back, _) = Checkpoint::from_bytes(&classic.to_bytes(3)).unwrap();
        assert_eq!(back, classic);
        // Degenerate strategy parameters are rejected.
        for strategy in [SteppingStrategy::Rho(0), SteppingStrategy::DeltaStar(0.0)] {
            let mut bad = stepping_sample();
            bad.stepping.as_mut().unwrap().strategy = strategy;
            assert!(bad.validate(4).is_err(), "{strategy:?}");
        }
        // The threshold can never sit below the certified bound.
        let mut bad = stepping_sample();
        bad.stepping.as_mut().unwrap().threshold = 0.25;
        assert!(bad.validate(4).is_err());
        let mut bad = stepping_sample();
        bad.stepping.as_mut().unwrap().bound = f64::NAN;
        assert!(bad.validate(4).is_err());
    }

    #[test]
    fn truncated_and_corrupt_bytes_rejected_cleanly() {
        let bytes = sample().to_bytes(42);
        // Truncation at every prefix length is a clean error, not a panic.
        for cut in 0..bytes.len() {
            assert!(matches!(
                Checkpoint::from_bytes(&bytes[..cut]),
                Err(SsspError::InvalidCheckpoint { .. })
            ));
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&long),
            Err(SsspError::InvalidCheckpoint { .. })
        ));
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        // Unknown implementation tag / stop point / resumable flag.
        for (offset, junk) in [(16usize, 99u8), (17, 7), (18, 2)] {
            let mut bad = bytes.clone();
            bad[offset] = junk;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "byte {offset} = {junk} must be rejected"
            );
        }
    }

    #[test]
    fn lying_length_rejected_without_allocation_blowup() {
        let mut bytes = sample().to_bytes(1);
        // The distance-count field sits right after the fixed 83-byte
        // header (8 magic + 8 fp + 3 tags + 24 scalars + 40 stats).
        let dist_len_at = 8 + 8 + 3 + 24 + 40;
        bytes[dist_len_at..dist_len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("distance count"), "{err}");
    }

    #[test]
    fn live_state_capture_and_stop_wrap_the_budget_verdict() {
        let stats = SsspStats::default();
        let dist = [0.0, 0.3, INF];
        let frontier = [2usize];
        let settled = [1usize];
        let live = LiveState {
            source: 0,
            delta: 1.0,
            dist: &dist,
            stats: &stats,
            bucket: 1,
            stop_point: StopPoint::LightPhase,
            frontier: &frontier,
            settled: &settled,
            stepping: SteppingState {
                strategy: SteppingStrategy::Classic,
                bound: 1.0,
                threshold: 2.0,
            },
        };
        match live.stop(BudgetStop::Cancelled) {
            SsspError::Cancelled { checkpoint } => {
                assert_eq!(checkpoint.bucket, 1);
                assert_eq!(checkpoint.frontier, vec![2]);
                assert_eq!(checkpoint.settled, vec![1]);
                assert_eq!(checkpoint.settled_below(), 1.0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        match live.stop(BudgetStop::IterationLimit { ticks: 7, limit: 6 }) {
            SsspError::IterationLimitExceeded { ticks: 7, limit: 6, checkpoint: Some(cp) } => {
                assert_eq!(cp.implementation, "stepping");
                assert!(cp.resumable);
            }
            other => panic!("expected IterationLimitExceeded, got {other:?}"),
        }
    }
}
