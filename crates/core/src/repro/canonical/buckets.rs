//! The bucket priority structure of Meyer–Sanders delta-stepping
//! (Sec. III-B): bucket `B_i` holds the vertices whose tentative distance
//! lies in `[iΔ, (i+1)Δ)`.
//!
//! ## Circular recycling
//!
//! Delta-stepping only ever has buckets spanning `O(max_weight/Δ + 1)`
//! consecutive indices active at once — a light relaxation lands in the
//! current bucket or later, and no candidate can jump further than the
//! heaviest edge. The classic consequence (bale's `histogram`-style
//! queues use the same trick) is that buckets can live in a **circular
//! ring** addressed by `bucket mod capacity`: a huge-diameter graph
//! walks through millions of logical bucket indices while only
//! `O(max_weight/Δ + 1)` `Vec`s are ever resident, and an emptied slot's
//! allocation is recycled by the next logical bucket that maps onto it.
//!
//! The ring starts tiny and doubles only when two *simultaneously
//! occupied* logical buckets collide on a residue, so the structure
//! needs no up-front knowledge of `max_weight/Δ`. Logical bucket indices
//! remain unbounded — `location` and the public API speak logical
//! indices only, so callers are oblivious to the modular layout.

/// Buckets of vertices with O(1) membership moves and ordered access to the
/// smallest non-empty bucket, stored in a circular ring of recycled slots.
#[derive(Debug, Clone)]
pub struct BucketQueue {
    /// Ring of bucket storage; slot = `bucket & (rings.len() - 1)`.
    /// `rings.len()` is always a power of two. An empty `Vec` marks a
    /// free slot (its capacity is retained for the next resident).
    rings: Vec<Vec<usize>>,
    /// The logical bucket resident in each slot — meaningful only while
    /// the slot's ring is non-empty.
    slot_bucket: Vec<usize>,
    /// `location[v] = Some((bucket, position))` while `v` is queued;
    /// `bucket` is the *logical* index, so growth never invalidates it.
    location: Vec<Option<(usize, usize)>>,
    /// Queued vertices across all buckets.
    queued: usize,
}

/// Initial ring capacity: enough for unit-weight graphs (span ≤ 2)
/// without a single grow.
const INITIAL_SLOTS: usize = 4;

impl BucketQueue {
    /// An empty structure for `n` vertices.
    pub fn new(n: usize) -> Self {
        BucketQueue {
            rings: (0..INITIAL_SLOTS).map(|_| Vec::new()).collect(),
            slot_bucket: vec![0; INITIAL_SLOTS],
            location: vec![None; n],
            queued: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.rings.len() - 1
    }

    /// True when no bucket holds any vertex.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Index of the smallest non-empty bucket — one scan of the ring,
    /// whose length is `O(max_weight/Δ + 1)`, not `O(diameter)`.
    pub fn min_bucket(&self) -> Option<usize> {
        self.rings
            .iter()
            .zip(self.slot_bucket.iter())
            .filter(|(ring, _)| !ring.is_empty())
            .map(|(_, &b)| b)
            .min()
    }

    /// Whether vertex `v` is currently queued, and where.
    #[cfg(test)]
    fn bucket_of(&self, v: usize) -> Option<usize> {
        self.location[v].map(|(b, _)| b)
    }

    /// Number of slots currently resident in the ring (how the unit
    /// tests see the recycling behaviour).
    #[cfg(test)]
    fn resident_slots(&self) -> usize {
        self.rings.len()
    }

    /// The slot for logical bucket `b`, growing the ring first if `b`
    /// collides with a different resident bucket.
    fn slot_for(&mut self, b: usize) -> usize {
        let slot = b & self.mask();
        if self.rings[slot].is_empty() || self.slot_bucket[slot] == b {
            return slot;
        }
        self.grow_for(b);
        b & self.mask()
    }

    /// Double the ring until every resident bucket — and `b` — owns a
    /// distinct residue, then rehome the resident `Vec`s. Terminates
    /// because once the capacity exceeds the largest resident index the
    /// residues *are* the (distinct) indices. Positions inside each
    /// `Vec` never change, so `location` stays valid.
    fn grow_for(&mut self, b: usize) {
        let mut resident: Vec<usize> = self
            .rings
            .iter()
            .zip(self.slot_bucket.iter())
            .filter(|(ring, _)| !ring.is_empty())
            .map(|(_, &bk)| bk)
            .collect();
        resident.push(b);
        let mut cap = self.rings.len() * 2;
        loop {
            let mask = cap - 1;
            let mut residues: Vec<usize> = resident.iter().map(|&bk| bk & mask).collect();
            residues.sort_unstable();
            if residues.windows(2).all(|w| w[0] != w[1]) {
                break;
            }
            cap *= 2;
        }
        let mut rings: Vec<Vec<usize>> = (0..cap).map(|_| Vec::new()).collect();
        let mut slot_bucket = vec![0usize; cap];
        for (ring, &bk) in self.rings.iter_mut().zip(self.slot_bucket.iter()) {
            if ring.is_empty() {
                continue;
            }
            let s = bk & (cap - 1);
            rings[s] = std::mem::take(ring);
            slot_bucket[s] = bk;
        }
        self.rings = rings;
        self.slot_bucket = slot_bucket;
    }

    /// Move `v` into bucket `b` (removing it from its current bucket first).
    pub fn insert(&mut self, v: usize, b: usize) {
        self.remove(v);
        let slot = self.slot_for(b);
        let ring = &mut self.rings[slot];
        if ring.is_empty() {
            self.slot_bucket[slot] = b;
        }
        ring.push(v);
        self.location[v] = Some((b, ring.len() - 1));
        self.queued += 1;
    }

    /// Remove `v` if queued. Returns its former bucket.
    pub fn remove(&mut self, v: usize) -> Option<usize> {
        let (b, pos) = self.location[v].take()?;
        let slot = b & self.mask();
        let ring = &mut self.rings[slot];
        ring.swap_remove(pos);
        if pos < ring.len() {
            let moved = ring[pos];
            self.location[moved] = Some((b, pos));
        }
        self.queued -= 1;
        Some(b)
    }

    /// Take the entire contents of bucket `b`, emptying it (the
    /// "simultaneously empties the bucket" step of Sec. III-C). The
    /// vacated slot is immediately reusable by any later bucket with the
    /// same residue.
    pub fn take_bucket(&mut self, b: usize) -> Vec<usize> {
        let slot = b & self.mask();
        if self.rings[slot].is_empty() || self.slot_bucket[slot] != b {
            return Vec::new();
        }
        let vec = std::mem::take(&mut self.rings[slot]);
        for &v in &vec {
            self.location[v] = None;
        }
        self.queued -= vec.len();
        vec
    }

    /// Number of queued vertices across all buckets.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_and_min() {
        let mut q = BucketQueue::new(5);
        assert!(q.is_empty());
        q.insert(3, 2);
        q.insert(1, 0);
        q.insert(4, 2);
        assert_eq!(q.min_bucket(), Some(0));
        assert_eq!(q.bucket_of(3), Some(2));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn reinsert_moves_between_buckets() {
        let mut q = BucketQueue::new(4);
        q.insert(2, 5);
        q.insert(2, 1);
        assert_eq!(q.bucket_of(2), Some(1));
        assert_eq!(q.min_bucket(), Some(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_with_swap_updates_locations() {
        let mut q = BucketQueue::new(6);
        q.insert(0, 3);
        q.insert(1, 3);
        q.insert(2, 3);
        assert_eq!(q.remove(0), Some(3));
        // The swapped-in vertex must still be removable correctly.
        assert_eq!(q.remove(2), Some(3));
        assert_eq!(q.remove(1), Some(3));
        assert!(q.is_empty());
        assert_eq!(q.remove(1), None);
    }

    #[test]
    fn take_bucket_empties_and_clears_locations() {
        let mut q = BucketQueue::new(4);
        q.insert(0, 1);
        q.insert(3, 1);
        q.insert(2, 7);
        let mut taken = q.take_bucket(1);
        taken.sort_unstable();
        assert_eq!(taken, vec![0, 3]);
        assert_eq!(q.bucket_of(0), None);
        assert_eq!(q.min_bucket(), Some(7));
        assert!(q.take_bucket(1).is_empty());
    }

    /// The circular point: a long monotone walk (huge-diameter shape,
    /// bucket span 1) recycles the initial slots forever — the ring
    /// never grows no matter how large the logical indices get.
    #[test]
    fn monotone_walk_recycles_slots_without_growth() {
        let mut q = BucketQueue::new(2);
        for b in 0..10_000 {
            q.insert(0, b);
            q.insert(1, b + 1); // span 2, like a unit-weight frontier
            assert_eq!(q.min_bucket(), Some(b));
            assert_eq!(q.take_bucket(b), vec![0]);
            assert_eq!(q.take_bucket(b + 1), vec![1]);
            assert_eq!(q.resident_slots(), INITIAL_SLOTS, "bucket {b}");
        }
        assert!(q.is_empty());
    }

    /// Residue collisions between simultaneously occupied buckets force
    /// a grow; contents, locations, and ordering all survive it.
    #[test]
    fn growth_on_collision_preserves_contents_and_locations() {
        let mut q = BucketQueue::new(8);
        // Buckets 1 and 5 collide at the initial capacity 4 (5 ≡ 1).
        q.insert(0, 1);
        q.insert(1, 5);
        assert!(q.resident_slots() > INITIAL_SLOTS);
        assert_eq!(q.bucket_of(0), Some(1));
        assert_eq!(q.bucket_of(1), Some(5));
        // 1 and 9 collide mod 8 too: grows again.
        q.insert(2, 9);
        assert_eq!(q.min_bucket(), Some(1));
        assert_eq!(q.take_bucket(1), vec![0]);
        assert_eq!(q.min_bucket(), Some(5));
        assert_eq!(q.take_bucket(5), vec![1]);
        assert_eq!(q.take_bucket(9), vec![2]);
        assert!(q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // Model check against a straightforward BTreeMap-of-buckets
        // reference for any operation sequence: every observable —
        // membership, min bucket, sizes, taken sets — must agree.
        #[test]
        fn matches_btreemap_model(
            ops in proptest::collection::vec((0usize..3, 0usize..12, 0usize..40), 1..200),
        ) {
            let n = 12;
            let mut q = BucketQueue::new(n);
            let mut model: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (op, v, b) in ops {
                match op {
                    0 => {
                        // insert(v, b): move semantics in both.
                        model.values_mut().for_each(|vec| vec.retain(|&x| x != v));
                        model.retain(|_, vec| !vec.is_empty());
                        model.entry(b).or_default().push(v);
                        q.insert(v, b);
                    }
                    1 => {
                        let mut expect = None;
                        model.retain(|&bk, vec| {
                            if vec.contains(&v) {
                                expect = Some(bk);
                                vec.retain(|&x| x != v);
                            }
                            !vec.is_empty()
                        });
                        prop_assert_eq!(q.remove(v), expect);
                    }
                    _ => {
                        let mut expect = model.remove(&b).unwrap_or_default();
                        expect.sort_unstable();
                        let mut got = q.take_bucket(b);
                        got.sort_unstable();
                        prop_assert_eq!(got, expect);
                    }
                }
                prop_assert_eq!(q.min_bucket(), model.keys().next().copied());
                prop_assert_eq!(q.len(), model.values().map(|vec| vec.len()).sum::<usize>());
                for v in 0..n {
                    let expect = model
                        .iter()
                        .find(|(_, vec)| vec.contains(&v))
                        .map(|(&bk, _)| bk);
                    prop_assert_eq!(q.bucket_of(v), expect, "vertex {}", v);
                }
                prop_assert!(q.resident_slots().is_power_of_two());
            }
        }
    }
}
