//! Stress and property tests for the task pool: heavy concurrent load,
//! deep nesting, randomized chunked computations checked against
//! sequential references.
//!
//! Shared counters go through [`racecheck::TracedUsize`] instead of raw
//! atomics, and every test but the `join` loop opens a
//! [`racecheck::Session`], so the suite doubles as a happens-before
//! smoke test: the same load that stresses the pool also asserts that
//! every access pattern the pool promises to order really is ordered —
//! including the slot and buffer hand-offs of [`scope_collect`] and
//! [`scope_with_buffers`], the two primitives the production kernels
//! (`reqbuf`, `pull`, `fused`, `gblas::parallel`) are built on. Only a
//! [`TestSession`]'s own pools are traced, so each test opens one
//! before it creates its pool.

use std::sync::Arc;

use proptest::prelude::*;
use racecheck::{Session, TracedUsize};
use taskpool::fault::TestSession;
use taskpool::{join, scope, scope_collect, scope_with_buffers, split_evenly, ThreadPool};

#[test]
fn ten_thousand_tasks_across_many_scopes() {
    let _test = TestSession::begin();
    let pool = ThreadPool::with_threads(2).unwrap();
    let session = Session::new();
    let counter = TracedUsize::new(0);
    for _ in 0..100 {
        scope(&pool, |s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1);
                });
            }
        });
    }
    let races = session.take_races();
    assert!(races.is_empty(), "races under scope load: {races:?}");
    assert_eq!(counter.load(), 10_000);
    // Keep the tracker's per-task clock table bounded: one reset per
    // hundred-scope burst, not one giant 10k-task session.
    session.reset();
}

#[test]
fn deep_nesting_does_not_deadlock() {
    let _test = TestSession::begin();
    let pool = ThreadPool::with_threads(2).unwrap();
    fn recurse(pool: &ThreadPool, depth: usize, hits: &TracedUsize) {
        hits.fetch_add(1);
        if depth == 0 {
            return;
        }
        scope(pool, |s| {
            s.spawn(|| recurse(pool, depth - 1, hits));
            s.spawn(|| recurse(pool, depth - 1, hits));
        });
    }
    let session = Session::new();
    let hits = TracedUsize::new(0);
    recurse(&pool, 8, &hits);
    let races = session.take_races();
    assert!(races.is_empty(), "races under nested scopes: {races:?}");
    assert_eq!(hits.load(), 2usize.pow(9) - 1);
}

#[test]
fn concurrent_scopes_from_multiple_os_threads() {
    let _test = TestSession::begin();
    let pool = Arc::new(ThreadPool::with_threads(2).unwrap());
    let session = Session::new();
    let counter = Arc::new(TracedUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let pool = Arc::clone(&pool);
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                scope(&pool, |s| {
                    for _ in 0..10 {
                        let c = Arc::clone(&counter);
                        s.spawn(move || {
                            c.fetch_add(1);
                        });
                    }
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let races = session.take_races();
    assert!(races.is_empty(), "races across OS threads: {races:?}");
    assert_eq!(counter.load(), 4 * 50 * 10);
}

#[test]
fn join_under_contention() {
    let pool = ThreadPool::with_threads(2).unwrap();
    for i in 0..200u64 {
        let (a, b) = join(&pool, move || i * 2, move || i * 3);
        assert_eq!(a + b, i * 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Chunked map-reduce over `scope_collect` equals the sequential
    // fold, and the partials come back in spawn order.
    #[test]
    fn scope_collect_map_reduce_matches_sequential_in_spawn_order(
        data in proptest::collection::vec(-1000i64..1000, 0..2000),
        pieces in 1usize..9,
        threads in 1usize..5,
    ) {
        let _test = TestSession::begin();
        let pool = ThreadPool::with_threads(threads).unwrap();
        let session = Session::new();
        let chunks = split_evenly(0..data.len(), pieces);
        let partials = scope_collect(&pool, chunks.clone(), |k, r| {
            (k, data[r].iter().sum::<i64>())
        });
        let races = session.take_races();
        prop_assert!(races.is_empty(), "races on the result slots: {races:?}");
        prop_assert_eq!(partials.len(), chunks.len());
        for (k, (r, &(spawned_as, sum))) in chunks.iter().zip(&partials).enumerate() {
            prop_assert_eq!(spawned_as, k);
            prop_assert_eq!(sum, data[r.clone()].iter().sum::<i64>());
        }
        let total: i64 = partials.iter().map(|&(_, sum)| sum).sum();
        prop_assert_eq!(total, data.iter().sum::<i64>());
    }

    // A chunked transform through `scope_with_buffers` equals the
    // sequential one, buffer `k` holds chunk `k`, and the same buffers
    // serve a second phase without being reallocated.
    #[test]
    fn scope_with_buffers_equals_sequential_transform(
        data in proptest::collection::vec(0u32..10_000, 0..1500),
        pieces in 1usize..9,
        threads in 1usize..5,
    ) {
        let _test = TestSession::begin();
        let pool = ThreadPool::with_threads(threads).unwrap();
        let session = Session::new();
        let transform = |i: usize, x: u32| x.wrapping_mul(3).wrapping_add(i as u32);
        let expect: Vec<u32> = data.iter().enumerate().map(|(i, &x)| transform(i, x)).collect();
        let chunks = split_evenly(0..data.len(), pieces);
        let mut bufs: Vec<Vec<u32>> = Vec::new();
        let mut first_phase_ptrs = Vec::new();
        for phase in 0..2 {
            scope_with_buffers(&pool, &mut bufs, chunks.clone(), |_, buf, r| {
                buf.clear();
                buf.extend(r.map(|i| transform(i, data[i])));
            });
            prop_assert_eq!(bufs.len(), chunks.len());
            let got: Vec<u32> = bufs.iter().flatten().copied().collect();
            prop_assert_eq!(&got, &expect);
            let ptrs: Vec<*const u32> = bufs.iter().map(|b| b.as_ptr()).collect();
            if phase == 0 {
                first_phase_ptrs = ptrs;
            } else {
                prop_assert_eq!(&ptrs, &first_phase_ptrs);
            }
        }
        let races = session.take_races();
        prop_assert!(races.is_empty(), "races on the task buffers: {races:?}");
    }

    // Every index of an evenly split range is visited exactly once.
    #[test]
    fn scope_collect_visits_each_index_once(
        n in 0usize..3000,
        pieces in 1usize..200,
    ) {
        let _test = TestSession::begin();
        let pool = ThreadPool::with_threads(3).unwrap();
        let session = Session::new();
        let hits: Vec<TracedUsize> = (0..n).map(|_| TracedUsize::new(0)).collect();
        let visited = scope_collect(&pool, split_evenly(0..n, pieces), |_, r| {
            for i in r.clone() {
                hits[i].fetch_add(1);
            }
            r.len()
        });
        let races = session.take_races();
        prop_assert!(races.is_empty(), "races on the hit counters: {races:?}");
        prop_assert_eq!(visited.iter().sum::<usize>(), n);
        prop_assert!(hits.iter().all(|h| h.load() == 1));
    }
}
