//! Heap accounting for `peak_heap_mb`, and one allocator-state fix.
//!
//! Process RSS was the first choice for a memory metric and was dropped
//! on evidence: `VmHWM` of identical runs differed by 12–25 % (glibc
//! keeps up to 64 MB of freed heap, per arena, depending on the order of
//! earlier frees), which no 10 % bound can resolve. Counting the bytes
//! the program asks for is exact, moves when a data structure shrinks,
//! and ignores what the allocator does with freed pages. `VmHWM` is still
//! printed in the detail line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, with live and peak byte counters.
pub struct Counting;

// Relaxed: the counters publish no other data; they are statistics read
// after the threads that bumped them were joined or went idle.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e.
        // from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` obligations pass through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Forget the peak so far: the next [`peak_mb`] covers only what follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MB (2²⁰ bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// Put glibc malloc in the state a resident daemon converges to.
///
/// glibc serves a large request from `mmap` (fresh pages, one fault each)
/// until a block of at least that size has been *freed*, after which it
/// raises its threshold (capped at 32 MB) and serves such requests from
/// the reusable heap. Whether a cold solve's 8–16 MB split arrays fault
/// on every call therefore depended on what the graph generator happened
/// to free for a given seed: `solve_cold_ms` read 135 ms on one seed and
/// 160 ms on another, each repeatable. Freeing one block just under the
/// cap pins the raised state for every seed. Harmless on other
/// allocators.
pub fn settle_malloc_thresholds() {
    drop(black_box(Vec::<u8>::with_capacity(31 << 20)));
}
