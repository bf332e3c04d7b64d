//! Counting global allocator: the benchmark's view of the heap.
//!
//! Wraps [`System`] and keeps four relaxed counters — allocations, bytes
//! requested, live bytes, and a resettable high-water mark of live bytes.
//! The counters publish no other data (they are statistics), so `Relaxed`
//! is enough; a sharded run updates them from its worker threads too.
//!
//! This module holds the only `unsafe` in the benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The allocator `main.rs` installs as `#[global_allocator]`.
pub struct Counting;

fn grew(bytes: usize) {
    let bytes = bytes as u64;
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are updated only after a
// successful call and never influence the pointer or layout handed back.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // this layout, as the caller vouched.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` obeys the caller's `GlobalAlloc::realloc` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // One allocation event; live moves by the size difference. A
            // growing realloc may transiently hold both blocks inside
            // `System`, which no allocator-level counter can see.
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Heap {
    /// Allocation events so far (alloc, alloc_zeroed, realloc).
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads the counters.
pub fn heap() -> Heap {
    Heap {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts the high-water mark from the bytes live now, and returns them:
/// `peak - baseline` is then what the code in between added.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}
