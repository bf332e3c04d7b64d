//! The heap probe: the one counting allocator outside `benchmark/`, and
//! the heap budget table.
//!
//! Every heap test crate and the `mnp-run` binary include this file with
//! `#[path = …] mod heap_probe;`, so the library crates keep
//! `#![forbid(unsafe_code)]`. The counters are per thread, so a test
//! reads only its own thread's work. The `pub const`s at the end are the
//! budget table: one row per asserted heap bound, its doc line giving
//! subject · phase (build, or run after `build` returns) · metric, an
//! upper bound unless it says otherwise, with the value measured when it
//! was set · the change that set it (DESIGN §13 names its PR). "Excess
//! peak" is build's peak above what the built network keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread has asked of the heap.
#[derive(Clone, Copy, Debug)]
pub struct Heap {
    /// Bytes allocated minus bytes freed by this thread.
    pub live: i64,
    /// The most `live` has been since the last [`mark`].
    pub peak: i64,
    /// Allocation calls, `alloc` and `realloc`.
    pub calls: u64,
    /// Bytes requested: each `alloc`'s size plus each `realloc`'s growth.
    pub requested: u64,
}

impl Heap {
    /// What this thread did since `start`, which [`mark`] returned; the
    /// peak is measured from `start`'s live bytes.
    pub fn since(self, start: Heap) -> Heap {
        Heap {
            live: self.live - start.live,
            peak: self.peak - start.live,
            calls: self.calls - start.calls,
            requested: self.requested - start.requested,
        }
    }
}

thread_local! {
    static HEAP: Cell<Heap> = const {
        Cell::new(Heap { live: 0, peak: 0, calls: 0, requested: 0 })
    };
}

/// This thread's counters.
pub fn snapshot() -> Heap {
    HEAP.with(Cell::get)
}

/// Restarts this thread's peak at its live bytes and returns its counters.
pub fn mark() -> Heap {
    HEAP.with(|heap| {
        heap.set(Heap {
            peak: heap.get().live,
            ..heap.get()
        });
        heap.get()
    })
}

fn record(bytes: i64, calls: u64, requested: u64) {
    // `try_with`: a thread still allocates while its locals are torn down.
    let _ = HEAP.try_with(|heap| {
        let was = heap.get();
        let live = was.live + bytes;
        heap.set(Heap {
            live,
            peak: was.peak.max(live),
            calls: was.calls + calls,
            requested: was.requested + requested,
        });
    });
}

struct Probe;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointer handed back.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, 1, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), 0, 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let growth = new_size.saturating_sub(layout.size()) as u64;
        record(new_size as i64 - layout.size() as i64, 1, growth);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// MNP 30×30, seed 42 · run · bytes left per node (97) · inline requested-sources ring.
pub const MNP_GRID_RUN_BYTES_PER_NODE: i64 = 104;
/// MNP 30×30, Deluge-like 10×10 · run · under 1 call per this many data msgs · frames name packets.
pub const DATA_MSGS_PER_RUN_ALLOC: u64 = 4;
/// RLNC 6×6, 2 segments · run · under 1 call per this many coded msgs (0.48) · this probe.
pub const CODED_MSGS_PER_RUN_ALLOC: u64 = 1;
/// RLNC 6×6, 2 segments · run · bytes left per node (1 612) · this probe.
pub const RLNC_GRID_RUN_BYTES_PER_NODE: i64 = 2_048;
/// MNP, 36 mobile nodes, seed 42 · run · calls per node (3.1) · inline requested-sources ring.
pub const MOBILE_RUN_ALLOCS_PER_NODE: u64 = 4;
/// MNP, 36 mobile nodes, seed 42 · run · bytes left per potential edge (138) · this probe.
pub const MOBILE_RUN_BYTES_PER_EDGE: i64 = 192;
/// `Medium` 20×20, 4 096 warm transmissions · run · calls · allocation-free radio path.
pub const MEDIUM_STEADY_STATE_ALLOCS: u64 = 0;
/// `PacketStore::new`, 2 segments · build · calls, exactly · stores that record writes.
pub const STORE_NEW_ALLOCS: u64 = 1;
/// `PacketStore`, an image written and read back · run · calls · one image buffer per node.
pub const STORE_WRITE_READ_ALLOCS: u64 = 0;
/// `CsmaBank::new(10 000)` · build · bytes per node · shared MAC frame pool.
pub const CSMA_BANK_BYTES_PER_NODE: i64 = 24;
/// `CsmaBank::new(10 000)` · build · bytes beside the node columns · shared MAC frame pool.
pub const CSMA_BANK_FIXED_BYTES: i64 = 64;
/// 10 000 MACs drained in turn · run · bytes and peak in a burst's slots · shared MAC frame pool.
pub const CSMA_POOL_GROWTH: i64 = 2;
/// `build`, 64 × 4 KiB protocols · build · excess peak in protocol vectors · pair-filtered set-up.
pub const BUILD_SPARE_PROTOCOL_VECTORS: i64 = 1;
/// `build`, 300-node clique · build · excess peak, in link graphs · one link graph.
pub const BUILD_SPARE_LINK_GRAPHS: i64 = 1;
/// `link_schedule` + `build` · build · peak bytes per change · motion schedule held once.
pub const TIMELINE_BUILD_BYTES_PER_CHANGE: i64 = 24;
/// Timeline build · build · peak bytes per node past the schedule · motion schedule held once.
pub const TIMELINE_BUILD_BYTES_PER_NODE: i64 = 512;
/// Timeline build · build · peak bytes per edge past the schedule · motion schedule held once.
pub const TIMELINE_BUILD_BYTES_PER_EDGE: i64 = 64;
/// Timeline build · build · peak bytes per flap past the schedule · motion schedule held once.
pub const TIMELINE_BUILD_BYTES_PER_FLAP: i64 = 128;
/// `GenDecoder::new` · build · calls · decode-time heap.
pub const DECODER_NEW_ALLOCS: u64 = 0;
/// `GenDecoder` below full rank · run · row bytes held per byte the rows have needed at most (peak 7 007 B at 128 × 23) · compact decoder.
pub const DECODER_GROWTH: f64 = 1.25;
/// `GenDecoder`, one 128-packet generation · run · calls besides growth and shrink steps (16 in all) · compact decoder.
pub const DECODER_FIXED_ALLOCS: u64 = 4;
/// `Coded::encode`, warm · run · calls · decode-time heap.
pub const CODED_ENCODE_ALLOCS: u64 = 0;
