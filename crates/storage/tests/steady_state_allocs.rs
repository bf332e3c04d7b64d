//! A store allocates its flash once, at construction: after
//! `PacketStore::new`, writing a whole 2-segment image and reading it back
//! must touch the heap **zero** times (the slot-per-packet representation
//! this replaced allocated once per stored packet, 256 here).
//!
//! An integration test is its own crate, so the counting allocator's
//! `unsafe` lives here and the library keeps `#![forbid(unsafe_code)]`.
//! Keep this the only `#[test]` in the file, so nothing else allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};

thread_local! {
    /// Heap allocations (and growths) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the counter is
// side-effect-only and never influences what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread still allocates while its locals are torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn store_allocates_nothing_after_construction() {
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(2));
    let layout = image.layout();
    let mut store = PacketStore::new(image.id(), layout);

    let before = ALLOCS.with(Cell::get);
    let mut bytes_read = 0;
    for seg in 0..layout.segment_count() {
        // "A sensor node can receive packets in any order."
        for pkt in (0..layout.packets_in_segment(seg)).rev() {
            let payload = image.packet_payload(seg, pkt);
            store.write_packet(seg, pkt, payload).expect("first write");
            assert_eq!(store.read_packet(seg, pkt), Some(payload));
            bytes_read += payload.len();
        }
    }
    let allocs = ALLOCS.with(Cell::get) - before;

    assert!(store.verify_complete(image.checksum()));
    assert_eq!(bytes_read, layout.total_bytes() as usize);
    assert_eq!(
        allocs, 0,
        "allocations over a 2-segment write and read-back"
    );
}
