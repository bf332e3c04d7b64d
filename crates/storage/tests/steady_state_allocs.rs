//! A store is a record of writes over a shared image: `PacketStore::new`
//! allocates exactly once (the mask vector, never a copy of the image),
//! and writing a whole 2-segment image and reading it back must then touch
//! the heap **zero** times (the slot-per-packet representation this
//! replaced allocated once per stored packet, 256 here).

#[allow(dead_code)]
#[path = "../../../tests/support/heap_probe.rs"]
mod heap_probe;

use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};

#[test]
fn store_allocates_nothing_after_construction() {
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(2));
    let layout = image.layout();
    let before = heap_probe::mark();
    let mut store = PacketStore::new(&image);
    let construction = heap_probe::snapshot().since(before).calls;

    let before = heap_probe::mark();
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
    let allocs = heap_probe::snapshot().since(before).calls;

    assert!(store.is_complete());
    assert_eq!(bytes_read, layout.total_bytes() as usize);
    assert_eq!(
        construction,
        heap_probe::STORE_NEW_ALLOCS,
        "allocations in PacketStore::new"
    );
    assert_eq!(
        allocs,
        heap_probe::STORE_WRITE_READ_ALLOCS,
        "allocations over a 2-segment write and read-back"
    );
}
