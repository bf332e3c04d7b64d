//! The receiving side's EEPROM (external flash) model.

use std::fmt;

use mnp_sim::SimDuration;

use crate::image::{fnv1a, ImageLayout, ProgramId, ProgramImage};

/// Size of one EEPROM line: reads and writes are charged per 16-byte line
/// (Table 1 of the paper).
pub const EEPROM_LINE_BYTES: usize = 16;

/// Time to commit one packet's payload to EEPROM. This is why on-mote bulk
/// dissemination paces data packets instead of saturating the radio.
pub const EEPROM_WRITE_LATENCY: SimDuration = SimDuration::from_millis(15);

/// Errors from [`PacketStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The packet was already written; the paper guarantees "each packet in
    /// a segment is written to EEPROM only once", so a duplicate write is a
    /// protocol bug.
    DuplicateWrite {
        /// Segment of the offending packet.
        seg: u16,
        /// Packet index within the segment.
        pkt: u16,
    },
    /// Payload length does not match the layout.
    WrongLength {
        /// Expected payload length.
        expected: usize,
        /// Received payload length.
        got: usize,
    },
    /// A transient write failure injected by the fault model: nothing was
    /// committed, the slot stays empty, and retrying the same write later
    /// can succeed. Protocols recover through their normal loss-recovery
    /// path (the packet stays in the missing vector and is re-requested).
    WriteFault {
        /// Segment of the packet whose write failed.
        seg: u16,
        /// Packet index within the segment.
        pkt: u16,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateWrite { seg, pkt } => {
                write!(f, "duplicate EEPROM write of segment {seg} packet {pkt}")
            }
            StorageError::WrongLength { expected, got } => {
                write!(f, "payload length {got} does not match layout ({expected})")
            }
            StorageError::WriteFault { seg, pkt } => {
                write!(
                    f,
                    "transient EEPROM write fault on segment {seg} packet {pkt}"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// One node's external flash holding a partially received program image.
///
/// The flash is one byte buffer the size of the image, allocated once, and
/// one 128-bit mask per segment that *is* the paper's MissingVector: bit
/// `p` is set while packet `p` is not yet on flash. Tracks line-granular
/// read/write counts for the energy model and enforces the write-once
/// invariant.
///
/// # Example
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct PacketStore {
    program: ProgramId,
    layout: ImageLayout,
    /// The image bytes, packet `(seg, pkt)` at its offset in the image.
    data: Vec<u8>,
    /// `missing[seg]`: the packets of `seg` not yet written. The
    /// completeness checks run on every advertisement a protocol hears, so
    /// they are one compare against this mask.
    missing: Vec<u128>,
    /// Packets in the last segment (every other segment is full), so the
    /// per-packet range check needs no division.
    last_segment_packets: u16,
    /// EEPROM line writes performed (for the energy meter).
    pub line_writes: u64,
    /// EEPROM line reads performed (for the energy meter).
    pub line_reads: u64,
    /// Pending injected write faults: the next `pending_write_faults`
    /// otherwise-valid writes fail with [`StorageError::WriteFault`].
    pending_write_faults: u32,
}

/// A mask with the low `n` bits set (`n <= 128`).
fn low_bits(n: u16) -> u128 {
    u128::MAX >> (128 - u32::from(n))
}

impl PacketStore {
    /// Creates an empty store for `program` with `layout`.
    pub fn new(program: ProgramId, layout: ImageLayout) -> Self {
        let segments = layout.segment_count();
        let last_segment_packets = layout.packets_in_segment(segments - 1);
        let mut missing = vec![low_bits(layout.packets_per_segment()); usize::from(segments)];
        missing[usize::from(segments) - 1] = low_bits(last_segment_packets);
        PacketStore {
            program,
            layout,
            data: vec![0; layout.total_bytes() as usize],
            missing,
            last_segment_packets,
            line_writes: 0,
            line_reads: 0,
            pending_write_faults: 0,
        }
    }

    /// Creates a store for `image` that already holds its first `segments`
    /// segments: a base station's full image (which arrived over the
    /// programming board, not the radio) or a prefix that survived from the
    /// previous version. No line writes are billed for them.
    ///
    /// # Panics
    ///
    /// Panics if `segments` exceeds the image.
    pub fn preloaded(image: &ProgramImage, segments: u16) -> Self {
        let layout = image.layout();
        assert!(
            segments <= layout.segment_count(),
            "prefix exceeds the image"
        );
        let mut store = PacketStore::new(image.id(), layout);
        let bytes = if segments < layout.segment_count() {
            layout.packet_span(segments, 0).0
        } else {
            store.data.len()
        };
        store.missing[..usize::from(segments)].fill(0);
        store.data[..bytes].copy_from_slice(&image.bytes()[..bytes]);
        store
    }

    /// Arms `n` transient write faults: the next `n` otherwise-valid calls
    /// to [`PacketStore::write_packet`] fail with
    /// [`StorageError::WriteFault`] without committing anything. Duplicate
    /// and wrong-length writes are rejected as usual and do not consume a
    /// fault. Used by the deterministic fault-injection subsystem.
    pub fn inject_write_faults(&mut self, n: u32) {
        self.pending_write_faults = self.pending_write_faults.saturating_add(n);
    }

    /// The program being received.
    pub fn program(&self) -> ProgramId {
        self.program
    }

    /// The image layout.
    pub fn layout(&self) -> ImageLayout {
        self.layout
    }

    /// Writes one packet.
    ///
    /// # Errors
    ///
    /// [`StorageError::DuplicateWrite`] if the packet was already stored;
    /// [`StorageError::WrongLength`] if `payload` does not match the layout
    /// (the last packet of the image may be short);
    /// [`StorageError::WriteFault`] if an injected transient fault consumed
    /// this write (see [`PacketStore::inject_write_faults`]) — the slot is
    /// left empty and a later retry can succeed.
    ///
    /// # Panics
    ///
    /// Panics if `seg`/`pkt` are outside the layout.
    pub fn write_packet(&mut self, seg: u16, pkt: u16, payload: &[u8]) -> Result<(), StorageError> {
        let held = self.has_packet(seg, pkt);
        let (offset, expected) = self.layout.packet_span(seg, pkt);
        if payload.len() != expected {
            return Err(StorageError::WrongLength {
                expected,
                got: payload.len(),
            });
        }
        if held {
            return Err(StorageError::DuplicateWrite { seg, pkt });
        }
        if self.pending_write_faults > 0 {
            self.pending_write_faults -= 1;
            return Err(StorageError::WriteFault { seg, pkt });
        }
        self.data[offset..offset + expected].copy_from_slice(payload);
        self.missing[usize::from(seg)] &= !(1 << pkt);
        self.line_writes += expected.div_ceil(EEPROM_LINE_BYTES) as u64;
        Ok(())
    }

    /// Reads one stored packet (e.g. when forwarding), or `None` if it has
    /// not been received.
    ///
    /// # Panics
    ///
    /// Panics if `seg`/`pkt` are outside the layout.
    pub fn read_packet(&mut self, seg: u16, pkt: u16) -> Option<&[u8]> {
        if !self.has_packet(seg, pkt) {
            return None;
        }
        let (offset, len) = self.layout.packet_span(seg, pkt);
        self.line_reads += len.div_ceil(EEPROM_LINE_BYTES) as u64;
        Some(&self.data[offset..offset + len])
    }

    /// Whether packet `pkt` of segment `seg` has been stored.
    ///
    /// # Panics
    ///
    /// Panics if `seg`/`pkt` are outside the layout.
    pub fn has_packet(&self, seg: u16, pkt: u16) -> bool {
        let missing = self.missing_mask(seg);
        let packets = if usize::from(seg) + 1 == self.missing.len() {
            self.last_segment_packets
        } else {
            self.layout.packets_per_segment()
        };
        assert!(pkt < packets, "packet {pkt} out of range");
        missing & (1 << pkt) == 0
    }

    /// The paper's MissingVector for `seg`: bit `p` is set while packet `p`
    /// is not yet on flash.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is outside the layout.
    pub fn missing_mask(&self, seg: u16) -> u128 {
        self.missing[usize::from(seg)]
    }

    /// Whether every packet of `seg` has been stored.
    pub fn segment_complete(&self, seg: u16) -> bool {
        self.missing_mask(seg) == 0
    }

    /// The number of fully received segments counting up from segment 0
    /// (MNP receives segments strictly in order, so this is also "the
    /// highest received segment ID plus one").
    pub fn segments_received_prefix(&self) -> u16 {
        self.missing.iter().take_while(|&&m| m == 0).count() as u16
    }

    /// Whether the entire image has been stored.
    pub fn is_complete(&self) -> bool {
        self.missing.iter().all(|&m| m == 0)
    }

    /// Packets stored so far.
    pub fn packets_received(&self) -> u32 {
        let missing: u32 = self.missing.iter().map(|m| m.count_ones()).sum();
        self.layout.total_packets() - missing
    }

    /// FNV-1a checksum of the assembled image.
    ///
    /// # Panics
    ///
    /// Panics if the image is not complete; check [`PacketStore::is_complete`].
    pub fn assembled_checksum(&self) -> u64 {
        assert!(self.is_complete(), "image incomplete");
        fnv1a(&self.data)
    }

    /// Whether the entire image has been stored — and if it has, checks the
    /// paper's *accuracy* requirement ("the exact program image is
    /// received") against the source's checksum.
    ///
    /// # Panics
    ///
    /// Panics if the image is complete but differs from the source.
    pub fn verify_complete(&self, expected_checksum: u64) -> bool {
        if !self.is_complete() {
            return false;
        }
        assert_eq!(
            fnv1a(&self.data),
            expected_checksum,
            "accuracy violation: assembled image differs from the source"
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(segs: u16) -> ProgramImage {
        ProgramImage::synthetic(ProgramId(7), ImageLayout::paper_default(segs))
    }

    #[test]
    fn out_of_order_writes_complete_a_segment() {
        let img = image(1);
        let mut store = PacketStore::new(img.id(), img.layout());
        // "A sensor node can receive packets in any order and from any node."
        let mut order: Vec<u16> = (0..128).collect();
        order.reverse();
        for pkt in order {
            store
                .write_packet(0, pkt, img.packet_payload(0, pkt))
                .unwrap();
        }
        assert!(store.segment_complete(0));
        assert!(store.is_complete());
        assert_eq!(store.assembled_checksum(), img.checksum());
    }

    #[test]
    fn duplicate_write_is_rejected() {
        let img = image(1);
        let mut store = PacketStore::new(img.id(), img.layout());
        store.write_packet(0, 5, img.packet_payload(0, 5)).unwrap();
        let err = store
            .write_packet(0, 5, img.packet_payload(0, 5))
            .unwrap_err();
        assert_eq!(err, StorageError::DuplicateWrite { seg: 0, pkt: 5 });
        // Exactly one packet's worth of line writes happened.
        assert_eq!(store.line_writes, 2); // ceil(23 / 16)
    }

    #[test]
    fn wrong_length_is_rejected() {
        let img = image(1);
        let mut store = PacketStore::new(img.id(), img.layout());
        let err = store.write_packet(0, 0, &[0u8; 5]).unwrap_err();
        assert_eq!(
            err,
            StorageError::WrongLength {
                expected: 23,
                got: 5
            }
        );
        assert!(!store.has_packet(0, 0));
    }

    #[test]
    fn prefix_counting_matches_in_order_reception() {
        let img = image(3);
        let mut store = PacketStore::new(img.id(), img.layout());
        assert_eq!(store.segments_received_prefix(), 0);
        for seg in 0..2 {
            for pkt in 0..128 {
                store
                    .write_packet(seg, pkt, img.packet_payload(seg, pkt))
                    .unwrap();
            }
        }
        assert_eq!(store.segments_received_prefix(), 2);
        assert!(!store.is_complete());
    }

    #[test]
    fn read_back_matches_and_counts_lines() {
        let img = image(1);
        let mut store = PacketStore::new(img.id(), img.layout());
        store.write_packet(0, 3, img.packet_payload(0, 3)).unwrap();
        assert_eq!(store.read_packet(0, 3), Some(img.packet_payload(0, 3)));
        assert_eq!(store.read_packet(0, 4), None);
        assert_eq!(store.line_reads, 2);
    }

    #[test]
    fn packets_received_counts() {
        let img = image(2);
        let mut store = PacketStore::new(img.id(), img.layout());
        for pkt in 0..10 {
            store
                .write_packet(1, pkt, img.packet_payload(1, pkt))
                .unwrap();
        }
        assert_eq!(store.packets_received(), 10);
    }

    #[test]
    fn injected_write_faults_are_transient_and_retry_succeeds() {
        let img = image(1);
        let mut store = PacketStore::new(img.id(), img.layout());
        store.inject_write_faults(2);
        assert_eq!(store.pending_write_faults, 2);
        for _ in 0..2 {
            let err = store
                .write_packet(0, 9, img.packet_payload(0, 9))
                .unwrap_err();
            assert_eq!(err, StorageError::WriteFault { seg: 0, pkt: 9 });
            assert!(!store.has_packet(0, 9));
        }
        // Nothing was committed and no line writes were charged.
        assert_eq!(store.line_writes, 0);
        assert_eq!(store.pending_write_faults, 0);
        // The retry after the faults drain succeeds normally.
        store.write_packet(0, 9, img.packet_payload(0, 9)).unwrap();
        assert!(store.has_packet(0, 9));
    }

    #[test]
    fn duplicate_and_short_writes_do_not_consume_injected_faults() {
        let img = image(1);
        let mut store = PacketStore::new(img.id(), img.layout());
        store.write_packet(0, 0, img.packet_payload(0, 0)).unwrap();
        store.inject_write_faults(1);
        // A duplicate write is rejected as a duplicate, not as a fault.
        let err = store
            .write_packet(0, 0, img.packet_payload(0, 0))
            .unwrap_err();
        assert_eq!(err, StorageError::DuplicateWrite { seg: 0, pkt: 0 });
        // A wrong-length write is rejected before the fault check too.
        let err = store.write_packet(0, 1, &[0u8; 3]).unwrap_err();
        assert!(matches!(err, StorageError::WrongLength { .. }));
        assert_eq!(store.pending_write_faults, 1);
    }

    /// The representation the flat store replaced, kept here as the
    /// reference: a slot per packet, `Some(payload)` once written.
    struct SlotStore {
        layout: ImageLayout,
        slots: Vec<Vec<Option<Vec<u8>>>>,
        line_writes: u64,
        line_reads: u64,
        pending_write_faults: u32,
    }

    impl SlotStore {
        fn new(layout: ImageLayout) -> Self {
            let slots = (0..layout.segment_count())
                .map(|s| vec![None; usize::from(layout.packets_in_segment(s))])
                .collect();
            SlotStore {
                layout,
                slots,
                line_writes: 0,
                line_reads: 0,
                pending_write_faults: 0,
            }
        }

        fn write_packet(&mut self, seg: u16, pkt: u16, payload: &[u8]) -> Result<(), StorageError> {
            let expected = self.layout.packet_len(seg, pkt);
            if payload.len() != expected {
                return Err(StorageError::WrongLength {
                    expected,
                    got: payload.len(),
                });
            }
            let slot = &mut self.slots[usize::from(seg)][usize::from(pkt)];
            if slot.is_some() {
                return Err(StorageError::DuplicateWrite { seg, pkt });
            }
            if self.pending_write_faults > 0 {
                self.pending_write_faults -= 1;
                return Err(StorageError::WriteFault { seg, pkt });
            }
            *slot = Some(payload.to_vec());
            self.line_writes += payload.len().div_ceil(EEPROM_LINE_BYTES) as u64;
            Ok(())
        }

        fn read_packet(&mut self, seg: u16, pkt: u16) -> Option<&[u8]> {
            let slot = self.slots[usize::from(seg)][usize::from(pkt)].as_deref();
            if let Some(payload) = slot {
                self.line_reads += payload.len().div_ceil(EEPROM_LINE_BYTES) as u64;
            }
            slot
        }

        fn segment_complete(&self, seg: u16) -> bool {
            self.slots[usize::from(seg)].iter().all(Option::is_some)
        }

        fn missing_mask(&self, seg: u16) -> u128 {
            let slots = self.slots[usize::from(seg)].iter().enumerate();
            slots
                .filter(|(_, slot)| slot.is_none())
                .fold(0, |mask, (p, _)| mask | 1 << p)
        }

        fn assembled_checksum(&self) -> u64 {
            let image: Vec<u8> = self
                .slots
                .iter()
                .flatten()
                .flatten()
                .flatten()
                .copied()
                .collect();
            fnv1a(&image)
        }
    }

    proptest::proptest! {
        /// The flat store against the slot representation it replaced,
        /// after every step of an arbitrary mix of first, duplicate,
        /// wrong-length and fault-injected writes and reads: results, bytes,
        /// line counts, masks and the derived completeness answers agree.
        #[test]
        fn prop_stored_counts_match_a_slot_scan(
            ops in proptest::collection::vec((0u16..3, 0u16..6, 0u8..8), 0..160),
        ) {
            // Segments of 6, 6 and 4 packets; the last packet is short.
            let layout = ImageLayout::new(78, 6, 5);
            let img = ProgramImage::synthetic(ProgramId(7), layout);
            let mut store = PacketStore::new(img.id(), layout);
            let mut slots = SlotStore::new(layout);
            for (seg, pkt, kind) in ops {
                let pkt = pkt % layout.packets_in_segment(seg);
                let payload = img.packet_payload(seg, pkt);
                match kind {
                    0 => proptest::prop_assert_eq!(
                        store.write_packet(seg, pkt, &payload[1..]),
                        slots.write_packet(seg, pkt, &payload[1..])
                    ),
                    1 => {
                        store.inject_write_faults(1);
                        slots.pending_write_faults += 1;
                        proptest::prop_assert_eq!(
                            store.write_packet(seg, pkt, payload),
                            slots.write_packet(seg, pkt, payload)
                        );
                    }
                    2 | 3 => proptest::prop_assert_eq!(
                        store.read_packet(seg, pkt),
                        slots.read_packet(seg, pkt)
                    ),
                    _ => proptest::prop_assert_eq!(
                        store.write_packet(seg, pkt, payload),
                        slots.write_packet(seg, pkt, payload)
                    ),
                }
                proptest::prop_assert_eq!(store.line_writes, slots.line_writes);
                proptest::prop_assert_eq!(store.line_reads, slots.line_reads);
                proptest::prop_assert_eq!(store.pending_write_faults, slots.pending_write_faults);

                let segs = layout.segment_count();
                for s in 0..segs {
                    proptest::prop_assert_eq!(store.missing_mask(s), slots.missing_mask(s));
                    proptest::prop_assert_eq!(store.segment_complete(s), slots.segment_complete(s));
                    for p in 0..layout.packets_in_segment(s) {
                        let held = slots.slots[usize::from(s)][usize::from(p)].is_some();
                        proptest::prop_assert_eq!(store.has_packet(s, p), held);
                    }
                }
                let prefix = (0..segs).take_while(|&s| slots.segment_complete(s)).count();
                proptest::prop_assert_eq!(usize::from(store.segments_received_prefix()), prefix);
                let complete = (0..segs).all(|s| slots.segment_complete(s));
                proptest::prop_assert_eq!(store.is_complete(), complete);
                let stored = slots.slots.iter().flatten().flatten().count();
                proptest::prop_assert_eq!(store.packets_received() as usize, stored);
                if complete {
                    proptest::prop_assert_eq!(store.assembled_checksum(), slots.assembled_checksum());
                    proptest::prop_assert!(store.verify_complete(img.checksum()));
                }
            }
        }
    }

    #[test]
    fn preloaded_prefix_is_held_and_unbilled() {
        // Segments of 6, 6 and 4 packets; the last packet is short.
        let img = ProgramImage::synthetic(ProgramId(7), ImageLayout::new(78, 6, 5));
        for prefix in 0..=3 {
            let mut store = PacketStore::preloaded(&img, prefix);
            assert_eq!(store.program(), img.id());
            assert_eq!(store.segments_received_prefix(), prefix);
            assert_eq!(store.line_writes, 0);
            for seg in 0..3 {
                for pkt in 0..img.layout().packets_in_segment(seg) {
                    let held = (seg < prefix).then(|| img.packet_payload(seg, pkt));
                    assert_eq!(store.read_packet(seg, pkt), held);
                }
            }
        }
        assert!(PacketStore::preloaded(&img, 3).verify_complete(img.checksum()));
    }

    #[test]
    #[should_panic(expected = "prefix exceeds the image")]
    fn preloading_more_segments_than_the_image_panics() {
        let _ = PacketStore::preloaded(&image(1), 2);
    }

    #[test]
    #[should_panic(expected = "assembled image differs from the source")]
    fn complete_image_with_the_wrong_checksum_panics() {
        let img = image(1);
        let _ = PacketStore::preloaded(&img, 1).verify_complete(img.checksum() ^ 1);
    }

    /// A layout whose last segment holds 44 of 128 packets: `pkt` 44..128
    /// passes a bitmap-width check but lies past the end of the image.
    fn short_tail_store() -> PacketStore {
        PacketStore::new(ProgramId(7), ImageLayout::new(300 * 23, 128, 23))
    }

    #[test]
    #[should_panic(expected = "packet 44 out of range")]
    fn has_packet_past_a_short_last_segment_panics() {
        let _ = short_tail_store().has_packet(2, 44);
    }

    #[test]
    #[should_panic(expected = "packet 100 out of range")]
    fn read_packet_past_a_short_last_segment_panics() {
        let _ = short_tail_store().read_packet(2, 100);
    }

    #[test]
    #[should_panic(expected = "packet 127 out of range")]
    fn write_packet_past_a_short_last_segment_panics() {
        let _ = short_tail_store().write_packet(2, 127, &[0; 23]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn has_packet_past_a_full_segment_panics() {
        // Segments of 6, 6 and 4: packet 6 of segment 0 is packet 0 of
        // segment 1 in a flat buffer and must not alias it.
        let _ = PacketStore::new(ProgramId(7), ImageLayout::new(78, 6, 5)).has_packet(0, 6);
    }

    #[test]
    #[should_panic(expected = "image incomplete")]
    fn checksum_of_incomplete_image_panics() {
        let img = image(1);
        let store = PacketStore::new(img.id(), img.layout());
        let _ = store.assembled_checksum();
    }
}
