//! The receiving side's EEPROM (external flash) model.

use std::fmt;

use mnp_sim::SimDuration;

use crate::image::{fnv1a, ImageLayout, ProgramId};

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
/// Tracks line-granular read/write counts for the energy model and
/// enforces the write-once invariant.
///
/// # Example
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct PacketStore {
    program: ProgramId,
    layout: ImageLayout,
    segments: Vec<Segment>,
    /// EEPROM line writes performed (for the energy meter).
    pub line_writes: u64,
    /// EEPROM line reads performed (for the energy meter).
    pub line_reads: u64,
    /// Pending injected write faults: the next `pending_write_faults`
    /// otherwise-valid writes fail with [`StorageError::WriteFault`].
    pending_write_faults: u32,
}

/// One segment's packet slots.
#[derive(Clone, Debug)]
struct Segment {
    /// `slots[p]` is `Some(payload)` once packet `p` has been written.
    slots: Vec<Option<Vec<u8>>>,
    /// How many slots are `Some`: the completeness checks run on every
    /// advertisement a protocol hears, so they compare this count instead
    /// of scanning every slot. Moves only when a write commits.
    stored: u16,
}

impl PacketStore {
    /// Creates an empty store for `program` with `layout`.
    pub fn new(program: ProgramId, layout: ImageLayout) -> Self {
        let segments = (0..layout.segment_count())
            .map(|s| Segment {
                slots: vec![None; usize::from(layout.packets_in_segment(s))],
                stored: 0,
            })
            .collect();
        PacketStore {
            program,
            layout,
            segments,
            line_writes: 0,
            line_reads: 0,
            pending_write_faults: 0,
        }
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
        let expected = self.expected_len(seg, pkt);
        if payload.len() != expected {
            return Err(StorageError::WrongLength {
                expected,
                got: payload.len(),
            });
        }
        let segment = &mut self.segments[usize::from(seg)];
        let slot = &mut segment.slots[usize::from(pkt)];
        if slot.is_some() {
            return Err(StorageError::DuplicateWrite { seg, pkt });
        }
        if self.pending_write_faults > 0 {
            self.pending_write_faults -= 1;
            return Err(StorageError::WriteFault { seg, pkt });
        }
        *slot = Some(payload.to_vec());
        segment.stored += 1;
        self.line_writes += payload.len().div_ceil(EEPROM_LINE_BYTES) as u64;
        Ok(())
    }

    /// Reads one stored packet (e.g. when forwarding), or `None` if it has
    /// not been received.
    ///
    /// # Panics
    ///
    /// Panics if `seg`/`pkt` are outside the layout.
    pub fn read_packet(&mut self, seg: u16, pkt: u16) -> Option<&[u8]> {
        let slot = self.segments[usize::from(seg)].slots[usize::from(pkt)].as_deref();
        if slot.is_some() {
            self.line_reads += self.expected_len(seg, pkt).div_ceil(EEPROM_LINE_BYTES) as u64;
        }
        slot
    }

    /// Whether packet `pkt` of segment `seg` has been stored.
    pub fn has_packet(&self, seg: u16, pkt: u16) -> bool {
        self.segments[usize::from(seg)].slots[usize::from(pkt)].is_some()
    }

    /// Whether every packet of `seg` has been stored.
    pub fn segment_complete(&self, seg: u16) -> bool {
        let segment = &self.segments[usize::from(seg)];
        usize::from(segment.stored) == segment.slots.len()
    }

    /// The number of fully received segments counting up from segment 0
    /// (MNP receives segments strictly in order, so this is also "the
    /// highest received segment ID plus one").
    pub fn segments_received_prefix(&self) -> u16 {
        let mut n = 0;
        while n < self.layout.segment_count() && self.segment_complete(n) {
            n += 1;
        }
        n
    }

    /// Whether the entire image has been stored.
    pub fn is_complete(&self) -> bool {
        (0..self.layout.segment_count()).all(|s| self.segment_complete(s))
    }

    /// Packets stored so far.
    pub fn packets_received(&self) -> u32 {
        self.segments.iter().map(|s| u32::from(s.stored)).sum()
    }

    /// FNV-1a checksum of the assembled image.
    ///
    /// # Panics
    ///
    /// Panics if the image is not complete; check [`PacketStore::is_complete`].
    pub fn assembled_checksum(&self) -> u64 {
        assert!(self.is_complete(), "image incomplete");
        let mut data = Vec::with_capacity(self.layout.total_bytes() as usize);
        for seg in &self.segments {
            for pkt in &seg.slots {
                data.extend_from_slice(pkt.as_deref().expect("complete"));
            }
        }
        fnv1a(&data)
    }

    fn expected_len(&self, seg: u16, pkt: u16) -> usize {
        let index = u32::from(seg) * u32::from(self.layout.packets_per_segment()) + u32::from(pkt);
        let offset = index as usize * self.layout.payload_bytes();
        self.layout
            .payload_bytes()
            .min(self.layout.total_bytes() as usize - offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ProgramImage;

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

    proptest::proptest! {
        /// The per-segment stored count against the slot-scanning
        /// definitions it replaced, after every step of an arbitrary mix
        /// of first, duplicate, wrong-length and fault-injected writes:
        /// only a committed write may move it.
        #[test]
        fn prop_stored_counts_match_a_slot_scan(
            ops in proptest::collection::vec((0u16..3, 0u16..6, 0u8..6), 0..120),
        ) {
            // Segments of 6, 6 and 4 packets; the last packet is short.
            let layout = ImageLayout::new(78, 6, 5);
            let img = ProgramImage::synthetic(ProgramId(7), layout);
            let mut store = PacketStore::new(img.id(), layout);
            for (seg, pkt, kind) in ops {
                let pkt = pkt % layout.packets_in_segment(seg);
                let payload = img.packet_payload(seg, pkt);
                let held = store.has_packet(seg, pkt);
                let result = match kind {
                    0 => store.write_packet(seg, pkt, &payload[1..]),
                    1 => {
                        store.inject_write_faults(1);
                        store.write_packet(seg, pkt, payload)
                    }
                    _ => store.write_packet(seg, pkt, payload),
                };
                proptest::prop_assert_eq!(store.has_packet(seg, pkt), held || result.is_ok());

                let scan = |s: u16| (0..layout.packets_in_segment(s)).all(|p| store.has_packet(s, p));
                let segs = layout.segment_count();
                for s in 0..segs {
                    proptest::prop_assert_eq!(store.segment_complete(s), scan(s));
                }
                let prefix = (0..segs).take_while(|&s| scan(s)).count();
                proptest::prop_assert_eq!(usize::from(store.segments_received_prefix()), prefix);
                proptest::prop_assert_eq!(store.is_complete(), (0..segs).all(scan));
                let stored = (0..segs)
                    .flat_map(|s| (0..layout.packets_in_segment(s)).map(move |p| (s, p)))
                    .filter(|&(s, p)| store.has_packet(s, p))
                    .count();
                proptest::prop_assert_eq!(store.packets_received() as usize, stored);
            }
        }
    }

    #[test]
    #[should_panic(expected = "image incomplete")]
    fn checksum_of_incomplete_image_panics() {
        let img = image(1);
        let store = PacketStore::new(img.id(), img.layout());
        let _ = store.assembled_checksum();
    }
}
