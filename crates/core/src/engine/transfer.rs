//! Segment-transfer bookkeeping: MissingVector scans, the write-once
//! EEPROM discipline, the sender's ForwardVector, and image cursors.

use mnp_storage::{ImageLayout, PacketStore};

use crate::bitmap::PacketBitmap;

/// The receiver's "MissingVector": a fresh bitmap of the packets of `seg`
/// that `store` does not yet hold — the store's own mask, in wire form.
pub fn missing_vector(store: &PacketStore, seg: u16) -> PacketBitmap {
    PacketBitmap::from_bits(store.missing_mask(seg))
}

/// The write-once EEPROM discipline: stores `payload` only if the packet
/// is not already on flash. Returns `true` when the packet was written —
/// the caller then accounts the EEPROM write with the network layer.
///
/// "When a node receives a packet for the first time, it stores that
/// packet in EEPROM"; re-writing a held packet would double-bill flash
/// energy and wear.
///
/// A transient [`StorageError::WriteFault`] (injected by the fault model)
/// also returns `false`: the packet stays missing, so the protocol's
/// normal loss recovery re-requests and retries it later.
///
/// [`StorageError::WriteFault`]: mnp_storage::StorageError::WriteFault
pub fn store_packet_once(store: &mut PacketStore, seg: u16, pkt: u16, payload: &[u8]) -> bool {
    if store.has_packet(seg, pkt) {
        return false;
    }
    match store.write_packet(seg, pkt, payload) {
        Ok(()) => true,
        Err(mnp_storage::StorageError::WriteFault { .. }) => false,
        Err(e) => panic!("has_packet checked, payload from a valid image: {e}"),
    }
}

/// The sender's "ForwardVector": the union of the requesters' missing
/// packets, drained in one of three orders depending on the consumer.
///
/// * [`next_in_order`](ForwardVector::next_in_order) — strictly ascending
///   from a cursor without consuming bits (MNP's forward pass sends each
///   requested packet once, in order).
/// * [`pop_round_robin`](ForwardVector::pop_round_robin) — ascending from
///   the cursor with wrap-around, consuming bits (Deluge's Tx state keeps
///   serving late-unioned requests).
/// * [`pop_first`](ForwardVector::pop_first) — always the lowest set bit,
///   consuming it (MNP's query-state repair loop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForwardVector {
    bits: PacketBitmap,
    cursor: u16,
}

impl ForwardVector {
    /// An empty vector.
    pub fn new() -> Self {
        ForwardVector::default()
    }

    /// Clears all bits and rewinds the cursor.
    pub fn reset(&mut self) {
        *self = ForwardVector::new();
    }

    /// Replaces the contents with `bits` and rewinds the cursor.
    pub fn load(&mut self, bits: PacketBitmap) {
        self.bits = bits;
        self.cursor = 0;
    }

    /// Sets the first `n` bits (a full segment) — the defensive fallback
    /// when a requester exists but its bitmap was empty.
    pub fn fill(&mut self, n: u16) {
        self.bits = PacketBitmap::all_set(n);
    }

    /// Rewinds the cursor without touching the bits.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Merges another requester's missing bitmap in.
    pub fn union_with(&mut self, bits: &PacketBitmap) {
        self.bits.union_with(bits);
    }

    /// Whether no packet is requested.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Requested packets (for diagnostics and tests).
    pub fn count(&self) -> u32 {
        self.bits.count()
    }

    /// Next requested packet at or after the cursor, strictly below
    /// `limit`; advances the cursor past it but keeps the bit set, so each
    /// packet is visited at most once per pass.
    pub fn next_in_order(&mut self, limit: u16) -> Option<u16> {
        let pkt = self
            .bits
            .first_set_at_or_after(self.cursor)
            .filter(|&p| p < limit)?;
        self.cursor = pkt + 1;
        Some(pkt)
    }

    /// Next requested packet at or after the cursor (wrapping to the
    /// start when exhausted), strictly below `limit`; consumes the bit.
    pub fn pop_round_robin(&mut self, limit: u16) -> Option<u16> {
        let pkt = self
            .bits
            .first_set_at_or_after(self.cursor)
            .filter(|&p| p < limit)
            .or_else(|| self.bits.first_set_at_or_after(0).filter(|&p| p < limit))?;
        self.bits.clear(pkt);
        self.cursor = pkt + 1;
        Some(pkt)
    }

    /// The lowest requested packet, consuming its bit.
    pub fn pop_first(&mut self) -> Option<u16> {
        let pkt = self.bits.first_set_at_or_after(0)?;
        self.bits.clear(pkt);
        Some(pkt)
    }
}

/// A `(segment, packet)` cursor over a whole image, for protocols that
/// stream it linearly (XNP's cyclic passes, flood's source, MOAP's Tx).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageCursor {
    seg: u16,
    pkt: u16,
}

impl ImageCursor {
    /// A cursor at the start of the image.
    pub fn new() -> Self {
        ImageCursor::default()
    }

    /// Current segment.
    pub fn seg(&self) -> u16 {
        self.seg
    }

    /// Current packet within the segment.
    pub fn pkt(&self) -> u16 {
        self.pkt
    }

    /// Advances by one packet. Returns `true` when the cursor wrapped past
    /// the end of the image (and was reset to the start).
    pub fn step(&mut self, layout: ImageLayout) -> bool {
        self.pkt += 1;
        if self.pkt >= layout.packets_in_segment(self.seg) {
            self.pkt = 0;
            self.seg += 1;
            if self.seg >= layout.segment_count() {
                self.seg = 0;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_storage::{ImageLayout, ProgramId, ProgramImage};

    #[test]
    fn forward_vector_unions_requesters_losses() {
        let mut fwd = ForwardVector::new();
        let mut a = PacketBitmap::empty();
        a.set(1);
        a.set(5);
        let mut b = PacketBitmap::empty();
        b.set(5);
        b.set(9);
        fwd.union_with(&a);
        fwd.union_with(&b);
        assert_eq!(fwd.count(), 3, "union, not sum: shared losses count once");
        assert_eq!(fwd.pop_first(), Some(1));
        assert_eq!(fwd.pop_first(), Some(5));
        assert_eq!(fwd.pop_first(), Some(9));
        assert_eq!(fwd.pop_first(), None);
    }

    #[test]
    fn next_in_order_visits_each_bit_once_without_consuming() {
        let mut fwd = ForwardVector::new();
        let mut bits = PacketBitmap::empty();
        for p in [0u16, 3, 7] {
            bits.set(p);
        }
        fwd.load(bits);
        assert_eq!(fwd.next_in_order(8), Some(0));
        assert_eq!(fwd.next_in_order(8), Some(3));
        assert_eq!(fwd.next_in_order(8), Some(7));
        assert_eq!(fwd.next_in_order(8), None, "pass is over");
        assert_eq!(fwd.count(), 3, "bits survive for the repair phase");
        fwd.rewind();
        assert_eq!(fwd.next_in_order(8), Some(0), "rewound pass restarts");
        // The limit hides out-of-segment bits.
        fwd.rewind();
        assert_eq!(fwd.next_in_order(3), Some(0));
        assert_eq!(fwd.next_in_order(3), None);
    }

    #[test]
    fn pop_round_robin_wraps_to_serve_late_unions() {
        let mut fwd = ForwardVector::new();
        let mut bits = PacketBitmap::empty();
        bits.set(4);
        fwd.load(bits);
        assert_eq!(fwd.pop_round_robin(8), Some(4));
        // A late request for an earlier packet arrives mid-round.
        let mut late = PacketBitmap::empty();
        late.set(1);
        fwd.union_with(&late);
        assert_eq!(fwd.pop_round_robin(8), Some(1), "wraps past the cursor");
        assert_eq!(fwd.pop_round_robin(8), None);
        assert!(fwd.is_empty());
    }

    #[test]
    fn missing_vector_is_the_store_complement() {
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        let mut store = PacketStore::new(ProgramId(1), image.layout());
        let held = [0u16, 2, 17];
        for &pkt in &held {
            store
                .write_packet(0, pkt, image.packet_payload(0, pkt))
                .unwrap();
        }
        let missing = missing_vector(&store, 0);
        let n = image.layout().packets_in_segment(0);
        assert_eq!(missing.count(), u32::from(n) - held.len() as u32);
        for &pkt in &held {
            assert!(!missing.get(pkt));
        }
    }

    #[test]
    fn store_packet_once_rejects_duplicates() {
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        let mut store = PacketStore::new(ProgramId(1), image.layout());
        let payload = image.packet_payload(0, 3);
        assert!(store_packet_once(&mut store, 0, 3, payload));
        let lines_after_first = store.line_writes;
        assert!(!store_packet_once(&mut store, 0, 3, payload));
        assert_eq!(store.line_writes, lines_after_first, "no double billing");
    }

    #[test]
    fn store_packet_once_survives_transient_write_faults() {
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        let mut store = PacketStore::new(ProgramId(1), image.layout());
        store.inject_write_faults(1);
        let payload = image.packet_payload(0, 3);
        assert!(
            !store_packet_once(&mut store, 0, 3, payload),
            "faulted write reports not-stored"
        );
        assert!(!store.has_packet(0, 3), "packet stays missing for retry");
        assert!(store_packet_once(&mut store, 0, 3, payload), "retry lands");
    }

    #[test]
    fn image_cursor_wraps_at_the_end() {
        let layout = ImageLayout::paper_default(2);
        let mut cur = ImageCursor::new();
        let mut steps = 0u32;
        while !cur.step(layout) {
            steps += 1;
        }
        // One step per packet; the wrapping step is the last packet's.
        let total: u32 = (0..layout.segment_count())
            .map(|s| u32::from(layout.packets_in_segment(s)))
            .sum();
        assert_eq!(steps + 1, total);
        assert_eq!((cur.seg(), cur.pkt()), (0, 0), "reset to the start");
    }
}
