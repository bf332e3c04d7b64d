//! Program images and their segment/packet layout.

use std::fmt;

/// Identifier (version) of a program image.
///
/// MNP advertisements carry "information about the new program (program ID
/// and size)"; a node compares IDs to decide whether an advertisement is
/// news.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgramId(pub u16);

impl fmt::Display for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prog{}", self.0)
    }
}

/// How an image is cut into segments and packets.
///
/// The paper fixes the segment length at 128 packets so the per-segment
/// loss bitmap (`MissingVector`) is 16 bytes and "fits into a radio
/// packet", and each data packet carries 23 bytes of code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ImageLayout {
    total_bytes: u32,
    packets_per_segment: u16,
    payload_bytes: u8,
}

impl ImageLayout {
    /// The paper's segment length: 128 packets.
    pub(crate) const PAPER_PACKETS_PER_SEGMENT: u16 = 128;
    /// The paper's data payload: 23 bytes of code per packet.
    pub(crate) const PAPER_PAYLOAD_BYTES: u8 = 23;

    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or if `packets_per_segment` exceeds
    /// 128 (the `MissingVector` must fit one radio packet).
    pub fn new(total_bytes: u32, packets_per_segment: u16, payload_bytes: u8) -> Self {
        assert!(total_bytes > 0, "empty image");
        assert!(
            (1..=128).contains(&packets_per_segment),
            "segment length must be 1..=128 packets"
        );
        assert!(payload_bytes > 0, "empty packets");
        ImageLayout {
            total_bytes,
            packets_per_segment,
            payload_bytes,
        }
    }

    /// The paper's layout for an image of exactly `segments` full segments
    /// (each 128 × 23 = 2944 bytes ≈ 2.9 KB).
    pub fn paper_default(segments: u16) -> Self {
        assert!(segments > 0, "empty image");
        ImageLayout::new(
            u32::from(segments)
                * u32::from(Self::PAPER_PACKETS_PER_SEGMENT)
                * u32::from(Self::PAPER_PAYLOAD_BYTES),
            Self::PAPER_PACKETS_PER_SEGMENT,
            Self::PAPER_PAYLOAD_BYTES,
        )
    }

    /// A layout for an image of `packets` packets with the paper's packet
    /// size (used for the 100-packet mote-experiment image).
    pub fn from_packets(packets: u32) -> Self {
        assert!(packets > 0, "empty image");
        ImageLayout::new(
            packets * u32::from(Self::PAPER_PAYLOAD_BYTES),
            Self::PAPER_PACKETS_PER_SEGMENT.min(packets.try_into().unwrap_or(u16::MAX)),
            Self::PAPER_PAYLOAD_BYTES,
        )
    }

    /// Image size in bytes.
    pub fn total_bytes(&self) -> u32 {
        self.total_bytes
    }

    /// Code bytes carried per packet.
    pub fn payload_bytes(&self) -> usize {
        usize::from(self.payload_bytes)
    }

    /// Packets per full segment.
    pub fn packets_per_segment(&self) -> u16 {
        self.packets_per_segment
    }

    /// Total number of packets (last one possibly short).
    pub fn total_packets(&self) -> u32 {
        self.total_bytes.div_ceil(u32::from(self.payload_bytes))
    }

    /// Number of segments (last one possibly short).
    pub fn segment_count(&self) -> u16 {
        let segs = self
            .total_packets()
            .div_ceil(u32::from(self.packets_per_segment));
        u16::try_from(segs).expect("segment count fits u16")
    }

    /// Packets in segment `seg` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range.
    pub fn packets_in_segment(&self, seg: u16) -> u16 {
        assert!(seg < self.segment_count(), "segment {seg} out of range");
        let before = u32::from(seg) * u32::from(self.packets_per_segment);
        let remaining = self.total_packets() - before;
        u16::try_from(remaining.min(u32::from(self.packets_per_segment))).expect("fits")
    }

    /// Byte length of packet `pkt` of segment `seg`: every packet is
    /// [`payload_bytes`](Self::payload_bytes) wide except the image's last,
    /// which carries the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `seg`/`pkt` are out of range.
    pub fn packet_len(&self, seg: u16, pkt: u16) -> usize {
        assert!(
            pkt < self.packets_in_segment(seg),
            "packet {pkt} out of range"
        );
        self.packet_span(seg, pkt).1
    }

    /// Byte range of packet `pkt` in segment `seg`: `(offset, len)`. Only
    /// the image's end is checked here; the caller vouches that `pkt` lies
    /// inside its segment.
    pub(crate) fn packet_span(&self, seg: u16, pkt: u16) -> (usize, usize) {
        let index = usize::from(seg) * usize::from(self.packets_per_segment) + usize::from(pkt);
        let offset = index * self.payload_bytes();
        let total = self.total_bytes as usize;
        assert!(offset < total, "packet {pkt} out of range");
        (offset, self.payload_bytes().min(total - offset))
    }
}

impl fmt::Display for ImageLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}KB ({} segments, {} packets)",
            self.total_bytes as f64 / 1024.0,
            self.segment_count(),
            self.total_packets()
        )
    }
}

/// A complete program image held by the base station (and, after
/// reprogramming, by every node).
///
/// Contents are deterministic pseudo-random bytes derived from the program
/// ID, so any corruption anywhere in the pipeline shows up as a checksum
/// mismatch — the paper's *accuracy* requirement ("the exact program image
/// is received").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramImage {
    id: ProgramId,
    layout: ImageLayout,
    data: Vec<u8>,
}

impl ProgramImage {
    /// Generates the deterministic synthetic image for `id`.
    pub fn synthetic(id: ProgramId, layout: ImageLayout) -> Self {
        let mut data = Vec::with_capacity(layout.total_bytes as usize);
        let mut state = 0x243f_6a88_85a3_08d3u64 ^ (u64::from(id.0) << 32);
        while data.len() < layout.total_bytes as usize {
            state = splitmix(state);
            data.extend_from_slice(&state.to_le_bytes());
        }
        data.truncate(layout.total_bytes as usize);
        ProgramImage { id, layout, data }
    }

    /// The program ID.
    pub fn id(&self) -> ProgramId {
        self.id
    }

    /// The layout.
    pub fn layout(&self) -> ImageLayout {
        self.layout
    }

    /// The code bytes of one packet.
    ///
    /// # Panics
    ///
    /// Panics if `seg`/`pkt` are out of range.
    pub fn packet_payload(&self, seg: u16, pkt: u16) -> &[u8] {
        assert!(
            pkt < self.layout.packets_in_segment(seg),
            "packet {pkt} out of range"
        );
        let (offset, len) = self.layout.packet_span(seg, pkt);
        &self.data[offset..offset + len]
    }

    /// FNV-1a checksum over the whole image.
    pub fn checksum(&self) -> u64 {
        fnv1a(&self.data)
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_layout() {
        let l = ImageLayout::paper_default(4);
        assert_eq!(l.segment_count(), 4);
        assert_eq!(l.total_packets(), 512);
        assert_eq!(l.total_bytes(), 4 * 128 * 23);
        assert_eq!(l.packets_in_segment(3), 128);
        // ≈11.5 KB, the reconstructed Fig. 8 image size.
        assert!((l.total_bytes() as f64 / 1024.0 - 11.5).abs() < 0.1);
    }

    #[test]
    fn from_packets_builds_the_mote_image() {
        let l = ImageLayout::from_packets(100);
        assert_eq!(l.total_packets(), 100);
        assert_eq!(l.segment_count(), 1);
        assert_eq!(l.packets_in_segment(0), 100);
        // 2.3 KB, the reconstructed Figs. 5–7 image size.
        assert!((l.total_bytes() as f64 / 1024.0 - 2.25).abs() < 0.1);
    }

    #[test]
    fn short_last_segment() {
        // 300 packets = 2 full segments + 44.
        let l = ImageLayout::new(300 * 23, 128, 23);
        assert_eq!(l.segment_count(), 3);
        assert_eq!(l.packets_in_segment(0), 128);
        assert_eq!(l.packets_in_segment(2), 44);
    }

    #[test]
    fn short_last_packet() {
        let l = ImageLayout::new(50, 128, 23);
        assert_eq!(l.total_packets(), 3);
        let img = ProgramImage::synthetic(ProgramId(2), l);
        assert_eq!(img.packet_payload(0, 0).len(), 23);
        assert_eq!(img.packet_payload(0, 2).len(), 4);
    }

    #[test]
    fn packet_len_matches_layout_tail() {
        // 3 packets of up to 23 bytes covering 50 bytes: 23 + 23 + 4.
        let layout = ImageLayout::new(50, 128, 23);
        assert_eq!(layout.packet_len(0, 0), 23);
        assert_eq!(layout.packet_len(0, 1), 23);
        assert_eq!(layout.packet_len(0, 2), 4);
    }

    #[test]
    fn paper_layout_packets_are_all_full_width() {
        let layout = ImageLayout::paper_default(2);
        for seg in 0..layout.segment_count() {
            for pkt in 0..layout.packets_in_segment(seg) {
                assert_eq!(layout.packet_len(seg, pkt), layout.payload_bytes());
            }
        }
    }

    #[test]
    fn packets_tile_the_image_exactly() {
        let l = ImageLayout::new(1000, 16, 23);
        let img = ProgramImage::synthetic(ProgramId(3), l);
        let mut rebuilt = Vec::new();
        for seg in 0..l.segment_count() {
            for pkt in 0..l.packets_in_segment(seg) {
                rebuilt.extend_from_slice(img.packet_payload(seg, pkt));
            }
        }
        assert_eq!(rebuilt, img.bytes());
    }

    #[test]
    fn synthetic_is_deterministic_and_id_dependent() {
        let l = ImageLayout::paper_default(1);
        let a = ProgramImage::synthetic(ProgramId(1), l);
        let b = ProgramImage::synthetic(ProgramId(1), l);
        let c = ProgramImage::synthetic(ProgramId(2), l);
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn display_reports_size() {
        let l = ImageLayout::paper_default(2);
        assert_eq!(l.to_string(), "5.8KB (2 segments, 256 packets)");
    }

    #[test]
    #[should_panic(expected = "1..=128")]
    fn oversized_segment_rejected() {
        let _ = ImageLayout::new(10_000, 129, 23);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_segment_index_rejected() {
        let _ = ImageLayout::paper_default(1).packets_in_segment(1);
    }
}
