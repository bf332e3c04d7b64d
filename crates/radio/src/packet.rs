//! Frames and on-air timing.

use mnp_sim::SimDuration;

use crate::ids::NodeId;

/// Effective radio bit rate in bits per second.
///
/// The Mica-2's CC1000 runs at 38.4 kBaud Manchester-encoded, i.e. an
/// effective 19.2 kbps of data.
pub const RADIO_BIT_RATE: u64 = 19_200;

/// Fixed per-frame overhead in bytes: preamble (8) + sync (2) + TinyOS AM
/// header (5) + CRC (2) + strength/ack trailer (1).
pub const FRAME_OVERHEAD_BYTES: usize = 18;

/// Largest payload a single TinyOS active message can carry.
pub const MAX_PAYLOAD_BYTES: usize = 29;

/// Preamble (8) + sync (2) bytes a receiver must hear before it can react
/// to a frame in any way.
pub const PERCEPTION_HEADER_BYTES: usize = 10;

/// How long after a transmission starts its effects become perceivable at
/// the receivers: the airtime of the preamble + sync header
/// ([`PERCEPTION_HEADER_BYTES`], ≈4.17 ms at 19.2 kbps).
///
/// Until a radio has heard the preamble and sync word it cannot lock on,
/// detect a collision, or report the channel busy — carrier sense and
/// reception both lag the transmitter by this much.
pub const PERCEPTION_LATENCY: SimDuration =
    SimDuration::from_micros((PERCEPTION_HEADER_BYTES as u64 * 8) * 1_000_000 / RADIO_BIT_RATE);

/// Time a frame with `payload_bytes` of payload occupies the channel.
///
/// # Example
///
/// ```
/// use mnp_radio::airtime;
///
/// // A full 29-byte TinyOS message: (18 + 29) * 8 bits at 19.2 kbps.
/// assert_eq!(airtime(29).as_micros(), 19_583);
/// ```
pub fn airtime(payload_bytes: usize) -> SimDuration {
    let bits = ((FRAME_OVERHEAD_BYTES + payload_bytes) * 8) as u64;
    SimDuration::from_micros(bits * 1_000_000 / RADIO_BIT_RATE)
}

/// One on-air frame: a broadcast from `src` carrying an opaque protocol
/// payload.
///
/// Everything on a sensor-network radio is physically a broadcast; "destined
/// to" is a protocol-level field inside the payload (as MNP's download
/// requests demonstrate — they are broadcast *with the destination inside*
/// precisely so that third parties overhear them, §3.1.1).
///
/// # Example
///
/// ```
/// use mnp_radio::{Frame, NodeId};
///
/// let f = Frame::new(NodeId(3), 23, [0u8; 23]);
/// assert_eq!(f.src, NodeId(3));
/// assert_eq!(f.payload_bytes, 23);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame<P> {
    /// Transmitting node.
    pub src: NodeId,
    /// Payload length in bytes, used for airtime; decoupled from the Rust
    /// size of `P` so protocols declare their real packet byte budgets.
    pub payload_bytes: usize,
    /// The protocol message.
    pub payload: P,
}

impl<P> Frame<P> {
    /// Creates a frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes` exceeds [`MAX_PAYLOAD_BYTES`]; the paper's
    /// design goes out of its way to keep every message (including the
    /// 16-byte `MissingVector`) within a single radio packet.
    pub fn new(src: NodeId, payload_bytes: usize, payload: P) -> Self {
        assert!(
            payload_bytes <= MAX_PAYLOAD_BYTES,
            "payload of {payload_bytes} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte radio packet"
        );
        Frame {
            src,
            payload_bytes,
            payload,
        }
    }

    /// Channel occupancy of this frame.
    pub fn airtime(&self) -> SimDuration {
        airtime(self.payload_bytes)
    }

    /// Total on-air length in bits (overhead + payload).
    pub fn bits(&self) -> u32 {
        ((FRAME_OVERHEAD_BYTES + self.payload_bytes) * 8) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_scales_with_length() {
        assert!(airtime(29) > airtime(4));
        // Zero payload still pays the overhead.
        assert_eq!(
            airtime(0).as_micros(),
            (FRAME_OVERHEAD_BYTES * 8) as u64 * 1_000_000 / RADIO_BIT_RATE
        );
    }

    #[test]
    fn full_packet_is_about_20ms() {
        let t = airtime(MAX_PAYLOAD_BYTES);
        assert!(t.as_millis() >= 15 && t.as_millis() <= 25, "got {t}");
    }

    #[test]
    fn perception_latency_is_shorter_than_any_frame() {
        // Every frame carries the perception header, so the lag can never
        // exceed a frame's own airtime — receivers always perceive a
        // transmission before it ends.
        assert_eq!(PERCEPTION_LATENCY.as_micros(), 4_166);
        assert!(PERCEPTION_LATENCY < airtime(0));
    }

    #[test]
    fn frame_reports_bits() {
        let f = Frame::new(NodeId(0), 10, ());
        assert_eq!(f.bits(), ((FRAME_OVERHEAD_BYTES + 10) * 8) as u32);
        assert_eq!(f.airtime(), airtime(10));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_payload_rejected() {
        let _ = Frame::new(NodeId(0), MAX_PAYLOAD_BYTES + 1, ());
    }
}
