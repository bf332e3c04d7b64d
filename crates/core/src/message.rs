//! MNP's on-air message vocabulary.
//!
//! Wire sizes are the byte budgets the paper's design is built around: the
//! largest message (a download request carrying a 16-byte `MissingVector`)
//! still fits one TinyOS radio packet.

use mnp_net::{MsgDetail, WireMsg};
use mnp_radio::NodeId;
use mnp_storage::ProgramId;
use mnp_trace::MsgClass;

use crate::bitmap::{PacketBitmap, BITMAP_WIRE_BYTES};

/// "An advertisement message has information about the new program (program
/// ID and size) and the source node (source ID and ReqCtr value)"; with
/// pipelining it also carries the advertised segment ID.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Advertisement {
    /// The advertised program version.
    pub program: ProgramId,
    /// Image size, as a segment count.
    pub total_segments: u16,
    /// The advertising source.
    pub source: NodeId,
    /// Distinct requesters the source has collected this round.
    pub req_ctr: u8,
    /// The segment the source is offering.
    pub seg: u16,
}

/// "While the download request is intended (destined) for k, it is sent as
/// a broadcast message with k as one of the fields ... by including the
/// value of ReqCtr in download request, we allow [an overhearer] to be
/// aware of the number of requesters of k" — the hidden-terminal defence.
/// The request also piggybacks the requester's `MissingVector` so the
/// sender transmits only lost packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DownloadRequest {
    /// The source this request is destined to.
    pub dest: NodeId,
    /// The requesting node.
    pub requester: NodeId,
    /// Echo of the destination's advertised `ReqCtr`.
    pub dest_req_ctr: u8,
    /// The segment the requester expects (its received prefix).
    pub seg: u16,
    /// The requester's missing packets within `seg`.
    pub missing: PacketBitmap,
}

/// One code packet, the data frame of every plain protocol: it names
/// packet `pkt` of segment `seg`, and its bytes are that packet of the one
/// shared image, so the frame does not copy them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataPacket {
    /// Segment (Deluge: page) the packet belongs to.
    pub seg: u16,
    /// Packet index within the segment.
    pub pkt: u16,
    /// Code bytes on the air (≤ 23; the image's last packet may be short).
    pub len: u8,
}

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<DataPacket>() <= 6);

impl DataPacket {
    /// The frame of packet `pkt` of `seg`, whose bytes on flash are
    /// `bytes`: at most a layout's `u8` payload width, or it panics.
    pub fn new(seg: u16, pkt: u16, bytes: &[u8]) -> Self {
        let len = u8::try_from(bytes.len()).expect("a packet fits the layout's u8 width");
        DataPacket { seg, pkt, len }
    }

    /// Bytes on the air: seg(2) + pkt(1) + payload.
    pub fn wire_bytes(&self) -> usize {
        3 + usize::from(self.len)
    }
}

/// The MNP message set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MnpMsg {
    /// Source advertising an available segment.
    Advertisement(Advertisement),
    /// Requester asking a source for a segment.
    DownloadRequest(DownloadRequest),
    /// The selected sender announcing the start of a segment transfer.
    StartDownload {
        /// The sender.
        source: NodeId,
        /// Segment about to be transmitted.
        seg: u16,
    },
    /// A code packet.
    Data(DataPacket),
    /// The sender announcing the end of a segment transfer.
    EndDownload {
        /// The sender.
        source: NodeId,
        /// Segment just transmitted.
        seg: u16,
    },
    /// Query/update phase: the sender polling its children for losses.
    Query {
        /// The sender.
        source: NodeId,
        /// Segment being repaired.
        seg: u16,
    },
    /// Query/update phase: a child unicasting a repair request to its
    /// parent. The request carries the child's remaining `MissingVector`
    /// (16 bytes — the same single-packet budget as a download request), so
    /// one round trip repairs every outstanding loss.
    Repair {
        /// The parent the request is destined to.
        dest: NodeId,
        /// The requesting child.
        requester: NodeId,
        /// Segment being repaired.
        seg: u16,
        /// The missing packets to retransmit.
        missing: PacketBitmap,
    },
}

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<MnpMsg>() <= 48);

impl WireMsg for MnpMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            // program(2) + total_segments(2) + source(2) + req_ctr(1) + seg(2)
            MnpMsg::Advertisement(_) => 9,
            // dest(2) + requester(2) + req_ctr(1) + seg(2) + bitmap(16)
            MnpMsg::DownloadRequest(_) => 7 + BITMAP_WIRE_BYTES,
            // source(2) + seg(2)
            MnpMsg::StartDownload { .. } => 4,
            MnpMsg::Data(d) => d.wire_bytes(),
            MnpMsg::EndDownload { .. } => 4,
            MnpMsg::Query { .. } => 4,
            // dest(2) + requester(2) + seg(2) + bitmap(16)
            MnpMsg::Repair { .. } => 6 + BITMAP_WIRE_BYTES,
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            MnpMsg::Advertisement(_) => MsgClass::Advertisement,
            MnpMsg::DownloadRequest(_) => MsgClass::Request,
            MnpMsg::Data(_) => MsgClass::Data,
            MnpMsg::StartDownload { .. }
            | MnpMsg::EndDownload { .. }
            | MnpMsg::Query { .. }
            | MnpMsg::Repair { .. } => MsgClass::Control,
        }
    }

    /// The variant's name, stable across runs.
    fn kind_label(&self) -> &'static str {
        match self {
            MnpMsg::Advertisement(_) => "Advertisement",
            MnpMsg::DownloadRequest(_) => "DownloadRequest",
            MnpMsg::StartDownload { .. } => "StartDownload",
            MnpMsg::Data(_) => "Data",
            MnpMsg::EndDownload { .. } => "EndDownload",
            MnpMsg::Query { .. } => "Query",
            MnpMsg::Repair { .. } => "Repair",
        }
    }

    fn detail(&self) -> MsgDetail {
        match self {
            MnpMsg::Advertisement(a) => MsgDetail::Advertisement {
                source: a.source,
                seg: a.seg,
                req_ctr: a.req_ctr,
            },
            MnpMsg::DownloadRequest(r) => MsgDetail::Request {
                dest: r.dest,
                seg: r.seg,
                req_ctr: r.dest_req_ctr,
            },
            MnpMsg::Data(d) => MsgDetail::Data {
                seg: d.seg,
                pkt: d.pkt,
            },
            _ => MsgDetail::Opaque,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_radio::MAX_PAYLOAD_BYTES;

    fn sample_request() -> MnpMsg {
        MnpMsg::DownloadRequest(DownloadRequest {
            dest: NodeId(1),
            requester: NodeId(2),
            dest_req_ctr: 3,
            seg: 0,
            missing: PacketBitmap::all_set(128),
        })
    }

    #[test]
    fn every_message_fits_one_radio_packet() {
        let msgs = [
            MnpMsg::Advertisement(Advertisement {
                program: ProgramId(1),
                total_segments: 10,
                source: NodeId(0),
                req_ctr: 255,
                seg: 9,
            }),
            sample_request(),
            MnpMsg::StartDownload {
                source: NodeId(0),
                seg: 0,
            },
            MnpMsg::Data(DataPacket {
                seg: 0,
                pkt: 127,
                len: 23,
            }),
            MnpMsg::EndDownload {
                source: NodeId(0),
                seg: 0,
            },
            MnpMsg::Query {
                source: NodeId(0),
                seg: 0,
            },
            MnpMsg::Repair {
                dest: NodeId(0),
                requester: NodeId(1),
                seg: 0,
                missing: PacketBitmap::all_set(128),
            },
        ];
        for m in msgs {
            assert!(
                m.wire_bytes() <= MAX_PAYLOAD_BYTES,
                "{m:?} is {} bytes",
                m.wire_bytes()
            );
        }
    }

    #[test]
    fn download_request_carries_full_bitmap() {
        assert_eq!(sample_request().wire_bytes(), 23);
    }

    #[test]
    fn classes_match_figure12_breakdown() {
        assert_eq!(sample_request().class(), MsgClass::Request);
        assert_eq!(
            MnpMsg::Data(DataPacket {
                seg: 0,
                pkt: 0,
                len: 1
            })
            .class(),
            MsgClass::Data
        );
        assert_eq!(
            MnpMsg::Query {
                source: NodeId(0),
                seg: 0
            }
            .class(),
            MsgClass::Control
        );
    }

    #[test]
    fn data_airtime_scales_with_payload() {
        let small = MnpMsg::Data(DataPacket {
            seg: 0,
            pkt: 0,
            len: 4,
        });
        let full = MnpMsg::Data(DataPacket {
            seg: 0,
            pkt: 0,
            len: 23,
        });
        assert!(small.wire_bytes() < full.wire_bytes());
    }
}
