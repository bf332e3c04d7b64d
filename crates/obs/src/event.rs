//! The structured event model every observer consumes.

use mnp_radio::NodeId;
use mnp_sim::SimTime;
use mnp_trace::MsgClass;
use std::fmt;

/// Why a transmitted frame failed to reach one intended receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossCause {
    /// Another transmission overlapped at the receiver.
    Collision,
    /// Random bit errors on the link (noise).
    BitError,
}

impl LossCause {
    /// Stable lower-case label used in logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            LossCause::Collision => "collision",
            LossCause::BitError => "bit_error",
        }
    }
}

impl fmt::Display for LossCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Protocol-specific payload fields a message chooses to expose.
///
/// Observers that enforce protocol invariants (ReqCtr echo, EEPROM
/// write-once) need a few semantic fields from otherwise-opaque payloads;
/// messages surface them through `WireMsg::detail`. `Opaque` is the
/// default for messages with nothing to declare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgDetail {
    /// No structured fields exposed.
    Opaque,
    /// An advertisement offering `seg` from `source`, carrying the
    /// advertiser's current request counter.
    Advertisement {
        /// The advertising node.
        source: NodeId,
        /// The segment on offer.
        seg: u16,
        /// The advertiser's `ReqCtr` value.
        req_ctr: u8,
    },
    /// A download request addressed to `dest`, echoing the request counter
    /// heard in `dest`'s advertisement.
    Request {
        /// The advertiser being asked to send.
        dest: NodeId,
        /// The requested segment.
        seg: u16,
        /// The echoed `ReqCtr`.
        req_ctr: u8,
    },
    /// A code data packet.
    Data {
        /// Segment of the packet.
        seg: u16,
        /// Packet index within the segment.
        pkt: u16,
    },
}

/// One observable simulation event.
#[derive(Clone, Copy, Debug)]
pub struct ObsEvent {
    /// Simulation time of the event.
    pub t: SimTime,
    /// The node the event happened on.
    pub node: NodeId,
    /// What happened.
    pub kind: EventKind,
}

// The network buffers one dispatch's events before handing them over.
const _: () = assert!(std::mem::size_of::<ObsEvent>() <= 56);

/// The kinds of events the network layer emits.
#[derive(Clone, Copy, Debug)]
pub enum EventKind {
    /// The node's protocol state machine moved between labelled states.
    /// `from` is empty for the initial state report at build time.
    State {
        /// Label before the transition (empty at start of run).
        from: &'static str,
        /// Label after the transition.
        to: &'static str,
    },
    /// The node put a frame on the air.
    MsgTx {
        /// Message class (adv/req/data/ctl).
        class: MsgClass,
        /// Concrete message kind (e.g. `StartDownload`).
        kind: &'static str,
        /// Wire size in bytes.
        bytes: usize,
        /// Protocol-specific fields, if exposed.
        detail: MsgDetail,
    },
    /// The node received a frame intact.
    MsgRx {
        /// The transmitter.
        from: NodeId,
        /// Message class.
        class: MsgClass,
        /// Concrete message kind.
        kind: &'static str,
        /// Wire size in bytes.
        bytes: usize,
        /// Protocol-specific fields, if exposed.
        detail: MsgDetail,
    },
    /// A frame addressed at this node's radio did not survive the channel.
    MsgDrop {
        /// The transmitter.
        from: NodeId,
        /// Message class.
        class: MsgClass,
        /// Concrete message kind.
        kind: &'static str,
        /// Collision vs. noise.
        cause: LossCause,
    },
    /// The protocol armed a timer.
    TimerSet {
        /// Protocol-chosen timer token.
        token: u64,
        /// When it will fire.
        fire_at: SimTime,
    },
    /// A timer fired and the protocol is about to run its handler.
    TimerFire {
        /// Protocol-chosen timer token.
        token: u64,
    },
    /// The node turned its radio off to sleep.
    SleepStart {
        /// Scheduled wake time.
        until: SimTime,
    },
    /// The node's radio came back on.
    Wake,
    /// The node wrote one code packet to EEPROM.
    EepromWrite {
        /// Segment of the packet.
        seg: u16,
        /// Packet index within the segment.
        pkt: u16,
    },
    /// A code-packet EEPROM write failed (transient storage fault armed by
    /// the fault model); the packet stays missing and must be re-requested.
    EepromWriteFailed {
        /// Segment of the packet whose write failed.
        seg: u16,
        /// Packet index within the segment.
        pkt: u16,
    },
    /// The node finished downloading a whole segment.
    SegmentDone {
        /// The completed segment.
        seg: u16,
    },
    /// The node holds the complete, verified image.
    Completed,
    /// The node picked its download parent.
    Parent {
        /// The chosen parent.
        parent: NodeId,
    },
    /// The node won sender selection and started forwarding.
    BecameSender,
    /// The node heard its first advertisement.
    FirstHeard,
    /// The node was killed by the failure model.
    NodeFailed,
    /// The node rebooted after a crash: RAM state reset, EEPROM intact.
    NodeRestarted,
    /// The fault model degraded the outgoing link to `to`.
    LinkFault {
        /// Receiving end of the degraded link.
        to: NodeId,
        /// The degraded bit-error rate, in parts per billion.
        ber_ppb: u64,
    },
    /// The fault model restored the outgoing link to `to`.
    LinkRestored {
        /// Receiving end of the restored link.
        to: NodeId,
        /// The restored bit-error rate, in parts per billion.
        ber_ppb: u64,
    },
    /// Node motion re-derived the quality of the outgoing link to `to`
    /// (a scheduled mobility re-link, not a fault): BER 1.0 means the
    /// receiver moved out of range.
    LinkChanged {
        /// Receiving end of the re-derived link.
        to: NodeId,
        /// The new bit-error rate, in parts per billion.
        ber_ppb: u64,
    },
    /// The fault model armed transient EEPROM write failures on this node.
    StorageFault {
        /// How many upcoming packet writes will fail.
        failures: u32,
    },
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={}us node={}] {:?}",
            self.t.as_micros(),
            self.node.0,
            self.kind
        )
    }
}
