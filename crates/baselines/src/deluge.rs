//! A Deluge-like dissemination protocol (Hui & Culler, SenSys'04).
//!
//! Deluge is the paper's primary comparison point. Shared machinery with
//! MNP (noted in §5): advertise–request–data handshaking, an image divided
//! into fixed-size pages, page pipelining, and a bit vector tracking loss
//! within a page. The differences this implementation preserves:
//!
//! * **Trickle maintenance** — advertisements (summaries) are paced and
//!   suppressed by a [`Trickle`](crate::Trickle) timer instead of MNP's
//!   sender-selection competition.
//! * **No sleeping** — "Deluge ... requires that radio is always on during
//!   reprogramming. Therefore a node's idle listening time is the same as
//!   the completion time." This is the crux of the paper's energy
//!   comparison (C1 in DESIGN.md).
//! * **No greedy sender choice** — a requester simply asks the summary
//!   sender it heard; concurrent senders in one neighbourhood are possible
//!   and produce the hidden-terminal collisions §5 discusses.
//!
//! The state machine is the shared [`Paged`] skeleton; this module is
//! only Deluge's data plane: a request carries the page's missing-packet
//! bitmap and the sender drains a ForwardVector, one plain packet per
//! frame.

use mnp_radio::NodeId;
use mnp_storage::PacketStore;

use mnp::engine::{self, ForwardVector};
use mnp::{DataPacket, PacketBitmap};

use crate::paged::{Frame, Node, Paged, PagedConfig, PagedMsg, PagedStats, Plane, Wire};

/// Deluge parameters: the skeleton's eight, nothing of its own.
pub type DelugeConfig = PagedConfig<()>;

/// Deluge's message set: a plain data frame names a packet of a page.
pub type DelugeMsg = PagedMsg<PacketBitmap, DataPacket>;

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<DelugeMsg>() <= 32);

/// Per-node Deluge counters for the harness.
pub type DelugeStats = PagedStats<()>;

impl Wire for DataPacket {
    fn wire_bytes(&self) -> usize {
        DataPacket::wire_bytes(self)
    }
}

impl Frame for DataPacket {
    fn page(&self) -> u16 {
        self.seg
    }
}

/// Deluge's data plane: the union of the round's requested packets.
#[derive(Clone, Debug, Default)]
pub struct DelugePlane {
    fwd: ForwardVector,
}

impl Plane for DelugePlane {
    type Tunables = ();
    type Stats = ();
    type Req = PacketBitmap;
    type Frame = DataPacket;

    fn new(_: &DelugeConfig, _: &PacketStore) -> Self {
        DelugePlane::default()
    }

    fn request(&self, store: &PacketStore, page: u16) -> PacketBitmap {
        engine::missing_vector(store, page)
    }

    fn start_round(&mut self, _: Node<'_, '_, Self>, _: u16, _: NodeId, missing: &PacketBitmap) {
        self.fwd.load(*missing);
    }

    fn join_round(&mut self, _: &(), _: NodeId, missing: &PacketBitmap) {
        self.fwd.union_with(missing);
    }

    fn next_frame(&mut self, node: Node<'_, '_, Self>, page: u16) -> Option<DataPacket> {
        let limit = node.cfg.image.layout().packets_in_segment(page);
        let pkt = self.fwd.pop_round_robin(limit)?;
        let held = node
            .store
            .read_packet(page, pkt)
            .expect("Tx node holds the page");
        Some(DataPacket::new(page, pkt, held))
    }

    fn absorb(&mut self, node: Node<'_, '_, Self>, from: NodeId, p: &DataPacket) -> bool {
        let bytes = node.cfg.image.packet_payload(p.seg, p.pkt);
        if !engine::store_packet_once(node.store, p.seg, p.pkt, bytes) {
            return false;
        }
        node.ctx.note_eeprom_write(p.seg, p.pkt);
        node.ctx.note_parent(from);
        true
    }

    fn page_done(&mut self, node: Node<'_, '_, Self>, page: u16) -> bool {
        node.store.segment_complete(page)
    }
}

/// One node running the Deluge-like protocol.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Deluge, DelugeConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = DelugeConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Deluge> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) {
///         Deluge::base_station(cfg.clone(), &image)
///     } else {
///         Deluge::node(cfg.clone())
///     }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(600)));
/// ```
pub type Deluge = Paged<DelugePlane>;

// Per-node byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Deluge>() <= 304);

#[cfg(test)]
#[path = "deluge_tests.rs"]
mod tests;
