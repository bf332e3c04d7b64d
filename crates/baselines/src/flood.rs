//! A naive packet flood — the broadcast-storm strawman.
//!
//! "In network reprogramming, code image is propagated from one sensor
//! node to another. Every node that has the new code image is a potential
//! sender. Thus, it is likely that too many senders are transmitting at
//! the same time. This causes a lot of message collisions, congests the
//! wireless channel, and possibly results in failure of reprogramming."
//!
//! `Flood` is that failure mode made runnable: every node rebroadcasts
//! every packet it hears for the first time, with no suppression, no
//! requests, and no recovery. The ablation experiment (DESIGN.md A1)
//! contrasts its collision counts and delivery ratio with MNP's.

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::SimDuration;
use mnp_storage::{PacketStore, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{self, ImageCursor, TimerMux};
use mnp::DataPacket;

/// Flood parameters: the image. The timings are this module's constants.
#[derive(Clone, Debug)]
pub struct FloodConfig {
    /// The program being disseminated: one handle shared by every node,
    /// which checks each flash write against it.
    pub image: ProgramImage,
}

impl FloodConfig {
    /// The configuration for a given image.
    pub fn for_image(image: &ProgramImage) -> Self {
        FloodConfig {
            image: image.clone(),
        }
    }
}

// Timings, matched to the MNP data pacing (DESIGN §4).
/// Base-station pacing between fresh packets.
const DATA_PACKET_PERIOD: SimDuration = SimDuration::from_millis(60);
/// Maximum random delay before a node rebroadcasts a packet (tiny, to
/// desynchronise rebroadcasts slightly; zero would reproduce the worst
/// case).
const REBROADCAST_JITTER: SimDuration = SimDuration::from_millis(25);

/// Flood's message set: data only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodMsg {
    /// One code packet.
    Data(DataPacket),
}

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<FloodMsg>() <= 6);

impl WireMsg for FloodMsg {
    fn wire_bytes(&self) -> usize {
        let FloodMsg::Data(d) = self;
        d.wire_bytes()
    }

    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

const T_SOURCE_TICK: u64 = 1;
const T_REBROADCAST: u64 = 2;

/// Flood has no protocol states; this is purely the observability label.
/// Even a `Complete` node keeps rebroadcasting — that is the point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FloodState {
    /// The originating base station.
    Broadcast,
    /// Relay without the full image yet.
    Listen,
    /// Relay holding the write-verified image.
    Complete,
}

impl StateLabel for FloodState {
    fn label(self) -> &'static str {
        match self {
            FloodState::Broadcast => "Broadcast",
            FloodState::Listen => "Listen",
            FloodState::Complete => "Complete",
        }
    }
}

/// One node in the flood.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Flood, FloodConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = FloodConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Flood> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) { Flood::base_station(cfg.clone(), &image) } else { Flood::node(cfg.clone()) }
/// });
/// net.run_until(|n| n.now() > SimTime::from_secs(30), SimTime::from_secs(60));
/// assert!(net.protocol(NodeId(1)).store().packets_received() > 0);
/// ```
#[derive(Debug)]
pub struct Flood {
    store: PacketStore,
    is_base: bool,
    completed: bool,
    state: FloodState,
    timers: TimerMux,
    cursor: ImageCursor,
    /// FIFO of packets waiting to be rebroadcast.
    pending: Vec<(u16, u16)>,
    rebroadcast_armed: bool,
}

// Per-node byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Flood>() <= 96);

impl Flood {
    /// Creates the originating base station.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: FloodConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.image.id(), "image/program mismatch");
        assert_eq!(image.layout(), cfg.image.layout(), "image/layout mismatch");
        let store = PacketStore::preloaded(&cfg.image, cfg.image.layout().segment_count());
        Flood {
            store,
            is_base: true,
            completed: true,
            state: FloodState::Broadcast,
            timers: TimerMux::new(),
            cursor: ImageCursor::new(),
            pending: Vec::new(),
            rebroadcast_armed: false,
        }
    }

    /// Creates a flooding relay node.
    pub fn node(cfg: FloodConfig) -> Self {
        let store = PacketStore::new(&cfg.image);
        Flood {
            store,
            is_base: false,
            completed: false,
            state: FloodState::Listen,
            timers: TimerMux::new(),
            cursor: ImageCursor::new(),
            pending: Vec::new(),
            rebroadcast_armed: false,
        }
    }

    /// Whether the node holds the complete, write-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store.
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    fn arm_rebroadcast(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        if !self.rebroadcast_armed && !self.pending.is_empty() {
            self.rebroadcast_armed = true;
            let delay = ctx
                .rng
                .duration_between(SimDuration::ZERO, REBROADCAST_JITTER)
                .max(SimDuration::from_micros(1));
            ctx.set_timer(delay, self.timers.token(T_REBROADCAST));
        }
    }
}

impl Protocol for Flood {
    type Msg = FloodMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        if self.is_base {
            ctx.note_completion();
            ctx.note_became_sender();
            ctx.set_timer(DATA_PACKET_PERIOD, self.timers.token(T_SOURCE_TICK));
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FloodMsg>, from: NodeId, msg: &FloodMsg) {
        if self.is_base {
            return;
        }
        let FloodMsg::Data(DataPacket { seg, pkt, .. }) = *msg;
        if !engine::store_named_packet(&mut self.store, seg, pkt) {
            return; // already seen; a real storm would be even worse
        }
        ctx.note_eeprom_write(seg, pkt);
        ctx.note_parent(from);
        if !self.completed && self.store.is_complete() {
            self.completed = true;
            self.state = FloodState::Complete;
            ctx.note_completion();
        }
        // First sight: schedule the rebroadcast. No suppression of any kind.
        self.pending.push((seg, pkt));
        self.arm_rebroadcast(ctx);
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        self.timers.decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, FloodMsg>, kind: u64) {
        match kind {
            T_SOURCE_TICK => {
                if !self.is_base {
                    return;
                }
                let (seg, pkt) = (self.cursor.seg(), self.cursor.pkt());
                let held = self
                    .store
                    .read_packet(seg, pkt)
                    .expect("base holds the image");
                ctx.send(FloodMsg::Data(DataPacket::new(seg, pkt, held)));
                // One pass only: the tick stops at the end of the image.
                if !self.cursor.step(self.store.layout()) {
                    ctx.set_timer(DATA_PACKET_PERIOD, self.timers.token(T_SOURCE_TICK));
                }
            }
            T_REBROADCAST => {
                self.rebroadcast_armed = false;
                if let Some((seg, pkt)) = self.pending.first().copied() {
                    self.pending.remove(0);
                    if let Some(held) = self.store.read_packet(seg, pkt) {
                        ctx.note_became_sender();
                        ctx.send(FloodMsg::Data(DataPacket::new(seg, pkt, held)));
                    }
                    self.arm_rebroadcast(ctx);
                }
            }
            other => unreachable!("unknown timer kind {other}"),
        }
    }

    fn eeprom_ops(&self) -> EepromOps {
        EepromOps {
            line_reads: self.store.line_reads,
            line_writes: self.store.line_writes,
        }
    }

    fn state_label(&self) -> &'static str {
        StateLabel::label(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_net::{Network, NetworkBuilder};
    use mnp_radio::LinkTable;
    use mnp_sim::SimTime;
    use mnp_storage::{ImageLayout, ProgramId};

    fn image() -> ProgramImage {
        ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1))
    }

    fn clique(n: usize) -> LinkTable {
        let mut links = LinkTable::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    links.connect(NodeId::from_index(a), NodeId::from_index(b), 0.0);
                }
            }
        }
        links
    }

    fn build(links: LinkTable, img: &ProgramImage, seed: u64) -> Network<Flood> {
        let cfg = FloodConfig::for_image(img);
        NetworkBuilder::new(links, seed).build(|id, _| {
            if id == NodeId(0) {
                Flood::base_station(cfg.clone(), img)
            } else {
                Flood::node(cfg.clone())
            }
        })
    }

    #[test]
    fn flood_amplifies_traffic_and_drops_packets_in_a_dense_cell() {
        // 8 nodes in one cell: every packet is rebroadcast by every node.
        // Relays miss upstream packets while they are themselves
        // transmitting, so even on perfect links delivery is incomplete —
        // "possibly results in failure of reprogramming".
        let img = image();
        let mut net = build(clique(8), &img, 1);
        net.run_until(|_| false, SimTime::from_secs(120));
        let sent: u64 = (0..8)
            .map(|i| net.trace().node(NodeId::from_index(i)).sent)
            .sum();
        assert!(sent > 400, "storm should amplify traffic, sent {sent}");
        let incomplete = (1..8)
            .filter(|&i| !net.protocol(NodeId::from_index(i)).is_complete())
            .count();
        assert!(
            incomplete > 0,
            "self-interference should leave someone incomplete"
        );
    }

    #[test]
    fn flood_collides_at_hidden_terminals() {
        // Two cells bridged by node 2: nodes 0/1 and 3/4 cannot hear each
        // other, so their concurrent rebroadcasts collide at the bridge.
        let img = image();
        let mut links = LinkTable::new(5);
        for (a, b) in [(0u32, 1), (0, 2), (1, 2), (3, 4), (3, 2), (4, 2)] {
            links.connect(NodeId(a), NodeId(b), 0.0);
            links.connect(NodeId(b), NodeId(a), 0.0);
        }
        let mut net = build(links, &img, 2);
        net.run_until(|_| false, SimTime::from_secs(120));
        let bridge_collisions = net.medium().stats(NodeId(2)).collisions;
        assert!(
            bridge_collisions > 10,
            "hidden terminals should collide at the bridge, got {bridge_collisions}"
        );
    }

    #[test]
    fn flood_has_no_recovery_on_lossy_links() {
        // With loss and no repair, a dense flood usually leaves someone
        // incomplete; at minimum it must never corrupt data.
        let ber = 1.0 - 0.85f64.powf(1.0 / 376.0);
        let img = image();
        let mut links = clique(6);
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a != b {
                    links.connect(NodeId(a), NodeId(b), ber);
                }
            }
        }
        let cfg = FloodConfig::for_image(&img);
        let mut net: Network<Flood> = NetworkBuilder::new(links, 2).build(|id, _| {
            if id == NodeId(0) {
                Flood::base_station(cfg.clone(), &img)
            } else {
                Flood::node(cfg.clone())
            }
        });
        net.run_until(|_| false, SimTime::from_secs(120));
        for i in 1..6 {
            let p = net.protocol(NodeId::from_index(i));
            assert!(p.store().packets_received() <= 128);
        }
    }

    #[test]
    fn two_hop_line_propagates_but_unreliably() {
        // Even on perfect links, a relay misses upstream packets while it
        // retransmits, so flooding typically does NOT achieve 100% coverage
        // — the failure mode motivating MNP. What it must never do is
        // corrupt stored data.
        let img = image();
        let mut links = LinkTable::new(3);
        for (a, b) in [(0u32, 1u32), (1, 0), (1, 2), (2, 1)] {
            links.connect(NodeId(a), NodeId(b), 0.0);
        }
        let mut net = build(links, &img, 3);
        net.run_until(|_| false, SimTime::from_secs(300));
        let p2 = net.protocol(NodeId(2));
        assert!(
            p2.store().packets_received() > 0,
            "some packets cross two hops"
        );
        for (s, pkt) in [(0u16, 0u16), (0, 1)] {
            if p2.store().has_packet(s, pkt) {
                // Stored data always matches the source image.
                let mut store = p2.store().clone();
                assert_eq!(
                    store.read_packet(s, pkt).unwrap(),
                    img.packet_payload(s, pkt)
                );
            }
        }
    }
}
