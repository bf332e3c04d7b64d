//! An XNP-like single-hop reprogrammer.
//!
//! "TinyOS has included single-hop network reprogramming support (XNP) for
//! Mica-2 motes since the release of version 1.0. In XNP, one source node
//! (the base station) broadcasts the code image to all the nodes within
//! its radio range." There is no forwarding: nodes beyond one hop never
//! receive the program — the coverage failure that motivates multihop
//! reprogramming.
//!
//! The base cycles through the image repeatedly (cyclic redundancy doubles
//! as loss recovery); receivers store whatever they hear.

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::SimDuration;
use mnp_storage::{PacketStore, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{self, ImageCursor, TimerMux};
use mnp::DataPacket;

/// XNP parameters: the image and the base's pass budget. The timings are
/// this module's constants.
#[derive(Clone, Debug)]
pub struct XnpConfig {
    /// The program being disseminated: one handle shared by every node,
    /// which checks each flash write against it.
    pub image: ProgramImage,
    /// Passes before the base stops (a real deployment stops on operator
    /// command; benches need termination).
    pub max_passes: u32,
}

impl XnpConfig {
    /// The configuration for a given image: 40 passes.
    pub fn for_image(image: &ProgramImage) -> Self {
        XnpConfig {
            image: image.clone(),
            max_passes: 40,
        }
    }
}

// Timings, matched to the MNP data pacing (DESIGN §4).
/// Pacing between packets.
const DATA_PACKET_PERIOD: SimDuration = SimDuration::from_millis(60);
/// Jitter on the pacing.
const DATA_PACKET_JITTER: SimDuration = SimDuration::from_millis(20);
/// Pause between image passes.
const INTER_PASS_GAP: SimDuration = SimDuration::from_secs(2);

/// XNP's message set: data only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XnpMsg {
    /// One code packet.
    Data(DataPacket),
}

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<XnpMsg>() <= 6);

impl WireMsg for XnpMsg {
    fn wire_bytes(&self) -> usize {
        let XnpMsg::Data(d) = self;
        d.wire_bytes()
    }

    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

const T_TICK: u64 = 1;

/// XNP's (trivial) state machine: the base broadcasts until its pass
/// budget runs out; receivers listen until complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XnpState {
    /// Base: cycling through the image.
    Broadcast,
    /// Base: pass budget exhausted.
    Done,
    /// Receiver: storing whatever it hears.
    Listen,
    /// Receiver: image complete and verified.
    Complete,
}

impl StateLabel for XnpState {
    fn label(self) -> &'static str {
        match self {
            XnpState::Broadcast => "Broadcast",
            XnpState::Done => "Done",
            XnpState::Listen => "Listen",
            XnpState::Complete => "Complete",
        }
    }
}

/// One node running XNP (base or passive receiver).
///
/// # Example
///
/// ```
/// use mnp_baselines::{Xnp, XnpConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = XnpConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Xnp> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) { Xnp::base_station(cfg.clone(), &image) } else { Xnp::node(cfg.clone()) }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(600)));
/// ```
#[derive(Debug)]
pub struct Xnp {
    store: PacketStore,
    /// The base's pass budget (`XnpConfig::max_passes`).
    max_passes: u32,
    is_base: bool,
    completed: bool,
    state: XnpState,
    timers: TimerMux,
    cursor: ImageCursor,
    pass: u64,
}

// Per-node byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Xnp>() <= 88);

impl Xnp {
    /// Creates the broadcasting base station.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: XnpConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.image.id(), "image/program mismatch");
        assert_eq!(image.layout(), cfg.image.layout(), "image/layout mismatch");
        let store = PacketStore::preloaded(&cfg.image, cfg.image.layout().segment_count());
        let state = if cfg.max_passes == 0 {
            XnpState::Done
        } else {
            XnpState::Broadcast
        };
        Xnp {
            store,
            max_passes: cfg.max_passes,
            is_base: true,
            completed: true,
            state,
            timers: TimerMux::new(),
            cursor: ImageCursor::new(),
            pass: 0,
        }
    }

    /// Creates a passive receiver.
    pub fn node(cfg: XnpConfig) -> Self {
        let store = PacketStore::new(&cfg.image);
        Xnp {
            store,
            max_passes: cfg.max_passes,
            is_base: false,
            completed: false,
            state: XnpState::Listen,
            timers: TimerMux::new(),
            cursor: ImageCursor::new(),
            pass: 0,
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

    fn schedule_tick(&self, ctx: &mut Context<'_, XnpMsg>, gap: SimDuration) {
        let delay = ctx.rng.jittered(gap, DATA_PACKET_JITTER);
        // XNP never tears state down, so the mux stays at epoch 0 and the
        // token is the raw kind value.
        ctx.set_timer(delay, self.timers.token(T_TICK));
    }
}

impl Protocol for Xnp {
    type Msg = XnpMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, XnpMsg>) {
        if self.is_base {
            ctx.note_completion();
            ctx.note_became_sender();
            self.schedule_tick(ctx, DATA_PACKET_PERIOD);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XnpMsg>, from: NodeId, msg: &XnpMsg) {
        if self.is_base || self.completed {
            return;
        }
        let XnpMsg::Data(DataPacket { seg, pkt, .. }) = *msg;
        if engine::store_named_packet(&mut self.store, seg, pkt) {
            ctx.note_eeprom_write(seg, pkt);
            ctx.note_parent(from);
            if self.store.is_complete() {
                self.completed = true;
                self.state = XnpState::Complete;
                ctx.note_completion();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, XnpMsg>, _token: u64) {
        if self.state != XnpState::Broadcast {
            return;
        }
        let (seg, pkt) = (self.cursor.seg(), self.cursor.pkt());
        let held = self
            .store
            .read_packet(seg, pkt)
            .expect("base holds the image");
        ctx.send(XnpMsg::Data(DataPacket::new(seg, pkt, held)));
        // Advance the cursor, wrapping per pass.
        if self.cursor.step(self.store.layout()) {
            self.pass += 1;
            if self.pass < u64::from(self.max_passes) {
                self.schedule_tick(ctx, INTER_PASS_GAP);
            } else {
                self.state = XnpState::Done;
            }
            return;
        }
        self.schedule_tick(ctx, DATA_PACKET_PERIOD);
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

    fn build(links: LinkTable, img: &ProgramImage, seed: u64) -> Network<Xnp> {
        let cfg = XnpConfig::for_image(img);
        NetworkBuilder::new(links, seed).build(|id, _| {
            if id == NodeId(0) {
                Xnp::base_station(cfg.clone(), img)
            } else {
                Xnp::node(cfg.clone())
            }
        })
    }

    #[test]
    fn in_range_node_completes() {
        let img = image();
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        let mut net = build(links, &img, 1);
        assert!(net.run_until_all_complete(SimTime::from_secs(600)));
        assert!(net.protocol(NodeId(1)).store().is_complete());
    }

    #[test]
    fn out_of_range_node_never_completes() {
        // 0 — 1 — 2 line: node 2 is two hops out; XNP cannot reach it.
        let img = image();
        let mut links = LinkTable::new(3);
        for (a, b) in [(0u32, 1u32), (1, 0), (1, 2), (2, 1)] {
            links.connect(NodeId(a), NodeId(b), 0.0);
        }
        let mut net = build(links, &img, 2);
        assert!(!net.run_until_all_complete(SimTime::from_secs(900)));
        assert!(net.protocol(NodeId(1)).is_complete());
        assert!(!net.protocol(NodeId(2)).is_complete(), "single-hop only");
        assert_eq!(net.protocol(NodeId(2)).store().packets_received(), 0);
    }

    #[test]
    fn cyclic_passes_recover_losses() {
        let ber = 1.0 - 0.8f64.powf(1.0 / 376.0); // ~20% packet loss
        let img = image();
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), ber);
        links.connect(NodeId(1), NodeId(0), ber);
        let mut net = build(links, &img, 3);
        assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    }

    #[test]
    fn base_stops_after_max_passes() {
        let img = image();
        let mut cfg = XnpConfig::for_image(&img);
        cfg.max_passes = 2;
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        let mut net: Network<Xnp> = NetworkBuilder::new(links, 4).build(|id, _| {
            if id == NodeId(0) {
                Xnp::base_station(cfg.clone(), &img)
            } else {
                Xnp::node(cfg.clone())
            }
        });
        net.run_until(|_| false, SimTime::from_secs(3_600));
        let sent = net.trace().node(NodeId(0)).sent;
        assert_eq!(sent, 2 * 128, "exactly two passes of a 128-packet image");
    }

    #[test]
    fn pass_counter_survives_far_past_255_rounds() {
        // Regression for the narrow-counter overflow class (an 8-bit
        // round counter wraps at 256 and the budget check goes wrong):
        // 300 passes of a 2-packet image must stop at exactly 300 passes.
        let img = ProgramImage::synthetic(ProgramId(1), ImageLayout::from_packets(2));
        let mut cfg = XnpConfig::for_image(&img);
        cfg.max_passes = 300;
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        let mut net: Network<Xnp> = NetworkBuilder::new(links, 4).build(|id, _| {
            if id == NodeId(0) {
                Xnp::base_station(cfg.clone(), &img)
            } else {
                Xnp::node(cfg.clone())
            }
        });
        net.run_until(|_| false, SimTime::from_secs(3_600));
        let sent = net.trace().node(NodeId(0)).sent;
        assert_eq!(sent, 300 * 2, "exactly 300 passes of a 2-packet image");
        assert_eq!(net.protocol(NodeId(0)).state_label(), "Done");
    }
}
