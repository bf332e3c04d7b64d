//! A MOAP-like hop-by-hop reprogrammer (Stathopoulos et al., 2003).
//!
//! "MOAP disseminates code in a hop-by-hop fashion, that is, a node has to
//! receive the entire program image before starting advertising. MOAP uses
//! a simple publish-subscribe interface for reducing the number of
//! senders. No sender selection mechanism is considered. If a loss is
//! detected, a NAK is unicast to the sender requesting retransmission."
//!
//! The properties preserved here, in contrast to MNP:
//!
//! * **no pipelining** — only nodes holding the *complete* image publish;
//! * **no sender selection** — subscribers latch onto the first publisher
//!   they hear; concurrent publishers are possible;
//! * **NAK repair** — after the publisher's pass, subscribers unicast NAKs
//!   for missing packets;
//! * **radio always on.**

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimTime};
use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{self, ImageCursor, TimerMux};
use mnp::PacketBitmap;

/// MOAP parameters.
#[derive(Clone, Debug)]
pub struct MoapConfig {
    /// The program being disseminated.
    pub program: ProgramId,
    /// Image layout.
    pub layout: ImageLayout,
    /// Checksum of the authoritative image.
    pub expected_checksum: u64,
    /// Publish (advertisement) interval bounds.
    pub publish_interval_min: SimDuration,
    /// Upper bound of the publish interval.
    pub publish_interval_max: SimDuration,
    /// Pacing between data packets.
    pub data_packet_period: SimDuration,
    /// Jitter on the pacing.
    pub data_packet_jitter: SimDuration,
    /// How long a publisher collects subscriptions before transmitting.
    pub subscribe_window: SimDuration,
    /// Publisher idle timeout waiting for NAKs before going quiet.
    pub nak_idle_timeout: SimDuration,
    /// Subscriber timeout waiting for data before unsubscribing.
    pub rx_timeout: SimDuration,
}

impl MoapConfig {
    /// Defaults matched to the MNP data pacing.
    pub fn for_image(image: &ProgramImage) -> Self {
        MoapConfig {
            program: image.id(),
            layout: image.layout(),
            expected_checksum: image.checksum(),
            publish_interval_min: SimDuration::from_millis(1_000),
            publish_interval_max: SimDuration::from_millis(3_000),
            data_packet_period: SimDuration::from_millis(60),
            data_packet_jitter: SimDuration::from_millis(20),
            subscribe_window: SimDuration::from_millis(800),
            nak_idle_timeout: SimDuration::from_secs(2),
            rx_timeout: SimDuration::from_secs(4),
        }
    }
}

/// MOAP's message set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MoapMsg {
    /// A complete-image holder announcing availability.
    Publish {
        /// The publishing node.
        source: NodeId,
    },
    /// A node subscribing to a publisher.
    Subscribe {
        /// The publisher subscribed to.
        dest: NodeId,
        /// The subscriber.
        subscriber: NodeId,
    },
    /// One code packet.
    Data {
        /// Segment of the packet.
        seg: u16,
        /// Packet index within the segment.
        pkt: u16,
        /// Code bytes.
        payload: Vec<u8>,
    },
    /// End of the publisher's pass over the image.
    EndOfImage {
        /// The publisher.
        source: NodeId,
    },
    /// Unicast NAK: retransmit the missing packets of one segment.
    Nak {
        /// The publisher the NAK is destined to.
        dest: NodeId,
        /// The requesting subscriber.
        requester: NodeId,
        /// Segment to repair.
        seg: u16,
        /// Missing packets within that segment.
        missing: PacketBitmap,
    },
}

impl WireMsg for MoapMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            MoapMsg::Publish { .. } => 2,
            MoapMsg::Subscribe { .. } => 4,
            MoapMsg::Data { payload, .. } => 3 + payload.len(),
            MoapMsg::EndOfImage { .. } => 2,
            MoapMsg::Nak { .. } => 6 + 16,
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            MoapMsg::Publish { .. } => MsgClass::Advertisement,
            MoapMsg::Subscribe { .. } | MoapMsg::Nak { .. } => MsgClass::Request,
            MoapMsg::Data { .. } => MsgClass::Data,
            MoapMsg::EndOfImage { .. } => MsgClass::Control,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Waiting: no image, not subscribed.
    Idle,
    /// Complete image, periodically publishing.
    Publish,
    /// Publisher collecting subscriptions.
    GatherSubs,
    /// Publisher streaming the image.
    Tx,
    /// Publisher answering NAKs.
    Repair,
    /// Subscriber receiving.
    Rx,
}

impl StateLabel for State {
    fn label(self) -> &'static str {
        match self {
            State::Idle => "Idle",
            State::Publish => "Publish",
            State::GatherSubs => "GatherSubs",
            State::Tx => "Tx",
            State::Repair => "Repair",
            State::Rx => "Rx",
        }
    }
}

const T_PUBLISH: u64 = 1;
const T_SUBS_CLOSE: u64 = 2;
const T_TX_TICK: u64 = 3;
const T_NAK_IDLE: u64 = 4;
const T_RX_TIMEOUT: u64 = 5;

/// One node running the MOAP-like protocol.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Moap, MoapConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = MoapConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Moap> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) { Moap::base_station(cfg.clone(), &image) } else { Moap::node(cfg.clone()) }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(900)));
/// ```
#[derive(Debug)]
pub struct Moap {
    cfg: MoapConfig,
    store: PacketStore,
    is_base: bool,
    completed: bool,
    heard_any: bool,
    state: State,
    timers: TimerMux,

    // Publisher
    subscribers: u32,
    cursor: ImageCursor,
    nak_deadline: SimTime,
    repair_queue: Vec<(u16, PacketBitmap)>,

    // Subscriber
    publisher: Option<NodeId>,
    rx_deadline: SimTime,
}

impl Moap {
    /// Creates the base station holding the full image.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: MoapConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.program, "image/program mismatch");
        assert_eq!(image.layout(), cfg.layout, "image/layout mismatch");
        let store = PacketStore::preloaded(image, cfg.layout.segment_count());
        let mut m = Moap::with_store(cfg, store);
        m.is_base = true;
        m.completed = true;
        m.state = State::Publish;
        m
    }

    /// Creates an ordinary node with empty flash.
    pub fn node(cfg: MoapConfig) -> Self {
        let store = PacketStore::new(cfg.program, cfg.layout);
        Moap::with_store(cfg, store)
    }

    fn with_store(cfg: MoapConfig, store: PacketStore) -> Self {
        Moap {
            cfg,
            store,
            is_base: false,
            completed: false,
            heard_any: false,
            state: State::Idle,
            timers: TimerMux::new(),
            subscribers: 0,
            cursor: ImageCursor::new(),
            nak_deadline: SimTime::ZERO,
            repair_queue: Vec::new(),
            publisher: None,
            rx_deadline: SimTime::ZERO,
        }
    }

    /// Whether the node holds the complete, checksum-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store.
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    fn missing_for(&self, seg: u16) -> PacketBitmap {
        engine::missing_vector(&self.store, seg)
    }

    fn schedule_publish(&mut self, ctx: &mut Context<'_, MoapMsg>) {
        let delay = ctx
            .rng
            .duration_between(self.cfg.publish_interval_min, self.cfg.publish_interval_max);
        ctx.set_timer(delay, self.timers.token(T_PUBLISH));
    }

    fn enter_publish(&mut self, ctx: &mut Context<'_, MoapMsg>) {
        self.timers.invalidate();
        self.state = State::Publish;
        self.subscribers = 0;
        self.schedule_publish(ctx);
    }

    fn schedule_tx(&mut self, ctx: &mut Context<'_, MoapMsg>) {
        let delay = ctx
            .rng
            .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
        ctx.set_timer(delay, self.timers.token(T_TX_TICK));
    }

    fn store_data(
        &mut self,
        ctx: &mut Context<'_, MoapMsg>,
        from: NodeId,
        seg: u16,
        pkt: u16,
        payload: &[u8],
    ) {
        if self.completed || !engine::store_packet_once(&mut self.store, seg, pkt, payload) {
            return;
        }
        ctx.note_eeprom_write(seg, pkt);
        ctx.note_parent(from);
        if self.state == State::Rx {
            self.rx_deadline = ctx.now + self.cfg.rx_timeout;
            ctx.set_timer(self.cfg.rx_timeout, self.timers.token(T_RX_TIMEOUT));
        }
        if self.store.verify_complete(self.cfg.expected_checksum) {
            self.completed = true;
            ctx.note_completion();
            self.publisher = None;
            self.enter_publish(ctx);
        }
    }
}

impl Protocol for Moap {
    type Msg = MoapMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, MoapMsg>) {
        if self.is_base {
            ctx.note_completion();
            self.schedule_publish(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, MoapMsg>, from: NodeId, msg: &MoapMsg) {
        match msg {
            MoapMsg::Publish { source } => {
                if !self.heard_any {
                    self.heard_any = true;
                    ctx.note_first_heard();
                }
                if !self.completed && self.state == State::Idle {
                    ctx.send(MoapMsg::Subscribe {
                        dest: *source,
                        subscriber: ctx.id,
                    });
                    self.timers.invalidate();
                    self.state = State::Rx;
                    self.publisher = Some(*source);
                    self.rx_deadline = ctx.now + self.cfg.rx_timeout;
                    ctx.set_timer(self.cfg.rx_timeout, self.timers.token(T_RX_TIMEOUT));
                }
            }
            MoapMsg::Subscribe { dest, .. } => {
                if *dest == ctx.id && matches!(self.state, State::Publish | State::GatherSubs) {
                    self.subscribers = self.subscribers.saturating_add(1);
                    if self.state == State::Publish {
                        self.timers.invalidate();
                        self.state = State::GatherSubs;
                        ctx.set_timer(self.cfg.subscribe_window, self.timers.token(T_SUBS_CLOSE));
                    }
                }
            }
            MoapMsg::Data { seg, pkt, payload } => {
                self.store_data(ctx, from, *seg, *pkt, payload);
            }
            MoapMsg::EndOfImage { source } => {
                if self.state == State::Rx && self.publisher == Some(*source) && !self.completed {
                    // NAK the first incomplete segment.
                    let seg = self.store.segments_received_prefix();
                    if seg < self.cfg.layout.segment_count() {
                        ctx.send(MoapMsg::Nak {
                            dest: *source,
                            requester: ctx.id,
                            seg,
                            missing: self.missing_for(seg),
                        });
                        self.rx_deadline = ctx.now + self.cfg.rx_timeout;
                        ctx.set_timer(self.cfg.rx_timeout, self.timers.token(T_RX_TIMEOUT));
                    }
                }
            }
            MoapMsg::Nak {
                dest, seg, missing, ..
            } => {
                if *dest != ctx.id {
                    return;
                }
                if matches!(self.state, State::Repair | State::Tx) {
                    self.repair_queue.push((*seg, *missing));
                    if self.state == State::Repair {
                        self.nak_deadline = ctx.now + self.cfg.nak_idle_timeout;
                    }
                }
            }
        }
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        self.timers.decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, MoapMsg>, kind: u64) {
        match kind {
            T_PUBLISH => {
                if self.state == State::Publish {
                    ctx.send(MoapMsg::Publish { source: ctx.id });
                    self.schedule_publish(ctx);
                }
            }
            T_SUBS_CLOSE => {
                if self.state != State::GatherSubs {
                    return;
                }
                self.timers.invalidate();
                self.state = State::Tx;
                self.cursor = ImageCursor::new();
                ctx.note_became_sender();
                self.schedule_tx(ctx);
            }
            T_TX_TICK => {
                match self.state {
                    State::Tx => {
                        let (seg, pkt) = (self.cursor.seg(), self.cursor.pkt());
                        let payload = self
                            .store
                            .read_packet(seg, pkt)
                            .expect("publisher holds the image")
                            .to_vec();
                        ctx.send(MoapMsg::Data { seg, pkt, payload });
                        if self.cursor.step(self.cfg.layout) {
                            ctx.send(MoapMsg::EndOfImage { source: ctx.id });
                            self.timers.invalidate();
                            self.state = State::Repair;
                            self.nak_deadline = ctx.now + self.cfg.nak_idle_timeout;
                            ctx.set_timer(self.cfg.nak_idle_timeout, self.timers.token(T_NAK_IDLE));
                        } else {
                            self.schedule_tx(ctx);
                        }
                    }
                    State::Repair => {
                        // Drain the repair queue one packet at a time.
                        if let Some((seg, missing)) = self.repair_queue.first_mut() {
                            if let Some(pkt) = missing.first_set_at_or_after(0) {
                                missing.clear(pkt);
                                let seg = *seg;
                                let payload = self
                                    .store
                                    .read_packet(seg, pkt)
                                    .expect("publisher holds the image")
                                    .to_vec();
                                ctx.send(MoapMsg::Data { seg, pkt, payload });
                                self.schedule_tx(ctx);
                            } else {
                                self.repair_queue.remove(0);
                                if self.repair_queue.is_empty() {
                                    ctx.send(MoapMsg::EndOfImage { source: ctx.id });
                                } else {
                                    self.schedule_tx(ctx);
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            T_NAK_IDLE => {
                if self.state != State::Repair {
                    return;
                }
                if !self.repair_queue.is_empty() {
                    // Repairs pending: start draining.
                    self.schedule_tx(ctx);
                    self.nak_deadline = ctx.now + self.cfg.nak_idle_timeout;
                    ctx.set_timer(self.cfg.nak_idle_timeout, self.timers.token(T_NAK_IDLE));
                    return;
                }
                if ctx.now < self.nak_deadline {
                    let remaining = self.nak_deadline.saturating_since(ctx.now);
                    ctx.set_timer(remaining, self.timers.token(T_NAK_IDLE));
                    return;
                }
                self.enter_publish(ctx);
            }
            T_RX_TIMEOUT => {
                if self.state != State::Rx {
                    return;
                }
                if ctx.now < self.rx_deadline {
                    let remaining = self.rx_deadline.saturating_since(ctx.now);
                    ctx.set_timer(remaining, self.timers.token(T_RX_TIMEOUT));
                    return;
                }
                // Publisher went quiet: unsubscribe and wait for the next
                // publish round.
                self.timers.invalidate();
                self.state = State::Idle;
                self.publisher = None;
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

    fn image(segments: u16) -> ProgramImage {
        ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments))
    }

    fn line_links(n: usize, ber: f64) -> LinkTable {
        let mut links = LinkTable::new(n);
        for i in 0..n - 1 {
            links.connect(NodeId::from_index(i), NodeId::from_index(i + 1), ber);
            links.connect(NodeId::from_index(i + 1), NodeId::from_index(i), ber);
        }
        links
    }

    fn build(links: LinkTable, img: &ProgramImage, seed: u64) -> Network<Moap> {
        let cfg = MoapConfig::for_image(img);
        NetworkBuilder::new(links, seed).build(|id, _| {
            if id == NodeId(0) {
                Moap::base_station(cfg.clone(), img)
            } else {
                Moap::node(cfg.clone())
            }
        })
    }

    #[test]
    fn single_hop_completes() {
        let img = image(1);
        let mut net = build(line_links(2, 0.0), &img, 1);
        assert!(net.run_until_all_complete(SimTime::from_secs(900)));
        assert_eq!(
            net.protocol(NodeId(1)).store().assembled_checksum(),
            img.checksum()
        );
    }

    #[test]
    fn hop_by_hop_line_completes() {
        let img = image(1);
        let mut net = build(line_links(3, 0.0), &img, 2);
        assert!(net.run_until_all_complete(SimTime::from_secs(1_800)));
        // Node 2 must have received from node 1 (hop-by-hop).
        assert_eq!(net.trace().node(NodeId(2)).parent, Some(NodeId(1)));
    }

    #[test]
    fn no_pipelining_means_full_image_before_forwarding() {
        // With 2 segments, node 1 cannot serve node 2 until it holds BOTH
        // segments: its become-sender time is after its completion time.
        let img = image(2);
        let mut net = build(line_links(3, 0.0), &img, 3);
        assert!(net.run_until_all_complete(SimTime::from_secs(3_600)));
        let t = net.trace();
        let n1_complete = t.node(NodeId(1)).completion.unwrap();
        let n2_first_data = t.node(NodeId(2)).completion.unwrap();
        assert!(n1_complete < n2_first_data);
        assert_eq!(t.node(NodeId(2)).parent, Some(NodeId(1)));
    }

    #[test]
    fn nak_repair_recovers_losses() {
        let ber = 1.0 - 0.9f64.powf(1.0 / 376.0);
        let img = image(1);
        let mut net = build(line_links(2, ber), &img, 4);
        assert!(net.run_until_all_complete(SimTime::from_secs(3_600)));
    }

    #[test]
    fn radio_never_sleeps() {
        let img = image(1);
        let mut net = build(line_links(2, 0.0), &img, 5);
        assert!(net.run_until_all_complete(SimTime::from_secs(900)));
        let end = net.now();
        for i in 0..2 {
            let art = net.medium().active_radio_time(NodeId::from_index(i), end);
            assert_eq!(art, end.saturating_since(SimTime::ZERO));
        }
    }
}
