//! A Deluge-like dissemination protocol (Hui & Culler, SenSys'04).
//!
//! Deluge is the paper's primary comparison point. Shared machinery with
//! MNP (noted in §5): advertise–request–data handshaking, an image divided
//! into fixed-size pages, page pipelining, and a bit vector tracking loss
//! within a page. The differences this implementation preserves:
//!
//! * **Trickle maintenance** — advertisements (summaries) are paced and
//!   suppressed by a [`Trickle`] timer instead of MNP's sender-selection
//!   competition.
//! * **No sleeping** — "Deluge ... requires that radio is always on during
//!   reprogramming. Therefore a node's idle listening time is the same as
//!   the completion time." This is the crux of the paper's energy
//!   comparison (C1 in DESIGN.md).
//! * **No greedy sender choice** — a requester simply asks the summary
//!   sender it heard; concurrent senders in one neighbourhood are possible
//!   and produce the hidden-terminal collisions §5 discusses.

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimTime};
use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{self, ForwardVector, TimerMux};
use mnp::PacketBitmap;

use crate::trickle::{Trickle, TrickleConfig};

/// Deluge parameters.
#[derive(Clone, Debug)]
pub struct DelugeConfig {
    /// The program being disseminated.
    pub program: ProgramId,
    /// Image layout (pages = segments).
    pub layout: ImageLayout,
    /// Checksum of the authoritative image, asserted on completion.
    pub expected_checksum: u64,
    /// Maintenance-plane Trickle parameters.
    pub trickle: TrickleConfig,
    /// Pacing between data packets.
    pub data_packet_period: SimDuration,
    /// Jitter on the pacing.
    pub data_packet_jitter: SimDuration,
    /// Random delay before sending a page request (request suppression
    /// window).
    pub request_delay_max: SimDuration,
    /// How long a receiver waits for data before re-requesting.
    pub rx_timeout: SimDuration,
    /// Requests for one page before giving up back to maintenance.
    pub max_requests: u32,
}

impl DelugeConfig {
    /// Defaults matched to the MNP configuration so C1 compares protocols,
    /// not parameters.
    pub fn for_image(image: &ProgramImage) -> Self {
        DelugeConfig {
            program: image.id(),
            layout: image.layout(),
            expected_checksum: image.checksum(),
            trickle: TrickleConfig::default(),
            data_packet_period: SimDuration::from_millis(60),
            data_packet_jitter: SimDuration::from_millis(20),
            request_delay_max: SimDuration::from_millis(500),
            rx_timeout: SimDuration::from_secs(4),
            max_requests: 3,
        }
    }
}

/// Deluge's message set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DelugeMsg {
    /// Maintenance summary: how many pages the sender holds.
    Summary {
        /// The advertising node.
        source: NodeId,
        /// Complete pages held (prefix count).
        pages: u16,
    },
    /// NACK-style request for the missing packets of a page.
    PageReq {
        /// The summary sender being asked.
        dest: NodeId,
        /// The requesting node.
        requester: NodeId,
        /// Page wanted (the requester's prefix).
        page: u16,
        /// Missing packets within the page.
        missing: PacketBitmap,
    },
    /// One code packet.
    Data {
        /// Page the packet belongs to.
        page: u16,
        /// Packet index within the page.
        pkt: u16,
        /// Code bytes.
        payload: Vec<u8>,
    },
}

impl WireMsg for DelugeMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            DelugeMsg::Summary { .. } => 4,
            DelugeMsg::PageReq { .. } => 22,
            DelugeMsg::Data { payload, .. } => 3 + payload.len(),
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            DelugeMsg::Summary { .. } => MsgClass::Advertisement,
            DelugeMsg::PageReq { .. } => MsgClass::Request,
            DelugeMsg::Data { .. } => MsgClass::Data,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Maintain,
    Rx,
    Tx,
}

impl StateLabel for State {
    fn label(self) -> &'static str {
        match self {
            State::Maintain => "Maintain",
            State::Rx => "Rx",
            State::Tx => "Tx",
        }
    }
}

const T_FIRE: u64 = 1;
const T_INTERVAL_END: u64 = 2;
const T_REQ_SEND: u64 = 3;
const T_RX_TIMEOUT: u64 = 4;
const T_TX_TICK: u64 = 5;

/// Per-node Deluge counters for the harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DelugeStats {
    /// Summaries transmitted.
    pub summaries_sent: u64,
    /// Summaries suppressed by Trickle.
    pub summaries_suppressed: u64,
    /// Page requests transmitted.
    pub requests_sent: u64,
    /// Requests suppressed after overhearing an identical one.
    pub requests_suppressed: u64,
    /// Pages served (Tx rounds).
    pub tx_rounds: u64,
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
#[derive(Debug)]
pub struct Deluge {
    cfg: DelugeConfig,
    store: PacketStore,
    is_base: bool,
    completed: bool,
    heard_any: bool,
    state: State,
    /// Timer sequence for the Rx/Tx transfer plane, invalidated on every
    /// transfer-state teardown.
    transfer_timers: TimerMux,
    /// Separate sequence for maintenance-interval timers so Trickle resets
    /// (which happen on every overheard transfer message) never invalidate
    /// in-flight Rx/Tx timers.
    maintain_timers: TimerMux,
    trickle: Trickle,

    // Rx
    rx_page: u16,
    rx_missing: PacketBitmap,
    rx_requests: u32,
    rx_deadline: SimTime,
    pending_req: Option<(NodeId, u16)>,
    pending_suppressed: bool,

    // Tx
    tx_page: u16,
    fwd: ForwardVector,

    /// Counters for the harness.
    pub stats: DelugeStats,
}

impl Deluge {
    /// Creates the base station holding the full image.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: DelugeConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.program, "image/program mismatch");
        assert_eq!(image.layout(), cfg.layout, "image/layout mismatch");
        let store = PacketStore::preloaded(image, cfg.layout.segment_count());
        let mut d = Deluge::with_store(cfg, store);
        d.is_base = true;
        d.completed = true;
        d
    }

    /// Creates an ordinary node with empty flash.
    pub fn node(cfg: DelugeConfig) -> Self {
        let store = PacketStore::new(cfg.program, cfg.layout);
        Deluge::with_store(cfg, store)
    }

    fn with_store(cfg: DelugeConfig, store: PacketStore) -> Self {
        let trickle = Trickle::new(cfg.trickle);
        Deluge {
            cfg,
            store,
            is_base: false,
            completed: false,
            heard_any: false,
            state: State::Maintain,
            transfer_timers: TimerMux::new(),
            maintain_timers: TimerMux::new(),
            trickle,
            rx_page: 0,
            rx_missing: PacketBitmap::empty(),
            rx_requests: 0,
            rx_deadline: SimTime::ZERO,
            pending_req: None,
            pending_suppressed: false,
            tx_page: 0,
            fwd: ForwardVector::new(),
            stats: DelugeStats::default(),
        }
    }

    /// Whether the node holds the complete, checksum-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store (for test assertions).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// Routes a timer kind to the mux owning its sequence.
    fn mux_for(&self, kind: u64) -> &TimerMux {
        if kind == T_FIRE || kind == T_INTERVAL_END {
            &self.maintain_timers
        } else {
            &self.transfer_timers
        }
    }

    fn token(&self, kind: u64) -> u64 {
        self.mux_for(kind).token(kind)
    }

    fn pages(&self) -> u16 {
        self.store.segments_received_prefix()
    }

    fn missing_for(&self, page: u16) -> PacketBitmap {
        engine::missing_vector(&self.store, page)
    }

    fn begin_interval(&mut self, ctx: &mut Context<'_, DelugeMsg>) {
        self.maintain_timers.invalidate();
        let sched = self.trickle.begin_interval(ctx.rng);
        ctx.set_timer(sched.fire_in, self.token(T_FIRE));
        ctx.set_timer(sched.end_in, self.token(T_INTERVAL_END));
    }

    fn trickle_inconsistent(&mut self, ctx: &mut Context<'_, DelugeMsg>) {
        if self.trickle.note_inconsistent() {
            self.begin_interval(ctx);
        }
    }

    fn enter_maintain(&mut self, ctx: &mut Context<'_, DelugeMsg>) {
        self.transfer_timers.invalidate();
        self.state = State::Maintain;
        self.pending_req = None;
        self.pending_suppressed = false;
        self.begin_interval(ctx);
    }

    fn store_data(
        &mut self,
        ctx: &mut Context<'_, DelugeMsg>,
        from: NodeId,
        page: u16,
        pkt: u16,
        payload: &[u8],
    ) {
        if page != self.pages()
            || self.completed
            || !engine::store_packet_once(&mut self.store, page, pkt, payload)
        {
            return;
        }
        ctx.note_eeprom_write(page, pkt);
        ctx.note_parent(from);
        if self.state == State::Rx && page == self.rx_page {
            self.rx_missing.clear(pkt);
            self.rx_deadline = ctx.now + self.cfg.rx_timeout;
            ctx.set_timer(self.cfg.rx_timeout, self.token(T_RX_TIMEOUT));
        }
        if self.store.segment_complete(page) {
            if self.store.verify_complete(self.cfg.expected_checksum) {
                self.completed = true;
                ctx.note_completion();
            }
            // Page boundary: back to maintenance; the new summary is an
            // inconsistency for neighbours still behind.
            self.trickle.note_inconsistent();
            self.enter_maintain(ctx);
        }
    }
}

impl Protocol for Deluge {
    type Msg = DelugeMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, DelugeMsg>) {
        if self.is_base {
            ctx.note_completion();
        }
        self.begin_interval(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DelugeMsg>, from: NodeId, msg: &DelugeMsg) {
        match msg {
            DelugeMsg::Summary { source, pages } => {
                if !self.heard_any && *pages > 0 {
                    self.heard_any = true;
                    ctx.note_first_heard();
                }
                let mine = self.pages();
                if *pages == mine {
                    self.trickle.note_consistent();
                } else {
                    self.trickle_inconsistent(ctx);
                    if *pages > mine && self.state == State::Maintain && self.pending_req.is_none()
                    {
                        // Ask for our next page after a suppression window.
                        self.pending_req = Some((*source, mine));
                        self.pending_suppressed = false;
                        let delay = ctx
                            .rng
                            .duration_between(SimDuration::ZERO, self.cfg.request_delay_max);
                        ctx.set_timer(delay, self.token(T_REQ_SEND));
                    }
                }
            }
            DelugeMsg::PageReq {
                dest,
                page,
                missing,
                ..
            } => {
                self.trickle_inconsistent(ctx);
                // Overheard identical request: suppress our own pending one.
                if let Some((_, want)) = self.pending_req {
                    if *page == want {
                        self.pending_suppressed = true;
                    }
                }
                if *dest == ctx.id && *page < self.pages() {
                    match self.state {
                        State::Maintain => {
                            self.transfer_timers.invalidate();
                            self.state = State::Tx;
                            self.tx_page = *page;
                            self.fwd.load(*missing);
                            self.stats.tx_rounds += 1;
                            ctx.note_became_sender();
                            let delay = ctx
                                .rng
                                .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
                            ctx.set_timer(delay, self.token(T_TX_TICK));
                        }
                        State::Tx if self.tx_page == *page => {
                            self.fwd.union_with(missing);
                        }
                        _ => {}
                    }
                }
            }
            DelugeMsg::Data { page, pkt, payload } => {
                self.trickle_inconsistent(ctx);
                self.store_data(ctx, from, *page, *pkt, payload);
            }
        }
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        let kind = token & 0xff;
        self.mux_for(kind).decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, DelugeMsg>, kind: u64) {
        match kind {
            T_FIRE => {
                if self.state == State::Maintain {
                    if self.trickle.should_fire() {
                        ctx.send(DelugeMsg::Summary {
                            source: ctx.id,
                            pages: self.pages(),
                        });
                        self.stats.summaries_sent += 1;
                    } else {
                        self.stats.summaries_suppressed += 1;
                    }
                }
            }
            T_INTERVAL_END => {
                self.trickle.end_interval();
                self.begin_interval(ctx);
            }
            T_REQ_SEND => {
                if self.state != State::Maintain {
                    return;
                }
                let Some((dest, page)) = self.pending_req.take() else {
                    return;
                };
                // Enter Rx either way; if suppressed we ride on the answer
                // to the request we overheard.
                self.transfer_timers.invalidate();
                self.state = State::Rx;
                self.rx_page = page;
                self.rx_missing = self.missing_for(page);
                self.rx_requests = 1;
                if self.pending_suppressed {
                    self.stats.requests_suppressed += 1;
                } else {
                    ctx.send(DelugeMsg::PageReq {
                        dest,
                        requester: ctx.id,
                        page,
                        missing: self.rx_missing,
                    });
                    self.stats.requests_sent += 1;
                }
                self.pending_suppressed = false;
                self.rx_deadline = ctx.now + self.cfg.rx_timeout;
                ctx.set_timer(self.cfg.rx_timeout, self.token(T_RX_TIMEOUT));
            }
            T_RX_TIMEOUT => {
                if self.state != State::Rx {
                    return;
                }
                if ctx.now < self.rx_deadline {
                    let remaining = self.rx_deadline.saturating_since(ctx.now);
                    ctx.set_timer(remaining, self.token(T_RX_TIMEOUT));
                    return;
                }
                if self.rx_requests < self.cfg.max_requests {
                    // Re-request from anyone; we address the request to the
                    // last parent if known, else broadcast-style to any
                    // holder is not possible — give up to maintenance where
                    // the next summary restarts the handshake.
                    self.rx_requests = self.rx_requests.saturating_add(1);
                    self.enter_maintain(ctx);
                } else {
                    self.enter_maintain(ctx);
                }
            }
            T_TX_TICK => {
                if self.state != State::Tx {
                    return;
                }
                let limit = self.cfg.layout.packets_in_segment(self.tx_page);
                match self.fwd.pop_round_robin(limit) {
                    Some(pkt) => {
                        let payload = self
                            .store
                            .read_packet(self.tx_page, pkt)
                            .expect("Tx node holds the page")
                            .to_vec();
                        ctx.send(DelugeMsg::Data {
                            page: self.tx_page,
                            pkt,
                            payload,
                        });
                        let delay = ctx
                            .rng
                            .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
                        ctx.set_timer(delay, self.token(T_TX_TICK));
                    }
                    None => self.enter_maintain(ctx),
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
#[path = "deluge_tests.rs"]
mod tests;
