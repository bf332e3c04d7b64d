//! The Trickle page-transfer skeleton Deluge and the coded family share.
//!
//! [`Paged`] is one node of a Deluge-style protocol: Trickle-paced
//! summaries of the complete-page prefix, a request for the next page
//! sent to a summary sender after a random suppression window, a
//! receiver that falls back to maintenance when data stops arriving, and
//! a sender that serves one page per round. What travels in a request and
//! in a data frame is the protocol's own business — its [`Plane`]:
//!
//! * [`Deluge`](crate::Deluge) — a missing-packet bitmap, answered by
//!   draining a ForwardVector one plain packet per frame;
//! * [`Rlnc`](crate::Rlnc) — a rank deficit, answered by a budget of
//!   random linear combinations;
//! * [`Xor`](crate::Xor) — a missing-packet bitmap, answered by XOR mixes
//!   planned across every requester of the round.
//!
//! The skeleton never asks which plane it runs: maintenance, request
//! suppression, the rx timeout and the page boundary are the same code for
//! all three, so a comparison between them measures the data plane alone.

use std::fmt::Debug;
use std::ops::{Deref, DerefMut};

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::SimDuration;
use mnp_storage::{PacketStore, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{Deadline, TimerMux};
use mnp::PacketBitmap;

use crate::trickle::{Trickle, TrickleConfig};

/// Parameters of a paged protocol: the eight the skeleton reads, plus the
/// plane's own (`plane`, whose fields also read as the config's own
/// through `Deref`, e.g. `cfg.extra_coded`).
#[derive(Clone, Debug)]
pub struct PagedConfig<T> {
    /// The program being disseminated: one handle shared by every node,
    /// which checks each flash write against it.
    pub image: ProgramImage,
    /// Maintenance-plane Trickle parameters.
    pub trickle: TrickleConfig,
    /// Pacing between data frames.
    pub data_packet_period: SimDuration,
    /// Jitter on the pacing.
    pub data_packet_jitter: SimDuration,
    /// Random delay before sending a page request (request suppression
    /// window).
    pub request_delay_max: SimDuration,
    /// How long a receiver waits for progress before giving up back to
    /// maintenance.
    pub rx_timeout: SimDuration,
    /// The data plane's own tunables.
    pub plane: T,
}

impl<T: Default> PagedConfig<T> {
    /// Defaults matched to the MNP configuration so comparisons measure
    /// protocols, not parameters; the plane's tunables take their own
    /// defaults.
    pub fn for_image(image: &ProgramImage) -> Self {
        PagedConfig {
            image: image.clone(),
            trickle: TrickleConfig::default(),
            data_packet_period: SimDuration::from_millis(60),
            data_packet_jitter: SimDuration::from_millis(20),
            request_delay_max: SimDuration::from_millis(500),
            rx_timeout: SimDuration::from_secs(4),
            plane: T::default(),
        }
    }
}

impl<T> Deref for PagedConfig<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.plane
    }
}

impl<T> DerefMut for PagedConfig<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.plane
    }
}

/// Per-node counters for the harness: the five the skeleton keeps, plus
/// the plane's own (`plane`, also readable as `stats.innovative` etc.
/// through `Deref`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagedStats<S> {
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
    /// The data plane's own counters.
    pub plane: S,
}

impl<S> Deref for PagedStats<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.plane
    }
}

/// A request body's or a data frame's size on the air, in bytes.
pub trait Wire {
    /// Bytes this part occupies in the TinyOS payload.
    fn wire_bytes(&self) -> usize;
}

/// A missing-packet bitmap travels as its 16 raw bytes.
impl Wire for PacketBitmap {
    fn wire_bytes(&self) -> usize {
        16
    }
}

/// A rank deficit travels as one 16-bit count.
impl Wire for u16 {
    fn wire_bytes(&self) -> usize {
        2
    }
}

/// A data frame: one page's worth of the plane's traffic.
pub trait Frame: Wire {
    /// The page the frame belongs to.
    fn page(&self) -> u16;
}

/// The message set of a paged protocol whose plane requests with `R` and
/// answers with frames `F`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagedMsg<R, F> {
    /// Maintenance summary: how many pages the sender holds.
    Summary {
        /// The advertising node.
        source: NodeId,
        /// Complete pages held (prefix count).
        pages: u16,
    },
    /// Request for the requester's next page.
    Req {
        /// The summary sender being asked.
        dest: NodeId,
        /// The requesting node.
        requester: NodeId,
        /// Page wanted (the requester's prefix).
        page: u16,
        /// What the plane asks for within the page.
        body: R,
    },
    /// One data-plane frame.
    Data(F),
}

impl<R: Wire + Send, F: Frame + Send> WireMsg for PagedMsg<R, F> {
    fn wire_bytes(&self) -> usize {
        match self {
            PagedMsg::Summary { .. } => 4,
            PagedMsg::Req { body, .. } => 6 + body.wire_bytes(),
            PagedMsg::Data(frame) => frame.wire_bytes(),
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            PagedMsg::Summary { .. } => MsgClass::Advertisement,
            PagedMsg::Req { .. } => MsgClass::Request,
            PagedMsg::Data(_) => MsgClass::Data,
        }
    }
}

/// The message type of a node running plane `D`.
pub type MsgOf<D> = PagedMsg<<D as Plane>::Req, <D as Plane>::Frame>;

/// What a data plane may touch of its node for one hook call.
pub struct Node<'a, 'c, D: Plane> {
    /// The node's radio context.
    pub(crate) ctx: &'a mut Context<'c, MsgOf<D>>,
    /// The node's flash.
    pub(crate) store: &'a mut PacketStore,
    /// The node's config.
    pub(crate) cfg: &'a PagedConfig<D::Tunables>,
    /// The plane's own counters.
    pub(crate) stats: &'a mut D::Stats,
    /// The transfer-timer sequence: plane timers minted from it die with
    /// the round, like the skeleton's own.
    pub(crate) timers: &'a TimerMux,
}

/// A protocol's data plane: what it requests, how it serves a round, and
/// how it absorbs what it hears. The [`Paged`] skeleton calls these hooks
/// at fixed points of its state machine; a hook's context ops land in
/// the log exactly where it is called.
pub trait Plane: Sized + Send + Debug {
    /// The plane's own tunables ([`PagedConfig::plane`]).
    type Tunables: Clone + Debug + Default + Send;
    /// The plane's own counters ([`PagedStats::plane`]).
    type Stats: Copy + Debug + Default + PartialEq + Eq + Send;
    /// What a request asks for within the page.
    type Req: Copy + Debug + PartialEq + Eq + Send + Wire;
    /// One data frame.
    type Frame: Copy + Debug + PartialEq + Eq + Send + Frame;

    /// The plane of a node whose flash is `store`: at start-up, and again
    /// after a crash has wiped RAM.
    fn new(cfg: &PagedConfig<Self::Tunables>, store: &PacketStore) -> Self;

    /// The body of this node's request for `page`.
    fn request(&self, store: &PacketStore, page: u16) -> Self::Req;

    /// Starts a round serving `page` to the first requester.
    fn start_round(
        &mut self,
        node: Node<'_, '_, Self>,
        page: u16,
        requester: NodeId,
        req: &Self::Req,
    );

    /// Folds a further request for the page being served into the round.
    fn join_round(&mut self, tunables: &Self::Tunables, requester: NodeId, req: &Self::Req);

    /// The round's next frame for `page`, or `None` when the round is
    /// over.
    fn next_frame(&mut self, node: Node<'_, '_, Self>, page: u16) -> Option<Self::Frame>;

    /// Drops the round's state on the way back to maintenance.
    fn end_round(&mut self) {}

    /// Absorbs a frame for the node's next page; `true` if it made
    /// progress on that page.
    fn absorb(&mut self, node: Node<'_, '_, Self>, from: NodeId, frame: &Self::Frame) -> bool;

    /// After progress on `page`: whether the page is now complete on
    /// flash.
    fn page_done(&mut self, node: Node<'_, '_, Self>, page: u16) -> bool;

    /// Re-arms the plane's own timers on a fresh transfer epoch.
    fn rearm(&self, ctx: &mut Context<'_, MsgOf<Self>>, timers: &TimerMux) {
        let _ = (ctx, timers);
    }

    /// One of the plane's own timers fired; `true` if it completed the
    /// node's next page.
    fn on_timer(&mut self, node: Node<'_, '_, Self>, kind: u64) -> bool {
        let _ = node;
        unreachable!("unknown timer kind {kind}")
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

/// The first timer kind free for a plane's own timers, which the
/// skeleton routes to [`Plane::on_timer`].
pub(crate) const FIRST_PLANE_TIMER: u64 = 6;

/// One node of a paged protocol running data plane `D`.
#[derive(Debug)]
pub struct Paged<D: Plane> {
    cfg: PagedConfig<D::Tunables>,
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
    rx_deadline: Deadline,
    pending_req: Option<(NodeId, u16)>,
    pending_suppressed: bool,

    // Tx
    tx_page: u16,

    plane: D,

    /// Counters for the harness.
    pub stats: PagedStats<D::Stats>,
}

impl<D: Plane> Paged<D> {
    /// Creates the base station holding the full image.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: PagedConfig<D::Tunables>, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.image.id(), "image/program mismatch");
        assert_eq!(image.layout(), cfg.image.layout(), "image/layout mismatch");
        let store = PacketStore::preloaded(&cfg.image, cfg.image.layout().segment_count());
        let mut node = Paged::with_store(cfg, store);
        node.is_base = true;
        node.completed = true;
        node
    }

    /// Creates an ordinary node with empty flash.
    pub fn node(cfg: PagedConfig<D::Tunables>) -> Self {
        let store = PacketStore::new(&cfg.image);
        Paged::with_store(cfg, store)
    }

    fn with_store(cfg: PagedConfig<D::Tunables>, store: PacketStore) -> Self {
        Paged {
            trickle: Trickle::new(cfg.trickle),
            plane: D::new(&cfg, &store),
            cfg,
            store,
            is_base: false,
            completed: false,
            heard_any: false,
            state: State::Maintain,
            transfer_timers: TimerMux::new(),
            maintain_timers: TimerMux::new(),
            rx_page: 0,
            rx_deadline: Deadline::new(),
            pending_req: None,
            pending_suppressed: false,
            tx_page: 0,
            stats: PagedStats::default(),
        }
    }

    /// Whether the node holds the complete, write-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store (for test assertions).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// The node's data plane.
    pub(crate) fn plane(&self) -> &D {
        &self.plane
    }

    /// The plane and the node parts it may touch, borrowed apart.
    fn split<'a, 'c>(
        &'a mut self,
        ctx: &'a mut Context<'c, MsgOf<D>>,
    ) -> (&'a mut D, Node<'a, 'c, D>) {
        let node = Node {
            ctx,
            store: &mut self.store,
            cfg: &self.cfg,
            stats: &mut self.stats.plane,
            timers: &self.transfer_timers,
        };
        (&mut self.plane, node)
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

    fn begin_interval(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        self.maintain_timers.invalidate();
        let sched = self.trickle.begin_interval(ctx.rng);
        ctx.set_timer(sched.fire_in, self.token(T_FIRE));
        ctx.set_timer(sched.end_in, self.token(T_INTERVAL_END));
    }

    fn trickle_inconsistent(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        if self.trickle.note_inconsistent() {
            self.begin_interval(ctx);
        }
    }

    fn enter_maintain(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        self.transfer_timers.invalidate();
        self.state = State::Maintain;
        self.pending_req = None;
        self.pending_suppressed = false;
        self.plane.end_round();
        self.plane.rearm(ctx, &self.transfer_timers);
        self.begin_interval(ctx);
    }

    fn arm_rx_timeout(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        let token = self.token(T_RX_TIMEOUT);
        self.rx_deadline.arm(ctx, self.cfg.rx_timeout, token);
    }

    fn schedule_tick(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        let delay = ctx
            .rng
            .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
        ctx.set_timer(delay, self.token(T_TX_TICK));
    }

    fn on_summary(&mut self, ctx: &mut Context<'_, MsgOf<D>>, source: NodeId, pages: u16) {
        if !self.heard_any && pages > 0 {
            self.heard_any = true;
            ctx.note_first_heard();
        }
        let mine = self.pages();
        if pages == mine {
            self.trickle.note_consistent();
            return;
        }
        self.trickle_inconsistent(ctx);
        if pages > mine && self.state == State::Maintain && self.pending_req.is_none() {
            // Ask for our next page after a suppression window.
            self.pending_req = Some((source, mine));
            self.pending_suppressed = false;
            let delay = ctx
                .rng
                .duration_between(SimDuration::ZERO, self.cfg.request_delay_max);
            ctx.set_timer(delay, self.token(T_REQ_SEND));
        }
    }

    fn on_request(
        &mut self,
        ctx: &mut Context<'_, MsgOf<D>>,
        dest: NodeId,
        requester: NodeId,
        page: u16,
        req: &D::Req,
    ) {
        self.trickle_inconsistent(ctx);
        // Overheard identical request: suppress our own pending one and
        // ride on its answer.
        if let Some((_, want)) = self.pending_req {
            if page == want {
                self.pending_suppressed = true;
            }
        }
        if dest != ctx.id || page >= self.pages() {
            return;
        }
        match self.state {
            State::Maintain => {
                self.transfer_timers.invalidate();
                self.state = State::Tx;
                self.tx_page = page;
                let (plane, node) = self.split(ctx);
                plane.start_round(node, page, requester, req);
                self.stats.tx_rounds += 1;
                ctx.note_became_sender();
                self.plane.rearm(ctx, &self.transfer_timers);
                self.schedule_tick(ctx);
            }
            State::Tx if self.tx_page == page => {
                self.plane.join_round(&self.cfg.plane, requester, req);
            }
            _ => {}
        }
    }

    fn on_data(&mut self, ctx: &mut Context<'_, MsgOf<D>>, from: NodeId, frame: &D::Frame) {
        self.trickle_inconsistent(ctx);
        let page = frame.page();
        if self.completed || page != self.pages() {
            return;
        }
        let (plane, node) = self.split(ctx);
        if !plane.absorb(node, from, frame) {
            return;
        }
        if self.state == State::Rx && page == self.rx_page {
            self.arm_rx_timeout(ctx);
        }
        let (plane, node) = self.split(ctx);
        if plane.page_done(node, page) {
            self.finish_page(ctx);
        }
    }

    /// The page boundary: verify, maybe complete, and go back to
    /// maintenance — the new summary is an inconsistency for neighbours
    /// still behind.
    fn finish_page(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        if self.store.is_complete() {
            self.completed = true;
            ctx.note_completion();
        }
        self.trickle.note_inconsistent();
        self.enter_maintain(ctx);
    }

    fn send_request(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        if self.state != State::Maintain {
            return;
        }
        let Some((dest, page)) = self.pending_req.take() else {
            return;
        };
        if page != self.pages() {
            // Overheard traffic closed the page while the request was
            // pending; the next summary restarts the handshake.
            self.pending_suppressed = false;
            return;
        }
        // Enter Rx either way; if suppressed we ride on the answer to the
        // request we overheard.
        self.transfer_timers.invalidate();
        self.state = State::Rx;
        self.rx_page = page;
        self.plane.rearm(ctx, &self.transfer_timers);
        if self.pending_suppressed {
            self.stats.requests_suppressed += 1;
        } else {
            let body = self.plane.request(&self.store, page);
            ctx.send(PagedMsg::Req {
                dest,
                requester: ctx.id,
                page,
                body,
            });
            self.stats.requests_sent += 1;
        }
        self.pending_suppressed = false;
        self.arm_rx_timeout(ctx);
    }
}

impl<D: Plane> Protocol for Paged<D> {
    type Msg = MsgOf<D>;

    fn on_start(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        if self.is_base {
            ctx.note_completion();
        }
        self.begin_interval(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, MsgOf<D>>, from: NodeId, msg: &MsgOf<D>) {
        match msg {
            PagedMsg::Summary { source, pages } => self.on_summary(ctx, *source, *pages),
            PagedMsg::Req {
                dest,
                requester,
                page,
                body,
            } => self.on_request(ctx, *dest, *requester, *page, body),
            PagedMsg::Data(frame) => self.on_data(ctx, from, frame),
        }
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        let kind = token & 0xff;
        self.mux_for(kind).decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, MsgOf<D>>, kind: u64) {
        match kind {
            T_FIRE => {
                if self.state == State::Maintain {
                    if self.trickle.should_fire() {
                        ctx.send(PagedMsg::Summary {
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
            T_REQ_SEND => self.send_request(ctx),
            T_RX_TIMEOUT => {
                let token = self.token(T_RX_TIMEOUT);
                if self.state == State::Rx && self.rx_deadline.expired(ctx, token) {
                    self.enter_maintain(ctx);
                }
            }
            T_TX_TICK => {
                if self.state != State::Tx {
                    return;
                }
                let page = self.tx_page;
                let (plane, node) = self.split(ctx);
                match plane.next_frame(node, page) {
                    Some(frame) => {
                        ctx.send(PagedMsg::Data(frame));
                        self.schedule_tick(ctx);
                    }
                    None => self.enter_maintain(ctx),
                }
            }
            plane_kind => {
                let (plane, node) = self.split(ctx);
                if plane.on_timer(node, plane_kind) {
                    self.finish_page(ctx);
                }
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, MsgOf<D>>) {
        // A crash wipes RAM but not flash; pre-crash timers decode as
        // stale after the epoch bump.
        self.transfer_timers.invalidate();
        self.maintain_timers.invalidate();
        self.state = State::Maintain;
        self.trickle = Trickle::new(self.cfg.trickle);
        self.pending_req = None;
        self.pending_suppressed = false;
        self.plane = D::new(&self.cfg, &self.store);
        self.heard_any = false;
        self.completed = self.store.is_complete();
        // Segments verified on flash were reported before the crash; only
        // the protocol side re-arms here (the observers' in-order segment
        // accounting forbids re-reporting).
        self.begin_interval(ctx);
    }

    fn inject_storage_fault(&mut self, failures: u32) {
        self.store.inject_write_faults(failures);
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
