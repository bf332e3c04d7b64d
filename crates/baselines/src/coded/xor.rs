//! XOR single-hop recoding: the cheap end of the coding spectrum.
//!
//! Follows the INRIA "Heuristics for Network Coding in Wireless
//! Networks" playbook (PAPERS.md): a forwarder that has overheard the
//! *reception state* of its neighbours (their request bitmaps) XORs up
//! to [`XorConfig::max_degree`] plain packets into one broadcast, chosen
//! so every targeted neighbour is missing exactly one of the mixed
//! packets and can decode it against its own flash. One transmission
//! then repairs several different losses at once — the win over Deluge's
//! one-packet-one-loss ForwardVector drain — while decoding costs only
//! XOR, no Gaussian elimination.
//!
//! Everything else (Trickle summaries, bitmap page requests, rx timeout)
//! is deliberately identical to the Deluge implementation so the
//! loss-sweep campaign compares recoding, not parameters.

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimTime};
use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{self, TimerMux};
use mnp::PacketBitmap;

use crate::trickle::{Trickle, TrickleConfig};

use super::padded_packet;

/// XOR-recoding parameters.
#[derive(Clone, Debug)]
pub struct XorConfig {
    /// The program being disseminated.
    pub program: ProgramId,
    /// Image layout (pages = segments).
    pub layout: ImageLayout,
    /// Checksum of the authoritative image, asserted on completion.
    pub expected_checksum: u64,
    /// Maintenance-plane Trickle parameters.
    pub trickle: TrickleConfig,
    /// Pacing between coded packets.
    pub data_packet_period: SimDuration,
    /// Jitter on the pacing.
    pub data_packet_jitter: SimDuration,
    /// Random delay before sending a page request (request suppression
    /// window).
    pub request_delay_max: SimDuration,
    /// How long a receiver waits for data before re-requesting.
    pub rx_timeout: SimDuration,
    /// Most packets mixed into one XOR broadcast. The wire format caps
    /// this at 3 (one id byte each inside the 29-byte frame).
    pub max_degree: usize,
}

impl XorConfig {
    /// Defaults matched to the Deluge configuration so the comparison
    /// campaign measures recoding, not parameters.
    pub fn for_image(image: &ProgramImage) -> Self {
        XorConfig {
            program: image.id(),
            layout: image.layout(),
            expected_checksum: image.checksum(),
            trickle: TrickleConfig::default(),
            data_packet_period: SimDuration::from_millis(60),
            data_packet_jitter: SimDuration::from_millis(20),
            request_delay_max: SimDuration::from_millis(500),
            rx_timeout: SimDuration::from_secs(4),
            max_degree: 3,
        }
    }
}

/// The XOR protocol's message set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XorMsg {
    /// Maintenance summary: how many pages the sender holds.
    Summary {
        /// The advertising node.
        source: NodeId,
        /// Complete pages held (prefix count).
        pages: u16,
    },
    /// NACK-style request for the missing packets of a page — the
    /// reception report the recoder plans its mixes from.
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
    /// One XOR combination of `ids.len()` plain packets of a page
    /// (degree 1 degenerates to a plain data packet).
    Xored {
        /// Page the mixed packets belong to.
        page: u16,
        /// Packet indices mixed in (1 ..= max_degree, one id byte each
        /// on the wire).
        ids: Vec<u16>,
        /// XOR of the padded payloads.
        payload: Vec<u8>,
    },
}

impl WireMsg for XorMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            XorMsg::Summary { .. } => 4,
            XorMsg::PageReq { .. } => 22,
            XorMsg::Xored { ids, payload, .. } => 3 + ids.len() + payload.len(),
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            XorMsg::Summary { .. } => MsgClass::Advertisement,
            XorMsg::PageReq { .. } => MsgClass::Request,
            XorMsg::Xored { .. } => MsgClass::Data,
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

/// Per-node XOR-recoding counters for the harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XorStats {
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
    /// Coded broadcasts transmitted.
    pub xored_sent: u64,
    /// Broadcasts that mixed two or more packets (actual recoding).
    pub mixed_sent: u64,
    /// Packets recovered by XOR-decoding against flash.
    pub recovered: u64,
    /// Received combinations already held in full.
    pub redundant: u64,
    /// Received combinations missing two or more constituents
    /// (undecodable at this node).
    pub unusable: u64,
    /// Flash write faults absorbed.
    pub write_faults: u64,
}

/// One node running XOR single-hop recoding.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Xor, XorConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = XorConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Xor> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) {
///         Xor::base_station(cfg.clone(), &image)
///     } else {
///         Xor::node(cfg.clone())
///     }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(600)));
/// ```
#[derive(Debug)]
pub struct Xor {
    cfg: XorConfig,
    store: PacketStore,
    is_base: bool,
    completed: bool,
    heard_any: bool,
    state: State,
    transfer_timers: TimerMux,
    maintain_timers: TimerMux,
    trickle: Trickle,

    // Rx
    rx_page: u16,
    rx_missing: PacketBitmap,
    rx_deadline: SimTime,
    pending_req: Option<(NodeId, u16)>,
    pending_suppressed: bool,

    // Tx: per-requester reception reports for the page being served —
    // the mix planner's input.
    tx_page: u16,
    reqs: Vec<(NodeId, PacketBitmap)>,

    /// Counters for the harness.
    pub stats: XorStats,
}

impl Xor {
    /// Creates the base station holding the full image.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: XorConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.program, "image/program mismatch");
        assert_eq!(image.layout(), cfg.layout, "image/layout mismatch");
        let store = PacketStore::preloaded(image, cfg.layout.segment_count());
        let mut x = Xor::with_store(cfg, store);
        x.is_base = true;
        x.completed = true;
        x
    }

    /// Creates an ordinary node with empty flash.
    pub fn node(cfg: XorConfig) -> Self {
        let store = PacketStore::new(cfg.program, cfg.layout);
        Xor::with_store(cfg, store)
    }

    fn with_store(cfg: XorConfig, store: PacketStore) -> Self {
        let trickle = Trickle::new(cfg.trickle);
        Xor {
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
            rx_deadline: SimTime::ZERO,
            pending_req: None,
            pending_suppressed: false,
            tx_page: 0,
            reqs: Vec::new(),
            stats: XorStats::default(),
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

    fn begin_interval(&mut self, ctx: &mut Context<'_, XorMsg>) {
        self.maintain_timers.invalidate();
        let sched = self.trickle.begin_interval(ctx.rng);
        ctx.set_timer(sched.fire_in, self.token(T_FIRE));
        ctx.set_timer(sched.end_in, self.token(T_INTERVAL_END));
    }

    fn trickle_inconsistent(&mut self, ctx: &mut Context<'_, XorMsg>) {
        if self.trickle.note_inconsistent() {
            self.begin_interval(ctx);
        }
    }

    fn enter_maintain(&mut self, ctx: &mut Context<'_, XorMsg>) {
        self.transfer_timers.invalidate();
        self.state = State::Maintain;
        self.pending_req = None;
        self.pending_suppressed = false;
        self.reqs.clear();
        self.begin_interval(ctx);
    }

    /// Plans one broadcast: a set of packet ids such that every covered
    /// requester is missing exactly one of them (its own target) and
    /// holds the rest, so each decodes a different packet from the same
    /// transmission. Greedy over requesters in arrival order, capped at
    /// `max_degree`.
    fn plan_mix(&self) -> Vec<u16> {
        let limit = self.cfg.layout.packets_in_segment(self.tx_page);
        let mut ids: Vec<u16> = Vec::new();
        let mut covered: Vec<usize> = Vec::new();
        for (i, (_, bm)) in self.reqs.iter().enumerate() {
            if ids.len() >= self.cfg.max_degree {
                break;
            }
            // This requester must hold every packet already in the mix.
            if ids.iter().any(|&p| bm.get(p)) {
                continue;
            }
            // Its target: the first packet it is missing (necessarily not
            // in `ids`, which it holds none of).
            let mut cand = bm.first_set_at_or_after(0).filter(|&p| p < limit);
            // Every already-covered requester must hold the candidate, or
            // it would now be missing two of the mix.
            while let Some(c) = cand {
                if covered.iter().all(|&j| !self.reqs[j].1.get(c)) {
                    break;
                }
                cand = bm.first_set_at_or_after(c + 1).filter(|&p| p < limit);
            }
            let Some(c) = cand else { continue };
            ids.push(c);
            covered.push(i);
        }
        ids
    }

    /// After broadcasting `ids`, optimistically clears each covered
    /// requester's decoded target; losses are recovered by the normal
    /// rx-timeout re-request round.
    fn clear_served(&mut self, ids: &[u16]) {
        for (_, bm) in &mut self.reqs {
            let missing: Vec<u16> = ids.iter().copied().filter(|&p| bm.get(p)).collect();
            if missing.len() == 1 {
                bm.clear(missing[0]);
            }
        }
        self.reqs.retain(|(_, bm)| !bm.is_empty());
    }

    /// Decodes an overheard XOR broadcast against our own flash: usable
    /// exactly when we are missing one constituent.
    fn absorb_xored(
        &mut self,
        ctx: &mut Context<'_, XorMsg>,
        from: NodeId,
        page: u16,
        ids: &[u16],
        payload: &[u8],
    ) {
        if self.completed
            || page != self.pages()
            || ids.is_empty()
            || payload.len() != self.cfg.layout.payload_bytes()
        {
            return;
        }
        let missing: Vec<u16> = ids
            .iter()
            .copied()
            .filter(|&p| !self.store.has_packet(page, p))
            .collect();
        let target = match missing.len() {
            0 => {
                self.stats.redundant += 1;
                return;
            }
            1 => missing[0],
            _ => {
                self.stats.unusable += 1;
                return;
            }
        };
        let width = self.cfg.layout.payload_bytes();
        let mut data = payload.to_vec();
        for &p in ids.iter().filter(|&&p| p != target) {
            let held = self
                .store
                .read_packet(page, p)
                .expect("constituent held: only `target` is missing");
            let held = padded_packet(held, width);
            for (d, s) in data.iter_mut().zip(&held) {
                *d ^= s;
            }
        }
        let len = self.cfg.layout.packet_len(page, target);
        if !engine::store_packet_once(&mut self.store, page, target, &data[..len]) {
            // Not a duplicate (checked above), so a transient write
            // fault: the packet stays missing and the next request round
            // retries it.
            ctx.note_eeprom_write_failed(page, target);
            self.stats.write_faults += 1;
            return;
        }
        ctx.note_eeprom_write(page, target);
        ctx.note_parent(from);
        self.stats.recovered += 1;
        if self.state == State::Rx && page == self.rx_page {
            self.rx_missing.clear(target);
            self.rx_deadline = ctx.now + self.cfg.rx_timeout;
            ctx.set_timer(self.cfg.rx_timeout, self.token(T_RX_TIMEOUT));
        }
        if self.store.segment_complete(page) {
            ctx.note_segment_complete(page);
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

impl Protocol for Xor {
    type Msg = XorMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, XorMsg>) {
        if self.is_base {
            ctx.note_completion();
        }
        self.begin_interval(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, XorMsg>, from: NodeId, msg: &XorMsg) {
        match msg {
            XorMsg::Summary { source, pages } => {
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
                        self.pending_req = Some((*source, mine));
                        self.pending_suppressed = false;
                        let delay = ctx
                            .rng
                            .duration_between(SimDuration::ZERO, self.cfg.request_delay_max);
                        ctx.set_timer(delay, self.token(T_REQ_SEND));
                    }
                }
            }
            XorMsg::PageReq {
                dest,
                requester,
                page,
                missing,
            } => {
                self.trickle_inconsistent(ctx);
                // Overheard identical request: suppress our own pending
                // one.
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
                            self.reqs.clear();
                            self.reqs.push((*requester, *missing));
                            self.stats.tx_rounds += 1;
                            ctx.note_became_sender();
                            let delay = ctx
                                .rng
                                .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
                            ctx.set_timer(delay, self.token(T_TX_TICK));
                        }
                        State::Tx if self.tx_page == *page => {
                            // A second requester joins the round: its
                            // report is what makes mixing possible.
                            match self.reqs.iter_mut().find(|(n, _)| n == requester) {
                                Some((_, bm)) => bm.union_with(missing),
                                None => self.reqs.push((*requester, *missing)),
                            }
                        }
                        _ => {}
                    }
                }
            }
            XorMsg::Xored { page, ids, payload } => {
                self.trickle_inconsistent(ctx);
                self.absorb_xored(ctx, from, *page, ids, payload);
            }
        }
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        let kind = token & 0xff;
        self.mux_for(kind).decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, XorMsg>, kind: u64) {
        match kind {
            T_FIRE => {
                if self.state == State::Maintain {
                    if self.trickle.should_fire() {
                        ctx.send(XorMsg::Summary {
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
                if page != self.pages() {
                    // Overheard broadcasts closed the page meanwhile.
                    self.pending_suppressed = false;
                    return;
                }
                // Enter Rx either way; if suppressed we ride on the
                // answer to the request we overheard.
                self.transfer_timers.invalidate();
                self.state = State::Rx;
                self.rx_page = page;
                self.rx_missing = engine::missing_vector(&self.store, page);
                if self.pending_suppressed {
                    self.stats.requests_suppressed += 1;
                } else {
                    ctx.send(XorMsg::PageReq {
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
                self.enter_maintain(ctx);
            }
            T_TX_TICK => {
                if self.state != State::Tx {
                    return;
                }
                let ids = self.plan_mix();
                if ids.is_empty() {
                    self.enter_maintain(ctx);
                    return;
                }
                let width = self.cfg.layout.payload_bytes();
                let mut payload = vec![0u8; width];
                for &p in &ids {
                    let held = self
                        .store
                        .read_packet(self.tx_page, p)
                        .expect("Tx node holds the page");
                    let held = padded_packet(held, width);
                    for (d, s) in payload.iter_mut().zip(&held) {
                        *d ^= s;
                    }
                }
                self.stats.xored_sent += 1;
                if ids.len() > 1 {
                    self.stats.mixed_sent += 1;
                }
                ctx.send(XorMsg::Xored {
                    page: self.tx_page,
                    ids: ids.clone(),
                    payload,
                });
                self.clear_served(&ids);
                let delay = ctx
                    .rng
                    .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
                ctx.set_timer(delay, self.token(T_TX_TICK));
            }
            other => unreachable!("unknown timer kind {other}"),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, XorMsg>) {
        // A crash wipes RAM but not flash; pre-crash timers decode as
        // stale after the epoch bump.
        self.transfer_timers.invalidate();
        self.maintain_timers.invalidate();
        self.state = State::Maintain;
        self.trickle = Trickle::new(self.cfg.trickle);
        self.pending_req = None;
        self.pending_suppressed = false;
        self.rx_missing = PacketBitmap::empty();
        self.reqs.clear();
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

#[cfg(test)]
#[path = "xor_tests.rs"]
mod tests;
