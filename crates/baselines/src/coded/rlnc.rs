//! Random-linear network coding over image segments.
//!
//! One generation = one segment (the prefix discipline MNP and Deluge
//! already share): a receiver works on generation `g =
//! segments_received_prefix()` and a node serves a generation only once
//! it holds it complete on flash — decode-then-recode, the arrangement
//! "Cooperative Coded Data Dissemination" (PAPERS.md) uses for
//! rateless-coded OAP pages. Partial-rank remixing is the cheaper
//! [`Xor`](super::xor::Xor) variant's department.
//!
//! What coding replaces: Deluge's `PageReq` carries a 16-byte
//! MissingVector and the sender drains a ForwardVector packet by packet.
//! Here a request carries one number — `need = gen_size − rank` — and
//! the sender broadcasts *fresh random combinations*; any `need`
//! innovative packets complete the rank regardless of *which* packets
//! were lost, so the per-packet request/repair round-trips disappear.
//!
//! Maintenance (Trickle summaries, request suppression, rx timeout) is
//! deliberately identical to the Deluge implementation so the loss-sweep
//! campaign compares coding, not parameters.

use mnp_net::{Context, EepromOps, Protocol, StateLabel, WireMsg};
use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimTime};
use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};
use mnp_trace::MsgClass;

use mnp::engine::{self, TimerMux};

use crate::trickle::{Trickle, TrickleConfig};

use super::decoder::{combine, derive_coeffs_into, GenDecoder};

/// RLNC parameters.
#[derive(Clone, Debug)]
pub struct RlncConfig {
    /// The program being disseminated.
    pub program: ProgramId,
    /// Image layout (generations = segments).
    pub layout: ImageLayout,
    /// Checksum of the authoritative image, asserted on completion.
    pub expected_checksum: u64,
    /// Maintenance-plane Trickle parameters.
    pub trickle: TrickleConfig,
    /// Pacing between coded packets.
    pub data_packet_period: SimDuration,
    /// Jitter on the pacing.
    pub data_packet_jitter: SimDuration,
    /// Random delay before sending a generation request (request
    /// suppression window).
    pub request_delay_max: SimDuration,
    /// How long a receiver waits for an innovative packet before giving
    /// up back to maintenance.
    pub rx_timeout: SimDuration,
    /// Extra coded packets a sender budgets beyond the requested `need`,
    /// absorbing the occasional linearly dependent draw or single loss
    /// without another request round-trip.
    pub extra_coded: u32,
}

impl RlncConfig {
    /// Defaults matched to the Deluge configuration so the comparison
    /// campaign measures coding, not parameters.
    pub fn for_image(image: &ProgramImage) -> Self {
        RlncConfig {
            program: image.id(),
            layout: image.layout(),
            expected_checksum: image.checksum(),
            trickle: TrickleConfig::default(),
            data_packet_period: SimDuration::from_millis(60),
            data_packet_jitter: SimDuration::from_millis(20),
            request_delay_max: SimDuration::from_millis(500),
            rx_timeout: SimDuration::from_secs(4),
            extra_coded: 2,
        }
    }
}

/// RLNC's message set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RlncMsg {
    /// Maintenance summary: how many complete generations the sender
    /// holds.
    Summary {
        /// The advertising node.
        source: NodeId,
        /// Complete generations held (prefix count).
        gens: u16,
    },
    /// Rank-deficit request — the MissingVector replaced by one number.
    GenReq {
        /// The summary sender being asked.
        dest: NodeId,
        /// The requesting node.
        requester: NodeId,
        /// Generation wanted (the requester's prefix).
        gen: u16,
        /// Innovative packets still needed (`gen_size − rank`).
        need: u16,
    },
    /// One coded packet: a random linear combination of the generation's
    /// sources, its coefficient vector compressed to the RNG seed both
    /// ends expand with [`derive_coeffs`](super::decoder::derive_coeffs).
    Coded {
        /// Generation the combination is drawn from.
        gen: u16,
        /// Coefficient-vector seed.
        seed: u32,
        /// The combined payload (full padded width).
        payload: Vec<u8>,
    },
}

impl WireMsg for RlncMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            RlncMsg::Summary { .. } => 4,
            RlncMsg::GenReq { .. } => 8,
            RlncMsg::Coded { payload, .. } => 6 + payload.len(),
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            RlncMsg::Summary { .. } => MsgClass::Advertisement,
            RlncMsg::GenReq { .. } => MsgClass::Request,
            RlncMsg::Coded { .. } => MsgClass::Data,
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
const T_WRITE_RETRY: u64 = 6;

/// How soon a generation whose flash commit hit a transient write fault
/// retries the failed packets (the decoded rows are kept in RAM).
const WRITE_RETRY_DELAY: SimDuration = SimDuration::from_millis(50);

/// Per-node RLNC counters for the harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RlncStats {
    /// Summaries transmitted.
    pub summaries_sent: u64,
    /// Summaries suppressed by Trickle.
    pub summaries_suppressed: u64,
    /// Generation requests transmitted.
    pub requests_sent: u64,
    /// Requests suppressed after overhearing an identical one.
    pub requests_suppressed: u64,
    /// Generations served (Tx rounds).
    pub tx_rounds: u64,
    /// Coded packets transmitted.
    pub coded_sent: u64,
    /// Received combinations that raised the decoder rank.
    pub innovative: u64,
    /// Received combinations that were linearly dependent.
    pub redundant: u64,
    /// Generations decoded to completion.
    pub decodes: u64,
    /// Flash write faults absorbed during generation commits.
    pub write_faults: u64,
}

/// One node running random-linear network coding.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Rlnc, RlncConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = RlncConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Rlnc> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) {
///         Rlnc::base_station(cfg.clone(), &image)
///     } else {
///         Rlnc::node(cfg.clone())
///     }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(600)));
/// ```
#[derive(Debug)]
pub struct Rlnc {
    cfg: RlncConfig,
    store: PacketStore,
    is_base: bool,
    completed: bool,
    heard_any: bool,
    state: State,
    transfer_timers: TimerMux,
    maintain_timers: TimerMux,
    trickle: Trickle,

    // Decode plane: always tracks the prefix generation, fed from any
    // state — overhearing coded traffic is where the coding gain lives.
    decode_gen: u16,
    decoder: GenDecoder,
    /// Packets of a fully-ranked generation still awaiting a flash
    /// retry after a transient write fault.
    commit_pending: bool,

    // Rx
    rx_gen: u16,
    rx_deadline: SimTime,
    pending_req: Option<(NodeId, u16)>,
    pending_suppressed: bool,

    // Tx: the generation's padded packets are read from flash once per
    // round and encoded from RAM — one flat buffer, `payload_bytes()` per
    // packet, whose capacity outlives the round.
    tx_gen: u16,
    tx_budget: u32,
    tx_cache: Vec<u8>,

    /// Scratch for the coefficient vector a `Coded` header expands to, on
    /// both the receive and the transmit side.
    coeffs: Vec<u8>,

    /// Counters for the harness.
    pub stats: RlncStats,
}

impl Rlnc {
    /// Creates the base station holding the full image.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the config.
    pub fn base_station(cfg: RlncConfig, image: &ProgramImage) -> Self {
        assert_eq!(image.id(), cfg.program, "image/program mismatch");
        assert_eq!(image.layout(), cfg.layout, "image/layout mismatch");
        let store = PacketStore::preloaded(image, cfg.layout.segment_count());
        let mut r = Rlnc::with_store(cfg, store);
        r.is_base = true;
        r.completed = true;
        r
    }

    /// Creates an ordinary node with empty flash.
    pub fn node(cfg: RlncConfig) -> Self {
        let store = PacketStore::new(cfg.program, cfg.layout);
        Rlnc::with_store(cfg, store)
    }

    fn with_store(cfg: RlncConfig, store: PacketStore) -> Self {
        let trickle = Trickle::new(cfg.trickle);
        let decode_gen = store.segments_received_prefix();
        let decoder = Rlnc::decoder_for(&cfg.layout, decode_gen);
        Rlnc {
            cfg,
            store,
            is_base: false,
            completed: false,
            heard_any: false,
            state: State::Maintain,
            transfer_timers: TimerMux::new(),
            maintain_timers: TimerMux::new(),
            trickle,
            decode_gen,
            decoder,
            commit_pending: false,
            rx_gen: 0,
            rx_deadline: SimTime::ZERO,
            pending_req: None,
            pending_suppressed: false,
            tx_gen: 0,
            tx_budget: 0,
            tx_cache: Vec::new(),
            coeffs: Vec::new(),
            stats: RlncStats::default(),
        }
    }

    fn decoder_for(layout: &ImageLayout, gen: u16) -> GenDecoder {
        let size = if gen < layout.segment_count() {
            layout.packets_in_segment(gen)
        } else {
            // Complete image: keep a placeholder so the field is always
            // valid; it never absorbs.
            1
        };
        GenDecoder::new(size as usize, layout.payload_bytes())
    }

    /// Whether the node holds the complete, checksum-verified image.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// The node's flash store (for test assertions).
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// The decode frontier for the liveness oracle: the generation being
    /// decoded, its current rank, and its size.
    pub fn decode_rank(&self) -> (u16, usize, usize) {
        (
            self.decode_gen,
            self.decoder.rank(),
            self.decoder.gen_size(),
        )
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

    fn gens(&self) -> u16 {
        self.store.segments_received_prefix()
    }

    fn need(&self) -> u16 {
        (self.decoder.gen_size() - self.decoder.rank()) as u16
    }

    fn begin_interval(&mut self, ctx: &mut Context<'_, RlncMsg>) {
        self.maintain_timers.invalidate();
        let sched = self.trickle.begin_interval(ctx.rng);
        ctx.set_timer(sched.fire_in, self.token(T_FIRE));
        ctx.set_timer(sched.end_in, self.token(T_INTERVAL_END));
    }

    fn trickle_inconsistent(&mut self, ctx: &mut Context<'_, RlncMsg>) {
        if self.trickle.note_inconsistent() {
            self.begin_interval(ctx);
        }
    }

    fn enter_maintain(&mut self, ctx: &mut Context<'_, RlncMsg>) {
        self.transfer_timers.invalidate();
        self.state = State::Maintain;
        self.pending_req = None;
        self.pending_suppressed = false;
        self.tx_cache.clear();
        // A pending flash retry must survive the teardown of transfer
        // timers; re-arm it on the fresh epoch.
        if self.commit_pending {
            ctx.set_timer(WRITE_RETRY_DELAY, self.token(T_WRITE_RETRY));
        }
        self.begin_interval(ctx);
    }

    /// Rolls the decode plane forward to the current prefix generation.
    fn sync_decoder(&mut self) {
        let gen = self.gens();
        if gen != self.decode_gen {
            self.decode_gen = gen;
            self.decoder = Rlnc::decoder_for(&self.cfg.layout, gen);
            self.commit_pending = false;
        }
    }

    /// Absorbs a coded packet into the decode plane, from any state.
    fn absorb_coded(
        &mut self,
        ctx: &mut Context<'_, RlncMsg>,
        from: NodeId,
        gen: u16,
        seed: u32,
        payload: &[u8],
    ) {
        if self.completed {
            return;
        }
        self.sync_decoder();
        if gen != self.decode_gen || payload.len() != self.cfg.layout.payload_bytes() {
            return;
        }
        derive_coeffs_into(gen, seed, self.decoder.gen_size(), &mut self.coeffs);
        if self.decoder.absorb(&self.coeffs, payload) {
            self.stats.innovative += 1;
            ctx.note_parent(from);
            if self.state == State::Rx && self.rx_gen == gen {
                self.rx_deadline = ctx.now + self.cfg.rx_timeout;
                ctx.set_timer(self.cfg.rx_timeout, self.token(T_RX_TIMEOUT));
            }
            if self.decoder.is_full() {
                self.commit_generation(ctx);
            }
        } else {
            self.stats.redundant += 1;
        }
    }

    /// Writes a fully-ranked generation to flash. Transient write faults
    /// leave the decoded rows in RAM and re-arm a short retry timer.
    fn commit_generation(&mut self, ctx: &mut Context<'_, RlncMsg>) {
        let gen = self.decode_gen;
        let n = self.cfg.layout.packets_in_segment(gen);
        let mut faulted = false;
        for pkt in 0..n {
            if self.store.has_packet(gen, pkt) {
                continue;
            }
            let data = self.decoder.packet(pkt as usize).expect("full rank");
            let len = self.cfg.layout.packet_len(gen, pkt);
            if engine::store_packet_once(&mut self.store, gen, pkt, &data[..len]) {
                ctx.note_eeprom_write(gen, pkt);
            } else {
                // store_packet_once returns false only for a duplicate
                // (excluded above) or a transient write fault.
                ctx.note_eeprom_write_failed(gen, pkt);
                self.stats.write_faults += 1;
                faulted = true;
            }
        }
        if faulted {
            self.commit_pending = true;
            ctx.set_timer(WRITE_RETRY_DELAY, self.token(T_WRITE_RETRY));
            return;
        }
        self.commit_pending = false;
        debug_assert!(self.store.segment_complete(gen));
        self.stats.decodes += 1;
        ctx.note_segment_complete(gen);
        self.sync_decoder();
        if self.store.verify_complete(self.cfg.expected_checksum) {
            self.completed = true;
            ctx.note_completion();
        }
        // Generation boundary: back to maintenance; the new summary is
        // an inconsistency for neighbours still behind.
        self.trickle.note_inconsistent();
        self.enter_maintain(ctx);
    }

    /// Reads the generation's packets from flash into RAM, padded to the
    /// full payload width, billing one line read per packet.
    fn load_tx_cache(&mut self, gen: u16) {
        let n = self.cfg.layout.packets_in_segment(gen);
        let width = self.cfg.layout.payload_bytes();
        self.tx_cache.clear();
        self.tx_cache.resize(usize::from(n) * width, 0);
        for (pkt, padded) in (0..n).zip(self.tx_cache.chunks_exact_mut(width)) {
            let raw = self
                .store
                .read_packet(gen, pkt)
                .expect("Tx node holds the generation");
            padded[..raw.len()].copy_from_slice(raw);
        }
    }
}

impl Protocol for Rlnc {
    type Msg = RlncMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, RlncMsg>) {
        if self.is_base {
            ctx.note_completion();
        }
        self.begin_interval(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, RlncMsg>, from: NodeId, msg: &RlncMsg) {
        match msg {
            RlncMsg::Summary { source, gens } => {
                if !self.heard_any && *gens > 0 {
                    self.heard_any = true;
                    ctx.note_first_heard();
                }
                let mine = self.gens();
                if *gens == mine {
                    self.trickle.note_consistent();
                } else {
                    self.trickle_inconsistent(ctx);
                    if *gens > mine && self.state == State::Maintain && self.pending_req.is_none() {
                        self.pending_req = Some((*source, mine));
                        self.pending_suppressed = false;
                        let delay = ctx
                            .rng
                            .duration_between(SimDuration::ZERO, self.cfg.request_delay_max);
                        ctx.set_timer(delay, self.token(T_REQ_SEND));
                    }
                }
            }
            RlncMsg::GenReq {
                dest, gen, need, ..
            } => {
                self.trickle_inconsistent(ctx);
                // Overheard request for the generation we want: suppress
                // our own pending one and ride on the coded broadcast.
                if let Some((_, want)) = self.pending_req {
                    if *gen == want {
                        self.pending_suppressed = true;
                    }
                }
                if *dest == ctx.id && *gen < self.gens() {
                    let budget = u32::from(*need) + self.cfg.extra_coded;
                    match self.state {
                        State::Maintain => {
                            self.transfer_timers.invalidate();
                            self.state = State::Tx;
                            self.tx_gen = *gen;
                            self.tx_budget = budget;
                            self.load_tx_cache(*gen);
                            self.stats.tx_rounds += 1;
                            ctx.note_became_sender();
                            if self.commit_pending {
                                ctx.set_timer(WRITE_RETRY_DELAY, self.token(T_WRITE_RETRY));
                            }
                            let delay = ctx
                                .rng
                                .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
                            ctx.set_timer(delay, self.token(T_TX_TICK));
                        }
                        State::Tx if self.tx_gen == *gen => {
                            // A louder deficit re-raises the budget.
                            self.tx_budget = self.tx_budget.max(budget);
                        }
                        _ => {}
                    }
                }
            }
            RlncMsg::Coded { gen, seed, payload } => {
                self.trickle_inconsistent(ctx);
                self.absorb_coded(ctx, from, *gen, *seed, payload);
            }
        }
    }

    fn decode_timer(&self, token: u64) -> Option<u64> {
        let kind = token & 0xff;
        self.mux_for(kind).decode(token)
    }

    fn on_timer_kind(&mut self, ctx: &mut Context<'_, RlncMsg>, kind: u64) {
        match kind {
            T_FIRE => {
                if self.state == State::Maintain {
                    if self.trickle.should_fire() {
                        ctx.send(RlncMsg::Summary {
                            source: ctx.id,
                            gens: self.gens(),
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
                let Some((dest, gen)) = self.pending_req.take() else {
                    return;
                };
                if gen != self.gens() {
                    // The prefix moved on (overheard coded traffic closed
                    // the generation) while the request was pending; the
                    // next summary restarts the handshake.
                    self.pending_suppressed = false;
                    return;
                }
                // Enter Rx either way; if suppressed we ride on the
                // answer to the request we overheard.
                self.transfer_timers.invalidate();
                self.state = State::Rx;
                self.rx_gen = gen;
                self.sync_decoder();
                if self.commit_pending {
                    ctx.set_timer(WRITE_RETRY_DELAY, self.token(T_WRITE_RETRY));
                }
                if self.pending_suppressed {
                    self.stats.requests_suppressed += 1;
                } else {
                    ctx.send(RlncMsg::GenReq {
                        dest,
                        requester: ctx.id,
                        gen,
                        need: self.need(),
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
                // Rank held in the decoder survives the timeout: the next
                // handshake only asks for the remaining deficit.
                self.enter_maintain(ctx);
            }
            T_TX_TICK => {
                if self.state != State::Tx {
                    return;
                }
                if self.tx_budget == 0 {
                    self.enter_maintain(ctx);
                    return;
                }
                self.tx_budget -= 1;
                let seed = ctx.rng.next_u32();
                let width = self.cfg.layout.payload_bytes();
                let packets = self.tx_cache.chunks_exact(width);
                derive_coeffs_into(self.tx_gen, seed, packets.len(), &mut self.coeffs);
                let payload = combine(&self.coeffs, packets, width);
                ctx.send(RlncMsg::Coded {
                    gen: self.tx_gen,
                    seed,
                    payload,
                });
                self.stats.coded_sent += 1;
                let delay = ctx
                    .rng
                    .jittered(self.cfg.data_packet_period, self.cfg.data_packet_jitter);
                ctx.set_timer(delay, self.token(T_TX_TICK));
            }
            T_WRITE_RETRY => {
                if self.commit_pending && self.decoder.is_full() {
                    self.commit_generation(ctx);
                }
            }
            other => unreachable!("unknown timer kind {other}"),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, RlncMsg>) {
        // A crash wipes RAM but not flash: decoded-but-uncommitted rank
        // is lost, the persistent prefix survives. Pre-crash timers decode
        // as stale after the epoch bump.
        self.transfer_timers.invalidate();
        self.maintain_timers.invalidate();
        self.state = State::Maintain;
        self.trickle = Trickle::new(self.cfg.trickle);
        self.pending_req = None;
        self.pending_suppressed = false;
        self.tx_budget = 0;
        self.tx_cache.clear();
        self.decode_gen = self.gens();
        self.decoder = Rlnc::decoder_for(&self.cfg.layout, self.decode_gen);
        self.commit_pending = false;
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
#[path = "rlnc_tests.rs"]
mod tests;
