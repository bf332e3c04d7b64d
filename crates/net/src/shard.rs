//! One shard of the simulation kernel: a contiguous `NodeId` range with
//! its own event queue, medium view, MACs, protocols and RNG streams.
//!
//! The unsharded kernel is the one-shard special case: the
//! [`Network`](crate::Network) facade owns `shards.len()` of these and
//! drives them either event-by-event (one shard) or in lockstep time
//! windows (several shards, one worker thread each).
//!
//! # Why sharding preserves determinism
//!
//! Every cross-shard influence travels through the radio medium, and the
//! perception model makes all receiver-side effects of a transmission lag
//! its sender by [`PERCEPTION_LATENCY`]. A window of width one perception
//! latency starting at the global minimum pending event time therefore
//! cannot contain any event whose cause lives in the same window on
//! another shard: shards replay the exact sequential schedule without
//! ever looking at each other mid-window. Frames crossing a shard
//! boundary are exchanged at window barriers as [`Boundary`] messages and
//! re-enter the neighbouring shard's queue as *ghost* transmissions with
//! the same `(owner, seq)` event identities the owning shard used, so
//! every event's queue rank — and with it the merged event order — is
//! identical to the single-queue run's.

use std::sync::Arc;

use mnp_obs::{EventKind, LossCause, ObsEvent};
use mnp_radio::{CsmaAction, CsmaBank, Frame, Medium, NodeId, TxId, TxOutcome, PERCEPTION_LATENCY};
use mnp_sim::profile::{self, Phase};
use mnp_sim::{EventQueue, SimDuration, SimTime};

use crate::context::{Context, Op};
use crate::nodes::NodeArena;
use crate::protocol::{Protocol, WireMsg};

#[derive(Clone, Debug)]
pub(crate) enum Event {
    Start(NodeId),
    MacAttempt(NodeId, u64),
    /// A frame's airtime elapsed at the *sender* (`t + airtime`): its
    /// radio returns to listening and the MAC moves on. Deliberately slim:
    /// the frame's class/kind are re-derived from its payload in the
    /// arena when the receivers resolve, so the queue's hottest events
    /// stay small.
    TxEnd {
        node: NodeId,
        tx: TxId,
    },
    /// A frame's preamble+sync header reaches the receivers
    /// (`t + PERCEPTION_LATENCY`): listeners lock on, carrier sense goes
    /// busy, overlaps corrupt.
    RxStart(TxId),
    /// A frame's tail passes the receivers
    /// (`t + airtime + PERCEPTION_LATENCY`): locks resolve and intact
    /// payloads are delivered to the protocols.
    RxEnd(TxId),
    /// A truncated frame's carrier vanishes at the receivers
    /// (`abort + PERCEPTION_LATENCY`): locked listeners give up.
    RxAbort(TxId),
    Timer(NodeId, u64),
    Wake(NodeId, u64),
    /// Permanent node failure (battery death, crash): fail-stop at this
    /// instant. The paper's loss handling explicitly covers "the sender
    /// dies as it is sending packets".
    Kill(NodeId),
    /// Reboot of a crashed node: fresh RAM state, persistent EEPROM.
    Restart(NodeId),
    /// Link mutation (fault flap, flap restore or node motion): apply row
    /// `.0` of the shard's link timeline. The row's rank was fixed at
    /// build time; the event only enters the queue once it is due (see
    /// [`Shard::peek_time`]).
    SetLink(u32),
    /// Fault-model storage fault: arm `failures` transient EEPROM write
    /// failures on `node`.
    InjectStorage {
        node: NodeId,
        failures: u32,
    },
}

/// One row of the resolved link timeline: at `at`, the edge `from -> to`
/// takes bit-error rate `ber`.
///
/// The builder resolves every scheduled change and link flap into these
/// rows once, sorted by instant, and all shards share the one slice.
/// Every shard holds a full copy of the link graph, so each shard feeds
/// every row into its own queue under the same `(from, seq)` identity
/// and applies the BER change to its own copy; only the shard owning
/// `from` emits the observer event or counts the dispatch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkRow {
    pub at: SimTime,
    /// `from`'s owner sequence number, drawn at build time: with `at` and
    /// `from` it is the row's queue rank, whenever the row is fed.
    pub seq: u32,
    pub from: NodeId,
    pub to: NodeId,
    pub ber: f64,
    /// Only selects which observer event is emitted.
    pub kind: LinkEventKind,
}

/// Why a [`LinkRow`] fires; selects the observer event only — the
/// medium mutation is identical for all three.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LinkEventKind {
    /// A fault degraded the edge (a flap started, or an overlapping flap
    /// expired leaving another one applied).
    Fault,
    /// The last active flap on the edge expired: back to the base rate.
    Restore,
    /// Node motion re-derived the edge's base quality (a scheduled
    /// [`LinkChange`](crate::LinkChange), no fault involved).
    Motion,
}

fn event_node(ev: &Event) -> Option<NodeId> {
    match ev {
        Event::Start(n)
        | Event::MacAttempt(n, _)
        | Event::TxEnd { node: n, .. }
        | Event::Timer(n, _)
        | Event::Wake(n, _) => Some(*n),
        // Fault events bypass the dead-node filter: Kill/Restart must run
        // on (or for) dead nodes, and link/storage faults guard themselves.
        // Reception-side events also bypass it — the frame is in the air
        // whatever happened to its sender since, and each receiver's
        // liveness is the medium's business.
        Event::Kill(_)
        | Event::Restart(_)
        | Event::SetLink(_)
        | Event::InjectStorage { .. }
        | Event::RxStart(_)
        | Event::RxEnd(_)
        | Event::RxAbort(_) => None,
    }
}

/// One dispatched event's merge record: its queue rank, how many
/// observable events it appended to the shard's buffer, and whether it
/// counts toward the global `events_processed` total (the replicated
/// copies of a cross-shard event count exactly once, on the shard owning
/// the causing node).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Chunk {
    pub time: SimTime,
    pub key: u64,
    pub owner_key: u64,
    pub obs_len: u32,
    pub counted: bool,
}

/// A cross-shard radio message exchanged at a window barrier.
#[derive(Clone, Debug)]
pub(crate) enum Boundary<M> {
    /// A frame began on the owning shard whose sender is audible from
    /// nodes of the destination shard: enough to replay the reception
    /// side remotely. Carries the exact `(owner, seq)` identities the
    /// owner allocated for the frame's `RxStart`/`RxEnd` events, so the
    /// ghost copies rank identically in the destination queue.
    Begin {
        src: NodeId,
        at: SimTime,
        airtime: SimDuration,
        bits: u32,
        rx_start_seq: u32,
        rx_end_seq: u32,
        payload: M,
    },
    /// The sender died mid-frame: the destination shard marks its ghost
    /// aborted and schedules the same `RxAbort` the owner scheduled.
    Abort {
        src: NodeId,
        at: SimTime,
        rx_start_seq: u32,
        rx_abort_seq: u32,
    },
}

/// An outgoing [`Boundary`] message plus the bitmask of destination
/// shards (every *other* shard holding at least one out-neighbour of the
/// sender).
#[derive(Clone, Debug)]
pub(crate) struct Outbound<M> {
    pub mask: u64,
    pub msg: Boundary<M>,
}

/// A contiguous node range of the simulation: queue, medium view, MACs,
/// protocols and per-node state, all indexed relative to `base`.
#[derive(Debug)]
pub(crate) struct Shard<P: Protocol> {
    pub base: usize,
    pub n_local: usize,
    pub now: SimTime,
    pub queue: EventQueue<Event>,
    /// The run's resolved link mutations in time order, shared by every
    /// shard; rows `fed..` have not entered `queue` yet.
    pub timeline: Arc<[LinkRow]>,
    pub fed: usize,
    pub medium: Medium<P::Msg>,
    pub protocols: Vec<P>,
    /// Every local node's MAC, in struct-of-arrays columns.
    pub macs: CsmaBank<P::Msg>,
    /// Per-node kernel state, hot fields (liveness, epochs, in-flight
    /// transmission) packed separately from cold ones (RNGs, deferred
    /// sleep).
    pub nodes: NodeArena,
    /// Reused delivery buffer: `rx_end` borrows it for the duration of one
    /// finished transmission and returns it cleared, so the steady-state
    /// delivery path performs no heap allocation.
    pub outcome_scratch: TxOutcome,
    /// Reused protocol-effect buffer, same idea for `callback`.
    pub ops_scratch: Vec<Op<P::Msg>>,
    /// Whether external observers are attached (state labels and
    /// trace-ignored event kinds are only worth emitting when watched).
    pub watched: bool,
    /// Every observable event emitted since the facade last drained this
    /// buffer — per event in the one-shard driver, per window otherwise.
    pub obs_buf: Vec<ObsEvent>,
    /// One entry per dispatched event of the current window.
    pub chunks: Vec<Chunk>,
    /// Boundary messages produced this window, for the coordinator to
    /// route at the barrier.
    pub outbox: Vec<Outbound<P::Msg>>,
    /// Per *local* node: bitmask of other shards holding at least one
    /// out-neighbour (all zero in a one-shard network — the boundary
    /// machinery costs one load per transmission).
    pub remote_mask: Vec<u64>,
    /// In-flight ghost transmissions as `(src, rx_start_seq, tx)`, so a
    /// later `Abort` boundary message finds the `TxId` this shard
    /// allocated; the ghost's `RxEnd` retires its entry. A few tens at
    /// most, so a scan beats a map — and has no hasher to vary by process.
    pub ghosts: Vec<(u32, u32, TxId)>,
}

impl<P: Protocol> Shard<P> {
    /// Local index of an owned node.
    #[inline]
    fn li(&self, node: NodeId) -> usize {
        debug_assert!(self.is_local(node), "{node} not owned by this shard");
        node.index() - self.base
    }

    /// Whether this shard owns `node`.
    #[inline]
    pub fn is_local(&self, node: NodeId) -> bool {
        node.index().wrapping_sub(self.base) < self.n_local
    }

    /// Schedules `ev` under `owner`'s next sequence number, giving it a
    /// queue rank that is a pure function of schedule order — not of
    /// which queue (or shard) it is pushed into.
    pub fn push_owned(&mut self, at: SimTime, owner: NodeId, ev: Event) {
        let seq = self.nodes.next_seq(owner);
        self.queue.push_owned(at, owner.0, seq, ev);
    }

    /// Buffers an observable event for the facade to deliver in merged
    /// order. Unconditional: the run trace consumes these even with no
    /// observer attached.
    fn emit(&mut self, node: NodeId, kind: EventKind) {
        self.obs_buf.push(ObsEvent {
            t: self.now,
            node,
            kind,
        });
    }

    /// Buffers an event only when external observers are attached. Used
    /// for the event kinds the trace ignores (timers, sleep, EEPROM…), so
    /// the no-observer hot path pays a single flag check.
    fn emit_obs(&mut self, node: NodeId, kind: EventKind) {
        if self.watched {
            self.emit(node, kind);
        }
    }

    /// The earliest pending instant, queued or still on the link timeline.
    /// Both drivers peek through here before every pop: it moves every
    /// timeline row due at or before that instant into the queue, so an
    /// unfed row is always strictly later than anything that can pop and
    /// the pop order is the one a fully pre-loaded queue would produce.
    /// With no rows left (any static run) it costs one integer compare.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let mut next = self.queue.peek_time();
        while let Some(row) = self.timeline.get(self.fed) {
            if next.is_some_and(|t| t < row.at) {
                break;
            }
            let ev = Event::SetLink(self.fed as u32);
            self.queue.push_owned(row.at, row.from.0, row.seq, ev);
            self.fed += 1;
            next = Some(row.at);
        }
        next
    }

    /// Events pending on this shard: queued plus timeline rows not yet
    /// fed — what the queue alone held when every row was pre-loaded.
    pub fn pending(&self) -> usize {
        self.queue.len() + (self.timeline.len() - self.fed)
    }

    /// Runs every pending event strictly before `end` (and not past
    /// `deadline`), recording one [`Chunk`] per dispatched event for the
    /// facade's merge.
    pub fn run_window(&mut self, end: SimTime, deadline: SimTime) {
        while let Some(t) = self.peek_time() {
            if t >= end || t > deadline {
                break;
            }
            let p = self.queue.pop_ranked().expect("peeked event exists");
            debug_assert!(p.time >= self.now, "time went backwards");
            self.now = p.time;
            let obs_before = self.obs_buf.len();
            let counted = self.dispatch(p.event);
            self.chunks.push(Chunk {
                time: p.time,
                key: p.key,
                owner_key: p.owner_key,
                obs_len: (self.obs_buf.len() - obs_before) as u32,
                counted,
            });
        }
    }

    /// Applies one boundary message routed to this shard at a window
    /// barrier. The coordinator routes every `Begin` before any `Abort`,
    /// so an abort always finds its ghost.
    pub fn apply_boundary(&mut self, msg: Boundary<P::Msg>) {
        match msg {
            Boundary::Begin {
                src,
                at,
                airtime,
                bits,
                rx_start_seq,
                rx_end_seq,
                payload,
            } => {
                let tx = self.medium.insert_remote(src, bits, at, payload);
                self.queue.push_owned(
                    at + PERCEPTION_LATENCY,
                    src.0,
                    rx_start_seq,
                    Event::RxStart(tx),
                );
                self.queue.push_owned(
                    at + airtime + PERCEPTION_LATENCY,
                    src.0,
                    rx_end_seq,
                    Event::RxEnd(tx),
                );
                self.ghosts.push((src.0, rx_start_seq, tx));
            }
            Boundary::Abort {
                src,
                at,
                rx_start_seq,
                rx_abort_seq,
            } => {
                let &(.., tx) = self
                    .ghosts
                    .iter()
                    .find(|g| (g.0, g.1) == (src.0, rx_start_seq))
                    .expect("every Begin is routed before its Abort");
                self.medium.mark_remote_abort(tx);
                self.queue.push_owned(
                    at + PERCEPTION_LATENCY,
                    src.0,
                    rx_abort_seq,
                    Event::RxAbort(tx),
                );
            }
        }
    }

    /// Dispatches one event. Returns whether it counts toward the global
    /// `events_processed` total: `false` only for the replicated copies
    /// of a cross-shard event running on a shard that does not own the
    /// causing node.
    pub fn dispatch(&mut self, ev: Event) -> bool {
        let _span = profile::span(Phase::Dispatch);
        if let Some(node) = event_node(&ev) {
            if self.nodes.hot(node).dead {
                // Fail-stopped nodes are inert; their TxEnd event is the
                // one exception handled in `kill` (the tx was aborted).
                return true;
            }
        }
        match ev {
            Event::Kill(node) => self.kill(node),
            Event::Restart(node) => self.restart(node),
            Event::SetLink(row) => {
                let LinkRow {
                    from,
                    to,
                    ber,
                    kind,
                    ..
                } = self.timeline[row as usize];
                self.medium.set_link_ber(from, to, ber);
                // Replicas on shards not owning `from` mutate their graph
                // copy silently; the owner emits and counts.
                if !self.is_local(from) {
                    return false;
                }
                let ber_ppb = (ber * 1e9).round() as u64;
                let kind = match kind {
                    LinkEventKind::Fault => EventKind::LinkFault { to, ber_ppb },
                    LinkEventKind::Restore => EventKind::LinkRestored { to, ber_ppb },
                    LinkEventKind::Motion => EventKind::LinkChanged { to, ber_ppb },
                };
                self.emit_obs(from, kind);
            }
            Event::InjectStorage { node, failures } => {
                // Dead hardware cannot fail a write it will never attempt.
                if !self.nodes.hot(node).dead {
                    let i = self.li(node);
                    self.protocols[i].inject_storage_fault(failures);
                    self.emit_obs(node, EventKind::StorageFault { failures });
                }
            }
            Event::Start(node) => {
                self.callback(node, |p, ctx| p.on_start(ctx));
            }
            Event::MacAttempt(node, epoch) => self.mac_attempt(node, epoch),
            Event::TxEnd { node, tx } => self.tx_end(node, tx),
            Event::RxStart(tx) => {
                let local = self.is_local(self.medium.tx_src(tx));
                self.medium.rx_start(tx, self.now);
                return local;
            }
            Event::RxEnd(tx) => {
                // Read the src before resolving: `rx_end` may release the
                // transmission's slot.
                let local = self.is_local(self.medium.tx_src(tx));
                self.rx_end(tx);
                if !local {
                    self.ghosts.retain(|g| g.2 != tx);
                }
                return local;
            }
            Event::RxAbort(tx) => {
                let local = self.is_local(self.medium.tx_src(tx));
                self.medium.rx_abort(tx, self.now);
                return local;
            }
            Event::Timer(node, token) => {
                self.emit_obs(node, EventKind::TimerFire { token });
                self.callback(node, |p, ctx| p.on_timer(ctx, token));
            }
            Event::Wake(node, epoch) => {
                let hot = self.nodes.hot(node);
                if epoch != hot.sleep_epoch || hot.awake {
                    return true;
                }
                self.nodes.hot_mut(node).awake = true;
                self.medium.set_radio(node, true, self.now);
                self.emit_obs(node, EventKind::Wake);
                self.callback(node, |p, ctx| p.on_wake(ctx));
            }
        }
        true
    }

    pub fn kill(&mut self, node: NodeId) {
        let i = self.li(node);
        if self.nodes.hot(node).dead {
            return;
        }
        if let Some(tx) = self.nodes.hot_mut(node).inflight.take() {
            self.medium.abort_transmission(tx, self.now);
            // Receivers keep hearing the truncated carrier for one more
            // perception latency, then give up on the frame.
            let rx_abort_seq = self.nodes.next_seq(node);
            self.queue.push_owned(
                self.now + PERCEPTION_LATENCY,
                node.0,
                rx_abort_seq,
                Event::RxAbort(tx),
            );
            let mask = self.remote_mask[i];
            if mask != 0 {
                let rx_start_seq = self.nodes.hot(node).inflight_seqs.0;
                self.outbox.push(Outbound {
                    mask,
                    msg: Boundary::Abort {
                        src: node,
                        at: self.now,
                        rx_start_seq,
                        rx_abort_seq,
                    },
                });
            }
        }
        if self.macs.is_transmitting(i) {
            // The MAC believed a frame was on the air; reset it so its
            // invariants hold if anything pokes it later (nothing will —
            // the node is dead — but keep the state machine consistent).
            let _ = self.macs.tx_done(i, self.nodes.mac_rng_mut(node));
        }
        self.macs.flush(i);
        let hot = self.nodes.hot_mut(node);
        hot.mac_epoch += 1;
        hot.awake = false;
        hot.dead = true;
        self.medium.set_radio(node, false, self.now);
        self.emit_obs(node, EventKind::NodeFailed);
    }

    /// Reboots a dead node: everything RAM-resident is rebuilt from
    /// scratch (fresh MAC, no queued frames, every pre-crash timer and
    /// wake event stale), the radio comes back up, and the protocol's
    /// [`Protocol::on_restart`] hook decides what persistent state
    /// survives. A no-op on a live node.
    fn restart(&mut self, node: NodeId) {
        let i = self.li(node);
        if !self.nodes.hot(node).dead {
            return;
        }
        let hot = self.nodes.hot_mut(node);
        hot.dead = false;
        // Stale any MacAttempt/Wake events queued before the crash.
        hot.mac_epoch += 1;
        hot.sleep_epoch += 1;
        hot.awake = true;
        self.nodes.take_pending_sleep(node);
        self.macs.reset(i);
        self.medium.set_radio(node, true, self.now);
        self.emit_obs(node, EventKind::NodeRestarted);
        self.callback(node, |p, ctx| p.on_restart(ctx));
    }

    fn mac_attempt(&mut self, node: NodeId, epoch: u64) {
        let i = self.li(node);
        let hot = self.nodes.hot(node);
        if !hot.awake || epoch != hot.mac_epoch {
            return; // stale attempt from before a sleep
        }
        let busy = self.medium.channel_busy(node);
        match self.macs.attempt(i, busy, self.nodes.mac_rng_mut(node)) {
            CsmaAction::Backoff(d) => {
                self.push_owned(self.now + d, node, Event::MacAttempt(node, epoch));
            }
            CsmaAction::Transmit(frame) => {
                let class = frame.payload.class();
                let kind = frame.payload.kind_label();
                let bytes = frame.payload.wire_bytes();
                let detail = frame.payload.detail();
                let bits = frame.bits();
                let mask = self.remote_mask[i];
                // Frames audible across the shard boundary replicate their
                // payload to each shard holding listeners.
                let ghost_payload = (mask != 0).then(|| frame.payload.clone());
                let start = self
                    .medium
                    .begin_transmission(node, frame, self.now)
                    .expect("awake, MAC-serialized node can transmit");
                self.emit(
                    node,
                    EventKind::MsgTx {
                        class,
                        kind,
                        bytes,
                        detail,
                    },
                );
                // The frame's whole lifecycle is scheduled up front, in a
                // fixed sequence order: sender done at t+air, receivers
                // perceive the header at t+L and resolve at t+air+L. The
                // seqs fix every lifecycle event's queue rank here, at the
                // cause, identically on every shard that replays it.
                let tx_end_seq = self.nodes.next_seq(node);
                self.queue.push_owned(
                    self.now + start.airtime,
                    node.0,
                    tx_end_seq,
                    Event::TxEnd { node, tx: start.id },
                );
                let rx_start_seq = self.nodes.next_seq(node);
                self.queue.push_owned(
                    self.now + PERCEPTION_LATENCY,
                    node.0,
                    rx_start_seq,
                    Event::RxStart(start.id),
                );
                let rx_end_seq = self.nodes.next_seq(node);
                self.queue.push_owned(
                    self.now + start.airtime + PERCEPTION_LATENCY,
                    node.0,
                    rx_end_seq,
                    Event::RxEnd(start.id),
                );
                let hot = self.nodes.hot_mut(node);
                hot.inflight = Some(start.id);
                hot.inflight_seqs = (rx_start_seq, rx_end_seq);
                if let Some(payload) = ghost_payload {
                    self.outbox.push(Outbound {
                        mask,
                        msg: Boundary::Begin {
                            src: node,
                            at: self.now,
                            airtime: start.airtime,
                            bits,
                            rx_start_seq,
                            rx_end_seq,
                            payload,
                        },
                    });
                }
            }
            CsmaAction::Idle => unreachable!("attempt never yields Idle"),
        }
    }

    /// Sender side of a finished frame: radio back to listening, MAC moves
    /// on, deferred sleep (if any) is honoured. Delivery happens later, in
    /// [`Shard::rx_end`].
    fn tx_end(&mut self, node: NodeId, tx: TxId) {
        if self.nodes.hot(node).inflight != Some(tx) {
            // The transmission was aborted (the node died mid-frame and
            // possibly rebooted since): the MAC was already reset, and the
            // receivers are winding down via RxAbort/RxEnd.
            return;
        }
        self.nodes.hot_mut(node).inflight = None;
        self.medium.end_transmission(tx);
        let i = self.li(node);
        match self.macs.tx_done(i, self.nodes.mac_rng_mut(node)) {
            CsmaAction::Backoff(d) => {
                let epoch = self.nodes.hot(node).mac_epoch;
                self.push_owned(self.now + d, node, Event::MacAttempt(node, epoch));
            }
            CsmaAction::Idle => {}
            CsmaAction::Transmit(_) => unreachable!("tx_done never yields Transmit"),
        }
        if let Some((wake_at, epoch)) = self.nodes.take_pending_sleep(node) {
            if epoch == self.nodes.hot(node).sleep_epoch {
                self.go_to_sleep(node, wake_at, epoch);
            }
        }
    }

    /// Receiver side of a finished frame, one perception latency after the
    /// sender's [`Shard::tx_end`]: the medium resolves every lock and
    /// intact payloads reach the protocols.
    fn rx_end(&mut self, tx: TxId) {
        let mut outcome = std::mem::take(&mut self.outcome_scratch);
        if !self.medium.rx_end_into(tx, self.now, &mut outcome) {
            // Aborted mid-air: the listeners already gave up at RxAbort.
            self.outcome_scratch = outcome;
            return;
        }
        let src = outcome.src;
        // Move the payload out of the arena (recycling its slot) and
        // re-derive the frame metadata the slim RxEnd event no longer
        // carries.
        let msg = self.medium.release_payload(
            outcome
                .payload
                .take()
                .expect("resolved frame has a payload"),
        );
        let class = msg.class();
        let kind = msg.kind_label();
        let bytes = msg.wire_bytes();
        let detail = msg.detail();
        // Per-listener effects run in ascending NodeId order. Each of the
        // outcome's three columns is ascending by construction (the
        // reception walk follows the sorted adjacency row), so one pass
        // over the deliveries suffices: when observers are attached, the
        // drops that sort before each delivered receiver (and, after the
        // last one, the rest) are merged in ahead of it. Unwatched, the
        // drop columns are never read. A shard only sees its own
        // contiguous slice of the listeners, so concatenating shard
        // streams in shard order — ascending node-range order — reproduces
        // the sequential per-listener order exactly.
        let (mut c, mut m) = (0, 0);
        // The trailing `None` flushes the drops after the last delivery.
        for next in outcome.delivered.iter().copied().map(Some).chain([None]) {
            while self.watched {
                let nc = outcome.corrupted.get(c).copied();
                let nm = outcome.missed.get(m).copied();
                let (recv, cause) = match (nc, nm) {
                    (Some(a), Some(b)) if b < a => (b, LossCause::BitError),
                    (Some(a), _) => (a, LossCause::Collision),
                    (None, Some(b)) => (b, LossCause::BitError),
                    (None, None) => break,
                };
                if next.is_some_and(|d| d < recv) {
                    break;
                }
                match cause {
                    LossCause::Collision => c += 1,
                    LossCause::BitError => m += 1,
                }
                self.emit(
                    recv,
                    EventKind::MsgDrop {
                        from: src,
                        class,
                        kind,
                        cause,
                    },
                );
            }
            let Some(recv) = next else {
                break;
            };
            self.emit(
                recv,
                EventKind::MsgRx {
                    from: src,
                    class,
                    kind,
                    bytes,
                    detail,
                },
            );
            self.callback(recv, |p, ctx| p.on_message(ctx, src, &msg));
        }
        // Hand the cleared buffer back for the next finished frame.
        outcome.clear();
        self.outcome_scratch = outcome;
    }

    fn callback<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut P, &mut Context<'_, P::Msg>),
    {
        let i = self.li(node);
        // Sampling state labels is only worth doing when someone listens.
        let before = if self.watched {
            self.protocols[i].state_label()
        } else {
            ""
        };
        let mut ctx = Context::new(self.now, node, self.nodes.rng_mut(node));
        // Collect effects into the pooled buffer instead of a fresh Vec.
        debug_assert!(self.ops_scratch.is_empty());
        ctx.ops = std::mem::take(&mut self.ops_scratch);
        {
            let _span = profile::span(Phase::Protocol);
            f(&mut self.protocols[i], &mut ctx);
        }
        let mut ops = std::mem::take(&mut ctx.ops);
        if self.watched {
            let after = self.protocols[i].state_label();
            if after != before {
                self.emit(
                    node,
                    EventKind::State {
                        from: before,
                        to: after,
                    },
                );
            }
        }
        self.apply_ops(node, &mut ops);
        self.ops_scratch = ops;
    }

    fn apply_ops(&mut self, node: NodeId, ops: &mut Vec<Op<P::Msg>>) {
        let i = self.li(node);
        for op in ops.drain(..) {
            match op {
                Op::Send(msg) => {
                    assert!(
                        self.nodes.hot(node).awake,
                        "{node} sent a message while asleep"
                    );
                    let frame = Frame::new(node, msg.wire_bytes(), msg);
                    match self.macs.enqueue(i, frame, self.nodes.mac_rng_mut(node)) {
                        CsmaAction::Backoff(d) => {
                            let epoch = self.nodes.hot(node).mac_epoch;
                            self.push_owned(self.now + d, node, Event::MacAttempt(node, epoch));
                        }
                        CsmaAction::Idle => {}
                        CsmaAction::Transmit(_) => unreachable!("enqueue never yields Transmit"),
                    }
                }
                Op::Timer(delay, token) => {
                    self.emit_obs(
                        node,
                        EventKind::TimerSet {
                            token,
                            fire_at: self.now + delay,
                        },
                    );
                    self.push_owned(self.now + delay, node, Event::Timer(node, token));
                }
                Op::Sleep(duration) => {
                    assert!(
                        self.nodes.hot(node).awake,
                        "{node} requested sleep while asleep"
                    );
                    let wake_at = self.now + duration;
                    let hot = self.nodes.hot_mut(node);
                    hot.sleep_epoch += 1;
                    let epoch = hot.sleep_epoch;
                    if self.macs.is_transmitting(i) {
                        // Finish the frame on the air first; radio down at
                        // TxEnd. The wake instant is unchanged.
                        self.nodes.set_pending_sleep(node, wake_at, epoch);
                    } else {
                        self.go_to_sleep(node, wake_at, epoch);
                    }
                }
                Op::Complete => self.emit(node, EventKind::Completed),
                Op::Parent(parent) => self.emit(node, EventKind::Parent { parent }),
                Op::BecameSender => self.emit(node, EventKind::BecameSender),
                Op::FirstHeard => self.emit(node, EventKind::FirstHeard),
                Op::Eeprom(seg, pkt) => self.emit_obs(node, EventKind::EepromWrite { seg, pkt }),
                Op::WriteFault(seg, pkt) => {
                    self.emit_obs(node, EventKind::EepromWriteFailed { seg, pkt });
                }
                Op::SegmentDone(seg) => self.emit_obs(node, EventKind::SegmentDone { seg }),
            }
        }
    }

    fn go_to_sleep(&mut self, node: NodeId, wake_at: SimTime, epoch: u64) {
        let i = self.li(node);
        self.emit_obs(node, EventKind::SleepStart { until: wake_at });
        self.macs.flush(i);
        let hot = self.nodes.hot_mut(node);
        hot.mac_epoch += 1; // invalidate any scheduled MacAttempt
        hot.awake = false;
        self.medium.set_radio(node, false, self.now);
        self.push_owned(wake_at, node, Event::Wake(node, epoch));
    }
}
