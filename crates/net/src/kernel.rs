//! The simulation kernel: one event queue, one medium, one MAC bank,
//! the protocols and the per-node state, driven event by event by the
//! [`Network`](crate::Network) facade.
//!
//! The kernel dispatches each popped event and buffers the observable
//! events it produces; the facade delivers that buffer to the run trace
//! and the observers after every event.

use mnp_obs::{EventKind, LossCause, ObsEvent};
use mnp_radio::{
    CsmaAction, CsmaBank, Frame, LinkChange, Medium, NodeId, TxId, TxOutcome, PERCEPTION_LATENCY,
};
use mnp_sim::profile::{self, Phase};
use mnp_sim::{EventQueue, SimTime};

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
    /// `.0` of the link timeline. The row's rank follows from the build;
    /// the event only enters the queue once it is due (see
    /// [`Kernel::peek_time`]).
    SetLink(u32),
    /// Fault-model storage fault: arm `failures` transient EEPROM write
    /// failures on `node`.
    InjectStorage {
        node: NodeId,
        failures: u32,
    },
}

/// The run's resolved link mutations: row `i` applies `rows[i]` — at
/// `at`, the edge `from -> to` takes bit-error rate `ber` — in
/// `(instant, from, to)` order.
///
/// The builder resolves every scheduled change and link flap into these
/// rows once, in the schedule's own buffer; the kernel feeds each row into
/// its queue under its `(from, seq)` identity once it comes due. A row's
/// `seq` is not stored: the build reserves each owner a block of sequence
/// numbers, one per row it owns, and the feed hands them out in row order
/// — the numbers a per-row draw in row order would give.
#[derive(Debug, Default)]
pub(crate) struct LinkTimeline {
    pub rows: Vec<LinkChange>,
    /// `(row, kind)` of every row that is not motion, by row: at most one
    /// per flap start or end, so empty in a run without link flaps.
    pub kinds: Vec<(u32, LinkEventKind)>,
    /// Per owner (indexed by `NodeId`), the sequence number of its next
    /// unfed row; empty in a static run. (The resolver leaves each owner's
    /// row count here, and the build swaps it for the owner's block.)
    pub seqs: Vec<u32>,
    /// Rows `fed..` have not entered the queue yet.
    pub fed: usize,
}

impl LinkTimeline {
    /// Row `row` and why it fires.
    pub fn row(&self, row: u32) -> (LinkChange, LinkEventKind) {
        let kind = match self.kinds.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(i) => self.kinds[i].1,
            Err(_) => LinkEventKind::Motion,
        };
        (self.rows[row as usize], kind)
    }

    /// Rows not fed yet.
    fn unfed(&self) -> usize {
        self.rows.len() - self.fed
    }
}

/// Why a timeline row fires; selects the observer event only — the
/// medium mutation is identical for all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkEventKind {
    /// A fault degraded the edge (a flap started, or an overlapping flap
    /// expired leaving another one applied).
    Fault,
    /// The last active flap on the edge expired: back to the base rate.
    Restore,
    /// Node motion re-derived the edge's base quality (a scheduled
    /// [`LinkChange`], no fault involved).
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

/// The whole simulation state below the facade: queue, medium, MACs,
/// protocols and per-node state, all indexed by `NodeId`.
#[derive(Debug)]
pub(crate) struct Kernel<P: Protocol> {
    pub now: SimTime,
    pub queue: EventQueue<Event>,
    /// The run's resolved link mutations in time order.
    pub timeline: LinkTimeline,
    pub medium: Medium<P::Msg>,
    pub protocols: Vec<P>,
    /// Every node's MAC, in struct-of-arrays columns.
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
    /// Every observable event emitted by the event being dispatched; the
    /// facade drains it after each event.
    pub obs_buf: Vec<ObsEvent>,
}

impl<P: Protocol> Kernel<P> {
    /// Schedules `ev` under `owner`'s next sequence number, giving it a
    /// queue rank that is a pure function of schedule order.
    pub fn push_owned(&mut self, at: SimTime, owner: NodeId, ev: Event) {
        let seq = self.nodes.next_seq(owner);
        self.queue.push_owned(at, owner.0, seq, ev);
    }

    /// Buffers an observable event for the facade to deliver. Unconditional:
    /// the run trace consumes these even with no observer attached.
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
    /// The run loop peeks through here before every pop: it moves every
    /// timeline row due at or before that instant into the queue, so an
    /// unfed row is always strictly later than anything that can pop and
    /// the pop order is the one a fully pre-loaded queue would produce.
    /// With no rows left (any static run) it costs one integer compare.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let mut next = self.queue.peek_time();
        let tl = &mut self.timeline;
        while let Some(&row) = tl.rows.get(tl.fed) {
            if next.is_some_and(|t| t < row.at) {
                break;
            }
            let seq = &mut tl.seqs[row.from.index()];
            let ev = Event::SetLink(tl.fed as u32);
            self.queue.push_owned(row.at, row.from.0, *seq, ev);
            *seq += 1;
            tl.fed += 1;
            next = Some(row.at);
        }
        next
    }

    /// Events pending: queued plus timeline rows not yet fed — what the
    /// queue alone held when every row was pre-loaded.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.timeline.unfed()
    }

    /// Dispatches one event.
    pub fn dispatch(&mut self, ev: Event) {
        let _span = profile::span(Phase::Dispatch);
        if let Some(node) = event_node(&ev) {
            if self.nodes.hot(node).dead {
                // Fail-stopped nodes are inert; their TxEnd event is the
                // one exception handled in `kill` (the tx was aborted).
                return;
            }
        }
        match ev {
            Event::Kill(node) => self.kill(node),
            Event::Restart(node) => self.restart(node),
            Event::SetLink(row) => {
                let (LinkChange { from, to, ber, .. }, kind) = self.timeline.row(row);
                self.medium.set_link_ber(from, to, ber);
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
                    self.protocols[node.index()].inject_storage_fault(failures);
                    self.emit_obs(node, EventKind::StorageFault { failures });
                }
            }
            Event::Start(node) => {
                self.callback(node, |p, ctx| p.on_start(ctx));
            }
            Event::MacAttempt(node, epoch) => self.mac_attempt(node, epoch),
            Event::TxEnd { node, tx } => self.tx_end(node, tx),
            Event::RxStart(tx) => self.medium.rx_start(tx, self.now),
            Event::RxEnd(tx) => self.rx_end(tx),
            Event::RxAbort(tx) => self.medium.rx_abort(tx, self.now),
            Event::Timer(node, token) => {
                self.emit_obs(node, EventKind::TimerFire { token });
                self.callback(node, |p, ctx| p.on_timer(ctx, token));
            }
            Event::Wake(node, epoch) => {
                let hot = self.nodes.hot(node);
                if epoch != hot.sleep_epoch || hot.awake {
                    return;
                }
                self.nodes.hot_mut(node).awake = true;
                self.medium.set_radio(node, true, self.now);
                self.emit_obs(node, EventKind::Wake);
                self.callback(node, |p, ctx| p.on_wake(ctx));
            }
        }
    }

    fn kill(&mut self, node: NodeId) {
        let i = node.index();
        if self.nodes.hot(node).dead {
            return;
        }
        if let Some(tx) = self.nodes.hot_mut(node).inflight.take() {
            self.medium.abort_transmission(tx, self.now);
            // Receivers keep hearing the truncated carrier for one more
            // perception latency, then give up on the frame.
            self.push_owned(self.now + PERCEPTION_LATENCY, node, Event::RxAbort(tx));
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
        self.macs.reset(node.index());
        self.medium.set_radio(node, true, self.now);
        self.emit_obs(node, EventKind::NodeRestarted);
        self.callback(node, |p, ctx| p.on_restart(ctx));
    }

    fn mac_attempt(&mut self, node: NodeId, epoch: u64) {
        let i = node.index();
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
                // cause.
                let (now, tx) = (self.now, start.id);
                self.push_owned(now + start.airtime, node, Event::TxEnd { node, tx });
                self.push_owned(now + PERCEPTION_LATENCY, node, Event::RxStart(tx));
                let rx_end = now + start.airtime + PERCEPTION_LATENCY;
                self.push_owned(rx_end, node, Event::RxEnd(tx));
                self.nodes.hot_mut(node).inflight = Some(tx);
            }
            CsmaAction::Idle => unreachable!("attempt never yields Idle"),
        }
    }

    /// Sender side of a finished frame: radio back to listening, MAC moves
    /// on, deferred sleep (if any) is honoured. Delivery happens later, in
    /// [`Kernel::rx_end`].
    fn tx_end(&mut self, node: NodeId, tx: TxId) {
        if self.nodes.hot(node).inflight != Some(tx) {
            // The transmission was aborted (the node died mid-frame and
            // possibly rebooted since): the MAC was already reset, and the
            // receivers are winding down via RxAbort/RxEnd.
            return;
        }
        self.nodes.hot_mut(node).inflight = None;
        self.medium.end_transmission(tx);
        let i = node.index();
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
    /// sender's [`Kernel::tx_end`]: the medium resolves every lock and
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
        // drop columns are never read.
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
        let i = node.index();
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
        let i = node.index();
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
        self.emit_obs(node, EventKind::SleepStart { until: wake_at });
        self.macs.flush(node.index());
        let hot = self.nodes.hot_mut(node);
        hot.mac_epoch += 1; // invalidate any scheduled MacAttempt
        hot.awake = false;
        self.medium.set_radio(node, false, self.now);
        self.push_owned(wake_at, node, Event::Wake(node, epoch));
    }
}
