//! The shared wireless medium: transmissions, collisions, radio states.

use std::fmt;

use mnp_sim::profile::{self, Phase};
use mnp_sim::{SimDuration, SimRng, SimTime};

use crate::arena::{PayloadArena, PayloadHandle};
use crate::ids::NodeId;
use crate::link::LinkTable;
use crate::loss::frame_success_probability;
use crate::packet::{Frame, PERCEPTION_LATENCY};

/// Identifier of one in-flight transmission.
///
/// Generational: the medium recycles transmission slots through a free
/// list, and resolving a transmission bumps its slot's generation, so a
/// stale `TxId` can never silently address a later frame's slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxId {
    index: u32,
    generation: u32,
}

/// Power state of one node's radio.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Radio powered down (MNP's sleep state): hears nothing, spends no
    /// energy, accumulates no active radio time.
    Off,
    /// Radio on, idle listening.
    #[default]
    Listening,
    /// Radio on and locked onto an incoming frame.
    Receiving,
    /// Radio on and transmitting.
    Transmitting,
}

impl RadioState {
    /// Whether the radio is powered at all.
    pub(crate) fn is_on(self) -> bool {
        self != RadioState::Off
    }
}

impl fmt::Display for RadioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioState::Off => "off",
            RadioState::Listening => "listening",
            RadioState::Receiving => "receiving",
            RadioState::Transmitting => "transmitting",
        };
        f.write_str(s)
    }
}

/// Why a transmission could not start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxError {
    /// The node's radio is off.
    RadioOff(NodeId),
    /// The node is already mid-transmission.
    AlreadyTransmitting(NodeId),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::RadioOff(n) => write!(f, "radio of {n} is off"),
            TxError::AlreadyTransmitting(n) => write!(f, "{n} is already transmitting"),
        }
    }
}

impl std::error::Error for TxError {}

/// Receipt for a started transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxStart {
    /// Handle the caller threads through the reception-side calls.
    pub id: TxId,
    /// Channel occupancy; the caller schedules [`Medium::end_transmission`]
    /// at `now + airtime` and the reception events a further
    /// [`PERCEPTION_LATENCY`] later.
    pub airtime: SimDuration,
}

/// What happened to a resolved transmission at each audible receiver.
///
/// One frame on the air is one payload, however many receivers decode it:
/// the payload stays in the medium's [`PayloadArena`] and the outcome
/// carries its [`PayloadHandle`]. Read it with [`Medium::payload`], or
/// consume it with [`Medium::release_payload`] so the slot recycles for a
/// later frame. Callers that drive the medium in a loop should reuse one
/// `TxOutcome` via [`Medium::rx_end_into`] and [`TxOutcome::clear`] so the
/// steady-state hot path performs no heap allocation.
#[derive(Clone, Debug)]
pub struct TxOutcome {
    /// The transmitter.
    pub src: NodeId,
    /// Arena handle of the frame's payload. `Some` after a resolving
    /// [`Medium::rx_end_into`]; the caller releases it. `None` when the
    /// transmission was aborted (the medium already dropped the payload).
    pub payload: Option<PayloadHandle>,
    /// Receivers that got the frame intact.
    pub delivered: Vec<NodeId>,
    /// Receivers whose reception was corrupted by an overlapping
    /// transmission (collision / hidden terminal).
    pub corrupted: Vec<NodeId>,
    /// Receivers that lost the frame to link bit errors.
    pub missed: Vec<NodeId>,
}

impl TxOutcome {
    /// An empty outcome (placeholder source), ready to be filled by
    /// [`Medium::rx_end_into`].
    pub fn new() -> Self {
        TxOutcome {
            src: NodeId(0),
            payload: None,
            delivered: Vec::new(),
            corrupted: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Empties the receiver lists (keeping their capacities) and forgets
    /// the payload handle.
    ///
    /// Clearing does **not** release the arena slot — take the handle and
    /// pass it to [`Medium::release_payload`] first, or the payload stays
    /// live in the arena.
    pub fn clear(&mut self) {
        self.payload = None;
        self.delivered.clear();
        self.corrupted.clear();
        self.missed.clear();
    }
}

impl Default for TxOutcome {
    fn default() -> Self {
        TxOutcome::new()
    }
}

/// Per-node medium statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Frames this node put on the air.
    pub frames_sent: u64,
    /// Frames delivered intact to this node.
    pub frames_received: u64,
    /// Reception locks this node acquired (it was listening when a frame's
    /// preamble+sync header finished arriving and locked onto it).
    ///
    /// A node holds at most one lock at a time, and every lock resolves as
    /// exactly one of delivered ([`frames_received`](Self::frames_received)),
    /// corrupted ([`rx_corrupted`](Self::rx_corrupted)), bit-error loss
    /// ([`bit_error_losses`](Self::bit_error_losses)), or aborted
    /// ([`rx_aborted`](Self::rx_aborted)) — so at any instant
    /// `rx_locks - (the four resolutions)` is 0 or 1 per node. The fuzz
    /// harness checks this conservation law after every run.
    pub rx_locks: u64,
    /// Collision events observed at this node: one per overlapping
    /// transmission that corrupts (or would corrupt) a held lock, plus one
    /// when the corrupted lock finally resolves. A lock overlapped by
    /// several rivals counts several times; use
    /// [`rx_corrupted`](Self::rx_corrupted) to count corrupted *receptions*.
    pub collisions: u64,
    /// Reception locks that resolved corrupted — exactly one per lock,
    /// however many rival transmissions overlapped it.
    pub rx_corrupted: u64,
    /// Receptions lost to link bit errors at this node.
    pub bit_error_losses: u64,
    /// Receptions this node abandoned before the frame ended: it
    /// force-transmitted over its own lock, powered its radio down, or the
    /// transmitter died mid-frame (truncated frame, CRC failure).
    ///
    /// Together with the outcome counters this balances the books: every
    /// reception lock is resolved as exactly one of delivered, corrupted,
    /// bit-error loss, or aborted.
    pub rx_aborted: u64,
}

impl MediumStats {
    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// This is the single source of truth consumers iterate to serialise
    /// the stats; a new field added here flows into every snapshot (the
    /// obs metrics dump asserts it stays exhaustive).
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("frames_sent", self.frames_sent),
            ("frames_received", self.frames_received),
            ("rx_locks", self.rx_locks),
            ("collisions", self.collisions),
            ("rx_corrupted", self.rx_corrupted),
            ("bit_error_losses", self.bit_error_losses),
            ("rx_aborted", self.rx_aborted),
        ]
    }
}

#[derive(Clone, Copy, Debug)]
struct RxLock {
    tx: TxId,
    corrupted: bool,
}

/// Per-node radio state in struct-of-arrays layout, indexed by
/// [`NodeId::index`].
///
/// The hot arrays (`states`, `current_rx`, `perceived_busy`) are what the
/// reception walks and carrier sense touch per event; the power-accounting
/// arrays (`on_since`, `active_time`, `last_wake`) are only read when a
/// radio toggles or active radio time is read, so they live in separate
/// allocations and stay out of the hot cache lines.
#[derive(Debug, Default)]
struct RadioBank {
    /// 1-byte power state per node.
    states: Vec<RadioState>,
    /// The lock of each node in the `Receiving` state.
    current_rx: Vec<Option<RxLock>>,
    /// Number of in-flight frames currently *perceived* at this node: one
    /// per audible transmission whose preamble has arrived
    /// ([`Medium::rx_start`]) and whose tail has not yet passed
    /// ([`Medium::rx_end_into`] / [`Medium::rx_abort`]). Carrier sense for
    /// a listening radio is `perceived_busy > 0` — O(1), no neighbour
    /// scan.
    perceived_busy: Vec<u32>,
    /// When the radio last powered on. Guards the perceived-energy
    /// decrement: a tail-walk only decrements if the node has been awake
    /// since the frame's perception started (otherwise the power-off
    /// already zeroed the counter).
    last_wake: Vec<SimTime>,
    /// When the radio last powered on; `None` while off.
    on_since: Vec<Option<SimTime>>,
    /// Accumulated powered-on time over completed on-intervals.
    active_time: Vec<SimDuration>,
}

impl RadioBank {
    fn new(n: usize) -> Self {
        RadioBank {
            states: vec![RadioState::default(); n],
            current_rx: vec![None; n],
            perceived_busy: vec![0; n],
            last_wake: vec![SimTime::ZERO; n],
            on_since: vec![Some(SimTime::ZERO); n],
            active_time: vec![SimDuration::ZERO; n],
        }
    }
}

/// Per-transmission state in struct-of-arrays layout over recycled slots.
///
/// A [`TxId`] is `{slot index, generation}`; releasing a slot bumps its
/// generation, so "unknown or finished" ids are detected exactly, without
/// a hash map on the hot path. Each slot keeps its listener `Vec` across
/// recycles, so steady-state transmissions allocate nothing.
#[derive(Debug, Default)]
struct TxBank {
    generations: Vec<u32>,
    src: Vec<NodeId>,
    bits: Vec<u32>,
    /// When the frame's preamble+sync finished arriving at the receivers
    /// (start + [`PERCEPTION_LATENCY`]): the instant perception counters
    /// were incremented, and the reference the decrement guard compares
    /// `last_wake` against.
    heard_at: Vec<SimTime>,
    payload: Vec<PayloadHandle>,
    /// The CSR edge index ([`LinkTable::row_start`]) of every `src → node`
    /// edge whose node locked onto the slot's frame when its preamble
    /// arrived, so resolution reads the receiver and its rate without a
    /// search; cleared (with capacity retained) when the slot is released.
    listeners: Vec<Vec<u32>>,
    /// Reception-side events still pending on the slot: 1 for the rx-end,
    /// +1 if an abort is in flight. The slot releases when it hits zero.
    pending: Vec<u8>,
    /// The transmitter died mid-frame; the rx-end resolves nothing.
    aborted: Vec<bool>,
    free: Vec<u32>,
}

impl TxBank {
    /// Opens a slot for a new transmission and returns its id.
    fn alloc(&mut self, src: NodeId, bits: u32, heard_at: SimTime, payload: PayloadHandle) -> TxId {
        match self.free.pop() {
            Some(index) => {
                let i = index as usize;
                debug_assert!(self.listeners[i].is_empty());
                self.src[i] = src;
                self.bits[i] = bits;
                self.heard_at[i] = heard_at;
                self.payload[i] = payload;
                self.pending[i] = 1;
                self.aborted[i] = false;
                TxId {
                    index,
                    generation: self.generations[i],
                }
            }
            None => {
                let index =
                    u32::try_from(self.src.len()).expect("more than u32::MAX concurrent frames");
                self.generations.push(0);
                self.src.push(src);
                self.bits.push(bits);
                self.heard_at.push(heard_at);
                self.payload.push(payload);
                self.listeners.push(Vec::new());
                self.pending.push(1);
                self.aborted.push(false);
                TxId {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Resolves `id` to its slot index.
    ///
    /// # Panics
    ///
    /// Panics if the transmission already finished or never existed.
    fn index_of(&self, id: TxId) -> usize {
        let i = id.index as usize;
        assert!(
            self.generations.get(i) == Some(&id.generation),
            "unknown or finished TxId"
        );
        i
    }

    /// The transmitter behind a (possibly stale) id — the capture-effect
    /// path compares a held lock's signal against a rival's.
    fn src_of(&self, id: TxId) -> Option<NodeId> {
        let i = id.index as usize;
        (self.generations.get(i) == Some(&id.generation)).then(|| self.src[i])
    }

    /// Returns `slot` to the free list, invalidating its id.
    fn release(&mut self, slot: usize) {
        self.listeners[slot].clear();
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.free.push(slot as u32);
    }
}

/// The shared wireless medium over a link graph whose edge set is fixed.
///
/// `Medium` owns the radio state of every node and adjudicates every
/// transmission: who locks on, who collides, who loses the frame to bit
/// errors. It is driven from outside by a discrete-event loop through four
/// calls per frame, in timestamp order:
///
/// | time           | call                            | side     |
/// |----------------|---------------------------------|----------|
/// | `t`            | [`Medium::begin_transmission`]  | sender   |
/// | `t + L`        | [`Medium::rx_start`]            | receiver |
/// | `t + air`      | [`Medium::end_transmission`]    | sender   |
/// | `t + air + L`  | [`Medium::rx_end_into`]         | receiver |
///
/// where `L` is [`PERCEPTION_LATENCY`], the preamble+sync airtime. Nothing
/// a transmission does is perceivable at any other node before `t + L`:
/// carrier sense, reception locks, and collisions all lag the transmitter
/// by the header a real radio must hear before it can react.
///
/// Internally the per-node and per-transmission state lives in dense
/// struct-of-arrays banks (`RadioBank`, `TxBank`) and payloads live in
/// a generational [`PayloadArena`] — no shared-ownership pointers, so a
/// `Medium` over a `Send` payload type is itself `Send`.
///
/// # Collision model
///
/// A listening node locks onto the *first* frame whose header it hears.
/// Any other perceived transmission overlapping the lock corrupts it (no
/// capture effect), and the overlapping frame is itself lost at that
/// receiver. Because audibility is the directed link graph, two
/// transmitters out of range of each other can corrupt a common receiver —
/// the hidden-terminal problem MNP's sender selection addresses.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Medium<P> {
    /// The link graph, and the only copy of it the medium holds. No edge
    /// is added once it is here, so a CSR edge index names one edge for
    /// the whole run; [`Medium::set_link_ber`] rewrites rates in place.
    links: LinkTable,
    radios: RadioBank,
    txs: TxBank,
    payloads: PayloadArena<P>,
    stats: Vec<MediumStats>,
    /// Per-receiver bit-error streams. Draw order is a pure function of
    /// the receiver's own reception sequence.
    rx_rngs: Vec<SimRng>,
    capture: bool,
}

impl<P> Medium<P> {
    /// Creates a medium over `links` with every radio initially
    /// listening. Per-receiver bit-error streams are derived from `rng` by
    /// node index.
    pub fn new(links: LinkTable, rng: SimRng) -> Self {
        let n = links.len();
        Medium {
            links,
            radios: RadioBank::new(n),
            txs: TxBank::default(),
            payloads: PayloadArena::new(),
            stats: vec![MediumStats::default(); n],
            rx_rngs: (0..n).map(|i| rng.derive(i as u64)).collect(),
            capture: false,
        }
    }

    /// Enables or disables the capture effect.
    ///
    /// With capture on, a receiver locked onto a *much cleaner* signal
    /// (per-link bit error rate at least an order of magnitude lower)
    /// survives an overlapping transmission; the weaker frame is lost at
    /// that receiver either way. Real CC1000 radios capture; TOSSIM's
    /// bit-level model partially does. Off by default — the conservative
    /// model every headline experiment uses; the sensitivity experiment
    /// (EXPERIMENTS.md X4) quantifies the difference.
    pub fn set_capture(&mut self, capture: bool) {
        self.capture = capture;
    }

    /// Whether the capture effect is enabled.
    pub fn capture(&self) -> bool {
        self.capture
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The link graph.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// The payload arena holding every in-flight (and not yet released)
    /// frame payload.
    #[cfg(test)]
    pub(crate) fn payload_arena(&self) -> &PayloadArena<P> {
        &self.payloads
    }

    /// Reads the payload behind an outcome's handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (already released).
    pub fn payload(&self, handle: PayloadHandle) -> &P {
        self.payloads
            .get(handle)
            .expect("stale payload handle: slot already released")
    }

    /// Consumes the payload behind an outcome's handle, recycling its
    /// arena slot for a later transmission.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (double release).
    pub fn release_payload(&mut self, handle: PayloadHandle) -> P {
        self.payloads.take(handle)
    }

    /// Replaces the bit-error rate of the directed link `from -> to`
    /// (fault injection: link degradation and restoration).
    ///
    /// The edge itself stays in the graph — a BER of `1.0` makes every
    /// frame on the link fail while keeping receivers "audible" for
    /// carrier sensing and collision accounting, which mirrors a real
    /// interference burst. Frames already in flight are judged against the
    /// BER in effect when they finish, matching how the medium samples
    /// link loss at delivery time.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop, if `ber` is outside `[0, 1]`, or if the edge
    /// does not already exist (the input checks of [`LinkTable::connect`];
    /// a medium never adds an edge).
    pub fn set_link_ber(&mut self, from: NodeId, to: NodeId, ber: f64) {
        assert_ne!(from, to, "self loop on {from}");
        assert!((0.0..=1.0).contains(&ber), "ber {ber} out of [0,1]");
        assert!(
            self.links.set_ber(from, to, ber),
            "link fault on a non-existent edge {from:?} -> {to:?}"
        );
    }

    /// The radio state of `node`.
    #[cfg(test)]
    pub(crate) fn radio_state(&self, node: NodeId) -> RadioState {
        self.radios.states[node.index()]
    }

    /// Turns a node's radio on (wake) or off (sleep) at time `now`.
    ///
    /// Turning the radio off aborts any in-progress reception and forgets
    /// all perceived channel energy. Turning it on mid-way through someone
    /// else's frame does **not** deliver that frame: a radio that missed
    /// the preamble cannot decode the packet (it was not walked at the
    /// frame's [`Medium::rx_start`], so it never locked).
    ///
    /// # Panics
    ///
    /// Panics if asked to power off a transmitting radio; the network layer
    /// defers protocol sleep requests until the MAC finishes its frame.
    pub fn set_radio(&mut self, node: NodeId, on: bool, now: SimTime) {
        let i = node.index();
        match (self.radios.states[i].is_on(), on) {
            (false, true) => {
                self.radios.states[i] = RadioState::Listening;
                self.radios.on_since[i] = Some(now);
                self.radios.last_wake[i] = now;
                debug_assert_eq!(self.radios.perceived_busy[i], 0);
            }
            (true, false) => {
                assert!(
                    self.radios.states[i] != RadioState::Transmitting,
                    "{node} cannot sleep mid-transmission"
                );
                let since = self.radios.on_since[i].take().expect("radio on");
                self.radios.active_time[i] += now.saturating_since(since);
                self.radios.states[i] = RadioState::Off;
                self.radios.perceived_busy[i] = 0;
                if self.radios.current_rx[i].take().is_some() {
                    self.stats[i].rx_aborted += 1;
                }
            }
            _ => {}
        }
    }

    /// Time `node`'s radio has spent powered on up to `now`.
    ///
    /// This is the paper's *active radio time* metric (§4.2): "it decides
    /// the amount of energy that a node actually consumes".
    pub fn active_radio_time(&self, node: NodeId, now: SimTime) -> SimDuration {
        let i = node.index();
        let running = self.radios.on_since[i]
            .map(|s| now.saturating_since(s))
            .unwrap_or(SimDuration::ZERO);
        self.radios.active_time[i] + running
    }

    /// Whether `node` senses the channel busy: it is receiving,
    /// transmitting, or currently perceives any in-flight frame.
    ///
    /// Perception lags the transmitter by [`PERCEPTION_LATENCY`] on both
    /// edges: a neighbour's frame registers busy from `t + L` until
    /// `t + airtime + L`. The check is O(1) — a per-node counter
    /// maintained by the reception walks, not a neighbour scan.
    pub fn channel_busy(&self, node: NodeId) -> bool {
        let i = node.index();
        match self.radios.states[i] {
            RadioState::Off => false,
            RadioState::Receiving | RadioState::Transmitting => true,
            RadioState::Listening => self.radios.perceived_busy[i] > 0,
        }
    }

    /// Puts `frame` on the air from `src` at time `now` (sender side
    /// only).
    ///
    /// No other node notices until the frame's header has had time to
    /// arrive: the caller schedules [`Medium::rx_start`] at
    /// `now + PERCEPTION_LATENCY`, [`Medium::end_transmission`] at
    /// `now + airtime`, and [`Medium::rx_end_into`] at
    /// `now + airtime + PERCEPTION_LATENCY`.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] if the radio is off or already transmitting.
    pub fn begin_transmission(
        &mut self,
        src: NodeId,
        frame: Frame<P>,
        now: SimTime,
    ) -> Result<TxStart, TxError> {
        let _span = profile::span(Phase::MediumTx);
        assert_eq!(frame.src, src, "frame source must match transmitter");
        let i = src.index();
        match self.radios.states[i] {
            RadioState::Off => return Err(TxError::RadioOff(src)),
            RadioState::Transmitting => return Err(TxError::AlreadyTransmitting(src)),
            RadioState::Receiving => {
                // Forced send aborts the reception in progress.
                self.radios.current_rx[i] = None;
                self.radios.states[i] = RadioState::Transmitting;
                self.stats[i].rx_aborted += 1;
            }
            RadioState::Listening => self.radios.states[i] = RadioState::Transmitting,
        }
        let airtime = frame.airtime();
        let bits = frame.bits();
        self.stats[i].frames_sent += 1;
        let payload = self.payloads.insert(frame.payload);
        let id = self.txs.alloc(src, bits, now + PERCEPTION_LATENCY, payload);
        Ok(TxStart { id, airtime })
    }

    /// Completes the sender side of transmission `id` at `now + airtime`:
    /// the transmitter's radio returns to listening. Receivers resolve
    /// separately at [`Medium::rx_end_into`], one perception latency
    /// later.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already resolved.
    pub fn end_transmission(&mut self, id: TxId) {
        let slot = self.txs.index_of(id);
        let src = self.txs.src[slot];
        let i = src.index();
        debug_assert_eq!(self.radios.states[i], RadioState::Transmitting);
        self.radios.states[i] = RadioState::Listening;
    }

    /// The frame's preamble+sync header reaches the receivers
    /// (`t + PERCEPTION_LATENCY`): every powered-on neighbour of
    /// the transmitter starts perceiving channel energy, idle listeners
    /// lock on, and busy receivers have their held locks corrupted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already resolved.
    pub fn rx_start(&mut self, id: TxId, _now: SimTime) {
        let _span = profile::span(Phase::MediumTx);
        let slot = self.txs.index_of(id);
        let src = self.txs.src[slot];
        // Split borrows: the CSR link rows and the transmission bank's
        // source/generation columns are read while radio state, stats and
        // this slot's listener buffer are written, so the neighbour walk
        // needs no temporary collection.
        let Medium {
            links,
            radios,
            txs,
            stats,
            capture,
            ..
        } = &mut *self;
        let row = links.row_start(src);
        let mut listeners = std::mem::take(&mut txs.listeners[slot]);
        for (k, (n, ber)) in links.neighbors(src).enumerate() {
            let i = n.index();
            match radios.states[i] {
                RadioState::Off => continue,
                RadioState::Transmitting => {}
                RadioState::Listening => {
                    radios.states[i] = RadioState::Receiving;
                    radios.current_rx[i] = Some(RxLock {
                        tx: id,
                        corrupted: false,
                    });
                    stats[i].rx_locks += 1;
                    listeners.push(row + k as u32);
                }
                RadioState::Receiving => {
                    // Overlap. Without capture the ongoing reception is
                    // corrupted and this frame is lost at `n` too. With
                    // capture, a much cleaner locked signal survives.
                    let survives = *capture
                        && radios.current_rx[i].is_some_and(|lock| match txs.src_of(lock.tx) {
                            Some(ls) => {
                                let cur = links.ber(ls, n).unwrap_or(1.0);
                                // Order-of-magnitude BER advantage ≈
                                // the ~6 dB power ratio real radios
                                // need to capture.
                                cur.max(1e-9) * 10.0 <= ber.max(1e-9)
                            }
                            None => false,
                        });
                    if !survives {
                        if let Some(lock) = radios.current_rx[i].as_mut() {
                            if !lock.corrupted {
                                lock.corrupted = true;
                            }
                        }
                        stats[i].collisions += 1;
                    }
                }
            }
            // All powered-on neighbours perceive the energy, whatever
            // their state; the counter feeds O(1) carrier sense.
            radios.perceived_busy[i] += 1;
        }
        txs.listeners[slot] = listeners;
    }

    /// The frame's tail passes the receivers
    /// (`t + airtime + PERCEPTION_LATENCY`): perceived energy drops and
    /// every surviving lock resolves as delivered, corrupted, or lost to
    /// bit errors, filling `out`. Returns `true` if the frame resolved —
    /// `false` for a frame that was aborted mid-air (its listeners were
    /// already resolved by [`Medium::rx_abort`]; `out` is cleared and
    /// carries no payload).
    ///
    /// `out` is cleared first, so a caller-owned scratch outcome can be
    /// reused across calls; with a warmed-up medium this path performs no
    /// heap allocation. The payload handle placed in `out` stays live
    /// until the caller consumes it with [`Medium::release_payload`] —
    /// do that before clearing `out`, or the arena slot cannot recycle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already resolved.
    pub fn rx_end_into(&mut self, id: TxId, _now: SimTime, out: &mut TxOutcome) -> bool {
        let _span = profile::span(Phase::MediumRx);
        let slot = self.txs.index_of(id);
        out.clear();
        let resolved = !self.txs.aborted[slot];
        if resolved {
            let src = self.txs.src[slot];
            let bits = self.txs.bits[slot];
            out.src = src;
            out.payload = Some(self.txs.payload[slot]);
            self.drop_perception(slot);
            let listeners = std::mem::take(&mut self.txs.listeners[slot]);
            for &edge in &listeners {
                let l = self.links.edge_dst(edge);
                let i = l.index();
                let lock = match self.radios.current_rx[i] {
                    Some(lock) if lock.tx == id => lock,
                    // The listener slept, or aborted to transmit: frame
                    // lost (already counted as `rx_aborted` when the lock
                    // died).
                    _ => continue,
                };
                self.radios.current_rx[i] = None;
                self.radios.states[i] = RadioState::Listening;
                if lock.corrupted {
                    self.stats[i].collisions += 1;
                    self.stats[i].rx_corrupted += 1;
                    out.corrupted.push(l);
                    continue;
                }
                // The rate in force now, read by index: `set_link_ber`
                // rewrites it in place, so mid-frame faults still count.
                let ber = self.links.edge_ber(edge);
                if self.rx_rngs[i].chance(frame_success_probability(ber, bits)) {
                    self.stats[i].frames_received += 1;
                    out.delivered.push(l);
                } else {
                    self.stats[i].bit_error_losses += 1;
                    out.missed.push(l);
                }
            }
            // Hand the listener buffer back to the slot (capacity
            // retained); the payload stays live for the caller.
            self.txs.listeners[slot] = listeners;
        }
        self.txs.pending[slot] -= 1;
        if self.txs.pending[slot] == 0 {
            self.txs.release(slot);
        }
        resolved
    }

    /// Aborts the sender side of an in-flight transmission at `now` (the
    /// transmitter died mid-frame): the radio returns to listening (the
    /// caller typically powers it off next) and the payload is dropped —
    /// nobody will decode a truncated frame.
    ///
    /// Receivers notice one perception latency later: the caller
    /// schedules [`Medium::rx_abort`] at `now + PERCEPTION_LATENCY`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown, already resolved, or already aborted.
    pub fn abort_transmission(&mut self, id: TxId, _now: SimTime) {
        let slot = self.txs.index_of(id);
        assert!(!self.txs.aborted[slot], "transmission already aborted");
        let i = self.txs.src[slot].index();
        debug_assert_eq!(self.radios.states[i], RadioState::Transmitting);
        self.radios.states[i] = RadioState::Listening;
        self.txs.aborted[slot] = true;
        self.txs.pending[slot] += 1;
        // Nobody will ever read a truncated frame's payload.
        drop(self.payloads.take(self.txs.payload[slot]));
    }

    /// The truncated frame's carrier vanishes at the receivers
    /// (`abort time + PERCEPTION_LATENCY`): perceived energy drops and
    /// every listener still locked on gives up (CRC failure on the
    /// truncated frame, counted as `rx_aborted`).
    ///
    /// Always runs strictly before the frame's [`Medium::rx_end_into`]
    /// (the abort happened before the natural end of the frame, and
    /// perception shifts both by the same latency), which then resolves
    /// nothing and releases the slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already resolved.
    pub fn rx_abort(&mut self, id: TxId, _now: SimTime) {
        let slot = self.txs.index_of(id);
        debug_assert!(self.txs.aborted[slot], "rx_abort without abort mark");
        self.drop_perception(slot);
        let listeners = std::mem::take(&mut self.txs.listeners[slot]);
        for &edge in &listeners {
            let i = self.links.edge_dst(edge).index();
            if matches!(self.radios.current_rx[i], Some(lock) if lock.tx == id) {
                self.radios.current_rx[i] = None;
                self.radios.states[i] = RadioState::Listening;
                self.stats[i].rx_aborted += 1;
            }
        }
        self.txs.listeners[slot] = listeners;
        self.txs.pending[slot] -= 1;
        if self.txs.pending[slot] == 0 {
            self.txs.release(slot);
        }
    }

    /// Decrements the perceived-energy counter at every neighbour
    /// that was counted up by the slot's [`Medium::rx_start`]: powered-on
    /// nodes awake since the frame's header arrived. Nodes that slept in
    /// between had their counter zeroed at power-off, and nodes that woke
    /// later were never counted (`last_wake` is past the frame's
    /// `heard_at`).
    fn drop_perception(&mut self, slot: usize) {
        let heard_at = self.txs.heard_at[slot];
        let src = self.txs.src[slot];
        let Medium { links, radios, .. } = &mut *self;
        for (n, _) in links.neighbors(src) {
            let i = n.index();
            if radios.states[i].is_on() && radios.last_wake[i] <= heard_at {
                radios.perceived_busy[i] -= 1;
            }
        }
    }

    /// Per-node medium statistics.
    pub fn stats(&self, node: NodeId) -> MediumStats {
        self.stats[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shorthand: the perception latency.
    const L: SimDuration = PERCEPTION_LATENCY;

    /// A clique of `n` nodes with perfect links.
    fn clique(n: usize) -> Medium<u32> {
        let mut links = LinkTable::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    links.connect(NodeId::from_index(a), NodeId::from_index(b), 0.0);
                }
            }
        }
        Medium::new(links, SimRng::new(99))
    }

    fn frame(src: u32, tag: u32) -> Frame<u32> {
        Frame::new(NodeId(src), 20, tag)
    }

    /// Drives one uncontended transmission through all four phases.
    fn transmit(m: &mut Medium<u32>, src: NodeId, tag: u32, t: SimTime) -> TxOutcome {
        let tx = m.begin_transmission(src, frame(src.0, tag), t).unwrap();
        m.rx_start(tx.id, t + L);
        m.end_transmission(tx.id);
        let mut out = TxOutcome::new();
        assert!(m.rx_end_into(tx.id, t + tx.airtime + L, &mut out));
        out
    }

    #[test]
    fn link_flap_kills_then_restores_delivery() {
        let mut m = clique(2);
        // Degrade 0 -> 1 to a guaranteed loss, then restore it.
        m.set_link_ber(NodeId(0), NodeId(1), 1.0);
        let t0 = SimTime::ZERO;
        let out = transmit(&mut m, NodeId(0), 1, t0);
        assert!(out.delivered.is_empty(), "flapped link must drop the frame");
        assert_eq!(
            out.missed,
            vec![NodeId(1)],
            "lost to bit errors, not collision"
        );
        m.release_payload(out.payload.unwrap());
        m.set_link_ber(NodeId(0), NodeId(1), 0.0);
        let out = transmit(&mut m, NodeId(0), 2, SimTime::from_secs(1));
        assert_eq!(out.delivered.len(), 1, "restored link delivers again");
    }

    #[test]
    fn the_rate_in_force_at_rx_end_decides_the_frame() {
        // Listeners hold edge indices, and resolution reads the rate by
        // index; a fault landing between the header and the tail must
        // still decide the frame, as it did when the rate was searched.
        for (before, after, delivered) in [(0.0, 1.0, false), (1.0, 0.0, true)] {
            let mut m = clique(2);
            m.set_link_ber(NodeId(0), NodeId(1), before);
            let t0 = SimTime::ZERO;
            let tx = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
            m.rx_start(tx.id, t0 + L);
            m.set_link_ber(NodeId(0), NodeId(1), after);
            m.end_transmission(tx.id);
            let mut out = TxOutcome::new();
            assert!(m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
            let (hit, lost) = if delivered {
                (&out.delivered, &out.missed)
            } else {
                (&out.missed, &out.delivered)
            };
            assert_eq!(hit, &vec![NodeId(1)], "ber {before} -> {after}");
            assert!(lost.is_empty() && out.corrupted.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "non-existent edge")]
    fn link_fault_on_missing_edge_panics() {
        let mut links = LinkTable::new(3);
        links.connect(NodeId(0), NodeId(1), 0.0);
        let mut m = Medium::<u32>::new(links, SimRng::new(1));
        // The other two input checks, made by the medium itself now that
        // no `LinkTable::connect` sits behind it.
        for (from, to, ber, expect) in [
            (NodeId(0), NodeId(1), 1.5, "out of [0,1]"),
            (NodeId(1), NodeId(1), 0.5, "self loop"),
        ] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                m.set_link_ber(from, to, ber)
            }))
            .expect_err("bad input must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(expect), "{msg}");
            assert_eq!(m.links().ber(NodeId(0), NodeId(1)), Some(0.0));
        }
        m.set_link_ber(NodeId(0), NodeId(2), 0.5);
    }

    #[test]
    fn clean_delivery_to_all_listeners() {
        let mut m = clique(4);
        let out = transmit(&mut m, NodeId(0), 7, SimTime::ZERO);
        let mut got: Vec<u32> = out.delivered.iter().map(|n| n.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(out.corrupted.is_empty() && out.missed.is_empty());
        assert_eq!(*m.payload(out.payload.unwrap()), 7);
        assert_eq!(m.stats(NodeId(1)).frames_received, 1);
        assert_eq!(m.stats(NodeId(0)).frames_sent, 1);
    }

    #[test]
    fn overlapping_transmissions_collide() {
        let mut m = clique(3);
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(5);
        let tx0 = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        // Node 2 locks onto tx0 when its header arrives...
        m.rx_start(tx0.id, t0 + L);
        assert_eq!(m.radio_state(NodeId(2)), RadioState::Receiving);
        // ...then node 1 (ignoring carrier sense) transmits while 0 is on
        // the air, corrupting node 2's lock when *its* header arrives.
        let tx1 = m.begin_transmission(NodeId(1), frame(1, 2), t1).unwrap();
        m.rx_start(tx1.id, t1 + L);
        m.end_transmission(tx0.id);
        let mut out0 = TxOutcome::new();
        assert!(m.rx_end_into(tx0.id, t0 + tx0.airtime + L, &mut out0));
        assert_eq!(out0.corrupted, vec![NodeId(2)]);
        assert!(out0.delivered.is_empty());
        m.end_transmission(tx1.id);
        let mut out1 = TxOutcome::new();
        assert!(m.rx_end_into(tx1.id, t1 + tx1.airtime + L, &mut out1));
        // Nobody was idle when tx1's header arrived, so nobody locked
        // onto it.
        assert!(out1.delivered.is_empty() && out1.corrupted.is_empty());
    }

    #[test]
    fn hidden_terminal_corrupts_middle_node() {
        // 0 — 1 — 2: 0 and 2 cannot hear each other.
        let mut links = LinkTable::new(3);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        links.connect(NodeId(2), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(2), 0.0);
        let mut m: Medium<u32> = Medium::new(links, SimRng::new(1));
        let t0 = SimTime::ZERO;
        // Both ends see a clear channel (they cannot hear each other)...
        let tx0 = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        assert!(
            !m.channel_busy(NodeId(2)),
            "2 cannot hear 0: hidden terminal"
        );
        let tx2 = m.begin_transmission(NodeId(2), frame(2, 2), t0).unwrap();
        // ...and the middle node loses both frames: it locks onto
        // whichever header arrives first (call order breaks the tie here)
        // and the other corrupts it.
        m.rx_start(tx0.id, t0 + L);
        m.rx_start(tx2.id, t0 + L);
        m.end_transmission(tx0.id);
        m.end_transmission(tx2.id);
        let mut out0 = TxOutcome::new();
        let mut out2 = TxOutcome::new();
        assert!(m.rx_end_into(tx0.id, t0 + tx0.airtime + L, &mut out0));
        assert!(m.rx_end_into(tx2.id, t0 + tx2.airtime + L, &mut out2));
        assert_eq!(out0.corrupted, vec![NodeId(1)]);
        assert!(out2.delivered.is_empty());
    }

    #[test]
    fn sleeping_node_hears_nothing() {
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        m.set_radio(NodeId(1), false, t0);
        let out = transmit(&mut m, NodeId(0), 1, t0);
        assert!(out.delivered.is_empty());
        assert_eq!(m.stats(NodeId(1)).frames_received, 0);
    }

    #[test]
    fn waking_after_the_header_does_not_deliver() {
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        m.set_radio(NodeId(1), false, t0);
        let tx = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        m.rx_start(tx.id, t0 + L);
        // Node 1 wakes mid-frame, after the preamble+sync already passed:
        // it cannot sync onto the packet, and it must not be left with a
        // phantom perceived-energy count when the tail passes.
        m.set_radio(NodeId(1), true, t0 + SimDuration::from_millis(8));
        m.end_transmission(tx.id);
        let mut out = TxOutcome::new();
        assert!(m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
        assert!(out.delivered.is_empty(), "missed preamble, no decode");
        assert!(!m.channel_busy(NodeId(1)), "no stale perceived energy");
    }

    #[test]
    fn sleeping_mid_reception_loses_frame() {
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        let tx = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        m.rx_start(tx.id, t0 + L);
        assert_eq!(m.radio_state(NodeId(1)), RadioState::Receiving);
        m.set_radio(NodeId(1), false, t0 + SimDuration::from_millis(8));
        m.end_transmission(tx.id);
        let mut out = TxOutcome::new();
        assert!(m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
        assert!(out.delivered.is_empty());
        assert_eq!(m.stats(NodeId(1)).rx_aborted, 1, "lock died with the radio");
    }

    #[test]
    fn radio_off_errors_transmission() {
        let mut m = clique(2);
        m.set_radio(NodeId(0), false, SimTime::ZERO);
        let err = m
            .begin_transmission(NodeId(0), frame(0, 1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, TxError::RadioOff(NodeId(0)));
    }

    #[test]
    fn double_transmit_errors() {
        let mut m = clique(2);
        let _ = m
            .begin_transmission(NodeId(0), frame(0, 1), SimTime::ZERO)
            .unwrap();
        let err = m
            .begin_transmission(NodeId(0), frame(0, 2), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, TxError::AlreadyTransmitting(NodeId(0)));
    }

    #[test]
    fn lossy_link_drops_frames_at_expected_rate() {
        // PER ≈ 1 - (1-ber)^bits; pick ber so PER ≈ 0.5 for a 304-bit frame.
        let bits = ((crate::packet::FRAME_OVERHEAD_BYTES + 20) * 8) as f64;
        let ber = 1.0 - 0.5f64.powf(1.0 / bits);
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), ber);
        let mut m: Medium<u32> = Medium::new(links, SimRng::new(17));
        let mut delivered = 0;
        let mut out = TxOutcome::new();
        let mut t = SimTime::ZERO;
        for i in 0..2_000 {
            let tx = m.begin_transmission(NodeId(0), frame(0, i), t).unwrap();
            m.rx_start(tx.id, t + L);
            m.end_transmission(tx.id);
            assert!(m.rx_end_into(tx.id, t + tx.airtime + L, &mut out));
            delivered += out.delivered.len();
            m.release_payload(out.payload.take().expect("outcome carries payload"));
            t += tx.airtime + L + L;
        }
        assert!(
            (800..1200).contains(&delivered),
            "≈50% delivery expected, got {delivered}/2000"
        );
        assert_eq!(
            m.payload_arena().live(),
            0,
            "every payload released after its frame resolved"
        );
    }

    #[test]
    fn carrier_sense_lags_by_the_perception_latency() {
        let mut m = clique(3);
        let t0 = SimTime::ZERO;
        assert!(!m.channel_busy(NodeId(2)));
        let tx = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        // Before the header arrives nobody else senses anything...
        assert!(!m.channel_busy(NodeId(2)), "perception lags the sender");
        assert!(m.channel_busy(NodeId(0)), "transmitter senses itself busy");
        m.rx_start(tx.id, t0 + L);
        assert!(m.channel_busy(NodeId(2)));
        // ...and the tail keeps the channel busy for L past the send end.
        m.end_transmission(tx.id);
        assert!(!m.channel_busy(NodeId(0)), "sender is done at airtime");
        assert!(m.channel_busy(NodeId(2)), "tail still arriving at 2");
        let mut out = TxOutcome::new();
        assert!(m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
        assert!(!m.channel_busy(NodeId(2)));
    }

    #[test]
    fn active_radio_time_accumulates_only_while_on() {
        let mut m = clique(1);
        let on1 = SimTime::from_secs(10);
        m.set_radio(NodeId(0), false, on1);
        assert_eq!(
            m.active_radio_time(NodeId(0), SimTime::from_secs(50)),
            SimDuration::from_secs(10)
        );
        m.set_radio(NodeId(0), true, SimTime::from_secs(50));
        assert_eq!(
            m.active_radio_time(NodeId(0), SimTime::from_secs(55)),
            SimDuration::from_secs(15)
        );
    }

    #[test]
    fn redundant_radio_toggles_are_noops() {
        let mut m = clique(1);
        m.set_radio(NodeId(0), true, SimTime::from_secs(1));
        m.set_radio(NodeId(0), false, SimTime::from_secs(2));
        m.set_radio(NodeId(0), false, SimTime::from_secs(3));
        assert_eq!(
            m.active_radio_time(NodeId(0), SimTime::from_secs(9)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn transmit_aborts_own_reception() {
        let mut m = clique(3);
        let t0 = SimTime::ZERO;
        let tx0 = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        m.rx_start(tx0.id, t0 + L);
        assert_eq!(m.radio_state(NodeId(1)), RadioState::Receiving);
        // Node 1 force-transmits mid-reception.
        let t1 = t0 + SimDuration::from_millis(6);
        let tx1 = m.begin_transmission(NodeId(1), frame(1, 2), t1).unwrap();
        assert_eq!(m.radio_state(NodeId(1)), RadioState::Transmitting);
        // The dropped lock is accounted, not silently lost.
        assert_eq!(m.stats(NodeId(1)).rx_aborted, 1);
        m.rx_start(tx1.id, t1 + L);
        m.end_transmission(tx0.id);
        let mut out0 = TxOutcome::new();
        assert!(m.rx_end_into(tx0.id, t0 + tx0.airtime + L, &mut out0));
        // Node 1 aborted: neither delivered nor counted corrupted there.
        assert!(!out0.delivered.contains(&NodeId(1)));
        assert!(!out0.corrupted.contains(&NodeId(1)));
        // Node 2 was corrupted by the overlap.
        assert!(out0.corrupted.contains(&NodeId(2)));
        m.end_transmission(tx1.id);
        let mut out1 = TxOutcome::new();
        assert!(m.rx_end_into(tx1.id, t1 + tx1.airtime + L, &mut out1));
    }

    #[test]
    fn payload_slot_is_recycled_across_transmissions() {
        let mut m = clique(2);
        let mut out = transmit(&mut m, NodeId(0), 1, SimTime::ZERO);
        assert_eq!(m.release_payload(out.payload.take().unwrap()), 1);
        // Releasing the handle lets the arena hand the same slot back.
        let out = transmit(&mut m, NodeId(0), 2, SimTime::from_secs(1));
        assert_eq!(
            m.payload_arena().slot_count(),
            1,
            "freed payload slot is reused in place"
        );
        assert_eq!(*m.payload(out.payload.unwrap()), 2);
    }

    #[test]
    fn held_payload_handles_are_never_clobbered() {
        let mut m = clique(2);
        let out = transmit(&mut m, NodeId(0), 7, SimTime::ZERO);
        let held = out.payload.unwrap();
        // The slot is still live, so the next transmission must get a
        // fresh slot rather than overwrite this one.
        let out2 = transmit(&mut m, NodeId(0), 8, SimTime::from_secs(1));
        assert_eq!(*m.payload(held), 7);
        assert_eq!(*m.payload(out2.payload.unwrap()), 8);
        assert_eq!(m.payload_arena().slot_count(), 2);
        // Releasing in any order is safe; stale re-reads are detected.
        assert_eq!(m.release_payload(held), 7);
        assert_eq!(m.payload_arena().get(held), None);
    }

    #[test]
    fn aborted_payloads_are_released_by_the_medium() {
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        let tx = m.begin_transmission(NodeId(0), frame(0, 1), t0).unwrap();
        m.rx_start(tx.id, t0 + L);
        assert_eq!(m.payload_arena().live(), 1);
        m.abort_transmission(tx.id, t0 + SimDuration::from_millis(6));
        assert_eq!(m.payload_arena().live(), 0);
        // Drive the reception side to completion so the slot recycles.
        m.rx_abort(tx.id, t0 + SimDuration::from_millis(6) + L);
        let mut out = TxOutcome::new();
        assert!(!m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
    }

    /// Every reception lock resolves exactly once: delivered, corrupted,
    /// bit-error loss, or aborted (forced send / sleep / transmitter
    /// death). `rx_locks = delivered + corrupted + bit_error + aborted`
    /// per node over any mixed workload at quiescence.
    #[test]
    fn reception_accounting_conserves_every_lock() {
        // A lossy clique so every resolution path occurs, including
        // bit-error losses.
        let n = 4usize;
        let bits = ((crate::packet::FRAME_OVERHEAD_BYTES + 20) * 8) as f64;
        let ber = 1.0 - 0.7f64.powf(1.0 / bits); // ≈30% frame loss
        let mut links = LinkTable::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    links.connect(NodeId::from_index(a), NodeId::from_index(b), ber);
                }
            }
        }
        let mut m: Medium<u32> = Medium::new(links, SimRng::new(23));

        let (mut delivered, mut corrupted, mut missed) = (0u64, 0u64, 0u64);
        let mut absorb = |out: &TxOutcome| {
            delivered += out.delivered.len() as u64;
            corrupted += out.corrupted.len() as u64;
            missed += out.missed.len() as u64;
        };
        let ms = SimDuration::from_millis;

        let mut t = SimTime::ZERO;
        let mut out = TxOutcome::new();
        for round in 0..100u32 {
            let a = NodeId(round % n as u32);
            let b = NodeId((round + 1) % n as u32);
            match round % 5 {
                0 => {
                    // Clean solo transmission.
                    let tx = m.begin_transmission(a, frame(a.0, round), t).unwrap();
                    m.rx_start(tx.id, t + L);
                    m.end_transmission(tx.id);
                    assert!(m.rx_end_into(tx.id, t + tx.airtime + L, &mut out));
                    absorb(&out);
                    m.release_payload(out.payload.take().unwrap());
                }
                1 => {
                    // Two overlapping transmissions: collisions.
                    let tx_a = m.begin_transmission(a, frame(a.0, round), t).unwrap();
                    let tx_b = m
                        .begin_transmission(b, frame(b.0, round), t + ms(1))
                        .unwrap();
                    m.rx_start(tx_a.id, t + L);
                    m.rx_start(tx_b.id, t + ms(1) + L);
                    m.end_transmission(tx_a.id);
                    assert!(m.rx_end_into(tx_a.id, t + tx_a.airtime + L, &mut out));
                    absorb(&out);
                    m.release_payload(out.payload.take().unwrap());
                    m.end_transmission(tx_b.id);
                    assert!(m.rx_end_into(tx_b.id, t + ms(1) + tx_b.airtime + L, &mut out));
                    absorb(&out);
                    m.release_payload(out.payload.take().unwrap());
                }
                2 => {
                    // A locked listener force-transmits over its
                    // reception (b locks onto a's frame at t+L, then
                    // transmits at t+6ms).
                    let tx_a = m.begin_transmission(a, frame(a.0, round), t).unwrap();
                    m.rx_start(tx_a.id, t + L);
                    let tx_b = m
                        .begin_transmission(b, frame(b.0, round), t + ms(6))
                        .unwrap();
                    m.rx_start(tx_b.id, t + ms(6) + L);
                    m.end_transmission(tx_a.id);
                    assert!(m.rx_end_into(tx_a.id, t + tx_a.airtime + L, &mut out));
                    absorb(&out);
                    m.release_payload(out.payload.take().unwrap());
                    m.end_transmission(tx_b.id);
                    assert!(m.rx_end_into(tx_b.id, t + ms(6) + tx_b.airtime + L, &mut out));
                    absorb(&out);
                    m.release_payload(out.payload.take().unwrap());
                }
                3 => {
                    // A listener powers down mid-reception.
                    let tx = m.begin_transmission(a, frame(a.0, round), t).unwrap();
                    m.rx_start(tx.id, t + L);
                    m.set_radio(b, false, t + ms(8));
                    m.end_transmission(tx.id);
                    assert!(m.rx_end_into(tx.id, t + tx.airtime + L, &mut out));
                    absorb(&out);
                    m.release_payload(out.payload.take().unwrap());
                    m.set_radio(b, true, t + tx.airtime + L);
                }
                _ => {
                    // The transmitter dies mid-frame, after the header
                    // arrived: listeners locked on, then lose the frame.
                    let tx = m.begin_transmission(a, frame(a.0, round), t).unwrap();
                    m.rx_start(tx.id, t + L);
                    m.abort_transmission(tx.id, t + ms(8));
                    m.rx_abort(tx.id, t + ms(8) + L);
                    assert!(!m.rx_end_into(tx.id, t + tx.airtime + L, &mut out));
                }
            }
            t += SimDuration::from_millis(100);
        }

        let sum = |f: fn(&MediumStats) -> u64| -> u64 {
            (0..n).map(|i| f(&m.stats(NodeId::from_index(i)))).sum()
        };
        let locked = sum(|s| s.rx_locks);
        let received = sum(|s| s.frames_received);
        let bit_errors = sum(|s| s.bit_error_losses);
        let rx_corrupted = sum(|s| s.rx_corrupted);
        let aborted = sum(|s| s.rx_aborted);
        assert_eq!(delivered, received, "outcome deliveries match stats");
        assert_eq!(missed, bit_errors, "outcome misses match stats");
        assert_eq!(corrupted, rx_corrupted, "outcome corruptions match stats");
        assert!(delivered > 0 && corrupted > 0 && missed > 0 && aborted > 0);
        assert_eq!(
            locked,
            delivered + corrupted + missed + aborted,
            "every lock resolves exactly once"
        );
        // The same conservation law holds node by node — this is exactly
        // the end-state oracle the fuzz harness applies.
        for i in 0..n {
            let s = m.stats(NodeId::from_index(i));
            assert_eq!(
                s.rx_locks,
                s.frames_received + s.rx_corrupted + s.bit_error_losses + s.rx_aborted,
                "node {i}: all locks resolved at quiescence"
            );
            assert!(!m.channel_busy(NodeId::from_index(i)), "no stale energy");
        }
    }
}

#[cfg(test)]
mod abort_tests {
    use super::*;

    const L: SimDuration = PERCEPTION_LATENCY;

    fn clique(n: usize) -> Medium<u32> {
        let mut links = LinkTable::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    links.connect(NodeId::from_index(a), NodeId::from_index(b), 0.0);
                }
            }
        }
        Medium::new(links, SimRng::new(7))
    }

    #[test]
    fn aborted_transmission_delivers_nothing() {
        let mut m = clique(3);
        let t0 = SimTime::ZERO;
        let tx = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 10, 5u32), t0)
            .unwrap();
        m.rx_start(tx.id, t0 + L);
        assert_eq!(m.radio_state(NodeId(1)), RadioState::Receiving);
        let ta = t0 + SimDuration::from_millis(6);
        m.abort_transmission(tx.id, ta);
        // The sender is already back to listening; the receivers give up
        // when the truncated carrier's tail passes them.
        assert_eq!(m.radio_state(NodeId(0)), RadioState::Listening);
        assert_eq!(m.radio_state(NodeId(1)), RadioState::Receiving);
        m.rx_abort(tx.id, ta + L);
        assert_eq!(m.radio_state(NodeId(1)), RadioState::Listening);
        let mut out = TxOutcome::new();
        assert!(!m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
        assert_eq!(m.stats(NodeId(1)).frames_received, 0);
        assert_eq!(
            m.stats(NodeId(1)).rx_aborted,
            1,
            "truncated frame fails CRC and counts as an aborted reception"
        );
        assert_eq!(
            m.stats(NodeId(1)).bit_error_losses,
            0,
            "a truncated frame is not a bit-error loss"
        );
    }

    #[test]
    fn abort_before_the_header_arrives_never_locks_anyone() {
        // The transmitter dies 2 ms in — before the 4.17 ms header has
        // reached anyone. Receivers still perceive the energy burst from
        // t+L to abort+L, but nobody ever locks.
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        let tx = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 10, 5u32), t0)
            .unwrap();
        let ta = t0 + SimDuration::from_millis(2);
        m.abort_transmission(tx.id, ta);
        // Header still arrives (the on-air bits exist); lock + abort both
        // happen, keeping the conservation law intact.
        m.rx_start(tx.id, t0 + L);
        assert!(m.channel_busy(NodeId(1)));
        m.rx_abort(tx.id, ta + L);
        assert!(!m.channel_busy(NodeId(1)));
        let mut out = TxOutcome::new();
        assert!(!m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
        let s = m.stats(NodeId(1));
        assert_eq!(s.rx_locks, 1);
        assert_eq!(s.rx_aborted, 1);
        assert_eq!(s.frames_received, 0);
    }

    #[test]
    fn abort_frees_the_channel_after_the_tail_passes() {
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        let tx = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 10, 1u32), t0)
            .unwrap();
        m.rx_start(tx.id, t0 + L);
        assert!(m.channel_busy(NodeId(1)));
        let ta = t0 + SimDuration::from_millis(5);
        m.abort_transmission(tx.id, ta);
        assert!(m.channel_busy(NodeId(1)), "tail still in the air");
        m.rx_abort(tx.id, ta + L);
        assert!(!m.channel_busy(NodeId(1)));
        let mut out = TxOutcome::new();
        assert!(!m.rx_end_into(tx.id, t0 + tx.airtime + L, &mut out));
        // The channel is reusable immediately.
        let t1 = t0 + SimDuration::from_millis(20);
        let tx2 = m
            .begin_transmission(NodeId(1), Frame::new(NodeId(1), 10, 2u32), t1)
            .unwrap();
        m.rx_start(tx2.id, t1 + L);
        m.end_transmission(tx2.id);
        assert!(m.rx_end_into(tx2.id, t1 + tx2.airtime + L, &mut out));
        assert_eq!(out.delivered.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already aborted")]
    fn double_abort_panics() {
        let mut m = clique(2);
        let tx = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 10, 1u32), SimTime::ZERO)
            .unwrap();
        m.abort_transmission(tx.id, SimTime::ZERO);
        m.abort_transmission(tx.id, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown or finished TxId")]
    fn rx_end_after_release_panics_even_when_the_slot_was_recycled() {
        let mut m = clique(2);
        let t0 = SimTime::ZERO;
        let tx = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 10, 1u32), t0)
            .unwrap();
        m.rx_start(tx.id, t0 + PERCEPTION_LATENCY);
        m.end_transmission(tx.id);
        let mut out = TxOutcome::new();
        assert!(m.rx_end_into(tx.id, t0 + tx.airtime + PERCEPTION_LATENCY, &mut out));
        // A new transmission reuses the slot with a fresh generation...
        let _tx2 = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 10, 2u32), t0)
            .unwrap();
        // ...so the stale id still fails loudly.
        m.rx_end_into(tx.id, t0, &mut out);
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;

    const L: SimDuration = PERCEPTION_LATENCY;

    /// 0 —(clean)— 2 —(dirty)— 1: node 2 hears 0 on a near-perfect link
    /// and 1 on a terrible one.
    fn asymmetric() -> Medium<u32> {
        let mut links = LinkTable::new(3);
        links.connect(NodeId(0), NodeId(2), 1e-7);
        links.connect(NodeId(1), NodeId(2), 1e-3);
        links.connect(NodeId(0), NodeId(1), 1e-7);
        links.connect(NodeId(1), NodeId(0), 1e-7);
        Medium::new(links, SimRng::new(3))
    }

    /// Two same-instant transmissions; returns tx0's outcome.
    fn overlap(m: &mut Medium<u32>) -> TxOutcome {
        let t0 = SimTime::ZERO;
        let tx0 = m
            .begin_transmission(NodeId(0), Frame::new(NodeId(0), 20, 1u32), t0)
            .unwrap();
        let tx1 = m
            .begin_transmission(NodeId(1), Frame::new(NodeId(1), 20, 2u32), t0)
            .unwrap();
        m.rx_start(tx0.id, t0 + L);
        m.rx_start(tx1.id, t0 + L);
        m.end_transmission(tx0.id);
        m.end_transmission(tx1.id);
        let mut out0 = TxOutcome::new();
        assert!(m.rx_end_into(tx0.id, t0 + tx0.airtime + L, &mut out0));
        let mut out1 = TxOutcome::new();
        assert!(m.rx_end_into(tx1.id, t0 + tx1.airtime + L, &mut out1));
        out0
    }

    #[test]
    fn without_capture_overlap_always_corrupts() {
        let mut m = asymmetric();
        let out0 = overlap(&mut m);
        assert_eq!(out0.corrupted, vec![NodeId(2)]);
    }

    #[test]
    fn with_capture_the_clean_signal_survives() {
        let mut m = asymmetric();
        m.set_capture(true);
        // Node 2 locks onto the clean frame from 0; the dirty overlap from
        // 1 does not corrupt it.
        let out0 = overlap(&mut m);
        assert_eq!(out0.delivered.len(), 1, "capture keeps the clean frame");
        assert_eq!(out0.delivered[0], NodeId(2));
    }

    #[test]
    fn capture_reads_the_rival_rate_in_force_at_its_header() {
        // The rival's rate is read by edge index when its header arrives;
        // a rewrite before then decides capture, one after does not.
        let ms = SimDuration::from_millis;
        for (rate, corrupted) in [(1e-7, true), (1e-3, false)] {
            let mut m = asymmetric();
            m.set_capture(true);
            // 1 -> 2 starts as clean as the held signal: a collision...
            m.set_link_ber(NodeId(1), NodeId(2), 1e-7);
            let t0 = SimTime::ZERO;
            let tx0 = m
                .begin_transmission(NodeId(0), Frame::new(NodeId(0), 20, 1u32), t0)
                .unwrap();
            m.rx_start(tx0.id, t0 + L);
            let tx1 = m
                .begin_transmission(NodeId(1), Frame::new(NodeId(1), 20, 2u32), t0 + ms(1))
                .unwrap();
            // ...unless the rate is rewritten before the rival's header.
            m.set_link_ber(NodeId(1), NodeId(2), rate);
            m.rx_start(tx1.id, t0 + ms(1) + L);
            m.set_link_ber(NodeId(1), NodeId(2), 1e-7);
            m.end_transmission(tx0.id);
            let mut out0 = TxOutcome::new();
            assert!(m.rx_end_into(tx0.id, t0 + tx0.airtime + L, &mut out0));
            let expect = vec![NodeId(2)];
            if corrupted {
                assert_eq!(out0.corrupted, expect, "rival at {rate}");
            } else {
                assert_eq!(out0.delivered, expect, "rival at {rate} is captured");
            }
        }
    }

    #[test]
    fn with_capture_equal_signals_still_collide() {
        // Symmetric clique with equal link quality: no capture advantage.
        let mut links = LinkTable::new(3);
        for a in 0..3u32 {
            for b in 0..3u32 {
                if a != b {
                    links.connect(NodeId(a), NodeId(b), 1e-5);
                }
            }
        }
        let mut m: Medium<u32> = Medium::new(links, SimRng::new(5));
        m.set_capture(true);
        let out0 = overlap(&mut m);
        assert_eq!(out0.corrupted, vec![NodeId(2)], "equal power: no capture");
    }
}
