//! CSMA medium-access control.
//!
//! MNP and all the baselines run over TinyOS's default CSMA MAC ("the
//! approaches we mentioned so far use CSMA-based MAC protocol", §5). This is
//! that MAC as a pure state machine: random initial backoff, carrier sense
//! at the moment of the attempt, random congestion backoff on a busy
//! channel, one outstanding frame at a time, and a small transmit queue.
//!
//! The machine is driven externally (by `mnp-net`'s event loop): it never
//! sets timers itself, it *returns* the delay after which the caller should
//! invoke [`CsmaBank::attempt`]. [`CsmaBank`] holds the MAC state of
//! *every* node in struct-of-arrays columns; a single MAC is a one-row bank.

use std::collections::VecDeque;

use mnp_sim::profile::{self, Phase};
use mnp_sim::{SimDuration, SimRng};

use crate::packet::Frame;

/// Timing and queue parameters of the CSMA MAC.
///
/// Defaults follow the TinyOS Mica-2 stack: initial backoff uniform in
/// \[0.4 ms, 12.8 ms\], congestion backoff uniform in \[0.4 ms, 51.2 ms\],
/// and a short transmit queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsmaConfig {
    /// Lower bound of the pre-transmission random backoff.
    pub initial_backoff_min: SimDuration,
    /// Upper bound of the pre-transmission random backoff.
    pub initial_backoff_max: SimDuration,
    /// Lower bound of the busy-channel retry backoff.
    pub congestion_backoff_min: SimDuration,
    /// Upper bound of the busy-channel retry backoff.
    pub congestion_backoff_max: SimDuration,
    /// Maximum frames queued behind the in-flight one; beyond this new
    /// frames are dropped (and counted).
    pub queue_capacity: usize,
}

impl Default for CsmaConfig {
    fn default() -> Self {
        CsmaConfig {
            initial_backoff_min: SimDuration::from_micros(400),
            // 12.8 ms exactly (the Mica-2 stack's 1/4 of the 51.2 ms
            // congestion window), not a rounded-up 13 ms.
            initial_backoff_max: SimDuration::from_micros(12_800),
            congestion_backoff_min: SimDuration::from_micros(400),
            congestion_backoff_max: SimDuration::from_micros(51_200),
            queue_capacity: 8,
        }
    }
}

/// What the caller must do next after feeding the MAC an input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsmaAction<P> {
    /// Nothing to schedule.
    Idle,
    /// Call [`CsmaBank::attempt`] after this delay.
    Backoff(SimDuration),
    /// Put this frame on the air now and call [`CsmaBank::tx_done`] when the
    /// transmission completes.
    Transmit(Frame<P>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Idle,
    /// Waiting for a backoff timer; the head frame is in `currents`.
    Backing,
    /// A frame is on the air.
    Transmitting,
}

/// The CSMA MAC state of every node, in struct-of-arrays columns indexed
/// by node.
///
/// The hot column (`states`, one byte per node) is what the event loop
/// touches on every MAC decision; the frame storage (`currents`, `queues`)
/// and the drop counters live in their own arrays. All nodes share one
/// [`CsmaConfig`].
///
/// # Example
///
/// ```
/// use mnp_radio::{CsmaAction, CsmaBank, CsmaConfig, Frame, NodeId};
/// use mnp_sim::SimRng;
///
/// let mut macs: CsmaBank<&str> = CsmaBank::new(CsmaConfig::default(), 1);
/// let mut rng = SimRng::new(1);
/// // Enqueue: the MAC asks us to wait out an initial backoff.
/// let a = macs.enqueue(0, Frame::new(NodeId(0), 4, "adv"), &mut rng);
/// let delay = match a { CsmaAction::Backoff(d) => d, _ => unreachable!() };
/// assert!(!delay.is_zero());
/// // Backoff expired, channel clear: transmit.
/// match macs.attempt(0, false, &mut rng) {
///     CsmaAction::Transmit(f) => assert_eq!(f.payload, "adv"),
///     other => panic!("{other:?}"),
/// }
/// assert_eq!(macs.tx_done(0, &mut rng), CsmaAction::Idle);
/// ```
#[derive(Clone, Debug)]
pub struct CsmaBank<P> {
    config: CsmaConfig,
    states: Vec<State>,
    currents: Vec<Option<Frame<P>>>,
    queues: Vec<VecDeque<Frame<P>>>,
    drops: Vec<u64>,
}

impl<P> CsmaBank<P> {
    /// Creates `nodes` idle MACs sharing `config`.
    ///
    /// # Panics
    ///
    /// Panics if the backoff ranges are inverted.
    pub fn new(config: CsmaConfig, nodes: usize) -> Self {
        assert!(config.initial_backoff_min <= config.initial_backoff_max);
        assert!(config.congestion_backoff_min <= config.congestion_backoff_max);
        CsmaBank {
            config,
            states: vec![State::Idle; nodes],
            currents: (0..nodes).map(|_| None).collect(),
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            drops: vec![0; nodes],
        }
    }

    /// The shared MAC configuration.
    pub fn config(&self) -> CsmaConfig {
        self.config
    }

    /// Number of nodes in the bank.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the bank has no nodes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Hands a frame to `node`'s MAC.
    ///
    /// Returns [`CsmaAction::Backoff`] when this frame starts a new
    /// contention round; returns [`CsmaAction::Idle`] when the frame was
    /// queued behind (or dropped beyond capacity of) an ongoing round.
    pub fn enqueue(&mut self, node: usize, frame: Frame<P>, rng: &mut SimRng) -> CsmaAction<P> {
        let _span = profile::span(Phase::Csma);
        match self.states[node] {
            State::Idle => {
                debug_assert!(self.currents[node].is_none() && self.queues[node].is_empty());
                self.currents[node] = Some(frame);
                self.states[node] = State::Backing;
                CsmaAction::Backoff(self.initial_backoff(rng))
            }
            State::Backing | State::Transmitting => {
                if self.queues[node].len() >= self.config.queue_capacity {
                    self.drops[node] += 1;
                } else {
                    self.queues[node].push_back(frame);
                }
                CsmaAction::Idle
            }
        }
    }

    /// Carrier-sense attempt for `node` when its backoff timer fires.
    ///
    /// `channel_busy` is the carrier-sense reading at this instant. Returns
    /// [`CsmaAction::Transmit`] on a clear channel or another
    /// [`CsmaAction::Backoff`] on a busy one.
    ///
    /// # Panics
    ///
    /// Panics if the MAC was not waiting for an attempt (caller bug: stale
    /// timer not cancelled).
    pub fn attempt(&mut self, node: usize, channel_busy: bool, rng: &mut SimRng) -> CsmaAction<P> {
        let _span = profile::span(Phase::Csma);
        assert_eq!(
            self.states[node],
            State::Backing,
            "attempt without pending frame"
        );
        if channel_busy {
            CsmaAction::Backoff(self.congestion_backoff(rng))
        } else {
            self.states[node] = State::Transmitting;
            let frame = self.currents[node]
                .take()
                .expect("backing implies current frame");
            CsmaAction::Transmit(frame)
        }
    }

    /// Notifies `node`'s MAC that its frame finished transmitting.
    ///
    /// Returns the next action: a backoff for the next queued frame, or
    /// [`CsmaAction::Idle`].
    ///
    /// # Panics
    ///
    /// Panics if no transmission was in flight.
    pub fn tx_done(&mut self, node: usize, rng: &mut SimRng) -> CsmaAction<P> {
        let _span = profile::span(Phase::Csma);
        assert_eq!(
            self.states[node],
            State::Transmitting,
            "tx_done without transmission"
        );
        self.states[node] = State::Idle;
        match self.queues[node].pop_front() {
            Some(next) => {
                self.currents[node] = Some(next);
                self.states[node] = State::Backing;
                CsmaAction::Backoff(self.initial_backoff(rng))
            }
            None => CsmaAction::Idle,
        }
    }

    /// Discards `node`'s pending frame and queue (used when the node
    /// sleeps).
    ///
    /// Returns how many frames were thrown away. Must not be called while a
    /// frame is mid-air; finish or account for it first.
    ///
    /// # Panics
    ///
    /// Panics if a transmission is in flight.
    pub fn flush(&mut self, node: usize) -> usize {
        assert_ne!(
            self.states[node],
            State::Transmitting,
            "flush mid-transmission"
        );
        let n = usize::from(self.currents[node].take().is_some()) + self.queues[node].len();
        self.queues[node].clear();
        self.states[node] = State::Idle;
        n
    }

    /// Resets `node`'s MAC to a factory-fresh state (node restart): frames
    /// discarded, counters zeroed, queue capacity retained.
    ///
    /// # Panics
    ///
    /// Panics if a transmission is in flight; abort or finish it first.
    pub fn reset(&mut self, node: usize) {
        self.flush(node);
        self.drops[node] = 0;
    }

    /// Whether `node`'s MAC holds no frames (idle and empty queue).
    #[cfg(test)]
    pub(crate) fn is_idle(&self, node: usize) -> bool {
        self.states[node] == State::Idle
            && self.currents[node].is_none()
            && self.queues[node].is_empty()
    }

    /// Whether `node` has a frame currently on the air.
    pub fn is_transmitting(&self, node: usize) -> bool {
        self.states[node] == State::Transmitting
    }

    /// Frames waiting behind `node`'s current one.
    pub fn queued(&self, node: usize) -> usize {
        self.queues[node].len()
    }

    /// Frames `node` dropped because its queue was full.
    pub fn drops(&self, node: usize) -> u64 {
        self.drops[node]
    }

    fn initial_backoff(&self, rng: &mut SimRng) -> SimDuration {
        rng.duration_between(
            self.config.initial_backoff_min,
            self.config.initial_backoff_max,
        )
    }

    fn congestion_backoff(&self, rng: &mut SimRng) -> SimDuration {
        rng.duration_between(
            self.config.congestion_backoff_min,
            self.config.congestion_backoff_max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn frame(tag: u32) -> Frame<u32> {
        Frame::new(NodeId(0), 8, tag)
    }

    /// A one-row bank: the single MAC most tests drive.
    fn mac() -> (CsmaBank<u32>, SimRng) {
        (CsmaBank::new(CsmaConfig::default(), 1), SimRng::new(42))
    }

    #[test]
    fn single_frame_lifecycle() {
        let (mut m, mut rng) = mac();
        assert!(m.is_idle(0));
        let a = m.enqueue(0, frame(1), &mut rng);
        assert!(matches!(a, CsmaAction::Backoff(_)));
        let a = m.attempt(0, false, &mut rng);
        match a {
            CsmaAction::Transmit(f) => assert_eq!(f.payload, 1),
            other => panic!("expected transmit, got {other:?}"),
        }
        assert!(m.is_transmitting(0));
        assert_eq!(m.tx_done(0, &mut rng), CsmaAction::Idle);
        assert!(m.is_idle(0));
    }

    #[test]
    fn busy_channel_backs_off() {
        let (mut m, mut rng) = mac();
        m.enqueue(0, frame(1), &mut rng);
        for _ in 0..3 {
            assert!(matches!(
                m.attempt(0, true, &mut rng),
                CsmaAction::Backoff(_)
            ));
        }
        assert!(matches!(
            m.attempt(0, false, &mut rng),
            CsmaAction::Transmit(_)
        ));
    }

    #[test]
    fn frames_queue_behind_current() {
        let (mut m, mut rng) = mac();
        m.enqueue(0, frame(1), &mut rng);
        assert_eq!(m.enqueue(0, frame(2), &mut rng), CsmaAction::Idle);
        assert_eq!(m.queued(0), 1);
        let _ = m.attempt(0, false, &mut rng);
        // Completing frame 1 starts contention for frame 2.
        assert!(matches!(m.tx_done(0, &mut rng), CsmaAction::Backoff(_)));
        match m.attempt(0, false, &mut rng) {
            CsmaAction::Transmit(f) => assert_eq!(f.payload, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queue_overflow_drops() {
        let cfg = CsmaConfig {
            queue_capacity: 2,
            ..CsmaConfig::default()
        };
        let mut m = CsmaBank::new(cfg, 1);
        let mut rng = SimRng::new(1);
        m.enqueue(0, frame(0), &mut rng);
        m.enqueue(0, frame(1), &mut rng);
        m.enqueue(0, frame(2), &mut rng);
        m.enqueue(0, frame(3), &mut rng);
        assert_eq!(m.queued(0), 2);
        assert_eq!(m.drops(0), 1);
    }

    #[test]
    fn flush_clears_everything() {
        let (mut m, mut rng) = mac();
        m.enqueue(0, frame(1), &mut rng);
        m.enqueue(0, frame(2), &mut rng);
        assert_eq!(m.flush(0), 2);
        assert!(m.is_idle(0));
        // A fresh enqueue starts a new round.
        assert!(matches!(
            m.enqueue(0, frame(3), &mut rng),
            CsmaAction::Backoff(_)
        ));
    }

    #[test]
    fn bank_rows_are_independent() {
        let mut bank: CsmaBank<u32> = CsmaBank::new(CsmaConfig::default(), 3);
        let mut rng = SimRng::new(11);
        assert!(matches!(
            bank.enqueue(0, frame(1), &mut rng),
            CsmaAction::Backoff(_)
        ));
        assert!(matches!(
            bank.enqueue(2, frame(2), &mut rng),
            CsmaAction::Backoff(_)
        ));
        let _ = bank.attempt(0, false, &mut rng);
        assert!(bank.is_transmitting(0));
        assert!(bank.is_idle(1), "untouched row stays idle");
        assert!(!bank.is_idle(2), "row 2 is backing off");
        let _ = bank.tx_done(0, &mut rng);
        assert!(bank.is_idle(0));
    }

    #[test]
    fn bank_reset_restores_factory_state() {
        let mut bank: CsmaBank<u32> = CsmaBank::new(CsmaConfig::default(), 2);
        let mut rng = SimRng::new(12);
        bank.enqueue(1, frame(1), &mut rng);
        bank.enqueue(1, frame(2), &mut rng);
        let _ = bank.attempt(1, true, &mut rng);
        bank.reset(1);
        assert!(bank.is_idle(1));
        assert_eq!(bank.drops(1), 0);
        // A reset row starts a fresh contention round like a new MAC.
        assert!(matches!(
            bank.enqueue(1, frame(3), &mut rng),
            CsmaAction::Backoff(_)
        ));
    }

    #[test]
    fn backoffs_fall_within_configured_bounds() {
        let (mut m, mut rng) = mac();
        for _ in 0..200 {
            match m.enqueue(0, frame(1), &mut rng) {
                CsmaAction::Backoff(d) => {
                    assert!(
                        d >= SimDuration::from_micros(400) && d < SimDuration::from_micros(12_800)
                    );
                }
                other => panic!("{other:?}"),
            }
            match m.attempt(0, true, &mut rng) {
                CsmaAction::Backoff(d) => {
                    assert!(
                        d >= SimDuration::from_micros(400) && d < SimDuration::from_micros(51_200)
                    );
                }
                other => panic!("{other:?}"),
            }
            let _ = m.attempt(0, false, &mut rng);
            let _ = m.tx_done(0, &mut rng);
        }
    }

    #[test]
    #[should_panic(expected = "attempt without pending frame")]
    fn attempt_when_idle_panics() {
        let (mut m, mut rng) = mac();
        let _ = m.attempt(0, false, &mut rng);
    }

    #[test]
    #[should_panic(expected = "tx_done without transmission")]
    fn tx_done_when_idle_panics() {
        let (mut m, mut rng) = mac();
        let _ = m.tx_done(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "flush mid-transmission")]
    fn flush_mid_tx_panics() {
        let (mut m, mut rng) = mac();
        m.enqueue(0, frame(1), &mut rng);
        let _ = m.attempt(0, false, &mut rng);
        let _ = m.flush(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::NodeId;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Enqueue,
        Attempt { busy: bool },
        TxDone,
        Flush,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => Just(Op::Enqueue),
            3 => any::<bool>().prop_map(|busy| Op::Attempt { busy }),
            2 => Just(Op::TxDone),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        /// Driving the MAC with any legal operation sequence never panics
        /// and keeps its state model consistent: attempts only happen while
        /// backing, tx_done only while transmitting, flush only while not
        /// transmitting.
        #[test]
        fn prop_csma_state_machine_is_total(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut mac: CsmaBank<u32> = CsmaBank::new(CsmaConfig::default(), 1);
            let mut rng = SimRng::new(9);
            #[derive(PartialEq)]
            enum Model { Idle, Backing, Tx }
            let mut model = Model::Idle;
            let mut tag = 0u32;
            for op in ops {
                match op {
                    Op::Enqueue => {
                        tag += 1;
                        let action = mac.enqueue(0, Frame::new(NodeId(0), 4, tag), &mut rng);
                        match (&model, &action) {
                            (Model::Idle, CsmaAction::Backoff(_)) => model = Model::Backing,
                            (Model::Backing | Model::Tx, CsmaAction::Idle) => {}
                            other => prop_assert!(false, "enqueue mismatch: {:?}", other.1),
                        }
                    }
                    Op::Attempt { busy } => {
                        if model != Model::Backing { continue; }
                        match mac.attempt(0, busy, &mut rng) {
                            CsmaAction::Backoff(_) => prop_assert!(busy),
                            CsmaAction::Transmit(_) => {
                                prop_assert!(!busy);
                                model = Model::Tx;
                            }
                            CsmaAction::Idle => prop_assert!(false, "attempt yielded Idle"),
                        }
                    }
                    Op::TxDone => {
                        if model != Model::Tx { continue; }
                        match mac.tx_done(0, &mut rng) {
                            CsmaAction::Backoff(_) => model = Model::Backing,
                            CsmaAction::Idle => model = Model::Idle,
                            CsmaAction::Transmit(_) => prop_assert!(false, "tx_done yielded Transmit"),
                        }
                    }
                    Op::Flush => {
                        if model == Model::Tx { continue; }
                        mac.flush(0);
                        model = Model::Idle;
                        prop_assert!(mac.is_idle(0));
                    }
                }
            }
        }

        /// Frames come out in FIFO order across a drain.
        #[test]
        fn prop_csma_is_fifo(n in 1usize..8) {
            let mut mac: CsmaBank<u32> = CsmaBank::new(CsmaConfig::default(), 1);
            let mut rng = SimRng::new(4);
            for tag in 0..n as u32 {
                let _ = mac.enqueue(0, Frame::new(NodeId(0), 4, tag), &mut rng);
            }
            let mut seen = Vec::new();
            #[allow(clippy::while_let_loop)]
            loop {
                match mac.attempt(0, false, &mut rng) {
                    CsmaAction::Transmit(f) => seen.push(f.payload),
                    _ => break,
                }
                match mac.tx_done(0, &mut rng) {
                    CsmaAction::Backoff(_) => continue,
                    _ => break,
                }
            }
            let expect: Vec<u32> = (0..n as u32).collect();
            prop_assert_eq!(seen, expect);
        }
    }
}
