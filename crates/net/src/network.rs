//! The deterministic event-loop runner.
//!
//! A [`NetworkBuilder`] resolves the link graph, the fault plan and the
//! link schedule into one `Kernel` (queue, medium, MACs, protocols, RNG
//! streams); the [`Network`] facade dispatches its events one at a time
//! and delivers every observable event to the run trace and the
//! observers, so a seeded run emits the same event stream byte for byte.

use std::collections::BTreeMap;

use mnp_obs::{EventKind, ObsEvent, Observer, Shared, TimeSeriesSampler};
use mnp_radio::{
    CsmaBank, CsmaConfig, LinkChange, LinkTable, Medium, MediumStats, NodeId, TxOutcome,
};
use mnp_sim::profile::{self, Phase};
use mnp_sim::{EventQueue, SimRng, SimTime, TieBreak};
use mnp_trace::RunTrace;

use crate::fault::{FaultPlan, FaultPlanError, PlannedFault};
use crate::kernel::{Event, Kernel, LinkEventKind, LinkTimeline};
use crate::nodes::NodeArena;
use crate::protocol::Protocol;

/// Configures and constructs a [`Network`].
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct NetworkBuilder {
    links: LinkTable,
    seed: u64,
    capture: bool,
    tie_break: TieBreak,
    observers: Vec<Box<dyn Observer + Send>>,
    faults: Option<FaultPlan>,
    link_schedule: Vec<LinkChange>,
    sampler: Option<Shared<TimeSeriesSampler>>,
}

impl NetworkBuilder {
    /// Starts a builder over the given link graph and experiment seed.
    pub fn new(links: LinkTable, seed: u64) -> Self {
        NetworkBuilder {
            links,
            seed,
            capture: false,
            tie_break: TieBreak::Fifo,
            observers: Vec::new(),
            faults: None,
            link_schedule: Vec::new(),
            sampler: None,
        }
    }

    /// Ignored: the value is accepted and dropped, and the run is the one
    /// sequential kernel whatever it is. Kept only so existing callers
    /// still compile; ROADMAP item 12 removes it.
    pub fn shards(self, _: usize) -> Self {
        self
    }

    /// Attaches a [`FaultPlan`]: every planned fault gets its place in the
    /// event order at build time — node-level faults as queue events, link
    /// flaps as rows of the link timeline (see
    /// [`NetworkBuilder::link_schedule`]) — so the run, faults included,
    /// replays byte-for-byte under the same seed and plan.
    ///
    /// The plan is validated against the link graph when the network is
    /// built: [`NetworkBuilder::try_build`] returns a [`FaultPlanError`]
    /// if it names a node outside the graph or flaps a missing edge, and
    /// [`NetworkBuilder::build`] panics with the same message.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a link schedule: deterministic base-quality changes of
    /// existing edges. The build resolves schedule and link flaps into one
    /// time-ordered link timeline whose rows carry their owner-keyed queue
    /// rank from then on; the kernel streams the rows into its queue as
    /// they come due, so the queue's size follows the events in flight,
    /// not the length of the schedule — and a mobile run replays
    /// byte-for-byte under the same seed and schedule.
    ///
    /// Changes compose with [`FaultPlan`] link flaps: a scheduled change
    /// while a flap holds the edge updates the rate the flap will
    /// eventually restore to, without disturbing the fault. Called more
    /// than once, schedules accumulate. The first schedule is kept, not
    /// copied: the build resolves the timeline in its buffer, and does
    /// not sort it again when it is already in time order. Validated with
    /// the fault plan at build time: unknown nodes and edges outside the
    /// (potential) link set are rejected with a typed [`FaultPlanError`]
    /// (the first such change in time order).
    pub fn link_schedule(mut self, schedule: Vec<LinkChange>) -> Self {
        if self.link_schedule.is_empty() {
            self.link_schedule = schedule;
        } else {
            self.link_schedule.extend(schedule);
        }
        self
    }

    /// Sets how same-instant events are ordered (see
    /// [`TieBreak`]). The default is FIFO — the order every figure is
    /// regenerated under; the fuzz harness runs scenarios under
    /// [`TieBreak::SeededPermutation`] to explore schedules FIFO never
    /// produces.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Attaches an observer; every [`mnp_obs::ObsEvent`] the run emits is
    /// delivered to each attached observer in attachment order. Use
    /// [`mnp_obs::Shared`] to keep a handle for post-run readback.
    /// Observers must be `Send` (like the network that owns them), so a
    /// built network can move to a worker thread whole.
    pub fn observer(mut self, obs: impl Observer + Send + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    /// Attaches a time-series sampler: the run loop snapshots kernel
    /// gauges (queue depth, events processed) into it on the sampler's
    /// sim-time cadence, and it is also attached as an observer so
    /// per-class message counters flow into the same samples. Keep a
    /// clone of the handle to read the series back after the run.
    ///
    /// Sampling reads simulation state but never mutates it, so a seeded
    /// run stays byte-identical with or without a sampler attached.
    pub fn timeseries(mut self, sampler: Shared<TimeSeriesSampler>) -> Self {
        self.observers.push(Box::new(sampler.clone()));
        self.sampler = Some(sampler);
        self
    }

    /// Enables the radio capture effect (see
    /// [`Medium::set_capture`](mnp_radio::Medium::set_capture)).
    pub fn capture(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// Builds the network, constructing each node's protocol with `make`,
    /// and schedules every node's `on_start` at time zero.
    ///
    /// # Panics
    ///
    /// Panics if an attached [`FaultPlan`] fails validation (see
    /// [`NetworkBuilder::try_build`] for the recoverable form).
    pub fn build<P, F>(self, make: F) -> Network<P>
    where
        P: Protocol,
        F: FnMut(NodeId, &mut SimRng) -> P,
    {
        self.try_build(make).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the network like [`NetworkBuilder::build`], but validates any
    /// attached [`FaultPlan`] against the link graph up front and returns a
    /// typed [`FaultPlanError`] instead of panicking mid-build.
    pub fn try_build<P, F>(self, mut make: F) -> Result<Network<P>, FaultPlanError>
    where
        P: Protocol,
        F: FnMut(NodeId, &mut SimRng) -> P,
    {
        if let Some(plan) = &self.faults {
            plan.validate(&self.links)?;
        }
        let mut timeline = {
            let _span = profile::span(Phase::FaultExpand);
            // Link flaps do not become queue events: they interact with the
            // link schedule, so `link_timeline` resolves both — and checks
            // the schedule against the graph as it goes.
            let flaps: Vec<Flap> = self
                .faults
                .iter()
                .flat_map(FaultPlan::faults)
                .filter_map(|fault| match *fault {
                    PlannedFault::LinkFlap {
                        from,
                        to,
                        at,
                        duration,
                        ber,
                    } => Some((from, to, at, at + duration, ber)),
                    _ => None,
                })
                .collect();
            link_timeline(&self.links, self.link_schedule, &flaps)?
        };
        let links = self.links;
        let n = links.len();
        let root = SimRng::new(self.seed);
        let mut node_rngs: Vec<SimRng> = (0..n).map(|i| root.derive(i as u64)).collect();
        let mac_rngs: Vec<SimRng> = (0..n).map(|i| root.derive(1_000_000 + i as u64)).collect();
        let protocols: Vec<P> = (0..n)
            .map(|i| make(NodeId::from_index(i), &mut node_rngs[i]))
            .collect();
        // The arena exists before the first event is scheduled: every
        // push consumes an owner sequence number from it, so each event's
        // (owner, seq) identity — and therefore its queue rank — is fixed
        // at schedule time.
        let mut nodes = NodeArena::new(node_rngs, mac_rngs);
        let mut queue: EventQueue<Event> = EventQueue::with_tie_break(self.tie_break);
        let mut push = |at: SimTime, owner: NodeId, ev: Event| {
            queue.push_owned(at, owner.0, nodes.next_seq(owner), ev);
        };
        for i in 0..n {
            let node = NodeId::from_index(i);
            push(SimTime::ZERO, node, Event::Start(node));
        }
        for fault in self.faults.iter().flat_map(FaultPlan::faults) {
            match *fault {
                PlannedFault::Kill { node, at } => push(at, node, Event::Kill(node)),
                PlannedFault::CrashRestart { node, at, down_for } => {
                    push(at, node, Event::Kill(node));
                    push(at + down_for, node, Event::Restart(node));
                }
                PlannedFault::LinkFlap { .. } => {}
                PlannedFault::StorageFaults { node, at, failures } => {
                    push(at, node, Event::InjectStorage { node, failures });
                }
            }
        }
        // Then every owner's timeline rows take its next numbers, one per
        // row, reserved as a block and handed out as the rows are fed.
        for (i, seq) in timeline.seqs.iter_mut().enumerate() {
            *seq = nodes.reserve_seqs(NodeId::from_index(i), *seq);
        }
        let watched = !self.observers.is_empty();
        let mut medium = Medium::new(links, root.derive(u64::MAX));
        medium.set_capture(self.capture);
        let kernel = Kernel {
            now: SimTime::ZERO,
            queue,
            timeline,
            medium,
            protocols,
            macs: CsmaBank::new(CsmaConfig::default(), n),
            nodes,
            outcome_scratch: TxOutcome::new(),
            ops_scratch: Vec::new(),
            watched,
            obs_buf: Vec::new(),
        };
        // One branch per event decides whether to sample; SimTime::MAX
        // means "never" when no sampler is attached.
        let next_sample_at = self
            .sampler
            .as_ref()
            .map_or(SimTime::MAX, |s| SimTime::ZERO + s.borrow().interval());
        let mut net = Network {
            kernel,
            trace: RunTrace::new(n),
            events_processed: 0,
            observers: self.observers,
            run_ended: false,
            sampler: self.sampler,
            next_sample_at,
        };
        // Report each node's initial state so timelines start at t = 0.
        let Network {
            kernel,
            trace,
            observers,
            ..
        } = &mut net;
        if !observers.is_empty() {
            let start: Vec<ObsEvent> = kernel
                .protocols
                .iter()
                .enumerate()
                .map(|(i, p)| ObsEvent {
                    t: SimTime::ZERO,
                    node: NodeId::from_index(i),
                    kind: EventKind::State {
                        from: "",
                        to: p.state_label(),
                    },
                })
                .collect();
            deliver(trace, observers, &start);
        }
        Ok(net)
    }
}

/// Hands one dispatch's events (or the build's start reports) to the run
/// trace, event by event, then to each observer as one batch
/// (observer-major): a `Shared` observer takes its lock once per batch,
/// not once per event.
fn deliver(trace: &mut RunTrace, observers: &mut [Box<dyn Observer + Send>], evs: &[ObsEvent]) {
    for ev in evs {
        Observer::on_event(trace, ev);
    }
    for obs in observers {
        obs.on_events(evs);
    }
}

/// A planned link flap: `(from, to, start, end, degraded BER)`.
type Flap = (NodeId, NodeId, SimTime, SimTime, f64);

/// One flap mark on an edge's timeline.
#[derive(Clone, Copy)]
enum Mark {
    /// Flap `id` starts degrading the edge.
    FlapStart(u32, f64),
    /// Flap `id` expires.
    FlapEnd(u32),
}

/// A flap mark with its sort key: `(instant, from, to, class, mark)`. The
/// class makes same-instant resolution on one edge well-defined: base
/// moves (class 0, the schedule's changes) apply first, then flap starts,
/// then flap ends — so a flap starting exactly as another ends keeps the
/// edge faulted, and a flap ending at the instant of a base change
/// restores to the new base.
type Placed = (SimTime, NodeId, NodeId, u8, Mark);

/// A flap-carrying edge during the timeline sweep.
struct Flapped {
    /// The rate the edge returns to when no flap holds it: the pristine
    /// rate, or the latest scheduled change.
    base: f64,
    /// Still-active flaps in start order: the most recently started one
    /// is the rate the edge carries.
    active: Vec<(u32, f64)>,
}

/// Resolves the link schedule and the plan's flaps into the run's link
/// timeline: the BER each edge actually carries at each instant, one row
/// per applied change, in `(instant, from, to)` order, plus each owner's
/// row count (the build turns the counts into sequence blocks).
///
/// Flaps and scheduled (mobility) changes of one edge interact —
/// overlapping flaps must not end each other early, and a flap must
/// restore to the base rate as of its *end*, not the pristine rate — so
/// all marks of one edge at one instant are resolved together.
///
/// The rows are written over the schedule itself. Its changes move to the
/// back of the buffer, behind one free slot per flap mark, and the rows
/// are written from the front. Every row consumes at least one mark, so
/// the write cursor never passes the next unread change.
///
/// The same pass checks the schedule against the graph, with one edge
/// search per edge and instant: the first offending change in
/// `(instant, from, to)` order is returned as a typed error.
fn link_timeline(
    links: &LinkTable,
    mut rows: Vec<LinkChange>,
    flaps: &[Flap],
) -> Result<LinkTimeline, FaultPlanError> {
    if rows.is_empty() && flaps.is_empty() {
        // A static run: no rows, so no per-edge or per-owner columns.
        return Ok(LinkTimeline::default());
    }
    let key = |c: &LinkChange| (c.at, c.from, c.to);
    // Stable, so same-instant moves of one edge keep their schedule order
    // (the last one wins). A mobility schedule arrives in this order
    // already: then it is left as it is, and no sort scratch is taken.
    if !rows.is_sorted_by_key(key) {
        rows.sort_by_key(key);
    }
    let mut flap_marks: Vec<Placed> = Vec::with_capacity(2 * flaps.len());
    let mut flapped: BTreeMap<(NodeId, NodeId), Flapped> = BTreeMap::new();
    for (id, &(from, to, start, end, ber)) in flaps.iter().enumerate() {
        flap_marks.push((start, from, to, 1, Mark::FlapStart(id as u32, ber)));
        flap_marks.push((end, from, to, 2, Mark::FlapEnd(id as u32)));
        flapped.entry((from, to)).or_insert_with(|| Flapped {
            base: links
                .ber(from, to)
                .expect("plan validated against this graph"),
            active: Vec::new(),
        });
    }
    flap_marks.sort_by_key(|&(at, from, to, class, _)| (at, from, to, class));
    let gap = flap_marks.len();
    let moves = rows.len();
    assert!(
        u32::try_from(moves + gap).is_ok(),
        "link timeline rows are indexed by u32"
    );
    if gap > 0 {
        rows.reserve_exact(gap);
        let filler = LinkChange {
            at: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(0),
            ber: 0.0,
        };
        rows.resize(moves + gap, filler);
        rows.copy_within(0..moves, gap);
    }
    let mut flap_marks = flap_marks.into_iter().peekable();
    let nodes = links.len();
    // The rate every edge carries as the sweep advances, by CSR index.
    let mut rates: Vec<f64> = (0..links.edge_count() as u32)
        .map(|e| links.edge_ber(e))
        .collect();
    let mut kinds = Vec::with_capacity(gap);
    let mut owned = vec![0u32; nodes];
    let (mut read, mut write) = (gap, 0);
    loop {
        // The next mark: the schedule's next change or the next flap mark,
        // whichever is earlier (a change on a tie: class 0).
        let change = rows.get(read).map(key);
        let flap = flap_marks.peek().map(|&(at, from, to, ..)| (at, from, to));
        let (at, from, to) = match (change, flap) {
            (Some(c), Some(f)) => c.min(f),
            (Some(next), None) | (None, Some(next)) => next,
            (None, None) => break,
        };
        let mut moved = None;
        while let Some(c) = rows.get(read).filter(|c| key(c) == (at, from, to)) {
            moved = Some(c.ber);
            read += 1;
        }
        for node in [from, to] {
            if node.index() >= nodes {
                return Err(FaultPlanError::UnknownNode { node, nodes });
            }
        }
        let Some(e) = links.edge(from, to) else {
            return Err(FaultPlanError::MissingEdge { from, to });
        };
        let mut edge = flapped.get_mut(&(from, to));
        let (mut started, mut ended) = (false, false);
        while let Some((.., mark)) = flap_marks.next_if(|m| (m.0, m.1, m.2) == (at, from, to)) {
            let edge = edge.as_mut().expect("every flap's edge is in `flapped`");
            match mark {
                Mark::FlapStart(id, ber) => {
                    edge.active.push((id, ber));
                    started = true;
                }
                Mark::FlapEnd(id) => {
                    edge.active.retain(|&(a, _)| a != id);
                    ended = true;
                }
            }
        }
        let was = rates[e as usize];
        let (now, faulted) = match edge {
            // A move-only edge carries its base rate.
            None => (moved.unwrap_or(was), false),
            Some(edge) => {
                edge.base = moved.unwrap_or(edge.base);
                let now = edge.active.last().map_or(edge.base, |&(_, ber)| ber);
                (now, !edge.active.is_empty())
            }
        };
        // Emit when the applied rate changes; flap starts always emit (the
        // degradation is observable even when the rate happens not to
        // move), interior flap ends only when the surviving flap's rate
        // differs.
        if now != was || started {
            if faulted {
                kinds.push((write as u32, LinkEventKind::Fault));
            } else if ended {
                kinds.push((write as u32, LinkEventKind::Restore));
            }
            rows[write] = LinkChange {
                at,
                from,
                to,
                ber: now,
            };
            write += 1;
            owned[from.index()] += 1;
            rates[e as usize] = now;
        }
    }
    rows.truncate(write);
    Ok(LinkTimeline {
        rows,
        kinds,
        seqs: owned,
        fed: 0,
    })
}

/// A running simulated network of `P`-protocol nodes.
///
/// This plays the role TOSSIM played for the paper: it owns the run
/// trace and the observers, and drives the kernel — virtual clock,
/// medium, MACs, protocols and per-node state — one event at a time until
/// a predicate holds or a deadline passes.
#[derive(Debug)]
pub struct Network<P: Protocol> {
    kernel: Kernel<P>,
    trace: RunTrace,
    events_processed: u64,
    observers: Vec<Box<dyn Observer + Send>>,
    run_ended: bool,
    /// Time-series sampler, fed kernel gauges at its cadence.
    sampler: Option<Shared<TimeSeriesSampler>>,
    /// Next instant to sample at; `SimTime::MAX` when no sampler is
    /// attached, so the run loop pays one comparison per event.
    next_sample_at: SimTime,
}

/// Compile-time proof that the kernel is `Send` for every protocol: no
/// `Rc`, `RefCell`, or other thread-bound type anywhere in its state, so a
/// whole simulation can be handed to a worker thread. (`tests/send.rs`
/// instantiates this for the real protocols.)
#[allow(dead_code)]
fn _network_is_send<P: Protocol>() {
    fn assert_send<T: Send>() {}
    assert_send::<Network<P>>();
}

impl<P: Protocol> Network<P> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kernel.protocols.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run trace collected so far.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// One node's protocol state (for assertions and experiment readouts).
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.kernel.protocols[node.index()]
    }

    /// The medium (for link/stat queries).
    pub fn medium(&self) -> &Medium<P::Msg> {
        &self.kernel.medium
    }

    /// One node's physical-layer counters.
    pub fn medium_stats(&self, node: NodeId) -> MediumStats {
        self.kernel.medium.stats(node)
    }

    /// Total events processed (a proxy for simulation effort).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events still pending — queued, or link-timeline rows not yet due.
    /// Zero means the simulation has nothing left to do.
    pub fn pending_events(&self) -> usize {
        self.kernel.pending()
    }

    /// Schedules a permanent fail-stop of `node` at time `at` (battery
    /// death, hardware crash). From that instant the node transmits
    /// nothing, hears nothing, and runs no protocol code; a frame it was
    /// mid-way through transmitting is truncated and lost at every
    /// receiver.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_failure(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.now(), "cannot schedule failure in the past");
        self.kernel.push_owned(at, node, Event::Kill(node));
    }

    /// Schedules a reboot of `node` at time `at`. A no-op unless the node
    /// is dead when the instant arrives; pair it with
    /// [`Network::schedule_failure`] (or use
    /// [`FaultPlan::crash_restart`](crate::FaultPlan::crash_restart), which
    /// schedules both). The rebooted node keeps its persistent state (the
    /// protocol decides what survives in [`Protocol::on_restart`] — for
    /// MNP the EEPROM [`PacketStore`](mnp_storage::PacketStore)) but loses
    /// all RAM state: MAC, queued frames, pending timers.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_restart(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.now(), "cannot schedule restart in the past");
        self.kernel.push_owned(at, node, Event::Restart(node));
    }

    /// Whether `node` has fail-stopped.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.kernel.nodes.hot(node).dead
    }

    /// Runs until `pred` holds (checked after every event), the event queue
    /// drains, or the simulation clock passes `deadline`. Returns whether
    /// `pred` held at exit.
    pub fn run_until<F>(&mut self, pred: F, deadline: SimTime) -> bool
    where
        F: Fn(&Network<P>) -> bool,
    {
        loop {
            if pred(self) {
                return true;
            }
            let kernel = &mut self.kernel;
            let Some(next) = kernel.peek_time() else {
                return pred(self);
            };
            if next > deadline {
                return pred(self);
            }
            let (time, event) = kernel.queue.pop().expect("peeked event exists");
            debug_assert!(time >= kernel.now, "time went backwards");
            kernel.now = time;
            kernel.dispatch(event);
            self.events_processed += 1;
            self.flush_obs();
            if time >= self.next_sample_at {
                self.take_sample();
            }
        }
    }

    /// Delivers everything the kernel buffered during one dispatch to the
    /// run trace and every attached observer.
    fn flush_obs(&mut self) {
        let Network {
            kernel,
            trace,
            observers,
            ..
        } = self;
        let buf = &mut kernel.obs_buf;
        if buf.is_empty() {
            return;
        }
        let _span = profile::span(Phase::Observe);
        deliver(trace, observers, buf);
        buf.clear();
    }

    /// Feeds the attached sampler one snapshot and advances the cadence
    /// past `now` (skipping, not back-filling, intervals the simulation
    /// jumped over).
    fn take_sample(&mut self) {
        let _span = profile::span(Phase::Sample);
        let Some(sampler) = &self.sampler else {
            return;
        };
        let now = self.now();
        let mut s = sampler.borrow_mut();
        s.record(now, self.pending_events(), self.events_processed);
        let interval = s.interval();
        drop(s);
        while self.next_sample_at <= now {
            self.next_sample_at += interval;
        }
    }

    /// Runs until the event queue drains or the clock passes `deadline`.
    pub fn run_to_deadline(&mut self, deadline: SimTime) {
        self.run_until(|_| false, deadline);
    }

    /// Convenience: runs until every node reports completion. Returns
    /// whether that happened before `deadline`.
    pub fn run_until_all_complete(&mut self, deadline: SimTime) -> bool {
        self.run_until(|n| n.trace().all_complete(), deadline)
    }

    /// Folds the medium's active-radio-time readings (as of `at`, typically
    /// the completion time) into the trace, hands each observer every
    /// node's physical-layer counters, and ends the run for the trace and
    /// the observers on the first call.
    pub fn finalize_meters(&mut self, at: SimTime) {
        let Network {
            kernel,
            trace,
            observers,
            run_ended,
            ..
        } = self;
        for i in 0..kernel.protocols.len() {
            let node = NodeId::from_index(i);
            let art = kernel.medium.active_radio_time(node, at);
            trace.set_active_radio(node, art);
            // Physical-layer counters never flow through the event
            // stream; hand each observer a snapshot of them.
            let stats = kernel.medium.stats(node);
            for obs in observers.iter_mut() {
                obs.on_medium_stats(node, &stats);
            }
        }
        // Close the run exactly once: pads windowed series, flushes
        // timelines, snapshots gauges. Later calls only refresh the
        // trace's radio time and the observers' counters.
        if !*run_ended {
            *run_ended = true;
            Observer::on_run_end(trace, at);
            for obs in observers.iter_mut() {
                obs.on_run_end(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::protocol::WireMsg;
    use mnp_sim::SimDuration;
    use mnp_trace::MsgClass;

    /// Test message: a counter.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Tick(u32);

    impl WireMsg for Tick {
        fn wire_bytes(&self) -> usize {
            4
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    /// Node 0 sends `rounds` ticks paced by a timer; every receiver counts.
    struct Ticker {
        is_source: bool,
        rounds: u32,
        sent: u32,
        heard: u32,
        first_heard_at: Option<SimTime>,
        slept_at: Option<SimTime>,
        woke_at: Option<SimTime>,
        sleep_on_round: Option<u32>,
    }

    impl Ticker {
        fn new(is_source: bool, rounds: u32) -> Self {
            Ticker {
                is_source,
                rounds,
                sent: 0,
                heard: 0,
                first_heard_at: None,
                slept_at: None,
                woke_at: None,
                sleep_on_round: None,
            }
        }
    }

    impl Protocol for Ticker {
        type Msg = Tick;

        fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
            if self.is_source {
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Tick>, _from: NodeId, msg: &Tick) {
            self.heard += 1;
            if self.first_heard_at.is_none() {
                self.first_heard_at = Some(ctx.now);
            }
            if Some(msg.0) == self.sleep_on_round {
                self.slept_at = Some(ctx.now);
                ctx.sleep_for(SimDuration::from_secs(2));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Tick>, _token: u64) {
            if self.sent < self.rounds {
                ctx.send(Tick(self.sent));
                self.sent += 1;
                ctx.set_timer(SimDuration::from_millis(100), 0);
            } else {
                ctx.note_completion();
            }
        }

        fn on_wake(&mut self, ctx: &mut Context<'_, Tick>) {
            self.woke_at = Some(ctx.now);
        }
    }

    fn pair() -> LinkTable {
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        links
    }

    fn run_pair(sleep_on_round: Option<u32>) -> Network<Ticker> {
        let mut net: Network<Ticker> = NetworkBuilder::new(pair(), 7).build(|id, _| {
            let mut t = Ticker::new(id == NodeId(0), 10);
            if id == NodeId(1) {
                t.sleep_on_round = sleep_on_round;
            }
            t
        });
        net.run_until(
            |n| n.protocol(NodeId(0)).sent == 10 && n.pending_events() == 0,
            SimTime::from_secs(60),
        );
        net
    }

    #[test]
    fn messages_flow_source_to_receiver() {
        let net = run_pair(None);
        assert_eq!(net.protocol(NodeId(0)).sent, 10);
        assert_eq!(net.protocol(NodeId(1)).heard, 10);
        assert_eq!(net.trace().node(NodeId(0)).sent, 10);
        assert_eq!(net.trace().node(NodeId(1)).received, 10);
    }

    #[test]
    fn sleeping_node_misses_traffic_and_wakes() {
        let net = run_pair(Some(2));
        let p1 = net.protocol(NodeId(1));
        // Heard ticks 0,1,2 then slept through the rest (2 s sleep covers
        // ticks 3..=9 sent 100 ms apart).
        assert_eq!(p1.heard, 3, "slept through later ticks");
        let slept = p1.slept_at.expect("slept");
        let woke = p1.woke_at.expect("woke");
        assert_eq!(woke.saturating_since(slept), SimDuration::from_secs(2));
        // Active radio time stops accruing during sleep.
        let art = net.medium().active_radio_time(NodeId(1), net.now());
        assert!(
            art + SimDuration::from_secs(2)
                <= net.now().saturating_since(SimTime::ZERO) + SimDuration::from_millis(1)
        );
    }

    #[test]
    fn energy_meters_record_traffic() {
        let net = run_pair(None);
        assert_eq!(net.medium_stats(NodeId(0)).frames_sent, 10);
        assert_eq!(net.medium_stats(NodeId(1)).frames_received, 10);
    }

    #[test]
    fn finalize_meters_snapshots_radio_time() {
        let mut net = run_pair(None);
        let at = net.now();
        net.finalize_meters(at);
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(
                net.trace().node(node).active_radio,
                net.medium().active_radio_time(node, at)
            );
        }
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let a = run_pair(Some(4));
        let b = run_pair(Some(4));
        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.protocol(NodeId(1)).heard, b.protocol(NodeId(1)).heard);
    }

    #[test]
    fn different_seeds_differ() {
        let mut net_a: Network<Ticker> =
            NetworkBuilder::new(pair(), 1).build(|id, _| Ticker::new(id == NodeId(0), 10));
        let mut net_b: Network<Ticker> =
            NetworkBuilder::new(pair(), 2).build(|id, _| Ticker::new(id == NodeId(0), 10));
        net_a.run_until(
            |n| n.protocol(NodeId(1)).heard == 10,
            SimTime::from_secs(60),
        );
        net_b.run_until(
            |n| n.protocol(NodeId(1)).heard == 10,
            SimTime::from_secs(60),
        );
        // MAC backoffs differ by seed, so delivery instants differ.
        assert_ne!(
            net_a.protocol(NodeId(1)).first_heard_at,
            net_b.protocol(NodeId(1)).first_heard_at
        );
    }

    #[test]
    fn permuted_tie_break_replays_identically_per_seed() {
        let run = |tie: TieBreak| {
            let mut net: Network<Ticker> = NetworkBuilder::new(pair(), 7)
                .tie_break(tie)
                .build(|id, _| Ticker::new(id == NodeId(0), 10));
            net.run_until(
                |n| n.protocol(NodeId(0)).sent == 10 && n.pending_events() == 0,
                SimTime::from_secs(60),
            );
            (net.events_processed(), net.protocol(NodeId(1)).heard)
        };
        let a = run(TieBreak::SeededPermutation(3));
        let b = run(TieBreak::SeededPermutation(3));
        assert_eq!(a, b, "same permutation seed must replay identically");
        // The permuted schedule still delivers all traffic in this loss-free
        // pair: schedule exploration must not change what is possible.
        assert_eq!(a.1, 10);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut net: Network<Ticker> =
            NetworkBuilder::new(pair(), 7).build(|id, _| Ticker::new(id == NodeId(0), 1_000));
        let done = net.run_until(|_| false, SimTime::from_secs(1));
        assert!(!done);
        assert!(net.now() <= SimTime::from_secs(1) + SimDuration::from_millis(200));
    }

    /// Parks one timer at the end of time, the idiom for "never".
    struct Parked {
        fired_at: Option<SimTime>,
    }

    impl Protocol for Parked {
        type Msg = Tick;
        fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
            ctx.set_timer(SimDuration::MAX, 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, Tick>, _: NodeId, _: &Tick) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Tick>, _: u64) {
            self.fired_at = Some(ctx.now);
        }
    }

    #[test]
    fn an_open_ended_run_survives_a_timer_parked_at_the_end_of_time() {
        // The queue used to panic maturing an event at `SimTime::MAX`.
        let mut net: Network<Parked> =
            NetworkBuilder::new(pair(), 7).build(|_, _| Parked { fired_at: None });
        net.run_to_deadline(SimTime::from_secs(3_600));
        assert_eq!(net.pending_events(), 2, "both timers still parked");
        net.run_to_deadline(SimTime::MAX);
        assert_eq!(net.pending_events(), 0);
        assert_eq!(net.now(), SimTime::MAX);
        assert_eq!(net.protocol(NodeId(1)).fired_at, Some(SimTime::MAX));
    }

    #[test]
    fn completion_predicate_stops_the_run() {
        let mut net: Network<Ticker> =
            NetworkBuilder::new(pair(), 7).build(|id, _| Ticker::new(id == NodeId(0), 3));
        let done = net.run_until_all_complete(SimTime::from_secs(60));
        // Only node 0 notes completion in this toy protocol; node 1 never
        // does, so the run must NOT claim success.
        assert!(!done);
        assert!(net.trace().node(NodeId(0)).completion.is_some());
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use crate::context::Context;
    use crate::protocol::WireMsg;
    use mnp_sim::SimDuration;
    use mnp_trace::MsgClass;

    /// Chatty protocol: every node broadcasts a beacon every 50 ms forever.
    #[derive(Clone, Copy, Debug)]
    struct Beacon;

    impl WireMsg for Beacon {
        fn wire_bytes(&self) -> usize {
            2
        }
        fn class(&self) -> MsgClass {
            MsgClass::Control
        }
    }

    struct Chatty {
        heard: u64,
    }

    impl Protocol for Chatty {
        type Msg = Beacon;
        fn on_start(&mut self, ctx: &mut Context<'_, Beacon>) {
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, Beacon>, _: NodeId, _: &Beacon) {
            self.heard += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Beacon>, _: u64) {
            ctx.send(Beacon);
            ctx.set_timer(SimDuration::from_millis(50), 0);
        }
    }

    fn pair() -> LinkTable {
        let mut links = LinkTable::new(2);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        links
    }

    #[test]
    fn killed_node_stops_sending_and_hearing() {
        let mut net: Network<Chatty> =
            NetworkBuilder::new(pair(), 5).build(|_, _| Chatty { heard: 0 });
        net.schedule_failure(NodeId(1), SimTime::from_secs(2));
        net.run_until(|_| false, SimTime::from_secs(10));
        assert!(net.is_dead(NodeId(1)));
        // Node 1 sent beacons for ~2 s (≈40), then went silent.
        let sent_by_dead = net.trace().node(NodeId(1)).sent;
        assert!((20..60).contains(&sent_by_dead), "got {sent_by_dead}");
        // Node 0 kept sending the whole 10 s.
        let sent_by_live = net.trace().node(NodeId(0)).sent;
        assert!(sent_by_live > 150, "got {sent_by_live}");
        // Node 1 heard nothing after death: roughly 2 s worth, minus the
        // collisions two saturating beacons inflict on each other (carrier
        // sense is blind for the frame's first PERCEPTION_LATENCY).
        let heard_by_dead = net.protocol(NodeId(1)).heard;
        assert!((10..60).contains(&heard_by_dead), "got {heard_by_dead}");
    }

    #[test]
    fn killing_twice_is_idempotent() {
        let mut net: Network<Chatty> =
            NetworkBuilder::new(pair(), 6).build(|_, _| Chatty { heard: 0 });
        net.schedule_failure(NodeId(1), SimTime::from_secs(1));
        net.schedule_failure(NodeId(1), SimTime::from_secs(2));
        net.run_until(|_| false, SimTime::from_secs(5));
        assert!(net.is_dead(NodeId(1)));
    }

    #[test]
    fn dead_node_accrues_no_radio_time() {
        let mut net: Network<Chatty> =
            NetworkBuilder::new(pair(), 7).build(|_, _| Chatty { heard: 0 });
        net.schedule_failure(NodeId(1), SimTime::from_secs(3));
        net.run_until(|_| false, SimTime::from_secs(30));
        let art = net.medium().active_radio_time(NodeId(1), net.now());
        assert!(art <= SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn failure_in_the_past_rejected() {
        let mut net: Network<Chatty> =
            NetworkBuilder::new(pair(), 8).build(|_, _| Chatty { heard: 0 });
        net.run_until(|_| false, SimTime::from_secs(2));
        net.schedule_failure(NodeId(0), SimTime::from_secs(1));
    }

    #[test]
    fn crash_restarted_node_resumes_beaconing() {
        let plan = FaultPlan::seeded(1).crash_restart(
            NodeId(1),
            SimTime::from_secs(2),
            SimDuration::from_secs(4),
        );
        let mut net: Network<Chatty> = NetworkBuilder::new(pair(), 5)
            .faults(plan)
            .build(|_, _| Chatty { heard: 0 });
        net.run_until(|_| false, SimTime::from_secs(10));
        assert!(!net.is_dead(NodeId(1)), "rebooted node is alive again");
        // ~2 s of beacons before the crash plus ~4 s after the reboot at
        // 20 per second, against ~10 s for the never-faulted node 0.
        let sent_by_faulted = net.trace().node(NodeId(1)).sent;
        assert!(
            (80..160).contains(&sent_by_faulted),
            "got {sent_by_faulted}"
        );
        let sent_by_live = net.trace().node(NodeId(0)).sent;
        assert!(sent_by_live > 150, "got {sent_by_live}");
    }

    #[test]
    fn restart_of_a_live_node_is_a_noop() {
        let mut net: Network<Chatty> =
            NetworkBuilder::new(pair(), 6).build(|_, _| Chatty { heard: 0 });
        net.schedule_restart(NodeId(1), SimTime::from_secs(1));
        net.run_until(|_| false, SimTime::from_secs(3));
        assert!(!net.is_dead(NodeId(1)));
        let sent = net.trace().node(NodeId(1)).sent;
        assert!(sent > 40, "beaconing uninterrupted, got {sent}");
    }

    #[test]
    fn active_radio_time_is_frozen_while_dead_and_resumes_after_restart() {
        let plan = FaultPlan::seeded(2).crash_restart(
            NodeId(1),
            SimTime::from_secs(2),
            SimDuration::from_secs(6),
        );
        let mut net: Network<Chatty> = NetworkBuilder::new(pair(), 7)
            .faults(plan)
            .build(|_, _| Chatty { heard: 0 });
        // Sample active radio time around the outage: it must be monotone
        // over the whole run and flat while the node is down.
        net.run_until(|_| false, SimTime::from_secs(4));
        let during_outage_a = net.medium().active_radio_time(NodeId(1), net.now());
        assert!(net.is_dead(NodeId(1)));
        net.run_until(|_| false, SimTime::from_secs(6));
        let during_outage_b = net.medium().active_radio_time(NodeId(1), net.now());
        assert_eq!(
            during_outage_a, during_outage_b,
            "no radio time may accrue while dead"
        );
        assert!(during_outage_a <= SimDuration::from_secs(2));
        net.run_until(|_| false, SimTime::from_secs(10));
        let at_end = net.medium().active_radio_time(NodeId(1), net.now());
        assert!(at_end > during_outage_b, "meter resumes after reboot");
        // On for [0, 2) and [8, 10): about 4 s, never the full 10.
        assert!(at_end <= SimDuration::from_secs(4) + SimDuration::from_millis(10));
        assert!(at_end >= SimDuration::from_millis(3_900));
        // `finalize_meters` folds exactly this frozen reading in.
        let now = net.now();
        net.finalize_meters(now);
        assert_eq!(net.trace().node(NodeId(1)).active_radio, at_end);
    }

    #[test]
    fn link_flap_suppresses_delivery_then_recovers() {
        let run = |flap: bool| {
            let mut builder = NetworkBuilder::new(pair(), 8);
            if flap {
                builder = builder.faults(FaultPlan::seeded(3).link_flap(
                    NodeId(0),
                    NodeId(1),
                    SimTime::from_secs(2),
                    SimDuration::from_secs(4),
                    1.0,
                ));
            }
            let mut net: Network<Chatty> = builder.build(|_, _| Chatty { heard: 0 });
            net.run_until(|_| false, SimTime::from_secs(10));
            (
                net.trace().node(NodeId(1)).received,
                net.medium().links().ber(NodeId(0), NodeId(1)).unwrap(),
            )
        };
        let (baseline, _) = run(false);
        let (flapped, ber_after) = run(true);
        // ~4 s of a ~10 s run was blacked out in one direction.
        assert!(
            flapped < baseline * 3 / 4,
            "flap must suppress delivery: {flapped} vs baseline {baseline}"
        );
        assert!(flapped > 0, "link recovered after the flap");
        assert_eq!(ber_after, 0.0, "original BER restored");
    }

    #[test]
    fn overlapping_flaps_heal_only_when_the_last_one_expires() {
        // Flap A holds 0 -> 1 during [2 s, 10 s); flap B overlaps it
        // during [4 s, 6 s). When B expires the edge must stay degraded
        // (A is still active); only A's end at 10 s restores the pristine
        // rate. The old build-time resolution restored at 6 s, silently
        // ending A four seconds early.
        let plan = FaultPlan::seeded(3)
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(2),
                SimDuration::from_secs(8),
                1.0,
            )
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(4),
                SimDuration::from_secs(2),
                1.0,
            );
        let mut net: Network<Chatty> = NetworkBuilder::new(pair(), 8)
            .faults(plan)
            .build(|_, _| Chatty { heard: 0 });
        net.run_until(|_| false, SimTime::from_secs(7));
        assert_eq!(
            net.medium().links().ber(NodeId(0), NodeId(1)),
            Some(1.0),
            "edge must stay degraded after the inner flap expires"
        );
        net.run_until(|_| false, SimTime::from_secs(11));
        assert_eq!(
            net.medium().links().ber(NodeId(0), NodeId(1)),
            Some(0.0),
            "edge heals when the last active flap expires"
        );
    }

    #[test]
    fn link_schedule_drives_base_quality_and_flaps_restore_to_it() {
        // The schedule moves 0 -> 1 to 0.4 at 3 s; a flap holds the edge
        // at 1.0 during [5 s, 8 s). The flap must restore the *moved*
        // base, not the pristine 0.0.
        let schedule = vec![LinkChange {
            at: SimTime::from_secs(3),
            from: NodeId(0),
            to: NodeId(1),
            ber: 0.4,
        }];
        let plan = FaultPlan::seeded(4).link_flap(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(5),
            SimDuration::from_secs(3),
            1.0,
        );
        let mut net: Network<Chatty> = NetworkBuilder::new(pair(), 9)
            .link_schedule(schedule)
            .faults(plan)
            .build(|_, _| Chatty { heard: 0 });
        net.run_until(|_| false, SimTime::from_secs(4));
        assert_eq!(net.medium().links().ber(NodeId(0), NodeId(1)), Some(0.4));
        net.run_until(|_| false, SimTime::from_secs(6));
        assert_eq!(net.medium().links().ber(NodeId(0), NodeId(1)), Some(1.0));
        net.run_until(|_| false, SimTime::from_secs(9));
        assert_eq!(
            net.medium().links().ber(NodeId(0), NodeId(1)),
            Some(0.4),
            "flap restores the scheduled base, not the pristine rate"
        );
    }

    #[test]
    fn try_build_rejects_bad_link_schedules_with_typed_errors() {
        use crate::fault::FaultPlanError;
        let change = |from: u32, to: u32| {
            vec![LinkChange {
                at: SimTime::from_secs(1),
                from: NodeId(from),
                to: NodeId(to),
                ber: 0.5,
            }]
        };
        let res: Result<Network<Chatty>, _> = NetworkBuilder::new(pair(), 5)
            .link_schedule(change(0, 9))
            .try_build(|_, _| Chatty { heard: 0 });
        assert_eq!(
            res.err(),
            Some(FaultPlanError::UnknownNode {
                node: NodeId(9),
                nodes: 2,
            })
        );
        let res: Result<Network<Chatty>, _> = NetworkBuilder::new(pair(), 5)
            .link_schedule(change(1, 1))
            .try_build(|_, _| Chatty { heard: 0 });
        assert_eq!(
            res.err(),
            Some(FaultPlanError::MissingEdge {
                from: NodeId(1),
                to: NodeId(1),
            })
        );
    }

    #[test]
    fn try_build_rejects_bad_plans_with_typed_errors() {
        use crate::fault::FaultPlanError;
        // A flap on the missing 0 -> 0 ... use an edge outside the pair:
        // node 5 does not exist at all.
        let plan = FaultPlan::seeded(1).kill(NodeId(5), SimTime::from_secs(1));
        let res: Result<Network<Chatty>, _> = NetworkBuilder::new(pair(), 5)
            .faults(plan)
            .try_build(|_, _| Chatty { heard: 0 });
        assert_eq!(
            res.err(),
            Some(FaultPlanError::UnknownNode {
                node: NodeId(5),
                nodes: 2,
            })
        );
        // Flapping an edge that is not in the graph (a pair has only the
        // two directed edges between 0 and 1).
        let plan = FaultPlan::seeded(1).link_flap(
            NodeId(1),
            NodeId(1),
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
        );
        let res: Result<Network<Chatty>, _> = NetworkBuilder::new(pair(), 5)
            .faults(plan)
            .try_build(|_, _| Chatty { heard: 0 });
        assert_eq!(
            res.err(),
            Some(FaultPlanError::MissingEdge {
                from: NodeId(1),
                to: NodeId(1),
            })
        );
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn build_panics_on_invalid_plan_with_the_typed_message() {
        // A 3-node line: the chord 0 -> 2 is not in the graph.
        let mut links = LinkTable::new(3);
        links.connect(NodeId(0), NodeId(1), 0.0);
        links.connect(NodeId(1), NodeId(0), 0.0);
        links.connect(NodeId(1), NodeId(2), 0.0);
        links.connect(NodeId(2), NodeId(1), 0.0);
        let plan = FaultPlan::seeded(1).link_flap(
            NodeId(0),
            NodeId(2),
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
        );
        let _net: Network<Chatty> = NetworkBuilder::new(links, 5)
            .faults(plan)
            .build(|_, _| Chatty { heard: 0 });
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::context::Context;
    use crate::protocol::WireMsg;
    use mnp_sim::SimDuration;
    use mnp_trace::MsgClass;
    use std::cell::{Cell, RefCell};
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Copy, Debug)]
    struct Word(u32);

    impl WireMsg for Word {
        fn wire_bytes(&self) -> usize {
            4
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    /// Records every observable event verbatim, for exact stream
    /// comparison.
    #[derive(Debug, Default)]
    struct Rec(Vec<String>);

    impl Observer for Rec {
        fn on_event(&mut self, ev: &ObsEvent) {
            self.0.push(format!("{ev:?}"));
        }
    }

    /// Gossip: every node beacons its best-known value on a per-node
    /// cadence, adopts (and relays) anything larger it hears, and naps
    /// every ninth beacon. Together with the fault plan this exercises
    /// every kernel path: deliveries, collisions, bit errors, sleep and
    /// wake, kills, mid-frame aborts, restarts, link flaps and storage
    /// faults.
    struct Gossip {
        id: NodeId,
        best: u32,
        ticks: u32,
    }

    impl Gossip {
        fn cadence(&self) -> SimDuration {
            SimDuration::from_millis(40 + u64::from(self.id.0 * 13 % 50))
        }
    }

    impl Protocol for Gossip {
        type Msg = Word;

        fn on_start(&mut self, ctx: &mut Context<'_, Word>) {
            self.best = self.id.0 * 7 % 31;
            let cadence = self.cadence();
            ctx.set_timer(cadence, 0);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Word>, _from: NodeId, msg: &Word) {
            if msg.0 > self.best {
                self.best = msg.0;
                ctx.send(Word(self.best));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Word>, _token: u64) {
            self.ticks += 1;
            ctx.send(Word(self.best + self.id.0 % 3));
            if self.ticks.is_multiple_of(9) {
                // Naps leave no pending timer behind (the chain restarts
                // in on_wake), so no send can race a sleeping radio.
                ctx.sleep_for(SimDuration::from_millis(350));
            } else {
                let cadence = self.cadence();
                ctx.set_timer(cadence, 0);
            }
        }

        fn on_wake(&mut self, ctx: &mut Context<'_, Word>) {
            ctx.set_timer(SimDuration::from_millis(25), 0);
        }

        fn on_restart(&mut self, ctx: &mut Context<'_, Word>) {
            self.best = 0;
            ctx.set_timer(SimDuration::from_millis(30), 0);
        }
    }

    /// A 12-node bidirectional line with a small bit-error rate, so the
    /// per-receiver BER streams are actually drawn from.
    fn line() -> LinkTable {
        let n = 12;
        let mut links = LinkTable::new(n);
        for i in 0..n - 1 {
            let (a, b) = (NodeId::from_index(i), NodeId::from_index(i + 1));
            links.connect(a, b, 1e-5);
            links.connect(b, a, 1e-5);
        }
        links
    }

    fn plan() -> FaultPlan {
        FaultPlan::seeded(5)
            .crash_restart(NodeId(4), SimTime::from_secs(2), SimDuration::from_secs(1))
            .kill(NodeId(9), SimTime::from_millis(4_500))
            .link_flap(
                NodeId(2),
                NodeId(3),
                SimTime::from_secs(1),
                SimDuration::from_millis(800),
                1.0,
            )
            .storage_faults(NodeId(6), SimTime::from_secs(3), 2)
    }

    /// Runs the gossip line to `deadline`, through `.shards(n)` when
    /// `shards` is `Some(n)`.
    #[allow(clippy::type_complexity)]
    fn run_line(
        shards: Option<usize>,
        deadline: SimTime,
    ) -> (Vec<String>, u64, SimTime, Vec<(u64, u64)>, Vec<u32>) {
        let rec = Shared::new(Rec::default());
        let mut builder = NetworkBuilder::new(line(), 42);
        if let Some(n) = shards {
            builder = builder.shards(n);
        }
        let mut net: Network<Gossip> =
            builder
                .observer(rec.clone())
                .faults(plan())
                .build(|id, _| Gossip {
                    id,
                    best: 0,
                    ticks: 0,
                });
        net.run_to_deadline(deadline);
        let at = net.now();
        net.finalize_meters(at);
        let frames = (0..net.len())
            .map(|i| {
                let stats = net.medium_stats(NodeId::from_index(i));
                (stats.frames_sent, stats.frames_received)
            })
            .collect();
        let bests = (0..net.len())
            .map(|i| net.protocol(NodeId::from_index(i)).best)
            .collect();
        let events = rec.borrow().0.clone();
        (events, net.events_processed(), net.now(), frames, bests)
    }

    /// The `.shards(n)` shim ignores its value: whatever `n`, the run is
    /// the one sequential kernel's, event for event.
    #[test]
    fn sharded_runs_replay_the_sequential_schedule_exactly() {
        let deadline = SimTime::from_secs(6);
        let base = run_line(None, deadline);
        assert!(base.0.len() > 1_000, "scenario produces real traffic");
        for n in [0, 2, 4, 500] {
            let run = run_line(Some(n), deadline);
            assert!(base.0 == run.0, "event stream diverged at .shards({n})");
            assert_eq!(base.1, run.1, "events_processed diverged at .shards({n})");
            assert_eq!(base.2, run.2, "final clock diverged at .shards({n})");
            assert_eq!(base.3, run.3, "frame counts diverged at .shards({n})");
            assert_eq!(base.4, run.4, "protocol state diverged at .shards({n})");
        }
    }

    /// Records each delivery call as one batch of `Debug` lines.
    #[derive(Clone, Debug, Default)]
    struct Batches(Arc<Mutex<Vec<Vec<String>>>>);

    impl Batches {
        fn batches(&self) -> Vec<Vec<String>> {
            self.0.lock().expect("no recorder panicked").clone()
        }
    }

    impl Observer for Batches {
        fn on_event(&mut self, _ev: &ObsEvent) {
            panic!("the network delivers whole dispatches through on_events");
        }

        fn on_events(&mut self, evs: &[ObsEvent]) {
            let batch = evs.iter().map(|ev| format!("{ev:?}")).collect();
            self.0.lock().expect("no recorder panicked").push(batch);
        }
    }

    /// Observers attached directly and through `Shared` get the same
    /// stream a per-event observer sees, cut into exactly one batch per
    /// dispatch that emitted events, after one batch of start reports.
    #[test]
    fn observers_get_one_batch_per_dispatch() {
        let direct = Batches::default();
        let shared = Shared::new(Batches::default());
        let rec = Shared::new(Rec::default());
        let mut net: Network<Gossip> = NetworkBuilder::new(line(), 42)
            .observer(direct.clone())
            .observer(shared.clone())
            .observer(rec.clone())
            .faults(plan())
            .build(|id, _| Gossip {
                id,
                best: 0,
                ticks: 0,
            });
        // The predicate runs before every dispatch: what the per-event
        // recorder gained since its last call is one dispatch's events.
        let sizes = RefCell::new(vec![net.len()]);
        let seen = Cell::new(rec.borrow().0.len());
        net.run_until(
            |_| {
                let len = rec.borrow().0.len();
                if len > seen.get() {
                    sizes.borrow_mut().push(len - seen.get());
                    seen.set(len);
                }
                false
            },
            SimTime::from_secs(6),
        );
        let batches = shared.borrow().batches();
        assert!(batches.len() > 1_000, "scenario produces real traffic");
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            sizes.take()
        );
        assert!(batches.concat() == rec.borrow().0, "batches reorder events");
        assert!(
            direct.batches() == batches,
            "direct and shared deliveries differ"
        );
    }
}

/// The streamed link timeline: rows enter the queue only when due, and
/// nothing observable — pop order, pending counts, the sampler's depth
/// gauge — can tell.
#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::context::Context;
    use crate::protocol::WireMsg;
    use mnp_radio::PowerLevel;
    use mnp_sim::SimDuration;
    use mnp_topology::mobility::{materialize, Field, MobilityModel};
    use mnp_topology::Placement;
    use mnp_trace::MsgClass;
    use std::cell::Cell;

    #[derive(Clone, Copy, Debug)]
    struct Word;

    impl WireMsg for Word {
        fn wire_bytes(&self) -> usize {
            4
        }
        fn class(&self) -> MsgClass {
            MsgClass::Data
        }
    }

    /// Records every observable event verbatim.
    #[derive(Debug, Default)]
    struct Rec(Vec<ObsEvent>);

    impl Observer for Rec {
        fn on_event(&mut self, ev: &ObsEvent) {
            self.0.push(*ev);
        }
    }

    impl<P: Protocol> Network<P> {
        /// Events actually sitting in the queue (unfed timeline rows
        /// excluded).
        fn queued(&self) -> usize {
            self.kernel.queue.len()
        }
    }

    /// A bidirectional line of `n` nodes, loss-free.
    fn line(n: usize) -> LinkTable {
        let mut links = LinkTable::new(n);
        for i in 0..n - 1 {
            let (a, b) = (NodeId::from_index(i), NodeId::from_index(i + 1));
            links.connect(a, b, 0.0);
            links.connect(b, a, 0.0);
        }
        links
    }

    /// Keeps one timer pending per node (first at `first`, then every
    /// `every`), never transmits.
    struct Heartbeat {
        first: SimDuration,
        every: SimDuration,
    }

    impl Protocol for Heartbeat {
        type Msg = Word;
        fn on_start(&mut self, ctx: &mut Context<'_, Word>) {
            ctx.set_timer(self.first, 0);
        }
        fn on_message(&mut self, _: &mut Context<'_, Word>, _: NodeId, _: &Word) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Word>, _: u64) {
            ctx.set_timer(self.every, 0);
        }
    }

    /// Schedules nothing at all.
    struct Inert;

    impl Protocol for Inert {
        type Msg = Word;
        fn on_start(&mut self, _: &mut Context<'_, Word>) {}
        fn on_message(&mut self, _: &mut Context<'_, Word>, _: NodeId, _: &Word) {}
        fn on_timer(&mut self, _: &mut Context<'_, Word>, _: u64) {}
    }

    #[test]
    fn event_stays_two_words() {
        // `SetLink` carries a row index where it carried a `Box`; the
        // variant swap must not widen the entries the queue moves around.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn the_queue_holds_only_due_rows_and_pending_counts_the_rest() {
        const N: usize = 6;
        // 40 scheduled changes on the forward edges, one per 100 ms, each a
        // real change; two flaps on reverse edges (a start and a restore
        // row each) off the 100 ms grid; five node-level fault events.
        let schedule: Vec<LinkChange> = (0..40u32)
            .map(|i| LinkChange {
                at: SimTime::from_millis(100 * (u64::from(i) + 1)),
                from: NodeId(i % 5),
                to: NodeId(i % 5 + 1),
                ber: 0.01 * f64::from(i + 1),
            })
            .collect();
        let plan = || {
            FaultPlan::seeded(1)
                .link_flap(
                    NodeId(3),
                    NodeId(2),
                    SimTime::from_millis(1_050),
                    SimDuration::from_millis(500),
                    1.0,
                )
                .link_flap(
                    NodeId(1),
                    NodeId(0),
                    SimTime::from_millis(2_050),
                    SimDuration::from_millis(700),
                    0.5,
                )
                .crash_restart(
                    NodeId(4),
                    SimTime::from_millis(500),
                    SimDuration::from_secs(1),
                )
                .crash_restart(
                    NodeId(1),
                    SimTime::from_secs(2),
                    SimDuration::from_millis(500),
                )
                .storage_faults(NodeId(5), SimTime::from_secs(3), 2)
        };
        const ROWS: usize = 44;
        const NODE_FAULTS: usize = 5;
        let mut net: Network<Inert> = NetworkBuilder::new(line(N), 3)
            .link_schedule(schedule.clone())
            .faults(plan())
            .build(|_, _| Inert);
        // What the queue held when every row was pre-loaded into it.
        let total = N + NODE_FAULTS + ROWS;
        assert_eq!(net.pending_events(), total);
        assert!(
            net.queued() <= N + NODE_FAULTS,
            "the queue holds {} events before the run",
            net.queued()
        );
        // Nothing schedules anything, so every dispatch — timeline rows
        // included — takes the pending count down by one, and the queue
        // never holds more than one (due) row.
        let steps = Cell::new(0u64);
        net.run_until(
            |n| {
                assert_eq!(
                    n.pending_events() as u64 + n.events_processed(),
                    total as u64
                );
                assert!(n.queued() <= N + NODE_FAULTS + 1);
                steps.set(steps.get() + 1);
                false
            },
            SimTime::from_secs(10),
        );
        assert_eq!(steps.get(), total as u64 + 2, "checked around every event");
        assert_eq!(net.pending_events(), 0);
        assert_eq!(net.queued(), 0);
        assert_eq!(net.events_processed(), total as u64);
        // The graph ends at the last scheduled rates with both flaps
        // restored.
        let graph: Vec<(Vec<NodeId>, Vec<f64>)> = (0..N)
            .map(|i| {
                net.medium()
                    .links()
                    .neighbors(NodeId::from_index(i))
                    .unzip()
            })
            .collect();
        let last = schedule.last().expect("forty changes");
        assert_eq!(graph[4], (vec![NodeId(3), last.to], vec![0.0, last.ber]));
        assert_eq!(graph[1], (vec![NodeId(0), NodeId(2)], vec![0.0, 0.37]));
    }

    /// A small random-waypoint field resolved over `horizon`: the
    /// potential-edge link table and its link schedule.
    fn mobile(nodes: usize, horizon: SimDuration, seed: u64) -> (LinkTable, Vec<LinkChange>) {
        let rng = SimRng::new(seed);
        let side = (nodes as f64).sqrt() * 12.0;
        let initial = Placement::random(nodes, side, side, &mut rng.derive(0));
        let model = MobilityModel::RandomWaypoint {
            speed_ft_s: 2.0,
            pause_s: 30.0,
        };
        let plan = model.plan(
            &initial,
            Field::new(side, side),
            horizon,
            SimDuration::from_secs(10),
            &rng.derive(1),
        );
        let topo = materialize(&initial, &plan, PowerLevel::FULL, &mut rng.derive(2));
        (topo.topology.links, topo.updates.iter().collect())
    }

    #[test]
    fn the_sampled_depth_counts_rows_that_are_not_queued_yet() {
        const N: usize = 8;
        let (links, schedule) = mobile(N, SimDuration::from_secs(600), 9);
        let rows = schedule.len();
        assert!(rows > 500, "the field moves: {rows} link changes");
        let sampler = Shared::new(TimeSeriesSampler::new(SimDuration::from_secs(1), 4096));
        let rec = Shared::new(Rec::default());
        let mut net: Network<Heartbeat> = NetworkBuilder::new(links, 5)
            .link_schedule(schedule)
            .timeseries(sampler.clone())
            .observer(rec.clone())
            .build(|_, _| Heartbeat {
                first: SimDuration::from_millis(130),
                every: SimDuration::from_millis(250),
            });
        net.run_to_deadline(SimTime::from_secs(300));
        // The kernel's events, in dispatch order: N starts, then one
        // `TimerFire` per timer and one `LinkChanged` per row. A queue with
        // every row pre-loaded holds one timer per node plus the rows not
        // dispatched yet — whatever share of them the feed has moved.
        let rec = rec.borrow();
        let dispatched: Vec<bool> = rec
            .0
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::TimerFire { .. } => Some(false),
                EventKind::LinkChanged { .. } => Some(true),
                _ => None,
            })
            .collect();
        assert_eq!(dispatched.len() as u64, net.events_processed() - N as u64);
        let sampler = sampler.borrow();
        assert!(sampler.len() > 250);
        let mut rows_done = 0;
        let mut seen = 0;
        for s in sampler.samples() {
            let upto = s.events as usize - N;
            rows_done += dispatched[seen..upto].iter().filter(|&&row| row).count();
            seen = upto;
            assert_eq!(
                s.queue_depth as usize,
                N + rows - rows_done,
                "depth at t = {} us",
                s.t_us
            );
        }
        assert!(rows_done > 100 && rows_done < rows, "sampled mid-schedule");
    }

    #[test]
    fn same_instant_rows_flaps_and_timers_keep_their_order() {
        // At t = 1 s node 1 owns a motion row (1 -> 2), a flap start
        // (1 -> 0) and a timer; node 2 owns a motion row (2 -> 1); every
        // node's timer fires. Rows carry build-time sequence numbers, so on
        // their owner they precede anything the run scheduled; among
        // themselves they go by edge.
        let at = SimTime::from_secs(1);
        let run = |tie: TieBreak| {
            let change = |from: u32, to: u32| LinkChange {
                at,
                from: NodeId(from),
                to: NodeId(to),
                ber: 0.25,
            };
            let rec = Shared::new(Rec::default());
            let mut net: Network<Heartbeat> = NetworkBuilder::new(line(4), 11)
                .tie_break(tie)
                .observer(rec.clone())
                .link_schedule(vec![change(2, 1), change(1, 2)])
                .faults(FaultPlan::seeded(2).link_flap(
                    NodeId(1),
                    NodeId(0),
                    at,
                    SimDuration::from_secs(1),
                    1.0,
                ))
                .build(|_, _| Heartbeat {
                    first: SimDuration::from_secs(1),
                    every: SimDuration::from_secs(5),
                });
            net.run_to_deadline(SimTime::from_secs(3));
            let rec = rec.borrow();
            rec.0
                .iter()
                .filter(|ev| ev.t == at)
                .filter_map(|ev| match ev.kind {
                    EventKind::TimerFire { .. } => Some(format!("{} timer", ev.node.0)),
                    EventKind::LinkFault { to, .. } => {
                        Some(format!("{} fault {}", ev.node.0, to.0))
                    }
                    EventKind::LinkChanged { to, .. } => {
                        Some(format!("{} moved {}", ev.node.0, to.0))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let fifo = run(TieBreak::Fifo);
        assert_eq!(
            fifo,
            [
                "0 timer",
                "1 fault 0",
                "1 moved 2",
                "1 timer",
                "2 moved 1",
                "2 timer",
                "3 timer"
            ]
        );
        let permuted = run(TieBreak::SeededPermutation(77));
        assert_ne!(permuted, fifo, "seed 77 reorders the four owners");
        let of_node_1: Vec<&String> = permuted.iter().filter(|e| e.starts_with('1')).collect();
        assert_eq!(of_node_1, ["1 fault 0", "1 moved 2", "1 timer"]);
    }

    /// FNV-1a over the `Debug` form of every event an observer saw.
    fn digest(events: &[ObsEvent]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for ev in events {
            for b in format!("{ev:?}\n").bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn motion_flaps_and_churn_replay_their_frozen_bytes() {
        // Every path of the timeline resolver in one run: a materialized
        // motion schedule (many owners change links at each 10 s tick),
        // two overlapping flaps on an edge that moves, one of them
        // starting on a tick, a flap on a second moving edge, an unsorted
        // second schedule that changes one edge twice at one instant
        // (the later change wins), and crash–restart churn.
        const N: usize = 8;
        let run = |tie: TieBreak| {
            let (links, schedule) = mobile(N, SimDuration::from_secs(300), 9);
            let (a, b) = (schedule[0].from, schedule[0].to);
            let (c, d) = (schedule[1].from, schedule[1].to);
            let change = |ms: u64, from: NodeId, to: NodeId, ber: f64| LinkChange {
                at: SimTime::from_millis(ms),
                from,
                to,
                ber,
            };
            let extra = vec![
                change(35_500, a, b, 0.3),
                change(12_500, c, d, 0.02),
                change(35_500, b, a, 0.1),
                change(35_500, a, b, 0.6),
                change(20_000, c, d, 0.05),
            ];
            let plan = FaultPlan::seeded(4)
                .link_flap(
                    a,
                    b,
                    SimTime::from_secs(20),
                    SimDuration::from_secs(25),
                    1.0,
                )
                .link_flap(
                    a,
                    b,
                    SimTime::from_millis(30_250),
                    SimDuration::from_secs(5),
                    0.5,
                )
                .link_flap(
                    c,
                    d,
                    SimTime::from_millis(15_000),
                    SimDuration::from_millis(5_000),
                    0.9,
                )
                .crash_restart(NodeId(3), SimTime::from_secs(12), SimDuration::from_secs(9))
                .crash_restart(
                    NodeId(5),
                    SimTime::from_secs(30),
                    SimDuration::from_secs(40),
                );
            let rec = Shared::new(Rec::default());
            let mut net: Network<Spread> = NetworkBuilder::new(links, 17)
                .tie_break(tie)
                .link_schedule(schedule)
                .link_schedule(extra)
                .faults(plan)
                .observer(rec.clone())
                .build(|id, _| Spread {
                    has: id == NodeId(0),
                });
            net.run_to_deadline(SimTime::from_secs(120));
            let rec = rec.borrow();
            (rec.0.len(), digest(&rec.0))
        };
        assert_eq!(run(TieBreak::Fifo), (8076, 8522425846162925958));
        assert_eq!(
            run(TieBreak::SeededPermutation(5)),
            (8076, 15891128287084253816)
        );
    }

    /// A fed timeline row: `(at, owner, seq, from, to, ber, kind)`.
    type Fed = (SimTime, NodeId, u32, NodeId, NodeId, f64, LinkEventKind);

    /// The eager resolver the in-place one replaced, kept as the reference:
    /// it sorts a copy of the schedule, sweeps the marks of the schedule and
    /// the flaps merged, and draws each row's sequence number from `seqs`
    /// (the owners' next numbers) as it emits the row.
    fn eager_rows(
        links: &LinkTable,
        schedule: &[LinkChange],
        flaps: &[Flap],
        seqs: &mut [u32],
    ) -> Vec<Fed> {
        #[derive(Clone, Copy)]
        enum Eager {
            Move(f64),
            Start(u32, f64),
            End(u32),
        }
        let mut marks: Vec<(SimTime, NodeId, NodeId, u8, Eager)> = schedule
            .iter()
            .map(|c| (c.at, c.from, c.to, 0, Eager::Move(c.ber)))
            .collect();
        let mut flapped: BTreeMap<(NodeId, NodeId), Flapped> = BTreeMap::new();
        for (id, &(from, to, start, end, ber)) in flaps.iter().enumerate() {
            marks.push((start, from, to, 1, Eager::Start(id as u32, ber)));
            marks.push((end, from, to, 2, Eager::End(id as u32)));
            flapped.entry((from, to)).or_insert_with(|| Flapped {
                base: links.ber(from, to).unwrap(),
                active: Vec::new(),
            });
        }
        marks.sort_by_key(|&(at, from, to, class, _)| (at, from, to, class));
        let mut applied = links.clone();
        let mut rows = Vec::new();
        let mut marks = marks.into_iter().peekable();
        while let Some(&(at, from, to, ..)) = marks.peek() {
            let mut edge = flapped.get_mut(&(from, to));
            let (mut moved, mut started, mut ended) = (None, false, false);
            while let Some((.., mark)) = marks.next_if(|m| (m.0, m.1, m.2) == (at, from, to)) {
                match (mark, &mut edge) {
                    (Eager::Move(ber), _) => moved = Some(ber),
                    (Eager::Start(id, ber), Some(edge)) => {
                        edge.active.push((id, ber));
                        started = true;
                    }
                    (Eager::End(id), Some(edge)) => {
                        edge.active.retain(|&(a, _)| a != id);
                        ended = true;
                    }
                    (_, None) => unreachable!(),
                }
            }
            let was = applied.ber(from, to).unwrap();
            let (now, faulted) = match edge {
                None => (moved.unwrap_or(was), false),
                Some(edge) => {
                    edge.base = moved.unwrap_or(edge.base);
                    let now = edge.active.last().map_or(edge.base, |&(_, ber)| ber);
                    (now, !edge.active.is_empty())
                }
            };
            if now != was || started {
                let kind = if faulted {
                    LinkEventKind::Fault
                } else if ended {
                    LinkEventKind::Restore
                } else {
                    LinkEventKind::Motion
                };
                let seq = seqs[from.index()];
                seqs[from.index()] += 1;
                rows.push((at, from, seq, from, to, now, kind));
                applied.set_ber(from, to, now);
            }
        }
        rows
    }

    #[test]
    fn fed_rows_match_the_eager_resolver() {
        mnp_sim::check("fed_rows_match_the_eager_resolver", 200, |rng| {
            let n = rng.index(7) + 2;
            // Few distinct rates and instants, so no-op changes, same-instant
            // marks and coinciding flap ends all happen.
            const RATES: [f64; 4] = [0.0, 0.01, 0.5, 1.0];
            let mut edges = Vec::new();
            let links = LinkTable::from_rows(n, |from, row| {
                for to in (0..n).map(NodeId::from_index) {
                    if to != from && (rng.chance(0.5) || (from.0, to.0) == (0, 1)) {
                        row.push((to, RATES[rng.index(4)]));
                        edges.push((from, to));
                    }
                }
            });
            let instant = |rng: &mut SimRng| SimTime::from_millis(250 * rng.range_u64(0, 16));
            let mut schedule: Vec<LinkChange> = (0..rng.index(60))
                .map(|_| {
                    let (from, to) = edges[rng.index(edges.len())];
                    LinkChange {
                        at: instant(rng),
                        from,
                        to,
                        ber: RATES[rng.index(4)],
                    }
                })
                .collect();
            if rng.chance(0.5) {
                schedule.sort_by_key(|c| (c.at, c.from, c.to));
            }
            let mut plan = FaultPlan::seeded(rng.next_u64());
            let mut seqs = vec![1u32; n];
            for _ in 0..rng.index(6) {
                let (from, to) = edges[rng.index(edges.len())];
                let duration = SimDuration::from_millis(250 * rng.range_u64(1, 8));
                plan = plan.link_flap(from, to, instant(rng), duration, RATES[rng.index(4)]);
            }
            for _ in 0..rng.index(3) {
                let node = NodeId::from_index(rng.index(n));
                plan = plan.crash_restart(node, instant(rng), SimDuration::from_secs(1));
                seqs[node.index()] += 2;
            }
            let flaps: Vec<Flap> = plan
                .faults()
                .iter()
                .filter_map(|f| match *f {
                    PlannedFault::LinkFlap {
                        from,
                        to,
                        at,
                        duration,
                        ber,
                    } => Some((from, to, at, at + duration, ber)),
                    _ => None,
                })
                .collect();
            let mut want = eager_rows(&links, &schedule, &flaps, &mut seqs);
            let tie = if rng.chance(0.5) {
                TieBreak::Fifo
            } else {
                TieBreak::SeededPermutation(rng.next_u64())
            };
            let mut net: Network<Inert> = NetworkBuilder::new(links, 1)
                .tie_break(tie)
                .link_schedule(schedule)
                .faults(plan)
                .build(|_, _| Inert);
            // Feed and pop without dispatching: nothing else is scheduled,
            // and every popped `SetLink` shows the rank it was fed under.
            let kernel = &mut net.kernel;
            let mut fed = Vec::new();
            while kernel.peek_time().is_some() {
                let popped = kernel.queue.pop_ranked().expect("peeked");
                if let Event::SetLink(row) = popped.event {
                    let (c, kind) = kernel.timeline.row(row);
                    let owner = NodeId((popped.owner_key >> 32) as u32);
                    let seq = popped.owner_key as u32;
                    fed.push((popped.time, owner, seq, c.from, c.to, c.ber, kind));
                }
            }
            let rank = |r: &Fed| (r.0, r.1, r.2);
            fed.sort_by_key(rank);
            want.sort_by_key(rank);
            assert_eq!(fed, want);
            // The blocks end where the per-row draws ended.
            for (i, &next) in seqs.iter().enumerate() {
                assert_eq!(kernel.nodes.next_seq(NodeId::from_index(i)), next);
            }
        });
    }

    #[test]
    fn only_a_run_with_rows_holds_owner_blocks_and_only_flaps_keep_kinds() {
        let build = |schedule: Vec<LinkChange>, plan: FaultPlan| {
            NetworkBuilder::new(line(4), 1)
                .link_schedule(schedule)
                .faults(plan)
                .build(|_, _| Inert)
                .kernel
                .timeline
        };
        let change = LinkChange {
            at: SimTime::from_secs(1),
            from: NodeId(1),
            to: NodeId(2),
            ber: 0.5,
        };
        let churn = FaultPlan::seeded(1).crash_restart(
            NodeId(2),
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
        );
        let fixed = build(Vec::new(), churn);
        assert_eq!(fixed.rows.capacity(), 0);
        assert_eq!(fixed.seqs.capacity(), 0);
        assert_eq!(fixed.kinds.capacity(), 0);
        let moving = build(vec![change], FaultPlan::seeded(1));
        assert_eq!(moving.rows.len(), 1);
        assert_eq!(moving.seqs, [1, 1, 1, 1]);
        assert_eq!(moving.kinds.capacity(), 0);
        let flap = FaultPlan::seeded(1).link_flap(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
            1.0,
        );
        let flapped = build(vec![change], flap);
        assert_eq!(flapped.rows.len(), 3);
        let kinds: Vec<LinkEventKind> = (0..3).map(|row| flapped.row(row).1).collect();
        assert_eq!(
            kinds,
            [
                LinkEventKind::Motion,
                LinkEventKind::Fault,
                LinkEventKind::Restore
            ]
        );
        assert_eq!(flapped.kinds.len(), 2, "motion rows keep no kind");
    }

    /// Epidemic: a node holding the word broadcasts it every second until
    /// the run ends; hearing it once completes a node.
    struct Spread {
        has: bool,
    }

    impl Protocol for Spread {
        type Msg = Word;
        fn on_start(&mut self, ctx: &mut Context<'_, Word>) {
            if self.has {
                ctx.note_completion();
                ctx.set_timer(SimDuration::from_millis(500), 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Word>, _: NodeId, _: &Word) {
            if !self.has {
                self.has = true;
                ctx.note_completion();
                let jitter = ctx.rng.range_u64(100, 900);
                ctx.set_timer(SimDuration::from_millis(jitter), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Word>, _: u64) {
            ctx.send(Word);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, Word>) {
            if self.has {
                ctx.set_timer(SimDuration::from_millis(500), 0);
            }
        }
    }

    #[test]
    fn a_four_hour_motion_horizon_costs_the_run_nothing() {
        // The horizon ISSUE 11 had to cut: 36 random-waypoint nodes, 4 h of
        // motion at a 10 s tick, over a million link changes — for a run
        // that is over in simulated seconds.
        const N: usize = 36;
        const CHURN: usize = 3;
        let (links, schedule) = mobile(N, SimDuration::from_secs(4 * 3_600), 42);
        assert!(
            schedule.len() > 1_000_000,
            "{} link changes",
            schedule.len()
        );
        let mut per_instant = 0;
        for run in schedule.chunk_by(|a, b| a.at == b.at) {
            per_instant = per_instant.max(run.len());
        }
        let candidates: Vec<NodeId> = (1..N).map(NodeId::from_index).collect();
        let plan = FaultPlan::seeded(42).random_crash_restarts(
            CHURN,
            &candidates,
            (SimTime::from_secs(30), SimTime::from_secs(4 * 3_600)),
            (SimDuration::from_secs(60), SimDuration::from_secs(600)),
        );
        let mut net: Network<Spread> = NetworkBuilder::new(links, 42)
            .link_schedule(schedule)
            .faults(plan)
            .build(|id, _| Spread {
                has: id == NodeId(0),
            });
        // A node has at most a timer, a MAC attempt and one frame's three
        // lifecycle events outstanding; the timeline adds the rows of one
        // instant, never the horizon's.
        let peak = Cell::new(0);
        let done = net.run_until(
            |n| {
                peak.set(peak.get().max(n.queued()));
                n.trace().all_complete()
            },
            SimTime::from_secs(4 * 3_600),
        );
        assert!(done, "the word reaches every node");
        assert!(
            peak.get() <= 5 * N + 2 * CHURN + per_instant,
            "live queue peaked at {} events",
            peak.get()
        );
        assert!(net.pending_events() > 1_000_000, "rows left unfed");
    }
}
