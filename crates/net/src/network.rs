//! The deterministic event-loop runner, sequential or sharded.
//!
//! A [`NetworkBuilder`] partitions the node space into `shards(n)`
//! contiguous ranges, each a self-contained `Shard` (queue, medium
//! view, MACs, protocols, RNG streams). With one shard the [`Network`]
//! facade dispatches events one at a time, exactly as the kernel always
//! has; with several it drives the shards in lockstep time windows one
//! [`PERCEPTION_LATENCY`] wide on scoped worker threads, exchanges
//! boundary transmissions at the window barriers, and merges the
//! per-shard event streams back into the sequential order by their
//! placement-independent queue ranks — so a seeded run emits the same
//! observable event stream byte for byte at every shard count. See the
//! module docs of [`crate::shard`] for why the window width makes that
//! merge exact.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Barrier, Mutex};

use mnp_obs::{EventKind, ObsEvent, Observer, Shared, TimeSeriesSampler};
use mnp_radio::{
    CsmaBank, CsmaConfig, FlatLinks, LinkTable, Medium, MediumStats, NodeId, TxOutcome,
    PERCEPTION_LATENCY,
};
use mnp_sim::profile::{self, Phase};
use mnp_sim::{EventQueue, SimDuration, SimRng, SimTime, TieBreak};
use mnp_trace::RunTrace;

use crate::fault::{FaultPlan, FaultPlanError, PlannedFault};
use crate::nodes::NodeArena;
use crate::protocol::Protocol;
use crate::shard::{Boundary, Chunk, Event, LinkEventKind, LinkRow, Outbound, Shard};

/// One scheduled base-quality change of a directed link: at `at`, the
/// edge `from -> to` takes bit-error rate `ber`.
///
/// A link schedule is how mobility reaches the kernel: node motion is
/// resolved into per-edge BER changes before the run starts (see
/// `mnp-topology`'s mobility module) and attached through
/// [`NetworkBuilder::link_schedule`]. Every named edge must exist in the
/// builder's link graph — a mobile topology pre-materializes its
/// *potential-edge set* (every pair that ever comes within audible range
/// over the motion envelope, held at BER 1.0 while disconnected)
/// precisely so that every future change lands on a known edge and the
/// frozen CSR link storage never has to grow mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkChange {
    /// When the change applies.
    pub at: SimTime,
    /// Transmitting end of the changed edge.
    pub from: NodeId,
    /// Receiving end of the changed edge.
    pub to: NodeId,
    /// The new base bit-error rate (1.0 = out of range).
    pub ber: f64,
}

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
    shards: usize,
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
            shards: 1,
        }
    }

    /// Splits the simulation into `shards` contiguous node ranges run on
    /// one worker thread each (default 1: the classic sequential kernel).
    ///
    /// Sharding changes *how* the schedule is executed, never the
    /// schedule itself: a seeded run produces the same events, traces,
    /// meters and protocol state at every shard count. Values are
    /// clamped to `1..=64` and to the node count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
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
    /// rank from then on; every shard streams the shared rows into its
    /// queue as they come due, so the queue's size follows the events in
    /// flight, not the length of the schedule — and a mobile run replays
    /// byte-for-byte under the same seed and schedule, at any shard count.
    ///
    /// Changes compose with [`FaultPlan`] link flaps: a scheduled change
    /// while a flap holds the edge updates the rate the flap will
    /// eventually restore to, without disturbing the fault. Called more
    /// than once, schedules accumulate. Validated with the fault plan at
    /// build time: unknown nodes and edges outside the (potential) link
    /// set are rejected with a typed [`FaultPlanError`].
    pub fn link_schedule(mut self, schedule: Vec<LinkChange>) -> Self {
        self.link_schedule.extend(schedule);
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
    /// run stays byte-identical with or without a sampler attached. (The
    /// queue-depth *gauge* is the one reading that is coarser on a
    /// sharded run — events are counted at window granularity — while
    /// everything observable stays identical.)
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
        for c in &self.link_schedule {
            for node in [c.from, c.to] {
                if node.index() >= self.links.len() {
                    return Err(FaultPlanError::UnknownNode {
                        node,
                        nodes: self.links.len(),
                    });
                }
            }
            if self.links.ber(c.from, c.to).is_none() {
                return Err(FaultPlanError::MissingEdge {
                    from: c.from,
                    to: c.to,
                });
            }
        }
        // Validated: freeze the graph and drop the table *before* anything
        // else allocates. This CSR is the only form the run holds; freeing
        // the table's rows after the protocols were built left holes among
        // them that the run's small allocations landed in (`grid80`
        // `wall_s` +3 %).
        let links = FlatLinks::from_table(&self.links);
        drop(self.links);
        let n = links.len();
        // At most one shard per node, at most 64 (destination masks are
        // one u64 bit per shard).
        let s = self.shards.clamp(1, 64).min(n.max(1));
        let bounds: Vec<usize> = (0..=s).map(|k| k * n / s).collect();
        let shard_of = |i: usize| bounds.partition_point(|&b| b <= i) - 1;
        // All RNG streams derive from the global root by *global* node
        // index, so the draws a node sees are independent of the
        // partition.
        let root = SimRng::new(self.seed);
        let mut node_rngs: Vec<SimRng> = (0..n).map(|i| root.derive(i as u64)).collect();
        let mac_rngs: Vec<SimRng> = (0..n).map(|i| root.derive(1_000_000 + i as u64)).collect();
        let medium_rng = root.derive(u64::MAX);
        let protocols: Vec<P> = (0..n)
            .map(|i| make(NodeId::from_index(i), &mut node_rngs[i]))
            .collect();
        // The arena exists before the first event is scheduled: every
        // push consumes an owner sequence number from it, so each event's
        // (owner, seq) identity — and therefore its queue rank — is fixed
        // at schedule time, independent of which queue it lands in.
        let mut nodes = NodeArena::new(0, node_rngs, mac_rngs);
        let mut queues: Vec<EventQueue<Event>> = (0..s)
            .map(|_| EventQueue::with_tie_break(self.tie_break))
            .collect();
        for i in 0..n {
            let node = NodeId::from_index(i);
            queues[shard_of(i)].push_owned(
                SimTime::ZERO,
                node.0,
                nodes.next_seq(node),
                Event::Start(node),
            );
        }
        let timeline = {
            let _span = profile::span(Phase::FaultExpand);
            let push = |at: SimTime,
                        owner: NodeId,
                        ev: Event,
                        nodes: &mut NodeArena,
                        queues: &mut Vec<EventQueue<Event>>| {
                queues[shard_of(owner.index())].push_owned(at, owner.0, nodes.next_seq(owner), ev);
            };
            // Link flaps do not become queue events here: they interact
            // with the link schedule, so `link_timeline` resolves both.
            let mut flaps: Vec<Flap> = Vec::new();
            if let Some(plan) = &self.faults {
                for fault in plan.faults() {
                    match *fault {
                        PlannedFault::Kill { node, at } => {
                            push(at, node, Event::Kill(node), &mut nodes, &mut queues);
                        }
                        PlannedFault::CrashRestart { node, at, down_for } => {
                            push(at, node, Event::Kill(node), &mut nodes, &mut queues);
                            push(
                                at + down_for,
                                node,
                                Event::Restart(node),
                                &mut nodes,
                                &mut queues,
                            );
                        }
                        PlannedFault::LinkFlap {
                            from,
                            to,
                            at,
                            duration,
                            ber,
                        } => flaps.push((from, to, at, at + duration, ber)),
                        PlannedFault::StorageFaults { node, at, failures } => {
                            push(
                                at,
                                node,
                                Event::InjectStorage { node, failures },
                                &mut nodes,
                                &mut queues,
                            );
                        }
                    }
                }
            }
            link_timeline(&links, self.link_schedule, &flaps, &mut nodes)
        };
        // Which *other* shards can hear each node: bit k set when shard k
        // holds at least one out-neighbour. All-zero masks (the one-shard
        // case, or an interior node) keep the boundary machinery off the
        // hot path.
        let mut remote_mask = vec![0u64; n];
        if s > 1 {
            for (i, mask) in remote_mask.iter_mut().enumerate() {
                let home = shard_of(i);
                for to in links.neighbors(NodeId::from_index(i)).0 {
                    let d = shard_of(to.index());
                    if d != home {
                        *mask |= 1 << d;
                    }
                }
            }
        }
        let watched = !self.observers.is_empty();
        let arenas = nodes.split(&bounds);
        // Every shard holds the full graph: `s - 1` clones of three flat
        // arrays and the original.
        let link_copies = vec![links; s];
        let mut protocols = protocols.into_iter();
        let mut shards: Vec<Shard<P>> = Vec::with_capacity(s);
        for (((w, queue), arena), links) in
            bounds.windows(2).zip(queues).zip(arenas).zip(link_copies)
        {
            let (lo, hi) = (w[0], w[1]);
            let nk = hi - lo;
            // The per-receiver bit-error streams derive from the medium
            // RNG by global node index, exactly as the unsharded medium
            // derives them.
            let rx_rngs: Vec<SimRng> = (lo..hi).map(|i| medium_rng.derive(i as u64)).collect();
            let mut medium = Medium::sharded(links, lo, nk, rx_rngs);
            medium.set_capture(self.capture);
            shards.push(Shard {
                base: lo,
                n_local: nk,
                now: SimTime::ZERO,
                queue,
                timeline: timeline.clone(),
                fed: 0,
                medium,
                protocols: protocols.by_ref().take(nk).collect(),
                macs: CsmaBank::new(CsmaConfig::default(), nk),
                nodes: arena,
                outcome_scratch: TxOutcome::new(),
                ops_scratch: Vec::new(),
                watched,
                obs_buf: Vec::new(),
                chunks: Vec::new(),
                outbox: Vec::new(),
                remote_mask: remote_mask[lo..hi].to_vec(),
                ghosts: Vec::new(),
            });
        }
        // One branch per event decides whether to sample; SimTime::MAX
        // means "never" when no sampler is attached.
        let next_sample_at = self
            .sampler
            .as_ref()
            .map_or(SimTime::MAX, |s| SimTime::ZERO + s.borrow().interval());
        let mut net = Network {
            shards,
            bounds,
            now: SimTime::ZERO,
            trace: RunTrace::new(n),
            events_processed: 0,
            observers: self.observers,
            run_ended: false,
            sampler: self.sampler,
            next_sample_at,
            merged: Merged::default(),
        };
        // Report each node's initial state so timelines start at t = 0.
        let Network {
            shards,
            trace,
            observers,
            ..
        } = &mut net;
        if !observers.is_empty() {
            for shard in shards.iter() {
                for (i, p) in shard.protocols.iter().enumerate() {
                    let ev = ObsEvent {
                        t: SimTime::ZERO,
                        node: NodeId::from_index(shard.base + i),
                        kind: EventKind::State {
                            from: "",
                            to: p.state_label(),
                        },
                    };
                    Observer::on_event(trace, &ev);
                    for obs in observers.iter_mut() {
                        obs.on_event(&ev);
                    }
                }
            }
        }
        Ok(net)
    }
}

/// A planned link flap: `(from, to, start, end, degraded BER)`.
type Flap = (NodeId, NodeId, SimTime, SimTime, f64);

/// One mark on an edge's timeline.
#[derive(Clone, Copy)]
enum Mark {
    /// A scheduled change of the edge's base rate.
    Move(f64),
    /// Flap `id` starts degrading the edge.
    FlapStart(u32, f64),
    /// Flap `id` expires.
    FlapEnd(u32),
}

/// A mark with its sort key: `(instant, from, to, class, mark)`. The
/// class makes same-instant resolution on one edge well-defined: base
/// moves apply first, then flap starts, then flap ends — so a flap
/// starting exactly as another ends keeps the edge faulted, and a flap
/// ending at the instant of a base change restores to the new base.
type Placed = (SimTime, NodeId, NodeId, u8, Mark);

fn placed_key(&(at, from, to, class, _): &Placed) -> (SimTime, NodeId, NodeId, u8) {
    (at, from, to, class)
}

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
/// timeline: the BER each edge actually carries at each instant, one
/// [`LinkRow`] per applied change, in `(instant, from, to)` order.
///
/// Flaps and scheduled (mobility) changes of one edge interact —
/// overlapping flaps must not end each other early, and a flap must
/// restore to the base rate as of its *end*, not the pristine rate — so
/// all marks of one edge at one instant are resolved together. Each row
/// draws `from`'s next owner sequence number here, which fixes its queue
/// rank before the run, whenever a shard feeds it.
fn link_timeline(
    links: &FlatLinks,
    mut schedule: Vec<LinkChange>,
    flaps: &[Flap],
    nodes: &mut NodeArena,
) -> Arc<[LinkRow]> {
    if schedule.is_empty() && flaps.is_empty() {
        // A static run: skip the per-edge rate table below.
        return Arc::new([]);
    }
    // Stable, so same-instant moves of one edge keep their schedule order
    // (the last one wins). A mobility schedule arrives in this order
    // already, which the sort detects in one pass.
    schedule.sort_by_key(|c| (c.at, c.from, c.to));
    let mut moves = schedule
        .iter()
        .map(|c| (c.at, c.from, c.to, 0, Mark::Move(c.ber)))
        .peekable();
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
    flap_marks.sort_by_key(placed_key);
    let mut flap_marks = flap_marks.into_iter().peekable();
    // The two sorted streams merged (classes keep their keys distinct).
    let mut marks = std::iter::from_fn(|| match (moves.peek(), flap_marks.peek()) {
        (Some(m), Some(f)) if placed_key(f) < placed_key(m) => flap_marks.next(),
        (Some(_), _) => moves.next(),
        (None, _) => flap_marks.next(),
    })
    .peekable();
    // The rate every edge carries as the sweep advances.
    let mut applied = links.clone();
    let mut rows = Vec::with_capacity(schedule.len() + 2 * flaps.len());
    while let Some(&(at, from, to, ..)) = marks.peek() {
        let mut edge = flapped.get_mut(&(from, to));
        let (mut moved, mut started, mut ended) = (None, false, false);
        while let Some((.., mark)) = marks.next_if(|m| (m.0, m.1, m.2) == (at, from, to)) {
            match (mark, &mut edge) {
                (Mark::Move(ber), _) => moved = Some(ber),
                (Mark::FlapStart(id, ber), Some(edge)) => {
                    edge.active.push((id, ber));
                    started = true;
                }
                (Mark::FlapEnd(id), Some(edge)) => {
                    edge.active.retain(|&(a, _)| a != id);
                    ended = true;
                }
                (_, None) => unreachable!("every flap's edge is in `flapped`"),
            }
        }
        let was = applied
            .ber(from, to)
            .expect("schedule and plan validated against this graph");
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
            let kind = if faulted {
                LinkEventKind::Fault
            } else if ended {
                LinkEventKind::Restore
            } else {
                LinkEventKind::Motion
            };
            rows.push(LinkRow {
                at,
                seq: nodes.next_seq(from),
                from,
                to,
                ber: now,
                kind,
            });
            applied.set_ber(from, to, now);
        }
    }
    assert!(
        u32::try_from(rows.len()).is_ok(),
        "link timeline rows are indexed by u32"
    );
    // The conversion copies the rows; do not hold the schedule across it.
    drop(marks);
    drop(schedule);
    rows.into()
}

/// One merged, not-yet-delivered dispatched event replica: its timestamp,
/// how many buffered [`ObsEvent`]s it produced, and whether it counts
/// toward `events_processed`. The owner key identifies the *logical*
/// event: a cross-shard transmission event dispatches once per involved
/// shard, and all its replicas (adjacent in merge order — they share a
/// full rank) carry the same owner key, exactly one of them counted.
#[derive(Clone, Copy, Debug)]
struct ReplayCell {
    time: SimTime,
    owner_key: u64,
    obs_len: u32,
    counted: bool,
}

/// The windowed driver's merge output, replayed in order by
/// [`drain_replay`]. Cells (and their observable events) survive an early
/// completion exit here, so a later run call resumes mid-window exactly
/// where the previous one stopped.
#[derive(Debug, Default)]
struct Merged {
    cells: VecDeque<ReplayCell>,
    obs: VecDeque<ObsEvent>,
}

/// One worker's per-window output, swapped (never copied) through a
/// mutex at the window barrier.
#[derive(Debug)]
struct WindowSlot<M> {
    chunks: Vec<Chunk>,
    obs: Vec<ObsEvent>,
    outbox: Vec<Outbound<M>>,
    peek: Option<SimTime>,
    qlen: usize,
}

impl<M> Default for WindowSlot<M> {
    fn default() -> Self {
        WindowSlot {
            chunks: Vec::new(),
            obs: Vec::new(),
            outbox: Vec::new(),
            peek: None,
            qlen: 0,
        }
    }
}

/// The coordinator's per-window command to every worker.
#[derive(Clone, Copy, Debug)]
struct WindowCmd {
    end: SimTime,
    stop: bool,
}

/// A running simulated network of `P`-protocol nodes.
///
/// This plays the role TOSSIM played for the paper: it owns the virtual
/// clock, the run trace and the observers, and drives one or more
/// `Shard`s — each holding its slice of the medium, MACs, protocols
/// and per-node state — until a predicate holds or a deadline passes.
#[derive(Debug)]
pub struct Network<P: Protocol> {
    shards: Vec<Shard<P>>,
    /// The node-range partition: shard `k` owns `bounds[k] .. bounds[k+1]`.
    bounds: Vec<usize>,
    /// The facade clock: the timestamp of the last *delivered* event. On
    /// a sharded run individual shards run ahead of this within a window.
    now: SimTime,
    trace: RunTrace,
    events_processed: u64,
    observers: Vec<Box<dyn Observer + Send>>,
    run_ended: bool,
    /// Time-series sampler, fed kernel gauges at its cadence.
    sampler: Option<Shared<TimeSeriesSampler>>,
    /// Next instant to sample at; `SimTime::MAX` when no sampler is
    /// attached, so the run loop pays one comparison per event.
    next_sample_at: SimTime,
    /// Merged-but-undelivered windowed output (empty on sequential runs).
    merged: Merged,
}

/// Compile-time proof that the kernel is `Send` for every protocol: no
/// `Rc`, `RefCell`, or other thread-bound type anywhere in its state, so a
/// whole simulation — or one shard of one — can be handed to a worker
/// thread. (`tests/send.rs` instantiates this for the real protocols.)
#[allow(dead_code)]
fn _network_is_send<P: Protocol>() {
    fn assert_send<T: Send>() {}
    assert_send::<Network<P>>();
}

impl<P: Protocol> Network<P> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("bounds always non-empty")
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards the node space is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The run trace collected so far.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// The shard owning `node`.
    fn shard_of(&self, node: NodeId) -> usize {
        self.bounds.partition_point(|&b| b <= node.index()) - 1
    }

    /// One node's protocol state (for assertions and experiment readouts).
    pub fn protocol(&self, node: NodeId) -> &P {
        let shard = &self.shards[self.shard_of(node)];
        &shard.protocols[node.index() - shard.base]
    }

    /// The whole-network medium (for link/stat queries).
    ///
    /// # Panics
    ///
    /// Panics on a sharded network — no single medium sees every node;
    /// use [`Network::medium_stats`] / [`Network::active_radio_time`]
    /// there.
    pub fn medium(&self) -> &Medium<P::Msg> {
        assert_eq!(
            self.shards.len(),
            1,
            "medium() is the whole-network view; on a sharded run query \
             medium_stats()/active_radio_time() per node instead"
        );
        &self.shards[0].medium
    }

    /// One node's physical-layer counters, whichever shard owns it.
    pub fn medium_stats(&self, node: NodeId) -> MediumStats {
        self.shards[self.shard_of(node)].medium.stats(node)
    }

    /// One node's cumulative radio-on time as of `at`, whichever shard
    /// owns it.
    pub fn active_radio_time(&self, node: NodeId, at: SimTime) -> SimDuration {
        self.shards[self.shard_of(node)]
            .medium
            .active_radio_time(node, at)
    }

    /// One node's energy meter. Call [`Network::finalize_meters`] first to
    /// fold in active radio time and EEPROM counts.
    pub fn meter(&self, node: NodeId) -> &mnp_energy::EnergyMeter {
        self.shards[self.shard_of(node)].nodes.meter(node)
    }

    /// Total events processed (a proxy for simulation effort; identical
    /// at every shard count — replicated boundary copies count once).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events still pending across all shards — queued, or link-timeline
    /// rows not yet due — plus any merged but not yet delivered. Zero
    /// means the simulation has nothing left to do.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum::<usize>() + self.merged.cells.len()
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
        assert!(at >= self.now, "cannot schedule failure in the past");
        let k = self.shard_of(node);
        self.shards[k].push_owned(at, node, Event::Kill(node));
    }

    /// Schedules a reboot of `node` at time `at`. A no-op unless the node
    /// is dead when the instant arrives; pair it with
    /// [`Network::schedule_failure`] (or use
    /// [`FaultPlan::crash_restart`](crate::FaultPlan::crash_restart), which
    /// schedules both). The rebooted node keeps its persistent state (the
    /// protocol decides what survives in
    /// [`Protocol::on_restart`](crate::Protocol::on_restart) — for MNP the
    /// EEPROM [`PacketStore`](mnp_storage::PacketStore)) but loses all RAM
    /// state: MAC, queued frames, pending timers.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_restart(&mut self, node: NodeId, at: SimTime) {
        assert!(at >= self.now, "cannot schedule restart in the past");
        let k = self.shard_of(node);
        self.shards[k].push_owned(at, node, Event::Restart(node));
    }

    /// Whether `node` has fail-stopped.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.shards[self.shard_of(node)].nodes.hot(node).dead
    }

    /// Runs until `pred` holds (checked after every event), the event queue
    /// drains, or the simulation clock passes `deadline`. Returns whether
    /// `pred` held at exit.
    ///
    /// # Panics
    ///
    /// Panics on a sharded network: an arbitrary predicate needs
    /// whole-network state after every single event, which is exactly the
    /// serialization sharding removes. Build with `.shards(1)` (the
    /// default), or drive a sharded run with
    /// [`Network::run_to_deadline`] / [`Network::run_until_all_complete`].
    pub fn run_until<F>(&mut self, pred: F, deadline: SimTime) -> bool
    where
        F: Fn(&Network<P>) -> bool,
    {
        assert_eq!(
            self.shards.len(),
            1,
            "run_until's arbitrary predicate needs whole-network state after \
             every event; use run_to_deadline / run_until_all_complete on a \
             sharded network"
        );
        loop {
            if pred(self) {
                return true;
            }
            let shard = &mut self.shards[0];
            let Some(next) = shard.peek_time() else {
                return pred(self);
            };
            if next > deadline {
                return pred(self);
            }
            let p = shard.queue.pop_ranked().expect("peeked event exists");
            debug_assert!(p.time >= shard.now, "time went backwards");
            shard.now = p.time;
            self.now = p.time;
            if shard.dispatch(p.event) {
                self.events_processed += 1;
            }
            self.flush_obs();
            if self.now >= self.next_sample_at {
                self.take_sample();
            }
        }
    }

    /// Delivers everything the single shard buffered during one dispatch
    /// to the run trace and every attached observer.
    fn flush_obs(&mut self) {
        let Network {
            shards,
            trace,
            observers,
            ..
        } = self;
        let buf = &mut shards[0].obs_buf;
        if buf.is_empty() {
            return;
        }
        let _span = profile::span(Phase::Observe);
        for ev in buf.drain(..) {
            Observer::on_event(trace, &ev);
            for obs in observers.iter_mut() {
                obs.on_event(&ev);
            }
        }
    }

    /// Feeds the attached sampler one snapshot and advances the cadence
    /// past `now` (skipping, not back-filling, intervals the simulation
    /// jumped over).
    fn take_sample(&mut self) {
        let _span = profile::span(Phase::Sample);
        let Some(sampler) = &self.sampler else {
            return;
        };
        let mut s = sampler.borrow_mut();
        s.record(self.now, self.pending_events(), self.events_processed);
        let interval = s.interval();
        drop(s);
        while self.next_sample_at <= self.now {
            self.next_sample_at += interval;
        }
    }

    /// Runs until the event queues drain or the clock passes `deadline`.
    /// Works at every shard count (this and
    /// [`Network::run_until_all_complete`] are the sharded drivers).
    pub fn run_to_deadline(&mut self, deadline: SimTime) {
        if self.shards.len() == 1 {
            self.run_until(|_| false, deadline);
        } else {
            self.run_windowed(deadline, false);
        }
    }

    /// Convenience: runs until every node reports completion. Returns
    /// whether that happened before `deadline`. Works at every shard
    /// count.
    pub fn run_until_all_complete(&mut self, deadline: SimTime) -> bool {
        if self.shards.len() == 1 {
            self.run_until(|n| n.trace().all_complete(), deadline)
        } else {
            self.run_windowed(deadline, true)
        }
    }

    /// The lockstep windowed driver: one scoped worker thread per shard,
    /// windows one [`PERCEPTION_LATENCY`] wide starting at the global
    /// minimum pending time. The window width guarantees no event in a
    /// window can cause another event in the same window on a *different*
    /// shard (every cross-shard effect lags its cause by at least one
    /// perception latency), so shards execute windows independently and
    /// the per-rank merge reproduces the sequential schedule exactly.
    fn run_windowed(&mut self, deadline: SimTime, stop_on_complete: bool) -> bool {
        let Network {
            shards,
            merged,
            trace,
            observers,
            sampler,
            now,
            events_processed,
            next_sample_at,
            ..
        } = self;
        let s = shards.len();
        // Replay anything a previous call merged but did not deliver (an
        // early completion exit stops mid-window).
        let pending: usize = shards.iter().map(Shard::pending).sum();
        if drain_replay(
            merged,
            trace,
            observers,
            sampler,
            now,
            events_processed,
            next_sample_at,
            pending,
            stop_on_complete,
        ) {
            return true;
        }
        if stop_on_complete && trace.all_complete() {
            return true;
        }
        let mut peeks: Vec<Option<SimTime>> = shards.iter_mut().map(Shard::peek_time).collect();
        let mut qlens: Vec<usize> = shards.iter().map(Shard::pending).collect();
        let slots: Vec<Mutex<WindowSlot<P::Msg>>> =
            (0..s).map(|_| Mutex::new(WindowSlot::default())).collect();
        let inboxes: Vec<Mutex<Vec<Boundary<P::Msg>>>> =
            (0..s).map(|_| Mutex::new(Vec::new())).collect();
        let cmd = Mutex::new(WindowCmd {
            end: SimTime::ZERO,
            stop: false,
        });
        let barrier = Barrier::new(s + 1);
        let mut done = false;
        std::thread::scope(|scope| {
            for (shard, (slot, inbox)) in shards.iter_mut().zip(slots.iter().zip(inboxes.iter())) {
                let cmd = &cmd;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut local: Vec<Boundary<P::Msg>> = Vec::new();
                    loop {
                        barrier.wait();
                        let WindowCmd { end, stop } = *cmd.lock().unwrap();
                        if stop {
                            break;
                        }
                        std::mem::swap(&mut *inbox.lock().unwrap(), &mut local);
                        for msg in local.drain(..) {
                            shard.apply_boundary(msg);
                        }
                        shard.run_window(end, deadline);
                        {
                            // Swap, never copy: the coordinator hands the
                            // cleared buffers back next window, so the
                            // steady state allocates nothing.
                            let mut sl = slot.lock().unwrap();
                            std::mem::swap(&mut sl.chunks, &mut shard.chunks);
                            std::mem::swap(&mut sl.obs, &mut shard.obs_buf);
                            std::mem::swap(&mut sl.outbox, &mut shard.outbox);
                            sl.peek = shard.peek_time();
                            sl.qlen = shard.pending();
                        }
                        barrier.wait();
                    }
                });
            }
            let mut parts: Vec<(Vec<Chunk>, Vec<ObsEvent>)> =
                (0..s).map(|_| (Vec::new(), Vec::new())).collect();
            let mut outboxes: Vec<Vec<Outbound<P::Msg>>> = (0..s).map(|_| Vec::new()).collect();
            loop {
                let t_min = peeks
                    .iter()
                    .flatten()
                    .copied()
                    .min()
                    .filter(|&t| t <= deadline);
                let Some(t_min) = t_min else { break };
                cmd.lock().unwrap().end = t_min + PERCEPTION_LATENCY;
                barrier.wait(); // release the workers into the window
                barrier.wait(); // wait for every shard to finish it
                for k in 0..s {
                    let mut sl = slots[k].lock().unwrap();
                    std::mem::swap(&mut parts[k].0, &mut sl.chunks);
                    std::mem::swap(&mut parts[k].1, &mut sl.obs);
                    std::mem::swap(&mut outboxes[k], &mut sl.outbox);
                    peeks[k] = sl.peek;
                    qlens[k] = sl.qlen;
                }
                // Route boundary messages, every Begin before any Abort so
                // an abort always finds its ghost; fold each message's
                // earliest receiver-side event (`at + L`) into the
                // destination's peek so the next window starts early
                // enough to include it.
                for pass in 0..2 {
                    for outbox in &outboxes {
                        for ob in outbox {
                            let is_begin = matches!(ob.msg, Boundary::Begin { .. });
                            if (pass == 0) != is_begin {
                                continue;
                            }
                            let at = match &ob.msg {
                                Boundary::Begin { at, .. } | Boundary::Abort { at, .. } => *at,
                            };
                            let heard = at + PERCEPTION_LATENCY;
                            let mut mask = ob.mask;
                            while mask != 0 {
                                let d = mask.trailing_zeros() as usize;
                                mask &= mask - 1;
                                inboxes[d].lock().unwrap().push(ob.msg.clone());
                                peeks[d] = Some(peeks[d].map_or(heard, |p| p.min(heard)));
                            }
                        }
                    }
                }
                for outbox in &mut outboxes {
                    outbox.clear();
                }
                merge_window(merged, &mut parts);
                let pending: usize = qlens.iter().sum();
                if drain_replay(
                    merged,
                    trace,
                    observers,
                    sampler,
                    now,
                    events_processed,
                    next_sample_at,
                    pending,
                    stop_on_complete,
                ) {
                    done = true;
                    break;
                }
            }
            cmd.lock().unwrap().stop = true;
            barrier.wait();
        });
        // An early exit leaves routed-but-unapplied boundary frames in the
        // inboxes; park them in the destination queues so a later run call
        // still sees them.
        for (shard, inbox) in shards.iter_mut().zip(inboxes) {
            for msg in inbox.into_inner().unwrap() {
                shard.apply_boundary(msg);
            }
        }
        done || (stop_on_complete && trace.all_complete())
    }

    /// Folds the medium's active-radio-time readings (as of `at`, typically
    /// the completion time) and the protocols' EEPROM counters into the
    /// energy meters and trace.
    pub fn finalize_meters(&mut self, at: SimTime) {
        let Network {
            shards,
            trace,
            observers,
            run_ended,
            ..
        } = self;
        for shard in shards.iter_mut() {
            for i in 0..shard.n_local {
                let node = NodeId::from_index(shard.base + i);
                let art = shard.medium.active_radio_time(node, at);
                let ops = shard.protocols[i].eeprom_ops();
                let meter = shard.nodes.meter_mut(node);
                meter.set_active_radio(art);
                meter.eeprom_reads = ops.line_reads;
                meter.eeprom_writes = ops.line_writes;
                trace.set_active_radio(node, art);
                // Physical-layer counters never flow through the event
                // stream; hand each observer a snapshot alongside the
                // meters.
                let stats = shard.medium.stats(node);
                for obs in observers.iter_mut() {
                    obs.on_medium_stats(node, &stats);
                }
            }
        }
        // Close the run exactly once: pads windowed series, flushes
        // timelines, snapshots gauges. Later calls only refresh meters.
        if !*run_ended {
            *run_ended = true;
            Observer::on_run_end(trace, at);
            for obs in observers.iter_mut() {
                obs.on_run_end(at);
            }
        }
    }
}

/// Splices one window's per-shard chunk streams into the global replay
/// order: ascending `(time, key, owner_key)` rank, with ties — the
/// replicated receiver-side copies of one cross-shard event — resolved
/// toward the lowest shard index. Shard order is ascending node-range
/// order, so tied receiver-side chunks concatenate into exactly the
/// per-listener order the sequential kernel produces.
fn merge_window(merged: &mut Merged, parts: &mut [(Vec<Chunk>, Vec<ObsEvent>)]) {
    // (chunk, obs) cursors per shard.
    let mut cursors = vec![(0usize, 0usize); parts.len()];
    loop {
        let mut best: Option<(usize, (SimTime, u64, u64))> = None;
        for (k, (chunks, _)) in parts.iter().enumerate() {
            if let Some(c) = chunks.get(cursors[k].0) {
                let rank = (c.time, c.key, c.owner_key);
                if best.is_none_or(|(_, b)| rank < b) {
                    best = Some((k, rank));
                }
            }
        }
        let Some((k, _)) = best else { break };
        let (ci, oi) = cursors[k];
        let c = parts[k].0[ci];
        merged.cells.push_back(ReplayCell {
            time: c.time,
            owner_key: c.owner_key,
            obs_len: c.obs_len,
            counted: c.counted,
        });
        let end = oi + c.obs_len as usize;
        merged.obs.extend(parts[k].1[oi..end].iter().copied());
        cursors[k] = (ci + 1, end);
    }
    for ((chunks, obs), (ci, oi)) in parts.iter_mut().zip(cursors) {
        debug_assert_eq!(ci, chunks.len(), "merge consumed every chunk");
        debug_assert_eq!(oi, obs.len(), "chunk obs_len sums cover the buffer");
        chunks.clear();
        obs.clear();
    }
}

/// Replays merged cells in order: advances the facade clock, delivers
/// each cell's observable events to the trace and observers, counts it,
/// samples on cadence, and — when `stop_on_complete` — stops right after
/// the cell that completed the last node, leaving the rest of the window
/// buffered in `merged`. Returns whether it stopped on completion.
#[allow(clippy::too_many_arguments)]
fn drain_replay(
    merged: &mut Merged,
    trace: &mut RunTrace,
    observers: &mut [Box<dyn Observer + Send>],
    sampler: &Option<Shared<TimeSeriesSampler>>,
    now: &mut SimTime,
    events_processed: &mut u64,
    next_sample_at: &mut SimTime,
    pending: usize,
    stop_on_complete: bool,
) -> bool {
    while let Some(cell) = merged.cells.pop_front() {
        // Deliver the whole logical event — every replica sharing this
        // cell's owner key — before sampling or checking completion, so a
        // stop lands exactly where the sequential kernel's per-event
        // predicate check would land, never between two replicas.
        let mut cell = cell;
        loop {
            *now = cell.time;
            if cell.obs_len > 0 {
                let _span = profile::span(Phase::Observe);
                for _ in 0..cell.obs_len {
                    let ev = merged.obs.pop_front().expect("cell events buffered");
                    Observer::on_event(trace, &ev);
                    for obs in observers.iter_mut() {
                        obs.on_event(&ev);
                    }
                }
            }
            if cell.counted {
                *events_processed += 1;
            }
            match merged.cells.front() {
                Some(next) if next.owner_key == cell.owner_key && next.time == cell.time => {
                    cell = merged.cells.pop_front().expect("peeked cell exists");
                }
                _ => break,
            }
        }
        if *now >= *next_sample_at {
            if let Some(sampler) = sampler {
                let _span = profile::span(Phase::Sample);
                let mut s = sampler.borrow_mut();
                s.record(*now, pending + merged.cells.len(), *events_processed);
                let interval = s.interval();
                drop(s);
                while *next_sample_at <= *now {
                    *next_sample_at += interval;
                }
            }
        }
        if stop_on_complete && trace.all_complete() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::protocol::WireMsg;
    use mnp_sim::SimDuration;
    use mnp_trace::MsgClass;

    /// Test message: a counter.
    #[derive(Clone, Debug, PartialEq, Eq)]
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
        assert_eq!(net.meter(NodeId(0)).transmissions, 10);
        assert_eq!(net.meter(NodeId(1)).receptions, 10);
        assert!(net.meter(NodeId(1)).rx_airtime > SimDuration::ZERO);
    }

    #[test]
    fn finalize_meters_snapshots_radio_time() {
        let mut net = run_pair(None);
        let at = net.now();
        net.finalize_meters(at);
        assert_eq!(
            net.meter(NodeId(0)).active_radio,
            net.medium().active_radio_time(NodeId(0), at)
        );
        assert_eq!(
            net.trace().node(NodeId(0)).active_radio,
            net.meter(NodeId(0)).active_radio
        );
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
    use crate::protocol::{EepromOps, WireMsg};
    use mnp_sim::SimDuration;
    use mnp_trace::MsgClass;

    /// Chatty protocol: every node broadcasts a beacon every 50 ms forever.
    #[derive(Clone, Debug)]
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
        assert_eq!(net.meter(NodeId(1)).active_radio, at_end);
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

    impl Protocol for Chatty2 {
        type Msg = Beacon;
        fn on_start(&mut self, _: &mut Context<'_, Beacon>) {}
        fn on_message(&mut self, _: &mut Context<'_, Beacon>, _: NodeId, _: &Beacon) {}
        fn on_timer(&mut self, _: &mut Context<'_, Beacon>, _: u64) {}
        fn eeprom_ops(&self) -> EepromOps {
            EepromOps {
                line_reads: 1,
                line_writes: 2,
            }
        }
    }

    struct Chatty2;

    #[test]
    fn finalize_meters_polls_eeprom_ops() {
        let mut net: Network<Chatty2> = NetworkBuilder::new(pair(), 9).build(|_, _| Chatty2);
        net.run_until(|_| false, SimTime::from_secs(1));
        let now = net.now();
        net.finalize_meters(now);
        assert_eq!(net.meter(NodeId(0)).eeprom_reads, 1);
        assert_eq!(net.meter(NodeId(0)).eeprom_writes, 2);
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::context::Context;
    use crate::protocol::WireMsg;
    use mnp_sim::SimDuration;
    use mnp_trace::MsgClass;

    #[derive(Clone, Debug)]
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
    /// comparison across shard counts.
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
    /// every cross-shard path: deliveries, collisions, bit errors, sleep
    /// and wake, kills, mid-frame aborts, restarts, link flaps and
    /// storage faults.
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
            if self.ticks % 9 == 0 {
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

    #[allow(clippy::type_complexity)]
    fn run_line(
        shards: usize,
        deadline: SimTime,
    ) -> (Vec<String>, u64, SimTime, Vec<(u64, u64)>, Vec<u32>) {
        let rec = Shared::new(Rec::default());
        let mut net: Network<Gossip> = NetworkBuilder::new(line(), 42)
            .shards(shards)
            .observer(rec.clone())
            .faults(plan())
            .build(|id, _| Gossip {
                id,
                best: 0,
                ticks: 0,
            });
        assert_eq!(net.shard_count(), shards);
        net.run_to_deadline(deadline);
        let at = net.now();
        net.finalize_meters(at);
        let meters = (0..net.len())
            .map(|i| {
                let m = net.meter(NodeId::from_index(i));
                (m.transmissions, m.receptions)
            })
            .collect();
        let bests = (0..net.len())
            .map(|i| net.protocol(NodeId::from_index(i)).best)
            .collect();
        let events = rec.borrow().0.clone();
        (events, net.events_processed(), net.now(), meters, bests)
    }

    #[test]
    fn sharded_runs_replay_the_sequential_schedule_exactly() {
        let deadline = SimTime::from_secs(6);
        let base = run_line(1, deadline);
        assert!(base.0.len() > 1_000, "scenario produces real traffic");
        for s in [2, 3, 5] {
            let run = run_line(s, deadline);
            if let Some(i) = (0..base.0.len().min(run.0.len())).find(|&i| base.0[i] != run.0[i]) {
                panic!(
                    "first divergence at {s} shards, event {i}:\n  sequential: {}\n  sharded:    {}",
                    base.0[i], run.0[i]
                );
            }
            assert_eq!(
                base.0.len(),
                run.0.len(),
                "event count diverged at {s} shards"
            );
            assert_eq!(base.1, run.1, "events_processed diverged at {s} shards");
            assert_eq!(base.2, run.2, "final clock diverged at {s} shards");
            assert_eq!(base.3, run.3, "meters diverged at {s} shards");
            assert_eq!(base.4, run.4, "protocol state diverged at {s} shards");
        }
    }

    /// Flood: the source announces once, everyone relays their first
    /// hearing and notes completion — so `run_until_all_complete` has a
    /// real early exit to hit on every shard count.
    struct Flood {
        is_source: bool,
        heard: bool,
    }

    impl Protocol for Flood {
        type Msg = Word;

        fn on_start(&mut self, ctx: &mut Context<'_, Word>) {
            if self.is_source {
                ctx.send(Word(0));
                ctx.note_completion();
            }
        }

        fn on_message(&mut self, ctx: &mut Context<'_, Word>, _from: NodeId, msg: &Word) {
            if !self.heard {
                self.heard = true;
                ctx.note_first_heard();
                ctx.note_completion();
                ctx.send(Word(msg.0 + 1));
            }
        }
    }

    #[test]
    fn all_complete_stops_sharded_runs_at_the_sequential_instant() {
        let run = |shards: usize| {
            let mut net: Network<Flood> =
                NetworkBuilder::new(line(), 11)
                    .shards(shards)
                    .build(|id, _| Flood {
                        is_source: id == NodeId(0),
                        heard: false,
                    });
            let done = net.run_until_all_complete(SimTime::from_secs(30));
            (done, net.now(), net.events_processed())
        };
        let base = run(1);
        assert!(base.0, "the flood completes the line");
        for s in [2, 3, 4] {
            assert_eq!(run(s), base, "completion instant diverged at {s} shards");
        }
    }

    #[test]
    fn shard_counts_are_clamped_to_the_node_count() {
        let mut net: Network<Flood> =
            NetworkBuilder::new(line(), 3)
                .shards(500)
                .build(|id, _| Flood {
                    is_source: id == NodeId(0),
                    heard: false,
                });
        assert_eq!(net.shard_count(), 12, "one shard per node at most");
        assert!(net.run_until_all_complete(SimTime::from_secs(30)));
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
    use mnp_topology::mobility::{materialize, Field, MobilityModel};
    use mnp_topology::Placement;
    use mnp_trace::MsgClass;
    use std::cell::Cell;

    #[derive(Clone, Debug)]
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
        /// Events actually sitting in each shard's queue (unfed timeline
        /// rows excluded).
        fn queued(&self) -> Vec<usize> {
            self.shards.iter().map(|sh| sh.queue.len()).collect()
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
        let build = |shards: usize| -> Network<Inert> {
            NetworkBuilder::new(line(N), 3)
                .shards(shards)
                .link_schedule(schedule.clone())
                .faults(plan())
                .build(|_, _| Inert)
        };
        let mut processed = Vec::new();
        // Every shard's copy of the link graph after the run, row by row.
        let mut graphs = Vec::new();
        for shards in [1, 2, 3, 4] {
            let mut net = build(shards);
            // What every queue held when each row was pre-loaded into each.
            let total = N + NODE_FAULTS + shards * ROWS;
            assert_eq!(net.pending_events(), total, "{shards} shards");
            for (k, queued) in net.queued().into_iter().enumerate() {
                let owned = net.bounds[k + 1] - net.bounds[k];
                assert!(
                    queued <= owned + NODE_FAULTS,
                    "shard {k} of {shards} queues {queued} events before the run"
                );
            }
            if shards == 1 {
                // Nothing schedules anything, so every dispatch — timeline
                // rows included — takes the pending count down by one, and
                // the queue never holds more than one (due) row.
                let steps = Cell::new(0u64);
                net.run_until(
                    |n| {
                        assert_eq!(
                            n.pending_events() as u64 + n.events_processed(),
                            total as u64
                        );
                        assert!(n.queued()[0] <= N + NODE_FAULTS + 1);
                        steps.set(steps.get() + 1);
                        false
                    },
                    SimTime::from_secs(10),
                );
                assert_eq!(steps.get(), total as u64 + 2, "checked around every event");
            } else {
                net.run_to_deadline(SimTime::from_secs(10));
            }
            assert_eq!(net.pending_events(), 0);
            assert_eq!(net.queued().into_iter().sum::<usize>(), 0);
            processed.push(net.events_processed());
            for sh in &net.shards {
                let rows: Vec<(Vec<NodeId>, Vec<f64>)> = (0..N)
                    .map(|i| sh.medium.links().neighbors(NodeId::from_index(i)))
                    .map(|(dst, ber)| (dst.to_vec(), ber.to_vec()))
                    .collect();
                graphs.push(rows);
            }
        }
        assert_eq!(processed, [(N + NODE_FAULTS + ROWS) as u64; 4]);
        // The shards' copies are clones of one frozen graph, each fed the
        // same timeline: they end identical, at the last scheduled rates
        // with both flaps restored.
        assert_eq!(graphs.len(), 1 + 2 + 3 + 4);
        assert!(graphs.iter().all(|g| g == &graphs[0]));
        let last = schedule.last().expect("forty changes");
        assert_eq!(
            graphs[0][4],
            (vec![NodeId(3), last.to], vec![0.0, last.ber])
        );
        assert_eq!(graphs[0][1], (vec![NodeId(0), NodeId(2)], vec![0.0, 0.37]));
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
        let schedule = topo
            .updates
            .iter()
            .map(|u| LinkChange {
                at: u.at,
                from: u.from,
                to: u.to,
                ber: u.ber,
            })
            .collect();
        (topo.topology.links, schedule)
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
        let run = |shards: usize, tie: TieBreak| {
            let change = |from: u32, to: u32| LinkChange {
                at,
                from: NodeId(from),
                to: NodeId(to),
                ber: 0.25,
            };
            let rec = Shared::new(Rec::default());
            let mut net: Network<Heartbeat> = NetworkBuilder::new(line(4), 11)
                .shards(shards)
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
        let fifo = run(1, TieBreak::Fifo);
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
        let permuted = run(1, TieBreak::SeededPermutation(77));
        assert_ne!(permuted, fifo, "seed 77 reorders the four owners");
        let of_node_1: Vec<&String> = permuted.iter().filter(|e| e.starts_with('1')).collect();
        assert_eq!(of_node_1, ["1 fault 0", "1 moved 2", "1 timer"]);
        for shards in [2, 4] {
            assert_eq!(run(shards, TieBreak::Fifo), fifo, "{shards} shards");
            assert_eq!(
                run(shards, TieBreak::SeededPermutation(77)),
                permuted,
                "{shards} shards"
            );
        }
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
        let run = |shards: usize| {
            let plan = FaultPlan::seeded(42).random_crash_restarts(
                CHURN,
                &candidates,
                (SimTime::from_secs(30), SimTime::from_secs(4 * 3_600)),
                (SimDuration::from_secs(60), SimDuration::from_secs(600)),
            );
            let mut net: Network<Spread> = NetworkBuilder::new(links.clone(), 42)
                .shards(shards)
                .link_schedule(schedule.clone())
                .faults(plan)
                .build(|id, _| Spread {
                    has: id == NodeId(0),
                });
            let deadline = SimTime::from_secs(4 * 3_600);
            let peak = Cell::new(0);
            let done = if shards == 1 {
                // A node has at most a timer, a MAC attempt and one frame's
                // three lifecycle events outstanding; the timeline adds the
                // rows of one instant, never the horizon's.
                net.run_until(
                    |n| {
                        peak.set(peak.get().max(n.queued()[0]));
                        n.trace().all_complete()
                    },
                    deadline,
                )
            } else {
                net.run_until_all_complete(deadline)
            };
            assert!(done, "{shards} shards: the word reaches every node");
            assert!(
                peak.get() <= 5 * N + 2 * CHURN + per_instant,
                "live queue peaked at {} events",
                peak.get()
            );
            assert!(net.pending_events() > shards * 1_000_000, "rows left unfed");
            let completions: Vec<Option<SimTime>> = (0..N)
                .map(|i| net.trace().node(NodeId::from_index(i)).completion)
                .collect();
            (net.now(), net.events_processed(), completions)
        };
        assert_eq!(run(1), run(2));
    }
}
