//! Shared experiment infrastructure: grid scenarios and run outcomes.

use std::fmt;

use mnp::Mnp;
use mnp_net::{FaultPlan, FaultPlanError, Network, NetworkBuilder, Observer};
use mnp_obs::{InvariantMonitor, Shared, TimeSeriesSampler};
use mnp_radio::{LinkTable, NodeId, PowerLevel};
use mnp_sim::{SimRng, SimTime, TieBreak};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::{GridSpec, TopologyBuilder};
use mnp_trace::RunTrace;

use crate::registry::{with_protocol, Disseminator, ProtocolId};

/// The base station of every harness scenario: node 0 (the grid corner).
pub(crate) const BASE: NodeId = NodeId(0);

/// RNG stream every scenario derives its topology sampling from, so the
/// same seed samples the same field whichever harness entry point runs it.
const TOPOLOGY_STREAM: u64 = 0xdeadbeef;

/// The topology-sampling RNG of the scenario seeded `seed`.
pub(crate) fn topology_rng(seed: u64) -> SimRng {
    SimRng::new(seed).derive(TOPOLOGY_STREAM)
}

/// Whether `links` has a usable bidirectional path from the base station
/// to every node.
pub(crate) fn reaches_all(links: &LinkTable) -> bool {
    links.reaches_all_usable(BASE, mnp_radio::loss::usable_ber_threshold())
}

/// What a run attaches to its network besides the protocol: observers
/// (event logs, metrics, timelines; see `mnp_obs`) and an optional
/// time-series sampler fed kernel gauges (queue depth, event rate) on its
/// sim-time cadence.
///
/// These ride outside the scenario structs (observers are stateful and
/// belong to one run) so scenarios stay `Clone` and fan-out-able across
/// threads; keep a [`Shared`] clone of each to read it back after the run.
#[derive(Default)]
pub struct Instruments {
    /// Observers, attached in order.
    pub observers: Vec<Box<dyn Observer + Send>>,
    /// The time-series sampler, if any.
    pub sampler: Option<Shared<TimeSeriesSampler>>,
}

impl Instruments {
    /// Just one observer, no sampler — the common case.
    pub fn observing(observer: impl Observer + Send + 'static) -> Self {
        Instruments {
            observers: vec![Box::new(observer)],
            sampler: None,
        }
    }

    pub(crate) fn attach(self, mut builder: NetworkBuilder) -> NetworkBuilder {
        for obs in self.observers {
            builder = builder.observer(obs);
        }
        if let Some(sampler) = self.sampler {
            builder = builder.timeseries(sampler);
        }
        builder
    }
}

/// The build half of the harness's one run path: instantiates `P` on
/// every node of `builder`'s network — the base station holding `image`,
/// everyone else empty.
pub(crate) fn build<P: Disseminator>(
    builder: NetworkBuilder,
    image: &ProgramImage,
    cfg: P::Config,
) -> Result<Network<P>, FaultPlanError> {
    builder.try_build(|id, _| {
        if id == BASE {
            P::base_station(cfg.clone(), image)
        } else {
            P::node(cfg.clone())
        }
    })
}

/// The finish half: runs `net` until every node completes or `deadline`
/// passes, and collects the outcome. `net` stays with the caller for
/// whatever else it reads off the finished network.
pub(crate) fn finish<P: Disseminator>(
    net: &mut Network<P>,
    grid: GridSpec,
    deadline: SimTime,
) -> RunOutcome {
    let completed = net.run_until_all_complete(deadline);
    let mut outcome = RunOutcome::collect(net, grid, completed);
    for i in 0..net.len() {
        let id = NodeId::from_index(i);
        let p = net.protocol(id);
        outcome.complete_nodes += usize::from(p.is_complete());
        p.fold_stats(id, &mut outcome);
    }
    outcome
}

/// Build + finish for scenarios whose fault plan is known valid.
pub(crate) fn run<P: Disseminator>(
    builder: NetworkBuilder,
    image: &ProgramImage,
    tweak: impl FnOnce(&mut P::Config),
    grid: GridSpec,
    deadline: SimTime,
) -> RunOutcome {
    let mut cfg = P::config_for(image);
    tweak(&mut cfg);
    let mut net = build::<P>(builder, image, cfg).unwrap_or_else(|e| panic!("{e}"));
    finish(&mut net, grid, deadline)
}

/// A grid dissemination scenario: the common shape of every experiment in
/// the paper's §4.
///
/// # Example
///
/// ```
/// use mnp::Mnp;
/// use mnp_experiments::GridExperiment;
///
/// // A scaled-down smoke scenario.
/// let out = GridExperiment::new(3, 3, 10.0).segments(1).seed(1).run::<Mnp>(|_| {});
/// assert!(out.completed);
/// ```
#[derive(Clone, Debug)]
pub struct GridExperiment {
    rows: usize,
    cols: usize,
    spacing_ft: f64,
    power: PowerLevel,
    node_power: Vec<(NodeId, PowerLevel)>,
    image: ProgramImage,
    seed: u64,
    deadline: SimTime,
    capture: bool,
    check_invariants: bool,
    faults: Option<FaultPlan>,
    tie_break: TieBreak,
    shards: usize,
    extra_loss: f64,
}

/// Bits per full frame (18 overhead + 29 payload bytes): the repo-wide
/// convention converting a per-packet loss probability to a BER.
const FRAME_BITS: f64 = 376.0;

/// The per-bit error rate at which a full frame is lost with probability
/// `p` — the inverse of `1 - (1 - ber)^376`. `p = 1.0` is allowed and
/// yields BER 1.0: a link that drops everything (the degenerate end of a
/// loss sweep), not a programming error.
fn ber_for_packet_loss(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "loss probability out of [0, 1]");
    1.0 - (1.0 - p).powf(1.0 / FRAME_BITS)
}

impl GridExperiment {
    /// Starts a scenario over a `rows × cols` grid at `spacing_ft`, full
    /// power, a 1-segment image, seed 42, base station at the corner.
    pub fn new(rows: usize, cols: usize, spacing_ft: f64) -> Self {
        GridExperiment {
            rows,
            cols,
            spacing_ft,
            power: PowerLevel::FULL,
            node_power: Vec::new(),
            image: ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1)),
            seed: 42,
            deadline: SimTime::from_secs(4 * 3_600),
            capture: false,
            check_invariants: false,
            faults: None,
            tie_break: TieBreak::Fifo,
            shards: 1,
            extra_loss: 0.0,
        }
    }

    /// Adds an independent per-packet loss probability `p` (0 ≤ p ≤ 1)
    /// on every sampled link — the loss-sweep axis of the comparison
    /// campaign. The extra loss composes with each link's distance-based
    /// BER *after* the connectivity check, so the sweep degrades a
    /// topology that is viable at `p = 0` instead of rejecting it.
    /// `p = 1.0` blacks every link out: the run builds and times out
    /// rather than panicking.
    pub fn extra_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of [0, 1]");
        self.extra_loss = p;
        self
    }

    /// Runs the simulation kernel sharded over `shards` worker threads
    /// (default 1). A sharded run replays the sequential schedule byte
    /// for byte — same trace, meters, and completion instants — so this
    /// only changes wall-clock time, never results.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables the radio capture effect (sensitivity experiment X4).
    pub fn capture(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// Attaches a fail-fast [`InvariantMonitor`] to every run of this
    /// scenario (write-once EEPROM, in-order segments, no sleeping
    /// transmitter, ReqCtr echo).
    pub fn check_invariants(mut self, check: bool) -> Self {
        self.check_invariants = check;
        self
    }

    /// Injects a deterministic [`FaultPlan`] into every run of this
    /// scenario (crash–restarts, link flaps, EEPROM write faults). The
    /// plan is part of the scenario: the same seed and plan replay the
    /// same faulted schedule byte for byte.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the event queue's same-instant tie-break policy. The default
    /// [`TieBreak::Fifo`] is the deterministic insertion order every
    /// headline experiment uses; [`TieBreak::SeededPermutation`] explores
    /// alternative same-instant schedules for the fuzz harness, still
    /// byte-reproducible per seed.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Sets the transmission power level of every node.
    pub fn power(mut self, power: PowerLevel) -> Self {
        self.power = power;
        self
    }

    /// Overrides one node's power (battery-aware extension).
    pub fn node_power(mut self, node: NodeId, power: PowerLevel) -> Self {
        self.node_power.push((node, power));
        self
    }

    /// Uses an image of `segments` full segments (the simulation sizing).
    pub fn segments(mut self, segments: u16) -> Self {
        self.image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments));
        self
    }

    /// Uses an image of exactly `packets` packets (the mote-experiment
    /// sizing: 100 packets ≈ 2.3 KB).
    pub fn packets(mut self, packets: u32) -> Self {
        self.image = ProgramImage::synthetic(ProgramId(1), ImageLayout::from_packets(packets));
        self
    }

    /// Sets the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the wall-clock simulation deadline.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = deadline;
        self
    }

    /// The grid spec of this scenario.
    pub fn grid(&self) -> GridSpec {
        GridSpec::new(self.rows, self.cols, self.spacing_ft)
    }

    /// The image under dissemination.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// Samples this scenario's link graph (before any
    /// [`extra_loss`](GridExperiment::extra_loss) is composed in).
    pub(crate) fn sample_links(&self) -> LinkTable {
        let mut builder = TopologyBuilder::new(self.grid().placement()).power(self.power);
        for (node, p) in &self.node_power {
            builder = builder.node_power(*node, *p);
        }
        builder.build(&mut topology_rng(self.seed)).links
    }

    /// Whether the topology this scenario would sample has a usable
    /// bidirectional path from the base to every node. Experiments with
    /// aggressive per-node power reductions (battery extension) check this
    /// and reseed instead of running an impossible scenario.
    pub fn is_viable(&self) -> bool {
        reaches_all(&self.sample_links())
    }

    /// Runs protocol `P` over this scenario; `tweak` may adjust the
    /// protocol config (ablations).
    pub fn run<P: Disseminator>(&self, tweak: impl FnOnce(&mut P::Config)) -> RunOutcome {
        self.run_observed::<P>(tweak, Instruments::default())
    }

    /// Runs protocol `P` with `instruments` attached to the network.
    pub fn run_observed<P: Disseminator>(
        &self,
        tweak: impl FnOnce(&mut P::Config),
        instruments: Instruments,
    ) -> RunOutcome {
        run::<P>(
            self.builder(instruments),
            &self.image,
            tweak,
            self.grid(),
            self.deadline,
        )
    }

    /// Runs the registered protocol `protocol` names, at its default
    /// config.
    pub fn run_named(&self, protocol: ProtocolId, instruments: Instruments) -> RunOutcome {
        with_protocol!(protocol, P => self.run_observed::<P>(|_| {}, instruments))
    }

    /// Runs `run` over a per-seed copy of this scenario, one thread per
    /// seed ([`std::thread::scope`]); outcomes come back in `seeds` order.
    ///
    /// Each thread gets its own `GridExperiment` clone, so the runs are
    /// fully independent and each is as deterministic as a solo
    /// [`GridExperiment::run`] with that seed.
    pub fn run_seeds_with<F>(&self, seeds: &[u64], run: F) -> Vec<RunOutcome>
    where
        F: Fn(&GridExperiment) -> RunOutcome + Sync,
    {
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .iter()
                .map(|&seed| {
                    let scenario = self.clone().seed(seed);
                    scope.spawn(move || run(&scenario))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("seed run panicked"))
                .collect()
        })
    }

    fn builder(&self, instruments: Instruments) -> NetworkBuilder {
        let mut links = self.sample_links();
        assert!(
            reaches_all(&links),
            "sampled topology has no usable bidirectional path to some node; \
             coverage is impossible (reseed)"
        );
        if self.extra_loss > 0.0 {
            // Compose the sweep's packet loss with every link's sampled
            // BER: independent loss processes multiply their survival
            // probabilities.
            let q = ber_for_packet_loss(self.extra_loss);
            for from in 0..links.len() {
                let from = NodeId::from_index(from);
                let edges: Vec<(NodeId, f64)> = links.neighbors(from).collect();
                for (to, ber) in edges {
                    links.connect(from, to, 1.0 - (1.0 - ber) * (1.0 - q));
                }
            }
        }
        let mut builder = NetworkBuilder::new(links, self.seed)
            .capture(self.capture)
            .tie_break(self.tie_break)
            .shards(self.shards);
        if let Some(plan) = &self.faults {
            builder = builder.faults(plan.clone());
        }
        if self.check_invariants {
            builder = builder.observer(InvariantMonitor::new());
        }
        instruments.attach(builder)
    }
}

/// Everything the figures need from one finished run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The grid the run used.
    pub grid: GridSpec,
    /// Whether every node completed before the deadline.
    pub completed: bool,
    /// Completion time of the last node (or the deadline on failure).
    pub completion: SimTime,
    /// The full run trace.
    pub trace: RunTrace,
    /// Per-node active radio time in seconds.
    pub art_s: Vec<f64>,
    /// Per-node ART excluding initial idle listening, in seconds.
    pub art_noidle_s: Vec<f64>,
    /// Per-node messages sent.
    pub sent: Vec<f64>,
    /// Per-node messages received.
    pub received: Vec<f64>,
    /// Receptions lost to overlap, summed over all nodes.
    pub collisions: u64,
    /// Nodes holding the complete image when the run stopped.
    pub complete_nodes: usize,
    /// Per-node forwarding rounds (MNP only; zero otherwise).
    pub forward_rounds: Vec<u64>,
    /// Total MNP download failures (MNP only).
    pub protocol_fails: u64,
    /// Total times nodes entered the sleep state (MNP only).
    pub sleeps: u64,
    /// Simulation events processed (a proxy for simulation effort).
    pub events: u64,
}

impl RunOutcome {
    fn collect<P: Disseminator>(net: &mut Network<P>, grid: GridSpec, completed: bool) -> Self {
        let completion = net.trace().completion_time().unwrap_or_else(|| net.now());
        net.finalize_meters(completion);
        let n = net.len();
        let trace = net.trace().clone();
        let nodes = || (0..n).map(NodeId::from_index);
        let art_noidle_s = nodes()
            .map(|id| {
                let active = trace.node(id).active_radio_after_first_adv(completion);
                active.as_secs_f64()
            })
            .collect();
        let collisions = nodes().map(|id| net.medium_stats(id).collisions).sum();
        RunOutcome {
            grid,
            completed,
            completion,
            art_s: nodes()
                .map(|id| trace.node(id).active_radio.as_secs_f64())
                .collect(),
            art_noidle_s,
            sent: nodes().map(|id| trace.node(id).sent as f64).collect(),
            received: nodes().map(|id| trace.node(id).received as f64).collect(),
            trace,
            collisions,
            complete_nodes: 0,
            forward_rounds: vec![0; n],
            protocol_fails: 0,
            sleeps: 0,
            events: net.events_processed(),
        }
    }

    /// Fraction of nodes holding the complete image when the run stopped.
    pub fn coverage(&self) -> f64 {
        self.complete_nodes as f64 / self.art_s.len() as f64
    }

    /// Mean active radio time in seconds.
    pub fn mean_art_s(&self) -> f64 {
        mnp_trace::mean(&self.art_s)
    }

    /// Mean ART without initial idle listening, in seconds.
    pub fn mean_art_noidle_s(&self) -> f64 {
        mnp_trace::mean(&self.art_noidle_s)
    }

    /// Completion time in seconds.
    pub fn completion_s(&self) -> f64 {
        self.completion.as_secs_f64()
    }

    /// Total messages sent across the network.
    pub fn total_sent(&self) -> f64 {
        self.sent.iter().sum()
    }

    /// Means of a per-node series over interior and over edge nodes.
    pub(crate) fn centre_vs_edge(&self, per_node: &[f64]) -> (f64, f64) {
        let (mut centre, mut edge) = (Vec::new(), Vec::new());
        for (i, &v) in per_node.iter().enumerate() {
            if self.grid.is_edge(NodeId::from_index(i)) {
                edge.push(v);
            } else {
                centre.push(v);
            }
        }
        (mnp_trace::mean(&centre), mnp_trace::mean(&edge))
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: completed={} in {:.0}s; mean ART {:.0}s ({:.0}s w/o initial idle); {} msgs, {} collisions",
            self.grid,
            self.completed,
            self.completion_s(),
            self.mean_art_s(),
            self.mean_art_noidle_s(),
            self.total_sent(),
            self.collisions,
        )
    }
}

/// One mote-experiment figure (Figs. 5–7): the same grid run at two power
/// levels, reporting each node's parent, get-code time, and the order in
/// which nodes became senders.
#[derive(Clone, Debug)]
pub struct MoteFigure {
    /// Figure label, e.g. "Fig 5 (indoor 5x5 grid @ 3 ft)".
    pub label: String,
    /// One run per power level, in the order given.
    pub runs: Vec<(PowerLevel, RunOutcome)>,
}

/// Runs a Figs.-5–7 style mote experiment: `packets`-packet image, base at
/// the corner, one run per power level.
pub fn run_mote_figure(
    label: &str,
    rows: usize,
    cols: usize,
    spacing_ft: f64,
    powers: &[PowerLevel],
    packets: u32,
    seed: u64,
) -> MoteFigure {
    let runs = powers
        .iter()
        .map(|&p| {
            let out = GridExperiment::new(rows, cols, spacing_ft)
                .power(p)
                .packets(packets)
                .seed(seed)
                .run::<Mnp>(|_| {});
            (p, out)
        })
        .collect();
    MoteFigure {
        label: label.to_string(),
        runs,
    }
}

impl fmt::Display for MoteFigure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.label)?;
        for (power, out) in &self.runs {
            writeln!(
                f,
                "--- {power}: completed={} time={}",
                out.completed,
                fmt_mmss(out.completion_s())
            )?;
            let order: Vec<String> = out
                .trace
                .sender_order()
                .iter()
                .map(|n| {
                    let (r, c) = out.grid.coords(*n);
                    format!("{n}({r},{c})")
                })
                .collect();
            writeln!(f, "sender order: {}", order.join(" -> "))?;
            writeln!(f, "parent map (arrows point toward the parent):")?;
            write!(
                f,
                "{}",
                mnp_trace::render_parent_map(
                    out.grid.rows(),
                    out.grid.cols(),
                    out.grid.corner().index(),
                    |i| out
                        .trace
                        .node(NodeId::from_index(i))
                        .parent
                        .map(|p| p.index()),
                )
            )?;
            writeln!(f, "node (r,c)    parent  get-code time")?;
            for (id, s) in out.trace.iter() {
                let (r, c) = out.grid.coords(id);
                let parent = s
                    .parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into());
                let t = s
                    .completion
                    .map(|t| fmt_mmss(t.as_secs_f64()))
                    .unwrap_or_else(|| "-".into());
                writeln!(f, "{id:>5} ({r},{c})  {parent:>6}  {t:>7}")?;
            }
        }
        Ok(())
    }
}

/// Formats seconds as `MM:SS` for the parent-map tables.
pub fn fmt_mmss(secs: f64) -> String {
    let s = secs.round() as u64;
    format!("{}:{:02}", s / 60, s % 60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_baselines::{Deluge, Rlnc};

    #[test]
    fn small_grid_mnp_completes_and_reports() {
        let out = GridExperiment::new(3, 3, 10.0).seed(5).run::<Mnp>(|_| {});
        assert!(out.completed);
        assert!(out.completion_s() > 0.0);
        assert_eq!(out.art_s.len(), 9);
        assert!(out.mean_art_s() > 0.0);
        // The base forwarded at least once.
        assert!(out.forward_rounds[0] >= 1);
    }

    #[test]
    fn small_grid_deluge_completes() {
        let out = GridExperiment::new(3, 3, 10.0)
            .seed(5)
            .run::<Deluge>(|_| {});
        assert!(out.completed);
        // Deluge never sleeps: everyone's ART equals the completion time.
        for art in &out.art_s {
            assert!((art - out.completion_s()).abs() < 1e-6);
        }
    }

    #[test]
    fn run_seeds_with_matches_solo_runs() {
        let scenario = GridExperiment::new(3, 3, 10.0);
        let outs = scenario.run_seeds_with(&[5, 6], |s| s.run::<Mnp>(|_| {}));
        assert_eq!(outs.len(), 2);
        // Thread fan-out must not perturb determinism: each outcome equals
        // the same seed run alone.
        for (seed, out) in [5u64, 6].into_iter().zip(&outs) {
            let solo = scenario.clone().seed(seed).run::<Mnp>(|_| {});
            assert_eq!(out.completed, solo.completed);
            assert_eq!(out.completion, solo.completion);
            assert_eq!(out.sent, solo.sent);
        }
    }

    #[test]
    fn sharded_mnp_run_matches_sequential() {
        let scenario = GridExperiment::new(4, 4, 10.0).seed(9);
        let solo = scenario.clone().run::<Mnp>(|_| {});
        let sharded = scenario.shards(3).run::<Mnp>(|_| {});
        assert_eq!(sharded.completed, solo.completed);
        assert_eq!(sharded.completion, solo.completion);
        assert_eq!(sharded.sent, solo.sent);
        assert_eq!(sharded.received, solo.received);
        assert_eq!(sharded.collisions, solo.collisions);
        assert_eq!(sharded.events, solo.events);
        assert_eq!(sharded.art_s, solo.art_s);
    }

    #[test]
    fn extra_loss_composes_and_still_completes() {
        // 15% extra packet loss on every link: slower, but exact.
        let clean = GridExperiment::new(3, 3, 10.0).seed(5).run::<Rlnc>(|_| {});
        let lossy = GridExperiment::new(3, 3, 10.0)
            .seed(5)
            .extra_loss(0.15)
            .run::<Rlnc>(|_| {});
        assert!(lossy.completed);
        assert!(
            lossy.completion > clean.completion,
            "loss must slow dissemination: clean {:?} vs lossy {:?}",
            clean.completion,
            lossy.completion
        );
    }

    #[test]
    fn ber_for_packet_loss_inverts_the_frame_convention() {
        for p in [0.0, 0.05, 0.2, 0.5] {
            let ber = ber_for_packet_loss(p);
            let frame_loss = 1.0 - (1.0 - ber).powf(FRAME_BITS);
            assert!((frame_loss - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn total_loss_is_a_valid_sweep_endpoint() {
        // p = 1.0 must map to BER 1.0, not panic: `--loss 100` is the
        // degenerate end of a sweep, and the run times out cleanly.
        assert_eq!(ber_for_packet_loss(1.0), 1.0);
        let out = GridExperiment::new(2, 2, 10.0)
            .seed(3)
            .extra_loss(1.0)
            .deadline(SimTime::from_secs(120))
            .run::<Mnp>(|_| {});
        assert!(!out.completed, "nothing can disseminate over dead links");
    }

    #[test]
    fn display_is_informative() {
        let out = GridExperiment::new(2, 2, 10.0).seed(3).run::<Mnp>(|_| {});
        let s = out.to_string();
        assert!(s.contains("completed=true"), "{s}");
    }

    #[test]
    fn fmt_mmss_formats() {
        assert_eq!(fmt_mmss(0.0), "0:00");
        assert_eq!(fmt_mmss(61.4), "1:01");
        assert_eq!(fmt_mmss(600.0), "10:00");
    }
}
