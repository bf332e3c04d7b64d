//! Mobile and irregular dissemination scenarios (ROADMAP item 4).
//!
//! [`MobileExperiment`] is the dynamic-topology counterpart of
//! [`GridExperiment`](crate::GridExperiment): nodes land in an irregular
//! field ([`FieldLayout`]), move under a mobility model while the image
//! disseminates, and optionally churn (crash–restart) throughout the
//! run. Motion becomes a pre-materialized potential-edge topology plus a
//! schedule of [`LinkChange`]s (`mnp_topology::mobility`), so runs stay
//! byte-identical at any shard count.

use mnp_net::{FaultPlan, LinkChange, NetworkBuilder};
use mnp_radio::{LinkTable, NodeId, PowerLevel};
use mnp_sim::{SimDuration, SimTime, TieBreak};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::mobility::{materialize, Field, MobileTopology, MobilityModel};
use mnp_topology::{GridSpec, Placement};

use crate::registry::{with_protocol, Disseminator, ProtocolId};
use crate::runner::{reaches_all, run, topology_rng, Instruments, RunOutcome};

/// How nodes are placed at `t = 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FieldLayout {
    /// Uniform over the field.
    Uniform,
    /// Blue-noise: no two nodes closer than the given spacing (feet).
    Poisson {
        /// Minimum pairwise distance in feet.
        min_dist_ft: f64,
    },
    /// Clustered patches around uniform centres.
    Clustered {
        /// Number of patches.
        clusters: usize,
        /// Disk radius of each patch, in feet.
        spread_ft: f64,
    },
    /// A thin strip: the field's height shrinks to `width_ft` feet.
    Corridor {
        /// Strip width in feet.
        width_ft: f64,
    },
}

/// A mobile dissemination scenario: `nodes` motes in a
/// `width_ft × height_ft` field, moving under a [`MobilityModel`], base
/// station at node 0.
#[derive(Clone, Debug)]
pub struct MobileExperiment {
    nodes: usize,
    width_ft: f64,
    height_ft: f64,
    layout: FieldLayout,
    model: MobilityModel,
    tick: SimDuration,
    image: ProgramImage,
    seed: u64,
    deadline: SimTime,
    shards: usize,
    tie_break: TieBreak,
    churn: usize,
}

impl MobileExperiment {
    /// Starts a scenario: `nodes` motes uniform in a square field sized
    /// so the deployment is a few hops across at full power, random
    /// waypoint at 1 ft/s with 30 s pauses, 10 s re-link tick, 1-segment
    /// image, seed 42, 4 h deadline, no churn.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "at least one node");
        // ~12 ft of field edge per √node: 16 nodes → 48×48 ft, about
        // 2 hops across at the 35 ft full-power range (the paper's 20×20
        // grid density).
        let side = (nodes as f64).sqrt() * 12.0;
        MobileExperiment {
            nodes,
            width_ft: side,
            height_ft: side,
            layout: FieldLayout::Uniform,
            model: MobilityModel::RandomWaypoint {
                speed_ft_s: 1.0,
                pause_s: 30.0,
            },
            tick: SimDuration::from_secs(10),
            image: ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1)),
            seed: 42,
            deadline: SimTime::from_secs(4 * 3_600),
            shards: 1,
            tie_break: TieBreak::Fifo,
            churn: 0,
        }
    }

    /// Sets the field dimensions in feet.
    pub fn field(mut self, width_ft: f64, height_ft: f64) -> Self {
        self.width_ft = width_ft;
        self.height_ft = height_ft;
        self
    }

    /// Sets the initial placement shape.
    pub fn layout(mut self, layout: FieldLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Sets the mobility model.
    pub fn model(mut self, model: MobilityModel) -> Self {
        self.model = model;
        self
    }

    /// Convenience: random waypoint at `speed_ft_s` with 30 s pauses
    /// (zero speed degenerates to a static irregular topology).
    pub fn speed(self, speed_ft_s: f64) -> Self {
        self.model(MobilityModel::RandomWaypoint {
            speed_ft_s,
            pause_s: 30.0,
        })
    }

    /// Sets the re-link tick (how often motion re-derives link quality).
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }

    /// Uses an image of `segments` full segments.
    pub fn segments(mut self, segments: u16) -> Self {
        self.image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments));
        self
    }

    /// Sets the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulation deadline (also the motion horizon).
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = deadline;
        self
    }

    /// Runs the kernel sharded over `shards` worker threads. Sharding
    /// replays the sequential schedule byte for byte.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the same-instant tie-break policy.
    pub fn tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Adds `events` random crash–restart churn events over the run
    /// (non-base nodes leave for 1–10 minutes and rejoin), drawn from
    /// the scenario seed via [`FaultPlan::random_crash_restarts`].
    pub fn churn(mut self, events: usize) -> Self {
        self.churn = events;
        self
    }

    /// The scenario seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Builds the potential-edge topology and link schedule this
    /// scenario runs over — exposed for tests and viability checks.
    pub fn mobile_topology(&self) -> MobileTopology {
        let field = Field::new(self.width_ft, self.height_ft);
        let mut topo_rng = topology_rng(self.seed);
        let initial = match self.layout {
            FieldLayout::Uniform => {
                Placement::random(self.nodes, self.width_ft, self.height_ft, &mut topo_rng)
            }
            FieldLayout::Poisson { min_dist_ft } => Placement::poisson_disk(
                self.nodes,
                self.width_ft,
                self.height_ft,
                min_dist_ft,
                &mut topo_rng,
            ),
            FieldLayout::Clustered {
                clusters,
                spread_ft,
            } => Placement::clustered(
                self.nodes,
                self.width_ft,
                self.height_ft,
                clusters,
                spread_ft,
                &mut topo_rng,
            ),
            FieldLayout::Corridor { width_ft } => {
                Placement::corridor(self.nodes, self.width_ft, width_ft, &mut topo_rng)
            }
        };
        let horizon = SimDuration::from_micros(self.deadline.as_micros());
        let plan = self
            .model
            .plan(&initial, field, horizon, self.tick, &topo_rng.derive(1));
        materialize(&initial, &plan, PowerLevel::FULL, &mut topo_rng.derive(2))
    }

    /// The potential-edge link table and the motion-induced link schedule
    /// a network of this scenario is built from.
    pub(crate) fn links_and_schedule(&self) -> (LinkTable, Vec<LinkChange>) {
        let mobile = self.mobile_topology();
        let schedule = mobile
            .updates
            .iter()
            .map(|u| LinkChange {
                at: u.at,
                from: u.from,
                to: u.to,
                ber: u.ber,
            })
            .collect();
        (mobile.topology.links, schedule)
    }

    /// Whether the `t = 0` topology has a usable bidirectional path from
    /// the base to every node. Campaigns check this and reseed rather
    /// than run a scenario that starts partitioned. (The `t = 0` link
    /// set is speed-independent for a fixed seed, so one viable seed is
    /// viable across a whole speed sweep.)
    pub fn is_viable(&self) -> bool {
        reaches_all(&self.mobile_topology().topology.links)
    }

    /// Runs protocol `P` over this scenario; `tweak` may adjust the
    /// protocol config.
    pub fn run<P: Disseminator>(&self, tweak: impl FnOnce(&mut P::Config)) -> RunOutcome {
        self.run_observed::<P>(tweak, Instruments::default())
    }

    /// Runs protocol `P` with `instruments` attached to the network.
    pub fn run_observed<P: Disseminator>(
        &self,
        tweak: impl FnOnce(&mut P::Config),
        instruments: Instruments,
    ) -> RunOutcome {
        // RunOutcome is grid-shaped for the paper figures; a mobile field
        // has no rows/cols, so record it as a 1×n line at unit spacing.
        let grid = GridSpec::new(1, self.nodes, 1.0);
        run::<P>(
            self.builder(instruments),
            &self.image,
            tweak,
            grid,
            self.deadline,
        )
    }

    /// Runs the registered protocol `protocol` names, at its default
    /// config.
    pub fn run_named(&self, protocol: ProtocolId, instruments: Instruments) -> RunOutcome {
        with_protocol!(protocol, P => self.run_observed::<P>(|_| {}, instruments))
    }

    fn builder(&self, instruments: Instruments) -> NetworkBuilder {
        let (links, schedule) = self.links_and_schedule();
        assert!(
            reaches_all(&links),
            "initial mobile topology has no usable path to some node (reseed)"
        );
        let mut builder = NetworkBuilder::new(links, self.seed)
            .tie_break(self.tie_break)
            .shards(self.shards)
            .link_schedule(schedule);
        if self.churn > 0 {
            let candidates: Vec<NodeId> = (1..self.nodes).map(NodeId::from_index).collect();
            let plan = FaultPlan::seeded(self.seed).random_crash_restarts(
                self.churn,
                &candidates,
                (SimTime::from_secs(30), self.deadline),
                (SimDuration::from_secs(60), SimDuration::from_secs(600)),
            );
            builder = builder.faults(plan);
        }
        instruments.attach(builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp::Mnp;

    /// Seed 2 is viable for the default 9-node field (checked below);
    /// tests pin it so they exercise runs, not reseeding.
    fn scenario() -> MobileExperiment {
        MobileExperiment::new(9).seed(2).speed(2.0)
    }

    #[test]
    fn default_scenario_is_viable_and_scheduled() {
        let s = scenario();
        assert!(s.is_viable(), "pick a viable seed for the tests");
        let mobile = s.mobile_topology();
        assert!(
            !mobile.updates.is_empty(),
            "motion at 2 ft/s must re-derive some link"
        );
    }

    #[test]
    fn mnp_completes_over_a_mobile_field() {
        let out = scenario().run::<Mnp>(|_| {});
        assert!(out.completed, "dissemination must survive 2 ft/s motion");
    }

    #[test]
    fn zero_speed_matches_the_static_equivalent_topology() {
        // A zero-speed mobile scenario induces no schedule, so two runs
        // (one with the no-op schedule machinery, one fresh) agree.
        let s = MobileExperiment::new(9).seed(2).speed(0.0);
        assert!(s.mobile_topology().updates.is_empty());
        let a = s.run::<Mnp>(|_| {});
        let b = s.run::<Mnp>(|_| {});
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.sent, b.sent);
    }

    #[test]
    fn churn_and_motion_compose() {
        let out = scenario().churn(3).run::<Mnp>(|_| {});
        assert!(out.completed, "churned nodes must rejoin and finish");
    }

    #[test]
    fn corridor_layout_runs_multihop() {
        let s = MobileExperiment::new(8)
            .field(120.0, 25.0)
            .layout(FieldLayout::Corridor { width_ft: 25.0 })
            .speed(1.0)
            .seed(6);
        assert!(s.is_viable(), "corridor seed 6 is viable (checked)");
        let out = s.run::<Mnp>(|_| {});
        assert!(out.completed);
    }
}
