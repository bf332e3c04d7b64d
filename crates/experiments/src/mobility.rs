//! Mobile and irregular dissemination scenarios (DESIGN.md §16).
//!
//! [`MobileExperiment`] is the moving-field form of the one
//! [`Scenario`]: nodes land in an irregular field ([`FieldLayout`]), move
//! under a mobility model while the image disseminates, and optionally
//! churn (crash–restart) throughout the run. Motion becomes a
//! pre-materialized potential-edge topology plus a schedule of
//! [`LinkChange`](mnp_net::LinkChange)s (`mnp_topology::mobility`), so
//! runs stay byte-identical per seed.

use mnp_net::FaultPlan;
use mnp_radio::{NodeId, PowerLevel};
use mnp_sim::{SimDuration, SimTime};
use mnp_topology::mobility::{materialize, Field, MobileTopology, MobilityModel};
use mnp_topology::{GridSpec, Placement};

use crate::runner::{topology_rng, Sampled, Scenario, Site};

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

/// A moving field: `nodes` motes in a `width_ft × height_ft` field,
/// moving under a [`MobilityModel`], base station at node 0.
#[derive(Clone, Debug)]
pub struct Mobile {
    nodes: usize,
    width_ft: f64,
    height_ft: f64,
    layout: FieldLayout,
    model: MobilityModel,
    tick: SimDuration,
    churn: usize,
}

impl Mobile {
    /// The potential-edge topology and link schedule of a run seeded
    /// `seed` whose motion lasts until `deadline`.
    fn topology(&self, seed: u64, deadline: SimTime) -> MobileTopology {
        let field = Field::new(self.width_ft, self.height_ft);
        let mut topo_rng = topology_rng(seed);
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
        let horizon = SimDuration::from_micros(deadline.as_micros());
        let plan = self
            .model
            .plan(&initial, field, horizon, self.tick, &topo_rng.derive(1));
        materialize(&initial, &plan, PowerLevel::FULL, &mut topo_rng.derive(2))
    }
}

impl Site for Mobile {
    fn sample(&self, seed: u64, deadline: SimTime) -> Sampled {
        let mobile = self.topology(seed, deadline);
        let churn = (self.churn > 0).then(|| {
            let candidates: Vec<NodeId> = (1..self.nodes).map(NodeId::from_index).collect();
            FaultPlan::seeded(seed).random_crash_restarts(
                self.churn,
                &candidates,
                (SimTime::from_secs(30), deadline),
                (SimDuration::from_secs(60), SimDuration::from_secs(600)),
            )
        });
        (mobile.topology.links, Some(mobile.updates), churn)
    }

    /// A field has no rows or columns; [`RunOutcome`](crate::RunOutcome)
    /// records it as a 1×n line at unit spacing.
    fn grid_spec(&self) -> GridSpec {
        GridSpec::new(1, self.nodes, 1.0)
    }
}

/// A mobile dissemination scenario: the [`Scenario`] on a [`Mobile`]
/// field.
pub type MobileExperiment = Scenario<Mobile>;

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
        Scenario::on(Mobile {
            nodes,
            width_ft: side,
            height_ft: side,
            layout: FieldLayout::Uniform,
            model: MobilityModel::RandomWaypoint {
                speed_ft_s: 1.0,
                pause_s: 30.0,
            },
            tick: SimDuration::from_secs(10),
            churn: 0,
        })
    }

    /// Sets the field dimensions in feet.
    pub fn field(mut self, width_ft: f64, height_ft: f64) -> Self {
        self.site.width_ft = width_ft;
        self.site.height_ft = height_ft;
        self
    }

    /// Sets the initial placement shape.
    pub fn layout(mut self, layout: FieldLayout) -> Self {
        self.site.layout = layout;
        self
    }

    /// Sets the mobility model.
    pub fn model(mut self, model: MobilityModel) -> Self {
        self.site.model = model;
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
        self.site.tick = tick;
        self
    }

    /// Adds `events` random crash–restart churn events over the run
    /// (non-base nodes leave for 1–10 minutes and rejoin), drawn from
    /// the scenario seed via [`FaultPlan::random_crash_restarts`]. A
    /// churning field takes no explicit
    /// [`faults`](Scenario::faults) plan besides.
    pub fn churn(mut self, events: usize) -> Self {
        self.site.churn = events;
        self
    }

    /// Builds the potential-edge topology and link schedule this
    /// scenario runs over — exposed for tests.
    pub fn mobile_topology(&self) -> MobileTopology {
        self.site.topology(self.seed, self.deadline)
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
