//! Deterministic fault injection.
//!
//! The paper motivates loss recovery with failure — "the reason can be the
//! sender dies as it is sending packets" — and its write-once EEPROM
//! discipline only pays off if a rebooted node can resume from flash. A
//! [`FaultPlan`] turns those failure modes into a reproducible schedule:
//! every fault is fixed before the run starts (either placed explicitly or
//! drawn from the plan's own seeded stream) and delivered through the
//! network's event queue, so a run with the same seed and the same plan
//! replays byte-for-byte.

use std::fmt;

use mnp_radio::{LinkTable, NodeId};
use mnp_sim::{SimDuration, SimRng, SimTime};

/// Why a [`FaultPlan`] cannot run against a given link graph.
///
/// Returned by [`FaultPlan::validate`] and
/// [`NetworkBuilder::try_build`](crate::NetworkBuilder::try_build), so a
/// harness assembling plans programmatically (the fuzz shrinker shrinking a
/// grid out from under a fault schedule, for instance) gets a typed,
/// recoverable error instead of a mid-build panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A fault names a node outside the link graph.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
        /// Number of nodes the graph actually has.
        nodes: usize,
    },
    /// A link flap names a directed edge the graph does not contain —
    /// not even as a *potential* edge. Mobile topologies materialize
    /// every pair that ever comes within audible range over the motion
    /// envelope (disconnected spans held at BER 1.0), and flaps on those
    /// potential edges validate fine; this error means the pair is truly
    /// impossible — never within range at any point of the run.
    MissingEdge {
        /// Transmitting end of the named edge.
        from: NodeId,
        /// Receiving end of the named edge.
        to: NodeId,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultPlanError::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "fault plan names unknown node {node} (graph has {nodes} nodes)"
                )
            }
            FaultPlanError::MissingEdge { from, to } => {
                write!(f, "fault plan flaps missing edge {from}->{to}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlannedFault {
    /// Permanent fail-stop at `at` (same as [`Network::schedule_failure`]).
    ///
    /// [`Network::schedule_failure`]: crate::Network::schedule_failure
    Kill {
        /// The node to kill.
        node: NodeId,
        /// When it dies.
        at: SimTime,
    },
    /// Crash at `at`, reboot `down_for` later: RAM state (protocol state
    /// machine, MAC, timers) is lost, the EEPROM [`PacketStore`] survives,
    /// and the node re-enters the protocol from idle.
    ///
    /// [`PacketStore`]: mnp_storage::PacketStore
    CrashRestart {
        /// The node that crashes.
        node: NodeId,
        /// When it crashes.
        at: SimTime,
        /// How long it stays down before rebooting.
        down_for: SimDuration,
    },
    /// Degrade the directed link `from -> to` to bit-error rate `ber` at
    /// `at`, restoring the original rate `duration` later. The edge stays
    /// in the graph throughout (a BER of `1.0` loses every frame), so
    /// carrier sensing and collision accounting keep seeing the link.
    LinkFlap {
        /// Transmitting end of the flapped link.
        from: NodeId,
        /// Receiving end of the flapped link.
        to: NodeId,
        /// When the degradation starts.
        at: SimTime,
        /// How long it lasts.
        duration: SimDuration,
        /// Bit-error rate while degraded.
        ber: f64,
    },
    /// Arm `failures` transient EEPROM write faults on `node` at `at`: its
    /// next `failures` packet writes fail with
    /// [`StorageError::WriteFault`], and the protocol recovers through its
    /// normal loss-recovery path.
    ///
    /// [`StorageError::WriteFault`]: mnp_storage::StorageError::WriteFault
    StorageFaults {
        /// The node whose EEPROM misbehaves.
        node: NodeId,
        /// When the faults are armed.
        at: SimTime,
        /// How many writes will fail.
        failures: u32,
    },
}

impl PlannedFault {
    /// The instant the fault is injected.
    pub fn at(&self) -> SimTime {
        match *self {
            PlannedFault::Kill { at, .. }
            | PlannedFault::CrashRestart { at, .. }
            | PlannedFault::LinkFlap { at, .. }
            | PlannedFault::StorageFaults { at, .. } => at,
        }
    }
}

/// A seeded, reproducible schedule of faults for one run.
///
/// Faults can be placed explicitly ([`FaultPlan::kill`],
/// [`FaultPlan::crash_restart`], [`FaultPlan::link_flap`],
/// [`FaultPlan::storage_faults`]) or drawn from the plan's own random
/// stream (`random_*` helpers). The stream is derived only from the plan
/// seed and consumed in call order, so the same construction sequence
/// always yields the same schedule — independent of the network seed, which
/// keeps the fault schedule stable while sweeping protocol randomness.
///
/// Hand the finished plan to
/// [`NetworkBuilder::faults`](crate::NetworkBuilder::faults).
///
/// # Example
///
/// ```
/// use mnp_net::FaultPlan;
/// use mnp_radio::NodeId;
/// use mnp_sim::{SimDuration, SimTime};
///
/// let plan = FaultPlan::seeded(9)
///     .crash_restart(NodeId(3), SimTime::from_secs(5), SimDuration::from_secs(10))
///     .storage_faults(NodeId(2), SimTime::from_secs(1), 4);
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: SimRng,
    faults: Vec<PlannedFault>,
}

/// The BER a random link flap degrades to: total loss, as in a burst of
/// external interference.
const FLAP_BER: f64 = 1.0;

impl FaultPlan {
    /// An empty plan whose `random_*` helpers draw from a stream derived
    /// from `seed` (independent of the network seed).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            rng: SimRng::new(seed).derive(0xfa017),
            faults: Vec::new(),
        }
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Checks every scheduled fault against `links`: nodes must be in
    /// range, and flapped edges must exist. The network builder runs this
    /// up front, before any fault is expanded into queue events, so a bad
    /// plan is rejected whole instead of panicking mid-build.
    ///
    /// `links` is the graph the network will actually run on. For a
    /// mobile topology that is the *potential-edge set* — pairs that are
    /// out of range right now but come within range later exist at BER
    /// 1.0 — so churn and mobility plans validate against everything the
    /// run can ever connect, and [`FaultPlanError::MissingEdge`] is
    /// reserved for truly impossible pairs.
    pub fn validate(&self, links: &LinkTable) -> Result<(), FaultPlanError> {
        let nodes = links.len();
        let check_node = |node: NodeId| {
            if node.index() < nodes {
                Ok(())
            } else {
                Err(FaultPlanError::UnknownNode { node, nodes })
            }
        };
        for fault in &self.faults {
            match *fault {
                PlannedFault::Kill { node, .. }
                | PlannedFault::CrashRestart { node, .. }
                | PlannedFault::StorageFaults { node, .. } => check_node(node)?,
                PlannedFault::LinkFlap { from, to, .. } => {
                    check_node(from)?;
                    check_node(to)?;
                    if links.ber(from, to).is_none() {
                        return Err(FaultPlanError::MissingEdge { from, to });
                    }
                }
            }
        }
        Ok(())
    }

    /// Schedules a permanent fail-stop.
    pub fn kill(mut self, node: NodeId, at: SimTime) -> Self {
        self.faults.push(PlannedFault::Kill { node, at });
        self
    }

    /// Schedules a crash at `at` with a reboot `down_for` later.
    pub fn crash_restart(mut self, node: NodeId, at: SimTime, down_for: SimDuration) -> Self {
        self.faults
            .push(PlannedFault::CrashRestart { node, at, down_for });
        self
    }

    /// Schedules a link flap: `from -> to` degrades to `ber` during
    /// `[at, at + duration)`, then recovers its original rate.
    pub fn link_flap(
        mut self,
        from: NodeId,
        to: NodeId,
        at: SimTime,
        duration: SimDuration,
        ber: f64,
    ) -> Self {
        self.faults.push(PlannedFault::LinkFlap {
            from,
            to,
            at,
            duration,
            ber,
        });
        self
    }

    /// Schedules `failures` transient EEPROM write faults on `node`.
    pub fn storage_faults(mut self, node: NodeId, at: SimTime, failures: u32) -> Self {
        self.faults
            .push(PlannedFault::StorageFaults { node, at, failures });
        self
    }

    /// Draws `count` crash-restarts over `candidates`: crash instants
    /// uniform in `window`, outages uniform in `down`. The same node may be
    /// drawn more than once (it crashes repeatedly).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or either range is.
    pub fn random_crash_restarts(
        mut self,
        count: usize,
        candidates: &[NodeId],
        window: (SimTime, SimTime),
        down: (SimDuration, SimDuration),
    ) -> Self {
        assert!(!candidates.is_empty(), "no crash candidates");
        for _ in 0..count {
            let node = candidates[self.rng.index(candidates.len())];
            let at = self.draw_instant(window);
            let down_for = SimDuration::from_micros(
                self.rng
                    .range_u64(down.0.as_micros(), down.1.as_micros() + 1),
            );
            self = self.crash_restart(node, at, down_for);
        }
        self
    }

    /// Draws `count` link flaps over the edges of `links`: flap instants
    /// uniform in `window`, outages uniform in `duration`, flapped links
    /// degraded to total loss (BER 1).
    ///
    /// # Panics
    ///
    /// Panics if `links` has no edges.
    pub fn random_link_flaps(
        mut self,
        count: usize,
        links: &LinkTable,
        window: (SimTime, SimTime),
        duration: (SimDuration, SimDuration),
    ) -> Self {
        let edges: Vec<(NodeId, NodeId)> = (0..links.len())
            .map(NodeId::from_index)
            .flat_map(|from| links.neighbors(from).map(move |(to, _)| (from, to)))
            .collect();
        assert!(!edges.is_empty(), "no edges to flap");
        for _ in 0..count {
            let (from, to) = edges[self.rng.index(edges.len())];
            let at = self.draw_instant(window);
            let span = SimDuration::from_micros(
                self.rng
                    .range_u64(duration.0.as_micros(), duration.1.as_micros() + 1),
            );
            self = self.link_flap(from, to, at, span, FLAP_BER);
        }
        self
    }

    fn draw_instant(&mut self, window: (SimTime, SimTime)) -> SimTime {
        SimTime::from_micros(
            self.rng
                .range_u64(window.0.as_micros(), window.1.as_micros() + 1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> LinkTable {
        let mut links = LinkTable::new(n);
        for i in 0..n {
            let next = NodeId::from_index((i + 1) % n);
            links.connect(NodeId::from_index(i), next, 0.0);
            links.connect(next, NodeId::from_index(i), 0.0);
        }
        links
    }

    #[test]
    fn same_seed_same_construction_gives_identical_plans() {
        let build = || {
            FaultPlan::seeded(42)
                .random_crash_restarts(
                    3,
                    &[NodeId(1), NodeId(2), NodeId(3)],
                    (SimTime::from_secs(1), SimTime::from_secs(30)),
                    (SimDuration::from_secs(2), SimDuration::from_secs(20)),
                )
                .random_link_flaps(
                    2,
                    &ring(4),
                    (SimTime::from_secs(1), SimTime::from_secs(30)),
                    (SimDuration::from_secs(1), SimDuration::from_secs(5)),
                )
        };
        assert_eq!(build().faults(), build().faults());
        assert_eq!(build().faults().len(), 5);
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let draw = |seed| {
            FaultPlan::seeded(seed)
                .random_crash_restarts(
                    4,
                    &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
                    (SimTime::from_secs(1), SimTime::from_secs(60)),
                    (SimDuration::from_secs(2), SimDuration::from_secs(20)),
                )
                .faults()
                .to_vec()
        };
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn explicit_faults_keep_insertion_order() {
        let plan = FaultPlan::seeded(0)
            .kill(NodeId(5), SimTime::from_secs(3))
            .storage_faults(NodeId(1), SimTime::from_secs(1), 2);
        assert_eq!(
            plan.faults(),
            &[
                PlannedFault::Kill {
                    node: NodeId(5),
                    at: SimTime::from_secs(3),
                },
                PlannedFault::StorageFaults {
                    node: NodeId(1),
                    at: SimTime::from_secs(1),
                    failures: 2,
                },
            ]
        );
        assert_eq!(plan.faults()[0].at(), SimTime::from_secs(3));
    }

    #[test]
    fn validate_accepts_in_range_plans() {
        let links = ring(4);
        let plan = FaultPlan::seeded(1)
            .kill(NodeId(3), SimTime::from_secs(1))
            .crash_restart(NodeId(2), SimTime::from_secs(2), SimDuration::from_secs(3))
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                1.0,
            )
            .storage_faults(NodeId(1), SimTime::from_secs(1), 2);
        assert_eq!(plan.validate(&links), Ok(()));
    }

    #[test]
    fn validate_rejects_unknown_nodes_and_missing_edges() {
        let links = ring(4);
        let bad_node = FaultPlan::seeded(1).kill(NodeId(9), SimTime::from_secs(1));
        assert_eq!(
            bad_node.validate(&links),
            Err(FaultPlanError::UnknownNode {
                node: NodeId(9),
                nodes: 4,
            })
        );
        // 0 -> 2 is a chord the 4-ring does not have.
        let bad_edge = FaultPlan::seeded(1).link_flap(
            NodeId(0),
            NodeId(2),
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
        );
        let err = bad_edge.validate(&links).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::MissingEdge {
                from: NodeId(0),
                to: NodeId(2),
            }
        );
        assert!(err.to_string().contains("missing edge"), "{err}");
    }

    #[test]
    fn validate_accepts_flaps_on_disconnected_potential_edges() {
        // A mobile topology keeps future edges in the graph at BER 1.0;
        // a flap on one must validate even though the pair cannot hear
        // each other at t = 0.
        let mut links = ring(4);
        links.connect(NodeId(0), NodeId(2), 1.0);
        let plan = FaultPlan::seeded(1).link_flap(
            NodeId(0),
            NodeId(2),
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
        );
        assert_eq!(plan.validate(&links), Ok(()));
    }

    #[test]
    fn random_draws_land_inside_their_ranges() {
        let window = (SimTime::from_secs(2), SimTime::from_secs(10));
        let down = (SimDuration::from_secs(1), SimDuration::from_secs(4));
        let plan =
            FaultPlan::seeded(7).random_crash_restarts(50, &[NodeId(1), NodeId(2)], window, down);
        for f in plan.faults() {
            let PlannedFault::CrashRestart { node, at, down_for } = *f else {
                panic!("expected crash-restart, got {f:?}");
            };
            assert!(node == NodeId(1) || node == NodeId(2));
            assert!(at >= window.0 && at <= window.1);
            assert!(down_for >= down.0 && down_for <= down.1);
        }
    }
}
