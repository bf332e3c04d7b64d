//! Turning geometry into a lossy link graph.

use mnp_radio::{loss, LinkTable, NodeId, PowerLevel};
use mnp_sim::SimRng;

use crate::placement::Placement;

/// A fully generated topology: positions plus the sampled link graph.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Node positions.
    pub placement: Placement,
    /// Sampled directed lossy links.
    pub links: LinkTable,
    /// Per-node transmission power used during sampling.
    pub power: Vec<PowerLevel>,
}

/// Builds a [`Topology`] from a [`Placement`] and power settings.
///
/// Every directed edge is sampled independently from the distance-based
/// loss model (see [`mnp_radio::loss`]), so links are asymmetric and two
/// same-distance links differ — the properties MNP's evaluation environment
/// (TOSSIM) provides.
///
/// The per-node power override exists for the paper's §6 extension, where a
/// node with a low battery "advertises with lower power level" to shrink
/// its follower set.
///
/// # Example
///
/// ```
/// use mnp_radio::PowerLevel;
/// use mnp_sim::SimRng;
/// use mnp_topology::{GridSpec, TopologyBuilder};
///
/// let topo = TopologyBuilder::new(GridSpec::new(3, 3, 10.0).placement())
///     .power(PowerLevel::FULL)
///     .build(&mut SimRng::new(5));
/// assert!(topo.links.edge_count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    placement: Placement,
    default_power: PowerLevel,
    overrides: Vec<(NodeId, PowerLevel)>,
}

impl TopologyBuilder {
    /// Starts a builder over `placement` at full power.
    pub fn new(placement: Placement) -> Self {
        TopologyBuilder {
            placement,
            default_power: PowerLevel::FULL,
            overrides: Vec::new(),
        }
    }

    /// Sets the transmission power used by every node.
    pub fn power(mut self, power: PowerLevel) -> Self {
        self.default_power = power;
        self
    }

    /// Overrides the transmission power of one node (battery-aware
    /// extension, §6).
    pub fn node_power(mut self, node: NodeId, power: PowerLevel) -> Self {
        self.overrides.push((node, power));
        self
    }

    /// Samples the link graph.
    ///
    /// Edges are visited in `(from, to)` ID order so the result is a pure
    /// function of placement, power, and the RNG state.
    pub fn build(self, rng: &mut SimRng) -> Topology {
        let n = self.placement.len();
        let mut power = vec![self.default_power; n];
        for (node, p) in &self.overrides {
            power[node.index()] = *p;
        }
        let mut links = LinkTable::new(n);
        for (from, from_power) in power.iter().enumerate() {
            let from_id = NodeId::from_index(from);
            let range = from_power.range_ft();
            for to in 0..n {
                if from == to {
                    continue;
                }
                let to_id = NodeId::from_index(to);
                let d = self.placement.distance_ft(from_id, to_id);
                if let Some(ber) = loss::sample_edge_ber(d, range, rng) {
                    links.connect(from_id, to_id, ber);
                }
            }
        }
        Topology {
            placement: self.placement,
            links,
            power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use mnp_radio::loss::frame_success_probability;

    #[test]
    fn full_power_small_grid_is_a_clique() {
        // 3×3 at 10 ft, full power (150 ft range): everyone hears everyone.
        let topo =
            TopologyBuilder::new(GridSpec::new(3, 3, 10.0).placement()).build(&mut SimRng::new(1));
        assert_eq!(topo.links.edge_count(), 9 * 8);
    }

    #[test]
    fn low_power_forces_multihop() {
        // 5×5 at 3 ft, power 3 (~5.4 ft range): corner cannot hear the
        // opposite corner, but the graph stays connected.
        let grid = GridSpec::new(5, 5, 3.0);
        let topo = TopologyBuilder::new(grid.placement())
            .power(PowerLevel::new(3))
            .build(&mut SimRng::new(2));
        assert!(topo
            .links
            .ber(grid.node_at(0, 0), grid.node_at(4, 4))
            .is_none());
        assert!(topo.links.reaches_all(grid.corner()));
    }

    #[test]
    fn twenty_by_twenty_is_multihop_and_connected() {
        let grid = GridSpec::new(20, 20, 10.0);
        let topo = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(3));
        assert!(topo.links.reaches_all(grid.corner()));
        // The far corner (269 ft away) must be out of direct range.
        assert!(topo
            .links
            .ber(grid.node_at(0, 0), grid.node_at(19, 19))
            .is_none());
        // Centre nodes hear more transmitters than corner nodes (the paper's
        // reception-distribution observation).
        let audible_at = |to: NodeId| {
            grid.nodes()
                .filter(|&a| topo.links.ber(a, to).is_some())
                .count()
        };
        assert!(audible_at(grid.node_at(10, 10)) > audible_at(grid.node_at(0, 0)));
    }

    #[test]
    fn nearby_links_are_reliable() {
        let grid = GridSpec::new(2, 2, 10.0);
        let topo = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(4));
        let ber = topo
            .links
            .ber(grid.node_at(0, 0), grid.node_at(0, 1))
            .unwrap();
        assert!(frame_success_probability(ber, 376) > 0.9);
    }

    #[test]
    fn per_node_power_override_shrinks_neighborhood() {
        let grid = GridSpec::new(5, 5, 10.0);
        let weak = grid.node_at(2, 2);
        // Build many sampled topologies and compare average out-degree.
        let (mut weak_deg, mut full_deg) = (0usize, 0usize);
        for seed in 0..20 {
            let t1 = TopologyBuilder::new(grid.placement())
                .node_power(weak, PowerLevel::new(2))
                .build(&mut SimRng::new(seed));
            let t2 = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(seed));
            weak_deg += t1.links.neighbors(weak).count();
            full_deg += t2.links.neighbors(weak).count();
        }
        assert!(
            weak_deg < full_deg / 2,
            "low power should shrink reach: {weak_deg} vs {full_deg}"
        );
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let grid = GridSpec::new(4, 4, 10.0);
        let a = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(9));
        let b = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(9));
        assert_eq!(a.links.edge_count(), b.links.edge_count());
        for (id, _) in a.placement.iter() {
            let na: Vec<_> = a.links.neighbors(id).collect();
            let nb: Vec<_> = b.links.neighbors(id).collect();
            assert_eq!(na, nb);
        }
    }
}
