//! X2: the §6 subset-dissemination extension.
//!
//! "In the scenario that several subsets of the network exist, rather than
//! sending the data to the entire network, we can send different types of
//! data to several disjoint or non-disjoint subsets of the network."
//!
//! This experiment targets a program at the left half of a grid. Members
//! must complete; non-members must stay empty, transmit nothing, and —
//! because every transfer they overhear is "a segment that is not of
//! interest" — spend most of the run asleep.

use std::fmt;

use mnp::{Mnp, MnpConfig};
use mnp_net::{Network, NetworkBuilder};
use mnp_radio::NodeId;
use mnp_sim::SimTime;
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::GridSpec;

use crate::runner::GridExperiment;

/// The subset-dissemination result.
#[derive(Clone, Debug)]
pub struct Subsets {
    /// Grid label.
    pub label: String,
    /// Whether all members completed.
    pub members_complete: bool,
    /// Number of member nodes.
    pub members: usize,
    /// Number of non-member nodes.
    pub outsiders: usize,
    /// Completion time of the last member (s).
    pub completion_s: f64,
    /// Mean active radio time of members (s).
    pub member_art_s: f64,
    /// Mean active radio time of non-members (s).
    pub outsider_art_s: f64,
    /// Packets stored by non-members (must be 0).
    pub outsider_packets: u32,
    /// Messages transmitted by non-members (must be 0).
    pub outsider_sent: u64,
}

/// Runs on an `n×n` grid, targeting columns `< n/2` (the paper-scale
/// run: 12×12).
pub fn run(n: usize, seed: u64) -> Subsets {
    let grid = GridSpec::new(n, n, 10.0);
    let links = GridExperiment::new(n, n, 10.0).seed(seed).sample_links();
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(2));
    let cfg = MnpConfig::for_image(&image);

    let in_subset = |id: NodeId| grid.coords(id).1 < n / 2;
    // The one three-way factory: members, outsiders, and the base.
    let mut net: Network<Mnp> = NetworkBuilder::new(links, seed).build(|id, _| {
        if id == grid.corner() {
            Mnp::base_station(cfg.clone(), &image)
        } else if in_subset(id) {
            Mnp::node(cfg.clone())
        } else {
            Mnp::node_uninterested(cfg.clone())
        }
    });

    let members: Vec<NodeId> = grid.nodes().filter(|&id| in_subset(id)).collect();
    let done = net.run_until(
        |net| members.iter().all(|&m| net.protocol(m).is_complete()),
        SimTime::from_secs(4 * 3_600),
    );
    let completion = members
        .iter()
        .filter_map(|&m| net.trace().node(m).completion)
        .max()
        .unwrap_or_else(|| net.now());
    net.finalize_meters(completion);

    let outsiders: Vec<NodeId> = grid.nodes().filter(|&id| !in_subset(id)).collect();
    let mean_art = |ids: &[NodeId], net: &Network<Mnp>| {
        let v: Vec<f64> = ids
            .iter()
            .map(|&id| net.trace().node(id).active_radio.as_secs_f64())
            .collect();
        mnp_trace::mean(&v)
    };

    Subsets {
        label: format!("{grid}, left half targeted"),
        members_complete: done,
        members: members.len(),
        outsiders: outsiders.len(),
        completion_s: completion.as_secs_f64(),
        member_art_s: mean_art(&members, &net),
        outsider_art_s: mean_art(&outsiders, &net),
        outsider_packets: outsiders
            .iter()
            .map(|&id| net.protocol(id).store().packets_received())
            .sum(),
        outsider_sent: outsiders.iter().map(|&id| net.trace().node(id).sent).sum(),
    }
}

impl fmt::Display for Subsets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== X2: subset dissemination, {} ===", self.label)?;
        writeln!(
            f,
            "{} members complete={} in {:.0}s; {} outsiders untouched (stored {} pkts, sent {} msgs)",
            self.members,
            self.members_complete,
            self.completion_s,
            self.outsiders,
            self.outsider_packets,
            self.outsider_sent
        )?;
        writeln!(
            f,
            "mean ART: members {:.0}s vs outsiders {:.0}s",
            self.member_art_s, self.outsider_art_s
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        members_complete_and_outsiders_stay_clean => "X2-clean",
        outsiders_sleep_through_the_transfers_they_overhear => "X2-sleep",
    }
}
