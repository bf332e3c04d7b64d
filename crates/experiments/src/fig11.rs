//! Fig. 11: transmission and reception distribution in the 20×20 network.
//!
//! "The number of messages sent by each node is low, on average 100
//! messages ... The node sending the most number of messages is the base
//! station ... In the reception distribution, the nodes in the center
//! receive many more messages than the ones on the edge or at the corner."

use std::fmt;

use mnp_trace::{mean, render_heatmap};

use crate::runner::RunOutcome;

/// The Fig. 11 report, derived from the Fig. 8 run.
#[derive(Clone, Debug)]
pub struct Fig11<'a> {
    /// The shared run.
    pub outcome: &'a RunOutcome,
}

/// Builds the report over an existing run.
pub fn report(outcome: &RunOutcome) -> Fig11<'_> {
    Fig11 { outcome }
}

impl Fig11<'_> {
    /// Mean messages sent per node.
    pub fn mean_sent(&self) -> f64 {
        mean(&self.outcome.sent)
    }

    /// The node that transmitted the most and its count.
    pub fn top_sender(&self) -> (usize, f64) {
        self.outcome
            .sent
            .iter()
            .copied()
            .enumerate()
            .fold(
                (0, f64::MIN),
                |acc, (i, v)| if v > acc.1 { (i, v) } else { acc },
            )
    }

    /// Mean receptions for interior vs edge nodes.
    pub fn centre_vs_edge_received(&self) -> (f64, f64) {
        self.outcome.centre_vs_edge(&self.outcome.received)
    }
}

impl fmt::Display for Fig11<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.outcome;
        writeln!(f, "=== Fig 11: tx/rx distribution, {} ===", o.grid)?;
        let (top, count) = self.top_sender();
        writeln!(
            f,
            "mean sent {:.0} msgs/node; top sender n{top} with {count:.0}",
            self.mean_sent()
        )?;
        let (centre, edge) = self.centre_vs_edge_received();
        writeln!(f, "mean received: centre {centre:.0} vs edge {edge:.0}")?;
        writeln!(f, "transmissions by location:")?;
        write!(
            f,
            "{}",
            render_heatmap(o.grid.rows(), o.grid.cols(), &o.sent)
        )?;
        writeln!(f, "receptions by location:")?;
        write!(
            f,
            "{}",
            render_heatmap(o.grid.rows(), o.grid.cols(), &o.received)
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    crate::claims::claim_tests! {
        base_station_sends_the_most => "F11-top",
        centre_receives_more_than_edge => "F11-centre",
    }
}
