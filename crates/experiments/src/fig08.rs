//! Figs. 8 and 9: active radio time in the simulated 20×20 grid.
//!
//! "In Figure 8, we show the active radio time distribution in a 20 by 20
//! network. The simulation starts by the base station sending a 4-segment
//! program (11.5 KB). ... The active radio time for the nodes in the
//! center is approximately half (or even less) of those on the edges."
//! Fig. 9 shows the same run with the initial idle-listening span (before
//! the first advertisement is heard) excluded.

use std::fmt;

use mnp::Mnp;
use mnp_sim::SimTime;
use mnp_trace::{max, mean, min, render_heatmap};

use crate::runner::{GridExperiment, RunOutcome};

/// The Fig. 8/9 report over one 20×20 run.
#[derive(Clone, Debug)]
pub struct Fig08 {
    /// The underlying run (shared with Figs. 11 and 12).
    pub outcome: RunOutcome,
}

/// Runs MNP over a `rows × cols` grid at 10 ft with a `segments`-segment
/// image (the paper: 20×20, 4 segments).
pub fn run(rows: usize, cols: usize, segments: u16, seed: u64) -> Fig08 {
    let outcome = GridExperiment::new(rows, cols, 10.0)
        .segments(segments)
        .seed(seed)
        .deadline(SimTime::from_secs(8 * 3_600))
        .run::<Mnp>(|_| {});
    Fig08 { outcome }
}

impl Fig08 {
    /// Mean ART of nodes in the interior vs nodes on the grid edge.
    pub fn centre_vs_edge_art(&self) -> (f64, f64) {
        self.outcome.centre_vs_edge(&self.outcome.art_s)
    }
}

impl fmt::Display for Fig08 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.outcome;
        writeln!(f, "=== Fig 8/9: active radio time, {} ===", o.grid)?;
        writeln!(
            f,
            "completion {:.0}s | ART mean {:.0}s min {:.0}s max {:.0}s | ART w/o initial idle mean {:.0}s",
            o.completion_s(),
            mean(&o.art_s),
            min(&o.art_s),
            max(&o.art_s),
            mean(&o.art_noidle_s),
        )?;
        let (centre, edge) = self.centre_vs_edge_art();
        writeln!(f, "centre mean {centre:.0}s vs edge mean {edge:.0}s")?;
        writeln!(f, "ART by location (dark = high):")?;
        write!(
            f,
            "{}",
            render_heatmap(o.grid.rows(), o.grid.cols(), &o.art_s)
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::claims::claim_tests! {
        art_is_a_fraction_of_completion_time => "F8-sleep",
        noidle_art_is_never_larger => "F9-noidle",
    }

    #[test]
    fn report_renders_heatmap() {
        let fig = run(4, 4, 1, 5);
        let s = fig.to_string();
        assert!(s.contains("ART by location"));
        assert!(s.lines().count() > 6);
    }
}
