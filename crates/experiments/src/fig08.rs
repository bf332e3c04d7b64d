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

/// Runs the paper-sized experiment: 20×20 grid at 10 ft, 4 segments.
pub fn run(seed: u64) -> Fig08 {
    run_with(20, 20, 4, seed)
}

/// Runs a scaled variant (tests use small grids).
pub fn run_with(rows: usize, cols: usize, segments: u16, seed: u64) -> Fig08 {
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
        let (mut centre, mut edge) = (Vec::new(), Vec::new());
        for (id, _) in self.outcome.trace.iter() {
            let v = self.outcome.art_s[id.index()];
            if self.outcome.grid.is_edge(id) {
                edge.push(v);
            } else {
                centre.push(v);
            }
        }
        (mean(&centre), mean(&edge))
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

    #[test]
    fn art_is_a_fraction_of_completion_time() {
        let fig = run_with(6, 6, 1, 3);
        assert!(fig.outcome.completed);
        let mean_art = fig.outcome.mean_art_s();
        let completion = fig.outcome.completion_s();
        assert!(
            mean_art < completion,
            "sleeping must save radio time: {mean_art} vs {completion}"
        );
    }

    #[test]
    fn noidle_art_is_never_larger() {
        let fig = run_with(5, 5, 1, 4);
        for (a, b) in fig.outcome.art_s.iter().zip(&fig.outcome.art_noidle_s) {
            assert!(b <= a, "w/o-initial-idle ART must not exceed total ART");
        }
    }

    #[test]
    fn report_renders_heatmap() {
        let fig = run_with(4, 4, 1, 5);
        let s = fig.to_string();
        assert!(s.contains("ART by location"));
        assert!(s.lines().count() > 6);
    }
}
