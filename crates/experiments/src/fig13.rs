//! Fig. 13: "Code propagation progress for sending one segment (2.9 KB)";
//! snapshots of which nodes hold the segment at 30%, 60% and 90% of the
//! completion time.
//!
//! Observation: "data is propagated at a fairly constant rate from the
//! base station to the other end of the network."

use std::fmt;

use mnp::Mnp;
use mnp_sim::SimTime;
use mnp_trace::render_snapshot;

use crate::runner::{GridExperiment, RunOutcome};

/// The Fig. 13 snapshots.
#[derive(Clone, Debug)]
pub struct Fig13 {
    /// The underlying run.
    pub outcome: RunOutcome,
    /// `(fraction of completion time, coverage fraction, rendered mask)`.
    pub snapshots: Vec<(f64, f64, String)>,
}

/// Runs the paper-style experiment on a 14×14 grid (the OCR dropped the
/// paper's exact grid size; any mid-size square shows the wave).
pub fn run(seed: u64) -> Fig13 {
    run_with(14, 14, seed)
}

/// Runs a scaled variant.
pub fn run_with(rows: usize, cols: usize, seed: u64) -> Fig13 {
    let outcome = GridExperiment::new(rows, cols, 10.0)
        .segments(1)
        .seed(seed)
        .run::<Mnp>(|_| {});
    assert!(outcome.completed, "{outcome}");
    let total = outcome.completion.as_micros();
    let snapshots = [0.3, 0.6, 0.9]
        .iter()
        .map(|&frac| {
            let t = SimTime::from_micros((total as f64 * frac) as u64);
            let mask = outcome.trace.completed_mask_at(t);
            let coverage = outcome.trace.coverage_at(t);
            (
                frac,
                coverage,
                render_snapshot(outcome.grid.rows(), outcome.grid.cols(), &mask),
            )
        })
        .collect();
    Fig13 { outcome, snapshots }
}

impl fmt::Display for Fig13 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Fig 13: propagation progress, {} (1 segment) ===",
            self.outcome.grid
        )?;
        for (frac, coverage, mask) in &self.snapshots {
            writeln!(
                f,
                "at {:.0}% of time ({:.0}s): {:.0}% of nodes hold the segment",
                frac * 100.0,
                frac * self.outcome.completion_s(),
                coverage * 100.0
            )?;
            write!(f, "{mask}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_grows_monotonically() {
        let fig = run_with(6, 6, 41);
        let c: Vec<f64> = fig.snapshots.iter().map(|(_, c, _)| *c).collect();
        assert!(c[0] <= c[1] && c[1] <= c[2], "wave must advance: {c:?}");
        assert!(c[2] > 0.5, "90% of time should cover most nodes: {c:?}");
    }

    #[test]
    fn wave_starts_near_the_base() {
        let fig = run_with(6, 6, 41);
        let (_, _, first) = &fig.snapshots[0];
        // The top-left corner (base) must be covered in the first snapshot.
        assert!(first.starts_with('#'), "base holds the segment:\n{first}");
    }

    #[test]
    fn propagation_rate_is_roughly_constant() {
        // "Data is propagated at a fairly constant rate": coverage at 60%
        // of time should be far beyond coverage at 30%, not saturated
        // early or all at the end.
        let fig = run_with(8, 8, 43);
        let c30 = fig.snapshots[0].1;
        let c60 = fig.snapshots[1].1;
        assert!(c60 > c30, "wave advances between snapshots");
    }
}
