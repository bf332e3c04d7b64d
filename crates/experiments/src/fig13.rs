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

/// Runs a 1-segment dissemination over a `rows × cols` grid (the paper's
/// size is lost to the OCR; 14×14 — any mid-size square shows the wave).
pub fn run(rows: usize, cols: usize, seed: u64) -> Fig13 {
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
    crate::claims::claim_tests! {
        coverage_grows_monotonically => "F13-wave",
        wave_starts_near_the_base => "F13-wave",
        propagation_rate_is_roughly_constant => "F13-wave",
    }
}
