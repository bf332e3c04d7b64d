//! C2: the diagonal-vs-edge propagation dynamic.
//!
//! Hui & Culler report that in dense Deluge deployments "the propagation
//! speed along the diagonal is significantly less than the speed along the
//! edge", caused by hidden-terminal collisions in the grid interior. The
//! MNP paper claims: "we did not observe this kind of behavior" thanks to
//! sender selection. This experiment measures per-node completion times
//! along the edge and the main diagonal for both protocols.

use std::fmt;

use mnp::Mnp;
use mnp_baselines::Deluge;
use mnp_sim::SimTime;

use crate::runner::{GridExperiment, RunOutcome};

/// Diagonal-vs-edge speeds for one protocol.
#[derive(Clone, Debug)]
pub struct DiagonalRow {
    /// Protocol name.
    pub protocol: &'static str,
    /// Completion times (s) along the edge `(0, d)`, indexed by `d`.
    pub edge_s: Vec<f64>,
    /// Completion times (s) along the diagonal `(d, d)`, indexed by `d`.
    pub diagonal_s: Vec<f64>,
}

impl DiagonalRow {
    /// Mean diagonal/edge *speed* penalty at equal Chebyshev distance,
    /// normalised by the √2 geometric factor (the node `(d, d)` is √2
    /// farther in feet than `(0, d)`). 1.0 = the diagonal propagates at
    /// the same speed per foot; larger = a genuine interior slowdown of
    /// the kind Hui & Culler report for Deluge. Only distances where both
    /// nodes completed count (an unfinished node's time is `NaN`).
    pub fn slowdown(&self) -> f64 {
        let ratios: Vec<f64> = self
            .edge_s
            .iter()
            .zip(&self.diagonal_s)
            .skip(2)
            .filter(|(e, d)| **e > 0.0 && d.is_finite())
            .map(|(e, d)| (d / e) / std::f64::consts::SQRT_2)
            .collect();
        mnp_trace::mean(&ratios)
    }
}

/// The C2 result.
#[derive(Clone, Debug)]
pub struct Diagonal {
    /// Grid label.
    pub label: String,
    /// MNP and Deluge rows.
    pub rows: Vec<DiagonalRow>,
}

/// Runs MNP and Deluge-like over an `n×n` grid with a 1-segment image
/// (the paper: 20×20).
pub fn run(n: usize, seed: u64) -> Diagonal {
    let scenario = GridExperiment::new(n, n, 10.0)
        .segments(1)
        .seed(seed)
        .deadline(SimTime::from_secs(8 * 3_600));
    let mnp = scenario.run::<Mnp>(|_| {});
    let deluge = scenario.run::<Deluge>(|_| {});
    Diagonal {
        label: format!("{n}x{n} grid"),
        rows: vec![to_row("MNP", n, &mnp), to_row("Deluge-like", n, &deluge)],
    }
}

fn to_row(name: &'static str, n: usize, out: &RunOutcome) -> DiagonalRow {
    let t = |r: usize, c: usize| -> f64 {
        out.trace
            .node(out.grid.node_at(r, c))
            .completion
            .map(|t| t.as_secs_f64())
            .unwrap_or(f64::NAN)
    };
    DiagonalRow {
        protocol: name,
        edge_s: (0..n).map(|d| t(0, d)).collect(),
        diagonal_s: (0..n).map(|d| t(d, d)).collect(),
    }
}

impl fmt::Display for Diagonal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== C2: diagonal vs edge propagation, {} ===",
            self.label
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "--- {} (diagonal slowdown {:.2}x)",
                row.protocol,
                row.slowdown()
            )?;
            writeln!(f, "dist   edge(s)  diag(s)")?;
            for (d, (e, g)) in row.edge_s.iter().zip(&row.diagonal_s).enumerate() {
                writeln!(f, "{d:>4}  {e:>8.0} {g:>8.0}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::claims::claim_tests! {
        mnp_shows_no_large_diagonal_penalty => "C2-diagonal",
        completion_times_grow_with_distance => "C2-diagonal",
    }

    #[test]
    fn an_unfinished_node_does_not_turn_the_slowdown_into_nan() {
        let sqrt2 = std::f64::consts::SQRT_2;
        let row = DiagonalRow {
            protocol: "MNP",
            edge_s: vec![0.0, 5.0, 10.0, 20.0, f64::NAN],
            diagonal_s: vec![0.0, 5.0, 10.0 * sqrt2, f64::NAN, 30.0],
        };
        // Only distance 2 has both ends finished: exactly the √2 geometry.
        assert!((row.slowdown() - 1.0).abs() < 1e-12, "{}", row.slowdown());
    }
}
