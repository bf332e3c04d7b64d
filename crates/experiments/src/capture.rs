//! X4: capture-effect sensitivity.
//!
//! Our conservative medium destroys both frames on any overlap; real
//! CC1000 radios (and partially TOSSIM's bit-level model) let a much
//! stronger signal survive. EXPERIMENTS.md attributes the reproduction's
//! main quantitative divergence (active radio time) to this choice; this
//! experiment quantifies it by running the Fig.-8 scenario with capture
//! off and on.

use std::fmt;

use mnp::Mnp;

use crate::runner::GridExperiment;

/// One row of the sensitivity table.
#[derive(Clone, Copy, Debug)]
pub struct CaptureRow {
    /// Whether capture was enabled.
    pub capture: bool,
    /// Completion time (s).
    pub completion_s: f64,
    /// Mean active radio time (s).
    pub art_s: f64,
    /// Collisions observed at receivers.
    pub collisions: u64,
    /// Download failures.
    pub fails: u64,
}

/// The sensitivity result.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Grid label.
    pub label: String,
    /// Rows: capture off, capture on.
    pub rows: Vec<CaptureRow>,
}

/// Runs the paper-scale comparison: 20×20 grid, 2 segments.
pub fn run(seed: u64) -> Capture {
    run_with(20, 2, seed)
}

/// Runs on an `n×n` grid.
pub fn run_with(n: usize, segments: u16, seed: u64) -> Capture {
    let rows = [false, true]
        .iter()
        .map(|&capture| {
            let out = GridExperiment::new(n, n, 10.0)
                .segments(segments)
                .seed(seed)
                .capture(capture)
                .run::<Mnp>(|_| {});
            assert!(out.completed, "capture={capture}: {out}");
            CaptureRow {
                capture,
                completion_s: out.completion_s(),
                art_s: out.mean_art_s(),
                collisions: out.collisions,
                fails: out.protocol_fails,
            }
        })
        .collect();
    Capture {
        label: format!("{n}x{n} grid, {segments} segments"),
        rows,
    }
}

impl fmt::Display for Capture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== X4: capture-effect sensitivity, {} ===", self.label)?;
        writeln!(f, "capture  completion(s)  ART(s)  collisions  fails")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>7} {:>14.0} {:>7.0} {:>11} {:>6}",
                r.capture, r.completion_s, r.art_s, r.collisions, r.fails
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_reduces_collisions() {
        // Capture needs a BER spread to act on, so the claim only holds on
        // a multihop grid: a small full-power grid is a near-clique where
        // signals rarely differ by the order of magnitude capture demands,
        // and the schedule perturbation dominates. Aggregate over seeds —
        // one run's collision total is noisy either way.
        let (mut without, mut with) = (0u64, 0u64);
        for seed in 901..904 {
            let c = run_with(14, 1, seed);
            without += c.rows[0].collisions;
            with += c.rows[1].collisions;
        }
        assert!(
            with < without,
            "capture must reduce collision damage in aggregate: {with} vs {without}"
        );
    }

    #[test]
    fn both_modes_complete() {
        let c = run_with(5, 1, 902);
        assert_eq!(c.rows.len(), 2);
    }
}
