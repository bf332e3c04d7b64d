//! X4: capture-effect sensitivity.
//!
//! Our conservative medium destroys both frames on any overlap; real
//! CC1000 radios (and partially TOSSIM's bit-level model) let a much
//! stronger signal survive. This experiment measures what that choice
//! costs by running the Fig.-8 scenario with capture off and on: at the
//! paper's scale capture cuts completion and active radio time by about a
//! quarter but leaves ART's share of completion where it was
//! (EXPERIMENTS.md, X4).

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

/// Runs the Fig.-8 scenario on an `n×n` grid with capture off, then on
/// (the paper-scale comparison: 20×20, 2 segments).
pub fn run(n: usize, segments: u16, seed: u64) -> Capture {
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
    crate::claims::claim_tests! {
        capture_reduces_collisions => "X4-capture",
        both_modes_complete => "X4-capture",
    }
}
